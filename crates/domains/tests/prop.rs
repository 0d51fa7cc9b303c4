//! Property tests for the domain decision procedures.
//!
//! Each quantifier elimination is checked against an independent oracle:
//! Cooper against brute-force integer search, ⟨ℕ,′⟩ against enumeration,
//! Lemma A.2's arithmetic criterion against the witness builder, and the
//! trace-domain QE against model checking over a finite sample universe.

use fq_domains::presburger::{self, from_logic, PFormula};
use fq_domains::traces::lemma_a2::DESystem;
use fq_domains::traces::qe;
use fq_domains::traces::rterm::{RAtom, RFormula, RTerm};
use fq_domains::traces::{enumerate_strings, TraceDomain};
use fq_domains::{DecidableTheory, Domain, NatSucc};
use fq_logic::{Formula, Term};
use fq_turing::sym::Sort;
use proptest::prelude::*;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// ⟨ℕ, ′⟩
// ---------------------------------------------------------------------

fn arb_sterm() -> impl Strategy<Value = Term> {
    (
        prop_oneof![
            prop_oneof![Just("x"), Just("y"), Just("z")].prop_map(Term::var),
            (0u64..4).prop_map(Term::Nat),
        ],
        0u64..3,
    )
        .prop_map(|(base, primes)| base.succ_n(primes))
}

fn arb_succ_qf() -> impl Strategy<Value = Formula> {
    let atom = (arb_sterm(), arb_sterm(), any::<bool>()).prop_map(|(a, b, pos)| {
        if pos {
            Formula::eq(a, b)
        } else {
            Formula::neq(a, b)
        }
    });
    atom.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::And(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::Or(vec![a, b])),
            inner.clone().prop_map(|a| Formula::Not(Box::new(a))),
        ]
    })
}

/// Brute-force a sentence over ℕ by bounding every quantifier to [0, 12].
fn brute_succ(f: &Formula, env: &mut std::collections::BTreeMap<String, u64>) -> bool {
    use fq_domains::nat_succ::STerm;
    fn term_val(t: &Term, env: &std::collections::BTreeMap<String, u64>) -> u64 {
        let s = STerm::from_term(t).expect("successor term");
        match s.value() {
            Some(v) => v,
            None => env[s.var().expect("var")] + s.offset,
        }
    }
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Eq(a, b) => term_val(a, env) == term_val(b, env),
        Formula::Not(g) => !brute_succ(g, env),
        Formula::And(gs) => gs.iter().all(|g| brute_succ(g, env)),
        Formula::Or(gs) => gs.iter().any(|g| brute_succ(g, env)),
        Formula::Implies(a, b) => !brute_succ(a, env) || brute_succ(b, env),
        Formula::Iff(a, b) => brute_succ(a, env) == brute_succ(b, env),
        Formula::Exists(v, g) => (0..=12).any(|k| {
            env.insert(v.clone(), k);
            let r = brute_succ(g, env);
            env.remove(v);
            r
        }),
        Formula::Forall(v, g) => (0..=12).all(|k| {
            env.insert(v.clone(), k);
            let r = brute_succ(g, env);
            env.remove(v);
            r
        }),
        Formula::Pred(..) => unreachable!("successor fragment has no predicates"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn nat_succ_qe_matches_bounded_search(body in arb_succ_qf()) {
        // ∃-close the body; witnesses for this fragment fit far below the
        // brute-force bound of 12 (constants < 4, offsets < 3, depth ≤ 3).
        let vars: Vec<String> = body.free_vars().into_iter().collect();
        let sentence = Formula::exists_many(vars, body);
        let qe_answer = NatSucc.decide(&sentence).unwrap();
        let brute = brute_succ(&sentence, &mut Default::default());
        prop_assert_eq!(qe_answer, brute, "sentence: {}", sentence);
    }

}

// ---------------------------------------------------------------------
// Lemma A.2
// ---------------------------------------------------------------------

fn arb_word(max_len: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(prop_oneof![Just('1'), Just('&')], 0..=max_len)
        .prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lemma_a2_criterion_agrees_with_builder(
        at_least in proptest::collection::vec((arb_word(5), 1usize..5), 0..3),
        exactly in proptest::collection::vec((arb_word(5), 1usize..5), 0..3),
    ) {
        let sys = DESystem { at_least, exactly };
        prop_assert_eq!(sys.satisfiable(), sys.witness().is_some());
    }

    #[test]
    fn lemma_a2_witness_meets_constraints(
        at_least in proptest::collection::vec((arb_word(5), 1usize..5), 0..3),
        exactly in proptest::collection::vec((arb_word(5), 1usize..5), 0..3),
    ) {
        let sys = DESystem { at_least, exactly };
        if let Some(m) = sys.witness() {
            for (v, i) in &sys.at_least {
                prop_assert!(fq_turing::trace::has_at_least_traces(&m, v, *i));
            }
            for (u, j) in &sys.exactly {
                prop_assert!(fq_turing::trace::has_exactly_traces(&m, u, *j));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Trace-domain quantifier elimination vs model checking.
// ---------------------------------------------------------------------

/// A sample universe: all strings of length ≤ 5 over the four-letter
/// alphabet, plus a few machines with their traces.
fn sample_universe() -> Vec<String> {
    let mut u = enumerate_strings(1365); // lengths 0..=5
    for m in [
        fq_turing::builders::halter(),
        fq_turing::builders::looper(),
        fq_turing::builders::scan_right_halt_on_blank(),
    ] {
        let enc = fq_turing::encode_machine(&m);
        for w in ["", "1", "11", "1&"] {
            for k in 1..=3 {
                if let Some(t) = fq_turing::trace::trace_string(&m, w, k) {
                    u.push(t);
                }
            }
        }
        u.push(enc);
    }
    u.sort();
    u.dedup();
    u
}

/// Atoms over one variable from the sort/prefix/equality fragment, whose
/// witnesses (when they exist) always occur within the sample universe.
fn arb_small_atom() -> impl Strategy<Value = RAtom> {
    let x = RTerm::Var("x".to_string());
    let consts = prop_oneof![
        Just(String::new()),
        Just("1".to_string()),
        Just("1&".to_string()),
        Just("*".to_string()),
        Just("##".to_string()),
    ];
    prop_oneof![
        prop_oneof![
            Just(Sort::Machine),
            Just(Sort::Word),
            Just(Sort::Trace),
            Just(Sort::Other)
        ]
        .prop_map({
            let x = x.clone();
            move |s| RAtom::IsSort(s, x.clone())
        }),
        arb_word(2).prop_map({
            let x = x.clone();
            move |w| RAtom::Prefix(w, x.clone())
        }),
        consts.clone().prop_map({
            let x = x.clone();
            move |c| RAtom::Eq(x.clone(), RTerm::Lit(c))
        }),
        consts.prop_map({
            let x = x.clone();
            move |c| RAtom::Eq(RTerm::w_of(x.clone()), RTerm::Lit(c))
        }),
    ]
}

fn arb_small_qf() -> impl Strategy<Value = RFormula> {
    let lit = (arb_small_atom(), any::<bool>()).prop_map(|(a, pos)| {
        let f = RFormula::Atom(a);
        if pos {
            f
        } else {
            RFormula::not(f)
        }
    });
    lit.prop_recursive(2, 10, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| RFormula::And(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| RFormula::Or(vec![a, b])),
        ]
    })
}

/// Evaluate a QF Reach formula at `x := value`.
fn check_at(f: &RFormula, value: &str) -> bool {
    let instantiated = f.subst("x", &RTerm::Lit(value.to_string()));
    fq_domains::traces::ground::eval_formula(&instantiated).expect("ground")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn trace_qe_exists_matches_model_checking(body in arb_small_qf()) {
        let universe = sample_universe();
        let sentence = RFormula::Exists("x".to_string(), Box::new(body.clone()));
        let qe_answer = qe::decide(&sentence).unwrap();
        let witness = universe.iter().any(|s| check_at(&body, s));
        // Witness found ⟹ QE must agree; and for this small fragment
        // witnesses, when they exist, are within the sample universe.
        prop_assert_eq!(qe_answer, witness, "body: {:?}", body);
    }

    #[test]
    fn trace_qe_forall_matches_model_checking(body in arb_small_qf()) {
        let universe = sample_universe();
        let sentence = RFormula::Forall("x".to_string(), Box::new(body.clone()));
        let qe_answer = qe::decide(&sentence).unwrap();
        let counterexample = universe.iter().any(|s| !check_at(&body, s));
        prop_assert_eq!(qe_answer, !counterexample, "body: {:?}", body);
    }

    #[test]
    fn trace_qe_output_is_quantifier_free(body in arb_small_qf()) {
        let f = RFormula::Exists("x".to_string(), Box::new(body));
        prop_assert!(qe::eliminate(&f).is_quantifier_free());
    }
}

// ---------------------------------------------------------------------
// Cooper's elimination vs brute-force integer search.
// ---------------------------------------------------------------------

fn arb_pres_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        prop_oneof![Just("x"), Just("y")].prop_map(Term::var),
        (0u64..4).prop_map(Term::Nat),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        (inner.clone(), inner).prop_map(|(a, b)| Term::app2("+", a, b))
    })
}

fn arb_pres_qf() -> impl Strategy<Value = Formula> {
    let atom = (arb_pres_term(), arb_pres_term(), 0usize..3).prop_map(|(a, b, op)| match op {
        0 => Formula::eq(a, b),
        1 => Formula::pred("<", vec![a, b]),
        _ => Formula::pred("<=", vec![a, b]),
    });
    atom.prop_recursive(2, 10, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::And(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::Or(vec![a, b])),
            inner.clone().prop_map(|a| Formula::Not(Box::new(a))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cooper_exists_matches_integer_search(body in arb_pres_qf()) {
        // Over ℤ: eliminate ∃x from φ(x, y) and compare the residue at
        // every y in [−8, 8] with a search for x in [−100, 100]. Terms sum
        // at most four leaves below 4, so each atom's x-coefficient stays
        // below 9 and its constant below 25; every nonempty solution set
        // of x therefore meets the search window.
        let phi = from_logic(&body, false).unwrap();
        let eliminated = presburger::eliminate(&PFormula::Exists("x".into(), Box::new(phi.clone())));
        prop_assert!(eliminated.is_quantifier_free());
        for y in -8i128..=8 {
            let mut env: BTreeMap<String, i128> = [("y".to_string(), y)].into();
            let search = (-100i128..=100).any(|x| {
                env.insert("x".to_string(), x);
                phi.eval(&env) == Some(true)
            });
            env.remove("x");
            prop_assert_eq!(
                eliminated.eval(&env),
                Some(search),
                "φ = {} at y = {}; ∃x eliminated to {:?}",
                body,
                y,
                eliminated
            );
        }
    }
}

// ---------------------------------------------------------------------
// Domain trait sanity.
// ---------------------------------------------------------------------

#[test]
fn trace_domain_enumeration_is_injective_and_total() {
    let d = TraceDomain;
    let elems = d.enumerate(300);
    assert_eq!(elems.len(), 300);
    for e in &elems {
        assert_eq!(d.parse_elem(&d.elem_term(e)), Some(e.clone()));
    }
}

// ---------------------------------------------------------------------
// Two-variable trace-QE cross-validation.
// ---------------------------------------------------------------------

/// Atoms relating two variables x and y from the sort/prefix/equality
/// fragment, with witnesses inside the sample universe.
fn arb_two_var_atom() -> impl Strategy<Value = RAtom> {
    let term = prop_oneof![
        Just(RTerm::Var("x".to_string())),
        Just(RTerm::Var("y".to_string())),
        Just(RTerm::Lit("1".to_string())),
        Just(RTerm::Lit("1&".to_string())),
        Just(RTerm::Lit(String::new())),
    ];
    prop_oneof![
        (
            prop_oneof![
                Just(Sort::Machine),
                Just(Sort::Word),
                Just(Sort::Trace),
                Just(Sort::Other)
            ],
            term.clone()
        )
            .prop_map(|(s, t)| RAtom::IsSort(s, t)),
        (arb_word(2), term.clone()).prop_map(|(w, t)| RAtom::Prefix(w, t)),
        (term.clone(), term.clone()).prop_map(|(a, b)| RAtom::Eq(a, b)),
        (term.clone(), term).prop_map(|(a, b)| RAtom::Eq(RTerm::w_of(a), b)),
    ]
}

fn arb_two_var_qf() -> impl Strategy<Value = RFormula> {
    let lit = (arb_two_var_atom(), any::<bool>()).prop_map(|(a, pos)| {
        let f = RFormula::Atom(a);
        if pos {
            f
        } else {
            RFormula::not(f)
        }
    });
    lit.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| RFormula::And(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| RFormula::Or(vec![a, b])),
        ]
    })
}

fn check_at_two(f: &RFormula, x: &str, y: &str) -> bool {
    let instantiated = f
        .subst("x", &RTerm::Lit(x.to_string()))
        .subst("y", &RTerm::Lit(y.to_string()));
    fq_domains::traces::ground::eval_formula(&instantiated).expect("ground")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn trace_qe_two_variable_exists_matches_model_checking(body in arb_two_var_qf()) {
        // Small universe for the double loop: strings of length ≤ 3 plus
        // machine encodings and traces (which are all longer than 3 and
        // must be present for the Trace/Machine-sort witnesses).
        let mut universe = enumerate_strings(85);
        for m in [
            fq_turing::builders::halter(),
            fq_turing::builders::looper(),
            fq_turing::builders::scan_right_halt_on_blank(),
        ] {
            universe.push(fq_turing::encode_machine(&m));
            for w in ["", "1", "1&"] {
                for k in 1..=2 {
                    if let Some(t) = fq_turing::trace::trace_string(&m, w, k) {
                        universe.push(t);
                    }
                }
            }
        }
        universe.sort();
        universe.dedup();
        let sentence = RFormula::Exists(
            "x".to_string(),
            Box::new(RFormula::Exists("y".to_string(), Box::new(body.clone()))),
        );
        let qe_answer = qe::decide(&sentence).unwrap();
        let witness = universe
            .iter()
            .any(|a| universe.iter().any(|b| check_at_two(&body, a, b)));
        // Witness in the sample ⟹ QE must say true. (The converse needs
        // the witness-containment argument, which holds for this fragment
        // with constants of length ≤ 2 — checked both ways.)
        prop_assert_eq!(qe_answer, witness, "body: {}", body);
    }

    #[test]
    fn trace_qe_exists_forall_no_false_negatives(body in arb_two_var_qf()) {
        // ∃x∀y: model checking over a finite sample refutes soundly (a
        // counterexample y kills a candidate x) but cannot affirm; check
        // only the direction "QE true ⟹ every sampled x has no sampled
        // counterexample is WRONG"; instead: QE true for ∃x∀y φ implies
        // for SOME x all sampled y pass. Equivalently: if every sampled x
        // has a sampled counterexample AND the witnesses x must be small
        // (not guaranteed here), we cannot conclude — so assert only the
        // sound direction: QE false ⟹ no x in the sample passes all y in
        // the *full domain*; weaker: no x passes all sampled y … that is
        // also not implied. The only universally sound check: if QE says
        // false, then for every sampled x there exists SOME y in the full
        // domain failing φ — verify via the single-variable eliminator.
        let universe = enumerate_strings(40);
        let sentence = RFormula::Exists(
            "x".to_string(),
            Box::new(RFormula::Forall("y".to_string(), Box::new(body.clone()))),
        );
        let qe_answer = qe::decide(&sentence).unwrap();
        if !qe_answer {
            for a in &universe {
                let inner = RFormula::Forall(
                    "y".to_string(),
                    Box::new(body.subst("x", &RTerm::Lit(a.clone()))),
                );
                prop_assert!(
                    !qe::decide(&inner).unwrap(),
                    "QE said ∃x∀y false but x = {a:?} passes; body: {}",
                    body
                );
            }
        }
    }
}
