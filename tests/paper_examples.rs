//! End-to-end tests of the paper's worked examples, spanning all crates —
//! every answering path routed through the `fq-query` pipeline.

use finite_queries::domains::{DecidableTheory, Presburger};
use finite_queries::logic::{parse_formula, Term};
use finite_queries::query::{Completeness, DomainId, Executor, QueryPlan, RanfMode};
use finite_queries::relational::{Schema, State, Value};
use finite_queries::safety::finitize;
use finite_queries::turing::{builders, encode_machine};

fn fathers_state() -> State {
    let schema = Schema::new().with_relation("F", 2);
    State::new(schema)
        .with_tuple("F", vec![Value::Nat(1), Value::Nat(2)])
        .with_tuple("F", vec![Value::Nat(1), Value::Nat(3)])
        .with_tuple("F", vec![Value::Nat(2), Value::Nat(4)])
}

#[test]
fn section_1_fathers_and_sons() {
    let state = fathers_state();
    let exec = Executor::default();
    // "the formula M(x) … results in the unary relation (one-column
    // table) that consists of those x's who have more than one son"
    let m = "exists y z. y != z & F(x, y) & F(x, z)";
    let out = exec.execute(&state, m, DomainId::Eq).unwrap();
    assert_eq!(out.rows, vec![vec![Value::Nat(1)]]);

    // "While G(x, z) … produces the table of grandfathers/grandsons."
    let g = "exists y. F(x, y) & F(y, z)";
    let out = exec.execute(&state, g, DomainId::Eq).unwrap();
    assert_eq!(out.rows, vec![vec![Value::Nat(1), Value::Nat(4)]]);
}

#[test]
fn section_1_unsafe_formulas() {
    let state = fathers_state();
    let exec = Executor::default();
    // "Obviously, ¬F(x, y) is such a formula."
    let neg = exec.compile(state.schema(), "!F(x, y)").unwrap();
    assert!(neg.safe_range().is_err());
    // "But worse than that, M(x) ∨ G(x, z) may give an infinite answer
    // too, because M(x) does not bound z at all."
    let m_or_g = "(exists y. exists w. y != w & F(x, y) & F(x, w)) | (exists y. F(x, y) & F(y, z))";
    let compiled = exec.compile(state.schema(), m_or_g).unwrap();
    assert!(compiled.safe_range().is_err());
    // Footnote 4: infinite answer iff someone parented two or more sons.
    assert_eq!(
        exec.relative_safety(&state, m_or_g, DomainId::Eq).unwrap(),
        Some(false)
    );
    let no_double =
        State::new(state.schema().clone()).with_tuple("F", vec![Value::Nat(1), Value::Nat(2)]);
    assert_eq!(
        exec.relative_safety(&no_double, m_or_g, DomainId::Eq)
            .unwrap(),
        Some(true)
    );
}

#[test]
fn section_1_1_answering_via_decidability() {
    // The same grandfather query asked over ⟨N, <⟩: safe-range, so the
    // planner still compiles it to algebra, and the answer is certified
    // complete regardless of the (infinite) underlying domain.
    let state = fathers_state();
    let exec = Executor::default();
    let out = exec
        .execute(&state, "exists y. F(x, y) & F(y, z)", DomainId::Nat)
        .unwrap();
    assert!(out.is_complete());
    assert_eq!(out.rows, vec![vec![Value::Nat(1), Value::Nat(4)]]);
}

#[test]
fn theorem_2_2_finitization_syntax_end_to_end() {
    // Over the state, an unsafe query's finitization is finite and the
    // equivalence test of Theorem 2.5 distinguishes the two.
    let state = fathers_state();
    let exec = Executor::default();
    assert_eq!(
        exec.relative_safety(&state, "!F(x, x)", DomainId::Nat)
            .unwrap(),
        Some(false)
    );
    let compiled = exec.compile(state.schema(), "!F(x, x)").unwrap();
    let translated =
        finite_queries::relational::translate_to_domain_formula(&compiled.query, &state);
    let fin = finitize(&translated);
    // The finitization of an infinite query is NOT equivalent to it…
    assert!(!Presburger.equivalent(&translated, &fin).unwrap());
    // …but is itself finite (its own finitization is equivalent).
    assert!(Presburger.equivalent(&fin, &finitize(&fin)).unwrap());
}

#[test]
fn codd_compilation_agrees_with_enumeration() {
    let state = fathers_state();
    let exec = Executor::default();
    let q = "exists y. F(x, y) & !F(y, x)";
    // The planner compiles the safe-range query to algebra…
    let (planned, _) = exec.plan(&state, q, DomainId::Eq).unwrap();
    let algebra_rows = match &planned.plan {
        QueryPlan::Algebra { expr, .. } => expr.eval(&state).unwrap().tuples.len(),
        other => panic!("expected an algebra plan, got {}", other.strategy()),
    };
    // …and executing the plan gives the same answer count.
    let out = exec.execute(&state, q, DomainId::Eq).unwrap();
    assert_eq!(algebra_rows, out.rows.len());
}

#[test]
fn theorem_3_1_formula_m_of_x() {
    // "Given a Turing machine M, consider the formula M(x): P(M, c, x).
    // Observe that the formula M(x) is finite iff M is total."
    let scanner = builders::scan_right_halt_on_blank();
    let schema = Schema::new().with_constant("c");
    let state = State::new(schema).with_constant("c", "1111");
    let src = format!("P(\"{}\", c, x)", encode_machine(&scanner));
    let exec = Executor::default().with_max_candidates(100_000);
    let out = exec.execute(&state, &src, DomainId::Traces).unwrap();
    // The totality query is not safe-range: enumerate-and-ask it is.
    assert_eq!(out.plan.strategy(), "enumerate-and-ask");
    // scanner halts on "1111" after 4 steps: 5 traces.
    assert!(out.is_complete());
    assert_eq!(out.rows.len(), 5);
    // Each answer validates as a trace of the scanner in "1111".
    for t in &out.rows {
        let Value::Str(trace) = &t[0] else {
            panic!("trace answers are strings")
        };
        assert!(finite_queries::turing::trace::p_predicate(
            &encode_machine(&scanner),
            "1111",
            trace
        ));
    }
}

#[test]
fn decidability_of_the_theory_of_traces_end_to_end() {
    // Corollary A.4 through the public API, mixing P, sorts, functions,
    // and counting predicates.
    let exec = Executor::default();
    let decide = |s: &str| exec.decide(DomainId::Traces, s).unwrap();
    assert!(decide("forall x. M(x) | W(x) | T(x) | O(x)"));
    assert!(decide(
        "forall m0 w0. M(m0) & W(w0) -> exists p. P(m0, w0, p)"
    ));
    assert!(decide(
        "forall p q. P(m(p), w(p), q) & T(p) & q = p -> T(q)"
    ));
    assert!(!decide("exists p. T(p) & O(p)"));
}

#[test]
fn fact_2_1_witness_not_domain_independent_but_answerable() {
    // The least-above-active-domain query through the full §1.1 pipeline:
    // not safe-range, certified finite by the precheck, answered complete.
    let state = fathers_state();
    let exec = Executor::default();
    let q = "(forall y. (exists p. F(y, p) | F(p, y)) -> y < x) & \
             forall z. z < x -> exists y. (exists p. F(y, p) | F(p, y)) & z <= y";
    let out = exec.execute(&state, q, DomainId::Presburger).unwrap();
    assert_eq!(out.plan.strategy(), "enumerate-and-ask");
    assert!(out.is_complete());
    // Active domain is {1,2,3,4}: the witness is 5 — outside it.
    assert_eq!(out.rows, vec![vec![Value::Nat(5)]]);
    let ad = state.active_domain();
    assert!(!ad.contains(&Value::Nat(5)));
}

#[test]
fn budget_exhaustion_is_reported_honestly() {
    // An unsafe query over ⟨N, <⟩ must exhaust the candidate budget,
    // report exactly how many candidates were tried, and keep the
    // partial tuples found along the way. (RANF would answer this one
    // exactly; force it off to exercise the budgeted fallback.)
    let state = fathers_state();
    let exec = Executor::default()
        .with_max_candidates(60)
        .with_ranf(RanfMode::Off);
    let out = exec.execute(&state, "!F(x, y)", DomainId::Nat).unwrap();
    assert_eq!(out.plan.strategy(), "enumerate-and-ask");
    match out.completeness {
        Completeness::Partial {
            candidates_tried,
            max_candidates,
        } => {
            assert_eq!(max_candidates, 60);
            assert_eq!(
                candidates_tried, max_candidates,
                "the whole budget must be spent before giving up"
            );
        }
        other => panic!("expected a partial answer, got {other:?}"),
    }
    assert!(
        !out.rows.is_empty(),
        "tuples found before exhaustion are part of the partial answer"
    );
}

#[test]
fn ranf_translation_answers_the_unsafe_fathers_query_exactly() {
    // The same ¬F(x, y) that exhausts the budget above is answered
    // *exactly* by the RANF planner: the generator evaluates the
    // active-domain core of the complement, and the non-empty
    // restrictor certifies the answer is infinite — no budget at all.
    let state = fathers_state();
    let exec = Executor::default().with_max_candidates(60);
    let out = exec.execute(&state, "!F(x, y)", DomainId::Nat).unwrap();
    assert_eq!(out.plan.strategy(), "ranf");
    match out.completeness {
        Completeness::CertifiedRanf {
            infinite,
            restrictor_rows,
        } => {
            assert!(infinite, "¬F has an infinite answer over ⟨N, <⟩");
            assert!(restrictor_rows > 0);
        }
        other => panic!("expected a RANF certificate, got {other:?}"),
    }
    // 4×4 active-domain pairs minus the 3 F-edges.
    assert_eq!(out.rows.len(), 13);
}

#[test]
fn term_constructors_round_trip_through_everything() {
    // A sanity pass across crates: build a formula programmatically,
    // print, reparse, decide through the pipeline.
    let f = finite_queries::logic::Formula::exists(
        "x",
        finite_queries::logic::Formula::and([
            finite_queries::logic::Formula::lt(Term::var("x"), Term::Nat(3)),
            finite_queries::logic::Formula::neq(Term::var("x"), Term::Nat(0)),
        ]),
    );
    let reparsed = parse_formula(&f.to_string()).unwrap();
    assert_eq!(f, reparsed);
    let exec = Executor::default();
    assert!(exec.decide(DomainId::Presburger, &f.to_string()).unwrap());
}
