//! Property tests for the RANF planner strategy: the restricted-normal-
//! form translation must be **exactly equivalent** to the routes it
//! replaces — bit-identical rows to the algebra/active-domain plan on
//! safe-range queries (forced mode), agreement with a certified
//! enumerate-and-ask run and with the relative-safety oracle on
//! arbitrary generic queries, and byte-identical outcomes at every
//! thread count.

use fq_engine::{Engine, EngineConfig};
use fq_logic::{Formula, Term};
use fq_query::{Completeness, DomainId, Executor, RanfMode};
use fq_relational::{Schema, State, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn schema() -> Schema {
    Schema::new().with_relation("R", 2).with_relation("S", 1)
}

fn arb_state() -> impl Strategy<Value = State> {
    (
        proptest::collection::btree_set((0u64..5, 0u64..5), 0..6),
        proptest::collection::btree_set(0u64..5, 0..4),
    )
        .prop_map(|(r, s)| {
            let mut state = State::new(schema());
            for (a, b) in r {
                state.insert("R", vec![Value::Nat(a), Value::Nat(b)]);
            }
            for a in s {
                state.insert("S", vec![Value::Nat(a)]);
            }
            state
        })
}

/// Arbitrary *generic* queries: relations, equality, constants, boolean
/// connectives, and quantifiers — deliberately NOT filtered through the
/// safe-range check, so unrestricted negations, lopsided disjunctions,
/// and universal quantifiers all appear. Every one of these is fair
/// game for the RANF translation.
fn arb_query() -> impl Strategy<Value = Formula> {
    let v = || prop_oneof![Just("x"), Just("y"), Just("z")].prop_map(Term::var);
    let atom = prop_oneof![
        (v(), v()).prop_map(|(a, b)| Formula::pred("R", vec![a, b])),
        v().prop_map(|a| Formula::pred("S", vec![a])),
        (v(), 0u64..5).prop_map(|(a, k)| Formula::eq(a, Term::Nat(k))),
        (v(), v()).prop_map(|(a, b)| Formula::eq(a, b)),
    ];
    atom.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            3 => (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::And(vec![a, b])),
            2 => (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::Or(vec![a, b])),
            2 => inner.clone().prop_map(|a| Formula::Not(Box::new(a))),
            2 => (prop_oneof![Just("x"), Just("y"), Just("z")], inner.clone())
                .prop_map(|(v, b)| Formula::exists(v, b)),
            1 => (prop_oneof![Just("x"), Just("y"), Just("z")], inner.clone())
                .prop_map(|(v, b)| Formula::forall(v, b)),
            1 => (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::implies(a, b)),
        ]
    })
}

fn sorted_rows(rows: &[Vec<Value>]) -> BTreeSet<Vec<Value>> {
    rows.iter().cloned().collect()
}

fn executor(ranf: RanfMode, threads: usize) -> Executor {
    Executor::new(Engine::new(EngineConfig { threads }))
        .with_ranf(ranf)
        .with_max_candidates(2_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Forced RANF on safe-range queries is bit-identical to the plan
    /// the chooser would otherwise pick (algebra), and — since every
    /// safe-range query is domain-independent, hence finite — the
    /// restrictor must come back empty.
    #[test]
    fn forced_ranf_matches_the_algebra_route_on_safe_range_queries(
        state in arb_state(),
        q in arb_query(),
    ) {
        let exec = Executor::default();
        let src = q.to_string();
        let Ok(compiled) = exec.compile(state.schema(), &src) else {
            return Ok(());
        };
        if compiled.safe_range().is_err() || compiled.free_vars.is_empty() {
            return Ok(());
        }
        let baseline = exec.execute(&state, &src, DomainId::Nat).unwrap();
        let forced = executor(RanfMode::Force, 1)
            .execute(&state, &src, DomainId::Nat)
            .unwrap();
        prop_assert_eq!(&baseline.vars, &forced.vars, "column drift: {}", src);
        prop_assert_eq!(
            sorted_rows(&baseline.rows),
            sorted_rows(&forced.rows),
            "rows drifted under forced RANF: {}",
            src
        );
        if forced.plan.strategy() == "ranf" {
            match forced.completeness {
                Completeness::CertifiedRanf { infinite, restrictor_rows } => {
                    prop_assert!(
                        !infinite && restrictor_rows == 0,
                        "safe-range ⇒ finite, but the restrictor found {} witness(es): {}",
                        restrictor_rows,
                        src
                    );
                }
                ref other => prop_assert!(false, "forced RANF must certify: {other:?}"),
            }
        }
    }

    /// On arbitrary generic queries the RANF verdict agrees with the
    /// relative-safety oracle (Theorem 2.5's decision procedure), and
    /// whenever the budgeted enumerate-and-ask fallback certifies a
    /// complete (hence finite) answer, the RANF rows are exactly it.
    #[test]
    fn ranf_agrees_with_the_oracle_and_the_budgeted_fallback(
        state in arb_state(),
        q in arb_query(),
    ) {
        let src = q.to_string();
        let with_ranf = executor(RanfMode::Prefer, 1);
        let Ok(out) = with_ranf.execute(&state, &src, DomainId::Nat) else {
            return Ok(());
        };
        if out.plan.strategy() != "ranf" {
            return Ok(()); // sentence, safe-range, or RANF-ineligible
        }
        let Completeness::CertifiedRanf { infinite, restrictor_rows } = out.completeness else {
            prop_assert!(false, "ranf plans must certify: {:?}", out.completeness);
            return Ok(());
        };
        prop_assert_eq!(infinite, restrictor_rows > 0);

        // Verdict vs the oracle.
        if let Ok(Some(finite)) = with_ranf.relative_safety(&state, &src, DomainId::Nat) {
            prop_assert_eq!(
                infinite,
                !finite,
                "RANF verdict disagrees with relative safety on {}",
                src
            );
        }

        // Rows vs a certified enumerate-and-ask run (pre-RANF planner).
        let fallback = executor(RanfMode::Off, 1)
            .execute(&state, &src, DomainId::Nat)
            .unwrap();
        if fallback.is_complete() && fallback.plan.strategy() == "enumerate-and-ask" {
            prop_assert!(!infinite, "a certified enumeration implies a finite answer: {}", src);
            prop_assert_eq!(&out.vars, &fallback.vars, "column drift: {}", src);
            prop_assert_eq!(
                sorted_rows(&out.rows),
                sorted_rows(&fallback.rows),
                "RANF ≠ certified enumeration on {}",
                src
            );
        } else {
            // Budget ran out: every partial tuple inside the active
            // domain must appear in the RANF core (the core is the
            // *whole* active-domain slice of the answer).
            let adom = state.active_domain();
            let core = sorted_rows(&out.rows);
            for row in &fallback.rows {
                if row.iter().all(|v| adom.contains(v)) {
                    prop_assert!(
                        core.contains(row),
                        "partial tuple {:?} missing from the RANF core of {}",
                        row,
                        src
                    );
                }
            }
        }
    }

    /// Bit-identical rows and completeness at every thread count — the
    /// morsel-parallel executor must not perturb either half.
    #[test]
    fn ranf_outcomes_are_identical_at_every_thread_count(
        state in arb_state(),
        q in arb_query(),
    ) {
        let src = q.to_string();
        let Ok(base) = executor(RanfMode::Prefer, 1).execute(&state, &src, DomainId::Nat) else {
            return Ok(());
        };
        for threads in [2usize, 4] {
            let out = executor(RanfMode::Prefer, threads)
                .execute(&state, &src, DomainId::Nat)
                .unwrap();
            prop_assert_eq!(&base.vars, &out.vars, "{} ({} threads)", src, threads);
            prop_assert_eq!(&base.rows, &out.rows, "{} ({} threads)", src, threads);
            prop_assert_eq!(
                &base.completeness, &out.completeness,
                "{} ({} threads)", src, threads
            );
            prop_assert_eq!(
                base.plan.strategy(), out.plan.strategy(),
                "{} ({} threads)", src, threads
            );
        }
    }
}
