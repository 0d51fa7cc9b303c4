//! Property tests for the relational layer: Codd-compilation agrees with
//! active-domain evaluation on random safe-range queries, and the
//! Section 1.1 translation preserves answers.

mod common;

use common::{arb_query, arb_state, schema};
use fq_relational::active_eval::{eval_query, fold_ground, NatOps, Ops};
use fq_relational::algebra::compile;
use fq_relational::safe_range::is_safe_range;
use fq_relational::state::{State, Value};
use fq_relational::translate::translate_to_domain_formula;
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compiled_algebra_agrees_with_calculus(state in arb_state(), q in arb_query()) {
        if !is_safe_range(state.schema(), &q) {
            return Ok(());
        }
        let folded = fold_ground(&state, &NatOps, &q).expect("small constants fold");
        let expr = compile(state.schema(), &folded, Ops::Nat);
        prop_assert!(expr.is_ok(), "safe-range query did not compile: {}: {:?}", q, expr);
        let vars: Vec<String> = q.free_vars().into_iter().collect();
        let reference = eval_query(&state, &NatOps, &q, &vars);
        let algebra = expr.unwrap().eval(&state);
        match (reference, algebra) {
            (Ok(reference), Ok(algebra)) => prop_assert_eq!(
                algebra.reorder(&vars).tuples,
                reference.into_iter().collect::<BTreeSet<_>>(),
                "query: {}", q
            ),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "outcome mismatch on {}: {:?} vs {:?}", q, a, b),
        }
    }

    #[test]
    fn translation_preserves_answers(state in arb_state(), q in arb_query()) {
        // The §1.1 pure-domain translation has the same solutions over the
        // query's active domain.
        let q = fold_ground(&state, &NatOps, &q).expect("small constants fold");
        let vars: Vec<String> = q.free_vars().into_iter().collect();
        let translated = translate_to_domain_formula(&q, &state);
        let before = eval_query(&state, &NatOps, &q, &vars).unwrap();
        // Evaluate the translated formula over the same universe: use an
        // empty state with the same scheme (no relation atoms remain).
        let empty = State::new(schema());
        let universe: Vec<Value> = state.query_active_domain(&q).into_iter().collect();
        let interp = fq_relational::active_eval::QueryInterp::new(&empty, &NatOps);
        let after = fq_logic::eval::solutions(&interp, &universe, &vars, &translated).unwrap();
        prop_assert_eq!(before, after, "query: {}", q);
    }

    #[test]
    fn safe_range_queries_are_domain_independent(state in arb_state(), q in arb_query()) {
        // Enlarging the evaluation universe must not change the answer of
        // a safe-range query.
        if !is_safe_range(state.schema(), &q) {
            return Ok(());
        }
        let q = fold_ground(&state, &NatOps, &q).expect("small constants fold");
        let vars: Vec<String> = q.free_vars().into_iter().collect();
        let small = eval_query(&state, &NatOps, &q, &vars).unwrap();
        // Universe extended with fresh elements 100..105.
        let mut universe: Vec<Value> = state.query_active_domain(&q).into_iter().collect();
        universe.extend((100u64..105).map(Value::Nat));
        let interp = fq_relational::active_eval::QueryInterp::new(&state, &NatOps);
        let large = fq_logic::eval::solutions(&interp, &universe, &vars, &q).unwrap();
        prop_assert_eq!(
            small.into_iter().collect::<BTreeSet<_>>(),
            large.into_iter().collect::<BTreeSet<_>>(),
            "query: {}", q
        );
    }
}
