//! Property tests for the optimized execution layer: the logical
//! rewriter and physical executor must be **bit-identical** to the naive
//! `AlgebraExpr::eval` backend (tuples *and* attribute order), and every
//! safe-range query's algebra answer must match the string-environment
//! evaluator's — on the morsel-parallel path too.

mod common;

use common::{arb_query, arb_state, schema};
use fq_engine::{Engine, EngineConfig};
use fq_logic::{Formula, Term};
use fq_relational::active_eval::{eval_query, fold_ground, NatOps, Ops};
use fq_relational::algebra::{compile, AlgebraExpr, Condition};
use fq_relational::optimize::optimize;
use fq_relational::physical::{ExecOpts, PhysicalPlan};
use fq_relational::safe_range::is_safe_range;
use fq_relational::state::{State, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Fold and compile a safe-range query as the planner does, over ⟨ℕ, <, +⟩.
fn compiled(state: &State, q: &Formula) -> AlgebraExpr {
    let folded = fold_ground(state, &NatOps, q).expect("small constants fold");
    compile(state.schema(), &folded, Ops::Nat)
        .unwrap_or_else(|e| panic!("safe-range query did not compile: {q}: {e}"))
}

/// Random raw algebra expressions (not necessarily from the compiler),
/// to exercise rewriter/executor shapes the Codd translation never
/// produces — cross products, unions of reordered branches, extends.
fn arb_expr() -> impl Strategy<Value = AlgebraExpr> {
    let base = prop_oneof![
        Just(AlgebraExpr::Base {
            name: "R".into(),
            attrs: vec!["x".into(), "y".into()],
        }),
        Just(AlgebraExpr::Base {
            name: "R".into(),
            attrs: vec!["y".into(), "z".into()],
        }),
        Just(AlgebraExpr::Base {
            name: "S".into(),
            attrs: vec!["x".into()],
        }),
        Just(AlgebraExpr::Base {
            name: "S".into(),
            attrs: vec!["w".into()],
        }),
        (0u64..5).prop_map(|k| AlgebraExpr::Singleton(vec![("x".into(), Value::Nat(k))])),
    ];
    base.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            2 => (inner.clone(), inner.clone())
                .prop_map(|(a, b)| AlgebraExpr::Join(Box::new(a), Box::new(b))),
            1 => inner.clone().prop_map(|a| {
                // Union with itself keeps the attribute sets compatible.
                AlgebraExpr::Union(Box::new(a.clone()), Box::new(a))
            }),
            1 => inner.clone().prop_map(|a| {
                AlgebraExpr::Diff(Box::new(a.clone()), Box::new(a))
            }),
            2 => (inner.clone(), 0u64..5).prop_map(|(a, k)| {
                let attr = a.attrs().first().cloned().unwrap_or_else(|| "x".into());
                AlgebraExpr::Select(Box::new(a), Condition::EqConst(attr, Value::Nat(k)))
            }),
            1 => inner.clone().prop_map(|a| {
                let attrs = a.attrs();
                let keep: Vec<String> = attrs.iter().skip(attrs.len() / 2).cloned().collect();
                AlgebraExpr::Project(Box::new(a), keep)
            }),
            1 => inner.clone().prop_map(|a| {
                let src = a.attrs().first().cloned().unwrap_or_else(|| "x".into());
                let new = format!("{src}2");
                if a.attrs().contains(&new) {
                    a
                } else {
                    AlgebraExpr::Extend(Box::new(a), new, src)
                }
            }),
        ]
    })
}

/// States whose values include `u64::MAX`, where `+ c` and `'`
/// overflow, and a string, on which `<` fails.
fn arb_wide_state() -> impl Strategy<Value = State> {
    let value = || {
        prop_oneof![
            4 => (0u64..5).prop_map(Value::Nat),
            1 => Just(Value::Nat(u64::MAX)),
            1 => Just(Value::Str("a".into())),
        ]
    };
    (
        proptest::collection::vec((value(), value()), 0..6),
        proptest::collection::vec(value(), 0..4),
    )
        .prop_map(|(r, s)| {
            let mut state = State::new(schema());
            for (a, b) in r {
                state.insert("R", vec![a, b]);
            }
            for a in s {
                state.insert("S", vec![a]);
            }
            state
        })
}

fn base(name: &str, attrs: &[&str]) -> AlgebraExpr {
    AlgebraExpr::Base {
        name: name.into(),
        attrs: attrs.iter().map(|a| a.to_string()).collect(),
    }
}

/// The anti-join shape `E − π(E ⋈ N)` (or `N ⋈ E`, with or without a
/// projection permuting the columns back) over operands chosen to hit
/// the lowering's edge cases: `N`'s attributes permuted against `E`'s, a
/// zero-arity `N` (and `E`), a selection inside `E` (`R(x, x)`), and a
/// covering map that duplicates a column. When the chosen `N` is not
/// covered by `E`'s attributes, the zero-arity `N` stands in.
fn arb_anti_join() -> impl Strategy<Value = AlgebraExpr> {
    let project = |e: AlgebraExpr, attrs: &[&str]| {
        AlgebraExpr::Project(Box::new(e), attrs.iter().map(|a| a.to_string()).collect())
    };
    let extend = |e: AlgebraExpr, new: &str, src: &str| {
        AlgebraExpr::Extend(Box::new(e), new.into(), src.into())
    };
    let es = [
        base("R", &["x", "y"]),
        project(
            extend(
                extend(base("R", &["@R_0", "@R_1"]), "x", "@R_0"),
                "y",
                "@R_1",
            ),
            &["x", "y"],
        ),
        project(
            extend(
                AlgebraExpr::Select(
                    Box::new(base("R", &["@R_0", "@R_1"])),
                    Condition::EqAttr("@R_0".into(), "@R_1".into()),
                ),
                "x",
                "@R_0",
            ),
            &["x"],
        ),
        extend(base("R", &["x", "y"]), "z", "x"),
        AlgebraExpr::Join(
            Box::new(base("R", &["x", "y"])),
            Box::new(base("S", &["y"])),
        ),
        project(base("R", &["x", "y"]), &[]),
    ];
    let zero_arity_n = project(base("S", &["w"]), &[]);
    let ns = [
        base("R", &["y", "x"]),
        base("S", &["x"]),
        base("S", &["y"]),
        project(extend(base("S", &["@S_0"]), "z", "@S_0"), &["z"]),
        base("R", &["z", "x"]),
        zero_arity_n.clone(),
    ];
    (0..es.len(), 0..ns.len(), any::<bool>(), any::<bool>()).prop_map(
        move |(ei, ni, flip, permute)| {
            let e = es[ei].clone();
            let la = e.attrs();
            let n = if ns[ni].attrs().iter().all(|a| la.contains(a)) {
                ns[ni].clone()
            } else {
                zero_arity_n.clone()
            };
            let join = if flip {
                AlgebraExpr::Join(Box::new(n), Box::new(e.clone()))
            } else {
                AlgebraExpr::Join(Box::new(e.clone()), Box::new(n))
            };
            let right = if permute {
                AlgebraExpr::Project(Box::new(join), la.iter().rev().cloned().collect())
            } else {
                join
            };
            AlgebraExpr::Diff(Box::new(e), Box::new(right))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn optimized_physical_matches_naive_on_compiled_queries(
        state in arb_state(),
        q in arb_query(),
    ) {
        if !is_safe_range(state.schema(), &q) {
            return Ok(());
        }
        let expr = compiled(&state, &q);
        let naive = expr.eval(&state).unwrap();
        let physical = PhysicalPlan::compile(&expr).execute(&state).unwrap();
        prop_assert_eq!(&naive, &physical, "physical ≠ naive: {}", q);
        let opt = optimize(&expr, &state);
        prop_assert_eq!(opt.expr.attrs(), expr.attrs(), "rewrite changed attrs: {}", q);
        let optimized = PhysicalPlan::compile(&opt.expr).execute(&state).unwrap();
        prop_assert_eq!(&naive, &optimized, "optimized ≠ naive: {} ({:?})", q, opt.rewrites);
    }

    #[test]
    fn optimized_physical_matches_naive_on_raw_expressions(
        state in arb_state(),
        expr in arb_expr(),
    ) {
        let naive = expr.eval(&state).unwrap();
        let physical = PhysicalPlan::compile(&expr).execute(&state).unwrap();
        prop_assert_eq!(&naive, &physical, "physical ≠ naive: {:?}", expr);
        let opt = optimize(&expr, &state);
        prop_assert_eq!(opt.expr.attrs(), expr.attrs(), "rewrite changed attrs");
        let optimized = PhysicalPlan::compile(&opt.expr).execute(&state).unwrap();
        prop_assert_eq!(&naive, &optimized, "optimized ≠ naive: {:?} → {:?}", expr, opt.rewrites);
    }

    /// The morsel-driven parallel executor is bit-identical to the
    /// sequential path on arbitrary compiled queries, at arbitrary
    /// thread counts and morsel sizes. Tiny states (0–6 rows) under
    /// 1–4-row morsels cover the boundary shapes by construction: the
    /// empty relation, rows < morsel size, rows an exact multiple of
    /// the morsel size, and arity-2 stride alignment via `R`.
    #[test]
    fn parallel_physical_matches_sequential_on_compiled_queries(
        state in arb_state(),
        q in arb_query(),
        threads in 1usize..=8,
        morsel_rows in 1usize..=4,
    ) {
        if !is_safe_range(state.schema(), &q) {
            return Ok(());
        }
        let expr = compiled(&state, &q);
        let plan = PhysicalPlan::compile(&optimize(&expr, &state).expr);
        let sequential = plan.execute(&state).unwrap();
        let engine = Engine::new(EngineConfig { threads });
        let parallel = plan
            .execute_with_stats_on(&state, &engine, ExecOpts { morsel_rows })
            .unwrap()
            .relation;
        prop_assert_eq!(&sequential, &parallel,
            "parallel ≠ sequential: {} ({} threads, morsel {})", q, threads, morsel_rows);
        prop_assert_eq!(&expr.eval(&state).unwrap(), &parallel, "parallel ≠ naive: {}", q);
    }

    /// The same contract over raw algebra shapes the compiler never
    /// emits — cross products, self-unions/diffs, extends.
    #[test]
    fn parallel_physical_matches_sequential_on_raw_expressions(
        state in arb_state(),
        expr in arb_expr(),
        threads in 1usize..=8,
        morsel_rows in 1usize..=4,
    ) {
        let plan = PhysicalPlan::compile(&expr);
        let sequential = plan.execute(&state).unwrap();
        let engine = Engine::new(EngineConfig { threads });
        let parallel = plan
            .execute_with_stats_on(&state, &engine, ExecOpts { morsel_rows })
            .unwrap()
            .relation;
        prop_assert_eq!(&sequential, &parallel,
            "parallel ≠ sequential: {:?} ({} threads, morsel {})", expr, threads, morsel_rows);
    }

    /// The hash anti-join equals the naive difference at every thread
    /// count and morsel size, and the shape really lowers to it.
    #[test]
    fn anti_join_matches_naive_at_any_schedule(
        state in arb_state(),
        expr in arb_anti_join(),
        threads in 1usize..=8,
        morsel_rows in 1usize..=4,
    ) {
        let naive = expr.eval(&state).unwrap();
        let plan = PhysicalPlan::compile(&expr);
        let inline = plan.execute_with_stats(&state).unwrap();
        prop_assert!(
            inline.operators.iter().any(|op| op.op.starts_with("anti-join")),
            "not lowered to an anti-join: {:?} → {:?}", expr, inline.operators
        );
        prop_assert_eq!(&naive, &inline.relation, "anti-join ≠ naive: {:?}", expr);
        let engine = Engine::new(EngineConfig { threads });
        let parallel = plan
            .execute_with_stats_on(&state, &engine, ExecOpts { morsel_rows })
            .unwrap()
            .relation;
        prop_assert_eq!(&naive, &parallel,
            "parallel anti-join ≠ naive: {:?} ({} threads, morsel {})", expr, threads, morsel_rows);
    }

    /// Every safe-range query compiles, and its optimized plan answers
    /// what the string-environment evaluator answers — the same rows, or
    /// an error from both — at every thread count and morsel size.
    #[test]
    fn physical_matches_string_env_at_any_schedule(
        state in arb_state(),
        q in arb_query(),
        threads in 1usize..=8,
        morsel_rows in 1usize..=4,
    ) {
        if !is_safe_range(state.schema(), &q) {
            return Ok(());
        }
        let vars: Vec<String> = q.free_vars().into_iter().collect();
        let reference = eval_query(&state, &NatOps, &q, &vars);
        let expr = compiled(&state, &q);
        let plan = PhysicalPlan::compile(&optimize(&expr, &state).expr);
        let engine = Engine::new(EngineConfig { threads });
        let physical = plan.execute_with_stats_on(&state, &engine, ExecOpts { morsel_rows });
        match (reference, physical) {
            (Ok(a), Ok(b)) => prop_assert_eq!(
                a.into_iter().collect::<BTreeSet<_>>(),
                b.relation.reorder(&vars).tuples,
                "rows differ: {} ({} threads, morsel {})", q, threads, morsel_rows
            ),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "outcome mismatch on {}: {:?} vs {:?}", q, a, b),
        }
    }
}

proptest! {
    // A failing row below a droppable join is a rare draw: many cases.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// A domain selection that fails on a row — an overflow at
    /// `u64::MAX`, `<` on a string — fails the optimized plan exactly when
    /// it fails the naive one, at every thread count and morsel size:
    /// the optimizer keeps it off the rows a join or difference drops.
    #[test]
    fn failing_domain_atoms_fail_every_plan_alike(
        state in arb_wide_state(),
        q in arb_query(),
        threads in 1usize..=8,
        morsel_rows in 1usize..=4,
    ) {
        if !is_safe_range(state.schema(), &q) {
            return Ok(());
        }
        let expr = compiled(&state, &q);
        let naive = expr.eval(&state);
        let plan = PhysicalPlan::compile(&optimize(&expr, &state).expr);
        let engine = Engine::new(EngineConfig { threads });
        let optimized = plan
            .execute_with_stats_on(&state, &engine, ExecOpts { morsel_rows })
            .map(|report| report.relation);
        match (naive, optimized) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "optimized ≠ naive: {}", q),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "outcome mismatch on {}: {:?} vs {:?}", q, a, b),
        }
    }
}

/// Deterministic thread sweep on a join chain large enough for real
/// many-morsel schedules: the same plan at 1, 2, 4, and 8 threads
/// produces byte-identical answer relations.
#[test]
fn thread_sweep_is_byte_identical_on_a_join_chain() {
    use fq_relational::state::StateBuilder;
    let mut b = StateBuilder::new(schema());
    for i in 0..2_000u64 {
        b.row("R", vec![Value::Nat(i % 211), Value::Nat((i * 13) % 211)]);
        if i % 5 == 0 {
            b.row("S", vec![Value::Nat(i % 211)]);
        }
    }
    let state = b.finish();
    let f: Formula = Formula::exists(
        "y",
        Formula::And(vec![
            Formula::pred("R", vec![Term::var("x"), Term::var("y")]),
            Formula::pred("R", vec![Term::var("y"), Term::var("z")]),
            Formula::pred("S", vec![Term::var("y")]),
        ]),
    );
    let expr = compile(state.schema(), &f, Ops::Equality).expect("compiles");
    let plan = PhysicalPlan::compile(&optimize(&expr, &state).expr);
    let baseline = plan.execute(&state).unwrap();
    for threads in [1, 2, 4, 8] {
        let engine = Engine::new(EngineConfig { threads });
        for morsel_rows in [32, 256, 4096] {
            let report = plan
                .execute_with_stats_on(&state, &engine, ExecOpts { morsel_rows })
                .unwrap();
            assert_eq!(
                report.relation, baseline,
                "drift at {threads} threads, morsel {morsel_rows}"
            );
        }
    }
}
