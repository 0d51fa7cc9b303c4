//! Pipeline benches: the compile → plan stage of `fq-query` on a
//! repeated-query workload, cold (fresh executor, every plan computed
//! from scratch — including the relative-safety quantifier-elimination
//! precheck) versus warm (shared executor, plans served from the
//! `query.plan` engine cache). Emits `BENCH_pipeline.json`; the headline
//! row requires the warm path to be strictly faster than the cold one.

use criterion::{criterion_group, BenchmarkId, Criterion};
use fq_bench::report::{ExperimentReport, ExperimentResult};
use fq_engine::Engine;
use fq_query::{Completeness, DomainId, Executor, RanfMode};
use fq_relational::{Schema, State, StateBuilder, Value};
use std::time::Instant;

/// Candidate budget for the enumerate-and-ask queries.
const BUDGET: usize = 200;

fn workload_state() -> State {
    let schema = Schema::new().with_relation("F", 2);
    let mut state = State::new(schema);
    // A small branching father–son state. Deliberately paper-scale: the
    // enumerate-and-ask precheck runs quantifier elimination over the
    // state translation, whose cost grows steeply with the fact count —
    // which is exactly why caching the plan (precheck included) pays.
    for (a, b) in [(1u64, 2u64), (1, 3), (2, 4), (4, 5)] {
        state.insert("F", vec![Value::Nat(a), Value::Nat(b)]);
    }
    state
}

/// One query per strategy, so the cache benefit covers every plan shape:
/// algebra (with and without a domain selection), ranf (`!F(x, y)` is
/// generic), enumerate-and-ask (the `x < y` conjunct makes it
/// non-generic), and qe-decide.
fn workload_queries() -> Vec<(&'static str, DomainId)> {
    vec![
        ("exists y. F(x, y) & F(y, z)", DomainId::Eq),
        ("exists y z. y != z & F(x, y) & F(x, z)", DomainId::Eq),
        ("F(x, y) & x < y", DomainId::Nat),
        ("!F(x, y)", DomainId::Nat),
        ("!F(x, y) & x < y", DomainId::Nat),
        ("exists x y. F(x, y)", DomainId::Nat),
    ]
}

fn fresh_executor() -> Executor {
    Executor::new(Engine::sequential()).with_max_candidates(BUDGET)
}

/// Plan every query in the workload once.
fn plan_pass(exec: &Executor, state: &State, queries: &[(&str, DomainId)]) {
    for (src, domain) in queries {
        exec.plan(state, src, *domain).unwrap();
    }
}

/// Execute every query in the workload once.
fn execute_pass(exec: &Executor, state: &State, queries: &[(&str, DomainId)]) {
    for (src, domain) in queries {
        exec.execute(state, src, *domain).unwrap();
    }
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("PIPE_plan_cache");
    group.sample_size(10);
    let state = workload_state();
    let queries = workload_queries();

    group.bench_with_input(BenchmarkId::new("plan", "cold"), &state, |b, s| {
        b.iter(|| {
            // A fresh executor per pass: every plan is recomputed, the
            // enumerate-and-ask precheck runs its QE from scratch.
            let exec = fresh_executor();
            plan_pass(&exec, s, &queries);
        })
    });

    group.bench_with_input(BenchmarkId::new("plan", "warm"), &state, |b, s| {
        let exec = fresh_executor();
        plan_pass(&exec, s, &queries); // prime the plan cache
        b.iter(|| plan_pass(&exec, s, &queries))
    });

    group.finish();
}

/// Median wall-clock over `samples` runs.
fn median(samples: usize, mut run: impl FnMut()) -> u128 {
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_micros()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn emit_report() {
    let state = workload_state();
    let queries = workload_queries();
    let samples = 9;

    let plan_cold = median(samples, || {
        let exec = fresh_executor();
        plan_pass(&exec, &state, &queries);
    });

    let warm_exec = fresh_executor();
    plan_pass(&warm_exec, &state, &queries); // prime the plan cache
    let plan_warm = median(samples, || plan_pass(&warm_exec, &state, &queries));

    // Full execute pass on the warm executor, for context: how much of an
    // end-to-end answer the (cached) planning stage accounts for.
    let exec_warm = median(3, || execute_pass(&warm_exec, &state, &queries));

    let reference = "fq-query compile → plan → execute pipeline".to_string();
    let mut report = ExperimentReport::default();
    report.results.push(ExperimentResult {
        id: "PIPE_plan_cache/plan_cold".to_string(),
        reference: reference.clone(),
        claim: format!(
            "plan {} queries (one per strategy), fresh executor: every plan computed",
            queries.len()
        ),
        observed: format!("median {plan_cold} µs over {samples} runs"),
        pass: true,
        millis: plan_cold / 1000,
    });
    report.results.push(ExperimentResult {
        id: "PIPE_plan_cache/plan_warm".to_string(),
        reference: reference.clone(),
        claim: "same workload, shared executor: plans served from query.plan cache".to_string(),
        observed: format!("median {plan_warm} µs over {samples} runs"),
        pass: true,
        millis: plan_warm / 1000,
    });
    report.results.push(ExperimentResult {
        id: "PIPE_plan_cache/speedup".to_string(),
        reference: reference.clone(),
        claim: "warm plan-cache pass is strictly faster than cold".to_string(),
        observed: format!("{:.2}x (cold {plan_cold} µs / warm {plan_warm} µs)", {
            plan_cold as f64 / plan_warm.max(1) as f64
        }),
        pass: plan_warm < plan_cold,
        millis: 0,
    });
    report.results.push(ExperimentResult {
        id: "PIPE_plan_cache/execute_warm".to_string(),
        reference,
        claim: format!(
            "full execute pass, warm plans, budget {BUDGET}: \
             execution cost on top of cached planning"
        ),
        observed: format!("median {exec_warm} µs over 3 runs"),
        pass: true,
        millis: exec_warm / 1000,
    });

    emit_ranf_rows(&mut report);

    let json = report.to_json();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    std::fs::write(path, &json).expect("write BENCH_pipeline.json");
    println!("wrote BENCH_pipeline.json ({} rows)", report.results.len());
    println!("{}", report.to_markdown());
}

/// A father–son chain large enough that the RANF generator does real
/// relational work: `edges` F-facts over `edges + 1` distinct values.
fn ranf_state(edges: u64) -> State {
    let mut b = StateBuilder::new(Schema::new().with_relation("F", 2));
    for i in 0..edges {
        b.row("F", vec![Value::Nat(i), Value::Nat(i + 1)]);
    }
    b.finish()
}

/// The `PIPE_ranf` family: the query classes the RANF strategy moves
/// from budget-exhausted partial answers to exact certified ones.
///
/// * `exact_infinite` — `!F(x, y)`: the generator computes the full
///   active-domain core of the complement and the restrictor certifies
///   the answer infinite. Formerly `Partial` at any budget.
/// * `exact_finite` — `F(x, y) | F(x, x)`: non-safe-range but finite;
///   certified exact with **zero** enumeration. Formerly `Partial`
///   whenever the budget undershot the candidate space.
/// * `fallback_partial` — the same `!F(x, y)` with `RanfMode::Off`:
///   the pre-RANF planner's budgeted enumeration, kept as the
///   before/after contrast (and it must still report `Partial`). This
///   row runs on the small workload state: the enumerate-and-ask
///   relative-safety precheck quantifier-eliminates the whole state
///   translation, whose cost explodes with the fact count — which is
///   itself part of the contrast (RANF planning never runs QE).
///
/// The default scale keeps CI fast; set `FQ_BENCH_HUGE=1` for the
/// 2·10³-value sweep whose generator emits ~4·10⁶ rows.
fn emit_ranf_rows(report: &mut ExperimentReport) {
    let reference = "RANF planner: exact evaluation of non-safe-range generic queries".to_string();
    let edges: u64 = if std::env::var_os("FQ_BENCH_HUGE").is_some() {
        2_000
    } else {
        eprintln!("[bench_pipeline] PIPE_ranf at default scale (set FQ_BENCH_HUGE=1 for 2k adom)");
        300
    };
    let state = ranf_state(edges);
    let adom = (edges + 1) as usize;
    let expect_rows = adom * adom - edges as usize;
    let samples = 3;

    let ranf_exec = fresh_executor();
    let mut out = ranf_exec
        .execute(&state, "!F(x, y)", DomainId::Nat)
        .unwrap();
    let exact = median(samples, || {
        out = ranf_exec
            .execute(&state, "!F(x, y)", DomainId::Nat)
            .unwrap();
    });
    let exact_ok = out.plan.strategy() == "ranf"
        && out.rows.len() == expect_rows
        && matches!(
            out.completeness,
            Completeness::CertifiedRanf { infinite: true, .. }
        );
    report.results.push(ExperimentResult {
        id: "PIPE_ranf/exact_infinite".to_string(),
        reference: reference.clone(),
        claim: format!(
            "!F(x, y) over a {adom}-value active domain: exact {expect_rows}-row core \
             + INFINITE certificate (formerly Partial at any budget)"
        ),
        observed: format!(
            "median {exact} µs over {samples} runs; strategy {}, {} row(s), {:?}",
            out.plan.strategy(),
            out.rows.len(),
            out.completeness
        ),
        pass: exact_ok,
        millis: exact / 1000,
    });

    let mut fin = ranf_exec
        .execute(&state, "F(x, y) | F(x, x)", DomainId::Nat)
        .unwrap();
    let finite = median(samples, || {
        fin = ranf_exec
            .execute(&state, "F(x, y) | F(x, x)", DomainId::Nat)
            .unwrap();
    });
    let finite_ok = fin.plan.strategy() == "ranf"
        && fin.rows.len() == edges as usize
        && matches!(
            fin.completeness,
            Completeness::CertifiedRanf {
                infinite: false,
                restrictor_rows: 0
            }
        );
    report.results.push(ExperimentResult {
        id: "PIPE_ranf/exact_finite".to_string(),
        reference: reference.clone(),
        claim: format!(
            "F(x, y) | F(x, x): non-safe-range but finite — certified exact \
             ({edges} row(s)) with zero enumeration"
        ),
        observed: format!(
            "median {finite} µs over {samples} runs; strategy {}, {} row(s), {:?}",
            fin.plan.strategy(),
            fin.rows.len(),
            fin.completeness
        ),
        pass: finite_ok,
        millis: finite / 1000,
    });

    let small = workload_state();
    let off_exec = fresh_executor().with_ranf(RanfMode::Off);
    let mut off = off_exec.execute(&small, "!F(x, y)", DomainId::Nat).unwrap();
    let partial = median(samples, || {
        off = off_exec.execute(&small, "!F(x, y)", DomainId::Nat).unwrap();
    });
    report.results.push(ExperimentResult {
        id: "PIPE_ranf/fallback_partial".to_string(),
        reference,
        claim: format!(
            "!F(x, y) with RanfMode::Off (paper-scale state): the pre-RANF budgeted \
             enumeration exhausts its {BUDGET}-candidate budget and stays Partial"
        ),
        observed: format!(
            "median {partial} µs over {samples} runs; strategy {}, {} row(s), {:?}",
            off.plan.strategy(),
            off.rows.len(),
            match off.completeness {
                Completeness::Partial { .. } => "Partial",
                _ => "NOT PARTIAL — unexpected",
            }
        ),
        pass: matches!(off.completeness, Completeness::Partial { .. }),
        millis: partial / 1000,
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(10);
    targets = bench_pipeline
}

fn main() {
    benches();
    emit_report();
}
