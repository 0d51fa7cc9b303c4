//! Algebra benches: the optimized relational executor against the naive
//! `AlgebraExpr::eval` backend. Three experiments, emitted to
//! `BENCH_algebra.json`:
//!
//! * **join scaling** — a three-way chain join at growing state sizes;
//!   the naive backend's nested-loop join is O(n²) per join, the
//!   physical executor's hash join is O(n). The headline row requires a
//!   ≥ 5x median speedup.
//! * **morsel thread sweep** — the same chain join executed
//!   morsel-driven at 1/2/4/8 threads, asserted bit-identical to the
//!   sequential path in-bench; the scaling row checks the ≥ 2.5x
//!   4-thread target only on hosts that actually have ≥ 4 cores.
//! * **pushdown on/off** — a constant select over the chain join,
//!   executed physically with and without the logical rewriter; the
//!   rewriter sinks the select to the base scan, collapsing every
//!   intermediate cardinality. Checked on operator row counts
//!   (deterministic), timed for context.

use criterion::{criterion_group, BenchmarkId, Criterion};
use fq_bench::report::{ExperimentReport, ExperimentResult};
use fq_engine::{Engine, EngineConfig};
use fq_relational::algebra::{AlgebraExpr, Condition};
use fq_relational::optimize::optimize;
use fq_relational::physical::PhysicalPlan;
use fq_relational::{Schema, State, Value};
use std::time::Instant;

/// A chain state: A, B, C each hold the successor pairs (i, i+1) for
/// i < n, so A(x,y) ⋈ B(y,z) ⋈ C(z,w) walks three steps of the chain.
fn chain_state(n: u64) -> State {
    let schema = Schema::new()
        .with_relation("A", 2)
        .with_relation("B", 2)
        .with_relation("C", 2);
    let mut state = State::new(schema);
    for i in 0..n {
        for rel in ["A", "B", "C"] {
            state.insert(rel, vec![Value::Nat(i), Value::Nat(i + 1)]);
        }
    }
    state
}

fn base(name: &str, attrs: [&str; 2]) -> AlgebraExpr {
    AlgebraExpr::Base {
        name: name.into(),
        attrs: attrs.iter().map(|a| a.to_string()).collect(),
    }
}

/// A(x,y) ⋈ B(y,z) ⋈ C(z,w) — each join shares exactly one attribute.
fn chain_join() -> AlgebraExpr {
    AlgebraExpr::Join(
        Box::new(AlgebraExpr::Join(
            Box::new(base("A", ["x", "y"])),
            Box::new(base("B", ["y", "z"])),
        )),
        Box::new(base("C", ["z", "w"])),
    )
}

/// σ_{x=0}(A ⋈ B ⋈ C) — the select belongs on the A scan.
fn selective_chain() -> AlgebraExpr {
    AlgebraExpr::Select(
        Box::new(chain_join()),
        Condition::EqConst("x".into(), Value::Nat(0)),
    )
}

/// Median wall-clock over `samples` runs, in microseconds.
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

fn bench_algebra(c: &mut Criterion) {
    let mut group = c.benchmark_group("ALG_join");
    group.sample_size(10);
    let state = chain_state(64);
    let expr = chain_join();
    let plan = PhysicalPlan::compile(&expr);

    group.bench_with_input(
        BenchmarkId::new("chain_join_64", "naive"),
        &state,
        |b, s| b.iter(|| expr.eval(s)),
    );
    group.bench_with_input(BenchmarkId::new("chain_join_64", "hash"), &state, |b, s| {
        b.iter(|| plan.execute(s))
    });
    group.finish();
}

fn emit_report() {
    let mut report = ExperimentReport::default();
    let reference = "fq-relational optimize + physical executor".to_string();
    let samples = 5;

    // --- Join scaling: naive nested-loop vs physical hash join. -------
    let expr = chain_join();
    let plan = PhysicalPlan::compile(&expr);
    let mut speedups = Vec::new();
    let mut detail = Vec::new();
    for n in [800u64, 1600, 3200] {
        let state = chain_state(n);
        let rows = expr.eval(&state).expect("joins evaluate").tuples.len();
        let hashed = plan.execute(&state).expect("joins evaluate");
        assert_eq!(hashed.tuples.len(), rows, "executors differ");
        let naive = median(samples, || {
            expr.eval(&state).expect("joins evaluate");
        });
        let hash = median(samples, || {
            plan.execute(&state).expect("joins evaluate");
        });
        let speedup = naive as f64 / hash.max(1) as f64;
        speedups.push(speedup);
        detail.push(format!("n={n}: {naive} µs / {hash} µs = {speedup:.1}x"));
        report.results.push(ExperimentResult {
            id: format!("ALG_join/chain_{n}"),
            reference: reference.clone(),
            claim: format!(
                "A ⋈ B ⋈ C over {n}-row chains ({rows} result rows): \
                 hash join beats the nested-loop backend"
            ),
            observed: format!(
                "naive {naive} µs, hash {hash} µs ({speedup:.1}x, median of {samples})"
            ),
            pass: hash < naive,
            millis: (naive + hash) / 1000,
        });
    }
    speedups.sort_by(|a, b| a.total_cmp(b));
    let median_speedup = speedups[speedups.len() / 2];
    report.results.push(ExperimentResult {
        id: "ALG_join/speedup".to_string(),
        reference: reference.clone(),
        claim: "median join-scaling speedup of the hash join is ≥ 5x".to_string(),
        observed: format!("median {median_speedup:.1}x [{}]", detail.join("; ")),
        pass: median_speedup >= 5.0,
        millis: 0,
    });

    // --- Morsel-driven thread sweep on the chain join. ----------------
    // Every configuration is asserted bit-identical to the sequential
    // path in-bench before timing; thread counts are encoded in the row
    // ids so `bench_gate` compares like-for-like against the committed
    // baselines.
    {
        use fq_relational::physical::ExecOpts;
        let n = 6000;
        let state = chain_state(n);
        let plan = PhysicalPlan::compile(&chain_join());
        let baseline = plan.execute(&state).expect("joins evaluate");
        let host_cores = fq_engine::available_threads();
        let opts = ExecOpts { morsel_rows: 1024 };
        let mut medians = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let engine = Engine::new(EngineConfig { threads });
            let out = plan
                .execute_with_stats_on(&state, &engine, opts)
                .expect("joins evaluate");
            assert_eq!(
                out.relation, baseline,
                "parallel drift at {threads} threads"
            );
            let t = median(samples, || {
                plan.execute_with_stats_on(&state, &engine, opts)
                    .expect("joins evaluate");
            });
            medians.push((threads, t));
            report.results.push(ExperimentResult {
                id: format!("ALG_parallel/threads_{threads}"),
                reference: reference.clone(),
                claim: format!(
                    "morsel-driven chain join over {n}-row chains at {threads} \
                     thread(s) is bit-identical to the sequential executor"
                ),
                observed: format!(
                    "{t} µs (median of {samples}, morsel {} rows, host has \
                     {host_cores} core(s))",
                    opts.morsel_rows
                ),
                pass: true,
                millis: t / 1000,
            });
        }
        let t1 = medians[0].1;
        let t4 = medians[2].1;
        let speedup4 = t1 as f64 / t4.max(1) as f64;
        report.results.push(ExperimentResult {
            id: "ALG_parallel/scaling".to_string(),
            reference: reference.clone(),
            claim: "4-thread chain join is ≥ 2.5x the 1-thread configuration \
                    (only checkable on hosts with ≥ 4 cores; single-core hosts \
                     record the honest numbers and pass vacuously)"
                .to_string(),
            observed: format!(
                "1t {t1} µs → 4t {t4} µs ({speedup4:.2}x) on a {host_cores}-core host \
                 [{}]",
                medians
                    .iter()
                    .map(|(th, t)| format!("{th}t: {t} µs"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            pass: host_cores < 4 || speedup4 >= 2.5,
            millis: 0,
        });
    }

    // --- Pushdown on/off: operator cardinalities + wall clock. --------
    let state = chain_state(200);
    let sel = selective_chain();
    let raw_plan = PhysicalPlan::compile(&sel);
    let opt = optimize(&sel, &state);
    let opt_plan = PhysicalPlan::compile(&opt.expr);
    let raw_report = raw_plan.execute_with_stats(&state).expect("joins evaluate");
    let opt_report = opt_plan.execute_with_stats(&state).expect("joins evaluate");
    assert_eq!(
        raw_report.relation, opt_report.relation,
        "rewrite changed the answer"
    );
    let raw_rows: usize = raw_report.operators.iter().map(|o| o.rows).sum();
    let opt_rows: usize = opt_report.operators.iter().map(|o| o.rows).sum();
    let raw_time = median(samples, || {
        raw_plan.execute(&state).expect("joins evaluate");
    });
    let opt_time = median(samples, || {
        opt_plan.execute(&state).expect("joins evaluate");
    });
    report.results.push(ExperimentResult {
        id: "ALG_pushdown/rows".to_string(),
        reference: reference.clone(),
        claim: "σ_{x=0}(A ⋈ B ⋈ C): pushing the select below the joins \
                collapses every intermediate cardinality"
            .to_string(),
        observed: format!(
            "total operator rows {raw_rows} without rewriting, {opt_rows} with \
             ({} rewrite(s): {})",
            opt.rewrites.len(),
            opt.rewrites.join(" | ")
        ),
        pass: opt_rows < raw_rows,
        millis: 0,
    });
    report.results.push(ExperimentResult {
        id: "ALG_pushdown/time".to_string(),
        reference,
        claim: "the pushdown also wins on wall clock".to_string(),
        observed: format!(
            "{raw_time} µs without, {opt_time} µs with ({:.1}x, median of {samples})",
            raw_time as f64 / opt_time.max(1) as f64
        ),
        pass: opt_time <= raw_time,
        millis: (raw_time + opt_time) / 1000,
    });

    let json = report.to_json();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_algebra.json");
    std::fs::write(path, &json).expect("write BENCH_algebra.json");
    println!("wrote BENCH_algebra.json ({} rows)", report.results.len());
    println!("{}", report.to_markdown());
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(10);
    targets = bench_algebra
}

fn main() {
    benches();
    emit_report();
}
