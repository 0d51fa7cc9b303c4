//! E01/E02 benches: active-domain evaluation and the Section 1.1
//! enumerate-and-ask algorithm, scaling over the state size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fq_bench::workloads;
use fq_core::answer_query;
use fq_domains::NatOrder;
use fq_relational::active_eval::{eval_query, NoOps, Ops};

fn bench_active_domain_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("E01_active_domain_eval");
    let queries = workloads::genealogy_queries();
    for edges in [10usize, 30, 100] {
        let state = workloads::genealogy_state(edges as u64 * 2, edges, 42);
        group.bench_with_input(BenchmarkId::new("M_query", edges), &state, |b, st| {
            b.iter(|| eval_query(st, &NoOps, &queries[0].1, &["x".to_string()]).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("G_query", edges), &state, |b, st| {
            b.iter(|| {
                eval_query(
                    st,
                    &NoOps,
                    &queries[1].1,
                    &["x".to_string(), "z".to_string()],
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_enumerate_and_ask(c: &mut Criterion) {
    let mut group = c.benchmark_group("E02_enumerate_and_ask");
    group.sample_size(10);
    let queries = workloads::genealogy_queries();
    for edges in [5usize, 10, 20] {
        let state = workloads::genealogy_state(edges as u64 * 2, edges, 42);
        group.bench_with_input(BenchmarkId::new("M_query", edges), &state, |b, st| {
            b.iter(|| {
                answer_query(&NatOrder, st, &queries[0].1, &["x".to_string()], 10_000).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_safe_range_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("codd_compilation");
    let queries = workloads::genealogy_queries();
    let state = workloads::genealogy_state(60, 40, 42);
    let schema = state.schema().clone();
    let expr = fq_relational::algebra::compile(&schema, &queries[1].1, Ops::Equality).unwrap();
    group.bench_function("compile_G", |b| {
        b.iter(|| fq_relational::algebra::compile(&schema, &queries[1].1, Ops::Equality).unwrap())
    });
    group.bench_function("eval_algebra_G", |b| b.iter(|| expr.eval(&state)));
    group.finish();
}

criterion_group! {
    name = benches;
    // Keep full-workspace bench runs bounded: short warm-up and
    // measurement windows, 10 samples per benchmark.
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(10);
    targets = bench_active_domain_eval,
    bench_enumerate_and_ask,
    bench_safe_range_compile
}
criterion_main!(benches);
