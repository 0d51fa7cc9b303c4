//! Serve benches: `fq serve` under concurrent mixed traffic on the
//! 10⁶-row trace database (domain **T**, the paper conclusion's
//! "databases of computational experiments"). Emitted to
//! `BENCH_serve.json`:
//!
//! * **shared-cache contention** — N threads hammer one executor's
//!   *warm* plan cache and memo shards over a pinned snapshot. The
//!   sharded read path must not serialize: the aggregate throughput at
//!   4 threads may not collapse below the single-thread figure (on a
//!   multi-core host it should exceed it; the committed baseline is
//!   from a 1-core host, where equal throughput is the best possible).
//! * **mixed serve workload** — a real `Server` on a loopback socket,
//!   N client threads each running a fixed request schedule of 70%
//!   `query`, 10% `explain`, 20% `ingest` against the 10⁶-row store.
//!   Reports sustained QPS and per-request p50/p99 latency; thread
//!   counts are encoded in the row ids so `bench_gate` compares
//!   like-for-like.
//!
//! * **durable ingest + recovery** (`SRV_durable`) — the same 10⁶ rows
//!   ingested through a durable store at every fsync policy, reported
//!   as rows/s against the non-durable baseline (the acceptance bar:
//!   `--durability batch` stays within 2× of non-durable), plus
//!   recovery wall-clock — replaying the whole delta log back into the
//!   exact pre-crash state — at 10⁵ and 10⁶ rows.
//!
//! Every response is checked for `ok: true`, and the final epoch must
//! equal the number of published batches — a concurrency smoke on top
//! of the `prop_serve` isolation properties.

use criterion::{criterion_group, Criterion};
use fq_bench::report::{ExperimentReport, ExperimentResult};
use fq_engine::{Engine, EngineConfig};
use fq_query::{Client, DomainId, Executor, QueryService, Server};
use fq_relational::{wal, Durability, SharedState, State, Value, WalOptions};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use fq_bench::workloads::{trace_db_rows, trace_db_schema, trace_db_state};

/// Cheap, selective queries for the read side of the mix: `Looping` is
/// machine-keyed (small), the `Halted` projection dedupes a scan down
/// to the machine zoo.
const Q_SMALL: &str = "Looping(m)";
const Q_PROJECT: &str = "exists w. Halted(m, w)";

fn percentile(sorted_micros: &[u128], p: usize) -> u128 {
    let idx = (sorted_micros.len() * p / 100).min(sorted_micros.len() - 1);
    sorted_micros[idx]
}

/// A batch of `Run` rows no other request sends, so every ingest
/// publishes a fresh epoch.
fn fresh_batch(tag: &str, round: usize) -> Vec<Vec<Value>> {
    (0..3)
        .map(|i| {
            vec![
                Value::Str(format!("bench-machine-{tag}")),
                Value::Str(format!("word-{tag}-{round}")),
                Value::Str(format!("trace-{tag}-{round}-{i}")),
            ]
        })
        .collect()
}

fn bench_serve(c: &mut Criterion) {
    let state = trace_db_state(&trace_db_rows(10_000, 42));
    let service = QueryService::new(
        Arc::new(SharedState::new(state)),
        Executor::new(Engine::sequential()),
    );
    let mut group = c.benchmark_group("SRV_handle");
    group.sample_size(10);
    group.bench_function("query_small", |b| {
        let req = r#"{"cmd": "query", "query": "Looping(m)", "domain": "eq"}"#;
        b.iter(|| service.handle_line(req))
    });
    group.bench_function("snapshot_info", |b| {
        let req = r#"{"cmd": "snapshot-info"}"#;
        b.iter(|| service.handle_line(req))
    });
    group.finish();
}

fn emit_report() {
    let mut report = ExperimentReport::default();
    let reference = "fq serve: snapshot-isolated concurrent query service".to_string();
    let host_cores = fq_engine::available_threads();

    let gen_start = Instant::now();
    let rows = trace_db_rows(1_000_000, 42);
    let state = trace_db_state(&rows);
    let stored = state.size();
    eprintln!(
        "[bench_serve] built the {stored}-row trace store in {} ms",
        gen_start.elapsed().as_millis()
    );

    // --- Shared-cache contention: warm reads must not serialize. ------
    // One executor, one pinned snapshot; every thread re-runs the same
    // two queries, so after the first pass everything is a plan-cache
    // and memo hit. Ids encode the thread count for `bench_gate`.
    let shared = Arc::new(SharedState::new(state));
    {
        let exec = Executor::new(Engine::new(EngineConfig { threads: 1 }));
        let snapshot = shared.snapshot();
        for q in [Q_SMALL, Q_PROJECT] {
            exec.execute_snapshot(&snapshot, q, DomainId::Eq)
                .expect("warmup");
        }
        const OPS: usize = 150;
        let mut single_ops_s = 0.0;
        for threads in [1usize, 4] {
            let start = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    let exec = exec.clone();
                    let snapshot = snapshot.clone();
                    scope.spawn(move || {
                        for i in 0..OPS {
                            let q = if i % 2 == 0 { Q_SMALL } else { Q_PROJECT };
                            let out = exec
                                .execute_snapshot(&snapshot, q, DomainId::Eq)
                                .expect("warm read");
                            assert!(out.stats.plan_cached, "warm read missed the plan cache");
                        }
                    });
                }
            });
            let elapsed = start.elapsed();
            let ops_s = (threads * OPS) as f64 / elapsed.as_secs_f64();
            if threads == 1 {
                single_ops_s = ops_s;
            }
            // On a 1-core host perfect sharing still only matches the
            // single-thread aggregate; a serializing lock would *also*
            // match it, but would collapse on multi-core — the margin
            // (≥ 0.5×) catches gross convoying on either host shape.
            let floor = 0.5 * single_ops_s;
            report.results.push(ExperimentResult {
                id: format!("SRV_cache/warm_reads_{threads}"),
                reference: reference.clone(),
                claim: format!(
                    "{threads} thread(s) of warm plan-cache + memo reads on one \
                     shared executor do not serialize"
                ),
                observed: format!(
                    "{ops_s:.0} ops/s aggregate over {} reads ({} µs, host has \
                     {host_cores} core(s))",
                    threads * OPS,
                    elapsed.as_micros()
                ),
                pass: ops_s >= floor,
                millis: elapsed.as_millis(),
            });
        }
        let (hits, misses) = exec.plan_cache_stats();
        eprintln!("[bench_serve] contention pass: plan cache {hits} hits / {misses} misses");
    }

    // --- Mixed serve workload over a real loopback socket. ------------
    let service = QueryService::new(Arc::clone(&shared), Executor::new(Engine::sequential()));
    let addr = Server::bind(service, "127.0.0.1:0")
        .expect("bind loopback")
        .spawn()
        .expect("spawn server");
    eprintln!("[bench_serve] server listening on {addr}");

    const REQUESTS: usize = 200;
    let mut published = 0u64;
    for threads in [1usize, 4] {
        let start = Instant::now();
        let per_thread: Vec<Vec<u128>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        let tag = format!("{threads}x{t}");
                        let mut lat = Vec::with_capacity(REQUESTS);
                        for i in 0..REQUESTS {
                            let t0 = Instant::now();
                            let resp = match i % 10 {
                                0..=6 => {
                                    let q = if i % 2 == 0 { Q_SMALL } else { Q_PROJECT };
                                    client.query(q, Some("eq")).expect("query")
                                }
                                7 => client.explain(Q_SMALL, Some("eq")).expect("explain"),
                                _ => client.ingest("Run", &fresh_batch(&tag, i)).expect("ingest"),
                            };
                            lat.push(t0.elapsed().as_micros());
                            assert_eq!(
                                resp.get("ok").and_then(|v| v.as_bool()),
                                Some(true),
                                "request {i} failed: {}",
                                resp.to_compact()
                            );
                        }
                        lat
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect()
        });
        let elapsed = start.elapsed();
        // Every ingest batch is unique, so each one published an epoch.
        published += (threads * REQUESTS.div_ceil(10) * 2) as u64;

        let mut lat: Vec<u128> = per_thread.into_iter().flatten().collect();
        lat.sort_unstable();
        let total = lat.len();
        let qps = total as f64 / elapsed.as_secs_f64();
        let (p50, p99) = (percentile(&lat, 50), percentile(&lat, 99));
        report.results.push(ExperimentResult {
            id: format!("SRV_mixed/threads_{threads}"),
            reference: reference.clone(),
            claim: format!(
                "{threads} client thread(s) of mixed query/explain/ingest \
                 traffic sustained against the 10⁶-row trace store"
            ),
            observed: format!(
                "{qps:.0} req/s over {total} requests ({} µs wall, host has \
                 {host_cores} core(s))",
                elapsed.as_micros()
            ),
            pass: qps > 0.0,
            millis: elapsed.as_millis(),
        });
        report.results.push(ExperimentResult {
            id: format!("SRV_latency/p50_threads_{threads}"),
            reference: reference.clone(),
            claim: format!("median request latency at {threads} client thread(s)"),
            observed: format!("p50 {p50} µs, p99 {p99} µs"),
            pass: true,
            millis: p50 / 1000,
        });
        report.results.push(ExperimentResult {
            id: format!("SRV_latency/p99_threads_{threads}"),
            reference: reference.clone(),
            claim: format!("tail request latency at {threads} client thread(s)"),
            observed: format!("p99 {p99} µs"),
            pass: true,
            millis: p99 / 1000,
        });
        eprintln!("[bench_serve] {threads} thread(s): {qps:.0} req/s, p50 {p50} µs, p99 {p99} µs");
    }

    // --- Epoch accounting across both sweeps. -------------------------
    let epoch = shared.epoch();
    report.results.push(ExperimentResult {
        id: "SRV_epochs/published".to_string(),
        reference: reference.clone(),
        claim: "every unique ingest batch published exactly one epoch".to_string(),
        observed: format!("epoch {epoch} after {published} unique batches"),
        pass: epoch == published,
        millis: 0,
    });

    // --- Durable ingest + recovery (`--data-dir`, `fq recover`). ------
    // The same 10⁶ rows, re-ingested from an empty store in 20k-row
    // batches: once through the plain in-memory path (baseline), once
    // per fsync policy through a durable store with its epoch-delta
    // log. Then recovery wall-clock: replay the whole log and check the
    // recovered fingerprint is bit-identical to the live store's.
    {
        let durable_ref =
            "fq serve --data-dir: epoch-delta WAL, crash recovery, compaction".to_string();
        const BATCH: usize = 20_000;
        let batches: Vec<Vec<(String, Vec<Vec<Value>>)>> = rows
            .chunks(BATCH)
            .map(|chunk| {
                let mut by_rel: BTreeMap<&str, Vec<Vec<Value>>> = BTreeMap::new();
                for (rel, t) in chunk {
                    by_rel.entry(rel).or_default().push(t.clone());
                }
                by_rel
                    .into_iter()
                    .map(|(r, ts)| (r.to_string(), ts))
                    .collect()
            })
            .collect();
        let tmp = |tag: &str| -> PathBuf {
            let dir =
                std::env::temp_dir().join(format!("fq-bench-durable-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        };
        let ingest_all = |shared: &SharedState, upto: usize| -> std::time::Duration {
            let start = Instant::now();
            for batch in &batches[..upto] {
                shared
                    .ingest_batches(batch.iter().cloned())
                    .expect("ingest");
            }
            start.elapsed()
        };

        let plain = SharedState::new(State::new(trace_db_schema()));
        let elapsed = ingest_all(&plain, batches.len());
        let baseline_rows_s = rows.len() as f64 / elapsed.as_secs_f64();
        report.results.push(ExperimentResult {
            id: "SRV_durable/ingest_baseline".to_string(),
            reference: durable_ref.clone(),
            claim: "10⁶ rows ingested in 20k-row batches, no durability".to_string(),
            observed: format!(
                "{baseline_rows_s:.0} rows/s over {} batches (epoch {})",
                batches.len(),
                plain.epoch()
            ),
            pass: baseline_rows_s > 0.0,
            millis: elapsed.as_millis(),
        });
        drop(plain);

        for durability in [Durability::None, Durability::Batch, Durability::Always] {
            let dir = tmp(durability.key());
            let shared = SharedState::create_durable(
                &dir,
                State::new(trace_db_schema()),
                WalOptions::with_durability(durability),
            )
            .expect("create durable store");
            let elapsed = ingest_all(&shared, batches.len());
            let rows_s = rows.len() as f64 / elapsed.as_secs_f64();
            let info = shared.wal_info().expect("wal info");
            drop(shared);
            let ratio = baseline_rows_s / rows_s;
            // The acceptance bar rides on the default serve policy:
            // `batch` must stay within 2× of the non-durable path. The
            // `none`/`always` rows are informational endpoints of the
            // fsync spectrum.
            let pass = match durability {
                Durability::Batch => rows_s >= 0.5 * baseline_rows_s,
                _ => rows_s > 0.0,
            };
            report.results.push(ExperimentResult {
                id: format!("SRV_durable/ingest_{}", durability.key()),
                reference: durable_ref.clone(),
                claim: format!(
                    "10⁶ rows ingested through a durable store, --durability {}",
                    durability.key()
                ),
                observed: format!(
                    "{rows_s:.0} rows/s, {ratio:.2}x the non-durable cost \
                     ({} segment(s), {} compaction(s), log {} KiB)",
                    info.segments,
                    info.compactions,
                    info.log_bytes / 1024
                ),
                pass,
                millis: elapsed.as_millis(),
            });
            eprintln!(
                "[bench_serve] durable ingest ({}): {rows_s:.0} rows/s ({ratio:.2}x baseline)",
                durability.key()
            );
            let _ = std::fs::remove_dir_all(&dir);
        }

        // Recovery wall-clock: compaction disabled so the entire
        // history replays from delta records, the worst case `fq
        // recover` can face at this scale.
        for (label, upto) in [("1e5", 100_000 / BATCH), ("1e6", batches.len())] {
            let dir = tmp(label);
            let opts = WalOptions {
                durability: Durability::None,
                compact_log_bytes: u64::MAX,
                ..WalOptions::default()
            };
            let shared = SharedState::create_durable(&dir, State::new(trace_db_schema()), opts)
                .expect("create durable store");
            ingest_all(&shared, upto);
            let live_epoch = shared.epoch();
            let live_fingerprint = shared.snapshot().fingerprint();
            let live_rows = shared.snapshot().state().size();
            shared.sync().expect("sync before shutdown");
            drop(shared);

            let start = Instant::now();
            let r = wal::recover(&dir).expect("recover");
            let elapsed = start.elapsed();
            let ok = r.epoch == live_epoch && r.state.fingerprint() == live_fingerprint;
            report.results.push(ExperimentResult {
                id: format!("SRV_durable/recover_{label}"),
                reference: durable_ref.clone(),
                claim: format!(
                    "full delta-log replay recovers the exact pre-crash state \
                     at {label} rows"
                ),
                observed: format!(
                    "{} ms to replay {} delta record(s) into {live_rows} row(s) \
                     at epoch {}; fingerprint {}",
                    elapsed.as_millis(),
                    r.replayed,
                    r.epoch,
                    if ok { "identical" } else { "MISMATCH" }
                ),
                pass: ok,
                millis: elapsed.as_millis(),
            });
            eprintln!(
                "[bench_serve] recover {label}: {} ms, {} record(s)",
                elapsed.as_millis(),
                r.replayed
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    let json = report.to_json();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json ({} rows)", report.results.len());
    println!("{}", report.to_markdown());
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(10);
    targets = bench_serve
}

fn main() {
    benches();
    emit_report();
}
