//! Concurrency properties behind `fq serve`: snapshot isolation (a
//! reader pinned to a snapshot sees bit-identical answers no matter how
//! many epochs a writer publishes mid-flight, and a fresh snapshot only
//! ever shows *whole* published batches) and cache transparency (an
//! executor whose plan/memo caches are shared across threads answers
//! exactly like a private, cold-cache executor).

use fq_engine::{Engine, EngineConfig};
use fq_json::ToJson;
use fq_query::{DomainId, Executor, QueryService};
use fq_relational::{Schema, SharedState, State, Value};
use proptest::prelude::*;
use std::sync::Arc;

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

/// Safe-range query pool exercising every operator the serve loop can
/// meet: scans, joins, negation, projection-with-dedup, disjunction,
/// and a closed sentence (decided, not enumerated).
const QUERIES: &[&str] = &[
    "R(x, y)",
    "S(x)",
    "R(x, y) & S(y)",
    "exists y. R(x, y)",
    "R(x, y) & !S(x)",
    "S(x) & !(exists y. R(x, y))",
    "R(x, y) | R(y, x)",
    "exists x. exists y. R(x, y) & S(x)",
    "R(x, x)",
    "exists y. R(x, y) & R(y, z)",
];

const INITIAL_ROWS: u64 = 10;
const BATCH: u64 = 5;
const BATCHES: u64 = 20;

fn seeded_shared() -> Arc<SharedState> {
    let mut state = State::new(schema());
    for i in 0..INITIAL_ROWS {
        state.insert("R", vec![Value::Nat(i), Value::Nat(i + 1)]);
        if i % 3 == 0 {
            state.insert("S", vec![Value::Nat(i)]);
        }
    }
    Arc::new(SharedState::new(state))
}

/// Batch `b` of the writer: `BATCH` rows that exist in no other batch
/// and not in the seed, so every publish grows `R` by exactly `BATCH`.
fn batch_rows(b: u64) -> Vec<Vec<Value>> {
    (0..BATCH)
        .map(|i| vec![Value::Nat(1_000 + b * 100 + i), Value::Nat(b)])
        .collect()
}

/// Readers pinned to the epoch-0 snapshot re-execute the whole query
/// pool while a writer publishes twenty epochs; every re-execution must
/// be bit-identical to the pre-publish baseline, and every *fresh*
/// snapshot must show `R` grown by a whole number of batches — never a
/// torn publish.
#[test]
fn pinned_readers_are_isolated_and_publishes_are_atomic() {
    let shared = seeded_shared();
    let exec = Executor::new(Engine::new(EngineConfig { threads: 2 }));

    let pinned = shared.snapshot();
    let baselines: Vec<_> = QUERIES
        .iter()
        .map(|q| exec.execute_snapshot(&pinned, q, DomainId::Eq).expect(q))
        .collect();

    std::thread::scope(|scope| {
        let writer = {
            let shared = Arc::clone(&shared);
            scope.spawn(move || {
                for b in 0..BATCHES {
                    let (added, epoch) = shared.ingest("R", batch_rows(b)).expect("ingest");
                    assert_eq!(added, BATCH as usize, "batch {b} rows are all fresh");
                    assert_eq!(epoch, b + 1, "one epoch per published batch");
                }
            })
        };

        // Pinned readers: the writer must be invisible to them.
        for reader in 0..3 {
            let exec = exec.clone();
            let pinned = pinned.clone();
            let baselines = &baselines;
            scope.spawn(move || {
                for round in 0..8 {
                    for (q, base) in QUERIES.iter().zip(baselines) {
                        let out = exec.execute_snapshot(&pinned, q, DomainId::Eq).expect(q);
                        assert_eq!(out.rows, base.rows, "reader {reader} round {round}: {q}");
                        assert_eq!(out.vars, base.vars);
                        assert_eq!(out.stats.snapshot_epoch, Some(0));
                    }
                }
            });
        }

        // Fresh-snapshot readers: only whole batches, epochs consistent.
        for _ in 0..2 {
            let shared = Arc::clone(&shared);
            let exec = exec.clone();
            scope.spawn(move || {
                for _ in 0..40 {
                    let snap = shared.snapshot();
                    let grown = snap.relation_size("R") as u64 - INITIAL_ROWS;
                    assert_eq!(grown % BATCH, 0, "no reader may see a half-published batch");
                    assert_eq!(grown / BATCH, snap.epoch(), "epoch counts whole batches");
                    let out = exec
                        .execute_snapshot(&snap, "R(x, y)", DomainId::Eq)
                        .expect("scan");
                    assert_eq!(out.rows.len() as u64, INITIAL_ROWS + grown);
                    assert_eq!(out.stats.snapshot_epoch, Some(snap.epoch()));
                }
            });
        }

        writer.join().expect("writer");
    });

    let final_snap = shared.snapshot();
    assert_eq!(final_snap.epoch(), BATCHES);
    assert_eq!(
        final_snap.relation_size("R") as u64,
        INITIAL_ROWS + BATCHES * BATCH
    );
    // The pinned snapshot still answers from epoch 0 after the fact.
    let after = exec
        .execute_snapshot(&pinned, "R(x, y)", DomainId::Eq)
        .expect("scan");
    assert_eq!(after.rows, baselines[0].rows);
}

/// The same invariant through the serve protocol layer: concurrent
/// `query` and `ingest` requests against one [`QueryService`] never
/// expose a row count that is not a whole number of batches, and every
/// response carries the epoch it executed against.
#[test]
fn service_requests_never_observe_torn_batches() {
    let service = Arc::new(QueryService::new(seeded_shared(), Executor::default()));

    std::thread::scope(|scope| {
        let writer = {
            let service = Arc::clone(&service);
            scope.spawn(move || {
                for b in 0..BATCHES {
                    let req = fq_json::object([
                        ("cmd", fq_json::Value::Str("ingest".into())),
                        ("relation", fq_json::Value::Str("R".into())),
                        ("rows", batch_rows(b).to_json()),
                    ]);
                    let resp =
                        fq_json::parse(&service.handle_line(&req.to_compact())).expect("json");
                    assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));
                    assert_eq!(
                        resp.get("added").and_then(|v| v.as_int()),
                        Some(BATCH as i128)
                    );
                }
            })
        };

        for _ in 0..3 {
            let service = Arc::clone(&service);
            scope.spawn(move || {
                let req = r#"{"cmd": "query", "query": "R(x, y)", "domain": "eq"}"#;
                for _ in 0..30 {
                    let resp = fq_json::parse(&service.handle_line(req)).expect("json");
                    assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));
                    let rows = resp
                        .get("rows")
                        .and_then(|v| v.as_array())
                        .expect("rows array");
                    let epoch = resp.get("epoch").and_then(|v| v.as_int()).expect("epoch") as u64;
                    let grown = rows.len() as u64 - INITIAL_ROWS;
                    assert_eq!(grown % BATCH, 0, "torn batch visible through serve");
                    assert_eq!(grown / BATCH, epoch);
                }
            });
        }

        writer.join().expect("writer");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An executor whose caches are *shared* — reused across a whole
    /// random workload and cloned into `threads` concurrent workers —
    /// answers every query exactly like a fresh private executor with
    /// cold caches. Caching and sharding must be invisible.
    #[test]
    fn shared_cache_executor_matches_private(
        state in arb_state(),
        picks in proptest::collection::vec(0usize..QUERIES.len(), 1..10),
        threads in 1usize..=8,
    ) {
        let shared_exec = Executor::new(Engine::new(EngineConfig { threads: threads.min(4) }));
        let workload: Vec<&str> = picks.iter().map(|&i| QUERIES[i]).collect();

        // Private baseline: cold caches for every single query.
        let mut expected = Vec::new();
        for q in &workload {
            let private = Executor::new(Engine::new(EngineConfig { threads: 1 }));
            expected.push(private.execute(&state, q, DomainId::Eq));
        }

        // `threads` workers hammer the one shared executor concurrently,
        // each running the full workload (so plans are hit repeatedly).
        let runs: Vec<Vec<_>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let exec = shared_exec.clone();
                    let workload = &workload;
                    let state = &state;
                    scope.spawn(move || {
                        workload
                            .iter()
                            .map(|q| exec.execute(state, q, DomainId::Eq))
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker")).collect()
        });

        for run in &runs {
            for (got, want) in run.iter().zip(&expected) {
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        prop_assert_eq!(&got.rows, &want.rows);
                        prop_assert_eq!(&got.vars, &want.vars);
                        prop_assert_eq!(&got.completeness, &want.completeness);
                    }
                    (Err(g), Err(w)) => prop_assert_eq!(g.to_string(), w.to_string()),
                    (got, want) => prop_assert!(
                        false,
                        "shared {:?} vs private {:?}",
                        got.is_ok(),
                        want.is_ok()
                    ),
                }
            }
        }
    }
}
