//! Property tests for the durability layer: for ANY ingest history,
//! replay(base, deltas) must be equivalent to the directly-built state
//! — equal by semantic equality, by content fingerprint, and by
//! canonical JSON interchange form — and the equivalence must hold
//! against a state built in a different interning order, since
//! fingerprints and equality depend on content alone.

use fq_relational::wal::{self, WalOptions};
use fq_relational::{Durability, Schema, SharedState, State, StateBuilder, Value};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIRS: AtomicU64 = AtomicU64::new(0);

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fq-prop-wal-{}-{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn schema() -> Schema {
    Schema::new().with_relation("R", 2).with_relation("S", 1)
}

/// Mixed naturals and short strings, as in the storage properties.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0u64..40).prop_map(Value::Nat),
        ((1u64 << 63) - 2..=u64::MAX).prop_map(Value::Nat),
        "[a-c#1]{0,3}".prop_map(Value::Str),
    ]
}

/// One published batch: rows for `R` and rows for `S`, ingested as one
/// atomic publication (either list may be empty; a batch that adds
/// nothing publishes nothing — also exercised).
type Batch = (Vec<(Value, Value)>, Vec<Value>);

fn arb_batch() -> impl Strategy<Value = Batch> {
    (
        proptest::collection::vec((arb_value(), arb_value()), 0..6),
        proptest::collection::vec(arb_value(), 0..4),
    )
}

/// Aggressive tuning so even tiny histories rotate and compact: the
/// property then covers multi-segment replay and post-compaction
/// stale-record skipping, not just the single-segment happy path.
fn arb_options() -> impl Strategy<Value = WalOptions> {
    (
        prop_oneof![
            Just(Durability::None),
            Just(Durability::Batch),
            Just(Durability::Always)
        ],
        prop_oneof![Just(1u64), Just(256), Just(u64::MAX)],
        prop_oneof![Just(200u64), Just(u64::MAX)],
    )
        .prop_map(
            |(durability, segment_bytes, compact_log_bytes)| WalOptions {
                durability,
                segment_bytes,
                compact_log_bytes,
                ..WalOptions::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Replay of the durable log reproduces the directly-built state:
    /// equal states, equal fingerprints, byte-identical canonical JSON
    /// — against a bulk build and a reversed insert loop — for any
    /// history, any fsync policy, and any rotation / compaction tuning.
    #[test]
    fn replay_equals_direct_build(
        batches in proptest::collection::vec(arb_batch(), 0..7),
        opts in arb_options(),
    ) {
        let dir = tmp_dir();
        let shared =
            SharedState::create_durable(&dir, State::new(schema()), opts).unwrap();
        for (pairs, singles) in &batches {
            shared
                .ingest_batches([
                    (
                        "R".to_string(),
                        pairs.iter().map(|(a, b)| vec![a.clone(), b.clone()]).collect(),
                    ),
                    (
                        "S".to_string(),
                        singles.iter().map(|v| vec![v.clone()]).collect(),
                    ),
                ])
                .unwrap();
        }
        let live = shared.snapshot();
        drop(shared); // writer gone; only the log speaks for the history

        // Recovery: the exact pre-shutdown state, epoch included.
        let r = wal::recover(&dir).unwrap();
        prop_assert_eq!(r.epoch, live.epoch());
        prop_assert_eq!(&r.state, live.state().as_ref());
        prop_assert_eq!(r.state.fingerprint(), live.fingerprint());

        // Direct bulk build of the same rows…
        let mut b = StateBuilder::new(schema());
        for (pairs, singles) in &batches {
            for (x, y) in pairs {
                b.row("R", vec![x.clone(), y.clone()]);
            }
            for v in singles {
                b.row("S", vec![v.clone()]);
            }
        }
        let direct = b.finish();
        prop_assert_eq!(&r.state, &direct);
        prop_assert_eq!(r.state.fingerprint(), direct.fingerprint());
        prop_assert_eq!(
            fq_json::to_string(&r.state),
            fq_json::to_string(&direct)
        );

        // …and by single-row inserts in reverse: interning order
        // differs, semantics (and the fingerprint every plan cache keys
        // on) must not.
        let mut reversed = State::new(schema());
        for (pairs, singles) in batches.iter().rev() {
            for v in singles.iter().rev() {
                reversed.insert_ref("S", std::slice::from_ref(v));
            }
            for (x, y) in pairs.iter().rev() {
                reversed.insert("R", vec![x.clone(), y.clone()]);
            }
        }
        prop_assert_eq!(&r.state, &reversed);
        prop_assert_eq!(r.state.fingerprint(), reversed.fingerprint());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Reopening a recovered store and publishing more epochs keeps the
    /// log replayable: recovery after the second generation equals the
    /// state built from both generations' rows.
    #[test]
    fn reopened_stores_stay_replayable(
        first in proptest::collection::vec(arb_batch(), 0..4),
        second in proptest::collection::vec(arb_batch(), 1..4),
        opts in arb_options(),
    ) {
        let dir = tmp_dir();
        let ingest_all = |shared: &SharedState, batches: &[Batch]| {
            for (pairs, singles) in batches {
                shared
                    .ingest_batches([
                        (
                            "R".to_string(),
                            pairs.iter().map(|(a, b)| vec![a.clone(), b.clone()]).collect(),
                        ),
                        (
                            "S".to_string(),
                            singles.iter().map(|v| vec![v.clone()]).collect(),
                        ),
                    ])
                    .unwrap();
            }
        };

        let shared = SharedState::create_durable(&dir, State::new(schema()), opts).unwrap();
        ingest_all(&shared, &first);
        let epoch_one = shared.epoch();
        drop(shared);

        let (reopened, recovery) = SharedState::open_durable(&dir, opts).unwrap();
        prop_assert_eq!(recovery.epoch, epoch_one);
        ingest_all(&reopened, &second);
        let live = reopened.snapshot();
        drop(reopened);

        let r = wal::recover(&dir).unwrap();
        prop_assert_eq!(r.epoch, live.epoch());
        prop_assert_eq!(&r.state, live.state().as_ref());
        prop_assert_eq!(r.state.fingerprint(), live.fingerprint());

        let mut direct = State::new(schema());
        for (pairs, singles) in first.iter().chain(&second) {
            direct
                .extend_bulk("R", pairs.iter().map(|(a, b)| vec![a.clone(), b.clone()]))
                .unwrap();
            direct
                .extend_bulk("S", singles.iter().map(|v| vec![v.clone()]))
                .unwrap();
        }
        prop_assert_eq!(&r.state, &direct);
        prop_assert_eq!(r.state.fingerprint(), direct.fingerprint());

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
