//! Property tests for the columnar interned storage core: the word
//! representation must be observationally identical to the legacy
//! [`Value`] representation — ordering, equality, display, round-trips,
//! and the on-disk JSON shape of a whole [`State`].

use fq_relational::{Dict, OverlayDict, Schema, State, StateBuilder, VRel, Value};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Mixed naturals (small, near the inline/interned boundary, and big)
/// and short strings — every representation class of [`Val`].
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0u64..50).prop_map(Value::Nat),
        ((1u64 << 63) - 2..=u64::MAX).prop_map(Value::Nat),
        "[a-c&*#1]{0,4}".prop_map(Value::Str),
    ]
}

proptest! {
    /// Word comparison through the dictionary is exactly the derived
    /// `Value` order, word equality is semantic equality, and `display`
    /// matches `Value`'s `Display` — regardless of interning order.
    #[test]
    fn words_mirror_values(values in proptest::collection::vec(arb_value(), 0..12)) {
        let mut dict = Dict::default();
        let words: Vec<_> = values.iter().map(|v| dict.encode(v)).collect();
        for (w, v) in words.iter().zip(&values) {
            prop_assert_eq!(dict.decode(*w), v.clone());
            prop_assert_eq!(dict.display(*w), v.to_string());
        }
        let keys = dict.sort_keys();
        for (wa, a) in words.iter().zip(&values) {
            for (wb, b) in words.iter().zip(&values) {
                prop_assert_eq!(dict.cmp_vals(*wa, *wb), a.cmp(b), "{} vs {}", a, b);
                prop_assert_eq!(wa == wb, a == b, "{} vs {}", a, b);
                // The rank-key table reproduces the same total order.
                prop_assert_eq!(keys.key(*wa).cmp(&keys.key(*wb)), a.cmp(b), "{} vs {}", a, b);
            }
        }
    }

    /// Encoding is canonical and lossless through overlays too: the
    /// overlay agrees with the base on interned values and round-trips
    /// fresh ones.
    #[test]
    fn overlays_round_trip(
        base_values in proptest::collection::vec(arb_value(), 0..8),
        extra_values in proptest::collection::vec(arb_value(), 0..8),
    ) {
        let mut dict = Dict::default();
        let base_words: Vec<_> = base_values.iter().map(|v| dict.encode(v)).collect();
        let mut overlay = OverlayDict::new(&dict);
        for (w, v) in base_words.iter().zip(&base_values) {
            prop_assert_eq!(overlay.encode(v), *w, "base words are preferred");
        }
        for v in &extra_values {
            let w = overlay.encode(v);
            prop_assert_eq!(overlay.encode(v), w, "interning is canonical");
            prop_assert_eq!(overlay.decode(w), v.clone());
        }
    }

    /// The batch ingestion path is observationally identical to a
    /// repeated-`insert` loop at the `VRel` level: same rows in the
    /// same order, same column statistics — on unsorted, duplicate-laden
    /// mixed numeric/string batches, split at an arbitrary point into a
    /// pre-loaded store plus one merged batch.
    #[test]
    fn extend_from_sorted_equals_repeated_insert(
        rows in proptest::collection::vec((arb_value(), arb_value()), 0..24),
        dup_stride in 1usize..4,
        split in 0usize..24,
    ) {
        let mut corpus: Vec<Vec<Value>> = rows.iter()
            .map(|(a, b)| vec![a.clone(), b.clone()])
            .collect();
        // Re-inject every `dup_stride`-th row so duplicates are certain.
        let dups: Vec<Vec<Value>> = corpus.iter().step_by(dup_stride).cloned().collect();
        corpus.extend(dups);

        let mut dict = Dict::default();
        let mut by_insert = VRel::new(2);
        let mut flat: Vec<_> = Vec::new();
        for t in &corpus {
            let enc: Vec<_> = t.iter().map(|v| dict.encode(v)).collect();
            by_insert.insert(&enc, &dict);
            flat.extend_from_slice(&enc);
        }
        // One whole-corpus batch…
        let one_batch = VRel::from_rows(2, flat.clone(), &dict);
        prop_assert_eq!(one_batch.rows(), by_insert.rows());
        prop_assert_eq!(one_batch.data(), by_insert.data());
        prop_assert_eq!(one_batch.stats(&dict), by_insert.stats(&dict));
        // …and a merge of a batch into a non-empty store.
        let cut = (split.min(corpus.len())) * 2;
        let mut merged = VRel::from_rows(2, flat[..cut].to_vec(), &dict);
        merged.extend_from_sorted(flat[cut..].to_vec(), &dict);
        prop_assert_eq!(merged.data(), by_insert.data());
    }

    /// A `StateBuilder` bulk load equals the insert loop over the same
    /// arrival order at the `State` level too: equal states, identical
    /// serialized JSON, identical per-column statistics.
    #[test]
    fn bulk_loaded_state_equals_insert_loop(
        pairs in proptest::collection::vec((arb_value(), arb_value()), 0..16),
        singles in proptest::collection::vec(arb_value(), 0..10),
        c in prop_oneof![1 => Just(None), 2 => arb_value().prop_map(Some)],
    ) {
        let mut schema = Schema::new().with_relation("R", 2).with_relation("S", 1);
        if c.is_some() {
            schema = schema.with_constant("c");
        }
        let mut by_insert = State::new(schema.clone());
        let mut builder = StateBuilder::new(schema.clone());
        for (a, b) in &pairs {
            by_insert.insert("R", vec![a.clone(), b.clone()]);
            builder.row("R", vec![a.clone(), b.clone()]);
        }
        for a in &singles {
            // The borrowed-tuple spellings must stage/insert identically.
            by_insert.insert_ref("S", std::slice::from_ref(a));
            builder.row_ref("S", std::slice::from_ref(a));
        }
        if let Some(v) = &c {
            by_insert.set_constant("c", v.clone());
            builder.constant("c", v.clone());
        }
        let bulk = builder.finish();
        prop_assert_eq!(&bulk, &by_insert);
        prop_assert_eq!(fq_json::to_string(&bulk), fq_json::to_string(&by_insert));
        prop_assert_eq!(bulk.column_stats("R"), by_insert.column_stats("R"));
        prop_assert_eq!(bulk.column_stats("S"), by_insert.column_stats("S"));
        prop_assert_eq!(bulk.active_domain(), by_insert.active_domain());
        // And the batch path composes incrementally: extending the bulk
        // state with the same tuples again changes nothing.
        let mut again = bulk.clone();
        let added = again
            .extend_bulk("R", pairs.iter().map(|(a, b)| vec![a.clone(), b.clone()]))
            .unwrap();
        prop_assert_eq!(added, 0);
        prop_assert_eq!(&again, &by_insert);
    }

    /// A binary snapshot round-trips any state exactly: equal state,
    /// byte-identical JSON interchange form, per-column statistics
    /// equal to the lazily-computed ones, and the advertised
    /// `snapshot_len` equal to the written byte count.
    #[test]
    fn snapshot_round_trips_any_state(
        pairs in proptest::collection::vec((arb_value(), arb_value()), 0..16),
        singles in proptest::collection::vec(arb_value(), 0..10),
        c in prop_oneof![1 => Just(None), 2 => arb_value().prop_map(Some)],
    ) {
        let mut schema = Schema::new().with_relation("R", 2).with_relation("S", 1);
        if c.is_some() {
            schema = schema.with_constant("c");
        }
        let mut builder = StateBuilder::new(schema);
        for (a, b) in &pairs {
            builder.row("R", vec![a.clone(), b.clone()]);
        }
        for a in &singles {
            builder.row_ref("S", std::slice::from_ref(a));
        }
        if let Some(v) = &c {
            builder.constant("c", v.clone());
        }
        let state = builder.finish();
        let bytes = state.snapshot_bytes();
        prop_assert_eq!(fq_relational::format::snapshot_len(&state), bytes.len());
        prop_assert!(fq_relational::is_snapshot(&bytes));
        let loaded = State::read_snapshot(&bytes).unwrap();
        prop_assert_eq!(&loaded, &state);
        // JSON interchange stays byte-identical through the binary form.
        prop_assert_eq!(fq_json::to_string(&loaded), fq_json::to_string(&state));
        // The stats bulk-read from disk equal the lazily-computed ones.
        prop_assert_eq!(loaded.column_stats("R"), state.column_stats("R"));
        prop_assert_eq!(loaded.column_stats("S"), state.column_stats("S"));
        prop_assert_eq!(loaded.active_domain(), state.active_domain());
    }

    /// Damaged snapshots are always *diagnosed*: any truncation and any
    /// single-byte flip of a valid snapshot surfaces a `StateError`,
    /// never a panic and never a silently-wrong state.
    #[test]
    fn corrupted_snapshots_error_without_panicking(
        pairs in proptest::collection::vec((arb_value(), arb_value()), 1..12),
        cut_seed in 0usize..1_000_000,
        flip_seed in 0usize..1_000_000,
        mask in 1u8..=255,
    ) {
        let schema = Schema::new().with_relation("R", 2);
        let mut builder = StateBuilder::new(schema);
        for (a, b) in &pairs {
            builder.row("R", vec![a.clone(), b.clone()]);
        }
        let bytes = builder.finish().snapshot_bytes();
        // Truncation at an arbitrary cut point.
        let cut = cut_seed % bytes.len();
        prop_assert!(State::read_snapshot(&bytes[..cut]).is_err(), "cut at {}", cut);
        // A single byte flipped anywhere in the file.
        let mut flipped = bytes.clone();
        let at = flip_seed % flipped.len();
        flipped[at] ^= mask;
        prop_assert!(
            State::read_snapshot(&flipped).is_err(),
            "flip at {} with mask {:#04x}", at, mask
        );
    }

    /// A whole state serializes to **exactly** the JSON the legacy
    /// `BTreeMap<String, BTreeSet<Tuple>>` representation produced, and
    /// parses back to an equal state.
    #[test]
    fn state_json_matches_legacy_shape(
        r in proptest::collection::btree_set((arb_value(), arb_value()), 0..6),
        s in proptest::collection::btree_set(arb_value(), 0..4),
        c in prop_oneof![1 => Just(None), 2 => arb_value().prop_map(Some)],
    ) {
        let mut schema = Schema::new().with_relation("R", 2).with_relation("S", 1);
        if c.is_some() {
            schema = schema.with_constant("c");
        }
        let mut state = State::new(schema.clone());
        let mut rels: BTreeMap<String, BTreeSet<Vec<Value>>> = BTreeMap::new();
        rels.insert("R".into(), BTreeSet::new());
        rels.insert("S".into(), BTreeSet::new());
        for (a, b) in &r {
            state.insert("R", vec![a.clone(), b.clone()]);
            rels.get_mut("R").unwrap().insert(vec![a.clone(), b.clone()]);
        }
        for a in &s {
            state.insert("S", vec![a.clone()]);
            rels.get_mut("S").unwrap().insert(vec![a.clone()]);
        }
        let mut constants: BTreeMap<String, Value> = BTreeMap::new();
        if let Some(v) = &c {
            state.set_constant("c", v.clone());
            constants.insert("c".into(), v.clone());
        }
        let legacy = fq_json::object([
            ("schema", fq_json::ToJson::to_json(&schema)),
            ("relations", fq_json::ToJson::to_json(&rels)),
            ("constants", fq_json::ToJson::to_json(&constants)),
        ]);
        prop_assert_eq!(fq_json::to_string(&state), legacy.to_compact());
        let reparsed: State = fq_json::from_str(&fq_json::to_string(&state)).unwrap();
        prop_assert_eq!(reparsed, state);
    }
}

/// Every state file shipped under `examples/data/` parses and
/// re-serializes to the same compact JSON as the raw document — the
/// on-disk format is unchanged by the columnar store.
#[test]
fn examples_data_round_trips_byte_identically() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/data");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("examples/data exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let raw = fq_json::parse(&text).unwrap();
        let state: State = fq_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{} must parse as a state: {e}", path.display()));
        assert_eq!(
            fq_json::to_string(&state),
            raw.to_compact(),
            "{} must re-serialize byte-identically",
            path.display()
        );
        checked += 1;
    }
    assert!(checked > 0, "corpus must not be empty");
}
