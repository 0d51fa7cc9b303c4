//! The on-disk binary columnar snapshot format.
//!
//! JSON stays the human-readable interchange format, but parsing it is
//! the cold-load bottleneck: every value re-parses and the dictionary
//! re-interns from scratch. A *snapshot* instead dumps the columnar
//! store as it sits in memory — the dictionary's entries in id order
//! (so reloading reconstructs the exact same id assignment and the
//! relation columns need no re-encoding) and each relation's flat
//! `u64` word column verbatim, with per-column statistics precomputed.
//! Loading is bounds-checked bulk reads: no per-value parsing, no
//! interning, stats ready before the first query.
//!
//! ## Layout (version 1)
//!
//! All integers are little-endian `u64` unless noted.
//!
//! ```text
//! offset  size  field
//! ------  ----  ------------------------------------------------------
//!      0     7  magic  b"FQSNAP\0"
//!      7     1  version byte (1)
//!      8    24  META section entry:  offset, length, checksum
//!     32    24  DICT section entry:  offset, length, checksum
//!     56    24  RELS section entry:  offset, length, checksum
//!     80     8  header checksum (over bytes 0..80)
//!     88     …  the three sections, consecutive
//! ```
//!
//! **META** — the schema and constants as one compact JSON object
//! (`{"schema":…,"constants":…}`); both are tiny and their JSON forms
//! are already pinned by round-trip tests.
//!
//! **DICT** — the interning dictionary, *in id order*:
//!
//! ```text
//! entry_count   u64
//! blob_length   u64
//! tags          entry_count × u8   (0 = big natural, 1 = string)
//! payloads      entry_count × u64  (the natural, or the string's byte length)
//! string blob   blob_length bytes  (all strings concatenated, id order)
//! ```
//!
//! **RELS** — one record per relation, in schema (name) order:
//!
//! ```text
//! relation_count  u64
//! per relation:
//!   name_length   u64, then the name's UTF-8 bytes
//!   arity         u64
//!   rows          u64
//!   words         rows × arity × u64   (the VRel column, verbatim)
//!   stats         arity × (distinct u64, min_word u64, max_word u64)
//! ```
//!
//! Stats min/max are stored as value *words* (they occur in the column,
//! so they decode through the dictionary just loaded); an empty
//! relation writes zeros and loads as `None` bounds.
//!
//! Every section carries an [`FxHasher`](crate::fx::FxHasher) checksum
//! and the header checksums itself, so truncated or bit-flipped files
//! surface as a diagnosed [`StateError`] — never a panic, never a
//! silently wrong state. (The checksums guard against *accidental*
//! corruption; sortedness of adopted columns is re-asserted in debug
//! builds only.)
//!
//! Consumers: every load path (`fq` CLI, serve) auto-detects the
//! format via [`is_snapshot`], `fq convert`
//! translates to and from JSON, and the durability layer
//! ([`crate::wal`]) uses full snapshots as the **base** files of its
//! epoch-delta log — `base-<epoch>.fqsnap` written on store creation
//! and by compaction, with the same framing primitives (magic +
//! version byte + FxHash checksums) reused for the delta segments.

use crate::schema::Schema;
use crate::state::{State, StateError, Value};
use crate::val::{ColStats, Dict, DictEntry, VRel, Val};
use fq_json::{FromJson, ToJson};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The canonical name of the current format, reported by `fq explain`
/// and the serve protocol's `snapshot-info`.
pub const FORMAT_ID: &str = "fqsnap-v1";

/// The id reported for states that arrived as JSON (or were built in
/// memory) rather than from a snapshot.
pub const JSON_FORMAT_ID: &str = "json";

const MAGIC: [u8; 7] = *b"FQSNAP\0";
const VERSION: u8 = 1;
const SECTIONS: usize = 3;
const SECTION_NAMES: [&str; SECTIONS] = ["meta", "dictionary", "relations"];
/// magic + version + 3 × (offset, len, checksum) + header checksum.
const HEADER_LEN: usize = 8 + SECTIONS * 24 + 8;

/// Do these bytes begin with the snapshot magic? The auto-detection
/// probe every load path runs before choosing a parser.
pub fn is_snapshot(bytes: &[u8]) -> bool {
    // Magic plus the version byte: anything shorter is not a snapshot.
    bytes.len() > MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

fn checksum(bytes: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut h = crate::fx::FxHasher::default();
    h.write(bytes);
    h.finish()
}

fn corrupt(detail: impl Into<String>) -> StateError {
    StateError::SnapshotCorrupt {
        detail: detail.into(),
    }
}

fn put_u64(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn section_meta(state: &State) -> Vec<u8> {
    fq_json::object([
        ("schema", state.schema().to_json()),
        ("constants", state.constants().to_json()),
    ])
    .to_compact()
    .into_bytes()
}

fn section_dict(dict: &Dict) -> Vec<u8> {
    let entries = dict.raw_entries();
    let blob_len = dict.string_bytes();
    let mut out = Vec::with_capacity(16 + entries.len() * 9 + blob_len);
    put_u64(&mut out, entries.len() as u64);
    put_u64(&mut out, blob_len as u64);
    for e in entries {
        out.push(match e {
            DictEntry::Big(_) => 0,
            DictEntry::Str(_) => 1,
        });
    }
    for e in entries {
        match e {
            DictEntry::Big(n) => put_u64(&mut out, *n),
            DictEntry::Str(s) => put_u64(&mut out, s.len() as u64),
        }
    }
    for e in entries {
        if let DictEntry::Str(s) = e {
            out.extend_from_slice(s.as_bytes());
        }
    }
    out
}

fn section_rels(state: &State) -> Vec<u8> {
    let dict = state.dict();
    let mut out = Vec::new();
    put_u64(&mut out, state.schema().relations().count() as u64);
    for (name, _) in state.schema().relations() {
        let rel = state.vrel(name).expect("declared relations are stored");
        put_u64(&mut out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
        put_u64(&mut out, rel.arity() as u64);
        put_u64(&mut out, rel.rows() as u64);
        out.reserve(rel.data().len() * 8);
        for &v in rel.data() {
            put_u64(&mut out, v.raw());
        }
        // Writing stats forces their computation, so loaders get them
        // for free — cold start pays zero stats passes.
        for st in rel.stats(dict) {
            let word =
                |v: &Option<Value>| v.as_ref().and_then(|v| dict.lookup(v)).map_or(0, Val::raw);
            put_u64(&mut out, st.distinct as u64);
            put_u64(&mut out, word(&st.min));
            put_u64(&mut out, word(&st.max));
        }
    }
    out
}

fn assemble(sections: [Vec<u8>; SECTIONS]) -> Vec<u8> {
    let total = HEADER_LEN + sections.iter().map(Vec::len).sum::<usize>();
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    let mut offset = HEADER_LEN as u64;
    for s in &sections {
        put_u64(&mut out, offset);
        put_u64(&mut out, s.len() as u64);
        put_u64(&mut out, checksum(s));
        offset += s.len() as u64;
    }
    let head = checksum(&out);
    put_u64(&mut out, head);
    debug_assert_eq!(out.len(), HEADER_LEN);
    for s in sections {
        out.extend_from_slice(&s);
    }
    out
}

/// Serialize a state into snapshot bytes.
pub fn write(state: &State) -> Vec<u8> {
    assemble([
        section_meta(state),
        section_dict(state.dict()),
        section_rels(state),
    ])
}

/// The exact byte length [`write()`] would produce, without building the
/// word sections — O(dictionary) work, so `snapshot-info` can report
/// on-disk size per request even for multi-million-row states.
pub fn snapshot_len(state: &State) -> usize {
    let dict = state.dict();
    let dict_len = 16 + dict.len() * 9 + dict.string_bytes();
    let rels_len = 8 + state
        .schema()
        .relations()
        .map(|(name, _)| {
            let rel = state.vrel(name).expect("declared relations are stored");
            24 + name.len() + rel.data().len() * 8 + rel.arity() * 24
        })
        .sum::<usize>();
    HEADER_LEN + section_meta(state).len() + dict_len + rels_len
}

/// A bounds-checked reader over one section's bytes: every overrun is a
/// truncation diagnostic naming the section, never a slice panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8], section: &'static str) -> Self {
        Cursor {
            bytes,
            pos: 0,
            section,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| corrupt(format!("{} section truncated", self.section)))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u64(&mut self) -> Result<u64, StateError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    /// A `u64` that must fit a `usize` (a count or length).
    fn len_of(&mut self, what: &str) -> Result<usize, StateError> {
        let section = self.section;
        usize::try_from(self.u64()?)
            .map_err(|_| corrupt(format!("{section} section: implausible {what}")))
    }

    fn done(&self) -> Result<(), StateError> {
        if self.pos != self.bytes.len() {
            return Err(corrupt(format!(
                "{} section has {} trailing byte(s)",
                self.section,
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Validate the header and return the three checksummed sections.
fn split_sections(bytes: &[u8]) -> Result<[&[u8]; SECTIONS], StateError> {
    if !is_snapshot(bytes) {
        return Err(StateError::SnapshotMagic);
    }
    let version = bytes[MAGIC.len()];
    if version != VERSION {
        return Err(StateError::SnapshotVersion { found: version });
    }
    if bytes.len() < HEADER_LEN {
        return Err(corrupt("header truncated"));
    }
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8B"));
    if checksum(&bytes[..HEADER_LEN - 8]) != u64_at(HEADER_LEN - 8) {
        return Err(corrupt("header checksum mismatch"));
    }
    let mut out = [&bytes[..0]; SECTIONS];
    for (i, name) in SECTION_NAMES.iter().enumerate() {
        let entry = 8 + i * 24;
        let start = usize::try_from(u64_at(entry))
            .map_err(|_| corrupt(format!("{name} section: implausible offset")))?;
        let len = usize::try_from(u64_at(entry + 8))
            .map_err(|_| corrupt(format!("{name} section: implausible length")))?;
        let end = start
            .checked_add(len)
            .filter(|&e| start >= HEADER_LEN && e <= bytes.len())
            .ok_or_else(|| corrupt(format!("{name} section out of bounds (truncated file?)")))?;
        let data = &bytes[start..end];
        if checksum(data) != u64_at(entry + 16) {
            return Err(corrupt(format!("{name} section checksum mismatch")));
        }
        out[i] = data;
    }
    Ok(out)
}

fn read_meta(bytes: &[u8]) -> Result<(Schema, BTreeMap<String, Value>), StateError> {
    let text =
        std::str::from_utf8(bytes).map_err(|_| corrupt("meta section is not valid UTF-8"))?;
    let json = fq_json::parse(text).map_err(|e| corrupt(format!("meta section: {e}")))?;
    let field = |key| fq_json::member(&json, key).map_err(|e| corrupt(format!("meta: {e}")));
    let schema =
        Schema::from_json(field("schema")?).map_err(|e| corrupt(format!("meta schema: {e}")))?;
    let constants = BTreeMap::<String, Value>::from_json(field("constants")?)
        .map_err(|e| corrupt(format!("meta constants: {e}")))?;
    Ok((schema, constants))
}

fn read_dict(bytes: &[u8]) -> Result<Dict, StateError> {
    let mut c = Cursor::new(bytes, "dictionary");
    let count = c.len_of("entry count")?;
    let blob_len = c.len_of("string blob length")?;
    let tags = c.take(count)?;
    let payload_len = count
        .checked_mul(8)
        .ok_or_else(|| corrupt("dictionary section: implausible entry count"))?;
    let payloads = c.take(payload_len)?;
    let blob = c.take(blob_len)?;
    c.done()?;
    let mut entries = Vec::with_capacity(count);
    let mut at = 0usize;
    for (id, (&tag, chunk)) in tags.iter().zip(payloads.chunks_exact(8)).enumerate() {
        let payload = u64::from_le_bytes(chunk.try_into().expect("8B"));
        match tag {
            0 => entries.push(DictEntry::Big(payload)),
            1 => {
                let len = usize::try_from(payload).map_err(|_| {
                    corrupt(format!("implausible length for dictionary entry {id}"))
                })?;
                let end = at
                    .checked_add(len)
                    .filter(|&e| e <= blob.len())
                    .ok_or_else(|| {
                        corrupt(format!("dictionary entry {id} overruns the string blob"))
                    })?;
                let s = std::str::from_utf8(&blob[at..end])
                    .map_err(|_| corrupt(format!("dictionary entry {id} is not valid UTF-8")))?;
                at = end;
                entries.push(DictEntry::Str(Arc::from(s)));
            }
            other => {
                return Err(corrupt(format!(
                    "unknown tag {other} for dictionary entry {id}"
                )))
            }
        }
    }
    if at != blob.len() {
        return Err(corrupt(
            "dictionary string blob length disagrees with the entry lengths",
        ));
    }
    Dict::from_raw_entries(entries).map_err(corrupt)
}

fn read_rels(
    bytes: &[u8],
    schema: &Schema,
    dict: &Dict,
) -> Result<BTreeMap<String, Arc<VRel>>, StateError> {
    let mut c = Cursor::new(bytes, "relations");
    let count = c.len_of("relation count")?;
    let declared = schema.relations().count();
    if count != declared {
        return Err(corrupt(format!(
            "snapshot stores {count} relation(s), the scheme declares {declared}"
        )));
    }
    let check_word = |v: Val, name: &str| -> Result<Val, StateError> {
        match v.id() {
            Some(id) if id >= dict.len() => Err(corrupt(format!(
                "relation `{name}` references dictionary id {id}, but only {} entries exist",
                dict.len()
            ))),
            _ => Ok(v),
        }
    };
    let mut out = BTreeMap::new();
    for _ in 0..count {
        let name_len = c.len_of("relation name length")?;
        let name = std::str::from_utf8(c.take(name_len)?)
            .map_err(|_| corrupt("relation name is not valid UTF-8"))?
            .to_string();
        let arity = c.len_of("arity")?;
        match schema.arity(&name) {
            None => return Err(StateError::UnknownRelation { relation: name }),
            Some(a) if a != arity => {
                return Err(StateError::ArityMismatch {
                    relation: name,
                    expected: a,
                    got: arity,
                })
            }
            Some(_) => {}
        }
        let rows = c.len_of("row count")?;
        if arity == 0 && rows > 1 {
            return Err(corrupt(format!(
                "zero-arity relation `{name}` claims {rows} rows"
            )));
        }
        // The declared row count must tile into whole arity-strided
        // rows of the remaining bytes — a bad stride is corruption,
        // not a smaller relation.
        let words = rows
            .checked_mul(arity)
            .and_then(|w| w.checked_mul(8))
            .ok_or_else(|| corrupt(format!("relation `{name}`: implausible row count")))?;
        let raw = c.take(words)?;
        let mut data = Vec::with_capacity(rows * arity);
        for chunk in raw.chunks_exact(8) {
            let v = Val::from_raw(u64::from_le_bytes(chunk.try_into().expect("8B")));
            data.push(check_word(v, &name)?);
        }
        let mut stats = Vec::with_capacity(arity);
        for _ in 0..arity {
            let distinct = c.len_of("distinct count")?;
            if distinct > rows || (distinct == 0) != (rows == 0) {
                return Err(corrupt(format!(
                    "relation `{name}`: {distinct} distinct values in a column of {rows} row(s)"
                )));
            }
            let min = c.u64()?;
            let max = c.u64()?;
            let bound = |w: u64| -> Result<Option<Value>, StateError> {
                if rows == 0 {
                    return Ok(None);
                }
                Ok(Some(dict.decode(check_word(Val::from_raw(w), &name)?)))
            };
            stats.push(ColStats {
                distinct,
                min: bound(min)?,
                max: bound(max)?,
            });
        }
        let rel = VRel::assemble(arity, rows, data, stats, dict);
        if out.insert(name.clone(), Arc::new(rel)).is_some() {
            return Err(corrupt(format!("duplicate relation `{name}`")));
        }
    }
    c.done()?;
    Ok(out)
}

/// Deserialize snapshot bytes back into a [`State`].
///
/// Every structural defect — wrong magic, unsupported version,
/// truncation, checksum mismatch, dangling dictionary ids, bad arity
/// strides — is a diagnosed [`StateError`]; this function does not
/// panic on untrusted input.
pub fn read(bytes: &[u8]) -> Result<State, StateError> {
    let [meta, dict_bytes, rels_bytes] = split_sections(bytes)?;
    let (schema, constants) = read_meta(meta)?;
    for name in constants.keys() {
        if !schema.constants().iter().any(|c| c == name) {
            return Err(StateError::UnknownConstant { name: name.clone() });
        }
    }
    let dict = read_dict(dict_bytes)?;
    let relations = read_rels(rels_bytes, &schema, &dict)?;
    Ok(State::from_parts(schema, dict, relations, constants))
}

/// Read only the schema (and header validation) from snapshot bytes —
/// the cheap path behind schema auto-detection in CLI loads.
pub fn read_schema(bytes: &[u8]) -> Result<Schema, StateError> {
    let [meta, _, _] = split_sections(bytes)?;
    Ok(read_meta(meta)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateBuilder;

    fn sample_state() -> State {
        let schema = Schema::new()
            .with_relation("Run", 3)
            .with_relation("Halted", 2)
            .with_relation("Empty", 1)
            .with_relation("Flag", 0)
            .with_constant("c")
            .with_constant("d");
        let mut b = StateBuilder::new(schema);
        for i in 0..40u64 {
            b.row(
                "Run",
                vec![
                    Value::Str(format!("machine#{:02}", i % 7)),
                    Value::Nat(i),
                    Value::Str(format!("tape&{}", i % 3)),
                ],
            );
            b.row("Halted", vec![Value::Nat(i % 5), Value::Nat((1 << 63) + i)]);
        }
        b.row("Flag", Vec::<Value>::new());
        b.constant("c", 7u64);
        b.constant("d", "trace#0");
        b.finish()
    }

    #[test]
    fn round_trip_preserves_state_stats_and_json() {
        let state = sample_state();
        let bytes = write(&state);
        assert!(is_snapshot(&bytes));
        assert!(!is_snapshot(b"{\"schema\""));
        let loaded = read(&bytes).unwrap();
        assert_eq!(loaded, state);
        assert_eq!(fq_json::to_string(&loaded), fq_json::to_string(&state));
        for rel in ["Run", "Halted", "Empty", "Flag"] {
            assert_eq!(loaded.column_stats(rel), state.column_stats(rel), "{rel}");
        }
        assert_eq!(loaded.fingerprint(), state.fingerprint());
        assert_eq!(read_schema(&bytes).unwrap(), *state.schema());
    }

    #[test]
    fn snapshot_len_matches_write() {
        for state in [sample_state(), State::new(Schema::new())] {
            assert_eq!(write(&state).len(), snapshot_len(&state));
        }
    }

    #[test]
    fn empty_state_round_trips() {
        let state = State::new(Schema::new().with_relation("R", 2));
        let loaded = read(&write(&state)).unwrap();
        assert_eq!(loaded, state);
        assert_eq!(loaded.column_stats("R").unwrap().len(), 2);
        assert_eq!(loaded.column_stats("R").unwrap()[0].min, None);
    }

    #[test]
    fn wrong_magic_and_future_version_are_diagnosed() {
        assert_eq!(read(b"").unwrap_err(), StateError::SnapshotMagic);
        assert_eq!(
            read(b"{\"schema\": {}}").unwrap_err(),
            StateError::SnapshotMagic
        );
        let mut bytes = write(&sample_state());
        bytes[7] = 9;
        assert_eq!(
            read(&bytes).unwrap_err(),
            StateError::SnapshotVersion { found: 9 }
        );
    }

    #[test]
    fn every_truncation_is_diagnosed() {
        let bytes = write(&sample_state());
        for len in 0..bytes.len() {
            let err = read(&bytes[..len]).expect_err("truncated snapshots must not load");
            assert!(
                matches!(
                    err,
                    StateError::SnapshotMagic | StateError::SnapshotCorrupt { .. }
                ),
                "truncation at {len}: {err}"
            );
        }
    }

    #[test]
    fn every_byte_flip_is_diagnosed() {
        let bytes = write(&sample_state());
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x40;
            read(&flipped).expect_err("bit-flipped snapshots must not load");
        }
    }

    /// Re-checksummed structural damage (an attacker, or a buggy
    /// writer) still diagnoses: the row count must tile the section.
    #[test]
    fn bad_arity_stride_is_diagnosed() {
        let state = sample_state();
        let mut rels = section_rels(&state);
        // First record: count u64, name_len u64, "Empty"... — schema
        // order puts "Empty" first; bump its row count from 0 to 2.
        let rows_at = 8 + 8 + "Empty".len() + 8;
        rels[rows_at..rows_at + 8].copy_from_slice(&2u64.to_le_bytes());
        let bytes = assemble([section_meta(&state), section_dict(state.dict()), rels]);
        let err = read(&bytes).unwrap_err();
        assert!(
            matches!(err, StateError::SnapshotCorrupt { .. }),
            "bad stride: {err}"
        );
    }

    #[test]
    fn schema_mismatches_are_diagnosed() {
        let state = sample_state();
        // A snapshot whose META declares a different scheme than its
        // RELS section stores.
        let other = State::new(Schema::new().with_relation("Other", 1));
        let bytes = assemble([
            section_meta(&other),
            section_dict(state.dict()),
            section_rels(&state),
        ]);
        assert!(matches!(
            read(&bytes).unwrap_err(),
            StateError::SnapshotCorrupt { .. }
        ));
    }
}
