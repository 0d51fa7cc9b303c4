//! Compact value words, the per-state dictionary, and columnar storage.
//!
//! A [`Val`] is one machine word. Naturals below 2⁶³ are stored inline;
//! everything else (large naturals, strings) is an id into a [`Dict`] of
//! interned entries. Interning is canonical — a value has exactly one
//! word per dictionary — so word equality *is* semantic equality, and
//! hash joins and frame bindings work on bare `u64`s.
//!
//! Word *order* is not semantic (dictionary ids are assigned in
//! insertion order, not sort order): use [`Dict::cmp_vals`] wherever the
//! legacy [`Value`] ordering (`Nat < Str`, naturals numerically, strings
//! byte-lexicographically) matters.
//!
//! [`VRel`] stores a relation as a flat arity-strided `Vec<Val>` kept in
//! semantic sorted order without duplicates, so decoding yields exactly
//! the tuple sequence the old `BTreeSet<Tuple>` representation produced,
//! and membership is a binary search over words. Per-column min/max and
//! distinct counts ([`ColStats`]) are computed lazily and feed the
//! optimizer's cardinality estimates.
//!
//! Writers have two paths into a [`VRel`]:
//!
//! * [`VRel::insert`] — the single-row path: binary search plus
//!   `splice`, O(rows) worst case per call. Right for point updates and
//!   small states; quadratic when driven in a bulk-load loop.
//! * [`VRel::extend_from_sorted`] / [`VRel::from_rows`] — the batch
//!   path: adopt a batch that is already strictly sorted, otherwise
//!   sort it, drop in-batch duplicates, and merge once with the
//!   existing store. O((b log b) + rows + b) per batch of `b` rows.
//!   [`Dict::encode_rows`] is the matching batch interning entry point.
//!   `StateBuilder::finish` merges every staged relation through the
//!   same decision (`merge_batches`).
//!
//! Both paths uphold the same invariants — see the "Storage &
//! ingestion" section of `DESIGN.md` — and debug builds assert against
//! bulk loads accidentally driven through the single-row path.

use crate::fx::FxMap;
use crate::state::{Tuple, Value};
use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

/// The tag bit: set for dictionary ids, clear for inline naturals.
const TAG: u64 = 1 << 63;

/// Semantic hash of a natural, for content fingerprints. Tagged apart
/// from [`hash_str`] so `Nat(5)` and `Str("5")` never collide by
/// construction.
pub(crate) fn hash_nat(n: u64) -> u64 {
    use std::hash::Hasher;
    let mut h = crate::fx::FxHasher::default();
    h.write_u8(0);
    h.write_u64(n);
    h.finish()
}

/// Semantic hash of a string, for content fingerprints.
pub(crate) fn hash_str(s: &str) -> u64 {
    use std::hash::Hasher;
    let mut h = crate::fx::FxHasher::default();
    h.write_u8(1);
    h.write(s.as_bytes());
    h.finish()
}

/// A database value packed into one word: an inline natural (`n < 2⁶³`)
/// or a dictionary id. Equality and hashing are word operations; the
/// derived `Ord` is **not** the semantic [`Value`] order — use
/// [`Dict::cmp_vals`] for that.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Val(u64);

impl Val {
    /// The inline word for a small natural, if it fits.
    pub fn inline_nat(n: u64) -> Option<Val> {
        (n & TAG == 0).then_some(Val(n))
    }

    /// The natural stored inline, if this word is untagged.
    pub fn as_inline_nat(self) -> Option<u64> {
        (self.0 & TAG == 0).then_some(self.0)
    }

    /// The dictionary id, if this word is tagged.
    pub fn id(self) -> Option<usize> {
        (self.0 & TAG != 0).then_some((self.0 & !TAG) as usize)
    }

    fn from_id(id: usize) -> Val {
        Val(TAG | id as u64)
    }

    /// The raw word.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reinterpret a raw word (the snapshot reader's inverse of
    /// [`Val::raw`]); the caller validates tagged ids against its
    /// dictionary.
    pub(crate) fn from_raw(word: u64) -> Val {
        Val(word)
    }
}

impl std::fmt::Debug for Val {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.as_inline_nat() {
            Some(n) => write!(f, "Val({n})"),
            None => write!(f, "Val(#{})", (self.0 & !TAG)),
        }
    }
}

/// An interned dictionary entry: a natural too large to inline, or a
/// string. `pub(crate)` so the snapshot format can dump and rebuild
/// the entry table in id order.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) enum DictEntry {
    Big(u64),
    Str(Arc<str>),
}

/// A borrowed view of a decoded word, cheap enough for comparators.
enum View<'a> {
    Nat(u64),
    Str(&'a str),
}

impl View<'_> {
    fn cmp(&self, other: &View<'_>) -> Ordering {
        // Mirrors the derived `Ord` on `Value`: Nat < Str, naturals
        // numerically, strings byte-lexicographically.
        match (self, other) {
            (View::Nat(a), View::Nat(b)) => a.cmp(b),
            (View::Nat(_), View::Str(_)) => Ordering::Less,
            (View::Str(_), View::Nat(_)) => Ordering::Greater,
            (View::Str(a), View::Str(b)) => a.cmp(b),
        }
    }
}

/// The per-[`State`](crate::State) append-only interning dictionary.
/// Every stored string and large natural has exactly one id, so two
/// words from the same dictionary are equal iff they denote the same
/// value.
#[derive(Clone, Debug, Default)]
pub struct Dict {
    entries: Vec<DictEntry>,
    bigs: FxMap<u64, u32>,
    strs: FxMap<Arc<str>, u32>,
}

impl Dict {
    /// Number of interned entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the dictionary empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of interned strings.
    pub fn strings(&self) -> usize {
        self.strs.len()
    }

    /// Intern a value, returning its canonical word.
    pub fn encode(&mut self, v: &Value) -> Val {
        match v {
            Value::Nat(n) => match Val::inline_nat(*n) {
                Some(val) => val,
                None => match self.bigs.get(n) {
                    Some(&id) => Val::from_id(id as usize),
                    None => {
                        let id = self.entries.len() as u32;
                        self.entries.push(DictEntry::Big(*n));
                        self.bigs.insert(*n, id);
                        Val::from_id(id as usize)
                    }
                },
            },
            Value::Str(s) => match self.strs.get(s.as_str()) {
                Some(&id) => Val::from_id(id as usize),
                None => {
                    let id = self.entries.len() as u32;
                    let arc: Arc<str> = Arc::from(s.as_str());
                    self.entries.push(DictEntry::Str(arc.clone()));
                    self.strs.insert(arc, id);
                    Val::from_id(id as usize)
                }
            },
        }
    }

    /// Batch-intern a sequence of decoded tuples into one flat word
    /// buffer (arity-strided, insertion order preserved).
    ///
    /// Semantically identical to calling [`Dict::encode`] per value —
    /// interning stays canonical, ids are assigned in first-seen order —
    /// but the entry table and reverse maps are grown once per batch
    /// instead of once per miss, which amortizes the rehash and
    /// `Arc<str>` bookkeeping that dominates string-heavy loads.
    pub fn encode_rows<'a, I>(&mut self, tuples: I, out: &mut Vec<Val>)
    where
        I: IntoIterator<Item = &'a [Value]>,
    {
        let tuples = tuples.into_iter();
        // Reserve one fresh entry per row up front. Over-reservation is
        // harmless; under-reservation (wide rows of all-new strings)
        // just rehashes as the per-value path would have.
        let (lo, _) = tuples.size_hint();
        self.entries.reserve(lo);
        self.strs.reserve(lo);
        for tuple in tuples {
            out.reserve(tuple.len());
            for v in tuple {
                out.push(self.encode(v));
            }
        }
    }

    /// The word for a value **without** interning. `None` means the
    /// value is not in the dictionary (hence in no stored tuple).
    pub fn lookup(&self, v: &Value) -> Option<Val> {
        match v {
            Value::Nat(n) => match Val::inline_nat(*n) {
                Some(val) => Some(val),
                None => self.bigs.get(n).map(|&id| Val::from_id(id as usize)),
            },
            Value::Str(s) => self
                .strs
                .get(s.as_str())
                .map(|&id| Val::from_id(id as usize)),
        }
    }

    /// A 64-bit semantic hash of every interned entry, indexed by id.
    /// Equal values hash equal in *any* dictionary, regardless of id
    /// assignment order, so [`State::fingerprint`](crate::State::fingerprint)
    /// can mix row words through this table and depend only on decoded
    /// content — never on interning history.
    pub(crate) fn entry_hashes(&self) -> Vec<u64> {
        self.entries
            .iter()
            .map(|e| match e {
                DictEntry::Big(n) => hash_nat(*n),
                DictEntry::Str(s) => hash_str(s),
            })
            .collect()
    }

    /// The interned entries in id order — exactly what the snapshot
    /// format serializes, so a reload via [`Dict::from_raw_entries`]
    /// reproduces this dictionary's id assignment and every stored
    /// word column stays valid verbatim.
    pub(crate) fn raw_entries(&self) -> &[DictEntry] {
        &self.entries
    }

    /// Total bytes of interned string payloads (snapshot sizing).
    pub(crate) fn string_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|e| match e {
                DictEntry::Big(_) => 0,
                DictEntry::Str(s) => s.len(),
            })
            .sum()
    }

    /// Rebuild a dictionary from an entry table in id order,
    /// reconstructing the reverse maps. `Err` (with a human-readable
    /// detail) when the table is not canonical — duplicate entries, or
    /// a "big" natural small enough to inline — since words encoded
    /// against such a table would break the one-word-per-value
    /// invariant word equality relies on.
    pub(crate) fn from_raw_entries(entries: Vec<DictEntry>) -> Result<Dict, String> {
        let mut bigs = crate::fx::map_with_capacity(entries.len());
        let mut strs = crate::fx::map_with_capacity(entries.len());
        for (id, entry) in entries.iter().enumerate() {
            match entry {
                DictEntry::Big(n) => {
                    if Val::inline_nat(*n).is_some() {
                        return Err(format!(
                            "dictionary entry {id} interns the inline-representable natural {n}"
                        ));
                    }
                    if bigs.insert(*n, id as u32).is_some() {
                        return Err(format!("dictionary entry {id} duplicates the natural {n}"));
                    }
                }
                DictEntry::Str(s) => {
                    if strs.insert(Arc::clone(s), id as u32).is_some() {
                        return Err(format!("dictionary entry {id} duplicates a string"));
                    }
                }
            }
        }
        Ok(Dict {
            entries,
            bigs,
            strs,
        })
    }

    fn view(&self, v: Val) -> View<'_> {
        match v.as_inline_nat() {
            Some(n) => View::Nat(n),
            None => match &self.entries[v.id().expect("tagged")] {
                DictEntry::Big(n) => View::Nat(*n),
                DictEntry::Str(s) => View::Str(s),
            },
        }
    }

    /// Decode a word back into a [`Value`].
    ///
    /// # Panics
    ///
    /// Panics if the id is not in this dictionary.
    pub fn decode(&self, v: Val) -> Value {
        match self.view(v) {
            View::Nat(n) => Value::Nat(n),
            View::Str(s) => Value::Str(s.to_string()),
        }
    }

    /// Render a word exactly as [`Value`]'s `Display` would.
    pub fn display(&self, v: Val) -> String {
        match self.view(v) {
            View::Nat(n) => n.to_string(),
            View::Str(s) => format!("\"{s}\""),
        }
    }

    /// The semantic order of two words, identical to comparing their
    /// decoded [`Value`]s.
    pub fn cmp_vals(&self, a: Val, b: Val) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        self.view(a).cmp(&self.view(b))
    }

    /// Lexicographic semantic order of two rows.
    pub fn cmp_rows(&self, a: &[Val], b: &[Val]) -> Ordering {
        for (&x, &y) in a.iter().zip(b.iter()) {
            match self.cmp_vals(x, y) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        a.len().cmp(&b.len())
    }

    /// Precompute an order-preserving integer key for every word of
    /// this dictionary: comparing keys is exactly [`Dict::cmp_vals`].
    ///
    /// Bulk merges compare the same interned strings against each other
    /// over and over, and trace-domain strings share long prefixes (a
    /// machine's whole encoding), so each comparison walks hundreds of
    /// equal bytes. Ranking the dictionary once — O(d log d) string
    /// comparisons for d entries — turns every subsequent row
    /// comparison into a `u128` compare. Worth it whenever an unsorted
    /// batch is large relative to the dictionary; `merge_batches`
    /// decides, and ranks at most once per call.
    pub fn sort_keys(&self) -> SortKeys {
        // Inline naturals key as their value (0 .. 2⁶³); interned big
        // naturals as their value (≥ 2⁶³, above every inline word);
        // strings as 2⁶⁴ + rank in byte order (above every natural) —
        // canonical interning makes ranks collision-free.
        let mut str_ids: Vec<u32> = (0..self.entries.len() as u32)
            .filter(|&id| matches!(self.entries[id as usize], DictEntry::Str(_)))
            .collect();
        str_ids.sort_unstable_by(|&a, &b| {
            match (&self.entries[a as usize], &self.entries[b as usize]) {
                (DictEntry::Str(x), DictEntry::Str(y)) => x.cmp(y),
                _ => unreachable!("filtered to strings"),
            }
        });
        let mut by_id = vec![0u128; self.entries.len()];
        for (rank, &id) in str_ids.iter().enumerate() {
            by_id[id as usize] = (1u128 << 64) + rank as u128;
        }
        for (id, entry) in self.entries.iter().enumerate() {
            if let DictEntry::Big(n) = entry {
                by_id[id] = *n as u128;
            }
        }
        SortKeys { by_id }
    }
}

/// Does ranking the dictionary pay for itself on this unsorted batch?
/// Compares the sort's comparison volume (`b log b` row compares, each
/// walking up to `arity` values) against the ranking cost (`d log d`
/// string compares for `d` dictionary entries).
pub(crate) fn batch_prefers_keys(rows: usize, arity: usize, dict_len: usize) -> bool {
    let log2 = |n: usize| (usize::BITS - n.max(2).leading_zeros()) as usize;
    dict_len > 0 && (rows * arity).saturating_mul(log2(rows)) >= dict_len * log2(dict_len)
}

/// Merge each batch into its store — the one batch-ingestion decision,
/// behind both [`VRel::extend_from_sorted`] (one batch) and
/// `StateBuilder::finish` (one batch per staged relation). Every batch
/// is encoded against `dict`, flat and arity-strided, in any order.
///
/// A batch the sortedness probe finds strictly sorted (snapshot-ordered
/// producers, rows streamed out of another [`VRel`], the JSON loader's
/// relations) is adopted or merged without sorting; an unsorted batch
/// fails the probe within a few comparisons. Only if some unsorted
/// batch passes [`batch_prefers_keys`] is the dictionary ranked — once
/// — and then every unsorted batch sorts and merges through that one
/// table; otherwise they compare through the dictionary. Returns the
/// number of rows that were new, over all batches.
pub(crate) fn merge_batches(dict: &Dict, batches: Vec<(&mut VRel, Vec<Val>)>) -> usize {
    let by_dict = |x: &[Val], y: &[Val]| dict.cmp_rows(x, y);
    let mut added = 0;
    let mut unsorted = Vec::new();
    for (rel, batch) in batches {
        let Some(b) = rel.check_batch(&batch) else {
            continue;
        };
        if VRel::batch_is_sorted(&batch, b, rel.arity, by_dict) {
            added += rel.merge_presorted(batch, b, by_dict);
        } else {
            unsorted.push((rel, batch, b));
        }
    }
    let keys = unsorted
        .iter()
        .any(|(rel, _, b)| batch_prefers_keys(*b, rel.arity, dict.len()))
        .then(|| dict.sort_keys());
    for (rel, batch, b) in unsorted {
        added += match &keys {
            Some(keys) => rel.merge_batch(batch, b, |x, y| keys.cmp_rows(x, y)),
            None => rel.merge_batch(batch, b, by_dict),
        };
    }
    added
}

/// An id-indexed table of order-preserving integer keys for one
/// [`Dict`] generation (see [`Dict::sort_keys`]). Stale tables must not
/// be used after the dictionary grows — debug builds catch this as an
/// out-of-bounds id.
pub struct SortKeys {
    by_id: Vec<u128>,
}

impl SortKeys {
    /// The key of a word; `key(a) < key(b)` iff `cmp_vals(a, b)` is
    /// `Less`.
    #[inline]
    pub fn key(&self, v: Val) -> u128 {
        match v.as_inline_nat() {
            Some(n) => n as u128,
            None => self.by_id[v.id().expect("tagged")],
        }
    }

    /// Lexicographic semantic order of two rows through the key table —
    /// identical to [`Dict::cmp_rows`].
    #[inline]
    pub fn cmp_rows(&self, a: &[Val], b: &[Val]) -> Ordering {
        for (&x, &y) in a.iter().zip(b.iter()) {
            if x == y {
                continue;
            }
            match self.key(x).cmp(&self.key(y)) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        a.len().cmp(&b.len())
    }
}

/// A read-only base dictionary plus an appendable overlay, for values a
/// query mentions that no stored tuple contains (literal constants,
/// singleton tuples, domain-function results). Overlay ids start at
/// `base.len()`, so base words stay valid and word equality still means
/// semantic equality across the combined id space.
#[derive(Debug)]
pub struct OverlayDict<'a> {
    base: &'a Dict,
    extra: Vec<DictEntry>,
    bigs: FxMap<u64, u32>,
    strs: FxMap<Arc<str>, u32>,
}

impl<'a> OverlayDict<'a> {
    pub fn new(base: &'a Dict) -> Self {
        OverlayDict {
            base,
            extra: Vec::new(),
            bigs: FxMap::default(),
            strs: FxMap::default(),
        }
    }

    /// The underlying state dictionary.
    pub fn base(&self) -> &'a Dict {
        self.base
    }

    /// Intern a value, preferring the base dictionary's word.
    pub fn encode(&mut self, v: &Value) -> Val {
        if let Some(val) = self.base.lookup(v) {
            return val;
        }
        match v {
            Value::Nat(n) => match self.bigs.get(n) {
                Some(&id) => Val::from_id(id as usize),
                None => {
                    let id = (self.base.len() + self.extra.len()) as u32;
                    self.extra.push(DictEntry::Big(*n));
                    self.bigs.insert(*n, id);
                    Val::from_id(id as usize)
                }
            },
            Value::Str(s) => match self.strs.get(s.as_str()) {
                Some(&id) => Val::from_id(id as usize),
                None => {
                    let id = (self.base.len() + self.extra.len()) as u32;
                    let arc: Arc<str> = Arc::from(s.as_str());
                    self.extra.push(DictEntry::Str(arc.clone()));
                    self.strs.insert(arc, id);
                    Val::from_id(id as usize)
                }
            },
        }
    }

    /// The word for a value if already interned in base or overlay.
    pub fn lookup(&self, v: &Value) -> Option<Val> {
        if let Some(val) = self.base.lookup(v) {
            return Some(val);
        }
        match v {
            Value::Nat(n) => self.bigs.get(n).map(|&id| Val::from_id(id as usize)),
            Value::Str(s) => self
                .strs
                .get(s.as_str())
                .map(|&id| Val::from_id(id as usize)),
        }
    }

    fn view(&self, v: Val) -> View<'_> {
        match v.as_inline_nat() {
            Some(n) => View::Nat(n),
            None => {
                let id = v.id().expect("tagged");
                let entry = if id < self.base.len() {
                    &self.base.entries[id]
                } else {
                    &self.extra[id - self.base.len()]
                };
                match entry {
                    DictEntry::Big(n) => View::Nat(*n),
                    DictEntry::Str(s) => View::Str(s),
                }
            }
        }
    }

    /// Decode a word from the combined id space.
    pub fn decode(&self, v: Val) -> Value {
        match self.view(v) {
            View::Nat(n) => Value::Nat(n),
            View::Str(s) => Value::Str(s.to_string()),
        }
    }
}

/// Per-column statistics of a stored relation, in decoded form so the
/// optimizer can compare them against plan constants directly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColStats {
    /// Number of distinct values in the column.
    pub distinct: usize,
    /// Smallest value (`None` for an empty relation).
    pub min: Option<Value>,
    /// Largest value (`None` for an empty relation).
    pub max: Option<Value>,
}

/// A columnar relation: `rows × arity` words in one flat vector, kept
/// sorted in semantic order without duplicates. Row `i` occupies
/// `data[i*arity .. (i+1)*arity]`.
#[derive(Clone, Debug)]
pub struct VRel {
    arity: usize,
    rows: usize,
    data: Vec<Val>,
    stats: OnceLock<Vec<ColStats>>,
    /// Debug-only bulk-misuse detector: consecutive [`VRel::insert`]
    /// calls since the last batch operation. See [`VRel::insert`].
    #[cfg(debug_assertions)]
    insert_streak: u32,
}

/// Debug builds trip an assertion when this many consecutive single-row
/// [`VRel::insert`] calls hit one relation with no batch call between
/// them — a loop that long is a bulk load on the wrong path.
#[cfg(debug_assertions)]
const INSERT_STREAK_LIMIT: u32 = 100_000;

impl VRel {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        VRel {
            arity,
            rows: 0,
            data: Vec::new(),
            stats: OnceLock::new(),
            #[cfg(debug_assertions)]
            insert_streak: 0,
        }
    }

    /// Build a relation directly from a flat, arity-strided word batch
    /// (`rows × arity` words, already encoded against `dict`). The batch
    /// may be unsorted and may contain duplicates; the result is sorted
    /// in semantic order and duplicate-free, exactly as if every row had
    /// been [`VRel::insert`]ed.
    pub fn from_rows(arity: usize, batch: Vec<Val>, dict: &Dict) -> VRel {
        let mut rel = VRel::new(arity);
        rel.extend_from_sorted(batch, dict);
        rel
    }

    /// Assemble a relation from parts the snapshot reader has already
    /// bounds-checked: `rows × arity` words in strict semantic order
    /// plus the precomputed per-column statistics, adopted with the
    /// stats cache pre-populated (a loaded snapshot never recomputes
    /// stats). Debug builds re-assert the shape and sortedness; release
    /// builds trust the reader's checksums.
    pub(crate) fn assemble(
        arity: usize,
        rows: usize,
        data: Vec<Val>,
        stats: Vec<ColStats>,
        dict: &Dict,
    ) -> VRel {
        debug_assert_eq!(data.len(), rows * arity);
        debug_assert_eq!(stats.len(), arity);
        debug_assert!(
            arity == 0
                || (1..rows).all(|i| {
                    dict.cmp_rows(
                        &data[(i - 1) * arity..i * arity],
                        &data[i * arity..(i + 1) * arity],
                    ) == Ordering::Less
                }),
            "assembled column is not strictly sorted"
        );
        let _ = dict;
        let cell = OnceLock::new();
        cell.set(stats).expect("fresh cell");
        VRel {
            arity,
            rows,
            data,
            stats: cell,
            #[cfg(debug_assertions)]
            insert_streak: 0,
        }
    }

    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of stored tuples.
    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The flat word store.
    pub fn data(&self) -> &[Val] {
        &self.data
    }

    /// Row `i` as a word slice.
    pub fn row(&self, i: usize) -> &[Val] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterate rows in semantic sorted order.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[Val]> + '_ {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// The insertion point of `row` in semantic order, and whether the
    /// row is already present.
    fn search(&self, row: &[Val], dict: &Dict) -> (usize, bool) {
        let mut lo = 0usize;
        let mut hi = self.rows;
        while lo < hi {
            let mid = (lo + hi) / 2;
            match dict.cmp_rows(self.row(mid), row) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return (mid, true),
            }
        }
        (lo, false)
    }

    /// Insert a row (already encoded against `dict`), keeping the store
    /// sorted and duplicate-free. Returns whether the row was new.
    ///
    /// This is the **single-row** path: a binary search plus a `splice`,
    /// O(rows) worst case per call because the tail of the flat store
    /// shifts to make room. Point updates and small states are fine;
    /// driving it in a bulk-load loop is quadratic — use
    /// [`VRel::extend_from_sorted`] (or, at the [`State`] level,
    /// `StateBuilder` / `State::extend_bulk`) for batches. Debug builds
    /// assert after `INSERT_STREAK_LIMIT` (100 000) consecutive
    /// single-row inserts with no intervening batch call.
    ///
    /// [`State`]: crate::State
    pub fn insert(&mut self, row: &[Val], dict: &Dict) -> bool {
        debug_assert_eq!(row.len(), self.arity);
        #[cfg(debug_assertions)]
        {
            self.insert_streak += 1;
            debug_assert!(
                self.insert_streak < INSERT_STREAK_LIMIT,
                "{} consecutive single-row VRel::insert calls — this is a \
                 bulk load; use extend_from_sorted / StateBuilder instead",
                self.insert_streak
            );
        }
        let (pos, found) = self.search(row, dict);
        if found {
            return false;
        }
        let at = pos * self.arity;
        self.data.splice(at..at, row.iter().copied());
        self.rows += 1;
        self.stats.take();
        true
    }

    /// Append a batch of rows in one pass, keeping the store sorted and
    /// duplicate-free. `batch` is flat and arity-strided (`b × arity`
    /// words encoded against `dict`), in **any** order, duplicates
    /// allowed — the name records the *postcondition* (the store stays
    /// sorted), not a precondition on the input. Returns the number of
    /// rows that were new.
    ///
    /// Cost: O(b log b) comparisons to sort the batch (none for a batch
    /// the probe finds strictly sorted) plus one O(rows + b) merge with
    /// the existing store, against O(b × rows) for the equivalent
    /// [`VRel::insert`] loop. `merge_batches` makes the choice.
    ///
    /// # Panics
    ///
    /// Panics if `batch.len()` is not a multiple of the arity.
    pub fn extend_from_sorted(&mut self, batch: Vec<Val>, dict: &Dict) -> usize {
        merge_batches(dict, vec![(self, batch)])
    }

    /// Is the batch already strictly sorted (no duplicates) under `cmp`?
    /// Early-exits at the first out-of-order pair, so unsorted batches
    /// pay almost nothing for the probe.
    fn batch_is_sorted<F>(batch: &[Val], b: usize, arity: usize, cmp: F) -> bool
    where
        F: Fn(&[Val], &[Val]) -> Ordering,
    {
        (1..b).all(|i| {
            cmp(
                &batch[(i - 1) * arity..i * arity],
                &batch[i * arity..(i + 1) * arity],
            ) == Ordering::Less
        })
    }

    /// Merge a batch the probe certified strictly sorted: into an empty
    /// store the batch *is* the new store (zero copies); otherwise one
    /// merge pass with the identity permutation (no sort).
    fn merge_presorted<F>(&mut self, batch: Vec<Val>, b: usize, cmp: F) -> usize
    where
        F: Fn(&[Val], &[Val]) -> Ordering,
    {
        if self.rows == 0 {
            self.rows = b;
            self.data = batch;
            self.stats.take();
            return b;
        }
        let order: Vec<u32> = (0..b as u32).collect();
        self.merge_ordered(batch, b, &order, cmp)
    }

    /// Shared batch validation: resets the single-row streak guard,
    /// filters out empty batches, and panics on ragged input. Returns
    /// the batch row count.
    fn check_batch(&mut self, batch: &[Val]) -> Option<usize> {
        #[cfg(debug_assertions)]
        {
            self.insert_streak = 0;
        }
        if batch.is_empty() {
            return None;
        }
        assert!(
            self.arity > 0 && batch.len().is_multiple_of(self.arity),
            "batch of {} words is not a whole number of arity-{} rows",
            batch.len(),
            self.arity
        );
        Some(batch.len() / self.arity)
    }

    /// Sort an unsorted batch and merge it, generic over the row
    /// comparator (dictionary walk or key table).
    fn merge_batch<F>(&mut self, batch: Vec<Val>, b: usize, cmp: F) -> usize
    where
        F: Fn(&[Val], &[Val]) -> Ordering,
    {
        let arity = self.arity;
        // Sort a row-index permutation instead of the flat buffer so a
        // comparison swaps one usize, not `arity` words.
        let mut order: Vec<u32> = (0..b as u32).collect();
        order.sort_by(|&i, &j| {
            cmp(
                &batch[i as usize * arity..(i as usize + 1) * arity],
                &batch[j as usize * arity..(j as usize + 1) * arity],
            )
        });
        self.merge_ordered(batch, b, &order, cmp)
    }

    /// One merge pass of a batch whose sorted order is given by the
    /// `order` permutation, deduping the batch against itself and
    /// against the store.
    fn merge_ordered<F>(&mut self, batch: Vec<Val>, b: usize, order: &[u32], cmp: F) -> usize
    where
        F: Fn(&[Val], &[Val]) -> Ordering,
    {
        let arity = self.arity;
        let mut merged: Vec<Val> = Vec::with_capacity(self.data.len() + batch.len());
        let mut added = 0usize;
        let mut old = 0usize; // next existing row
        let mut new = 0usize; // next position in `order`
        let row_of = |i: u32| &batch[i as usize * arity..(i as usize + 1) * arity];
        while old < self.rows || new < b {
            if new >= b {
                merged.extend_from_slice(self.row(old));
                old += 1;
                continue;
            }
            // Skip batch rows equal to their sorted predecessor.
            if new > 0 && cmp(row_of(order[new - 1]), row_of(order[new])) == Ordering::Equal {
                new += 1;
                continue;
            }
            if old >= self.rows {
                merged.extend_from_slice(row_of(order[new]));
                added += 1;
                new += 1;
                continue;
            }
            match cmp(self.row(old), row_of(order[new])) {
                Ordering::Less => {
                    merged.extend_from_slice(self.row(old));
                    old += 1;
                }
                Ordering::Equal => {
                    merged.extend_from_slice(self.row(old));
                    old += 1;
                    new += 1;
                }
                Ordering::Greater => {
                    merged.extend_from_slice(row_of(order[new]));
                    added += 1;
                    new += 1;
                }
            }
        }
        if added > 0 {
            self.rows += added;
            self.data = merged;
            self.stats.take();
        }
        added
    }

    /// Membership by binary search over words.
    pub fn contains(&self, row: &[Val], dict: &Dict) -> bool {
        row.len() == self.arity && self.search(row, dict).1
    }

    /// Decode every row, in semantic sorted order — exactly the sequence
    /// the legacy `BTreeSet<Tuple>` iteration produced.
    pub fn decoded<'a>(&'a self, dict: &'a Dict) -> impl Iterator<Item = Tuple> + 'a {
        self.rows_iter()
            .map(move |row| row.iter().map(|&v| dict.decode(v)).collect())
    }

    /// Per-column statistics, computed once and cached until the next
    /// insertion.
    pub fn stats(&self, dict: &Dict) -> &[ColStats] {
        self.stats.get_or_init(|| {
            let mut out = Vec::with_capacity(self.arity);
            for c in 0..self.arity {
                let mut distinct: std::collections::HashSet<Val> = std::collections::HashSet::new();
                let mut min: Option<Val> = None;
                let mut max: Option<Val> = None;
                for r in 0..self.rows {
                    let v = self.data[r * self.arity + c];
                    distinct.insert(v);
                    min = Some(match min {
                        Some(m) if dict.cmp_vals(m, v) != Ordering::Greater => m,
                        _ => v,
                    });
                    max = Some(match max {
                        Some(m) if dict.cmp_vals(m, v) != Ordering::Less => m,
                        _ => v,
                    });
                }
                out.push(ColStats {
                    distinct: distinct.len(),
                    min: min.map(|v| dict.decode(v)),
                    max: max.map(|v| dict.decode(v)),
                });
            }
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_and_interned_words() {
        let mut d = Dict::default();
        let small = d.encode(&Value::Nat(42));
        assert_eq!(small.as_inline_nat(), Some(42));
        assert_eq!(d.len(), 0, "small naturals never intern");
        let big = d.encode(&Value::Nat(u64::MAX));
        assert_eq!(big.as_inline_nat(), None);
        let s = d.encode(&Value::Str("1&".into()));
        assert_eq!(d.len(), 2);
        assert_eq!(d.strings(), 1);
        assert_eq!(d.decode(big), Value::Nat(u64::MAX));
        assert_eq!(d.decode(s), Value::Str("1&".into()));
    }

    #[test]
    fn interning_is_canonical() {
        let mut d = Dict::default();
        let a = d.encode(&Value::Str("x".into()));
        let b = d.encode(&Value::Str("x".into()));
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
        assert_eq!(d.lookup(&Value::Str("x".into())), Some(a));
        assert_eq!(d.lookup(&Value::Str("y".into())), None);
    }

    #[test]
    fn semantic_order_matches_value_order() {
        let mut d = Dict::default();
        let values = [
            Value::Nat(0),
            Value::Nat(7),
            Value::Nat(u64::MAX),
            Value::Str(String::new()),
            Value::Str("a".into()),
            Value::Str("b".into()),
        ];
        // Encode in reverse so raw id order disagrees with semantic order.
        let vals: Vec<Val> = values.iter().rev().map(|v| d.encode(v)).collect();
        let vals: Vec<Val> = vals.into_iter().rev().collect();
        for (i, (va, a)) in vals.iter().zip(&values).enumerate() {
            for (vb, b) in vals.iter().zip(&values).skip(i) {
                assert_eq!(d.cmp_vals(*va, *vb), a.cmp(b), "{a} vs {b}");
                assert_eq!(d.display(*va), a.to_string());
            }
        }
    }

    #[test]
    fn overlay_extends_without_touching_base() {
        let mut d = Dict::default();
        let base_word = d.encode(&Value::Str("base".into()));
        let mut o = OverlayDict::new(&d);
        assert_eq!(o.encode(&Value::Str("base".into())), base_word);
        let extra = o.encode(&Value::Str("extra".into()));
        assert_eq!(o.encode(&Value::Str("extra".into())), extra);
        assert!(extra.id().unwrap() >= d.len());
        assert_eq!(o.decode(extra), Value::Str("extra".into()));
        assert_eq!(o.decode(base_word), Value::Str("base".into()));
        assert_eq!(d.len(), 1, "base untouched");
    }

    #[test]
    fn batch_encode_matches_per_value_encode() {
        let tuples: Vec<Vec<Value>> = vec![
            vec![Value::Str("b".into()), Value::Nat(1)],
            vec![Value::Str("a".into()), Value::Nat(u64::MAX)],
            vec![Value::Str("b".into()), Value::Nat(2)],
        ];
        let mut per_value = Dict::default();
        let expected: Vec<Val> = tuples
            .iter()
            .flat_map(|t| t.iter().map(|v| per_value.encode(v)).collect::<Vec<_>>())
            .collect();
        let mut batched = Dict::default();
        let mut words = Vec::new();
        batched.encode_rows(tuples.iter().map(|t| t.as_slice()), &mut words);
        assert_eq!(words, expected, "ids assigned in the same first-seen order");
        assert_eq!(batched.len(), per_value.len());
        assert_eq!(batched.strings(), per_value.strings());
    }

    #[test]
    fn extend_from_sorted_equals_insert_loop() {
        let mut d = Dict::default();
        let rows: Vec<[Value; 2]> = vec![
            [Value::Nat(9), Value::Str("z".into())],
            [Value::Nat(1), Value::Str("a".into())],
            [Value::Nat(9), Value::Str("z".into())], // in-batch duplicate
            [Value::Nat(u64::MAX), Value::Str("".into())],
            [Value::Nat(1), Value::Str("a".into())], // again
            [Value::Nat(0), Value::Nat(0)],
        ];
        let mut by_insert = VRel::new(2);
        let mut flat = Vec::new();
        for row in &rows {
            let enc: Vec<Val> = row.iter().map(|v| d.encode(v)).collect();
            by_insert.insert(&enc, &d);
            flat.extend_from_slice(&enc);
        }
        let by_batch = VRel::from_rows(2, flat.clone(), &d);
        assert_eq!(by_batch.rows(), by_insert.rows());
        assert_eq!(by_batch.data(), by_insert.data());
        assert_eq!(by_batch.stats(&d), by_insert.stats(&d));
        // Merging into a non-empty store, including cross-batch dups.
        let mut merged = VRel::new(2);
        let head: Vec<Val> = flat[..4].to_vec();
        merged.extend_from_sorted(head, &d);
        let added = merged.extend_from_sorted(flat.clone(), &d);
        assert_eq!(merged.data(), by_insert.data());
        assert_eq!(added, by_insert.rows() - 2);
        // Both comparators merge to the identical store.
        let keys = d.sort_keys();
        let mut by_keys = VRel::new(2);
        by_keys.merge_batch(flat.clone(), rows.len(), |x, y| keys.cmp_rows(x, y));
        assert_eq!(by_keys.data(), by_insert.data());
        assert_eq!(by_keys.stats(&d), by_insert.stats(&d));
        let mut by_dict = VRel::new(2);
        by_dict.merge_batch(flat, rows.len(), |x, y| d.cmp_rows(x, y));
        assert_eq!(by_dict.data(), by_insert.data());
    }

    /// The rank-key heuristic must flip between the direct and keyed
    /// comparators without changing results: unsorted batches of two
    /// sizes that straddle it merge through `extend_from_sorted` to the
    /// insert loop's store, and so do both stores of one
    /// `merge_batches` call, where the large batch's ranking also
    /// serves the small one.
    #[test]
    fn keyed_and_direct_merges_agree_across_the_heuristic() {
        let mut d = Dict::default();
        // Dictionary strings with long shared prefixes plus boundary nats.
        let values: Vec<Value> = (0..300)
            .map(|i| match i % 3 {
                0 => Value::Str(format!("machine#shared-prefix#{:03}", i / 3)),
                1 => Value::Nat((1 << 63) + i as u64),
                _ => Value::Nat(i as u64),
            })
            .collect();
        let words: Vec<Val> = values.iter().map(|v| d.encode(v)).collect();
        let batch = |n: usize| -> Vec<Val> {
            (0..n)
                .flat_map(|i| [words[(i * 7) % words.len()], words[(i * 13) % words.len()]])
                .collect()
        };
        let by_insert = |batches: &[&[Val]]| {
            let mut rel = VRel::new(2);
            for row in batches.iter().flat_map(|b| b.chunks(2)) {
                rel.insert(row, &d);
            }
            rel
        };
        let (sm, lg) = (batch(4), batch(280));
        assert!(!batch_prefers_keys(4, 2, d.len()));
        assert!(batch_prefers_keys(280, 2, d.len()));
        assert!(!VRel::batch_is_sorted(&sm, 4, 2, |x, y| d.cmp_rows(x, y)));
        for order in [[&sm, &lg], [&lg, &sm]] {
            let mut auto = VRel::new(2);
            auto.extend_from_sorted(order[0].clone(), &d);
            auto.extend_from_sorted(order[1].clone(), &d);
            let expected = by_insert(&[order[0], order[1]]);
            assert_eq!(auto.data(), expected.data());
            assert_eq!(auto.rows(), expected.rows());
        }
        let (mut small, mut large) = (VRel::new(2), VRel::new(2));
        let added = merge_batches(&d, vec![(&mut small, sm.clone()), (&mut large, lg.clone())]);
        assert_eq!(small.data(), by_insert(&[&sm]).data());
        assert_eq!(large.data(), by_insert(&[&lg]).data());
        assert_eq!(added, small.rows() + large.rows());
    }

    // Parallel workers share `&VRel` / `&Dict` across scoped threads;
    // keep them `Sync` by construction.
    const _: fn() = || {
        fn assert_sync<T: Sync>() {}
        assert_sync::<VRel>();
        assert_sync::<Dict>();
    };

    #[test]
    fn presorted_batches_merge_identically_to_unsorted_ones() {
        let mut d = Dict::default();
        // Strictly sorted batch (semantic order: nats then strings).
        let sorted: Vec<Val> = (0..40u64)
            .map(|i| {
                if i < 20 {
                    d.encode(&Value::Nat(i))
                } else {
                    d.encode(&Value::Str(format!("s{i:02}")))
                }
            })
            .collect();
        let mut shuffled: Vec<Val> = sorted.clone();
        shuffled.reverse();
        // Into an empty store (probe adopts the batch wholesale)…
        let mut a = VRel::new(1);
        assert_eq!(a.extend_from_sorted(sorted.clone(), &d), 40);
        let mut b = VRel::new(1);
        b.extend_from_sorted(shuffled.clone(), &d);
        assert_eq!(a.data(), b.data());
        // …and merging a sorted batch into a non-empty store.
        let tail: Vec<Val> = (40..60u64).map(|i| d.encode(&Value::Nat(i))).collect();
        let mut c = VRel::new(1);
        c.extend_from_sorted(tail.clone(), &d);
        assert_eq!(c.extend_from_sorted(sorted.clone(), &d), 40);
        let mut all = shuffled;
        all.extend(tail);
        let whole = VRel::from_rows(1, all, &d);
        assert_eq!(c.data(), whole.data());
        // The probe runs before the rank-key decision: a sorted batch
        // large enough to prefer keys is still adopted as it stands.
        assert!(batch_prefers_keys(40, 1, d.len()));
        let mut k = VRel::new(1);
        assert_eq!(k.extend_from_sorted(sorted.clone(), &d), 40);
        assert_eq!(k.data(), &sorted[..]);
    }

    #[test]
    fn empty_and_all_duplicate_batches_are_noops() {
        let mut d = Dict::default();
        let row: Vec<Val> = [Value::Nat(1), Value::Nat(2)]
            .iter()
            .map(|v| d.encode(v))
            .collect();
        let mut r = VRel::new(2);
        r.insert(&row, &d);
        assert_eq!(r.extend_from_sorted(Vec::new(), &d), 0);
        let mut twice = row.clone();
        twice.extend_from_slice(&row);
        assert_eq!(r.extend_from_sorted(twice, &d), 0);
        assert_eq!(r.rows(), 1);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn ragged_batch_is_rejected() {
        let d = Dict::default();
        let mut r = VRel::new(2);
        r.extend_from_sorted(vec![Val::inline_nat(1).unwrap()], &d);
    }

    #[test]
    fn vrel_keeps_sorted_dedup_and_stats() {
        let mut d = Dict::default();
        let mut r = VRel::new(2);
        let rows = [
            [Value::Nat(2), Value::Str("b".into())],
            [Value::Nat(1), Value::Str("a".into())],
            [Value::Nat(2), Value::Str("a".into())],
            [Value::Nat(1), Value::Str("a".into())], // duplicate
        ];
        for row in &rows {
            let enc: Vec<Val> = row.iter().map(|v| d.encode(v)).collect();
            r.insert(&enc, &d);
        }
        assert_eq!(r.rows(), 3);
        let decoded: Vec<Tuple> = r.decoded(&d).collect();
        let mut expected: Vec<Tuple> = rows[..3].iter().map(|r| r.to_vec()).collect();
        expected.sort();
        assert_eq!(decoded, expected);
        let key: Vec<Val> = rows[1].iter().map(|v| d.encode(v)).collect();
        assert!(r.contains(&key, &d));
        let stats = r.stats(&d);
        assert_eq!(stats[0].distinct, 2);
        assert_eq!(stats[0].min, Some(Value::Nat(1)));
        assert_eq!(stats[0].max, Some(Value::Nat(2)));
        assert_eq!(stats[1].distinct, 2);
    }
}
