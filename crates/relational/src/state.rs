//! Database states and the active domain.
//!
//! Storage is columnar and dictionary-encoded: each [`State`] owns a
//! [`Dict`] interning strings and large naturals, and each relation is a
//! [`VRel`] — a flat, arity-strided, semantically sorted `Vec<Val>`.
//! [`Value`] survives as the boundary type (JSON, CLI, query results);
//! everything is encoded on insertion and decoded at the edges, so the
//! public surface (and the on-disk JSON format) is unchanged.
//!
//! Construction has two tiers. Point mutation ([`State::insert`] /
//! [`State::try_insert`]) routes each tuple through the O(rows)
//! single-row [`VRel::insert`]. Bulk construction — the JSON loader,
//! generated workloads, anything past a few thousand rows — goes
//! through [`StateBuilder`] (or [`State::extend_bulk`] for one
//! relation), which stages encoded rows flat and hands each relation
//! one batch: adopted when already sorted, sort-dedupe-merged
//! otherwise, so loads are O(n log n) instead of quadratic. Both tiers
//! share the same validation ([`StateError`]) and produce identical
//! states.

use crate::schema::Schema;
use crate::val::{self, ColStats, Dict, VRel, Val};
use fq_json::{FromJson, JsonError, ToJson};
use fq_logic::{Formula, Term};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// A domain element stored in a database: a natural number (numeric
/// domains of Section 2) or a string over the trace alphabet (domain
/// **T** of Section 3).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    Nat(u64),
    Str(String),
}

impl Value {
    /// The ground term denoting this value.
    pub fn to_term(&self) -> Term {
        match self {
            Value::Nat(n) => Term::Nat(*n),
            Value::Str(s) => Term::Str(s.clone()),
        }
    }

    /// Parse a ground term.
    pub fn from_term(t: &Term) -> Option<Value> {
        match t {
            Term::Nat(n) => Some(Value::Nat(*n)),
            Term::Str(s) => Some(Value::Str(s.clone())),
            _ => None,
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Nat(n) => write!(f, "{n}"),
            Value::Str(s) => write!(f, "\"{s}\""),
        }
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Nat(n)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

// Keep the serde externally-tagged enum format (`{"Nat": 1}`) that the
// files under `examples/data/` already use.
impl ToJson for Value {
    fn to_json(&self) -> fq_json::Value {
        match self {
            Value::Nat(n) => fq_json::object([("Nat", n.to_json())]),
            Value::Str(s) => fq_json::object([("Str", s.to_json())]),
        }
    }
}

impl FromJson for Value {
    fn from_json(value: &fq_json::Value) -> Result<Self, JsonError> {
        match value.as_object() {
            Some([(tag, payload)]) if tag == "Nat" => Ok(Value::Nat(u64::from_json(payload)?)),
            Some([(tag, payload)]) if tag == "Str" => Ok(Value::Str(String::from_json(payload)?)),
            _ => Err(JsonError::new("expected {\"Nat\": …} or {\"Str\": …}")),
        }
    }
}

/// A tuple of values.
pub type Tuple = Vec<Value>;

/// Why an insertion or constant assignment was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateError {
    /// The relation is not declared in the scheme.
    UnknownRelation { relation: String },
    /// The tuple's length disagrees with the declared arity.
    ArityMismatch {
        relation: String,
        expected: usize,
        got: usize,
    },
    /// The constant is not declared in the scheme.
    UnknownConstant { name: String },
    /// The bytes handed to the snapshot reader do not begin with the
    /// snapshot magic — not a columnar snapshot at all.
    SnapshotMagic,
    /// The snapshot declares a format version this build cannot read.
    SnapshotVersion { found: u8 },
    /// The snapshot is structurally damaged: truncated, checksum
    /// mismatch, or internally inconsistent section contents.
    SnapshotCorrupt { detail: String },
    /// The epoch-delta log is damaged somewhere recovery cannot
    /// tolerate: a non-tail record failed its checksum, epochs have a
    /// gap, or replay diverged from a record's fingerprint. (A damaged
    /// *tail* is not an error — it is discarded, see [`crate::wal`].)
    WalCorrupt { detail: String },
    /// An I/O failure in the durability layer (append, fsync, rename,
    /// directory scan), with the failing operation named.
    Io { context: String },
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::UnknownRelation { relation } => {
                write!(f, "relation `{relation}` not in the scheme")
            }
            StateError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "tuple arity mismatch for `{relation}`: the scheme declares \
                 arity {expected}, the tuple has {got} component(s)"
            ),
            StateError::UnknownConstant { name } => {
                write!(f, "constant `{name}` not in the scheme")
            }
            StateError::SnapshotMagic => {
                write!(f, "not a columnar snapshot (bad magic bytes)")
            }
            StateError::SnapshotVersion { found } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads version 1)"
            ),
            StateError::SnapshotCorrupt { detail } => {
                write!(f, "corrupt snapshot: {detail}")
            }
            StateError::WalCorrupt { detail } => {
                write!(f, "corrupt delta log: {detail}")
            }
            StateError::Io { context } => write!(f, "i/o failure: {context}"),
        }
    }
}

impl std::error::Error for StateError {}

/// A database state: finite relations plus values for scheme constants.
///
/// The dictionary and each relation's columns live behind `Arc`s, so
/// `clone()` is a handful of pointer bumps and mutation is copy-on-write
/// (`Arc::make_mut` deep-copies only the dictionary and the relations a
/// write actually touches). That makes [`Snapshot`](crate::Snapshot)
/// publication cheap: a writer clones the current state, applies a
/// batch, and swaps — in-flight readers keep every untouched column.
#[derive(Clone, Debug, Default)]
pub struct State {
    schema: Schema,
    dict: Arc<Dict>,
    relations: BTreeMap<String, Arc<VRel>>,
    constants: BTreeMap<String, Value>,
    /// Cached [`State::active_domain`]; cleared by every mutation.
    ad_cache: OnceLock<BTreeSet<Value>>,
    /// Cached [`State::fingerprint`]; cleared by every mutation.
    fp_cache: OnceLock<u128>,
}

impl State {
    /// The empty state of a scheme.
    pub fn new(schema: Schema) -> Self {
        let mut relations = BTreeMap::new();
        for (name, arity) in schema.relations() {
            relations.insert(name.to_string(), Arc::new(VRel::new(arity)));
        }
        State {
            schema,
            dict: Arc::default(),
            relations,
            constants: BTreeMap::new(),
            ad_cache: OnceLock::new(),
            fp_cache: OnceLock::new(),
        }
    }

    /// The scheme of the state.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The state's interning dictionary.
    pub fn dict(&self) -> &Dict {
        &self.dict
    }

    /// Insert a tuple, reporting scheme violations as a [`StateError`]
    /// instead of panicking (the `FromJson` load path routes through
    /// this, turning malformed state files into diagnostics).
    pub fn try_insert(
        &mut self,
        relation: &str,
        tuple: impl Into<Tuple>,
    ) -> Result<(), StateError> {
        self.try_insert_ref(relation, &tuple.into())
    }

    /// [`State::try_insert`] for borrowed tuples. Insertion only reads
    /// the tuple (interning copies what it must), so callers iterating
    /// a corpus they keep do not need to clone each row to insert it.
    pub fn try_insert_ref(&mut self, relation: &str, tuple: &[Value]) -> Result<(), StateError> {
        let arity = self
            .schema
            .arity(relation)
            .ok_or_else(|| StateError::UnknownRelation {
                relation: relation.to_string(),
            })?;
        if tuple.len() != arity {
            return Err(StateError::ArityMismatch {
                relation: relation.to_string(),
                expected: arity,
                got: tuple.len(),
            });
        }
        let dict = Arc::make_mut(&mut self.dict);
        let row: Vec<Val> = tuple.iter().map(|v| dict.encode(v)).collect();
        Arc::make_mut(
            self.relations
                .get_mut(relation)
                .expect("initialized in new()"),
        )
        .insert(&row, &self.dict);
        self.ad_cache.take();
        self.fp_cache.take();
        Ok(())
    }

    /// Insert a tuple.
    ///
    /// # Panics
    ///
    /// Panics if the relation is not in the scheme or the tuple has the
    /// wrong arity. Programmatic construction keeps this; fallible
    /// callers (file loading) use [`State::try_insert`].
    pub fn insert(&mut self, relation: &str, tuple: impl Into<Tuple>) {
        if let Err(e) = self.try_insert(relation, tuple) {
            Self::panic_on(e)
        }
    }

    /// Insert a borrowed tuple; panics on scheme violations, like
    /// [`State::insert`].
    pub fn insert_ref(&mut self, relation: &str, tuple: &[Value]) {
        if let Err(e) = self.try_insert_ref(relation, tuple) {
            Self::panic_on(e)
        }
    }

    fn panic_on(e: StateError) -> ! {
        match e {
            StateError::UnknownRelation { relation } => {
                panic!("relation `{relation}` not in the scheme")
            }
            StateError::ArityMismatch { relation, .. } => {
                panic!("tuple arity mismatch for `{relation}`")
            }
            StateError::UnknownConstant { name } => {
                panic!("constant `{name}` not in the scheme")
            }
            // Snapshot errors never reach the panicking insertion
            // paths; keep a diagnostic fallback for completeness.
            other => panic!("{other}"),
        }
    }

    /// Fluent insertion.
    pub fn with_tuple(mut self, relation: &str, tuple: impl Into<Tuple>) -> Self {
        self.insert(relation, tuple);
        self
    }

    /// Set the value of a scheme constant, reporting an undeclared name
    /// as a [`StateError`].
    pub fn try_set_constant(
        &mut self,
        name: &str,
        value: impl Into<Value>,
    ) -> Result<(), StateError> {
        if !self.schema.constants().iter().any(|c| c == name) {
            return Err(StateError::UnknownConstant {
                name: name.to_string(),
            });
        }
        self.constants.insert(name.to_string(), value.into());
        self.ad_cache.take();
        self.fp_cache.take();
        Ok(())
    }

    /// Set the value of a scheme constant.
    ///
    /// # Panics
    ///
    /// Panics if the constant is not declared in the scheme.
    pub fn set_constant(&mut self, name: &str, value: impl Into<Value>) {
        if let Err(e) = self.try_set_constant(name, value) {
            panic!("{e}");
        }
    }

    /// Fluent constant assignment.
    pub fn with_constant(mut self, name: &str, value: impl Into<Value>) -> Self {
        self.set_constant(name, value);
        self
    }

    /// The value of a scheme constant.
    pub fn constant(&self, name: &str) -> Option<&Value> {
        self.constants.get(name)
    }

    /// The stored constants (boundary use: serialization).
    pub fn constants(&self) -> &BTreeMap<String, Value> {
        &self.constants
    }

    /// The columnar store of a relation (`None` for undeclared names).
    pub fn vrel(&self, relation: &str) -> Option<&VRel> {
        self.relations.get(relation).map(|r| r.as_ref())
    }

    /// Per-column statistics of a relation, computed lazily.
    pub fn column_stats(&self, relation: &str) -> Option<&[ColStats]> {
        self.relations.get(relation).map(|r| r.stats(&self.dict))
    }

    /// The tuples of a relation, decoded, in semantic sorted order
    /// (empty for undeclared names).
    pub fn tuples(&self, relation: &str) -> impl Iterator<Item = Tuple> + '_ {
        self.relations
            .get(relation)
            .into_iter()
            .flat_map(|r| r.decoded(&self.dict))
    }

    /// Whether a tuple is present. Takes a slice so hot loops (the
    /// active-domain evaluator's predicate checks) need no `Vec`
    /// allocation per membership test.
    pub fn contains(&self, relation: &str, tuple: &[Value]) -> bool {
        let Some(rel) = self.relations.get(relation) else {
            return false;
        };
        if tuple.len() != rel.arity() {
            return false;
        }
        let mut row = Vec::with_capacity(tuple.len());
        for v in tuple {
            // A value the dictionary has never seen is in no stored tuple.
            match self.dict.lookup(v) {
                Some(val) => row.push(val),
                None => return false,
            }
        }
        rel.contains(&row, &self.dict)
    }

    /// Word-level membership: `vals` must come from this state's
    /// dictionary (overlay ids, which denote values no stored tuple
    /// contains, make the answer `false` immediately).
    pub fn contains_vals(&self, relation: &str, vals: &[Val]) -> bool {
        if vals
            .iter()
            .any(|v| v.id().is_some_and(|id| id >= self.dict.len()))
        {
            return false;
        }
        self.relations
            .get(relation)
            .is_some_and(|r| r.contains(vals, &self.dict))
    }

    /// Total number of stored tuples.
    pub fn size(&self) -> usize {
        self.relations.values().map(|r| r.rows()).sum()
    }

    /// Number of tuples stored in one relation (0 for undeclared names).
    /// The optimizer's cardinality estimates start from these counts.
    pub fn relation_size(&self, relation: &str) -> usize {
        self.relations.get(relation).map_or(0, |r| r.rows())
    }

    /// The **active domain of the state**: every value stored in a
    /// relation or assigned to a scheme constant. Cached on the state;
    /// insertions and constant assignments invalidate the cache.
    pub fn active_domain(&self) -> &BTreeSet<Value> {
        self.ad_cache.get_or_init(|| {
            let mut words: std::collections::HashSet<Val> = std::collections::HashSet::new();
            for rel in self.relations.values() {
                words.extend(rel.data().iter().copied());
            }
            let mut out: BTreeSet<Value> = words.into_iter().map(|v| self.dict.decode(v)).collect();
            out.extend(self.constants.values().cloned());
            out
        })
    }

    /// Append a batch of tuples to one relation through the batch path:
    /// one interning pass, one merge. Returns the number of
    /// tuples that were new. Equivalent to (but much faster than)
    /// calling [`State::try_insert`] per tuple.
    pub fn extend_bulk<I>(&mut self, relation: &str, tuples: I) -> Result<usize, StateError>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let arity = self
            .schema
            .arity(relation)
            .ok_or_else(|| StateError::UnknownRelation {
                relation: relation.to_string(),
            })?;
        let mut staged: Vec<Tuple> = Vec::new();
        for tuple in tuples {
            if tuple.len() != arity {
                return Err(StateError::ArityMismatch {
                    relation: relation.to_string(),
                    expected: arity,
                    got: tuple.len(),
                });
            }
            staged.push(tuple);
        }
        if staged.is_empty() {
            return Ok(0);
        }
        let added = if arity == 0 {
            // A zero-arity relation holds at most the empty tuple; the
            // flat batch encoding cannot carry a row count, so take the
            // (bounded, constant-work) single-row path.
            let rel = Arc::make_mut(self.relations.get_mut(relation).expect("initialized"));
            usize::from(rel.insert(&[], &self.dict))
        } else {
            let mut batch = Vec::with_capacity(staged.len() * arity);
            Arc::make_mut(&mut self.dict)
                .encode_rows(staged.iter().map(|t| t.as_slice()), &mut batch);
            Arc::make_mut(
                self.relations
                    .get_mut(relation)
                    .expect("initialized in new()"),
            )
            .extend_from_sorted(batch, &self.dict)
        };
        if added > 0 {
            self.ad_cache.take();
            self.fp_cache.take();
        }
        Ok(added)
    }

    /// A copy-on-write derivative of this state with one extra relation:
    /// the scheme gains `name/arity` and the new relation is bulk-loaded
    /// with `rows`. Every existing relation's columns (and the
    /// dictionary, when `rows` interns nothing new) stay shared with
    /// `self` — the clone is a handful of `Arc` bumps plus the new
    /// column. This is how the RANF planner attaches its auxiliary
    /// domain relations (`@ranf_dom` &c.) without copying the store.
    pub fn with_aux_relation<I>(
        &self,
        name: &str,
        arity: usize,
        rows: I,
    ) -> Result<State, StateError>
    where
        I: IntoIterator<Item = Tuple>,
    {
        if let Some(existing) = self.schema.arity(name) {
            // Redeclaration with the same arity would silently merge
            // user tuples into the auxiliary relation; reject both.
            return Err(StateError::ArityMismatch {
                relation: name.to_string(),
                expected: existing,
                got: arity,
            });
        }
        let mut next = self.clone();
        next.schema = next.schema.with_relation(name, arity);
        next.relations
            .insert(name.to_string(), Arc::new(VRel::new(arity)));
        next.ad_cache.take();
        next.fp_cache.take();
        next.extend_bulk(name, rows)?;
        Ok(next)
    }

    /// A 128-bit content fingerprint: a hash of the schema, the decoded
    /// relation rows, and the constants. Two states with equal content
    /// fingerprint equal regardless of interning history (row words are
    /// mixed through per-entry *semantic* hashes, not dictionary ids),
    /// and any mutation invalidates the cached value — so the
    /// fingerprint is a sound O(1)-amortized cache key standing in for
    /// the full serialized state.
    pub fn fingerprint(&self) -> u128 {
        *self.fp_cache.get_or_init(|| {
            let table = self.dict.entry_hashes();
            let word = |v: Val| match v.as_inline_nat() {
                Some(n) => val::hash_nat(n),
                None => table[v.id().expect("tagged")],
            };
            // Two accumulators with independent mixing, concatenated to
            // 128 bits so distinct states collide only negligibly.
            let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
            let mut h2: u64 = 0x9e37_79b9_7f4a_7c15;
            let mut mix = |x: u64| {
                h1 = (h1.rotate_left(5) ^ x).wrapping_mul(0x0000_0100_0000_01b3);
                h2 = (h2.wrapping_add(x).rotate_left(23)) ^ x.wrapping_mul(0x517c_c1b7_2722_0a95);
            };
            mix(val::hash_str(&fq_json::to_string(&self.schema)));
            for (name, rel) in &self.relations {
                mix(val::hash_str(name));
                mix(rel.rows() as u64);
                for &v in rel.data() {
                    mix(word(v));
                }
            }
            for (name, v) in &self.constants {
                mix(val::hash_str(name));
                match v {
                    Value::Nat(n) => mix(val::hash_nat(*n)),
                    Value::Str(s) => mix(val::hash_str(s)),
                }
            }
            ((h1 as u128) << 64) | h2 as u128
        })
    }

    /// Serialize this state into the binary columnar snapshot format
    /// (see [`crate::format`]) — the fast cold-load counterpart of the
    /// JSON interchange form. Writing forces column statistics, so a
    /// reloaded snapshot starts with stats pre-populated.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        crate::format::write(self)
    }

    /// Load a state from snapshot bytes. Corruption in any form —
    /// wrong magic, future version, truncation, bit flips, dangling
    /// dictionary ids — is a diagnosed [`StateError`], never a panic.
    pub fn read_snapshot(bytes: &[u8]) -> Result<State, StateError> {
        crate::format::read(bytes)
    }

    /// Assemble a state from parts the snapshot reader validated:
    /// `relations` holds exactly the declared relations, encoded
    /// against `dict`, and `constants` only declared names.
    pub(crate) fn from_parts(
        schema: Schema,
        dict: Dict,
        relations: BTreeMap<String, Arc<VRel>>,
        constants: BTreeMap<String, Value>,
    ) -> State {
        debug_assert!(schema
            .relations()
            .all(|(name, arity)| relations.get(name).is_some_and(|r| r.arity() == arity)));
        debug_assert_eq!(schema.relations().count(), relations.len());
        State {
            schema,
            dict: Arc::new(dict),
            relations,
            constants,
            ad_cache: OnceLock::new(),
            fp_cache: OnceLock::new(),
        }
    }

    /// The active domain of a *query in this state*: the state's active
    /// domain plus all constants used in the formula ("the set of all
    /// constants used in the querying formula and/or elements contained
    /// in the database relations").
    pub fn query_active_domain(&self, query: &Formula) -> BTreeSet<Value> {
        let mut out = self.active_domain().clone();
        let (nats, strs) = query.literal_constants();
        out.extend(nats.into_iter().map(Value::Nat));
        out.extend(strs.into_iter().map(Value::Str));
        out
    }
}

/// Staged construction of a [`State`] through the batch ingestion path.
///
/// Rows are validated against the scheme and interned as they arrive
/// (so [`StateError`] diagnostics fire at the offending row, exactly as
/// [`State::try_insert`] would), but are staged in flat per-relation
/// buffers; [`StateBuilder::finish`] hands each relation a single
/// batch. Loading `n` rows costs O(n log n) total, against the O(n²)
/// worst case of an insert loop.
///
/// ```
/// use fq_relational::{Schema, State, StateBuilder, Value};
///
/// let schema = Schema::new().with_relation("Log", 1).with_constant("run");
/// let mut b = StateBuilder::new(schema);
/// for entry in ["boot", "probe", "halt"] {
///     b.row("Log", vec![Value::Str(entry.into())]);
/// }
/// b.constant("run", 7u64);
/// let state: State = b.finish();
/// assert_eq!(state.size(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct StateBuilder {
    state: State,
    staged: BTreeMap<String, Staging>,
}

/// One relation's staging buffer: flat encoded rows plus an explicit
/// row count (the flat length cannot express rows of zero-arity
/// relations) and the scheme arity, denormalized here so staging a row
/// validates and buffers with a single map lookup.
#[derive(Clone, Debug)]
struct Staging {
    arity: usize,
    flat: Vec<Val>,
    rows: usize,
}

impl StateBuilder {
    /// An empty builder over a scheme.
    pub fn new(schema: Schema) -> Self {
        // Pre-open one staging buffer per scheme relation so the hot
        // `try_row` path is a borrowed-key lookup, never an allocation.
        let staged = schema
            .relations()
            .map(|(name, arity)| {
                (
                    name.to_string(),
                    Staging {
                        arity,
                        flat: Vec::new(),
                        rows: 0,
                    },
                )
            })
            .collect();
        StateBuilder {
            state: State::new(schema),
            staged,
        }
    }

    /// The scheme being built against.
    pub fn schema(&self) -> &Schema {
        self.state.schema()
    }

    /// Stage one tuple, validating it against the scheme.
    pub fn try_row(&mut self, relation: &str, tuple: impl Into<Tuple>) -> Result<(), StateError> {
        self.try_row_ref(relation, &tuple.into())
    }

    /// [`StateBuilder::try_row`] for borrowed tuples. Staging only
    /// reads the tuple to intern it, so bulk producers that keep their
    /// corpus (benchmark replays, re-ingestion) can stage every row
    /// without cloning any.
    pub fn try_row_ref(&mut self, relation: &str, tuple: &[Value]) -> Result<(), StateError> {
        // Staging buffers are pre-opened per scheme relation, so one
        // lookup both validates the name and finds the buffer.
        let Some(staging) = self.staged.get_mut(relation) else {
            return Err(StateError::UnknownRelation {
                relation: relation.to_string(),
            });
        };
        if tuple.len() != staging.arity {
            return Err(StateError::ArityMismatch {
                relation: relation.to_string(),
                expected: staging.arity,
                got: tuple.len(),
            });
        }
        let dict = Arc::make_mut(&mut self.state.dict);
        for v in tuple {
            staging.flat.push(dict.encode(v));
        }
        staging.rows += 1;
        Ok(())
    }

    /// Stage one tuple.
    ///
    /// # Panics
    ///
    /// Panics on scheme violations, like [`State::insert`].
    pub fn row(&mut self, relation: &str, tuple: impl Into<Tuple>) {
        if let Err(e) = self.try_row(relation, tuple) {
            panic!("{e}");
        }
    }

    /// Stage one borrowed tuple; panics on scheme violations, like
    /// [`StateBuilder::row`].
    pub fn row_ref(&mut self, relation: &str, tuple: &[Value]) {
        if let Err(e) = self.try_row_ref(relation, tuple) {
            panic!("{e}");
        }
    }

    /// Stage a batch of tuples for one relation, stopping at the first
    /// scheme violation.
    pub fn try_rows<I>(&mut self, relation: &str, tuples: I) -> Result<(), StateError>
    where
        I: IntoIterator<Item = Tuple>,
    {
        for tuple in tuples {
            self.try_row(relation, tuple)?;
        }
        Ok(())
    }

    /// Set a scheme constant (last assignment wins, as with
    /// [`State::set_constant`]).
    pub fn try_constant(&mut self, name: &str, value: impl Into<Value>) -> Result<(), StateError> {
        self.state.try_set_constant(name, value)
    }

    /// Set a scheme constant.
    ///
    /// # Panics
    ///
    /// Panics if the constant is not declared in the scheme.
    pub fn constant(&mut self, name: &str, value: impl Into<Value>) {
        self.state.set_constant(name, value);
    }

    /// Merge every staged batch and return the finished state — equal
    /// (rows, stats, serialized form) to the state an insert loop over
    /// the same tuples would have produced. All staged rows are
    /// interned, so every relation merges against the final dictionary
    /// in one `merge_batches` call (which ranks it at most once).
    pub fn finish(self) -> State {
        let StateBuilder { mut state, staged } = self;
        let mut batches = Vec::with_capacity(staged.len());
        // Staging buffers and stores are both keyed by the scheme's
        // relation names, so the two maps walk in step.
        for ((name, slot), (staged_name, s)) in state.relations.iter_mut().zip(staged) {
            debug_assert_eq!(*name, staged_name);
            let rel = Arc::make_mut(slot);
            debug_assert_eq!(rel.rows(), 0, "rows bypass staging only through constants");
            if s.arity > 0 {
                batches.push((rel, s.flat));
            } else if s.rows > 0 {
                rel.insert(&[], &state.dict);
            }
        }
        val::merge_batches(&state.dict, batches);
        state.ad_cache.take();
        state.fp_cache.take();
        state
    }
}

// Word representations differ between dictionaries, so equality decodes:
// two states are equal iff they store the same schema, tuples, and
// constants, exactly as the old `BTreeSet<Tuple>` representation's
// derived equality behaved.
impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.constants == other.constants
            && self.relations.len() == other.relations.len()
            && self
                .relations
                .iter()
                .zip(other.relations.iter())
                .all(|((ka, ra), (kb, rb))| {
                    ka == kb
                        && ra.rows() == rb.rows()
                        && ra.decoded(&self.dict).eq(rb.decoded(&other.dict))
                })
    }
}

impl Eq for State {}

impl ToJson for State {
    fn to_json(&self) -> fq_json::Value {
        // Reproduce the legacy `BTreeMap<String, BTreeSet<Tuple>>` shape
        // byte-for-byte: object keys in name order, each an array of
        // tuple arrays in semantic sorted order (the `VRel` row order).
        let relations = fq_json::Value::Object(
            self.relations
                .iter()
                .map(|(name, rel)| {
                    (
                        name.clone(),
                        fq_json::Value::Array(
                            rel.decoded(&self.dict).map(|t| t.to_json()).collect(),
                        ),
                    )
                })
                .collect(),
        );
        fq_json::object([
            ("schema", self.schema.to_json()),
            ("relations", relations),
            ("constants", self.constants.to_json()),
        ])
    }
}

impl FromJson for State {
    fn from_json(value: &fq_json::Value) -> Result<Self, JsonError> {
        let schema: Schema = FromJson::from_json(fq_json::member(value, "schema")?)?;
        // Load through the batch ingestion path: stage every relation's
        // tuples, then merge each relation once. Scheme violations keep
        // their `try_insert`-style diagnostics.
        let mut builder = StateBuilder::new(schema);
        let relations: BTreeMap<String, Vec<Tuple>> =
            FromJson::from_json(fq_json::member(value, "relations")?)?;
        for (name, tuples) in relations {
            builder
                .try_rows(&name, tuples)
                .map_err(|e| JsonError::new(format!("state relations: {e}")))?;
        }
        let constants: BTreeMap<String, Value> =
            FromJson::from_json(fq_json::member(value, "constants")?)?;
        for (name, v) in constants {
            builder
                .try_constant(&name, v)
                .map_err(|e| JsonError::new(format!("state constants: {e}")))?;
        }
        Ok(builder.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fq_logic::parse_formula;

    // Parallel executions share `&State` across scoped threads (stats
    // are behind `OnceLock`s) — keep it `Sync`.
    const _: fn() = || {
        fn assert_sync<T: Sync>() {}
        assert_sync::<State>();
    };

    fn fathers() -> State {
        let schema = Schema::new().with_relation("F", 2);
        State::new(schema)
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(2)])
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(3)])
    }

    #[test]
    fn insert_and_contains() {
        let s = fathers();
        assert!(s.contains("F", &[Value::Nat(1), Value::Nat(2)]));
        assert!(!s.contains("F", &[Value::Nat(2), Value::Nat(1)]));
        assert_eq!(s.size(), 2);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut s = fathers();
        s.insert("F", vec![Value::Nat(1), Value::Nat(2)]);
        assert_eq!(s.size(), 2);
    }

    #[test]
    #[should_panic(expected = "not in the scheme")]
    fn unknown_relation_panics() {
        let mut s = fathers();
        s.insert("G", vec![Value::Nat(1)]);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_panics() {
        let mut s = fathers();
        s.insert("F", vec![Value::Nat(1)]);
    }

    #[test]
    fn try_insert_reports_scheme_violations() {
        let mut s = fathers();
        assert_eq!(
            s.try_insert("G", vec![Value::Nat(1)]),
            Err(StateError::UnknownRelation {
                relation: "G".into()
            })
        );
        assert_eq!(
            s.try_insert("F", vec![Value::Nat(1)]),
            Err(StateError::ArityMismatch {
                relation: "F".into(),
                expected: 2,
                got: 1
            })
        );
        assert_eq!(s.size(), 2, "failed insertions store nothing");
        assert!(s
            .try_insert("F", vec![Value::Nat(9), Value::Nat(9)])
            .is_ok());
        assert_eq!(s.size(), 3);
    }

    #[test]
    fn active_domain_collects_everything() {
        let schema = Schema::new().with_relation("F", 2).with_constant("c");
        let s = State::new(schema)
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(2)])
            .with_constant("c", 9u64);
        let ad = s.active_domain();
        assert_eq!(
            ad.iter().cloned().collect::<Vec<_>>(),
            vec![Value::Nat(1), Value::Nat(2), Value::Nat(9)]
        );
    }

    #[test]
    fn active_domain_cache_invalidates_on_mutation() {
        let schema = Schema::new().with_relation("F", 2).with_constant("c");
        let mut s = State::new(schema).with_tuple("F", vec![Value::Nat(1), Value::Nat(2)]);
        assert_eq!(s.active_domain().len(), 2);
        s.insert("F", vec![Value::Nat(1), Value::Nat(5)]);
        assert!(s.active_domain().contains(&Value::Nat(5)));
        s.set_constant("c", 9u64);
        assert!(s.active_domain().contains(&Value::Nat(9)));
        assert_eq!(s.active_domain().len(), 4);
    }

    #[test]
    fn query_active_domain_adds_formula_constants() {
        let s = fathers();
        let q = parse_formula("F(x, 7) | x = \"1&\"").unwrap();
        let ad = s.query_active_domain(&q);
        assert!(ad.contains(&Value::Nat(7)));
        assert!(ad.contains(&Value::Str("1&".into())));
        assert!(ad.contains(&Value::Nat(1)));
    }

    #[test]
    fn constants_in_state() {
        let schema = Schema::new().with_constant("c");
        let s = State::new(schema).with_constant("c", "11");
        assert_eq!(s.constant("c"), Some(&Value::Str("11".into())));
        assert_eq!(s.constant("d"), None);
    }

    #[test]
    fn string_values() {
        let schema = Schema::new().with_relation("R", 1);
        let s = State::new(schema).with_tuple("R", vec![Value::Str("1&1".into())]);
        assert!(s.contains("R", &[Value::Str("1&1".into())]));
    }

    #[test]
    fn json_round_trip() {
        let s = fathers();
        let json = fq_json::to_string(&s);
        let back: State = fq_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn json_rejects_scheme_violations_with_diagnostics() {
        let bad_arity = r#"{"schema": {"relations": {"F": 2}, "constants": []},
            "relations": {"F": [[{"Nat": 1}]]}, "constants": {}}"#;
        let e = fq_json::from_str::<State>(bad_arity).unwrap_err();
        assert!(e.to_string().contains("arity mismatch"), "{e}");
        let bad_name = r#"{"schema": {"relations": {"F": 2}, "constants": []},
            "relations": {"G": [[{"Nat": 1}, {"Nat": 2}]]}, "constants": {}}"#;
        let e = fq_json::from_str::<State>(bad_name).unwrap_err();
        assert!(e.to_string().contains("not in the scheme"), "{e}");
        let bad_const = r#"{"schema": {"relations": {"F": 2}, "constants": []},
            "relations": {"F": []}, "constants": {"c": {"Nat": 1}}}"#;
        let e = fq_json::from_str::<State>(bad_const).unwrap_err();
        assert!(e.to_string().contains("not in the scheme"), "{e}");
    }

    #[test]
    fn builder_matches_insert_loop() {
        let schema = Schema::new()
            .with_relation("F", 2)
            .with_relation("Tag", 1)
            .with_constant("c");
        let tuples: Vec<(&str, Tuple)> = vec![
            ("F", vec![Value::Nat(3), Value::Str("b".into())]),
            ("Tag", vec![Value::Str("b".into())]),
            ("F", vec![Value::Nat(1), Value::Str("a".into())]),
            ("F", vec![Value::Nat(3), Value::Str("b".into())]), // dup
        ];
        let mut by_insert = State::new(schema.clone());
        for (rel, t) in &tuples {
            by_insert.insert(rel, t.clone());
        }
        by_insert.set_constant("c", "run");
        let mut b = StateBuilder::new(schema);
        for (rel, t) in &tuples {
            b.row(rel, t.clone());
        }
        b.constant("c", "run");
        let bulk = b.finish();
        assert_eq!(bulk, by_insert);
        assert_eq!(fq_json::to_string(&bulk), fq_json::to_string(&by_insert));
        assert_eq!(bulk.column_stats("F"), by_insert.column_stats("F"));
    }

    #[test]
    fn builder_reports_scheme_violations() {
        let mut b = StateBuilder::new(Schema::new().with_relation("F", 2));
        assert_eq!(
            b.try_row("G", vec![Value::Nat(1)]),
            Err(StateError::UnknownRelation {
                relation: "G".into()
            })
        );
        assert_eq!(
            b.try_row("F", vec![Value::Nat(1)]),
            Err(StateError::ArityMismatch {
                relation: "F".into(),
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            b.try_constant("c", 1u64),
            Err(StateError::UnknownConstant { name: "c".into() })
        );
        assert_eq!(b.finish().size(), 0);
    }

    #[test]
    fn builder_and_extend_bulk_round_trip() {
        let schema = Schema::new().with_relation("F", 2).with_constant("c");
        let mut b = StateBuilder::new(schema);
        b.try_rows(
            "F",
            vec![
                vec![Value::Nat(2), Value::Nat(3)],
                vec![Value::Nat(1), Value::Nat(2)],
            ],
        )
        .unwrap();
        b.try_constant("c", Value::Nat(9)).unwrap();
        let state = b.finish();
        assert_eq!(state.size(), 2);
        assert_eq!(state.constant("c"), Some(&Value::Nat(9)));
        let mut state = state;
        let added = state
            .extend_bulk(
                "F",
                vec![
                    vec![Value::Nat(1), Value::Nat(2)], // dup
                    vec![Value::Nat(0), Value::Nat(1)],
                ],
            )
            .unwrap();
        assert_eq!(added, 1);
        assert_eq!(state.size(), 3);
        assert!(state.active_domain().contains(&Value::Nat(0)));
        assert_eq!(
            state.extend_bulk("G", Vec::<Tuple>::new()),
            Err(StateError::UnknownRelation {
                relation: "G".into()
            })
        );
        assert_eq!(
            state.extend_bulk("F", vec![vec![Value::Nat(1)]]),
            Err(StateError::ArityMismatch {
                relation: "F".into(),
                expected: 2,
                got: 1
            })
        );
        assert_eq!(state.size(), 3, "failed batches stage nothing");
    }

    #[test]
    fn zero_arity_relations_take_the_single_row_path() {
        let schema = Schema::new().with_relation("Flag", 0);
        let mut b = StateBuilder::new(schema.clone());
        b.row("Flag", Vec::<Value>::new());
        b.row("Flag", Vec::<Value>::new());
        let s = b.finish();
        assert_eq!(s.size(), 1);
        assert!(s.contains("Flag", &[]));
        let mut s2 = State::new(schema);
        assert_eq!(s2.extend_bulk("Flag", vec![vec![], vec![]]).unwrap(), 1);
        assert_eq!(s2, s);
    }

    #[test]
    fn value_term_round_trip() {
        for v in [Value::Nat(5), Value::Str("1*".into())] {
            assert_eq!(Value::from_term(&v.to_term()), Some(v));
        }
        assert_eq!(Value::from_term(&Term::var("x")), None);
    }

    #[test]
    fn word_membership_matches_value_membership() {
        let schema = Schema::new().with_relation("R", 2);
        let s = State::new(schema)
            .with_tuple("R", vec![Value::Nat(1), Value::Str("a".into())])
            .with_tuple("R", vec![Value::Str("b".into()), Value::Nat(u64::MAX)]);
        let row: Vec<_> = [Value::Nat(1), Value::Str("a".into())]
            .iter()
            .map(|v| s.dict().lookup(v).unwrap())
            .collect();
        assert!(s.contains_vals("R", &row));
        assert!(!s.contains_vals("R", &[row[1], row[0]]));
    }
}
