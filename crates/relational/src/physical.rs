//! Physical execution of algebra expressions.
//!
//! [`PhysicalPlan::compile`] lowers an [`AlgebraExpr`] into operators
//! whose attribute references are resolved to column indexes once, at
//! compile time. Execution works on columnar word streams — flat,
//! arity-strided [`Val`] buffers fed directly from the [`State`]'s
//! dictionary-encoded store. Lowering drops the work the logical plan
//! only spells out:
//!
//! * **rename folding** — every chain of projections and extends (the
//!   Codd translation renames each atom's positional columns to its
//!   variables that way) resolves to one column map over the chain's
//!   input. An identity map is no operator at all, so a renamed base
//!   scan stays a zero-copy borrow of the stored relation; a map that
//!   keeps every input column gathers without dedup (a duplicate-free
//!   input gives a duplicate-free output); only a map that drops a
//!   column dedups.
//! * **hash anti-join** — `E − π(E ⋈ N)` with `attrs(N) ⊆ attrs(E)`, the
//!   shape `E ∧ ¬N` compiles to, evaluates `E` once and keeps, in order,
//!   the `E` rows whose key is absent from `N`; `E ⋈ N` is never built.
//! * **domain filter** — a [`Condition::Domain`] selection decodes the
//!   columns its atom reads and evaluates the atom per row with the
//!   domain's operations; an atom that does not evaluate (an overflow)
//!   fails the execution.
//!
//! Every hash table — join build, anti-join and diff, union, narrowing
//! dedup — is keyed on borrowed slices of flat word buffers, with each
//! key's Fx hash computed once. A key made of a contiguous run of
//! columns borrows the rows in place; any other key is gathered once
//! into one flat buffer. A join build chains each key's rows in build
//! order through one index array, so no table allocates per row or per
//! key. Strings are interned to one-word ids, so string keys cost what
//! naturals do.
//!
//! Base scans *borrow* the relation's store (copy-on-write streams) and
//! are memoized per execution. Plans are state-independent, so plan
//! constants stay as [`Value`]s and are encoded per execution through an
//! [`OverlayDict`] (query constants need not exist in the state's
//! dictionary). The final result decodes into the same `BTreeSet`-backed
//! [`Relation`] the naive [`AlgebraExpr::eval`] produces, so the two
//! backends are bit-identical (attribute order included).
//!
//! # Morsels
//!
//! Each operator is written once, as the body that processes one
//! **morsel**: a contiguous, stride-aligned row range of its input.
//! When [`PhysicalPlan::execute_with_stats_on`] runs on an [`Engine`]
//! with ≥ 2 threads and the input spans ≥ 2 morsels, the morsels run on
//! the worker pool and their outputs are stitched back **in morsel
//! order**, which equals one left-to-right scan; otherwise the whole
//! input is one morsel, run inline. Hash-table builds are **partitioned** across the pool by key
//! hash: a key lives in exactly one shard, so its row chain equals the
//! single table's. Narrowing dedup keeps each morsel's first
//! occurrences, then shard workers claim the global first occurrences in
//! input order and a flag-guided sweep restores that order. Output is
//! therefore **bit-identical** at every thread count and morsel size —
//! parallelism is purely a performance knob.

use crate::active_eval::{Ops, QueryInterp};
use crate::algebra::{AlgebraExpr, Condition, Relation};
use crate::fx::FxHasher;
use crate::state::{State, Tuple, Value};
use crate::val::{OverlayDict, Val};
use fq_engine::Engine;
use fq_logic::eval::{eval, Assignment};
use fq_logic::{Formula, LogicError};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Default rows per morsel: large enough that per-morsel overhead (one
/// pool hand-off, one partial buffer) is noise, small enough that a
/// million-row scan fans out hundreds of ways.
pub const DEFAULT_MORSEL_ROWS: usize = 4096;

/// Tuning knobs for a parallel execution. The thread count comes from
/// the [`Engine`] itself ([`fq_engine::EngineConfig::threads`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecOpts {
    /// Rows per morsel; must be positive. Exposed so tests can force
    /// many-morsel schedules on tiny relations.
    pub morsel_rows: usize,
}

impl Default for ExecOpts {
    fn default() -> Self {
        ExecOpts {
            morsel_rows: DEFAULT_MORSEL_ROWS,
        }
    }
}

/// Per-operator execution statistics: a rendered operator label, the
/// number of (duplicate-free) rows it produced, and how many morsels its
/// input was split into (1 when the operator ran inline).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpStat {
    pub op: String,
    pub rows: usize,
    pub morsels: usize,
}

/// The result of a physical execution with its operator statistics, in
/// bottom-up completion order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecReport {
    pub relation: Relation,
    pub operators: Vec<OpStat>,
}

/// A column-index-resolved selection condition. Constants stay decoded
/// so the plan remains state-independent; they are resolved to words at
/// execution time.
#[derive(Clone, Debug)]
enum PCond {
    EqCol(usize, usize),
    NeqCol(usize, usize),
    EqConst(usize, Value),
    NeqConst(usize, Value),
}

/// A [`PCond`] with its constant resolved against one execution's
/// overlay. A constant the combined dictionary has never seen can match
/// no stream word: equality keeps nothing, inequality keeps everything.
enum RCond {
    EqCol(usize, usize),
    NeqCol(usize, usize),
    EqWord(usize, Val),
    NeqWord(usize, Val),
    KeepNone,
    KeepAll,
}

impl RCond {
    fn resolve(cond: &PCond, overlay: &OverlayDict<'_>) -> RCond {
        match cond {
            PCond::EqCol(i, j) => RCond::EqCol(*i, *j),
            PCond::NeqCol(i, j) => RCond::NeqCol(*i, *j),
            PCond::EqConst(i, v) => match overlay.lookup(v) {
                Some(w) => RCond::EqWord(*i, w),
                None => RCond::KeepNone,
            },
            PCond::NeqConst(i, v) => match overlay.lookup(v) {
                Some(w) => RCond::NeqWord(*i, w),
                None => RCond::KeepAll,
            },
        }
    }

    fn keep(&self, t: &[Val]) -> bool {
        match self {
            RCond::EqCol(i, j) => t[*i] == t[*j],
            RCond::NeqCol(i, j) => t[*i] != t[*j],
            RCond::EqWord(i, w) => t[*i] == *w,
            RCond::NeqWord(i, w) => t[*i] != *w,
            RCond::KeepNone => false,
            RCond::KeepAll => true,
        }
    }
}

/// A physical operator. Attribute names are gone; every reference is a
/// column index into the input stream's rows.
#[derive(Clone, Debug)]
enum PNode {
    Scan {
        name: String,
        arity: usize,
    },
    Empty {
        arity: usize,
    },
    Singleton {
        tuple: Tuple,
    },
    Filter {
        input: Box<PNode>,
        cond: PCond,
    },
    /// Keep the rows where `atom` holds under the domain operations
    /// `ops`; `cols` holds the columns of the atom's variables in name
    /// order.
    DomainFilter {
        input: Box<PNode>,
        atom: Formula,
        cols: Vec<usize>,
        ops: Ops,
        label: String,
    },
    /// One column map, folded from a chain of projections and extends:
    /// output column `k` is input column `idx[k]`. `dedup` is set when
    /// the map drops an input column, the only way it can merge rows.
    Map {
        input: Box<PNode>,
        idx: Vec<usize>,
        dedup: bool,
    },
    /// Hash join: output is `left ++ right[rextra]`. The build side is
    /// chosen at run time from the actual input cardinalities.
    HashJoin {
        left: Box<PNode>,
        right: Box<PNode>,
        lkey: Vec<usize>,
        rkey: Vec<usize>,
        rextra: Vec<usize>,
    },
    /// Keep the left rows whose `lkey` columns equal no right row's
    /// `rkey` columns: a `diff` when `lkey` is the whole left row, the
    /// hash anti-join `E ∧ ¬N` otherwise.
    AntiJoin {
        left: Box<PNode>,
        right: Box<PNode>,
        lkey: Vec<usize>,
        rkey: Vec<usize>,
        diff: bool,
    },
    /// Union dedups; `rperm` aligns the right stream to the left layout.
    Union {
        left: Box<PNode>,
        right: Box<PNode>,
        rperm: Vec<usize>,
    },
}

/// A compiled physical plan. State-independent: the same plan can run
/// against any state of the scheme.
#[derive(Clone, Debug)]
pub struct PhysicalPlan {
    root: PNode,
    attrs: Vec<String>,
}

impl PhysicalPlan {
    /// Resolve every attribute reference of `expr` to column indexes.
    pub fn compile(expr: &AlgebraExpr) -> PhysicalPlan {
        PhysicalPlan {
            root: lower(expr),
            attrs: expr.attrs(),
        }
    }

    /// Execute against a state, producing the same [`Relation`] as
    /// `expr.eval(state)` for the compiled expression — or its error, when
    /// a domain atom does not evaluate.
    pub fn execute(&self, state: &State) -> Result<Relation, LogicError> {
        Ok(self.execute_with_stats(state)?.relation)
    }

    /// Execute inline (every operator one morsel) and report
    /// per-operator row counts.
    pub fn execute_with_stats(&self, state: &State) -> Result<ExecReport, LogicError> {
        self.exec(state, &Engine::sequential(), ExecOpts::default())
    }

    /// Execute morsel-driven on `engine`'s worker pool, with statistics
    /// and tuning knobs. Output is bit-identical to
    /// [`PhysicalPlan::execute`] at any thread count and morsel size.
    pub fn execute_with_stats_on(
        &self,
        state: &State,
        engine: &Engine,
        opts: ExecOpts,
    ) -> Result<ExecReport, LogicError> {
        self.exec(state, engine, opts)
    }

    fn exec(&self, state: &State, eng: &Engine, opts: ExecOpts) -> Result<ExecReport, LogicError> {
        assert!(opts.morsel_rows > 0, "morsel size must be positive");
        let mut cx = ExecContext {
            state,
            overlay: OverlayDict::new(state.dict()),
            scans: HashMap::new(),
            stats: Vec::new(),
            eng,
            morsel_rows: opts.morsel_rows,
        };
        let out = run(&self.root, &mut cx)?;
        // Decoding sorts implicitly: the `BTreeSet` restores the
        // canonical tuple order regardless of stream order.
        let tuples: BTreeSet<Tuple> = out
            .view()
            .iter()
            .map(|row| row.iter().map(|&v| cx.overlay.decode(v)).collect())
            .collect();
        Ok(ExecReport {
            relation: Relation {
                attrs: self.attrs.clone(),
                tuples,
            },
            operators: cx.stats,
        })
    }
}

fn col(attrs: &[String], attr: &str) -> usize {
    attrs
        .iter()
        .position(|a| a == attr)
        .unwrap_or_else(|| panic!("attribute `{attr}` not in {attrs:?}"))
}

fn lower(expr: &AlgebraExpr) -> PNode {
    match expr {
        AlgebraExpr::Base { name, attrs } => PNode::Scan {
            name: name.clone(),
            arity: attrs.len(),
        },
        AlgebraExpr::Empty(attrs) => PNode::Empty { arity: attrs.len() },
        AlgebraExpr::Singleton(cols) => PNode::Singleton {
            tuple: cols.iter().map(|(_, v)| v.clone()).collect(),
        },
        AlgebraExpr::Select(e, cond) => {
            let attrs = e.attrs();
            let cond = match cond {
                Condition::EqAttr(a, b) => PCond::EqCol(col(&attrs, a), col(&attrs, b)),
                Condition::NeqAttr(a, b) => PCond::NeqCol(col(&attrs, a), col(&attrs, b)),
                Condition::EqConst(a, v) => PCond::EqConst(col(&attrs, a), v.clone()),
                Condition::NeqConst(a, v) => PCond::NeqConst(col(&attrs, a), v.clone()),
                Condition::Domain { atom, ops } => {
                    return PNode::DomainFilter {
                        input: Box::new(lower(e)),
                        atom: atom.clone(),
                        cols: cond.attrs().iter().map(|a| col(&attrs, a)).collect(),
                        ops: *ops,
                        label: format!("domain-filter {atom}"),
                    }
                }
            };
            PNode::Filter {
                input: Box::new(lower(e)),
                cond,
            }
        }
        AlgebraExpr::Project(..) | AlgebraExpr::Extend(..) => {
            let (input, idx) = column_map(expr);
            let arity = input.attrs().len();
            if idx.iter().copied().eq(0..arity) {
                // A pure rename: the input stream is the output stream.
                return lower(input);
            }
            PNode::Map {
                input: Box::new(lower(input)),
                dedup: !(0..arity).all(|c| idx.contains(&c)),
                idx,
            }
        }
        AlgebraExpr::Join(a, b) => {
            let la = a.attrs();
            let lb = b.attrs();
            let mut lkey = Vec::new();
            let mut rkey = Vec::new();
            for (i, attr) in la.iter().enumerate() {
                if let Some(j) = lb.iter().position(|x| x == attr) {
                    lkey.push(i);
                    rkey.push(j);
                }
            }
            let rextra: Vec<usize> = lb
                .iter()
                .enumerate()
                .filter(|(_, attr)| !la.contains(attr))
                .map(|(j, _)| j)
                .collect();
            PNode::HashJoin {
                left: Box::new(lower(a)),
                right: Box::new(lower(b)),
                lkey,
                rkey,
                rextra,
            }
        }
        AlgebraExpr::Union(a, b) => {
            let la = a.attrs();
            let lb = b.attrs();
            PNode::Union {
                left: Box::new(lower(a)),
                right: Box::new(lower(b)),
                rperm: la.iter().map(|attr| col(&lb, attr)).collect(),
            }
        }
        AlgebraExpr::Diff(a, b) => {
            let la = a.attrs();
            match anti_join_operand(&la, a, b) {
                Some(n) => {
                    let ln = n.attrs();
                    PNode::AntiJoin {
                        left: Box::new(lower(a)),
                        right: Box::new(lower(n)),
                        lkey: ln.iter().map(|attr| col(&la, attr)).collect(),
                        rkey: (0..ln.len()).collect(),
                        diff: false,
                    }
                }
                None => {
                    let lb = b.attrs();
                    PNode::AntiJoin {
                        left: Box::new(lower(a)),
                        right: Box::new(lower(b)),
                        lkey: (0..la.len()).collect(),
                        rkey: la.iter().map(|attr| col(&lb, attr)).collect(),
                        diff: true,
                    }
                }
            }
        }
    }
}

/// Resolve a chain of projections and extends to the chain's input and
/// one column map over it: output column `k` is input column `idx[k]`.
/// Under set semantics the composed map equals the chain.
fn column_map(expr: &AlgebraExpr) -> (&AlgebraExpr, Vec<usize>) {
    match expr {
        AlgebraExpr::Project(e, attrs) => {
            let (input, idx) = column_map(e);
            let e_attrs = e.attrs();
            (input, attrs.iter().map(|a| idx[col(&e_attrs, a)]).collect())
        }
        AlgebraExpr::Extend(e, _, src) => {
            let (input, mut idx) = column_map(e);
            idx.push(idx[col(&e.attrs(), src)]);
            (input, idx)
        }
        other => (other, (0..other.attrs().len()).collect()),
    }
}

/// `N` when `left − right` is the anti-join shape `E − π(E ⋈ N)`: the
/// right side is `E ⋈ N` or `N ⋈ E`, optionally under a projection that
/// permutes the columns back to `attrs(E)`, with the `E` operand
/// structurally equal to `left` and `attrs(N) ⊆ attrs(E)`. Then
/// `E ⋈ N` holds exactly the `E` rows whose `N` columns are a row of
/// `N`, and the difference keeps the others.
fn anti_join_operand<'e>(
    la: &[String],
    left: &AlgebraExpr,
    right: &'e AlgebraExpr,
) -> Option<&'e AlgebraExpr> {
    let join = match right {
        AlgebraExpr::Project(j, attrs)
            if attrs.len() == la.len() && attrs.iter().all(|a| la.contains(a)) =>
        {
            j
        }
        other => other,
    };
    let AlgebraExpr::Join(x, y) = join else {
        return None;
    };
    let n = if **x == *left {
        y
    } else if **y == *left {
        x
    } else {
        return None;
    };
    n.attrs().iter().all(|a| la.contains(a)).then_some(&**n)
}

/// A flat, arity-strided stream of word rows. `rows` is explicit so
/// zero-arity streams (sentence subplans) keep their cardinality.
///
/// `data` is copy-on-write over the executed state's lifetime: base
/// scans *borrow* the [`VRel`](crate::VRel)'s flat store directly (a
/// million-row string relation scans without copying a word, and the
/// scan memo's clone is O(1)), while operators build owned buffers.
#[derive(Clone, Debug)]
struct VStream<'a> {
    arity: usize,
    rows: usize,
    data: Cow<'a, [Val]>,
}

impl<'a> VStream<'a> {
    fn empty(arity: usize) -> VStream<'a> {
        Out::new(arity).into()
    }

    fn row(&self, i: usize) -> &[Val] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// The whole stream as one morsel.
    fn view(&self) -> Rows<'_> {
        Rows {
            arity: self.arity,
            rows: self.rows,
            data: &self.data,
        }
    }

    /// The stream cut into `morsel_rows`-row slices on arity-stride
    /// boundaries (the tail morsel is shorter).
    fn morsels(&self, morsel_rows: usize) -> Vec<Rows<'_>> {
        (0..self.rows)
            .step_by(morsel_rows)
            .map(|start| {
                let end = (start + morsel_rows).min(self.rows);
                Rows {
                    arity: self.arity,
                    rows: end - start,
                    data: &self.data[start * self.arity..end * self.arity],
                }
            })
            .collect()
    }
}

impl From<Out> for VStream<'_> {
    fn from(out: Out) -> Self {
        VStream {
            arity: out.arity,
            rows: out.rows,
            data: Cow::Owned(out.data),
        }
    }
}

/// A borrowed run of rows: one morsel of a stream, or all of it.
#[derive(Clone, Copy)]
struct Rows<'s> {
    arity: usize,
    rows: usize,
    data: &'s [Val],
}

impl<'s> Rows<'s> {
    fn iter(self) -> impl Iterator<Item = &'s [Val]> {
        // `chunks_exact` needs a positive stride; a zero-arity run holds
        // its (at most one) empty row in `rows` alone.
        let empty: &'s [Val] = &[];
        let zero_arity_rows = if self.arity == 0 { self.rows } else { 0 };
        self.data
            .chunks_exact(self.arity.max(1))
            .chain(std::iter::repeat_n(empty, zero_arity_rows))
    }
}

/// An operator's owned output buffer for one morsel.
struct Out {
    arity: usize,
    rows: usize,
    data: Vec<Val>,
}

impl Out {
    fn new(arity: usize) -> Out {
        Out {
            arity,
            rows: 0,
            data: Vec::new(),
        }
    }

    fn row(&self, i: usize) -> &[Val] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    fn push(&mut self, row: &[Val]) {
        debug_assert_eq!(row.len(), self.arity);
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Push `row[cols]`.
    fn push_cols(&mut self, row: &[Val], cols: &[usize]) {
        self.data.extend(cols.iter().map(|&c| row[c]));
        self.rows += 1;
    }

    /// Push `left ++ right[cols]`.
    fn push_join(&mut self, left: &[Val], right: &[Val], cols: &[usize]) {
        self.data.extend_from_slice(left);
        self.push_cols(right, cols);
    }
}

/// Concatenate per-morsel outputs, in morsel order, into one stream. A
/// single part moves without copying.
fn stitch<'a>(parts: Vec<Out>) -> VStream<'a> {
    let mut parts = parts.into_iter();
    let mut all = parts.next().expect("every schedule has a morsel");
    let rest: Vec<Out> = parts.collect();
    all.data.reserve(rest.iter().map(|p| p.data.len()).sum());
    for part in rest {
        all.data.extend(part.data);
        all.rows += part.rows;
    }
    all.into()
}

/// A row key borrowed from a flat word buffer, carrying its hash so a
/// key is hashed once for both its shard and its bucket.
#[derive(Clone, Copy)]
struct Key<'w> {
    hash: u64,
    words: &'w [Val],
}

impl<'w> Key<'w> {
    fn new(words: &'w [Val]) -> Key<'w> {
        let mut h = FxHasher::default();
        for w in words {
            h.write_u64(w.raw());
        }
        // Fold the well-mixed high bits down: the table picks buckets
        // from the low bits, which a bare Fx multiply leaves equal for
        // words that agree in their low bits.
        Key {
            hash: h.finish().rotate_left(26),
            words,
        }
    }

    /// The shard of a table split `shards` ways that owns this key.
    /// Bits the table's bucket choice does not use keep a shard's keys
    /// spread over all of its buckets.
    fn shard(&self, shards: usize) -> usize {
        (self.hash >> 32) as usize % shards
    }
}

impl PartialEq for Key<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.words == other.words
    }
}

impl Eq for Key<'_> {}

impl Hash for Key<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Hasher for [`Key`]: passes the precomputed hash through.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("keys hash as their precomputed u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type KeyMap<'w, V> = HashMap<Key<'w>, V, BuildHasherDefault<KeyHasher>>;
type KeySet<'w> = HashSet<Key<'w>, BuildHasherDefault<KeyHasher>>;

/// How to read a key from one row: a contiguous run of columns is
/// borrowed in place, any other column list is gathered into a scratch
/// buffer.
#[derive(Clone, Copy)]
enum KeyCols<'c> {
    Run(usize, usize),
    Gather(&'c [usize]),
}

impl KeyCols<'_> {
    fn new(cols: &[usize]) -> KeyCols<'_> {
        let first = cols.first().copied().unwrap_or(0);
        if cols.iter().enumerate().all(|(i, &c)| c == first + i) {
            KeyCols::Run(first, cols.len())
        } else {
            KeyCols::Gather(cols)
        }
    }

    fn of<'r>(self, row: &'r [Val], scratch: &'r mut Vec<Val>) -> &'r [Val] {
        match self {
            KeyCols::Run(start, len) => &row[start..start + len],
            KeyCols::Gather(cols) => {
                scratch.clear();
                scratch.extend(cols.iter().map(|&c| row[c]));
                scratch
            }
        }
    }
}

/// The key columns of every row of a stream as borrowable slices: a
/// contiguous run borrows the stream, any other column list is gathered
/// once into one flat buffer.
struct Keys<'s> {
    data: Cow<'s, [Val]>,
    stride: usize,
    start: usize,
    len: usize,
    rows: usize,
}

impl<'s> Keys<'s> {
    fn new(s: &'s VStream<'_>, cols: &[usize]) -> Keys<'s> {
        let (data, stride, start) = match KeyCols::new(cols) {
            KeyCols::Run(start, _) => (Cow::Borrowed(&*s.data), s.arity, start),
            KeyCols::Gather(cols) => {
                let mut data = Vec::with_capacity(s.rows * cols.len());
                for row in s.view().iter() {
                    data.extend(cols.iter().map(|&c| row[c]));
                }
                (Cow::Owned(data), cols.len(), 0)
            }
        };
        Keys {
            data,
            stride,
            start,
            len: cols.len(),
            rows: s.rows,
        }
    }

    fn get(&self, i: usize) -> &[Val] {
        let start = i * self.stride + self.start;
        &self.data[start..start + self.len]
    }
}

/// Marks the end of a [`Table`] row chain.
const NIL: u32 = u32::MAX;

/// A hash table over the keys of a build stream's rows, partitioned into
/// shards by key hash. Each key's rows are chained in build order.
struct Table<'k> {
    shards: Vec<Shard<'k>>,
}

struct Shard<'k> {
    /// Key → first and last entry of its chain.
    heads: KeyMap<'k, (u32, u32)>,
    /// Entry → build row.
    rows: Vec<u32>,
    /// Entry → next entry with the same key, or [`NIL`].
    next: Vec<u32>,
}

impl<'k> Table<'k> {
    /// Build over `keys`: with `fanout`, one shard per pool thread (each
    /// shard worker scans every key in order and keeps its own), else a
    /// single table built inline.
    fn build(keys: &'k Keys<'_>, eng: &Engine, fanout: bool) -> Table<'k> {
        let nshards = if fanout {
            eng.threads().min(keys.rows).max(1)
        } else {
            1
        };
        let ids: Vec<usize> = (0..nshards).collect();
        let shards = eng.parallel_map(&ids, |&w| {
            let mut shard = Shard {
                heads: KeyMap::with_capacity_and_hasher(
                    keys.rows / nshards + 1,
                    Default::default(),
                ),
                rows: Vec::new(),
                next: Vec::new(),
            };
            for i in 0..keys.rows {
                let key = Key::new(keys.get(i));
                if nshards > 1 && key.shard(nshards) != w {
                    continue;
                }
                let entry = shard.rows.len() as u32;
                shard.rows.push(i as u32);
                shard.next.push(NIL);
                match shard.heads.entry(key) {
                    Entry::Vacant(v) => {
                        v.insert((entry, entry));
                    }
                    Entry::Occupied(mut o) => {
                        let last = &mut o.get_mut().1;
                        shard.next[*last as usize] = entry;
                        *last = entry;
                    }
                }
            }
            shard
        });
        Table { shards }
    }

    /// The shard owning `key` and the first entry of its chain.
    fn find(&self, key: &[Val]) -> Option<(&Shard<'k>, u32)> {
        let key = Key::new(key);
        let shard = &self.shards[key.shard(self.shards.len())];
        shard.heads.get(&key).map(|&(first, _)| (shard, first))
    }

    fn contains(&self, key: &[Val]) -> bool {
        self.find(key).is_some()
    }

    /// The build rows whose key is `key`, in build order.
    fn matches(&self, key: &[Val]) -> impl Iterator<Item = usize> + '_ {
        let mut cur = self.find(key);
        std::iter::from_fn(move || {
            let (shard, entry) = cur?;
            let next = shard.next[entry as usize];
            cur = (next != NIL).then_some((shard, next));
            Some(shard.rows[entry as usize] as usize)
        })
    }
}

struct ExecContext<'a> {
    state: &'a State,
    /// Query constants absent from the state dictionary get overlay ids,
    /// so singleton tuples and filter constants share the word space.
    overlay: OverlayDict<'a>,
    /// Base relations materialized in this execution, by name.
    scans: HashMap<String, VStream<'a>>,
    stats: Vec<OpStat>,
    /// Worker pool for morsel fan-out; a one-thread engine runs every
    /// operator inline.
    eng: &'a Engine,
    morsel_rows: usize,
}

impl<'a> ExecContext<'a> {
    /// Whether a parallel schedule is worthwhile for a stream of `rows`
    /// rows of `arity` columns: ≥ 2 pool threads and ≥ 2 morsels
    /// (zero-arity streams hold at most one row under the
    /// duplicate-freeness invariant, so they never qualify).
    fn fanout(&self, arity: usize, rows: usize) -> bool {
        self.eng.threads() >= 2 && arity > 0 && rows.div_ceil(self.morsel_rows) >= 2
    }

    /// `f` over the morsels of `s` on the pool when [`Self::fanout`]
    /// agrees, else over the whole of `s` as one morsel inline (a
    /// one-item `parallel_map` runs on the calling thread); results in
    /// morsel order.
    fn map_morsels<'s, U: Send>(
        &self,
        s: &'s VStream<'_>,
        f: impl Fn(Rows<'s>) -> U + Sync,
    ) -> Vec<U> {
        let morsels = if self.fanout(s.arity, s.rows) {
            s.morsels(self.morsel_rows)
        } else {
            vec![s.view()]
        };
        self.eng.parallel_map(&morsels, |m| f(*m))
    }

    /// Run the per-morsel `body` over `s`, writing `arity`-column rows,
    /// and stitch the outputs. Returns the stream and the morsel count.
    fn per_morsel<'s>(
        &self,
        s: &'s VStream<'_>,
        arity: usize,
        body: impl Fn(Rows<'s>, &mut Out) + Sync,
    ) -> (VStream<'a>, usize) {
        let parts = self.map_morsels(s, |m| {
            let mut out = Out::new(arity);
            body(m, &mut out);
            out
        });
        let n = parts.len();
        (stitch(parts), n)
    }
}

/// Evaluate a node to a duplicate-free word stream.
///
/// Invariant: every stream returned here is duplicate-free. Scans and
/// singletons are sets; filters, covering maps, anti-joins and
/// differences preserve duplicate-freeness; hash joins of duplicate-free
/// inputs are duplicate-free (the output determines both factors);
/// narrowing maps and unions are the only duplicate sources, and both
/// dedup. Row counts therefore equal the logical cardinalities of the
/// naive backend.
fn run<'a>(node: &PNode, cx: &mut ExecContext<'a>) -> Result<VStream<'a>, LogicError> {
    let (label, out, morsels) = match node {
        PNode::Scan { name, arity } => {
            let out = match cx.scans.get(name) {
                Some(s) => s.clone(),
                None => {
                    // Borrow the relation's flat store — no per-scan
                    // copy, and the memoized clone is O(1) too.
                    let s = match cx.state.vrel(name) {
                        Some(rel) => VStream {
                            arity: rel.arity(),
                            rows: rel.rows(),
                            data: Cow::Borrowed(rel.data()),
                        },
                        None => VStream::empty(*arity),
                    };
                    cx.scans.insert(name.clone(), s.clone());
                    s
                }
            };
            (format!("scan {name}"), out, 1)
        }
        PNode::Empty { arity } => ("empty".to_string(), VStream::empty(*arity), 1),
        PNode::Singleton { tuple } => {
            let mut out = Out::new(tuple.len());
            let row: Vec<Val> = tuple.iter().map(|v| cx.overlay.encode(v)).collect();
            out.push(&row);
            ("const".to_string(), out.into(), 1)
        }
        PNode::Filter { input, cond } => {
            let s = run(input, cx)?;
            let cond = RCond::resolve(cond, &cx.overlay);
            let (out, morsels) = cx.per_morsel(&s, s.arity, |m, out| {
                for row in m.iter() {
                    if cond.keep(row) {
                        out.push(row);
                    }
                }
            });
            ("filter".to_string(), out, morsels)
        }
        PNode::DomainFilter {
            input,
            atom,
            cols,
            ops,
            label,
        } => {
            let s = run(input, cx)?;
            let interp = QueryInterp::new(cx.state, ops);
            let overlay = &cx.overlay;
            let parts = cx.map_morsels(&s, |m| {
                let mut out = Out::new(s.arity);
                // One binding per variable; the map iterates in name
                // order, the order of `cols`.
                let mut env: Assignment<Value> = atom
                    .free_vars()
                    .into_iter()
                    .map(|v| (v, Value::Nat(0)))
                    .collect();
                for row in m.iter() {
                    for (value, &c) in env.values_mut().zip(cols) {
                        *value = overlay.decode(row[c]);
                    }
                    if eval(&interp, &[], &mut env, atom)? {
                        out.push(row);
                    }
                }
                Ok(out)
            });
            let parts = parts
                .into_iter()
                .collect::<Result<Vec<Out>, LogicError>>()?;
            let morsels = parts.len();
            (label.clone(), stitch(parts), morsels)
        }
        PNode::Map {
            input,
            idx,
            dedup: false,
        } => {
            let s = run(input, cx)?;
            let (out, morsels) = cx.per_morsel(&s, idx.len(), |m, out| {
                out.data.reserve(m.rows * idx.len());
                for row in m.iter() {
                    out.push_cols(row, idx);
                }
            });
            ("project(gather)".to_string(), out, morsels)
        }
        PNode::Map {
            input,
            idx,
            dedup: true,
        } => {
            let s = run(input, cx)?;
            let (out, morsels) = narrow_dedup(&s, idx, cx);
            ("project(dedup)".to_string(), out, morsels)
        }
        PNode::HashJoin {
            left,
            right,
            lkey,
            rkey,
            rextra,
        } => {
            let l = run(left, cx)?;
            let r = run(right, cx)?;
            let label = format!("hash-join (left {} × right {})", l.rows, r.rows);
            let (out, morsels) = hash_join(&l, &r, lkey, rkey, rextra, cx);
            (label, out, morsels)
        }
        PNode::AntiJoin {
            left,
            right,
            lkey,
            rkey,
            diff,
        } => {
            let l = run(left, cx)?;
            let r = run(right, cx)?;
            let label = if *diff {
                "diff".to_string()
            } else {
                format!("anti-join (left {} ▷ right {})", l.rows, r.rows)
            };
            let rkeys = Keys::new(&r, rkey);
            let table = Table::build(&rkeys, cx.eng, cx.fanout(l.arity, l.rows));
            let lkey = KeyCols::new(lkey);
            let (out, morsels) = cx.per_morsel(&l, l.arity, |m, out| {
                let mut scratch = Vec::new();
                for row in m.iter() {
                    if !table.contains(lkey.of(row, &mut scratch)) {
                        out.push(row);
                    }
                }
            });
            (label, out, morsels)
        }
        PNode::Union { left, right, rperm } => {
            let l = run(left, cx)?;
            let r = run(right, cx)?;
            // Both inputs are duplicate-free and `rperm` is a
            // permutation, so the only possible collisions are
            // right-vs-left: keep the left stream and append the aligned
            // right rows it lacks.
            let all: Vec<usize> = (0..l.arity).collect();
            let lkeys = Keys::new(&l, &all);
            let table = Table::build(&lkeys, cx.eng, cx.fanout(r.arity, r.rows));
            let rperm = KeyCols::new(rperm);
            let (tail, morsels) = cx.per_morsel(&r, l.arity, |m, out| {
                let mut scratch = Vec::new();
                for row in m.iter() {
                    let aligned = rperm.of(row, &mut scratch);
                    if !table.contains(aligned) {
                        out.push(aligned);
                    }
                }
            });
            drop(table);
            drop(lkeys);
            let mut data = l.data.into_owned();
            data.extend_from_slice(&tail.data);
            let out = VStream {
                arity: l.arity,
                rows: l.rows + tail.rows,
                data: Cow::Owned(data),
            };
            ("union(dedup)".to_string(), out, morsels)
        }
    };
    cx.stats.push(OpStat {
        op: label,
        rows: out.rows,
        morsels,
    });
    Ok(out)
}

/// A narrowing map: project onto `idx`, which drops an input column,
/// keeping each row's first occurrence in input order. Returns the
/// stream and the morsel count.
///
/// Each morsel gathers its narrowed rows and keeps their first
/// occurrences within the morsel. One morsel is then done. Across
/// several, shard workers scan the survivors in input order, each
/// claiming the rows whose hash lands in its shard — equal rows share a
/// shard, so every shard's first occurrence is the global one — and a
/// flag-guided sweep copies the claimed rows back in input order.
fn narrow_dedup<'a>(s: &VStream<'_>, idx: &[usize], cx: &ExecContext<'_>) -> (VStream<'a>, usize) {
    let k = idx.len();
    let parts: Vec<(Out, Vec<u64>)> = cx.map_morsels(s, |m| {
        let mut out = Out::new(k);
        out.data.reserve(m.rows * k);
        for row in m.iter() {
            out.push_cols(row, idx);
        }
        let mut keep = Vec::new();
        let mut hashes = Vec::new();
        let mut seen = KeySet::with_capacity_and_hasher(out.rows, Default::default());
        for i in 0..out.rows {
            let key = Key::new(out.row(i));
            if seen.insert(key) {
                keep.push(i);
                hashes.push(key.hash);
            }
        }
        drop(seen);
        // Compact the survivors in place; each moves down or stays.
        for (to, &from) in keep.iter().enumerate() {
            out.data.copy_within(from * k..(from + 1) * k, to * k);
        }
        out.rows = keep.len();
        out.data.truncate(out.rows * k);
        (out, hashes)
    });
    let morsels = parts.len();
    if morsels == 1 {
        let (out, _) = parts.into_iter().next().expect("one morsel");
        return (out.into(), 1);
    }
    // Several morsels mean the schedule fanned out: one shard per thread.
    let nshards = cx.eng.threads();
    let ids: Vec<usize> = (0..nshards).collect();
    let claimed: Vec<Vec<usize>> = cx.eng.parallel_map(&ids, |&w| {
        let mut seen = KeySet::default();
        let mut keep = Vec::new();
        let mut offset = 0;
        for (out, hashes) in &parts {
            for (i, &hash) in hashes.iter().enumerate() {
                let key = Key {
                    hash,
                    words: out.row(i),
                };
                if key.shard(nshards) == w && seen.insert(key) {
                    keep.push(offset + i);
                }
            }
            offset += out.rows;
        }
        keep
    });
    let mut flags = vec![false; parts.iter().map(|(out, _)| out.rows).sum()];
    for &g in claimed.iter().flatten() {
        flags[g] = true;
    }
    let mut out = Out::new(k);
    let mut flags = flags.into_iter();
    for (part, _) in &parts {
        for i in 0..part.rows {
            if flags.next() == Some(true) {
                out.push(part.row(i));
            }
        }
    }
    (out.into(), morsels)
}

/// Build/probe hash join on word keys. The build side is the smaller
/// input; the output layout is always `left ++ right[rextra]` regardless
/// of which side was built, matching the logical Join's attribute list.
/// Probe morsels emit each match in build order, so the stitched output
/// equals one probe scan. An empty key is the cross product: each left
/// morsel crossed with the whole right side. Returns the stream and the
/// number of probe morsels.
fn hash_join<'a>(
    l: &VStream<'_>,
    r: &VStream<'_>,
    lkey: &[usize],
    rkey: &[usize],
    rextra: &[usize],
    cx: &ExecContext<'a>,
) -> (VStream<'a>, usize) {
    let out_arity = l.arity + rextra.len();
    if lkey.is_empty() {
        return cx.per_morsel(l, out_arity, |m, out| {
            out.data.reserve(m.rows * r.rows * out_arity);
            for lrow in m.iter() {
                for rrow in r.view().iter() {
                    out.push_join(lrow, rrow, rextra);
                }
            }
        });
    }
    if l.rows <= r.rows {
        let keys = Keys::new(l, lkey);
        let table = Table::build(&keys, cx.eng, cx.fanout(r.arity, r.rows));
        let rkey = KeyCols::new(rkey);
        cx.per_morsel(r, out_arity, |m, out| {
            let mut scratch = Vec::new();
            for rrow in m.iter() {
                for i in table.matches(rkey.of(rrow, &mut scratch)) {
                    out.push_join(l.row(i), rrow, rextra);
                }
            }
        })
    } else {
        let keys = Keys::new(r, rkey);
        let table = Table::build(&keys, cx.eng, cx.fanout(l.arity, l.rows));
        let lkey = KeyCols::new(lkey);
        cx.per_morsel(l, out_arity, |m, out| {
            let mut scratch = Vec::new();
            for lrow in m.iter() {
                for j in table.matches(lkey.of(lrow, &mut scratch)) {
                    out.push_join(lrow, r.row(j), rextra);
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active_eval::Ops;
    use crate::algebra::compile;
    use crate::optimize::optimize;
    use crate::schema::Schema;
    use fq_logic::parse_formula;

    fn fathers() -> State {
        let schema = Schema::new().with_relation("F", 2).with_relation("S", 1);
        State::new(schema)
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(2)])
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(3)])
            .with_tuple("F", vec![Value::Nat(2), Value::Nat(4)])
            .with_tuple("S", vec![Value::Nat(2)])
    }

    fn check(query: &str) {
        let state = fathers();
        let f = parse_formula(query).unwrap();
        let expr = compile(state.schema(), &f, Ops::Equality).expect("compiles");
        let naive = expr.eval(&state).unwrap();
        // Unoptimized physical execution.
        let phys = PhysicalPlan::compile(&expr).execute(&state).unwrap();
        assert_eq!(naive, phys, "physical ≠ naive on {query}");
        // Optimized physical execution.
        let opt = optimize(&expr, &state);
        let phys_opt = PhysicalPlan::compile(&opt.expr).execute(&state).unwrap();
        assert_eq!(naive, phys_opt, "optimized physical ≠ naive on {query}");
    }

    #[test]
    fn physical_matches_naive_backend() {
        for q in [
            "F(x, y)",
            "exists y z. y != z & F(x, y) & F(x, z)",
            "exists y. F(x, y) & F(y, z)",
            "F(x, y) & S(y)",
            "F(1, y)",
            "F(x, x)",
            "F(x, y) | (x = 9 & y = 9)",
            "F(x, y) & !F(y, x)",
            "(exists y. F(x, y)) & !(exists g. exists f. F(g, f) & F(f, x))",
            "F(x, y) & x != y",
            "F(x, y) & y != 2",
            "x = 2 & (exists z. F(y, z) & x != 0)",
            "(exists y. F(x, y)) & forall y. F(x, y) -> y = 2 | y = 3",
            "exists x y. F(x, y)",
        ] {
            check(q);
        }
    }

    #[test]
    fn constants_outside_the_state_dictionary_are_handled() {
        // "zz" is nowhere in the state: equality selections must keep
        // nothing, inequality selections everything, and singleton
        // values must flow through unions and filters via overlay words.
        for q in [
            "F(x, y) & y != \"zz\"",
            "F(x, y) | (x = \"zz\" & y = \"zz\")",
            "(F(x, y) | (x = \"zz\" & y = \"zz\")) & x != \"zz\"",
            "(F(x, y) | (x = \"zz\" & y = \"zz\")) & x = \"zz\"",
        ] {
            check(q);
        }
    }

    #[test]
    fn cross_join_is_the_empty_key_case() {
        let e = AlgebraExpr::Join(
            Box::new(AlgebraExpr::Base {
                name: "F".into(),
                attrs: vec!["x".into(), "y".into()],
            }),
            Box::new(AlgebraExpr::Base {
                name: "S".into(),
                attrs: vec!["s".into()],
            }),
        );
        let state = fathers();
        assert_eq!(
            e.eval(&state).unwrap(),
            PhysicalPlan::compile(&e).execute(&state).unwrap()
        );
    }

    #[test]
    fn stats_report_operator_cardinalities() {
        let state = fathers();
        let f = parse_formula("exists y. F(x, y) & F(y, z)").unwrap();
        let expr = compile(state.schema(), &f, Ops::Equality).unwrap();
        let report = PhysicalPlan::compile(&expr)
            .execute_with_stats(&state)
            .unwrap();
        assert!(report
            .operators
            .iter()
            .any(|s| s.op.starts_with("scan F") && s.rows == 3));
        assert!(report
            .operators
            .iter()
            .any(|s| s.op.starts_with("hash-join")));
    }

    /// A state wide enough to span many morsels at small morsel sizes:
    /// a two-column chain relation plus a unary filter relation.
    fn chain(n: u64) -> State {
        let schema = Schema::new().with_relation("F", 2).with_relation("S", 1);
        let mut b = crate::state::StateBuilder::new(schema);
        for i in 0..n {
            b.row("F", vec![Value::Nat(i), Value::Nat(i + 1)]);
            b.row(
                "F",
                vec![Value::Nat(i), Value::Str(format!("tag{}", i % 7))],
            );
            if i % 2 == 0 {
                b.row("S", vec![Value::Nat(i)]);
            }
        }
        b.finish()
    }

    #[test]
    fn parallel_execution_is_bit_identical_to_sequential() {
        use fq_engine::{Engine, EngineConfig};
        let state = chain(200);
        for q in [
            "F(x, y)",                                // scan
            "exists y. F(x, y) & F(y, z)",            // join + project
            "F(x, y) & S(y)",                         // key join
            "F(x, y) & x != y",                       // filter
            "F(x, y) | (x = 9 & y = 9)",              // union
            "F(x, y) & !F(y, x)",                     // diff
            "F(x, x)",                                // self filter
            "exists y z. y != z & F(x, y) & F(x, z)", // extend-heavy
            "exists x y. F(x, y)",                    // zero-arity root
        ] {
            let f = parse_formula(q).unwrap();
            let expr = compile(state.schema(), &f, Ops::Equality).expect("compiles");
            let plan = PhysicalPlan::compile(&optimize(&expr, &state).expr);
            let sequential = plan.execute_with_stats(&state).unwrap();
            for threads in [1, 2, 4, 8] {
                let engine = Engine::new(EngineConfig { threads });
                // Morsel sizes straddling the edge cases: every row its
                // own morsel, a non-divisor, an exact divisor of 400,
                // one morsel total, and rows < morsel size.
                for morsel_rows in [1, 3, 50, 400, 100_000] {
                    let report = plan
                        .execute_with_stats_on(&state, &engine, ExecOpts { morsel_rows })
                        .unwrap();
                    assert_eq!(
                        report.relation, sequential.relation,
                        "parallel ≠ sequential on {q} at {threads} threads, morsel {morsel_rows}"
                    );
                    // Row counts per operator are schedule-independent.
                    let rows: Vec<usize> = report.operators.iter().map(|s| s.rows).collect();
                    let seq_rows: Vec<usize> =
                        sequential.operators.iter().map(|s| s.rows).collect();
                    assert_eq!(rows, seq_rows, "cardinalities drift on {q}");
                }
            }
        }
    }

    #[test]
    fn parallel_schedules_actually_fan_out() {
        use fq_engine::{Engine, EngineConfig};
        let state = chain(100);
        let f = parse_formula("exists y. F(x, y) & F(y, z)").unwrap();
        let expr = compile(state.schema(), &f, Ops::Equality).unwrap();
        let plan = PhysicalPlan::compile(&optimize(&expr, &state).expr);
        let engine = Engine::new(EngineConfig { threads: 4 });
        let report = plan
            .execute_with_stats_on(&state, &engine, ExecOpts { morsel_rows: 16 })
            .unwrap();
        assert!(
            report.operators.iter().any(|s| s.morsels >= 2),
            "no operator fanned out: {:?}",
            report.operators
        );
        // Without a pool every operator runs its input as one morsel.
        let seq = plan.execute_with_stats(&state).unwrap();
        assert!(seq.operators.iter().all(|s| s.morsels == 1));
    }

    #[test]
    fn empty_relations_survive_any_morsel_schedule() {
        use fq_engine::{Engine, EngineConfig};
        let schema = Schema::new().with_relation("F", 2).with_relation("S", 1);
        let state = State::new(schema);
        let engine = Engine::new(EngineConfig { threads: 4 });
        for q in ["F(x, y)", "F(x, y) & S(y)", "F(x, y) & !F(y, x)"] {
            let f = parse_formula(q).unwrap();
            let expr = compile(state.schema(), &f, Ops::Equality).unwrap();
            let plan = PhysicalPlan::compile(&expr);
            let out = plan
                .execute_with_stats_on(&state, &engine, ExecOpts { morsel_rows: 1 })
                .unwrap();
            assert_eq!(
                out.relation,
                plan.execute(&state).unwrap(),
                "empty state on {q}"
            );
        }
    }

    #[test]
    fn base_scans_are_memoized_per_execution() {
        // F appears twice; the scan stream must be identical both times
        // (and the memo map is exercised via the cloned path).
        let e = AlgebraExpr::Join(
            Box::new(AlgebraExpr::Base {
                name: "F".into(),
                attrs: vec!["x".into(), "y".into()],
            }),
            Box::new(AlgebraExpr::Base {
                name: "F".into(),
                attrs: vec!["y".into(), "z".into()],
            }),
        );
        let state = fathers();
        let report = PhysicalPlan::compile(&e)
            .execute_with_stats(&state)
            .unwrap();
        let scans: Vec<&OpStat> = report
            .operators
            .iter()
            .filter(|s| s.op == "scan F")
            .collect();
        assert_eq!(scans.len(), 2);
        assert!(scans.iter().all(|s| s.rows == 3));
        assert_eq!(
            e.eval(&state).unwrap(),
            PhysicalPlan::compile(&e).execute(&state).unwrap()
        );
    }

    fn op_labels(state: &State, expr: &AlgebraExpr) -> Vec<String> {
        PhysicalPlan::compile(expr)
            .execute_with_stats(state)
            .unwrap()
            .operators
            .into_iter()
            .map(|s| s.op)
            .collect()
    }

    #[test]
    fn renamed_atoms_execute_as_borrowed_scans() {
        let state = fathers();
        let expr = compile(
            state.schema(),
            &parse_formula("F(x, y)").unwrap(),
            Ops::Equality,
        )
        .unwrap();
        // The atom renames its positional columns through π∘extend∘extend.
        assert!(matches!(expr, AlgebraExpr::Project(..)), "{expr:?}");
        assert_eq!(op_labels(&state, &expr), ["scan F"]);
        let plan = PhysicalPlan::compile(&expr);
        let engine = Engine::sequential();
        let mut cx = ExecContext {
            state: &state,
            overlay: OverlayDict::new(state.dict()),
            scans: HashMap::new(),
            stats: Vec::new(),
            eng: &engine,
            morsel_rows: DEFAULT_MORSEL_ROWS,
        };
        let out = run(&plan.root, &mut cx).unwrap();
        assert!(matches!(out.data, Cow::Borrowed(_)), "the scan was copied");
        assert_eq!(plan.execute(&state).unwrap(), expr.eval(&state).unwrap());
    }

    #[test]
    fn negated_atoms_run_as_one_anti_join() {
        let state = chain(40);
        for q in ["F(x, y) & !F(y, x)", "F(x, y) & !S(x)"] {
            let expr = compile(state.schema(), &parse_formula(q).unwrap(), Ops::Equality).unwrap();
            for shape in [expr.clone(), optimize(&expr, &state).expr] {
                let ops = op_labels(&state, &shape);
                let anti = ops.iter().filter(|op| op.starts_with("anti-join")).count();
                assert_eq!(anti, 1, "{q}: {ops:?}");
                assert!(
                    !ops.iter()
                        .any(|op| op.starts_with("hash-join") || op == "diff"),
                    "{q}: {ops:?}"
                );
                assert_eq!(
                    PhysicalPlan::compile(&shape).execute(&state).unwrap(),
                    expr.eval(&state).unwrap()
                );
            }
        }
    }

    #[test]
    fn a_diff_whose_copies_of_e_differ_stays_a_diff() {
        let f = AlgebraExpr::Base {
            name: "F".into(),
            attrs: vec!["x".into(), "y".into()],
        };
        let other_f = AlgebraExpr::Select(
            Box::new(f.clone()),
            Condition::NeqAttr("x".into(), "y".into()),
        );
        let s = AlgebraExpr::Base {
            name: "S".into(),
            attrs: vec!["x".into()],
        };
        let e = AlgebraExpr::Diff(
            Box::new(f),
            Box::new(AlgebraExpr::Join(Box::new(other_f), Box::new(s))),
        );
        let state = chain(40);
        let ops = op_labels(&state, &e);
        assert!(ops.iter().any(|op| op == "diff"), "{ops:?}");
        assert!(!ops.iter().any(|op| op.starts_with("anti-join")), "{ops:?}");
        assert_eq!(
            PhysicalPlan::compile(&e).execute(&state).unwrap(),
            e.eval(&state).unwrap()
        );
    }
}
