//! # fq-relational — the relational database layer
//!
//! The paper's setting (Section 1): a *database scheme* fixes relation
//! names and arities; a *database state* is a finite collection of finite
//! relations over an infinite domain; queries are first-order formulas
//! over the domain signature plus the scheme's relations.
//!
//! This crate provides:
//!
//! * [`schema`]/[`state`] — schemes, states, scheme constants, and the
//!   *active domain* (constants used in the query plus elements stored in
//!   the relations);
//! * [`translate`] — the Section 1.1 reduction of a query in a fixed
//!   state to a *pure domain* formula ("we can replace each occurrence of
//!   `R(x, y)` with `((x=a₁ ∧ y=b₁) ∨ … ∨ (x=a_r ∧ y=b_r))`");
//! * [`active_eval`] — the domains' operations (`NatOps`, `TraceOps`, …)
//!   and active-domain evaluation of queries: the reference semantics
//!   the algebra is tested against, and the relative-safety test's
//!   evaluator;
//! * [`safe_range`] — the classic syntactic *safe-range* test, the
//!   standard effective syntax for domain-independent queries
//!   (Ullman; Van Gelder & Topor);
//! * [`algebra`] — a relational algebra with an evaluator, plus the
//!   compilation of every safe-range query into it (Codd's theorem);
//!   domain atoms such as `x < y` become selections;
//! * [`ranf`] — the restricted-normal-form split: any *generic* query
//!   becomes a pair of safe-range queries (generator + restrictor) over
//!   an extended state, giving exact evaluation plus a per-state
//!   finite/infinite verdict even for non-safe-range queries;
//! * [`val`] — the columnar interned storage core underneath it all:
//!   one-word values, a per-state string dictionary, and flat sorted
//!   relations with two writer paths — single-row [`State::insert`] for
//!   interactive mutation, and the batch pipeline ([`StateBuilder`],
//!   [`State::extend_bulk`]) that stages rows and merges each relation
//!   in one pass (an already-sorted batch is adopted without sorting)
//!   for O(n log n) bulk loads;
//! * [`snapshot`] — the concurrency story: [`SharedState`] publishes
//!   immutable epoch-stamped [`Snapshot`]s atomically (copy-on-write,
//!   readers never blocked), which is what `fq serve` runs on;
//! * [`mod@format`] — the binary columnar on-disk snapshot (`fqsnap-v1`):
//!   dictionary in id order, word columns verbatim, checksummed, with
//!   every corruption diagnosed as a [`StateError`];
//! * [`wal`] — durability for published epochs: a base snapshot plus an
//!   epoch-delta write-ahead log with fsync policies, segment rotation,
//!   background compaction, and crash recovery to the exact pre-crash
//!   state (epoch and content fingerprint bit-identical).
//!
//! The Section 1.1 enumerate-and-ask query-answering algorithm lives in
//! `fq-core` (it needs the decision procedures of `fq-domains`).
//!
//! Building a large state? Stage it:
//!
//! ```
//! use fq_relational::{Schema, StateBuilder, Value};
//!
//! let mut b = StateBuilder::new(Schema::new().with_relation("Log", 1));
//! for i in 0..1000u64 {
//!     b.row("Log", vec![Value::Str(format!("trace-{i}"))]);
//! }
//! let state = b.finish(); // one interning + merge pass per relation
//! assert_eq!(state.size(), 1000);
//! ```
//!
//! ```
//! use fq_relational::{Schema, State, Value, is_safe_range};
//! use fq_relational::active_eval::{eval_query, NoOps};
//! use fq_logic::parse_formula;
//!
//! let schema = Schema::new().with_relation("F", 2);
//! let state = State::new(schema.clone())
//!     .with_tuple("F", vec![Value::Nat(1), Value::Nat(2)])
//!     .with_tuple("F", vec![Value::Nat(1), Value::Nat(3)]);
//!
//! let m = parse_formula("exists y z. y != z & F(x, y) & F(x, z)")?;
//! assert!(is_safe_range(&schema, &m));
//! let ans = eval_query(&state, &NoOps, &m, &["x".to_string()])?;
//! assert_eq!(ans, vec![vec![Value::Nat(1)]]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod active_eval;
pub mod algebra;
pub mod format;
pub mod fx;
pub mod optimize;
pub mod physical;
pub mod ranf;
pub mod safe_range;
pub mod schema;
pub mod snapshot;
pub mod state;
pub mod translate;
pub mod val;
pub mod wal;

pub use active_eval::eval_query;
pub use algebra::{AlgebraExpr, Relation};
pub use format::{is_snapshot, FORMAT_ID, JSON_FORMAT_ID};
pub use optimize::{optimize, OptimizedExpr};
pub use physical::{ExecOpts, ExecReport, OpStat, PhysicalPlan, DEFAULT_MORSEL_ROWS};
pub use ranf::{RanfIneligible, RanfTranslation};
pub use safe_range::is_safe_range;
pub use schema::Schema;
pub use snapshot::{SharedState, Snapshot};
pub use state::{State, StateBuilder, StateError, Value};
pub use translate::translate_to_domain_formula;
pub use val::{ColStats, Dict, OverlayDict, SortKeys, VRel, Val};
pub use wal::{Durability, Recovery, Wal, WalInfo, WalOptions, DELTA_FORMAT_ID};
