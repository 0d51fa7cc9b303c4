//! # fq-query — the unified compile → plan → execute pipeline
//!
//! Every answering path in the workspace goes through this crate. The
//! paper's whole subject is *which strategy may answer a query* — the
//! safe-range/algebra route for domain-independent queries (domain atoms
//! such as `x < y` included), the RANF split for generic ones, the
//! Section 1.1 enumerate-and-ask loop for finite queries, relative-safety
//! prechecks (Theorems 2.2/2.5/3.3), and pure-sentence decision — and
//! this crate makes that choice explicit, auditable, and cacheable:
//!
//! * [`compile`] — parse, bind scheme constants, arity-check against the
//!   [`Schema`](fq_relational::Schema), and normalize (NNF + folding);
//! * [`plan`] — a [`QueryPlan`] choosing among algebra, RANF,
//!   enumerate-and-ask (with an explicit candidate budget and a
//!   relative-safety precheck), or QE decision — each recording *why*;
//! * [`exec`] — an [`Executor`] that memoizes plans in the engine's
//!   `query.plan` namespace and the verdicts of QE-decided sentences in
//!   `query.verdict`, and returns a uniform [`QueryOutcome`] with
//!   answers, a completeness certificate, and cache statistics;
//! * [`registry`] — the [`DomainRegistry`]: one table for the seven
//!   decidable domains (`eq|nat|int|succ|presburger|words|traces`) and
//!   the operations their atoms evaluate with, replacing the
//!   per-command string dispatch the CLI used to carry.
//!
//! The executor is agnostic to how its state was built: per-row
//! (`with_tuple`, as below, fine for fixtures) or staged through
//! [`fq_relational::StateBuilder`] / `State::extend_bulk` when loading
//! thousands of rows — the batch path merges each relation in one pass
//! instead of splicing per row.
//!
//! ```
//! use fq_query::{DomainId, Executor};
//! use fq_relational::{Schema, State, Value};
//!
//! let state = State::new(Schema::new().with_relation("F", 2))
//!     .with_tuple("F", vec![Value::Nat(1), Value::Nat(2)])
//!     .with_tuple("F", vec![Value::Nat(1), Value::Nat(3)]);
//! let exec = Executor::default();
//! let out = exec
//!     .execute(&state, "exists y z. y != z & F(x, y) & F(x, z)", DomainId::Eq)?;
//! assert_eq!(out.plan.strategy(), "algebra");
//! assert_eq!(out.rows, vec![vec![Value::Nat(1)]]);
//! # Ok::<(), fq_query::QueryError>(())
//! ```

pub mod compile;
pub mod error;
pub mod exec;
pub mod plan;
pub mod registry;
pub mod serve;

pub use compile::CompiledQuery;
pub use error::QueryError;
pub use exec::{Completeness, ExecStats, Executor, QueryOutcome, PLAN_CACHE_NAMESPACE};
pub use plan::{PlanOptions, PlannedQuery, Precheck, QueryPlan, RanfAux, RanfHalf, RanfMode};
pub use registry::{DomainId, DomainInfo, DomainRegistry, DOMAINS};
pub use serve::{Client, QueryService, Server};
