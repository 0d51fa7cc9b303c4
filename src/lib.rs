//! # finite-queries
//!
//! Umbrella crate for the reproduction of Stolboushkin & Taitslin,
//! *"Finite Queries Do Not Have Effective Syntax"* (PODS 1995 / Information
//! and Computation 153, 1999).
//!
//! Re-exports the workspace crates under stable names:
//!
//! * [`logic`] — first-order logic kernel (AST, parser, transforms, eval);
//! * [`turing`] — Turing-machine substrate (encoding, execution, traces);
//! * [`domains`] — decidable domains, incl. the paper's trace domain **T**;
//! * [`relational`] — schemas, states, active-domain semantics, algebra;
//! * [`safety`] — the paper's contribution: finitization, effective-syntax
//!   enumerators, relative-safety deciders, and the negative reductions;
//! * [`engine`] — the shared memo caches and the deterministic parallel
//!   map behind the query layer's caches and the executors' fan-out (the
//!   decision procedures themselves are sequential);
//! * [`query`] — the unified compile → plan → execute pipeline with
//!   explain output and engine-backed plan and verdict caching.
//!
//! See `README.md` for a guided tour and `EXPERIMENTS.md` for the mapping
//! from the paper's theorems to runnable experiments.

pub use fq_core as safety;
pub use fq_domains as domains;
pub use fq_engine as engine;
pub use fq_logic as logic;
pub use fq_query as query;
pub use fq_relational as relational;
pub use fq_turing as turing;
