//! # fq-logic — first-order logic kernel
//!
//! The query language of the relational calculus, as used throughout
//! Stolboushkin & Taitslin, *"Finite Queries Do Not Have Effective Syntax"*
//! (PODS 1995), is plain first-order logic over a domain signature extended
//! with database relation symbols. This crate provides that language:
//!
//! * [`Term`] and [`Formula`] — the abstract syntax, with n-ary conjunction
//!   and disjunction (convenient for the quantifier-elimination procedures in
//!   `fq-domains`);
//! * a [`parser`] and pretty-printer with a round-trip guarantee;
//! * standard transforms: negation normal form, prenex normal form,
//!   disjunctive normal form of quantifier-free formulas, and a
//!   constant-folding simplifier ([`transform`]);
//! * capture-avoiding substitution and fresh-variable generation ([`subst`]);
//! * signatures with arity checking ([`signature`]);
//! * evaluation over a finite universe slice ([`mod@eval`]), used for
//!   active-domain semantics and for bounded model checking in tests.
//!
//! ## Example
//!
//! ```
//! use fq_logic::{parse_formula, transform::nnf};
//!
//! // The paper's Section 1 query M(x): "x has at least two sons".
//! let m = parse_formula("exists y. exists z. y != z & F(x, y) & F(x, z)").unwrap();
//! assert_eq!(m.free_vars(), ["x".to_string()].into_iter().collect());
//! let n = nnf(&m);
//! assert!(n.to_string().contains("exists"));
//! ```

pub mod error;
pub mod eval;
pub mod formula;
pub mod parser;
pub mod signature;
pub mod subst;
pub mod term;
pub mod transform;

pub use error::LogicError;
pub use eval::{eval, eval_sentence, Assignment, Interpretation};
pub use formula::Formula;
pub use parser::{parse_formula, parse_term};
pub use signature::{Signature, SymbolKind};
pub use subst::{bind_constants, fresh_var, rename_bound, substitute, substitute_const};
pub use term::{Sym, Term};
