//! # fq-domains — query domains with decision procedures
//!
//! The paper evaluates the safety question over *domains*: an infinite set
//! of elements together with fixed (possibly infinite) functions and
//! relations. Section 1.1 argues that a practically usable domain must be
//! **recursive** and have a **decidable first-order theory** — decidability
//! is "in effect, equivalent to the ability to answer queries effectively".
//!
//! This crate implements every domain the paper discusses:
//!
//! | Module | Domain | Paper reference |
//! |---|---|---|
//! | [`eq`] | infinite domain, equality only | Section 2 opening |
//! | [`nat_order`] | ⟨ℕ, <⟩ | Fact 2.1, Theorems 2.2/2.5 |
//! | [`int_order`] | ⟨ℤ, <⟩ | "integers with < can be handled similarly" |
//! | [`presburger`] | ⟨ℕ, <, +⟩, decided by Cooper's QE | "this simple trick works for … Presburger arithmetic" |
//! | [`nat_succ`] | ⟨ℕ, ′⟩ (successor, no order) | Section 2.2, Theorems 2.6/2.7 |
//! | [`traces`] | the trace domain **T** and its Reach theory | Section 3 + Appendix |
//! | [`words`] | ⟨{1,&}*, ⊑⟩, length-lex words (iso to ⟨ℕ,<⟩) | Section 2.2 closing remark |
//!
//! Each domain implements [`Domain`] (recursive enumeration of elements)
//! and [`DecidableTheory`] (the decision procedure for pure-domain
//! sentences). The trace domain's decision procedure is the quantifier
//! elimination of Theorem A.3.
//!
//! Every decision procedure is one plain sequential function of its
//! input: no thread fan-out, no caches, no shared state. Reuse belongs
//! where the whole question is known — the query layer memoizes each
//! decided sentence's verdict, and the Section 1.1 enumerate-and-ask loop
//! its instantiated sentences.
//!
//! ```
//! use fq_domains::{DecidableTheory, Presburger, TraceDomain};
//! use fq_logic::parse_formula;
//!
//! // Presburger arithmetic, decided by Cooper's elimination.
//! let parity = parse_formula("forall x. div(2, x, 0) | div(2, x, 1)")?;
//! assert!(Presburger.decide(&parity)?);
//!
//! // The Theory of Traces, decided by the Theorem A.3 elimination.
//! let s = parse_formula("forall m0 w0. M(m0) & W(w0) -> exists p. P(m0, w0, p)")?;
//! assert!(TraceDomain.decide(&s)?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod domain;
pub mod eq;
pub mod int_order;
pub mod nat_order;
pub mod nat_succ;
pub mod presburger;
pub mod traces;
pub mod words;

pub use domain::{DecidableTheory, Domain, DomainError};
pub use eq::EqDomain;
pub use int_order::IntOrder;
pub use nat_order::NatOrder;
pub use nat_succ::NatSucc;
pub use presburger::Presburger;
pub use traces::TraceDomain;
pub use words::WordsLlex;
