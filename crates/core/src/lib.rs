//! # fq-core — the safety theory of Stolboushkin & Taitslin
//!
//! This crate implements the paper's contribution proper, on top of the
//! logic kernel (`fq-logic`), the Turing substrate (`fq-turing`), the
//! decidable domains (`fq-domains`), and the relational layer
//! (`fq-relational`):
//!
//! * [`answer`] — the Section 1.1 algorithm: over any recursive domain
//!   with a decidable theory, *finite* queries are effectively answerable
//!   by enumerate-and-ask;
//! * [`mod@finitize`] — the Theorem 2.2 finitization transform, a recursive
//!   syntax for finite queries over any extension of ⟨ℕ, <⟩;
//! * [`syntax`] — effective-syntax enumerators: active-domain syntax for
//!   the equality domain, finitization syntax for ⟨ℕ, <⟩/Presburger, the
//!   extended-active-domain syntax of Theorem 2.7 for ⟨ℕ, ′⟩, and the
//!   Corollary 2.4 order extension (with its Corollary 3.2 caveat);
//! * [`relative`] — relative-safety deciders: the fresh-element test for
//!   equality (Section 2), Theorem 2.5 for decidable extensions of
//!   ⟨ℕ, <⟩, Theorem 2.6 for ⟨ℕ, ′⟩, and the Theorem 3.3 *reduction from
//!   the halting problem* showing relative safety undecidable over **T**;
//! * [`negative`] — the Theorem 3.1 reduction: any effective syntax for
//!   the finite queries of **T** yields a recursive enumeration of the
//!   total Turing machines; running it on concrete candidate syntaxes
//!   produces explicit total machines the candidate misses;
//! * [`enumerate`] — exhaustive enumeration of formulas (Theorem 3.1
//!   requires "a recursive enumeration φ₁(x), φ₂(x), …");
//! * [`finrep`] — the Section 1.2 alternative: finitely-representable
//!   (constraint) relations over Presburger arithmetic, with membership,
//!   algebraic operations, projection via Cooper, and a finiteness test.
//!
//! Every procedure here runs sequentially on the calling thread. The one
//! use of the shared engine is [`answer_query_with`]'s memo of decided
//! sentences (`core.answer.decide`), which the query layer shares across
//! executions.
//!
//! ```
//! use fq_core::finitize;
//! use fq_domains::{DecidableTheory, Presburger};
//! use fq_logic::parse_formula;
//!
//! // Theorem 2.2 in one breath: a formula is finite over ⟨N,<,+⟩ iff it
//! // is equivalent to its finitization.
//! let finite = parse_formula("x < 7")?;
//! assert!(Presburger.equivalent(&finite, &finitize(&finite))?);
//! let infinite = parse_formula("x > 7")?;
//! assert!(!Presburger.equivalent(&infinite, &finitize(&infinite))?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod answer;
pub mod enumerate;
pub mod finitize;
pub mod finrep;
pub mod negative;
pub mod relative;
pub mod safety;
pub mod syntax;

pub use answer::{answer_query, answer_query_with, AnswerOutcome};
pub use finitize::finitize;
pub use safety::{totality_query, SafetyVerdict};
