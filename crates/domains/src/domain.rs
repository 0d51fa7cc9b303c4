//! The domain abstraction.
//!
//! Per Section 1.1 of the paper, we only consider **recursive** domains —
//! every domain function and predicate is computable, and the elements can
//! be effectively enumerated — and we single out domains whose first-order
//! theory is **decidable**, because "if the domain theory is not decidable,
//! then the answers, whether finite or infinite, are not computable".

use fq_logic::{Formula, LogicError, Term};
use std::fmt::{Debug, Display};

/// Errors produced by domain decision procedures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DomainError {
    /// The formula uses a symbol the domain does not interpret.
    UnsupportedSymbol { symbol: String },
    /// A sentence was required but the formula has free variables.
    NotASentence { free: Vec<String> },
    /// The formula mixes element kinds the domain cannot compare.
    SortMismatch { detail: String },
    /// A resource budget was exhausted (used by semi-decision helpers).
    BudgetExhausted { detail: String },
    /// An underlying logic error.
    Logic(LogicError),
}

impl Display for DomainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DomainError::UnsupportedSymbol { symbol } => {
                write!(
                    f,
                    "symbol `{symbol}` is not part of this domain's signature"
                )
            }
            DomainError::NotASentence { free } => {
                write!(f, "expected a sentence, found free variables {free:?}")
            }
            DomainError::SortMismatch { detail } => write!(f, "sort mismatch: {detail}"),
            DomainError::BudgetExhausted { detail } => write!(f, "budget exhausted: {detail}"),
            DomainError::Logic(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DomainError {}

impl From<LogicError> for DomainError {
    fn from(e: LogicError) -> Self {
        DomainError::Logic(e)
    }
}

/// A recursive domain: a countable set of elements with computable
/// functions and predicates.
pub trait Domain {
    /// The element type.
    type Elem: Clone + Eq + Ord + Debug + Display;

    /// Human-readable domain name (e.g. `⟨N, <⟩`).
    fn name(&self) -> String;

    /// The first `n` elements of the domain's canonical enumeration
    /// a₁, a₂, … (used by the Section 1.1 query-answering algorithm).
    fn enumerate(&self, n: usize) -> Vec<Self::Elem>;

    /// The ground term denoting an element ("we have constants for all the
    /// elements of the domain").
    fn elem_term(&self, e: &Self::Elem) -> Term;

    /// Parse a ground term back into an element, if it denotes one.
    fn parse_elem(&self, t: &Term) -> Option<Self::Elem>;

    /// Domain-specific candidate elements likely to answer a query —
    /// a *reordering hint* for the Section 1.1 enumerate-and-ask loop.
    /// Completeness never depends on this: the canonical enumeration is
    /// always scanned afterwards.
    fn guided_elements(&self, _query: &Formula) -> Vec<Self::Elem> {
        Vec::new()
    }
}

/// A domain whose first-order theory is decidable.
pub trait DecidableTheory: Domain {
    /// Decide the truth of a pure-domain sentence.
    fn decide(&self, sentence: &Formula) -> Result<bool, DomainError>;

    /// Decide equivalence of two formulas with the same free variables by
    /// deciding the universally closed bi-implication.
    fn equivalent(&self, a: &Formula, b: &Formula) -> Result<bool, DomainError> {
        let mut free: Vec<String> = a.free_vars().into_iter().collect();
        for v in b.free_vars() {
            if !free.contains(&v) {
                free.push(v);
            }
        }
        let closed = Formula::forall_many(free, Formula::iff(a.clone(), b.clone()));
        self.decide(&closed)
    }
}

/// Check that a formula is a sentence, returning the free variables
/// otherwise. Shared by the `decide` implementations.
pub fn require_sentence(f: &Formula) -> Result<(), DomainError> {
    let free = f.free_vars();
    if free.is_empty() {
        Ok(())
    } else {
        Err(DomainError::NotASentence {
            free: free.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fq_logic::parse_formula;

    #[test]
    fn require_sentence_accepts_closed() {
        let f = parse_formula("exists x. x = x").unwrap();
        assert!(require_sentence(&f).is_ok());
    }

    #[test]
    fn require_sentence_rejects_open() {
        let f = parse_formula("x = y").unwrap();
        match require_sentence(&f) {
            Err(DomainError::NotASentence { free }) => {
                assert_eq!(free, vec!["x".to_string(), "y".to_string()]);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn error_display() {
        let e = DomainError::UnsupportedSymbol {
            symbol: "frob".into(),
        };
        assert!(e.to_string().contains("frob"));
    }
}
