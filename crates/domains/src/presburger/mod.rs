//! Presburger arithmetic ⟨ℕ, <, +, =, divisibility⟩, decided by Cooper's
//! quantifier elimination.
//!
//! This is the canonical decidable *extension of ⟨ℕ, <⟩* that Theorem 2.2
//! covers ("this simple trick works for a great many domains, including
//! natural numbers with <, +, and −"), and it is the decision back-end for
//! the Theorem 2.5 relative-safety procedure in `fq-core`.

pub mod cooper;
pub mod linear;
pub mod pformula;

pub use cooper::{eliminate, eliminate_exists};
pub use linear::LinTerm;
pub use pformula::{from_logic, PAtom, PFormula};

use crate::domain::{require_sentence, DecidableTheory, Domain, DomainError};
use fq_logic::{Formula, Term};

/// The domain ⟨ℕ, <, ≤, +, −, succ, ·const, divisibility, =⟩.
///
/// Quantifiers range over ℕ; internally every quantifier is relativized to
/// `0 ≤ x` and the sentence decided over ℤ by Cooper's procedure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Presburger;

impl Presburger {
    /// Compute a quantifier-free equivalent (over ℕ, with quantifiers
    /// relativized) of a formula, rendered back into surface syntax.
    pub fn quantifier_free_equivalent(&self, f: &Formula) -> Result<Formula, DomainError> {
        let p = from_logic(f, true)?;
        Ok(eliminate(&p).to_logic())
    }

    /// Decide a sentence over the **integers** instead of ℕ (no
    /// relativization). Used by tests and by callers that want plain ℤ.
    pub fn decide_over_integers(&self, sentence: &Formula) -> Result<bool, DomainError> {
        require_sentence(sentence)?;
        let p = from_logic(sentence, false)?;
        Ok(eliminate(&p).eval_ground())
    }
}

impl Domain for Presburger {
    type Elem = u64;

    fn name(&self) -> String {
        "⟨N, <, +⟩ (Presburger)".to_string()
    }

    fn enumerate(&self, n: usize) -> Vec<u64> {
        (0..n as u64).collect()
    }

    fn elem_term(&self, e: &u64) -> Term {
        Term::Nat(*e)
    }

    fn parse_elem(&self, t: &Term) -> Option<u64> {
        match t {
            Term::Nat(n) => Some(*n),
            _ => None,
        }
    }
}

impl DecidableTheory for Presburger {
    fn decide(&self, sentence: &Formula) -> Result<bool, DomainError> {
        require_sentence(sentence)?;
        let p = from_logic(sentence, true)?;
        Ok(eliminate(&p).eval_ground())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fq_logic::parse_formula;

    fn decide(s: &str) -> bool {
        Presburger.decide(&parse_formula(s).unwrap()).unwrap()
    }

    #[test]
    fn nat_has_a_least_element() {
        // True over ℕ, false over ℤ.
        let s = "exists y. forall x. y <= x";
        assert!(decide(s));
        assert!(!Presburger
            .decide_over_integers(&parse_formula(s).unwrap())
            .unwrap());
    }

    #[test]
    fn zero_is_the_least_element() {
        assert!(decide("forall x. 0 <= x"));
        assert!(!decide("exists x. x < 0"));
    }

    #[test]
    fn no_maximum() {
        assert!(decide("forall x. exists y. x < y"));
        assert!(!decide("exists x. forall y. y <= x"));
    }

    #[test]
    fn subtraction_is_interpreted_as_integer_minus() {
        // `x - y` in a formula is linear-term subtraction; over ℕ the
        // sentence ∀x∀y (x - y = 0 → x = y) is false (x=0,y=1 gives -1 ≠ 0…
        // actually -1 ≠ 0 so the implication is vacuous) — pick a sharper
        // test: ∀x (x + 1 - 1 = x).
        assert!(decide("forall x. x + 1 - 1 = x"));
    }

    #[test]
    fn addition_facts() {
        assert!(decide("forall x y. x + y = y + x"));
        assert!(decide("forall x. exists y. y = x + x"));
        assert!(!decide("forall x. exists y. x = y + y"));
        assert!(decide("forall x. exists y. x = y + y | x = y + y + 1"));
    }

    #[test]
    fn equivalence_helper() {
        let a = parse_formula("x < 3").unwrap();
        let b = parse_formula("x = 0 | x = 1 | x = 2").unwrap();
        assert!(Presburger.equivalent(&a, &b).unwrap());
        let c = parse_formula("x < 4").unwrap();
        assert!(!Presburger.equivalent(&a, &c).unwrap());
    }

    #[test]
    fn qf_equivalent_is_quantifier_free() {
        let f = parse_formula("exists y. x < y & y < x + 3").unwrap();
        let qf = Presburger.quantifier_free_equivalent(&f).unwrap();
        assert!(qf.is_quantifier_free());
    }

    #[test]
    fn rejects_open_sentences() {
        assert!(matches!(
            Presburger.decide(&parse_formula("x = 0").unwrap()),
            Err(DomainError::NotASentence { .. })
        ));
    }

    #[test]
    fn domain_trait_basics() {
        assert_eq!(Presburger.enumerate(3), vec![0, 1, 2]);
        assert_eq!(Presburger.elem_term(&7), Term::Nat(7));
        assert_eq!(Presburger.parse_elem(&Term::Nat(7)), Some(7));
        assert_eq!(Presburger.parse_elem(&Term::var("x")), None);
    }
}
