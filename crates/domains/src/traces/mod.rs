//! The trace domain **T** of Section 3 and its Reach theory.
//!
//! The domain is the set of all strings over the four-letter alphabet
//! `{1, &, *, #}`; the only signature predicate is the ternary `P(M, w, p)`
//! ("p is a trace of machine M in word w"), plus equality and constants
//! for every string. Despite encoding *all possible computations*, the
//! first-order theory is decidable (Corollary A.4) — this module's
//! [`TraceDomain::decide`] implements that decision procedure via the
//! quantifier elimination of Theorem A.3 in [`qe`].

pub mod ground;
pub mod lemma_a2;
pub mod qe;
pub mod rterm;

pub use lemma_a2::DESystem;
pub use rterm::{from_logic, RAtom, RFormula, RTerm};

use crate::domain::{require_sentence, DecidableTheory, Domain, DomainError};
use fq_logic::{Formula, Term};

/// The trace domain **T**.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceDomain;

impl TraceDomain {
    /// Compute a quantifier-free Reach-theory equivalent of a formula.
    pub fn quantifier_eliminate(&self, f: &Formula) -> Result<RFormula, DomainError> {
        Ok(qe::eliminate(&from_logic(f)?))
    }
}

/// Canonical enumeration of all strings over `{1, &, *, #}` by length,
/// then lexicographically.
pub fn enumerate_strings(n: usize) -> Vec<String> {
    const ALPHABET: [char; 4] = ['1', '&', '*', '#'];
    let mut out = Vec::with_capacity(n);
    let mut layer = vec![String::new()];
    while out.len() < n {
        for s in &layer {
            out.push(s.clone());
            if out.len() == n {
                return out;
            }
        }
        let mut next = Vec::with_capacity(layer.len() * 4);
        for s in &layer {
            for c in ALPHABET {
                next.push(format!("{s}{c}"));
            }
        }
        layer = next;
    }
    out
}

impl Domain for TraceDomain {
    type Elem = String;

    fn name(&self) -> String {
        "T (the domain of traces)".to_string()
    }

    fn enumerate(&self, n: usize) -> Vec<String> {
        enumerate_strings(n)
    }

    fn elem_term(&self, e: &String) -> Term {
        Term::Str(e.clone())
    }

    fn parse_elem(&self, t: &Term) -> Option<String> {
        match t {
            Term::Str(s) if fq_turing::sym::in_domain_alphabet(s) => Some(s.clone()),
            _ => None,
        }
    }

    /// Guided candidates for query answering: the query's string literals,
    /// their `w`/`m` projections, and — for every machine literal × word
    /// literal pair — the traces of the machine in the word (up to 256
    /// snapshots). The answers of the Section 3 queries `P(M, c, x)` are
    /// exactly such traces.
    fn guided_elements(&self, query: &Formula) -> Vec<String> {
        use fq_turing::decode_machine;
        use fq_turing::sym::{classify, Sort};
        use fq_turing::trace::trace_string;
        let (_, strs) = query.literal_constants();
        let mut out: Vec<String> = Vec::new();
        let mut machines = Vec::new();
        let mut words = vec![String::new()];
        for s in &strs {
            out.push(s.clone());
            match classify(s) {
                Sort::Machine => {
                    if let Some(m) = decode_machine(s) {
                        machines.push(m);
                    }
                }
                Sort::Word => words.push(s.clone()),
                Sort::Trace => {
                    if let Some(info) = fq_turing::trace::validate_trace(s) {
                        out.push(info.machine_str.clone());
                        out.push(info.word.clone());
                        machines.push(info.machine);
                        words.push(info.word);
                    }
                }
                Sort::Other => {}
            }
        }
        for m in &machines {
            for w in &words {
                for k in 1..=256 {
                    match trace_string(m, w, k) {
                        Some(t) => out.push(t),
                        None => break,
                    }
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

impl DecidableTheory for TraceDomain {
    fn decide(&self, sentence: &Formula) -> Result<bool, DomainError> {
        require_sentence(sentence)?;
        qe::decide(&from_logic(sentence)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fq_logic::parse_formula;

    #[test]
    fn enumeration_starts_with_short_strings() {
        let e = enumerate_strings(6);
        assert_eq!(e, vec!["", "1", "&", "*", "#", "11"]);
    }

    #[test]
    fn enumeration_has_no_duplicates() {
        let e = enumerate_strings(500);
        let set: std::collections::BTreeSet<_> = e.iter().collect();
        assert_eq!(set.len(), e.len());
    }

    #[test]
    fn domain_trait_basics() {
        let d = TraceDomain;
        assert_eq!(d.elem_term(&"1&".to_string()), Term::Str("1&".into()));
        assert_eq!(
            d.parse_elem(&Term::Str("1*".into())),
            Some("1*".to_string())
        );
        assert_eq!(d.parse_elem(&Term::Str("abc".into())), None);
        assert_eq!(d.parse_elem(&Term::Nat(3)), None);
    }

    #[test]
    fn decide_simple_sentences() {
        assert!(TraceDomain
            .decide(&parse_formula("exists x. x = \"1&\"").unwrap())
            .unwrap());
        assert!(TraceDomain
            .decide(&parse_formula("forall x. x = x").unwrap())
            .unwrap());
        assert!(!TraceDomain
            .decide(&parse_formula("exists x. x != x").unwrap())
            .unwrap());
    }

    #[test]
    fn decide_rejects_open_formulas() {
        assert!(TraceDomain
            .decide(&parse_formula("P(x, y, z)").unwrap())
            .is_err());
    }
}
