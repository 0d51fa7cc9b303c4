//! Exhaustive enumeration of first-order formulas.
//!
//! Theorem 3.1 speaks of "a recursive enumeration φ₁(x), φ₂(x), … of
//! finite formulas"; both the positive syntaxes (which enumerate the
//! finitizations of *all* formulas) and the negative reduction (which
//! dovetails over machines × candidate formulas) need a concrete
//! enumeration of formulas. [`FormulaSpace`] enumerates every formula
//! over a fixed stock of predicates, constants, variables, and unary
//! functions, ordered by AST size.

use fq_logic::{Formula, Sym, Term};

/// A finitely-generated space of formulas.
///
/// Symbol names are [`Sym`]s (`Arc<str>`), so the per-atom name "clone"
/// in [`FormulaSpace::atoms`] is a reference-count bump, not a heap
/// allocation — enumeration used to allocate a fresh `String` for every
/// generated atom.
#[derive(Clone, Debug)]
pub struct FormulaSpace {
    /// Predicates as `(name, arity)`.
    pub predicates: Vec<(Sym, usize)>,
    /// Ground constant terms available as leaves.
    pub constants: Vec<Term>,
    /// Variable names available as leaves.
    pub variables: Vec<String>,
    /// Unary function symbols applicable to leaf terms.
    pub unary_functions: Vec<Sym>,
    /// Include equality atoms.
    pub with_equality: bool,
}

impl FormulaSpace {
    /// Leaf terms: variables, constants, and single applications of the
    /// unary functions to them.
    fn terms(&self) -> Vec<Term> {
        let vars: Vec<Sym> = self.variables.iter().map(Sym::from).collect();
        let mut base: Vec<Term> = vars
            .into_iter()
            .map(Term::Var)
            .chain(self.constants.iter().cloned())
            .collect();
        let mut wrapped = Vec::new();
        for f in &self.unary_functions {
            for t in &base {
                wrapped.push(Term::App(f.clone(), vec![t.clone()]));
            }
        }
        base.extend(wrapped);
        base
    }

    /// All atoms of the space, predicate by predicate, then equalities.
    pub fn atoms(&self) -> Vec<Formula> {
        let terms = self.terms();
        let mut out = Vec::new();
        for (name, arity) in &self.predicates {
            let mut idx = vec![0usize; *arity];
            loop {
                out.push(Formula::Pred(
                    name.clone(),
                    idx.iter().map(|&i| terms[i].clone()).collect(),
                ));
                let mut pos = 0;
                loop {
                    if pos == *arity {
                        break;
                    }
                    idx[pos] += 1;
                    if idx[pos] < terms.len() {
                        break;
                    }
                    idx[pos] = 0;
                    pos += 1;
                }
                if pos == *arity {
                    break;
                }
            }
        }
        if self.with_equality {
            for a in &terms {
                for b in &terms {
                    out.push(Formula::eq(a.clone(), b.clone()));
                }
            }
        }
        out
    }

    /// Iterate over all formulas of the space, by increasing *rank*
    /// (connective depth), atoms first. Within a rank, formulas follow
    /// the construction order. Every formula of the space appears exactly
    /// once at its minimal rank.
    pub fn iter(&self) -> FormulaIter<'_> {
        FormulaIter {
            space: self,
            ranks: Vec::new(),
            rank: 0,
            index: 0,
        }
    }

    /// Formulas of exactly the given rank: rank 0 is the atoms; rank
    /// `n + 1` applies one connective or quantifier to rank-≤n formulas
    /// (with at least one operand of rank exactly n, avoiding duplicates).
    #[allow(clippy::needless_range_loop)]
    fn formulas_of_rank(&self, ranks: &[Vec<Formula>], n: usize) -> Vec<Formula> {
        if n == 0 {
            return self.atoms();
        }
        let mut out = Vec::new();
        let prev = &ranks[n - 1];
        // Negation of rank-(n−1) formulas.
        for f in prev {
            out.push(Formula::Not(Box::new(f.clone())));
        }
        // Quantifiers over rank-(n−1) formulas.
        for v in &self.variables {
            for f in prev {
                out.push(Formula::Exists(v.clone(), Box::new(f.clone())));
                out.push(Formula::Forall(v.clone(), Box::new(f.clone())));
            }
        }
        // Binary connectives with max rank = n−1.
        for i in 0..n {
            for a in &ranks[i] {
                for b in prev {
                    out.push(Formula::And(vec![a.clone(), b.clone()]));
                    out.push(Formula::Or(vec![a.clone(), b.clone()]));
                }
            }
        }
        for a in prev {
            for j in 0..n.saturating_sub(1) {
                for b in &ranks[j] {
                    out.push(Formula::And(vec![a.clone(), b.clone()]));
                    out.push(Formula::Or(vec![a.clone(), b.clone()]));
                }
            }
        }
        out
    }
}

/// Iterator over a [`FormulaSpace`].
pub struct FormulaIter<'a> {
    space: &'a FormulaSpace,
    ranks: Vec<Vec<Formula>>,
    rank: usize,
    index: usize,
}

impl Iterator for FormulaIter<'_> {
    type Item = Formula;

    fn next(&mut self) -> Option<Formula> {
        loop {
            if self.rank == self.ranks.len() {
                let next = self.space.formulas_of_rank(&self.ranks, self.rank);
                if next.is_empty() {
                    return None;
                }
                self.ranks.push(next);
            }
            if self.index < self.ranks[self.rank].len() {
                let f = self.ranks[self.rank][self.index].clone();
                self.index += 1;
                return Some(f);
            }
            self.rank += 1;
            self.index = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_space() -> FormulaSpace {
        FormulaSpace {
            predicates: vec![("R".into(), 1)],
            constants: vec![Term::Nat(0)],
            variables: vec!["x".to_string()],
            unary_functions: vec![],
            with_equality: true,
        }
    }

    #[test]
    fn atoms_of_tiny_space() {
        let atoms = tiny_space().atoms();
        // R(x), R(0), and 4 equalities over {x, 0}.
        assert_eq!(atoms.len(), 2 + 4);
    }

    #[test]
    fn enumeration_is_duplicate_free_in_prefix() {
        let formulas: Vec<Formula> = tiny_space().iter().take(500).collect();
        let set: std::collections::BTreeSet<String> =
            formulas.iter().map(|f| f.to_string()).collect();
        assert_eq!(set.len(), formulas.len());
    }

    #[test]
    fn enumeration_reaches_quantified_formulas() {
        let found = tiny_space()
            .iter()
            .take(5000)
            .any(|f| f.to_string() == "exists x. R(x)");
        assert!(found);
    }

    #[test]
    fn enumeration_reaches_boolean_combinations() {
        let target = "R(x) & x = 0";
        let found = tiny_space()
            .iter()
            .take(5000)
            .any(|f| f.to_string() == target);
        assert!(found);
    }

    #[test]
    fn unary_functions_appear_in_terms() {
        let space = FormulaSpace {
            predicates: vec![],
            constants: vec![],
            variables: vec!["x".to_string()],
            unary_functions: vec!["w".into()],
            with_equality: true,
        };
        let atoms = space.atoms();
        assert!(atoms
            .iter()
            .any(|f| matches!(f, Formula::Eq(Term::App(n, _), _) if n == "w")));
    }

    #[test]
    fn empty_space_yields_nothing() {
        let space = FormulaSpace {
            predicates: vec![],
            constants: vec![],
            variables: vec![],
            unary_functions: vec![],
            with_equality: false,
        };
        assert_eq!(space.iter().count(), 0);
    }
}
