//! Evaluation of formulas over a finite universe slice.
//!
//! Quantifiers range over an explicitly supplied finite set of elements.
//! This gives exactly the *active-domain semantics* used throughout the
//! paper's Section 2 (and, with a large enough slice, bounded model checking
//! for testing the quantifier-elimination procedures of `fq-domains`).
//! It is the one calculus evaluator: variables live in a string-keyed
//! [`Assignment`], which keeps it simple enough to serve as the reference
//! the relational algebra is tested against, the equality domain's
//! decider and the relative-safety test's evaluator. No query plan runs
//! it; safe-range queries compile to algebra.

use crate::error::LogicError;
use crate::formula::Formula;
use crate::term::Term;
use std::collections::BTreeMap;
use std::fmt::Debug;

/// An interpretation of the non-logical symbols over elements of type
/// [`Interpretation::Elem`].
pub trait Interpretation {
    /// The element type of the structure.
    type Elem: Clone + Eq + Ord + Debug;

    /// Interpret a natural-number literal.
    fn nat(&self, n: u64) -> Result<Self::Elem, LogicError>;

    /// Interpret a string literal.
    fn str_lit(&self, s: &str) -> Result<Self::Elem, LogicError> {
        Err(LogicError::eval(format!(
            "string literal \"{s}\" has no interpretation in this structure"
        )))
    }

    /// Interpret a named constant (nullary application).
    fn named_const(&self, name: &str) -> Result<Self::Elem, LogicError> {
        Err(LogicError::eval(format!("unknown constant `{name}`")))
    }

    /// Interpret a function application.
    fn func(&self, name: &str, args: &[Self::Elem]) -> Result<Self::Elem, LogicError>;

    /// Interpret a predicate application.
    fn pred(&self, name: &str, args: &[Self::Elem]) -> Result<bool, LogicError>;
}

/// A variable assignment.
pub type Assignment<E> = BTreeMap<String, E>;

/// Evaluate a term under an interpretation and assignment.
pub fn eval_term<I: Interpretation>(
    interp: &I,
    env: &Assignment<I::Elem>,
    term: &Term,
) -> Result<I::Elem, LogicError> {
    match term {
        Term::Var(v) => env
            .get(v.as_str())
            .cloned()
            .ok_or_else(|| LogicError::eval(format!("unbound variable `{v}`"))),
        Term::Nat(n) => interp.nat(*n),
        Term::Str(s) => interp.str_lit(s),
        Term::App(name, args) => {
            if args.is_empty() {
                interp.named_const(name)
            } else {
                let vals: Result<Vec<_>, _> =
                    args.iter().map(|a| eval_term(interp, env, a)).collect();
                interp.func(name, &vals?)
            }
        }
    }
}

/// Evaluate a formula with quantifiers ranging over `universe`.
pub fn eval<I: Interpretation>(
    interp: &I,
    universe: &[I::Elem],
    env: &mut Assignment<I::Elem>,
    formula: &Formula,
) -> Result<bool, LogicError> {
    match formula {
        Formula::True => Ok(true),
        Formula::False => Ok(false),
        Formula::Pred(name, args) => {
            let vals: Result<Vec<_>, _> = args.iter().map(|a| eval_term(interp, env, a)).collect();
            interp.pred(name, &vals?)
        }
        Formula::Eq(a, b) => Ok(eval_term(interp, env, a)? == eval_term(interp, env, b)?),
        Formula::Not(f) => Ok(!eval(interp, universe, env, f)?),
        Formula::And(fs) => {
            for f in fs {
                if !eval(interp, universe, env, f)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Or(fs) => {
            for f in fs {
                if eval(interp, universe, env, f)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::Implies(a, b) => {
            Ok(!eval(interp, universe, env, a)? || eval(interp, universe, env, b)?)
        }
        Formula::Iff(a, b) => {
            Ok(eval(interp, universe, env, a)? == eval(interp, universe, env, b)?)
        }
        Formula::Exists(v, body) => {
            let saved = env.get(v).cloned();
            let mut found = false;
            for e in universe {
                env.insert(v.clone(), e.clone());
                if eval(interp, universe, env, body)? {
                    found = true;
                    break;
                }
            }
            restore(env, v, saved);
            Ok(found)
        }
        Formula::Forall(v, body) => {
            let saved = env.get(v).cloned();
            let mut all = true;
            for e in universe {
                env.insert(v.clone(), e.clone());
                if !eval(interp, universe, env, body)? {
                    all = false;
                    break;
                }
            }
            restore(env, v, saved);
            Ok(all)
        }
    }
}

fn restore<E>(env: &mut Assignment<E>, var: &str, saved: Option<E>) {
    match saved {
        Some(old) => {
            env.insert(var.to_string(), old);
        }
        None => {
            env.remove(var);
        }
    }
}

/// Evaluate a sentence (no free variables) over a finite universe.
pub fn eval_sentence<I: Interpretation>(
    interp: &I,
    universe: &[I::Elem],
    sentence: &Formula,
) -> Result<bool, LogicError> {
    eval(interp, universe, &mut Assignment::new(), sentence)
}

/// Enumerate all assignments of `universe` elements to `vars` that satisfy
/// the formula. Returns tuples in the order of `vars`.
///
/// This is the brute-force "answer the query over the active domain"
/// operation; `fq-relational` layers schema handling on top of it.
pub fn solutions<I: Interpretation>(
    interp: &I,
    universe: &[I::Elem],
    vars: &[String],
    formula: &Formula,
) -> Result<Vec<Vec<I::Elem>>, LogicError> {
    let mut out = Vec::new();
    let mut env = Assignment::new();
    let mut prefix = Vec::with_capacity(vars.len());
    enumerate(
        interp,
        universe,
        vars,
        formula,
        &mut env,
        &mut prefix,
        &mut out,
    )?;
    Ok(out)
}

fn enumerate<I: Interpretation>(
    interp: &I,
    universe: &[I::Elem],
    vars: &[String],
    formula: &Formula,
    env: &mut Assignment<I::Elem>,
    prefix: &mut Vec<I::Elem>,
    out: &mut Vec<Vec<I::Elem>>,
) -> Result<(), LogicError> {
    match vars.split_first() {
        None => {
            if eval(interp, universe, env, formula)? {
                // `prefix` holds the values of the original vars in order,
                // built front-to-back — no per-row front insertion.
                out.push(prefix.clone());
            }
            Ok(())
        }
        Some((first, rest)) => {
            for e in universe {
                env.insert(first.clone(), e.clone());
                prefix.push(e.clone());
                enumerate(interp, universe, rest, formula, env, prefix, out)?;
                prefix.pop();
            }
            env.remove(first);
            Ok(())
        }
    }
}

/// A trivial interpretation over `u64` with the standard arithmetic symbols
/// (`+`, `-` saturating, `*`, `succ`) and comparisons. Handy in tests and as
/// the evaluation backend for the numeric domains.
#[derive(Clone, Copy, Debug, Default)]
pub struct NatInterpretation;

impl Interpretation for NatInterpretation {
    type Elem = u64;

    fn nat(&self, n: u64) -> Result<u64, LogicError> {
        Ok(n)
    }

    fn func(&self, name: &str, args: &[u64]) -> Result<u64, LogicError> {
        match (name, args) {
            ("succ", [a]) => Ok(a + 1),
            ("+", [a, b]) => Ok(a + b),
            ("-", [a, b]) => Ok(a.saturating_sub(*b)),
            ("*", [a, b]) => Ok(a * b),
            _ => Err(LogicError::eval(format!(
                "unknown function `{name}`/{} over naturals",
                args.len()
            ))),
        }
    }

    fn pred(&self, name: &str, args: &[u64]) -> Result<bool, LogicError> {
        match (name, args) {
            ("<", [a, b]) => Ok(a < b),
            ("<=", [a, b]) => Ok(a <= b),
            (">", [a, b]) => Ok(a > b),
            (">=", [a, b]) => Ok(a >= b),
            _ => Err(LogicError::eval(format!(
                "unknown predicate `{name}`/{} over naturals",
                args.len()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_formula;

    fn universe(n: u64) -> Vec<u64> {
        (0..n).collect()
    }

    #[test]
    fn ground_arithmetic() {
        let f = parse_formula("2 * 3 + 1 = 7").unwrap();
        assert!(eval_sentence(&NatInterpretation, &universe(1), &f).unwrap());
    }

    #[test]
    fn exists_over_universe() {
        let f = parse_formula("exists x. x + x = 6").unwrap();
        assert!(eval_sentence(&NatInterpretation, &universe(10), &f).unwrap());
        // 3 is outside a universe of {0,1,2}.
        assert!(!eval_sentence(&NatInterpretation, &universe(3), &f).unwrap());
    }

    #[test]
    fn forall_over_universe() {
        let f = parse_formula("forall x. x < 10").unwrap();
        assert!(eval_sentence(&NatInterpretation, &universe(10), &f).unwrap());
        assert!(!eval_sentence(&NatInterpretation, &universe(11), &f).unwrap());
    }

    #[test]
    fn nested_quantifiers() {
        // Every element has a strict upper bound within the universe — false
        // for the maximum.
        let f = parse_formula("forall x. exists y. x < y").unwrap();
        assert!(!eval_sentence(&NatInterpretation, &universe(5), &f).unwrap());
        let g = parse_formula("exists x. forall y. y <= x").unwrap();
        assert!(eval_sentence(&NatInterpretation, &universe(5), &g).unwrap());
    }

    #[test]
    fn quantifier_restores_environment() {
        // After evaluating `exists x`, an outer binding of x must survive.
        let f = parse_formula("exists x. x = 1").unwrap();
        let mut env = Assignment::new();
        env.insert("x".to_string(), 42u64);
        assert!(eval(&NatInterpretation, &universe(3), &mut env, &f).unwrap());
        assert_eq!(env.get("x"), Some(&42));
    }

    #[test]
    fn unbound_variable_is_error() {
        let f = parse_formula("x = 1").unwrap();
        assert!(eval_sentence(&NatInterpretation, &universe(3), &f).is_err());
    }

    #[test]
    fn solutions_enumeration() {
        let f = parse_formula("x + y = 3").unwrap();
        let sols = solutions(
            &NatInterpretation,
            &universe(4),
            &["x".to_string(), "y".to_string()],
            &f,
        )
        .unwrap();
        assert_eq!(sols, vec![vec![0, 3], vec![1, 2], vec![2, 1], vec![3, 0]]);
    }

    #[test]
    fn solutions_empty_when_unsat() {
        let f = parse_formula("x < x").unwrap();
        let sols = solutions(&NatInterpretation, &universe(4), &["x".to_string()], &f).unwrap();
        assert!(sols.is_empty());
    }

    #[test]
    fn iff_and_implies() {
        let f = parse_formula("(1 < 2 -> 2 < 3) <-> true").unwrap();
        assert!(eval_sentence(&NatInterpretation, &universe(1), &f).unwrap());
    }
}
