//! Quantifier elimination for the Reach Theory of Traces (Theorem A.3).
//!
//! Following the Appendix, eliminating `∃x ψ` (ψ a conjunction of literals)
//! proceeds by cases on the sort of `x`:
//!
//! * **Case M** — the `D`/`E` constraints on `x` (with constant second
//!   arguments after B-expansion) are satisfiable iff Lemma A.2 says so,
//!   and then "it is satisfiable for infinitely many different machines",
//!   absorbing the inequalities.
//! * **Case W** — after B-expansion every `D`/`E` atom has a constant
//!   word argument, so only prefix constraints and inequalities mention
//!   `x`; merged consistent prefixes leave infinitely many words.
//! * **Case T** — four subcases T−1 … T−4 depending on which of
//!   `m(x) = t`, `w(x) = v` are present; T−4 ends in the combinatorial
//!   disjunction over equality patterns of the excluded traces, producing
//!   `D_{n+1}(t, v)`.
//! * **Case O** — "a trivial case": only inequalities can mention `x`,
//!   and the sort of other words is infinite.
//!
//! The *B-expansion* step (paper: "Using B_v for all input words whose
//! length does not exceed the maximum of i₁ … j_l") rewrites
//! `D_i(t, u) ⟺ ⋁_{|w| = i−1} (B_w(u) ∧ D_i(t, w))` — sound because a
//! machine's first `i − 1` steps read at most the first `i − 1` padded
//! tape cells.

use super::ground::rsimplify;
use super::lemma_a2::DESystem;
use super::rterm::{RAtom, RFormula, RTerm};
use crate::domain::DomainError;
use fq_turing::sym::Sort;

/// Eliminate all quantifiers from a Reach formula, innermost first.
pub fn eliminate(f: &RFormula) -> RFormula {
    match f {
        RFormula::True | RFormula::False | RFormula::Atom(_) => rsimplify(f),
        RFormula::Not(g) => RFormula::not(eliminate(g)),
        RFormula::And(gs) => RFormula::and(gs.iter().map(eliminate)),
        RFormula::Or(gs) => RFormula::or(gs.iter().map(eliminate)),
        RFormula::Exists(v, g) => rsimplify(&eliminate_exists(v, &eliminate(g))),
        RFormula::Forall(v, g) => rsimplify(&RFormula::not(eliminate_exists(
            v,
            &RFormula::not(eliminate(g)),
        ))),
    }
}

/// Decide a Reach sentence: eliminate, then evaluate the ground residue.
pub fn decide(sentence: &RFormula) -> Result<bool, DomainError> {
    super::ground::eval_formula(&eliminate(sentence))
}

// ---------------------------------------------------------------------
// Normalization: positive form + B-expansion.
// ---------------------------------------------------------------------

/// The three sorts other than `s`.
fn other_sorts(s: Sort) -> [Sort; 3] {
    let all = [Sort::Machine, Sort::Word, Sort::Trace, Sort::Other];
    let mut out = [Sort::Machine; 3];
    let mut k = 0;
    for cand in all {
        if cand != s {
            out[k] = cand;
            k += 1;
        }
    }
    out
}

/// `¬W(t)` as a positive disjunction of the other sorts.
fn not_sort(s: Sort, t: &RTerm) -> RFormula {
    RFormula::or(
        other_sorts(s)
            .into_iter()
            .map(|o| RFormula::Atom(RAtom::IsSort(o, t.clone()))),
    )
}

/// Positive normal form: negations are rewritten into positive atoms
/// (only `≠` literals remain negative), and trivial `D`/`E` indices are
/// normalized (`D_0`, `D_1` ⟺ sorts are right; `E_0` ⟺ false).
fn positive(f: &RFormula, sign: bool) -> RFormula {
    match f {
        RFormula::True => {
            if sign {
                RFormula::True
            } else {
                RFormula::False
            }
        }
        RFormula::False => {
            if sign {
                RFormula::False
            } else {
                RFormula::True
            }
        }
        RFormula::Not(g) => positive(g, !sign),
        RFormula::And(gs) => {
            let parts = gs.iter().map(|g| positive(g, sign));
            if sign {
                RFormula::and(parts)
            } else {
                RFormula::or(parts)
            }
        }
        RFormula::Or(gs) => {
            let parts = gs.iter().map(|g| positive(g, sign));
            if sign {
                RFormula::or(parts)
            } else {
                RFormula::and(parts)
            }
        }
        RFormula::Exists(..) | RFormula::Forall(..) => {
            unreachable!("positive() is applied to quantifier-free formulas")
        }
        RFormula::Atom(a) => positive_atom(a, sign),
    }
}

fn positive_atom(a: &RAtom, sign: bool) -> RFormula {
    match (a, sign) {
        // D_0 / D_1 hold exactly when the arguments have the right sorts.
        (RAtom::AtLeast(i, t, u), _) if *i <= 1 => {
            let sorts = RFormula::and([
                RFormula::Atom(RAtom::IsSort(Sort::Machine, t.clone())),
                RFormula::Atom(RAtom::IsSort(Sort::Word, u.clone())),
            ]);
            positive(&sorts, sign)
        }
        (RAtom::Exact(0, ..), _) => {
            if sign {
                RFormula::False
            } else {
                RFormula::True
            }
        }
        (_, true) => RFormula::Atom(a.clone()),
        // Negations:
        (RAtom::IsSort(s, t), false) => not_sort(*s, t),
        (RAtom::Prefix(s, t), false) => {
            // ¬B_s(t) ⟺ t is not a word, or the padded prefix first
            // differs from s at some position k.
            let mut parts = vec![not_sort(Sort::Word, t)];
            for k in 0..s.len() {
                let mut flipped: String = s[..k].to_string();
                flipped.push(if s.as_bytes()[k] == b'1' { '&' } else { '1' });
                parts.push(RFormula::Atom(RAtom::Prefix(flipped, t.clone())));
            }
            RFormula::or(parts)
        }
        (RAtom::AtLeast(i, t, u), false) => {
            // ¬D_i ⟺ wrong sorts, or exactly j traces for some j < i.
            let mut parts = vec![not_sort(Sort::Machine, t), not_sort(Sort::Word, u)];
            for j in 1..*i {
                parts.push(RFormula::Atom(RAtom::Exact(j, t.clone(), u.clone())));
            }
            RFormula::or(parts)
        }
        (RAtom::Exact(j, t, u), false) => {
            // ¬E_j ⟺ wrong sorts, more than j, or exactly r < j.
            let mut parts = vec![
                not_sort(Sort::Machine, t),
                not_sort(Sort::Word, u),
                RFormula::Atom(RAtom::AtLeast(j + 1, t.clone(), u.clone())),
            ];
            for r in 1..*j {
                parts.push(RFormula::Atom(RAtom::Exact(r, t.clone(), u.clone())));
            }
            RFormula::or(parts)
        }
        (RAtom::Eq(..), false) => RFormula::Not(Box::new(RFormula::Atom(a.clone()))),
    }
}

/// All words over `{1, &}` of exactly length `n`.
fn words_of_length(n: usize) -> Vec<String> {
    let mut out = vec![String::new()];
    for _ in 0..n {
        let mut next = Vec::with_capacity(out.len() * 2);
        for w in out {
            next.push(format!("{w}1"));
            next.push(format!("{w}&"));
        }
        out = next;
    }
    out
}

/// B-expansion: rewrite every `D`/`E` atom whose second argument is not a
/// string constant into a disjunction over the relevant padded prefixes.
fn expand_word_arguments(f: &RFormula) -> RFormula {
    match f {
        RFormula::True | RFormula::False => f.clone(),
        RFormula::Not(g) => RFormula::not(expand_word_arguments(g)),
        RFormula::And(gs) => RFormula::and(gs.iter().map(expand_word_arguments)),
        RFormula::Or(gs) => RFormula::or(gs.iter().map(expand_word_arguments)),
        RFormula::Exists(v, g) => RFormula::Exists(v.clone(), Box::new(expand_word_arguments(g))),
        RFormula::Forall(v, g) => RFormula::Forall(v.clone(), Box::new(expand_word_arguments(g))),
        RFormula::Atom(a) => match a {
            RAtom::AtLeast(i, t, u) if u.value().is_none() && *i >= 2 => {
                // D_i depends on the padded prefix of length i−1.
                RFormula::or(words_of_length(i - 1).into_iter().map(|w| {
                    RFormula::and([
                        RFormula::Atom(RAtom::Prefix(w.clone(), u.clone())),
                        RFormula::Atom(RAtom::AtLeast(*i, t.clone(), RTerm::Lit(w))),
                    ])
                }))
            }
            RAtom::Exact(j, t, u) if u.value().is_none() && *j >= 1 => {
                // E_j depends on the padded prefix of length j.
                RFormula::or(words_of_length(*j).into_iter().map(|w| {
                    RFormula::and([
                        RFormula::Atom(RAtom::Prefix(w.clone(), u.clone())),
                        RFormula::Atom(RAtom::Exact(*j, t.clone(), RTerm::Lit(w))),
                    ])
                }))
            }
            _ => f.clone(),
        },
    }
}

// ---------------------------------------------------------------------
// DNF with opaque x-free pieces.
// ---------------------------------------------------------------------

type RLit = (bool, RAtom);

enum Piece {
    Lit(RLit),
    Opaque(RFormula),
}

/// A canonical DNF conjunct: deduplicated literal and opaque-residue sets.
type RConjunct = (
    std::collections::BTreeSet<RLit>,
    std::collections::BTreeSet<RFormula>,
);

/// Semantically prune a conjunct's literal set; `None` if contradictory.
///
/// Without this the distribution product explodes: a `∀y`-driven negation
/// of a `2^j`-way B-expansion turns into a product of `2^j` clauses with
/// ~7 branches each (sorts + prefix flips), i.e. `7^(2^j)` raw conjuncts —
/// almost all of which die on a sort clash or incompatible prefixes.
fn prune_conjunct(
    lits: std::collections::BTreeSet<RLit>,
) -> Option<std::collections::BTreeSet<RLit>> {
    use std::collections::BTreeMap;
    let mut out: std::collections::BTreeSet<RLit> = Default::default();
    let mut sorts: BTreeMap<RTerm, Sort> = BTreeMap::new();
    let mut prefixes: BTreeMap<RTerm, Vec<String>> = BTreeMap::new();

    for (sign, atom) in &lits {
        // Complementary literal pair.
        if lits.contains(&(!sign, atom.clone())) {
            return None;
        }
        match (atom, sign) {
            (RAtom::IsSort(s, t), true) => match sorts.get(t) {
                Some(prev) if prev != s => return None,
                _ => {
                    sorts.insert(t.clone(), *s);
                    out.insert((true, atom.clone()));
                }
            },
            (RAtom::Prefix(w, t), true) => {
                prefixes.entry(t.clone()).or_default().push(w.clone());
            }
            _ => {
                out.insert((*sign, atom.clone()));
            }
        }
    }
    // Prefixes only hold on words: a non-Word sort assertion clashes.
    for (t, ws) in prefixes {
        if let Some(s) = sorts.get(&t) {
            if *s != Sort::Word && !matches!(t, RTerm::WOf(_)) {
                return None;
            }
        }
        let merged = merge_prefixes(&ws)?;
        out.insert((true, RAtom::Prefix(merged, t)));
    }
    Some(out)
}

fn dnf_wrt(f: &RFormula, var: &str) -> std::collections::BTreeSet<RConjunct> {
    use std::collections::BTreeSet;
    if !f.mentions(var) {
        let mut c: RConjunct = Default::default();
        c.1.insert(f.clone());
        return [c].into();
    }
    match f {
        RFormula::True => [RConjunct::default()].into(),
        RFormula::False => BTreeSet::new(),
        RFormula::Atom(a) => {
            let mut c = RConjunct::default();
            c.0.insert((true, a.clone()));
            [c].into()
        }
        RFormula::Not(g) => match g.as_ref() {
            RFormula::Atom(a @ RAtom::Eq(..)) => {
                let mut c = RConjunct::default();
                c.0.insert((false, a.clone()));
                [c].into()
            }
            _ => unreachable!("positive() leaves only negated equalities"),
        },
        RFormula::Or(gs) => gs.iter().flat_map(|g| dnf_wrt(g, var)).collect(),
        RFormula::And(gs) => {
            let mut acc: BTreeSet<RConjunct> = [RConjunct::default()].into();
            for g in gs {
                let parts = dnf_wrt(g, var);
                let mut next: BTreeSet<RConjunct> = BTreeSet::new();
                for (a_lits, a_opq) in &acc {
                    for (b_lits, b_opq) in &parts {
                        let merged: BTreeSet<RLit> = a_lits.union(b_lits).cloned().collect();
                        let Some(pruned) = prune_conjunct(merged) else {
                            continue;
                        };
                        let opaque: BTreeSet<RFormula> = a_opq.union(b_opq).cloned().collect();
                        next.insert((pruned, opaque));
                    }
                }
                acc = next;
            }
            acc
        }
        RFormula::Exists(..) | RFormula::Forall(..) => unreachable!("QF input"),
    }
}

// ---------------------------------------------------------------------
// Eliminating one existential.
// ---------------------------------------------------------------------

/// Eliminate `∃var` over a quantifier-free body: one Theorem A.3 round
/// per conjunct of the B-expanded body's DNF with respect to `var`.
pub fn eliminate_exists(var: &str, qf: &RFormula) -> RFormula {
    if !qf.mentions(var) {
        return qf.clone();
    }
    let prepared = expand_word_arguments(&positive(&rsimplify(qf), true));
    RFormula::or(dnf_wrt(&prepared, var).into_iter().map(|(lits, opaque)| {
        let pieces = lits
            .into_iter()
            .map(Piece::Lit)
            .chain(opaque.into_iter().map(Piece::Opaque))
            .collect();
        rsimplify(&eliminate_conjunct(var, pieces))
    }))
}

fn eliminate_conjunct(var: &str, pieces: Vec<Piece>) -> RFormula {
    let mut residue: Vec<RFormula> = Vec::new();
    let mut x_lits: Vec<RLit> = Vec::new();
    for p in pieces {
        match p {
            Piece::Opaque(f) => residue.push(f),
            Piece::Lit((sign, a)) => {
                if a.mentions(var) {
                    x_lits.push((sign, a));
                } else {
                    let atom = RFormula::Atom(a);
                    residue.push(if sign { atom } else { RFormula::not(atom) });
                }
            }
        }
    }
    let residue = RFormula::and(residue);
    if x_lits.is_empty() {
        return residue;
    }
    let branches = [Sort::Machine, Sort::Word, Sort::Trace, Sort::Other]
        .into_iter()
        .map(|sort| eliminate_sorted(var, sort, &x_lits));
    RFormula::and([RFormula::or(branches), residue])
}

/// `∃x (sort(x) = S ∧ ⋀ lits)`, eliminated.
fn eliminate_sorted(var: &str, sort: Sort, lits: &[RLit]) -> RFormula {
    // Step 1: collapse w(x)/m(x) for non-trace sorts, then split literals
    // into x-free residue and sort-specific constraint shapes.
    let collapse = |t: &RTerm| -> RTerm {
        if sort != Sort::Trace {
            match t {
                RTerm::WOf(v) | RTerm::MOf(v) if v == var => RTerm::Lit(String::new()),
                other => other.clone(),
            }
        } else {
            t.clone()
        }
    };

    let mut residue: Vec<RFormula> = Vec::new();
    let mut neq_x: Vec<RTerm> = Vec::new();
    let mut prefix_x: Vec<String> = Vec::new(); // B_s(x), sort W
    let mut prefix_w: Vec<String> = Vec::new(); // B_s(w(x)), sort T
    let mut de_on_x: DESystem = DESystem::default(); // D/E(x, const), sort M
    let mut de_on_m: Vec<(bool, usize, String)> = Vec::new(); // (exact?, i, word) on m(x), sort T
    let mut m_eqs: Vec<RTerm> = Vec::new();
    let mut m_neqs: Vec<RTerm> = Vec::new();
    let mut w_eqs: Vec<RTerm> = Vec::new();
    let mut w_neqs: Vec<RTerm> = Vec::new();
    let mut eq_x: Option<RTerm> = None; // positive x = t (t x-free)

    for (sign, atom) in lits {
        let atom = match atom {
            RAtom::IsSort(s, t) => RAtom::IsSort(*s, collapse(t)),
            RAtom::Prefix(s, t) => RAtom::Prefix(s.clone(), collapse(t)),
            RAtom::AtLeast(i, a, b) => RAtom::AtLeast(*i, collapse(a), collapse(b)),
            RAtom::Exact(i, a, b) => RAtom::Exact(*i, collapse(a), collapse(b)),
            RAtom::Eq(a, b) => RAtom::Eq(collapse(a), collapse(b)),
        };
        if !atom.mentions(var) {
            let f = RFormula::Atom(atom);
            residue.push(if *sign { f } else { RFormula::not(f) });
            continue;
        }
        // Shape analysis under the sort assumption.
        match (&atom, *sign) {
            (RAtom::IsSort(s, RTerm::Var(_)), sign) => {
                if (*s == sort) != sign {
                    return RFormula::False;
                }
            }
            (RAtom::IsSort(s, RTerm::WOf(_)), sign) => {
                // w(x) is a word for traces (and ε, a word, otherwise).
                if (*s == Sort::Word) != sign {
                    return RFormula::False;
                }
            }
            (RAtom::IsSort(s, RTerm::MOf(_)), sign) => {
                // Under sort T, m(x) is a valid machine.
                if (*s == Sort::Machine) != sign {
                    return RFormula::False;
                }
            }
            (RAtom::Prefix(s, RTerm::Var(_)), sign) => {
                if sort == Sort::Word {
                    if sign {
                        prefix_x.push(s.clone());
                    } else {
                        unreachable!("positive() removed negated prefixes");
                    }
                } else if sign {
                    return RFormula::False;
                }
            }
            (RAtom::Prefix(s, RTerm::WOf(_)), true) => prefix_w.push(s.clone()),
            (RAtom::Prefix(_, RTerm::MOf(_)), true) => {
                // m(x) is a machine under sort T: never a word.
                return RFormula::False;
            }
            (RAtom::Prefix(..), false) => {
                unreachable!("positive() removed negated prefixes")
            }
            (RAtom::AtLeast(i, a, b) | RAtom::Exact(i, a, b), true) => {
                let exact = matches!(atom, RAtom::Exact(..));
                let word = match b.value() {
                    Some(w) if fq_turing::sym::classify(w) == Sort::Word => w.to_string(),
                    Some(_) => return RFormula::False, // constant non-word
                    None => unreachable!("expand_word_arguments made word args constant"),
                };
                match a {
                    RTerm::Var(_) => {
                        // x itself as the machine: only sort M.
                        if sort != Sort::Machine {
                            return RFormula::False;
                        }
                        if exact {
                            de_on_x.exactly.push((word, *i));
                        } else {
                            de_on_x.at_least.push((word, *i));
                        }
                    }
                    RTerm::MOf(_) => de_on_m.push((exact, *i, word)),
                    RTerm::WOf(_) | RTerm::Lit(_) => {
                        // w(x) (a word) or a constant that still mentions…
                        // a word is never a machine.
                        return RFormula::False;
                    }
                }
            }
            (RAtom::AtLeast(..) | RAtom::Exact(..), false) => {
                unreachable!("positive() removed negated D/E atoms")
            }
            (RAtom::IsSort(_, RTerm::Lit(_)), _) | (RAtom::Prefix(_, RTerm::Lit(_)), _) => {
                unreachable!("literal-argument atoms are x-free and handled above")
            }
            (RAtom::Eq(a, b), sign) => match resolve_equality(var, sort, a, b, sign) {
                EqShape::Bool(v) => {
                    if !v {
                        return RFormula::False;
                    }
                }
                EqShape::EqX(t) => match &eq_x {
                    None => eq_x = Some(t),
                    Some(prev) => {
                        residue.push(RFormula::Atom(RAtom::Eq(prev.clone(), t)));
                    }
                },
                EqShape::NeqX(t) => neq_x.push(t),
                EqShape::MEq(t) => m_eqs.push(t),
                EqShape::MNeq(t) => m_neqs.push(t),
                EqShape::WEq(t) => w_eqs.push(t),
                EqShape::WNeq(t) => w_neqs.push(t),
            },
        }
    }

    // Positive x = t: substitute t for x in the original literals and add
    // the sort constraint (the paper: "we can simply substitute t for x").
    if let Some(t) = eq_x {
        let mut parts = vec![RFormula::Atom(RAtom::IsSort(sort, t.clone()))];
        for (sign, atom) in lits {
            let substituted = RFormula::Atom(atom.subst(var, &t));
            parts.push(if *sign {
                substituted
            } else {
                RFormula::not(substituted)
            });
        }
        parts.push(RFormula::and(residue));
        return RFormula::and(parts);
    }

    // Merge positive prefixes (paper, Case W: "any conjunction
    // B_{s1}(x) ∧ … ∧ B_{sr}(x) is either equivalent to one of its
    // members, or it is false").
    let merged_w_prefix = match merge_prefixes(&prefix_w) {
        Some(p) => p,
        None => return RFormula::False,
    };
    if merge_prefixes(&prefix_x).is_none() {
        return RFormula::False;
    }

    let result = match sort {
        // Case O: only inequalities can constrain x; O is infinite.
        Sort::Other => RFormula::True,
        // Case W: a consistent merged prefix leaves infinitely many words.
        Sort::Word => RFormula::True,
        // Case M: Lemma A.2; satisfiable systems have infinitely many
        // machine witnesses, absorbing the inequalities.
        Sort::Machine => {
            if de_on_x.satisfiable() {
                RFormula::True
            } else {
                RFormula::False
            }
        }
        Sort::Trace => eliminate_trace_case(
            var,
            &m_eqs,
            &m_neqs,
            &w_eqs,
            &w_neqs,
            &de_on_m,
            &merged_w_prefix,
            &neq_x,
            &mut residue,
        ),
    };
    RFormula::and([result, RFormula::and(residue)])
}

enum EqShape {
    Bool(bool),
    EqX(RTerm),
    NeqX(RTerm),
    MEq(RTerm),
    MNeq(RTerm),
    WEq(RTerm),
    WNeq(RTerm),
}

/// Classify an equality literal mentioning `x` under a sort assumption.
/// Terms have already been collapsed for non-trace sorts.
fn resolve_equality(var: &str, sort: Sort, a: &RTerm, b: &RTerm, sign: bool) -> EqShape {
    let is_x = |t: &RTerm| matches!(t, RTerm::Var(v) if v == var);
    let is_wx = |t: &RTerm| matches!(t, RTerm::WOf(v) if v == var);
    let is_mx = |t: &RTerm| matches!(t, RTerm::MOf(v) if v == var);
    let x_free = |t: &RTerm| !t.mentions(var);

    // Both sides mention x.
    if a.mentions(var) && b.mentions(var) {
        let equal_shapes = (is_x(a) && is_x(b)) || (is_wx(a) && is_wx(b)) || (is_mx(a) && is_mx(b));
        if equal_shapes {
            return EqShape::Bool(sign);
        }
        // Distinct shapes under sort T denote elements of different sorts
        // (trace vs word vs machine), hence never equal.
        debug_assert_eq!(sort, Sort::Trace, "non-T sorts were collapsed");
        return EqShape::Bool(!sign);
    }

    let (x_side, other) = if a.mentions(var) { (a, b) } else { (b, a) };
    debug_assert!(x_free(other));
    if is_x(x_side) {
        return if sign {
            EqShape::EqX(other.clone())
        } else {
            EqShape::NeqX(other.clone())
        };
    }
    if is_wx(x_side) {
        return if sign {
            EqShape::WEq(other.clone())
        } else {
            EqShape::WNeq(other.clone())
        };
    }
    debug_assert!(is_mx(x_side));
    if sign {
        EqShape::MEq(other.clone())
    } else {
        EqShape::MNeq(other.clone())
    }
}

/// Merge padded prefixes; `None` on conflict.
fn merge_prefixes(prefixes: &[String]) -> Option<String> {
    let max_len = prefixes.iter().map(|p| p.len()).max().unwrap_or(0);
    let mut merged = Vec::with_capacity(max_len);
    for k in 0..max_len {
        // B_s only constrains positions below |s|; prefixes cover the
        // initial segment [0, |s|), so every position up to max_len is
        // constrained by at least one prefix.
        let mut c: Option<u8> = None;
        for p in prefixes {
            let Some(&pc) = p.as_bytes().get(k) else {
                continue;
            };
            match c {
                None => c = Some(pc),
                Some(prev) if prev != pc => return None,
                _ => {}
            }
        }
        merged.push(c.expect("position below max_len is covered"));
    }
    Some(String::from_utf8(merged).expect("ASCII"))
}

/// Case T of the elimination (subcases T−1 … T−4).
#[allow(clippy::too_many_arguments)]
fn eliminate_trace_case(
    _var: &str,
    m_eqs: &[RTerm],
    m_neqs: &[RTerm],
    w_eqs: &[RTerm],
    w_neqs: &[RTerm],
    de_on_m: &[(bool, usize, String)],
    merged_w_prefix: &str,
    neq_x: &[RTerm],
    residue: &mut Vec<RFormula>,
) -> RFormula {
    // Multiple equalities collapse to the first plus equations in the
    // residue ("different equalities of this form can be eliminated").
    let m_eq = m_eqs.first().cloned();
    for extra in m_eqs.iter().skip(1) {
        residue.push(RFormula::Atom(RAtom::Eq(
            m_eq.clone().expect("first exists"),
            extra.clone(),
        )));
    }
    let w_eq = w_eqs.first().cloned();
    for extra in w_eqs.iter().skip(1) {
        residue.push(RFormula::Atom(RAtom::Eq(
            w_eq.clone().expect("first exists"),
            extra.clone(),
        )));
    }

    match (m_eq, w_eq) {
        // T−1: satisfiability of the D/E system decides; everything else
        // is absorbed by the infinitude of machines, words, and traces.
        (None, None) => {
            let sys = DESystem {
                at_least: de_on_m
                    .iter()
                    .filter(|(e, ..)| !e)
                    .map(|(_, i, w)| (w.clone(), *i))
                    .collect(),
                exactly: de_on_m
                    .iter()
                    .filter(|(e, ..)| *e)
                    .map(|(_, i, w)| (w.clone(), *i))
                    .collect(),
            };
            if sys.satisfiable() {
                RFormula::True
            } else {
                RFormula::False
            }
        }
        // T−2: the machine is concrete; substitute it.
        (Some(t), None) => {
            let mut parts = vec![RFormula::Atom(RAtom::IsSort(Sort::Machine, t.clone()))];
            for (exact, i, w) in de_on_m {
                let atom = if *exact {
                    RAtom::Exact(*i, t.clone(), RTerm::Lit(w.clone()))
                } else {
                    RAtom::AtLeast(*i, t.clone(), RTerm::Lit(w.clone()))
                };
                parts.push(RFormula::Atom(atom));
            }
            for s in m_neqs {
                parts.push(RFormula::not(RFormula::Atom(RAtom::Eq(
                    t.clone(),
                    s.clone(),
                ))));
            }
            // Words matching the prefix are plentiful; w-inequalities and
            // trace-inequalities are absorbed.
            let _ = (merged_w_prefix, w_neqs, neq_x);
            RFormula::and(parts)
        }
        // T−3: the word is concrete; the machine is still free.
        (None, Some(v)) => {
            let sys = DESystem {
                at_least: de_on_m
                    .iter()
                    .filter(|(e, ..)| !e)
                    .map(|(_, i, w)| (w.clone(), *i))
                    .collect(),
                exactly: de_on_m
                    .iter()
                    .filter(|(e, ..)| *e)
                    .map(|(_, i, w)| (w.clone(), *i))
                    .collect(),
            };
            if !sys.satisfiable() {
                return RFormula::False;
            }
            let mut parts = vec![RFormula::Atom(RAtom::IsSort(Sort::Word, v.clone()))];
            if !merged_w_prefix.is_empty() {
                parts.push(RFormula::Atom(RAtom::Prefix(
                    merged_w_prefix.to_string(),
                    v.clone(),
                )));
            }
            for y in w_neqs {
                parts.push(RFormula::not(RFormula::Atom(RAtom::Eq(
                    v.clone(),
                    y.clone(),
                ))));
            }
            RFormula::and(parts)
        }
        // T−4: both concrete — the combinatorial pattern disjunction
        // ending in D_{n+1}(t, v).
        (Some(t), Some(v)) => {
            let mut parts = vec![
                RFormula::Atom(RAtom::IsSort(Sort::Machine, t.clone())),
                RFormula::Atom(RAtom::IsSort(Sort::Word, v.clone())),
            ];
            for (exact, i, w) in de_on_m {
                let atom = if *exact {
                    RAtom::Exact(*i, t.clone(), RTerm::Lit(w.clone()))
                } else {
                    RAtom::AtLeast(*i, t.clone(), RTerm::Lit(w.clone()))
                };
                parts.push(RFormula::Atom(atom));
            }
            for s in m_neqs {
                parts.push(RFormula::not(RFormula::Atom(RAtom::Eq(
                    t.clone(),
                    s.clone(),
                ))));
            }
            for y in w_neqs {
                parts.push(RFormula::not(RFormula::Atom(RAtom::Eq(
                    v.clone(),
                    y.clone(),
                ))));
            }
            if !merged_w_prefix.is_empty() {
                parts.push(RFormula::Atom(RAtom::Prefix(
                    merged_w_prefix.to_string(),
                    v.clone(),
                )));
            }
            parts.push(excluded_traces_disjunction(&t, &v, neq_x));
            RFormula::and(parts)
        }
    }
}

/// `∃x (m(x) = t ∧ w(x) = v ∧ ⋀ x ≠ pᵢ)`: there must be strictly more
/// traces of `t` in `v` than excluded elements that actually *are* such
/// traces. Enumerates, per the paper, "all possible combinations of the
/// true–false assertions about the machines [and words] of p₁ … p_n" and
/// the equality patterns among them.
#[allow(clippy::needless_range_loop)]
fn excluded_traces_disjunction(t: &RTerm, v: &RTerm, ps: &[RTerm]) -> RFormula {
    if ps.is_empty() {
        // D_1(t, v) holds whenever t is a machine and v a word — already
        // asserted by the caller.
        return RFormula::True;
    }
    let n = ps.len();
    let is_trace_of = |p: &RTerm| {
        RFormula::and([
            RFormula::Atom(RAtom::IsSort(Sort::Trace, p.clone())),
            RFormula::Atom(RAtom::Eq(RTerm::m_of(p.clone()), t.clone())),
            RFormula::Atom(RAtom::Eq(RTerm::w_of(p.clone()), v.clone())),
        ])
    };
    // Status bitmap: which pᵢ are traces of t in v.
    let mut disjuncts = Vec::new();
    for status in 0..1u32 << n {
        let yes: Vec<usize> = (0..n).filter(|i| status & (1 << i) != 0).collect();
        let mut base = Vec::new();
        for i in 0..n {
            let f = is_trace_of(&ps[i]);
            base.push(if yes.contains(&i) {
                f
            } else {
                RFormula::not(f)
            });
        }
        // Partitions of the yes-set into equality classes.
        for partition in set_partitions(yes.len()) {
            let k = partition.iter().copied().max().map_or(0, |m| m + 1);
            let mut conj = base.clone();
            for a in 0..yes.len() {
                for b in a + 1..yes.len() {
                    let eq = RFormula::Atom(RAtom::Eq(ps[yes[a]].clone(), ps[yes[b]].clone()));
                    conj.push(if partition[a] == partition[b] {
                        eq
                    } else {
                        RFormula::not(eq)
                    });
                }
            }
            // k distinct excluded traces: need at least k + 1 traces.
            if k + 1 >= 2 {
                conj.push(RFormula::Atom(RAtom::AtLeast(k + 1, t.clone(), v.clone())));
            }
            disjuncts.push(RFormula::and(conj));
        }
    }
    RFormula::or(disjuncts)
}

/// All set partitions of `{0, …, n−1}` as restricted-growth strings.
fn set_partitions(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    let mut current = vec![0usize; n];
    fn rec(current: &mut Vec<usize>, pos: usize, max_used: usize, out: &mut Vec<Vec<usize>>) {
        if pos == current.len() {
            out.push(current.clone());
            return;
        }
        for c in 0..=max_used + 1 {
            current[pos] = c;
            rec(current, pos + 1, max_used.max(c), out);
        }
    }
    // Position 0 is always class 0.
    current[0] = 0;
    rec(&mut current, 1, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces::rterm::from_logic;
    use fq_logic::parse_formula;
    use fq_turing::builders;
    use fq_turing::encode::encode_machine;
    use fq_turing::trace::trace_string;

    fn decide_str(s: &str) -> bool {
        let f = from_logic(&parse_formula(s).unwrap()).unwrap();
        decide(&f).unwrap()
    }

    #[test]
    fn set_partition_counts_are_bell_numbers() {
        assert_eq!(set_partitions(0).len(), 1);
        assert_eq!(set_partitions(1).len(), 1);
        assert_eq!(set_partitions(2).len(), 2);
        assert_eq!(set_partitions(3).len(), 5);
        assert_eq!(set_partitions(4).len(), 15);
    }

    #[test]
    fn words_of_length_enumeration() {
        assert_eq!(words_of_length(0), vec![String::new()]);
        assert_eq!(words_of_length(2).len(), 4);
    }

    #[test]
    fn merge_prefixes_cases() {
        assert_eq!(merge_prefixes(&[]), Some(String::new()));
        assert_eq!(
            merge_prefixes(&["1".into(), "1&1".into()]),
            Some("1&1".into())
        );
        // "1" pads to 1&…, consistent with "1&".
        assert_eq!(
            merge_prefixes(&["1".into(), "1&".into()]),
            Some("1&".into())
        );
        assert_eq!(merge_prefixes(&["11".into(), "1&".into()]), None);
    }

    #[test]
    fn sorts_partition_the_domain() {
        assert!(decide_str("forall x. M(x) | W(x) | T(x) | O(x)"));
        assert!(decide_str("forall x. !(M(x) & W(x))"));
        assert!(decide_str("forall x. !(T(x) & W(x))"));
    }

    #[test]
    fn each_sort_is_inhabited() {
        for s in [
            "exists x. M(x)",
            "exists x. W(x)",
            "exists x. T(x)",
            "exists x. O(x)",
        ] {
            assert!(decide_str(s), "{s}");
        }
    }

    #[test]
    fn every_machine_has_a_trace_in_every_word() {
        assert!(decide_str(
            "forall m0 w0. M(m0) & W(w0) -> exists p. P(m0, w0, p)"
        ));
    }

    #[test]
    fn traces_have_machines_and_words() {
        assert!(decide_str("forall p. T(p) -> M(m(p)) & W(w(p))"));
        assert!(decide_str("forall p. T(p) -> P(m(p), w(p), p)"));
    }

    #[test]
    fn non_traces_have_epsilon_projections() {
        assert!(decide_str("forall x. W(x) -> w(x) = \"\" & m(x) = \"\""));
    }

    #[test]
    fn ground_p_atoms() {
        let m = builders::scan_right_halt_on_blank();
        let enc = encode_machine(&m);
        let tr = trace_string(&m, "11", 2).unwrap();
        assert!(decide_str(&format!("P(\"{enc}\", \"11\", \"{tr}\")")));
        assert!(!decide_str(&format!("P(\"{enc}\", \"1\", \"{tr}\")")));
    }

    #[test]
    fn existential_machine_with_trace_counts() {
        // Lemma A.2-style: a machine with ≥3 traces in 111111 and exactly
        // 2 in &&&&&&.
        assert!(decide_str(
            "exists x. D(3, x, \"111111\") & E(2, x, \"&&&&&&\")"
        ));
        // Conflict: ≥5 in v but exactly 3 in u with equal 3-prefixes.
        assert!(!decide_str(
            "exists x. D(5, x, \"111111\") & E(3, x, \"111&&&\")"
        ));
    }

    #[test]
    fn halting_machine_has_finitely_many_traces() {
        let m = builders::scan_right_halt_on_blank();
        let enc = encode_machine(&m);
        // Exactly 3 traces in "11": ∃p P ∧ ... bounded by D_4 failing.
        assert!(decide_str(&format!("D(3, \"{enc}\", \"11\")")));
        assert!(!decide_str(&format!("D(4, \"{enc}\", \"11\")")));
        // ∃p: there is a trace of enc in "11" different from two given ones.
        let t1 = trace_string(&m, "11", 1).unwrap();
        let t2 = trace_string(&m, "11", 2).unwrap();
        assert!(decide_str(&format!(
            "exists p. P(\"{enc}\", \"11\", p) & p != \"{t1}\" & p != \"{t2}\""
        )));
        // …but not different from all three.
        let t3 = trace_string(&m, "11", 3).unwrap();
        assert!(!decide_str(&format!(
            "exists p. P(\"{enc}\", \"11\", p) & p != \"{t1}\" & p != \"{t2}\" & p != \"{t3}\""
        )));
    }

    #[test]
    fn looper_has_unboundedly_many_traces() {
        let enc = encode_machine(&builders::looper());
        let tr = trace_string(&builders::looper(), "1", 1).unwrap();
        // For any trace there is another one (in the same word).
        assert!(decide_str(&format!(
            "exists p. P(\"{enc}\", \"1\", p) & p != \"{tr}\""
        )));
        assert!(decide_str(&format!("D(25, \"{enc}\", \"1\")")));
    }

    #[test]
    fn prefix_predicate_via_b() {
        assert!(decide_str("exists x. B(\"11\", x) & x != \"11\""));
        assert!(decide_str("forall x. B(\"1\", x) -> W(x)"));
        // ¬∃ word with both 1- and &-prefix.
        assert!(!decide_str("exists x. B(\"1\", x) & B(\"&\", x)"));
    }

    #[test]
    fn quantifier_alternation_over_sorts() {
        // Every word has a machine with exactly one trace in it (the
        // empty machine halts immediately everywhere).
        assert!(decide_str("forall y. W(y) -> exists x. E(1, x, y)"));
        // No machine has exactly one trace in every word AND at least two
        // in some word with the same 1-prefix — via concrete words.
        assert!(!decide_str("exists x. E(1, x, \"1&\") & D(2, x, \"1&\")"));
    }

    #[test]
    fn eliminated_formulas_are_quantifier_free() {
        for s in [
            "exists x. M(x) & x != \"1*1&1&11*\"",
            "exists p. P(y, z, p) & p != q",
            "forall x. B(\"1\", x) -> exists y. y != x & B(\"1\", y)",
        ] {
            let f = from_logic(&parse_formula(s).unwrap()).unwrap();
            let e = eliminate(&f);
            assert!(e.is_quantifier_free(), "{s}");
        }
    }

    #[test]
    fn theorem_3_1_formula_shape_is_decidable() {
        // The Theorem 3.1 sentence for a concrete machine and candidate:
        // ∀z∀x (P(M, z, x) ↔ φ(x, z)) with φ = P(M, z, x) itself — true.
        let enc = encode_machine(&builders::halter());
        assert!(decide_str(&format!(
            "forall z x. P(\"{enc}\", z, x) <-> P(\"{enc}\", z, x)"
        )));
        // And with a different machine on the right — false (they differ
        // on some trace).
        let enc2 = encode_machine(&builders::looper());
        assert!(!decide_str(&format!(
            "forall z x. P(\"{enc}\", z, x) <-> P(\"{enc2}\", z, x)"
        )));
    }

    #[test]
    fn multiple_m_equalities_force_parameter_equality() {
        // ∃x (T(x) ∧ m(x) = y ∧ m(x) = z) ⟺ M(y) ∧ y = z.
        assert!(decide_str(
            "forall y z. (exists x. T(x) & m(x) = y & m(x) = z) -> y = z"
        ));
        assert!(!decide_str(
            "exists y z. y != z & (exists x. T(x) & m(x) = y & m(x) = z)"
        ));
    }

    #[test]
    fn negated_prefix_rewrites() {
        // Words not starting with 1 exist.
        assert!(decide_str("exists x. W(x) & !B(\"1\", x)"));
        // Every word satisfies B_1 or B_& (ε pads to &&&…).
        assert!(decide_str("forall x. W(x) -> B(\"1\", x) | B(\"&\", x)"));
        // But no word satisfies both.
        assert!(!decide_str("exists x. B(\"1\", x) & B(\"&\", x)"));
    }

    #[test]
    fn d_with_function_second_argument() {
        // m(y) is ε (a word) for non-traces, a machine for traces.
        assert!(decide_str("exists y x. D(2, x, m(y))"));
        assert!(decide_str("forall y. T(y) -> !(exists x. D(2, x, m(y)))"));
    }

    #[test]
    fn e_on_own_word() {
        // Traces of machines that halt immediately on their own input
        // word exist (any 1-snapshot trace of the empty machine).
        assert!(decide_str("exists p. T(p) & E(1, m(p), w(p))"));
        // And traces of machines with ≥ 3 traces in their own word exist.
        assert!(decide_str("exists p. T(p) & D(3, m(p), w(p))"));
    }

    #[test]
    fn other_sort_with_inequalities() {
        assert!(decide_str("exists x. O(x) & x != \"#\" & x != \"##\""));
        assert!(decide_str("forall y. exists x. O(x) & x != y"));
    }

    #[test]
    fn positive_equality_substitution_path() {
        // ∃x (x = "1&" ∧ W(x) ∧ B("1", x)) folds by substitution.
        assert!(decide_str("exists x. x = \"1&\" & W(x) & B(\"1\", x)"));
        assert!(!decide_str("exists x. x = \"1&\" & M(x)"));
        // Substitution with a parameter: ∀y (∃x (x = y ∧ T(x)) ↔ T(y)).
        assert!(decide_str("forall y. (exists x. x = y & T(x)) <-> T(y)"));
    }

    #[test]
    fn nested_function_equalities_fold() {
        // w(w(p)) = ε always.
        assert!(decide_str("forall p. w(w(p)) = \"\""));
        assert!(decide_str("forall p. m(m(p)) = \"\""));
    }

    #[test]
    fn t4_pattern_counts_excluded_traces() {
        // halter has exactly 1 trace per word; excluding that trace
        // leaves none.
        let m = builders::halter();
        let enc = encode_machine(&m);
        let tr = trace_string(&m, "1", 1).unwrap();
        assert!(!decide_str(&format!(
            "exists p. P(\"{enc}\", \"1\", p) & p != \"{tr}\""
        )));
        // Excluding an unrelated string changes nothing.
        assert!(decide_str(&format!(
            "exists p. P(\"{enc}\", \"1\", p) & p != \"##\""
        )));
    }
}
