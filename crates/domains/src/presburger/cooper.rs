//! Cooper's quantifier elimination for Presburger arithmetic (over ℤ).
//!
//! Section 2 of the paper notes that the finitization trick "works for a
//! great many domains, including natural numbers with <, +, and −
//! (aka Presburger arithmetic)". Deciding the resulting sentences —
//! equivalence of a formula with its finitization, Theorem 2.5 — needs an
//! actual decision procedure; this module provides the classic one.
//!
//! Given `∃x φ` with quantifier-free `φ`, the algorithm (per conjunct of a
//! DNF):
//!
//! 1. normalizes negations away (only negated divisibilities remain);
//! 2. scales every `x`-atom so `x`'s coefficient is `±δ` (the lcm), then
//!    substitutes `y = δ·x`, adding `δ ∣ y`;
//! 3. replaces `∃y ψ(y)` by
//!    `⋁_{j=1..m} ψ_{−∞}(j) ∨ ⋁_{j=1..m} ⋁_{b ∈ B} ψ(b + j)` where `m` is
//!    the lcm of the divisors and `B` collects the lower-bound terms and
//!    `e − 1` for each equation `y = e`.

use super::linear::LinTerm;
use super::pformula::{PAtom, PFormula};

/// Eliminate all quantifiers, producing an equivalent quantifier-free
/// formula (over ℤ), innermost quantifier first.
pub fn eliminate(f: &PFormula) -> PFormula {
    match f {
        PFormula::True | PFormula::False | PFormula::Atom(_) => psimplify(f),
        PFormula::Not(inner) => PFormula::not(eliminate(inner)),
        PFormula::And(fs) => PFormula::and(fs.iter().map(eliminate)),
        PFormula::Or(fs) => PFormula::or(fs.iter().map(eliminate)),
        PFormula::Exists(v, body) => psimplify(&eliminate_exists(v, &eliminate(body))),
        PFormula::Forall(v, body) => psimplify(&PFormula::not(eliminate_exists(
            v,
            &PFormula::not(eliminate(body)),
        ))),
    }
}

/// Constant folding and deduplication. Keeps eliminated formulas from
/// growing doubly exponentially across nested quantifiers: most atoms
/// produced by the boundary substitutions are ground and fold away.
pub fn psimplify(f: &PFormula) -> PFormula {
    match f {
        PFormula::True | PFormula::False => f.clone(),
        PFormula::Atom(a) => {
            if a.term().is_constant() {
                if a.eval_ground() {
                    PFormula::True
                } else {
                    PFormula::False
                }
            } else {
                f.clone()
            }
        }
        PFormula::Not(inner) => PFormula::not(psimplify(inner)),
        PFormula::And(fs) => {
            let mut seen: std::collections::BTreeSet<PFormula> = std::collections::BTreeSet::new();
            for g in fs {
                let s = psimplify(g);
                match s {
                    PFormula::True => {}
                    PFormula::False => return PFormula::False,
                    PFormula::And(inner) => seen.extend(inner),
                    other => {
                        seen.insert(other);
                    }
                }
            }
            match tighten_conjunction(seen) {
                Some(tight) => PFormula::and(tight),
                None => PFormula::False,
            }
        }
        PFormula::Or(fs) => {
            let mut seen: std::collections::BTreeSet<PFormula> = std::collections::BTreeSet::new();
            for g in fs {
                let s = psimplify(g);
                match s {
                    PFormula::False => {}
                    PFormula::True => return PFormula::True,
                    PFormula::Or(inner) => seen.extend(inner),
                    other => {
                        seen.insert(other);
                    }
                }
            }
            PFormula::or(subsume_disjunction(seen))
        }
        PFormula::Exists(v, body) => PFormula::Exists(v.clone(), Box::new(psimplify(body))),
        PFormula::Forall(v, body) => PFormula::Forall(v.clone(), Box::new(psimplify(body))),
    }
}

/// Per-family bound information used by [`tighten_conjunction`].
#[derive(Clone, Copy, Default)]
struct Bounds {
    lo: Option<i128>, // family value ≥ lo
    hi: Option<i128>, // family value ≤ hi
    eq: Option<i128>, // family value = eq
}

/// Merge interval constraints inside a conjunction.
///
/// All `Pos`/`Zero` atoms whose non-constant parts coincide up to sign are
/// constraints on one integer quantity; they are folded into a single
/// lower bound / upper bound / equation, and contradictions (empty
/// intervals) collapse the conjunction to `False` (`None`). This is the
/// key defence against the exponential growth of nested Cooper rounds:
/// boundary substitutions mass-produce comparisons of the same terms
/// against different constants.
fn tighten_conjunction(
    formulas: std::collections::BTreeSet<PFormula>,
) -> Option<std::collections::BTreeSet<PFormula>> {
    use std::collections::BTreeMap;
    let mut out: std::collections::BTreeSet<PFormula> = std::collections::BTreeSet::new();
    let mut families: BTreeMap<LinTerm, Bounds> = BTreeMap::new();

    for f in formulas {
        let atom = match &f {
            PFormula::Atom(a @ (PAtom::Pos(_) | PAtom::Zero(_))) => a.clone(),
            _ => {
                out.insert(f);
                continue;
            }
        };
        let t = atom.term();
        let mut shape = t.clone();
        shape.constant = 0;
        // Canonical orientation: make the first coefficient positive.
        let ori = match shape.coeffs().next() {
            Some((_, c)) if c < 0 => -1,
            _ => 1,
        };
        let key = shape.scale(ori);
        let c = t.constant;
        let entry = families.entry(key).or_default();
        match atom {
            // 0 < ori·key + c  ⟺  ori·key ≥ 1 − c.
            PAtom::Pos(_) => {
                if ori == 1 {
                    let lo = 1 - c;
                    entry.lo = Some(entry.lo.map_or(lo, |old| old.max(lo)));
                } else {
                    // −key ≥ 1 − c ⟺ key ≤ c − 1.
                    let hi = c - 1;
                    entry.hi = Some(entry.hi.map_or(hi, |old| old.min(hi)));
                }
            }
            // ori·key + c = 0 ⟺ key = −ori·c.
            PAtom::Zero(_) => {
                let e = -ori * c;
                match entry.eq {
                    Some(prev) if prev != e => return None,
                    _ => entry.eq = Some(e),
                }
            }
            PAtom::Div(..) => unreachable!("matched Pos/Zero above"),
        }
    }

    for (key, b) in families {
        if let Some(e) = b.eq {
            if b.lo.is_some_and(|lo| e < lo) || b.hi.is_some_and(|hi| e > hi) {
                return None;
            }
            out.insert(PFormula::Atom(PAtom::Zero(key.sub(&LinTerm::constant(e)))));
            continue;
        }
        if let (Some(lo), Some(hi)) = (b.lo, b.hi) {
            if lo > hi {
                return None;
            }
        }
        if let Some(lo) = b.lo {
            // key ≥ lo ⟺ 0 < key − lo + 1.
            out.insert(PFormula::Atom(PAtom::Pos(
                key.sub(&LinTerm::constant(lo - 1)),
            )));
        }
        if let Some(hi) = b.hi {
            // key ≤ hi ⟺ 0 < hi − key + 1.
            out.insert(PFormula::Atom(PAtom::Pos(
                LinTerm::constant(hi + 1).sub(&key),
            )));
        }
    }
    Some(out)
}

/// Drop disjuncts that are syntactically subsumed by another disjunct
/// (their conjunct set is a superset). Quadratic; skipped above a size cap.
fn subsume_disjunction(formulas: std::collections::BTreeSet<PFormula>) -> Vec<PFormula> {
    const CAP: usize = 1500;
    let items: Vec<PFormula> = formulas.into_iter().collect();
    if items.len() > CAP {
        return items;
    }
    let as_set = |f: &PFormula| -> std::collections::BTreeSet<PFormula> {
        match f {
            PFormula::And(fs) => fs.iter().cloned().collect(),
            other => std::iter::once(other.clone()).collect(),
        }
    };
    let sets: Vec<std::collections::BTreeSet<PFormula>> = items.iter().map(&as_set).collect();
    let mut keep = vec![true; items.len()];
    for i in 0..items.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..items.len() {
            if i == j || !keep[j] {
                continue;
            }
            // If sets[i] ⊆ sets[j], disjunct j is implied by i — drop j.
            if sets[i].len() < sets[j].len() && sets[i].is_subset(&sets[j]) {
                keep[j] = false;
            }
        }
    }
    items
        .into_iter()
        .zip(keep)
        .filter_map(|(f, k)| k.then_some(f))
        .collect()
}

/// A literal: an atom with a sign. After normalization only divisibility
/// atoms can be negative.
type PLit = (bool, PAtom);

/// A DNF piece: either an `x`-literal or an opaque `x`-free subformula
/// (left unexpanded to keep the DNF from exploding).
#[derive(Clone)]
enum Piece {
    Lit(PLit),
    Opaque(PFormula),
}

/// Whether a formula mentions the variable.
fn mentions(f: &PFormula, var: &str) -> bool {
    match f {
        PFormula::True | PFormula::False => false,
        PFormula::Atom(a) => a.mentions(var),
        PFormula::Not(g) => mentions(g, var),
        PFormula::And(gs) | PFormula::Or(gs) => gs.iter().any(|g| mentions(g, var)),
        PFormula::Exists(v, g) | PFormula::Forall(v, g) => v != var && mentions(g, var),
    }
}

/// Eliminate a single existential over a quantifier-free body: one
/// Cooper round per conjunct of the body's DNF with respect to `var`.
pub fn eliminate_exists(var: &str, qf: &PFormula) -> PFormula {
    debug_assert!(qf.is_quantifier_free(), "eliminate_exists needs a QF body");
    if !mentions(qf, var) {
        return qf.clone();
    }
    PFormula::or(
        dnf_wrt(&pnnf(&psimplify(qf), true), var)
            .into_iter()
            .map(|(lits, opaque)| {
                let pieces = lits
                    .into_iter()
                    .map(Piece::Lit)
                    .chain(opaque.into_iter().map(Piece::Opaque))
                    .collect();
                eliminate_conjunct(var, pieces)
            }),
    )
}

/// A canonical DNF conjunct: sorted deduplicated literals plus opaque
/// variable-free residues.
type Conjunct = (
    std::collections::BTreeSet<PLit>,
    std::collections::BTreeSet<PFormula>,
);

/// Semantically tighten a conjunct's literal set via the interval merge of
/// [`tighten_conjunction`]; `None` if contradictory.
fn tighten_lits(
    lits: std::collections::BTreeSet<PLit>,
) -> Option<std::collections::BTreeSet<PLit>> {
    let as_formulas: std::collections::BTreeSet<PFormula> = lits
        .into_iter()
        .map(|(sign, a)| {
            let f = PFormula::Atom(a);
            if sign {
                f
            } else {
                PFormula::not(f)
            }
        })
        .collect();
    let tight = tighten_conjunction(as_formulas)?;
    let mut out = std::collections::BTreeSet::new();
    for f in tight {
        match f {
            PFormula::Atom(a) => {
                if a.term().is_constant() {
                    if !a.eval_ground() {
                        return None;
                    }
                } else {
                    out.insert((true, a));
                }
            }
            PFormula::Not(inner) => match *inner {
                PFormula::Atom(a) => {
                    if a.term().is_constant() {
                        if a.eval_ground() {
                            return None;
                        }
                    } else {
                        out.insert((false, a));
                    }
                }
                _ => unreachable!("tighten only emits literals"),
            },
            PFormula::True => {}
            PFormula::False => return None,
            _ => unreachable!("tighten only emits literals"),
        }
    }
    Some(out)
}

/// Negation normal form for [`PFormula`]: `¬(0 < t) ↦ 0 < 1 − t`,
/// `¬(t = 0) ↦ 0 < t ∨ 0 < −t`, negated divisibilities stay literals.
fn pnnf(f: &PFormula, positive: bool) -> PFormula {
    match f {
        PFormula::True => {
            if positive {
                PFormula::True
            } else {
                PFormula::False
            }
        }
        PFormula::False => {
            if positive {
                PFormula::False
            } else {
                PFormula::True
            }
        }
        PFormula::Atom(a) => {
            if positive {
                PFormula::Atom(a.clone())
            } else {
                match a {
                    PAtom::Pos(t) => PFormula::Atom(PAtom::Pos(LinTerm::constant(1).sub(t))),
                    PAtom::Zero(t) => PFormula::or([
                        PFormula::Atom(PAtom::Pos(t.clone())),
                        PFormula::Atom(PAtom::Pos(t.scale(-1))),
                    ]),
                    PAtom::Div(..) => PFormula::Not(Box::new(PFormula::Atom(a.clone()))),
                }
            }
        }
        PFormula::Not(inner) => pnnf(inner, !positive),
        PFormula::And(fs) => {
            let parts = fs.iter().map(|g| pnnf(g, positive));
            if positive {
                PFormula::and(parts)
            } else {
                PFormula::or(parts)
            }
        }
        PFormula::Or(fs) => {
            let parts = fs.iter().map(|g| pnnf(g, positive));
            if positive {
                PFormula::or(parts)
            } else {
                PFormula::and(parts)
            }
        }
        PFormula::Exists(..) | PFormula::Forall(..) => {
            unreachable!("pnnf is only applied to quantifier-free formulas")
        }
    }
}

/// DNF of a QF formula in [`pnnf`] form **with respect to a variable**:
/// maximal subformulas not mentioning the variable stay opaque, so only
/// the part of the formula that actually constrains `var` is distributed.
/// Conjuncts are canonicalized, interval-tightened, and deduplicated
/// *during* the product — without this the product of k n-way
/// disjunctions materializes n^k conjuncts before any simplification.
fn dnf_wrt(f: &PFormula, var: &str) -> std::collections::BTreeSet<Conjunct> {
    use std::collections::BTreeSet;
    if !mentions(f, var) {
        let mut c: Conjunct = Default::default();
        c.1.insert(f.clone());
        return [c].into();
    }
    match f {
        PFormula::True => [Conjunct::default()].into(),
        PFormula::False => BTreeSet::new(),
        PFormula::Atom(a) => {
            let mut c = Conjunct::default();
            c.0.insert((true, a.clone()));
            [c].into()
        }
        PFormula::Not(inner) => match inner.as_ref() {
            PFormula::Atom(a @ PAtom::Div(..)) => {
                let mut c = Conjunct::default();
                c.0.insert((false, a.clone()));
                [c].into()
            }
            _ => unreachable!("pnnf leaves only negated divisibilities"),
        },
        PFormula::Or(fs) => fs.iter().flat_map(|g| dnf_wrt(g, var)).collect(),
        PFormula::And(fs) => {
            let mut acc: BTreeSet<Conjunct> = [Conjunct::default()].into();
            for g in fs {
                let gs = dnf_wrt(g, var);
                let mut next: BTreeSet<Conjunct> = BTreeSet::new();
                for (a_lits, a_opq) in &acc {
                    for (b_lits, b_opq) in &gs {
                        let merged: BTreeSet<PLit> = a_lits.union(b_lits).cloned().collect();
                        let Some(tightened) = tighten_lits(merged) else {
                            continue; // contradictory conjunct
                        };
                        let opaque: BTreeSet<PFormula> = a_opq.union(b_opq).cloned().collect();
                        next.insert((tightened, opaque));
                    }
                }
                acc = next;
            }
            acc
        }
        PFormula::Exists(..) | PFormula::Forall(..) => unreachable!("QF input"),
    }
}

/// The shape of an `x`-literal after scaling to coefficient ±1 on `y`.
enum YAtom {
    /// `b < y`.
    Lower(LinTerm),
    /// `y < u`.
    Upper(LinTerm),
    /// `y = e`.
    Eq(LinTerm),
    /// `d ∣ y + s` (with sign).
    Div(u64, LinTerm, bool),
}

fn lcm(a: i128, b: i128) -> i128 {
    fn gcd(a: i128, b: i128) -> i128 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    (a / gcd(a, b)) * b
}

fn eliminate_conjunct(var: &str, pieces: Vec<Piece>) -> PFormula {
    let mut x_lits: Vec<PLit> = Vec::new();
    let mut residue: Vec<PFormula> = Vec::new();
    for p in pieces {
        match p {
            Piece::Opaque(f) => residue.push(f),
            Piece::Lit((sign, a)) => {
                if a.mentions(var) {
                    x_lits.push((sign, a));
                } else {
                    let atom = PFormula::Atom(a);
                    residue.push(if sign { atom } else { PFormula::not(atom) });
                }
            }
        }
    }
    let residue_formula = PFormula::and(residue);
    if x_lits.is_empty() {
        // ∃x ⊤ over ℤ is ⊤.
        return residue_formula;
    }

    // δ = lcm of |coefficients of x|.
    let delta = x_lits
        .iter()
        .map(|(_, a)| a.term().coeff(var).abs())
        .fold(1i128, lcm);

    // Scale every literal to the y-representation (y = δ·x).
    let mut y_atoms: Vec<YAtom> = Vec::with_capacity(x_lits.len() + 1);
    for (sign, a) in &x_lits {
        let c = a.term().coeff(var);
        let k = delta / c.abs();
        let rest = a.term().without(var).scale(k);
        match a {
            PAtom::Pos(_) => {
                debug_assert!(*sign, "pnnf removed negated inequalities");
                if c > 0 {
                    // 0 < y + rest  ⟺  −rest < y.
                    y_atoms.push(YAtom::Lower(rest.scale(-1)));
                } else {
                    // 0 < −y + rest ⟺ y < rest.
                    y_atoms.push(YAtom::Upper(rest));
                }
            }
            PAtom::Zero(_) => {
                debug_assert!(*sign, "pnnf removed negated equalities");
                if c > 0 {
                    // y + rest = 0 ⟺ y = −rest.
                    y_atoms.push(YAtom::Eq(rest.scale(-1)));
                } else {
                    y_atoms.push(YAtom::Eq(rest));
                }
            }
            PAtom::Div(d, _) => {
                let dd = (*d as i128 * k) as u64;
                if c > 0 {
                    y_atoms.push(YAtom::Div(dd, rest, *sign));
                } else {
                    // d' | −y + rest ⟺ d' | y − rest.
                    y_atoms.push(YAtom::Div(dd, rest.scale(-1), *sign));
                }
            }
        }
    }
    // y = δ·x demands δ | y.
    y_atoms.push(YAtom::Div(delta as u64, LinTerm::constant(0), true));

    // m = lcm of the divisors.
    let m = y_atoms
        .iter()
        .filter_map(|a| match a {
            YAtom::Div(d, ..) => Some(*d as i128),
            _ => None,
        })
        .fold(1i128, lcm);

    // B-set: lower bounds and e−1 for equations.
    let b_set: Vec<LinTerm> = y_atoms
        .iter()
        .filter_map(|a| match a {
            YAtom::Lower(b) => Some(b.clone()),
            YAtom::Eq(e) => Some(e.sub(&LinTerm::constant(1))),
            _ => None,
        })
        .collect();

    let has_floor = y_atoms
        .iter()
        .any(|a| matches!(a, YAtom::Lower(_) | YAtom::Eq(_)));

    let mut disjuncts: Vec<PFormula> = Vec::new();

    // Minus-infinity disjuncts: only divisibilities survive.
    if !has_floor {
        for j in 1..=m {
            let conj = y_atoms.iter().filter_map(|a| match a {
                YAtom::Div(d, s, sign) => {
                    let atom = PFormula::Atom(PAtom::Div(*d, s.add(&LinTerm::constant(j))));
                    Some(if *sign { atom } else { PFormula::not(atom) })
                }
                YAtom::Upper(_) => None, // true at −∞
                YAtom::Lower(_) | YAtom::Eq(_) => unreachable!("has_floor is false"),
            });
            disjuncts.push(psimplify(&PFormula::and(conj)));
        }
    }

    // Boundary disjuncts: y := b + j, one per (b, j) pair.
    disjuncts.extend(
        b_set
            .iter()
            .flat_map(|b| (1..=m).map(move |j| (b, j)))
            .map(|(b, j)| {
                let y_val = b.add(&LinTerm::constant(j));
                let conj = y_atoms.iter().map(|a| match a {
                    YAtom::Lower(l) => PFormula::Atom(PAtom::Pos(y_val.sub(l))),
                    YAtom::Upper(u) => PFormula::Atom(PAtom::Pos(u.sub(&y_val))),
                    YAtom::Eq(e) => PFormula::Atom(PAtom::Zero(y_val.sub(e))),
                    YAtom::Div(d, s, sign) => {
                        let atom = PFormula::Atom(PAtom::Div(*d, y_val.add(s)));
                        if *sign {
                            atom
                        } else {
                            PFormula::not(atom)
                        }
                    }
                });
                psimplify(&PFormula::and(conj))
            }),
    );

    PFormula::and([PFormula::or(disjuncts), residue_formula])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presburger::pformula::from_logic;
    use fq_logic::parse_formula;
    use std::collections::BTreeMap;

    /// Decide a sentence over ℤ.
    fn decide_int(s: &str) -> bool {
        let f = from_logic(&parse_formula(s).unwrap(), false).unwrap();
        eliminate(&f).eval_ground()
    }

    #[test]
    fn simple_existentials() {
        assert!(decide_int("exists x. x = 5"));
        assert!(decide_int("exists x. x < 0"));
        assert!(decide_int("exists x. 2 * x = 10"));
        assert!(!decide_int("exists x. 2 * x = 5"));
    }

    #[test]
    fn universals() {
        assert!(decide_int("forall x. exists y. x < y"));
        assert!(decide_int("forall x. exists y. y < x"));
        assert!(!decide_int("exists y. forall x. x < y"));
    }

    #[test]
    fn parity_partition() {
        assert!(decide_int("forall x. div(2, x, 0) | div(2, x, 1)"));
        assert!(!decide_int("forall x. div(2, x, 0)"));
        assert!(decide_int(
            "exists x. div(2, x, 0) & div(3, x, 0) & 0 < x & x < 7"
        ));
        assert!(!decide_int(
            "exists x. div(2, x, 0) & div(3, x, 0) & 0 < x & x < 6"
        ));
    }

    #[test]
    fn bounded_intervals() {
        assert!(decide_int("exists x. 3 < x & x < 5"));
        assert!(!decide_int("exists x. 3 < x & x < 4"));
        assert!(decide_int("forall x. 3 < x & x < 6 -> x = 4 | x = 5"));
    }

    #[test]
    fn linear_diophantine() {
        // 3x + 5y = 1 is solvable over ℤ.
        assert!(decide_int("exists x. exists y. 3 * x + 5 * y = 1"));
        // 2x + 4y = 7 is not.
        assert!(!decide_int("exists x. exists y. 2 * x + 4 * y = 7"));
    }

    #[test]
    fn negation_handling() {
        assert!(decide_int("exists x. !(x = 0) & !(x < 0) & x < 2"));
        assert!(decide_int("forall x. !(x < x)"));
    }

    #[test]
    fn alternating_quantifiers() {
        // Density fails on integers: there is no element between n and n+1.
        assert!(!decide_int(
            "forall x. forall y. x < y -> exists z. x < z & z < y"
        ));
        // But between n and n+2 there is.
        assert!(decide_int("forall x. exists z. x < z & z < x + 2"));
    }

    #[test]
    fn eliminated_formula_is_quantifier_free_and_equivalent() {
        let samples = [
            "exists x. y < x & x < z",
            "exists x. 2 * x = y",
            "exists x. x < y | div(3, x, z)",
            "forall x. x < y -> x < z",
        ];
        for s in samples {
            let f = from_logic(&parse_formula(s).unwrap(), false).unwrap();
            let elim = eliminate(&f);
            assert!(elim.is_quantifier_free(), "{s}");
            for y in -4i128..4 {
                for z in -4i128..4 {
                    let env: BTreeMap<String, i128> = [("y".into(), y), ("z".into(), z)].into();
                    // Reference: brute-force the quantifier over a window
                    // wide enough for these samples.
                    let brute = brute_force(&f, &env, -30, 30);
                    assert_eq!(elim.eval(&env), Some(brute), "sample `{s}` at y={y}, z={z}");
                }
            }
        }
    }

    /// Brute-force evaluation quantifying over [lo, hi] — only valid for
    /// formulas whose witnesses are near their coefficients, as in the
    /// test samples above.
    fn brute_force(f: &PFormula, env: &BTreeMap<String, i128>, lo: i128, hi: i128) -> bool {
        match f {
            PFormula::True => true,
            PFormula::False => false,
            PFormula::Atom(a) => a.eval(env).expect("bound"),
            PFormula::Not(g) => !brute_force(g, env, lo, hi),
            PFormula::And(gs) => gs.iter().all(|g| brute_force(g, env, lo, hi)),
            PFormula::Or(gs) => gs.iter().any(|g| brute_force(g, env, lo, hi)),
            PFormula::Exists(v, g) => (lo..=hi).any(|k| {
                let mut e = env.clone();
                e.insert(v.clone(), k);
                brute_force(g, &e, lo, hi)
            }),
            PFormula::Forall(v, g) => (lo..=hi).all(|k| {
                let mut e = env.clone();
                e.insert(v.clone(), k);
                brute_force(g, &e, lo, hi)
            }),
        }
    }
}
