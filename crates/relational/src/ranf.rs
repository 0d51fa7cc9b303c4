//! Restricted-normal-form (RANF) translation: evaluate *arbitrary*
//! relational calculus queries exactly, with a per-state finite/infinite
//! verdict.
//!
//! The paper's negative result (Theorem 3.1) says finite queries have no
//! effective syntax — no recursive syntax captures exactly the queries
//! with finite answers in every state. Raszyk–Basin–Krstić–Traytel
//! ("Efficient Evaluation of Arbitrary Relational Calculus Queries",
//! see PAPERS.md) sidestep the syntactic wall *per state*: any calculus
//! query `Q` splits into a **pair** of safe-range queries — a
//! *generator* producing the active-domain core of the answer and a
//! *restrictor* whose emptiness certifies the answer finite — so the
//! planner can answer exactly instead of enumerating under a budget.
//!
//! This module implements a self-contained variant of that split for
//! the workspace's query fragment (database relations, equality, ground
//! constants — the *generic* queries, whose satisfaction is preserved by
//! every permutation of the carrier fixing the active domain):
//!
//! 1. Let `A` be the query's active domain ([`State::query_active_domain`])
//!    and pick `n = |free| + #∃-occurrences + 1` **fresh** marker values
//!    `f₁…f_n ∉ A`; set `D₀ = A ∪ {f₁…f_n}`.
//! 2. Attach three auxiliary unary relations to a copy-on-write clone of
//!    the state: [`ADOM_REL`]` = A`, [`FRESH_REL`]` = {fᵢ}`, and
//!    [`DOM_REL`]` = D₀`.
//! 3. Relativize `srnf(Q)` to `D₀` with a transformation `T` that keeps
//!    `rr(T(φ)) = free(φ)` — so `T(φ)` is provably safe-range and
//!    compiles through the existing algebra/optimizer/physical stack —
//!    while staying semantically transparent on `D₀`-assignments.
//! 4. The **generator** is `T(φ) ∧ ⋀ᵢ adom(xᵢ)` and the **restrictor**
//!    is `T(φ) ∧ ⋁ᵢ (fresh(xᵢ) ∧ ⋀_{j≠i} dom(xⱼ))`.
//!
//! **Why this is exact.** By genericity, a tuple over `D₀` satisfies `Q`
//! under the natural (infinite-carrier) semantics iff it satisfies the
//! `D₀`-relativized semantics: whenever an existential witness lies
//! outside `D₀`, fewer than `n` non-`A` values are in scope, so a
//! transposition with an unused fresh marker moves the witness into `D₀`
//! without disturbing anything else. Hence the generator computes
//! exactly `answer(Q) ∩ A^k`; and the answer is infinite iff *some*
//! satisfying tuple has a component outside `A` (swap that component
//! through the infinitely many non-`A` values), which — again by
//! genericity — happens iff the restrictor is nonempty. A finite answer
//! is always contained in `A^k`, so in that case the generator rows
//! *are* the whole answer. When the answer is infinite the restrictor's
//! tuples contain fresh markers: they are symbolic witnesses ("any value
//! outside the active domain here"), not concrete carrier elements.

use crate::safe_range::srnf;
use crate::schema::Schema;
use crate::state::{State, Tuple, Value};
use fq_logic::{substitute_const, Formula, Term};
use std::collections::BTreeSet;

/// Auxiliary unary relation holding `D₀ = A ∪ fresh` (the relativized
/// quantifier range).
pub const DOM_REL: &str = "@ranf_dom";
/// Auxiliary unary relation holding the active domain `A`.
pub const ADOM_REL: &str = "@ranf_adom";
/// Auxiliary unary relation holding the fresh markers.
pub const FRESH_REL: &str = "@ranf_fresh";

/// Why a query is outside the RANF-translatable fragment. Translation
/// failure is never an error for the pipeline — the planner falls back
/// to enumerate-and-ask — but the reason is recorded for diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RanfIneligible {
    /// The query uses an interpreted domain predicate (`<`, `llex`, a
    /// trace predicate …) — not generic, so the fresh-marker argument
    /// does not apply.
    DomainPredicate { name: String },
    /// A term is neither a variable nor a storable ground constant.
    UnsupportedTerm { term: String },
    /// Sentences are decided by QE, not answered by enumeration.
    Sentence,
    /// The scheme already declares a relation with an auxiliary name.
    AuxNameClash { name: String },
    /// Extending the state with the auxiliary relations failed.
    Aux { detail: String },
}

impl std::fmt::Display for RanfIneligible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RanfIneligible::DomainPredicate { name } => {
                write!(f, "interpreted domain predicate `{name}` breaks genericity")
            }
            RanfIneligible::UnsupportedTerm { term } => {
                write!(
                    f,
                    "term `{term}` is neither a variable nor a stored constant"
                )
            }
            RanfIneligible::Sentence => write!(f, "sentences are decided, not enumerated"),
            RanfIneligible::AuxNameClash { name } => {
                write!(f, "the scheme already declares `{name}`")
            }
            RanfIneligible::Aux { detail } => write!(f, "auxiliary state: {detail}"),
        }
    }
}

impl std::error::Error for RanfIneligible {}

/// The result of a successful RANF split: two provably safe-range
/// formulas over the extended scheme, plus the extended state they
/// evaluate on.
#[derive(Clone, Debug, PartialEq)]
pub struct RanfTranslation {
    /// `T(φ) ∧ ⋀ adom(xᵢ)` — evaluates to `answer(Q) ∩ A^k`, which is
    /// the whole answer whenever the answer is finite.
    pub generator: Formula,
    /// `T(φ) ∧ ⋁ᵢ (fresh(xᵢ) ∧ ⋀_{j≠i} dom(xⱼ))` — nonempty iff the
    /// answer is infinite.
    pub restrictor: Formula,
    /// The copy-on-write extension of the planned state with the three
    /// auxiliary unary relations.
    pub state: State,
    /// The fresh marker values (all outside the active domain).
    pub fresh: Vec<Value>,
    /// `|A|`, the size of the query's active domain.
    pub adom_size: usize,
}

/// Split `query` (with `free_vars` answer variables, in the scheme of
/// `state`) into the RANF generator/restrictor pair over an extended
/// state. `query` should be the compiled (constant-bound) form; scheme
/// constants are substituted with their state values here, exactly as
/// [`crate::translate::translate_to_domain_formula`] does.
pub fn translate(
    state: &State,
    query: &Formula,
    free_vars: &[String],
) -> Result<RanfTranslation, RanfIneligible> {
    if free_vars.is_empty() {
        return Err(RanfIneligible::Sentence);
    }
    let schema = state.schema();
    for aux in [DOM_REL, ADOM_REL, FRESH_REL] {
        if schema.arity(aux).is_some() {
            return Err(RanfIneligible::AuxNameClash {
                name: aux.to_string(),
            });
        }
    }
    let mut bound = query.clone();
    for c in schema.constants() {
        if let Some(v) = state.constant(c) {
            bound = substitute_const(&bound, c, &v.to_term());
        }
    }
    let normal = srnf(&bound);
    check_generic(schema, &normal)?;

    let adom = state.query_active_domain(&bound);
    let mut quantifiers = 0usize;
    normal.visit(&mut |f| {
        if matches!(f, Formula::Exists(..)) {
            quantifiers += 1;
        }
    });
    let fresh = fresh_values(&adom, free_vars.len() + quantifiers + 1);

    let aux_err = |e: crate::state::StateError| RanfIneligible::Aux {
        detail: e.to_string(),
    };
    let unary =
        |vs: &mut dyn Iterator<Item = Value>| -> Vec<Tuple> { vs.map(|v| vec![v]).collect() };
    let ext = state
        .with_aux_relation(ADOM_REL, 1, unary(&mut adom.iter().cloned()))
        .map_err(aux_err)?;
    let ext = ext
        .with_aux_relation(FRESH_REL, 1, unary(&mut fresh.iter().cloned()))
        .map_err(aux_err)?;
    let ext = ext
        .with_aux_relation(
            DOM_REL,
            1,
            unary(&mut adom.iter().chain(fresh.iter()).cloned()),
        )
        .map_err(aux_err)?;

    let relativized = relativize(&normal);
    let generator = Formula::and(
        std::iter::once(relativized.clone()).chain(free_vars.iter().map(|v| guard(ADOM_REL, v))),
    );
    let restrictor = Formula::and([
        relativized,
        Formula::or(free_vars.iter().map(|x| {
            Formula::and(
                std::iter::once(guard(FRESH_REL, x)).chain(
                    free_vars
                        .iter()
                        .filter(|y| *y != x)
                        .map(|y| guard(DOM_REL, y)),
                ),
            )
        })),
    ]);
    Ok(RanfTranslation {
        generator,
        restrictor,
        state: ext,
        fresh,
        adom_size: adom.len(),
    })
}

/// A unary auxiliary-relation atom `rel(v)`.
fn guard(rel: &str, v: &str) -> Formula {
    Formula::pred(rel, vec![Term::Var(v.into())])
}

/// The genericity gate: only database relation atoms and equalities,
/// every term a variable or a storable ground constant. Interpreted
/// domain predicates would let the query distinguish carrier elements
/// beyond equality, invalidating the fresh-marker permutation argument.
fn check_generic(schema: &Schema, f: &Formula) -> Result<(), RanfIneligible> {
    let mut problem: Option<RanfIneligible> = None;
    let check_term = |t: &Term, problem: &mut Option<RanfIneligible>| {
        if problem.is_some() || matches!(t, Term::Var(_)) {
            return;
        }
        if !(t.is_ground() && Value::from_term(t).is_some()) {
            *problem = Some(RanfIneligible::UnsupportedTerm {
                term: t.to_string(),
            });
        }
    };
    f.visit(&mut |g| {
        if problem.is_some() {
            return;
        }
        match g {
            Formula::Pred(name, args) => {
                if schema.arity(name.as_str()).is_none() {
                    problem = Some(RanfIneligible::DomainPredicate {
                        name: name.to_string(),
                    });
                    return;
                }
                for t in args {
                    check_term(t, &mut problem);
                }
            }
            Formula::Eq(a, b) => {
                check_term(a, &mut problem);
                check_term(b, &mut problem);
            }
            _ => {}
        }
    });
    match problem {
        None => Ok(()),
        Some(p) => Err(p),
    }
}

/// `n` values outside `adom`, deterministic across runs.
fn fresh_values(adom: &BTreeSet<Value>, n: usize) -> Vec<Value> {
    let mut out = Vec::with_capacity(n);
    let mut i = 0usize;
    while out.len() < n {
        let v = Value::Str(format!("\u{22a5}ranf{i}"));
        i += 1;
        if !adom.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// The relativization `T`. Invariants (by structural induction over the
/// SRNF input, see the module docs for why they make the split exact):
///
/// * `rr(T(φ)) = free(φ)` — so `T(φ)` passes the safe-range check and
///   compiles to algebra;
/// * every natural-semantics satisfying assignment of `T(φ)` maps
///   `free(φ)` into `D₀`;
/// * on assignments into `D₀`, `T(φ) ⟺ φ` (natural semantics).
fn relativize(f: &Formula) -> Formula {
    match f {
        Formula::True | Formula::False | Formula::Pred(..) => f.clone(),
        Formula::Eq(a, b) => match (a, b) {
            // x = y restricts neither side on its own; guard one and let
            // the conjunction's equality propagation restrict the other.
            (Term::Var(x), Term::Var(_)) => Formula::and([guard(DOM_REL, x.as_str()), f.clone()]),
            // var = ground (restricts the variable; the constant is in
            // `A` by construction) and ground = ground stay as they are.
            _ => f.clone(),
        },
        Formula::Not(g) => Formula::and(
            g.free_vars()
                .iter()
                .map(|v| guard(DOM_REL, v))
                .chain(std::iter::once(Formula::not(relativize(g)))),
        ),
        Formula::And(gs) => Formula::and(gs.iter().map(relativize)),
        Formula::Or(gs) => {
            // Pad each branch with dom-guards for the union's missing
            // variables: every branch then restricts (and has the
            // attributes of) the full free-variable set, which both the
            // safe-range intersection rule and the algebra's union need.
            let all = f.free_vars();
            Formula::or(gs.iter().map(|g| {
                let mine = g.free_vars();
                Formula::and(
                    std::iter::once(relativize(g))
                        .chain(all.difference(&mine).map(|v| guard(DOM_REL, v))),
                )
            }))
        }
        Formula::Exists(v, g) => {
            let inner = relativize(g);
            if g.free_vars().contains(v.as_str()) {
                Formula::exists(v.clone(), inner)
            } else {
                // A vacuous quantifier needs an explicit range to stay
                // safe-range; D₀ is nonempty, so semantics are unchanged.
                Formula::exists(v.clone(), Formula::and([guard(DOM_REL, v), inner]))
            }
        }
        Formula::Forall(..) | Formula::Implies(..) | Formula::Iff(..) => {
            unreachable!("srnf removes ∀, →, ↔")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active_eval::Ops;
    use crate::algebra::compile as compile_algebra;
    use crate::safe_range::check_safe_range;
    use fq_logic::parse_formula;

    fn fathers() -> State {
        let schema = Schema::new().with_relation("F", 2);
        State::new(schema)
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(2)])
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(3)])
            .with_tuple("F", vec![Value::Nat(2), Value::Nat(4)])
    }

    fn split(state: &State, src: &str, vars: &[&str]) -> RanfTranslation {
        let vars: Vec<String> = vars.iter().map(|s| s.to_string()).collect();
        translate(state, &parse_formula(src).unwrap(), &vars).unwrap()
    }

    fn rows(t: &RanfTranslation, f: &Formula, vars: &[&str]) -> Vec<Tuple> {
        let expr = compile_algebra(t.state.schema(), f, Ops::Equality).unwrap();
        let vars: Vec<String> = vars.iter().map(|s| s.to_string()).collect();
        expr.eval(&t.state)
            .unwrap()
            .reorder(&vars)
            .tuples
            .into_iter()
            .collect()
    }

    #[test]
    fn both_halves_are_safe_range_over_the_extended_scheme() {
        for (src, vars) in [
            ("!F(x, y)", vec!["x", "y"]),
            ("F(x, y) | F(x, x)", vec!["x", "y"]),
            ("forall y. F(x, y) -> F(y, x)", vec!["x"]),
            ("x = y", vec!["x", "y"]),
            ("exists z. !F(x, z) & !F(z, y)", vec!["x", "y"]),
        ] {
            let t = split(&fathers(), src, &vars);
            check_safe_range(t.state.schema(), &t.generator)
                .unwrap_or_else(|e| panic!("generator of `{src}` not safe-range: {e}"));
            check_safe_range(t.state.schema(), &t.restrictor)
                .unwrap_or_else(|e| panic!("restrictor of `{src}` not safe-range: {e}"));
        }
    }

    #[test]
    fn negated_relation_generator_is_the_adom_complement() {
        // ¬F(x, y): infinite answer; its active-domain core is A² ∖ F.
        let state = fathers();
        let t = split(&state, "!F(x, y)", &["x", "y"]);
        let gen = rows(&t, &t.generator, &["x", "y"]);
        let adom = state.active_domain();
        let mut expected = Vec::new();
        for a in adom.iter() {
            for b in adom.iter() {
                if !state.contains("F", &[a.clone(), b.clone()]) {
                    expected.push(vec![a.clone(), b.clone()]);
                }
            }
        }
        assert_eq!(gen, expected);
        assert!(
            !rows(&t, &t.restrictor, &["x", "y"]).is_empty(),
            "restrictor must witness the infinite answer"
        );
    }

    #[test]
    fn finite_unsafe_disjunction_has_empty_restrictor() {
        // F(x, y) ∨ F(x, x) is not safe-range (y unrestricted in the
        // second branch), but with no diagonal tuple its answer is
        // exactly F — finite.
        let state = fathers();
        let t = split(&state, "F(x, y) | F(x, x)", &["x", "y"]);
        let gen = rows(&t, &t.generator, &["x", "y"]);
        let expected: Vec<Tuple> = state.tuples("F").collect();
        assert_eq!(gen, expected);
        assert!(rows(&t, &t.restrictor, &["x", "y"]).is_empty());
    }

    #[test]
    fn universal_query_splits_into_core_plus_witness() {
        // ∀y (F(x,y) → F(y,x)): vacuously true off π₁(F), so the answer
        // is infinite; its active-domain core is {3, 4}.
        let t = split(&fathers(), "forall y. F(x, y) -> F(y, x)", &["x"]);
        let gen = rows(&t, &t.generator, &["x"]);
        assert_eq!(gen, vec![vec![Value::Nat(3)], vec![Value::Nat(4)]]);
        let res = rows(&t, &t.restrictor, &["x"]);
        assert!(!res.is_empty());
        // Every restrictor tuple carries a fresh marker.
        assert!(res
            .iter()
            .all(|row| row.iter().any(|v| t.fresh.contains(v))));
    }

    #[test]
    fn fresh_markers_avoid_the_active_domain() {
        let state =
            fathers().with_tuple("F", vec![Value::Str("\u{22a5}ranf0".into()), Value::Nat(9)]);
        let t = split(&state, "!F(x, y)", &["x", "y"]);
        let adom = state.query_active_domain(&parse_formula("!F(x, y)").unwrap());
        assert!(t.fresh.iter().all(|v| !adom.contains(v)));
        assert!(t.fresh.len() >= 3);
    }

    #[test]
    fn domain_predicates_are_ineligible() {
        let err = translate(
            &fathers(),
            &parse_formula("!F(x, y) & x < y").unwrap(),
            &["x".to_string(), "y".to_string()],
        )
        .unwrap_err();
        assert_eq!(
            err,
            RanfIneligible::DomainPredicate {
                name: "<".to_string()
            }
        );
    }

    #[test]
    fn sentences_are_ineligible() {
        let err = translate(
            &fathers(),
            &parse_formula("exists x y. F(x, y)").unwrap(),
            &[],
        );
        assert_eq!(err, Err(RanfIneligible::Sentence));
    }

    #[test]
    fn extension_is_copy_on_write() {
        let state = fathers();
        let t = split(&state, "!F(x, y)", &["x", "y"]);
        // Original untouched; extension sees both old and new relations.
        assert_eq!(state.schema().relations().count(), 1);
        assert_eq!(t.state.schema().relations().count(), 4);
        assert_eq!(t.state.relation_size("F"), state.relation_size("F"));
        assert_eq!(t.state.relation_size(ADOM_REL), t.adom_size);
        assert_eq!(t.state.relation_size(FRESH_REL), t.fresh.len());
        assert_eq!(t.state.relation_size(DOM_REL), t.adom_size + t.fresh.len());
    }

    #[test]
    fn equality_join_query_translates() {
        // x = y: infinite answer (every pair on the diagonal); the core
        // is the adom diagonal.
        let state = fathers();
        let t = split(&state, "x = y", &["x", "y"]);
        let gen = rows(&t, &t.generator, &["x", "y"]);
        let expected: Vec<Tuple> = state
            .active_domain()
            .iter()
            .map(|v| vec![v.clone(), v.clone()])
            .collect();
        assert_eq!(gen, expected);
        assert!(!rows(&t, &t.restrictor, &["x", "y"]).is_empty());
    }
}
