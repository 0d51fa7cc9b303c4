//! A named-attribute relational algebra with an evaluator, and the
//! compilation of safe-range calculus queries into it (Codd's theorem).
//!
//! The algebra is the execution target for the effective syntaxes: a
//! safe-range query compiles to an expression whose evaluation touches
//! only the stored relations, making domain independence obvious.

use crate::safe_range::srnf;
use crate::schema::Schema;
use crate::state::{State, Tuple, Value};
use fq_logic::{Formula, Term};
use std::collections::BTreeSet;

/// A relation instance during algebra evaluation: named attributes and a
/// set of tuples (columns ordered as `attrs`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Relation {
    pub attrs: Vec<String>,
    pub tuples: BTreeSet<Tuple>,
}

impl Relation {
    /// The empty relation over the given attributes.
    pub fn empty(attrs: Vec<String>) -> Self {
        Relation {
            attrs,
            tuples: BTreeSet::new(),
        }
    }

    /// Column index of an attribute.
    fn col(&self, attr: &str) -> usize {
        self.attrs
            .iter()
            .position(|a| a == attr)
            .unwrap_or_else(|| panic!("attribute `{attr}` not in {:?}", self.attrs))
    }

    /// [`Relation::reorder`] by value: the tuples move unchanged when the
    /// columns are already in `attrs` order and are permuted otherwise.
    pub fn into_order(self, attrs: &[String]) -> Relation {
        if self.attrs == attrs {
            self
        } else {
            self.reorder(attrs)
        }
    }

    /// Reorder columns to the given attribute order.
    pub fn reorder(&self, attrs: &[String]) -> Relation {
        let idx: Vec<usize> = attrs.iter().map(|a| self.col(a)).collect();
        Relation {
            attrs: attrs.to_vec(),
            tuples: self
                .tuples
                .iter()
                .map(|t| idx.iter().map(|&i| t[i].clone()).collect())
                .collect(),
        }
    }
}

/// A selection condition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Condition {
    /// Two attributes are equal.
    EqAttr(String, String),
    /// Two attributes differ.
    NeqAttr(String, String),
    /// Attribute equals a constant.
    EqConst(String, Value),
    /// Attribute differs from a constant.
    NeqConst(String, Value),
}

/// A relational algebra expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AlgebraExpr {
    /// A stored relation with attribute names for its columns.
    Base { name: String, attrs: Vec<String> },
    /// The empty relation over the given attributes (a contradictory
    /// subformula compiles to this).
    Empty(Vec<String>),
    /// A one-tuple constant relation.
    Singleton(Vec<(String, Value)>),
    /// Selection.
    Select(Box<AlgebraExpr>, Condition),
    /// Projection onto the listed attributes.
    Project(Box<AlgebraExpr>, Vec<String>),
    /// Natural join on shared attribute names.
    Join(Box<AlgebraExpr>, Box<AlgebraExpr>),
    /// Union (attribute sets must coincide).
    Union(Box<AlgebraExpr>, Box<AlgebraExpr>),
    /// Difference (attribute sets must coincide).
    Diff(Box<AlgebraExpr>, Box<AlgebraExpr>),
    /// Duplicate an existing column under a new attribute name.
    Extend(Box<AlgebraExpr>, String, String),
}

impl AlgebraExpr {
    /// The output attributes of the expression.
    pub fn attrs(&self) -> Vec<String> {
        match self {
            AlgebraExpr::Base { attrs, .. } => attrs.clone(),
            AlgebraExpr::Empty(attrs) => attrs.clone(),
            AlgebraExpr::Singleton(cols) => cols.iter().map(|(a, _)| a.clone()).collect(),
            AlgebraExpr::Select(e, _) => e.attrs(),
            AlgebraExpr::Project(_, attrs) => attrs.clone(),
            AlgebraExpr::Join(a, b) => {
                let mut out = a.attrs();
                for attr in b.attrs() {
                    if !out.contains(&attr) {
                        out.push(attr);
                    }
                }
                out
            }
            AlgebraExpr::Union(a, _) | AlgebraExpr::Diff(a, _) => a.attrs(),
            AlgebraExpr::Extend(e, new, _) => {
                let mut out = e.attrs();
                out.push(new.clone());
                out
            }
        }
    }

    /// Evaluate the expression over a state.
    pub fn eval(&self, state: &State) -> Relation {
        match self {
            AlgebraExpr::Base { name, attrs } => Relation {
                attrs: attrs.clone(),
                tuples: state.tuples(name).collect(),
            },
            AlgebraExpr::Empty(attrs) => Relation::empty(attrs.clone()),
            AlgebraExpr::Singleton(cols) => {
                let attrs: Vec<String> = cols.iter().map(|(a, _)| a.clone()).collect();
                let tuple: Tuple = cols.iter().map(|(_, v)| v.clone()).collect();
                Relation {
                    attrs,
                    tuples: [tuple].into_iter().collect(),
                }
            }
            AlgebraExpr::Select(e, cond) => {
                let r = e.eval(state);
                let keep = |t: &Tuple| -> bool {
                    match cond {
                        Condition::EqAttr(a, b) => t[r.col(a)] == t[r.col(b)],
                        Condition::NeqAttr(a, b) => t[r.col(a)] != t[r.col(b)],
                        Condition::EqConst(a, v) => t[r.col(a)] == *v,
                        Condition::NeqConst(a, v) => t[r.col(a)] != *v,
                    }
                };
                Relation {
                    attrs: r.attrs.clone(),
                    tuples: r.tuples.iter().filter(|t| keep(t)).cloned().collect(),
                }
            }
            AlgebraExpr::Project(e, attrs) => {
                let r = e.eval(state);
                let idx: Vec<usize> = attrs.iter().map(|a| r.col(a)).collect();
                Relation {
                    attrs: attrs.clone(),
                    tuples: r
                        .tuples
                        .iter()
                        .map(|t| idx.iter().map(|&i| t[i].clone()).collect())
                        .collect(),
                }
            }
            AlgebraExpr::Join(a, b) => {
                let ra = a.eval(state);
                let rb = b.eval(state);
                let shared: Vec<(usize, usize)> = ra
                    .attrs
                    .iter()
                    .enumerate()
                    .filter_map(|(i, attr)| rb.attrs.iter().position(|x| x == attr).map(|j| (i, j)))
                    .collect();
                let extra: Vec<usize> = rb
                    .attrs
                    .iter()
                    .enumerate()
                    .filter(|(_, attr)| !ra.attrs.contains(attr))
                    .map(|(j, _)| j)
                    .collect();
                let mut attrs = ra.attrs.clone();
                attrs.extend(extra.iter().map(|&j| rb.attrs[j].clone()));
                let mut tuples = BTreeSet::new();
                for ta in &ra.tuples {
                    for tb in &rb.tuples {
                        if shared.iter().all(|&(i, j)| ta[i] == tb[j]) {
                            let mut t = ta.clone();
                            t.extend(extra.iter().map(|&j| tb[j].clone()));
                            tuples.insert(t);
                        }
                    }
                }
                Relation { attrs, tuples }
            }
            AlgebraExpr::Union(a, b) => {
                let ra = a.eval(state);
                let rb = b.eval(state).reorder(&ra.attrs);
                Relation {
                    attrs: ra.attrs.clone(),
                    tuples: ra.tuples.union(&rb.tuples).cloned().collect(),
                }
            }
            AlgebraExpr::Diff(a, b) => {
                let ra = a.eval(state);
                let rb = b.eval(state).reorder(&ra.attrs);
                Relation {
                    attrs: ra.attrs.clone(),
                    tuples: ra.tuples.difference(&rb.tuples).cloned().collect(),
                }
            }
            AlgebraExpr::Extend(e, new, source) => {
                let r = e.eval(state);
                let src = r.col(source);
                let mut attrs = r.attrs.clone();
                attrs.push(new.clone());
                Relation {
                    attrs,
                    tuples: r
                        .tuples
                        .iter()
                        .map(|t| {
                            let mut t2 = t.clone();
                            t2.push(t[src].clone());
                            t2
                        })
                        .collect(),
                }
            }
        }
    }
}

/// Why a safe-range query could not be compiled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileError(pub String);

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot compile to algebra: {}", self.0)
    }
}

impl std::error::Error for CompileError {}

/// Compile a safe-range query into the algebra. The output attributes are
/// the query's free variables.
pub fn compile(schema: &Schema, query: &Formula) -> Result<AlgebraExpr, CompileError> {
    crate::safe_range::check_safe_range(schema, query).map_err(|e| CompileError(e.to_string()))?;
    compile_inner(schema, &srnf(query))
}

fn compile_inner(schema: &Schema, f: &Formula) -> Result<AlgebraExpr, CompileError> {
    match f {
        Formula::Pred(name, args) if schema.arity(name).is_some() => compile_atom(name, args),
        Formula::Eq(a, b) => match (a, b) {
            (Term::Var(v), t) | (t, Term::Var(v)) if t.is_ground() => {
                let value = Value::from_term(t)
                    .ok_or_else(|| CompileError(format!("unsupported ground term `{t}`")))?;
                Ok(AlgebraExpr::Singleton(vec![(v.to_string(), value)]))
            }
            _ => Err(CompileError(format!(
                "equality `{f}` does not define a range"
            ))),
        },
        Formula::And(gs) => compile_conjunction(schema, gs),
        Formula::Or(gs) => {
            let mut iter = gs.iter();
            let first = compile_inner(
                schema,
                iter.next()
                    .ok_or_else(|| CompileError("empty disjunction".into()))?,
            )?;
            let attrs = first.attrs();
            let mut acc = first;
            for g in iter {
                let e = compile_inner(schema, g)?;
                if e.attrs().iter().collect::<BTreeSet<_>>()
                    != attrs.iter().collect::<BTreeSet<_>>()
                {
                    return Err(CompileError(
                        "union branches have different attributes".into(),
                    ));
                }
                let aligned = AlgebraExpr::Project(Box::new(e), attrs.clone());
                acc = AlgebraExpr::Union(Box::new(acc), Box::new(aligned));
            }
            Ok(acc)
        }
        Formula::Exists(v, g) => {
            let inner = compile_inner(schema, g)?;
            let attrs: Vec<String> = inner.attrs().into_iter().filter(|a| a != v).collect();
            Ok(AlgebraExpr::Project(Box::new(inner), attrs))
        }
        other => Err(CompileError(format!(
            "subformula `{other}` is outside the compilable safe-range fragment"
        ))),
    }
}

/// Compile a relation atom: base relation with positional attributes, then
/// selections for constants and repeated variables, projected to the
/// variables.
fn compile_atom(name: &str, args: &[Term]) -> Result<AlgebraExpr, CompileError> {
    let positional: Vec<String> = (0..args.len()).map(|i| format!("@{name}_{i}")).collect();
    let mut expr = AlgebraExpr::Base {
        name: name.to_string(),
        attrs: positional.clone(),
    };
    let mut seen: Vec<(String, String)> = Vec::new(); // (var, attr)
    let mut out_attrs: Vec<String> = Vec::new();
    for (i, arg) in args.iter().enumerate() {
        match arg {
            Term::Var(v) => {
                if let Some((_, prev)) = seen.iter().find(|(var, _)| var == v) {
                    expr = AlgebraExpr::Select(
                        Box::new(expr),
                        Condition::EqAttr(prev.clone(), positional[i].clone()),
                    );
                } else {
                    seen.push((v.to_string(), positional[i].clone()));
                }
            }
            ground if ground.is_ground() => {
                let value = Value::from_term(ground)
                    .ok_or_else(|| CompileError(format!("unsupported ground term `{ground}`")))?;
                expr = AlgebraExpr::Select(
                    Box::new(expr),
                    Condition::EqConst(positional[i].clone(), value),
                );
            }
            other => {
                return Err(CompileError(format!(
                    "non-variable, non-ground argument `{other}`"
                )))
            }
        }
    }
    // Rename positional attrs to variables via Extend + Project.
    for (v, attr) in &seen {
        expr = AlgebraExpr::Extend(Box::new(expr), v.clone(), attr.clone());
        out_attrs.push(v.clone());
    }
    Ok(AlgebraExpr::Project(Box::new(expr), out_attrs))
}

fn compile_conjunction(schema: &Schema, gs: &[Formula]) -> Result<AlgebraExpr, CompileError> {
    // 0. Constant propagation: a conjunct `v = c` substitutes `c` for `v`
    // inside every other conjunct, so subformulas that mention `v` under
    // quantifiers or negations (e.g. `x = 2 & ∃z(R(y,z) ∧ x ≠ 0)`) become
    // locally well-scoped.
    let original_free: Vec<String> = Formula::And(gs.to_vec()).free_vars().into_iter().collect();
    let mut gs: Vec<Formula> = gs.to_vec();
    let mut propagated = true;
    while propagated {
        propagated = false;
        let bindings: Vec<(String, Term)> = gs
            .iter()
            .filter_map(|g| match g {
                Formula::Eq(Term::Var(v), t) | Formula::Eq(t, Term::Var(v)) if t.is_ground() => {
                    Some((v.to_string(), t.clone()))
                }
                _ => None,
            })
            .collect();
        for (v, t) in bindings {
            for g in gs.iter_mut() {
                // Keep the defining equality itself so the attribute
                // still appears in the output.
                if matches!(g, Formula::Eq(Term::Var(gv), gt) if gv == &v && gt == &t)
                    || matches!(g, Formula::Eq(gt, Term::Var(gv)) if gv == &v && gt == &t)
                {
                    continue;
                }
                let substituted = fq_logic::substitute(g, &v, &t);
                if substituted != *g {
                    *g = substituted;
                    propagated = true;
                }
            }
        }
    }
    // Ground residues left by the propagation (`¬(2 = 0)` etc.) fold away;
    // a ground `False` marks the whole conjunction contradictory.
    let gs: Vec<Formula> = gs.iter().map(fq_logic::transform::simplify).collect();
    let mut contradiction = false;
    let gs: Vec<&Formula> = gs
        .iter()
        .filter(|g| match g {
            Formula::True => false,
            Formula::False => {
                contradiction = true;
                false
            }
            _ => true,
        })
        .collect();

    // 1. Positive range-giving parts join together.
    let mut positive: Option<AlgebraExpr> = None;
    let mut equalities: Vec<(&fq_logic::Sym, &fq_logic::Sym)> = Vec::new();
    let mut negations: Vec<&Formula> = Vec::new();
    for g in gs {
        match g {
            Formula::Not(inner) => negations.push(inner),
            Formula::Eq(Term::Var(a), Term::Var(b)) => equalities.push((a, b)),
            other => {
                let e = compile_inner(schema, other)?;
                positive = Some(match positive {
                    None => e,
                    Some(p) => AlgebraExpr::Join(Box::new(p), Box::new(e)),
                });
            }
        }
    }
    if contradiction {
        // Empty relation over every original free variable (range-giving
        // parts may have collapsed together with the contradiction).
        return Ok(AlgebraExpr::Empty(original_free));
    }
    let mut expr = positive
        .ok_or_else(|| CompileError("conjunction has no positive range-giving part".into()))?;

    // 2. Variable equalities: select when both bound, extend when one new.
    let mut changed = true;
    let mut pending = equalities;
    while changed {
        changed = false;
        let mut rest = Vec::new();
        for (a, b) in pending {
            let attrs = expr.attrs();
            let has = |v: &fq_logic::Sym| attrs.iter().any(|x| v == x);
            match (has(a), has(b)) {
                (true, true) => {
                    expr = AlgebraExpr::Select(
                        Box::new(expr),
                        Condition::EqAttr(a.to_string(), b.to_string()),
                    );
                    changed = true;
                }
                (true, false) => {
                    expr = AlgebraExpr::Extend(Box::new(expr), b.to_string(), a.to_string());
                    changed = true;
                }
                (false, true) => {
                    expr = AlgebraExpr::Extend(Box::new(expr), a.to_string(), b.to_string());
                    changed = true;
                }
                (false, false) => rest.push((a, b)),
            }
        }
        pending = rest;
    }
    if !pending.is_empty() {
        return Err(CompileError(
            "variable equality over unbound variables".into(),
        ));
    }

    // 3. Negations: anti-join against the positive part.
    for inner in negations {
        let attrs = expr.attrs();
        let neg = match inner {
            // ¬(x = y) with both bound: a plain selection.
            Formula::Eq(Term::Var(a), Term::Var(b))
                if attrs.iter().any(|x| a == x) && attrs.iter().any(|x| b == x) =>
            {
                expr = AlgebraExpr::Select(
                    Box::new(expr),
                    Condition::NeqAttr(a.to_string(), b.to_string()),
                );
                continue;
            }
            Formula::Eq(Term::Var(v), t) | Formula::Eq(t, Term::Var(v))
                if attrs.iter().any(|x| v == x) && t.is_ground() =>
            {
                let value = Value::from_term(t)
                    .ok_or_else(|| CompileError(format!("unsupported ground term `{t}`")))?;
                expr =
                    AlgebraExpr::Select(Box::new(expr), Condition::NeqConst(v.to_string(), value));
                continue;
            }
            other => compile_inner(schema, other)?,
        };
        // The anti-join is only correct when every free variable of the
        // negated subformula is bound by THIS conjunction's positive part.
        // (A variable bound further out — e.g. `x = 2 & ∃z(R(y,z) ∧ x ≠ 0)`
        // — would make `E ⋈ neg` a cross product and silently wrong.)
        let neg_free = inner.free_vars();
        if !neg_free.iter().all(|v| attrs.contains(v)) {
            return Err(CompileError(format!(
                "negation `!({inner})` mentions variables not bound by the                  enclosing conjunction (a RANF rewrite would be needed)"
            )));
        }
        let joined = AlgebraExpr::Join(Box::new(expr.clone()), Box::new(neg));
        let aligned = AlgebraExpr::Project(Box::new(joined), attrs);
        expr = AlgebraExpr::Diff(Box::new(expr), Box::new(aligned));
    }
    Ok(expr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active_eval::{eval_query, NoOps};
    use fq_logic::parse_formula;

    fn fathers() -> State {
        let schema = Schema::new().with_relation("F", 2);
        State::new(schema)
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(2)])
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(3)])
            .with_tuple("F", vec![Value::Nat(2), Value::Nat(4)])
    }

    /// Compile, evaluate, and compare with active-domain evaluation —
    /// they agree on safe-range (hence domain-independent) queries.
    fn check_against_calculus(query: &str) {
        let state = fathers();
        let f = parse_formula(query).unwrap();
        let expr = compile(state.schema(), &f).expect("compiles");
        let rel = expr.eval(&state);
        let vars: Vec<String> = f.free_vars().into_iter().collect();
        let reference = eval_query(&state, &NoOps, &f, &vars).unwrap();
        let algebra: BTreeSet<Tuple> = rel.reorder(&vars).tuples;
        let reference: BTreeSet<Tuple> = reference.into_iter().collect();
        assert_eq!(algebra, reference, "query: {query}");
    }

    #[test]
    fn base_relation_round_trip() {
        check_against_calculus("F(x, y)");
    }

    #[test]
    fn papers_m_and_g_queries() {
        check_against_calculus("exists y z. y != z & F(x, y) & F(x, z)");
        check_against_calculus("exists y. F(x, y) & F(y, z)");
    }

    #[test]
    fn constants_and_repeated_vars() {
        check_against_calculus("F(1, y)");
        check_against_calculus("F(x, x)");
        check_against_calculus("F(x, y) & y = 2");
    }

    #[test]
    fn union_and_difference() {
        check_against_calculus("F(x, y) | (x = 9 & y = 9)");
        check_against_calculus("F(x, y) & !F(y, x)");
        // Fathers who are not grandsons of anyone.
        check_against_calculus("(exists y. F(x, y)) & !(exists g. exists f. F(g, f) & F(f, x))");
    }

    #[test]
    fn variable_equality_extension() {
        check_against_calculus("F(x, y) & z = y");
    }

    #[test]
    fn negated_equalities() {
        check_against_calculus("F(x, y) & x != y");
        check_against_calculus("F(x, y) & y != 2");
    }

    #[test]
    fn unsafe_queries_do_not_compile() {
        let schema = Schema::new().with_relation("F", 2);
        for q in ["!F(x, y)", "x = y", "F(x, y) | x = 1"] {
            assert!(
                compile(&schema, &parse_formula(q).unwrap()).is_err(),
                "{q} should not compile"
            );
        }
    }

    #[test]
    fn boolean_query_compiles_to_nullary_relation() {
        let state = fathers();
        let f = parse_formula("exists x y. F(x, y)").unwrap();
        let expr = compile(state.schema(), &f).unwrap();
        let rel = expr.eval(&state);
        assert!(rel.attrs.is_empty());
        assert_eq!(rel.tuples.len(), 1); // non-empty: true
    }

    #[test]
    fn singleton_and_join() {
        let e = AlgebraExpr::Join(
            Box::new(AlgebraExpr::Singleton(vec![("x".into(), Value::Nat(1))])),
            Box::new(AlgebraExpr::Base {
                name: "F".into(),
                attrs: vec!["x".into(), "y".into()],
            }),
        );
        let rel = e.eval(&fathers());
        assert_eq!(rel.tuples.len(), 2);
    }

    #[test]
    fn outer_constant_propagates_into_quantified_negation() {
        // The proptest-found case: x is pinned at the top level but used
        // inside a quantified subformula's negation.
        check_against_calculus("x = 2 & (exists z. F(y, z) & x != 0)");
        check_against_calculus("x = 1 & (exists z. F(y, z) & x != 1)");
    }

    #[test]
    fn forall_via_srnf() {
        // Fathers all of whose sons are 2 or 3.
        check_against_calculus("(exists y. F(x, y)) & forall y. F(x, y) -> y = 2 | y = 3");
    }
}
