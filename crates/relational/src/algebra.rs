//! A named-attribute relational algebra with an evaluator, and the
//! compilation of safe-range calculus queries into it (Codd's theorem).
//!
//! The algebra is the execution target for the effective syntaxes: a
//! safe-range query compiles to an expression whose evaluation touches
//! only the stored relations, making domain independence obvious. Every
//! safe-range query compiles: only relation atoms and equalities with
//! constants restrict a variable, so a domain atom such as `x < y` is a
//! selection once the conjunction around it binds its variables.

use crate::active_eval::{Ops, QueryInterp};
use crate::safe_range::{range_restricted, srnf};
use crate::schema::Schema;
use crate::state::{State, Tuple, Value};
use fq_logic::eval::{eval, Assignment};
use fq_logic::{fresh_var, Formula, LogicError, Term};
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
    /// A domain atom — a domain predicate, or an equality with a function
    /// term — or its negation, over the attributes its variables name,
    /// holds under the domain operations `ops`.
    Domain { atom: Formula, ops: Ops },
}

impl Condition {
    /// The attributes the condition reads.
    pub fn attrs(&self) -> Vec<String> {
        match self {
            Condition::EqAttr(a, b) | Condition::NeqAttr(a, b) => vec![a.clone(), b.clone()],
            Condition::EqConst(a, _) | Condition::NeqConst(a, _) => vec![a.clone()],
            Condition::Domain { atom, .. } => atom.free_vars().into_iter().collect(),
        }
    }
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

    /// Evaluate the expression over a state. Only a domain selection can
    /// fail, when its atom does not evaluate (an overflow, or a symbol the
    /// domain does not interpret).
    pub fn eval(&self, state: &State) -> Result<Relation, LogicError> {
        Ok(match self {
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
                let r = e.eval(state)?;
                let keep = |t: &Tuple| -> Result<bool, LogicError> {
                    Ok(match cond {
                        Condition::EqAttr(a, b) => t[r.col(a)] == t[r.col(b)],
                        Condition::NeqAttr(a, b) => t[r.col(a)] != t[r.col(b)],
                        Condition::EqConst(a, v) => t[r.col(a)] == *v,
                        Condition::NeqConst(a, v) => t[r.col(a)] != *v,
                        Condition::Domain { atom, ops } => {
                            let mut env: Assignment<Value> = cond
                                .attrs()
                                .into_iter()
                                .map(|a| {
                                    let v = t[r.col(&a)].clone();
                                    (a, v)
                                })
                                .collect();
                            eval(&QueryInterp::new(state, ops), &[], &mut env, atom)?
                        }
                    })
                };
                let mut tuples = BTreeSet::new();
                for t in &r.tuples {
                    if keep(t)? {
                        tuples.insert(t.clone());
                    }
                }
                Relation {
                    attrs: r.attrs.clone(),
                    tuples,
                }
            }
            AlgebraExpr::Project(e, attrs) => {
                let r = e.eval(state)?;
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
                let ra = a.eval(state)?;
                let rb = b.eval(state)?;
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
                let ra = a.eval(state)?;
                let rb = b.eval(state)?.reorder(&ra.attrs);
                Relation {
                    attrs: ra.attrs.clone(),
                    tuples: ra.tuples.union(&rb.tuples).cloned().collect(),
                }
            }
            AlgebraExpr::Diff(a, b) => {
                let ra = a.eval(state)?;
                let rb = b.eval(state)?.reorder(&ra.attrs);
                Relation {
                    attrs: ra.attrs.clone(),
                    tuples: ra.tuples.difference(&rb.tuples).cloned().collect(),
                }
            }
            AlgebraExpr::Extend(e, new, source) => {
                let r = e.eval(state)?;
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
        })
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
/// the query's free variables. Ground terms must be literals: fold the
/// others first ([`crate::active_eval::fold_ground`]). A domain atom
/// becomes a [`Condition::Domain`] selection evaluated with `ops`.
pub fn compile(schema: &Schema, query: &Formula, ops: Ops) -> Result<AlgebraExpr, CompileError> {
    crate::safe_range::check_safe_range(schema, query).map_err(|e| CompileError(e.to_string()))?;
    compile_inner(schema, &srnf(query), ops, true)
}

/// `push` lets a conjunction compile a part that needs variables the rest
/// of it binds, by pushing that rest into the part. Without it the
/// translation is the plain one, which fails on such a part.
fn compile_inner(
    schema: &Schema,
    f: &Formula,
    ops: Ops,
    push: bool,
) -> Result<AlgebraExpr, CompileError> {
    match f {
        Formula::Pred(name, args) if schema.arity(name).is_some() => compile_atom(name, args, ops),
        // A closed atom or negation keeps or drops the empty tuple.
        Formula::Pred(..) | Formula::Eq(..) | Formula::Not(_) | Formula::True | Formula::False
            if f.free_vars().is_empty() =>
        {
            compile_conjunction(schema, std::slice::from_ref(f), ops, push)
        }
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
        Formula::And(gs) => compile_conjunction(schema, gs, ops, push),
        Formula::Or(gs) => {
            let mut iter = gs.iter();
            let first = compile_inner(
                schema,
                iter.next()
                    .ok_or_else(|| CompileError("empty disjunction".into()))?,
                ops,
                push,
            )?;
            let attrs = first.attrs();
            let mut acc = first;
            for g in iter {
                let e = compile_inner(schema, g, ops, push)?;
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
            let inner = compile_inner(schema, g, ops, push)?;
            let attrs: Vec<String> = inner.attrs().into_iter().filter(|a| a != v).collect();
            Ok(AlgebraExpr::Project(Box::new(inner), attrs))
        }
        other => Err(CompileError(format!(
            "subformula `{other}` is outside the compilable safe-range fragment"
        ))),
    }
}

/// Compile a relation atom: base relation with positional attributes, then
/// selections for constants, repeated variables and function terms over
/// the atom's own variables, projected to the variables.
fn compile_atom(name: &str, args: &[Term], ops: Ops) -> Result<AlgebraExpr, CompileError> {
    let positional: Vec<String> = (0..args.len()).map(|i| format!("@{name}_{i}")).collect();
    let mut expr = AlgebraExpr::Base {
        name: name.to_string(),
        attrs: positional.clone(),
    };
    let mut seen: Vec<(String, String)> = Vec::new(); // (var, attr)
    let mut out_attrs: Vec<String> = Vec::new();
    let mut computed: Vec<(usize, &Term)> = Vec::new();
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
            other => computed.push((i, other)),
        }
    }
    // `F(x, x')` keeps the rows where `@F_1 = @F_0'`.
    for (i, t) in computed {
        let mut term = t.clone();
        for v in t.vars() {
            let (_, attr) = seen.iter().find(|(var, _)| *var == v).ok_or_else(|| {
                CompileError(format!(
                    "argument `{t}` of `{name}` mentions a variable the atom does not bind"
                ))
            })?;
            term = term.subst_var(&v, &Term::var(attr.as_str()));
        }
        let atom = Formula::eq(Term::var(positional[i].as_str()), term);
        expr = AlgebraExpr::Select(Box::new(expr), Condition::Domain { atom, ops });
    }
    // Rename positional attrs to variables via Extend + Project.
    for (v, attr) in &seen {
        expr = AlgebraExpr::Extend(Box::new(expr), v.clone(), attr.clone());
        out_attrs.push(v.clone());
    }
    Ok(AlgebraExpr::Project(Box::new(expr), out_attrs))
}

fn compile_conjunction(
    schema: &Schema,
    gs: &[Formula],
    ops: Ops,
    push: bool,
) -> Result<AlgebraExpr, CompileError> {
    // 0. Constant propagation: a conjunct `v = c` substitutes `c` for `v`
    // inside every other conjunct, so subformulas that mention `v` under
    // quantifiers or negations (e.g. `x = 2 & ∃z(R(y,z) ∧ x ≠ 0)`) become
    // locally well-scoped. A conjunct that still applies a function after
    // the substitution (`x + 1` at `x = 2`) keeps `v` instead: its domain
    // atoms select on the bound attribute.
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
                let simplified = fq_logic::transform::simplify(&substituted);
                if substituted != *g && !has_function(&simplified) {
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

    // 1. Positive range-giving parts join together. A part the plain
    // translation compiles keeps the expression it gives; one that binds
    // its own variables but needs a push inside compiles on its own; any
    // other waits for step 2.
    let mut positive: Option<AlgebraExpr> = None;
    let join = |positive: Option<AlgebraExpr>, e: AlgebraExpr| match positive {
        None => e,
        Some(p) => AlgebraExpr::Join(Box::new(p), Box::new(e)),
    };
    let mut equalities: Vec<(&fq_logic::Sym, &fq_logic::Sym)> = Vec::new();
    let mut negations: Vec<&Formula> = Vec::new();
    let mut selections: Vec<&Formula> = Vec::new();
    let mut alone: Vec<&Formula> = Vec::new();
    let mut waiting: Vec<&Formula> = Vec::new();
    for &g in &gs {
        match g {
            Formula::Not(inner) => negations.push(inner),
            Formula::Eq(Term::Var(a), Term::Var(b)) => equalities.push((a, b)),
            atom if is_domain_atom(schema, atom) => selections.push(atom),
            other => {
                let e = match compile_inner(schema, other, ops, false) {
                    Ok(e) => e,
                    Err(e) if !push => return Err(e),
                    Err(_) if unbound(schema, other).is_empty() => {
                        compile_inner(schema, other, ops, true)?
                    }
                    Err(_) => {
                        waiting.push(other);
                        continue;
                    }
                };
                positive = Some(join(positive, e));
                alone.push(other);
            }
        }
    }
    let alone_attrs: BTreeSet<String> = positive.iter().flat_map(AlgebraExpr::attrs).collect();
    if contradiction {
        // Empty relation over every original free variable (range-giving
        // parts may have collapsed together with the contradiction).
        return Ok(AlgebraExpr::Empty(original_free));
    }
    // The `P` that `P ∧ ψ ≡ P ∧ push_into(P, ψ)` pushes into a part `ψ` that
    // needs the variables `needed`: the parts that bind their own
    // variables, the equalities those extend, and for each needed
    // variable they leave unbound its generator in the conjunction. Every
    // part of `P` compiles on its own, so no part is compiled again inside
    // another's branches.
    let context = |needed: BTreeSet<String>| -> Result<Vec<Formula>, CompileError> {
        let mut p: Vec<Formula> = alone.iter().map(|g| (*g).clone()).collect();
        let mut bound = alone_attrs.clone();
        let mut rest = equalities.clone();
        while let Some(k) = rest
            .iter()
            .position(|(a, b)| bound.contains(a.as_str()) || bound.contains(b.as_str()))
        {
            let (a, b) = rest.swap_remove(k);
            bound.extend([a.to_string(), b.to_string()]);
            p.push(Formula::eq(Term::var(a.as_str()), Term::var(b.as_str())));
        }
        let all = Formula::And(gs.iter().map(|g| (*g).clone()).collect());
        for v in needed.difference(&bound) {
            p.push(generator(schema, v, v, &all).ok_or_else(|| {
                CompileError(format!("variable `{v}` has no range in the conjunction"))
            })?);
        }
        Ok(p)
    };

    // 2. A waiting part compiles with `P` pushed into it.
    for g in waiting {
        let pushed = push_into(context(unbound(schema, g))?, g).ok_or_else(|| {
            CompileError(format!(
                "subformula `{g}` is outside the compilable safe-range fragment"
            ))
        })?;
        positive = Some(join(positive, compile_inner(schema, &pushed, ops, true)?));
    }
    // A conjunction without range-giving parts binds no variable: it
    // filters the one empty tuple.
    let mut expr = positive.unwrap_or_else(|| AlgebraExpr::Singleton(Vec::new()));

    // 3. Variable equalities: select when both bound, extend when one new.
    let mut changed = true;
    let mut pending = equalities.clone();
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

    // 4. Domain atoms select on the bound attributes.
    for atom in selections {
        expr = select_domain(expr, atom.clone(), ops)?;
    }

    // 5. Negations: anti-join against the positive part.
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
            atom if is_domain_atom(schema, atom) => {
                expr = select_domain(expr, Formula::not(atom.clone()), ops)?;
                continue;
            }
            other => other,
        };
        // The anti-join is only correct when every free variable of the
        // negated subformula is bound by THIS conjunction's positive part.
        // (A variable bound further out — e.g. `x = 2 & ∃z(R(y,z) ∧ x ≠ 0)`
        // — would make `E ⋈ neg` a cross product and silently wrong; the
        // enclosing conjunction pushes its own positive part in instead.)
        let neg_free = inner.free_vars();
        if !neg_free.iter().all(|v| attrs.contains(v)) {
            return Err(CompileError(format!(
                "negation `!({inner})` mentions variables not bound by the enclosing conjunction"
            )));
        }
        // A negated part that does not bind its own variables compiles
        // with `P` in it: P ∧ ¬ψ ≡ P ∧ ¬(P ∧ ψ).
        let neg = match compile_inner(schema, neg, ops, false) {
            Ok(e) => e,
            Err(e) if !push => return Err(e),
            Err(_) => {
                let needed = unbound(schema, neg);
                if needed.is_empty() {
                    compile_inner(schema, neg, ops, true)?
                } else {
                    let mut conjuncts = context(needed)?;
                    conjuncts.push(neg.clone());
                    compile_inner(schema, &Formula::and(conjuncts), ops, true)?
                }
            }
        };
        let joined = AlgebraExpr::Join(Box::new(expr.clone()), Box::new(neg));
        let aligned = AlgebraExpr::Project(Box::new(joined), attrs);
        expr = AlgebraExpr::Diff(Box::new(expr), Box::new(aligned));
    }
    Ok(expr)
}

/// An atom that restricts no variable: a domain predicate, or an
/// equality other than `x = y` and `x = c`.
fn is_domain_atom(schema: &Schema, f: &Formula) -> bool {
    match f {
        Formula::Pred(name, _) => schema.arity(name).is_none(),
        Formula::Eq(Term::Var(_), Term::Var(_)) => false,
        Formula::Eq(Term::Var(_), t) | Formula::Eq(t, Term::Var(_)) => !t.is_ground(),
        Formula::Eq(..) => true,
        _ => false,
    }
}

/// `σ[atom]` over `expr`, which must bind the atom's variables.
fn select_domain(expr: AlgebraExpr, atom: Formula, ops: Ops) -> Result<AlgebraExpr, CompileError> {
    let attrs = expr.attrs();
    if !atom.free_vars().iter().all(|v| attrs.contains(v)) {
        return Err(CompileError(format!(
            "domain atom `{atom}` mentions variables not bound by the enclosing conjunction"
        )));
    }
    Ok(AlgebraExpr::Select(
        Box::new(expr),
        Condition::Domain { atom, ops },
    ))
}

/// The free variables of `f` that `f` does not range-restrict itself:
/// empty exactly when `f` compiles on its own.
fn unbound(schema: &Schema, f: &Formula) -> BTreeSet<String> {
    let free = f.free_vars();
    match range_restricted(schema, f) {
        Ok(rr) => free.difference(&rr).cloned().collect(),
        Err(_) => free,
    }
}

/// The generator of `v` in `f`, written over `target`: a formula whose one
/// free variable is `target`, that holds of every value `v` takes in a
/// model of `f`, and that compiles on its own — the relation atoms and
/// constant equalities that range-restrict `v`, their other arguments
/// quantified away. `None` when `v` is not range-restricted in `f`.
fn generator(schema: &Schema, v: &str, target: &str, f: &Formula) -> Option<Formula> {
    match f {
        Formula::Pred(name, args)
            if schema.arity(name).is_some() && args.iter().any(|t| is_var(t, v)) =>
        {
            let mut taken: BTreeSet<String> = [target.to_string()].into();
            let mut fresh = Vec::new();
            let args = args
                .iter()
                .map(|t| {
                    if is_var(t, v) {
                        return Term::var(target);
                    }
                    let u = fresh_var("u", &taken);
                    taken.insert(u.clone());
                    fresh.push(u.clone());
                    Term::var(u.as_str())
                })
                .collect();
            Some(Formula::exists_many(
                fresh,
                Formula::Pred(name.clone(), args),
            ))
        }
        Formula::Eq(Term::Var(x), t) | Formula::Eq(t, Term::Var(x)) if x == v && t.is_ground() => {
            Some(Formula::eq(Term::var(target), t.clone()))
        }
        Formula::Or(gs) => gs
            .iter()
            .map(|g| generator(schema, v, target, g))
            .collect::<Option<Vec<_>>>()
            .map(Formula::or),
        Formula::Exists(y, g) if y != v => generator(schema, v, target, g),
        // A conjunct restricts `v`, or a variable a chain of equality
        // conjuncts equates with it.
        Formula::And(gs) => {
            let mut aliases = vec![v.to_string()];
            let mut k = 0;
            while let Some(a) = aliases.get(k).cloned() {
                if let Some(found) = gs.iter().find_map(|g| generator(schema, &a, target, g)) {
                    return Some(found);
                }
                for g in gs {
                    if let Formula::Eq(Term::Var(x), Term::Var(y)) = g {
                        for (from, to) in [(x, y), (y, x)] {
                            if *from == a && !aliases.iter().any(|b| to == b) {
                                aliases.push(to.to_string());
                            }
                        }
                    }
                }
                k += 1;
            }
            None
        }
        _ => None,
    }
}

/// The formula that replaces the part `g` of a conjunction, with the
/// parts `p` of that conjunction moved to where `g` needs their
/// bindings: `P ∧ (ψ₁ ∨ ψ₂) ≡ P ∧ ((P ∧ ψ₁) ∨ (P ∧ ψ₂))` and
/// `P ∧ ∃y ψ ≡ P ∧ ∃y (P ∧ ψ)`, with `y` renamed away from `P`. A
/// relation atom with a function-term argument `t` over variables bound
/// elsewhere is `∃u (R(…u…) ∧ u = t)`. `None` for any other part.
fn push_into(p: Vec<Formula>, g: &Formula) -> Option<Formula> {
    let p_free: BTreeSet<String> = p.iter().flat_map(Formula::free_vars).collect();
    let mut taken: BTreeSet<String> = g.all_vars().union(&p_free).cloned().collect();
    let with = |parts: Vec<Formula>| Formula::and(p.iter().cloned().chain(parts));
    match g {
        Formula::Or(gs) => Some(Formula::Or(
            gs.iter().map(|h| with(vec![h.clone()])).collect(),
        )),
        Formula::And(gs) => Some(with(gs.clone())),
        Formula::Exists(y, body) if p_free.contains(y) => {
            let fresh = fresh_var(y, &taken);
            let body = fq_logic::substitute(body, y, &Term::var(fresh.as_str()));
            Some(Formula::exists(fresh, with(vec![body])))
        }
        Formula::Exists(y, body) => Some(Formula::exists(y.clone(), with(vec![(**body).clone()]))),
        Formula::Pred(name, args) => {
            let mut fresh = Vec::new();
            let mut parts = Vec::new();
            let args = args
                .iter()
                .map(|t| match t {
                    Term::App(..) if !t.is_ground() => {
                        let u = fresh_var("u", &taken);
                        taken.insert(u.clone());
                        parts.push(Formula::eq(Term::var(u.as_str()), t.clone()));
                        fresh.push(u.clone());
                        Term::var(u.as_str())
                    }
                    other => other.clone(),
                })
                .collect();
            parts.insert(0, Formula::Pred(name.clone(), args));
            Some(Formula::exists_many(fresh, with(parts)))
        }
        _ => None,
    }
}

fn is_var(t: &Term, v: &str) -> bool {
    matches!(t, Term::Var(x) if x == v)
}

/// Whether an atom of `f` applies a function.
fn has_function(f: &Formula) -> bool {
    let app = |t: &Term| matches!(t, Term::App(..));
    let mut found = false;
    f.visit(&mut |g| match g {
        Formula::Pred(_, args) => found |= args.iter().any(app),
        Formula::Eq(a, b) => found |= app(a) || app(b),
        _ => {}
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active_eval::eval_query;
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
        check_with(query, Ops::Equality);
    }

    fn check_with(query: &str, ops: Ops) {
        let state = fathers();
        let f = parse_formula(query).unwrap();
        let expr = compile(state.schema(), &f, ops).expect("compiles");
        let rel = expr.eval(&state).unwrap();
        let vars: Vec<String> = f.free_vars().into_iter().collect();
        let reference = eval_query(&state, &ops, &f, &vars).unwrap();
        let algebra: BTreeSet<Tuple> = rel.reorder(&vars).tuples;
        let reference: BTreeSet<Tuple> = reference.into_iter().collect();
        assert_eq!(algebra, reference, "query: {query}");
    }

    fn size(e: &AlgebraExpr) -> usize {
        1 + match e {
            AlgebraExpr::Select(a, _)
            | AlgebraExpr::Project(a, _)
            | AlgebraExpr::Extend(a, _, _) => size(a),
            AlgebraExpr::Join(a, b) | AlgebraExpr::Union(a, b) | AlgebraExpr::Diff(a, b) => {
                size(a) + size(b)
            }
            _ => 0,
        }
    }

    /// Compile `query` within a fixed time and into at most `max_nodes`
    /// algebra nodes.
    fn compiles_small(query: &str, ops: Ops, max_nodes: usize) {
        let f = parse_formula(query).unwrap();
        let start = std::time::Instant::now();
        let expr = compile(fathers().schema(), &f, ops).expect("compiles");
        let elapsed = start.elapsed();
        assert!(elapsed.as_secs() < 5, "compiling took {elapsed:?}: {query}");
        assert!(size(&expr) <= max_nodes, "{} nodes: {query}", size(&expr));
    }

    #[test]
    fn sibling_parts_are_not_compiled_inside_each_other() {
        // Each disjunction binds `x` in one branch and `y` in the other,
        // so it compiles only with `F(x, y)` pushed into it — and with
        // nothing else: the other disjunctions stay out of its branches.
        let part =
            |i: usize| format!("((exists z. F(x, z) & z != {i}) | (exists z. F(y, z) & z != {i}))");
        let conj = |k: usize| {
            let parts: Vec<String> = (0..k).map(part).collect();
            format!("F(x, y) & {}", parts.join(" & "))
        };
        compiles_small(&conj(12), Ops::Equality, 12 * 60);
        check_against_calculus(&conj(3));
    }

    #[test]
    fn mutually_dependent_parts_compile_through_generators() {
        // Part `i` ranges `v{i}` and needs `v{i+1}`, which only the next
        // part (cyclically) ranges: each gets the generator of the
        // variable it needs, not the part that ranges it.
        let conj = |k: usize| {
            let parts: Vec<String> = (0..k)
                .map(|i| {
                    let j = (i + 1) % k;
                    format!("(F(v{i}, v{j}) | F(v{i}, v{i}) & v{j} < v{i})")
                })
                .collect();
            parts.join(" & ")
        };
        compiles_small(&conj(12), Ops::Nat, 12 * 60);
        check_with(&conj(3), Ops::Nat);
    }

    #[test]
    fn closed_parts_filter_the_empty_tuple() {
        check_with(
            "F(x, y) & (!(exists z. F(z, z)) | !(exists z. z = 2))",
            Ops::Nat,
        );
        check_with("F(x, y) & ((exists z. F(z, 4)) | 1 < 0)", Ops::Nat);
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
                compile(&schema, &parse_formula(q).unwrap(), Ops::Equality).is_err(),
                "{q} should not compile"
            );
        }
    }

    #[test]
    fn boolean_query_compiles_to_nullary_relation() {
        let state = fathers();
        let f = parse_formula("exists x y. F(x, y)").unwrap();
        let expr = compile(state.schema(), &f, Ops::Equality).unwrap();
        let rel = expr.eval(&state).unwrap();
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
        let rel = e.eval(&fathers()).unwrap();
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
