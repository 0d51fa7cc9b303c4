//! Logical optimization of algebra expressions.
//!
//! [`optimize`] canonicalizes an [`AlgebraExpr`] before physical
//! execution: selections sink below joins and unions (a domain
//! selection, which can fail on a row, only below unions, projections
//! and extends), cascaded projections fuse, projections are pruned to
//! the attributes the rest of the plan needs, and join chains are
//! reordered greedily by cardinality estimates drawn from the
//! [`State`]'s relation sizes.
//!
//! Every rewrite preserves the *set* of result tuples **and** the root
//! attribute list (order included), and every domain selection sees the
//! rows it sees unoptimized, so the optimized expression is
//! interchangeable with the original under [`AlgebraExpr::eval`] —
//! errors included — the property the `prop_physical` suite checks
//! against the naive backend.
//! Where a rule would permute columns (join reordering), the rewritten
//! subtree is wrapped in a `Project` restoring the original order.

use crate::algebra::{AlgebraExpr, Condition};
use crate::state::{State, Value};
use crate::val::ColStats;
use fq_logic::Term;
use std::collections::BTreeSet;

/// An optimized expression plus the human-readable log of rewrites
/// applied, in application order — surfaced by `fq explain`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OptimizedExpr {
    pub expr: AlgebraExpr,
    pub rewrites: Vec<String>,
}

/// Rewrite `expr` to a cheaper equivalent for `state`. Deterministic:
/// the same (expression, state) pair always yields the same plan.
pub fn optimize(expr: &AlgebraExpr, state: &State) -> OptimizedExpr {
    let mut cur = expr.clone();
    let mut rewrites = Vec::new();
    // Each pass sweeps bottom-up applying local rules; a fixed cap keeps
    // termination obvious even if estimates make two rules disagree.
    for _ in 0..12 {
        let (next, changed) = sweep(cur, state, &mut rewrites);
        cur = next;
        if !changed {
            break;
        }
    }
    debug_assert_eq!(cur.attrs(), expr.attrs(), "rewrites must preserve attrs");
    OptimizedExpr {
        expr: cur,
        rewrites,
    }
}

/// Estimated output cardinality. Where an attribute traces back to a
/// stored column, the estimate uses that column's statistics (distinct
/// count, min/max) from the [`State`]'s columnar store: an equality
/// selection keeps `rows / distinct` tuples — zero when the constant
/// falls outside the column's value range or is interned nowhere in the
/// state — and an equijoin keeps `|A|·|B| / max(distinct keys)`. Where
/// no statistics apply, the old coarse heuristics remain: equality
/// selections keep a quarter, joins with a shared key keep the larger
/// input, attribute-disjoint joins are cross products.
pub fn estimate(expr: &AlgebraExpr, state: &State) -> usize {
    match expr {
        AlgebraExpr::Base { name, .. } => state.relation_size(name),
        AlgebraExpr::Empty(_) => 0,
        AlgebraExpr::Singleton(_) => 1,
        AlgebraExpr::Select(e, cond) => {
            let n = estimate(e, state);
            match cond {
                Condition::EqConst(attr, v) => match column_of(e, attr, state) {
                    Some(stats) => eq_const_estimate(n, stats, v, state),
                    None => n.div_ceil(4),
                },
                Condition::EqAttr(a, _) => match column_of(e, a, state) {
                    Some(stats) => n.div_ceil(stats.distinct.max(1)).max(usize::from(n > 0)),
                    None => n.div_ceil(4),
                },
                Condition::NeqAttr(..) | Condition::NeqConst(..) | Condition::Domain { .. } => n,
            }
        }
        AlgebraExpr::Project(e, _) | AlgebraExpr::Extend(e, _, _) => estimate(e, state),
        AlgebraExpr::Join(a, b) => {
            let (ea, eb) = (estimate(a, state), estimate(b, state));
            let shared = a.attrs().iter().any(|x| b.attrs().contains(x));
            if shared {
                join_estimate(a, b, ea, eb, state)
            } else {
                ea.saturating_mul(eb)
            }
        }
        AlgebraExpr::Union(a, b) => estimate(a, state).saturating_add(estimate(b, state)),
        AlgebraExpr::Diff(a, _) => estimate(a, state),
    }
}

/// Equality-selection estimate from column statistics: uniform
/// `rows / distinct`, clamped to zero when the constant provably matches
/// no stored value — outside the column's [min, max] window, or a string
/// or oversized natural the state's dictionary never interned (small
/// naturals are inline words and can't be ruled out by the dictionary).
fn eq_const_estimate(n: usize, stats: &ColStats, v: &Value, state: &State) -> usize {
    let (Some(min), Some(max)) = (&stats.min, &stats.max) else {
        return 0; // empty column
    };
    if v < min || v > max {
        return 0;
    }
    if state.dict().lookup(v).is_none() {
        return 0;
    }
    n.div_ceil(stats.distinct.max(1)).max(usize::from(n > 0))
}

/// Equijoin estimate: `|A|·|B| / max(distinct key values)` when the
/// (single) shared attribute resolves to stored columns on both sides,
/// else the coarse `max(|A|, |B|)` bound.
fn join_estimate(a: &AlgebraExpr, b: &AlgebraExpr, ea: usize, eb: usize, state: &State) -> usize {
    let shared: Vec<String> = a
        .attrs()
        .into_iter()
        .filter(|x| b.attrs().contains(x))
        .collect();
    if let [key] = shared.as_slice() {
        if let (Some(sa), Some(sb)) = (column_of(a, key, state), column_of(b, key, state)) {
            let d = sa.distinct.max(sb.distinct).max(1);
            let est = ea.saturating_mul(eb) / d;
            return est.max(usize::from(ea > 0 && eb > 0));
        }
    }
    ea.max(eb)
}

/// Trace an attribute through selections, projections, and extensions to
/// the stored base column it reads, and return that column's statistics.
/// `None` when the attribute is computed (singletons, unions, joins) or
/// the relation is not stored.
fn column_of<'s>(expr: &AlgebraExpr, attr: &str, state: &'s State) -> Option<&'s ColStats> {
    match expr {
        AlgebraExpr::Base { name, attrs } => {
            let idx = attrs.iter().position(|a| a == attr)?;
            state.column_stats(name)?.get(idx)
        }
        AlgebraExpr::Select(e, _) | AlgebraExpr::Project(e, _) => column_of(e, attr, state),
        AlgebraExpr::Extend(e, new, src) => {
            let follow = if attr == new { src } else { attr };
            column_of(e, follow, state)
        }
        _ => None,
    }
}

/// One bottom-up sweep: children first, then the local rules at this
/// node. Returns the rewritten node and whether anything changed.
fn sweep(expr: AlgebraExpr, state: &State, log: &mut Vec<String>) -> (AlgebraExpr, bool) {
    let (expr, mut changed) = match expr {
        AlgebraExpr::Select(e, cond) => {
            let (e, c) = sweep(*e, state, log);
            (AlgebraExpr::Select(Box::new(e), cond), c)
        }
        AlgebraExpr::Project(e, attrs) => {
            let (e, c) = sweep(*e, state, log);
            (AlgebraExpr::Project(Box::new(e), attrs), c)
        }
        AlgebraExpr::Join(a, b) => {
            let (a, ca) = sweep(*a, state, log);
            let (b, cb) = sweep(*b, state, log);
            (AlgebraExpr::Join(Box::new(a), Box::new(b)), ca || cb)
        }
        AlgebraExpr::Union(a, b) => {
            let (a, ca) = sweep(*a, state, log);
            let (b, cb) = sweep(*b, state, log);
            (AlgebraExpr::Union(Box::new(a), Box::new(b)), ca || cb)
        }
        AlgebraExpr::Diff(a, b) => {
            let (a, ca) = sweep(*a, state, log);
            let (b, cb) = sweep(*b, state, log);
            (AlgebraExpr::Diff(Box::new(a), Box::new(b)), ca || cb)
        }
        AlgebraExpr::Extend(e, new, src) => {
            let (e, c) = sweep(*e, state, log);
            (AlgebraExpr::Extend(Box::new(e), new, src), c)
        }
        leaf => (leaf, false),
    };
    let (expr, local) = rewrite_node(expr, state, log);
    changed |= local;
    (expr, changed)
}

/// Apply at most one local rule at this node.
fn rewrite_node(expr: AlgebraExpr, state: &State, log: &mut Vec<String>) -> (AlgebraExpr, bool) {
    match expr {
        AlgebraExpr::Select(inner, cond) => rewrite_select(*inner, cond, log),
        AlgebraExpr::Project(inner, attrs) => rewrite_project(*inner, attrs, log),
        e @ AlgebraExpr::Join(..) => rewrite_join_chain(e, state, log),
        other => (other, false),
    }
}

/// Selection pushdown. A domain selection can fail on a row (an
/// overflow, an atom of the wrong sort), so it stays above joins and
/// differences: below them it would also run on the rows they drop, and
/// whether a query answers would depend on the plan.
fn rewrite_select(
    inner: AlgebraExpr,
    cond: Condition,
    log: &mut Vec<String>,
) -> (AlgebraExpr, bool) {
    let needed = cond.attrs();
    let covers = |e: &AlgebraExpr| {
        let attrs = e.attrs();
        needed.iter().all(|a| attrs.contains(a))
    };
    let total = !matches!(cond, Condition::Domain { .. });
    match inner {
        AlgebraExpr::Join(a, b) if total => {
            if covers(&a) {
                log.push(format!(
                    "pushdown: σ[{}] below ⋈ into the left input",
                    fmt_cond(&cond)
                ));
                let sel = AlgebraExpr::Select(a, cond);
                (AlgebraExpr::Join(Box::new(sel), b), true)
            } else if covers(&b) {
                log.push(format!(
                    "pushdown: σ[{}] below ⋈ into the right input",
                    fmt_cond(&cond)
                ));
                let sel = AlgebraExpr::Select(b, cond);
                (AlgebraExpr::Join(a, Box::new(sel)), true)
            } else {
                (
                    AlgebraExpr::Select(Box::new(AlgebraExpr::Join(a, b)), cond),
                    false,
                )
            }
        }
        AlgebraExpr::Union(a, b) => {
            log.push(format!(
                "pushdown: σ[{}] distributed over ∪",
                fmt_cond(&cond)
            ));
            let sa = AlgebraExpr::Select(a, cond.clone());
            let sb = AlgebraExpr::Select(b, cond);
            (AlgebraExpr::Union(Box::new(sa), Box::new(sb)), true)
        }
        AlgebraExpr::Diff(a, b) if total => {
            // σ_c(A − B) = σ_c(A) − B: the difference only removes tuples.
            log.push(format!(
                "pushdown: σ[{}] below − into the left input",
                fmt_cond(&cond)
            ));
            let sa = AlgebraExpr::Select(a, cond);
            (AlgebraExpr::Diff(Box::new(sa), b), true)
        }
        AlgebraExpr::Project(e, attrs) => {
            // The condition only mentions attributes the projection keeps,
            // so it commutes with the (set-semantics) projection.
            log.push(format!("pushdown: σ[{}] below π", fmt_cond(&cond)));
            let sel = AlgebraExpr::Select(e, cond);
            (AlgebraExpr::Project(Box::new(sel), attrs), true)
        }
        AlgebraExpr::Extend(e, new, src) if !needed.contains(&new) => {
            log.push(format!("pushdown: σ[{}] below extend", fmt_cond(&cond)));
            let sel = AlgebraExpr::Select(e, cond);
            (AlgebraExpr::Extend(Box::new(sel), new, src), true)
        }
        // The extended column copies `src`, so a domain atom can read
        // `src` instead and filter the relation before the renames: a
        // selection on an atom's variables then lands on its scan.
        AlgebraExpr::Extend(e, new, src) if matches!(cond, Condition::Domain { .. }) => {
            log.push(format!(
                "pushdown: σ[{}] below extend, reading `{src}` for `{new}`",
                fmt_cond(&cond)
            ));
            let Condition::Domain { atom, ops } = cond else {
                unreachable!("matched a domain condition")
            };
            let atom = fq_logic::substitute(&atom, &new, &Term::var(src.as_str()));
            let cond = Condition::Domain { atom, ops };
            let sel = AlgebraExpr::Select(e, cond);
            (AlgebraExpr::Extend(Box::new(sel), new, src), true)
        }
        other => (AlgebraExpr::Select(Box::new(other), cond), false),
    }
}

/// Projection fusion, identity elimination, and pruning.
fn rewrite_project(
    inner: AlgebraExpr,
    attrs: Vec<String>,
    log: &mut Vec<String>,
) -> (AlgebraExpr, bool) {
    if inner.attrs() == attrs {
        log.push(format!("fuse: identity π[{}] removed", attrs.join(", ")));
        return (inner, true);
    }
    match inner {
        AlgebraExpr::Project(e, _) => {
            log.push("fuse: π∘π collapsed into one projection".to_string());
            (AlgebraExpr::Project(e, attrs), true)
        }
        AlgebraExpr::Extend(e, new, _) if !attrs.contains(&new) => {
            log.push(format!("prune: unused extended column `{new}` dropped"));
            (AlgebraExpr::Project(e, attrs), true)
        }
        AlgebraExpr::Union(a, b) => {
            log.push("pushdown: π distributed over ∪".to_string());
            let pa = AlgebraExpr::Project(a, attrs.clone());
            let pb = AlgebraExpr::Project(b, attrs.clone());
            (
                AlgebraExpr::Project(
                    Box::new(AlgebraExpr::Union(Box::new(pa), Box::new(pb))),
                    attrs,
                ),
                true,
            )
        }
        AlgebraExpr::Join(a, b) => {
            // Keep only the attributes the projection or the join key
            // needs; the join key must survive or the join would change.
            let a_attrs = a.attrs();
            let b_attrs = b.attrs();
            let shared: BTreeSet<&String> =
                a_attrs.iter().filter(|x| b_attrs.contains(*x)).collect();
            let keep = |side: &[String]| -> Vec<String> {
                side.iter()
                    .filter(|x| attrs.contains(*x) || shared.contains(*x))
                    .cloned()
                    .collect()
            };
            let ka = keep(&a_attrs);
            let kb = keep(&b_attrs);
            let mut changed = false;
            let na = if ka.len() < a_attrs.len() {
                changed = true;
                log.push(format!(
                    "prune: left join input narrowed to π[{}]",
                    ka.join(", ")
                ));
                Box::new(AlgebraExpr::Project(a, ka))
            } else {
                a
            };
            let nb = if kb.len() < b_attrs.len() {
                changed = true;
                log.push(format!(
                    "prune: right join input narrowed to π[{}]",
                    kb.join(", ")
                ));
                Box::new(AlgebraExpr::Project(b, kb))
            } else {
                b
            };
            (
                AlgebraExpr::Project(Box::new(AlgebraExpr::Join(na, nb)), attrs),
                changed,
            )
        }
        other => (AlgebraExpr::Project(Box::new(other), attrs), false),
    }
}

/// Greedy join ordering: flatten the chain, start from the smallest
/// estimated operand, and repeatedly take the smallest operand that
/// shares an attribute with what has been joined so far (avoiding cross
/// products when any connected choice exists). Natural join is
/// associative and commutative on tuple *sets*; a final projection
/// restores the original column order.
fn rewrite_join_chain(
    expr: AlgebraExpr,
    state: &State,
    log: &mut Vec<String>,
) -> (AlgebraExpr, bool) {
    let orig_attrs = expr.attrs();
    let mut ops = Vec::new();
    flatten_join(&expr, &mut ops);
    if ops.len() < 2 {
        return (expr, false);
    }
    let ests: Vec<usize> = ops.iter().map(|e| estimate(e, state)).collect();
    let mut remaining: Vec<usize> = (0..ops.len()).collect();
    let first = *remaining
        .iter()
        .min_by_key(|&&i| (ests[i], i))
        .expect("non-empty");
    remaining.retain(|&i| i != first);
    let mut order = vec![first];
    let mut acc_attrs: BTreeSet<String> = ops[first].attrs().into_iter().collect();
    while !remaining.is_empty() {
        let connected: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| ops[i].attrs().iter().any(|a| acc_attrs.contains(a)))
            .collect();
        let pool = if connected.is_empty() {
            remaining.clone()
        } else {
            connected
        };
        let pick = *pool
            .iter()
            .min_by_key(|&&i| (ests[i], i))
            .expect("non-empty");
        remaining.retain(|&i| i != pick);
        acc_attrs.extend(ops[pick].attrs());
        order.push(pick);
    }
    if order.iter().copied().eq(0..ops.len()) {
        return (expr, false);
    }
    log.push(format!(
        "join-order: {} (est. rows {})",
        order
            .iter()
            .map(|&i| operand_name(&ops[i]))
            .collect::<Vec<_>>()
            .join(" ⋈ "),
        order
            .iter()
            .map(|&i| ests[i].to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let mut iter = order.into_iter();
    let mut tree = ops[iter.next().expect("non-empty")].clone();
    for i in iter {
        tree = AlgebraExpr::Join(Box::new(tree), Box::new(ops[i].clone()));
    }
    let rewritten = if tree.attrs() == orig_attrs {
        tree
    } else {
        AlgebraExpr::Project(Box::new(tree), orig_attrs)
    };
    (rewritten, true)
}

fn flatten_join(expr: &AlgebraExpr, out: &mut Vec<AlgebraExpr>) {
    if let AlgebraExpr::Join(a, b) = expr {
        flatten_join(a, out);
        flatten_join(b, out);
    } else {
        out.push(expr.clone());
    }
}

fn fmt_cond(cond: &Condition) -> String {
    match cond {
        Condition::EqAttr(a, b) => format!("{a} = {b}"),
        Condition::NeqAttr(a, b) => format!("{a} ≠ {b}"),
        Condition::EqConst(a, v) => format!("{a} = {v}"),
        Condition::NeqConst(a, v) => format!("{a} ≠ {v}"),
        Condition::Domain { atom, .. } => atom.to_string(),
    }
}

/// A short label for a join operand in the rewrite log.
fn operand_name(expr: &AlgebraExpr) -> String {
    match expr {
        AlgebraExpr::Base { name, .. } => name.clone(),
        AlgebraExpr::Select(e, _) => format!("σ({})", operand_name(e)),
        AlgebraExpr::Project(e, _) => operand_name(e),
        AlgebraExpr::Extend(e, _, _) => operand_name(e),
        AlgebraExpr::Singleton(_) => "const".to_string(),
        AlgebraExpr::Empty(_) => "∅".to_string(),
        AlgebraExpr::Join(..) => "join".to_string(),
        AlgebraExpr::Union(..) => "union".to_string(),
        AlgebraExpr::Diff(..) => "diff".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active_eval::Ops;
    use crate::algebra::compile;
    use crate::schema::Schema;
    use crate::state::Value;
    use fq_logic::parse_formula;

    fn fathers() -> State {
        let schema = Schema::new().with_relation("F", 2).with_relation("S", 1);
        State::new(schema)
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(2)])
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(3)])
            .with_tuple("F", vec![Value::Nat(2), Value::Nat(4)])
            .with_tuple("S", vec![Value::Nat(2)])
    }

    fn check(query: &str) {
        let state = fathers();
        let f = parse_formula(query).unwrap();
        let expr = compile(state.schema(), &f, Ops::Equality).expect("compiles");
        let opt = optimize(&expr, &state);
        let naive = expr.eval(&state).unwrap();
        let optimized = opt.expr.eval(&state).unwrap();
        assert_eq!(
            naive, optimized,
            "query: {query}\nrewrites: {:?}",
            opt.rewrites
        );
    }

    #[test]
    fn optimized_expressions_evaluate_identically() {
        for q in [
            "F(x, y)",
            "exists y z. y != z & F(x, y) & F(x, z)",
            "exists y. F(x, y) & F(y, z)",
            "F(x, y) & S(y)",
            "F(1, y)",
            "F(x, x)",
            "F(x, y) | (x = 9 & y = 9)",
            "F(x, y) & !F(y, x)",
            "(exists y. F(x, y)) & !(exists g. exists f. F(g, f) & F(f, x))",
            "F(x, y) & x != y",
            "F(x, y) & y != 2",
            "x = 2 & (exists z. F(y, z) & x != 0)",
            "(exists y. F(x, y)) & forall y. F(x, y) -> y = 2 | y = 3",
        ] {
            check(q);
        }
    }

    #[test]
    fn select_sinks_below_join() {
        // σ over a join of two bases must end up on one input.
        let e = AlgebraExpr::Select(
            Box::new(AlgebraExpr::Join(
                Box::new(AlgebraExpr::Base {
                    name: "F".into(),
                    attrs: vec!["x".into(), "y".into()],
                }),
                Box::new(AlgebraExpr::Base {
                    name: "S".into(),
                    attrs: vec!["y".into()],
                }),
            )),
            Condition::EqConst("x".into(), Value::Nat(1)),
        );
        let opt = optimize(&e, &fathers());
        assert!(
            opt.rewrites.iter().any(|r| r.starts_with("pushdown")),
            "{:?}",
            opt.rewrites
        );
        assert_eq!(
            e.eval(&fathers()).unwrap(),
            opt.expr.eval(&fathers()).unwrap()
        );
        // The selection is no longer at the root (it sank into a join
        // input; join reordering may add a column-restoring π on top).
        assert!(!matches!(opt.expr, AlgebraExpr::Select(..)));
    }

    #[test]
    fn join_chain_reorders_by_estimate_and_preserves_attrs() {
        // F (3 rows) ⋈ S (1 row): the chain should start from S.
        let e = AlgebraExpr::Join(
            Box::new(AlgebraExpr::Base {
                name: "F".into(),
                attrs: vec!["x".into(), "y".into()],
            }),
            Box::new(AlgebraExpr::Base {
                name: "S".into(),
                attrs: vec!["y".into()],
            }),
        );
        let state = fathers();
        let opt = optimize(&e, &state);
        assert!(
            opt.rewrites.iter().any(|r| r.contains("join-order: S ⋈ F")),
            "{:?}",
            opt.rewrites
        );
        assert_eq!(opt.expr.attrs(), e.attrs());
        assert_eq!(e.eval(&state).unwrap(), opt.expr.eval(&state).unwrap());
    }

    #[test]
    fn cascaded_projects_fuse() {
        let base = AlgebraExpr::Base {
            name: "F".into(),
            attrs: vec!["x".into(), "y".into()],
        };
        let e = AlgebraExpr::Project(
            Box::new(AlgebraExpr::Project(
                Box::new(base),
                vec!["x".into(), "y".into()],
            )),
            vec!["x".into()],
        );
        let opt = optimize(&e, &fathers());
        assert!(
            opt.rewrites.iter().any(|r| r.starts_with("fuse")),
            "{:?}",
            opt.rewrites
        );
        assert!(matches!(
            &opt.expr,
            AlgebraExpr::Project(inner, _) if matches!(**inner, AlgebraExpr::Base { .. })
        ));
    }

    #[test]
    fn optimization_is_deterministic() {
        let state = fathers();
        let f = parse_formula("exists y. F(x, y) & F(y, z)").unwrap();
        let expr = compile(state.schema(), &f, Ops::Equality).unwrap();
        assert_eq!(optimize(&expr, &state), optimize(&expr, &state));
    }
}
