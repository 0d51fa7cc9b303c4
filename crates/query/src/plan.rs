//! Stage 2 — **plan**: choose an execution strategy for a compiled
//! query and record *why* it was chosen.
//!
//! The choice mirrors the paper's taxonomy. A safe-range query is
//! domain-independent and compiles to relational algebra (Codd's
//! theorem), its domain atoms (`x < y`, `y = x'`) becoming selections
//! evaluated with the domain's operations; a generic query that is not
//! safe-range splits into a RANF generator/restrictor pair; everything
//! else goes through the Section 1.1 enumerate-and-ask loop, preceded by
//! a relative-safety check (Theorems 2.5/2.6/3.3) that predicts whether
//! the loop can terminate; and a sentence needs no enumeration at all —
//! translate the state into it (Section 1.1) and hand it to the domain's
//! decision procedure.

use crate::compile::CompiledQuery;
use crate::error::QueryError;
use crate::registry::{DomainId, DomainRegistry};
use fq_json::{ToJson, Value as Json};
use fq_logic::{Formula, LogicError};
use fq_relational::active_eval::fold_ground;
use fq_relational::algebra::{compile as compile_algebra, AlgebraExpr};
use fq_relational::optimize::optimize;
use fq_relational::{ranf, State, Value};

/// What the relative-safety precheck said about the answer in this
/// state, before any enumeration started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precheck {
    /// The answer is certified finite — enumerate-and-ask will
    /// terminate with a complete answer.
    Finite,
    /// The answer is certified infinite — only a budgeted partial
    /// answer is possible.
    Infinite,
    /// Relative safety is undecidable over this domain (Theorem 3.3):
    /// the loop runs under an honest budget.
    Undecidable,
}

/// Whether the planner may (or must) use the RANF strategy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RanfMode {
    /// Use RANF whenever the query is not safe-range but translates —
    /// the default: it replaces the budgeted enumerate-and-ask fallback
    /// with an exact answer.
    #[default]
    Prefer,
    /// Use RANF even for safe-range queries (falling back to the normal
    /// route only when translation fails). For differential testing.
    Force,
    /// Never use RANF (the pre-RANF planner).
    Off,
}

/// Knobs the planner consults; part of the plan-cache key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanOptions {
    /// Candidate budget for the enumerate-and-ask strategy.
    pub max_candidates: usize,
    /// RANF strategy mode.
    pub ranf: RanfMode,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            max_candidates: crate::exec::DEFAULT_MAX_CANDIDATES,
            ranf: RanfMode::default(),
        }
    }
}

/// One compiled half of a RANF plan.
#[derive(Clone, Debug, PartialEq)]
pub struct RanfHalf {
    /// The safe-range formula over the extended scheme.
    pub formula: Formula,
    /// Its direct Codd translation.
    pub expr: AlgebraExpr,
    /// The optimized expression the physical executor runs.
    pub optimized: AlgebraExpr,
    /// Optimizer rewrites applied.
    pub rewrites: Vec<String>,
}

/// The auxiliary evaluation context of a RANF plan: the copy-on-write
/// extension of the planned state with the `@ranf_dom`/`@ranf_adom`/
/// `@ranf_fresh` relations. Plans are cached per state fingerprint, so
/// carrying the extension inside the plan amortizes its construction
/// across repeated executions.
#[derive(Clone, Debug, PartialEq)]
pub struct RanfAux {
    /// The extended state both halves evaluate on.
    pub state: State,
    /// Number of fresh witness markers.
    pub fresh: usize,
    /// Active-domain size the markers were chosen against.
    pub adom: usize,
}

/// The chosen execution strategy, with its justification.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryPlan {
    /// Safe-range ⟹ compile to relational algebra and evaluate over the
    /// stored relations only.
    Algebra {
        /// The direct Codd translation (kept as the reference form).
        expr: AlgebraExpr,
        /// The rewritten expression the physical executor runs —
        /// equivalent to `expr` on every state (the optimizer preserves
        /// the tuple set and attribute order).
        optimized: AlgebraExpr,
        /// The rewrites applied, in order (plans are per-state, so
        /// state-statistics-driven decisions are cache-safe).
        rewrites: Vec<String>,
        justification: String,
    },
    /// Not safe-range but *generic* ⟹ RANF split: a safe-range
    /// generator (the active-domain core of the answer — the whole
    /// answer whenever it is finite) and a safe-range restrictor whose
    /// emptiness certifies finiteness, both compiled through the same
    /// algebra/optimizer/physical stack as [`QueryPlan::Algebra`] and
    /// evaluated on the extended state in [`RanfAux`].
    Ranf {
        generator: Box<RanfHalf>,
        restrictor: Box<RanfHalf>,
        aux: RanfAux,
        justification: String,
    },
    /// Not safe-range ⟹ the Section 1.1 enumerate-and-ask loop with an
    /// explicit candidate budget, after a relative-safety precheck.
    EnumerateAndAsk {
        precheck: Precheck,
        max_candidates: usize,
        justification: String,
    },
    /// A sentence ⟹ translate the state into the query (Section 1.1)
    /// and decide it over the domain theory.
    QeDecide { justification: String },
}

impl QueryPlan {
    /// Short strategy name for reports and tests.
    pub fn strategy(&self) -> &'static str {
        match self {
            QueryPlan::Algebra { .. } => "algebra",
            QueryPlan::Ranf { .. } => "ranf",
            QueryPlan::EnumerateAndAsk { .. } => "enumerate-and-ask",
            QueryPlan::QeDecide { .. } => "qe-decide",
        }
    }

    /// Why this strategy was chosen.
    pub fn justification(&self) -> &str {
        match self {
            QueryPlan::Algebra { justification, .. }
            | QueryPlan::Ranf { justification, .. }
            | QueryPlan::EnumerateAndAsk { justification, .. }
            | QueryPlan::QeDecide { justification } => justification,
        }
    }

    /// The optimizer rewrites applied (algebra plans only; RANF plans
    /// record per-half rewrites in their [`RanfHalf`]s).
    pub fn rewrites(&self) -> &[String] {
        match self {
            QueryPlan::Algebra { rewrites, .. } => rewrites,
            _ => &[],
        }
    }
}

/// A compiled query with its chosen plan — the unit the executor runs
/// and the plan cache stores.
#[derive(Clone, Debug, PartialEq)]
pub struct PlannedQuery {
    pub compiled: CompiledQuery,
    pub domain: DomainId,
    pub plan: QueryPlan,
}

impl PlannedQuery {
    /// Multi-line human-readable explanation of the plan.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("query:      {}\n", self.compiled.source));
        out.push_str(&format!("normalized: {}\n", self.compiled.normalized));
        out.push_str(&format!(
            "answer:     {}\n",
            if self.compiled.free_vars.is_empty() {
                "boolean (sentence)".to_string()
            } else {
                format!("({})", self.compiled.free_vars.join(", "))
            }
        ));
        out.push_str(&format!("domain:     {}\n", self.domain));
        out.push_str(&format!("strategy:   {}\n", self.plan.strategy()));
        out.push_str(&format!("why:        {}", self.plan.justification()));
        // The precise diagnostic for queries off the safe-range path —
        // which variable in which subformula broke range restriction.
        if !self.compiled.is_sentence() {
            if let Err(e) = self.compiled.safe_range() {
                out.push_str(&format!("\nnot-safe-range: {e}"));
            }
        }
        if let QueryPlan::Algebra { rewrites, .. } = &self.plan {
            if rewrites.is_empty() {
                out.push_str("\nrewrites:   none (expression already canonical)");
            } else {
                out.push_str("\nrewrites:");
                for r in rewrites {
                    out.push_str(&format!("\n  - {r}"));
                }
            }
        }
        if let QueryPlan::Ranf {
            generator,
            restrictor,
            aux,
            ..
        } = &self.plan
        {
            out.push_str(&format!("\ngenerator:  {}", generator.formula));
            for r in &generator.rewrites {
                out.push_str(&format!("\n  - {r}"));
            }
            out.push_str(&format!("\nrestrictor: {}", restrictor.formula));
            for r in &restrictor.rewrites {
                out.push_str(&format!("\n  - {r}"));
            }
            out.push_str(&format!(
                "\nranf-aux:   {} active-domain value(s), {} fresh marker(s) \
                 ({}/{}/{})",
                aux.adom,
                aux.fresh,
                ranf::DOM_REL,
                ranf::ADOM_REL,
                ranf::FRESH_REL
            ));
        }
        out
    }

    /// Machine-readable plan description (`fq plan --json`).
    pub fn to_json(&self) -> Json {
        let not_safe_range = if self.compiled.is_sentence() {
            None
        } else {
            self.compiled.safe_range().err()
        };
        let ranf_json = match &self.plan {
            QueryPlan::Ranf {
                generator,
                restrictor,
                aux,
                ..
            } => {
                let half = |h: &RanfHalf| {
                    fq_json::object([
                        ("formula", Json::Str(h.formula.to_string())),
                        ("rewrites", h.rewrites.to_json()),
                    ])
                };
                fq_json::object([
                    ("generator", half(generator)),
                    ("restrictor", half(restrictor)),
                    ("adom", aux.adom.to_json()),
                    ("fresh", aux.fresh.to_json()),
                ])
            }
            _ => Json::Null,
        };
        let precheck = match &self.plan {
            QueryPlan::EnumerateAndAsk { precheck, .. } => Json::Str(
                match precheck {
                    Precheck::Finite => "finite",
                    Precheck::Infinite => "infinite",
                    Precheck::Undecidable => "undecidable",
                }
                .to_string(),
            ),
            _ => Json::Null,
        };
        let max_candidates = match &self.plan {
            QueryPlan::EnumerateAndAsk { max_candidates, .. } => max_candidates.to_json(),
            _ => Json::Null,
        };
        fq_json::object([
            ("query", Json::Str(self.compiled.source.clone())),
            (
                "normalized",
                Json::Str(self.compiled.normalized.to_string()),
            ),
            ("vars", self.compiled.free_vars.to_json()),
            ("domain", Json::Str(self.domain.key().to_string())),
            ("strategy", Json::Str(self.plan.strategy().to_string())),
            (
                "justification",
                Json::Str(self.plan.justification().to_string()),
            ),
            ("safe_range", not_safe_range.is_none().to_json()),
            (
                "not_safe_range",
                match &not_safe_range {
                    Some(e) => Json::Str(e.to_string()),
                    None => Json::Null,
                },
            ),
            ("rewrites", self.plan.rewrites().to_vec().to_json()),
            ("precheck", precheck),
            ("max_candidates", max_candidates),
            ("ranf", ranf_json),
        ])
    }
}

/// Choose a plan for `compiled` over `domain` in `state` with the
/// default [`PlanOptions::ranf`] mode.
pub fn plan(
    compiled: &CompiledQuery,
    domain: DomainId,
    state: &State,
    max_candidates: usize,
) -> Result<PlannedQuery, QueryError> {
    plan_with(
        compiled,
        domain,
        state,
        PlanOptions {
            max_candidates,
            ..PlanOptions::default()
        },
    )
}

/// Choose a plan for `compiled` over `domain` in `state`.
///
/// The choice is deterministic: the same (query, domain, state, options)
/// quadruple always yields the same plan, which is what makes the plan
/// cache semantically transparent. The strategy lattice, most exact
/// first: sentences decide by QE; safe-range queries compile to algebra;
/// non-safe-range *generic* queries RANF-split into an exact
/// generator/restrictor pair; everything else enumerates under a budget.
///
/// A ground term that does not evaluate under the domain's operations
/// (`x = 18446744073709551615 + 1`) fails planning with
/// [`QueryError::Eval`].
pub fn plan_with(
    compiled: &CompiledQuery,
    domain: DomainId,
    state: &State,
    options: PlanOptions,
) -> Result<PlannedQuery, QueryError> {
    let registry = DomainRegistry;
    let max_candidates = options.max_candidates;
    let chosen = if compiled.is_sentence() {
        QueryPlan::QeDecide {
            justification: format!(
                "the query is a sentence: fold the state into it (§1.1 translation) and \
                 decide it with the {} decision procedure",
                domain
            ),
        }
    } else {
        match compiled.safe_range() {
            Ok(()) => {
                let forced = if options.ranf == RanfMode::Force {
                    try_ranf(compiled, domain, state, None)
                } else {
                    None
                };
                match forced {
                    Some(p) => p,
                    None => {
                        let ops = registry.ops(domain);
                        let query =
                            fold_ground(state, &ops, &compiled.query).map_err(QueryError::Eval)?;
                        let expr = compile_algebra(&compiled.schema, &query, ops)
                            .map_err(|e| QueryError::Eval(LogicError::eval(e.to_string())))?;
                        let opt = optimize(&expr, state);
                        QueryPlan::Algebra {
                            expr,
                            optimized: opt.expr,
                            rewrites: opt.rewrites,
                            justification: "the query is safe-range, hence domain-independent; \
                                            compiled to relational algebra (Codd's theorem) and \
                                            evaluated over the stored relations only"
                                .to_string(),
                        }
                    }
                }
            }
            Err(not_sr) => {
                let ranf_plan = if options.ranf == RanfMode::Off {
                    None
                } else {
                    try_ranf(compiled, domain, state, Some(&not_sr))
                };
                if let Some(p) = ranf_plan {
                    p
                } else {
                    let precheck = match registry.relative_safety(
                        domain,
                        state,
                        &compiled.normalized,
                        &compiled.free_vars,
                    )? {
                        Some(true) => Precheck::Finite,
                        Some(false) => Precheck::Infinite,
                        None => Precheck::Undecidable,
                    };
                    let outlook = match precheck {
                        Precheck::Finite => {
                            "relative safety certifies a FINITE answer in this state, so \
                             enumerate-and-ask (§1.1) terminates with a complete answer"
                        }
                        Precheck::Infinite => {
                            "relative safety certifies an INFINITE answer in this state, so \
                             only a budgeted partial answer is possible"
                        }
                        Precheck::Undecidable => {
                            "relative safety is undecidable over T (Theorem 3.3), so the loop \
                             runs under an honest budget"
                        }
                    };
                    QueryPlan::EnumerateAndAsk {
                        precheck,
                        max_candidates,
                        justification: format!(
                            "the query is not safe-range ({not_sr}); {outlook} \
                             (budget: {max_candidates} candidates)"
                        ),
                    }
                }
            }
        }
    };
    Ok(PlannedQuery {
        compiled: compiled.clone(),
        domain,
        plan: chosen,
    })
}

/// Attempt the RANF split. `None` (never an error) when the query is
/// outside the translatable fragment — the caller falls through to the
/// next strategy. `reason` is the safe-range diagnostic when the split
/// rescues a non-safe-range query.
fn try_ranf(
    compiled: &CompiledQuery,
    domain: DomainId,
    state: &State,
    reason: Option<&fq_relational::safe_range::NotSafeRange>,
) -> Option<QueryPlan> {
    if !carrier_compatible(domain, state, &compiled.query) {
        return None;
    }
    let tr = ranf::translate(state, &compiled.query, &compiled.free_vars).ok()?;
    let half = |formula: Formula| -> Option<RanfHalf> {
        let expr = compile_algebra(tr.state.schema(), &formula, DomainRegistry.ops(domain)).ok()?;
        let opt = optimize(&expr, &tr.state);
        Some(RanfHalf {
            formula,
            expr,
            optimized: opt.expr,
            rewrites: opt.rewrites,
        })
    };
    let generator = half(tr.generator.clone())?;
    let restrictor = half(tr.restrictor.clone())?;
    let justification = match reason {
        Some(e) => format!(
            "the query is not safe-range ({e}), but it is generic (relations, equality, \
             constants only): RANF split into a safe-range generator (the active-domain \
             core, i.e. the whole answer when finite) and a safe-range restrictor whose \
             emptiness certifies finiteness, over {} active-domain value(s) plus {} fresh \
             witness marker(s) — exact evaluation instead of a budgeted enumeration \
             (Raszyk–Basin–Krstić–Traytel)",
            tr.adom_size,
            tr.fresh.len()
        ),
        None => format!(
            "RANF mode forced: the safe-range query was split into generator/restrictor \
             anyway over {} active-domain value(s) plus {} fresh marker(s) — for \
             differential testing against the algebra route",
            tr.adom_size,
            tr.fresh.len()
        ),
    };
    Some(QueryPlan::Ranf {
        generator: Box::new(generator),
        restrictor: Box::new(restrictor),
        aux: RanfAux {
            state: tr.state,
            fresh: tr.fresh.len(),
            adom: tr.adom_size,
        },
        justification,
    })
}

/// The RANF construction argues over *any* infinite carrier containing
/// the active domain, so it is only interchangeable with the domain's
/// own procedures (enumerate-and-ask, relative safety) when the active
/// domain actually lies inside that domain's carrier.
fn carrier_compatible(domain: DomainId, state: &State, query: &Formula) -> bool {
    let ok = |v: &Value| match domain {
        DomainId::Eq => true,
        DomainId::Nat | DomainId::Int | DomainId::Succ | DomainId::Presburger => {
            matches!(v, Value::Nat(_))
        }
        DomainId::Words | DomainId::Traces => matches!(v, Value::Str(_)),
    };
    state.query_active_domain(query).iter().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use fq_relational::{Schema, Value};

    fn fathers() -> State {
        let schema = Schema::new().with_relation("F", 2);
        State::new(schema)
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(2)])
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(3)])
            .with_tuple("F", vec![Value::Nat(2), Value::Nat(4)])
    }

    fn plan_for(src: &str, domain: DomainId) -> PlannedQuery {
        let state = fathers();
        let compiled = compile(state.schema(), src).unwrap();
        plan(&compiled, domain, &state, 100).unwrap()
    }

    #[test]
    fn safe_range_relational_query_plans_to_algebra() {
        let p = plan_for("exists y. F(x, y) & F(y, z)", DomainId::Eq);
        assert_eq!(p.plan.strategy(), "algebra");
        assert!(p.plan.justification().contains("safe-range"));
    }

    #[test]
    fn safe_range_with_domain_predicate_plans_to_algebra() {
        let p = plan_for("exists y. F(x, y) & x < y", DomainId::Nat);
        assert_eq!(p.plan.strategy(), "algebra");
        match &p.plan {
            QueryPlan::Algebra { expr, .. } => {
                assert!(format!("{expr:?}").contains("Domain"), "{expr:?}")
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn a_ground_term_that_overflows_fails_planning() {
        let state = fathers();
        let compiled = compile(state.schema(), "F(x, y) & x = 18446744073709551615 + 1").unwrap();
        match plan(&compiled, DomainId::Nat, &state, 100) {
            Err(QueryError::Eval(e)) => assert!(e.to_string().contains("overflow"), "{e}"),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn unsafe_generic_query_plans_to_ranf() {
        let p = plan_for("!F(x, y)", DomainId::Nat);
        match &p.plan {
            QueryPlan::Ranf { aux, .. } => {
                assert_eq!(aux.adom, 4);
                assert_eq!(aux.fresh, 3, "2 free vars + 0 quantifiers + 1");
            }
            other => panic!("unexpected plan {other:?}"),
        }
        assert!(p.plan.justification().contains("not safe-range"));
        assert!(p.plan.justification().contains("generic"));
    }

    #[test]
    fn unsafe_nongeneric_query_plans_to_enumerate_and_ask() {
        // `<` is an interpreted domain predicate: RANF's genericity
        // argument does not apply, so the budgeted loop remains.
        let p = plan_for("!F(x, y) & x < y", DomainId::Nat);
        match &p.plan {
            QueryPlan::EnumerateAndAsk { precheck, .. } => {
                assert_eq!(*precheck, Precheck::Infinite);
            }
            other => panic!("unexpected plan {other:?}"),
        }
        // A finite-but-unsafe query prechecks Finite.
        let p = plan_for(
            "(forall y. (exists p. F(y, p) | F(p, y)) -> y < x) & \
             forall z. z < x -> exists y. (exists p. F(y, p) | F(p, y)) & z <= y",
            DomainId::Presburger,
        );
        match &p.plan {
            QueryPlan::EnumerateAndAsk { precheck, .. } => {
                assert_eq!(*precheck, Precheck::Finite);
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn ranf_mode_off_restores_the_budgeted_fallback() {
        let state = fathers();
        let compiled = compile(state.schema(), "!F(x, y)").unwrap();
        let p = plan_with(
            &compiled,
            DomainId::Nat,
            &state,
            PlanOptions {
                max_candidates: 100,
                ranf: RanfMode::Off,
            },
        )
        .unwrap();
        assert_eq!(p.plan.strategy(), "enumerate-and-ask");
    }

    #[test]
    fn ranf_mode_force_splits_safe_range_queries() {
        let state = fathers();
        let compiled = compile(state.schema(), "exists y. F(x, y) & F(y, z)").unwrap();
        let p = plan_with(
            &compiled,
            DomainId::Eq,
            &state,
            PlanOptions {
                max_candidates: 100,
                ranf: RanfMode::Force,
            },
        )
        .unwrap();
        assert_eq!(p.plan.strategy(), "ranf");
        assert!(p.plan.justification().contains("forced"));
    }

    #[test]
    fn plan_json_reports_the_ranf_halves() {
        let p = plan_for("!F(x, y)", DomainId::Nat);
        let json = p.to_json();
        assert_eq!(
            json.get("strategy").and_then(fq_json::Value::as_str),
            Some("ranf")
        );
        assert_eq!(json.get("safe_range"), Some(&Json::Bool(false)));
        let ranf = json.get("ranf").expect("ranf object");
        assert!(ranf
            .get("generator")
            .and_then(|g| g.get("formula"))
            .and_then(fq_json::Value::as_str)
            .is_some_and(|f| f.contains("@ranf_adom")));
        assert!(json
            .get("not_safe_range")
            .and_then(fq_json::Value::as_str)
            .is_some_and(|m| m.contains("not range-restricted")));
    }

    #[test]
    fn sentences_plan_to_qe_decide() {
        let p = plan_for("exists x y. F(x, y)", DomainId::Eq);
        assert_eq!(p.plan.strategy(), "qe-decide");
    }

    #[test]
    fn planning_is_deterministic() {
        for src in ["exists y. F(x, y)", "!F(x, y)", "exists x. F(x, x)"] {
            let a = plan_for(src, DomainId::Nat);
            let b = plan_for(src, DomainId::Nat);
            assert_eq!(a, b, "{src}");
        }
    }
}
