//! Stage 3 — **execute**: run a planned query through the engine,
//! memoizing plans in the `query.plan` namespace so a repeated query
//! skips the whole compile + plan work (including any relative-safety
//! precheck, the expensive part), memoizing the verdicts of QE-decided
//! sentences in `query.verdict` so a repeated sentence skips the §1.1
//! fold and the elimination, and return a uniform [`QueryOutcome`].

use crate::compile::{compile, CompiledQuery};
use crate::error::QueryError;
use crate::plan::{plan_with, PlanOptions, PlannedQuery, QueryPlan, RanfMode};
use crate::registry::{DomainId, DomainRegistry};
use fq_core::answer::AnswerOutcome;
use fq_engine::Engine;
use fq_relational::{
    translate_to_domain_formula, ExecOpts, OpStat, PhysicalPlan, Schema, Snapshot, State, Value,
    DEFAULT_MORSEL_ROWS,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The memo namespace holding planned queries.
pub const PLAN_CACHE_NAMESPACE: &str = "query.plan";

/// The memo namespace holding the verdicts of QE-decided sentences,
/// keyed like the plan cache by `(domain, source, state fingerprint)`.
const VERDICT_CACHE_NAMESPACE: &str = "query.verdict";

/// Default candidate budget for the enumerate-and-ask strategy.
pub const DEFAULT_MAX_CANDIDATES: usize = 10_000;

/// How complete the returned answer is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Completeness {
    /// The answer is provably complete (algebra on a safe-range, hence
    /// domain-independent, query, or a certified enumerate-and-ask run).
    Certified,
    /// A RANF run: `rows` is exactly the active-domain core of the
    /// answer, and the restrictor delivered a per-state verdict. When
    /// `infinite` is false the core *is* the whole answer (a finite
    /// answer always lies inside the active domain); when true, the
    /// answer additionally contains every substitution of values outside
    /// the active domain that the restrictor's witness tuples stand for.
    CertifiedRanf {
        /// The natural-semantics answer is infinite in this state.
        infinite: bool,
        /// Restrictor tuples witnessing infinitude (0 iff finite).
        restrictor_rows: usize,
    },
    /// The candidate budget ran out; `rows` is a partial answer.
    Partial {
        candidates_tried: usize,
        max_candidates: usize,
    },
    /// The query was a sentence; `value` is its truth in the state.
    Decided { value: bool },
}

/// Engine, cache, and storage counters observed during one execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Did the plan come from the `query.plan` cache?
    pub plan_cached: bool,
    /// Engine-wide memo hits after this execution.
    pub engine_hits: usize,
    /// Engine-wide memo misses after this execution.
    pub engine_misses: usize,
    /// Entries in the state's interning dictionary (strings plus
    /// naturals too large to store inline).
    pub dict_entries: usize,
    /// Strings among those entries.
    pub dict_strings: usize,
    /// Tuples in the state's columnar store, across all relations.
    pub stored_rows: usize,
    /// Worker threads the physical executor may fan out on (1 means
    /// every operator ran inline, its whole input one morsel).
    pub threads: usize,
    /// Rows per morsel in the parallel executor's schedule.
    pub morsel_rows: usize,
    /// Publication epoch of the snapshot executed against (`None` when
    /// the query ran on a free-standing state).
    pub snapshot_epoch: Option<u64>,
    /// `query.plan` cache hits across this executor's lifetime (shared
    /// by every clone, so serve workers aggregate into one counter).
    pub plan_hits: usize,
    /// `query.plan` cache misses across this executor's lifetime.
    pub plan_misses: usize,
    /// Content fingerprint of the state executed against — the same
    /// value plan-cache keys and `snapshot-info` report, so callers can
    /// correlate an outcome with a published snapshot cheaply.
    pub state_fingerprint: u128,
}

/// The uniform result of the pipeline: answers, a completeness
/// certificate, the plan that produced them, and engine statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryOutcome {
    /// Answer variables, sorted (column order of `rows`).
    pub vars: Vec<String>,
    /// Answer tuples.
    pub rows: Vec<Vec<Value>>,
    /// Completeness certificate.
    pub completeness: Completeness,
    /// The plan that was executed.
    pub plan: QueryPlan,
    /// Engine and cache statistics.
    pub stats: ExecStats,
    /// Physical operator cardinalities (algebra strategy only; empty for
    /// the other strategies).
    pub operators: Vec<OpStat>,
}

impl QueryOutcome {
    /// Was the answer certified complete (or the sentence decided)?
    pub fn is_complete(&self) -> bool {
        !matches!(self.completeness, Completeness::Partial { .. })
    }
}

/// The pipeline driver: one engine handle, one plan cache, every
/// answering strategy behind a single entry point.
#[derive(Clone, Debug)]
pub struct Executor {
    engine: Engine,
    registry: DomainRegistry,
    max_candidates: usize,
    ranf: RanfMode,
    morsel_rows: usize,
    /// Plan-cache traffic, shared across clones: a serve loop hands one
    /// executor clone per connection and still reads one hit/miss pair.
    plan_hits: Arc<AtomicUsize>,
    plan_misses: Arc<AtomicUsize>,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new(Engine::sequential())
    }
}

impl Executor {
    pub fn new(engine: Engine) -> Self {
        Executor {
            engine,
            registry: DomainRegistry,
            max_candidates: DEFAULT_MAX_CANDIDATES,
            ranf: RanfMode::default(),
            morsel_rows: DEFAULT_MORSEL_ROWS,
            plan_hits: Arc::new(AtomicUsize::new(0)),
            plan_misses: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// An executor on the environment-configured engine: `FQ_THREADS`
    /// pins the worker-pool width, else every available core is used.
    pub fn from_env() -> Self {
        Executor::new(Engine::from_env())
    }

    /// Replace the enumerate-and-ask candidate budget.
    pub fn with_max_candidates(mut self, max_candidates: usize) -> Self {
        self.max_candidates = max_candidates;
        self
    }

    /// Replace the parallel executor's morsel size.
    pub fn with_morsel_rows(mut self, morsel_rows: usize) -> Self {
        self.morsel_rows = morsel_rows;
        self
    }

    /// Replace the RANF planner mode ([`RanfMode::Prefer`] by default).
    pub fn with_ranf(mut self, ranf: RanfMode) -> Self {
        self.ranf = ranf;
        self
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// (hits, misses) of the `query.plan` cache across this executor
    /// and every clone sharing its counters.
    pub fn plan_cache_stats(&self) -> (usize, usize) {
        (
            self.plan_hits.load(Ordering::Relaxed),
            self.plan_misses.load(Ordering::Relaxed),
        )
    }

    /// Stage 1 only: compile a query against a scheme.
    pub fn compile(&self, schema: &Schema, source: &str) -> Result<CompiledQuery, QueryError> {
        compile(schema, source)
    }

    /// Stages 1–2, memoized: compile and plan, returning the plan and
    /// whether it came from the `query.plan` cache.
    ///
    /// The key's state component is [`State::fingerprint`] — a cached
    /// 128-bit content hash — so a lookup costs O(1) in the state size
    /// instead of re-serializing the whole state per call, and two
    /// states with equal content (snapshots of the same epoch, replays)
    /// share one cache entry.
    pub fn plan(
        &self,
        state: &State,
        source: &str,
        domain: DomainId,
    ) -> Result<(PlannedQuery, bool), QueryError> {
        let key = (
            domain,
            source.to_string(),
            state.fingerprint(),
            self.max_candidates,
            self.ranf,
        );
        let computed = Cell::new(false);
        let planned = self.engine.cached(PLAN_CACHE_NAMESPACE, key, || {
            computed.set(true);
            let compiled = compile(state.schema(), source)?;
            plan_with(
                &compiled,
                domain,
                state,
                PlanOptions {
                    max_candidates: self.max_candidates,
                    ranf: self.ranf,
                },
            )
        })?;
        if computed.get() {
            self.plan_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
        }
        Ok((planned, !computed.get()))
    }

    /// The full pipeline: compile (cached), plan (cached), execute.
    pub fn execute(
        &self,
        state: &State,
        source: &str,
        domain: DomainId,
    ) -> Result<QueryOutcome, QueryError> {
        self.execute_inner(state, source, domain, None)
    }

    /// [`Executor::execute`] against a pinned [`Snapshot`]: the borrow
    /// keeps the snapshot's columns alive for the whole run, and the
    /// outcome records the epoch it executed against. This is the serve
    /// loop's entry point — many executors, one shared store, each
    /// query isolated on the snapshot it pinned.
    pub fn execute_snapshot(
        &self,
        snapshot: &Snapshot,
        source: &str,
        domain: DomainId,
    ) -> Result<QueryOutcome, QueryError> {
        self.execute_inner(snapshot, source, domain, Some(snapshot.epoch()))
    }

    fn execute_inner(
        &self,
        state: &State,
        source: &str,
        domain: DomainId,
        snapshot_epoch: Option<u64>,
    ) -> Result<QueryOutcome, QueryError> {
        let (planned, plan_cached) = self.plan(state, source, domain)?;
        let mut outcome = self.run(state, &planned)?;
        outcome.stats.plan_cached = plan_cached;
        let (hits, misses) = self.engine.cache_stats();
        outcome.stats.engine_hits = hits;
        outcome.stats.engine_misses = misses;
        outcome.stats.dict_entries = state.dict().len();
        outcome.stats.dict_strings = state.dict().strings();
        outcome.stats.stored_rows = state.size();
        outcome.stats.threads = self.engine.threads();
        outcome.stats.morsel_rows = self.morsel_rows;
        outcome.stats.snapshot_epoch = snapshot_epoch;
        // Cached on the state by plan(), so this is a read, not a hash.
        outcome.stats.state_fingerprint = state.fingerprint();
        let (plan_hits, plan_misses) = self.plan_cache_stats();
        outcome.stats.plan_hits = plan_hits;
        outcome.stats.plan_misses = plan_misses;
        Ok(outcome)
    }

    /// Convenience: decide a pure-domain sentence (no state).
    pub fn decide(&self, domain: DomainId, source: &str) -> Result<bool, QueryError> {
        let state = State::new(Schema::new());
        let out = self.execute(&state, source, domain)?;
        match out.completeness {
            Completeness::Decided { value } => Ok(value),
            _ => Err(QueryError::Domain(fq_domains::DomainError::NotASentence {
                free: out.vars,
            })),
        }
    }

    /// Convenience: relative safety of a query in a state over a domain
    /// (`None` where undecidable, i.e. over **T**).
    pub fn relative_safety(
        &self,
        state: &State,
        source: &str,
        domain: DomainId,
    ) -> Result<Option<bool>, QueryError> {
        let compiled = self.compile(state.schema(), source)?;
        self.registry
            .relative_safety(domain, state, &compiled.normalized, &compiled.free_vars)
            .map_err(QueryError::Domain)
    }

    /// Execute a planned query (stage 3 proper).
    fn run(&self, state: &State, planned: &PlannedQuery) -> Result<QueryOutcome, QueryError> {
        let compiled = &planned.compiled;
        let vars = compiled.free_vars.clone();
        let mut operators = Vec::new();
        let (rows, completeness) = match &planned.plan {
            QueryPlan::Algebra { optimized, .. } => {
                // The morsel fan-out self-disables on a 1-thread engine,
                // which runs every operator inline as one morsel.
                let report = PhysicalPlan::compile(optimized)
                    .execute_with_stats_on(
                        state,
                        &self.engine,
                        ExecOpts {
                            morsel_rows: self.morsel_rows,
                        },
                    )
                    .map_err(QueryError::Eval)?;
                operators = report.operators;
                let rel = report.relation.into_order(&vars);
                (rel.tuples.into_iter().collect(), Completeness::Certified)
            }
            QueryPlan::Ranf {
                generator,
                restrictor,
                aux,
                ..
            } => {
                // Both halves are ordinary safe-range algebra plans; they
                // run on the plan's extended state (the planned state
                // plus the auxiliary domain relations) with the same
                // morsel-parallel physical executor as the algebra
                // strategy. Per-half operator stats are prefixed so
                // `fq explain` can attribute cardinalities.
                let opts = ExecOpts {
                    morsel_rows: self.morsel_rows,
                };
                let gen_report = PhysicalPlan::compile(&generator.optimized)
                    .execute_with_stats_on(&aux.state, &self.engine, opts)
                    .map_err(QueryError::Eval)?;
                let res_report = PhysicalPlan::compile(&restrictor.optimized)
                    .execute_with_stats_on(&aux.state, &self.engine, opts)
                    .map_err(QueryError::Eval)?;
                operators = gen_report
                    .operators
                    .into_iter()
                    .map(|op| OpStat {
                        op: format!("gen: {}", op.op),
                        ..op
                    })
                    .chain(res_report.operators.into_iter().map(|op| OpStat {
                        op: format!("res: {}", op.op),
                        ..op
                    }))
                    .collect();
                let rows: Vec<_> = gen_report
                    .relation
                    .into_order(&vars)
                    .tuples
                    .into_iter()
                    .collect();
                let restrictor_rows = res_report.relation.tuples.len();
                (
                    rows,
                    Completeness::CertifiedRanf {
                        infinite: restrictor_rows > 0,
                        restrictor_rows,
                    },
                )
            }
            QueryPlan::EnumerateAndAsk { max_candidates, .. } => {
                let out = self.registry.answer(
                    planned.domain,
                    state,
                    &compiled.normalized,
                    &vars,
                    *max_candidates,
                    &self.engine,
                )?;
                match out {
                    AnswerOutcome::Complete(rows) => (rows, Completeness::Certified),
                    AnswerOutcome::BudgetExhausted {
                        found,
                        candidates_tried,
                    } => (
                        found,
                        Completeness::Partial {
                            candidates_tried,
                            max_candidates: *max_candidates,
                        },
                    ),
                }
            }
            QueryPlan::QeDecide { .. } => {
                // The verdict is a pure function of the domain, the
                // query text and the state's content, so a hit skips
                // both the §1.1 fold and the elimination.
                let key = (planned.domain, compiled.source.clone(), state.fingerprint());
                let value = self.engine.cached(VERDICT_CACHE_NAMESPACE, key, || {
                    let sentence = translate_to_domain_formula(&compiled.normalized, state);
                    self.registry.decide(planned.domain, &sentence)
                })?;
                (Vec::new(), Completeness::Decided { value })
            }
        };
        Ok(QueryOutcome {
            vars,
            rows,
            completeness,
            plan: planned.plan.clone(),
            stats: ExecStats::default(),
            operators,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fq_engine::EngineConfig;

    fn fathers() -> State {
        let schema = Schema::new().with_relation("F", 2);
        State::new(schema)
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(2)])
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(3)])
            .with_tuple("F", vec![Value::Nat(2), Value::Nat(4)])
    }

    #[test]
    fn algebra_path_answers_the_m_query() {
        let exec = Executor::default();
        let out = exec
            .execute(
                &fathers(),
                "exists y z. y != z & F(x, y) & F(x, z)",
                DomainId::Eq,
            )
            .unwrap();
        assert_eq!(out.plan.strategy(), "algebra");
        assert_eq!(out.rows, vec![vec![Value::Nat(1)]]);
        assert!(out.is_complete());
    }

    #[test]
    fn active_domain_path_interprets_comparisons() {
        let exec = Executor::default();
        let out = exec
            .execute(&fathers(), "exists y. F(x, y) & x < y", DomainId::Nat)
            .unwrap();
        assert_eq!(out.plan.strategy(), "algebra");
        assert_eq!(out.rows, vec![vec![Value::Nat(1)], vec![Value::Nat(2)]]);
    }

    /// Arithmetic is exact or an error: `u64::MAX + 1` is no natural, so
    /// a row that needs it fails the query instead of wrapping to 0.
    #[test]
    fn overflowing_arithmetic_fails_the_query() {
        let schema = Schema::new().with_relation("F", 2);
        let state = State::new(schema)
            .with_tuple("F", vec![Value::Nat(u64::MAX), Value::Nat(0)])
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(2)]);
        let exec = Executor::default();
        for (src, domain) in [
            ("exists y. F(x, y) & x + 1 = y", DomainId::Nat),
            ("exists y. F(x, y) & x + 1 = y", DomainId::Presburger),
            ("exists y. F(x, y) & x' = y", DomainId::Succ),
        ] {
            match exec.execute(&state, src, domain) {
                Err(QueryError::Eval(e)) => assert!(e.to_string().contains("overflow"), "{e}"),
                other => panic!("{src} over {domain}: expected an overflow, got {other:?}"),
            }
        }
    }

    /// A domain selection runs on the rows its conjunction keeps: `G(y)`
    /// drops the rows where `x + 1` overflows or `x` is a string, so the
    /// queries answer on every plan.
    #[test]
    fn domain_selections_see_only_the_rows_a_join_keeps() {
        let schema = Schema::new().with_relation("F", 2).with_relation("G", 1);
        let state = State::new(schema)
            .with_tuple("F", vec![Value::Nat(u64::MAX), Value::Nat(0)])
            .with_tuple("F", vec![Value::Str("a".into()), Value::Nat(0)])
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(2)])
            .with_tuple("G", vec![Value::Nat(2)]);
        let exec = Executor::default();
        for src in [
            "exists y. F(x, y) & G(y) & x + 1 = y",
            "exists y. F(x, y) & G(y) & x < y",
        ] {
            let out = exec.execute(&state, src, DomainId::Nat).unwrap();
            assert_eq!(out.plan.strategy(), "algebra", "{src}");
            assert_eq!(out.rows, vec![vec![Value::Nat(1)]], "{src}");
        }
    }

    /// The shapes the algebra compiler takes beyond plain relation atoms:
    /// a function-term argument, a ground term folded with the domain's
    /// operations, and a `≠` whose variables only the outer conjunction
    /// binds.
    #[test]
    fn function_terms_and_outer_bindings_plan_algebra() {
        let exec = Executor::default();
        for (src, domain, rows) in [
            ("F(x, x')", DomainId::Succ, vec![1]),
            ("exists y. F(x, y) & x = 1 + 0", DomainId::Nat, vec![1]),
            (
                "(exists y. F(y, x)) & exists z. (F(z, z) | z = 4) & x != z",
                DomainId::Nat,
                vec![2, 3],
            ),
        ] {
            let out = exec.execute(&fathers(), src, domain).unwrap();
            assert_eq!(out.plan.strategy(), "algebra", "{src}");
            let expect: Vec<Vec<Value>> = rows.into_iter().map(|n| vec![Value::Nat(n)]).collect();
            assert_eq!(out.rows, expect, "{src}");
        }
    }

    #[test]
    fn enumerate_path_completes_on_finite_unsafe_query() {
        let exec = Executor::default();
        let out = exec
            .execute(
                &fathers(),
                "(forall y. (exists p. F(y, p) | F(p, y)) -> y < x) & \
                 forall z. z < x -> exists y. (exists p. F(y, p) | F(p, y)) & z <= y",
                DomainId::Presburger,
            )
            .unwrap();
        assert_eq!(out.plan.strategy(), "enumerate-and-ask");
        assert_eq!(out.rows, vec![vec![Value::Nat(5)]]);
        assert!(out.is_complete());
    }

    #[test]
    fn budget_exhaustion_reports_partial_answer() {
        // RanfMode::Off pins the pre-RANF planner: ¬F would otherwise be
        // answered exactly by the RANF split (see the tests below).
        let exec = Executor::default()
            .with_max_candidates(50)
            .with_ranf(RanfMode::Off);
        let out = exec.execute(&fathers(), "!F(x, y)", DomainId::Nat).unwrap();
        assert_eq!(out.plan.strategy(), "enumerate-and-ask");
        match out.completeness {
            Completeness::Partial {
                candidates_tried,
                max_candidates,
            } => {
                assert_eq!(candidates_tried, 50);
                assert_eq!(max_candidates, 50);
            }
            other => panic!("unexpected completeness {other:?}"),
        }
        assert!(!out.rows.is_empty(), "partial tuples must be kept");
    }

    #[test]
    fn ranf_answers_infinite_complement_exactly() {
        // Pre-RANF this query exhausted any budget with a partial
        // answer; now the generator delivers the exact active-domain
        // core and the restrictor certifies the INFINITE verdict.
        let exec = Executor::default().with_max_candidates(50);
        let out = exec.execute(&fathers(), "!F(x, y)", DomainId::Nat).unwrap();
        assert_eq!(out.plan.strategy(), "ranf");
        match out.completeness {
            Completeness::CertifiedRanf {
                infinite,
                restrictor_rows,
            } => {
                assert!(infinite);
                assert!(restrictor_rows > 0);
            }
            other => panic!("unexpected completeness {other:?}"),
        }
        assert!(out.is_complete());
        // adom = {1,2,3,4}: 16 pairs minus the 3 stored ones.
        assert_eq!(out.rows.len(), 13);
        assert!(out.rows.iter().all(|r| !fathers().contains("F", r)));
        // Per-half operator stats are attributed.
        assert!(out.operators.iter().any(|o| o.op.starts_with("gen: ")));
        assert!(out.operators.iter().any(|o| o.op.starts_with("res: ")));
    }

    #[test]
    fn ranf_certifies_finite_unsafe_queries_without_budget() {
        // F(x, y) ∨ F(x, x) is not safe-range, yet its answer in this
        // state is finite (no diagonal tuple): RANF certifies that with
        // an empty restrictor and returns the whole answer — no budget,
        // no enumeration.
        let exec = Executor::default().with_max_candidates(3);
        let out = exec
            .execute(&fathers(), "F(x, y) | F(x, x)", DomainId::Nat)
            .unwrap();
        assert_eq!(out.plan.strategy(), "ranf");
        assert_eq!(
            out.completeness,
            Completeness::CertifiedRanf {
                infinite: false,
                restrictor_rows: 0
            }
        );
        let expected: Vec<Vec<Value>> = fathers().tuples("F").collect();
        assert_eq!(out.rows, expected);
        // The same query with the pre-RANF planner dies with a partial
        // answer under this budget — the class this PR makes exact.
        let old = Executor::default()
            .with_max_candidates(3)
            .with_ranf(RanfMode::Off)
            .execute(&fathers(), "F(x, y) | F(x, x)", DomainId::Nat)
            .unwrap();
        assert_eq!(old.plan.strategy(), "enumerate-and-ask");
        assert!(matches!(old.completeness, Completeness::Partial { .. }));
    }

    #[test]
    fn ranf_rows_are_identical_at_every_thread_count() {
        let schema = Schema::new().with_relation("F", 2).with_relation("S", 1);
        let mut b = fq_relational::StateBuilder::new(schema);
        for i in 0..200u64 {
            b.row("F", vec![Value::Nat(i % 31), Value::Nat((i * 7) % 31)]);
            if i % 3 == 0 {
                b.row("S", vec![Value::Nat(i % 31)]);
            }
        }
        let state = b.finish();
        for src in ["!F(x, y) & S(x)", "forall y. F(x, y) -> S(y)"] {
            let baseline = Executor::default()
                .with_morsel_rows(16)
                .execute(&state, src, DomainId::Nat)
                .unwrap();
            assert_eq!(baseline.plan.strategy(), "ranf", "{src}");
            for threads in [2, 4] {
                let exec =
                    Executor::new(Engine::new(EngineConfig { threads })).with_morsel_rows(16);
                let out = exec.execute(&state, src, DomainId::Nat).unwrap();
                assert_eq!(out.rows, baseline.rows, "rows drift on {src}");
                assert_eq!(out.completeness, baseline.completeness, "{src}");
            }
        }
    }

    #[test]
    fn ranf_mode_is_part_of_the_plan_cache_key() {
        let engine = Engine::new(EngineConfig::default());
        let on = Executor::new(engine.clone());
        let off = Executor::new(engine).with_ranf(RanfMode::Off);
        let state = fathers();
        let (p1, _) = on.plan(&state, "!F(x, y)", DomainId::Nat).unwrap();
        let (p2, cached) = off.plan(&state, "!F(x, y)", DomainId::Nat).unwrap();
        assert!(!cached, "different mode must not share a cache entry");
        assert_eq!(p1.plan.strategy(), "ranf");
        assert_eq!(p2.plan.strategy(), "enumerate-and-ask");
    }

    #[test]
    fn sentence_path_decides() {
        let exec = Executor::default();
        let out = exec
            .execute(&fathers(), "exists x y. F(x, y)", DomainId::Nat)
            .unwrap();
        assert_eq!(out.plan.strategy(), "qe-decide");
        assert_eq!(out.completeness, Completeness::Decided { value: true });
        let no = exec
            .execute(&fathers(), "exists x. F(x, x)", DomainId::Nat)
            .unwrap();
        assert_eq!(no.completeness, Completeness::Decided { value: false });
        // The verdict memo is keyed by the state's content.
        let looped = fathers().with_tuple("F", vec![Value::Nat(5), Value::Nat(5)]);
        let yes = exec
            .execute(&looped, "exists x. F(x, x)", DomainId::Nat)
            .unwrap();
        assert_eq!(yes.completeness, Completeness::Decided { value: true });
    }

    #[test]
    fn repeated_sentences_hit_only_the_plan_and_the_verdict() {
        for (domain, sentence, expect) in [
            (DomainId::Eq, "forall x y. exists z. z != x & z != y", true),
            (DomainId::Nat, "exists y. forall x. y <= x", true),
            (DomainId::Int, "exists y. forall x. y <= x", false),
            (DomainId::Succ, "forall x. x' != 0", true),
            (
                DomainId::Presburger,
                "forall x. div(2, x, 0) | div(2, x, 1)",
                true,
            ),
            (DomainId::Words, "forall x. exists y. llex(x, y)", true),
            (DomainId::Traces, "forall p. T(p) -> M(m(p))", true),
        ] {
            let exec = Executor::default();
            assert_eq!(exec.decide(domain, sentence).unwrap(), expect, "{domain}");
            let (hits, misses) = exec.engine().cache_stats();
            assert_eq!(exec.decide(domain, sentence).unwrap(), expect, "{domain}");
            assert_eq!(
                exec.engine().cache_stats(),
                (hits + 2, misses),
                "{domain}: a repeat must hit the plan and the verdict, nothing else"
            );
        }
    }

    #[test]
    fn pure_domain_decide_needs_no_state() {
        let exec = Executor::default();
        assert!(exec
            .decide(DomainId::Nat, "exists y. forall x. y <= x")
            .unwrap());
        assert!(!exec
            .decide(DomainId::Int, "exists y. forall x. y <= x")
            .unwrap());
    }

    #[test]
    fn plan_cache_hits_on_repeats_and_misses_across_states() {
        let exec = Executor::new(Engine::new(EngineConfig::default()));
        let state = fathers();
        let (_, cached) = exec.plan(&state, "!F(x, y)", DomainId::Nat).unwrap();
        assert!(!cached, "first plan is computed");
        let (_, cached) = exec.plan(&state, "!F(x, y)", DomainId::Nat).unwrap();
        assert!(cached, "second plan comes from query.plan");
        // A different state invalidates the key.
        let other = fathers().with_tuple("F", vec![Value::Nat(7), Value::Nat(8)]);
        let (_, cached) = exec.plan(&other, "!F(x, y)", DomainId::Nat).unwrap();
        assert!(!cached, "state change must miss");
        // A different domain invalidates the key too.
        let (_, cached) = exec.plan(&state, "!F(x, y)", DomainId::Eq).unwrap();
        assert!(!cached, "domain change must miss");
    }

    #[test]
    fn exec_stats_surface_storage_counters() {
        let exec = Executor::default();
        let state = fathers().with_tuple("F", vec![Value::Str("zed".into()), Value::Nat(9)]);
        let out = exec.execute(&state, "F(x, y)", DomainId::Eq).unwrap();
        assert_eq!(out.stats.stored_rows, 4);
        assert_eq!(out.stats.dict_entries, 1, "only the string interns");
        assert_eq!(out.stats.dict_strings, 1);
    }

    #[test]
    fn query_rows_are_identical_at_every_thread_count() {
        // A chain join wide enough to span several morsels at the test's
        // tiny morsel size; byte-identical `QueryOutcome.rows` at 1, 2,
        // 4, and 8 threads is the end-to-end determinism contract.
        let schema = Schema::new().with_relation("F", 2).with_relation("S", 1);
        let mut b = fq_relational::StateBuilder::new(schema);
        for i in 0..400u64 {
            b.row("F", vec![Value::Nat(i % 97), Value::Nat((i * 7) % 97)]);
            if i % 3 == 0 {
                b.row("S", vec![Value::Nat(i % 97)]);
            }
        }
        let state = b.finish();
        for src in [
            "exists y. F(x, y) & F(y, z)",
            "F(x, y) & S(y)",
            "F(x, y) & !F(y, x)",
        ] {
            let baseline = Executor::default()
                .with_morsel_rows(16)
                .execute(&state, src, DomainId::Eq)
                .unwrap();
            assert_eq!(baseline.stats.threads, 1);
            for threads in [2, 4, 8] {
                let exec =
                    Executor::new(Engine::new(EngineConfig { threads })).with_morsel_rows(16);
                let out = exec.execute(&state, src, DomainId::Eq).unwrap();
                assert_eq!(
                    out.rows, baseline.rows,
                    "rows drift on {src} at {threads} threads"
                );
                assert_eq!(out.stats.threads, threads);
                assert_eq!(out.stats.morsel_rows, 16);
            }
        }
    }

    #[test]
    fn snapshot_execution_pins_epoch_and_shares_plan_cache() {
        let shared = fq_relational::SharedState::new(fathers());
        let exec = Executor::default();
        let snap = shared.snapshot();
        let out = exec
            .execute_snapshot(&snap, "F(x, y)", DomainId::Eq)
            .unwrap();
        assert_eq!(out.stats.snapshot_epoch, Some(0));
        shared
            .ingest("F", vec![vec![Value::Nat(9), Value::Nat(10)]])
            .unwrap();
        // Pinned snapshot: same rows, same epoch, and a plan-cache hit
        // (the fingerprint key is stable because the snapshot is).
        let again = exec
            .execute_snapshot(&snap, "F(x, y)", DomainId::Eq)
            .unwrap();
        assert_eq!(again.rows, out.rows);
        assert_eq!(again.stats.snapshot_epoch, Some(0));
        assert!(again.stats.plan_cached);
        // A fresh snapshot at the new epoch sees the new row and misses.
        let newer = exec
            .execute_snapshot(&shared.snapshot(), "F(x, y)", DomainId::Eq)
            .unwrap();
        assert_eq!(newer.stats.snapshot_epoch, Some(1));
        assert_eq!(newer.rows.len(), out.rows.len() + 1);
        assert!(!newer.stats.plan_cached);
        // Counters are shared across clones.
        assert_eq!(exec.clone().plan_cache_stats(), (1, 2));
        assert_eq!(newer.stats.plan_hits, 1);
        assert_eq!(newer.stats.plan_misses, 2);
    }

    #[test]
    fn executions_agree_between_cold_and_warm_plans() {
        let exec = Executor::default();
        let state = fathers();
        let src = "exists y. F(x, y) & F(y, z)";
        let cold = exec.execute(&state, src, DomainId::Eq).unwrap();
        let warm = exec.execute(&state, src, DomainId::Eq).unwrap();
        assert!(!cold.stats.plan_cached);
        assert!(warm.stats.plan_cached);
        assert_eq!(cold.rows, warm.rows);
        assert_eq!(cold.plan, warm.plan);
    }
}
