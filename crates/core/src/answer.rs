//! The Section 1.1 query-answering algorithm.
//!
//! "Consider the formula ∃x̄ F′(x̄). If it is false, then the answer is the
//! empty relation. … by checking F(a₁), F(a₂), …, one at a time, we find
//! the first a_k that makes the formula true. … Now take the formula
//! ∃x̄ (x̄ ≠ a_k ∧ F′(x̄)) … Thus, we just described an algorithm (as
//! inefficient as it is) for answering queries. Note that, at least for
//! safe queries, this algorithm always stops."
//!
//! The implementation is generic over any [`DecidableTheory`]: the state
//! is folded into the query by the Section 1.1 translation, and the
//! decision procedure is asked "is there another answer?" after each
//! tuple is found.

use fq_domains::{DecidableTheory, Domain, DomainError};
use fq_engine::Engine;
use fq_logic::{Formula, Term};
use fq_relational::{translate_to_domain_formula, State};

/// The outcome of the enumerate-and-ask algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnswerOutcome<E> {
    /// The decision procedure certified the answer complete.
    Complete(Vec<Vec<E>>),
    /// The candidate budget ran out — for an *unsafe* query in this state
    /// the loop would never stop, exactly as the paper warns.
    BudgetExhausted {
        found: Vec<Vec<E>>,
        candidates_tried: usize,
    },
}

impl<E> AnswerOutcome<E> {
    /// The tuples found so far.
    pub fn found(&self) -> &[Vec<E>] {
        match self {
            AnswerOutcome::Complete(t) | AnswerOutcome::BudgetExhausted { found: t, .. } => t,
        }
    }

    /// Whether the answer was certified complete.
    pub fn is_complete(&self) -> bool {
        matches!(self, AnswerOutcome::Complete(_))
    }
}

/// Answer `query` in `state` over `domain` by enumerate-and-ask, trying
/// at most `max_candidates` candidate tuples.
pub fn answer_query<D: DecidableTheory>(
    domain: &D,
    state: &State,
    query: &Formula,
    vars: &[String],
    max_candidates: usize,
) -> Result<AnswerOutcome<D::Elem>, DomainError> {
    // A private engine still pays off within one call: the loop restarts
    // its candidate scan after every discovered tuple, re-deciding the
    // same instantiated sentences.
    answer_query_with(
        domain,
        state,
        query,
        vars,
        max_candidates,
        &Engine::sequential(),
    )
}

/// [`answer_query`] with each decided sentence memoized in `engine`
/// (keyed by the domain type and the sentence), so the outer loop's
/// restarted candidate scans — and warm re-executions sharing the engine
/// — skip the quantifier eliminations entirely.
pub fn answer_query_with<D: DecidableTheory>(
    domain: &D,
    state: &State,
    query: &Formula,
    vars: &[String],
    max_candidates: usize,
    engine: &Engine,
) -> Result<AnswerOutcome<D::Elem>, DomainError> {
    let decide = |sentence: &Formula| -> Result<bool, DomainError> {
        engine.cached(
            "core.answer.decide",
            (std::any::type_name::<D>(), sentence.clone()),
            || domain.decide(sentence),
        )
    };
    let phi = translate_to_domain_formula(query, state);
    let mut found: Vec<Vec<D::Elem>> = Vec::new();
    let mut candidates_tried = 0usize;

    loop {
        // "Is there an answer different from all found so far?" — for
        // multi-variable queries the accumulated ≠-constraints make this
        // sentence exponentially hard for the quantifier eliminations
        // (each excluded tuple is a 2-literal clause), so past a small
        // number of found tuples we stop certifying and scan until the
        // budget runs out, reporting the honest `BudgetExhausted`.
        let check_feasible = vars.len() <= 1 || found.len() <= 4;
        if check_feasible {
            let another = exists_another(&phi, vars, &found, domain);
            if !decide(&another)? {
                return Ok(AnswerOutcome::Complete(found));
            }
        }
        // Scan candidate tuples — guided candidates first (a reordering
        // hint from the domain), then the canonical enumeration.
        let guided = guided_tuples(domain, &phi, vars.len());
        let mut discovered = false;
        for tuple in guided
            .into_iter()
            .chain(TupleEnumerator::new(domain, vars.len()))
        {
            if candidates_tried == max_candidates {
                return Ok(AnswerOutcome::BudgetExhausted {
                    found,
                    candidates_tried,
                });
            }
            candidates_tried += 1;
            if found.contains(&tuple) {
                continue;
            }
            let instantiated = instantiate(&phi, vars, &tuple, domain);
            if decide(&instantiated)? {
                found.push(tuple);
                discovered = true;
                break;
            }
        }
        if !discovered {
            // The enumerator is finite only through the budget; reaching
            // here means the budget ran out inside the scan.
            return Ok(AnswerOutcome::BudgetExhausted {
                found,
                candidates_tried,
            });
        }
    }
}

/// `∃x̄ (φ ∧ ⋀_t x̄ ≠ t)` closed over the answer variables.
fn exists_another<D: Domain>(
    phi: &Formula,
    vars: &[String],
    found: &[Vec<D::Elem>],
    domain: &D,
) -> Formula {
    let distinct = found.iter().map(|tuple| {
        Formula::not(Formula::and(vars.iter().zip(tuple).map(|(v, e)| {
            Formula::eq(Term::var(v.clone()), domain.elem_term(e))
        })))
    });
    Formula::exists_many(
        vars.to_vec(),
        Formula::and(std::iter::once(phi.clone()).chain(distinct)),
    )
}

/// Cartesian product of the domain's guided elements (capped at 10 000
/// tuples so a large hint set cannot stall the canonical scan).
fn guided_tuples<D: Domain>(domain: &D, phi: &Formula, k: usize) -> Vec<Vec<D::Elem>> {
    let elems = domain.guided_elements(phi);
    if elems.is_empty() || k == 0 {
        return Vec::new();
    }
    if elems.len().checked_pow(k as u32).is_none_or(|n| n > 10_000) {
        return elems.into_iter().map(|e| vec![e; k]).collect();
    }
    let mut out: Vec<Vec<D::Elem>> = vec![Vec::new()];
    for _ in 0..k {
        let mut next = Vec::with_capacity(out.len() * elems.len());
        for t in &out {
            for e in &elems {
                let mut t2 = t.clone();
                t2.push(e.clone());
                next.push(t2);
            }
        }
        out = next;
    }
    out
}

fn instantiate<D: Domain>(
    phi: &Formula,
    vars: &[String],
    tuple: &[D::Elem],
    domain: &D,
) -> Formula {
    let mut f = phi.clone();
    for (v, e) in vars.iter().zip(tuple) {
        f = fq_logic::substitute(&f, v, &domain.elem_term(e));
    }
    // Any remaining free variables (not in `vars`) would make this open;
    // the caller is responsible for projecting all free variables.
    f
}

/// Enumerates k-tuples of domain elements so that every tuple eventually
/// appears: round `n` yields the tuples over the first `n` elements that
/// use the `n`-th element at least once.
struct TupleEnumerator<'a, D: Domain> {
    domain: &'a D,
    k: usize,
    n: usize,
    buffer: std::vec::IntoIter<Vec<D::Elem>>,
}

impl<'a, D: Domain> TupleEnumerator<'a, D> {
    fn new(domain: &'a D, k: usize) -> Self {
        TupleEnumerator {
            domain,
            k,
            n: 0,
            buffer: Vec::new().into_iter(),
        }
    }

    fn refill(&mut self) {
        self.n += 1;
        let elems = self.domain.enumerate(self.n);
        if elems.len() < self.n {
            // Domain exhausted (cannot happen for infinite domains).
            self.buffer = Vec::new().into_iter();
            return;
        }
        let newest = self.n - 1;
        let mut tuples = Vec::new();
        let mut indices = vec![0usize; self.k];
        loop {
            if indices.contains(&newest) || (self.k == 0 && self.n == 1) {
                tuples.push(indices.iter().map(|&i| elems[i].clone()).collect());
            }
            // Increment mixed-radix counter over [0, n).
            let mut pos = 0;
            loop {
                if pos == self.k {
                    self.buffer = tuples.into_iter();
                    return;
                }
                indices[pos] += 1;
                if indices[pos] < self.n {
                    break;
                }
                indices[pos] = 0;
                pos += 1;
            }
        }
    }
}

impl<D: Domain> Iterator for TupleEnumerator<'_, D> {
    type Item = Vec<D::Elem>;

    fn next(&mut self) -> Option<Vec<D::Elem>> {
        loop {
            if let Some(t) = self.buffer.next() {
                return Some(t);
            }
            if self.k == 0 && self.n >= 1 {
                return None;
            }
            self.refill();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fq_domains::{NatOrder, Presburger, TraceDomain};
    use fq_logic::parse_formula;
    use fq_relational::{Schema, Value};

    fn fathers() -> State {
        let schema = Schema::new().with_relation("F", 2);
        State::new(schema)
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(2)])
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(3)])
            .with_tuple("F", vec![Value::Nat(2), Value::Nat(4)])
    }

    #[test]
    fn answers_the_papers_m_query() {
        let q = parse_formula("exists y z. y != z & F(x, y) & F(x, z)").unwrap();
        let out = answer_query(&NatOrder, &fathers(), &q, &["x".to_string()], 500).unwrap();
        assert_eq!(out, AnswerOutcome::Complete(vec![vec![1]]));
    }

    #[test]
    fn answers_a_non_domain_independent_finite_query() {
        // Fact 2.1-style: the least element above every stored value —
        // finite but outside the active domain. Plain enumerate-and-ask
        // handles it because the domain theory decides everything.
        let q = parse_formula(
            "(forall y. (exists p. F(y, p) | F(p, y)) -> y < x) & \
             forall z. z < x -> exists y. (exists p. F(y, p) | F(p, y)) & z <= y",
        )
        .unwrap();
        let out = answer_query(&Presburger, &fathers(), &q, &["x".to_string()], 500).unwrap();
        assert_eq!(out, AnswerOutcome::Complete(vec![vec![5]]));
    }

    #[test]
    fn unsafe_query_exhausts_budget() {
        // ¬F(x, y) is infinite: the loop must hit the budget, not lie.
        let q = parse_formula("!F(x, y)").unwrap();
        let out = answer_query(
            &NatOrder,
            &fathers(),
            &q,
            &["x".to_string(), "y".to_string()],
            50,
        )
        .unwrap();
        assert!(!out.is_complete());
        assert!(!out.found().is_empty());
    }

    #[test]
    fn empty_answer_terminates_immediately() {
        let q = parse_formula("F(x, x)").unwrap();
        let out = answer_query(&NatOrder, &fathers(), &q, &["x".to_string()], 100).unwrap();
        assert_eq!(out, AnswerOutcome::Complete(vec![]));
    }

    #[test]
    fn two_variable_answers() {
        let q = parse_formula("exists y. F(x, y) & F(y, z)").unwrap();
        let out = answer_query(
            &NatOrder,
            &fathers(),
            &q,
            &["x".to_string(), "z".to_string()],
            500,
        )
        .unwrap();
        assert_eq!(out, AnswerOutcome::Complete(vec![vec![1, 4]]));
    }

    #[test]
    fn trace_domain_answers_finite_query() {
        // Theorem 3.3 in the positive direction: the totality query of a
        // halting machine is answerable in the state c := "11".
        let m = fq_turing::builders::scan_right_halt_on_blank();
        let schema = Schema::new().with_constant("c");
        let state = State::new(schema).with_constant("c", "11");
        let q = fq_logic::bind_constants(
            &parse_formula(&format!("P(\"{}\", c, x)", fq_turing::encode_machine(&m))).unwrap(),
            &["c".to_string()].into(),
        );
        let out = answer_query(&TraceDomain, &state, &q, &["x".to_string()], 100_000).unwrap();
        // scan_right halts on "11" after 2 steps: exactly 3 traces.
        match out {
            AnswerOutcome::Complete(tuples) => {
                assert_eq!(tuples.len(), 3);
                for t in &tuples {
                    assert!(fq_turing::trace::p_predicate(
                        &fq_turing::encode_machine(&m),
                        "11",
                        &t[0]
                    ));
                }
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn tuple_enumerator_is_exhaustive_without_duplicates() {
        let d = NatOrder;
        let tuples: Vec<Vec<u64>> = TupleEnumerator::new(&d, 2).take(100).collect();
        let set: std::collections::BTreeSet<_> = tuples.iter().collect();
        assert_eq!(set.len(), tuples.len(), "duplicates produced");
        // Every pair over {0..3} appears among the first 16.
        for a in 0..4u64 {
            for b in 0..4u64 {
                assert!(tuples[..tuples.len().min(16)].contains(&vec![a, b]));
            }
        }
    }
}
