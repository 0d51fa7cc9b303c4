//! The domain registry — one table for every decidable domain the
//! workspace ships, replacing the stringly-typed `match` arms that used
//! to be copy-pasted into each CLI command and example. Besides the
//! decision procedures it names each domain's [`Ops`], the operations
//! an algebra plan's domain selections and ground terms evaluate with.

use crate::error::QueryError;
use fq_core::answer::{answer_query_with, AnswerOutcome};
use fq_core::relative;
use fq_domains::{
    DecidableTheory, DomainError, EqDomain, IntOrder, NatOrder, NatSucc, Presburger, TraceDomain,
    WordsLlex,
};
use fq_engine::Engine;
use fq_logic::Formula;
use fq_relational::active_eval::Ops;
use fq_relational::{State, Value};

/// The decidable domains the pipeline can plan against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DomainId {
    /// Pure equality (Section 2 opening).
    Eq,
    /// ⟨ℕ, <⟩ (Theorem 2.5).
    Nat,
    /// ⟨ℤ, <⟩ (Section 2.1).
    Int,
    /// ⟨ℕ, ′⟩ (Theorem 2.6).
    Succ,
    /// ⟨ℕ, <, +⟩, Presburger arithmetic (a decidable extension of ⟨ℕ, <⟩).
    Presburger,
    /// Words under length-lexicographic order (Section 2.2).
    Words,
    /// The trace domain **T** (Section 3).
    Traces,
}

/// One registry row: the CLI name, the structure it denotes, and whether
/// relative safety is decidable over it.
#[derive(Clone, Copy, Debug)]
pub struct DomainInfo {
    pub id: DomainId,
    /// The name accepted on the command line.
    pub key: &'static str,
    /// Human-readable structure, paper notation.
    pub structure: &'static str,
    /// Is relative safety decidable over this domain?
    pub relative_safety_decidable: bool,
}

/// The single source of truth for domain dispatch.
pub const DOMAINS: &[DomainInfo] = &[
    DomainInfo {
        id: DomainId::Eq,
        key: "eq",
        structure: "pure equality",
        relative_safety_decidable: true,
    },
    DomainInfo {
        id: DomainId::Nat,
        key: "nat",
        structure: "⟨N, <⟩",
        relative_safety_decidable: true,
    },
    DomainInfo {
        id: DomainId::Int,
        key: "int",
        structure: "⟨Z, <⟩",
        relative_safety_decidable: true,
    },
    DomainInfo {
        id: DomainId::Succ,
        key: "succ",
        structure: "⟨N, ′⟩",
        relative_safety_decidable: true,
    },
    DomainInfo {
        id: DomainId::Presburger,
        key: "presburger",
        structure: "⟨N, <, +⟩",
        relative_safety_decidable: true,
    },
    DomainInfo {
        id: DomainId::Words,
        key: "words",
        structure: "⟨Σ*, ≤llex⟩",
        relative_safety_decidable: true,
    },
    DomainInfo {
        id: DomainId::Traces,
        key: "traces",
        structure: "T (Section 3)",
        relative_safety_decidable: false,
    },
];

/// The CLI names, registry order.
pub fn domain_names() -> Vec<&'static str> {
    DOMAINS.iter().map(|d| d.key).collect()
}

impl DomainId {
    /// Resolve a CLI name through the registry.
    pub fn parse(name: &str) -> Result<DomainId, QueryError> {
        DOMAINS
            .iter()
            .find(|d| d.key == name)
            .map(|d| d.id)
            .ok_or_else(|| QueryError::UnknownDomain {
                name: name.to_string(),
            })
    }

    /// This domain's registry row.
    pub fn info(&self) -> &'static DomainInfo {
        DOMAINS
            .iter()
            .find(|d| d.id == *self)
            .expect("every DomainId has a registry row")
    }

    /// The CLI name.
    pub fn key(&self) -> &'static str {
        self.info().key
    }

    /// Pick a domain from the symbols a query uses: trace predicates
    /// force **T**, `llex` forces words, `+`/`div` force Presburger,
    /// comparisons force ⟨ℕ, <⟩, a bare successor forces ⟨ℕ, ′⟩, and a
    /// purely relational query needs nothing beyond equality. ⟨ℤ, <⟩
    /// shares its symbols with ⟨ℕ, <⟩ and must be requested explicitly.
    pub fn infer(query: &Formula) -> DomainId {
        let mut preds: Vec<String> = Vec::new();
        let mut funcs: Vec<String> = Vec::new();
        query.visit(&mut |f| {
            if let Formula::Pred(name, args) = f {
                preds.push(name.to_string());
                for t in args {
                    collect_funcs(t, &mut funcs);
                }
            }
            if let Formula::Eq(a, b) = f {
                collect_funcs(a, &mut funcs);
                collect_funcs(b, &mut funcs);
            }
        });
        let has = |name: &str| preds.iter().any(|p| p == name);
        let hasf = |name: &str| funcs.iter().any(|p| p == name);
        if ["P", "M", "W", "T", "O", "B", "D", "E"]
            .iter()
            .any(|p| has(p))
            || hasf("w")
            || hasf("m")
        {
            DomainId::Traces
        } else if has("llex") {
            DomainId::Words
        } else if has("div") || hasf("+") || hasf("-") || hasf("*") {
            DomainId::Presburger
        } else if has("<") || has("<=") || has(">") || has(">=") {
            DomainId::Nat
        } else if hasf("succ") {
            DomainId::Succ
        } else {
            DomainId::Eq
        }
    }
}

impl std::fmt::Display for DomainId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.key(), self.info().structure)
    }
}

fn collect_funcs(t: &fq_logic::Term, out: &mut Vec<String>) {
    if let fq_logic::Term::App(name, args) = t {
        out.push(name.to_string());
        for a in args {
            collect_funcs(a, out);
        }
    }
}

/// Uniform dispatch over the registry: deciding sentences, relative
/// safety, enumerate-and-ask answering (each returning
/// domain-independent [`Value`]s), and the operations algebra domain
/// selections evaluate with.
#[derive(Clone, Copy, Debug, Default)]
pub struct DomainRegistry;

impl DomainRegistry {
    /// Decide a pure-domain sentence.
    pub fn decide(&self, id: DomainId, sentence: &Formula) -> Result<bool, DomainError> {
        match id {
            DomainId::Eq => EqDomain.decide(sentence),
            DomainId::Nat => NatOrder.decide(sentence),
            DomainId::Int => IntOrder.decide(sentence),
            DomainId::Succ => NatSucc.decide(sentence),
            DomainId::Presburger => Presburger.decide(sentence),
            DomainId::Words => WordsLlex.decide(sentence),
            DomainId::Traces => TraceDomain.decide(sentence),
        }
    }

    /// Relative safety of `query` in `state` over the domain:
    /// `Some(finite?)` where decidable, `None` over **T** (Theorem 3.3 —
    /// no budget-free answer exists).
    pub fn relative_safety(
        &self,
        id: DomainId,
        state: &State,
        query: &Formula,
        vars: &[String],
    ) -> Result<Option<bool>, DomainError> {
        Ok(match id {
            DomainId::Eq => Some(relative::relative_safety_eq(state, query, vars)?),
            // Theorem 2.5 covers every decidable extension of ⟨N, <⟩,
            // so ⟨N, <, +⟩ shares the ⟨N, <⟩ criterion.
            DomainId::Nat | DomainId::Presburger => {
                Some(relative::relative_safety_nat(state, query, vars)?)
            }
            DomainId::Int => Some(relative::relative_safety_int(state, query, vars)?),
            DomainId::Succ => Some(relative::relative_safety_succ(state, query, vars)?),
            DomainId::Words => Some(relative::relative_safety_words(state, query, vars)?),
            DomainId::Traces => None,
        })
    }

    /// The Section 1.1 enumerate-and-ask loop over the domain, answers
    /// converted to [`Value`] tuples. Decide results are memoized in the
    /// engine (`core.answer.decide`), so the loop's restarted candidate
    /// scans and warm re-executions skip the quantifier eliminations.
    pub fn answer(
        &self,
        id: DomainId,
        state: &State,
        query: &Formula,
        vars: &[String],
        max_candidates: usize,
        engine: &Engine,
    ) -> Result<AnswerOutcome<Value>, DomainError> {
        match id {
            DomainId::Eq => {
                answer_query_with(&EqDomain, state, query, vars, max_candidates, engine)
                    .map(|o| convert(o, |n| Value::Nat(*n)))
            }
            DomainId::Nat => {
                answer_query_with(&NatOrder, state, query, vars, max_candidates, engine)
                    .map(|o| convert(o, |n| Value::Nat(*n)))
            }
            DomainId::Int => {
                answer_query_with(&IntOrder, state, query, vars, max_candidates, engine)
                    .map(|o| convert(o, int_value))
            }
            DomainId::Succ => {
                answer_query_with(&NatSucc, state, query, vars, max_candidates, engine)
                    .map(|o| convert(o, |n| Value::Nat(*n)))
            }
            DomainId::Presburger => {
                answer_query_with(&Presburger, state, query, vars, max_candidates, engine)
                    .map(|o| convert(o, |n| Value::Nat(*n)))
            }
            DomainId::Words => {
                answer_query_with(&WordsLlex, state, query, vars, max_candidates, engine)
                    .map(|o| convert(o, |s: &String| Value::Str(s.clone())))
            }
            DomainId::Traces => {
                answer_query_with(&TraceDomain, state, query, vars, max_candidates, engine)
                    .map(|o| convert(o, |s: &String| Value::Str(s.clone())))
            }
        }
    }

    /// The operations that evaluate the domain's functions and
    /// predicates: the domain selections and ground terms of an algebra
    /// plan use them.
    pub fn ops(&self, id: DomainId) -> Ops {
        match id {
            DomainId::Eq => Ops::Equality,
            DomainId::Nat | DomainId::Int | DomainId::Succ | DomainId::Presburger => Ops::Nat,
            DomainId::Words | DomainId::Traces => Ops::Trace,
        }
    }
}

/// A negative integer has no [`Value::Nat`] form; render it as a string
/// so ⟨ℤ, <⟩ answers stay representable.
fn int_value(n: &i64) -> Value {
    if *n >= 0 {
        Value::Nat(*n as u64)
    } else {
        Value::Str(n.to_string())
    }
}

fn convert<E>(out: AnswerOutcome<E>, f: impl Fn(&E) -> Value) -> AnswerOutcome<Value> {
    let map = |tuples: Vec<Vec<E>>| -> Vec<Vec<Value>> {
        tuples.iter().map(|t| t.iter().map(&f).collect()).collect()
    };
    match out {
        AnswerOutcome::Complete(tuples) => AnswerOutcome::Complete(map(tuples)),
        AnswerOutcome::BudgetExhausted {
            found,
            candidates_tried,
        } => AnswerOutcome::BudgetExhausted {
            found: map(found),
            candidates_tried,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fq_logic::parse_formula;

    #[test]
    fn every_key_parses_back_to_its_id() {
        for info in DOMAINS {
            assert_eq!(DomainId::parse(info.key).unwrap(), info.id);
        }
        assert!(matches!(
            DomainId::parse("bogus"),
            Err(QueryError::UnknownDomain { .. })
        ));
    }

    #[test]
    fn inference_picks_the_strongest_needed_theory() {
        let cases = [
            ("F(x, y)", DomainId::Eq),
            ("exists y. F(x, y) & x < y", DomainId::Nat),
            ("x = y'", DomainId::Succ),
            ("div(2, x, 0)", DomainId::Presburger),
            ("llex(x, y)", DomainId::Words),
            ("P(m, w, p)", DomainId::Traces),
            ("T(p) & w(p) = \"1\"", DomainId::Traces),
        ];
        for (src, expected) in cases {
            let q = parse_formula(src).unwrap();
            assert_eq!(DomainId::infer(&q), expected, "{src}");
        }
    }
}
