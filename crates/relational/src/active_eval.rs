//! Domain operations, and active-domain evaluation of queries.
//!
//! [`DomainOps`] interprets a domain's functions and predicates over
//! [`Value`]s; [`Ops`] names the implementation a domain uses, so an
//! algebra selection can carry it (`crate::algebra::Condition::Domain`).
//!
//! [`eval_query`] is the string-environment evaluator: quantifiers range
//! over the query's active domain (state values, query constants and
//! the values of the query's ground terms). For *domain-independent*
//! queries this computes the answer; for others it computes the
//! active-domain-relativized answer used by the effective syntaxes of
//! Section 2. The planner never runs it: it is the test suites'
//! reference for the algebra, and [`solutions_over`] is the
//! relative-safety test's evaluator.

use crate::state::{State, Tuple, Value};
use fq_logic::eval::{eval_term, solutions, Assignment, Interpretation};
use fq_logic::{Formula, LogicError, Term};

/// Interpretation of domain functions and predicates over [`Value`]s.
/// Database relations are handled separately by the evaluator.
pub trait DomainOps {
    /// Interpret a domain function.
    fn func(&self, name: &str, args: &[Value]) -> Result<Value, LogicError> {
        Err(LogicError::eval(format!(
            "unknown domain function `{name}`/{}",
            args.len()
        )))
    }

    /// Interpret a domain predicate.
    fn pred(&self, name: &str, args: &[Value]) -> Result<bool, LogicError> {
        Err(LogicError::eval(format!(
            "unknown domain predicate `{name}`/{}",
            args.len()
        )))
    }
}

/// The equality-only domain: no functions, no predicates.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoOps;

impl DomainOps for NoOps {}

/// Numeric domains: comparisons and linear arithmetic over `Value::Nat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NatOps;

impl DomainOps for NatOps {
    fn func(&self, name: &str, args: &[Value]) -> Result<Value, LogicError> {
        let nums: Option<Vec<u64>> = args
            .iter()
            .map(|v| match v {
                Value::Nat(n) => Some(*n),
                Value::Str(_) => None,
            })
            .collect();
        let nums = nums.ok_or_else(|| LogicError::eval("numeric function on a string"))?;
        // Exact or an error: a wrapped result would be a wrong answer.
        let exact = |n: Option<u64>, shown: String| {
            n.map(Value::Nat).ok_or_else(|| {
                LogicError::eval(format!("arithmetic overflow: {shown} exceeds {}", u64::MAX))
            })
        };
        match (name, nums.as_slice()) {
            ("succ", [a]) => exact(a.checked_add(1), format!("{a}'")),
            ("+", [a, b]) => exact(a.checked_add(*b), format!("{a} + {b}")),
            ("-", [a, b]) => Ok(Value::Nat(a.saturating_sub(*b))),
            ("*", [a, b]) => exact(a.checked_mul(*b), format!("{a} * {b}")),
            _ => Err(LogicError::eval(format!("unknown function `{name}`"))),
        }
    }

    fn pred(&self, name: &str, args: &[Value]) -> Result<bool, LogicError> {
        match (name, args) {
            ("<", [Value::Nat(a), Value::Nat(b)]) => Ok(a < b),
            ("<=", [Value::Nat(a), Value::Nat(b)]) => Ok(a <= b),
            (">", [Value::Nat(a), Value::Nat(b)]) => Ok(a > b),
            (">=", [Value::Nat(a), Value::Nat(b)]) => Ok(a >= b),
            _ => Err(LogicError::eval(format!("unknown predicate `{name}`"))),
        }
    }
}

/// The trace domain **T**: `P`, the sort predicates, `B`, `D`, `E`, and
/// the functions `w`/`m`, over `Value::Str`.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceOps;

fn as_str(v: &Value) -> Result<&str, LogicError> {
    match v {
        Value::Str(s) => Ok(s),
        Value::Nat(_) => Err(LogicError::eval("trace-domain operation on a number")),
    }
}

impl DomainOps for TraceOps {
    fn func(&self, name: &str, args: &[Value]) -> Result<Value, LogicError> {
        match (name, args) {
            ("w", [v]) => {
                let s = as_str(v)?;
                Ok(Value::Str(
                    fq_turing::trace::validate_trace(s)
                        .map(|i| i.word)
                        .unwrap_or_default(),
                ))
            }
            ("m", [v]) => {
                let s = as_str(v)?;
                Ok(Value::Str(
                    fq_turing::trace::validate_trace(s)
                        .map(|i| i.machine_str)
                        .unwrap_or_default(),
                ))
            }
            _ => Err(LogicError::eval(format!("unknown function `{name}`"))),
        }
    }

    fn pred(&self, name: &str, args: &[Value]) -> Result<bool, LogicError> {
        use fq_turing::sym::{classify, Sort};
        match (name, args) {
            ("P", [m, w, p]) => Ok(fq_turing::trace::p_predicate(
                as_str(m)?,
                as_str(w)?,
                as_str(p)?,
            )),
            ("M", [v]) => Ok(classify(as_str(v)?) == Sort::Machine),
            ("W", [v]) => Ok(classify(as_str(v)?) == Sort::Word),
            ("T", [v]) => Ok(classify(as_str(v)?) == Sort::Trace),
            ("O", [v]) => Ok(classify(as_str(v)?) == Sort::Other),
            ("B", [w, s]) => {
                let w = as_str(w)?;
                let s = as_str(s)?;
                if classify(s) != Sort::Word {
                    return Ok(false);
                }
                let sb = s.as_bytes();
                Ok(w.bytes()
                    .enumerate()
                    .all(|(k, wc)| sb.get(k).copied().unwrap_or(b'&') == wc))
            }
            ("D", [Value::Nat(i), m, u]) => {
                let m = as_str(m)?;
                let u = as_str(u)?;
                if classify(u) != Sort::Word {
                    return Ok(false);
                }
                Ok(fq_turing::decode_machine(m)
                    .is_some_and(|mm| fq_turing::trace::has_at_least_traces(&mm, u, *i as usize)))
            }
            ("E", [Value::Nat(i), m, u]) => {
                let m = as_str(m)?;
                let u = as_str(u)?;
                if classify(u) != Sort::Word {
                    return Ok(false);
                }
                Ok(fq_turing::decode_machine(m)
                    .is_some_and(|mm| fq_turing::trace::has_exactly_traces(&mm, u, *i as usize)))
            }
            _ => Err(LogicError::eval(format!("unknown predicate `{name}`"))),
        }
    }
}

/// Which [`DomainOps`] a domain evaluates its atoms with, as a value a
/// plan can carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Ops {
    /// [`NoOps`]: pure equality.
    Equality,
    /// [`NatOps`]: the numeric domains.
    Nat,
    /// [`TraceOps`]: the trace and word domains.
    Trace,
}

impl DomainOps for Ops {
    fn func(&self, name: &str, args: &[Value]) -> Result<Value, LogicError> {
        match self {
            Ops::Equality => NoOps.func(name, args),
            Ops::Nat => NatOps.func(name, args),
            Ops::Trace => TraceOps.func(name, args),
        }
    }

    fn pred(&self, name: &str, args: &[Value]) -> Result<bool, LogicError> {
        match self {
            Ops::Equality => NoOps.pred(name, args),
            Ops::Nat => NatOps.pred(name, args),
            Ops::Trace => TraceOps.pred(name, args),
        }
    }
}

/// The combined interpretation: scheme relations from the state, scheme
/// constants from the state, everything else from the domain ops.
pub struct QueryInterp<'a, D: DomainOps> {
    state: &'a State,
    ops: &'a D,
}

impl<'a, D: DomainOps> QueryInterp<'a, D> {
    pub fn new(state: &'a State, ops: &'a D) -> Self {
        QueryInterp { state, ops }
    }
}

impl<D: DomainOps> Interpretation for QueryInterp<'_, D> {
    type Elem = Value;

    fn nat(&self, n: u64) -> Result<Value, LogicError> {
        Ok(Value::Nat(n))
    }

    fn str_lit(&self, s: &str) -> Result<Value, LogicError> {
        Ok(Value::Str(s.to_string()))
    }

    fn named_const(&self, name: &str) -> Result<Value, LogicError> {
        self.state
            .constant(name)
            .cloned()
            .ok_or_else(|| LogicError::eval(format!("scheme constant `{name}` has no value")))
    }

    fn func(&self, name: &str, args: &[Value]) -> Result<Value, LogicError> {
        self.ops.func(name, args)
    }

    fn pred(&self, name: &str, args: &[Value]) -> Result<bool, LogicError> {
        if self.state.schema().arity(name).is_some() {
            return Ok(self.state.contains(name, args));
        }
        self.ops.pred(name, args)
    }
}

/// `query` with every ground term that is not a literal — a scheme
/// constant, or a function of constants such as `1 + 0` — replaced by
/// its value under `ops` and the state's constants. A term that fails to
/// evaluate (an overflow, an unknown function) fails the fold.
pub fn fold_ground<D: DomainOps>(
    state: &State,
    ops: &D,
    query: &Formula,
) -> Result<Formula, LogicError> {
    fold_formula(&QueryInterp::new(state, ops), query)
}

fn fold_formula<D: DomainOps>(
    interp: &QueryInterp<'_, D>,
    f: &Formula,
) -> Result<Formula, LogicError> {
    let boxed = |g: &Formula| fold_formula(interp, g).map(Box::new);
    let all = |gs: &[Formula]| -> Result<Vec<Formula>, LogicError> {
        gs.iter().map(|g| fold_formula(interp, g)).collect()
    };
    let terms = |ts: &[Term]| -> Result<Vec<Term>, LogicError> {
        ts.iter().map(|t| fold_term(interp, t)).collect()
    };
    Ok(match f {
        Formula::True | Formula::False => f.clone(),
        Formula::Pred(name, args) => Formula::Pred(name.clone(), terms(args)?),
        Formula::Eq(a, b) => Formula::Eq(fold_term(interp, a)?, fold_term(interp, b)?),
        Formula::Not(g) => Formula::Not(boxed(g)?),
        Formula::And(gs) => Formula::And(all(gs)?),
        Formula::Or(gs) => Formula::Or(all(gs)?),
        Formula::Implies(a, b) => Formula::Implies(boxed(a)?, boxed(b)?),
        Formula::Iff(a, b) => Formula::Iff(boxed(a)?, boxed(b)?),
        Formula::Exists(v, g) => Formula::Exists(v.clone(), boxed(g)?),
        Formula::Forall(v, g) => Formula::Forall(v.clone(), boxed(g)?),
    })
}

fn fold_term<D: DomainOps>(interp: &QueryInterp<'_, D>, t: &Term) -> Result<Term, LogicError> {
    Ok(match t {
        Term::App(..) if t.is_ground() => match eval_term(interp, &Assignment::new(), t)? {
            Value::Nat(n) => Term::Nat(n),
            Value::Str(s) => Term::Str(s),
        },
        Term::App(name, args) => Term::App(
            name.clone(),
            args.iter()
                .map(|a| fold_term(interp, a))
                .collect::<Result<_, _>>()?,
        ),
        other => other.clone(),
    })
}

/// Evaluate a query under active-domain semantics: the answer relation
/// over the free variables in the given order. Ground terms are folded
/// first ([`fold_ground`]), so their values belong to the universe.
pub fn eval_query<D: DomainOps>(
    state: &State,
    ops: &D,
    query: &Formula,
    free_vars: &[String],
) -> Result<Vec<Tuple>, LogicError> {
    let query = fold_ground(state, ops, query)?;
    let universe: Vec<Value> = state.query_active_domain(&query).into_iter().collect();
    let interp = QueryInterp::new(state, ops);
    solutions(&interp, &universe, free_vars, &query)
}

/// Evaluate a query over an explicitly supplied universe (used by the
/// fresh-element relative-safety test, which extends the active domain
/// with one extra element).
pub fn solutions_over<D: DomainOps>(
    state: &State,
    ops: &D,
    query: &Formula,
    free_vars: &[String],
    universe: &[Value],
) -> Result<Vec<Tuple>, LogicError> {
    let interp = QueryInterp::new(state, ops);
    solutions(&interp, universe, free_vars, query)
}

/// Evaluate a boolean (sentence) query under active-domain semantics,
/// over the same universe as [`eval_query`].
pub fn eval_boolean<D: DomainOps>(
    state: &State,
    ops: &D,
    query: &Formula,
) -> Result<bool, LogicError> {
    let query = fold_ground(state, ops, query)?;
    let universe: Vec<Value> = state.query_active_domain(&query).into_iter().collect();
    let interp = QueryInterp::new(state, ops);
    fq_logic::eval::eval_sentence(&interp, &universe, &query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use fq_logic::parse_formula;

    fn fathers() -> State {
        // 1 has two sons (2, 3); 2 has one son (4).
        let schema = Schema::new().with_relation("F", 2);
        State::new(schema)
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(2)])
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(3)])
            .with_tuple("F", vec![Value::Nat(2), Value::Nat(4)])
    }

    #[test]
    fn papers_query_m_two_sons() {
        // M(x): x has more than one son.
        let q = parse_formula("exists y z. y != z & F(x, y) & F(x, z)").unwrap();
        let ans = eval_query(&fathers(), &NoOps, &q, &["x".to_string()]).unwrap();
        assert_eq!(ans, vec![vec![Value::Nat(1)]]);
    }

    #[test]
    fn papers_query_g_grandfathers() {
        // G(x, z): grandfather/grandson.
        let q = parse_formula("exists y. F(x, y) & F(y, z)").unwrap();
        let ans = eval_query(&fathers(), &NoOps, &q, &["x".to_string(), "z".to_string()]).unwrap();
        assert_eq!(ans, vec![vec![Value::Nat(1), Value::Nat(4)]]);
    }

    #[test]
    fn boolean_queries() {
        let yes = parse_formula("exists x y. F(x, y)").unwrap();
        assert!(eval_boolean(&fathers(), &NoOps, &yes).unwrap());
        let no = parse_formula("exists x. F(x, x)").unwrap();
        assert!(!eval_boolean(&fathers(), &NoOps, &no).unwrap());
    }

    #[test]
    fn numeric_ops_in_queries() {
        let q = parse_formula("exists y. F(x, y) & x < y").unwrap();
        let ans = eval_query(&fathers(), &NatOps, &q, &["x".to_string()]).unwrap();
        assert_eq!(ans, vec![vec![Value::Nat(1)], vec![Value::Nat(2)]]);
    }

    #[test]
    fn scheme_constants_resolve() {
        let schema = Schema::new().with_relation("R", 1).with_constant("c");
        let state = State::new(schema)
            .with_tuple("R", vec![Value::Nat(5)])
            .with_constant("c", 5u64);
        let raw = parse_formula("R(c)").unwrap();
        let q = fq_logic::bind_constants(&raw, &["c".to_string()].into());
        assert!(eval_boolean(&state, &NoOps, &q).unwrap());
    }

    #[test]
    fn trace_ops_p_predicate() {
        let m = fq_turing::builders::scan_right_halt_on_blank();
        let enc = fq_turing::encode_machine(&m);
        let tr = fq_turing::trace::trace_string(&m, "11", 2).unwrap();
        let schema = Schema::new().with_relation("R", 1);
        let state = State::new(schema).with_tuple("R", vec![Value::Str(tr.clone())]);
        let q = parse_formula(&format!("exists p. R(p) & P(\"{enc}\", \"11\", p)")).unwrap();
        assert!(eval_boolean(&state, &TraceOps, &q).unwrap());
        let q2 = parse_formula(&format!("exists p. R(p) & P(\"{enc}\", \"1\", p)")).unwrap();
        assert!(!eval_boolean(&state, &TraceOps, &q2).unwrap());
    }

    #[test]
    fn trace_ops_sorts_and_functions() {
        let m = fq_turing::builders::looper();
        let tr = fq_turing::trace::trace_string(&m, "1&", 2).unwrap();
        let schema = Schema::new().with_relation("R", 1);
        let state = State::new(schema).with_tuple("R", vec![Value::Str(tr)]);
        let q = parse_formula("exists p. R(p) & T(p) & w(p) = \"1&\"").unwrap();
        assert!(eval_boolean(&state, &TraceOps, &q).unwrap());
    }

    #[test]
    fn unknown_symbols_error() {
        let q = parse_formula("exists x. Weird(x)").unwrap();
        assert!(eval_boolean(&fathers(), &NoOps, &q).is_err());
    }

    #[test]
    fn empty_state_empty_answers() {
        let schema = Schema::new().with_relation("F", 2);
        let state = State::new(schema);
        let q = parse_formula("F(x, y)").unwrap();
        let ans = eval_query(&state, &NoOps, &q, &["x".to_string(), "y".to_string()]).unwrap();
        assert!(ans.is_empty());
    }
}
