//! Active-domain evaluation of queries.
//!
//! Quantifiers range over the query's active domain (state values plus
//! query constants). For *domain-independent* queries this computes the
//! answer; for others it computes the active-domain-relativized answer
//! used by the effective syntaxes of Section 2.

use crate::state::{State, Tuple, Value};
use crate::val::{SharedOverlay, Val};
use fq_engine::Engine;
use fq_logic::eval::{
    compile_slots, solutions, solutions_slots, solutions_slots_fixed, Interpretation,
};
use fq_logic::{Formula, LogicError};

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
        match (name, nums.as_slice()) {
            ("succ", [a]) => Ok(Value::Nat(a + 1)),
            ("+", [a, b]) => Ok(Value::Nat(a + b)),
            ("-", [a, b]) => Ok(Value::Nat(a.saturating_sub(*b))),
            ("*", [a, b]) => Ok(Value::Nat(a * b)),
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

/// Evaluate a query under active-domain semantics: the answer relation
/// over the free variables in the given order.
pub fn eval_query<D: DomainOps>(
    state: &State,
    ops: &D,
    query: &Formula,
    free_vars: &[String],
) -> Result<Vec<Tuple>, LogicError> {
    let universe: Vec<Value> = state.query_active_domain(query).into_iter().collect();
    let interp = QueryInterp::new(state, ops);
    solutions(&interp, &universe, free_vars, query)
}

/// The word-level interpretation used by the slot evaluator: frames bind
/// one-word [`Val`]s instead of heap [`Value`]s, scheme-relation
/// membership is a binary search over the state's columnar store, and
/// query values absent from the state dictionary (literals, function
/// results) are interned into a [`SharedOverlay`], so word equality
/// remains semantic equality across the whole evaluation.
struct ValInterp<'a, D: DomainOps> {
    state: &'a State,
    ops: &'a D,
    overlay: SharedOverlay<'a>,
}

impl<D: DomainOps> Interpretation for ValInterp<'_, D> {
    type Elem = Val;

    fn nat(&self, n: u64) -> Result<Val, LogicError> {
        Ok(match Val::inline_nat(n) {
            Some(v) => v,
            None => self.overlay.encode(&Value::Nat(n)),
        })
    }

    fn str_lit(&self, s: &str) -> Result<Val, LogicError> {
        Ok(self.overlay.encode(&Value::Str(s.to_string())))
    }

    fn named_const(&self, name: &str) -> Result<Val, LogicError> {
        let v = self
            .state
            .constant(name)
            .ok_or_else(|| LogicError::eval(format!("scheme constant `{name}` has no value")))?;
        Ok(self.overlay.encode(v))
    }

    fn func(&self, name: &str, args: &[Val]) -> Result<Val, LogicError> {
        let decoded: Vec<Value> = args.iter().map(|&v| self.overlay.decode(v)).collect();
        let out = self.ops.func(name, &decoded)?;
        Ok(self.overlay.encode(&out))
    }

    fn pred(&self, name: &str, args: &[Val]) -> Result<bool, LogicError> {
        if self.state.schema().arity(name).is_some() {
            // Overlay words (ids past the base dictionary) are values no
            // stored tuple contains; `contains_vals` rejects them.
            return Ok(self.state.contains_vals(name, args));
        }
        let decoded: Vec<Value> = args.iter().map(|&v| self.overlay.decode(v)).collect();
        self.ops.pred(name, &decoded)
    }
}

/// Slot-compiled, engine-parallel [`eval_query`]: the formula is
/// compiled once (variable names → frame slots), frames bind compact
/// [`Val`] words, and the outermost free variable is fanned out across
/// the engine's workers. The universe is the active domain encoded in
/// its semantic (`BTreeSet`) order and `parallel_map` returns chunks in
/// universe order, so the decoded rows are bit-identical to the
/// sequential string-env enumeration over [`Value`]s.
pub fn eval_query_with<D: DomainOps + Sync>(
    state: &State,
    ops: &D,
    query: &Formula,
    free_vars: &[String],
    engine: &Engine,
) -> Result<Vec<Tuple>, LogicError> {
    let interp = ValInterp {
        state,
        ops,
        overlay: SharedOverlay::new(state.dict()),
    };
    let universe: Vec<Val> = state
        .query_active_domain(query)
        .iter()
        .map(|v| interp.overlay.encode(v))
        .collect();
    let compiled = compile_slots(query, free_vars);
    let rows: Vec<Vec<Val>> = if free_vars.is_empty() || universe.len() < 2 || engine.threads() < 2
    {
        solutions_slots(&interp, &universe, &compiled)?
    } else {
        let chunks: Vec<Result<Vec<Vec<Val>>, LogicError>> = engine.parallel_map(&universe, |e| {
            solutions_slots_fixed(&interp, &universe, &compiled, std::slice::from_ref(e))
        });
        let mut out = Vec::new();
        for chunk in chunks {
            out.extend(chunk?);
        }
        out
    };
    Ok(rows
        .into_iter()
        .map(|row| row.iter().map(|&v| interp.overlay.decode(v)).collect())
        .collect())
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

/// Evaluate a boolean (sentence) query under active-domain semantics.
pub fn eval_boolean<D: DomainOps>(
    state: &State,
    ops: &D,
    query: &Formula,
) -> Result<bool, LogicError> {
    let universe: Vec<Value> = state.query_active_domain(query).into_iter().collect();
    let interp = QueryInterp::new(state, ops);
    fq_logic::eval::eval_sentence(&interp, &universe, query)
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
    fn eval_query_with_matches_string_env_evaluator() {
        for threads in [1, 4] {
            let engine = Engine::new(fq_engine::EngineConfig { threads });
            for (src, vars) in [
                ("exists y z. y != z & F(x, y) & F(x, z)", vec!["x"]),
                ("exists y. F(x, y) & F(y, z)", vec!["x", "z"]),
                ("F(x, y) | F(y, x)", vec!["x", "y"]),
            ] {
                let q = parse_formula(src).unwrap();
                let vars: Vec<String> = vars.into_iter().map(String::from).collect();
                let naive = eval_query(&fathers(), &NoOps, &q, &vars).unwrap();
                let fast = eval_query_with(&fathers(), &NoOps, &q, &vars, &engine).unwrap();
                assert_eq!(naive, fast, "{src} ({threads} threads)");
            }
        }
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
