//! Stage 1 — **compile**: parse the query text, bind scheme constants,
//! check it against the scheme's signature, and normalize it once
//! (NNF + constant folding) so every later stage and every cache key
//! works on the same canonical formula.

use crate::error::QueryError;
use fq_logic::transform::{nnf, simplify};
use fq_logic::{bind_constants, parse_formula, Formula};
use fq_relational::safe_range::{check_safe_range, NotSafeRange};
use fq_relational::Schema;

/// A query after the compile stage: parsed, constant-bound, checked
/// against the scheme, and normalized.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledQuery {
    /// The query text as received.
    pub source: String,
    /// The scheme the query was compiled against.
    pub schema: Schema,
    /// Parse result with scheme constants bound (`c` becomes a named
    /// constant rather than a free variable).
    pub query: Formula,
    /// One-time normalization: negation normal form, constants folded.
    /// All execution strategies run on this form.
    pub normalized: Formula,
    /// Free (answer) variables, sorted.
    pub free_vars: Vec<String>,
}

impl CompiledQuery {
    /// Is the query a sentence (no answer variables)?
    pub fn is_sentence(&self) -> bool {
        self.free_vars.is_empty()
    }

    /// The classic syntactic safe-range test against the compiled
    /// scheme — `Ok` means provably domain-independent.
    pub fn safe_range(&self) -> Result<(), NotSafeRange> {
        check_safe_range(&self.schema, &self.query)
    }
}

/// Compile `source` against `schema`.
pub fn compile(schema: &Schema, source: &str) -> Result<CompiledQuery, QueryError> {
    let raw = parse_formula(source).map_err(|error| QueryError::Parse {
        source: source.to_string(),
        error,
    })?;
    let query = bind_constants(&raw, &schema.constants().iter().cloned().collect());
    check_relation_arities(schema, &query).map_err(|detail| QueryError::Signature {
        source: source.to_string(),
        detail,
    })?;
    let normalized = simplify(&nnf(&query));
    let free_vars: Vec<String> = query.free_vars().into_iter().collect();
    Ok(CompiledQuery {
        source: source.to_string(),
        schema: schema.clone(),
        query,
        normalized,
        free_vars,
    })
}

/// Check every database relation atom against its declared arity.
/// Domain predicates (anything the scheme does not declare) pass — the
/// chosen domain interprets or rejects them at plan/execute time.
fn check_relation_arities(schema: &Schema, query: &Formula) -> Result<(), String> {
    let mut problem = None;
    query.visit(&mut |f| {
        if problem.is_some() {
            return;
        }
        if let Formula::Pred(name, args) = f {
            if let Some(arity) = schema.arity(name.as_str()) {
                if args.len() != arity {
                    problem = Some(format!(
                        "relation `{name}` has arity {arity}, used with {} arguments",
                        args.len()
                    ));
                }
            }
        }
    });
    match problem {
        None => Ok(()),
        Some(p) => Err(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new().with_relation("F", 2).with_constant("c")
    }

    #[test]
    fn compiles_and_normalizes() {
        let c = compile(&schema(), "!(!F(x, y) | x = y)").unwrap();
        assert_eq!(c.free_vars, vec!["x".to_string(), "y".to_string()]);
        // NNF pushed the negation inward.
        assert_eq!(c.normalized.to_string(), "F(x, y) & x != y");
    }

    #[test]
    fn parse_errors_carry_the_source() {
        match compile(&schema(), "exists x. (") {
            Err(QueryError::Parse { source, .. }) => assert_eq!(source, "exists x. ("),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn arity_mismatch_is_a_signature_error() {
        match compile(&schema(), "F(x, y, z)") {
            Err(QueryError::Signature { detail, .. }) => {
                assert!(detail.contains("arity 2"), "{detail}")
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn scheme_constants_are_bound_not_free() {
        let c = compile(&schema(), "F(c, x)").unwrap();
        assert_eq!(c.free_vars, vec!["x".to_string()]);
        assert!(!c.is_sentence());
    }

    #[test]
    fn normalization_equal_queries_compile_equal() {
        let a = compile(&schema(), "F(x, y) & x != y").unwrap();
        // A differently written but normalization-equal query.
        let b = compile(&schema(), "!(!F(x, y) | x = y)").unwrap();
        assert_eq!(a.normalized, b.normalized);
    }
}
