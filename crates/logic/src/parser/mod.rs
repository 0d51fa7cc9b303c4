//! Recursive-descent parser for the concrete formula syntax.
//!
//! Grammar (precedence low → high; quantifier scope extends maximally right):
//!
//! ```text
//! formula  := quantified
//! quantified := ("exists" | "forall") ident+ "." quantified | iff
//! iff      := implies ("<->" implies)*            (left-assoc)
//! implies  := or ("->" implies)?                  (right-assoc)
//! or       := and ("|" and)*
//! and      := unary ("&" unary)*
//! unary    := "!" unary | atom
//! atom     := "true" | "false" | "(" formula ")"
//!           | term (("=" | "!=" | "<" | "<=" | ">" | ">=") term)?
//! term     := addend (("+" | "-") addend)*
//! addend   := factor ("*" factor)*
//! factor   := primary "'"*
//! primary  := ident ("(" term ("," term)* ")")? | number | string | "(" term ")"
//! ```
//!
//! A bare identifier or application in formula position is a predicate atom;
//! in term position it is a variable / named constant / function application.
//! The pretty-printer in [`crate::formula`] emits exactly this syntax, and
//! `parse(print(f)) == f` is property-tested.
//!
//! Input nesting deeper than [`MAX_NESTING`] levels is a parse error.

mod lexer;

pub use lexer::{tokenize, Token, TokenKind};

use crate::error::LogicError;
use crate::formula::Formula;
use crate::term::Term;

/// The deepest nesting the parser accepts. Every `(` group, `!`,
/// quantified variable, `->` operand, argument list, and step of a
/// left-associative chain (`<->`, `+`, `-`, `*`, `'`) opens one level,
/// so the syntax tree is at most this deep. The parser, and every pass
/// over a formula after it, recurses once per level: the bound keeps
/// one request line from exhausting a server thread's stack.
pub const MAX_NESTING: usize = 128;

/// Parse a formula from its concrete syntax.
pub fn parse_formula(input: &str) -> Result<Formula, LogicError> {
    let mut p = Parser::new(input)?;
    let f = p.formula()?;
    p.expect(TokenKind::Eof)?;
    Ok(f)
}

/// Parse a term from its concrete syntax.
pub fn parse_term(input: &str) -> Result<Term, LogicError> {
    let mut p = Parser::new(input)?;
    let t = p.term()?;
    p.expect(TokenKind::Eof)?;
    Ok(t)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels open at `pos` (see [`MAX_NESTING`]).
    depth: usize,
    /// Set once input nests past the bound: no backtracking rescues it.
    too_deep: bool,
}

impl Parser {
    fn new(input: &str) -> Result<Parser, LogicError> {
        Ok(Parser {
            tokens: tokenize(input)?,
            pos: 0,
            depth: 0,
            too_deep: false,
        })
    }

    /// Open one nesting level. The caller restores `depth` once its
    /// subtree is built; an error abandons the parse (or, in `atom`,
    /// is backtracked together with the position).
    fn descend(&mut self) -> Result<(), LogicError> {
        if self.depth == MAX_NESTING {
            self.too_deep = true;
            return Err(LogicError::parse(
                self.offset(),
                format!("nesting deeper than {MAX_NESTING} levels"),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    /// Run `parse` one nesting level down.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, LogicError>,
    ) -> Result<T, LogicError> {
        self.descend()?;
        let out = parse(self)?;
        self.depth -= 1;
        Ok(out)
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        k
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), LogicError> {
        if *self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(LogicError::parse(
                self.offset(),
                format!(
                    "expected {}, found {}",
                    kind.describe(),
                    self.peek().describe()
                ),
            ))
        }
    }

    fn formula(&mut self) -> Result<Formula, LogicError> {
        // Quantifier prefix with maximal scope.
        if let TokenKind::Ident(kw) = self.peek() {
            if kw == "exists" || kw == "forall" {
                let is_exists = kw == "exists";
                self.bump();
                let depth = self.depth;
                let mut vars = Vec::new();
                loop {
                    match self.bump() {
                        TokenKind::Ident(v) => {
                            self.descend()?;
                            vars.push(v);
                        }
                        other => {
                            return Err(LogicError::parse(
                                self.offset(),
                                format!(
                                    "expected variable after quantifier, found {}",
                                    other.describe()
                                ),
                            ))
                        }
                    }
                    if *self.peek() == TokenKind::Dot {
                        self.bump();
                        break;
                    }
                }
                let body = self.formula()?;
                self.depth = depth;
                return Ok(if is_exists {
                    Formula::exists_many(vars, body)
                } else {
                    Formula::forall_many(vars, body)
                });
            }
        }
        self.iff()
    }

    fn iff(&mut self) -> Result<Formula, LogicError> {
        let depth = self.depth;
        let mut left = self.implies()?;
        while *self.peek() == TokenKind::DArrow {
            self.bump();
            self.descend()?;
            let right = self.implies()?;
            left = Formula::iff(left, right);
        }
        self.depth = depth;
        Ok(left)
    }

    fn implies(&mut self) -> Result<Formula, LogicError> {
        let left = self.or()?;
        if *self.peek() == TokenKind::Arrow {
            self.bump();
            // Right-associative; allow a quantifier on the right-hand side.
            let right = self.nested(Self::formula_rhs)?;
            Ok(Formula::implies(left, right))
        } else {
            Ok(left)
        }
    }

    /// Right-hand side of `->`: permits a quantified formula.
    fn formula_rhs(&mut self) -> Result<Formula, LogicError> {
        if let TokenKind::Ident(kw) = self.peek() {
            if kw == "exists" || kw == "forall" {
                return self.formula();
            }
        }
        let left = self.or()?;
        if *self.peek() == TokenKind::Arrow {
            self.bump();
            let right = self.nested(Self::formula_rhs)?;
            Ok(Formula::implies(left, right))
        } else {
            Ok(left)
        }
    }

    fn or(&mut self) -> Result<Formula, LogicError> {
        let first = self.and()?;
        let mut parts = vec![first];
        while *self.peek() == TokenKind::Pipe {
            self.bump();
            parts.push(self.and()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("len checked")
        } else {
            Formula::Or(parts)
        })
    }

    fn and(&mut self) -> Result<Formula, LogicError> {
        let first = self.unary()?;
        let mut parts = vec![first];
        while *self.peek() == TokenKind::Amp {
            self.bump();
            parts.push(self.unary()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("len checked")
        } else {
            Formula::And(parts)
        })
    }

    fn unary(&mut self) -> Result<Formula, LogicError> {
        match self.peek() {
            TokenKind::Bang => {
                self.bump();
                let inner = self.nested(Self::unary)?;
                Ok(Formula::Not(Box::new(inner)))
            }
            TokenKind::Ident(kw) if kw == "exists" || kw == "forall" => self.formula(),
            _ => self.atom(),
        }
    }

    fn atom(&mut self) -> Result<Formula, LogicError> {
        // Constants true/false.
        if let TokenKind::Ident(kw) = self.peek() {
            match kw.as_str() {
                "true" => {
                    self.bump();
                    return Ok(Formula::True);
                }
                "false" => {
                    self.bump();
                    return Ok(Formula::False);
                }
                _ => {}
            }
        }
        // Parenthesized formula vs parenthesized term: try formula first by
        // scanning — simplest correct approach is to attempt a formula parse
        // and backtrack to a term comparison on failure.
        if *self.peek() == TokenKind::LParen {
            let save = (self.pos, self.depth);
            self.bump();
            match self.nested(Self::formula) {
                Ok(f) if *self.peek() == TokenKind::RParen => {
                    self.bump();
                    // `(formula)` not followed by a comparison operator.
                    if !self.peek_is_comparison() && !self.peek_is_term_operator() {
                        return Ok(f);
                    }
                }
                // As deep a term would be too deep as well.
                Err(e) if self.too_deep => return Err(e),
                _ => {}
            }
            (self.pos, self.depth) = save;
        }
        let left = self.term()?;
        let op = match self.peek() {
            TokenKind::EqSym => Some("="),
            TokenKind::NeqSym => Some("!="),
            TokenKind::Lt => Some("<"),
            TokenKind::Le => Some("<="),
            TokenKind::Gt => Some(">"),
            TokenKind::Ge => Some(">="),
            _ => None,
        };
        match op {
            Some(op) => {
                self.bump();
                let right = self.term()?;
                Ok(match op {
                    "=" => Formula::eq(left, right),
                    "!=" => Formula::neq(left, right),
                    other => Formula::pred(other, vec![left, right]),
                })
            }
            None => {
                // A bare term in formula position must be a predicate atom.
                match left {
                    Term::App(name, args) => Ok(Formula::Pred(name, args)),
                    Term::Var(name) => Ok(Formula::Pred(name, Vec::new())),
                    other => Err(LogicError::parse(
                        self.offset(),
                        format!("`{other}` is not a formula (missing comparison operator?)"),
                    )),
                }
            }
        }
    }

    fn peek_is_comparison(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::EqSym
                | TokenKind::NeqSym
                | TokenKind::Lt
                | TokenKind::Le
                | TokenKind::Gt
                | TokenKind::Ge
        )
    }

    fn peek_is_term_operator(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Plus | TokenKind::Minus | TokenKind::Star | TokenKind::Prime
        )
    }

    fn term(&mut self) -> Result<Term, LogicError> {
        let depth = self.depth;
        let mut left = self.addend()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => "+",
                TokenKind::Minus => "-",
                _ => break,
            };
            self.bump();
            self.descend()?;
            let right = self.addend()?;
            left = Term::app2(op, left, right);
        }
        self.depth = depth;
        Ok(left)
    }

    fn addend(&mut self) -> Result<Term, LogicError> {
        let depth = self.depth;
        let mut left = self.factor()?;
        while *self.peek() == TokenKind::Star {
            self.bump();
            self.descend()?;
            let right = self.factor()?;
            left = Term::app2("*", left, right);
        }
        self.depth = depth;
        Ok(left)
    }

    fn factor(&mut self) -> Result<Term, LogicError> {
        let depth = self.depth;
        let mut t = self.primary()?;
        while *self.peek() == TokenKind::Prime {
            self.bump();
            self.descend()?;
            t = t.succ();
        }
        self.depth = depth;
        Ok(t)
    }

    fn primary(&mut self) -> Result<Term, LogicError> {
        match self.bump() {
            TokenKind::Nat(n) => Ok(Term::Nat(n)),
            TokenKind::Str(s) => Ok(Term::Str(s)),
            TokenKind::Ident(name) => {
                if *self.peek() == TokenKind::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if *self.peek() != TokenKind::RParen {
                        loop {
                            args.push(self.nested(Self::term)?);
                            if *self.peek() == TokenKind::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(TokenKind::RParen)?;
                    Ok(Term::App(name.into(), args))
                } else {
                    Ok(Term::Var(name.into()))
                }
            }
            TokenKind::LParen => {
                let t = self.nested(Self::term)?;
                self.expect(TokenKind::RParen)?;
                Ok(t)
            }
            other => Err(LogicError::parse(
                self.offset(),
                format!("expected a term, found {}", other.describe()),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn v(n: &str) -> Term {
        Term::var(n)
    }

    #[test]
    fn parses_paper_query_m() {
        // M(x): exists y,z with y != z and F(x,y), F(x,z).
        let f = parse_formula("exists y z. y != z & F(x, y) & F(x, z)").unwrap();
        assert_eq!(f.free_vars().into_iter().collect::<Vec<_>>(), vec!["x"]);
        assert_eq!(f.quantifier_depth(), 2);
    }

    #[test]
    fn parses_paper_query_g() {
        let f = parse_formula("exists y. F(x, y) & F(y, z)").unwrap();
        let fv = f.free_vars();
        assert!(fv.contains("x") && fv.contains("z") && !fv.contains("y"));
    }

    #[test]
    fn quantifier_scope_is_maximal() {
        let f = parse_formula("exists x. P(x) & Q(x)").unwrap();
        match f {
            Formula::Exists(_, body) => {
                assert!(matches!(*body, Formula::And(_)));
            }
            _ => panic!("expected Exists at top"),
        }
    }

    #[test]
    fn implication_is_right_associative() {
        let f = parse_formula("P() -> Q() -> R()").unwrap();
        match f {
            Formula::Implies(_, rhs) => assert!(matches!(*rhs, Formula::Implies(..))),
            _ => panic!("expected Implies"),
        }
    }

    #[test]
    fn precedence_and_over_or() {
        let f = parse_formula("P() | Q() & R()").unwrap();
        match f {
            Formula::Or(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[1], Formula::And(_)));
            }
            _ => panic!("expected Or"),
        }
    }

    #[test]
    fn negated_equality_is_neq() {
        let f = parse_formula("x != y").unwrap();
        assert_eq!(f, Formula::neq(v("x"), v("y")));
    }

    #[test]
    fn parenthesized_formula() {
        let f = parse_formula("(P(x) | Q(x)) & R(x)").unwrap();
        assert!(matches!(f, Formula::And(_)));
    }

    #[test]
    fn parenthesized_term_comparison() {
        let f = parse_formula("(x + 1) = y").unwrap();
        assert_eq!(
            f,
            Formula::eq(Term::app2("+", v("x"), Term::Nat(1)), v("y"))
        );
    }

    #[test]
    fn successor_primes() {
        let t = parse_term("x'''").unwrap();
        assert_eq!(t, Term::var("x").succ_n(3));
    }

    #[test]
    fn string_constant_atom() {
        let f = parse_formula("P(M, \"1&\", x)").unwrap();
        assert_eq!(
            f,
            Formula::pred("P", vec![v("M"), Term::Str("1&".into()), v("x")])
        );
    }

    #[test]
    fn arithmetic_precedence() {
        let t = parse_term("2 * x + y").unwrap();
        assert_eq!(
            t,
            Term::app2("+", Term::app2("*", Term::Nat(2), v("x")), v("y"))
        );
    }

    #[test]
    fn nullary_predicate_from_bare_ident() {
        let f = parse_formula("Raining").unwrap();
        assert_eq!(f, Formula::pred("Raining", vec![]));
    }

    #[test]
    fn reports_error_offset() {
        let err = parse_formula("exists . P(x)").unwrap_err();
        assert!(matches!(err, LogicError::Parse { .. }));
    }

    #[test]
    fn eof_required() {
        assert!(parse_formula("P(x) P(y)").is_err());
    }

    #[test]
    fn iff_parses() {
        let f = parse_formula("P(x) <-> Q(x)").unwrap();
        assert!(matches!(f, Formula::Iff(..)));
    }

    #[test]
    fn forall_multi_var() {
        let f = parse_formula("forall x y. x = y -> y = x").unwrap();
        assert_eq!(f.quantifier_depth(), 2);
        assert!(f.is_sentence());
    }

    #[test]
    fn nesting_past_the_bound_is_a_parse_error() {
        let parens = |n: usize| format!("{}F(x){}", "(".repeat(n), ")".repeat(n));
        // `F(x)`'s argument list is the last level.
        assert!(parse_formula(&parens(MAX_NESTING - 1)).is_ok());
        assert!(parse_term(&format!("x{}", "'".repeat(MAX_NESTING))).is_ok());
        let vars: Vec<String> = (0..=MAX_NESTING).map(|i| format!("v{i}")).collect();
        for deep in [
            parens(MAX_NESTING),
            format!("{}F(x)", "!".repeat(100_000)),
            format!("{}F(x){}", "!(".repeat(100_000), ")".repeat(100_000)),
            format!("exists {}. F(x)", vars.join(" ")),
            format!("F(x){}", " <-> F(x)".repeat(MAX_NESTING + 1)),
            format!("F(x){}", " -> F(x)".repeat(MAX_NESTING + 1)),
            format!("F(x) & y = x{}", " + x".repeat(100_000)),
            format!("y = x{}", "'".repeat(MAX_NESTING + 1)),
        ] {
            let e = parse_formula(&deep).unwrap_err();
            assert!(e.to_string().contains("nesting deeper than"), "{e}");
        }
        let e =
            parse_term(&format!("{}x{}", "(".repeat(100_000), ")".repeat(100_000))).unwrap_err();
        assert!(e.to_string().contains("nesting deeper than"), "{e}");
    }

    #[test]
    fn roundtrip_display_parse() {
        let samples = [
            "exists y z. y != z & F(x, y) & F(x, z)",
            "forall y. D(y) -> x > y",
            "P(m, \"11&\", t) | x = 0",
            "!(P(x) & Q(x)) -> R(x)",
            "x'' = y' & succ(0) = 1",
        ];
        for s in samples {
            let f = parse_formula(s).unwrap();
            let printed = f.to_string();
            let g = parse_formula(&printed)
                .unwrap_or_else(|e| panic!("reparse of `{printed}` failed: {e}"));
            assert_eq!(f, g, "roundtrip failed for `{s}` printed as `{printed}`");
        }
    }
}
