//! Recursive-descent parser for VQL.

use crate::error::{DbError, Result};
use crate::query::ast::{CmpOp, Expr, Query};
use crate::query::lexer::{lex, Spanned, Tok};
use crate::value::Value;

/// Deepest nesting a query may have. Each parenthesised predicate,
/// method or aggregate argument list and `NOT` opens one level, and the
/// parser recurses once per level, so a deeper text is refused with
/// [`DbError::QueryParse`] instead of exhausting the stack.
pub const MAX_QUERY_DEPTH: usize = 128;

/// Parse a VQL query string. Nesting is capped at [`MAX_QUERY_DEPTH`].
pub fn parse(input: &str) -> Result<Query> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        input_len: input.len(),
        depth: 0,
    };
    let q = p.query()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing input after query"));
    }
    Ok(q)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    input_len: usize,
    /// Levels open around the current position.
    depth: usize,
}

impl Parser {
    fn err(&self, reason: &str) -> DbError {
        let offset = self
            .tokens
            .get(self.pos)
            .map(|s| s.offset)
            .unwrap_or(self.input_len);
        DbError::QueryParse {
            reason: reason.to_string(),
            offset,
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|s| &s.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos)?.tok.clone();
        self.pos += 1;
        Some(t)
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {what}")))
        }
    }

    /// Run `f` one nesting level deeper; the level past
    /// [`MAX_QUERY_DEPTH`] is refused at the token that would open it.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_QUERY_DEPTH {
            return Err(self.err(&format!("nested deeper than {MAX_QUERY_DEPTH}")));
        }
        self.depth += 1;
        let parsed = f(self);
        self.depth -= 1;
        parsed
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err(&format!("expected {what}")))
            }
        }
    }

    fn query(&mut self) -> Result<Query> {
        self.expect(&Tok::Access, "ACCESS")?;
        let mut select = vec![self.expr()?];
        while self.eat(&Tok::Comma) {
            select.push(self.expr()?);
        }
        self.expect(&Tok::From, "FROM")?;
        let mut from = vec![self.binding()?];
        while self.eat(&Tok::Comma) {
            from.push(self.binding()?);
        }
        let where_clause = if self.eat(&Tok::Where) {
            Some(self.pred()?)
        } else {
            None
        };
        let order_by = if self.eat(&Tok::Order) {
            self.expect(&Tok::By, "BY after ORDER")?;
            let e = self.expr()?;
            let desc = if self.eat(&Tok::Desc) {
                true
            } else {
                self.eat(&Tok::Asc);
                false
            };
            Some((e, desc))
        } else {
            None
        };
        let limit = if self.eat(&Tok::Limit) {
            match self.bump() {
                Some(Tok::Int(n)) if n >= 0 => Some(n as usize),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("LIMIT requires a non-negative integer"));
                }
            }
        } else {
            None
        };
        Ok(Query {
            select,
            from,
            where_clause,
            order_by,
            limit,
        })
    }

    fn binding(&mut self) -> Result<(String, String)> {
        let var = self.ident("a variable name")?;
        self.expect(&Tok::In, "IN")?;
        let class = self.ident("a class name")?;
        Ok((var, class))
    }

    /// pred := and_pred (OR and_pred)*
    fn pred(&mut self) -> Result<Expr> {
        let mut terms = vec![self.and_pred()?];
        while self.eat(&Tok::Or) {
            terms.push(self.and_pred()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("len checked")
        } else {
            Expr::Or(terms)
        })
    }

    /// and_pred := not_pred (AND not_pred)*
    fn and_pred(&mut self) -> Result<Expr> {
        let mut terms = vec![self.not_pred()?];
        while self.eat(&Tok::And) {
            terms.push(self.not_pred()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("len checked")
        } else {
            Expr::And(terms)
        })
    }

    /// not_pred := NOT not_pred | comparison
    fn not_pred(&mut self) -> Result<Expr> {
        if self.peek() == Some(&Tok::Not) {
            self.nested(|p| {
                p.pos += 1;
                Ok(Expr::Not(Box::new(p.not_pred()?)))
            })
        } else {
            self.comparison()
        }
    }

    /// comparison := expr (cmpop expr)?
    fn comparison(&mut self) -> Result<Expr> {
        let lhs = self.expr()?;
        let op = match self.peek() {
            Some(Tok::Eq) => CmpOp::Eq,
            Some(Tok::Ne) => CmpOp::Ne,
            Some(Tok::Lt) => CmpOp::Lt,
            Some(Tok::Le) => CmpOp::Le,
            Some(Tok::Gt) => CmpOp::Gt,
            Some(Tok::Ge) => CmpOp::Ge,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.expr()?;
        Ok(Expr::Cmp {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    /// expr := primary ( '->' ident '(' args ')' )*
    fn expr(&mut self) -> Result<Expr> {
        let mut e = self.primary()?;
        while self.eat(&Tok::Arrow) {
            let method = self.ident("a method name")?;
            let args = self.nested(|p| {
                p.expect(&Tok::LParen, "'(' after method name")?;
                let mut args = Vec::new();
                if p.peek() != Some(&Tok::RParen) {
                    args.push(p.expr()?);
                    while p.eat(&Tok::Comma) {
                        args.push(p.expr()?);
                    }
                }
                p.expect(&Tok::RParen, "')'")?;
                Ok(args)
            })?;
            e = Expr::MethodCall {
                recv: Box::new(e),
                method,
                args,
            };
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().cloned() {
            Some(Tok::LParen) => self.nested(|p| {
                p.pos += 1;
                let e = p.pred()?;
                p.expect(&Tok::RParen, "')'")?;
                Ok(e)
            }),
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                // `NAME(expr)` is an aggregate call (COUNT/SUM/AVG/MIN/MAX).
                if self.peek() == Some(&Tok::LParen) {
                    let Some(func) = crate::query::ast::AggFunc::from_name(&name) else {
                        return Err(self.err(&format!("unknown aggregate function {name}")));
                    };
                    let arg = self.nested(|p| {
                        p.pos += 1;
                        let arg = p.expr()?;
                        p.expect(&Tok::RParen, "')' after aggregate argument")?;
                        Ok(arg)
                    })?;
                    return Ok(Expr::Aggregate {
                        func,
                        arg: Box::new(arg),
                    });
                }
                Ok(Expr::Var(name))
            }
            Some(Tok::Int(i)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Int(i)))
            }
            Some(Tok::Real(r)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Real(r)))
            }
            Some(Tok::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Str(s)))
            }
            Some(Tok::Null) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Null))
            }
            Some(Tok::True) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Bool(true)))
            }
            Some(Tok::False) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Bool(false)))
            }
            _ => Err(self.err("expected an expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_query() {
        let q = parse("ACCESS p FROM p IN PARA").unwrap();
        assert_eq!(q.select, vec![Expr::Var("p".into())]);
        assert_eq!(q.from, vec![("p".into(), "PARA".into())]);
        assert!(q.where_clause.is_none());
    }

    #[test]
    fn paper_first_example_parses() {
        // Section 4.4, first example query.
        let q = parse(
            "ACCESS p, p -> length() FROM p IN PARA \
             WHERE p -> getIRSValue (collPara, 'WWW') > 0.6",
        )
        .unwrap();
        assert_eq!(q.select.len(), 2);
        match &q.where_clause {
            Some(Expr::Cmp {
                op: CmpOp::Gt,
                lhs,
                rhs,
            }) => {
                assert!(matches!(**lhs, Expr::MethodCall { .. }));
                assert_eq!(**rhs, Expr::Literal(Value::Real(0.6)));
            }
            other => panic!("unexpected where: {other:?}"),
        }
    }

    #[test]
    fn paper_second_example_parses() {
        // Section 4.4, second example query (multi-variable join).
        let q = parse(
            "ACCESS d -> getAttributeValue ('TITLE') \
             FROM d IN MMFDOC, p1 IN PARA, p2 IN PARA \
             WHERE d -> getAttributeValue ('YEAR') = '1994' AND \
             p1 -> getNext() == p2 AND \
             p1 -> getContaining ('MMFDOC') == d AND \
             p1 -> getIRSValue (collPara, 'WWW') > 0.4 AND \
             p2 -> getIRSValue (collPara, 'NII') > 0.4",
        )
        .unwrap();
        assert_eq!(q.from.len(), 3);
        match &q.where_clause {
            Some(Expr::And(terms)) => assert_eq!(terms.len(), 5),
            other => panic!("unexpected where: {other:?}"),
        }
    }

    #[test]
    fn method_chaining() {
        let q = parse("ACCESS p -> getParent() -> length() FROM p IN PARA").unwrap();
        match &q.select[0] {
            Expr::MethodCall { recv, method, .. } => {
                assert_eq!(method, "length");
                assert!(matches!(**recv, Expr::MethodCall { .. }));
            }
            other => panic!("unexpected select: {other:?}"),
        }
    }

    #[test]
    fn boolean_precedence_and_binds_tighter_than_or() {
        let q = parse("ACCESS p FROM p IN A WHERE p = 1 OR p = 2 AND p = 3").unwrap();
        match q.where_clause.unwrap() {
            Expr::Or(terms) => {
                assert_eq!(terms.len(), 2);
                assert!(matches!(terms[1], Expr::And(_)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn not_and_parentheses() {
        let q = parse("ACCESS p FROM p IN A WHERE NOT (p = 1 OR p = 2)").unwrap();
        assert!(matches!(q.where_clause.unwrap(), Expr::Not(_)));
    }

    #[test]
    fn null_and_boolean_literals() {
        let q = parse("ACCESS p FROM p IN A WHERE p -> getParent() != NULL AND TRUE").unwrap();
        assert!(q.where_clause.is_some());
    }

    #[test]
    fn errors_are_parse_errors() {
        for bad in [
            "",
            "ACCESS",
            "ACCESS p",
            "ACCESS p FROM",
            "ACCESS p FROM p",
            "ACCESS p FROM p IN",
            "ACCESS p FROM p IN A WHERE",
            "ACCESS p FROM p IN A trailing",
            "ACCESS p -> m( FROM p IN A",
        ] {
            assert!(
                matches!(parse(bad), Err(DbError::QueryParse { .. })),
                "{bad:?} should fail"
            );
        }
    }

    #[test]
    fn nesting_is_capped_at_max_query_depth() {
        const HEAD: &str = "ACCESS p FROM p IN PARA WHERE ";
        fn parens(depth: usize) -> String {
            format!("{HEAD}{}1 = 1{}", "(".repeat(depth), ")".repeat(depth))
        }
        fn nots(depth: usize) -> String {
            format!("{HEAD}{}p = p", "NOT ".repeat(depth))
        }
        fn calls(depth: usize) -> String {
            format!(
                "{HEAD}{}p{} > 0",
                "p -> m(".repeat(depth),
                ")".repeat(depth)
            )
        }
        for nested in [parens, nots, calls] {
            assert!(parse(&nested(MAX_QUERY_DEPTH)).is_ok());
        }
        // Refused at the token opening the level one too deep, wherever
        // the text would have ended.
        let refusals = [
            (parens(MAX_QUERY_DEPTH + 1), HEAD.len() + MAX_QUERY_DEPTH),
            (parens(100_000), HEAD.len() + MAX_QUERY_DEPTH),
            (nots(MAX_QUERY_DEPTH + 1), HEAD.len() + 4 * MAX_QUERY_DEPTH),
            (
                calls(MAX_QUERY_DEPTH + 1),
                HEAD.len() + 7 * MAX_QUERY_DEPTH + "p -> m".len(),
            ),
        ];
        for (text, offset) in refusals {
            match parse(&text) {
                Err(DbError::QueryParse { offset: at, .. }) => assert_eq!(at, offset),
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
        // Depth counts open levels, not levels seen.
        let level = &parens(MAX_QUERY_DEPTH)[HEAD.len()..];
        assert!(parse(&format!("{HEAD}{level} AND {level} AND {level}")).is_ok());
    }
}
