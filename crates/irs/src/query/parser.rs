//! Hand-written recursive-descent parser for the IRS query syntax.

use super::QueryNode;
use crate::error::{IrsError, Result};

/// Deepest operator nesting a query may have: `expr` and `operator`
/// recurse into each other once per level, so a deeper text is refused
/// with [`IrsError::QueryParse`] instead of exhausting the stack.
pub const MAX_QUERY_DEPTH: usize = 128;

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    /// Operators open around the current position.
    depth: usize,
}

/// Parse an IRS query string into a [`QueryNode`].
///
/// A top-level list of more than one expression becomes an implicit
/// `#sum(...)`, matching INQUERY's treatment of bag-of-words queries.
/// Operators nest at most [`MAX_QUERY_DEPTH`] deep.
///
/// ```
/// use irs::query::parse_query;
/// let q = parse_query("#and(WWW NII)").unwrap();
/// assert_eq!(q.to_string(), "#and(www nii)");
/// ```
pub fn parse_query(input: &str) -> Result<QueryNode> {
    let mut p = Parser {
        input,
        pos: 0,
        depth: 0,
    };
    let mut exprs = Vec::new();
    p.skip_ws();
    while !p.at_end() {
        exprs.push(p.expr()?);
        p.skip_ws();
    }
    match exprs.pop() {
        None => Err(p.err("empty query")),
        Some(only) if exprs.is_empty() => Ok(only),
        Some(last) => {
            exprs.push(last);
            Ok(QueryNode::Sum(exprs))
        }
    }
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &str) -> IrsError {
        IrsError::QueryParse {
            reason: reason.to_string(),
            offset: self.pos,
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    fn expect(&mut self, c: char) -> Result<()> {
        if self.peek() == Some(c) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(&format!("expected {c:?}")))
        }
    }

    fn expr(&mut self) -> Result<QueryNode> {
        self.skip_ws();
        match self.peek() {
            Some('#') => self.operator(),
            Some('"') => self.phrase(),
            Some(c) if is_term_char(c) => self.term(),
            Some(c) => Err(self.err(&format!("unexpected character {c:?}"))),
            None => Err(self.err("unexpected end of query")),
        }
    }

    fn term(&mut self) -> Result<QueryNode> {
        let word = self.word()?;
        Ok(QueryNode::Term(word))
    }

    fn word(&mut self) -> Result<String> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if is_term_char(c)) {
            self.bump();
        }
        if self.pos == start {
            return Err(self.err("expected a term"));
        }
        // Terms are stored lowercased; the index analyzer applies stemming
        // at evaluation time.
        Ok(self.input[start..self.pos].to_lowercase())
    }

    fn phrase(&mut self) -> Result<QueryNode> {
        self.expect('"')?;
        let mut terms = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some('"') => {
                    self.bump();
                    break;
                }
                Some(c) if is_term_char(c) => terms.push(self.word()?),
                Some(c) => return Err(self.err(&format!("unexpected {c:?} in phrase"))),
                None => return Err(self.err("unterminated phrase")),
            }
        }
        if terms.is_empty() {
            return Err(self.err("empty phrase"));
        }
        Ok(QueryNode::Phrase(terms))
    }

    fn operator(&mut self) -> Result<QueryNode> {
        if self.depth == MAX_QUERY_DEPTH {
            return Err(self.err(&format!("operators nested deeper than {MAX_QUERY_DEPTH}")));
        }
        self.depth += 1;
        let node = self.operator_body();
        self.depth -= 1;
        node
    }

    fn operator_body(&mut self) -> Result<QueryNode> {
        self.expect('#')?;
        let name_start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphabetic()) {
            self.bump();
        }
        let name = self.input[name_start..self.pos].to_lowercase();
        // `#near/N` carries its window before the parenthesis.
        let mut window: Option<u32> = None;
        if name == "near" {
            self.expect('/')?;
            let num_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
            let w: u32 = self.input[num_start..self.pos]
                .parse()
                .map_err(|_| self.err("expected a window size after #near/"))?;
            if w == 0 {
                return Err(self.err("#near window must be at least 1"));
            }
            window = Some(w);
        }
        self.skip_ws();
        self.expect('(')?;
        let node = match name.as_str() {
            "and" => QueryNode::And(self.expr_list()?),
            "or" => QueryNode::Or(self.expr_list()?),
            "sum" => QueryNode::Sum(self.expr_list()?),
            "max" => QueryNode::Max(self.expr_list()?),
            "not" => {
                let inner = self.expr()?;
                self.skip_ws();
                QueryNode::Not(Box::new(inner))
            }
            "wsum" => QueryNode::WSum(self.weighted_list()?),
            "phrase" => {
                let terms = self.word_list()?;
                if terms.is_empty() {
                    return Err(self.err("empty #phrase"));
                }
                QueryNode::Phrase(terms)
            }
            "near" => {
                let terms = self.word_list()?;
                if terms.len() < 2 {
                    return Err(self.err("#near requires at least two terms"));
                }
                QueryNode::Near {
                    window: window
                        .ok_or_else(|| self.err("#near requires a /window before '('"))?,
                    terms,
                }
            }
            other => return Err(self.err(&format!("unknown operator #{other}"))),
        };
        self.skip_ws();
        self.expect(')')?;
        Ok(node)
    }

    fn word_list(&mut self) -> Result<Vec<String>> {
        let mut terms = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(')') | None => break,
                _ => terms.push(self.word()?),
            }
        }
        Ok(terms)
    }

    fn expr_list(&mut self) -> Result<Vec<QueryNode>> {
        let mut out = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(')') | None => break,
                _ => out.push(self.expr()?),
            }
        }
        if out.is_empty() {
            return Err(self.err("operator requires at least one argument"));
        }
        Ok(out)
    }

    fn weighted_list(&mut self) -> Result<Vec<(f64, QueryNode)>> {
        let mut out = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(')') | None => break,
                _ => {
                    let w = self.number()?;
                    let e = self.expr()?;
                    out.push((w, e));
                }
            }
        }
        if out.is_empty() {
            return Err(self.err("#wsum requires weight/expression pairs"));
        }
        Ok(out)
    }

    fn number(&mut self) -> Result<f64> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == '.' || c == '-') {
            self.bump();
        }
        self.input[start..self.pos]
            .parse::<f64>()
            .map_err(|_| self.err("expected a numeric weight"))
    }
}

fn is_term_char(c: char) -> bool {
    c.is_alphanumeric() || c == '-' || c == '\'' || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_term() {
        assert_eq!(parse_query("WWW").unwrap(), QueryNode::Term("www".into()));
    }

    #[test]
    fn bag_of_words_becomes_sum() {
        let q = parse_query("www nii internet").unwrap();
        match q {
            QueryNode::Sum(cs) => assert_eq!(cs.len(), 3),
            other => panic!("expected Sum, got {other:?}"),
        }
    }

    #[test]
    fn nested_operators() {
        let q = parse_query("#and(www #or(nii highway) #not(telnet))").unwrap();
        assert_eq!(q.to_string(), "#and(www #or(nii highway) #not(telnet))");
    }

    #[test]
    fn quoted_and_hash_phrase_are_equivalent() {
        let a = parse_query("\"information retrieval\"").unwrap();
        let b = parse_query("#phrase(information retrieval)").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn wsum_pairs() {
        let q = parse_query("#wsum(2 www 1.5 nii)").unwrap();
        match q {
            QueryNode::WSum(ws) => {
                assert_eq!(ws.len(), 2);
                assert_eq!(ws[0].0, 2.0);
                assert_eq!(ws[1].0, 1.5);
            }
            other => panic!("expected WSum, got {other:?}"),
        }
    }

    #[test]
    fn near_operator_parses_with_window() {
        let q = parse_query("#near/3(information retrieval)").unwrap();
        match &q {
            QueryNode::Near { window, terms } => {
                assert_eq!(*window, 3);
                assert_eq!(
                    terms,
                    &vec!["information".to_string(), "retrieval".to_string()]
                );
            }
            other => panic!("expected Near, got {other:?}"),
        }
        assert_eq!(q.to_string(), "#near/3(information retrieval)");
        // Round trip.
        assert_eq!(parse_query(&q.to_string()).unwrap(), q);
    }

    #[test]
    fn near_errors() {
        assert!(parse_query("#near(a b)").is_err(), "missing window");
        assert!(parse_query("#near/0(a b)").is_err(), "zero window");
        assert!(parse_query("#near/2(a)").is_err(), "single term");
        assert!(parse_query("#near/x(a b)").is_err(), "non-numeric window");
    }

    #[test]
    fn near_nests_in_operators() {
        let q = parse_query("#and(#near/5(www nii) telnet)").unwrap();
        assert_eq!(q.depth(), 2);
        assert_eq!(q.terms(), vec!["www", "nii", "telnet"]);
    }

    #[test]
    fn errors_carry_offsets() {
        let e = parse_query("#and(www").unwrap_err();
        match e {
            IrsError::QueryParse { offset, .. } => assert_eq!(offset, 8),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(parse_query("").is_err());
        assert!(parse_query("#bogus(x)").is_err());
        assert!(parse_query("\"unterminated").is_err());
        assert!(parse_query("#wsum(x y)").is_err());
        assert!(parse_query("#and()").is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_query_depth() {
        let nested = |depth: usize| format!("{}www{}", "#and(".repeat(depth), ")".repeat(depth));
        // `depth` counts the term as a level of its own.
        assert_eq!(
            parse_query(&nested(MAX_QUERY_DEPTH)).unwrap().depth(),
            MAX_QUERY_DEPTH + 1
        );
        // Refused at the operator one level too deep, wherever the text
        // would have ended.
        let too_deep = MAX_QUERY_DEPTH * "#and(".len();
        for text in [nested(MAX_QUERY_DEPTH + 1), "#and(".repeat(20_000)] {
            match parse_query(&text) {
                Err(IrsError::QueryParse { offset, .. }) => assert_eq!(offset, too_deep),
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
        // Depth counts open operators, not operators seen.
        let wide = format!("#sum({})", nested(MAX_QUERY_DEPTH - 1).repeat(3));
        assert!(parse_query(&wide).is_ok());
    }

    #[test]
    fn display_output_reparses_to_same_ast() {
        let inputs = [
            "#and(www nii)",
            "#or(a #and(b c))",
            "#wsum(1 a 2 b)",
            "#max(a b c)",
            "#not(#or(a b))",
            "\"structured document handling\"",
        ];
        for s in inputs {
            let q1 = parse_query(s).unwrap();
            let q2 = parse_query(&q1.to_string()).unwrap();
            assert_eq!(q1, q2, "round trip of {s}");
        }
    }

    #[test]
    fn whitespace_is_insignificant() {
        let a = parse_query("#and( www    nii )").unwrap();
        let b = parse_query("#and(www nii)").unwrap();
        assert_eq!(a, b);
    }
}
