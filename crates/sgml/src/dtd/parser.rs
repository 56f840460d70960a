//! Parser for DTD text (a sequence of `<!ELEMENT …>` / `<!ATTLIST …>`
//! declarations; comments `<!-- … -->` are skipped).

use crate::dtd::model::{
    AttDecl, AttDefault, ContentSpec, Cp, CpKind, Dtd, ElementDecl, Occurrence,
};
use crate::error::{Result, SgmlError};
use crate::MAX_DEPTH;

/// Parse DTD text into a [`Dtd`]. Content-model groups nest at most
/// [`MAX_DEPTH`] deep.
///
/// ```
/// use sgml::parse_dtd;
/// let dtd = parse_dtd("<!ELEMENT DOC (TITLE, PARA+)> <!ELEMENT TITLE (#PCDATA)> <!ELEMENT PARA (#PCDATA)>").unwrap();
/// assert_eq!(dtd.len(), 3);
/// ```
pub fn parse_dtd(input: &str) -> Result<Dtd> {
    let mut p = Parser {
        input,
        pos: 0,
        depth: 0,
    };
    let mut dtd = Dtd::new();
    loop {
        p.skip_ws_and_comments()?;
        if p.at_end() {
            break;
        }
        if p.eat_str("<!ELEMENT") {
            let decl = p.element_decl()?;
            dtd.declare_element(decl);
        } else if p.eat_str("<!ATTLIST") {
            let (name, atts) = p.attlist_decl()?;
            dtd.declare_element(ElementDecl {
                name,
                content: ContentSpec::Any, // merged away if ELEMENT exists
                attributes: atts,
            });
        } else {
            return Err(p.err("expected <!ELEMENT or <!ATTLIST"));
        }
    }
    Ok(dtd)
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    /// Groups open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &str) -> SgmlError {
        SgmlError::DtdParse {
            reason: reason.to_string(),
            offset: self.pos,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
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

    fn skip_ws_and_comments(&mut self) -> Result<()> {
        loop {
            self.skip_ws();
            if self.rest().starts_with("<!--") {
                match self.rest().find("-->") {
                    Some(end) => self.pos += end + 3,
                    None => return Err(self.err("unterminated comment")),
                }
            } else {
                return Ok(());
            }
        }
    }

    fn eat_str(&mut self, s: &str) -> bool {
        if self.rest().starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect_char(&mut self, c: char) -> Result<()> {
        if self.peek() == Some(c) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(&format!("expected {c:?}")))
        }
    }

    fn name(&mut self) -> Result<String> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || c == '-' || c == '.' || c == '_')
        {
            self.bump();
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(self.input[start..self.pos].to_uppercase())
    }

    fn element_decl(&mut self) -> Result<ElementDecl> {
        let name = self.name()?;
        self.skip_ws();
        let content = if self.eat_str("EMPTY") {
            ContentSpec::Empty
        } else if self.eat_str("ANY") {
            ContentSpec::Any
        } else {
            ContentSpec::Model(self.group()?)
        };
        self.skip_ws();
        self.expect_char('>')?;
        Ok(ElementDecl {
            name,
            content,
            attributes: vec![],
        })
    }

    /// group := '(' cp (connector cp)* ')' occurrence?
    fn group(&mut self) -> Result<Cp> {
        self.skip_ws();
        self.expect_char('(')?;
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("groups nested deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let mut parts = vec![self.cp()?];
        self.skip_ws();
        let connector = match self.peek() {
            Some(',') => Some(','),
            Some('|') => Some('|'),
            _ => None,
        };
        if let Some(conn) = connector {
            while self.peek() == Some(conn) {
                self.bump();
                parts.push(self.cp()?);
                self.skip_ws();
            }
            // Mixing ',' and '|' at one level is an error in SGML too.
            if matches!(self.peek(), Some(',') | Some('|')) {
                return Err(self.err("cannot mix ',' and '|' in one group"));
            }
        }
        self.expect_char(')')?;
        self.depth -= 1;
        let occ = self.occurrence();
        let kind = if parts.len() == 1 {
            // A single-particle group keeps its inner kind but the group's
            // occurrence must compose with the inner one: (a?)* etc. The
            // simple, correct composition is to wrap when both have
            // indicators.
            let inner = parts.pop().expect("len checked");
            if occ == Occurrence::One {
                return Ok(inner);
            }
            if inner.occ == Occurrence::One {
                return Ok(Cp::new(inner.kind, occ));
            }
            CpKind::Seq(vec![inner])
        } else if connector == Some('|') {
            CpKind::Choice(parts)
        } else {
            CpKind::Seq(parts)
        };
        Ok(Cp::new(kind, occ))
    }

    /// cp := name occurrence? | '#PCDATA' | group
    fn cp(&mut self) -> Result<Cp> {
        self.skip_ws();
        if self.rest().starts_with('(') {
            return self.group();
        }
        if self.eat_str("#PCDATA") {
            let occ = self.occurrence();
            return Ok(Cp::new(CpKind::PcData, occ));
        }
        let name = self.name()?;
        let occ = self.occurrence();
        Ok(Cp::new(CpKind::Element(name), occ))
    }

    fn occurrence(&mut self) -> Occurrence {
        match self.peek() {
            Some('?') => {
                self.bump();
                Occurrence::Opt
            }
            Some('*') => {
                self.bump();
                Occurrence::Star
            }
            Some('+') => {
                self.bump();
                Occurrence::Plus
            }
            _ => Occurrence::One,
        }
    }

    fn attlist_decl(&mut self) -> Result<(String, Vec<AttDecl>)> {
        let element = self.name()?;
        let mut atts = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some('>') {
                self.bump();
                break;
            }
            let att_name = self.name()?;
            self.skip_ws();
            // Declared value: only CDATA (or a name-token group we skip).
            if !self.eat_str("CDATA") {
                if self.peek() == Some('(') {
                    // Enumerated type: skip to ')'.
                    match self.rest().find(')') {
                        Some(end) => self.pos += end + 1,
                        None => return Err(self.err("unterminated enumerated type")),
                    }
                } else {
                    // NUMBER, ID, NMTOKEN, … — accept and treat as CDATA.
                    self.name()?;
                }
            }
            self.skip_ws();
            let default = if self.eat_str("#REQUIRED") {
                AttDefault::Required
            } else if self.eat_str("#IMPLIED") {
                AttDefault::Implied
            } else if self.peek() == Some('"') || self.peek() == Some('\'') {
                let quote = self.bump().expect("peeked");
                let start = self.pos;
                while self.peek() != Some(quote) {
                    if self.bump().is_none() {
                        return Err(self.err("unterminated default value"));
                    }
                }
                let val = self.input[start..self.pos].to_string();
                self.bump();
                AttDefault::Value(val)
            } else {
                return Err(self.err("expected #REQUIRED, #IMPLIED or a quoted default"));
            };
            atts.push(AttDecl {
                name: att_name,
                default,
            });
        }
        Ok((element, atts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested =
            |depth: usize| format!("<!ELEMENT X {}A{}>", "(".repeat(depth), ")".repeat(depth));
        assert!(parse_dtd(&nested(MAX_DEPTH)).is_ok());
        for depth in [MAX_DEPTH + 1, 100_000] {
            match parse_dtd(&nested(depth)) {
                Err(SgmlError::DtdParse { reason, offset }) => {
                    assert_eq!(offset, "<!ELEMENT X ".len() + MAX_DEPTH + 1);
                    assert!(reason.contains("nested deeper than 128"), "{reason}");
                }
                other => panic!("depth {depth}: {other:?}"),
            }
        }
    }

    #[test]
    fn simple_sequence_model() {
        let dtd = parse_dtd("<!ELEMENT DOC (TITLE, PARA+)>").unwrap();
        let decl = dtd.element("DOC").unwrap();
        match &decl.content {
            ContentSpec::Model(cp) => match &cp.kind {
                CpKind::Seq(parts) => {
                    assert_eq!(parts.len(), 2);
                    assert_eq!(parts[0], Cp::elem("TITLE"));
                    assert_eq!(parts[1].occ, Occurrence::Plus);
                }
                other => panic!("expected Seq, got {other:?}"),
            },
            other => panic!("expected Model, got {other:?}"),
        }
    }

    #[test]
    fn choice_and_nesting() {
        let dtd = parse_dtd("<!ELEMENT SEC (TITLE, (PARA | FIG | SEC)*)>").unwrap();
        let decl = dtd.element("SEC").unwrap();
        let ContentSpec::Model(cp) = &decl.content else {
            panic!()
        };
        let CpKind::Seq(parts) = &cp.kind else {
            panic!()
        };
        assert_eq!(parts[1].occ, Occurrence::Star);
        assert!(matches!(parts[1].kind, CpKind::Choice(_)));
    }

    #[test]
    fn mixed_content() {
        let dtd = parse_dtd("<!ELEMENT PARA (#PCDATA | EMPH)*>").unwrap();
        let ContentSpec::Model(cp) = &dtd.element("PARA").unwrap().content else {
            panic!()
        };
        assert_eq!(cp.occ, Occurrence::Star);
        let CpKind::Choice(parts) = &cp.kind else {
            panic!()
        };
        assert!(matches!(parts[0].kind, CpKind::PcData));
    }

    #[test]
    fn empty_and_any() {
        let dtd = parse_dtd("<!ELEMENT BR EMPTY> <!ELEMENT X ANY>").unwrap();
        assert_eq!(dtd.element("BR").unwrap().content, ContentSpec::Empty);
        assert_eq!(dtd.element("X").unwrap().content, ContentSpec::Any);
    }

    #[test]
    fn attlist_variants() {
        let dtd = parse_dtd(
            "<!ELEMENT DOC ANY>\n\
             <!ATTLIST DOC year CDATA #REQUIRED \
                           lang CDATA #IMPLIED \
                           kind (a|b) \"a\" \
                           id ID #IMPLIED>",
        )
        .unwrap();
        let atts = &dtd.element("DOC").unwrap().attributes;
        assert_eq!(atts.len(), 4);
        assert_eq!(atts[0].default, AttDefault::Required);
        assert_eq!(atts[1].default, AttDefault::Implied);
        assert_eq!(atts[2].default, AttDefault::Value("a".into()));
    }

    #[test]
    fn comments_are_skipped() {
        let dtd = parse_dtd("<!-- the doc --> <!ELEMENT A ANY> <!-- tail -->").unwrap();
        assert_eq!(dtd.len(), 1);
    }

    #[test]
    fn single_particle_group_occurrence_composes() {
        let dtd = parse_dtd("<!ELEMENT A (B)+> <!ELEMENT C (B?)*>").unwrap();
        let ContentSpec::Model(cp) = &dtd.element("A").unwrap().content else {
            panic!()
        };
        assert_eq!(cp.kind, CpKind::Element("B".into()));
        assert_eq!(cp.occ, Occurrence::Plus);
        // (B?)* needs a wrapping group.
        let ContentSpec::Model(cp) = &dtd.element("C").unwrap().content else {
            panic!()
        };
        assert_eq!(cp.occ, Occurrence::Star);
        assert!(matches!(cp.kind, CpKind::Seq(_)));
    }

    #[test]
    fn errors() {
        assert!(parse_dtd("<!ELEMENT A (B,>").is_err());
        assert!(parse_dtd("<!BOGUS A>").is_err());
        assert!(
            parse_dtd("<!ELEMENT A (B | C, D)>").is_err(),
            "mixed connectors"
        );
        assert!(parse_dtd("<!-- unterminated").is_err());
        assert!(
            parse_dtd("<!ATTLIST A x CDATA>").is_err(),
            "missing default"
        );
    }

    #[test]
    fn names_are_uppercased() {
        let dtd = parse_dtd("<!ELEMENT para (#PCDATA)>").unwrap();
        assert!(dtd.element("PARA").is_some());
        assert_eq!(dtd.element_names(), &["PARA".to_string()]);
    }
}
