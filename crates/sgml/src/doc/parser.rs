//! Parser for SGML document instances.
//!
//! The subset requires explicit start/end tags (no tag minimisation —
//! the paper's MMF documents are tool-generated and fully tagged),
//! supports attributes with quoted values, character entities
//! (`&amp; &lt; &gt; &quot; &apos;`), and comments. A leading
//! `<!DOCTYPE …>` line is tolerated and skipped.

use crate::doc::tree::{DocTree, NodeId};
use crate::error::{Result, SgmlError};
use crate::MAX_DEPTH;

/// Parse an SGML document into a [`DocTree`]. Elements nest at most
/// [`MAX_DEPTH`] deep.
///
/// ```
/// use sgml::parse_document;
/// let t = parse_document("<DOC><PARA>Telnet is a protocol</PARA></DOC>").unwrap();
/// let root = t.root().unwrap();
/// assert_eq!(t.node(root).name(), Some("DOC"));
/// ```
pub fn parse_document(input: &str) -> Result<DocTree> {
    let mut p = Parser {
        input,
        pos: 0,
        depth: 0,
    };
    let mut tree = DocTree::new();

    p.skip_ws_comments_doctype()?;
    if p.peek() != Some('<') {
        return Err(p.err("document must start with a root element"));
    }
    let root = p.start_tag(&mut tree, None)?;
    p.content(&mut tree, root)?;
    p.skip_ws_comments_doctype()?;
    if !p.at_end() {
        return Err(p.err("content after the root element"));
    }
    Ok(tree)
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    /// Elements open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &str) -> SgmlError {
        SgmlError::DocParse {
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

    fn skip_ws_comments_doctype(&mut self) -> Result<()> {
        loop {
            self.skip_ws();
            if self.rest().starts_with("<!--") {
                match self.rest().find("-->") {
                    Some(end) => self.pos += end + 3,
                    None => return Err(self.err("unterminated comment")),
                }
            } else if self.rest().starts_with("<!DOCTYPE") || self.rest().starts_with("<!doctype") {
                match self.rest().find('>') {
                    Some(end) => self.pos += end + 1,
                    None => return Err(self.err("unterminated DOCTYPE")),
                }
            } else {
                return Ok(());
            }
        }
    }

    fn name(&mut self) -> Result<String> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || c == '-' || c == '.' || c == '_')
        {
            self.bump();
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(self.input[start..self.pos].to_string())
    }

    /// Parse `<NAME attr="v" …>` (the caller saw `<`). Returns the new
    /// element's id.
    fn start_tag(&mut self, tree: &mut DocTree, parent: Option<NodeId>) -> Result<NodeId> {
        debug_assert_eq!(self.peek(), Some('<'));
        self.bump();
        let name = self.name()?;
        let mut attributes = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some('>') => {
                    self.bump();
                    break;
                }
                Some(c) if c.is_alphanumeric() || c == '_' => {
                    let att = self.name()?;
                    self.skip_ws();
                    if self.peek() != Some('=') {
                        return Err(self.err("expected '=' after attribute name"));
                    }
                    self.bump();
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(q @ ('"' | '\'')) => q,
                        _ => return Err(self.err("expected a quoted attribute value")),
                    };
                    self.bump();
                    let start = self.pos;
                    while self.peek() != Some(quote) {
                        if self.bump().is_none() {
                            return Err(self.err("unterminated attribute value"));
                        }
                    }
                    let value = decode_entities(&self.input[start..self.pos]);
                    self.bump();
                    attributes.push((att.to_uppercase(), value));
                }
                _ => return Err(self.err("malformed start tag")),
            }
        }
        Ok(tree.add_element(parent, &name, attributes))
    }

    /// Parse the content of `element` up to and including its end tag.
    fn content(&mut self, tree: &mut DocTree, element: NodeId) -> Result<()> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("elements nested deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let mut text = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unexpected end of input inside element")),
                Some('<') => {
                    if !text.trim().is_empty() {
                        tree.add_text(element, decode_entities(text.trim()).as_str());
                    }
                    text.clear();
                    if self.rest().starts_with("<!--") {
                        match self.rest().find("-->") {
                            Some(end) => self.pos += end + 3,
                            None => return Err(self.err("unterminated comment")),
                        }
                        continue;
                    }
                    if self.rest().starts_with("</") {
                        self.pos += 2;
                        let name = self.name()?.to_uppercase();
                        self.skip_ws();
                        if self.peek() != Some('>') {
                            return Err(self.err("malformed end tag"));
                        }
                        self.bump();
                        let open_name = tree
                            .node(element)
                            .name()
                            .expect("content() is called on elements")
                            .to_string();
                        if name != open_name {
                            return Err(self
                                .err(&format!("end tag </{name}> does not match <{open_name}>")));
                        }
                        self.depth -= 1;
                        return Ok(());
                    }
                    let child = self.start_tag(tree, Some(element))?;
                    self.content(tree, child)?;
                }
                Some(_) => {
                    text.push(self.bump().expect("peeked"));
                }
            }
        }
    }
}

fn decode_entities(t: &str) -> String {
    t.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_structure() {
        let t = parse_document(
            "<MMFDOC><DOCTITLE>Telnet</DOCTITLE><PARA>Telnet is a protocol for remote work</PARA>\
             <PARA>Telnet enables sessions</PARA></MMFDOC>",
        )
        .unwrap();
        let root = t.root().unwrap();
        assert_eq!(t.node(root).name(), Some("MMFDOC"));
        assert_eq!(t.node(root).children.len(), 3);
        assert_eq!(
            t.subtree_text(root),
            "Telnet Telnet is a protocol for remote work Telnet enables sessions"
        );
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}x{}", "<A>".repeat(depth), "</A>".repeat(depth));
        assert!(parse_document(&nested(MAX_DEPTH)).is_ok());
        for depth in [MAX_DEPTH + 1, 100_000] {
            match parse_document(&nested(depth)) {
                Err(SgmlError::DocParse { reason, offset }) => {
                    assert_eq!(offset, (MAX_DEPTH + 1) * "<A>".len());
                    assert!(reason.contains("nested deeper than 128"), "{reason}");
                }
                other => panic!("depth {depth}: {other:?}"),
            }
        }
    }

    #[test]
    fn attributes_and_entities() {
        let t = parse_document("<DOC YEAR=\"1994\" lang='de'><P>a &amp; b &lt;c&gt;</P></DOC>")
            .unwrap();
        let root = t.root().unwrap();
        assert_eq!(t.node(root).attribute("YEAR"), Some("1994"));
        assert_eq!(t.node(root).attribute("LANG"), Some("de"));
        let p = t.node(root).children[0];
        assert_eq!(t.subtree_text(p), "a & b <c>");
    }

    #[test]
    fn doctype_and_comments_skipped() {
        let t = parse_document(
            "<!DOCTYPE MMFDOC SYSTEM \"mmf.dtd\">\n<!-- issue 7 -->\n<MMFDOC><PARA>x</PARA></MMFDOC>\n<!-- end -->",
        )
        .unwrap();
        assert_eq!(t.node(t.root().unwrap()).name(), Some("MMFDOC"));
    }

    #[test]
    fn mismatched_tags_error() {
        let e = parse_document("<A><B>x</A></B>").unwrap_err();
        assert!(matches!(e, SgmlError::DocParse { .. }));
        assert!(e.to_string().contains("</A>"));
    }

    #[test]
    fn truncation_errors() {
        assert!(parse_document("<A><B>x").is_err());
        assert!(parse_document("<A attr=>x</A>").is_err());
        assert!(parse_document("<A attr=\"v>x</A>").is_err());
        assert!(parse_document("").is_err());
        assert!(parse_document("just text").is_err());
        assert!(parse_document("<A>x</A><B>y</B>").is_err(), "two roots");
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let t = parse_document("<A>\n  <B>x</B>\n  </A>").unwrap();
        let root = t.root().unwrap();
        assert_eq!(t.node(root).children.len(), 1);
    }

    #[test]
    fn round_trip_parse_serialize_parse() {
        let src = "<DOC YEAR=\"1994\"><TITLE>Telnet</TITLE><PARA>a &amp; b</PARA></DOC>";
        let t1 = parse_document(src).unwrap();
        let serialized = t1.serialize(t1.root().unwrap());
        let t2 = parse_document(&serialized).unwrap();
        assert_eq!(t1, t2);
    }
}
