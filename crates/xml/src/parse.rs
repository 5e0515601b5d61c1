//! A small XML parser sufficient for round-tripping documents produced by
//! [`crate::serialize`]: elements, text, entity references, comments, and
//! processing instructions / XML declarations (ignored). Attributes are
//! rejected — the paper's data model has none (§2).

use crate::error::XmlError;
use crate::tree::{NodeId, XmlTree};

/// Deepest element nesting [`parse`] accepts. The parser recurses once per
/// level, so an unbounded depth would overflow the stack on hostile input;
/// the mediator's σ0 documents nest 39 levels at unfolding depth 32.
pub const MAX_DEPTH: usize = 256;

/// Parses an XML document into a tree. Elements nested deeper than
/// [`MAX_DEPTH`] are a syntax error, not a stack overflow.
pub fn parse(src: &str) -> Result<XmlTree, XmlError> {
    Parser {
        src: src.as_bytes(),
        pos: 0,
        depth: 0,
    }
    .document()
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    /// Elements currently open, the root included.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> XmlError {
        XmlError::XmlSyntax {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn skip_misc(&mut self) {
        loop {
            while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.src[self.pos..].starts_with(b"<!--") {
                match self.src[self.pos..].windows(3).position(|w| w == b"-->") {
                    Some(off) => self.pos += off + 3,
                    None => self.pos = self.src.len(),
                }
            } else if self.src[self.pos..].starts_with(b"<?") {
                match self.src[self.pos..].windows(2).position(|w| w == b"?>") {
                    Some(off) => self.pos += off + 2,
                    None => self.pos = self.src.len(),
                }
            } else {
                return;
            }
        }
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while self.pos < self.src.len() {
            let b = self.src[self.pos];
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected an element name"));
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    fn document(&mut self) -> Result<XmlTree, XmlError> {
        self.skip_misc();
        if !self.src[self.pos..].starts_with(b"<") {
            return Err(self.err("expected root element"));
        }
        self.pos += 1;
        let tag = self.name()?;
        let mut tree = XmlTree::new(tag.clone());
        let root = tree.root();
        self.finish_open_tag(&mut tree, root, &tag)?;
        self.skip_misc();
        if self.pos < self.src.len() {
            return Err(self.err("trailing content after root element"));
        }
        Ok(tree)
    }

    /// Called just after `<name` has been consumed; parses `/>` or
    /// `>...</name>` and fills in the children of `node`.
    fn finish_open_tag(
        &mut self,
        tree: &mut XmlTree,
        node: NodeId,
        tag: &str,
    ) -> Result<(), XmlError> {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
        if self.src[self.pos..].starts_with(b"/>") {
            self.pos += 2;
            return Ok(());
        }
        if !self.src[self.pos..].starts_with(b">") {
            return Err(self.err(format!(
                "malformed start tag for `{tag}` (attributes are not supported)"
            )));
        }
        self.pos += 1;
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("elements nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.content(tree, node)?;
        self.depth -= 1;
        // Closing tag.
        if !self.src[self.pos..].starts_with(b"</") {
            return Err(self.err(format!("expected `</{tag}>`")));
        }
        self.pos += 2;
        let close = self.name()?;
        if close != tag {
            return Err(self.err(format!("mismatched close tag `{close}` for `{tag}`")));
        }
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
        if !self.src[self.pos..].starts_with(b">") {
            return Err(self.err("expected `>`"));
        }
        self.pos += 1;
        Ok(())
    }

    fn content(&mut self, tree: &mut XmlTree, parent: NodeId) -> Result<(), XmlError> {
        let mut text = String::new();
        loop {
            if self.pos >= self.src.len() {
                return Err(self.err("unexpected end of input inside element"));
            }
            let b = self.src[self.pos];
            if b == b'<' {
                if self.src[self.pos..].starts_with(b"<!--") {
                    self.flush_text(tree, parent, &mut text);
                    match self.src[self.pos..].windows(3).position(|w| w == b"-->") {
                        Some(off) => self.pos += off + 3,
                        None => return Err(self.err("unterminated comment")),
                    }
                } else if self.src[self.pos..].starts_with(b"</") {
                    self.flush_text(tree, parent, &mut text);
                    return Ok(());
                } else {
                    self.flush_text(tree, parent, &mut text);
                    self.pos += 1;
                    let tag = self.name()?;
                    let child = tree.add_element(parent, tag.clone());
                    self.finish_open_tag(tree, child, &tag)?;
                }
            } else if b == b'&' {
                text.push(self.entity()?);
            } else {
                // Accumulate raw text bytes (UTF-8 passes through unchanged).
                let start = self.pos;
                while self.pos < self.src.len()
                    && self.src[self.pos] != b'<'
                    && self.src[self.pos] != b'&'
                {
                    self.pos += 1;
                }
                text.push_str(&String::from_utf8_lossy(&self.src[start..self.pos]));
            }
        }
    }

    /// Emits accumulated text as a text node if it contains any
    /// non-whitespace character; whitespace-only runs between elements are
    /// treated as formatting and dropped.
    fn flush_text(&mut self, tree: &mut XmlTree, parent: NodeId, text: &mut String) {
        if !text.is_empty() {
            if text.chars().any(|c| !c.is_whitespace()) {
                tree.add_text(parent, std::mem::take(text));
            } else {
                text.clear();
            }
        }
    }

    fn entity(&mut self) -> Result<char, XmlError> {
        let rest = &self.src[self.pos..];
        for (lit, ch) in [
            (&b"&amp;"[..], '&'),
            (&b"&lt;"[..], '<'),
            (&b"&gt;"[..], '>'),
            (&b"&quot;"[..], '"'),
            (&b"&apos;"[..], '\''),
        ] {
            if rest.starts_with(lit) {
                self.pos += lit.len();
                return Ok(ch);
            }
        }
        Err(self.err("unknown entity reference"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::{to_pretty_string, to_string};

    #[test]
    fn parse_simple_document() {
        let t = parse("<report><patient><SSN>123</SSN></patient></report>").unwrap();
        assert_eq!(t.tag(t.root()), Some("report"));
        let p = t.children(t.root())[0];
        assert_eq!(t.subelement_value(p, "SSN").as_deref(), Some("123"));
    }

    #[test]
    fn parse_self_closing_and_entities() {
        let t = parse("<a><b/>x &amp; y &lt;z&gt;</a>").unwrap();
        assert_eq!(t.children(t.root()).len(), 2);
        assert_eq!(t.text(t.children(t.root())[1]), Some("x & y <z>"));
    }

    #[test]
    fn parse_skips_declaration_and_comments() {
        let t = parse("<?xml version=\"1.0\"?><!-- hi --><a><!-- inner --><b/></a>").unwrap();
        assert_eq!(t.children(t.root()).len(), 1);
    }

    #[test]
    fn parse_rejects_mismatched_tags() {
        assert!(parse("<a><b></a></b>").is_err());
        assert!(parse("<a>").is_err());
        assert!(parse("<a/><b/>").is_err());
        assert!(parse("<a attr=\"x\"/>").is_err());
    }

    /// Runs on the default test-thread stack: input far deeper than the cap
    /// must come back as an error instead of overflowing the stack.
    #[test]
    fn nesting_past_the_depth_cap_is_an_error_not_a_stack_overflow() {
        let nested = |levels: usize| format!("{}{}", "<a>".repeat(levels), "</a>".repeat(levels));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        for text in [nested(MAX_DEPTH + 1), "<a>".repeat(50_000)] {
            match parse(&text) {
                Err(XmlError::XmlSyntax { msg, .. }) => {
                    assert!(msg.contains("nested deeper than 256 levels"), "{msg}")
                }
                other => panic!("expected a depth error, got {other:?}"),
            }
        }
    }

    #[test]
    fn round_trip_compact() {
        let src = "<report><patient><SSN>12&lt;3&amp;45</SSN><bill/></patient></report>";
        let t = parse(src).unwrap();
        assert_eq!(to_string(&t), src);
    }

    #[test]
    fn round_trip_pretty() {
        let mut t = XmlTree::new("r");
        let a = t.add_element(t.root(), "a");
        t.add_text(a, "v1");
        t.add_element(t.root(), "b");
        let pretty = to_pretty_string(&t);
        let parsed = parse(&pretty).unwrap();
        assert_eq!(parsed, t);
    }
}
