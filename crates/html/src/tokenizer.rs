//! A forgiving HTML tokenizer that borrows the page.
//!
//! The tokenizer converts a byte-exact `&str` into a flat stream of
//! [`Token`]s: start tags (with attributes), end tags, text, comments and
//! doctypes. It implements the subset of the WHATWG tokenizer state machine
//! that real-world manual pages exercise, with the same overriding rule:
//! **never fail**. Malformed markup degrades to text.
//!
//! Tokens borrow the input: a [`Token<'a>`] is slices of the page, and a
//! string is copied only when the token's value differs from its source
//! bytes. Tag and attribute names are owned only when ASCII case folding
//! changes them (`<DIV>`), and text and attribute values only when a
//! character reference decodes (`&lt;`, see [`entities::decode_cow`]).
//! Comments and doctypes are always borrowed. Manual pages are lower-case
//! markup with few entities, so almost every token is allocation-free.
//!
//! Raw-text elements (`<script>`, `<style>`) swallow their content up to
//! the matching close tag, so JavaScript in manual pages cannot confuse
//! element extraction.

use crate::entities;
use std::borrow::Cow;
use std::fmt;

/// A markup malformation the tokenizer or DOM builder recovered from.
///
/// Recovery itself is unchanged — the tokenizer still never fails — but
/// each recovery is now recorded with the byte offset it happened at, so
/// upper layers can surface "this page is damaged here" diagnostics
/// instead of silently absorbing the defect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkupDefect {
    pub kind: MarkupDefectKind,
    /// Byte offset into the page source where the defect starts.
    pub offset: usize,
}

/// The kinds of malformation the forgiving parser recovers from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MarkupDefectKind {
    /// `<!--` with no closing `-->`; the rest of the input was swallowed.
    UnterminatedComment,
    /// `<!` / `<!DOCTYPE` with no closing `>`.
    UnterminatedDoctype,
    /// A start or end tag cut off by end of input.
    UnterminatedTag,
    /// A quoted attribute value with no closing quote.
    UnterminatedAttrValue,
    /// An end tag with no matching open element (ignored).
    StrayEndTag { name: String },
    /// An element still open at end of input (closed implicitly).
    UnclosedElement { name: String },
    /// Nesting exceeded the depth guard; deeper elements were flattened
    /// into siblings of the element at the cap (recorded once per page).
    NestingTooDeep { name: String, depth: usize },
}

impl fmt::Display for MarkupDefectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarkupDefectKind::UnterminatedComment => f.write_str("unterminated comment"),
            MarkupDefectKind::UnterminatedDoctype => f.write_str("unterminated doctype"),
            MarkupDefectKind::UnterminatedTag => f.write_str("tag cut off by end of input"),
            MarkupDefectKind::UnterminatedAttrValue => f.write_str("unterminated attribute value"),
            MarkupDefectKind::StrayEndTag { name } => {
                write!(f, "stray end tag `</{name}>` with no open element")
            }
            MarkupDefectKind::UnclosedElement { name } => {
                write!(f, "unclosed element `<{name}>` at end of input")
            }
            MarkupDefectKind::NestingTooDeep { name, depth } => {
                write!(
                    f,
                    "element `<{name}>` nested {depth} levels deep; deeper structure flattened"
                )
            }
        }
    }
}

impl fmt::Display for MarkupDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.kind, self.offset)
    }
}

/// One lexical unit of an HTML document, borrowing from the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// `<name attr="value" …>`; `self_closing` records a trailing `/>`.
    /// Names are lower-cased, attribute values entity-decoded.
    StartTag {
        name: Cow<'a, str>,
        attrs: Vec<(Cow<'a, str>, Cow<'a, str>)>,
        self_closing: bool,
    },
    /// `</name>`, lower-cased.
    EndTag { name: Cow<'a, str> },
    /// A run of character data with entities already decoded (raw text
    /// inside `<script>`/`<style>` is passed through undecoded).
    Text(Cow<'a, str>),
    /// `<!-- … -->`; retained because some vendors hide anchors in comments.
    Comment(&'a str),
    /// `<!DOCTYPE …>` (content after the keyword, trimmed).
    Doctype(&'a str),
}

/// Streaming tokenizer over an input string.
///
/// ```
/// use nassim_html::tokenizer::{Token, Tokenizer};
/// let tokens: Vec<Token> = Tokenizer::new("<p class=x>hi</p>").collect();
/// assert_eq!(tokens.len(), 3);
/// ```
pub struct Tokenizer<'a> {
    input: &'a str,
    pos: usize,
    /// When set, we are inside a raw-text element and scan for its end tag.
    raw_text_end: Option<&'static str>,
    /// Malformations recovered from so far, in input order.
    defects: Vec<MarkupDefect>,
}

/// Elements whose content is raw text (no nested markup).
const RAW_TEXT_ELEMENTS: &[&str] = &["script", "style"];

impl<'a> Tokenizer<'a> {
    /// Create a tokenizer reading from `input`.
    pub fn new(input: &'a str) -> Self {
        Tokenizer {
            input,
            pos: 0,
            raw_text_end: None,
            defects: Vec::new(),
        }
    }

    /// Current byte offset into the input (the start of the next token).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Malformations recovered from so far.
    pub fn defects(&self) -> &[MarkupDefect] {
        &self.defects
    }

    /// Drain the recorded malformations, leaving the tokenizer usable.
    pub fn take_defects(&mut self) -> Vec<MarkupDefect> {
        std::mem::take(&mut self.defects)
    }

    /// Record a recovery made by a consumer of the token stream (the DOM
    /// builder reports stray/unclosed elements through the same channel).
    pub fn record_defect(&mut self, kind: MarkupDefectKind, offset: usize) {
        self.defects.push(MarkupDefect { kind, offset });
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    /// The input byte at `pos + ahead`, if any.
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.input.as_bytes().get(self.pos + ahead).copied()
    }

    /// Consume raw text up to (not including) `</name`, for raw-text elements.
    fn next_raw_text(&mut self, name: &str) -> Option<Token<'a>> {
        let rest = self.rest();
        let end = find_close_tag(rest, name).unwrap_or(rest.len());
        self.raw_text_end = None;
        if end == 0 {
            // Immediately at the close tag; fall through to normal tokenizing.
            return self.next_token();
        }
        self.pos += end;
        Some(Token::Text(Cow::Borrowed(&rest[..end])))
    }

    fn next_token(&mut self) -> Option<Token<'a>> {
        if self.pos >= self.input.len() {
            return None;
        }
        if let Some(name) = self.raw_text_end {
            return self.next_raw_text(name);
        }
        if self.peek(0) != Some(b'<') {
            return Some(self.consume_text());
        }
        match self.peek(1) {
            Some(b'!') if self.rest().starts_with("<!--") => Some(self.consume_comment()),
            Some(b'!') => Some(self.consume_doctype()),
            Some(b'/') => Some(self.consume_end_tag()),
            // The `<` opens a tag only when a tag name can begin after it;
            // otherwise it is literal text (e.g. "a < b").
            Some(c) if c.is_ascii_alphabetic() => Some(self.consume_start_tag()),
            _ => Some(self.consume_text()),
        }
    }

    fn consume_comment(&mut self) -> Token<'a> {
        let body_start = self.pos + 4;
        match self.input[body_start..].find("-->") {
            Some(end) => {
                self.pos = body_start + end + 3;
                Token::Comment(&self.input[body_start..body_start + end])
            }
            None => {
                // Unterminated comment: swallow to end of input.
                self.record_defect(MarkupDefectKind::UnterminatedComment, self.pos);
                self.pos = self.input.len();
                Token::Comment(&self.input[body_start..])
            }
        }
    }

    fn consume_doctype(&mut self) -> Token<'a> {
        let body_start = self.pos + 2;
        match self.input[body_start..].find('>') {
            Some(end) => {
                self.pos = body_start + end + 1;
                Token::Doctype(self.input[body_start..body_start + end].trim())
            }
            None => {
                self.record_defect(MarkupDefectKind::UnterminatedDoctype, self.pos);
                self.pos = self.input.len();
                Token::Doctype(self.input[body_start..].trim())
            }
        }
    }

    fn consume_end_tag(&mut self) -> Token<'a> {
        let tag_start = self.pos;
        let body_start = self.pos + 2;
        let rest = &self.input[body_start..];
        let end = rest.find('>').unwrap_or_else(|| {
            self.defects.push(MarkupDefect {
                kind: MarkupDefectKind::UnterminatedTag,
                offset: tag_start,
            });
            rest.len()
        });
        let name = ascii_lowercase(rest[..end].trim().trim_end_matches('/'));
        self.pos = body_start + end + if end < rest.len() { 1 } else { 0 };
        Token::EndTag { name }
    }

    fn consume_start_tag(&mut self) -> Token<'a> {
        let tag_start = self.pos;
        let rest = self.rest();
        let name_end = tag_name_end(rest);
        let name = ascii_lowercase(&rest[1..name_end]);
        let (attrs, self_closing, after) = parse_attrs(
            self.input,
            self.pos + name_end,
            tag_start,
            &mut self.defects,
        );
        self.pos = after;
        if !self_closing {
            // Remember to treat the following content as raw text.
            self.raw_text_end = RAW_TEXT_ELEMENTS.iter().find(|&&e| e == name).copied();
        }
        Token::StartTag {
            name,
            attrs,
            self_closing,
        }
    }

    fn consume_text(&mut self) -> Token<'a> {
        let rest = self.rest();
        let bytes = rest.as_bytes();
        // Text runs to the next '<' that opens markup, or end of input.
        let mut end = rest.len();
        let mut search_from = if rest.starts_with('<') { 1 } else { 0 };
        while let Some(off) = rest[search_from..].find('<') {
            let i = search_from + off;
            let opens_markup = matches!(
                bytes.get(i + 1),
                Some(&c) if c.is_ascii_alphabetic() || c == b'/' || c == b'!'
            );
            if opens_markup {
                end = i;
                break;
            }
            search_from = i + 1;
        }
        self.pos += end;
        Token::Text(entities::decode_cow(&rest[..end]))
    }
}

/// `s` with ASCII letters lower-cased, copied only when that changes it.
fn ascii_lowercase(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// Byte offset in `tag` (which starts with `<`) where the tag name ends:
/// the first `>`, `/` or whitespace character after the `<`, or the end
/// of input. Whitespace is [`char::is_whitespace`], so a vertical tab or
/// a no-break space ends the name too; only non-ASCII lead bytes pay for
/// decoding a `char`.
fn tag_name_end(tag: &str) -> usize {
    let bytes = tag.as_bytes();
    let mut i = 1;
    while i < bytes.len() {
        let b = bytes[i];
        if b < 0x80 {
            if b == b'>' || b == b'/' || (b as char).is_whitespace() {
                return i;
            }
        } else if b >= 0xc0 && tag[i..].chars().next().is_some_and(char::is_whitespace) {
            return i;
        }
        i += 1;
    }
    bytes.len()
}

/// First byte offset of `</name` in `haystack`, matching `name` ASCII
/// case-insensitively, without allocating. Stops at the first match:
/// lowercasing the remaining input per raw-text element would be
/// O(remaining) work each time — quadratic on a page of many `<script>`s.
fn find_close_tag(haystack: &str, name: &str) -> Option<usize> {
    let h = haystack.as_bytes();
    let n = name.as_bytes();
    let mut from = 0;
    while let Some(off) = haystack[from..].find("</") {
        let at = from + off;
        if h.get(at + 2..at + 2 + n.len())
            .is_some_and(|candidate| candidate.eq_ignore_ascii_case(n))
        {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// An attribute list: lower-cased names and entity-decoded values.
type Attrs<'a> = Vec<(Cow<'a, str>, Cow<'a, str>)>;

/// Parse attributes starting at byte offset `start` (just after the tag
/// name). Returns `(attrs, self_closing, position_after_tag)`; records
/// recoveries against `tag_start` in `defects`.
fn parse_attrs<'a>(
    input: &'a str,
    start: usize,
    tag_start: usize,
    defects: &mut Vec<MarkupDefect>,
) -> (Attrs<'a>, bool, usize) {
    let mut attrs = Vec::new();
    let mut self_closing = false;
    let bytes = input.as_bytes();
    let mut i = start;
    loop {
        // Skip whitespace.
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() {
            defects.push(MarkupDefect {
                kind: MarkupDefectKind::UnterminatedTag,
                offset: tag_start,
            });
            return (attrs, self_closing, i);
        }
        match bytes[i] {
            b'>' => return (attrs, self_closing, i + 1),
            b'/' => {
                self_closing = true;
                i += 1;
            }
            _ => {
                // Attribute name.
                let name_start = i;
                while i < bytes.len()
                    && !bytes[i].is_ascii_whitespace()
                    && bytes[i] != b'='
                    && bytes[i] != b'>'
                    && bytes[i] != b'/'
                {
                    i += 1;
                }
                let name = &input[name_start..i];
                // Skip whitespace before a possible '='.
                let mut j = i;
                while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                    j += 1;
                }
                let value = if j < bytes.len() && bytes[j] == b'=' {
                    j += 1;
                    while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                        j += 1;
                    }
                    let (v, after) = parse_attr_value(input, j, defects);
                    i = after;
                    v
                } else {
                    // Boolean attribute.
                    i = j.min(bytes.len());
                    ""
                };
                if !name.is_empty() {
                    attrs.push((ascii_lowercase(name), entities::decode_cow(value)));
                }
            }
        }
    }
}

/// Parse a quoted or unquoted attribute value starting at `start`;
/// returns the raw (undecoded) value and the offset after it.
fn parse_attr_value<'a>(
    input: &'a str,
    start: usize,
    defects: &mut Vec<MarkupDefect>,
) -> (&'a str, usize) {
    let bytes = input.as_bytes();
    if start >= bytes.len() {
        return ("", start);
    }
    match bytes[start] {
        q @ (b'"' | b'\'') => {
            let rest = &input[start + 1..];
            match rest.find(q as char) {
                Some(end) => (&rest[..end], start + 1 + end + 1),
                None => {
                    defects.push(MarkupDefect {
                        kind: MarkupDefectKind::UnterminatedAttrValue,
                        offset: start,
                    });
                    (rest, input.len())
                }
            }
        }
        _ => {
            let mut i = start;
            while i < bytes.len()
                && !bytes[i].is_ascii_whitespace()
                && bytes[i] != b'>'
            {
                i += 1;
            }
            (&input[start..i], i)
        }
    }
}

impl<'a> Iterator for Tokenizer<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        self.next_token()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Token<'_>> {
        Tokenizer::new(s).collect()
    }

    fn start<'a>(name: &'a str, attrs: &[(&'a str, &'a str)]) -> Token<'a> {
        Token::StartTag {
            name: name.into(),
            attrs: attrs.iter().map(|&(k, v)| (k.into(), v.into())).collect(),
            self_closing: false,
        }
    }

    #[test]
    fn simple_element() {
        assert_eq!(
            toks("<p>hi</p>"),
            vec![
                start("p", &[]),
                Token::Text("hi".into()),
                Token::EndTag { name: "p".into() },
            ]
        );
    }

    #[test]
    fn attributes_quoted_unquoted_boolean() {
        let t = toks(r#"<div class="a b" id=main hidden data-x='y'>"#);
        assert_eq!(
            t,
            vec![start(
                "div",
                &[("class", "a b"), ("id", "main"), ("hidden", ""), ("data-x", "y")]
            )]
        );
    }

    #[test]
    fn self_closing_tag() {
        let t = toks("<br/><img src=x />");
        assert!(matches!(&t[0], Token::StartTag { self_closing: true, name, .. } if name == "br"));
        assert!(matches!(&t[1], Token::StartTag { self_closing: true, name, .. } if name == "img"));
    }

    #[test]
    fn tag_names_case_folded() {
        let t = toks("<DIV CLASS=x></DIV>");
        assert_eq!(
            t,
            vec![start("div", &[("class", "x")]), Token::EndTag { name: "div".into() }]
        );
    }

    #[test]
    fn entities_decoded_in_text_and_attrs() {
        let t = toks(r#"<p title="a &amp; b">x &lt; y</p>"#);
        assert_eq!(t[0], start("p", &[("title", "a & b")]));
        assert_eq!(t[1], Token::Text("x < y".into()));
    }

    #[test]
    fn literal_less_than_is_text() {
        let t = toks("if a < 3 then");
        assert_eq!(t, vec![Token::Text("if a < 3 then".into())]);
    }

    #[test]
    fn comment_and_doctype() {
        let t = toks("<!DOCTYPE html><!-- note --><p></p>");
        assert_eq!(t[0], Token::Doctype("DOCTYPE html"));
        assert_eq!(t[1], Token::Comment(" note "));
    }

    #[test]
    fn unterminated_comment_swallows_rest() {
        let t = toks("<!-- oops <p>never</p>");
        assert_eq!(t, vec![Token::Comment(" oops <p>never</p>")]);
    }

    #[test]
    fn script_content_is_raw_text() {
        let t = toks("<script>if (a<b && c>d) { x(); }</script><p>after</p>");
        assert_eq!(t[1], Token::Text("if (a<b && c>d) { x(); }".into()));
        assert_eq!(t[2], Token::EndTag { name: "script".into() });
        assert_eq!(t[3], start("p", &[]));
    }

    #[test]
    fn raw_text_close_tag_is_case_insensitive() {
        let t = toks("<script>x<y</SCRIPT><p>after</p>");
        assert_eq!(t[1], Token::Text("x<y".into()));
        assert_eq!(t[2], Token::EndTag { name: "script".into() });
        // Many raw-text elements on one page stay linear (no per-element
        // copy of the rest of the input); spot-check correctness.
        let many: String = (0..50).map(|i| format!("<script>s{i}</script>")).collect();
        let tokens = toks(&many);
        assert_eq!(tokens.len(), 150);
    }

    #[test]
    fn unclosed_tag_at_eof() {
        let t = toks("<div class=x");
        assert_eq!(t, vec![start("div", &[("class", "x")])]);
    }

    #[test]
    fn empty_input_yields_nothing() {
        assert!(toks("").is_empty());
    }

    #[test]
    fn end_tag_with_whitespace() {
        let t = toks("<p>x</p >");
        assert_eq!(t[2], Token::EndTag { name: "p".into() });
    }

    #[test]
    fn clean_input_records_no_defects() {
        let mut tz = Tokenizer::new("<p class=\"x\">hi</p><!-- ok -->");
        while tz.next().is_some() {}
        assert!(tz.defects().is_empty());
    }

    #[test]
    fn unterminated_comment_recorded_with_offset() {
        let mut tz = Tokenizer::new("ok <!-- oops");
        while tz.next().is_some() {}
        let defects = tz.take_defects();
        assert_eq!(defects.len(), 1);
        assert_eq!(defects[0].kind, MarkupDefectKind::UnterminatedComment);
        assert_eq!(defects[0].offset, 3);
        assert!(defects[0].to_string().contains("byte 3"));
    }

    #[test]
    fn truncated_tag_and_attr_value_recorded() {
        let mut tz = Tokenizer::new(r#"text <div class="x"#);
        while tz.next().is_some() {}
        let defects = tz.take_defects();
        assert!(defects
            .iter()
            .any(|d| d.kind == MarkupDefectKind::UnterminatedAttrValue));
        assert!(defects
            .iter()
            .any(|d| d.kind == MarkupDefectKind::UnterminatedTag && d.offset == 5));
    }
}
