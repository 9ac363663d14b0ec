//! The CLI command-template grammar and its nested structure (`clistruc`).
//!
//! Parsing a flat template string like
//!
//! ```text
//! filter-policy { <acl-number> | ip-prefix <ip-prefix-name> | acl-name <acl-name> } { import | export }
//! ```
//!
//! yields the nested structure of Appendix C (Figure 16): a sequence of
//! elements where groups contain alternation branches, each branch again a
//! sequence. CGM construction (`nassim-cgm`) walks this structure.
//!
//! Grammar (see [`crate::bnf::command_grammar`] for the BNF rendering):
//!
//! ```text
//! template  ::= element+
//! element   ::= keyword | placeholder | select | option
//! select    ::= '{' branches '}'
//! option    ::= '[' branches ']'
//! branches  ::= element+ ('|' element+)*
//! placeholder ::= '<' param-name '>'
//! keyword   ::= [A-Za-z0-9_.:/+-]+
//! ```

use crate::combinator::{self as c, PErr, PRes};

/// One element of a CLI template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ele {
    /// Literal keyword the operator types verbatim, e.g. `filter-policy`.
    Keyword(String),
    /// Placeholder parameter, e.g. `<acl-number>` (name stored unbracketed).
    Param(String),
    /// `{ a | b }` — mandatory selection among branches.
    Select(Vec<Vec<Ele>>),
    /// `[ a | b ]` — optional part, possibly with branches.
    Option(Vec<Vec<Ele>>),
}

impl Ele {
    /// Render the element back to template text (canonical spacing).
    pub fn render(&self) -> String {
        match self {
            Ele::Keyword(k) => k.clone(),
            Ele::Param(p) => format!("<{p}>"),
            Ele::Select(branches) => format!("{{ {} }}", render_branches(branches)),
            Ele::Option(branches) => format!("[ {} ]", render_branches(branches)),
        }
    }
}

fn render_branches(branches: &[Vec<Ele>]) -> String {
    branches
        .iter()
        .map(|b| b.iter().map(Ele::render).collect::<Vec<_>>().join(" "))
        .collect::<Vec<_>>()
        .join(" | ")
}

/// The parsed nested structure of one CLI template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliStruc {
    /// Top-level element sequence.
    pub elements: Vec<Ele>,
}

impl CliStruc {
    /// Canonical textual rendering (stable spacing, used in reports).
    pub fn render(&self) -> String {
        self.elements
            .iter()
            .map(Ele::render)
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// All placeholder parameter names, in template order (with duplicates).
    pub fn params(&self) -> Vec<&str> {
        fn walk<'a>(eles: &'a [Ele], out: &mut Vec<&'a str>) {
            for e in eles {
                match e {
                    Ele::Param(p) => out.push(p),
                    Ele::Select(bs) | Ele::Option(bs) => {
                        for b in bs {
                            walk(b, out);
                        }
                    }
                    Ele::Keyword(_) => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.elements, &mut out);
        out
    }

    /// All literal keywords, in template order (with duplicates).
    pub fn keywords(&self) -> Vec<&str> {
        fn walk<'a>(eles: &'a [Ele], out: &mut Vec<&'a str>) {
            for e in eles {
                match e {
                    Ele::Keyword(k) => out.push(k),
                    Ele::Select(bs) | Ele::Option(bs) => {
                        for b in bs {
                            walk(b, out);
                        }
                    }
                    Ele::Param(_) => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.elements, &mut out);
        out
    }

    /// Maximum group-nesting depth (0 = no groups).
    pub fn depth(&self) -> usize {
        fn walk(eles: &[Ele]) -> usize {
            eles.iter()
                .map(|e| match e {
                    Ele::Select(bs) | Ele::Option(bs) => {
                        1 + bs.iter().map(|b| walk(b)).max().unwrap_or(0)
                    }
                    _ => 0,
                })
                .max()
                .unwrap_or(0)
        }
        walk(&self.elements)
    }

    /// The leading keyword of the template, if it starts with one. Used to
    /// bucket templates for fast instance lookup.
    pub fn head_keyword(&self) -> Option<&str> {
        match self.elements.first() {
            Some(Ele::Keyword(k)) => Some(k),
            _ => None,
        }
    }
}

/// Characters permitted in keywords. Real manuals use letters, digits and
/// a small punctuation set (`ip-prefix`, `ipv4_vpn`, `10ge`, `.as-num`).
fn is_keyword_char(ch: char) -> bool {
    ch.is_ascii_alphanumeric() || matches!(ch, '-' | '_' | '.' | ':' | '/' | '+' | '*' | '@')
}

/// Characters permitted inside `<…>` placeholder names.
fn is_param_char(ch: char) -> bool {
    ch.is_ascii_alphanumeric() || matches!(ch, '-' | '_' | '.' | '/')
}

// --- grammar productions (mutually recursive plain fns) -----------------

fn keyword(s: &str, pos: usize) -> PRes<Ele> {
    c::map(c::take_while1(is_keyword_char, "keyword"), |k: &str| {
        Ele::Keyword(k.to_string())
    })(s, pos)
}

fn placeholder(s: &str, pos: usize) -> PRes<Ele> {
    let (_, next) = c::literal("<")(s, pos)?;
    let (name, next) = c::take_while1(is_param_char, "parameter name")(s, next)?;
    let (_, fin) = c::literal(">")(s, next)?;
    Ok((Ele::Param(name.to_string()), fin))
}

fn branch(s: &str, pos: usize) -> PRes<Vec<Ele>> {
    c::many1(element)(s, pos)
}

fn branches(s: &str, pos: usize) -> PRes<Vec<Vec<Ele>>> {
    c::sep_by1(branch, "|")(s, pos)
}

fn select(s: &str, pos: usize) -> PRes<Ele> {
    c::map(c::delimited("{", branches, "}"), Ele::Select)(s, pos)
}

fn option(s: &str, pos: usize) -> PRes<Ele> {
    c::map(c::delimited("[", branches, "]"), Ele::Option)(s, pos)
}

fn element(s: &str, pos: usize) -> PRes<Ele> {
    let start = c::skip_ws(s, pos);
    // The first byte picks the production. `<`, `{` and `[` are not
    // keyword characters, so at most one alternative can succeed and every
    // other one fails at `start` without consuming: trying just that one
    // yields the value and the farthest failure that trying all four in
    // turn would, without building three throwaway errors per element.
    let parsed = match s.as_bytes().get(start) {
        Some(b'<') => placeholder(s, pos),
        Some(b'{') => select(s, pos),
        Some(b'[') => option(s, pos),
        _ => keyword(s, pos),
    };
    parsed.map_err(|e| {
        // If no alternative consumed anything, the union "an element was
        // expected here" is more useful than the one branch's first-token
        // failure.
        if e.pos <= start {
            PErr::new(start, "element")
        } else {
            e
        }
    })
}

/// Parse a complete CLI command template into its nested structure.
///
/// Errors carry the farthest position reached and what was expected there;
/// [`crate::validate`] turns them into human-readable diagnoses. The loop
/// is written out (rather than `many1` + `eof`) so that the farthest
/// failure *inside* the last element attempt is preserved — that position
/// is what makes diagnoses like "expected ']'" point at the real problem.
pub fn parse_template(input: &str) -> Result<CliStruc, PErr> {
    let mut elements = Vec::new();
    let mut pos = 0;
    let last_err: PErr;
    loop {
        match element(input, pos) {
            Ok((e, next)) => {
                elements.push(e);
                pos = next;
            }
            Err(e) => {
                last_err = e;
                break;
            }
        }
    }
    let at = c::skip_ws(input, pos);
    if at >= input.len() {
        return if elements.is_empty() {
            Err(last_err)
        } else {
            Ok(CliStruc { elements })
        };
    }
    // Leftover input: prefer the deepest failure over a bare eof report.
    Err(if last_err.pos > at {
        last_err
    } else {
        PErr::new(at, "end of input")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_keywords_and_params() {
        let s = parse_template("peer <ipv4-address> group <group-name>").unwrap();
        assert_eq!(
            s.elements,
            vec![
                Ele::Keyword("peer".into()),
                Ele::Param("ipv4-address".into()),
                Ele::Keyword("group".into()),
                Ele::Param("group-name".into()),
            ]
        );
    }

    #[test]
    fn parses_paper_filter_policy_example() {
        let s = parse_template(
            "filter-policy { <acl-number> | ip-prefix <ip-prefix-name> | acl-name <acl-name> } { import | export }",
        )
        .unwrap();
        assert_eq!(s.elements.len(), 3);
        let Ele::Select(branches) = &s.elements[1] else {
            panic!("expected select group");
        };
        assert_eq!(branches.len(), 3);
        assert_eq!(branches[0], vec![Ele::Param("acl-number".into())]);
        assert_eq!(
            branches[1],
            vec![
                Ele::Keyword("ip-prefix".into()),
                Ele::Param("ip-prefix-name".into())
            ]
        );
        let Ele::Select(modes) = &s.elements[2] else {
            panic!("expected select group");
        };
        assert_eq!(modes.len(), 2);
    }

    #[test]
    fn parses_nested_groups() {
        let s = parse_template(
            "neighbor { <ip-addr> | <ip-prefix/length> } [ remote-as { <as-num> [ <.as-num> ] | route-map <name> } ]",
        )
        .unwrap();
        assert_eq!(s.depth(), 3);
        assert_eq!(s.params().len(), 5);
    }

    #[test]
    fn option_without_alternation() {
        let s = parse_template("show vlan [ <vlan-id> ]").unwrap();
        assert_eq!(
            s.elements[2],
            Ele::Option(vec![vec![Ele::Param("vlan-id".into())]])
        );
    }

    #[test]
    fn render_round_trips() {
        let text =
            "filter-policy { <acl-number> | ip-prefix <ip-prefix-name> } { import | export }";
        let s = parse_template(text).unwrap();
        assert_eq!(s.render(), text);
        // Render of a re-parse is a fixed point.
        assert_eq!(parse_template(&s.render()).unwrap(), s);
    }

    #[test]
    fn tolerates_irregular_spacing() {
        let a = parse_template("a{b|c}[<d>]").unwrap();
        let b = parse_template("a { b | c } [ <d> ]").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_unpaired_open_brace() {
        // The paper's motivating Cisco error (§2.2).
        let err = parse_template(
            "neighbor { <ip-addr> | <ip-prefix/length> } [ remote-as { <as-num> [ <.as-num> ] | route-map <name> }",
        )
        .unwrap_err();
        assert_eq!(err.expected, "']'");
    }

    #[test]
    fn rejects_unpaired_close_brace() {
        let err = parse_template("a b } c").unwrap_err();
        assert_eq!(err.expected, "end of input");
    }

    #[test]
    fn rejects_empty_group() {
        assert!(parse_template("a { }").is_err());
        assert!(parse_template("a [ ]").is_err());
    }

    #[test]
    fn rejects_dangling_pipe() {
        assert!(parse_template("a { b | }").is_err());
        assert!(parse_template("{ | b }").is_err());
    }

    #[test]
    fn rejects_unclosed_placeholder() {
        assert!(parse_template("peer <ipv4-address group <g>").is_err());
        assert!(parse_template("peer <>").is_err());
    }

    #[test]
    fn rejects_empty_template() {
        assert!(parse_template("").is_err());
        assert!(parse_template("   ").is_err());
    }

    #[test]
    fn keywords_params_depth_accessors() {
        let s = parse_template("stp instance <instance-id> root { primary | secondary }").unwrap();
        assert_eq!(
            s.keywords(),
            vec!["stp", "instance", "root", "primary", "secondary"]
        );
        assert_eq!(s.params(), vec!["instance-id"]);
        assert_eq!(s.depth(), 1);
        assert_eq!(s.head_keyword(), Some("stp"));
    }

    #[test]
    fn head_keyword_absent_when_template_starts_with_group() {
        let s = parse_template("{ ipv4 | ipv6 } unicast").unwrap();
        assert_eq!(s.head_keyword(), None);
    }

    #[test]
    fn dotted_and_slashed_tokens_parse() {
        // Real manuals contain tokens like `<.as-num>` and `<ip-prefix/length>`.
        let s = parse_template("x <.as-num> <ip-prefix/length> 10ge1/0/1").unwrap();
        assert_eq!(s.params(), vec![".as-num", "ip-prefix/length"]);
        assert_eq!(s.keywords(), vec!["x", "10ge1/0/1"]);
    }
}
