//! Formal syntax validation with human-readable diagnoses (§5.1).
//!
//! The goal is not merely accept/reject: the Validator's output is read by
//! NetOps engineers who must *correct the manual*, so failures carry a
//! precise position, a classified cause, and — for the bracket-balance
//! errors the paper highlights — a list of candidate fixes that would make
//! the template parse (choosing among them requires expert judgement,
//! which is exactly the paper's point in §2.2).

use crate::combinator::PErr;
use crate::template::{parse_template, CliStruc};
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// Classified cause of a template syntax error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyntaxErrorKind {
    /// An opening `{` or `[` with no matching closer.
    UnpairedOpen(char),
    /// A closing `}` or `]` with no matching opener.
    UnpairedClose(char),
    /// A closer that does not match the innermost opener, e.g. `{ a ]`.
    MismatchedClose { expected: char, found: char },
    /// `<` without `>` (or an empty `<>`).
    BadPlaceholder,
    /// `{ }`, `[ ]` or a branch with no elements (`{ a | }`).
    EmptyBranch,
    /// Template is empty or whitespace-only.
    EmptyTemplate,
    /// Any other failure, with the parser's expectation text.
    Other(String),
}

// Hand-written serde impls: the vendored derive cannot express tuple
// variants or `char` fields, so the kind serializes as a tagged value
// with brackets carried as one-character strings.
impl Serialize for SyntaxErrorKind {
    fn to_value(&self) -> Value {
        let tag = |name: &str, v: Value| Value::Obj(vec![(name.to_string(), v)]);
        match self {
            SyntaxErrorKind::UnpairedOpen(c) => tag("UnpairedOpen", Value::Str(c.to_string())),
            SyntaxErrorKind::UnpairedClose(c) => tag("UnpairedClose", Value::Str(c.to_string())),
            SyntaxErrorKind::MismatchedClose { expected, found } => tag(
                "MismatchedClose",
                Value::Obj(vec![
                    ("expected".to_string(), Value::Str(expected.to_string())),
                    ("found".to_string(), Value::Str(found.to_string())),
                ]),
            ),
            SyntaxErrorKind::BadPlaceholder => Value::Str("BadPlaceholder".to_string()),
            SyntaxErrorKind::EmptyBranch => Value::Str("EmptyBranch".to_string()),
            SyntaxErrorKind::EmptyTemplate => Value::Str("EmptyTemplate".to_string()),
            SyntaxErrorKind::Other(s) => tag("Other", Value::Str(s.clone())),
        }
    }
}

impl Deserialize for SyntaxErrorKind {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        fn one_char(v: &Value) -> Result<char, DeError> {
            match v {
                Value::Str(s) if s.chars().count() == 1 => {
                    s.chars().next().ok_or_else(|| DeError::new("empty char"))
                }
                other => Err(DeError::new(format!(
                    "expected single-character string, found {other:?}"
                ))),
            }
        }
        match v {
            Value::Str(s) => match s.as_str() {
                "BadPlaceholder" => Ok(SyntaxErrorKind::BadPlaceholder),
                "EmptyBranch" => Ok(SyntaxErrorKind::EmptyBranch),
                "EmptyTemplate" => Ok(SyntaxErrorKind::EmptyTemplate),
                other => Err(DeError::new(format!(
                    "unknown SyntaxErrorKind variant `{other}`"
                ))),
            },
            Value::Obj(entries) if entries.len() == 1 => {
                let (name, inner) = &entries[0];
                match name.as_str() {
                    "UnpairedOpen" => Ok(SyntaxErrorKind::UnpairedOpen(one_char(inner)?)),
                    "UnpairedClose" => Ok(SyntaxErrorKind::UnpairedClose(one_char(inner)?)),
                    "MismatchedClose" => {
                        Ok(SyntaxErrorKind::MismatchedClose {
                            expected: one_char(inner.get("expected").ok_or_else(|| {
                                DeError::new("MismatchedClose.expected missing")
                            })?)?,
                            found: one_char(
                                inner
                                    .get("found")
                                    .ok_or_else(|| DeError::new("MismatchedClose.found missing"))?,
                            )?,
                        })
                    }
                    "Other" => match inner {
                        Value::Str(s) => Ok(SyntaxErrorKind::Other(s.clone())),
                        other => Err(DeError::new(format!(
                            "Other payload must be a string, found {other:?}"
                        ))),
                    },
                    other => Err(DeError::new(format!(
                        "unknown SyntaxErrorKind variant `{other}`"
                    ))),
                }
            }
            other => Err(DeError::new(format!(
                "expected SyntaxErrorKind, found {other:?}"
            ))),
        }
    }
}

impl fmt::Display for SyntaxErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyntaxErrorKind::UnpairedOpen(c) => write!(f, "unpaired opening '{c}'"),
            SyntaxErrorKind::UnpairedClose(c) => write!(f, "unpaired closing '{c}'"),
            SyntaxErrorKind::MismatchedClose { expected, found } => {
                write!(f, "expected '{expected}' but found '{found}'")
            }
            SyntaxErrorKind::BadPlaceholder => write!(f, "malformed <placeholder>"),
            SyntaxErrorKind::EmptyBranch => write!(f, "empty group or alternation branch"),
            SyntaxErrorKind::EmptyTemplate => write!(f, "empty CLI template"),
            SyntaxErrorKind::Other(expected) => write!(f, "syntax error, expected {expected}"),
        }
    }
}

/// A failed validation: cause, byte position and candidate fixes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyntaxDiagnosis {
    pub kind: SyntaxErrorKind,
    /// Byte offset into the template text the diagnosis points at.
    pub pos: usize,
    /// Candidate corrected templates that parse; empty when no mechanical
    /// fix exists. Deciding which (if any) is right is left to the expert.
    pub candidate_fixes: Vec<String>,
}

impl fmt::Display for SyntaxDiagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.kind, self.pos)?;
        if !self.candidate_fixes.is_empty() {
            write!(f, " ({} candidate fixes)", self.candidate_fixes.len())?;
        }
        Ok(())
    }
}

impl std::error::Error for SyntaxDiagnosis {}

impl SyntaxDiagnosis {
    /// Convert into a structured pipeline diagnostic.
    ///
    /// `source` is where the template came from (page URL); the span
    /// column is the byte offset into the template text itself.
    pub fn to_diagnostic(&self, source: &str) -> nassim_diag::Diagnostic {
        let mut d = nassim_diag::Diagnostic::warning(nassim_diag::Stage::Syntax, self.to_string())
            .with_span(nassim_diag::SourceSpan::point(source, self.pos));
        if !self.candidate_fixes.is_empty() {
            d.message
                .push_str(&format!(": try `{}`", self.candidate_fixes[0]));
        }
        d
    }
}

/// Validate one CLI template; `Ok` carries the parsed structure.
pub fn validate_template(template: &str) -> Result<CliStruc, SyntaxDiagnosis> {
    if template.trim().is_empty() {
        return Err(SyntaxDiagnosis {
            kind: SyntaxErrorKind::EmptyTemplate,
            pos: 0,
            candidate_fixes: Vec::new(),
        });
    }
    // Bracket-balance scan first: it classifies the errors the paper's
    // §2.2 example exhibits more precisely than the recursive parser can.
    if let Some(diag) = scan_brackets(template) {
        return Err(diag);
    }
    match parse_template(template) {
        Ok(s) => Ok(s),
        Err(err) => Err(classify_parse_error(err)),
    }
}

/// Stack scan for bracket pairing across `{}`, `[]` and `<>`.
fn scan_brackets(s: &str) -> Option<SyntaxDiagnosis> {
    let mut stack: Vec<(char, usize)> = Vec::new();
    for (i, ch) in s.char_indices() {
        match ch {
            '{' | '[' | '<' => stack.push((ch, i)),
            '}' | ']' | '>' => {
                let expected_open = match ch {
                    '}' => '{',
                    ']' => '[',
                    _ => '<',
                };
                match stack.pop() {
                    None => {
                        return Some(SyntaxDiagnosis {
                            kind: SyntaxErrorKind::UnpairedClose(ch),
                            pos: i,
                            candidate_fixes: fixes_for_unpaired_close(s, i),
                        });
                    }
                    Some((open, open_pos)) if open != expected_open => {
                        let expected = match open {
                            '{' => '}',
                            '[' => ']',
                            _ => '>',
                        };
                        return Some(SyntaxDiagnosis {
                            kind: SyntaxErrorKind::MismatchedClose {
                                expected,
                                found: ch,
                            },
                            pos: i,
                            candidate_fixes: fixes_for_mismatch(s, open_pos, i, expected),
                        });
                    }
                    Some(_) => {}
                }
            }
            _ => {}
        }
    }
    stack.pop().map(|(open, pos)| {
        if open == '<' {
            SyntaxDiagnosis {
                kind: SyntaxErrorKind::BadPlaceholder,
                pos,
                candidate_fixes: Vec::new(),
            }
        } else {
            SyntaxDiagnosis {
                kind: SyntaxErrorKind::UnpairedOpen(open),
                pos,
                candidate_fixes: fixes_for_unpaired_open(s, pos, open),
            }
        }
    })
}

/// The paper's §2.2 example: an unpaired opener admits several valid
/// corrections — remove the opener, or insert the closer at one of the
/// plausible boundaries. We propose each candidate that actually parses.
fn fixes_for_unpaired_open(s: &str, open_pos: usize, open: char) -> Vec<String> {
    let close = if open == '{' { '}' } else { ']' };
    let mut candidates = Vec::new();
    // (a) remove the opener
    let mut removed = s.to_string();
    removed.remove(open_pos);
    candidates.push(removed);
    // (b) append the closer at the end
    candidates.push(format!("{s} {close}"));
    // (c) insert the closer before each later group-closer boundary
    for (i, ch) in s.char_indices().skip(open_pos + 1) {
        if matches!(ch, '}' | ']') {
            let mut inserted = s.to_string();
            inserted.insert_str(i, &format!("{close} "));
            candidates.push(inserted);
        }
    }
    retain_parseable(candidates)
}

fn fixes_for_unpaired_close(s: &str, close_pos: usize) -> Vec<String> {
    let mut removed = s.to_string();
    removed.remove(close_pos);
    retain_parseable(vec![removed])
}

fn fixes_for_mismatch(s: &str, _open_pos: usize, close_pos: usize, expected: char) -> Vec<String> {
    let mut swapped = s.to_string();
    swapped.replace_range(close_pos..close_pos + 1, &expected.to_string());
    // Also consider that the *closer* was right and the opener was wrong.
    retain_parseable(vec![swapped])
}

fn retain_parseable(candidates: Vec<String>) -> Vec<String> {
    let mut out: Vec<String> = candidates
        .into_iter()
        .map(|c| c.split_whitespace().collect::<Vec<_>>().join(" "))
        .filter(|c| parse_template(c).is_ok())
        .collect();
    out.dedup();
    out
}

/// Map a raw combinator error onto a classified diagnosis.
fn classify_parse_error(err: PErr) -> SyntaxDiagnosis {
    let kind = match err.expected.as_str() {
        "parameter name" | "'>'" => SyntaxErrorKind::BadPlaceholder,
        "keyword" | "element" => SyntaxErrorKind::EmptyBranch,
        // A balanced template that still fails with "expected '}'/']'"
        // means a branch/grouping problem (e.g. `{ a | }` — pipe consumed,
        // branch empty).
        "'}'" | "']'" | "end of input" => SyntaxErrorKind::EmptyBranch,
        other => SyntaxErrorKind::Other(other.to_string()),
    };
    SyntaxDiagnosis {
        kind,
        pos: err.pos,
        candidate_fixes: Vec::new(),
    }
}

/// Audit a batch of templates; returns `(index, diagnosis)` per failure.
/// This is the Validator's stage-1 entry point over a parsed corpus.
pub fn audit_templates<'a>(
    templates: impl IntoIterator<Item = &'a str>,
) -> Vec<(usize, SyntaxDiagnosis)> {
    templates
        .into_iter()
        .enumerate()
        .filter_map(|(i, t)| validate_template(t).err().map(|d| (i, d)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_template_returns_structure() {
        let s = validate_template("peer <ipv4-address> group <group-name>").unwrap();
        assert_eq!(s.params(), vec!["ipv4-address", "group-name"]);
    }

    #[test]
    fn paper_unpaired_open_bracket_example() {
        // §2.2: "For the unpaired left bracket before the remote-as symbol,
        // there are multiple potential valid options."
        let t = "neighbor { <ip-addr> | <ip-prefix/length> } [ remote-as { <as-num> [ <.as-num> ] | route-map <name> }";
        let d = validate_template(t).unwrap_err();
        assert_eq!(d.kind, SyntaxErrorKind::UnpairedOpen('['));
        // Multiple candidate fixes, all parseable.
        assert!(d.candidate_fixes.len() >= 2, "{:?}", d.candidate_fixes);
        for fix in &d.candidate_fixes {
            assert!(
                crate::template::parse_template(fix).is_ok(),
                "fix fails: {fix}"
            );
        }
    }

    #[test]
    fn unpaired_close_diagnosed_with_fix() {
        let d = validate_template("show vlan ] brief").unwrap_err();
        assert_eq!(d.kind, SyntaxErrorKind::UnpairedClose(']'));
        assert_eq!(d.pos, 10);
        assert_eq!(d.candidate_fixes, vec!["show vlan brief".to_string()]);
    }

    #[test]
    fn mismatched_close_diagnosed() {
        let d = validate_template("a { b ] c").unwrap_err();
        assert_eq!(
            d.kind,
            SyntaxErrorKind::MismatchedClose {
                expected: '}',
                found: ']'
            }
        );
        assert_eq!(d.candidate_fixes, vec!["a { b } c".to_string()]);
    }

    #[test]
    fn unclosed_placeholder_diagnosed() {
        let d = validate_template("peer <ipv4-address group x").unwrap_err();
        assert_eq!(d.kind, SyntaxErrorKind::BadPlaceholder);
        let d = validate_template("peer <> x").unwrap_err();
        assert_eq!(d.kind, SyntaxErrorKind::BadPlaceholder);
    }

    #[test]
    fn empty_branch_diagnosed() {
        for t in ["a { }", "a { b | }", "a [ | b ]"] {
            let d = validate_template(t).unwrap_err();
            assert_eq!(d.kind, SyntaxErrorKind::EmptyBranch, "template {t}");
        }
    }

    #[test]
    fn empty_template_diagnosed() {
        let d = validate_template("  ").unwrap_err();
        assert_eq!(d.kind, SyntaxErrorKind::EmptyTemplate);
    }

    #[test]
    fn audit_returns_only_failures_with_indices() {
        let out = audit_templates([
            "vlan <vlan-id>",
            "bad { template",
            "stp root { primary | secondary }",
            "also ] bad",
        ]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, 1);
        assert_eq!(out[1].0, 3);
    }

    #[test]
    fn diagnosis_display_is_readable() {
        let d = validate_template("a { b").unwrap_err();
        let text = d.to_string();
        assert!(text.contains("unpaired opening '{'"), "{text}");
    }

    #[test]
    fn diagnosis_round_trips_through_serde() {
        let kinds = vec![
            SyntaxErrorKind::UnpairedOpen('['),
            SyntaxErrorKind::UnpairedClose('}'),
            SyntaxErrorKind::MismatchedClose {
                expected: '}',
                found: ']',
            },
            SyntaxErrorKind::BadPlaceholder,
            SyntaxErrorKind::EmptyBranch,
            SyntaxErrorKind::EmptyTemplate,
            SyntaxErrorKind::Other("keyword".to_string()),
        ];
        for kind in kinds {
            let d = SyntaxDiagnosis {
                kind,
                pos: 17,
                candidate_fixes: vec!["a b".to_string()],
            };
            let back = SyntaxDiagnosis::from_value(&d.to_value()).unwrap();
            assert_eq!(back, d);
        }
    }
}
