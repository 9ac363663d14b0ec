//! The vendor-independent VDM corpus format (Table 3 / Figure 3).
//!
//! One [`CorpusEntry`] captures everything a manual page says about one CLI
//! command, normalised away from vendor-specific styling:
//!
//! | Key           | Type restriction (Table 3)                  |
//! |---------------|---------------------------------------------|
//! | `CLIs`        | non-empty list of strings                   |
//! | `FuncDef`     | string                                      |
//! | `ParentViews` | non-empty list of strings                   |
//! | `ParaDef`     | list of dicts with keys `Paras` and `Info`  |
//! | `Examples`    | list of lists (one inner list per snippet)  |
//!
//! The serde field names match the paper's JSON exactly, so dumped corpora
//! are byte-compatible with the released dataset's schema.
//!
//! [`CorpusEntry::check`] implements the Appendix-B validation tests that
//! the TDD parser workflow enforces on every parsed entry.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// One placeholder-parameter definition from a manual's "Parameters"
/// section: the parameter token(s) and their prose description.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ParaDef {
    /// The parameter name as it appears in the CLI template, e.g.
    /// `ipv4-address`. A single `Paras` may name several space-separated
    /// tokens when the manual documents them together.
    #[serde(rename = "Paras")]
    pub paras: String,
    /// The prose description: implication and value range.
    #[serde(rename = "Info")]
    pub info: String,
}

impl ParaDef {
    /// Convenience constructor.
    pub fn new(paras: impl Into<String>, info: impl Into<String>) -> ParaDef {
        ParaDef {
            paras: paras.into(),
            info: info.into(),
        }
    }
}

/// A parsed manual page for one CLI command, in the vendor-independent
/// format of Table 3. See the module docs for the field contract.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct CorpusEntry {
    /// Formal CLI command templates (a page may document several forms,
    /// e.g. `vlan <id>` and `undo vlan <id>`).
    #[serde(rename = "CLIs")]
    pub clis: Vec<String>,
    /// Function description of the command.
    #[serde(rename = "FuncDef")]
    pub func_def: String,
    /// Views (command modes) under which the command is accepted.
    #[serde(rename = "ParentViews")]
    pub parent_views: Vec<String>,
    /// Placeholder-parameter definitions.
    #[serde(rename = "ParaDef")]
    pub para_def: Vec<ParaDef>,
    /// Example snippets; each inner list is the lines of one snippet
    /// (indentation preserved — it carries hierarchy, §5.2).
    #[serde(rename = "Examples")]
    pub examples: Vec<Vec<String>>,
    /// Source page URL or identifier, for violation reports.
    #[serde(rename = "Source", default, skip_serializing_if = "String::is_empty")]
    pub source: String,
}

/// The Appendix-B validation tests, used to label violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CorpusCheck {
    /// "Keys Completeness Test" — all five basic keys present and, for the
    /// non-empty-list fields, actually populated.
    KeysCompleteness,
    /// "Type Restriction Test" — each field complies with Table 3
    /// (non-blank strings inside lists, well-formed `ParaDef` dicts, …).
    TypeRestriction,
    /// "CLI Keyword/Parameter Self-check Test" — angle-bracketed parameter
    /// tokens in `CLIs` cross-checked against `ParaDef`.
    ParamSelfCheck,
}

impl fmt::Display for CorpusCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CorpusCheck::KeysCompleteness => "keys-completeness",
            CorpusCheck::TypeRestriction => "type-restriction",
            CorpusCheck::ParamSelfCheck => "param-self-check",
        };
        f.write_str(name)
    }
}

/// One violation found by [`CorpusEntry::check`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusViolation {
    /// Which Appendix-B test flagged the problem.
    pub check: CorpusCheck,
    /// The offending field, e.g. `"CLIs"` or `"ParaDef[2].Info"`.
    pub field: String,
    /// Human-readable explanation for the TDD report.
    pub message: String,
}

impl CorpusViolation {
    fn new(check: CorpusCheck, field: impl Into<String>, message: impl Into<String>) -> Self {
        CorpusViolation {
            check,
            field: field.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for CorpusViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.check, self.field, self.message)
    }
}

/// Extract the angle-bracketed placeholder tokens from a CLI template,
/// e.g. `peer <ipv4-address> group <group-name>` →
/// `{"ipv4-address", "group-name"}`. Nested or unpaired brackets are left
/// to the formal syntax validator (`nassim-syntax`); here we only harvest
/// well-formed `<token>` spans.
pub fn placeholder_tokens(cli: &str) -> BTreeSet<String> {
    placeholders(cli).map(str::to_string).collect()
}

/// The tokens of [`placeholder_tokens`], borrowed, in order of appearance.
fn placeholders(cli: &str) -> impl Iterator<Item = &str> {
    let mut rest = cli;
    std::iter::from_fn(move || {
        while let Some(open) = rest.find('<') {
            let after = &rest[open + 1..];
            match after.find(['<', '>']) {
                Some(i) if after.as_bytes()[i] == b'>' => {
                    rest = &after[i + 1..];
                    let token = after[..i].trim();
                    if !token.is_empty() {
                        return Some(token);
                    }
                }
                Some(i) => {
                    // Nested '<' before any '>': skip to it and keep scanning.
                    rest = &after[i..];
                }
                None => break,
            }
        }
        None
    })
}

impl CorpusEntry {
    /// Run the Appendix-B validation tests; returns every violation found
    /// (empty = the entry passes).
    pub fn check(&self) -> Vec<CorpusViolation> {
        let mut v = Vec::new();
        self.check_keys_completeness(&mut v);
        self.check_type_restriction(&mut v);
        self.check_param_selfcheck(&mut v);
        v
    }

    /// Keys-completeness: the non-empty-list fields of Table 3 must be
    /// populated. (Key *presence* is guaranteed by the type; what can go
    /// wrong after parsing is emptiness.)
    fn check_keys_completeness(&self, out: &mut Vec<CorpusViolation>) {
        if self.clis.is_empty() {
            out.push(CorpusViolation::new(
                CorpusCheck::KeysCompleteness,
                "CLIs",
                "must be a non-empty list of strings",
            ));
        }
        if self.parent_views.is_empty() {
            out.push(CorpusViolation::new(
                CorpusCheck::KeysCompleteness,
                "ParentViews",
                "must be a non-empty list of strings",
            ));
        }
    }

    /// Type-restriction: strings inside lists must be non-blank, `ParaDef`
    /// dicts must carry both keys, example snippets must be non-empty.
    fn check_type_restriction(&self, out: &mut Vec<CorpusViolation>) {
        for (i, cli) in self.clis.iter().enumerate() {
            if cli.trim().is_empty() {
                out.push(CorpusViolation::new(
                    CorpusCheck::TypeRestriction,
                    format!("CLIs[{i}]"),
                    "blank CLI template",
                ));
            }
        }
        for (i, view) in self.parent_views.iter().enumerate() {
            if view.trim().is_empty() {
                out.push(CorpusViolation::new(
                    CorpusCheck::TypeRestriction,
                    format!("ParentViews[{i}]"),
                    "blank view name",
                ));
            }
        }
        for (i, pd) in self.para_def.iter().enumerate() {
            if pd.paras.trim().is_empty() {
                out.push(CorpusViolation::new(
                    CorpusCheck::TypeRestriction,
                    format!("ParaDef[{i}].Paras"),
                    "blank parameter name",
                ));
            }
            if pd.info.trim().is_empty() {
                out.push(CorpusViolation::new(
                    CorpusCheck::TypeRestriction,
                    format!("ParaDef[{i}].Info"),
                    "blank parameter description",
                ));
            }
        }
        for (i, snippet) in self.examples.iter().enumerate() {
            if snippet.is_empty() {
                out.push(CorpusViolation::new(
                    CorpusCheck::TypeRestriction,
                    format!("Examples[{i}]"),
                    "empty example snippet",
                ));
            }
        }
    }

    /// Self-check: every `<placeholder>` token used in `CLIs` should be
    /// described in `ParaDef`, and vice versa. A mismatch is the signature
    /// of a mis-configured CSS class (the Cisco
    /// `cKeyword`/`cBold`/`cCN_CmdName` problem of §2.2 / Appendix B).
    fn check_param_selfcheck(&self, out: &mut Vec<CorpusViolation>) {
        let used: BTreeSet<&str> = self.clis.iter().flat_map(|cli| placeholders(cli)).collect();
        let defined: BTreeSet<&str> = self
            .para_def
            .iter()
            .flat_map(|pd| {
                pd.paras
                    .split_whitespace()
                    .map(|t| t.trim_matches(['<', '>']))
            })
            .filter(|t| !t.is_empty())
            .collect();
        for token in used.difference(&defined) {
            out.push(CorpusViolation::new(
                CorpusCheck::ParamSelfCheck,
                "CLIs",
                format!("parameter <{token}> is used but not described in ParaDef"),
            ));
        }
        for token in defined.difference(&used) {
            out.push(CorpusViolation::new(
                CorpusCheck::ParamSelfCheck,
                "ParaDef",
                format!("parameter <{token}> is described but never used in CLIs"),
            ));
        }
    }

    /// True when the entry passes all Appendix-B tests.
    pub fn is_valid(&self) -> bool {
        self.check().is_empty()
    }

    /// Serialise to the paper's JSON corpus format (pretty-printed).
    pub fn to_json(&self) -> String {
        // In-memory struct-to-string serialisation is infallible in the
        // vendored serde_json; an empty object only on an internal bug.
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }

    /// Deserialise from the paper's JSON corpus format.
    pub fn from_json(json: &str) -> Result<CorpusEntry, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure-3 sample corpus (abridged) used across the test suite.
    pub(crate) fn sample_entry() -> CorpusEntry {
        CorpusEntry {
            clis: vec!["peer <ipv4-address> group <group-name>".into()],
            func_def: "Adds a peer to a peer group.".into(),
            parent_views: vec!["BGP view".into()],
            para_def: vec![
                ParaDef::new("ipv4-address", "Specifies the IPv4 address of a peer."),
                ParaDef::new("group-name", "Specifies the name of a peer group."),
            ],
            examples: vec![vec!["bgp 100".into(), " peer 10.1.1.1 group test".into()]],
            source: "manual://sample/peer".into(),
        }
    }

    #[test]
    fn valid_entry_passes_all_checks() {
        assert!(sample_entry().is_valid());
    }

    #[test]
    fn json_round_trip_uses_paper_key_names() {
        let entry = sample_entry();
        let json = entry.to_json();
        for key in [
            "\"CLIs\"",
            "\"FuncDef\"",
            "\"ParentViews\"",
            "\"ParaDef\"",
            "\"Examples\"",
        ] {
            assert!(json.contains(key), "missing key {key} in {json}");
        }
        assert!(json.contains("\"Paras\""));
        assert!(json.contains("\"Info\""));
        assert_eq!(CorpusEntry::from_json(&json).unwrap(), entry);
    }

    #[test]
    fn deserialises_paper_style_json() {
        let json = r#"{
            "CLIs": ["vlan <vlan-id>"],
            "FuncDef": "Creates a VLAN.",
            "ParentViews": ["system view"],
            "ParaDef": [{"Paras": "vlan-id", "Info": "VLAN ID, 1-4094."}],
            "Examples": [["system-view", " vlan 10"]]
        }"#;
        let entry = CorpusEntry::from_json(json).unwrap();
        assert_eq!(entry.clis, vec!["vlan <vlan-id>"]);
        assert!(entry.is_valid());
    }

    #[test]
    fn empty_clis_fails_keys_completeness() {
        let mut e = sample_entry();
        e.clis.clear();
        let v = e.check();
        assert!(v
            .iter()
            .any(|x| x.check == CorpusCheck::KeysCompleteness && x.field == "CLIs"));
    }

    #[test]
    fn empty_views_fails_keys_completeness() {
        let mut e = sample_entry();
        e.parent_views.clear();
        assert!(e
            .check()
            .iter()
            .any(|x| x.check == CorpusCheck::KeysCompleteness && x.field == "ParentViews"));
    }

    #[test]
    fn blank_strings_fail_type_restriction() {
        let mut e = sample_entry();
        e.clis.push("   ".into());
        e.parent_views.push(String::new());
        e.para_def.push(ParaDef::new("", " "));
        e.examples.push(vec![]);
        let fields: Vec<_> = e
            .check()
            .into_iter()
            .filter(|v| v.check == CorpusCheck::TypeRestriction)
            .map(|v| v.field)
            .collect();
        assert!(fields.contains(&"CLIs[1]".to_string()));
        assert!(fields.contains(&"ParentViews[1]".to_string()));
        assert!(fields.contains(&"ParaDef[2].Paras".to_string()));
        assert!(fields.contains(&"ParaDef[2].Info".to_string()));
        assert!(fields.contains(&"Examples[1]".to_string()));
    }

    #[test]
    fn selfcheck_flags_undescribed_parameter() {
        let mut e = sample_entry();
        e.para_def.remove(0); // drop ipv4-address description
        let v = e.check();
        assert!(v
            .iter()
            .any(|x| x.check == CorpusCheck::ParamSelfCheck && x.message.contains("ipv4-address")));
    }

    #[test]
    fn selfcheck_flags_unused_parameter() {
        let mut e = sample_entry();
        e.para_def.push(ParaDef::new("orphan-param", "never used"));
        let v = e.check();
        assert!(v
            .iter()
            .any(|x| x.check == CorpusCheck::ParamSelfCheck && x.message.contains("orphan-param")));
    }

    #[test]
    fn placeholder_token_extraction() {
        let t = placeholder_tokens("peer <ipv4-address> group <group-name>");
        assert_eq!(
            t.into_iter().collect::<Vec<_>>(),
            vec!["group-name", "ipv4-address"]
        );
    }

    #[test]
    fn placeholder_extraction_tolerates_malformed_brackets() {
        // Unpaired '<' — harvested tokens are only the well-formed ones.
        let t = placeholder_tokens("neighbor <ip-addr but { <as-num> ]");
        assert_eq!(t.into_iter().collect::<Vec<_>>(), vec!["as-num"]);
        assert!(placeholder_tokens("no params here").is_empty());
        assert!(placeholder_tokens("<>").is_empty());
    }

    #[test]
    fn violation_display_is_readable() {
        let v = CorpusViolation::new(CorpusCheck::ParamSelfCheck, "CLIs", "oops");
        assert_eq!(v.to_string(), "[param-self-check] CLIs: oops");
    }

    #[test]
    fn multi_token_paradef_covers_each_token() {
        let mut e = sample_entry();
        e.para_def = vec![ParaDef::new(
            "ipv4-address group-name",
            "peer address and group name documented together",
        )];
        assert!(e.is_valid(), "{:?}", e.check());
    }
}
