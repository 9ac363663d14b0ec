//! `Parser_norsk` — the Nokia-style manual parser.
//!
//! Norsk pages use `h3` headers with stable classes (`SyntaxHeader`,
//! `ContextHeader`, …). They carry **no examples**; instead the `Context`
//! section states the full view path explicitly, which this parser
//! extracts into [`ParsedPage::context_path`] — the Table-4 footnote's
//! "extra functions" that let hierarchy be read rather than derived.

use crate::extract::{cli_text, extract, is_tag, joined_text, labelled_definition, Layout};
use crate::framework::{ensure_parsable, ParsedPage, VendorParser};
use nassim_corpus::{CorpusEntry, ParaDef};
use nassim_diag::NassimError;
use nassim_html::Document;
use std::sync::Arc;

/// Class configuration for the norsk parser.
pub struct ParserNorsk {
    pub syntax_header: &'static str,
    pub context_header: &'static str,
    pub description_header: &'static str,
    pub parameters_header: &'static str,
    pub tree_header: &'static str,
    /// Classes marking parameter spans.
    pub param_classes: &'static [&'static str],
}

impl ParserNorsk {
    /// The full configuration.
    pub fn new() -> ParserNorsk {
        ParserNorsk {
            syntax_header: "SyntaxHeader",
            context_header: "ContextHeader",
            description_header: "DescriptionHeader",
            parameters_header: "ParametersHeader",
            tree_header: "TreeHeader",
            param_classes: &["ArgText"],
        }
    }
}

impl Default for ParserNorsk {
    fn default() -> Self {
        ParserNorsk::new()
    }
}

impl VendorParser for ParserNorsk {
    fn vendor(&self) -> &str {
        "norsk"
    }

    fn parse_doc(&self, url: &str, doc: &Document) -> Result<Option<ParsedPage>, NassimError> {
        ensure_parsable(self.vendor(), url, doc)?;
        // Every section runs to the next `h3`, whatever its class.
        let [syntax, context, tree, description, params] = extract(
            doc,
            Layout::ClassHeaders { end_tag: "h3" },
            [
                &[self.syntax_header],
                &[self.context_header],
                &[self.tree_header],
                &[self.description_header],
                &[self.parameters_header],
            ],
        );
        if syntax.is_empty() {
            return Ok(None);
        }
        let clis: Vec<String> = syntax
            .iter()
            .map(|&n| cli_text(doc, n, self.param_classes))
            .filter(|s| !s.is_empty())
            .collect();
        // Context: explicit view paths "configure > configure BGP > …",
        // one paragraph per working view (multi-view commands have
        // several).
        let context_paths: Vec<Vec<String>> = context
            .iter()
            .map(|&n| doc.text_of(n))
            .filter(|t| !t.trim().is_empty())
            .map(|t| {
                t.split('>')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            })
            .collect();
        let parent_views: Vec<String> = context_paths
            .iter()
            .filter_map(|p| p.last().cloned())
            .collect();
        let context_path: Vec<String> = context_paths.first().cloned().unwrap_or_default();
        // Explicit command tree: "Enters: <view name>" on container pages.
        let enters_view = tree
            .iter()
            .map(|&n| doc.text_of(n))
            .find_map(|t| t.strip_prefix("Enters:").map(|v| v.trim().to_string()));
        // Parameters live in a definition list: dt holds the name span,
        // the following dd holds the description.
        let para_def: Vec<ParaDef> = params
            .iter()
            .flat_map(|&n| doc.descendants(n).filter(|&id| is_tag(doc, id, "dt")))
            .filter_map(|dt| {
                let (name, _) = labelled_definition(doc, dt, self.param_classes)?;
                let desc = doc
                    .following_siblings(dt)
                    .find(|&id| is_tag(doc, id, "dd"))
                    .map(|dd| doc.text_of(dd))
                    .unwrap_or_default();
                Some(ParaDef::new(name, desc))
            })
            .collect();
        Ok(Some(ParsedPage {
            url: url.to_string(),
            entry: Arc::new(CorpusEntry {
                clis,
                func_def: joined_text(doc, &description),
                parent_views,
                para_def,
                examples: Vec::new(),
                source: url.to_string(),
            }),
            context_path: Some(context_path),
            enters_view,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::run_parser;
    use nassim_datasets::{catalog::Catalog, manualgen, style};
    use std::error::Error;

    fn manual() -> manualgen::Manual {
        manualgen::generate(
            &style::vendor("norsk").unwrap(),
            &Catalog::base(),
            &manualgen::GenOptions {
                seed: 41,
                syntax_error_rate: 0.0,
                ambiguity_rate: 0.0,
                ..Default::default()
            },
        )
    }

    #[test]
    fn parses_with_explicit_context_paths() -> Result<(), Box<dyn Error>> {
        let m = manual();
        let page = m
            .pages
            .iter()
            .find(|p| p.command_key == "bgp.af-pref")
            .ok_or("bgp.af-pref page missing")?;
        let parsed = ParserNorsk::new()
            .parse_page(&page.url, &page.html)?
            .ok_or("page skipped")?;
        let path = parsed.context_path.as_ref().ok_or("no context path")?;
        assert_eq!(
            path,
            &vec![
                "configure".to_string(),
                "configure BGP".to_string(),
                "configure BGP-IPv4 unicast".to_string(),
            ]
        );
        assert_eq!(
            parsed.entry.parent_views,
            vec!["configure BGP-IPv4 unicast"]
        );
        assert!(parsed.entry.examples.is_empty());
        Ok(())
    }

    #[test]
    fn norsk_examples_field_violates_nothing() {
        // Norsk entries legitimately have empty Examples (list-of-lists may
        // be empty per Table 3 — only CLIs/ParentViews are non-empty).
        let m = manual();
        let run = run_parser(
            &ParserNorsk::new(),
            m.pages.iter().map(|p| (p.url.as_str(), p.html.as_str())),
        );
        assert!(run.report.passes(), "{}", run.report);
    }

    #[test]
    fn vendor_renames_visible_in_clis() -> Result<(), Box<dyn Error>> {
        let m = manual();
        let page = m
            .pages
            .iter()
            .find(|p| p.command_key == "bgp.peer-as")
            .ok_or("bgp.peer-as page missing")?;
        let parsed = ParserNorsk::new()
            .parse_page(&page.url, &page.html)?
            .ok_or("page skipped")?;
        // norsk renames as-number → autonomous-system (Table-2 divergence).
        assert!(
            parsed.entry.clis[0].contains("<autonomous-system>"),
            "{:?}",
            parsed.entry.clis
        );
        Ok(())
    }

    #[test]
    fn dl_parameter_lists_are_parsed() -> Result<(), Box<dyn Error>> {
        let m = manual();
        let page = m
            .pages
            .iter()
            .find(|p| p.command_key == "bgp.timer")
            .ok_or("bgp.timer page missing")?;
        let parsed = ParserNorsk::new()
            .parse_page(&page.url, &page.html)?
            .ok_or("page skipped")?;
        assert_eq!(parsed.entry.para_def.len(), 2);
        assert!(parsed.entry.para_def[0].info.contains("keepalive"));
        Ok(())
    }
}
