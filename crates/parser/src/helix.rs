//! `Parser_helix` — the Huawei-style manual parser.
//!
//! Helix pages use `sectiontitle` header divs whose *text* labels the
//! section (`Format`, `Function`, `Views`, `Parameters`, `Examples` — the
//! Table-1 Huawei pattern); section bodies are the following siblings up
//! to the next header.

use crate::extract::{
    cli_text, example_snippets, extract, joined_text, labelled_definition, Layout,
};
use crate::framework::{ensure_parsable, ParsedPage, VendorParser};
use nassim_corpus::{CorpusEntry, ParaDef};
use nassim_diag::NassimError;
use nassim_html::Document;
use std::sync::Arc;

/// CSS/class configuration; [`ParserHelix::new`] holds the complete table
/// discovered through the TDD loop.
pub struct ParserHelix {
    /// Class of section-header divs.
    pub section_class: &'static str,
    /// Classes marking parameter spans inside CLI text.
    pub param_classes: &'static [&'static str],
}

impl ParserHelix {
    /// The full configuration.
    pub fn new() -> ParserHelix {
        ParserHelix {
            section_class: "sectiontitle",
            param_classes: &["paramvalue"],
        }
    }
}

impl Default for ParserHelix {
    fn default() -> Self {
        ParserHelix::new()
    }
}

impl VendorParser for ParserHelix {
    fn vendor(&self) -> &str {
        "helix"
    }

    fn parse_doc(&self, url: &str, doc: &Document) -> Result<Option<ParsedPage>, NassimError> {
        ensure_parsable(self.vendor(), url, doc)?;
        let layout = Layout::TitledSiblings {
            class: self.section_class,
        };
        let [format, function, views, params, examples] = extract(
            doc,
            layout,
            [
                &["Format"],
                &["Function"],
                &["Views"],
                &["Parameters"],
                &["Examples"],
            ],
        );
        if format.is_empty() {
            return Ok(None); // preface / index page
        }
        let clis: Vec<String> = format
            .iter()
            .map(|&n| cli_text(doc, n, self.param_classes))
            .filter(|s| !s.is_empty())
            .collect();
        let parent_views: Vec<String> = views
            .iter()
            .map(|&n| doc.text_of(n))
            .filter(|s| !s.is_empty())
            .collect();
        let para_def: Vec<ParaDef> = params
            .iter()
            .filter_map(|&n| labelled_definition(doc, n, self.param_classes))
            .map(|(name, info)| ParaDef::new(name, info))
            .collect();
        Ok(Some(ParsedPage {
            url: url.to_string(),
            entry: Arc::new(CorpusEntry {
                clis,
                func_def: joined_text(doc, &function),
                parent_views,
                para_def,
                examples: example_snippets(doc, &examples),
                source: url.to_string(),
            }),
            context_path: None,
            enters_view: None,
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
            &style::vendor("helix").unwrap(),
            &Catalog::base(),
            &manualgen::GenOptions {
                seed: 21,
                syntax_error_rate: 0.0,
                ambiguity_rate: 0.0,
                ..Default::default()
            },
        )
    }

    #[test]
    fn parses_clean_manual_without_violations() {
        let m = manual();
        let run = run_parser(
            &ParserHelix::new(),
            m.pages.iter().map(|p| (p.url.as_str(), p.html.as_str())),
        );
        assert_eq!(run.report.skipped, 1, "only the preface is skipped");
        assert!(run.report.passes(), "{}", run.report);
        assert_eq!(run.pages.len(), m.catalog.commands.len());
    }

    #[test]
    fn reconstructs_paper_style_corpus_entry() -> Result<(), Box<dyn Error>> {
        let m = manual();
        let page = m
            .pages
            .iter()
            .find(|p| p.command_key == "bgp.peer-group")
            .ok_or("bgp.peer-group page missing")?;
        let parsed = ParserHelix::new()
            .parse_page(&page.url, &page.html)?
            .ok_or("page skipped")?;
        assert_eq!(
            parsed.entry.clis,
            vec![
                "peer <peer-address> group <group-name>".to_string(),
                "undo peer <peer-address> group <group-name>".to_string(),
            ]
        );
        // bgp.peer-group is a multi-view command: one `Views` line per
        // working view, in catalog order.
        assert_eq!(
            parsed.entry.parent_views,
            vec!["BGP view".to_string(), "BGP-IPv4 unicast view".to_string()]
        );
        assert_eq!(parsed.entry.para_def.len(), 2);
        assert_eq!(parsed.entry.para_def[0].paras, "peer-address");
        assert!(!parsed.entry.examples.is_empty());
        // Example shows the opener with indentation.
        let snippet = &parsed.entry.examples[0];
        assert!(snippet[0].starts_with("bgp "));
        assert!(snippet.last().ok_or("empty snippet")?.starts_with(" peer "));
        Ok(())
    }

    #[test]
    fn undo_forms_documented_on_same_page() -> Result<(), Box<dyn Error>> {
        let m = manual();
        let page = m
            .pages
            .iter()
            .find(|p| p.command_key == "vlan.create")
            .ok_or("vlan.create page missing")?;
        let parsed = ParserHelix::new()
            .parse_page(&page.url, &page.html)?
            .ok_or("page skipped")?;
        assert_eq!(parsed.entry.clis.len(), 2);
        assert!(parsed.entry.clis[1].starts_with("undo vlan"));
        Ok(())
    }

    #[test]
    fn preface_is_skipped() -> Result<(), Box<dyn Error>> {
        let m = manual();
        assert!(ParserHelix::new()
            .parse_page(&m.pages[0].url, &m.pages[0].html)?
            .is_none());
        Ok(())
    }

    #[test]
    fn misconfigured_param_class_caught_by_selfcheck() {
        // Simulate the Appendix-B scenario: parser configured with a wrong
        // parameter class treats params as keywords; the self-check test
        // must flag it.
        let m = manual();
        let broken = ParserHelix {
            param_classes: &["not-the-real-class"],
            ..ParserHelix::new()
        };
        let run = run_parser(
            &broken,
            m.pages.iter().map(|p| (p.url.as_str(), p.html.as_str())),
        );
        assert!(!run.report.passes());
        assert!(run.report.violation_count() > 50);
    }
}
