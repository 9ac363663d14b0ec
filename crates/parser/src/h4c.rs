//! `Parser_h4c` — the H3C-style manual parser.
//!
//! H4C manuals use a *single* CSS class (`Command`) for every section
//! (the Table-1 H3C column); sections are discriminated by the bold
//! header text inside each block (`Syntax`, `View`, `Parameters`,
//! `Description`, `Examples`).

use crate::extract::{cli_text, example_snippets, labelled_definition};
use crate::framework::{ensure_parsable, ParsedPage, VendorParser};
use nassim_corpus::{CorpusEntry, ParaDef};
use nassim_diag::NassimError;
use nassim_html::{Document, NodeId};
use std::sync::Arc;

/// Class configuration for the h4c parser.
pub struct ParserH4c {
    /// The one section class.
    pub block_class: String,
    /// Classes marking parameter spans.
    pub param_classes: Vec<String>,
}

impl ParserH4c {
    /// The full configuration.
    pub fn new() -> ParserH4c {
        ParserH4c {
            block_class: "Command".into(),
            param_classes: vec!["cmdarg".into()],
        }
    }

    /// The section block whose leading `<b>` text equals `label`; returns
    /// the block's content nodes (header excluded).
    fn block(&self, doc: &Document, label: &str) -> Vec<NodeId> {
        for div in doc.select_class(&self.block_class) {
            let header = doc
                .children(div)
                .find(|&id| doc.element(id).map(|e| e.name == "b").unwrap_or(false));
            let Some(h) = header else { continue };
            if doc.text_of(h) == label {
                return doc.children(div).filter(|&id| id != h).collect();
            }
        }
        Vec::new()
    }
}

impl Default for ParserH4c {
    fn default() -> Self {
        ParserH4c::new()
    }
}

impl VendorParser for ParserH4c {
    fn vendor(&self) -> &str {
        "h4c"
    }

    fn parse_doc(&self, url: &str, doc: &Document) -> Result<Option<ParsedPage>, NassimError> {
        ensure_parsable(self.vendor(), url, doc)?;
        let syntax = self.block(doc, "Syntax");
        if syntax.is_empty() {
            return Ok(None);
        }
        let params: Vec<&str> = self.param_classes.iter().map(String::as_str).collect();
        let clis: Vec<String> = syntax
            .iter()
            .filter(|&&n| doc.element(n).is_some())
            .map(|&n| cli_text(doc, n, &params))
            .filter(|s| !s.is_empty())
            .collect();
        let parent_views: Vec<String> = self
            .block(doc, "View")
            .iter()
            .filter(|&&n| doc.element(n).is_some())
            .map(|&n| doc.text_of(n))
            .filter(|s| !s.is_empty())
            .collect();
        let para_def: Vec<ParaDef> = self
            .block(doc, "Parameters")
            .iter()
            .filter_map(|&n| labelled_definition(doc, n, &params))
            .map(|(name, info)| ParaDef::new(name, info))
            .collect();
        let func_def = self
            .block(doc, "Description")
            .iter()
            .filter(|&&n| doc.element(n).is_some())
            .map(|&n| doc.text_of(n))
            .collect::<Vec<_>>()
            .join(" ");
        let examples = example_snippets(doc, &self.block(doc, "Examples"));
        Ok(Some(ParsedPage {
            url: url.to_string(),
            entry: Arc::new(CorpusEntry {
                clis,
                func_def,
                parent_views,
                para_def,
                examples,
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
            &style::vendor("h4c").unwrap(),
            &Catalog::base(),
            &manualgen::GenOptions {
                seed: 51,
                syntax_error_rate: 0.0,
                ambiguity_rate: 0.0,
                ..Default::default()
            },
        )
    }

    #[test]
    fn full_parser_passes_tdd() {
        let m = manual();
        let run = run_parser(
            &ParserH4c::new(),
            m.pages.iter().map(|p| (p.url.as_str(), p.html.as_str())),
        );
        assert!(run.report.passes(), "{}", run.report);
        assert_eq!(run.pages.len(), m.catalog.commands.len());
    }

    #[test]
    fn single_class_blocks_discriminated_by_header() -> Result<(), Box<dyn Error>> {
        let m = manual();
        let page = m
            .pages
            .iter()
            .find(|p| p.command_key == "stp.root")
            .ok_or("stp.root page missing")?;
        let parsed = ParserH4c::new()
            .parse_page(&page.url, &page.html)?
            .ok_or("page skipped")?;
        assert_eq!(
            parsed.entry.clis[0],
            "stp instance <instance-id> root { primary | secondary }"
        );
        assert_eq!(parsed.entry.parent_views, vec!["system view"]);
        assert!(parsed.entry.func_def.contains("root bridge"));
        assert_eq!(parsed.entry.para_def.len(), 1);
        Ok(())
    }

    #[test]
    fn examples_extracted_from_blocks() -> Result<(), Box<dyn Error>> {
        let m = manual();
        let page = m
            .pages
            .iter()
            .find(|p| p.command_key == "ospf.network")
            .ok_or("ospf.network page missing")?;
        let parsed = ParserH4c::new()
            .parse_page(&page.url, &page.html)?
            .ok_or("page skipped")?;
        assert!(!parsed.entry.examples.is_empty());
        // ospf.network sits two views deep: snippet has three lines.
        assert_eq!(parsed.entry.examples[0].len(), 3);
        Ok(())
    }
}
