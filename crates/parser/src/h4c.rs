//! `Parser_h4c` — the H3C-style manual parser.
//!
//! H4C manuals use a *single* CSS class (`Command`) for every section
//! (the Table-1 H3C column); sections are discriminated by the bold
//! header text inside each block (`Syntax`, `View`, `Parameters`,
//! `Description`, `Examples`).

use crate::extract::{
    cli_text, example_snippets, extract, joined_text, labelled_definition, Layout,
};
use crate::framework::{ensure_parsable, ParsedPage, VendorParser};
use nassim_corpus::{CorpusEntry, ParaDef};
use nassim_diag::NassimError;
use nassim_html::Document;
use std::sync::Arc;

/// Class configuration for the h4c parser.
pub struct ParserH4c {
    /// The one section class.
    pub block_class: &'static str,
    /// Classes marking parameter spans.
    pub param_classes: &'static [&'static str],
}

impl ParserH4c {
    /// The full configuration.
    pub fn new() -> ParserH4c {
        ParserH4c {
            block_class: "Command",
            param_classes: &["cmdarg"],
        }
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
        // Each block is labelled by its leading `<b>`.
        let layout = Layout::TitledBlocks {
            class: self.block_class,
            header_tag: "b",
        };
        let [syntax, views, params, description, examples] = extract(
            doc,
            layout,
            [
                &["Syntax"],
                &["View"],
                &["Parameters"],
                &["Description"],
                &["Examples"],
            ],
        );
        if syntax.is_empty() {
            return Ok(None);
        }
        let is_element = |n: &&_| doc.element(**n).is_some();
        let clis: Vec<String> = syntax
            .iter()
            .filter(is_element)
            .map(|&n| cli_text(doc, n, self.param_classes))
            .filter(|s| !s.is_empty())
            .collect();
        let parent_views: Vec<String> = views
            .iter()
            .filter(is_element)
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
                func_def: joined_text(doc, description.iter().filter(is_element)),
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
