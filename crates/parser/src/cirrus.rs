//! `Parser_cirrus` — the Cisco-style manual parser.
//!
//! Cirrus pages address sections by paragraph CSS class directly
//! (`pCE_CmdEnv`, `pB1_Body1`, …), with the §2.2 wrinkle that the CLI
//! class and the keyword/parameter span classes are *inconsistent across
//! pages*. The configuration therefore holds class **lists**; discovering
//! the variant classes is exactly the TDD loop the paper describes
//! ("it is quickly found that the Cisco manual interchangeably use
//! 'cKeyword', 'cBold' and 'cCN_CmdName'").

use crate::extract::{cli_text, example_snippets, labelled_definition};
use crate::framework::{ensure_parsable, ParsedPage, VendorParser};
use nassim_corpus::{CorpusEntry, ParaDef};
use nassim_diag::NassimError;
use nassim_html::Document;
use std::sync::Arc;

/// Class configuration for the cirrus parser.
pub struct ParserCirrus {
    /// Classes of CLI paragraphs (primary + variants).
    pub clis_classes: Vec<String>,
    /// Class of the function-description paragraph.
    pub func_class: String,
    /// Class of the command-modes paragraph.
    pub views_class: String,
    /// Class of parameter-definition paragraphs.
    pub para_class: String,
    /// Classes marking parameter spans (primary + variants).
    pub param_classes: Vec<String>,
}

impl ParserCirrus {
    /// The full configuration, as refined through the TDD loop.
    pub fn new() -> ParserCirrus {
        ParserCirrus {
            clis_classes: vec!["pCE_CmdEnv".into(), "pCENB_CmdEnv_NoBold".into()],
            func_class: "pB1_Body1".into(),
            views_class: "pCRCM_CmdRefCmdModes".into(),
            para_class: "pCRSD_CmdRefSynDesc".into(),
            param_classes: vec!["cParamName".into(), "cItalic".into()],
        }
    }

    /// The naive first-iteration configuration a developer would write
    /// from sampling a few pages — primary classes only. Used by tests and
    /// the TDD-loop example to demonstrate report-guided refinement.
    pub fn naive() -> ParserCirrus {
        ParserCirrus {
            clis_classes: vec!["pCE_CmdEnv".into()],
            func_class: "pB1_Body1".into(),
            views_class: "pCRCM_CmdRefCmdModes".into(),
            para_class: "pCRSD_CmdRefSynDesc".into(),
            param_classes: vec!["cParamName".into()],
        }
    }
}

impl Default for ParserCirrus {
    fn default() -> Self {
        ParserCirrus::new()
    }
}

impl VendorParser for ParserCirrus {
    fn vendor(&self) -> &str {
        "cirrus"
    }

    fn parse_doc(&self, url: &str, doc: &Document) -> Result<Option<ParsedPage>, NassimError> {
        ensure_parsable(self.vendor(), url, doc)?;
        let params: Vec<&str> = self.param_classes.iter().map(String::as_str).collect();
        let cli_nodes: Vec<_> = doc
            .descendants(doc.root())
            .filter(|&id| {
                doc.element(id)
                    .map(|e| self.clis_classes.iter().any(|c| e.has_class(c)))
                    .unwrap_or(false)
            })
            .collect();
        // Pages without any CLI paragraph are non-command pages — but only
        // when they also lack the other command sections (a page whose CLI
        // class we have not configured yet must still be *parsed* so the
        // report can flag it).
        let has_sections = doc.select_class(&self.views_class).next().is_some();
        if cli_nodes.is_empty() && !has_sections {
            return Ok(None);
        }
        let clis: Vec<String> = cli_nodes
            .iter()
            .map(|&n| cli_text(doc, n, &params))
            .filter(|s| !s.is_empty())
            .collect();
        let func_def = doc
            .select_class(&self.func_class)
            .map(|n| doc.text_of(n))
            .collect::<Vec<_>>()
            .join(" ");
        let parent_views: Vec<String> = doc
            .select_class(&self.views_class)
            .map(|n| doc.text_of(n))
            .filter(|s| !s.is_empty())
            .collect();
        let para_def: Vec<ParaDef> = doc
            .select_class(&self.para_class)
            .filter_map(|n| labelled_definition(doc, n, &params))
            .map(|(name, info)| ParaDef::new(name, info))
            .collect();
        let example_nodes: Vec<_> = doc
            .descendants(doc.root())
            .filter(|&id| {
                doc.element(id)
                    .map(|e| e.name == "pre" && e.has_class("example-snippet"))
                    .unwrap_or(false)
            })
            .collect();
        let examples = example_snippets(doc, &example_nodes);
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

    fn manual(seed: u64) -> manualgen::Manual {
        manualgen::generate(
            &style::vendor("cirrus").unwrap(),
            &Catalog::base(),
            &manualgen::GenOptions {
                seed,
                syntax_error_rate: 0.0,
                ambiguity_rate: 0.0,
                ..Default::default()
            },
        )
    }

    #[test]
    fn full_parser_passes_tdd() {
        let m = manual(31);
        let run = run_parser(
            &ParserCirrus::new(),
            m.pages.iter().map(|p| (p.url.as_str(), p.html.as_str())),
        );
        assert!(run.report.passes(), "{}", run.report);
        assert_eq!(run.pages.len(), m.catalog.commands.len());
    }

    #[test]
    fn vendor_wording_is_parsed_verbatim() -> Result<(), Box<dyn Error>> {
        let m = manual(31);
        let page = m
            .pages
            .iter()
            .find(|p| p.command_key == "display.vlan")
            .ok_or("display.vlan page missing")?;
        let parsed = ParserCirrus::new()
            .parse_page(&page.url, &page.html)?
            .ok_or("page skipped")?;
        // cirrus says `show`, not `display` (Table 2).
        assert_eq!(parsed.entry.clis[0], "show vlan [ <vlanid> ]");
        assert!(parsed.entry.func_def.starts_with("Use this command to"));
        assert!(parsed.entry.parent_views[0].ends_with("configuration mode"));
        Ok(())
    }

    #[test]
    fn naive_parser_fails_tdd_and_report_guides_the_fix() {
        // The §4 workflow: iteration 1 (naive classes) produces violations;
        // the report points at pages using variant classes; iteration 2
        // (full classes) passes.
        let m = manual(31);
        let pages = || m.pages.iter().map(|p| (p.url.as_str(), p.html.as_str()));
        let naive_run = run_parser(&ParserCirrus::naive(), pages());
        assert!(
            !naive_run.report.passes(),
            "seed 31 produced no variant-class pages; report: {}",
            naive_run.report
        );
        let full_run = run_parser(&ParserCirrus::new(), pages());
        assert!(full_run.report.passes(), "{}", full_run.report);
        // The fix strictly reduces violations to zero.
        assert!(naive_run.report.violation_count() > 0);
        assert_eq!(full_run.report.violation_count(), 0);
    }

    #[test]
    fn examples_survive_with_indentation() -> Result<(), Box<dyn Error>> {
        let m = manual(31);
        let page = m
            .pages
            .iter()
            .find(|p| p.command_key == "bgp.peer-as")
            .ok_or("bgp.peer-as page missing")?;
        let parsed = ParserCirrus::new()
            .parse_page(&page.url, &page.html)?
            .ok_or("page skipped")?;
        let snippet = &parsed.entry.examples[0];
        assert!(snippet.len() >= 2);
        assert!(snippet[1].starts_with(' '), "lost indentation: {snippet:?}");
        Ok(())
    }
}
