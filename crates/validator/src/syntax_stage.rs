//! Stage 1 — formal syntax validation of parsed corpora (§5.1).
//!
//! Every `CLIs` field of every corpus entry is checked against the
//! command-template grammar. Failures carry the classified diagnosis and
//! candidate fixes from `nassim-syntax`, plus provenance (page URL, CLI
//! index), so "the experts can intervene in a more targeted and efficient
//! way".

use crate::hierarchy::{compile_parsed, PageGraphs};
use nassim_corpus::Fnv1a;
use nassim_parser::ParsedPage;
use nassim_syntax::template::CliStruc;
use nassim_syntax::{parse_template, validate_template, SyntaxDiagnosis};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// One failed CLI template.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntaxFailure {
    /// Source page URL.
    pub url: String,
    /// Index of the offending form within the page's `CLIs` list.
    pub cli_index: usize,
    /// The template text as parsed from the manual.
    pub cli: String,
    /// Classified diagnosis with candidate fixes.
    pub diagnosis: SyntaxDiagnosis,
}

/// The stage-1 audit result.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SyntaxAudit {
    /// Total CLI forms examined.
    pub total_clis: usize,
    /// All failures, in page order.
    pub failures: Vec<SyntaxFailure>,
}

impl SyntaxAudit {
    /// Number of invalid CLI commands (the Table-4 row).
    pub fn invalid_count(&self) -> usize {
        self.failures.len()
    }

    /// Number of distinct pages with at least one failure.
    pub fn affected_pages(&self) -> usize {
        let mut urls: Vec<&str> = self.failures.iter().map(|f| f.url.as_str()).collect();
        urls.sort_unstable();
        urls.dedup();
        urls.len()
    }

    /// Every failure as a spanned [`nassim_diag::Diagnostic`]: stage
    /// `syntax`, severity warning, span pointing at the offending column
    /// of the template on its source page.
    pub fn diagnostics(&self) -> Vec<nassim_diag::Diagnostic> {
        self.failures
            .iter()
            .map(|f| f.diagnosis.to_diagnostic(&f.url))
            .collect()
    }

    /// Render the expert-facing summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "syntax audit: {}/{} CLI forms invalid across {} pages\n",
            self.invalid_count(),
            self.total_clis,
            self.affected_pages()
        );
        for f in &self.failures {
            out.push_str(&format!(
                "  {} [CLIs[{}]]: {} — `{}`\n",
                f.url, f.cli_index, f.diagnosis, f.cli
            ));
            for fix in &f.diagnosis.candidate_fixes {
                out.push_str(&format!("      candidate fix: {fix}\n"));
            }
        }
        out
    }
}

/// Pages per worker chunk: template validation is microseconds per
/// page, so per-item fan-out loses to serial (measured 0.68× at 4
/// workers); chunks amortise the spawn cost.
const AUDIT_MIN_CHUNK: usize = 64;

/// Audit every CLI form of every parsed page.
///
/// Pages are audited in parallel; per-page results are folded back in
/// page order, so the failure list is identical to a serial sweep.
pub fn audit_corpus<P: Borrow<ParsedPage> + Sync>(pages: &[P]) -> SyntaxAudit {
    let per_page: Vec<PageSyntax> =
        nassim_exec::par_map_chunked(pages, AUDIT_MIN_CHUNK, |_, p| audit_page(p.borrow()));
    fold_page_syntax(per_page.iter())
}

/// One page's share of the stage-1 audit: an immutable artifact that is
/// a pure function of the page's URL and `CLIs` list ([`syntax_key`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PageSyntax {
    /// CLI forms examined on this page.
    pub cli_count: usize,
    /// Failures, in `CLIs` order.
    pub failures: Vec<SyntaxFailure>,
}

/// Content key of one page's syntax artifact: FNV-1a over the URL and
/// every CLI form, length-framed.
pub fn syntax_key(page: &ParsedPage) -> u64 {
    let mut h = Fnv1a::new();
    h.write_field(&page.url);
    for cli in &page.entry.clis {
        h.write_field(cli);
    }
    h.finish()
}

/// Audit the pages a store's syntax cache missed in one chunked
/// fan-out, as [`audit_corpus`] does; one result per page, in input
/// order. Where a page's flag is set, its template graphs are compiled
/// from the structures the audit built. Only a
/// template the audit rejects is parsed again, so which templates get a
/// graph is exactly what [`crate::compile_graphs`] decides.
pub fn audit_misses(misses: &[(&ParsedPage, bool)]) -> Vec<(PageSyntax, Option<PageGraphs>)> {
    nassim_exec::par_map_chunked(misses, AUDIT_MIN_CHUNK, |_, &(page, compile)| {
        if !compile {
            return (audit_page(page), None);
        }
        let mut strucs = Vec::with_capacity(page.entry.clis.len());
        let audit = audit_clis(page, |cli, struc| {
            strucs.push(struc.or_else(|| parse_template(cli).ok()));
        });
        (audit, Some(compile_parsed(&page.entry.clis, strucs)))
    })
}

/// Audit one page's CLI forms.
pub fn audit_page(page: &ParsedPage) -> PageSyntax {
    audit_clis(page, |_, _| {})
}

/// Audit one page's CLI forms, handing each form and the structure its
/// validation built (`None` when rejected) to `parsed`, in order.
fn audit_clis(page: &ParsedPage, mut parsed: impl FnMut(&str, Option<CliStruc>)) -> PageSyntax {
    let mut failures = Vec::new();
    for (i, cli) in page.entry.clis.iter().enumerate() {
        match validate_template(cli) {
            Ok(struc) => parsed(cli, Some(struc)),
            Err(diagnosis) => {
                failures.push(SyntaxFailure {
                    url: page.url.clone(),
                    cli_index: i,
                    cli: cli.clone(),
                    diagnosis,
                });
                parsed(cli, None);
            }
        }
    }
    PageSyntax {
        cli_count: page.entry.clis.len(),
        failures,
    }
}

/// Fold per-page audits (in page order) into the corpus-level result.
pub fn fold_page_syntax<'a>(per_page: impl Iterator<Item = &'a PageSyntax>) -> SyntaxAudit {
    let mut audit = SyntaxAudit::default();
    for page in per_page {
        audit.total_clis += page.cli_count;
        audit.failures.extend(page.failures.iter().cloned());
    }
    audit
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassim_corpus::CorpusEntry;
    use std::sync::Arc;

    fn page(url: &str, clis: &[&str]) -> ParsedPage {
        ParsedPage {
            url: url.to_string(),
            entry: Arc::new(CorpusEntry {
                clis: clis.iter().map(|s| s.to_string()).collect(),
                func_def: String::new(),
                parent_views: vec!["system view".into()],
                para_def: Vec::new(),
                examples: Vec::new(),
                source: url.to_string(),
            }),
            context_path: None,
            enters_view: None,
        }
    }

    #[test]
    fn clean_corpus_audits_clean() {
        let audit = audit_corpus(&[
            page("u1", &["vlan <vlan-id>", "undo vlan <vlan-id>"]),
            page("u2", &["show vlan [ <vlan-id> ]"]),
        ]);
        assert_eq!(audit.total_clis, 3);
        assert_eq!(audit.invalid_count(), 0);
    }

    #[test]
    fn failures_carry_provenance() {
        let audit = audit_corpus(&[
            page("u1", &["good <x>"]),
            page("u2", &["bad { template", "also ] bad"]),
        ]);
        assert_eq!(audit.invalid_count(), 2);
        assert_eq!(audit.affected_pages(), 1);
        assert_eq!(audit.failures[0].url, "u2");
        assert_eq!(audit.failures[0].cli_index, 0);
        assert_eq!(audit.failures[1].cli_index, 1);
    }

    #[test]
    fn render_mentions_fixes() {
        let audit = audit_corpus(&[page("u", &["show x ] brief"])]);
        let text = audit.render();
        assert!(text.contains("candidate fix"), "{text}");
    }

    #[test]
    fn detects_all_injected_defects_end_to_end() {
        use nassim_datasets::{catalog::Catalog, manualgen, style};
        use nassim_parser::{helix::ParserHelix, run_parser};
        let m = manualgen::generate(
            &style::vendor("helix").unwrap(),
            &Catalog::base(),
            &manualgen::GenOptions {
                seed: 99,
                syntax_error_rate: 0.08,
                ambiguity_rate: 0.0,
                ..Default::default()
            },
        );
        assert!(m.injected_syntax_errors() > 0);
        let run = run_parser(
            &ParserHelix::new(),
            m.pages.iter().map(|p| (p.url.as_str(), p.html.as_str())),
        );
        let audit = audit_corpus(&run.pages);
        // Every injected error is caught (detection recall = 100%)…
        let injected_urls: Vec<&str> = m
            .defects
            .iter()
            .filter_map(|d| match d {
                manualgen::InjectedDefect::SyntaxError { page_url, .. } => Some(page_url.as_str()),
                _ => None,
            })
            .collect();
        for url in &injected_urls {
            assert!(
                audit.failures.iter().any(|f| f.url == *url),
                "injected error at {url} not detected"
            );
        }
        // …and nothing else is flagged (precision = 100%: the generator
        // only breaks what it records).
        for f in &audit.failures {
            assert!(
                injected_urls.contains(&f.url.as_str()),
                "false positive at {}: {}",
                f.url,
                f.diagnosis
            );
        }
    }
}
