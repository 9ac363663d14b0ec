//! The parser framework: the `VendorParser` trait and the TDD harness.
//!
//! The paper's base `Parser` class contributes two things to every
//! subclass: a consolidated testing scheme (Appendix B) and report
//! generation that guides parser improvement. [`run_parser`] is that base
//! class: it runs any [`VendorParser`] over a page set, applies the
//! corpus-format tests to each parsed entry, and produces the two-part
//! [`TddReport`] of §4 — a *summary of key attributes* (pages with
//! problematic/empty `CLIs` fields, with links back to the manual) and a
//! *status of corpus* (every problematic field of every entry).

use nassim_corpus::{digest64, CorpusEntry, CorpusViolation, Fnv1a};
use nassim_diag::{Diagnostic, NassimError, Severity, SourceSpan, Stage};
use nassim_html::{BudgetExhausted, Document, IngestBudget, MarkupDefect};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// One successfully parsed manual page.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParsedPage {
    /// Source page URL (kept for report links and VDM provenance).
    pub url: String,
    /// The vendor-independent corpus entry, shared with the VDM corpus
    /// built from this page (a build copies no entries).
    pub entry: Arc<CorpusEntry>,
    /// For vendors whose manuals state hierarchy explicitly (norsk): the
    /// view-name path from the root view to the command's working view.
    pub context_path: Option<Vec<String>>,
    /// For explicit-hierarchy vendors: the view this command opens, as
    /// stated by the manual's command-tree section.
    pub enters_view: Option<String>,
}

/// A vendor-specific manual parser (`Parser_<vendor>` in the paper).
///
/// Implementations are intentionally small — a table of CSS classes plus
/// composition of `extract` components; the framework supplies testing
/// and reporting.
///
/// `Sync` is a supertrait so the harness can fan pages out across
/// [`nassim_exec`] workers holding `&dyn VendorParser`; parsers are
/// stateless lookup tables, so this costs implementations nothing.
pub trait VendorParser: Sync {
    /// Vendor identifier, e.g. `helix`.
    fn vendor(&self) -> &str;

    /// Parse one already-built DOM. `Ok(None)` marks a page that does
    /// not document a command (prefaces, chapter indexes); `Err` marks a
    /// page the parser cannot make sense of at all. [`run_parser`] turns
    /// the error into a diagnostic and keeps going — one damaged page
    /// never aborts a vendor run.
    fn parse_doc(&self, url: &str, doc: &Document) -> Result<Option<ParsedPage>, NassimError>;

    /// Parse one raw-HTML page. Builds the DOM and discards the markup
    /// defect report; [`run_parser`] keeps it and converts defects to
    /// spanned diagnostics.
    fn parse_page(&self, url: &str, html: &str) -> Result<Option<ParsedPage>, NassimError> {
        self.parse_doc(url, &Document::parse(html))
    }
}

/// Reject documents with no element markup at all — binary garbage or a
/// truncated download that tokenized to plain text. Vendor parsers call
/// this first so every implementation fails the same way.
pub fn ensure_parsable(vendor: &str, url: &str, doc: &Document) -> Result<(), NassimError> {
    let has_elements = doc
        .descendants(doc.root())
        .any(|id| doc.element(id).is_some());
    if has_elements {
        Ok(())
    } else {
        Err(NassimError::ParsePage {
            vendor: vendor.to_string(),
            url: url.to_string(),
            reason: "page contains no HTML elements".to_string(),
        })
    }
}

/// Why a page was pulled out of the run instead of parsed.
#[derive(Debug, Clone)]
pub enum QuarantineReason {
    /// The page exceeded an [`IngestBudget`] ceiling during DOM build.
    BudgetExhausted(BudgetExhausted),
    /// The vendor parser panicked on this page; the payload is preserved.
    Panic { payload: String },
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineReason::BudgetExhausted(e) => e.fmt(f),
            QuarantineReason::Panic { payload } => {
                write!(f, "parser worker panicked: {payload}")
            }
        }
    }
}

/// One page removed from the run — over budget or parser panic. The
/// rest of the manual still assimilates; quarantined pages surface as
/// `Stage::Parse` error diagnostics and fail [`TddReport::passes`].
#[derive(Debug, Clone)]
pub struct Quarantined {
    pub url: String,
    pub reason: QuarantineReason,
}

/// One entry of the "summary of key attributes" report part.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KeyAttrProblem {
    pub url: String,
    pub reason: String,
}

/// One entry of the "status of corpus" report part.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusStatus {
    pub url: String,
    pub violations: Vec<CorpusViolation>,
}

/// The TDD violation report (§4, report structure of the paper).
#[derive(Debug, Clone, Default)]
pub struct TddReport {
    pub total_pages: usize,
    pub parsed: usize,
    pub skipped: usize,
    /// Pages that could not be parsed at all (damaged markup, parser
    /// error); each has a matching diagnostic in [`ParseRun::diagnostics`].
    pub failed: usize,
    /// Pages removed from the run entirely — over an ingestion budget or
    /// a parser panic; details in [`ParseRun::quarantined`].
    pub quarantined: usize,
    /// URLs counted in `skipped` — pages the parser deliberately
    /// declined (prefaces, indexes) with clean markup. Recording them
    /// makes the page partition auditable: every input URL is exactly
    /// one of parsed / skipped / failed / quarantined.
    pub skipped_pages: Vec<String>,
    /// Part 1: pages whose `CLIs` field is problematic or empty.
    pub key_attr_problems: Vec<KeyAttrProblem>,
    /// Part 2: all problematic fields of each corpus entry.
    pub corpus_status: Vec<CorpusStatus>,
}

impl TddReport {
    /// True when every parsed entry passed every Appendix-B test.
    pub fn passes(&self) -> bool {
        self.failed == 0
            && self.quarantined == 0
            && self.key_attr_problems.is_empty()
            && self.corpus_status.is_empty()
    }

    /// Total violation count across both report parts.
    pub fn violation_count(&self) -> usize {
        self.key_attr_problems.len()
            + self
                .corpus_status
                .iter()
                .map(|s| s.violations.len())
                .sum::<usize>()
    }
}

impl fmt::Display for TddReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TDD report: {}/{} pages parsed ({} skipped, {} failed, {} quarantined), {} violations",
            self.parsed,
            self.total_pages,
            self.skipped,
            self.failed,
            self.quarantined,
            self.violation_count()
        )?;
        if !self.key_attr_problems.is_empty() {
            writeln!(f, "— summary of key attributes —")?;
            for p in &self.key_attr_problems {
                writeln!(f, "  {}: {}", p.url, p.reason)?;
            }
        }
        if !self.corpus_status.is_empty() {
            writeln!(f, "— status of corpus —")?;
            for s in &self.corpus_status {
                for v in &s.violations {
                    writeln!(f, "  {}: {}", s.url, v)?;
                }
            }
        }
        Ok(())
    }
}

/// The outcome of running a parser over a manual.
#[derive(Debug, Clone)]
pub struct ParseRun {
    /// The parsed pages in page order, shared with the [`PageRecord`]s
    /// they were folded from: a fold over cached records bumps
    /// reference counts instead of copying pages.
    pub pages: Vec<Arc<ParsedPage>>,
    pub report: TddReport,
    /// Structured findings: markup defects with page-URL + byte-offset
    /// spans, and per-page parse failures. Never aborts the run.
    pub diagnostics: Vec<Diagnostic>,
    /// Pages removed from the run — over budget or parser panic. Each
    /// also appears as a `Stage::Parse` error in `diagnostics`.
    pub quarantined: Vec<Quarantined>,
}

/// One markup defect, reduced to what the diagnostics need (message +
/// byte offset) so parse artifacts serialize without carrying the DOM
/// layer's defect taxonomy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefectRecord {
    pub message: String,
    pub offset: usize,
}

impl DefectRecord {
    fn from_defect(d: &MarkupDefect) -> DefectRecord {
        DefectRecord {
            message: d.kind.to_string(),
            offset: d.offset,
        }
    }
}

/// How one page left the parser.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PageDisposition {
    /// The page produced a corpus entry (shared with every
    /// [`ParseRun`] folded from this record).
    Parsed { page: Arc<ParsedPage> },
    /// The parser deliberately declined the page (preface, index).
    Skipped,
    /// The parser rejected the page outright.
    Rejected { error: NassimError },
    /// The DOM build hit an [`IngestBudget`] ceiling.
    OverBudget { exhausted: BudgetExhausted },
    /// The vendor parser panicked on this page.
    Panicked { payload: String },
}

/// The complete, immutable per-page parse artifact: outcome, markup
/// defects and Appendix-B audit records. A `PageRecord` is a pure
/// function of `(vendor, url, html, budget)` — see [`page_key`] — so
/// the artifact store can reuse it verbatim whenever those inputs are
/// unchanged, and [`fold_page_records`] rebuilds a [`ParseRun`] from
/// any mix of fresh and cached records that is identical to a full run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PageRecord {
    pub url: String,
    pub disposition: PageDisposition,
    pub defects: Vec<DefectRecord>,
    pub key_attr: Option<KeyAttrProblem>,
    pub status: Option<CorpusStatus>,
}

/// Content key of one page's parse artifact: FNV-1a over the vendor,
/// URL, raw HTML and every budget ceiling, length-framed so field
/// boundaries are unambiguous. The HTML — the only bulky field, hashed
/// for every page of every revision — enters as its length and its
/// word-at-a-time [`digest64`] rather than byte by byte.
pub fn page_key(vendor: &str, url: &str, html: &str, budget: &IngestBudget) -> u64 {
    let mut h = Fnv1a::new();
    h.write_field(vendor).write_field(url);
    h.write_usize(html.len()).write_u64(digest64(html.as_bytes()));
    h.write_usize(budget.max_bytes)
        .write_usize(budget.max_tokens)
        .write_usize(budget.max_nodes)
        .write_usize(budget.max_depth);
    h.finish()
}

fn markup_diag(severity: Severity, vendor: &str, url: &str, defect: &DefectRecord) -> Diagnostic {
    Diagnostic::new(severity, Stage::Html, defect.message.clone())
        .with_span(SourceSpan::point(url, defect.offset))
        .with_vendor(vendor)
}

/// Pages per worker chunk: parsing one synthetic page is tens of
/// microseconds, far below thread spawn cost, so workers take pages in
/// batches (BENCH_parallel.json showed per-item fan-out losing to
/// serial at 0.56×).
const PARSE_MIN_CHUNK: usize = 32;

/// Run `parser` over `(url, html)` pages with the default (generous)
/// [`IngestBudget`] — the `parsing()` + `validating()` workflow of
/// Figure 2. See [`run_parser_with`].
pub fn run_parser<'a>(
    parser: &dyn VendorParser,
    pages: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> ParseRun {
    run_parser_with(parser, pages, &IngestBudget::default())
}

/// Run `parser` over `(url, html)` pages under `budget` and validate
/// every parsed entry.
///
/// Pages are parsed and audited in parallel with panic isolation
/// ([`nassim_exec::par_map_isolated`]); the per-page results are folded
/// back in page order, so the report and page list are identical to a
/// serial run. Degradation is per page, never per run:
///
/// - parser rejects the page, or it skips with damaged markup → a
///   diagnostic and a `failed` tick;
/// - the page blows an ingestion budget ceiling, or the vendor parser
///   panics on it → the page is *quarantined*: removed from the run,
///   recorded in [`ParseRun::quarantined`], surfaced as a
///   `Stage::Parse` error diagnostic;
///
/// and the rest of the manual still parses.
pub fn run_parser_with<'a>(
    parser: &dyn VendorParser,
    pages: impl IntoIterator<Item = (&'a str, &'a str)>,
    budget: &IngestBudget,
) -> ParseRun {
    let pages: Vec<(&str, &str)> = pages.into_iter().collect();
    let records = page_records(parser, &pages, budget);
    fold_page_records(parser.vendor(), records.iter())
}

/// Parse one page into its [`PageRecord`] artifact. Does *not* catch
/// panics — callers that need isolation fan out via [`page_records`].
pub fn page_record(
    parser: &dyn VendorParser,
    url: &str,
    html: &str,
    budget: &IngestBudget,
) -> PageRecord {
    let (doc, defects) = match Document::parse_budgeted(html, budget) {
        Ok(built) => built,
        Err(e) => {
            return PageRecord {
                url: url.to_string(),
                disposition: PageDisposition::OverBudget { exhausted: e },
                defects: Vec::new(),
                key_attr: None,
                status: None,
            }
        }
    };
    let outcome = parser.parse_doc(url, &doc);
    let (key_attr, status) = match &outcome {
        Ok(Some(parsed)) => {
            // Part 1: key attribute ('CLIs') summary.
            let key_attr = (parsed.entry.clis.is_empty()
                || parsed.entry.clis.iter().all(|c| c.trim().is_empty()))
            .then(|| KeyAttrProblem {
                url: parsed.url.clone(),
                reason: "empty CLIs field".to_string(),
            });
            // Part 2: full per-entry status.
            let violations = parsed.entry.check();
            let status = (!violations.is_empty()).then(|| CorpusStatus {
                url: parsed.url.clone(),
                violations,
            });
            (key_attr, status)
        }
        _ => (None, None),
    };
    PageRecord {
        url: url.to_string(),
        disposition: match outcome {
            Ok(Some(page)) => PageDisposition::Parsed {
                page: Arc::new(page),
            },
            Ok(None) => PageDisposition::Skipped,
            Err(error) => PageDisposition::Rejected { error },
        },
        defects: defects.iter().map(DefectRecord::from_defect).collect(),
        key_attr,
        status,
    }
}

/// Parse every page into its [`PageRecord`] with panic isolation: a
/// worker panic becomes that page's [`PageDisposition::Panicked`], never
/// a run abort. Records come back in page order.
pub fn page_records(
    parser: &dyn VendorParser,
    pages: &[(&str, &str)],
    budget: &IngestBudget,
) -> Vec<PageRecord> {
    let per_page = nassim_exec::par_map_isolated_chunked(pages, PARSE_MIN_CHUNK, |&(url, html)| {
        page_record(parser, url, html, budget)
    });
    pages
        .iter()
        .zip(per_page)
        .map(|(&(url, _), outcome)| match outcome {
            Ok(record) => record,
            // The parser panicked inside the fan-out; the panic was
            // caught per item, so only this page is lost.
            Err(exec_err) => PageRecord {
                url: url.to_string(),
                disposition: PageDisposition::Panicked {
                    payload: exec_err.payload,
                },
                defects: Vec::new(),
                key_attr: None,
                status: None,
            },
        })
        .collect()
}

/// Fold per-page records (in page order) into the [`ParseRun`] report,
/// diagnostics and page list. Deterministic in the records alone, so a
/// fold over cached artifacts equals a fold over a fresh parse.
pub fn fold_page_records<'a>(
    vendor: &str,
    records: impl Iterator<Item = &'a PageRecord>,
) -> ParseRun {
    let mut parsed_pages = Vec::new();
    let mut diagnostics = Vec::new();
    let mut quarantined = Vec::new();
    let mut report = TddReport::default();
    for record in records {
        report.total_pages += 1;
        let url = record.url.as_str();
        let defects = &record.defects;
        match &record.disposition {
            PageDisposition::Panicked { payload } => {
                report.quarantined += 1;
                diagnostics.push(
                    NassimError::PagePanic {
                        vendor: vendor.to_string(),
                        url: url.to_string(),
                        payload: payload.clone(),
                    }
                    .to_diagnostic(),
                );
                quarantined.push(Quarantined {
                    url: url.to_string(),
                    reason: QuarantineReason::Panic {
                        payload: payload.clone(),
                    },
                });
            }
            PageDisposition::OverBudget { exhausted: e } => {
                report.quarantined += 1;
                diagnostics.push(
                    NassimError::BudgetExhausted {
                        vendor: vendor.to_string(),
                        url: url.to_string(),
                        resource: e.resource.to_string(),
                        used: e.used,
                        cap: e.cap,
                    }
                    .to_diagnostic(),
                );
                quarantined.push(Quarantined {
                    url: url.to_string(),
                    reason: QuarantineReason::BudgetExhausted(e.clone()),
                });
            }
            PageDisposition::Parsed { page } => {
                report.parsed += 1;
                // The page parsed despite its defects: warnings only.
                for d in defects {
                    diagnostics.push(markup_diag(Severity::Warning, vendor, url, d));
                }
                report.key_attr_problems.extend(record.key_attr.clone());
                report.corpus_status.extend(record.status.clone());
                parsed_pages.push(Arc::clone(page));
            }
            PageDisposition::Skipped if defects.is_empty() => {
                report.skipped += 1;
                report.skipped_pages.push(url.to_string());
            }
            PageDisposition::Skipped => {
                // No corpus entry *and* damaged markup: the damage most
                // likely destroyed the sections the parser keys on.
                report.failed += 1;
                for d in defects {
                    diagnostics.push(markup_diag(Severity::Error, vendor, url, d));
                }
                diagnostics.push(
                    Diagnostic::error(
                        Stage::Parse,
                        format!(
                            "page skipped: markup damaged ({} defect{})",
                            defects.len(),
                            if defects.len() == 1 { "" } else { "s" }
                        ),
                    )
                    .with_span(SourceSpan::point(url, defects[0].offset))
                    .with_vendor(vendor),
                );
            }
            PageDisposition::Rejected { error } => {
                report.failed += 1;
                for d in defects {
                    diagnostics.push(markup_diag(Severity::Error, vendor, url, d));
                }
                diagnostics.push(error.to_diagnostic());
            }
        }
    }
    ParseRun {
        pages: parsed_pages,
        report,
        diagnostics,
        quarantined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassim_corpus::ParaDef;

    /// A toy parser for exercising the harness without HTML.
    struct ToyParser {
        break_paradef: bool,
    }

    impl VendorParser for ToyParser {
        fn vendor(&self) -> &str {
            "toy"
        }
        fn parse_doc(&self, url: &str, doc: &Document) -> Result<Option<ParsedPage>, NassimError> {
            let text = doc.text_of(doc.root());
            if text.contains("garbage") {
                return Err(NassimError::ParsePage {
                    vendor: "toy".into(),
                    url: url.into(),
                    reason: "unintelligible page".into(),
                });
            }
            if text.contains("preface") {
                return Ok(None);
            }
            let mut entry = CorpusEntry {
                clis: vec!["vlan <vlan-id>".into()],
                func_def: "Creates a VLAN.".into(),
                parent_views: vec!["system view".into()],
                para_def: vec![ParaDef::new("vlan-id", "VLAN identifier.")],
                examples: vec![vec!["vlan 10".into()]],
                source: url.to_string(),
            };
            if self.break_paradef {
                entry.para_def.clear(); // self-check violation
            }
            Ok(Some(ParsedPage {
                url: url.to_string(),
                entry: Arc::new(entry),
                context_path: None,
                enters_view: None,
            }))
        }
    }

    fn pages() -> Vec<(&'static str, &'static str)> {
        vec![
            ("manual://toy/preface", "<p>preface</p>"),
            ("manual://toy/vlan", "<p>page</p>"),
        ]
    }

    #[test]
    fn healthy_parser_passes() {
        let run = run_parser(&ToyParser { break_paradef: false }, pages());
        assert_eq!(run.report.parsed, 1);
        assert_eq!(run.report.skipped, 1);
        assert_eq!(run.report.failed, 0);
        assert!(run.diagnostics.is_empty());
        assert!(run.report.passes(), "{}", run.report);
    }

    #[test]
    fn broken_parser_is_reported() {
        let run = run_parser(&ToyParser { break_paradef: true }, pages());
        assert!(!run.report.passes());
        assert_eq!(run.report.corpus_status.len(), 1);
        let text = run.report.to_string();
        assert!(text.contains("status of corpus"));
        assert!(text.contains("vlan-id"));
    }

    #[test]
    fn rejected_page_degrades_to_diagnostic() {
        let mut pages = pages();
        pages.push(("manual://toy/bad", "<p>garbage</p>"));
        let run = run_parser(&ToyParser { break_paradef: false }, pages);
        // The other pages still parse; the bad one is a failure + finding.
        assert_eq!(run.report.parsed, 1);
        assert_eq!(run.report.failed, 1);
        assert!(!run.report.passes());
        let diag = &run.diagnostics[0];
        assert_eq!(diag.severity, Severity::Error);
        assert!(diag.message.contains("manual://toy/bad"));
    }

    #[test]
    fn damaged_markup_on_parsed_page_is_warning_with_span() {
        let pages = vec![("manual://toy/vlan", "<p>page <b class=\"x")];
        let run = run_parser(&ToyParser { break_paradef: false }, pages);
        assert_eq!(run.report.parsed, 1);
        let html_diags: Vec<_> = run
            .diagnostics
            .iter()
            .filter(|d| d.stage == Stage::Html)
            .collect();
        assert!(!html_diags.is_empty());
        assert!(html_diags
            .iter()
            .all(|d| d.severity == Severity::Warning));
        let span = html_diags[0].span.as_ref().expect("markup diags carry spans");
        assert_eq!(span.source, "manual://toy/vlan");
    }

    #[test]
    fn skipped_page_with_damaged_markup_counts_failed() {
        let pages = vec![("manual://toy/preface", "<div>preface <!-- cut")];
        let run = run_parser(&ToyParser { break_paradef: false }, pages);
        assert_eq!(run.report.skipped, 0);
        assert_eq!(run.report.failed, 1);
        assert!(run
            .diagnostics
            .iter()
            .any(|d| d.message.contains("markup damaged")));
    }

    #[test]
    fn skipped_pages_are_recorded_by_url() {
        let run = run_parser(&ToyParser { break_paradef: false }, pages());
        assert_eq!(run.report.skipped, 1);
        assert_eq!(run.report.skipped_pages, vec!["manual://toy/preface"]);
    }

    /// A parser that panics on pages containing a trigger word.
    struct PanickyParser;

    impl VendorParser for PanickyParser {
        fn vendor(&self) -> &str {
            "panicky"
        }
        fn parse_doc(&self, url: &str, doc: &Document) -> Result<Option<ParsedPage>, NassimError> {
            let text = doc.text_of(doc.root());
            assert!(!text.contains("landmine"), "stepped on a landmine");
            ToyParser { break_paradef: false }.parse_doc(url, doc)
        }
    }

    #[test]
    fn panicking_page_is_quarantined_not_fatal() {
        let pages = vec![
            ("manual://panicky/ok", "<p>page</p>"),
            ("manual://panicky/boom", "<p>landmine</p>"),
            ("manual://panicky/ok2", "<p>page</p>"),
        ];
        let run = run_parser(&PanickyParser, pages);
        // The two healthy pages survive; the panicking one is pulled out.
        assert_eq!(run.report.parsed, 2);
        assert_eq!(run.report.quarantined, 1);
        assert!(!run.report.passes());
        assert_eq!(run.quarantined.len(), 1);
        assert_eq!(run.quarantined[0].url, "manual://panicky/boom");
        assert!(matches!(
            &run.quarantined[0].reason,
            QuarantineReason::Panic { payload } if payload.contains("landmine")
        ));
        // Quarantine surfaces as a Stage::Parse error diagnostic.
        assert!(run.diagnostics.iter().any(|d| {
            d.stage == Stage::Parse
                && d.severity == Severity::Error
                && d.message.contains("panicked")
                && d.span.as_ref().map(|s| s.source.as_str())
                    == Some("manual://panicky/boom")
        }));
    }

    #[test]
    fn over_budget_page_is_quarantined() {
        let budget = IngestBudget {
            max_nodes: 3,
            ..IngestBudget::default()
        };
        let pages = vec![
            ("manual://toy/small", "<p>page</p>"),
            ("manual://toy/big", "<p>a</p><p>b</p><p>c</p><p>page</p>"),
        ];
        let run = run_parser_with(&ToyParser { break_paradef: false }, pages, &budget);
        assert_eq!(run.report.parsed, 1);
        assert_eq!(run.report.quarantined, 1);
        assert_eq!(run.quarantined[0].url, "manual://toy/big");
        assert!(matches!(
            &run.quarantined[0].reason,
            QuarantineReason::BudgetExhausted(e) if e.cap == 3
        ));
        assert!(run
            .diagnostics
            .iter()
            .any(|d| d.message.contains("budget exhausted")));
    }

    #[test]
    fn report_display_includes_quarantine_tally() {
        let report = TddReport {
            total_pages: 5,
            parsed: 3,
            quarantined: 2,
            ..TddReport::default()
        };
        assert!(report.to_string().contains("2 quarantined"));
        assert!(!report.passes());
    }
}
