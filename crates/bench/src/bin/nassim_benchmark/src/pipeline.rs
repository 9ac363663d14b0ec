//! Generated manuals and the staged pipeline, shared by the workloads
//! that assimilate manuals in process (`onboard`, `revise`, and `mixed`'s
//! job-store replay).

use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{self, Span, SpanId, Tracer};
use nassim::datasets::catalog::Catalog;
use nassim::datasets::manualgen::{self, GenOptions, Manual};
use nassim::datasets::style::{self, VendorStyle};
use nassim::diag::DiagReport;
use nassim::html::IngestBudget;
use nassim::parser::{parser_for, ParseRun, VendorParser};
use nassim::validator::hierarchy::Derivation;
use nassim::validator::syntax_stage::SyntaxAudit;
use nassim::validator::vdm_build::VdmBuild;
use nassim::{assimilate_with, ArtifactStore};
use nassim_bench::fixtures::vendor_scale;

/// The four catalog vendors, in the order a round assimilates them.
pub const VENDORS: [&str; 4] = ["cirrus", "helix", "norsk", "h4c"];

/// One vendor's generation inputs at its Table-4 scale.
pub struct VendorInputs {
    pub vendor: &'static str,
    pub style: VendorStyle,
    pub catalog: Catalog,
    pub parser: Box<dyn VendorParser>,
}

impl VendorInputs {
    pub fn new(vendor: &'static str) -> Result<VendorInputs, String> {
        Ok(VendorInputs {
            vendor,
            style: style::vendor(vendor).map_err(|e| e.to_string())?,
            catalog: Catalog::with_scale(vendor_scale(vendor)),
            parser: parser_for(vendor).map_err(|e| e.to_string())?,
        })
    }

    /// The published-manual options of the bench fixtures (a few injected
    /// syntax errors and ambiguous views), under generation seed `seed`.
    pub fn options(&self, seed: u64) -> GenOptions {
        GenOptions {
            seed,
            scale_extra: vendor_scale(self.vendor),
            syntax_error_rate: 0.004,
            ambiguity_rate: 0.03,
            examples_per_page: 1,
        }
    }

    pub fn manual(&self, seed: u64) -> Manual {
        manualgen::generate(&self.style, &self.catalog, &self.options(seed))
    }
}

pub fn page_refs(m: &Manual) -> Vec<(&str, &str)> {
    m.pages
        .iter()
        .map(|p| (p.url.as_str(), p.html.as_str()))
        .collect()
}

/// A store's cache counters, for the per-layer hit ratios.
#[derive(Debug, Default, Clone, Copy)]
pub struct Traffic {
    pub page_hits: usize,
    pub page_misses: usize,
    pub syntax_hits: usize,
    pub syntax_misses: usize,
    pub graph_hits: usize,
    pub graph_misses: usize,
    pub evidence_hits: usize,
    pub evidence_misses: usize,
}

impl Traffic {
    pub fn of(store: &ArtifactStore) -> Traffic {
        Traffic {
            page_hits: store.stats.page_hits,
            page_misses: store.stats.page_misses,
            syntax_hits: store.stats.syntax_hits,
            syntax_misses: store.stats.syntax_misses,
            graph_hits: store.graphs.hits,
            graph_misses: store.graphs.misses,
            evidence_hits: store.evidence.hits,
            evidence_misses: store.evidence.misses,
        }
    }

    fn zip(self, other: Traffic, f: impl Fn(usize, usize) -> usize) -> Traffic {
        Traffic {
            page_hits: f(self.page_hits, other.page_hits),
            page_misses: f(self.page_misses, other.page_misses),
            syntax_hits: f(self.syntax_hits, other.syntax_hits),
            syntax_misses: f(self.syntax_misses, other.syntax_misses),
            graph_hits: f(self.graph_hits, other.graph_hits),
            graph_misses: f(self.graph_misses, other.graph_misses),
            evidence_hits: f(self.evidence_hits, other.evidence_hits),
            evidence_misses: f(self.evidence_misses, other.evidence_misses),
        }
    }

    pub fn since(self, earlier: Traffic) -> Traffic {
        self.zip(earlier, usize::saturating_sub)
    }

    pub fn plus(self, other: Traffic) -> Traffic {
        self.zip(other, |a, b| a + b)
    }

    /// The per-layer cache metrics over `ops` timed ops.
    pub fn report(&self, out: &mut Outcome, ops: u64) {
        let ratio = |hits: usize, misses: usize| {
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            }
        };
        out.set(
            "parser.pages_parsed",
            self.page_misses as f64 / ops.max(1) as f64,
        );
        out.set(
            "core.page_hit_ratio",
            ratio(self.page_hits, self.page_misses),
        );
        out.set(
            "core.syntax_hit_ratio",
            ratio(self.syntax_hits, self.syntax_misses),
        );
        out.set(
            "validator.graph_hit_ratio",
            ratio(self.graph_hits, self.graph_misses),
        );
        out.set(
            "validator.evidence_hit_ratio",
            ratio(self.evidence_hits, self.evidence_misses),
        );
    }
}

/// The outputs of the four store stages.
pub struct Staged {
    pub parse: ParseRun,
    pub syntax: SyntaxAudit,
    pub derivation: Derivation,
    pub build: VdmBuild,
}

/// `parse_stage → syntax_stage → hierarchy_stage → build_stage` against
/// `store`, each inside a span under `parent`.
pub fn run_stages(
    tracer: &mut Tracer,
    parent: SpanId,
    req: u64,
    store: &mut ArtifactStore,
    parser: &dyn VendorParser,
    pages: &[(&str, &str)],
) -> Result<Staged, String> {
    let budget = IngestBudget::default();
    let (parse, keys) = tracer
        .span("core.parse_stage", parent, req, || {
            store.parse_stage(parser, pages.iter().copied(), &budget)
        })
        .map_err(|e| e.to_string())?;
    let syntax = tracer.span("core.syntax_stage", parent, req, || {
        store.syntax_stage(&parse)
    });
    let derivation = tracer.span("core.hierarchy_stage", parent, req, || {
        store.hierarchy_stage(&parse, &keys)
    });
    let build = tracer.span("core.build_stage", parent, req, || {
        store.build_stage(parser.vendor(), &parse, &keys, &derivation)
    });
    Ok(Staged {
        parse,
        syntax,
        derivation,
        build,
    })
}

/// The per-stage metrics of traced ops: the median per-op total of each
/// stage's spans, and of the op time no stage span covers.
pub fn report_stage_spans(out: &mut Outcome, spans: &[Span]) {
    for (span, metric) in [
        ("core.parse_stage", "core.parse_stage_ms"),
        ("core.syntax_stage", "core.syntax_stage_ms"),
        ("core.hierarchy_stage", "core.hierarchy_stage_ms"),
        ("core.build_stage", "core.build_stage_ms"),
    ] {
        out.set(metric, median(&trace::child_totals_ms(spans, span)));
    }
    out.set("core.unaccounted_ms", median(&trace::op_self_ms(spans)));
}

/// The oracle: the staged result must equal a cold `assimilate_with` of
/// the same pages in VDM, unplaced pages, syntax audit, diagnostics and
/// parsed pages.
pub fn matches_cold(
    staged: &Staged,
    parser: &dyn VendorParser,
    pages: &[(&str, &str)],
) -> Result<(), String> {
    let cold = assimilate_with(parser, pages.iter().copied(), &IngestBudget::default())
        .map_err(|e| format!("cold assimilation failed: {e}"))?;
    let diagnostics: DiagReport = staged
        .parse
        .diagnostics
        .iter()
        .cloned()
        .chain(staged.syntax.diagnostics())
        .chain(staged.derivation.diagnostics(&staged.parse.pages))
        .chain(staged.build.diagnostics(&staged.parse.pages))
        .collect();
    let checks = [
        ("VDM", cold.build.vdm == staged.build.vdm),
        (
            "unplaced pages",
            cold.build.unplaced_pages == staged.build.unplaced_pages,
        ),
        ("syntax audit", cold.syntax == staged.syntax),
        ("diagnostics", cold.diagnostics == diagnostics),
        ("parsed pages", cold.parse.pages == staged.parse.pages),
    ];
    match checks.iter().find(|(_, equal)| !equal) {
        Some((what, _)) => Err(format!("{} differs from a cold assimilation", what)),
        None => Ok(()),
    }
}
