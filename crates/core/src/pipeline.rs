//! The VDM construction pipeline (paper Figure 2, end to end).

use nassim_diag::{DiagReport, NassimError};
use nassim_html::IngestBudget;
use nassim_parser::{page_key, run_parser_with, ParseRun, VendorParser};
use nassim_validator::hierarchy::Derivation;
use nassim_validator::syntax_stage::SyntaxAudit;
use nassim_validator::vdm_build::VdmBuild;
use nassim_validator::{
    audit_corpus, build_vdm, derive_hierarchy, DeviceValidation, VdmConstructionReport,
};

/// Everything the construction phase produces for one vendor.
pub struct Assimilation {
    /// Parser output + TDD report.
    pub parse: ParseRun,
    /// Stage 1: formal syntax audit.
    pub syntax: SyntaxAudit,
    /// Stage 2: hierarchy derivation (votes, ambiguity, timings).
    pub derivation: Derivation,
    /// The assembled validated VDM plus placement diagnostics.
    pub build: VdmBuild,
    /// Every defect surfaced across the construction stages (markup,
    /// parse, syntax, hierarchy, build), sorted by severity.
    pub diagnostics: DiagReport,
}

impl Assimilation {
    /// Assemble the Table-4 style per-vendor report. `empirical` is the
    /// stage-3 result plus the number of config files, when a config
    /// corpus exists for this vendor; its unmatched lines join the
    /// report's diagnostics.
    pub fn report(
        &self,
        device_model: &str,
        empirical: Option<(&nassim_validator::EmpiricalReport, usize)>,
    ) -> VdmConstructionReport {
        self.report_with_device(device_model, empirical, None)
    }

    /// Like [`Assimilation::report`], additionally folding a stage-3b
    /// live-device run into the diagnostics: every retry the resilient
    /// client performed becomes a note, every failure or degraded
    /// (skipped) node a warning.
    pub fn report_with_device(
        &self,
        device_model: &str,
        empirical: Option<(&nassim_validator::EmpiricalReport, usize)>,
        device: Option<&DeviceValidation>,
    ) -> VdmConstructionReport {
        // The construction diagnostics are chained by reference and
        // cloned element-wise straight into the report's collection —
        // no intermediate clone of the full vec.
        let diags: DiagReport = self
            .diagnostics
            .diagnostics
            .iter()
            .cloned()
            .chain(empirical.iter().flat_map(|(emp, _)| emp.diagnostics()))
            .chain(device.iter().flat_map(|dev| dev.diagnostics()))
            .collect();
        VdmConstructionReport::assemble(
            &self.build.vdm.vendor,
            device_model,
            &self.build.vdm,
            &self.syntax,
            &self.derivation,
            empirical,
            diags,
        )
    }
}

/// One manual page with its content key, collected in a single
/// streaming pass by [`keyed_pages`].
pub(crate) struct KeyedPage<'a> {
    pub url: &'a str,
    pub html: &'a str,
    /// [`page_key`] of (vendor, url, html, budget) — the address of this
    /// page's parse artifact in an [`crate::artifacts::ArtifactStore`].
    pub key: u64,
}

/// Stream the manual's pages once, hashing each as it arrives. The
/// incremental path reuses these keys directly, so dirty-page detection
/// never needs a second pass over the page bytes; the empty-manual check
/// rides on the same pass.
pub(crate) fn keyed_pages<'a>(
    vendor: &str,
    pages: impl IntoIterator<Item = (&'a str, &'a str)>,
    budget: &IngestBudget,
) -> Result<Vec<KeyedPage<'a>>, NassimError> {
    let keyed: Vec<KeyedPage<'a>> = pages
        .into_iter()
        .map(|(url, html)| KeyedPage {
            url,
            html,
            key: page_key(vendor, url, html, budget),
        })
        .collect();
    if keyed.is_empty() {
        return Err(NassimError::EmptyManual {
            vendor: vendor.to_string(),
        });
    }
    Ok(keyed)
}

/// Assemble an [`Assimilation`] from completed stage outputs: the
/// diagnostics chain is identical for the full and incremental paths, so
/// both produce byte-identical reports from equal stage artifacts.
pub(crate) fn finish_assimilation(
    parse: ParseRun,
    syntax: SyntaxAudit,
    derivation: Derivation,
    build: VdmBuild,
) -> Assimilation {
    let diagnostics: DiagReport = parse
        .diagnostics
        .iter()
        .cloned()
        .chain(syntax.diagnostics())
        .chain(derivation.diagnostics(&parse.pages))
        .chain(build.diagnostics(&parse.pages))
        .collect();
    Assimilation {
        parse,
        syntax,
        derivation,
        build,
        diagnostics,
    }
}

/// Run the full construction phase: parse → audit → derive → build,
/// under the default (generous) [`IngestBudget`].
///
/// Defective pages never abort the run — each becomes a diagnostic and
/// the rest of the manual still assimilates; pages that blow an
/// ingestion ceiling or panic a parser worker are quarantined and the
/// clean subset proceeds. The only hard error is a manual with no pages
/// at all ([`NassimError::EmptyManual`]).
pub fn assimilate<'a>(
    parser: &dyn VendorParser,
    pages: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> Result<Assimilation, NassimError> {
    assimilate_with(parser, pages, &IngestBudget::default())
}

/// [`assimilate`] with an explicit per-page [`IngestBudget`].
pub fn assimilate_with<'a>(
    parser: &dyn VendorParser,
    pages: impl IntoIterator<Item = (&'a str, &'a str)>,
    budget: &IngestBudget,
) -> Result<Assimilation, NassimError> {
    let keyed = keyed_pages(parser.vendor(), pages, budget)?;
    let parse = run_parser_with(parser, keyed.iter().map(|p| (p.url, p.html)), budget);
    let syntax = audit_corpus(&parse.pages);
    let derivation = derive_hierarchy(&parse.pages);
    let build = build_vdm(parser.vendor(), &parse.pages, &derivation);
    Ok(finish_assimilation(parse, syntax, derivation, build))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassim_datasets::{catalog::Catalog, manualgen, style};
    use nassim_parser::parser_for;

    fn assimilate_vendor(vendor: &str, opts: manualgen::GenOptions) -> Assimilation {
        let cat = Catalog::base();
        let m = manualgen::generate(&style::vendor(vendor).unwrap(), &cat, &opts);
        let parser = parser_for(vendor).unwrap();
        assimilate(
            parser.as_ref(),
            m.pages.iter().map(|p| (p.url.as_str(), p.html.as_str())),
        )
        .unwrap()
    }

    #[test]
    fn clean_helix_manual_assimilates_fully() {
        let a = assimilate_vendor(
            "helix",
            manualgen::GenOptions {
                seed: 5,
                syntax_error_rate: 0.0,
                ambiguity_rate: 0.0,
                ..Default::default()
            },
        );
        assert!(a.parse.report.passes(), "{}", a.parse.report);
        assert_eq!(a.syntax.invalid_count(), 0);
        assert!(
            a.build.unplaced_pages.is_empty(),
            "unplaced: {:?}",
            a.build.unplaced_pages
        );
        // Every catalog command became at least one CLI-view pair.
        assert!(a.build.vdm.cli_view_pairs() >= Catalog::base().commands.len());
        assert_eq!(a.build.vdm.root_view, "system view");
    }

    #[test]
    fn all_four_vendors_assimilate() {
        for vendor in nassim_datasets::style::VENDORS {
            let a = assimilate_vendor(
                vendor,
                manualgen::GenOptions {
                    seed: 6,
                    syntax_error_rate: 0.0,
                    ambiguity_rate: 0.0,
                    ..Default::default()
                },
            );
            assert!(
                a.build.unplaced_pages.is_empty(),
                "{vendor}: unplaced pages {:?}",
                a.build.unplaced_pages
            );
            let report = a.report("test", None);
            assert!(report.cli_view_pairs > 0, "{vendor}");
        }
    }

    #[test]
    fn injected_defects_surface_in_the_report() {
        let a = assimilate_vendor(
            "helix",
            manualgen::GenOptions {
                seed: 7,
                syntax_error_rate: 0.08,
                ambiguity_rate: 0.3,
                ..Default::default()
            },
        );
        let report = a.report("test", None);
        assert!(report.invalid_clis > 0);
        assert!(report.ambiguous_views > 0);
        // Every defect also surfaces as a structured diagnostic.
        assert!(
            report.diagnostics.warnings() > 0,
            "{}",
            report.diagnostics.render_human()
        );
    }

    #[test]
    fn empty_manual_is_a_typed_error() {
        let parser = parser_for("helix").unwrap();
        match assimilate(parser.as_ref(), std::iter::empty()) {
            Err(nassim_diag::NassimError::EmptyManual { vendor }) => {
                assert_eq!(vendor, "helix");
            }
            other => panic!(
                "expected EmptyManual, got {:?}",
                other.map(|_| "Assimilation")
            ),
        }
    }
}
