//! The per-vendor VDM-construction report — the data behind Table 4.

use crate::empirical::EmpiricalReport;
use crate::hierarchy::Derivation;
use crate::syntax_stage::SyntaxAudit;
use nassim_corpus::Vdm;
use nassim_diag::DiagReport;
use std::fmt;
use std::time::Duration;

/// Everything Table 4 reports for one vendor.
#[derive(Debug, Clone, PartialEq)]
pub struct VdmConstructionReport {
    pub vendor: String,
    pub device_model: String,
    // Main statistics.
    pub cli_commands: usize,
    pub views: usize,
    pub cli_view_pairs: usize,
    // Syntax validation.
    pub invalid_clis: usize,
    // Hierarchy derivation & validation.
    pub example_snippets: usize,
    pub construction_time: Duration,
    pub ambiguous_views: usize,
    // Device-configuration validation (None when no config corpus).
    pub config_files: Option<usize>,
    pub matching_ratio: Option<f64>,
    /// Every defect surfaced during construction, across all stages,
    /// with severities and source spans.
    pub diagnostics: DiagReport,
}

impl VdmConstructionReport {
    /// Assemble the report from the three stage outputs.
    pub fn assemble(
        vendor: &str,
        device_model: &str,
        vdm: &Vdm,
        audit: &SyntaxAudit,
        derivation: &Derivation,
        empirical: Option<(&EmpiricalReport, usize)>,
        diagnostics: DiagReport,
    ) -> VdmConstructionReport {
        VdmConstructionReport {
            vendor: vendor.to_string(),
            device_model: device_model.to_string(),
            cli_commands: vdm.corpus.iter().map(|e| e.clis.len()).sum(),
            views: vdm.distinct_views(),
            cli_view_pairs: vdm.cli_view_pairs(),
            invalid_clis: audit.invalid_count(),
            example_snippets: derivation.stats.example_snippets,
            construction_time: derivation.stats.cgm_build_time + derivation.stats.derivation_time,
            ambiguous_views: derivation.ambiguous_count(),
            config_files: empirical.map(|(_, n)| n),
            matching_ratio: empirical.map(|(r, _)| r.matching_ratio()),
            diagnostics,
        }
    }

    /// The Table-4 column for this vendor, as `(row label, value)` pairs.
    pub fn rows(&self) -> Vec<(&'static str, String)> {
        let mut rows = vec![
            ("#CLI Commands", self.cli_commands.to_string()),
            ("#Views", self.views.to_string()),
            ("#CLI-View Pairs", self.cli_view_pairs.to_string()),
            ("#Invalid CLI Commands", self.invalid_clis.to_string()),
            ("#Example Snippets", self.example_snippets.to_string()),
            (
                "Construction Time (second)",
                format!("{:.2}", self.construction_time.as_secs_f64()),
            ),
            ("#Ambiguous Views", self.ambiguous_views.to_string()),
        ];
        rows.push((
            "#Config Files",
            self.config_files
                .map(|n| n.to_string())
                .unwrap_or_else(|| "/".into()),
        ));
        rows.push((
            "Matching Ratio",
            self.matching_ratio
                .map(|r| format!("{:.0}%", r * 100.0))
                .unwrap_or_else(|| "/".into()),
        ));
        rows
    }
}

impl fmt::Display for VdmConstructionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "VDM construction report — {} ({})",
            self.vendor, self.device_model
        )?;
        for (label, value) in self.rows() {
            writeln!(f, "  {label:<28} {value}")?;
        }
        if !self.diagnostics.is_empty() {
            writeln!(
                f,
                "  {:<28} {} error(s), {} warning(s)",
                "#Diagnostics",
                self.diagnostics.errors(),
                self.diagnostics.warnings()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::derive_hierarchy;
    use crate::syntax_stage::audit_corpus;
    use nassim_corpus::Vdm;
    use nassim_parser::ParsedPage;

    #[test]
    fn report_renders_all_table4_rows() {
        let vdm = Vdm::new("helix", "system view");
        let audit = audit_corpus::<ParsedPage>(&[]);
        let derivation = derive_hierarchy::<ParsedPage>(&[]);
        let report = VdmConstructionReport::assemble(
            "helix",
            "Helix/NE40E/2021",
            &vdm,
            &audit,
            &derivation,
            None,
            DiagReport::default(),
        );
        let text = report.to_string();
        for label in [
            "#CLI Commands",
            "#Views",
            "#CLI-View Pairs",
            "#Invalid CLI Commands",
            "#Example Snippets",
            "Construction Time",
            "#Ambiguous Views",
            "#Config Files",
            "Matching Ratio",
        ] {
            assert!(text.contains(label), "missing row {label}:\n{text}");
        }
        assert!(text.contains('/'), "absent config corpus renders as /");
    }
}
