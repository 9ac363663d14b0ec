//! Table 4 — evaluation of the VDM construction phase, for all four
//! vendors: model statistics, parser adaption cost, formal syntax
//! validation, hierarchy derivation & validation, and device-configuration
//! validation. Beyond the paper's numbers, the harness also scores
//! Validator *detection* against the generator's labelled defect
//! injections (a measurement the paper could only do by manual sampling),
//! and runs the §5.3 generated-instance loop against a live simulated
//! device for templates the config corpus never exercised.
//!
//! Scale: ~10× smaller than the paper by default (minutes, not hours);
//! set `NASSIM_SCALE=10` to approach paper-size models.
//!
//! Exits non-zero when any printed paper shape check is false.

use nassim::deviceize::device_model_from_catalog;
use nassim_bench::{construct_vendor, vendor_scale};
use nassim_datasets::manualgen::InjectedDefect;
use nassim_validator::empirical::{validate_config_files, validate_on_device};
use nassim_validator::hierarchy::ROOT_OPENER;
use std::sync::Arc;

/// Source files whose line counts proxy the paper's "Adaption Cost" rows.
const PARSER_SOURCES: [(&str, &str); 4] = [
    ("cirrus", include_str!("../../../parser/src/cirrus.rs")),
    ("helix", include_str!("../../../parser/src/helix.rs")),
    ("norsk", include_str!("../../../parser/src/norsk.rs")),
    ("h4c", include_str!("../../../parser/src/h4c.rs")),
];

fn parsing_loc(vendor: &str) -> usize {
    // Count non-blank, non-comment, non-test lines of the vendor parser —
    // the analogue of the paper's `parsing()` LOC.
    let src = PARSER_SOURCES
        .iter()
        .find(|(v, _)| *v == vendor)
        .map(|(_, s)| *s)
        .unwrap_or("");
    let body = src.split("#[cfg(test)]").next().unwrap_or("");
    body.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//") && !l.starts_with("//!"))
        .count()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Table 4: Evaluation of the VDM Construction Phase");
    println!("(synthetic vendors; scale ≈ paper/10 unless NASSIM_SCALE is set)\n");

    let mut columns = Vec::new();
    for vendor in nassim_datasets::style::VENDORS {
        let extra = vendor_scale(vendor);
        let run = construct_vendor(vendor, extra)?;
        let a = &run.assimilation;

        // Stage 3: config-file replay (helix/norsk only, as in §7.2),
        // against the expert-corrected VDM — the paper's 100%-matching
        // claim is about the *validated* model.
        let corrected_vdm = &run.corrected.build.vdm;
        let empirical = run.config_corpus.as_ref().map(|corpus| {
            let report = validate_config_files(
                corrected_vdm,
                corpus
                    .files
                    .iter()
                    .map(|f| (f.name.as_str(), f.lines.as_slice())),
            );
            (report, corpus)
        });

        // Stage 3b: live-device validation of templates unused in configs
        // (capped for wall-clock; instances are generated from the CGM).
        let device_stats = match &empirical {
            Some((rep, _)) => {
                let used = &rep.used_nodes;
                let unused: Vec<_> = corrected_vdm
                    .walk()
                    .into_iter()
                    .filter(|id| !used.contains(id))
                    .take(150)
                    .collect();
                let model = device_model_from_catalog(&run.manual.catalog, &run.style)?;
                let mut server = nassim_device::DeviceServer::spawn(Arc::new(model))?;
                let out = validate_on_device(corrected_vdm, &unused, server.addr(), 7)?;
                server.stop();
                Some(out)
            }
            None => None,
        };

        // Detection scoring against injected ground truth.
        let injected_errors = run.manual.injected_syntax_errors();
        let detected_on_injected = run
            .manual
            .defects
            .iter()
            .filter_map(|d| match d {
                InjectedDefect::SyntaxError { page_url, .. } => Some(page_url),
                _ => None,
            })
            .filter(|url| a.syntax.failures.iter().any(|f| &f.url == *url))
            .count();
        let injected_amb: Vec<&str> = run.manual.ambiguous_views().clone();
        let amb_detected = injected_amb
            .iter()
            .filter(|v| {
                let name = run.style.view_name(v);
                a.derivation.ambiguous.iter().any(|x| x.view == name)
            })
            .count();

        println!("── {} ({}) ──", vendor, run.manual.device_model);
        let report = a.report(
            run.manual.device_model.as_str(),
            empirical
                .as_ref()
                .map(|(rep, corpus)| (rep, corpus.files.len())),
        );
        for (label, value) in report.rows() {
            println!("  {label:<30} {value}");
        }
        println!("  {:<30} {}", "parsing() LOC", parsing_loc(vendor));
        println!(
            "  {:<30} {}/{}",
            "injected syntax errors caught", detected_on_injected, injected_errors
        );
        println!(
            "  {:<30} {}/{}",
            "injected ambiguities caught",
            amb_detected,
            injected_amb.len()
        );
        println!(
            "  {:<30} {}",
            "root views derived",
            a.derivation
                .openers
                .values()
                .filter(|&&o| o == ROOT_OPENER)
                .count()
        );
        if let Some((rep, corpus)) = &empirical {
            println!(
                "  {:<30} {} total / {} unique",
                "config lines",
                rep.total_instances,
                corpus.unique_lines()
            );
            println!(
                "  {:<30} {}",
                "templates used by configs",
                rep.used_nodes.len()
            );
        }
        if let Some(dev) = &device_stats {
            println!(
                "  {:<30} {} tested, {} accepted, {} read back",
                "device validation (unused)", dev.nodes_tested, dev.accepted, dev.readback_ok
            );
        }
        println!();
        columns.push(report);
    }

    println!("paper shape check:");
    let checks = [
        (
            "helix/norsk models are 10-100× larger than cirrus/h4c",
            columns[1].cli_view_pairs > 10 * columns[0].cli_view_pairs
                && columns[2].cli_view_pairs > 10 * columns[3].cli_view_pairs,
        ),
        (
            "CLI-view pairs exceed CLI commands for every vendor",
            columns.iter().all(|c| c.cli_view_pairs >= c.views),
        ),
        (
            "config matching ratio is 100% where corpora exist",
            columns
                .iter()
                .filter_map(|c| c.matching_ratio)
                .all(|r| (r - 1.0).abs() < 1e-9),
        ),
    ];
    for (name, ok) in &checks {
        println!("  - {name}: {ok}");
    }
    let failed: Vec<&str> = checks
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(name, _)| *name)
        .collect();
    if !failed.is_empty() {
        return Err(format!("paper shape checks failed: {}", failed.join(", ")).into());
    }
    Ok(())
}
