//! Cross-crate integration: the full VDM construction phase for every
//! vendor, with defect-detection scoring against the generator's ground
//! truth and empirical validation closing the loop.
// Test fixtures: unwrap/expect outside #[test] fns (helpers) are fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim::datasets::{catalog::Catalog, configgen, manualgen, style};
use nassim::parser::parser_for;
use nassim::pipeline::assimilate;
use nassim::validator::empirical::validate_config_files;
use nassim_datasets::manualgen::InjectedDefect;

fn clean_opts(seed: u64) -> manualgen::GenOptions {
    manualgen::GenOptions {
        seed,
        syntax_error_rate: 0.0,
        ambiguity_rate: 0.0,
        ..Default::default()
    }
}

#[test]
fn every_vendor_round_trips_the_full_catalog() {
    let catalog = Catalog::base();
    for vendor in style::VENDORS {
        let st = style::vendor(vendor).unwrap();
        let manual = manualgen::generate(&st, &catalog, &clean_opts(100));
        let a = assimilate(
            parser_for(vendor).unwrap().as_ref(),
            manual
                .pages
                .iter()
                .map(|p| (p.url.as_str(), p.html.as_str())),
        )
        .unwrap();
        assert!(a.parse.report.passes(), "{vendor}: {}", a.parse.report);
        assert_eq!(a.syntax.invalid_count(), 0, "{vendor}");
        assert!(
            a.build.unplaced_pages.is_empty(),
            "{vendor}: unplaced {:?}",
            a.build.unplaced_pages
        );
        // The VDM recovers the catalog's CLI-view pair count exactly
        // (positive + undo forms per placement).
        let expected: usize = catalog
            .commands
            .iter()
            .map(|c| (1 + c.also_views.len()) * (1 + c.has_undo as usize))
            .sum();
        assert_eq!(
            a.build.vdm.cli_view_pairs(),
            expected,
            "{vendor}: CLI-view pairs"
        );
    }
}

#[test]
fn multi_view_commands_appear_once_per_view() {
    let catalog = Catalog::base();
    let st = style::vendor("helix").unwrap();
    let manual = manualgen::generate(&st, &catalog, &clean_opts(101));
    let a = assimilate(
        parser_for("helix").unwrap().as_ref(),
        manual
            .pages
            .iter()
            .map(|p| (p.url.as_str(), p.html.as_str())),
    )
    .unwrap();
    // bgp.peer-as works in BGP view and in the address-family view.
    let placements: Vec<_> = a
        .build
        .vdm
        .iter()
        .filter(|(_, n)| n.template == "peer <peer-address> as-number <as-number>")
        .map(|(_, n)| n.view.clone())
        .collect();
    assert!(
        placements.contains(&"BGP view".to_string()),
        "{placements:?}"
    );
    assert!(
        placements.contains(&"BGP-IPv4 unicast view".to_string()),
        "{placements:?}"
    );
}

#[test]
fn injected_syntax_errors_are_all_detected() {
    let catalog = Catalog::base();
    for vendor in style::VENDORS {
        let st = style::vendor(vendor).unwrap();
        let manual = manualgen::generate(
            &st,
            &catalog,
            &manualgen::GenOptions {
                seed: 103,
                syntax_error_rate: 0.1,
                ambiguity_rate: 0.0,
                ..Default::default()
            },
        );
        let a = assimilate(
            parser_for(vendor).unwrap().as_ref(),
            manual
                .pages
                .iter()
                .map(|p| (p.url.as_str(), p.html.as_str())),
        )
        .unwrap();
        let injected: Vec<&str> = manual
            .defects
            .iter()
            .filter_map(|d| match d {
                InjectedDefect::SyntaxError { page_url, .. } => Some(page_url.as_str()),
                _ => None,
            })
            .collect();
        assert!(!injected.is_empty(), "{vendor}: seed produced no errors");
        for url in &injected {
            assert!(
                a.syntax.failures.iter().any(|f| &f.url == url),
                "{vendor}: injected error at {url} undetected"
            );
        }
        // Precision: nothing but injections flagged.
        for f in &a.syntax.failures {
            assert!(
                injected.contains(&f.url.as_str()),
                "{vendor}: false positive {}",
                f.url
            );
        }
    }
}

#[test]
fn config_replay_matches_fully_on_clean_vdm() {
    let catalog = Catalog::base();
    for vendor in ["helix", "norsk"] {
        let st = style::vendor(vendor).unwrap();
        let manual = manualgen::generate(&st, &catalog, &clean_opts(104));
        let a = assimilate(
            parser_for(vendor).unwrap().as_ref(),
            manual
                .pages
                .iter()
                .map(|p| (p.url.as_str(), p.html.as_str())),
        )
        .unwrap();
        let corpus = configgen::generate(
            &st,
            &catalog,
            &configgen::ConfigGenOptions {
                seed: 104,
                files: 10,
                active_fraction: 0.4,
                stanzas_per_file: 15,
            },
        );
        let report = validate_config_files(
            &a.build.vdm,
            corpus
                .files
                .iter()
                .map(|f| (f.name.as_str(), f.lines.as_slice())),
        );
        assert!(
            (report.matching_ratio() - 1.0).abs() < 1e-9,
            "{vendor}: ratio {:.4}, first failures: {:?}",
            report.matching_ratio(),
            report.failures.iter().take(3).collect::<Vec<_>>()
        );
        assert!(report.total_instances > 100, "{vendor}: corpus too small");
    }
}

#[test]
fn ambiguity_injection_is_detected_with_high_recall() {
    let catalog = Catalog::base();
    let st = style::vendor("helix").unwrap();
    let manual = manualgen::generate(
        &st,
        &catalog,
        &manualgen::GenOptions {
            seed: 105,
            syntax_error_rate: 0.0,
            ambiguity_rate: 0.5,
            ..Default::default()
        },
    );
    let a = assimilate(
        parser_for("helix").unwrap().as_ref(),
        manual
            .pages
            .iter()
            .map(|p| (p.url.as_str(), p.html.as_str())),
    )
    .unwrap();
    let injected = manual.ambiguous_views();
    assert!(!injected.is_empty());
    let detected = injected
        .iter()
        .filter(|v| {
            let name = st.view_name(v);
            a.derivation.ambiguous.iter().any(|x| x.view == name)
        })
        .count();
    assert!(
        detected * 2 >= injected.len(),
        "detected only {detected}/{} injected ambiguities",
        injected.len()
    );
}
