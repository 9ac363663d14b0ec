//! Cross-crate integration: the §5.3 live-device loop — parse a manual,
//! find templates unused by config files, generate instances, push them
//! over TCP at a simulated device built from the *same* catalog, and
//! confirm read-back; then repeat against a device with a feature gap and
//! confirm the gap is caught.
// Test fixtures: unwrap/expect outside #[test] fns (helpers) are fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim::datasets::{catalog::Catalog, configgen, manualgen, style};
use nassim::deviceize::device_model_from_catalog;
use nassim::parser::parser_for;
use nassim::pipeline::assimilate;
use nassim::validator::empirical::{validate_config_files, validate_on_device};
use std::sync::Arc;

#[test]
fn unused_templates_validate_against_live_device() {
    let catalog = Catalog::base();
    let st = style::vendor("helix").unwrap();
    let manual = manualgen::generate(
        &st,
        &catalog,
        &manualgen::GenOptions {
            seed: 300,
            syntax_error_rate: 0.0,
            ambiguity_rate: 0.0,
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
    let vdm = &a.build.vdm;

    let corpus = configgen::generate(
        &st,
        &catalog,
        &configgen::ConfigGenOptions {
            seed: 300,
            files: 5,
            active_fraction: 0.25,
            stanzas_per_file: 10,
        },
    );
    let replay = validate_config_files(
        vdm,
        corpus
            .files
            .iter()
            .map(|f| (f.name.as_str(), f.lines.as_slice())),
    );
    let unused: Vec<_> = vdm
        .walk()
        .into_iter()
        .filter(|id| !replay.used_nodes.contains(id))
        .take(80)
        .collect();
    assert!(
        !unused.is_empty(),
        "skewed corpus must leave templates unused"
    );

    let model = device_model_from_catalog(&catalog, &st).unwrap();
    let mut server = nassim::device::DeviceServer::spawn(Arc::new(model)).unwrap();
    let out = validate_on_device(vdm, &unused, server.addr(), 300).unwrap();
    server.stop();

    assert_eq!(out.nodes_tested, unused.len());
    assert_eq!(
        out.accepted, out.nodes_tested,
        "device rejected instances: {:?}",
        out.failures
    );
    assert_eq!(
        out.readback_ok, out.accepted,
        "read-back failures: {:?}",
        out.failures
    );
}

#[test]
fn device_feature_gap_is_reported() {
    // A manual documenting a command the firmware lacks — §5.3's reason
    // for testing on real devices.
    let catalog = Catalog::base();
    let st = style::vendor("helix").unwrap();
    let manual = manualgen::generate(
        &st,
        &catalog,
        &manualgen::GenOptions {
            seed: 301,
            syntax_error_rate: 0.0,
            ambiguity_rate: 0.0,
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
    let vdm = &a.build.vdm;

    // Build a device that lacks the whole `stp` group.
    let mut gapped = Catalog::base();
    gapped.commands.retain(|c| c.group != "stp");
    let model = device_model_from_catalog(&gapped, &st).unwrap();
    let mut server = nassim::device::DeviceServer::spawn(Arc::new(model)).unwrap();

    let stp_nodes: Vec<_> = vdm
        .iter()
        .filter(|(_, n)| n.template.starts_with("stp "))
        .map(|(id, _)| id)
        .collect();
    assert!(!stp_nodes.is_empty());
    let out = validate_on_device(vdm, &stp_nodes, server.addr(), 301).unwrap();
    server.stop();

    assert_eq!(out.accepted, 0, "gapped device accepted stp commands");
    assert_eq!(out.failures.len(), stp_nodes.len());
    for (_, _, why) in &out.failures {
        assert!(why.contains("rejected"), "unexpected failure kind: {why}");
    }
}
