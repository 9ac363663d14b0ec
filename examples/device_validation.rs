//! §5.3's live-device validation loop: generate CLI instances from the
//! parsed model's CGMs, push them at a (simulated) device over TCP, and
//! read back the running configuration to confirm each took effect.
//!
//! ```sh
//! cargo run --release --example device_validation
//! NASSIM_FAULTS=7:0.05 cargo run --release --example device_validation
//! ```
//!
//! With `NASSIM_FAULTS=seed:rate` set, the spawned device injects
//! connection resets, stalled responses, garbled frames and transient
//! `busy` errors at the given rate — and the resilient client masks them
//! (watch the retry/reconnect counters), so the validation counts should
//! not change.

use nassim::datasets::{catalog::Catalog, configgen, manualgen, style};
use nassim::deviceize::{spawn_device, DeviceSpawnOptions};
use nassim::parser::parser_for;
use nassim::pipeline::assimilate;
use nassim::validator::empirical::{validate_config_files, validate_on_device_with, DevicePush};
use nassim_device::resilient::ResiliencePolicy;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The validated VDM of a vendor (clean manual for brevity).
    let catalog = Catalog::base();
    let style = style::vendor("helix")?;
    let manual = manualgen::generate(
        &style,
        &catalog,
        &manualgen::GenOptions {
            seed: 9,
            syntax_error_rate: 0.0,
            ambiguity_rate: 0.0,
            ..Default::default()
        },
    );
    let a = assimilate(
        parser_for("helix")?.as_ref(),
        manual
            .pages
            .iter()
            .map(|p| (p.url.as_str(), p.html.as_str())),
    )?;
    let vdm = &a.build.vdm;

    // ── Stage 3a: replay config files from "running devices". ─────────
    let corpus = configgen::generate(
        &style,
        &catalog,
        &configgen::ConfigGenOptions {
            seed: 9,
            files: 6,
            active_fraction: 0.3,
            stanzas_per_file: 10,
        },
    );
    let report = validate_config_files(
        vdm,
        corpus
            .files
            .iter()
            .map(|f| (f.name.as_str(), f.lines.as_slice())),
    );
    println!(
        "config replay: {}/{} instances matched ({:.0}%), {} templates exercised",
        report.matched,
        report.total_instances,
        report.matching_ratio() * 100.0,
        report.used_nodes.len()
    );

    // ── Stage 3b: drive a live device for the *unused* templates. ─────
    let unused: Vec<_> = vdm
        .walk()
        .into_iter()
        .filter(|id| !report.used_nodes.contains(id))
        .collect();
    println!(
        "{} templates unused by any config file → generating instances and testing on-device",
        unused.len()
    );

    // `spawn_device` honors NASSIM_FAULTS=seed:rate for chaos testing.
    let mut server = spawn_device(&catalog, &style, DeviceSpawnOptions::default())?;
    println!("simulated device listening on {}", server.addr());

    // Loopback device → a snappy deadline (injected stalls cost
    // milliseconds, not the 10 s real-device default) and generous
    // retries, so even a heavy NASSIM_FAULTS rate is fully masked.
    let cfg = DevicePush {
        policy: ResiliencePolicy {
            op_timeout: Duration::from_millis(100),
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(80),
            max_retries: 16,
            retry_budget: 100_000,
            ..Default::default()
        },
        node_attempts: 8,
        ..DevicePush::new(9)
    };
    let outcome = validate_on_device_with(vdm, &unused, server.addr(), &cfg)?;
    println!(
        "device validation: {} tested, {} accepted, {} confirmed by read-back",
        outcome.nodes_tested, outcome.accepted, outcome.readback_ok
    );
    println!(
        "resilience: {} retries, {} reconnects, {} nodes degraded",
        outcome.retries,
        outcome.reconnects,
        outcome.degraded.len()
    );
    for (template, instance, why) in outcome.failures.iter().take(5) {
        println!("  FAILED {template} (instance `{instance}`): {why}");
    }
    for skipped in outcome.degraded.iter().take(5) {
        println!(
            "  DEGRADED {} ({}): {}",
            skipped.template, skipped.instance, skipped.cause
        );
    }
    server.stop();
    Ok(())
}
