//! On-boarding a new vendor, end to end — the paper's core workflow
//! (Figure 2): develop the parser under TDD, assimilate the manual,
//! audit syntax, derive hierarchy, and print the construction report.
//!
//! ```sh
//! cargo run --release --example onboard_vendor
//! # …or demonstrate graceful degradation on a corrupted crawl:
//! cargo run --release --example onboard_vendor -- --corrupt 17:0.2
//! # …or persist stage artifacts and re-onboard incrementally:
//! cargo run --release --example onboard_vendor -- --save-artifacts /tmp/nassim
//! cargo run --release --example onboard_vendor -- --load-artifacts /tmp/nassim
//! ```
//!
//! `--corrupt seed:rate` (or the `NASSIM_CORRUPT` env var) runs the same
//! manual through a seeded [`CorruptionPlan`] first: corrupted pages
//! degrade to diagnostics or quarantine entries and the pipeline carries
//! on with the clean subset.
//!
//! `--save-artifacts DIR` assimilates through an [`ArtifactStore`] and
//! persists it to `DIR/artifacts.json`; `--load-artifacts DIR` seeds the
//! store from that file first, so re-running after a manual revision
//! re-parses only the changed pages (the store reports its hit counts).

use nassim::datasets::corrupt::{corrupt_pages, CorruptionPlan};
use nassim::datasets::{catalog::Catalog, manualgen, style};
use nassim::parser::{cirrus::ParserCirrus, run_parser};
use nassim::pipeline::assimilate;
use nassim::{assimilate_incremental, ArtifactStore};
use nassim_diag::chaos::parse_spec;
use nassim_html::IngestBudget;
use std::path::PathBuf;

/// Parse `--corrupt seed:rate` from argv, falling back to the
/// `NASSIM_CORRUPT` environment knob.
fn corruption_from_args() -> Result<Option<CorruptionPlan>, String> {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--corrupt") {
        let spec = args
            .get(pos + 1)
            .ok_or("--corrupt requires a seed:rate argument (e.g. --corrupt 17:0.2)")?;
        let (seed, rate) = parse_spec(spec)
            .ok_or_else(|| format!("bad --corrupt spec `{spec}` (expected seed:rate)"))?;
        return Ok(Some(CorruptionPlan::uniform(seed, rate)));
    }
    Ok(CorruptionPlan::from_env("NASSIM_CORRUPT"))
}

/// Parse `--save-artifacts DIR` / `--load-artifacts DIR` from argv.
fn artifact_dir_from_args(flag: &str) -> Result<Option<PathBuf>, String> {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == flag) {
        Some(pos) => {
            let dir = args
                .get(pos + 1)
                .ok_or_else(|| format!("{flag} requires a directory argument"))?;
            Ok(Some(PathBuf::from(dir)))
        }
        None => Ok(None),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The "new device" whose manual just landed on the NetOps desk.
    let catalog = Catalog::base();
    let style = style::vendor("cirrus")?;
    let manual = manualgen::generate(
        &style,
        &catalog,
        &manualgen::GenOptions {
            seed: 31,
            syntax_error_rate: 0.01,
            ambiguity_rate: 0.05,
            ..Default::default()
        },
    );

    // Optionally run the crawl through the chaos layer first.
    let plan = corruption_from_args()?;
    let mut manual_pages = manual.pages.clone();
    let corrupted = match &plan {
        Some(plan) => {
            let hit = corrupt_pages(plan, &mut manual_pages);
            println!(
                "corruption armed: {hit}/{} pages corrupted\n",
                manual_pages.len()
            );
            hit
        }
        None => 0,
    };
    let pages = || {
        manual_pages
            .iter()
            .map(|p| (p.url.as_str(), p.html.as_str()))
    };

    // ── Step 1: TDD parser development (§4). ──────────────────────────
    // Iteration 1: the naive parser a developer writes after sampling a
    // few pages — it misses the vendor's variant CSS classes.
    let naive = run_parser(&ParserCirrus::naive(), pages());
    println!("iteration 1 (naive class table):");
    println!("{}", naive.report);

    // The report's violations point at the pages using variant classes;
    // iteration 2 extends the class table accordingly.
    let full = run_parser(&ParserCirrus::new(), pages());
    println!("iteration 2 (full class table):");
    println!("{}", full.report);
    if corrupted == 0 {
        assert!(full.report.passes(), "iteration 2 must pass all tests");
    }

    // ── Steps 2-3: Validator + VDM assembly. ──────────────────────────
    // With corruption armed this demonstrates graceful degradation:
    // damaged pages quarantine or fail with diagnostics, and the clean
    // subset still assimilates.
    //
    // With `--save-artifacts` / `--load-artifacts` the same stages run
    // through an `ArtifactStore` instead: a loaded store turns every
    // unchanged page into a cache hit, and the result is bit-for-bit
    // what the cold path would produce.
    let save_dir = artifact_dir_from_args("--save-artifacts")?;
    let load_dir = artifact_dir_from_args("--load-artifacts")?;
    let a = if save_dir.is_some() || load_dir.is_some() {
        let mut store = match &load_dir {
            Some(dir) => {
                let path = dir.join("artifacts.json");
                let store = ArtifactStore::load(&path)?;
                println!(
                    "loaded artifact store from {} ({} pages, {} audits)",
                    path.display(),
                    store.page_count(),
                    store.syntax_count()
                );
                store
            }
            None => ArtifactStore::new(),
        };
        let a = assimilate_incremental(
            &ParserCirrus::new(),
            pages(),
            &IngestBudget::default(),
            &mut store,
        )?;
        println!(
            "incremental assimilation: {} page hits, {} page misses ({} syntax hits)",
            store.stats.page_hits, store.stats.page_misses, store.stats.syntax_hits
        );
        if let Some(dir) = &save_dir {
            std::fs::create_dir_all(dir)?;
            let path = dir.join("artifacts.json");
            store.save(&path)?;
            println!(
                "saved artifact store to {} ({} pages, {} audits)",
                path.display(),
                store.page_count(),
                store.syntax_count()
            );
        }
        a
    } else {
        assimilate(&ParserCirrus::new(), pages())?
    };
    if corrupted > 0 {
        println!(
            "degradation: {} pages quarantined, {} failed — continuing with {} parsed",
            a.parse.report.quarantined, a.parse.report.failed, a.parse.report.parsed
        );
        for q in &a.parse.quarantined {
            println!("  quarantined {}: {}", q.url, q.reason);
        }
    }
    println!("syntax audit:\n{}", a.syntax.render());
    println!(
        "hierarchy: {} views derived, {} ambiguous (reported for expert review)",
        a.derivation.openers.len(),
        a.derivation.ambiguous_count()
    );
    for amb in &a.derivation.ambiguous {
        println!("  ambiguous view: {} ({:?})", amb.view, amb.reason);
    }

    println!();
    println!("{}", a.report(manual.device_model.as_str(), None));
    println!(
        "validated VDM: {} CLI-view pairs across {} views",
        a.build.vdm.cli_view_pairs(),
        a.build.vdm.distinct_views()
    );
    Ok(())
}
