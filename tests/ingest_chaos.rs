//! Chaos end-to-end: assimilation under deterministic manual corruption.
//!
//! The differential harness behind the tentpole: a seeded
//! [`CorruptionPlan`] mutates generated manual pages with each of the six
//! corruption classes across a seed matrix, and `assimilate()` must
//! degrade — never panic, never abort. Every injected corruption has to
//! be accounted for (the page still parsed, produced a parse diagnostic,
//! was recorded as a deliberate skip, or was quarantined), no *clean*
//! page may be dragged down with it, and the entries extracted from
//! uncorrupted pages must be byte-identical to the clean baseline.
// Test fixtures: unwrap/expect outside #[test] fns (helpers) are fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim::datasets::corrupt::{corrupt_pages, CorruptKind, CorruptionPlan};
use nassim::datasets::{catalog::Catalog, manualgen, style, ManualPage};
use nassim::parser::parser_for;
use nassim::pipeline::{assimilate, Assimilation};
use nassim_diag::chaos::FaultClass;
use nassim_diag::Stage;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Corruption seeds of the chaos matrix.
const CORRUPT_SEEDS: [u64; 3] = [2, 11, 29];
/// Per-class corruption rate (≥10 % per the acceptance bar).
const CORRUPT_RATE: f64 = 0.12;
/// Manual-generation seed — identical across baseline and chaos runs.
const GEN_SEED: u64 = 900;

/// Generate the clean helix manual (no injected syntax/ambiguity
/// defects, so the baseline parses spotlessly).
fn clean_manual() -> Vec<ManualPage> {
    let catalog = Catalog::base();
    let st = style::vendor("helix").unwrap();
    manualgen::generate(
        &st,
        &catalog,
        &manualgen::GenOptions {
            seed: GEN_SEED,
            syntax_error_rate: 0.0,
            ambiguity_rate: 0.0,
            ..Default::default()
        },
    )
    .pages
}

fn run_assimilation(pages: &[ManualPage]) -> Assimilation {
    let parser = parser_for("helix").unwrap();
    assimilate(
        parser.as_ref(),
        pages.iter().map(|p| (p.url.as_str(), p.html.as_str())),
    )
    .expect("assimilate() must return Ok under corruption")
}

/// URLs a run's *parse-stage* diagnostics point at (markup defects and
/// per-page parse failures; run-level hierarchy/build findings are
/// excluded because a corrupted page can legitimately cause those on its
/// clean neighbours).
fn parse_diag_urls(a: &Assimilation) -> HashSet<String> {
    a.parse
        .diagnostics
        .iter()
        .filter_map(|d| d.span.as_ref().map(|s| s.source.clone()))
        .collect()
}

fn parsed_urls(a: &Assimilation) -> HashSet<String> {
    a.parse.pages.iter().map(|p| p.url.clone()).collect()
}

#[test]
fn chaos_matrix_accounts_for_every_injection() {
    let clean = clean_manual();

    // ── Corruption-free baseline. ─────────────────────────────────────
    let baseline = run_assimilation(&clean);
    assert!(baseline.parse.report.passes(), "{}", baseline.parse.report);
    assert!(baseline.parse.quarantined.is_empty());
    let baseline_parsed: HashMap<String, nassim::corpus::CorpusEntry> = baseline
        .parse
        .pages
        .iter()
        .map(|p| (p.url.clone(), (*p.entry).clone()))
        .collect();
    let baseline_skipped: HashSet<String> = baseline
        .parse
        .report
        .skipped_pages
        .iter()
        .cloned()
        .collect();

    // ── 3-seed × 6-class corruption matrix. ───────────────────────────
    let mut classes_injected: HashSet<CorruptKind> = HashSet::new();
    for seed in CORRUPT_SEEDS {
        for &kind in CorruptKind::ALL {
            let label = format!("seed {seed} class {kind}");
            let plan = CorruptionPlan::only(seed, kind, CORRUPT_RATE);
            let mut pages = clean.clone();
            let hit = corrupt_pages(&plan, &mut pages);
            let injections = plan.take_injections();
            assert_eq!(injections.len(), hit, "{label}");
            assert!(
                !injections.is_empty(),
                "{label}: no corruption at rate {CORRUPT_RATE} over {} pages",
                pages.len()
            );
            classes_injected.extend(injections.iter().map(|c| c.kind));
            let corrupted: HashSet<String> = injections.iter().map(|c| c.target.clone()).collect();

            // Never panics, never aborts: Ok even with bombs inside.
            let a = catch_unwind(AssertUnwindSafe(|| run_assimilation(&pages)))
                .unwrap_or_else(|_| panic!("{label}: assimilate() panicked"));

            // The page partition stays total: every input page is
            // exactly one of parsed / skipped / failed / quarantined.
            let r = &a.parse.report;
            assert_eq!(
                r.parsed + r.skipped + r.failed + r.quarantined,
                r.total_pages,
                "{label}: partition leak in {r}"
            );
            assert_eq!(r.skipped, r.skipped_pages.len(), "{label}");
            assert_eq!(r.quarantined, a.parse.quarantined.len(), "{label}");

            // Every injection is accounted for: the corrupted page
            // either still parsed, produced a parse diagnostic, was
            // recorded as a deliberate skip, or was quarantined.
            let parsed = parsed_urls(&a);
            let diagd = parse_diag_urls(&a);
            let skipped: HashSet<String> = r.skipped_pages.iter().cloned().collect();
            let quarantined: HashSet<String> =
                a.parse.quarantined.iter().map(|q| q.url.clone()).collect();
            for url in &corrupted {
                assert!(
                    parsed.contains(url)
                        || diagd.contains(url)
                        || skipped.contains(url)
                        || quarantined.contains(url),
                    "{label}: corrupted page {url} unaccounted for"
                );
            }

            // No collateral damage: only corrupted pages may be
            // quarantined, gain parse diagnostics, or newly skip.
            for url in &quarantined {
                assert!(
                    corrupted.contains(url),
                    "{label}: clean page {url} quarantined"
                );
            }
            for url in &diagd {
                assert!(
                    corrupted.contains(url),
                    "{label}: clean page {url} diagnosed"
                );
            }
            for url in skipped.difference(&baseline_skipped) {
                assert!(
                    corrupted.contains(url),
                    "{label}: clean page {url} newly skipped"
                );
            }

            // Clean-subset parity: every uncorrupted page still parses,
            // and its corpus entry is byte-identical to the baseline.
            for (url, entry) in &baseline_parsed {
                if corrupted.contains(url) {
                    continue;
                }
                let chaos_entry = a
                    .parse
                    .pages
                    .iter()
                    .find(|p| &p.url == url)
                    .unwrap_or_else(|| panic!("{label}: clean page {url} lost"));
                assert_eq!(
                    &*chaos_entry.entry, entry,
                    "{label}: clean page {url} extracted differently"
                );
            }

            // Class-specific guarantees.
            match kind {
                // A nesting bomb always trips the node budget.
                CorruptKind::NestingBomb => {
                    assert_eq!(
                        quarantined, corrupted,
                        "{label}: every bombed page must quarantine"
                    );
                    assert!(a.diagnostics.diagnostics.iter().any(|d| {
                        d.stage == Stage::Parse && d.message.contains("budget exhausted")
                    }));
                }
                // A mid-tag truncation always leaves a markup defect.
                CorruptKind::Truncate => {
                    for url in &corrupted {
                        assert!(
                            diagd.contains(url) || quarantined.contains(url),
                            "{label}: truncated page {url} left no trace"
                        );
                    }
                }
                // Entity garbage plants an orphan close tag: a
                // guaranteed defect even when the page still parses.
                CorruptKind::EntityGarbage => {
                    for url in &corrupted {
                        assert!(
                            diagd.contains(url),
                            "{label}: garbled page {url} left no trace"
                        );
                    }
                }
                _ => {}
            }
        }
    }

    // Across the matrix, every corruption class genuinely fired.
    for &kind in CorruptKind::ALL {
        assert!(
            classes_injected.contains(&kind),
            "class {kind} never injected"
        );
    }
}

#[test]
fn chaos_run_is_replayable_from_its_seed() {
    let clean = clean_manual();
    let run = |seed: u64| {
        let plan = CorruptionPlan::uniform(seed, CORRUPT_RATE);
        let mut pages = clean.clone();
        corrupt_pages(&plan, &mut pages);
        let a = run_assimilation(&pages);
        let htmls: Vec<String> = pages.into_iter().map(|p| p.html).collect();
        (
            htmls,
            a.parse.report.parsed,
            a.parse.report.quarantined,
            a.parse.report.failed,
            plan.take_injections(),
        )
    };
    // Identical seed → byte-identical corrupted manual and identical
    // degradation outcome (a chaos failure is replayable for debugging).
    assert_eq!(run(11), run(11));
}
