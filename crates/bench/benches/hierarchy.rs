//! Hierarchy derivation cost (Table 4's "Construction Time" row): CGM
//! building plus example-driven vote casting, at two model scales.
// Bench setup runs on fixed seeds and known vendors; a panic here is a
// broken fixture, not a recoverable condition.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nassim_datasets::{catalog::Catalog, manualgen, style};
use nassim_parser::{parser_for, run_parser, ParsedPage};
use nassim_validator::derive_hierarchy;
use std::sync::Arc;

fn parsed_pages(extra: usize) -> Vec<Arc<ParsedPage>> {
    let catalog = Catalog::with_scale(extra);
    let st = style::vendor("helix").unwrap();
    let manual = manualgen::generate(
        &st,
        &catalog,
        &manualgen::GenOptions {
            seed: 1,
            scale_extra: extra,
            syntax_error_rate: 0.0,
            ambiguity_rate: 0.0,
            ..Default::default()
        },
    );
    run_parser(
        parser_for("helix").unwrap().as_ref(),
        manual.pages.iter().map(|p| (p.url.as_str(), p.html.as_str())),
    )
    .pages
}

fn bench_hierarchy(c: &mut Criterion) {
    let parallel_workers = nassim_exec::threads().max(4);
    let mut group = c.benchmark_group("hierarchy_derivation");
    group.sample_size(10);
    for extra in [0usize, 400] {
        let pages = parsed_pages(extra);
        for (mode, workers) in [("serial", 1), ("parallel", parallel_workers)] {
            group.bench_with_input(
                BenchmarkId::new(mode, format!("{}_pages", pages.len())),
                &pages,
                |b, pages| {
                    b.iter(|| nassim_exec::with_threads(workers, || derive_hierarchy(pages)))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_hierarchy);
criterion_main!(benches);
