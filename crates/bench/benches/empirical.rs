//! Empirical-validation cost (§5.3, Figure 8): replaying config-file
//! corpora against a validated VDM.
// Bench setup runs on fixed seeds and known vendors; a panic here is a
// broken fixture, not a recoverable condition.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nassim::pipeline::assimilate;
use nassim_datasets::{catalog::Catalog, configgen, manualgen, style};
use nassim_parser::parser_for;
use nassim_validator::validate_config_files;

fn bench_empirical(c: &mut Criterion) {
    let catalog = Catalog::base();
    let st = style::vendor("helix").unwrap();
    let manual = manualgen::generate(
        &st,
        &catalog,
        &manualgen::GenOptions {
            seed: 1,
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
    let vdm = a.build.vdm;
    let corpus = configgen::generate(
        &st,
        &catalog,
        &configgen::ConfigGenOptions {
            seed: 1,
            files: 20,
            active_fraction: 0.4,
            stanzas_per_file: 20,
        },
    );
    let total: usize = corpus.files.iter().map(|f| f.lines.len()).sum();

    let mut group = c.benchmark_group("empirical_validation");
    group.throughput(Throughput::Elements(total as u64));
    group.bench_function("config_replay", |b| {
        b.iter(|| {
            validate_config_files(
                &vdm,
                corpus
                    .files
                    .iter()
                    .map(|f| (f.name.as_str(), f.lines.as_slice())),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_empirical);
criterion_main!(benches);
