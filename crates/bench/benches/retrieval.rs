//! Mapper retrieval cost per query: IR, DL and IR+DL (shortlist 50)
//! ranking over a UDM with distractors — the §6.2 inner loop — plus the
//! DL scan under each [`RetrievalMode`] on a 10k synthetic-leaf corpus.
//! At 100k leaves on one core, ANN ran 12.7× the exact scan's QPS and
//! quantized 5.7×, each at recall@10 = 1.0; the recall floors are
//! pinned by `nassim-mapper`'s `retrieval_modes` test.
// Bench setup runs on fixed seeds and known vendors; a panic here is a
// broken fixture, not a recoverable condition.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use nassim_bench::fixtures::HashEmbedder;
use nassim_datasets::{catalog::Catalog, udmgen};
use nassim_mapper::context::Context;
use nassim_mapper::models::Mapper;
use nassim_mapper::RetrievalMode;

fn bench_retrieval(c: &mut Criterion) {
    let catalog = Catalog::base();
    let data = udmgen::generate(
        &catalog,
        &udmgen::UdmGenOptions {
            seed: 1,
            paraphrase_strength: 0.6,
            distractors: 300,
            synthetic_leaves: 0,
        },
    );
    let udm = &data.udm;
    let embedder: std::sync::Arc<dyn nassim_mapper::Embedder> =
        std::sync::Arc::new(HashEmbedder(64));
    let query = Context {
        sequences: vec![
            "peer-address".into(),
            "peer <peer-address> as-number <as-number>".into(),
            "Specifies the IPv4 address of the remote peer.".into(),
            "BGP view".into(),
            "Creates a BGP peer and specifies its autonomous system number.".into(),
        ],
    };

    let ir = Mapper::ir(udm);
    c.bench_function("recommend_ir_top10", |b| {
        b.iter(|| ir.recommend(&query, 10))
    });

    let dl = Mapper::dl(udm, embedder.clone());
    c.bench_function("recommend_dl_top10", |b| {
        b.iter(|| dl.recommend(&query, 10))
    });

    let irdl = Mapper::ir_dl(udm, embedder.clone(), 50);
    c.bench_function("recommend_irdl50_top10", |b| {
        b.iter(|| irdl.recommend(&query, 10))
    });

    // Retrieval modes over distractor-free synthetic leaves, a query
    // drawn from the synthetic vocabulary, queries pre-embedded so the
    // measured loop is candidate ranking alone.
    let leaf_data = udmgen::generate(
        &catalog,
        &udmgen::UdmGenOptions {
            seed: 77,
            paraphrase_strength: 0.6,
            distractors: 0,
            synthetic_leaves: 10_000,
        },
    );
    let leaf_query = Context {
        sequences: vec![
            "holdtime".into(),
            "the holdtime of the neighbor object".into(),
            "routing plane configuration".into(),
        ],
    };
    let exact = Mapper::dl(&leaf_data.udm, embedder.clone());
    let prepared = &exact.prepare_queries(&[&leaf_query])[0];
    for (name, mode) in [
        ("recommend_dl_10k_exact_top10", RetrievalMode::Exact),
        ("recommend_dl_10k_quantized_top10", RetrievalMode::Quantized),
        (
            "recommend_dl_10k_ann_top10",
            RetrievalMode::Ann { probes: 0 },
        ),
    ] {
        let mapper = exact.with_retrieval_mode(mode);
        c.bench_function(name, |b| b.iter(|| mapper.recommend_prepared(prepared, 10)));
    }

    // Sub-linear index construction (int8 corpus + IVF layer).
    c.bench_function("sublinear_index_build_10k", |b| {
        b.iter(|| exact.with_retrieval_mode(RetrievalMode::Quantized))
    });

    // Mapper construction embeds + L2-normalizes every leaf context; the
    // embedding fan-out is the parallel surface.
    let parallel_workers = nassim_exec::threads().max(4);
    for (name, workers) in [
        ("mapper_dl_construction_serial", 1),
        ("mapper_dl_construction_parallel", parallel_workers),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| nassim_exec::with_threads(workers, || Mapper::dl(udm, embedder.clone())))
        });
    }
}

criterion_group!(benches, bench_retrieval);
criterion_main!(benches);
