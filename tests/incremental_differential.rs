//! Proptest differential suite for the artifact store: under seeded
//! manual revisions ([`EditPlan`]s drawn by the property), incremental
//! re-assimilation must be **bit-for-bit identical** to a cold full run
//! — VDM, syntax audit, diagnostics, per-page parse artifacts and mapper
//! top-k rankings (score bits included) — while actually reusing every
//! clean page's artifacts, which the store's hit counters prove.
// Test fixtures: unwrap/expect outside #[test] fns (helpers) are fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim::datasets::{apply_edit_plan, catalog::Catalog, manualgen, style, udmgen, EditPlan};
use nassim::mapper::context::{vdm_param_context, vdm_param_refs};
use nassim::mapper::{Embedder, Mapper};
use nassim::parser::parser_for;
use nassim::pipeline::{assimilate_with, Assimilation};
use nassim::{assimilate_incremental, ArtifactStore};
use nassim_corpus::UdmNodeId;
use nassim_html::IngestBudget;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Deterministic bag-of-words embedder: cheap enough for property
/// bodies, and a pure function of the text — exactly what the embedding
/// cache's bit-for-bit contract needs.
struct FnvEmbedder(usize);

impl Embedder for FnvEmbedder {
    fn embed(&self, text: &str) -> Vec<f32> {
        let mut v = vec![0.0f32; self.0];
        for word in text.split_whitespace() {
            let mut h: u32 = 2166136261;
            for b in word.bytes() {
                h ^= b as u32;
                h = h.wrapping_mul(16777619);
            }
            v[(h as usize) % self.0] += 1.0;
        }
        v
    }
}

fn page_refs(m: &manualgen::Manual) -> Vec<(&str, &str)> {
    m.pages
        .iter()
        .map(|p| (p.url.as_str(), p.html.as_str()))
        .collect()
}

/// Bit-for-bit equality over everything except wall-clock stats (the
/// stage structs carry `Duration`s, which no two runs share).
fn assimilations_match(full: &Assimilation, inc: &Assimilation, what: &str) {
    assert_eq!(full.build.vdm, inc.build.vdm, "{what}: VDM differs");
    assert_eq!(
        full.build.unplaced_pages, inc.build.unplaced_pages,
        "{what}: unplaced pages differ"
    );
    assert_eq!(full.syntax, inc.syntax, "{what}: syntax audit differs");
    assert_eq!(
        full.diagnostics, inc.diagnostics,
        "{what}: diagnostics differ"
    );
    assert_eq!(
        full.parse.pages, inc.parse.pages,
        "{what}: parsed pages differ"
    );
}

/// Top-k rankings with scores reduced to their bit patterns, so equality
/// is exact, not approximate.
fn topk_bits(mapper: &Mapper, a: &Assimilation, queries: usize) -> Vec<Vec<(UdmNodeId, u32)>> {
    vdm_param_refs(&a.build.vdm)
        .iter()
        .take(queries)
        .map(|pref| {
            let ctx = vdm_param_context(&a.build.vdm, pref);
            mapper
                .recommend(&ctx, 10)
                .into_iter()
                .map(|(leaf, score)| (leaf, score.to_bits()))
                .collect()
        })
        .collect()
}

proptest! {
    /// The tentpole guarantee, property-style: for any vendor and any
    /// seeded edit plan (modify + add + remove), re-assimilating the
    /// revised manual through a warm store equals a cold full run
    /// bit-for-bit, and every byte-identical page is served from the
    /// store rather than re-parsed. `modify` reaches about half of the
    /// base manual's ~82 pages, so light touch-ups and heavy rewrites
    /// (1 % to 50 % of the pages) are both drawn.
    #[test]
    fn incremental_equals_full_under_seeded_revisions(
        vendor_idx in 0usize..4,
        gen_seed in 0u64..500,
        plan_seed in 0u64..500,
        modify in 0usize..42,
        add in 0usize..3,
        remove in 0usize..3,
    ) {
        let vendor = style::VENDORS[vendor_idx];
        let catalog = Catalog::base();
        let st = style::vendor(vendor).unwrap();
        let opts = manualgen::GenOptions { seed: gen_seed, ..Default::default() };
        let parser = parser_for(vendor).unwrap();
        let budget = IngestBudget::default();

        // Baseline manual: warm the store, checking cold equality.
        let before = manualgen::generate(&st, &catalog, &opts);
        let full_before = assimilate_with(parser.as_ref(), page_refs(&before), &budget).unwrap();
        let mut store = ArtifactStore::new();
        let inc_before =
            assimilate_incremental(parser.as_ref(), page_refs(&before), &budget, &mut store)
                .unwrap();
        assimilations_match(&full_before, &inc_before, "cold run");
        prop_assert_eq!(store.stats.page_hits, 0);

        // Revised manual from the seeded edit plan.
        let plan = EditPlan { seed: plan_seed, modify, add, remove };
        let (revised, _report) = apply_edit_plan(&catalog, &plan);
        let after = manualgen::generate(&st, &revised, &opts);

        let full_after = assimilate_with(parser.as_ref(), page_refs(&after), &budget).unwrap();
        let inc_after =
            assimilate_incremental(parser.as_ref(), page_refs(&after), &budget, &mut store)
                .unwrap();
        assimilations_match(&full_after, &inc_after, "revised run");

        // Clean-page reuse is exact: pages whose bytes did not change
        // must all be hits, and only the dirty pages may miss.
        let original: HashMap<&str, &str> = before
            .pages
            .iter()
            .map(|p| (p.url.as_str(), p.html.as_str()))
            .collect();
        let clean = after
            .pages
            .iter()
            .filter(|p| original.get(p.url.as_str()) == Some(&p.html.as_str()))
            .count();
        prop_assert_eq!(store.stats.page_hits, clean);
        prop_assert_eq!(
            store.stats.page_misses,
            before.pages.len() + (after.pages.len() - clean)
        );
    }
}

/// Mapper construction through the store's embedding cache is bit-for-bit
/// identical to an uncached build, across a save → load → query round
/// trip, and after a manual revision the (manual-independent) leaf
/// embeddings are served entirely from the cache.
#[test]
fn cached_mapper_rankings_survive_roundtrip_and_revision() {
    let catalog = Catalog::base();
    let st = style::vendor("helix").unwrap();
    let opts = manualgen::GenOptions {
        seed: 77,
        ..Default::default()
    };
    let parser = parser_for("helix").unwrap();
    let budget = IngestBudget::default();
    let manual = manualgen::generate(&st, &catalog, &opts);

    let mut store = ArtifactStore::new();
    let a =
        assimilate_incremental(parser.as_ref(), page_refs(&manual), &budget, &mut store).unwrap();

    let udm = udmgen::generate(&catalog, &Default::default()).udm;
    let embedder: Arc<dyn Embedder> = Arc::new(FnvEmbedder(48));

    // Uncached reference vs the store-cached build.
    let uncached = Mapper::dl(&udm, embedder.clone());
    let cached = store.mapper_dl(&udm, embedder.clone(), "fnv-48");
    assert!(store.embeddings.misses > 0, "first build must embed");
    assert_eq!(store.embeddings.hits, 0);
    let reference = topk_bits(&uncached, &a, 25);
    assert_eq!(reference, topk_bits(&cached, &a, 25), "cached != uncached");

    // Save → load → rebuild: zero new embeddings, identical rankings.
    let dir = std::env::temp_dir().join("nassim-incremental-differential");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.json");
    store.save(&path).unwrap();
    let mut loaded = ArtifactStore::load(&path).unwrap();
    let reloaded = loaded.mapper_dl(&udm, embedder.clone(), "fnv-48");
    assert_eq!(loaded.embeddings.misses, 0, "round-trip lost embeddings");
    assert_eq!(
        reference,
        topk_bits(&reloaded, &a, 25),
        "round-trip changed rankings"
    );
    std::fs::remove_file(&path).ok();

    // Revise the manual; leaf contexts come from the UDM, so the mapper
    // rebuild after re-assimilation stays 100% cache hits.
    let (revised_cat, _) = apply_edit_plan(&catalog, &EditPlan::modify_only(5, 8));
    let revised = manualgen::generate(&st, &revised_cat, &opts);
    let b =
        assimilate_incremental(parser.as_ref(), page_refs(&revised), &budget, &mut loaded).unwrap();
    let rebuilt = loaded.mapper_dl(&udm, embedder, "fnv-48");
    assert_eq!(loaded.embeddings.misses, 0, "revision forced re-embedding");
    assert_eq!(
        topk_bits(&uncached, &b, 25),
        topk_bits(&rebuilt, &b, 25),
        "post-revision rankings differ"
    );
}
