//! The syntax audit, hierarchy derivation and VDM of all four vendors'
//! manuals, pinned.
//!
//! Each vendor's manual is generated at its Table-4 scale with the
//! published-manual options (a few injected syntax errors and ambiguous
//! views) under three seeds, assimilated through a fresh
//! [`ArtifactStore`], and assimilated again through the same store. The
//! digest covers the `SyntaxAudit`, every field of the `Derivation` but
//! its timings, the VDM, and the store's page, syntax, graph and
//! evidence hit/miss counters after both runs. Differential suites
//! compare a store run against a cold run by the same code, so they
//! cannot see a change that both sides share; these digests can. The
//! literals were captured from the per-call successor walk and the
//! per-template instance split that preceded the precomputed successor
//! sets and the one-split matcher.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim::validator::hierarchy::Derivation;
use nassim::ArtifactStore;
use nassim_corpus::digest64;
use nassim_datasets::catalog::Catalog;
use nassim_datasets::manualgen::{self, GenOptions};
use nassim_datasets::style;
use nassim_html::IngestBudget;
use nassim_parser::parser_for;
use std::fmt::Write;

/// Everything a derivation decides, without its wall-clock stats.
fn render_derivation(d: &Derivation, out: &mut String) {
    writeln!(out, "openers {:?}", d.openers).unwrap();
    writeln!(out, "votes {:?}", d.votes).unwrap();
    for a in &d.ambiguous {
        writeln!(
            out,
            "ambiguous {} {:?} {:?}",
            a.view, a.reason, a.candidates
        )
        .unwrap();
    }
    writeln!(out, "root {:?}", d.root_view).unwrap();
    writeln!(
        out,
        "snippets {} votes {} self-match failures {}",
        d.stats.example_snippets, d.stats.votes_cast, d.stats.self_match_failures
    )
    .unwrap();
}

/// `digest64` of `vendor`'s manual at Table-4 scale `scale` under `seed`.
fn assimilation_digest(vendor: &str, scale: usize, seed: u64) -> u64 {
    let manual = manualgen::generate(
        &style::vendor(vendor).unwrap(),
        &Catalog::with_scale(scale),
        &GenOptions {
            seed,
            scale_extra: scale,
            syntax_error_rate: 0.004,
            ambiguity_rate: 0.03,
            examples_per_page: 1,
        },
    );
    let pages: Vec<(&str, &str)> = manual
        .pages
        .iter()
        .map(|p| (p.url.as_str(), p.html.as_str()))
        .collect();
    let parser = parser_for(vendor).unwrap();
    let budget = IngestBudget::default();
    let mut store = ArtifactStore::new();
    let mut out = String::new();
    for _ in 0..2 {
        let (parse, keys) = store
            .parse_stage(parser.as_ref(), pages.iter().copied(), &budget)
            .unwrap();
        let syntax = store.syntax_stage(&parse);
        let derivation = store.hierarchy_stage(&parse, &keys);
        let build = store.build_stage(vendor, &parse, &keys, &derivation);
        out.push_str(&serde_json::to_string(&syntax).unwrap());
        render_derivation(&derivation, &mut out);
        out.push_str(&serde_json::to_string(&build.vdm).unwrap());
        writeln!(out, "unplaced {:?}", build.unplaced_pages).unwrap();
    }
    let s = &store.stats;
    writeln!(
        out,
        "pages {}/{} syntax {}/{} graphs {}/{} evidence {}/{}",
        s.page_hits,
        s.page_misses,
        s.syntax_hits,
        s.syntax_misses,
        store.graphs.hits,
        store.graphs.misses,
        store.evidence.hits,
        store.evidence.misses
    )
    .unwrap();
    digest64(out.as_bytes())
}

fn digests(vendor: &str, scale: usize) -> [u64; 3] {
    [1, 7, 42].map(|seed| assimilation_digest(vendor, scale, seed))
}

#[test]
fn cirrus_assimilation_is_pinned() {
    assert_eq!(
        digests("cirrus", 20),
        [
            0x9674_d638_ad0f_fcc6,
            0x6c7f_8240_bff7_2127,
            0x96b0_d0ec_3b62_649b
        ]
    );
}

#[test]
fn helix_assimilation_is_pinned() {
    assert_eq!(
        digests("helix", 1200),
        [
            0x7da6_70f7_b1fe_850a,
            0x9e96_3f03_a3a1_cb41,
            0x42b4_93c1_3af4_d11c
        ]
    );
}

#[test]
fn norsk_assimilation_is_pinned() {
    assert_eq!(
        digests("norsk", 1400),
        [
            0xa782_864a_2c8f_1f5c,
            0x8c4c_cdc9_67c6_9ad4,
            0xb980_32d2_0b70_ca3d
        ]
    );
}

#[test]
fn h4c_assimilation_is_pinned() {
    assert_eq!(
        digests("h4c", 70),
        [
            0xed29_dab3_c518_674a,
            0xa94a_8cc0_e421_94ab,
            0x8b35_ec64_2b3e_7561
        ]
    );
}
