//! The parse artifacts of all four vendors' manuals, pinned.
//!
//! Each vendor's manual is generated at its Table-4 scale with the
//! published-manual options (a few injected syntax errors and ambiguous
//! views), parsed through [`page_records`], and the `serde_json` of the
//! records is reduced to one `digest64`. Differential suites compare a
//! parse against another parse by the same code, so they cannot see a
//! change that both sides share; these digests can. The literals were
//! captured from the owning tokenizer and DOM that preceded the
//! borrowing ones.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim_corpus::digest64;
use nassim_datasets::catalog::Catalog;
use nassim_datasets::manualgen::{self, GenOptions};
use nassim_datasets::style;
use nassim_html::IngestBudget;
use nassim_parser::{page_records, parser_for, PageDisposition};

/// `(digest64 of the records' JSON, pages, pages parsed)` of `vendor`'s
/// manual at Table-4 scale `scale`.
fn records_digest(vendor: &str, scale: usize) -> (u64, usize, usize) {
    let manual = manualgen::generate(
        &style::vendor(vendor).unwrap(),
        &Catalog::with_scale(scale),
        &GenOptions {
            seed: 7,
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
    let records = page_records(parser.as_ref(), &pages, &IngestBudget::default());
    let parsed = records
        .iter()
        .filter(|r| matches!(r.disposition, PageDisposition::Parsed { .. }))
        .count();
    let json = serde_json::to_string(&records).unwrap();
    (digest64(json.as_bytes()), records.len(), parsed)
}

#[test]
fn cirrus_records_are_pinned() {
    assert_eq!(
        records_digest("cirrus", 20),
        (0xa391_7330_58e0_a25f, 105, 104)
    );
}

#[test]
fn helix_records_are_pinned() {
    assert_eq!(
        records_digest("helix", 1200),
        (0x8dce_36af_59ff_b854, 1432, 1431)
    );
}

#[test]
fn norsk_records_are_pinned() {
    assert_eq!(
        records_digest("norsk", 1400),
        (0xa0d2_cbaf_2188_b6bf, 1657, 1656)
    );
}

#[test]
fn h4c_records_are_pinned() {
    assert_eq!(records_digest("h4c", 70), (0xf241_a8f6_0048_7815, 161, 160));
}
