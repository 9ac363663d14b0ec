//! Proptest "no-panic" fuzz for the ingestion layers.
//!
//! Two surfaces, two input generators: (1) arbitrary byte soup through
//! the tokenizer, the DOM builder and the budgeted builder; (2) real
//! generated manual pages mutated by every [`CorruptKind`] through the
//! vendor parser's `parse_page`. Each case runs under `catch_unwind`, so
//! the property is literally "zero escaped panics" — the robustness
//! contract the quarantine layer depends on.
// Property-test bodies and helpers sit outside #[test] fns; panics are the
// assertion mechanism here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim::datasets::corrupt::{mutate, CorruptKind};
use nassim::datasets::{catalog::Catalog, manualgen, style, ManualPage};
use nassim::parser::parser_for;
use nassim_diag::chaos::FaultClass;
use nassim_html::{Document, IngestBudget, Tokenizer};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// A small clean helix manual, generated once for the whole fuzz run.
fn manual_pages() -> &'static [ManualPage] {
    static PAGES: OnceLock<Vec<ManualPage>> = OnceLock::new();
    PAGES.get_or_init(|| {
        let catalog = Catalog::base();
        let st = style::vendor("helix").unwrap();
        manualgen::generate(
            &st,
            &catalog,
            &manualgen::GenOptions {
                seed: 901,
                syntax_error_rate: 0.0,
                ambiguity_rate: 0.0,
                ..Default::default()
            },
        )
        .pages
    })
}

fn assert_no_panic<F: FnOnce() + std::panic::UnwindSafe>(what: &str, f: F) {
    assert!(catch_unwind(f).is_ok(), "{what} panicked");
}

/// The corruption classes, indexable by a proptest-drawn integer.
fn kind_of(i: usize) -> CorruptKind {
    CorruptKind::ALL[i % CorruptKind::ALL.len()]
}

proptest! {
    /// Arbitrary byte soup never panics the tokenizer.
    #[test]
    fn tokenizer_survives_byte_soup(input in "\\PC{0,400}") {
        assert_no_panic("tokenizer", || {
            let mut tokens = Tokenizer::new(&input);
            while tokens.next().is_some() {}
        });
    }

    /// Markup-ish soup (dense in the tokenizer's trigger characters)
    /// never panics the defect-reporting DOM build.
    #[test]
    fn dom_build_survives_markup_soup(input in "[<>a-z/\"'=&;#! -]{0,300}") {
        assert_no_panic("parse_with_report", || {
            let (doc, _) = Document::parse_with_report(&input);
            let _ = doc.text_of(doc.root());
            let _ = doc.text_lines(doc.root());
        });
    }

    /// The budgeted builder returns Ok or a typed error — never a panic
    /// — even with absurdly tight ceilings.
    #[test]
    fn budgeted_build_survives_soup(
        input in "[<>a-z/\"= ]{0,300}",
        max_bytes in 1usize..400,
        max_tokens in 1usize..100,
        max_nodes in 1usize..50,
        max_depth in 1usize..20,
    ) {
        assert_no_panic("parse_budgeted", || {
            let budget = IngestBudget { max_bytes, max_tokens, max_nodes, max_depth };
            let _ = Document::parse_budgeted(&input, &budget);
        });
    }

    /// Every corruption class over every seed leaves `mutate` output
    /// that the tokenizer and DOM builder survive.
    #[test]
    fn mutated_soup_never_panics_the_builder(
        input in "[<>a-z/\"'=&; ]{0,200}",
        kind_idx in 0usize..6,
        seed in 0u64..1000,
    ) {
        let kind = kind_of(kind_idx);
        // The nesting bomb is structurally huge; exercising it per fuzz
        // case would swamp the suite, and the chaos harness covers it.
        prop_assume!(kind != CorruptKind::NestingBomb);
        let mutated = mutate(kind, seed, &input);
        assert_no_panic("mutated build", || {
            let (doc, _) = Document::parse_with_report(&mutated);
            let _ = doc.text_of(doc.root());
        });
    }

    /// `parse_page` over CorruptionPlan-mutated real manual pages:
    /// the vendor parser returns Ok/Err, never panics.
    #[test]
    fn parse_page_survives_corrupted_manuals(
        page_idx in 0usize..200,
        kind_idx in 0usize..6,
        seed in 0u64..500,
    ) {
        let pages = manual_pages();
        let page = &pages[page_idx % pages.len()];
        let kind = kind_of(kind_idx);
        prop_assume!(kind != CorruptKind::NestingBomb);
        let mutated = mutate(kind, seed, &page.html);
        let parser = parser_for("helix").unwrap();
        assert_no_panic("parse_page", AssertUnwindSafe(|| {
            let _ = parser.parse_page(&page.url, &mutated);
        }));
    }

    /// Double corruption (two classes stacked) still never panics.
    #[test]
    fn stacked_corruption_never_panics(
        page_idx in 0usize..200,
        first in 0usize..6,
        second in 0usize..6,
        seed in 0u64..200,
    ) {
        let pages = manual_pages();
        let page = &pages[page_idx % pages.len()];
        let (a, b) = (kind_of(first), kind_of(second));
        prop_assume!(a != CorruptKind::NestingBomb && b != CorruptKind::NestingBomb);
        let mutated = mutate(b, seed.wrapping_add(1), &mutate(a, seed, &page.html));
        let parser = parser_for("helix").unwrap();
        assert_no_panic("stacked parse_page", AssertUnwindSafe(|| {
            let _ = parser.parse_page(&page.url, &mutated);
        }));
    }
}
