//! Differential parity for the int8 quantized scorer: the approximate dot
//! stays inside its analytic error bound, candidate selection ranks by the
//! exact integer dot, and the two-phase rerank (quantized scan → exact f32
//! rescore) recovers the exact top-k whenever the candidate set covers the
//! corpus — the contract the mapper's `Quantized` retrieval mode builds on.
// Property-test bodies and helpers sit outside #[test] fns; panics are the
// assertion mechanism here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim_nlp::quant::{dot_i8, Quantizer};
use proptest::prelude::*;

/// A small random corpus: n rows × dim, values in a magnitude range wide
/// enough to exercise the per-dimension scales (including sign flips and
/// exact zeros).
fn arb_corpus() -> impl Strategy<Value = (Vec<Vec<f32>>, usize)> {
    // The vendored proptest has no prop_flat_map: generate full-width rows
    // plus an independent dim, then truncate each row to dim.
    (
        1usize..=12,
        prop::collection::vec(
            prop::collection::vec(prop_oneof![3 => -100f32..100f32, 1 => Just(0f32)], 12..=12),
            1..24,
        ),
    )
        .prop_map(|(dim, rows)| {
            let rows = rows.into_iter().map(|r| r[..dim].to_vec()).collect();
            (rows, dim)
        })
}

/// Exact f32 ranking reference: descending dot, ties to the lower index.
fn exact_ranking(query: &[f32], rows: &[Vec<f32>]) -> Vec<usize> {
    let mut scored: Vec<(usize, f32)> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| (i, query.iter().zip(r).map(|(a, b)| a * b).sum()))
        .collect();
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    scored.into_iter().map(|(i, _)| i).collect()
}

proptest! {
    /// The approximate dot product never leaves its analytic error bound.
    #[test]
    fn approx_dot_within_bound((rows, dim) in arb_corpus(), seed in 0u64..100) {
        let q = Quantizer::fit(rows.iter().map(Vec::as_slice), dim);
        // Derive a deterministic query from the seed so the strategy stays
        // simple while queries still vary per case.
        let query: Vec<f32> = (0..dim)
            .map(|d| ((seed as f32 + d as f32 * 7.3).sin()) * 50.0)
            .collect();
        let qq = q.encode_query(&query);
        for row in &rows {
            let exact: f32 = query.iter().zip(row).map(|(a, b)| a * b).sum();
            let codes = q.encode(row);
            let approx = q.approx_dot(&qq, &codes);
            // Small additive slack for the f32 summation of the bound itself.
            let bound = q.error_bound(&query, &qq, &codes) * (1.0 + 1e-5) + 1e-4;
            prop_assert!(
                (exact - approx).abs() <= bound,
                "exact {} vs approx {} exceeds bound {}", exact, approx, bound
            );
        }
    }

    /// Candidate selection with r ≥ n returns *all* rows ordered exactly by
    /// the integer dot (descending, ties to the lower index) — the ordering
    /// the two-phase scan relies on for determinism.
    #[test]
    fn full_candidate_scan_is_a_total_integer_ranking((rows, dim) in arb_corpus(), qseed in 0u64..50) {
        let q = Quantizer::fit(rows.iter().map(Vec::as_slice), dim);
        let query: Vec<f32> = (0..dim).map(|d| ((qseed as f32 * 1.7 + d as f32).cos()) * 30.0).collect();
        let qq = q.encode_query(&query);
        let flat: Vec<i8> = rows.iter().flat_map(|r| q.encode(r)).collect();
        let got = q.candidates(&qq, &flat, rows.len());
        // Reference: stable sort of (i32 dot, index).
        let mut want: Vec<(usize, i32)> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| (i, dot_i8(&qq.codes, &q.encode(r))))
            .collect();
        want.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        prop_assert_eq!(got, want.into_iter().map(|(i, _)| i).collect::<Vec<_>>());
    }

    /// Truncated candidate scans are exact prefixes of the full ranking:
    /// taking top-r for any r matches the first r entries of the total
    /// integer ranking, so shrinking the rerank budget only ever *prunes*.
    #[test]
    fn truncated_scan_is_a_prefix_of_the_full_ranking((rows, dim) in arb_corpus(), r in 0usize..30, qseed in 0u64..50) {
        let q = Quantizer::fit(rows.iter().map(Vec::as_slice), dim);
        let query: Vec<f32> = (0..dim).map(|d| ((qseed as f32 + d as f32 * 2.9).sin()) * 80.0).collect();
        let qq = q.encode_query(&query);
        let flat: Vec<i8> = rows.iter().flat_map(|r| q.encode(r)).collect();
        let full = q.candidates(&qq, &flat, rows.len());
        let truncated = q.candidates(&qq, &flat, r);
        prop_assert_eq!(&truncated[..], &full[..r.min(full.len())]);
    }

    /// Two-phase rerank with a corpus-covering candidate budget recovers
    /// the exact f32 top-k bit-for-bit: quantization can only lose recall
    /// through the candidate *cut*, never through the rescore.
    #[test]
    fn two_phase_with_full_budget_matches_exact((rows, dim) in arb_corpus(), k in 1usize..8, qseed in 0u64..50) {
        let q = Quantizer::fit(rows.iter().map(Vec::as_slice), dim);
        let query: Vec<f32> = (0..dim).map(|d| ((qseed as f32 * 3.1 + d as f32 * 0.7).sin()) * 60.0).collect();
        let qq = q.encode_query(&query);
        let flat: Vec<i8> = rows.iter().flat_map(|r| q.encode(r)).collect();
        // Phase 1: candidate scan over the whole corpus.
        let survivors = q.candidates(&qq, &flat, rows.len());
        // Phase 2: exact f32 rescore of survivors, same tie-break.
        let mut rescored: Vec<(usize, f32)> = survivors
            .iter()
            .map(|&i| (i, query.iter().zip(&rows[i]).map(|(a, b)| a * b).sum()))
            .collect();
        rescored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        let got: Vec<usize> = rescored.into_iter().take(k).map(|(i, _)| i).collect();
        let want: Vec<usize> = exact_ranking(&query, &rows).into_iter().take(k).collect();
        prop_assert_eq!(got, want);
    }
}
