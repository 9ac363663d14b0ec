//! Differential properties of the retrieval modes.
//!
//! * `Exact` — the default, and the mode tier-1 runs under — must be
//!   **bit-identical** to the plain full DL scan for any corpus, any `k`
//!   and any worker count, whether or not a sub-linear index has been
//!   built.
//! * `Quantized` and `Ann` trade exactness for speed, but only in
//!   *candidate selection*: survivors are rescored by the exact f32
//!   arithmetic, and on seeded corpora the documented recall@10 floors
//!   hold (≥ 0.95 quantized, ≥ 0.90 ANN at auto probes).
// Property-test bodies and helpers sit outside #[test] fns; panics are
// the assertion mechanism here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim_corpus::Udm;
use nassim_mapper::context::Context;
use nassim_mapper::models::{Embedder, Mapper};
use nassim_mapper::RetrievalMode;
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic bag-of-words embedder: cheap enough for hundreds of
/// proptest cases, discriminative enough that top-k ordering is
/// non-trivial (shared words → similar vectors → real score ties).
struct HashEmbedder;
impl Embedder for HashEmbedder {
    fn embed(&self, text: &str) -> Vec<f32> {
        let mut v = vec![0.0f32; 24];
        for word in text.to_ascii_lowercase().split_whitespace() {
            let mut h: u32 = 2166136261;
            for b in word.bytes() {
                h ^= b as u32;
                h = h.wrapping_mul(16777619);
            }
            v[(h % 24) as usize] += 1.0;
        }
        v
    }
}

const WORDS: [&str; 7] = ["address", "peer", "vlan", "timer", "policy", "mtu", "asn"];

/// A synthetic UDM with `n` leaves whose descriptions overlap heavily
/// (many near-ties), spread over a few subtrees.
fn udm_with_leaves(n: usize) -> Udm {
    let mut udm = Udm::new("u");
    for i in 0..n {
        let sub = format!("s{}", i % 5);
        let group = udm.ensure_path(&["g", sub.as_str()]);
        udm.add(
            group,
            format!("leaf-{i}"),
            format!(
                "the {} of the {} unit {}",
                WORDS[i % WORDS.len()],
                WORDS[(i / 3) % WORDS.len()],
                i % 11
            ),
            "uint32",
        );
    }
    udm
}

fn query(text: &str) -> Context {
    Context {
        sequences: vec![text.to_string()],
    }
}

/// A batch of overlapping queries exercising every vocabulary word.
fn query_batch() -> Vec<Context> {
    let mut queries = Vec::new();
    for (i, a) in WORDS.iter().enumerate() {
        for b in WORDS.iter().skip(i) {
            queries.push(query(&format!("the {a} of the {b} unit 3")));
        }
    }
    queries
}

/// recall@k of `got` against the exact top-k `want` (leaf-id overlap).
fn recall(
    got: &[(nassim_corpus::UdmNodeId, f32)],
    want: &[(nassim_corpus::UdmNodeId, f32)],
) -> f64 {
    if want.is_empty() {
        return 1.0;
    }
    let hits = got
        .iter()
        .filter(|(id, _)| want.iter().any(|(w, _)| w == id))
        .count();
    hits as f64 / want.len() as f64
}

proptest! {
    /// The acceptance-criterion differential: `Exact` mode — even with a
    /// sub-linear index built and sitting on the mapper — recommends
    /// bit-identically to the pre-existing scan (a mapper that has never
    /// heard of retrieval modes), for any corpus/k/workers.
    #[test]
    fn exact_mode_is_bit_identical_to_the_plain_scan(
        leaves in 1usize..300,
        k in 0usize..24,
        workers in 2usize..9,
        qword in 0usize..7,
    ) {
        let udm = udm_with_leaves(leaves);
        let q = query(&format!("the {} of the peer unit 3", WORDS[qword]));

        // Reference: the untouched default mapper — one worker, no
        // retrieval plumbing exercised.
        let reference = Mapper::dl(&udm, Arc::new(HashEmbedder));
        prop_assert_eq!(reference.retrieval_mode(), RetrievalMode::Exact);
        let want = nassim_exec::with_threads(1, || reference.recommend(&q, k));

        // Candidate: index built (via a detour through Quantized), mode
        // flipped back to Exact, parallel workers.
        let mut candidate = Mapper::dl(&udm, Arc::new(HashEmbedder));
        candidate.set_retrieval_mode(RetrievalMode::Quantized);
        candidate.set_retrieval_mode(RetrievalMode::Exact);
        let got = nassim_exec::with_threads(workers, || candidate.recommend(&q, k));

        prop_assert_eq!(got, want);
    }

    /// Sub-linear modes return scores computed by the exact arithmetic:
    /// any leaf a quantized/ANN ranking shares with the exact ranking
    /// carries a bit-identical score.
    #[test]
    fn survivor_scores_are_bit_equal_to_exact(
        leaves in 1usize..400,
        k in 1usize..16,
        qword in 0usize..7,
    ) {
        let udm = udm_with_leaves(leaves);
        let q = query(&format!("the {} of the vlan unit 5", WORDS[qword]));
        let exact = Mapper::dl(&udm, Arc::new(HashEmbedder));
        let want = exact.recommend(&q, k);
        for mode in [RetrievalMode::Quantized, RetrievalMode::Ann { probes: 0 }] {
            let m = exact.with_retrieval_mode(mode);
            for (id, score) in m.recommend(&q, k) {
                if let Some((_, ws)) = want.iter().find(|(w, _)| *w == id) {
                    prop_assert_eq!(score.to_bits(), ws.to_bits());
                }
            }
        }
    }
}

/// Documented floor: quantized retrieval (int8 candidate scan + exact
/// rescore) reaches recall@10 ≥ 0.95 against the exact scan on seeded
/// corpora. Fixed corpus + fixed queries — fully deterministic.
#[test]
fn quantized_recall_at_10_meets_the_documented_floor() {
    for n in [600usize, 2000] {
        let udm = udm_with_leaves(n);
        let exact = Mapper::dl(&udm, Arc::new(HashEmbedder));
        let quant = exact.with_retrieval_mode(RetrievalMode::Quantized);
        assert_eq!(quant.retrieval_mode(), RetrievalMode::Quantized);
        let mut total = 0.0;
        let queries = query_batch();
        for q in &queries {
            total += recall(&quant.recommend(q, 10), &exact.recommend(q, 10));
        }
        let avg = total / queries.len() as f64;
        assert!(avg >= 0.95, "quantized recall@10 = {avg:.3} at {n} leaves");
    }
}

/// Documented floor: ANN (IVF at auto probes) reaches recall@10 ≥ 0.90
/// against the exact scan on seeded corpora large enough to carry an
/// IVF layer.
#[test]
fn ann_recall_at_10_meets_the_documented_floor() {
    for n in [800usize, 3000] {
        let udm = udm_with_leaves(n);
        let exact = Mapper::dl(&udm, Arc::new(HashEmbedder));
        let ann = exact.with_retrieval_mode(RetrievalMode::Ann { probes: 0 });
        assert_eq!(ann.retrieval_mode(), RetrievalMode::Ann { probes: 0 });
        let stats = ann.retrieval_stats();
        assert!(
            stats.nlist > 0,
            "corpus of {n} leaves must carry an IVF layer"
        );
        let mut total = 0.0;
        let queries = query_batch();
        for q in &queries {
            total += recall(&ann.recommend(q, 10), &exact.recommend(q, 10));
        }
        let avg = total / queries.len() as f64;
        assert!(avg >= 0.90, "ann recall@10 = {avg:.3} at {n} leaves");
    }
}

/// Raising the probe count can only widen the scanned candidate set;
/// at `probes == nlist` the ANN ranking equals the quantized full scan.
#[test]
fn full_probe_ann_equals_the_quantized_full_scan() {
    let udm = udm_with_leaves(900);
    let exact = Mapper::dl(&udm, Arc::new(HashEmbedder));
    let quant = exact.with_retrieval_mode(RetrievalMode::Quantized);
    let nlist = quant.retrieval_stats().nlist;
    assert!(nlist > 0);
    let ann_full = exact.with_retrieval_mode(RetrievalMode::Ann { probes: nlist });
    for q in &query_batch()[..8] {
        assert_eq!(ann_full.recommend(q, 10), quant.recommend(q, 10));
    }
}

/// Query answers are thread-count independent in every mode (index
/// construction independence is unit-tested in `retrieval.rs`).
#[test]
fn mode_answers_are_thread_count_independent() {
    let udm = udm_with_leaves(700);
    let base = Mapper::dl(&udm, Arc::new(HashEmbedder));
    let q = query("the policy of the timer unit 2");
    for mode in [
        RetrievalMode::Exact,
        RetrievalMode::Quantized,
        RetrievalMode::Ann { probes: 0 },
    ] {
        let m = base.with_retrieval_mode(mode);
        let serial = nassim_exec::with_threads(1, || m.recommend(&q, 10));
        let parallel = nassim_exec::with_threads(8, || m.recommend(&q, 10));
        assert_eq!(serial, parallel, "{mode:?}");
    }
}
