//! Differential parity: the tape-free inference path must be **bitwise
//! identical** to the autograd tape forward pass, over random encoder
//! shapes, weights (seeds) and token streams. This is the contract that
//! lets [`nassim_nlp::BatchEncoder`] and the mapper's batched query path
//! replace `embed_on_tape` without perturbing a single evaluation score.
// Property-test bodies and helpers sit outside #[test] fns; panics are the
// assertion mechanism here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim_nlp::{BatchEncoder, Encoder, EncoderConfig, Vocab};
use proptest::prelude::*;

/// A random (config, seed) pair: dim = heads × head_dim keeps the shape
/// legal, everything else swings freely over small-but-structured sizes.
fn arb_encoder() -> impl Strategy<Value = Encoder> {
    (
        1usize..=3,  // heads
        2usize..=4,  // head_dim
        1usize..=2,  // layers
        4usize..=16, // ff_dim
        3usize..=10, // max_len
        5usize..=40, // vocab_size
        0u64..1_000, // weight seed
    )
        .prop_map(
            |(heads, head_dim, layers, ff_dim, max_len, vocab_size, seed)| {
                Encoder::new(
                    EncoderConfig {
                        vocab_size,
                        dim: heads * head_dim,
                        heads,
                        layers,
                        ff_dim,
                        max_len,
                    },
                    seed,
                )
            },
        )
}

/// Token streams deliberately overshoot both vocab_size (exercises the
/// clamp) and max_len (exercises truncation); empty streams included.
fn arb_ids() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..64, 0..20)
}

fn assert_bitwise(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "embedding widths diverge");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "dim {i}: tape {y} vs tape-free {x} differ in bits"
        );
    }
}

proptest! {
    /// `Encoder::embed_ids` (tape-free replay) == `embed_ids_tape`
    /// (autograd ground truth), bit for bit.
    #[test]
    fn tape_free_is_bitwise_identical(enc in arb_encoder(), ids in arb_ids()) {
        let fast = enc.embed_ids(&ids);
        let tape = enc.embed_ids_tape(&ids);
        assert_bitwise(&fast, &tape);
    }

    /// The batched encoder — memoised, deduplicated, scratch-reusing —
    /// produces the same bits as per-text tape runs, and repeated texts
    /// hit the memo without changing the answer.
    #[test]
    fn batch_encoder_matches_tape(enc in arb_encoder(),
                                  texts in prop::collection::vec("[a-z]{1,6}( [a-z]{1,6}){0,4}", 1..6)) {
        let vocab = Vocab::build(texts.iter().map(String::as_str), 1);
        let batched = BatchEncoder::new(enc.clone(), vocab.clone());
        // Duplicate the batch so the memo and in-batch dedup both engage.
        let doubled: Vec<&str> = texts.iter().chain(texts.iter()).map(String::as_str).collect();
        let got = batched.embed_batch(&doubled);
        for (text, emb) in doubled.iter().zip(&got) {
            let ids = vocab.encode(text, enc.config.max_len);
            assert_bitwise(emb, &enc.embed_ids_tape(&ids));
        }
    }

    /// Scratch-buffer reuse across calls never leaks state between
    /// inputs: interleaving long and short streams through one
    /// `BatchEncoder` matches fresh one-shot runs.
    #[test]
    fn scratch_reuse_is_stateless(enc in arb_encoder(),
                                  streams in prop::collection::vec(prop::collection::vec(0usize..64, 0..20), 1..5)) {
        let vocab = Vocab::build(["a"].iter().copied(), 1);
        let batched = BatchEncoder::new(enc.clone(), vocab);
        for ids in &streams {
            assert_bitwise(&batched.embed_ids(ids), &enc.embed_ids_tape(ids));
        }
    }
}
