//! A small transformer sentence encoder.
//!
//! Architecturally a faithful (if miniature) BERT-style encoder: token +
//! learned position embeddings, `layers` blocks of multi-head scaled-dot
//! self-attention and a ReLU FFN, each with residual connection and
//! post-layer-norm, then mean pooling over token positions — SBERT's
//! pooling choice — to produce one sentence vector.
//!
//! The same forward-pass code serves training (parameters as tape leaves
//! whose gradients flow) and inference ([`Encoder::embed_ids`]).

use crate::autograd::{Tape, Var};
use crate::tensor::Matrix;
use crate::tokenizer::Vocab;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Encoder hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncoderConfig {
    pub vocab_size: usize,
    /// Model width; must be divisible by `heads`.
    pub dim: usize,
    pub heads: usize,
    pub layers: usize,
    /// FFN hidden width.
    pub ff_dim: usize,
    /// Maximum sequence length (position table size).
    pub max_len: usize,
}

impl EncoderConfig {
    /// The default laptop-scale configuration used across benches.
    pub fn small(vocab_size: usize) -> EncoderConfig {
        EncoderConfig {
            vocab_size,
            dim: 64,
            heads: 4,
            layers: 2,
            ff_dim: 128,
            max_len: 64,
        }
    }
}

/// Parameters of one transformer block.
///
/// Fields are `pub(crate)` so the tape-free [`crate::infer`] engine can
/// replay the forward pass against the same weights.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Block {
    /// Per-head projections, each dim×(dim/heads).
    pub(crate) wq: Vec<Matrix>,
    pub(crate) wk: Vec<Matrix>,
    pub(crate) wv: Vec<Matrix>,
    /// Output projection dim×dim.
    pub(crate) wo: Matrix,
    pub(crate) ln1_gain: Matrix,
    pub(crate) ln1_bias: Matrix,
    pub(crate) ff1: Matrix,
    pub(crate) ff1_bias: Matrix,
    pub(crate) ff2: Matrix,
    pub(crate) ff2_bias: Matrix,
    pub(crate) ln2_gain: Matrix,
    pub(crate) ln2_bias: Matrix,
}

/// The encoder: config plus all learned parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Encoder {
    pub config: EncoderConfig,
    pub(crate) tok_emb: Matrix,
    pub(crate) pos_emb: Matrix,
    pub(crate) blocks: Vec<Block>,
}

/// Tape handles for every parameter, in the same order as
/// [`Encoder::params`] / [`Encoder::params_mut`].
pub struct ParamVars(pub Vec<Var>);

impl Encoder {
    /// Random initialisation (Xavier), deterministic in `seed`.
    pub fn new(config: EncoderConfig, seed: u64) -> Encoder {
        assert_eq!(config.dim % config.heads, 0, "dim must divide by heads");
        let hd = config.dim / config.heads;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut blocks = Vec::with_capacity(config.layers);
        for _ in 0..config.layers {
            blocks.push(Block {
                wq: (0..config.heads)
                    .map(|_| Matrix::xavier(config.dim, hd, &mut rng))
                    .collect(),
                wk: (0..config.heads)
                    .map(|_| Matrix::xavier(config.dim, hd, &mut rng))
                    .collect(),
                wv: (0..config.heads)
                    .map(|_| Matrix::xavier(config.dim, hd, &mut rng))
                    .collect(),
                wo: Matrix::xavier(config.dim, config.dim, &mut rng),
                ln1_gain: Matrix::from_vec(1, config.dim, vec![1.0; config.dim]),
                ln1_bias: Matrix::zeros(1, config.dim),
                ff1: Matrix::xavier(config.dim, config.ff_dim, &mut rng),
                ff1_bias: Matrix::zeros(1, config.ff_dim),
                ff2: Matrix::xavier(config.ff_dim, config.dim, &mut rng),
                ff2_bias: Matrix::zeros(1, config.dim),
                ln2_gain: Matrix::from_vec(1, config.dim, vec![1.0; config.dim]),
                ln2_bias: Matrix::zeros(1, config.dim),
            });
        }
        Encoder {
            tok_emb: Matrix::xavier(config.vocab_size, config.dim, &mut rng),
            pos_emb: Matrix::xavier(config.max_len, config.dim, &mut rng),
            blocks,
            config,
        }
    }

    /// Immutable views of all parameters, in a fixed order.
    pub fn params(&self) -> Vec<&Matrix> {
        let mut out = vec![&self.tok_emb, &self.pos_emb];
        for b in &self.blocks {
            out.extend(b.wq.iter());
            out.extend(b.wk.iter());
            out.extend(b.wv.iter());
            out.push(&b.wo);
            out.push(&b.ln1_gain);
            out.push(&b.ln1_bias);
            out.push(&b.ff1);
            out.push(&b.ff1_bias);
            out.push(&b.ff2);
            out.push(&b.ff2_bias);
            out.push(&b.ln2_gain);
            out.push(&b.ln2_bias);
        }
        out
    }

    /// Mutable views of all parameters (optimizer update target).
    pub fn params_mut(&mut self) -> Vec<&mut Matrix> {
        let mut out: Vec<&mut Matrix> = vec![&mut self.tok_emb, &mut self.pos_emb];
        for b in &mut self.blocks {
            out.extend(b.wq.iter_mut());
            out.extend(b.wk.iter_mut());
            out.extend(b.wv.iter_mut());
            out.push(&mut b.wo);
            out.push(&mut b.ln1_gain);
            out.push(&mut b.ln1_bias);
            out.push(&mut b.ff1);
            out.push(&mut b.ff1_bias);
            out.push(&mut b.ff2);
            out.push(&mut b.ff2_bias);
            out.push(&mut b.ln2_gain);
            out.push(&mut b.ln2_bias);
        }
        out
    }

    /// Push every parameter onto `tape` as a leaf.
    pub fn push_params(&self, tape: &mut Tape) -> ParamVars {
        ParamVars(
            self.params()
                .into_iter()
                .map(|m| tape.leaf(m.clone()))
                .collect(),
        )
    }

    /// Forward pass over token ids; returns the 1×dim sentence embedding
    /// var. `pv` must come from [`Encoder::push_params`] on this tape.
    pub fn embed_on_tape(&self, tape: &mut Tape, pv: &ParamVars, ids: &[usize]) -> Var {
        let ids: Vec<usize> = ids
            .iter()
            .take(self.config.max_len)
            .map(|&i| i.min(self.config.vocab_size - 1))
            .collect();
        let positions: Vec<usize> = (0..ids.len()).collect();
        let mut p = pv.0.iter().copied();
        // `pv` mirrors the `params()` layout by construction
        // ([`Encoder::push_params`]); running dry here is an internal
        // wiring bug, not a recoverable state.
        #[allow(clippy::expect_used)]
        let mut next = move || p.next().expect("ParamVars shorter than params() layout");
        let tok_emb = next();
        let pos_emb = next();
        let tok = tape.gather(tok_emb, &ids);
        let pos = tape.gather(pos_emb, &positions);
        let mut x = tape.add(tok, pos);

        let hd = self.config.dim / self.config.heads;
        let scale = 1.0 / (hd as f32).sqrt();
        for _ in 0..self.config.layers {
            let wq: Vec<Var> = (0..self.config.heads).map(|_| next()).collect();
            let wk: Vec<Var> = (0..self.config.heads).map(|_| next()).collect();
            let wv: Vec<Var> = (0..self.config.heads).map(|_| next()).collect();
            let wo = next();
            let ln1_gain = next();
            let ln1_bias = next();
            let ff1 = next();
            let ff1_bias = next();
            let ff2 = next();
            let ff2_bias = next();
            let ln2_gain = next();
            let ln2_bias = next();

            // Multi-head self-attention.
            let mut head_outs = Vec::with_capacity(self.config.heads);
            for h in 0..self.config.heads {
                let q = tape.matmul(x, wq[h]);
                let k = tape.matmul(x, wk[h]);
                let v = tape.matmul(x, wv[h]);
                let scores = tape.matmul_transpose_b(q, k);
                let scores = tape.scale(scores, scale);
                let attn = tape.softmax_rows(scores);
                let out = tape.matmul(attn, v);
                head_outs.push(out);
            }
            let concat = tape.concat_cols(&head_outs);
            let projected = tape.matmul(concat, wo);
            let res1 = tape.add(x, projected);
            let normed1 = tape.layer_norm_rows(res1, ln1_gain, ln1_bias);

            // Feed-forward.
            let h1 = tape.matmul(normed1, ff1);
            let h1 = tape.add_row(h1, ff1_bias);
            let h1 = tape.relu(h1);
            let h2 = tape.matmul(h1, ff2);
            let h2 = tape.add_row(h2, ff2_bias);
            let res2 = tape.add(normed1, h2);
            x = tape.layer_norm_rows(res2, ln2_gain, ln2_bias);
        }
        tape.mean_rows(x)
    }

    /// Inference: embed token ids to a plain vector.
    ///
    /// Runs the tape-free engine in [`crate::infer`], which replays the
    /// exact op sequence of [`Encoder::embed_on_tape`] with the same f32
    /// arithmetic — the result is bitwise identical to
    /// [`Encoder::embed_ids_tape`] (enforced by a differential proptest)
    /// without cloning every parameter onto a gradient tape per call.
    pub fn embed_ids(&self, ids: &[usize]) -> Vec<f32> {
        crate::infer::embed_ids_oneshot(self, ids)
    }

    /// Reference inference path through the autograd tape.
    ///
    /// This is the original (slow) implementation kept as the ground
    /// truth for the tape-free engine's parity gate: it pushes every
    /// parameter onto a fresh [`Tape`] and runs
    /// [`Encoder::embed_on_tape`]. Use [`Encoder::embed_ids`] everywhere
    /// else.
    pub fn embed_ids_tape(&self, ids: &[usize]) -> Vec<f32> {
        let mut tape = Tape::new();
        let pv = self.push_params(&mut tape);
        let out = self.embed_on_tape(&mut tape, &pv, ids);
        tape.value(out).data.clone()
    }

    /// Inference: embed a text with `vocab`.
    pub fn embed_text(&self, vocab: &Vocab, text: &str) -> Vec<f32> {
        self.embed_ids(&vocab.encode(text, self.config.max_len))
    }

    /// Serialise all weights to JSON.
    pub fn to_json(&self) -> String {
        // In-memory struct-to-string serialisation is infallible in the
        // vendored serde_json; an empty object only on an internal bug.
        serde_json::to_string(self).unwrap_or_else(|_| "{}".to_string())
    }

    /// Load weights from JSON.
    pub fn from_json(json: &str) -> Result<Encoder, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::cosine;

    fn enc() -> Encoder {
        Encoder::new(
            EncoderConfig {
                vocab_size: 50,
                dim: 16,
                heads: 2,
                layers: 2,
                ff_dim: 32,
                max_len: 12,
            },
            42,
        )
    }

    #[test]
    fn embedding_has_model_dim() {
        let e = enc();
        let v = e.embed_ids(&[1, 2, 3]);
        assert_eq!(v.len(), 16);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn embedding_is_deterministic() {
        let e = enc();
        assert_eq!(e.embed_ids(&[4, 7, 9]), e.embed_ids(&[4, 7, 9]));
        let e2 = Encoder::new(e.config, 42);
        assert_eq!(e.embed_ids(&[4, 7]), e2.embed_ids(&[4, 7]));
    }

    #[test]
    fn different_inputs_embed_differently() {
        let e = enc();
        let a = e.embed_ids(&[1, 2, 3]);
        let b = e.embed_ids(&[9, 8, 7]);
        assert!(cosine(&a, &b) < 0.9999, "embeddings collapsed");
    }

    #[test]
    fn order_matters_through_position_embeddings() {
        let e = enc();
        let ab = e.embed_ids(&[5, 6]);
        let ba = e.embed_ids(&[6, 5]);
        assert_ne!(ab, ba);
    }

    #[test]
    fn long_inputs_truncate_to_max_len() {
        let e = enc();
        let long: Vec<usize> = (0..40).map(|i| i % 50).collect();
        let v = e.embed_ids(&long);
        assert_eq!(v.len(), 16);
        // Equal to embedding of the truncated prefix.
        assert_eq!(v, e.embed_ids(&long[..12]));
    }

    #[test]
    fn out_of_vocab_ids_clamped() {
        let e = enc();
        let v = e.embed_ids(&[10_000]);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn params_round_trip_json() {
        let e = enc();
        let json = e.to_json();
        let back = Encoder::from_json(&json).unwrap();
        assert_eq!(back.embed_ids(&[3, 1, 4]), e.embed_ids(&[3, 1, 4]));
    }

    #[test]
    fn param_count_matches_mut_accessor() {
        let mut e = enc();
        let n = e.params().len();
        assert_eq!(e.params_mut().len(), n);
        // 2 embeddings + layers × (3·heads + 9 others).
        assert_eq!(n, 2 + 2 * (3 * 2 + 9));
    }
}
