//! Optimisation and the two sentence-matching objectives.
//!
//! * [`Adam`] — the standard optimiser over the encoder's parameter list.
//! * [`siamese_step`] — SBERT's cosine-similarity regression: embed both
//!   sentences with the *same* encoder, score with cosine, regress to the
//!   pair label (1 = matching, 0 = not). This is both the pre-training
//!   objective of the SBERT substitute and the fine-tuning objective of
//!   NetBERT (§6.3: "exactly the same siamese architecture … and the
//!   sentence matching training objective").
//! * [`contrastive_step`] — SimCSE's in-batch InfoNCE: normalised
//!   embeddings, similarity logits against every other item in the batch,
//!   cross-entropy toward the positive on the diagonal.

use crate::autograd::Tape;
use crate::tensor::Matrix;
use crate::transformer::Encoder;

/// Adam optimiser state for a fixed parameter list.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Create state shaped like `params`.
    pub fn new(params: &[&Matrix], lr: f32) -> Adam {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: params
                .iter()
                .map(|p| Matrix::zeros(p.rows, p.cols))
                .collect(),
            v: params
                .iter()
                .map(|p| Matrix::zeros(p.rows, p.cols))
                .collect(),
        }
    }

    /// Apply one update step in-place.
    pub fn step(&mut self, params: &mut [&mut Matrix], grads: &[Matrix]) {
        assert_eq!(params.len(), grads.len());
        assert_eq!(params.len(), self.m.len());
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        for ((p, g), (m, v)) in params
            .iter_mut()
            .zip(grads)
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            for i in 0..p.data.len() {
                let gi = g.data[i];
                m.data[i] = self.beta1 * m.data[i] + (1.0 - self.beta1) * gi;
                v.data[i] = self.beta2 * v.data[i] + (1.0 - self.beta2) * gi * gi;
                let mhat = m.data[i] / bc1;
                let vhat = v.data[i] / bc2;
                p.data[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

/// One labelled sentence pair: token ids of both sides plus the target
/// cosine (1.0 positive, 0.0 negative).
pub struct Pair {
    pub a: Vec<usize>,
    pub b: Vec<usize>,
    pub label: f32,
}

/// One SBERT-style step over `batch`; returns the mean loss. Gradients
/// are applied to `encoder` through `opt`.
pub fn siamese_step(encoder: &mut Encoder, opt: &mut Adam, batch: &[Pair]) -> f32 {
    let mut tape = Tape::new();
    let pv = encoder.push_params(&mut tape);
    let mut total = None;
    for pair in batch {
        let ea = encoder.embed_on_tape(&mut tape, &pv, &pair.a);
        let eb = encoder.embed_on_tape(&mut tape, &pv, &pair.b);
        let sim = tape.cosine(ea, eb);
        let loss = tape.mse_scalar(sim, pair.label);
        total = Some(match total {
            None => loss,
            Some(acc) => tape.add(acc, loss),
        });
    }
    let Some(total) = total else {
        return 0.0; // empty batch: nothing to learn, weights untouched
    };
    let mean = tape.scale(total, 1.0 / batch.len() as f32);
    let loss_value = tape.value(mean).get(0, 0);
    let grads = tape.backward(mean);
    apply(encoder, opt, &tape, &pv, grads);
    loss_value
}

/// One SimCSE-style step: `pairs` are positives; every other row in the
/// batch is an in-batch negative. `temperature` scales the logits
/// (typically 0.05–0.1).
pub fn contrastive_step(
    encoder: &mut Encoder,
    opt: &mut Adam,
    pairs: &[(Vec<usize>, Vec<usize>)],
    temperature: f32,
) -> f32 {
    assert!(pairs.len() >= 2, "in-batch negatives need batch ≥ 2");
    let mut tape = Tape::new();
    let pv = encoder.push_params(&mut tape);
    let a_embs: Vec<_> = pairs
        .iter()
        .map(|(a, _)| encoder.embed_on_tape(&mut tape, &pv, a))
        .collect();
    let b_embs: Vec<_> = pairs
        .iter()
        .map(|(_, b)| encoder.embed_on_tape(&mut tape, &pv, b))
        .collect();
    let a_stack = tape.concat_rows(&a_embs);
    let b_stack = tape.concat_rows(&b_embs);
    let a_norm = tape.normalize_rows(a_stack);
    let b_norm = tape.normalize_rows(b_stack);
    let logits = tape.matmul_transpose_b(a_norm, b_norm);
    let logits = tape.scale(logits, 1.0 / temperature);
    let targets: Vec<usize> = (0..pairs.len()).collect();
    let loss = tape.cross_entropy_rows(logits, &targets);
    let loss_value = tape.value(loss).get(0, 0);
    let grads = tape.backward(loss);
    apply(encoder, opt, &tape, &pv, grads);
    loss_value
}

fn apply(
    encoder: &mut Encoder,
    opt: &mut Adam,
    tape: &Tape,
    pv: &crate::transformer::ParamVars,
    grads: crate::autograd::Gradients,
) {
    let grad_mats: Vec<Matrix> =
        pv.0.iter()
            .map(|&v| grads.grad_of(v, tape.value(v)))
            .collect();
    let mut params = encoder.params_mut();
    opt.step(&mut params, &grad_mats);
}

/// Train with the siamese objective for `epochs` over `pairs` in
/// `batch_size` chunks; returns per-epoch mean losses.
pub fn train_siamese(
    encoder: &mut Encoder,
    pairs: &[Pair],
    epochs: usize,
    batch_size: usize,
    lr: f32,
) -> Vec<f32> {
    let mut opt = Adam::new(&encoder.params(), lr);
    let mut history = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let mut sum = 0.0;
        let mut batches = 0;
        for chunk in pairs.chunks(batch_size.max(1)) {
            sum += siamese_step(encoder, &mut opt, chunk);
            batches += 1;
        }
        history.push(sum / batches.max(1) as f32);
    }
    history
}

/// Train with the contrastive objective.
pub fn train_contrastive(
    encoder: &mut Encoder,
    pairs: &[(Vec<usize>, Vec<usize>)],
    epochs: usize,
    batch_size: usize,
    lr: f32,
    temperature: f32,
) -> Vec<f32> {
    let mut opt = Adam::new(&encoder.params(), lr);
    let mut history = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let mut sum = 0.0;
        let mut batches = 0;
        for chunk in pairs.chunks(batch_size.max(2)) {
            if chunk.len() < 2 {
                continue; // in-batch negatives impossible
            }
            sum += contrastive_step(encoder, &mut opt, chunk, temperature);
            batches += 1;
        }
        history.push(sum / batches.max(1) as f32);
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::cosine;
    use crate::transformer::EncoderConfig;

    fn tiny_encoder(seed: u64) -> Encoder {
        Encoder::new(
            EncoderConfig {
                vocab_size: 30,
                dim: 16,
                heads: 2,
                layers: 1,
                ff_dim: 24,
                max_len: 8,
            },
            seed,
        )
    }

    /// A toy task: ids 1..5 belong to topic A, ids 10..15 to topic B.
    fn toy_pairs() -> Vec<Pair> {
        let mut out = Vec::new();
        // Positives within a topic, negatives across topics.
        for i in 0..4usize {
            out.push(Pair {
                a: vec![1 + i, 2],
                b: vec![3, 4 + i % 2],
                label: 1.0,
            });
            out.push(Pair {
                a: vec![10 + i, 11],
                b: vec![12, 13 + i % 2],
                label: 1.0,
            });
            out.push(Pair {
                a: vec![1 + i, 2],
                b: vec![12, 13 + i % 2],
                label: 0.0,
            });
            out.push(Pair {
                a: vec![10 + i, 11],
                b: vec![3, 4 + i % 2],
                label: 0.0,
            });
        }
        out
    }

    #[test]
    fn adam_moves_parameters_toward_lower_loss() {
        let mut enc = tiny_encoder(1);
        let pairs = toy_pairs();
        let losses = train_siamese(&mut enc, &pairs, 12, 8, 0.01);
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.6),
            "siamese loss did not drop: {losses:?}"
        );
    }

    #[test]
    fn siamese_training_separates_topics() {
        let mut enc = tiny_encoder(2);
        let pairs = toy_pairs();
        train_siamese(&mut enc, &pairs, 20, 8, 0.01);
        let a = enc.embed_ids(&[1, 2]);
        let a2 = enc.embed_ids(&[3, 4]);
        let b = enc.embed_ids(&[12, 13]);
        let within = cosine(&a, &a2);
        let across = cosine(&a, &b);
        assert!(
            within > across + 0.2,
            "topics not separated: within={within} across={across}"
        );
    }

    #[test]
    fn contrastive_training_reduces_loss() {
        let mut enc = tiny_encoder(3);
        let pairs: Vec<(Vec<usize>, Vec<usize>)> = (0..8)
            .map(|i| {
                let base = 1 + (i % 6) * 3;
                (vec![base, base + 1], vec![base + 1, base + 2])
            })
            .collect();
        let losses = train_contrastive(&mut enc, &pairs, 15, 4, 0.01, 0.1);
        assert!(
            losses.last().unwrap() < &losses[0],
            "contrastive loss did not drop: {losses:?}"
        );
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let run = || {
            let mut enc = tiny_encoder(4);
            train_siamese(&mut enc, &toy_pairs(), 3, 8, 0.01);
            enc.embed_ids(&[1, 2, 3])
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "in-batch negatives")]
    fn contrastive_rejects_batch_of_one() {
        let mut enc = tiny_encoder(5);
        let mut opt = Adam::new(&enc.params(), 0.01);
        contrastive_step(&mut enc, &mut opt, &[(vec![1], vec![2])], 0.1);
    }
}
