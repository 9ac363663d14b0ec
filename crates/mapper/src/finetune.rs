//! NetBERT fine-tuning — §6.3.
//!
//! "Given a few mapped VDM-UDM parameter pairs labeled by NetOps experts,
//! we may generate a training corpus for fine-tuning the NetBERT model.
//! We treat all the mapped pairs as positive pairs and do random sampling
//! to generate the negative pairs" — at the paper's 1:10 positive/negative
//! ratio, trained with the same siamese objective as pre-training. "Only
//! 1 epoch of training is necessary as more epochs may easily cause
//! over-fitting."

use crate::context::udm_leaf_context;
use crate::eval::{evaluate, EvalCase};
use crate::models::Mapper;
use nassim_corpus::Udm;
use nassim_nlp::training::{train_siamese, Pair};
use nassim_nlp::{BatchEncoder, Encoder, Vocab};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fine-tuning hyper-parameters.
#[derive(Debug, Clone)]
pub struct FinetuneOptions {
    /// Negatives sampled per positive (paper: 10).
    pub negative_ratio: usize,
    /// Epochs (paper: 1 — more over-fits).
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    pub seed: u64,
}

impl Default for FinetuneOptions {
    fn default() -> Self {
        FinetuneOptions {
            negative_ratio: 10,
            epochs: 1,
            batch_size: 8,
            lr: 5e-4,
            seed: 0,
        }
    }
}

/// The (VDM sequence, UDM sequence) index pairs trained on, matching the
/// structure Eq. 2 scores at evaluation time: parameter name ↔ attribute
/// name, parameter description ↔ attribute annotation, plus the joined
/// texts. Training on the same granularity the mapper scores avoids a
/// train/eval mismatch that would make fine-tuning hurt.
const SEQ_PAIRS: [(usize, usize); 2] = [(0, 0), (2, 1)];

/// Build the labelled training pairs from annotated cases: each case's
/// (VDM context, true-leaf context) contributes positives at both the
/// per-sequence and joined granularity; `negative_ratio` random *other*
/// leaves per case contribute matching negatives.
pub fn build_pairs(
    cases: &[EvalCase],
    udm: &Udm,
    vocab: &Vocab,
    max_len: usize,
    opts: &FinetuneOptions,
) -> Vec<Pair> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let leaves = udm.leaves();
    let mut pairs = Vec::new();
    for case in cases {
        let truth_ctx = udm_leaf_context(udm, case.truth);
        let push_side = |a_text: &str, b_text: &str, label: f32, pairs: &mut Vec<Pair>| {
            pairs.push(Pair {
                a: vocab.encode(a_text, max_len),
                b: vocab.encode(b_text, max_len),
                label,
            });
        };
        // Positives.
        push_side(&case.context.joined(), &truth_ctx.joined(), 1.0, &mut pairs);
        for &(vi, ui) in &SEQ_PAIRS {
            if let (Some(vs), Some(us)) =
                (case.context.sequences.get(vi), truth_ctx.sequences.get(ui))
            {
                push_side(vs, us, 1.0, &mut pairs);
            }
        }
        // Negatives, mirrored across the same granularities.
        let mut sampled = 0;
        let mut guard = 0;
        while sampled < opts.negative_ratio && guard < opts.negative_ratio * 20 {
            guard += 1;
            let leaf = leaves[rng.gen_range(0..leaves.len())];
            if leaf == case.truth {
                continue;
            }
            let neg_ctx = udm_leaf_context(udm, leaf);
            push_side(&case.context.joined(), &neg_ctx.joined(), 0.0, &mut pairs);
            let &(vi, ui) = &SEQ_PAIRS[sampled % SEQ_PAIRS.len()];
            if let (Some(vs), Some(us)) =
                (case.context.sequences.get(vi), neg_ctx.sequences.get(ui))
            {
                push_side(vs, us, 0.0, &mut pairs);
            }
            sampled += 1;
        }
    }
    pairs
}

/// Domain-adapt `encoder` on annotated `cases` (NetBERT = pre-trained
/// SBERT substitute + this step). Returns per-epoch mean losses.
pub fn finetune(
    encoder: &mut Encoder,
    cases: &[EvalCase],
    udm: &Udm,
    vocab: &Vocab,
    opts: &FinetuneOptions,
) -> Vec<f32> {
    let pairs = build_pairs(cases, udm, vocab, encoder.config.max_len, opts);
    if pairs.is_empty() {
        return Vec::new();
    }
    train_siamese(encoder, &pairs, opts.epochs, opts.batch_size, opts.lr)
}

/// Per-epoch fine-tuning trace: mean training losses and validation
/// recall@1 after each epoch.
#[derive(Debug, Clone)]
pub struct FinetuneReport {
    pub losses: Vec<f32>,
    pub val_recall_at_1: Vec<f64>,
}

/// [`finetune`] with held-out validation scoring after every epoch — the
/// signal the paper's "only 1 epoch is necessary" observation rests on.
///
/// Each validation pass wraps the epoch's weights in a tape-free
/// [`BatchEncoder`], so all leaf and case contexts are batch-encoded
/// (with in-batch deduplication) instead of one tape run per text.
pub fn finetune_with_validation(
    encoder: &mut Encoder,
    cases: &[EvalCase],
    validation: &[EvalCase],
    udm: &Udm,
    vocab: &Vocab,
    opts: &FinetuneOptions,
) -> FinetuneReport {
    let pairs = build_pairs(cases, udm, vocab, encoder.config.max_len, opts);
    let mut losses = Vec::new();
    let mut val_recall_at_1 = Vec::new();
    for _ in 0..opts.epochs {
        if !pairs.is_empty() {
            losses.extend(train_siamese(encoder, &pairs, 1, opts.batch_size, opts.lr));
        }
        let batched = BatchEncoder::new(encoder.clone(), vocab.clone());
        let mapper = Mapper::dl(udm, std::sync::Arc::new(batched));
        let report = evaluate(&mapper, validation, &[1]);
        val_recall_at_1.push(report.recall.get(&1).copied().unwrap_or(0.0));
    }
    FinetuneReport {
        losses,
        val_recall_at_1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use nassim_nlp::EncoderConfig;

    fn udm() -> Udm {
        let mut udm = Udm::new("u");
        let c = udm.ensure_path(&["a"]);
        for i in 0..6 {
            udm.add(
                c,
                format!("leaf-{i}"),
                format!("description number {i}"),
                "uint32",
            );
        }
        udm
    }

    fn cases(udm: &Udm) -> Vec<EvalCase> {
        udm.leaves()
            .into_iter()
            .take(3)
            .enumerate()
            .map(|(i, truth)| EvalCase {
                context: Context {
                    sequences: vec![format!("query text {i}")],
                },
                truth,
                label: format!("case{i}"),
            })
            .collect()
    }

    #[test]
    fn pairs_respect_negative_ratio() {
        let udm = udm();
        let cases = cases(&udm);
        let vocab = Vocab::build(["query text description number leaf"].iter().copied(), 1);
        let opts = FinetuneOptions {
            negative_ratio: 4,
            ..Default::default()
        };
        let pairs = build_pairs(&cases, &udm, &vocab, 16, &opts);
        let pos = pairs.iter().filter(|p| p.label == 1.0).count();
        let neg = pairs.iter().filter(|p| p.label == 0.0).count();
        // Per case: 1 joined positive + the (0,0) name-pair (the test
        // contexts have k=1, so the (2,1) description pair is skipped).
        assert_eq!(pos, 3 * 2);
        // Per case: 4 joined negatives + one mirrored seq-pair for every
        // other sample (the (2,1) turns are skipped at k=1).
        assert_eq!(neg, 3 * (4 + 2));
    }

    #[test]
    fn negatives_never_equal_the_truth() {
        let udm = udm();
        // Vocabulary must cover the leaf contexts, otherwise every leaf
        // encodes to the same <unk> sequence and identity is meaningless.
        let texts: Vec<String> = udm
            .leaves()
            .into_iter()
            .map(|l| udm_leaf_context(&udm, l).joined())
            .collect();
        let vocab = Vocab::build(texts.iter().map(String::as_str), 1);
        // Build per single case so positives/negatives are unambiguous.
        for case in cases(&udm) {
            let truth_ctx = udm_leaf_context(&udm, case.truth);
            let truth_joined = vocab.encode(&truth_ctx.joined(), 16);
            let truth_name = vocab.encode(&truth_ctx.sequences[0], 16);
            let pairs = build_pairs(&[case], &udm, &vocab, 16, &FinetuneOptions::default());
            for n in pairs.iter().filter(|p| p.label == 0.0) {
                assert_ne!(n.b, truth_joined, "negative equals the true joined context");
                assert_ne!(n.b, truth_name, "negative equals the true leaf name");
            }
        }
    }

    #[test]
    fn finetune_runs_and_reduces_loss_over_epochs() {
        let udm = udm();
        let cases = cases(&udm);
        let vocab = Vocab::build(
            ["query text description number leaf a uint32"]
                .iter()
                .copied(),
            1,
        );
        let mut enc = Encoder::new(
            EncoderConfig {
                vocab_size: vocab.len(),
                dim: 16,
                heads: 2,
                layers: 1,
                ff_dim: 24,
                max_len: 16,
            },
            1,
        );
        let opts = FinetuneOptions {
            epochs: 5,
            negative_ratio: 3,
            ..Default::default()
        };
        let losses = finetune(&mut enc, &cases, &udm, &vocab, &opts);
        assert_eq!(losses.len(), 5);
        assert!(losses.last().unwrap() <= &losses[0]);
    }

    #[test]
    fn finetune_with_validation_scores_every_epoch() {
        let udm = udm();
        let cases = cases(&udm);
        let texts: Vec<String> = udm
            .leaves()
            .into_iter()
            .map(|l| udm_leaf_context(&udm, l).joined())
            .collect();
        let vocab = Vocab::build(texts.iter().map(String::as_str), 1);
        let mut enc = Encoder::new(
            EncoderConfig {
                vocab_size: vocab.len(),
                dim: 16,
                heads: 2,
                layers: 1,
                ff_dim: 24,
                max_len: 16,
            },
            1,
        );
        let opts = FinetuneOptions {
            epochs: 2,
            negative_ratio: 2,
            ..Default::default()
        };
        // Validate on the training cases — tiny smoke fixture.
        let report = finetune_with_validation(&mut enc, &cases, &cases, &udm, &vocab, &opts);
        assert_eq!(report.losses.len(), 2);
        assert_eq!(report.val_recall_at_1.len(), 2);
        assert!(report
            .val_recall_at_1
            .iter()
            .all(|r| (0.0..=1.0).contains(r)));
    }

    #[test]
    fn empty_cases_are_a_no_op() {
        let udm = udm();
        let vocab = Vocab::build(["x"].iter().copied(), 1);
        let mut enc = Encoder::new(EncoderConfig::small(vocab.len()), 1);
        let before = enc.embed_ids(&[1]);
        let losses = finetune(&mut enc, &[], &udm, &vocab, &FinetuneOptions::default());
        assert!(losses.is_empty());
        assert_eq!(enc.embed_ids(&[1]), before);
    }
}
