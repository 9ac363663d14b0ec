//! End-to-end parity of the batched query path: `evaluate` over a mapper
//! embedding through [`BatchEncoder`] must report the same recall@k and
//! MRR, bit for bit, as the same mapper embedding every text through the
//! autograd tape. `infer_parity` pins the encoder; this pins what the
//! Table-5 and Table-6 columns are computed from, for both the DL and the
//! IR+DL model.
// Test fixtures: unwrap/expect outside #[test] fns (helpers) are fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim_corpus::Udm;
use nassim_datasets::{catalog::Catalog, udmgen};
use nassim_mapper::context::{udm_leaf_context, Context};
use nassim_mapper::eval::{evaluate, EvalCase, EvalReport};
use nassim_mapper::models::{Embedder, Mapper};
use nassim_nlp::{BatchEncoder, Encoder, EncoderConfig, Vocab};
use std::sync::Arc;

/// `Embedder` over the autograd tape: the ground truth the batched path
/// replaced.
struct TapeEmbedder {
    encoder: Encoder,
    vocab: Vocab,
}

impl Embedder for TapeEmbedder {
    fn embed(&self, text: &str) -> Vec<f32> {
        self.encoder
            .embed_ids_tape(&self.vocab.encode(text, self.encoder.config.max_len))
    }

    /// A serial per-text sweep, so no batching path is borrowed.
    fn embed_batch(&self, texts: &[&str]) -> Vec<Vec<f32>> {
        texts.iter().map(|t| self.embed(t)).collect()
    }
}

/// The generated UDM and one case per aligned parameter: the query names
/// the parameter and its command, the truth is the aligned leaf.
fn udm_and_cases() -> (Udm, Vec<EvalCase>) {
    let data = udmgen::generate(
        &Catalog::base(),
        &udmgen::UdmGenOptions {
            seed: 5,
            distractors: 20,
            ..Default::default()
        },
    );
    let cases = data
        .alignment
        .iter()
        .step_by(3)
        .map(|a| EvalCase {
            context: Context {
                sequences: vec![
                    a.canonical_param.replace('-', " "),
                    a.command_key.replace(['-', '.'], " "),
                ],
            },
            truth: data.udm.lookup(&a.udm_path).unwrap(),
            label: format!("{}/{}", a.command_key, a.canonical_param),
        })
        .collect();
    (data.udm, cases)
}

fn assert_reports_equal(tape: &EvalReport, batched: &EvalReport, model: &str) {
    assert_eq!(tape.cases, batched.cases, "{model}: case counts differ");
    assert_eq!(
        tape.mrr.to_bits(),
        batched.mrr.to_bits(),
        "{model}: MRR {} (tape) vs {} (batched)",
        tape.mrr,
        batched.mrr
    );
    let bits = |r: &EvalReport| -> Vec<(usize, u64)> {
        r.recall.iter().map(|(&k, v)| (k, v.to_bits())).collect()
    };
    assert_eq!(bits(tape), bits(batched), "{model}: recall@k differs");
}

#[test]
fn tape_and_batched_evaluation_reports_are_bit_identical() {
    let (udm, cases) = udm_and_cases();
    assert!(cases.len() >= 20, "need a real evaluation set");

    let mut texts: Vec<String> = udm
        .leaves()
        .into_iter()
        .flat_map(|l| udm_leaf_context(&udm, l).sequences)
        .collect();
    texts.extend(
        cases
            .iter()
            .flat_map(|c| c.context.sequences.iter().cloned()),
    );
    let vocab = Vocab::build(texts.iter().map(String::as_str), 1);
    let encoder = Encoder::new(
        EncoderConfig {
            vocab_size: vocab.len(),
            dim: 16,
            heads: 2,
            layers: 1,
            ff_dim: 32,
            max_len: 16,
        },
        11,
    );

    let tape: Arc<dyn Embedder> = Arc::new(TapeEmbedder {
        encoder: encoder.clone(),
        vocab: vocab.clone(),
    });
    let batched: Arc<dyn Embedder> = Arc::new(BatchEncoder::new(encoder, vocab));
    let ks = [1, 5, 10];
    let shortlist = 50;

    let tape_dl = evaluate(&Mapper::dl(&udm, tape.clone()), &cases, &ks);
    let batched_dl = evaluate(&Mapper::dl(&udm, batched.clone()), &cases, &ks);
    assert_reports_equal(&tape_dl, &batched_dl, "DL");
    assert!(tape_dl.mrr > 0.0, "a degenerate ranking proves nothing");

    let tape_ir_dl = evaluate(&Mapper::ir_dl(&udm, tape, shortlist), &cases, &ks);
    let batched_ir_dl = evaluate(&Mapper::ir_dl(&udm, batched, shortlist), &cases, &ks);
    assert_reports_equal(&tape_ir_dl, &batched_ir_dl, "IR+DL");
    assert!(tape_ir_dl.mrr > 0.0, "a degenerate ranking proves nothing");
}
