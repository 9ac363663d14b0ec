//! Generic sentence-pair corpora for encoder pre-training.
//!
//! The paper's SBERT/SimCSE come pre-trained on large general corpora
//! (NLI etc.). The substitute encoders need an equivalent: sentence pairs
//! that teach *sentence matching in this register of technical English*
//! without leaking the mapping task's ground truth. Sentences are minted
//! from templates over generic subject/attribute pools; positives are
//! paraphrases (same synonym machinery the UDM generator uses), negatives
//! are unrelated sentences.

use crate::words::{paraphrase, ATTR_WORDS, FEATURE_WORDS, OBJECT_WORDS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One labelled sentence pair (label 1.0 = same meaning, 0.0 = unrelated).
#[derive(Debug, Clone, PartialEq)]
pub struct SentencePair {
    pub a: String,
    pub b: String,
    pub label: f32,
}

/// Sentence templates; `{f}`/`{o}`/`{t}` are filled from the word pools.
const TEMPLATES: &[&str] = &[
    "Specifies the {t} of the {f} {o}.",
    "Sets the {t} applied to the {o} for {f}.",
    "Displays the current {t} of the {f} {o}.",
    "The {t} is an integer that controls the {f} {o}.",
    "Enables the {f} {o} on the device.",
    "Creates a {f} {o} and enters its view.",
    "Deletes the {t} configured on the {f} {o}.",
    "Configures the maximum {t} of the {o}.",
    "The default {t} of the {f} {o} depends on the device model.",
    "Specifies the name of the {o} used by the {f} policy.",
];

/// Mint one base sentence, deterministic in the RNG state.
fn sentence<R: Rng + ?Sized>(rng: &mut R) -> String {
    let t = TEMPLATES[rng.gen_range(0..TEMPLATES.len())];
    t.replace("{f}", FEATURE_WORDS[rng.gen_range(0..FEATURE_WORDS.len())])
        .replace("{o}", OBJECT_WORDS[rng.gen_range(0..OBJECT_WORDS.len())])
        .replace("{t}", ATTR_WORDS[rng.gen_range(0..ATTR_WORDS.len())])
}

/// Generate `n` positive + `n` negative pairs (2n total), seeded.
pub fn sentence_pairs(n: usize, seed: u64) -> Vec<SentencePair> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(2 * n);
    for _ in 0..n {
        let base = sentence(&mut rng);
        let para = paraphrase(&base, 0.7, &mut rng);
        out.push(SentencePair {
            a: base.clone(),
            b: para,
            label: 1.0,
        });
        let other = sentence(&mut rng);
        out.push(SentencePair {
            a: base,
            b: other,
            label: 0.0,
        });
    }
    out
}

/// Positive pairs only — the SimCSE-style contrastive corpus (negatives
/// come from the batch).
pub fn positive_pairs(n: usize, seed: u64) -> Vec<(String, String)> {
    sentence_pairs(n, seed)
        .into_iter()
        .filter(|p| p.label == 1.0)
        .map(|p| (p.a, p.b))
        .collect()
}

/// All raw sentences of a pair corpus (vocabulary building).
pub fn sentences_of(pairs: &[SentencePair]) -> Vec<&str> {
    pairs
        .iter()
        .flat_map(|p| [p.a.as_str(), p.b.as_str()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_balanced_pairs() {
        let pairs = sentence_pairs(50, 1);
        assert_eq!(pairs.len(), 100);
        let pos = pairs.iter().filter(|p| p.label == 1.0).count();
        assert_eq!(pos, 50);
    }

    #[test]
    fn positives_share_content_words() {
        let pairs = sentence_pairs(30, 2);
        for p in pairs.iter().filter(|p| p.label == 1.0) {
            // A paraphrase keeps at least one non-stopword in common.
            let a_words: Vec<&str> = p.a.split_whitespace().collect();
            let common =
                p.b.split_whitespace()
                    .filter(|w| w.len() > 3 && a_words.contains(w))
                    .count();
            assert!(common >= 1, "no overlap: `{}` vs `{}`", p.a, p.b);
        }
    }

    #[test]
    fn corpus_is_deterministic() {
        assert_eq!(sentence_pairs(10, 7), sentence_pairs(10, 7));
        assert_ne!(sentence_pairs(10, 7), sentence_pairs(10, 8));
    }

    #[test]
    fn positive_pairs_filters_correctly() {
        let pos = positive_pairs(20, 3);
        assert_eq!(pos.len(), 20);
    }
}
