//! Word pools and paraphrasing utilities.
//!
//! Two generators need controlled lexical variation: vendor styles (the
//! same intent worded differently per vendor, Table 2) and the UDM
//! generator (attribute descriptions that are paraphrases — not copies —
//! of manual text, which is what makes the mapping task non-trivial).

use rand::Rng;

/// Synonym sets used for paraphrasing prose. The first entry of each set
/// is the canonical surface form used by catalog descriptions; paraphrase
/// swaps occurrences for another member of the set.
pub const SYNONYM_SETS: &[&[&str]] = &[
    &["specifies", "sets", "configures", "defines", "designates"],
    &["displays", "shows", "lists", "prints"],
    &["creates", "adds", "establishes", "instantiates"],
    &["deletes", "removes", "destroys", "clears"],
    &["enables", "activates", "turns on", "starts"],
    &["disables", "deactivates", "turns off", "stops"],
    &["device", "switch", "router", "node", "system"],
    &["interface", "port"],
    &["address", "locator"],
    &["identifier", "id", "number", "index"],
    &["peer", "neighbor"],
    &["parameter", "attribute", "value", "field"],
    &["view", "mode", "context"],
    &["command", "instruction"],
    &["priority", "precedence"],
    &["maximum", "upper limit on", "cap on"],
    &["minimum", "lower bound on", "floor on"],
    &["range", "interval", "span"],
    &["name", "label", "string"],
    &["current", "present", "active"],
    &["default", "initial", "factory"],
    &["policy", "rule set", "profile"],
    &["timer", "timeout", "interval"],
    &["integer", "numeric value", "whole number"],
    &["remote", "far-end"],
    &["group", "set", "bundle"],
    &["assigned", "allocated", "bound"],
    &["characters", "chars", "symbols"],
    &["smaller", "lower", "lesser"],
    &["higher", "greater", "larger"],
    &["indicates", "denotes", "signals"],
    &["notation", "format", "form"],
];

/// Feature-ish nouns used to mint procedural filler commands at scale.
pub const FEATURE_WORDS: &[&str] = &[
    "arp",
    "nd",
    "icmp",
    "igmp",
    "pim",
    "msdp",
    "rip",
    "ldp",
    "rsvp",
    "te",
    "bfd",
    "nqa",
    "sflow",
    "netstream",
    "erps",
    "smart-link",
    "dldp",
    "efm",
    "cfm",
    "y1731",
    "ptp",
    "synce",
    "poe",
    "voice",
    "multicast",
    "anycast",
    "underlay",
    "overlay",
    "segment",
    "flow",
    "telemetry",
    "twamp",
];

/// Object nouns for procedural commands.
pub const OBJECT_WORDS: &[&str] = &[
    "session",
    "group",
    "policy",
    "profile",
    "template",
    "instance",
    "zone",
    "filter",
    "map",
    "class",
    "queue",
    "scheduler",
    "pool",
    "binding",
    "tracker",
    "probe",
    "listener",
    "target",
    "entry",
    "peer",
];

/// Attribute nouns for procedural commands.
pub const ATTR_WORDS: &[&str] = &[
    "timeout",
    "interval",
    "threshold",
    "priority",
    "weight",
    "cost",
    "limit",
    "rate",
    "burst",
    "depth",
    "length",
    "ttl",
    "retries",
    "delay",
    "jitter",
    "budget",
    "window",
    "period",
    "quota",
    "offset",
];

/// Paraphrase `text` by substituting whole-word synonyms. `strength` in
/// `0.0..=1.0` is the probability that each *eligible* word is swapped;
/// at 0.0 the text is returned unchanged.
pub fn paraphrase<R: Rng + ?Sized>(text: &str, strength: f64, rng: &mut R) -> String {
    let mut out: Vec<String> = Vec::new();
    for word in text.split_whitespace() {
        // Separate trailing punctuation so "address." still matches.
        let trimmed = word.trim_end_matches(['.', ',', ';', ':']);
        let punct = &word[trimmed.len()..];
        let lower = trimmed.to_ascii_lowercase();
        let replacement = SYNONYM_SETS
            .iter()
            .find(|set| set.contains(&lower.as_str()))
            .filter(|_| rng.gen_bool(strength))
            .map(|set| {
                // Pick a *different* member of the set.
                let others: Vec<&&str> = set.iter().filter(|w| **w != lower).collect();
                others[rng.gen_range(0..others.len())].to_string()
            });
        match replacement {
            Some(mut r) => {
                // Preserve initial capitalisation.
                if trimmed
                    .chars()
                    .next()
                    .map(|c| c.is_uppercase())
                    .unwrap_or(false)
                {
                    let mut chars = r.chars();
                    if let Some(first) = chars.next() {
                        r = first.to_uppercase().collect::<String>() + chars.as_str();
                    }
                }
                out.push(format!("{r}{punct}"));
            }
            None => out.push(word.to_string()),
        }
    }
    out.join(" ")
}

/// Reorder the sentence-level clauses of a description: "A. B." → "B. A.".
/// Combined with [`paraphrase`], this is the "controlled divergence" knob
/// of the UDM generator.
pub fn shuffle_sentences<R: Rng + ?Sized>(text: &str, rng: &mut R) -> String {
    let mut sentences: Vec<&str> = text
        .split_inclusive('.')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if sentences.len() > 1 {
        // Fisher–Yates.
        for i in (1..sentences.len()).rev() {
            let j = rng.gen_range(0..=i);
            sentences.swap(i, j);
        }
    }
    sentences.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paraphrase_at_zero_strength_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let text = "Specifies the IPv4 address of a peer.";
        assert_eq!(paraphrase(text, 0.0, &mut rng), text);
    }

    #[test]
    fn paraphrase_at_full_strength_changes_eligible_words() {
        let mut rng = StdRng::seed_from_u64(1);
        let text = "Specifies the address of a peer.";
        let para = paraphrase(text, 1.0, &mut rng);
        assert_ne!(para, text);
        // "Specifies" must have become another synonym, capitalised.
        assert!(para.chars().next().unwrap().is_uppercase());
        assert!(!para.to_ascii_lowercase().starts_with("specifies"));
        // Trailing period preserved.
        assert!(para.ends_with('.'));
    }

    #[test]
    fn paraphrase_preserves_non_synonym_words() {
        let mut rng = StdRng::seed_from_u64(2);
        let para = paraphrase("Specifies the BGP AS number.", 1.0, &mut rng);
        assert!(para.contains("BGP"));
        assert!(para.contains("AS"));
    }

    #[test]
    fn paraphrase_is_deterministic_per_seed() {
        let text = "Displays the current interface priority value.";
        let a = paraphrase(text, 0.8, &mut StdRng::seed_from_u64(9));
        let b = paraphrase(text, 0.8, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn shuffle_keeps_all_sentences() {
        let mut rng = StdRng::seed_from_u64(3);
        let text = "First clause. Second clause. Third clause.";
        let shuffled = shuffle_sentences(text, &mut rng);
        for s in ["First clause.", "Second clause.", "Third clause."] {
            assert!(shuffled.contains(s), "{shuffled}");
        }
    }

    #[test]
    fn single_sentence_unchanged_by_shuffle() {
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(
            shuffle_sentences("Only one sentence.", &mut rng),
            "Only one sentence."
        );
    }
}
