//! Deterministic manual-page corruption — the chaos layer of ingestion.
//!
//! PR 3's `faults::FaultPlan` made the *device* channel adversarial;
//! this module does the same for the *manual* channel. Real crawled
//! documentation fails in mundane ways: downloads truncate mid-tag,
//! templating bugs drop or swap tags, CSS classes get renamed, encodings
//! garble entity text, generators emit absurdly nested markup, and CMS
//! migrations duplicate or reorder sections. A [`CorruptionPlan`]
//! reproduces exactly those failures: the seeded
//! [`nassim_diag::chaos::SeededPlan`] decides per page whether to
//! corrupt and which class, the mutation content derives from
//! `seed ^ fnv1a(url)` so it is independent of call order, and every
//! injection is recorded in a drainable log so chaos tests can assert
//! exactly what was injected.
//!
//! Armed from the environment with `CorruptionPlan::from_env("NASSIM_CORRUPT")`
//! (`NASSIM_CORRUPT=seed:rate`, the ingestion twin of `NASSIM_FAULTS`).

use crate::manualgen::{fnv1a, ManualPage};
use nassim_diag::chaos::{FaultClass, SeededPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Nesting depth of a [`CorruptKind::NestingBomb`]. Chosen to exceed the
/// default `IngestBudget` node ceiling (100k) so a bombed page is
/// guaranteed to quarantine rather than silently parse.
pub const NEST_BOMB_DEPTH: usize = 150_000;

/// One class of injected manual corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorruptKind {
    /// Cut the page off in the middle of a tag (interrupted download).
    Truncate,
    /// Delete one start tag or swap two (templating bug).
    TagChurn,
    /// Mangle a `class` attribute value (CSS-class rename/typo) — the
    /// exact failure Table 1's inconsistent classes warn about.
    AttrScramble,
    /// Splice undecodable entity soup plus an orphan close tag into the
    /// text (encoding corruption).
    EntityGarbage,
    /// Splice [`NEST_BOMB_DEPTH`] nested `<div>`s into the page
    /// (generator runaway; trips the ingestion node budget).
    NestingBomb,
    /// Duplicate or reorder a chunk of the page (CMS migration damage).
    SectionShuffle,
}

impl FaultClass for CorruptKind {
    const ALL: &'static [CorruptKind] = &[
        CorruptKind::Truncate,
        CorruptKind::TagChurn,
        CorruptKind::AttrScramble,
        CorruptKind::EntityGarbage,
        CorruptKind::NestingBomb,
        CorruptKind::SectionShuffle,
    ];
}

impl fmt::Display for CorruptKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CorruptKind::Truncate => "truncate",
            CorruptKind::TagChurn => "tag-churn",
            CorruptKind::AttrScramble => "attr-scramble",
            CorruptKind::EntityGarbage => "entity-garbage",
            CorruptKind::NestingBomb => "nesting-bomb",
            CorruptKind::SectionShuffle => "section-shuffle",
        })
    }
}

/// A seeded manual-corruption plan (the ingestion twin of
/// `nassim-device`'s `FaultPlan`); the target of a decision is the page
/// URL.
///
/// Which pages get hit depends on the shared decision stream (call
/// order); *what* a hit page is mutated into depends only on the seed
/// and the page URL, so corrupted bytes replay exactly per seed.
pub type CorruptionPlan = SeededPlan<CorruptKind>;

/// Corrupt one page, if `plan` decides to. Mutation content is derived
/// from `seed ^ fnv1a(url)`, so two plans with the same seed produce
/// byte-identical corrupted pages regardless of the order pages are
/// presented in.
pub fn corrupt_page(plan: &CorruptionPlan, url: &str, html: &str) -> Option<String> {
    let kind = plan.decide(url)?;
    Some(mutate(kind, plan.seed() ^ fnv1a(url), html))
}

/// Corrupt a generated manual in place; returns how many pages were
/// hit. The plan's injection log records each one.
pub fn corrupt_pages(plan: &CorruptionPlan, pages: &mut [ManualPage]) -> usize {
    let mut hit = 0;
    for page in pages {
        if let Some(mutated) = corrupt_page(plan, &page.url, &page.html) {
            page.html = mutated;
            hit += 1;
        }
    }
    hit
}

/// Largest index `≤ i` that is a char boundary of `s` (mutations slice
/// at byte offsets found by scanning for ASCII `<`/`>`, but [`mutate`]
/// is public fuzz surface and must stay safe on arbitrary UTF-8).
fn boundary_at(s: &str, i: usize) -> usize {
    let mut i = i.min(s.len());
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// Byte offsets of every `<` that starts a tag-ish construct.
fn tag_starts(html: &str) -> Vec<usize> {
    html.match_indices('<').map(|(i, _)| i).collect()
}

/// Byte offsets just past every `>`.
fn tag_ends(html: &str) -> Vec<usize> {
    html.match_indices('>').map(|(i, _)| i + 1).collect()
}

/// A random offset just past some `>` (the end of the page when there
/// is none), drawing from `rng` only when there is a choice.
fn random_tag_end(html: &str, rng: &mut StdRng) -> usize {
    let ends = tag_ends(html);
    if ends.is_empty() {
        return html.len();
    }
    boundary_at(html, ends[rng.gen_range(0..ends.len())])
}

/// Spans (`start..end` inclusive of `>`) of complete start tags.
fn start_tag_spans(html: &str) -> Vec<(usize, usize)> {
    let bytes = html.as_bytes();
    let mut spans = Vec::new();
    for (i, _) in html.match_indices('<') {
        let after = i + 1;
        if after >= bytes.len() || !bytes[after].is_ascii_alphabetic() {
            continue; // end tags, comments, doctypes, stray '<'
        }
        if let Some(close) = html[after..].find('>') {
            spans.push((i, after + close + 1));
        }
    }
    spans
}

/// Apply one corruption class to `html`, deterministically from `seed`.
///
/// Public so fuzz tests can drive every class directly over arbitrary
/// input; the parsing layers must survive whatever this emits.
pub fn mutate(kind: CorruptKind, seed: u64, html: &str) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    match kind {
        CorruptKind::Truncate => {
            // Cut mid-tag: the result always ends inside an open `<…`,
            // which the tokenizer reports as an unterminated tag.
            let starts = tag_starts(html);
            if starts.is_empty() {
                return format!("{html}<tr");
            }
            // Prefer the later tags so some content survives the cut.
            let pick = starts[rng.gen_range(starts.len() / 2..starts.len())];
            html[..boundary_at(html, pick + 2)].to_string()
        }
        CorruptKind::TagChurn => {
            let spans = start_tag_spans(html);
            if spans.is_empty() {
                return format!("{html}</churn>");
            }
            if spans.len() >= 2 && rng.gen_bool(0.5) {
                // Swap two distinct start tags.
                let a = rng.gen_range(0..spans.len());
                let mut b = rng.gen_range(0..spans.len());
                if a == b {
                    b = (b + 1) % spans.len();
                }
                let (first, second) = if spans[a].0 < spans[b].0 {
                    (spans[a], spans[b])
                } else {
                    (spans[b], spans[a])
                };
                let mut out = String::with_capacity(html.len());
                out.push_str(&html[..first.0]);
                out.push_str(&html[second.0..second.1]);
                out.push_str(&html[first.1..second.0]);
                out.push_str(&html[first.0..first.1]);
                out.push_str(&html[second.1..]);
                out
            } else {
                // Delete one start tag; its close tag becomes a stray.
                let (s, e) = spans[rng.gen_range(0..spans.len())];
                format!("{}{}", &html[..s], &html[e..])
            }
        }
        CorruptKind::AttrScramble => {
            // Mangle one class attribute value: every letter shifts one
            // place, so `sectiontitle` no longer matches any parser
            // table — the silent-breakage case.
            let marker = "class=\"";
            let hits: Vec<usize> = html.match_indices(marker).map(|(i, _)| i).collect();
            if hits.is_empty() {
                return format!("{html}</scrambled>");
            }
            let at = hits[rng.gen_range(0..hits.len())] + marker.len();
            let Some(end) = html[at..].find('"').map(|e| at + e) else {
                return format!("{html}</scrambled>");
            };
            let scrambled: String = html[at..end]
                .chars()
                .map(|c| match c {
                    'a'..='y' | 'A'..='Y' => (c as u8 + 1) as char,
                    'z' => 'a',
                    'Z' => 'A',
                    other => other,
                })
                .collect();
            format!("{}{}{}", &html[..at], scrambled, &html[end..])
        }
        CorruptKind::EntityGarbage => {
            // Undecodable entity soup plus an orphan close tag, spliced
            // after a random tag end; the stray close tag guarantees a
            // recorded markup defect even when the page still parses.
            const SOUP: &str = "&#xFFFFFF;&bogus;&#;\u{FFFD}\u{FFFD}</zzzgarbage>";
            let at = random_tag_end(html, &mut rng);
            format!("{}{}{}", &html[..at], SOUP, &html[at..])
        }
        CorruptKind::NestingBomb => {
            // A runaway-generator page: deeper than the ingestion node
            // budget allows, so the page quarantines.
            let at = random_tag_end(html, &mut rng);
            let mut bomb = String::with_capacity(NEST_BOMB_DEPTH * 5);
            for _ in 0..NEST_BOMB_DEPTH {
                bomb.push_str("<div>");
            }
            format!("{}{}{}", &html[..at], bomb, &html[at..])
        }
        CorruptKind::SectionShuffle => {
            // Duplicate or displace a chunk of the page, cut at tag
            // boundaries (CMS migration damage).
            let ends = tag_ends(html);
            if ends.len() < 2 {
                return format!("{html}{html}");
            }
            let a = ends[rng.gen_range(0..ends.len() - 1)];
            let bs: Vec<usize> = ends.iter().copied().filter(|&e| e > a).collect();
            let b = bs[rng.gen_range(0..bs.len())];
            let (a, b) = (boundary_at(html, a), boundary_at(html, b));
            let chunk = &html[a..b];
            if rng.gen_bool(0.5) {
                // Duplicate the chunk in place.
                format!("{}{}{}", &html[..b], chunk, &html[b..])
            } else {
                // Move the chunk to the end of the page.
                format!("{}{}{}", &html[..a], &html[b..], chunk)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: &str = concat!(
        r#"<div class="sectiontitle">Format</div>"#,
        r#"<p class="cmd">vlan <b>&lt;vlan-id&gt;</b></p>"#,
        r#"<div class="section"><p>Creates a VLAN.</p></div>"#,
    );

    #[test]
    fn every_class_changes_the_page() {
        for &kind in CorruptKind::ALL {
            let out = mutate(kind, 9, PAGE);
            assert_ne!(out, PAGE, "{kind} left the page untouched");
        }
    }

    #[test]
    fn mutation_content_is_seed_deterministic() {
        for &kind in CorruptKind::ALL {
            assert_eq!(mutate(kind, 42, PAGE), mutate(kind, 42, PAGE));
        }
    }

    #[test]
    fn truncate_ends_mid_tag() {
        let out = mutate(CorruptKind::Truncate, 3, PAGE);
        let last_open = out.rfind('<').expect("cut keeps a '<'");
        assert!(
            !out[last_open..].contains('>'),
            "truncation must end inside a tag: …{}",
            &out[last_open..]
        );
    }

    #[test]
    fn nesting_bomb_exceeds_node_budget() {
        let out = mutate(CorruptKind::NestingBomb, 5, PAGE);
        assert!(out.matches("<div>").count() >= NEST_BOMB_DEPTH);
    }

    #[test]
    fn entity_garbage_includes_orphan_close_tag() {
        let out = mutate(CorruptKind::EntityGarbage, 5, PAGE);
        assert!(out.contains("</zzzgarbage>"));
    }

    #[test]
    fn corrupted_bytes_are_order_independent() {
        // Same seed, pages presented in different orders: whenever the
        // same page is hit by the same class, the bytes must agree.
        let a = CorruptionPlan::uniform(7, 1.0);
        let b = CorruptionPlan::uniform(7, 1.0);
        let out_a = corrupt_page(&a, "manual://x/p", PAGE);
        let _ = corrupt_page(&b, "manual://x/other", "<p>other</p>");
        let out_b = corrupt_page(&b, "manual://x/p", PAGE);
        assert_eq!(out_a, out_b);
    }

    #[test]
    fn mutate_is_utf8_safe_on_multibyte_input() {
        let weird = "héllo <ταγ attr=\"ü\">日本語</ταγ> 🦀";
        for &kind in CorruptKind::ALL {
            for seed in 0..8 {
                let out = mutate(kind, seed, weird);
                assert!(std::str::from_utf8(out.as_bytes()).is_ok());
            }
        }
    }
}
