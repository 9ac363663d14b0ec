//! Proptest invariants of the DOM's link-walking traversals.
//!
//! The document stores parent, first-child, last-child and next-sibling
//! links and walks them without a stack. Over arbitrary soup, structured
//! tag soup, depth-flattened trees and corrupted manual pages, every
//! traversal must agree with a plain recursive reference built on
//! `children()` alone:
//!
//! - `descendants(id)` is the recursive pre-order below `id`;
//! - `following_siblings(c)` is the parent's children after `c`;
//! - every child's `parent()` is the node it was listed under;
//! - `text_of(id)` is the whitespace-normalized concatenation of the
//!   text nodes in `id`'s subtree, and `text_lines(id)` the recursive
//!   block rendering.
// Property-test bodies and helpers sit outside #[test] fns; panics are the
// assertion mechanism here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim::datasets::corrupt::{mutate, CorruptKind};
use nassim::datasets::{catalog::Catalog, manualgen, style, ManualPage};
use nassim_diag::chaos::FaultClass;
use nassim_html::dom::NodeKind;
use nassim_html::{Document, IngestBudget, NodeId};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Recursive pre-order of the nodes strictly below `id`.
fn reference_preorder(doc: &Document, id: NodeId, out: &mut Vec<NodeId>) {
    for child in doc.children(id) {
        out.push(child);
        reference_preorder(doc, child, out);
    }
}

/// Recursive rendering with a newline around every block element: the
/// definition `text_lines` implements iteratively.
fn reference_blocks(doc: &Document, id: NodeId, out: &mut String) {
    const BLOCK: &[&str] = &[
        "p", "div", "li", "tr", "br", "pre", "h1", "h2", "h3", "h4", "h5", "table", "ul", "ol",
        "dt", "dd", "section",
    ];
    match &doc.node(id).kind {
        NodeKind::Text(t) => out.push_str(t),
        NodeKind::Comment(_) => {}
        NodeKind::Root => {
            for child in doc.children(id) {
                reference_blocks(doc, child, out);
            }
        }
        NodeKind::Element(e) => {
            let block = BLOCK.contains(&&*e.name);
            if block && !out.ends_with('\n') && !out.is_empty() {
                out.push('\n');
            }
            for child in doc.children(id) {
                reference_blocks(doc, child, out);
            }
            if block && !out.ends_with('\n') {
                out.push('\n');
            }
        }
    }
}

/// Check every traversal invariant at every node of `doc`.
fn check_traversals(doc: &Document) -> Result<(), String> {
    let mut all = vec![doc.root()];
    reference_preorder(doc, doc.root(), &mut all);
    if all.len() != doc.len() {
        return Err(format!("{} nodes reachable of {}", all.len(), doc.len()));
    }
    for &id in &all {
        let mut below = Vec::new();
        reference_preorder(doc, id, &mut below);
        let walked: Vec<NodeId> = doc.descendants(id).collect();
        if walked != below {
            return Err(format!("descendants({id:?}) differs from the reference"));
        }
        let children: Vec<NodeId> = doc.children(id).collect();
        for (i, &child) in children.iter().enumerate() {
            if doc.parent(child) != Some(id) {
                return Err(format!("parent of {child:?} is not {id:?}"));
            }
            let after: Vec<NodeId> = doc.following_siblings(child).collect();
            if after != children[i + 1..] {
                return Err(format!("following_siblings({child:?}) differs"));
            }
        }
        let texts: String = std::iter::once(id)
            .chain(below.iter().copied())
            .filter_map(|n| match &doc.node(n).kind {
                NodeKind::Text(t) => Some(&**t),
                _ => None,
            })
            .collect();
        let normalized = texts.split_whitespace().collect::<Vec<_>>().join(" ");
        if doc.text_of(id) != normalized {
            return Err(format!("text_of({id:?}) differs"));
        }
        let mut blocks = String::new();
        reference_blocks(doc, id, &mut blocks);
        let lines: Vec<String> = blocks
            .lines()
            .map(|l| l.trim_end().to_string())
            .filter(|l| !l.trim().is_empty())
            .collect();
        if doc.text_lines(id) != lines {
            return Err(format!("text_lines({id:?}) differs"));
        }
    }
    if doc.following_siblings(doc.root()).next().is_some() || doc.parent(doc.root()).is_some() {
        return Err("the root has a sibling or a parent".into());
    }
    Ok(())
}

/// Markup fragments that build real structure: nesting, implicit
/// closes, void elements, stray end tags, comments and entities.
const FRAGMENTS: &[&str] = &[
    "<div class=\"a b\">",
    "</div>",
    "<p>",
    "</p>",
    "<ul>",
    "<li>",
    "</ul>",
    "<table>",
    "<tr>",
    "<td>",
    "</table>",
    "<br>",
    "<pre>",
    "</pre>",
    "<span class=x>",
    "</span>",
    "<!-- note -->",
    "text ",
    "  peer &lt;ip&gt;\n",
    "<b>",
    "</B>",
    "<section>",
    "</section>",
];

/// A small clean helix manual, generated once for the whole run.
fn manual_pages() -> &'static [ManualPage] {
    static PAGES: OnceLock<Vec<ManualPage>> = OnceLock::new();
    PAGES.get_or_init(|| {
        let catalog = Catalog::base();
        let st = style::vendor("helix").unwrap();
        manualgen::generate(
            &st,
            &catalog,
            &manualgen::GenOptions {
                seed: 907,
                syntax_error_rate: 0.0,
                ambiguity_rate: 0.0,
                ..Default::default()
            },
        )
        .pages
    })
}

proptest! {
    /// Arbitrary text, mostly unstructured.
    #[test]
    fn traversals_match_reference_on_soup(input in "\\PC{0,300}") {
        let check = check_traversals(&Document::parse(&input));
        prop_assert!(check.is_ok(), "{:?} on {:?}", check, input);
    }

    /// Soup dense in the tokenizer's trigger characters.
    #[test]
    fn traversals_match_reference_on_markup_soup(input in "[<>a-z/\"'=&;#! \n-]{0,300}") {
        let check = check_traversals(&Document::parse(&input));
        prop_assert!(check.is_ok(), "{:?} on {:?}", check, input);
    }

    /// Tag soup with real nesting, flattened by a random depth guard.
    #[test]
    fn traversals_match_reference_on_structured_soup(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..80),
        max_depth in 1usize..12,
    ) {
        let input: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let budget = IngestBudget { max_depth, ..IngestBudget::default() };
        let (doc, _) = Document::parse_budgeted(&input, &budget).unwrap();
        let check = check_traversals(&doc);
        prop_assert!(check.is_ok(), "{:?} on {:?}", check, input);
    }

    /// Real manual pages mutated by every corruption class.
    #[test]
    fn traversals_match_reference_on_mutated_manuals(
        page_idx in 0usize..200,
        kind_idx in 0usize..6,
        seed in 0u64..500,
    ) {
        let pages = manual_pages();
        let page = &pages[page_idx % pages.len()];
        let kind = CorruptKind::ALL[kind_idx % CorruptKind::ALL.len()];
        // The nesting bomb is structurally huge and recursion in the
        // reference would not survive it; the chaos harness covers it.
        prop_assume!(kind != CorruptKind::NestingBomb);
        let mutated = mutate(kind, seed, &page.html);
        let check = check_traversals(&Document::parse(&mutated));
        prop_assert!(check.is_ok(), "{:?} on {} ({:?})", check, page.url, kind);
    }
}
