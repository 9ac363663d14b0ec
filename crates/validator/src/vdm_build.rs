//! Assemble the validated VDM tree from a hierarchy derivation.
//!
//! Nodes are CLI-view pairs: one node per (page, CLI form, working view).
//! A node's children are the commands working in the view it was derived
//! to open. Views whose openers were derived wrongly (or not at all)
//! leave their commands unplaced; those are reported so the construction
//! is never silently lossy.

use crate::hierarchy::{Derivation, ROOT_OPENER};
use nassim_corpus::{Vdm, VdmNodeId};
use nassim_parser::ParsedPage;
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// The assembled VDM plus placement diagnostics.
#[derive(Debug, Clone)]
pub struct VdmBuild {
    pub vdm: Vdm,
    /// Page indices whose working view could not be reached from the
    /// root (missing/ambiguous opener chain).
    pub unplaced_pages: Vec<usize>,
}

impl VdmBuild {
    /// Every unplaced page as a `build`-stage warning diagnostic spanned
    /// at its source page, so lossy construction is never silent.
    pub fn diagnostics<P: Borrow<ParsedPage>>(&self, pages: &[P]) -> Vec<nassim_diag::Diagnostic> {
        self.unplaced_pages
            .iter()
            .map(|&pi| {
                let (url, views) = pages
                    .get(pi)
                    .map(|p| {
                        let p: &ParsedPage = p.borrow();
                        (p.url.as_str(), p.entry.parent_views.join(", "))
                    })
                    .unwrap_or(("<unknown page>", String::new()));
                nassim_diag::Diagnostic::warning(
                    nassim_diag::Stage::Build,
                    format!(
                        "page not placed in VDM: working view(s) [{views}] unreachable from the root view"
                    ),
                )
                .with_span(nassim_diag::SourceSpan::point(url, 0))
            })
            .collect()
    }
}

/// Build the VDM of `vendor` from parsed pages (owned or shared) and
/// their derivation. The VDM corpus shares each page's entry (an `Arc`
/// bump per page), so a build copies no entries.
pub fn build_vdm<P: Borrow<ParsedPage>>(
    vendor: &str,
    pages: &[P],
    derivation: &Derivation,
) -> VdmBuild {
    let root_view = derivation.root_view.as_deref().unwrap_or("system view");
    let mut vdm = Vdm::new(vendor, root_view);

    // page index → corpus index in the VDM.
    let mut corpus_idx = Vec::with_capacity(pages.len());
    for page in pages {
        corpus_idx.push(vdm.push_corpus(Arc::clone(&page.borrow().entry)));
    }

    // view name → opener page (ROOT_OPENER ⇒ root view).
    // Reverse: opener page → views it opens.
    let mut opens_of_page: BTreeMap<usize, Vec<&str>> = BTreeMap::new();
    for (view, &opener) in &derivation.openers {
        if opener != ROOT_OPENER {
            opens_of_page.entry(opener).or_default().push(view);
        }
    }

    // Pages grouped by working view.
    let mut pages_in_view: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (pi, page) in pages.iter().enumerate() {
        for view in &page.borrow().entry.parent_views {
            pages_in_view.entry(view).or_default().push(pi);
        }
    }

    // BFS from the root view, expanding each view once.
    let mut placed = vec![false; pages.len()];
    let mut queue: Vec<(&str, VdmNodeId)> = vec![(root_view, vdm.root())];
    let mut expanded: HashSet<&str> = HashSet::new();
    while let Some((view, parent_node)) = queue.pop() {
        if !expanded.insert(view) {
            continue; // guard against derivation cycles
        }
        let Some(members) = pages_in_view.get(view) else {
            continue;
        };
        for &pi in members {
            placed[pi] = true;
            let opens: &[&str] = opens_of_page.get(&pi).map(Vec::as_slice).unwrap_or(&[]);
            for (ci, cli) in pages[pi].borrow().entry.clis.iter().enumerate() {
                // Only the primary form opens the sub-view; undo/no forms
                // tear configuration down.
                let enters = if ci == 0 {
                    opens.first().copied()
                } else {
                    None
                };
                let node = vdm.add_node(
                    parent_node,
                    cli.clone(),
                    view,
                    Some(corpus_idx[pi]),
                    enters.map(str::to_string),
                );
                if let Some(v) = enters {
                    queue.push((v, node));
                }
            }
        }
    }

    let unplaced_pages = (0..pages.len()).filter(|&i| !placed[i]).collect();
    VdmBuild {
        vdm,
        unplaced_pages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::derive_hierarchy;
    use nassim_corpus::CorpusEntry;
    use nassim_parser::ParsedPage;

    fn page(url: &str, clis: Vec<&str>, view: &str, examples: Vec<Vec<&str>>) -> ParsedPage {
        ParsedPage {
            url: url.to_string(),
            entry: Arc::new(CorpusEntry {
                clis: clis.into_iter().map(str::to_string).collect(),
                func_def: String::new(),
                parent_views: vec![view.to_string()],
                para_def: Vec::new(),
                examples: examples
                    .into_iter()
                    .map(|s| s.into_iter().map(str::to_string).collect())
                    .collect(),
                source: url.to_string(),
            }),
            context_path: None,
            enters_view: None,
        }
    }

    fn corpus() -> Vec<ParsedPage> {
        vec![
            page(
                "p0",
                vec!["bgp <as-number>", "undo bgp <as-number>"],
                "system view",
                vec![vec!["bgp 100"]],
            ),
            page(
                "p1",
                vec!["peer <ipv4-address> group <group-name>"],
                "BGP view",
                vec![vec!["bgp 100", " peer 10.1.1.1 group test"]],
            ),
            page(
                "p2",
                vec!["sysname <host-name>"],
                "system view",
                vec![vec!["sysname core1"]],
            ),
        ]
    }

    #[test]
    fn builds_tree_with_cli_view_pairs() {
        let pages = corpus();
        let d = derive_hierarchy(&pages);
        let built = build_vdm("helix", &pages, &d);
        assert!(built.unplaced_pages.is_empty());
        // 2 forms of bgp + 1 peer + 1 sysname = 4 CLI-view pairs.
        assert_eq!(built.vdm.cli_view_pairs(), 4);
        // peer sits under bgp.
        let peer = built
            .vdm
            .iter()
            .find(|(_, n)| n.template.starts_with("peer"))
            .unwrap();
        let parent = built.vdm.node(peer.0).parent.unwrap();
        assert_eq!(built.vdm.node(parent).template, "bgp <as-number>");
        assert_eq!(
            built.vdm.node(parent).enters_view.as_deref(),
            Some("BGP view")
        );
    }

    #[test]
    fn undo_form_does_not_open_view() {
        let pages = corpus();
        let d = derive_hierarchy(&pages);
        let built = build_vdm("helix", &pages, &d);
        let undo = built
            .vdm
            .iter()
            .find(|(_, n)| n.template.starts_with("undo bgp"))
            .unwrap();
        assert!(undo.1.enters_view.is_none());
        assert!(undo.1.children.is_empty());
    }

    #[test]
    fn unreachable_views_reported_not_dropped_silently() {
        let mut pages = corpus();
        // A command in a view nobody opens.
        pages.push(page("p3", vec!["mystery <x>"], "Nowhere view", vec![]));
        let d = derive_hierarchy(&pages);
        let built = build_vdm("helix", &pages, &d);
        assert_eq!(built.unplaced_pages, vec![3]);
    }

    #[test]
    fn corpus_links_survive_build() {
        let pages = corpus();
        let d = derive_hierarchy(&pages);
        let built = build_vdm("helix", &pages, &d);
        let peer = built
            .vdm
            .iter()
            .find(|(_, n)| n.template.starts_with("peer"))
            .unwrap();
        let entry = built.vdm.corpus_of(peer.0).unwrap();
        assert_eq!(entry.source, "p1");
    }
}
