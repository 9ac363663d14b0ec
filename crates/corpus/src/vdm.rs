//! The Vendor-specific Device Model (VDM): a semantics-enhanced tree.
//!
//! Nodes are *CLI-view pairs*: one CLI command template situated under one
//! working view. The paper is explicit that VDM size must be quantified in
//! CLI-view pairs, because one command (e.g. `peer <ipv4-address>
//! as-number <as-number>`) may work under many views (BGP view, BGP
//! multi-instance view, …) and each placement is a distinct node (§7.2).
//!
//! Edges denote configuration hierarchy: the edge `bgp <as-number>` →
//! `peer <ipv4-address> group <group-name>` means the child command works
//! under the sub-view *entered by* the parent command. Each node links to
//! the corpus entry that carries its full semantics (Figure 3), which the
//! Mapper later consumes as context.

use crate::format::{placeholder_tokens, CorpusEntry};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Index of a node in a [`Vdm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VdmNodeId(pub usize);

/// One CLI-view pair.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VdmNode {
    /// The CLI command template, e.g. `peer <ipv4-address> group <group-name>`.
    pub template: String,
    /// The working view this placement lives under, e.g. `BGP view`.
    pub view: String,
    /// Index into [`Vdm::corpus`] of the entry this node was parsed from.
    /// `None` only for the synthetic root.
    pub corpus_idx: Option<usize>,
    /// If the command opens a sub-view, its name (derivation result, §5.2).
    pub enters_view: Option<String>,
    /// Tree links.
    pub parent: Option<VdmNodeId>,
    pub children: Vec<VdmNodeId>,
}

/// A parameter of the VDM, identified for the Mapper: one placeholder of
/// one command template.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VdmParameter {
    /// Node the parameter occurs on.
    pub node: VdmNodeId,
    /// Placeholder token, without angle brackets, e.g. `ipv4-address`.
    pub token: String,
}

/// The Vendor-specific Device Model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Vdm {
    /// Vendor identifier, e.g. `helix`.
    pub vendor: String,
    /// The parsed corpus backing this model. Entries are shared with the
    /// parsed pages they came from; serde writes an `Arc` as its value,
    /// so the encoded VDM is the same as for owned entries.
    pub corpus: Vec<Arc<CorpusEntry>>,
    /// Node arena; index 0 is the synthetic root (the device's entry view).
    pub nodes: Vec<VdmNode>,
    /// Name of the entry view the root represents (e.g. `system view`).
    pub root_view: String,
}

impl Vdm {
    /// Create an empty VDM whose root represents `root_view`.
    pub fn new(vendor: impl Into<String>, root_view: impl Into<String>) -> Vdm {
        let root_view = root_view.into();
        Vdm {
            vendor: vendor.into(),
            corpus: Vec::new(),
            nodes: vec![VdmNode {
                template: String::new(),
                view: String::new(),
                corpus_idx: None,
                enters_view: Some(root_view.clone()),
                parent: None,
                children: Vec::new(),
            }],
            root_view,
        }
    }

    /// The synthetic root node id.
    pub fn root(&self) -> VdmNodeId {
        VdmNodeId(0)
    }

    /// Borrow a node.
    pub fn node(&self, id: VdmNodeId) -> &VdmNode {
        &self.nodes[id.0]
    }

    /// Append a corpus entry, owned or shared; returns its index for
    /// node linking.
    pub fn push_corpus(&mut self, entry: impl Into<Arc<CorpusEntry>>) -> usize {
        self.corpus.push(entry.into());
        self.corpus.len() - 1
    }

    /// Add a CLI-view pair under `parent`. `enters_view` names the
    /// sub-view the command opens, if any.
    pub fn add_node(
        &mut self,
        parent: VdmNodeId,
        template: impl Into<String>,
        view: impl Into<String>,
        corpus_idx: Option<usize>,
        enters_view: Option<String>,
    ) -> VdmNodeId {
        let id = VdmNodeId(self.nodes.len());
        self.nodes.push(VdmNode {
            template: template.into(),
            view: view.into(),
            corpus_idx,
            enters_view,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent.0].children.push(id);
        id
    }

    /// Iterator over all real (non-root) nodes.
    pub fn iter(&self) -> impl Iterator<Item = (VdmNodeId, &VdmNode)> {
        self.nodes
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, n)| (VdmNodeId(i), n))
    }

    /// Number of CLI-view pairs (the paper's VDM size metric).
    pub fn cli_view_pairs(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Number of distinct CLI command templates.
    pub fn distinct_commands(&self) -> usize {
        let mut seen: Vec<&str> = self.iter().map(|(_, n)| n.template.as_str()).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// Number of distinct views that appear as a working view or are
    /// entered by some command (includes the root view).
    pub fn distinct_views(&self) -> usize {
        let mut views: Vec<&str> = self
            .iter()
            .flat_map(|(_, n)| {
                n.enters_view
                    .as_deref()
                    .into_iter()
                    .chain(std::iter::once(n.view.as_str()))
            })
            .chain(std::iter::once(self.root_view.as_str()))
            .collect();
        views.sort_unstable();
        views.dedup();
        views.len()
    }

    /// All nodes whose working view is `view`.
    pub fn nodes_in_view<'a>(
        &'a self,
        view: &'a str,
    ) -> impl Iterator<Item = (VdmNodeId, &'a VdmNode)> + 'a {
        self.iter().filter(move |(_, n)| n.view == view)
    }

    /// Map from view name to the nodes that *enter* it. Views entered by
    /// several commands are exactly the paper's ambiguity candidates.
    pub fn view_openers(&self) -> BTreeMap<&str, Vec<VdmNodeId>> {
        let mut map: BTreeMap<&str, Vec<VdmNodeId>> = BTreeMap::new();
        for (id, n) in self.iter() {
            if let Some(v) = n.enters_view.as_deref() {
                map.entry(v).or_default().push(id);
            }
        }
        map
    }

    /// Enumerate every parameter of the model (one item per placeholder
    /// occurrence per node) — the Mapper's unit of work.
    pub fn parameters(&self) -> Vec<VdmParameter> {
        let mut out = Vec::new();
        for (id, n) in self.iter() {
            for token in placeholder_tokens(&n.template) {
                out.push(VdmParameter { node: id, token });
            }
        }
        out
    }

    /// The corpus entry backing `id`, if any.
    pub fn corpus_of(&self, id: VdmNodeId) -> Option<&CorpusEntry> {
        self.node(id).corpus_idx.map(|i| self.corpus[i].as_ref())
    }

    /// Path of templates from the root to `id` (root excluded), e.g.
    /// `["bgp <as-number>", "peer <ipv4-address> group <group-name>"]`.
    pub fn path_of(&self, id: VdmNodeId) -> Vec<&str> {
        let mut path = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            if c == self.root() {
                break;
            }
            path.push(self.node(c).template.as_str());
            cur = self.node(c).parent;
        }
        path.reverse();
        path
    }

    /// Depth-first pre-order walk of node ids (root excluded).
    pub fn walk(&self) -> Vec<VdmNodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack: Vec<VdmNodeId> = self.nodes[0].children.iter().rev().copied().collect();
        while let Some(id) = stack.pop() {
            out.push(id);
            for &c in self.node(id).children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::ParaDef;

    fn bgp_vdm() -> Vdm {
        let mut vdm = Vdm::new("helix", "system view");
        let bgp_entry = CorpusEntry {
            clis: vec!["bgp <as-number>".into()],
            func_def: "Enables BGP and enters the BGP view.".into(),
            parent_views: vec!["system view".into()],
            para_def: vec![ParaDef::new("as-number", "AS number, 1-4294967295.")],
            examples: vec![vec!["bgp 100".into()]],
            source: String::new(),
        };
        let peer_entry = CorpusEntry {
            clis: vec!["peer <ipv4-address> group <group-name>".into()],
            func_def: "Adds a peer to a peer group.".into(),
            parent_views: vec!["BGP view".into()],
            para_def: vec![
                ParaDef::new("ipv4-address", "Peer address."),
                ParaDef::new("group-name", "Group name."),
            ],
            examples: vec![vec!["bgp 100".into(), " peer 10.1.1.1 group test".into()]],
            source: String::new(),
        };
        let bi = vdm.push_corpus(bgp_entry);
        let pi = vdm.push_corpus(peer_entry);
        let root = vdm.root();
        let bgp = vdm.add_node(
            root,
            "bgp <as-number>",
            "system view",
            Some(bi),
            Some("BGP view".into()),
        );
        vdm.add_node(
            bgp,
            "peer <ipv4-address> group <group-name>",
            "BGP view",
            Some(pi),
            None,
        );
        vdm
    }

    #[test]
    fn counts_cli_view_pairs_and_commands() {
        let mut vdm = bgp_vdm();
        assert_eq!(vdm.cli_view_pairs(), 2);
        assert_eq!(vdm.distinct_commands(), 2);
        // Same command under a second view adds a pair, not a command.
        let root = vdm.root();
        let vpn = vdm.add_node(
            root,
            "bgp <as-number> instance <name>",
            "system view",
            None,
            Some("BGP-VPN instance view".into()),
        );
        vdm.add_node(
            vpn,
            "peer <ipv4-address> group <group-name>",
            "BGP-VPN instance view",
            Some(1),
            None,
        );
        assert_eq!(vdm.cli_view_pairs(), 4);
        assert_eq!(vdm.distinct_commands(), 3);
    }

    #[test]
    fn counts_views() {
        let vdm = bgp_vdm();
        // system view + BGP view.
        assert_eq!(vdm.distinct_views(), 2);
    }

    #[test]
    fn path_of_walks_to_root() {
        let vdm = bgp_vdm();
        let peer = VdmNodeId(2);
        assert_eq!(
            vdm.path_of(peer),
            vec!["bgp <as-number>", "peer <ipv4-address> group <group-name>"]
        );
    }

    #[test]
    fn parameters_enumerated_per_node() {
        let vdm = bgp_vdm();
        let params = vdm.parameters();
        assert_eq!(params.len(), 3);
        assert!(params
            .iter()
            .any(|p| p.token == "as-number" && p.node == VdmNodeId(1)));
    }

    #[test]
    fn corpus_linked_to_nodes() {
        let vdm = bgp_vdm();
        let entry = vdm.corpus_of(VdmNodeId(2)).unwrap();
        assert!(entry.func_def.contains("peer group"));
        assert!(vdm.corpus_of(vdm.root()).is_none());
    }

    #[test]
    fn view_openers_collects_entering_commands() {
        let vdm = bgp_vdm();
        let openers = vdm.view_openers();
        assert_eq!(openers["BGP view"], vec![VdmNodeId(1)]);
    }

    #[test]
    fn nodes_in_view_filters() {
        let vdm = bgp_vdm();
        assert_eq!(vdm.nodes_in_view("BGP view").count(), 1);
        assert_eq!(vdm.nodes_in_view("system view").count(), 1);
        assert_eq!(vdm.nodes_in_view("nope").count(), 0);
    }

    #[test]
    fn walk_is_preorder() {
        let vdm = bgp_vdm();
        assert_eq!(vdm.walk(), vec![VdmNodeId(1), VdmNodeId(2)]);
    }

    #[test]
    fn serde_round_trip() {
        let vdm = bgp_vdm();
        let json = serde_json::to_string(&vdm).unwrap();
        let back: Vdm = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cli_view_pairs(), vdm.cli_view_pairs());
        assert_eq!(
            back.node(VdmNodeId(2)).template,
            vdm.node(VdmNodeId(2)).template
        );
    }
}
