//! The Unified Device Model (UDM) of the SDN controller.
//!
//! A UDM is a tree of configuration *attributes* (§3.2): leaves are
//! individually configurable values ("IP address of an interface", "name
//! of an ACL policy"), and sub-trees group relevant attributes (e.g. the
//! attributes of one protocol). Engineers annotate attributes with brief
//! context to facilitate review — that context is exactly what the Mapper
//! encodes.
//!
//! Following OpenConfig-style models, attributes are addressable by a
//! `/`-separated path, e.g. `protocols/bgp/neighbors/neighbor/peer-as`.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Index of an attribute node in a [`Udm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct UdmNodeId(pub usize);

/// One node of the UDM tree: a grouping container or a leaf attribute.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UdmAttribute {
    /// Path segment name, e.g. `peer-as`.
    pub name: String,
    /// The engineer-provided brief context (may be empty on containers).
    pub description: String,
    /// Expected value type for leaves (free-form: `uint32`, `ipv4-address`,
    /// `string`, …). Empty on containers.
    pub value_type: String,
    /// Tree links.
    pub parent: Option<UdmNodeId>,
    pub children: Vec<UdmNodeId>,
}

impl UdmAttribute {
    /// True when the node is a leaf attribute (mappable by the Mapper).
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// The unified device model: an attribute tree with path addressing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Udm {
    /// Model name, e.g. `enterprise-udm-v1`.
    pub name: String,
    /// Node arena; index 0 is the unnamed root container.
    pub nodes: Vec<UdmAttribute>,
}

impl Udm {
    /// Create an empty UDM.
    pub fn new(name: impl Into<String>) -> Udm {
        Udm {
            name: name.into(),
            nodes: vec![UdmAttribute {
                name: String::new(),
                description: String::new(),
                value_type: String::new(),
                parent: None,
                children: Vec::new(),
            }],
        }
    }

    /// The root container id.
    pub fn root(&self) -> UdmNodeId {
        UdmNodeId(0)
    }

    /// Borrow a node.
    pub fn node(&self, id: UdmNodeId) -> &UdmAttribute {
        &self.nodes[id.0]
    }

    /// Add a child node under `parent`.
    pub fn add(
        &mut self,
        parent: UdmNodeId,
        name: impl Into<String>,
        description: impl Into<String>,
        value_type: impl Into<String>,
    ) -> UdmNodeId {
        let id = UdmNodeId(self.nodes.len());
        self.nodes.push(UdmAttribute {
            name: name.into(),
            description: description.into(),
            value_type: value_type.into(),
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent.0].children.push(id);
        id
    }

    /// Ensure a container path exists, creating missing segments; returns
    /// the id of the final segment. `add_path(&["protocols","bgp"])`.
    pub fn ensure_path(&mut self, path: &[&str]) -> UdmNodeId {
        let mut cur = self.root();
        for seg in path {
            cur = match self
                .node(cur)
                .children
                .iter()
                .copied()
                .find(|&c| self.node(c).name == *seg)
            {
                Some(id) => id,
                None => self.add(cur, *seg, "", ""),
            };
        }
        cur
    }

    /// The `/`-separated path of `id` from the root.
    pub fn path_of(&self, id: UdmNodeId) -> String {
        let mut segs = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            if c == self.root() {
                break;
            }
            segs.push(self.node(c).name.clone());
            cur = self.node(c).parent;
        }
        segs.reverse();
        segs.join("/")
    }

    /// Resolve a `/`-separated path to a node id.
    pub fn lookup(&self, path: &str) -> Option<UdmNodeId> {
        let mut cur = self.root();
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            cur = self
                .node(cur)
                .children
                .iter()
                .copied()
                .find(|&c| self.node(c).name == seg)?;
        }
        Some(cur)
    }

    /// All nodes in pre-order (root excluded).
    pub fn iter(&self) -> impl Iterator<Item = (UdmNodeId, &UdmAttribute)> {
        self.nodes
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, n)| (UdmNodeId(i), n))
    }

    /// All leaf attributes — the Mapper's target set.
    pub fn leaves(&self) -> Vec<UdmNodeId> {
        self.iter()
            .filter(|(_, n)| n.is_leaf())
            .map(|(id, _)| id)
            .collect()
    }

    /// Number of nodes (root excluded) — the paper reports ">10^4 nodes"
    /// for production models.
    pub fn len(&self) -> usize {
        self.nodes.len() - 1
    }

    /// True when the model holds no attributes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index leaves by name for quick collision diagnostics (distinct
    /// protocols reuse names like `name` or `address`).
    pub fn leaves_by_name(&self) -> BTreeMap<&str, Vec<UdmNodeId>> {
        let mut map: BTreeMap<&str, Vec<UdmNodeId>> = BTreeMap::new();
        for id in self.leaves() {
            map.entry(&self.nodes[id.0].name).or_default().push(id);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_udm() -> Udm {
        let mut udm = Udm::new("test-udm");
        let bgp = udm.ensure_path(&["protocols", "bgp", "neighbor"]);
        udm.add(
            bgp,
            "peer-as",
            "Autonomous system number of the peer.",
            "uint32",
        );
        udm.add(
            bgp,
            "address",
            "IP address of the BGP neighbor.",
            "ipv4-address",
        );
        let vlan = udm.ensure_path(&["vlans", "vlan"]);
        udm.add(
            vlan,
            "vlan-id",
            "Identifier of the VLAN, 1..4094.",
            "uint16",
        );
        udm
    }

    #[test]
    fn ensure_path_is_idempotent() {
        let mut udm = Udm::new("t");
        let a = udm.ensure_path(&["x", "y"]);
        let b = udm.ensure_path(&["x", "y"]);
        assert_eq!(a, b);
        assert_eq!(udm.len(), 2);
    }

    #[test]
    fn path_round_trips_through_lookup() {
        let udm = sample_udm();
        for (id, n) in udm.iter() {
            if n.is_leaf() {
                let path = udm.path_of(id);
                assert_eq!(udm.lookup(&path), Some(id), "path {path}");
            }
        }
        assert_eq!(udm.lookup("protocols/nope"), None);
    }

    #[test]
    fn leaves_are_mappable_attributes() {
        let udm = sample_udm();
        let leaves = udm.leaves();
        assert_eq!(leaves.len(), 3);
        let paths: Vec<_> = leaves.iter().map(|&l| udm.path_of(l)).collect();
        assert!(paths.contains(&"protocols/bgp/neighbor/peer-as".to_string()));
        assert!(paths.contains(&"vlans/vlan/vlan-id".to_string()));
    }

    #[test]
    fn containers_are_not_leaves() {
        let udm = sample_udm();
        let bgp = udm.lookup("protocols/bgp").unwrap();
        assert!(!udm.node(bgp).is_leaf());
    }

    #[test]
    fn leaves_by_name_groups_collisions() {
        let mut udm = sample_udm();
        let ospf = udm.ensure_path(&["protocols", "ospf", "area"]);
        udm.add(
            ospf,
            "address",
            "Router address inside the area.",
            "ipv4-address",
        );
        let by_name = udm.leaves_by_name();
        assert_eq!(by_name["address"].len(), 2);
    }

    #[test]
    fn serde_round_trip() {
        let udm = sample_udm();
        let json = serde_json::to_string(&udm).unwrap();
        let back: Udm = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), udm.len());
        assert!(back.lookup("protocols/bgp/neighbor/peer-as").is_some());
    }
}
