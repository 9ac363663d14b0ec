//! CGM construction (Algorithms 2–3 of the paper).
//!
//! The paper builds the graph with pyparsing parse actions plus a stack
//! machine (`prev_stack`/`tail_stack`); this implementation walks the
//! nested template structure from `nassim-syntax` recursively and produces
//! the *same* graph shape:
//!
//! * one `Root` and one `Sink`;
//! * a `Keyword`/`Param` node per leaf;
//! * for each group, `GroupStart`/`GroupEnd` marker nodes bracketing the
//!   branches. For *option* groups an edge `start → end` realises the
//!   skip — exactly the paper's `if is_option(node): add_edge(start_node,
//!   node)` in Algorithm 3.
//!
//! Marker nodes are "invalid" in matching terms: Algorithm 4's
//! `get_valid_succssors` recurses through them until it reaches keyword or
//! parameter nodes (or the sink). The recursive construction and the
//! paper's stack construction are equivalent because both connect: every
//! branch entry to the group opener, every branch exit to the group
//! closer, and sequence element *n* exits to element *n+1* entries.

use crate::types::ParamType;
use nassim_syntax::template::{CliStruc, Ele};
use std::fmt;

/// Index of a node within a [`CliGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CgmNodeId(pub usize);

/// A node of the CLI graph model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CgmNode {
    /// Single entry state.
    Root,
    /// Single accepting state.
    Sink,
    /// Literal token; exact text match required.
    Keyword(String),
    /// Placeholder; type match required.
    Param { name: String, ty: ParamType },
    /// Structural marker opening a `{…}` or `[…]` group (pass-through).
    GroupStart { option: bool },
    /// Structural marker closing a group (pass-through).
    GroupEnd { option: bool },
}

impl CgmNode {
    /// "Valid" nodes carry a token; markers/root are traversed silently.
    /// (The paper's `is_valid_node` in Algorithm 4.)
    pub fn is_valid(&self) -> bool {
        matches!(
            self,
            CgmNode::Keyword(_) | CgmNode::Param { .. } | CgmNode::Sink
        )
    }
}

impl fmt::Display for CgmNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CgmNode::Root => write!(f, "ROOT"),
            CgmNode::Sink => write!(f, "SINK"),
            CgmNode::Keyword(k) => write!(f, "{k}"),
            CgmNode::Param { name, ty } => write!(f, "<{name}:{}>", ty.name()),
            CgmNode::GroupStart { option } => {
                write!(f, "{}", if *option { "[start" } else { "{start" })
            }
            CgmNode::GroupEnd { option } => {
                write!(f, "{}", if *option { "end]" } else { "end}" })
            }
        }
    }
}

/// The CLI graph model: a single-root, single-sink DAG over
/// keyword/parameter/marker nodes.
///
/// Adjacency and valid-successor sets are both stored flat (CSR): node
/// `n`'s entries are `list[start[n]..start[n + 1]]`, so a graph is a
/// handful of allocations whatever its size.
#[derive(Debug, Clone)]
pub struct CliGraph {
    nodes: Vec<CgmNode>,
    /// Successors of each node, in edge insertion order.
    succ_start: Vec<usize>,
    succ: Vec<CgmNodeId>,
    /// Valid-successor sets, computed once at build time; the matchers
    /// read them once per token.
    valid_start: Vec<usize>,
    valid: Vec<CgmNodeId>,
}

impl CliGraph {
    /// Build the CGM of a parsed template.
    pub fn build(struc: &CliStruc) -> CliGraph {
        CliGraph::from_struc(struc.clone())
    }

    /// [`CliGraph::build`] consuming the template structure, so keyword
    /// and parameter names move into the graph instead of being copied.
    pub fn from_struc(struc: CliStruc) -> CliGraph {
        let mut b = Draft {
            nodes: vec![CgmNode::Root, CgmNode::Sink],
            edges: Vec::new(),
        };
        let exit = b.seq(struc.elements, CgmNodeId(0));
        b.add_edge(exit, CgmNodeId(1));
        b.finish()
    }

    /// Root node id (always 0).
    pub fn root(&self) -> CgmNodeId {
        CgmNodeId(0)
    }

    /// Sink node id (always 1).
    pub fn sink(&self) -> CgmNodeId {
        CgmNodeId(1)
    }

    /// Borrow a node.
    pub fn node(&self, id: CgmNodeId) -> &CgmNode {
        &self.nodes[id.0]
    }

    /// Successors of `id` in insertion order.
    pub fn successors(&self, id: CgmNodeId) -> &[CgmNodeId] {
        &self.succ[self.succ_start[id.0]..self.succ_start[id.0 + 1]]
    }

    /// Total node count (including root/sink/markers).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a freshly constructed empty graph (never after `build`).
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 2
    }

    /// Number of keyword + parameter nodes.
    pub fn token_nodes(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, CgmNode::Keyword(_) | CgmNode::Param { .. }))
            .count()
    }

    /// The template's leading keyword, if it starts with one — the
    /// graph-side [`CliStruc::head_keyword`]: only the first element is
    /// wired to the root, so that keyword is the root's one successor.
    pub fn head_keyword(&self) -> Option<&str> {
        match self.successors(self.root()) {
            [first] => match self.node(*first) {
                CgmNode::Keyword(k) => Some(k),
                _ => None,
            },
            _ => None,
        }
    }

    /// Algorithm 4's `get_valid_succssors`: the reachable *valid* nodes
    /// (keyword/param/sink) from `id`, traversing marker nodes silently.
    /// Precomputed at build time, so a lookup is a slice borrow.
    pub fn valid_successors(&self, id: CgmNodeId) -> &[CgmNodeId] {
        &self.valid[self.valid_start[id.0]..self.valid_start[id.0 + 1]]
    }

    /// Fill the flat valid-successor sets. Each node's set is a
    /// depth-first walk from its successors (pushed in insertion order,
    /// popped last-first) that records valid nodes and expands markers,
    /// visiting every node at most once per walk. One stamp vector
    /// serves every walk: a node counts as visited when its stamp is the
    /// current walk's.
    fn compute_valid_successors(&mut self) {
        let n = self.nodes.len();
        let mut stamp = vec![usize::MAX; n];
        let mut stack: Vec<CgmNodeId> = Vec::new();
        self.valid_start.reserve_exact(n + 1);
        self.valid_start.push(0);
        for from in 0..n {
            stack.extend_from_slice(self.successors(CgmNodeId(from)));
            while let Some(next) = stack.pop() {
                if stamp[next.0] == from {
                    continue;
                }
                stamp[next.0] = from;
                if self.nodes[next.0].is_valid() {
                    self.valid.push(next);
                } else {
                    stack.extend_from_slice(self.successors(next));
                }
            }
            self.valid_start.push(self.valid.len());
        }
    }

    /// Render a GraphViz `dot` description — handy for debugging and used
    /// by the `fig6_cgm_demo` harness to draw the paper's toy example.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph cgm {\n  rankdir=LR;\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let (shape, label) = match n {
                CgmNode::Root => ("point", "root".to_string()),
                CgmNode::Sink => ("doublecircle", "sink".to_string()),
                CgmNode::Keyword(k) => ("ellipse", k.clone()),
                CgmNode::Param { name, ty } => ("box", format!("<{name}>\\n{}", ty.name())),
                CgmNode::GroupStart { option } => {
                    ("circle", if *option { "[".into() } else { "{".into() })
                }
                CgmNode::GroupEnd { option } => {
                    ("circle", if *option { "]".into() } else { "}".into() })
                }
            };
            out.push_str(&format!("  n{i} [shape={shape}, label=\"{label}\"];\n"));
        }
        for i in 0..self.nodes.len() {
            for s in self.successors(CgmNodeId(i)) {
                out.push_str(&format!("  n{i} -> n{};\n", s.0));
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Construction state: the nodes so far and the edges in insertion
/// order, turned into a [`CliGraph`]'s flat layout by `finish`.
///
/// Every element has exactly one exit node — a keyword or parameter
/// node, or the closing marker of a group — so construction threads a
/// single predecessor through each sequence.
struct Draft {
    nodes: Vec<CgmNode>,
    edges: Vec<(CgmNodeId, CgmNodeId)>,
}

impl Draft {
    fn push(&mut self, node: CgmNode) -> CgmNodeId {
        self.nodes.push(node);
        CgmNodeId(self.nodes.len() - 1)
    }

    fn add_edge(&mut self, from: CgmNodeId, to: CgmNodeId) {
        if !self.edges.contains(&(from, to)) {
            self.edges.push((from, to));
        }
    }

    /// Wire a sequence of elements after `prev`; returns the sequence's
    /// exit node.
    fn seq(&mut self, eles: Vec<Ele>, mut prev: CgmNodeId) -> CgmNodeId {
        for ele in eles {
            prev = self.ele(ele, prev);
        }
        prev
    }

    fn ele(&mut self, ele: Ele, prev: CgmNodeId) -> CgmNodeId {
        let node = match ele {
            Ele::Keyword(k) => self.push(CgmNode::Keyword(k)),
            Ele::Param(name) => {
                let ty = ParamType::infer(&name);
                self.push(CgmNode::Param { name, ty })
            }
            Ele::Select(branches) => return self.group(branches, false, prev),
            Ele::Option(branches) => return self.group(branches, true, prev),
        };
        self.add_edge(prev, node);
        node
    }

    fn group(&mut self, branches: Vec<Vec<Ele>>, option: bool, prev: CgmNodeId) -> CgmNodeId {
        let start = self.push(CgmNode::GroupStart { option });
        let end = self.push(CgmNode::GroupEnd { option });
        self.add_edge(prev, start);
        for branch in branches {
            let exit = self.seq(branch, start);
            self.add_edge(exit, end);
        }
        if option {
            // Algorithm 3: options may be skipped entirely.
            self.add_edge(start, end);
        }
        end
    }

    /// Lay the edges out flat, grouped by source node and in insertion
    /// order within a node, then precompute the valid-successor sets.
    fn finish(self) -> CliGraph {
        let n = self.nodes.len();
        // Counts, then exclusive prefix sums: `start[i]` opens node i.
        let mut start = vec![0usize; n + 1];
        for (from, _) in &self.edges {
            start[from.0] += 1;
        }
        let mut sum = 0;
        for s in start.iter_mut() {
            let count = *s;
            *s = sum;
            sum += count;
        }
        // Placing advances each `start[i]` to where node i + 1 opens;
        // shifting right by one restores the openings.
        let mut succ = vec![CgmNodeId(0); self.edges.len()];
        for (from, to) in &self.edges {
            succ[start[from.0]] = *to;
            start[from.0] += 1;
        }
        start.copy_within(0..n, 1);
        start[0] = 0;
        let mut g = CliGraph {
            nodes: self.nodes,
            succ_start: start,
            succ,
            valid_start: Vec::new(),
            valid: Vec::new(),
        };
        g.compute_valid_successors();
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassim_syntax::parse_template;

    fn build(t: &str) -> CliGraph {
        CliGraph::build(&parse_template(t).unwrap())
    }

    #[test]
    fn flat_template_is_a_chain() {
        let g = build("peer <ipv4-address> group <group-name>");
        // root → peer → <ipv4> → group → <name> → sink
        assert_eq!(g.token_nodes(), 4);
        let first = g.valid_successors(g.root());
        assert_eq!(first.len(), 1);
        assert_eq!(g.node(first[0]), &CgmNode::Keyword("peer".into()));
    }

    #[test]
    fn select_group_fans_out() {
        let g = build("filter-policy { <acl-number> | ip-prefix <name> | acl-name <acl> } { import | export }");
        let after_head = g.valid_successors(g.valid_successors(g.root())[0]);
        // Three branch entries: <acl-number>, ip-prefix, acl-name.
        assert_eq!(after_head.len(), 3);
    }

    #[test]
    fn option_group_is_skippable() {
        let g = build("show vlan [ <vlan-id> ]");
        let vlan_kw = g.valid_successors(g.valid_successors(g.root())[0]);
        let after_vlan = g.valid_successors(vlan_kw[0]);
        // Either the optional parameter or straight to the sink.
        assert_eq!(after_vlan.len(), 2);
        assert!(after_vlan.iter().any(|&n| g.node(n) == &CgmNode::Sink));
        assert!(after_vlan
            .iter()
            .any(|&n| matches!(g.node(n), CgmNode::Param { name, .. } if name == "vlan-id")));
    }

    #[test]
    fn select_group_is_not_skippable() {
        let g = build("x { a | b }");
        let after_x = g.valid_successors(g.valid_successors(g.root())[0]);
        assert_eq!(after_x.len(), 2);
        assert!(!after_x.iter().any(|&n| g.node(n) == &CgmNode::Sink));
    }

    #[test]
    fn nested_options_compose_skips() {
        let g = build("a [ b [ c ] ]");
        let a = g.valid_successors(g.root())[0];
        let after_a = g.valid_successors(a);
        // b or sink.
        assert_eq!(after_a.len(), 2);
        let b = *after_a
            .iter()
            .find(|&&n| g.node(n) == &CgmNode::Keyword("b".into()))
            .unwrap();
        let after_b = g.valid_successors(b);
        // c or sink.
        assert_eq!(after_b.len(), 2);
    }

    #[test]
    fn param_nodes_carry_inferred_types() {
        let g = build("peer <ipv4-address> as-number <as-number>");
        let params: Vec<_> = (0..g.len())
            .map(CgmNodeId)
            .filter_map(|id| match g.node(id) {
                CgmNode::Param { name, ty } => Some((name.clone(), *ty)),
                _ => None,
            })
            .collect();
        assert!(params.contains(&("ipv4-address".to_string(), ParamType::Ipv4)));
        assert!(params.contains(&("as-number".to_string(), ParamType::Int)));
    }

    #[test]
    fn single_root_single_sink() {
        let g = build("x { a | b } [ c ]");
        assert_eq!(g.node(g.root()), &CgmNode::Root);
        assert_eq!(g.node(g.sink()), &CgmNode::Sink);
        // Every node reaches the sink (DAG connectivity).
        for id in 0..g.len() {
            if CgmNodeId(id) == g.sink() {
                continue;
            }
            let mut stack = vec![CgmNodeId(id)];
            let mut seen = vec![false; g.len()];
            let mut reached = false;
            while let Some(n) = stack.pop() {
                if n == g.sink() {
                    reached = true;
                    break;
                }
                if seen[n.0] {
                    continue;
                }
                seen[n.0] = true;
                stack.extend_from_slice(g.successors(n));
            }
            assert!(reached, "node {id} cannot reach the sink");
        }
    }

    #[test]
    fn dot_rendering_mentions_all_tokens() {
        let g = build("filter-policy { import | export }");
        let dot = g.to_dot();
        assert!(dot.contains("filter-policy"));
        assert!(dot.contains("import"));
        assert!(dot.contains("export"));
        assert!(dot.starts_with("digraph"));
    }
}
