//! CLI instance generation from a CGM (§5.3).
//!
//! For commands that never occur in collected configuration files, the
//! paper generates instances by "enumerating paths from root to sink and
//! instantiating the parameter nodes", then issues them to real devices.
//! This module provides:
//!
//! * [`enumerate_paths`] — all root→sink token paths, with a cap (group
//!   combinatorics can explode; the cap makes generation total);
//! * [`enumerate_instances`] — the same paths with parameters instantiated
//!   by their type's sampler;
//! * [`sample_instance`] — one random path + instantiation, for fuzzing a
//!   device session.

use crate::graph::{CgmNode, CgmNodeId, CliGraph};
use rand::Rng;

/// One step of a concrete path: either a fixed keyword or a parameter to
/// instantiate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathToken {
    Keyword(String),
    Param {
        name: String,
        ty: crate::types::ParamType,
    },
}

/// Enumerate up to `cap` distinct root→sink paths as token sequences.
/// Paths are produced in a deterministic depth-first order.
pub fn enumerate_paths(graph: &CliGraph, cap: usize) -> Vec<Vec<PathToken>> {
    let mut out = Vec::new();
    let mut current = Vec::new();
    dfs_paths(graph, graph.root(), &mut current, &mut out, cap);
    out
}

fn dfs_paths(
    graph: &CliGraph,
    node: CgmNodeId,
    current: &mut Vec<PathToken>,
    out: &mut Vec<Vec<PathToken>>,
    cap: usize,
) {
    if out.len() >= cap {
        return;
    }
    for &next in graph.valid_successors(node) {
        match graph.node(next) {
            CgmNode::Sink => {
                if !current.is_empty() && out.len() < cap {
                    out.push(current.clone());
                }
            }
            CgmNode::Keyword(k) => {
                current.push(PathToken::Keyword(k.clone()));
                dfs_paths(graph, next, current, out, cap);
                current.pop();
            }
            CgmNode::Param { name, ty } => {
                current.push(PathToken::Param {
                    name: name.clone(),
                    ty: *ty,
                });
                dfs_paths(graph, next, current, out, cap);
                current.pop();
            }
            _ => unreachable!("valid_successors only yields valid nodes"),
        }
    }
}

/// Instantiate one token path into a concrete CLI line.
pub fn instantiate<R: Rng + ?Sized>(path: &[PathToken], rng: &mut R) -> String {
    path.iter()
        .map(|t| match t {
            PathToken::Keyword(k) => k.clone(),
            PathToken::Param { ty, .. } => ty.sample(rng),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Enumerate up to `cap` concrete instances (one per path).
pub fn enumerate_instances<R: Rng + ?Sized>(
    graph: &CliGraph,
    cap: usize,
    rng: &mut R,
) -> Vec<String> {
    enumerate_paths(graph, cap)
        .iter()
        .map(|p| instantiate(p, rng))
        .collect()
}

/// Sample one instance along a uniformly random branch walk.
///
/// A template whose elements are all optional admits the empty path;
/// since an empty CLI line is meaningless (and [`is_cli_match`] rejects
/// it), sampling retries a few times to find a non-empty walk before
/// giving up and returning the empty string.
///
/// [`is_cli_match`]: crate::matching::is_cli_match
pub fn sample_instance<R: Rng + ?Sized>(graph: &CliGraph, rng: &mut R) -> String {
    const EMPTY_RETRIES: usize = 8;
    for _ in 0..EMPTY_RETRIES {
        let inst = sample_walk(graph, rng);
        if !inst.is_empty() {
            return inst;
        }
    }
    sample_walk(graph, rng)
}

fn sample_walk<R: Rng + ?Sized>(graph: &CliGraph, rng: &mut R) -> String {
    let mut tokens = Vec::new();
    let mut node = graph.root();
    loop {
        let succs = graph.valid_successors(node);
        debug_assert!(!succs.is_empty(), "CGM nodes always reach the sink");
        let next = succs[rng.gen_range(0..succs.len())];
        match graph.node(next) {
            CgmNode::Sink => break,
            CgmNode::Keyword(k) => tokens.push(k.clone()),
            CgmNode::Param { ty, .. } => tokens.push(ty.sample(rng)),
            _ => unreachable!("valid_successors only yields valid nodes"),
        }
        node = next;
    }
    tokens.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::is_cli_match;
    use nassim_syntax::parse_template;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph(t: &str) -> CliGraph {
        CliGraph::build(&parse_template(t).unwrap())
    }

    #[test]
    fn enumerates_all_branch_combinations() {
        let g = graph("filter-policy { <acl-number> | ip-prefix <name> | acl-name <acl> } { import | export }");
        let paths = enumerate_paths(&g, 100);
        // 3 selector branches × 2 modes.
        assert_eq!(paths.len(), 6);
    }

    #[test]
    fn optional_doubles_path_count() {
        let g = graph("show vlan [ <vlan-id> ]");
        let paths = enumerate_paths(&g, 100);
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().any(|p| p.len() == 2));
        assert!(paths.iter().any(|p| p.len() == 3));
    }

    #[test]
    fn cap_bounds_explosion() {
        // 2^8 option combinations, capped at 10.
        let g = graph("x [ a ] [ b ] [ c ] [ d ] [ e ] [ f ] [ g ] [ h ]");
        let paths = enumerate_paths(&g, 10);
        assert_eq!(paths.len(), 10);
    }

    #[test]
    fn generated_instances_match_their_own_template() {
        // The §5.3 contract: generated instances must be accepted by the
        // graph that produced them.
        let mut rng = StdRng::seed_from_u64(11);
        for t in [
            "filter-policy { <acl-number> | ip-prefix <name> } { import | export }",
            "peer <ipv4-address> as-number <as-number>",
            "show vlan [ <vlan-id> ]",
            "neighbor { <ip-addr> | <ip-prefix/length> } [ remote-as <as-num> ]",
        ] {
            let g = graph(t);
            for inst in enumerate_instances(&g, 50, &mut rng) {
                assert!(
                    is_cli_match(&inst, &g),
                    "template `{t}` rejected generated `{inst}`"
                );
            }
            for _ in 0..25 {
                let inst = sample_instance(&g, &mut rng);
                assert!(
                    is_cli_match(&inst, &g),
                    "template `{t}` rejected sampled `{inst}`"
                );
            }
        }
    }

    #[test]
    fn instantiation_is_deterministic_per_seed() {
        let g = graph("peer <ipv4-address> as-number <as-number>");
        let a = enumerate_instances(&g, 5, &mut StdRng::seed_from_u64(3));
        let b = enumerate_instances(&g, 5, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
    }
}
