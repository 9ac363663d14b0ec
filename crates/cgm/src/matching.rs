//! CLI instance–template matching (Algorithms 1 & 4 of the paper).
//!
//! Two matchers are provided:
//!
//! * [`is_cli_match`] — the paper's breadth-first frontier search with
//!   keyword-priority candidate selection (Algorithm 4 returns keyword
//!   matches *preferentially*: parameter candidates are only considered
//!   when no keyword candidate matched the token). This is fast and is
//!   what the Validator runs at scale.
//! * [`match_with_bindings`] — a complete depth-first matcher that also
//!   returns the parameter → value bindings of one accepting path. The
//!   simulated device uses the bindings to apply configuration, and tests
//!   use it as an oracle for the frontier matcher.
//!
//! Keyword priority is sound for real vendor grammars: a literal keyword
//! at a position is never also a legal *value* for a sibling string
//! parameter of the same command in practice, and preferring keywords is
//! precisely what devices themselves do when disambiguating input.

use crate::graph::{CgmNode, CgmNodeId, CliGraph};

/// Outcome of matching one instance against one template graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchOutcome {
    /// Did a root→sink path match all tokens?
    pub matched: bool,
    /// How many leading tokens were matched before failure (equals token
    /// count on success) — useful for "closest template" diagnostics.
    pub tokens_matched: usize,
}

/// Algorithm 1: `is_cli_match(cli, cli_graph)`. Breadth-first frontier
/// search; at each step candidates are the valid successors of all
/// currently matched states.
pub fn is_cli_match(cli: &str, graph: &CliGraph) -> bool {
    match_frontier(cli, graph).matched
}

/// [`is_cli_match`] on an instance already split into tokens: a caller
/// matching one instance against many templates splits it once.
pub fn is_tokens_match(tokens: &[&str], graph: &CliGraph) -> bool {
    frontier(tokens.iter().copied(), graph).matched
}

/// Frontier matcher returning progress information.
pub fn match_frontier(cli: &str, graph: &CliGraph) -> MatchOutcome {
    frontier(cli.split_whitespace(), graph)
}

/// The frontier walk behind [`match_frontier`] and [`is_tokens_match`].
/// While one state matches each token (the common case) it allocates
/// nothing: that state is held by value and its candidates are borrowed
/// from the graph. Several matched states go to `many`, their merged
/// candidates to `merged`; both buffers are reused from token to token.
fn frontier<'t>(tokens: impl Iterator<Item = &'t str>, graph: &CliGraph) -> MatchOutcome {
    let mut tokens = tokens.peekable();
    let mut many: Vec<CgmNodeId> = Vec::new();
    let mut merged: Vec<CgmNodeId> = Vec::new();
    // The candidates are `valid_successors(state)` while one state
    // matched, else `merged`. `next_candis = get_graph_root(...)`: the
    // walk starts from the root's valid successors.
    let mut single = Some(graph.root());
    let mut tokens_matched = 0;
    while let Some(token) = tokens.next() {
        let candis = match single {
            Some(state) => graph.valid_successors(state),
            None => &merged[..],
        };
        let step = match_next(token, candis, graph, &mut many);
        let matched: &[CgmNodeId] = match &step {
            Step::Dead => {
                return MatchOutcome {
                    matched: false,
                    tokens_matched,
                }
            }
            Step::One(state) => std::slice::from_ref(state),
            Step::Many => &many,
        };
        tokens_matched += 1;
        if tokens.peek().is_none() {
            // `is_reach_end(next_candis)`: after consuming every token,
            // accept iff one of the matched states has the sink among its
            // valid successors.
            let sink = graph.sink();
            let reach_end = matched
                .iter()
                .any(|&st| graph.valid_successors(st).contains(&sink));
            return MatchOutcome {
                matched: reach_end,
                tokens_matched,
            };
        }
        // `get_next_candis`: the union of the matched states' valid
        // successors, in first-seen order.
        if let [state] = matched {
            single = Some(*state);
        } else {
            single = None;
            merged.clear();
            for &st in matched {
                for &s in graph.valid_successors(st) {
                    if !merged.contains(&s) {
                        merged.push(s);
                    }
                }
            }
        }
    }
    // No tokens at all: an empty line matches nothing.
    MatchOutcome {
        matched: false,
        tokens_matched: 0,
    }
}

/// The states one token matched.
enum Step {
    Dead,
    One(CgmNodeId),
    /// Two or more, in candidate order, left in the caller's buffer.
    Many,
}

/// Algorithm 4: `match_next` — keyword candidates first; parameter
/// candidates only when no keyword matched.
fn match_next(
    token: &str,
    candis: &[CgmNodeId],
    graph: &CliGraph,
    many: &mut Vec<CgmNodeId>,
) -> Step {
    let keywords = candis
        .iter()
        .copied()
        .filter(|&c| matches!(graph.node(c), CgmNode::Keyword(k) if k == token));
    match collect_step(keywords, many) {
        Step::Dead => {}
        step => return step,
    }
    let params = candis
        .iter()
        .copied()
        .filter(|&c| matches!(graph.node(c), CgmNode::Param { ty, .. } if ty.matches(token)));
    collect_step(params, many)
}

fn collect_step(mut states: impl Iterator<Item = CgmNodeId>, many: &mut Vec<CgmNodeId>) -> Step {
    let Some(first) = states.next() else {
        return Step::Dead;
    };
    let Some(second) = states.next() else {
        return Step::One(first);
    };
    many.clear();
    many.extend([first, second]);
    many.extend(states);
    Step::Many
}

/// A complete matcher that returns `(param name, value)` bindings of one
/// accepting path, or `None` if the instance does not match. Explores all
/// candidates (no keyword-priority pruning) with memoisation on
/// `(token index, node)`.
pub fn match_with_bindings(cli: &str, graph: &CliGraph) -> Option<Vec<(String, String)>> {
    let tokens: Vec<&str> = cli.split_whitespace().collect();
    if tokens.is_empty() {
        return None;
    }
    let mut dead: Vec<Vec<bool>> = vec![vec![false; graph.len()]; tokens.len() + 1];

    fn dfs(
        graph: &CliGraph,
        tokens: &[&str],
        pos: usize,
        state: CgmNodeId,
        dead: &mut [Vec<bool>],
        bindings: &mut Vec<(String, String)>,
    ) -> bool {
        // `state` has consumed tokens[..pos]; try to finish from here.
        if pos == tokens.len() {
            return graph.valid_successors(state).contains(&graph.sink());
        }
        if dead[pos][state.0] {
            return false;
        }
        for &next in graph.valid_successors(state) {
            let consumed = match graph.node(next) {
                CgmNode::Keyword(k) => k == tokens[pos],
                CgmNode::Param { ty, .. } => ty.matches(tokens[pos]),
                _ => false,
            };
            if !consumed {
                continue;
            }
            if let CgmNode::Param { name, .. } = graph.node(next) {
                bindings.push((name.clone(), tokens[pos].to_string()));
            }
            if dfs(graph, tokens, pos + 1, next, dead, bindings) {
                return true;
            }
            if matches!(graph.node(next), CgmNode::Param { .. }) {
                bindings.pop();
            }
        }
        dead[pos][state.0] = true;
        false
    }

    let mut bindings = Vec::new();
    if dfs(graph, &tokens, 0, graph.root(), &mut dead, &mut bindings) {
        Some(bindings)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassim_syntax::parse_template;

    fn graph(t: &str) -> CliGraph {
        CliGraph::build(&parse_template(t).unwrap())
    }

    const FILTER_POLICY: &str = "filter-policy { <acl-number> | ip-prefix <ip-prefix-name> | acl-name <acl-name> } { import | export }";

    #[test]
    fn paper_toy_example_matches() {
        let g = graph(FILTER_POLICY);
        // Figure 6's dotted green path.
        assert!(is_cli_match("filter-policy acl-name acl1 export", &g));
        assert!(is_cli_match("filter-policy 2000 import", &g));
        assert!(is_cli_match("filter-policy ip-prefix pfx1 import", &g));
    }

    #[test]
    fn paper_toy_example_rejects() {
        let g = graph(FILTER_POLICY);
        assert!(!is_cli_match("filter-policy import", &g)); // missing selector
        assert!(!is_cli_match("filter-policy acl-name acl1", &g)); // missing mode
        assert!(!is_cli_match(
            "filter-policy acl-name acl1 export extra",
            &g
        ));
        assert!(!is_cli_match("filter-policies acl-name acl1 export", &g));
        assert!(!is_cli_match("", &g));
    }

    #[test]
    fn optional_parts_may_be_omitted() {
        let g = graph("show vlan [ <vlan-id> ]");
        assert!(is_cli_match("show vlan", &g));
        assert!(is_cli_match("show vlan 100", &g));
        assert!(!is_cli_match("show vlan 100 200", &g));
        assert!(!is_cli_match("show vlan abc", &g)); // vlan-id is int-typed
    }

    #[test]
    fn type_matching_on_parameters() {
        let g = graph("peer <ipv4-address> as-number <as-number>");
        assert!(is_cli_match("peer 10.1.1.1 as-number 65001", &g));
        assert!(!is_cli_match("peer not-an-ip as-number 65001", &g));
        assert!(!is_cli_match("peer 10.1.1.1 as-number sixty", &g));
    }

    #[test]
    fn progress_reported_on_failure() {
        let g = graph("peer <ipv4-address> as-number <as-number>");
        let out = match_frontier("peer 10.1.1.1 as-number nope", &g);
        assert!(!out.matched);
        assert_eq!(out.tokens_matched, 3);
    }

    #[test]
    fn bindings_extracted_on_match() {
        let g = graph(FILTER_POLICY);
        let b = match_with_bindings("filter-policy acl-name acl1 export", &g).unwrap();
        assert_eq!(b, vec![("acl-name".to_string(), "acl1".to_string())]);
        let b = match_with_bindings("filter-policy 2000 import", &g).unwrap();
        assert_eq!(b, vec![("acl-number".to_string(), "2000".to_string())]);
    }

    #[test]
    fn bindings_none_on_mismatch() {
        let g = graph(FILTER_POLICY);
        assert!(match_with_bindings("filter-policy bogus", &g).is_none());
    }

    #[test]
    fn nested_group_instances() {
        let g = graph("neighbor { <ip-addr> | <ip-prefix/length> } [ remote-as { <as-num> | route-map <name> } ]");
        assert!(is_cli_match("neighbor 10.0.0.1", &g));
        assert!(is_cli_match("neighbor 10.0.0.0/24 remote-as 65001", &g));
        assert!(is_cli_match(
            "neighbor 10.0.0.1 remote-as route-map rm1",
            &g
        ));
        assert!(!is_cli_match("neighbor 10.0.0.1 remote-as", &g));
    }

    #[test]
    fn frontier_and_complete_matchers_agree() {
        let templates = [
            FILTER_POLICY,
            "show vlan [ <vlan-id> ]",
            "peer <ipv4-address> as-number <as-number>",
            "stp instance <instance-id> root { primary | secondary }",
            "a [ b [ c ] ] d",
        ];
        let instances = [
            "filter-policy acl-name acl1 export",
            "filter-policy import",
            "show vlan",
            "show vlan 42",
            "peer 10.1.1.1 as-number 65001",
            "stp instance 5 root primary",
            "a d",
            "a b d",
            "a b c d",
            "a c d",
            "totally unrelated input",
        ];
        for t in &templates {
            let g = graph(t);
            for i in &instances {
                assert_eq!(
                    is_cli_match(i, &g),
                    match_with_bindings(i, &g).is_some(),
                    "matchers disagree on template `{t}` instance `{i}`"
                );
            }
        }
    }

    #[test]
    fn keyword_preferred_over_string_param() {
        // `group` is both a keyword continuation and a plausible string
        // value; the keyword path must win and still match.
        let g = graph("peer <peer-name> [ group <group-name> ]");
        assert!(is_cli_match("peer p1 group g1", &g));
        assert!(is_cli_match("peer p1", &g));
    }
}
