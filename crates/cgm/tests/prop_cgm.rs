//! Property tests for CLI graph models.
//!
//! Invariants: every instance generated from a template's own CGM is
//! accepted by that CGM (the §5.3 soundness contract); the frontier
//! matcher and the complete matcher agree on generated instances;
//! matching is total on arbitrary input; the precomputed valid-successor
//! sets equal a per-call walk, in order; matching a pre-split token
//! slice equals matching the line.
// Property-test bodies and helpers sit outside #[test] fns; panics are the
// assertion mechanism here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim_cgm::generate::{enumerate_instances, sample_instance};
use nassim_cgm::matching::{is_cli_match, is_tokens_match, match_frontier, match_with_bindings};
use nassim_cgm::{CgmNode, CgmNodeId, CliGraph};
use nassim_syntax::parse_template;
use nassim_syntax::template::{CliStruc, Ele};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn keyword() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,6}".prop_map(|s| s)
}

/// Parameter names drawn from the typed lexicon so type inference and
/// sampling are both exercised.
fn param_name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("ipv4-address".to_string()),
        Just("as-number".to_string()),
        Just("vlan-id".to_string()),
        Just("group-name".to_string()),
        Just("mac-address".to_string()),
        Just("ip-prefix/length".to_string()),
        "[a-z]{2,8}-name".prop_map(|s| s),
        "[a-z]{2,8}-id".prop_map(|s| s),
    ]
}

fn element() -> impl Strategy<Value = Ele> {
    let leaf = prop_oneof![
        3 => keyword().prop_map(Ele::Keyword),
        2 => param_name().prop_map(Ele::Param),
    ];
    leaf.prop_recursive(2, 16, 3, |inner| {
        let branch = prop::collection::vec(inner, 1..3);
        let branches = prop::collection::vec(branch, 1..3);
        prop_oneof![
            branches.clone().prop_map(Ele::Select),
            branches.prop_map(Ele::Option),
        ]
    })
}

fn template() -> impl Strategy<Value = CliStruc> {
    prop::collection::vec(element(), 1..5).prop_map(|elements| CliStruc { elements })
}

/// Algorithm 4's `get_valid_succssors` as a per-call walk: depth-first
/// from the node's successors, expanding marker nodes and recording
/// valid ones, each node visited once. The graph's precomputed sets must
/// equal it element for element.
fn reference_valid_successors(graph: &CliGraph, id: CgmNodeId) -> Vec<CgmNodeId> {
    let mut out = Vec::new();
    let mut visited = vec![false; graph.len()];
    let mut stack: Vec<CgmNodeId> = graph.successors(id).to_vec();
    while let Some(n) = stack.pop() {
        if visited[n.0] {
            continue;
        }
        visited[n.0] = true;
        if graph.node(n).is_valid() {
            if !out.contains(&n) {
                out.push(n);
            }
        } else {
            stack.extend_from_slice(graph.successors(n));
        }
    }
    out
}

proptest! {
    /// The precomputed valid-successor set of the root and of every
    /// keyword and parameter node equals the per-call walk, in order;
    /// the graph's head keyword is the template's.
    #[test]
    fn valid_successors_equal_the_walk(struc in template()) {
        let graph = CliGraph::build(&struc);
        prop_assert_eq!(graph.head_keyword(), struc.head_keyword());
        for id in (0..graph.len()).map(CgmNodeId) {
            if matches!(graph.node(id), CgmNode::Root | CgmNode::Keyword(_) | CgmNode::Param { .. }) {
                let walked = reference_valid_successors(&graph, id);
                prop_assert_eq!(
                    graph.valid_successors(id),
                    walked.as_slice(),
                    "node {} of `{}`", id.0, struc.render()
                );
            }
        }
    }

    /// Matching a token slice equals matching the line, on generated and
    /// sampled instances, their corruptions and arbitrary input; and it
    /// agrees with the complete matcher as `matchers_agree` requires.
    #[test]
    fn token_slice_matching_equals_line_matching(
        struc in template(),
        seed in 0u64..1000,
        junk in "[a-z0-9 .:/-]{0,30}",
    ) {
        let graph = CliGraph::build(&struc);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lines = enumerate_instances(&graph, 8, &mut rng);
        let sampled = sample_instance(&graph, &mut rng);
        lines.push(sampled.clone());
        let mut truncated: Vec<&str> = sampled.split_whitespace().collect();
        truncated.pop();
        lines.push(truncated.join(" "));
        lines.push(junk);
        for line in &lines {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let by_tokens = is_tokens_match(&tokens, &graph);
            prop_assert_eq!(by_tokens, is_cli_match(line, &graph), "`{}`", line);
            if by_tokens {
                prop_assert!(match_with_bindings(line, &graph).is_some(), "`{}`", line);
            }
        }
    }

    /// Generated instances always match their own template.
    #[test]
    fn generated_instances_self_match(struc in template(), seed in 0u64..1000) {
        let graph = CliGraph::build(&struc);
        let mut rng = StdRng::seed_from_u64(seed);
        for inst in enumerate_instances(&graph, 16, &mut rng) {
            prop_assert!(
                is_cli_match(&inst, &graph),
                "template `{}` rejected its own instance `{}`",
                struc.render(), inst
            );
        }
        let inst = sample_instance(&graph, &mut rng);
        // A fully-optional template legitimately admits only the empty
        // walk, which is not a CLI line; skip that degenerate case.
        if !inst.is_empty() {
            prop_assert!(is_cli_match(&inst, &graph), "sampled `{}` rejected", inst);
        }
    }

    /// Frontier and complete matchers agree on generated instances and
    /// simple corruptions of them.
    #[test]
    fn matchers_agree(struc in template(), seed in 0u64..1000, drop_last in any::<bool>()) {
        let graph = CliGraph::build(&struc);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inst = sample_instance(&graph, &mut rng);
        prop_assume!(!inst.is_empty());
        if drop_last {
            // Corrupt: drop the last token.
            let mut toks: Vec<&str> = inst.split_whitespace().collect();
            toks.pop();
            inst = toks.join(" ");
        }
        let frontier = match_frontier(&inst, &graph).matched;
        let complete = match_with_bindings(&inst, &graph).is_some();
        // Keyword-priority pruning can only *reject* more, never accept
        // more (soundness); it may reject a valid instance only in the
        // pathological case where a sampled string value collides with a
        // sibling keyword, so the converse is not asserted here.
        if frontier {
            prop_assert!(complete, "frontier accepted what complete rejected: `{}`", inst);
        }
        if !drop_last {
            prop_assert!(complete, "complete matcher rejected its own instance `{}`", inst);
        }
    }

    /// Matching is total: arbitrary input never panics.
    #[test]
    fn matching_is_total(struc in template(), junk in "\\PC{0,40}") {
        let graph = CliGraph::build(&struc);
        let _ = is_cli_match(&junk, &graph);
        let _ = match_with_bindings(&junk, &graph);
    }

    /// Bindings returned by the complete matcher only name parameters
    /// that exist in the template.
    #[test]
    fn bindings_reference_real_params(struc in template(), seed in 0u64..1000) {
        let graph = CliGraph::build(&struc);
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = sample_instance(&graph, &mut rng);
        if let Some(bindings) = match_with_bindings(&inst, &graph) {
            let params = struc.params();
            for (name, value) in bindings {
                prop_assert!(params.contains(&name.as_str()), "phantom param {}", name);
                prop_assert!(inst.contains(&value), "binding value not in instance");
            }
        }
    }

    /// CGMs built from parsed catalog-looking text behave identically to
    /// CGMs built from the structure directly.
    #[test]
    fn build_is_stable_under_render(struc in template(), seed in 0u64..100) {
        let g1 = CliGraph::build(&struc);
        let reparsed = parse_template(&struc.render()).expect("render parses");
        let g2 = CliGraph::build(&reparsed);
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = sample_instance(&g1, &mut rng);
        if !inst.is_empty() {
            prop_assert!(is_cli_match(&inst, &g2));
        }
    }
}
