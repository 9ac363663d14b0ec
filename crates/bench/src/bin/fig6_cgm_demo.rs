//! Figure 6 / Appendix C — the CGM toy example: build the graph of the
//! paper's `filter-policy` template, print the nested structure
//! (Figure 16), the GraphViz rendering (Figure 6/15), and a matching
//! trace for the example instance.

use nassim_cgm::generate::enumerate_instances;
use nassim_cgm::matching::{is_cli_match, match_with_bindings};
use nassim_cgm::CliGraph;
use nassim_syntax::parse_template;
use rand::rngs::StdRng;
use rand::SeedableRng;

const TEMPLATE: &str = "filter-policy { <acl-number> | ip-prefix <ip-prefix-name> | acl-name <acl-name> } { import | export }";
const INSTANCE: &str = "filter-policy acl-name acl1 export";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Figure 6 / Appendix C: CGM toy example");
    println!();
    println!("template: {TEMPLATE}");
    let struc = parse_template(TEMPLATE)?;
    println!();
    println!("Figure 16 — nested CLI structure:");
    println!("{struc:#?}");
    println!();
    let graph = CliGraph::build(&struc);
    println!(
        "Figure 6 — CLI graph model ({} nodes) in GraphViz dot:",
        graph.len()
    );
    println!("{}", graph.to_dot());

    println!("matching `{INSTANCE}`:");
    match match_with_bindings(INSTANCE, &graph) {
        Some(bindings) => {
            println!("  matched; parameter bindings: {bindings:?}");
        }
        None => println!("  NOT matched"),
    }
    for bad in ["filter-policy import", "filter-policy acl-name acl1"] {
        println!("matching `{bad}`: {}", is_cli_match(bad, &graph));
    }
    println!();
    let mut rng = StdRng::seed_from_u64(1);
    println!("§5.3 instance generation — all root→sink paths instantiated:");
    for inst in enumerate_instances(&graph, 10, &mut rng) {
        println!("  {inst}");
    }
    Ok(())
}
