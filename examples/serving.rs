//! Assimilation-as-a-service walkthrough: spawn the `nassim-serve`
//! daemon in-process, drive the whole protocol surface — catalog
//! inspection, mapper queries, a streamed manual submission, health —
//! then drain it gracefully and show the typed `draining` shed.
//!
//! Run with `cargo run --release --example serving`.

use nassim::datasets::{catalog::Catalog, manualgen, style};
use nassim_serve::{
    Reply, Request, ServeClient, ServeConfig, ServeDaemon, ServeState, StateOptions,
};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the served artifacts (one small vendor keeps this quick)
    //    and bind the daemon to an ephemeral localhost port.
    let (state, _store) = ServeState::build(&StateOptions::default())?;
    let daemon = ServeDaemon::spawn(Arc::new(state), ServeConfig::default())?;
    println!("daemon serving on {}", daemon.addr());

    // 2. Catalog: which vendors does this daemon serve?
    let mut client = ServeClient::connect(daemon.addr())?;
    let (raw, _) = client.request_full(&Request::Catalog)?;
    println!("\n> catalog\n< {}", raw.join("\n< "));

    // 3. Query the Mapper: rank UDM parameters for a VDM-style context.
    let (raw, _) = client.request_full(&Request::QueryMapping {
        sequences: vec!["bgp as-number".to_string()],
        k: 3,
        deadline_ms: Some(2_000),
        mode: None,
    })?;
    println!(
        "\n> query-mapping \"bgp as-number\" (k=3, 2s deadline)\n< {}",
        raw.join("\n< ")
    );

    // 4. Submit a fresh manual through the staged pipeline; each stage
    //    streams one progress frame before the final summary.
    let st = style::vendor("cirrus")?;
    let manual = manualgen::generate(
        &st,
        &Catalog::base(),
        &manualgen::GenOptions {
            seed: 7,
            syntax_error_rate: 0.0,
            ambiguity_rate: 0.0,
            ..Default::default()
        },
    );
    let pages: Vec<(String, String)> = manual
        .pages
        .iter()
        .take(4)
        .map(|p| (p.url.clone(), p.html.clone()))
        .collect();
    let (raw, _) = client.request_full(&Request::SubmitManual {
        vendor: "cirrus".to_string(),
        pages,
        deadline_ms: None,
        job: None,
    })?;
    println!("\n> submit-manual (4 pages)\n< {}", raw.join("\n< "));

    // 5. Health: queue depths, counters and worker-pool stats.
    let (raw, _) = client.request_full(&Request::Health)?;
    println!("\n> health\n< {}", raw.join("\n< "));

    // 6. Graceful drain: in-flight work completes, then the generation
    //    bumps; our idle connection is retired with a typed reply.
    daemon.drain();
    println!("\ndrained (generation {})", daemon.generation());
    match client.request(&Request::Catalog)? {
        Reply::Err(e) => println!(
            "> catalog (after drain)\n< typed shed: {} — {}",
            e.kind.as_str(),
            e.message
        ),
        other => println!("unexpected post-drain reply: {other:?}"),
    }

    let c = daemon.counters();
    println!(
        "\ncounters: {} served, {} shed while draining, {} panics",
        c.served, c.shed_draining, c.panics
    );
    Ok(())
}
