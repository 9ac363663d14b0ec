//! `onboard`: turn fresh vendor manuals into validated VDMs.
//!
//! Each op is one round: four freshly seeded manuals (cirrus, helix,
//! norsk, h4c at their Table-4 scale) each go through a fresh
//! `ArtifactStore`'s four stages. Closed loop, one caller. Generating the
//! manuals is not timed. The store only misses, so the parser, syntax
//! audit, CGM hierarchy derivation and VDM build do all the work.

use crate::pipeline::{
    matches_cold, page_refs, report_stage_spans, run_stages, Staged, Traffic, VendorInputs, VENDORS,
};
use crate::report::{Outcome, PoolDelta};
use crate::stats::{median, ms, overhead_pct};
use crate::trace::{SpanId, Tracer};
use crate::RunCtx;
use nassim::datasets::Manual;
use nassim::ArtifactStore;
use std::time::Instant;

/// Rounds run at least, whatever `--seconds` says, so the p90 has ten
/// rounds beyond it.
const MIN_ROUNDS: u64 = 100;
const TAIL_P: f64 = 0.90;
/// Every this many rounds, the staged results are diffed against a cold
/// `assimilate_with`.
const ORACLE_EVERY: u64 = 10;
const SETUP_REPS: u64 = 5;

/// One round: every vendor's manual through a fresh store. Returns the
/// round latency and each vendor's store and stage outputs.
fn round(
    tracer: &mut Tracer,
    req: u64,
    inputs: &[VendorInputs],
    pages: &[Vec<(&str, &str)>],
) -> Result<(f64, Vec<(ArtifactStore, Staged)>), String> {
    let t0 = Instant::now();
    let op = tracer.start_at("op.onboard_round", SpanId::NONE, req, t0);
    let mut out = Vec::with_capacity(inputs.len());
    for (input, pages) in inputs.iter().zip(pages) {
        let mut store = ArtifactStore::new();
        let staged = run_stages(tracer, op, req, &mut store, input.parser.as_ref(), pages)?;
        out.push((store, staged));
    }
    let t1 = Instant::now();
    tracer.end_at(op, t1);
    Ok((ms(t1 - t0), out))
}

pub fn run(ctx: &RunCtx) -> Result<Outcome, String> {
    let inputs = VENDORS
        .iter()
        .map(|v| VendorInputs::new(v))
        .collect::<Result<Vec<_>, _>>()?;
    let mut tracer = Tracer::new(ctx.epoch, 0);
    let mut out = Outcome::default();

    // Set-up: the worker pool's start plus one warm-up round, five times.
    let pool_start = Instant::now();
    nassim_exec::par_map(&[(); 2], |_| ());
    let pool_ms = ms(pool_start.elapsed());
    let manuals = |tag: &str, round: u64| -> Vec<Manual> {
        inputs
            .iter()
            .enumerate()
            .map(|(vi, input)| {
                input.manual(ctx.derive(tag, round * VENDORS.len() as u64 + vi as u64))
            })
            .collect()
    };
    let mut setup_ms = Vec::new();
    for rep in 0..SETUP_REPS {
        let manuals = manuals("onboard.setup", rep);
        let pages: Vec<Vec<(&str, &str)>> = manuals.iter().map(page_refs).collect();
        let (latency, _) = round(&mut tracer, 0, &inputs, &pages)?;
        setup_ms.push(latency + if rep == 0 { pool_ms } else { 0.0 });
    }
    out.set("setup_s", median(&setup_ms) / 1e3);

    let mut traffic = Traffic::default();
    let mut pool = PoolDelta::default();
    let (mut traced_ms, mut untraced_ms, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let (mut pages_done, mut quarantined, mut store_pages) = (0usize, 0usize, 0usize);
    let started = Instant::now();
    let mut r = 0u64;
    while r < MIN_ROUNDS || started.elapsed().as_secs() < ctx.seconds {
        let manuals = manuals("onboard", r);
        let pages: Vec<Vec<(&str, &str)>> = manuals.iter().map(page_refs).collect();
        tracer.set_enabled(ctx.traced(r));
        out.attempted += 1;
        let (latency, results) = match pool.around(|| round(&mut tracer, r + 1, &inputs, &pages)) {
            Ok(done) => done,
            Err(e) => {
                out.fail(format!("round {r}: {e}"));
                r += 1;
                continue;
            }
        };
        latencies.push(latency);
        if tracer.enabled() {
            &mut traced_ms
        } else {
            &mut untraced_ms
        }
        .push(latency);
        pages_done += pages.iter().map(Vec::len).sum::<usize>();
        store_pages = results.iter().map(|(s, _)| s.page_count()).sum();
        let mut failure = None;
        for ((store, staged), (input, pages)) in results.iter().zip(inputs.iter().zip(&pages)) {
            traffic = traffic.plus(Traffic::of(store));
            quarantined += staged.parse.quarantined.len();
            if !staged.parse.quarantined.is_empty() {
                failure = Some(format!(
                    "{}: {} pages quarantined",
                    input.vendor,
                    staged.parse.quarantined.len()
                ));
            } else if r.is_multiple_of(ORACLE_EVERY) {
                if let Err(e) = matches_cold(staged, input.parser.as_ref(), pages) {
                    failure = Some(format!("{}: {e}", input.vendor));
                }
            }
        }
        if let Some(e) = failure {
            out.fail(format!("round {r}: {e}"));
        }
        r += 1;
    }

    out.latency(&latencies, TAIL_P);
    out.set(
        "ops_per_s",
        pages_done as f64 / (latencies.iter().sum::<f64>() / 1e3),
    );

    let spans = tracer.into_spans();
    report_stage_spans(&mut out, &spans);
    traffic.report(&mut out, r);
    pool.report(&mut out, r);
    out.set("parser.pages_quarantined", quarantined as f64);
    out.set("core.store_pages", store_pages as f64);
    out.set("trace.overhead_pct", overhead_pct(&traced_ms, &untraced_ms));
    out.spans = spans;
    Ok(out)
}
