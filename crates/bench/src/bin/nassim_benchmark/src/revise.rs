//! `revise`: keep a VDM current as its manual changes.
//!
//! The helix manual is assimilated into one store, then a chain of
//! seeded modify-only revisions, each editing 1% of the pages, is
//! re-assimilated through that store's four stages. Closed loop, one
//! caller; generating a revision is not timed. Content hashing, store
//! lookups and folds dominate, and the store grows with every revision.
//! The chain has a fixed length so the store's final size, and with it
//! `peak_rss_mb`, does not depend on how fast the revisions run.

use crate::pipeline::{
    matches_cold, page_refs, report_stage_spans, run_stages, Traffic, VendorInputs,
};
use crate::report::{Outcome, PoolDelta};
use crate::stats::{median, ms, overhead_pct};
use crate::trace::{SpanId, Tracer};
use crate::RunCtx;
use nassim::datasets::{apply_edit_plan, manualgen, EditPlan};
use nassim::ArtifactStore;
use std::time::Instant;

const REVISIONS: u64 = 500;
/// Share of the manual's pages each revision edits.
const EDIT_SHARE: f64 = 0.01;
const TAIL_P: f64 = 0.98;
/// Every this many revisions, the incremental result is diffed against a
/// cold `assimilate_with`.
const ORACLE_EVERY: u64 = 25;
const SETUP_REPS: u64 = 5;

pub fn run(ctx: &RunCtx) -> Result<Outcome, String> {
    let input = VendorInputs::new("helix")?;
    let parser = input.parser.as_ref();
    let opts = input.options(ctx.derive("revise.manual", 0));
    let mut previous = manualgen::generate(&input.style, &input.catalog, &opts);
    let edits = ((previous.pages.len() as f64 * EDIT_SHARE).round() as usize).max(1);
    let mut tracer = Tracer::new(ctx.epoch, 0);
    let mut out = Outcome::default();

    // Set-up: a cold assimilation of the base manual, five times; the
    // last store carries the chain.
    let base_pages = page_refs(&previous);
    let mut cold_store = || -> Result<(ArtifactStore, f64), String> {
        let mut store = ArtifactStore::new();
        let t = Instant::now();
        let _staged = run_stages(
            &mut tracer,
            SpanId::NONE,
            0,
            &mut store,
            parser,
            &base_pages,
        )?;
        Ok((store, ms(t.elapsed())))
    };
    let (mut store, first_ms) = cold_store()?;
    let mut setup_ms = vec![first_ms];
    for _ in 1..SETUP_REPS {
        let (fresh, t) = cold_store()?;
        store = fresh;
        setup_ms.push(t);
    }
    out.set("setup_s", median(&setup_ms) / 1e3);

    let mut catalog = input.catalog.clone();
    let mut traffic = Traffic::default();
    let mut pool = PoolDelta::default();
    let (mut traced_ms, mut untraced_ms, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let mut quarantined = 0usize;
    for r in 0..REVISIONS {
        let plan = EditPlan::modify_only(ctx.derive("revise.plan", r), edits);
        catalog = apply_edit_plan(&catalog, &plan).0;
        let manual = manualgen::generate(&input.style, &catalog, &opts);
        let clean = manual
            .pages
            .iter()
            .zip(&previous.pages)
            .filter(|(a, b)| a.url == b.url && a.html == b.html)
            .count();
        let pages = page_refs(&manual);
        tracer.set_enabled(ctx.traced(r));
        out.attempted += 1;
        let before = Traffic::of(&store);
        let t0 = Instant::now();
        let op = tracer.start_at("op.revision", SpanId::NONE, r + 1, t0);
        let staged = pool.around(|| run_stages(&mut tracer, op, r + 1, &mut store, parser, &pages));
        let t1 = Instant::now();
        tracer.end_at(op, t1);
        let delta = Traffic::of(&store).since(before);
        traffic = traffic.plus(delta);
        let staged = match staged {
            Ok(staged) => staged,
            Err(e) => {
                out.fail(format!("revision {r}: {e}"));
                continue;
            }
        };
        latencies.push(ms(t1 - t0));
        if tracer.enabled() {
            &mut traced_ms
        } else {
            &mut untraced_ms
        }
        .push(ms(t1 - t0));
        quarantined += staged.parse.quarantined.len();
        let check = if delta.page_hits != clean {
            Err(format!(
                "{} page hits for {clean} clean pages",
                delta.page_hits
            ))
        } else if !staged.parse.quarantined.is_empty() {
            Err(format!(
                "{} pages quarantined",
                staged.parse.quarantined.len()
            ))
        } else if r.is_multiple_of(ORACLE_EVERY) {
            matches_cold(&staged, parser, &pages)
        } else {
            Ok(())
        };
        if let Err(e) = check {
            out.fail(format!("revision {r}: {e}"));
        }
        previous = manual;
    }

    out.latency(&latencies, TAIL_P);
    out.set(
        "ops_per_s",
        latencies.len() as f64 / (latencies.iter().sum::<f64>() / 1e3),
    );

    // One save and one load of the final store, after the timed phase.
    if ctx.trace {
        tracer.set_enabled(true);
        let path = ctx.scratch.join("revise.store.json");
        tracer
            .span("replay.store_save", SpanId::NONE, 0, || store.save(&path))
            .map_err(|e| format!("saving the revised store: {e}"))?;
        let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        let loaded = tracer
            .span("replay.store_load", SpanId::NONE, 0, || {
                ArtifactStore::load(&path)
            })
            .map_err(|e| format!("loading the revised store: {e}"))?;
        if loaded.page_count() != store.page_count() {
            out.error(format!(
                "reloaded store holds {} pages, saved {}",
                loaded.page_count(),
                store.page_count()
            ));
        }
        out.set("core.store_bytes", bytes as f64);
    }

    let spans = tracer.into_spans();
    report_stage_spans(&mut out, &spans);
    out.set(
        "core.store_save_ms",
        median(&crate::trace::durations_ms(&spans, "replay.store_save")),
    );
    out.set(
        "core.store_load_ms",
        median(&crate::trace::durations_ms(&spans, "replay.store_load")),
    );
    traffic.report(&mut out, REVISIONS);
    pool.report(&mut out, REVISIONS);
    out.set("parser.pages_quarantined", quarantined as f64);
    out.set("core.store_pages", store.page_count() as f64);
    out.set("trace.overhead_pct", overhead_pct(&traced_ms, &untraced_ms));
    out.spans = spans;
    Ok(out)
}
