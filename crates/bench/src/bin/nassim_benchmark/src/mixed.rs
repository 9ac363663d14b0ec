//! `mixed`: journaled manual submissions beside small reads, then crash
//! restarts.
//!
//! The daemon of `query`, with a write-ahead job journal in a fresh
//! directory, runs an open loop. Connection A sends `query-mapping` at
//! 10/s on a fixed schedule, every query distinct, so a result cache
//! misses. Connection B sends a journaled `submit-manual` every 2 s, each
//! a freshly seeded manual, cirrus and h4c in turn. Latency runs from each
//! request's due time. Then come 11 crash-restart trials: each writes a
//! fresh journal holding 4 `submitted` records and no stages, which is
//! what a SIGKILL right after intent leaves behind, and times
//! `ServeDaemon::spawn` until it returns with the 4 jobs recovered. The
//! same serve, admission and store layers carry fsynced journal records,
//! atomic per-stage store saves and 100 KB frames beside small reads, so
//! a change that speeds reads by stalling writes shows here, and so does
//! the reverse.

use crate::pipeline::{run_stages, VendorInputs};
use crate::report::{Outcome, PoolDelta};
use crate::serving::{
    self, check_matches, exchange, expected_matches, param_contexts, query_request, QuerySample,
};
use crate::stats::{median, ms, open_loop, overhead_pct, percentile};
use crate::trace::{self, Span, SpanId, Tracer};
use crate::RunCtx;
use nassim::ArtifactStore;
use nassim_serve::{
    ErrKind, JobJournal, JournalRecord, Reply, Request, ServeClient, ServeConfig, ServeDaemon,
    ServeState,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

const QUERY_PERIOD: Duration = Duration::from_millis(100);
const JOB_PERIOD: Duration = Duration::from_secs(2);
/// The open loop runs at least this long, so the p95 over its queries
/// has ten queries beyond it.
const MIN_LOOP: Duration = Duration::from_secs(20);
/// An op still incomplete this long after the loop's end has failed.
const GRACE: Duration = Duration::from_secs(5);
const TAIL_P: f64 = 0.95;
const JOB_VENDORS: [&str; 2] = ["cirrus", "h4c"];
const RESTART_TRIALS: usize = 11;
const PENDING_PER_TRIAL: usize = 4;
const JOURNAL_APPENDS: usize = 50;
const STORE_SAVES: usize = 10;
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// A submit streams one progress frame per stage, sent as the stage
/// starts, then the final reply (`serve.job_gap.done`). Each gap span
/// runs from the previous frame, or the send, to this frame.
const PROGRESS_FRAMES: [(&str, &str); 4] = [
    ("parse", "serve.job_gap.parse"),
    ("syntax", "serve.job_gap.syntax"),
    ("hierarchy", "serve.job_gap.hierarchy"),
    ("build", "serve.job_gap.build"),
];

/// One submitted manual and the final frame a non-journaled warm-up
/// submission of it returned.
struct Job {
    vendor: &'static str,
    pages: Vec<(String, String)>,
    final_frame: String,
    payload: Value,
}

/// What the job generator measured for one submit.
struct Submit {
    line_bytes: usize,
    final_bytes: usize,
    encode: Duration,
    decode: Duration,
    /// Send to final frame.
    rtt: Duration,
    line: String,
}

fn submit(
    client: &mut ServeClient,
    tracer: &mut Tracer,
    op: SpanId,
    req: u64,
    request: &Request,
    job: &Job,
) -> Result<Submit, String> {
    let t0 = Instant::now();
    let line = request.to_line();
    let sent = Instant::now();
    tracer.record("serve.protocol.request_encode", op, req, t0, sent);
    client.send_line(&line).map_err(|e| e.to_string())?;
    let mut prev = sent;
    let mut next_frame = |gap: &'static str| -> Result<(String, Instant), String> {
        let raw = client.read_raw().map_err(|e| e.to_string())?;
        let arrived = Instant::now();
        tracer.record(gap, op, req, prev, arrived);
        prev = arrived;
        Ok((raw, arrived))
    };
    for (stage, gap) in PROGRESS_FRAMES {
        let (raw, _) = next_frame(gap)?;
        match Reply::parse(&raw) {
            Ok(Reply::Progress(p)) if p.get("stage") == Some(&Value::Str(stage.to_string())) => {}
            other => {
                return Err(format!(
                    "expected the `{stage}` progress frame, got {other:?}"
                ))
            }
        }
    }
    let (raw, arrived) = next_frame("serve.job_gap.done")?;
    std::hint::black_box(Reply::parse(&raw)).ok();
    let parsed = Instant::now();
    tracer.record("serve.protocol.reply_decode", op, req, arrived, parsed);
    if raw != job.final_frame {
        return Err(format!(
            "final frame differs from the warm-up submission's: {raw}"
        ));
    }
    Ok(Submit {
        line_bytes: line.len() + 1,
        final_bytes: raw.len() + 1,
        encode: sent - t0,
        decode: parsed - arrived,
        rtt: arrived - sent,
        line,
    })
}

/// Generate the job manuals and submit each once, non-journaled: its
/// final frame is what every journaled run must reproduce.
fn warm_up_jobs(
    ctx: &RunCtx,
    daemon: &ServeDaemon,
    n: usize,
    out: &mut Outcome,
) -> Result<Vec<Job>, String> {
    let inputs = JOB_VENDORS
        .iter()
        .map(|v| VendorInputs::new(v))
        .collect::<Result<Vec<_>, _>>()?;
    let mut client = serving::connect(daemon, READ_TIMEOUT)?;
    let mut jobs = Vec::with_capacity(n);
    for j in 0..n {
        // Alternating vendors keeps every run's page mix the same.
        let input = &inputs[j % inputs.len()];
        let manual = input.manual(ctx.derive("mixed.job", j as u64));
        let pages: Vec<(String, String)> =
            manual.pages.into_iter().map(|p| (p.url, p.html)).collect();
        let request = Request::SubmitManual {
            vendor: input.vendor.to_string(),
            pages: pages.clone(),
            deadline_ms: None,
            job: None,
        };
        out.attempted += 1;
        let (raw, reply) = client
            .request_full(&request)
            .map_err(|e| format!("warm-up submit {j}: {e}"))?;
        let (Some(final_frame), Reply::Ok(payload)) = (raw.last(), reply) else {
            out.fail(format!("warm-up submit {j} was not answered ok"));
            continue;
        };
        jobs.push(Job {
            vendor: input.vendor,
            pages,
            final_frame: final_frame.clone(),
            payload,
        });
    }
    Ok(jobs)
}

/// One crash-restart trial: a fresh journal with pending intents only,
/// then `ServeDaemon::spawn`, which recovers them before it returns.
/// Every recovered job must report done with its warm-up payload.
fn restart_trial(
    ctx: &RunCtx,
    state: &Arc<ServeState>,
    jobs: &[Job],
    t: usize,
    tracer: &mut Tracer,
    status_ms: &mut Vec<f64>,
) -> Result<f64, String> {
    let dir = ctx.scratch.join(format!("restart-{t}"));
    let ids: Vec<(String, &Job)> = (0..PENDING_PER_TRIAL)
        .map(|q| {
            (
                format!("restart-{t}-{q}"),
                &jobs[(t * PENDING_PER_TRIAL + q) % jobs.len()],
            )
        })
        .collect();
    {
        let (journal, _) = JobJournal::open(&dir).map_err(|e| e.to_string())?;
        for (id, job) in &ids {
            journal
                .append(&JournalRecord::Submitted {
                    job: id.clone(),
                    vendor: job.vendor.to_string(),
                    deadline_ms: None,
                    pages: job.pages.clone(),
                })
                .map_err(|e| e.to_string())?;
        }
    }
    let req = t as u64 + 1;
    if tracer.enabled() {
        tracer
            .span("replay.journal_open", SpanId::NONE, req, || {
                JobJournal::open(&dir)
            })
            .map_err(|e| e.to_string())?;
    }
    let config = ServeConfig {
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let t0 = Instant::now();
    let op = tracer.start_at("op.restart", SpanId::NONE, req, t0);
    let spawned = tracer.span("serve.daemon_spawn", op, req, || {
        ServeDaemon::spawn(Arc::clone(state), config)
    });
    let t1 = Instant::now();
    tracer.end_at(op, t1);
    let mut daemon = spawned.map_err(|e| e.to_string())?;
    let recovered = daemon.counters().jobs_recovered;
    let mut check = if recovered == PENDING_PER_TRIAL as u64 {
        Ok(ms(t1 - t0))
    } else {
        Err(format!(
            "{recovered} jobs recovered, {PENDING_PER_TRIAL} were pending"
        ))
    };
    let mut client = serving::connect(&daemon, READ_TIMEOUT)?;
    let mut untraced = Tracer::new(ctx.epoch, 0);
    for (id, job) in &ids {
        let status = exchange(
            &mut client,
            &mut untraced,
            SpanId::NONE,
            req,
            &Request::JobStatus { job: id.clone() },
        )
        .map_err(|e| e.to_string())?;
        status_ms.push(ms(status.wire));
        let done = match &status.reply {
            Ok(Reply::Ok(v)) => {
                v.get("state") == Some(&Value::Str("done".to_string()))
                    && v.get("result") == Some(&job.payload)
            }
            _ => false,
        };
        if !done && check.is_ok() {
            check = Err(format!(
                "job `{id}` is not done with its warm-up payload: {}",
                status.raw
            ));
        }
    }
    drop(client);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
    check
}

pub fn run(ctx: &RunCtx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut daemon, setup_s) = serving::set_up(|rep| ServeConfig {
        journal_dir: Some(ctx.scratch.join(format!("journal-{rep}"))),
        ..ServeConfig::default()
    })?;
    out.set("setup_s", setup_s);
    let state = Arc::clone(daemon.state());

    let loop_len = MIN_LOOP.max(Duration::from_secs(ctx.seconds));
    let n_queries = (loop_len.as_millis() / QUERY_PERIOD.as_millis()) as usize;
    let n_jobs = (loop_len.as_millis() / JOB_PERIOD.as_millis()) as usize;
    let jobs = warm_up_jobs(ctx, &daemon, n_jobs, &mut out)?;
    if jobs.is_empty() {
        return Err("no warm-up submission succeeded".to_string());
    }
    let contexts = param_contexts(&state);
    let mut rng = StdRng::seed_from_u64(ctx.derive("mixed.queries", 0));
    let mut order: Vec<usize> = (0..contexts.len()).collect();
    order.shuffle(&mut rng);
    let queries: Vec<Request> = (0..n_queries)
        .map(|i| query_request(&contexts[order[i % order.len()]], &mut rng))
        .collect();
    let submits: Vec<Request> = jobs
        .iter()
        .enumerate()
        .map(|(j, job)| Request::SubmitManual {
            vendor: job.vendor.to_string(),
            pages: job.pages.clone(),
            deadline_ms: None,
            job: Some(format!("job-{j}")),
        })
        .collect();

    let served_before = daemon.counters().served;
    let mut pool = PoolDelta::default();
    let start = Instant::now() + Duration::from_millis(50);
    let give_up = start + loop_len + GRACE;
    let mut query_tracer = Tracer::new(ctx.epoch, 1);
    let mut job_tracer = Tracer::new(ctx.epoch, 2);
    let (query_runs, job_runs) = pool.around(|| {
        std::thread::scope(|s| {
            let queries_thread = s.spawn(|| -> Result<_, String> {
                let mut client = serving::connect(&daemon, READ_TIMEOUT)?;
                let tracer = &mut query_tracer;
                Ok(open_loop(start, QUERY_PERIOD, queries.len(), |i, due| {
                    if Instant::now() > give_up {
                        return Err("not sent within 5 s of the loop's end".to_string());
                    }
                    let req = i as u64 + 1;
                    tracer.set_enabled(ctx.traced(i as u64));
                    let op = tracer.start_at("op.query-mapping", SpanId::NONE, req, due);
                    tracer.record("bench.generator_lag", op, req, due, Instant::now());
                    let ex = exchange(&mut client, tracer, op, req, &queries[i]);
                    tracer.end(op);
                    let ex = ex.map_err(|e| e.to_string());
                    if ex.is_err() {
                        if let Ok(fresh) = serving::connect(&daemon, READ_TIMEOUT) {
                            client = fresh;
                        }
                    }
                    ex.map(|ex| (ex, tracer.enabled()))
                }))
            });
            let jobs_thread = s.spawn(|| -> Result<_, String> {
                let mut client = serving::connect(&daemon, READ_TIMEOUT)?;
                let tracer = &mut job_tracer;
                Ok(open_loop(start, JOB_PERIOD, submits.len(), |j, due| {
                    if Instant::now() > give_up {
                        return Err("not sent within 5 s of the loop's end".to_string());
                    }
                    let req = (1 << 32) | (j as u64 + 1);
                    tracer.set_enabled(ctx.traced(j as u64));
                    let op = tracer.start_at("op.submit-manual", SpanId::NONE, req, due);
                    tracer.record("bench.generator_lag", op, req, due, Instant::now());
                    let done = submit(&mut client, tracer, op, req, &submits[j], &jobs[j]);
                    tracer.end(op);
                    if done.is_err() {
                        if let Ok(fresh) = serving::connect(&daemon, READ_TIMEOUT) {
                            client = fresh;
                        }
                    }
                    done
                }))
            });
            let panicked = |_| "a generator thread panicked".to_string();
            let query_runs = queries_thread.join().map_err(panicked)??;
            let job_runs = jobs_thread.join().map_err(panicked)??;
            Ok::<_, String>((query_runs, job_runs))
        })
    })?;
    let served = daemon.counters().served - served_before;

    // Queries: latency from the due time; every reply checked against
    // in-process `recommend` now that the loop is over.
    let mut overlap_ms = Vec::new();
    let mut idle_ms = Vec::new();
    let (mut latencies, mut traced_ms, mut untraced_ms, mut lags) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut samples, mut rtt_ms, mut ok) = (Vec::new(), Vec::new(), 0u64);
    let mut shed = 0u64;
    let job_windows: Vec<(Instant, Instant)> =
        job_runs.iter().map(|(s, _)| (s.sent, s.done)).collect();
    for (i, (sched, result)) in query_runs.iter().enumerate() {
        out.attempted += 1;
        lags.push(sched.lag_ms());
        let checked = result
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|(ex, traced)| {
                if let Ok(Reply::Err(e)) = &ex.reply {
                    if e.kind == ErrKind::Overloaded {
                        shed += 1;
                    }
                }
                let reply = ex.reply.as_ref().map_err(Clone::clone)?;
                check_matches(reply, &expected_matches(&state, &queries[i]))?;
                Ok((ex, *traced))
            });
        let (ex, traced) = match checked {
            Ok(done) if sched.done <= give_up => done,
            Ok(_) => {
                out.fail(format!(
                    "query {i} completed more than 5 s after the loop's end"
                ));
                continue;
            }
            Err(e) => {
                out.fail(format!("query {i}: {e}"));
                continue;
            }
        };
        ok += 1;
        let latency = sched.latency_ms();
        latencies.push(latency);
        if traced {
            &mut traced_ms
        } else {
            &mut untraced_ms
        }
        .push(latency);
        rtt_ms.push(ms(ex.wire));
        let overlaps = job_windows
            .iter()
            .any(|(a, b)| sched.sent < *b && *a < sched.done);
        if overlaps {
            &mut overlap_ms
        } else {
            &mut idle_ms
        }
        .push(ms(ex.wire));
        if traced {
            samples.push(QuerySample {
                req: i as u64 + 1,
                line: ex.line.clone(),
                wire_ms: ms(ex.wire),
            });
        }
    }
    out.latency(&latencies, TAIL_P);

    // Submits: latency from the due time to the final frame.
    let (mut job_ms, mut pages_per_s, mut submit_rtt) = (Vec::new(), Vec::new(), Vec::new());
    let (mut encode_us, mut decode_us, mut line_bytes, mut final_bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut submit_lines = Vec::new();
    for (j, (sched, result)) in job_runs.iter().enumerate() {
        out.attempted += 1;
        lags.push(sched.lag_ms());
        match result {
            Ok(_) if sched.done > give_up => out.fail(format!(
                "submit {j} completed more than 5 s after the loop's end"
            )),
            Ok(s) => {
                ok += 1;
                job_ms.push(sched.latency_ms());
                pages_per_s.push(jobs[j].pages.len() as f64 / (sched.latency_ms() / 1e3));
                submit_rtt.push(ms(s.rtt));
                encode_us.push(ms(s.encode) * 1e3);
                decode_us.push(ms(s.decode) * 1e3);
                line_bytes.push(s.line_bytes as f64);
                final_bytes.push(s.final_bytes as f64);
                submit_lines.push(((1u64 << 32) | (j as u64 + 1), s.line.clone()));
            }
            Err(e) => out.fail(format!("submit {j}: {e}")),
        }
    }
    if served != ok {
        out.error(format!(
            "the daemon served {served} requests, {ok} were answered ok"
        ));
    }
    // Ten jobs are too few for a mean: one fsync stall would move it.
    out.set("ops_per_s", median(&pages_per_s));
    daemon.stop();

    let mut tracer = Tracer::new(ctx.epoch, 3);
    let (mut restart_ms, mut status_ms) = (Vec::new(), Vec::new());
    for t in 0..RESTART_TRIALS {
        out.attempted += 1;
        tracer.set_enabled(ctx.traced(t as u64));
        match restart_trial(ctx, &state, &jobs, t, &mut tracer, &mut status_ms) {
            Ok(spawn_ms) => restart_ms.push(spawn_ms),
            Err(e) => out.fail(format!("restart trial {t}: {e}")),
        }
    }

    if ctx.trace {
        serving::replay_queries(&state, &mut tracer, &samples, &mut out);
        let request_decode_us: Vec<f64> = submit_lines
            .iter()
            .map(|(req, line)| serving::replay_decode(&mut tracer, *req, line).0 * 1e3)
            .collect();
        out.set(
            "serve.protocol.request_decode_us",
            median(&request_decode_us),
        );
        replay_persistence(ctx, &jobs[0], &mut tracer)?;
    }

    let mut spans: Vec<Span> = query_tracer.into_spans();
    spans.extend(job_tracer.into_spans());
    spans.extend(tracer.into_spans());
    for (gap, metric) in [
        ("serve.job_gap.parse", "serve.job_stage_gap_ms.parse"),
        ("serve.job_gap.syntax", "serve.job_stage_gap_ms.syntax"),
        (
            "serve.job_gap.hierarchy",
            "serve.job_stage_gap_ms.hierarchy",
        ),
        ("serve.job_gap.build", "serve.job_stage_gap_ms.build"),
        ("serve.job_gap.done", "serve.job_stage_gap_ms.done"),
    ] {
        out.set(metric, median(&trace::durations_ms(&spans, gap)));
    }
    out.set(
        "serve.journal.append_ms",
        median(&trace::durations_ms(&spans, "replay.journal_append")),
    );
    out.set(
        "core.job_store_save_ms",
        median(&trace::durations_ms(&spans, "replay.job_store_save")),
    );
    out.set(
        "serve.restart.journal_open_ms",
        median(&trace::durations_ms(&spans, "replay.journal_open")),
    );
    out.set("serve.job_p50_ms", median(&job_ms));
    out.set("serve.restart_ms", median(&restart_ms));
    out.set("serve.rtt_ms.query-mapping", median(&rtt_ms));
    out.set("serve.rtt_ms.submit-manual", median(&submit_rtt));
    out.set("serve.rtt_ms.job-status", median(&status_ms));
    out.set("serve.protocol.request_encode_us", median(&encode_us));
    out.set("serve.protocol.reply_decode_us", median(&decode_us));
    out.set("serve.request_bytes", median(&line_bytes));
    out.set("serve.reply_bytes", median(&final_bytes));
    out.set("serve.query_rtt_overlap_ms", median(&overlap_ms));
    out.set("serve.query_rtt_idle_ms", median(&idle_ms));
    out.set("serve.generator_lag_ms", percentile(&lags, 0.99));
    out.set("serve.shed", shed as f64);
    out.set("serve.served_delta", served as f64);
    pool.report(&mut out, (query_runs.len() + job_runs.len()) as u64);
    out.set("trace.overhead_pct", overhead_pct(&traced_ms, &untraced_ms));
    out.spans = spans;
    Ok(out)
}

/// In-process persistence replays, after the restarts: stage-sized
/// journal appends on a scratch journal, and saves of a job-sized store.
fn replay_persistence(ctx: &RunCtx, job: &Job, tracer: &mut Tracer) -> Result<(), String> {
    tracer.set_enabled(true);
    let (journal, _) = JobJournal::open(&ctx.scratch.join("append")).map_err(|e| e.to_string())?;
    for i in 0..JOURNAL_APPENDS {
        let record = JournalRecord::Stage {
            job: format!("append-{i}"),
            stage: "parse".to_string(),
            key: format!("{i:016x}"),
        };
        tracer
            .span("replay.journal_append", SpanId::NONE, 0, || {
                journal.append(&record)
            })
            .map_err(|e| e.to_string())?;
    }
    let input = VendorInputs::new(job.vendor)?;
    let pages: Vec<(&str, &str)> = job
        .pages
        .iter()
        .map(|(u, h)| (u.as_str(), h.as_str()))
        .collect();
    let mut store = ArtifactStore::new();
    let mut quiet = Tracer::new(ctx.epoch, 4);
    run_stages(
        &mut quiet,
        SpanId::NONE,
        0,
        &mut store,
        input.parser.as_ref(),
        &pages,
    )?;
    let path = ctx.scratch.join("job.store.json");
    for _ in 0..STORE_SAVES {
        tracer
            .span("replay.job_store_save", SpanId::NONE, 0, || {
                store.save(&path)
            })
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}
