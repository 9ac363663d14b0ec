//! `query`: answer VDM→UDM mapping queries, as a controller translating
//! configs would ask them.
//!
//! A `ServeDaemon` with the default config serves the full catalog.
//! Closed loop over two connections, each waiting for its reply before
//! sending the next. Nine requests in ten are `query-mapping` over 128
//! distinct VDM-parameter contexts, drawn from the served VDMs in seeded
//! order; the rest are split between `inspect` and `catalog`. Socket,
//! framing, JSON, admission and the mapper scan are the whole cost. The
//! distinct requests repeat once replies get fast, so a result cache
//! would show here; `mixed` is the workload whose queries never repeat.

use crate::report::{Outcome, PoolDelta};
use crate::serving::{
    self, check_matches, exchange, expected_matches, param_contexts, query_request, QuerySample,
};
use crate::stats::{median, ms, overhead_pct};
use crate::trace::{Span, SpanId, Tracer};
use crate::RunCtx;
use nassim_serve::{ErrKind, Reply, Request, ServeConfig, ServeDaemon};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const DISTINCT_QUERIES: usize = 128;
/// Connections, each driven by its own generator thread (at most `nproc`
/// on the 2-vCPU reference machine).
const CONNECTIONS: u64 = 2;
/// p95, not p98: on the seed code about 2% of round trips take one more
/// 4 ms timer tick of the delayed-ACK stall (48 ms, not 44 ms), so a p98
/// flips between the two from run to run.
const TAIL_P: f64 = 0.95;
/// Requests sent past the deadline until this many were sent in all, so
/// the p95 has many more than ten requests beyond it.
const MIN_OPS: u64 = 600;
/// `health` probes after the loop: a control-plane op that skips
/// admission and does almost no work, so its round trip is the bare
/// transport floor.
const HEALTH_PROBES: usize = 200;
const READ_TIMEOUT: Duration = Duration::from_secs(10);

fn op_span(request: &Request) -> &'static str {
    match request {
        Request::QueryMapping { .. } => "op.query-mapping",
        Request::Inspect { .. } => "op.inspect",
        _ => "op.catalog",
    }
}

/// What one connection's generator saw.
#[derive(Default)]
struct Conn {
    attempted: u64,
    failures: Vec<String>,
    shed: u64,
    ok_queries: u64,
    ok_replies: u64,
    latencies: Vec<f64>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    rtt_ms: BTreeMap<&'static str, Vec<f64>>,
    encode_us: Vec<f64>,
    reply_decode_us: Vec<f64>,
    request_bytes: Vec<f64>,
    reply_bytes: Vec<f64>,
    samples: Vec<QuerySample>,
    spans: Vec<Span>,
}

impl Conn {
    fn absorb(&mut self, other: Conn) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.shed += other.shed;
        self.ok_queries += other.ok_queries;
        self.ok_replies += other.ok_replies;
        self.latencies.extend(other.latencies);
        self.traced_ms.extend(other.traced_ms);
        self.untraced_ms.extend(other.untraced_ms);
        for (op, v) in other.rtt_ms {
            self.rtt_ms.entry(op).or_default().extend(v);
        }
        self.encode_us.extend(other.encode_us);
        self.reply_decode_us.extend(other.reply_decode_us);
        self.request_bytes.extend(other.request_bytes);
        self.reply_bytes.extend(other.reply_bytes);
        self.samples.extend(other.samples);
        self.spans.extend(other.spans);
    }
}

/// Send each distinct request once: query replies must match in-process
/// `recommend`. Returns the reply bytes every timed reply must repeat.
fn warm_up(
    daemon: &ServeDaemon,
    requests: &[Request],
    out: &mut Outcome,
) -> Result<Vec<Option<String>>, String> {
    let state = daemon.state();
    let results: Vec<Vec<(usize, Result<String, String>)>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNECTIONS as usize)
            .map(|c| {
                s.spawn(move || -> Result<_, String> {
                    let mut client = serving::connect(daemon, READ_TIMEOUT)?;
                    let mut tracer = Tracer::new(std::time::Instant::now(), 0);
                    let mut done = Vec::new();
                    for (i, request) in requests
                        .iter()
                        .enumerate()
                        .skip(c)
                        .step_by(CONNECTIONS as usize)
                    {
                        let checked = exchange(&mut client, &mut tracer, SpanId::NONE, 0, request)
                            .map_err(|e| e.to_string())
                            .and_then(|ex| {
                                let reply = ex.reply?;
                                match request {
                                    Request::QueryMapping { .. } => {
                                        check_matches(&reply, &expected_matches(state, request))?
                                    }
                                    _ if !matches!(reply, Reply::Ok(_)) => {
                                        return Err(format!("{reply:?}"))
                                    }
                                    _ => {}
                                }
                                Ok(ex.raw)
                            });
                        done.push((i, checked));
                    }
                    Ok(done)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .map_err(|_| "warm-up thread panicked".to_string())?
            })
            .collect::<Result<_, String>>()
    })?;
    let mut expected = vec![None; requests.len()];
    for (i, checked) in results.into_iter().flatten() {
        out.attempted += 1;
        match checked {
            Ok(raw) => expected[i] = Some(raw),
            Err(e) => out.fail(format!("warm-up request {i}: {e}")),
        }
    }
    Ok(expected)
}

/// What both connections share.
struct Plan<'a> {
    daemon: &'a ServeDaemon,
    /// The distinct queries, then one `inspect` per vendor, then `catalog`.
    requests: &'a [Request],
    queries: usize,
    /// The warm-up reply of each distinct request.
    expected: &'a [Option<String>],
    end: Instant,
    /// Requests started by either connection.
    sent: AtomicU64,
}

/// One connection's closed loop until the plan's end.
fn drive(ctx: &RunCtx, plan: &Plan, c: u64) -> Conn {
    let mut conn = Conn::default();
    let mut tracer = Tracer::new(ctx.epoch, c + 1);
    let mut rng = StdRng::seed_from_u64(ctx.derive("query.mix", c));
    let mut cycle: Vec<usize> = (0..plan.queries).collect();
    cycle.shuffle(&mut rng);
    let catalog = plan.requests.len() - 1;
    let inspects = catalog - plan.queries;
    let mut client = match serving::connect(plan.daemon, READ_TIMEOUT) {
        Ok(client) => client,
        Err(e) => {
            conn.failures.push(format!("connection {c}: {e}"));
            return conn;
        }
    };
    let mut i = 0u64;
    loop {
        if plan.sent.fetch_add(1, Ordering::Relaxed) >= MIN_OPS && Instant::now() >= plan.end {
            break;
        }
        let idx = match rng.gen_range(0..20u32) {
            0 => plan.queries + rng.gen_range(0..inspects),
            1 => catalog,
            _ => cycle[i as usize % plan.queries],
        };
        let request = &plan.requests[idx];
        let req = (c << 32) | (i + 1);
        tracer.set_enabled(ctx.traced(i));
        conn.attempted += 1;
        let t0 = Instant::now();
        let op = tracer.start_at(op_span(request), SpanId::NONE, req, t0);
        let ex = exchange(&mut client, &mut tracer, op, req, request);
        let t1 = Instant::now();
        tracer.end_at(op, t1);
        i += 1;
        let ex = match ex {
            Ok(ex) => ex,
            Err(e) => {
                conn.failures.push(format!("request {req}: {e}"));
                match serving::connect(plan.daemon, READ_TIMEOUT) {
                    Ok(fresh) => client = fresh,
                    Err(_) => break,
                }
                continue;
            }
        };
        match &ex.reply {
            Ok(Reply::Err(e)) if e.kind == ErrKind::Overloaded => conn.shed += 1,
            _ => {}
        }
        if plan.expected[idx].as_deref() != Some(ex.raw.as_str()) {
            conn.failures.push(format!(
                "request {req}: reply differs from the warm-up reply: {}",
                ex.raw
            ));
            continue;
        }
        let latency = ms(t1 - t0);
        conn.ok_replies += 1;
        conn.latencies.push(latency);
        if tracer.enabled() {
            &mut conn.traced_ms
        } else {
            &mut conn.untraced_ms
        }
        .push(latency);
        conn.rtt_ms
            .entry(request.op())
            .or_default()
            .push(ms(ex.wire));
        if let Request::QueryMapping { .. } = request {
            conn.ok_queries += 1;
            conn.encode_us.push(ms(ex.encode) * 1e3);
            conn.reply_decode_us.push(ms(ex.decode) * 1e3);
            conn.request_bytes.push(ex.line.len() as f64 + 1.0);
            conn.reply_bytes.push(ex.raw.len() as f64 + 1.0);
            if tracer.enabled() {
                conn.samples.push(QuerySample {
                    req,
                    line: ex.line,
                    wire_ms: ms(ex.wire),
                });
            }
        }
    }
    conn.spans = tracer.into_spans();
    conn
}

pub fn run(ctx: &RunCtx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut daemon, setup_s) = serving::set_up(|_| ServeConfig::default())?;
    out.set("setup_s", setup_s);
    let state = std::sync::Arc::clone(daemon.state());

    let contexts = param_contexts(&state);
    let mut rng = StdRng::seed_from_u64(ctx.derive("query.requests", 0));
    let mut order: Vec<usize> = (0..contexts.len()).collect();
    order.shuffle(&mut rng);
    let mut requests: Vec<Request> = order
        .iter()
        .take(DISTINCT_QUERIES)
        .map(|&i| query_request(&contexts[i], &mut rng))
        .collect();
    let queries = requests.len();
    requests.extend(
        state
            .vendors
            .keys()
            .map(|v| Request::Inspect { vendor: v.clone() }),
    );
    requests.push(Request::Catalog);

    let expected = warm_up(&daemon, &requests, &mut out)?;

    let served_before = daemon.counters().served;
    let mut pool = PoolDelta::default();
    let started = Instant::now();
    let plan = Plan {
        daemon: &daemon,
        requests: &requests,
        queries,
        expected: &expected,
        end: started + Duration::from_secs(ctx.seconds),
        sent: AtomicU64::new(0),
    };
    let conns: Vec<Conn> = pool
        .around(|| {
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..CONNECTIONS)
                    .map(|c| {
                        let plan = &plan;
                        s.spawn(move || drive(ctx, plan, c))
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join())
                    .collect::<Result<Vec<_>, _>>()
            })
        })
        .map_err(|_| "a connection thread panicked".to_string())?;
    let wall_s = started.elapsed().as_secs_f64();
    let served = daemon.counters().served - served_before;

    let mut all = Conn::default();
    for conn in conns {
        all.absorb(conn);
    }
    out.attempted += all.attempted;
    for f in all.failures {
        out.fail(f);
    }
    if served != all.ok_queries {
        out.error(format!(
            "the daemon served {served} queries, {} were answered ok",
            all.ok_queries
        ));
    }
    out.latency(&all.latencies, TAIL_P);
    out.set("ops_per_s", all.ok_replies as f64 / wall_s);

    let mut tracer = Tracer::new(ctx.epoch, 0);
    if ctx.trace {
        let decode_us = serving::replay_queries(&state, &mut tracer, &all.samples, &mut out);
        out.set("serve.protocol.request_decode_us", median(&decode_us));
        let mut client = serving::connect(&daemon, READ_TIMEOUT)?;
        let mut health_ms = Vec::new();
        for probe in 0..HEALTH_PROBES as u64 {
            let root = tracer.start("replay.health", SpanId::NONE, probe);
            let ex = exchange(&mut client, &mut tracer, root, probe, &Request::Health);
            tracer.end(root);
            health_ms.push(ms(ex.map_err(|e| e.to_string())?.wire));
        }
        out.set("serve.health_rtt_ms", median(&health_ms));
    }
    daemon.stop();

    for (op, v) in &all.rtt_ms {
        match *op {
            "query-mapping" => out.set("serve.rtt_ms.query-mapping", median(v)),
            "inspect" => out.set("serve.rtt_ms.inspect", median(v)),
            _ => out.set("serve.rtt_ms.catalog", median(v)),
        }
    }
    out.set("serve.protocol.request_encode_us", median(&all.encode_us));
    out.set(
        "serve.protocol.reply_decode_us",
        median(&all.reply_decode_us),
    );
    out.set("serve.request_bytes", median(&all.request_bytes));
    out.set("serve.reply_bytes", median(&all.reply_bytes));
    out.set("serve.shed", all.shed as f64);
    out.set("serve.served_delta", served as f64);
    pool.report(&mut out, all.attempted);
    out.set(
        "trace.overhead_pct",
        overhead_pct(&all.traced_ms, &all.untraced_ms),
    );
    all.spans.extend(tracer.into_spans());
    out.spans = all.spans;
    Ok(out)
}
