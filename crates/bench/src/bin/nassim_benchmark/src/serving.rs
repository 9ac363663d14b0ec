//! The serving daemon as `query` and `mixed` drive it: set-up, generated
//! requests, one traced request/reply exchange, and the mapping oracle.
//!
//! The daemon runs in this process on 127.0.0.1, so every request
//! crosses loopback, not a real link.

use crate::report::Outcome;
use crate::stats::{median, ms};
use crate::trace::{SpanId, Tracer};
use nassim::mapper::context::{vdm_param_context, vdm_param_refs};
use nassim::mapper::{Context, RetrievalMode};
use nassim_serve::{
    Reply, Request, ServeClient, ServeConfig, ServeDaemon, ServeState, StateOptions,
};
use rand::rngs::StdRng;
use rand::Rng;
use serde::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up repetitions; the median is reported.
const SETUP_REPS: usize = 5;

/// `ServeState::build` over the full catalog plus `ServeDaemon::spawn`
/// with `config(rep)`, [`SETUP_REPS`] times. Returns the last daemon and
/// the median set-up time in seconds; earlier daemons are stopped.
pub fn set_up(mut config: impl FnMut(usize) -> ServeConfig) -> Result<(ServeDaemon, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let config = config(rep);
        let t = Instant::now();
        let (state, _) =
            ServeState::build(&StateOptions::full_catalog()).map_err(|e| e.to_string())?;
        let daemon = ServeDaemon::spawn(Arc::new(state), config).map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(daemon);
    }
    let daemon = last.ok_or("no set-up repetition ran")?;
    Ok((daemon, median(&times)))
}

/// The VDM-parameter contexts of every served VDM, in catalog order —
/// the queries a controller translating configs would send.
pub fn param_contexts(state: &ServeState) -> Vec<Context> {
    state
        .vendors
        .values()
        .flat_map(|entry| {
            vdm_param_refs(&entry.vdm)
                .iter()
                .map(|r| vdm_param_context(&entry.vdm, r))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// A `query-mapping` request over `ctx`: k drawn from {1, 5, 10}, and
/// one request in ten names mode `quantized` or `ann`.
pub fn query_request(ctx: &Context, rng: &mut StdRng) -> Request {
    let k = [1, 5, 10][rng.gen_range(0..3usize)];
    let mode = if rng.gen_bool(0.1) {
        Some(if rng.gen_bool(0.5) {
            RetrievalMode::Quantized
        } else {
            RetrievalMode::Ann { probes: 0 }
        })
    } else {
        None
    };
    Request::QueryMapping {
        sequences: ctx.sequences.clone(),
        k,
        deadline_ms: None,
        mode,
    }
}

/// In-process `recommend` for a `query-mapping` request on the daemon's
/// own state, as `(path, f32 score bits)`.
pub fn expected_matches(state: &ServeState, request: &Request) -> Vec<(String, u32)> {
    let Request::QueryMapping {
        sequences, k, mode, ..
    } = request
    else {
        return Vec::new();
    };
    let mapper = state.mapper_for(*mode);
    let ctx = Context {
        sequences: sequences.clone(),
    };
    mapper
        .recommend(&ctx, *k)
        .into_iter()
        .map(|(leaf, score)| (mapper.udm().path_of(leaf), score.to_bits()))
        .collect()
}

/// The mapping oracle: a reply's paths and f32 score bits must equal
/// in-process `recommend`.
pub fn check_matches(reply: &Reply, expected: &[(String, u32)]) -> Result<(), String> {
    let Reply::Ok(payload) = reply else {
        return Err(format!("error reply: {reply:?}"));
    };
    let Some(Value::Arr(matches)) = payload.get("matches") else {
        return Err("reply has no `matches` list".to_string());
    };
    let got: Vec<(String, u32)> = matches
        .iter()
        .filter_map(|m| match (m.get("path"), m.get("score")) {
            (Some(Value::Str(p)), Some(Value::Num(s))) => Some((p.clone(), (*s as f32).to_bits())),
            _ => None,
        })
        .collect();
    if got != expected {
        return Err(format!(
            "matches {got:?} differ from in-process recommend {expected:?}"
        ));
    }
    Ok(())
}

/// One request/reply exchange as `ServeClient::request` performs it,
/// split at the layer boundaries.
pub struct Exchange {
    pub line: String,
    pub raw: String,
    pub reply: Result<Reply, String>,
    pub encode: Duration,
    pub wire: Duration,
    pub decode: Duration,
}

/// Encode `request`, send it and read one reply frame, and decode it,
/// each inside a span under `parent`.
pub fn exchange(
    client: &mut ServeClient,
    tracer: &mut Tracer,
    parent: SpanId,
    req: u64,
    request: &Request,
) -> std::io::Result<Exchange> {
    let t0 = Instant::now();
    let line = request.to_line();
    let t1 = Instant::now();
    client.send_line(&line)?;
    let raw = client.read_raw()?;
    let t2 = Instant::now();
    let reply = Reply::parse(&raw);
    let t3 = Instant::now();
    tracer.record("serve.protocol.request_encode", parent, req, t0, t1);
    tracer.record("serve.wire", parent, req, t1, t2);
    tracer.record("serve.protocol.reply_decode", parent, req, t2, t3);
    Ok(Exchange {
        line,
        raw,
        reply,
        encode: t1 - t0,
        wire: t2 - t1,
        decode: t3 - t2,
    })
}

/// Connect a client whose reads give up after `timeout`.
pub fn connect(daemon: &ServeDaemon, timeout: Duration) -> Result<ServeClient, String> {
    let mut client = ServeClient::connect(daemon.addr()).map_err(|e| e.to_string())?;
    client
        .set_read_timeout(timeout)
        .map_err(|e| e.to_string())?;
    Ok(client)
}

/// One traced query exchange, kept for the in-process replays.
pub struct QuerySample {
    pub req: u64,
    pub line: String,
    pub wire_ms: f64,
}

/// Time the daemon's `Request::parse` of `line`, replayed in process.
pub fn replay_decode(tracer: &mut Tracer, req: u64, line: &str) -> (f64, Result<Request, String>) {
    let t0 = Instant::now();
    let parsed = Request::parse(line).map_err(|e| e.message);
    let t1 = Instant::now();
    tracer.record("replay.request_decode", SpanId::NONE, req, t0, t1);
    (ms(t1 - t0), parsed)
}

/// Replay each sampled query in process on the daemon's state, after the
/// timed loop: the daemon's `Request::parse` on the same line, then
/// `recommend`. Sets the recommend and unaccounted metrics, where
/// unaccounted is the round trip minus both replays: the socket,
/// framing, admission and reply serialization. Returns the decode times
/// in µs.
pub fn replay_queries(
    state: &ServeState,
    tracer: &mut Tracer,
    samples: &[QuerySample],
    out: &mut Outcome,
) -> Vec<f64> {
    tracer.set_enabled(true);
    let (mut decode_us, mut recommend_ms, mut unaccounted_ms) =
        (Vec::new(), Vec::new(), Vec::new());
    for s in samples {
        let (decode_ms, parsed) = replay_decode(tracer, s.req, &s.line);
        if let Ok(Request::QueryMapping {
            sequences, k, mode, ..
        }) = parsed
        {
            let mapper = state.mapper_for(mode);
            let ctx = Context { sequences };
            let t0 = Instant::now();
            std::hint::black_box(mapper.recommend(&ctx, k));
            let t1 = Instant::now();
            tracer.record("replay.recommend", SpanId::NONE, s.req, t0, t1);
            decode_us.push(decode_ms * 1e3);
            recommend_ms.push(ms(t1 - t0));
            unaccounted_ms.push(s.wire_ms - decode_ms - ms(t1 - t0));
        }
    }
    out.set("mapper.recommend_ms", median(&recommend_ms));
    out.set("serve.unaccounted_ms", median(&unaccounted_ms));
    out.set("mapper.candidates", state.mapper.candidate_count() as f64);
    decode_us
}
