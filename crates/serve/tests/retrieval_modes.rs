//! Serving-side retrieval modes: the `query-mapping` op's optional
//! `mode` field selects exact, quantized or ANN candidate ranking per
//! request, `health` reports the retrieval layer, and unknown modes are
//! typed `malformed` replies — never a hang or a dropped connection.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim_serve::{
    ErrKind, Reply, Request, ServeClient, ServeConfig, ServeDaemon, ServeState, StateOptions,
};
use serde::Value;
use std::sync::Arc;

fn demo_daemon() -> ServeDaemon {
    let (state, _) = ServeState::build(&StateOptions::default()).unwrap();
    ServeDaemon::spawn(Arc::new(state), ServeConfig::default()).unwrap()
}

fn query(mode: Option<&str>) -> Request {
    Request::QueryMapping {
        sequences: vec!["bgp as-number".to_string(), "autonomous system".to_string()],
        k: 5,
        deadline_ms: None,
        mode: mode.map(|s| nassim_mapper::RetrievalMode::parse(s).unwrap()),
    }
}

/// The `matches` array of an ok reply, as (path, score) pairs.
fn matches_of(reply: &Reply) -> Vec<(String, f64)> {
    let Reply::Ok(payload) = reply else {
        panic!("expected ok, got {reply:?}");
    };
    let Some(Value::Arr(arr)) = payload.get("matches") else {
        panic!("no matches array: {payload:?}");
    };
    arr.iter()
        .map(|m| {
            let Some(Value::Str(path)) = m.get("path") else {
                panic!("no path")
            };
            let Some(Value::Num(score)) = m.get("score") else {
                panic!("no score")
            };
            (path.clone(), *score)
        })
        .collect()
}

#[test]
fn every_mode_answers_and_is_deterministic() {
    let daemon = demo_daemon();
    let mut client = ServeClient::connect(daemon.addr()).unwrap();

    let exact = client.request(&query(None)).unwrap();
    let exact_matches = matches_of(&exact);
    assert_eq!(exact_matches.len(), 5);
    for w in exact_matches.windows(2) {
        assert!(
            w[0].1 >= w[1].1,
            "scores must be descending: {exact_matches:?}"
        );
    }

    // `mode: "exact"` is the explicit spelling of the default.
    let explicit = client.request(&query(Some("exact"))).unwrap();
    assert_eq!(matches_of(&explicit), exact_matches);

    for mode in ["quantized", "ann", "ann:4"] {
        let reply = client.request(&query(Some(mode))).unwrap();
        let got = matches_of(&reply);
        assert_eq!(got.len(), 5, "mode {mode}");
        // Survivor scores are exact f32 rescored — any leaf both modes
        // retrieve carries an identical score.
        for (path, score) in &got {
            if let Some((_, exact_score)) = exact_matches.iter().find(|(p, _)| p == path) {
                assert_eq!(score, exact_score, "mode {mode} drifted on {path}");
            }
        }
        // Deterministic: the same request twice answers identically.
        let again = client.request(&query(Some(mode))).unwrap();
        assert_eq!(matches_of(&again), got, "mode {mode} is not deterministic");
    }
}

#[test]
fn unknown_mode_is_a_typed_malformed_reply() {
    let daemon = demo_daemon();
    let mut client = ServeClient::connect(daemon.addr()).unwrap();
    client
        .send_line("{\"op\":\"query-mapping\",\"sequences\":[\"mtu\"],\"mode\":\"fuzzy\"}")
        .unwrap();
    let (_, reply) = client.read_reply_frames().unwrap();
    match reply {
        Reply::Err(e) => assert_eq!(e.kind, ErrKind::Malformed),
        other => panic!("expected malformed, got {other:?}"),
    }
    // The connection survives: the next request answers normally.
    let reply = client.request(&query(None)).unwrap();
    assert_eq!(matches_of(&reply).len(), 5);
}

#[test]
fn health_reports_the_retrieval_layer() {
    let daemon = demo_daemon();
    let mut client = ServeClient::connect(daemon.addr()).unwrap();
    let Reply::Ok(payload) = client.request(&Request::Health).unwrap() else {
        panic!("health failed");
    };
    let Some(retrieval) = payload.get("retrieval") else {
        panic!("health has no retrieval section: {payload:?}");
    };
    match retrieval.get("mode") {
        Some(Value::Str(mode)) => assert_eq!(mode, "exact", "default mode"),
        other => panic!("retrieval.mode missing: {other:?}"),
    }
    match retrieval.get("leaf_count") {
        Some(Value::Num(n)) => assert!(*n > 0.0),
        other => panic!("retrieval.leaf_count missing: {other:?}"),
    }
    // A cold build records exactly one index-memo miss and no hits.
    match (
        retrieval.get("ann_memo_hits"),
        retrieval.get("ann_memo_misses"),
    ) {
        (Some(Value::Num(h)), Some(Value::Num(m))) => {
            assert_eq!(*h, 0.0);
            assert_eq!(*m, 1.0);
        }
        other => panic!("retrieval memo counters missing: {other:?}"),
    }
    match retrieval.get("ann_memo_hit_rate") {
        Some(Value::Num(r)) => assert_eq!(*r, 0.0),
        other => panic!("retrieval.ann_memo_hit_rate missing: {other:?}"),
    }
}
