//! Graceful-shutdown, warm-restart and panic-isolation integration for
//! the `nassim-serve` daemon.
//!
//! Drain contract: in-flight requests run to completion, queued and new
//! work is shed with a typed `draining` reply (never a dropped
//! connection), the generation counter records the completed drain, and
//! the listener thread is joined — not killed — on stop.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim_serve::{
    run_chaos, AdmissionConfig, ChaosOptions, ErrKind, Reply, Request, ServeClient, ServeConfig,
    ServeDaemon, ServeEvent, ServeState, ShedReason, StateOptions,
};
use serde::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn demo_state() -> Arc<ServeState> {
    let (state, _) = ServeState::build(&StateOptions::default()).unwrap();
    Arc::new(state)
}

fn health_field(client: &mut ServeClient, field: &str) -> f64 {
    match client.request(&Request::Health).unwrap() {
        Reply::Ok(v) => match v.get(field) {
            Some(Value::Num(n)) => *n,
            other => panic!("health `{field}` missing or non-numeric: {other:?}"),
        },
        other => panic!("health failed: {other:?}"),
    }
}

#[test]
fn drain_completes_in_flight_and_sheds_new_work() {
    let state = demo_state();
    let mut daemon = ServeDaemon::spawn(
        state,
        ServeConfig {
            admission: AdmissionConfig::new(2, 4),
            enable_debug_ops: true,
            journal_dir: None,
        },
    )
    .unwrap();
    let addr = daemon.addr();

    // An idle connection opened (and used) before the drain starts.
    let mut idle = ServeClient::connect(addr).unwrap();
    assert!(matches!(
        idle.request(&Request::Health).unwrap(),
        Reply::Ok(_)
    ));

    // The in-flight request the drain must wait for.
    let sleeper = std::thread::spawn(move || {
        let mut c = ServeClient::connect(addr).unwrap();
        c.request(&Request::DebugSleep { ms: 800 })
    });
    let started = Instant::now();
    loop {
        let mut c = ServeClient::connect(addr).unwrap();
        if health_field(&mut c, "active") >= 1.0 {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "sleeper was never admitted"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    std::thread::scope(|s| {
        // drain() blocks until the sleeper finishes; run it concurrently
        // so the shed behaviour *during* the drain window is observable.
        let drainer = s.spawn(|| daemon.drain());
        let waiting = Instant::now();
        while !daemon.is_draining() {
            assert!(
                waiting.elapsed() < Duration::from_secs(5),
                "drain never started"
            );
            std::thread::yield_now();
        }

        // A brand-new connection gets exactly one typed frame and a
        // close — answered by the accept loop, no session thread.
        let mut fresh = ServeClient::connect(addr).unwrap();
        let line = fresh.read_raw().unwrap();
        match Reply::parse(&line).unwrap() {
            Reply::Err(e) => assert_eq!(e.kind, ErrKind::Draining),
            other => panic!("new connection during drain got {other:?}"),
        }

        // The pre-existing idle connection is retired at its next
        // request with the same typed reply.
        let reply = idle
            .request(&Request::QueryMapping {
                sequences: vec!["drain probe".to_string()],
                k: 1,
                deadline_ms: None,
                mode: None,
            })
            .unwrap();
        match reply {
            Reply::Err(e) => assert_eq!(e.kind, ErrKind::Draining),
            other => panic!("idle connection during drain got {other:?}"),
        }

        drainer.join().unwrap();
    });

    // The in-flight request completed normally despite the drain.
    match sleeper.join().unwrap().unwrap() {
        Reply::Ok(v) => assert!(matches!(v.get("slept_ms"), Some(Value::Num(n)) if *n == 800.0)),
        other => panic!("in-flight request was cut short: {other:?}"),
    }

    assert_eq!(daemon.generation(), 1, "drain bumps the generation once");
    let c = daemon.counters();
    assert_eq!(c.served, 1, "only the sleeper did admitted work");
    assert!(
        c.shed_draining >= 2,
        "both drain-window requests shed: {c:?}"
    );
    assert_eq!(c.panics, 0);

    let events = daemon.take_events();
    assert!(
        events.contains(&ServeEvent::Drained { generation: 1 }),
        "missing Drained event: {events:?}"
    );
    assert!(events.iter().any(|e| matches!(
        e,
        ServeEvent::Shed { reason: ShedReason::Draining, op } if op == "connect"
    )));
    assert!(events.iter().any(|e| matches!(
        e,
        ServeEvent::Shed { reason: ShedReason::Draining, op } if op == "request"
    )));

    // stop() joins the listener (unblocked by a no-op connection) and
    // every session thread; a second drain does not re-bump.
    daemon.stop();
    assert_eq!(daemon.generation(), 1);
}

#[test]
fn warm_restart_serves_byte_identical_responses() {
    let dir = std::env::temp_dir().join("nassim-serve-drain-warm");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.json");
    std::fs::remove_file(&path).ok();

    let opts = StateOptions::default().with_store(&path);
    let script = vec![
        Request::Catalog,
        Request::Inspect {
            vendor: "cirrus".to_string(),
        },
        Request::QueryMapping {
            sequences: vec!["bgp as-number".to_string(), "ospf area".to_string()],
            k: 5,
            deadline_ms: None,
            mode: None,
        },
    ];
    let chaos_opts = ChaosOptions::default();

    // Cold start; persist the store mid-flight (as the daemon binary
    // does on drain), then "crash" without further ceremony.
    let (cold_state, store) = ServeState::build(&opts).unwrap();
    assert_eq!(cold_state.warm_page_hits, 0);
    ServeState::save_store(&store, &path).unwrap();
    let cold_daemon = ServeDaemon::spawn(Arc::new(cold_state), ServeConfig::default()).unwrap();
    let cold = run_chaos(cold_daemon.addr(), &script, None, &chaos_opts).unwrap();
    drop(cold_daemon);

    // Warm restart from the persisted artifacts: cache hits, and every
    // response byte-identical to the cold daemon's.
    let (warm_state, _) = ServeState::build(&opts).unwrap();
    assert!(
        warm_state.warm_page_hits > 0,
        "restart did not reuse persisted artifacts"
    );
    let warm_daemon = ServeDaemon::spawn(Arc::new(warm_state), ServeConfig::default()).unwrap();
    let warm = run_chaos(warm_daemon.addr(), &script, None, &chaos_opts).unwrap();

    assert_eq!(cold.outcomes.len(), warm.outcomes.len());
    for (a, b) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert!(matches!(a.reply, Reply::Ok(_)));
        assert_eq!(
            a.raw, b.raw,
            "request {} diverged after warm restart",
            a.index
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn panics_are_isolated_to_the_request() {
    let state = demo_state();
    let daemon = ServeDaemon::spawn(
        state,
        ServeConfig {
            enable_debug_ops: true,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let mut c = ServeClient::connect(daemon.addr()).unwrap();
    match c.request(&Request::DebugPanic).unwrap() {
        Reply::Err(e) => {
            assert_eq!(e.kind, ErrKind::Internal);
            assert!(e.message.contains("panicked"), "{}", e.message);
        }
        other => panic!("panicking handler answered {other:?}"),
    }

    // The same connection keeps serving...
    match c
        .request(&Request::QueryMapping {
            sequences: vec!["after the panic".to_string()],
            k: 1,
            deadline_ms: None,
            mode: None,
        })
        .unwrap()
    {
        Reply::Ok(_) => {}
        other => panic!("connection dead after caught panic: {other:?}"),
    }

    // ...and the panicked permit was released, not leaked: the gate is
    // idle again and new connections are served.
    let mut fresh = ServeClient::connect(daemon.addr()).unwrap();
    assert_eq!(health_field(&mut fresh, "active"), 0.0);
    assert_eq!(health_field(&mut fresh, "panics"), 1.0);

    let counters = daemon.counters();
    assert_eq!(counters.panics, 1);
    assert_eq!(counters.served, 1, "the post-panic query");
    let events = daemon.take_events();
    assert!(
        events.iter().any(|e| matches!(
            e,
            ServeEvent::Panicked { op, .. } if op == "debug-panic"
        )),
        "missing Panicked event: {events:?}"
    );
}
