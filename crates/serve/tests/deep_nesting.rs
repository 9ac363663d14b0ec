//! A request frame nested deeper than the JSON parser's recursion limit
//! is a typed `malformed` reply, not a stack overflow: before the limit,
//! ~20 KB of `[` aborted the whole daemon. The daemon keeps serving on
//! the same connection and on new ones, with unchanged answers.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim_serve::{
    ErrKind, Reply, Request, ServeClient, ServeConfig, ServeDaemon, ServeState, StateOptions,
};
use std::sync::Arc;

#[test]
fn deeply_nested_frame_is_malformed_and_the_daemon_keeps_serving() {
    let (state, _) = ServeState::build(&StateOptions::default()).unwrap();
    let mut daemon = ServeDaemon::spawn(Arc::new(state), ServeConfig::default()).unwrap();
    let addr = daemon.addr();
    let mut client = ServeClient::connect(addr).unwrap();
    let (before, _) = client.request_full(&Request::Catalog).unwrap();

    for frame in [
        format!("{{\"op\":{}", "[".repeat(20_000)),
        format!("{{\"op\":\"catalog\",\"x\":{}", "{\"k\":".repeat(20_000)),
    ] {
        client.send_line(&frame).unwrap();
        let (_, reply) = client.read_reply_frames().unwrap();
        match reply {
            Reply::Err(e) => {
                assert_eq!(e.kind, ErrKind::Malformed, "{}", e.message);
                assert!(e.message.contains("recursion limit"), "{}", e.message);
            }
            other => panic!("expected a malformed reply, got {other:?}"),
        }
    }

    // Same connection, then a fresh one: byte-identical answers.
    let (after, _) = client.request_full(&Request::Catalog).unwrap();
    assert_eq!(before, after);
    let mut fresh = ServeClient::connect(addr).unwrap();
    let (again, _) = fresh.request_full(&Request::Catalog).unwrap();
    assert_eq!(before, again);
    assert!(matches!(
        fresh.request(&Request::Health).unwrap(),
        Reply::Ok(_)
    ));
    daemon.stop();
}
