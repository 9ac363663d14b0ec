//! A blocking TCP server exposing a [`DeviceModel`] as a CLI endpoint.
//!
//! One OS thread per connection, each with its own [`Session`] — the same
//! isolation a real device gives concurrent Telnet sessions. The workload
//! is short request/response lines at validation scale (thousands of
//! commands), where a thread-per-connection blocking design is the
//! simplest thing that is obviously correct; an async runtime would add
//! machinery without adding capacity.

use crate::faults::{FaultKind, FaultPlan, BUSY_MESSAGE};
use crate::framing::{Frame, FrameAccumulator, MAX_FRAME_BYTES};
use crate::model::DeviceModel;
use crate::protocol::Response;
use crate::session::{Accepted, Session};
use nassim_diag::NassimError;
use parking_lot::Mutex;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running device server; dropping the handle stops it.
pub struct DeviceServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    /// Join handles of live connection threads.
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// Typed errors from sessions that failed (I/O) or could not be
    /// spawned (thread exhaustion). Neither kills the accept loop.
    session_errors: Arc<Mutex<Vec<NassimError>>>,
}

impl DeviceServer {
    /// Bind to an ephemeral localhost port and start serving `model`.
    ///
    /// Honors the `NASSIM_FAULTS=seed:rate` environment knob: when set,
    /// the server injects deterministic faults via a [`FaultPlan`]
    /// seeded from it (see [`crate::faults`]).
    pub fn spawn(model: Arc<DeviceModel>) -> io::Result<DeviceServer> {
        DeviceServer::spawn_with(model, FaultPlan::from_env().map(Arc::new))
    }

    /// Spawn with an explicit fault-injection plan (`None` = a faithful
    /// device; tests and chaos harnesses pass their own seeded plan).
    pub fn spawn_with(
        model: Arc<DeviceModel>,
        faults: Option<Arc<FaultPlan>>,
    ) -> io::Result<DeviceServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let session_errors: Arc<Mutex<Vec<NassimError>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_shutdown = Arc::clone(&shutdown);
        let accept_conns = Arc::clone(&conn_threads);
        let accept_errors = Arc::clone(&session_errors);
        let accept_thread = std::thread::Builder::new()
            .name("device-accept".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let model = Arc::clone(&model);
                    let conn_shutdown = Arc::clone(&accept_shutdown);
                    let conn_errors = Arc::clone(&accept_errors);
                    let conn_faults = faults.clone();
                    // A failed session is a client problem, not a server
                    // problem: record the typed error and keep accepting.
                    let spawned = std::thread::Builder::new()
                        .name("device-session".to_string())
                        .spawn(move || {
                            if let Err(e) = serve_connection(
                                stream,
                                &model,
                                &conn_shutdown,
                                conn_faults.as_deref(),
                            ) {
                                conn_errors.lock().push(NassimError::Device {
                                    reason: format!("session failed: {e}"),
                                });
                            }
                        });
                    match spawned {
                        Ok(handle) => {
                            // Reap finished session threads as we go, so
                            // long-lived servers don't accumulate one dead
                            // JoinHandle per past connection.
                            let mut conns = accept_conns.lock();
                            conns.retain(|h| !h.is_finished());
                            conns.push(handle);
                        }
                        Err(e) => {
                            // Thread exhaustion: this connection is dropped,
                            // but the server keeps serving others.
                            accept_errors
                                .lock()
                                .push(NassimError::io("spawn session thread", &e));
                        }
                    }
                }
            })?;

        Ok(DeviceServer {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
            conn_threads,
            session_errors,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drain the typed errors recorded by failed or unspawnable sessions.
    pub fn take_session_errors(&self) -> Vec<NassimError> {
        std::mem::take(&mut *self.session_errors.lock())
    }

    /// Connection threads still running (reaps finished ones first).
    pub fn live_sessions(&self) -> usize {
        let mut conns = self.conn_threads.lock();
        conns.retain(|h| !h.is_finished());
        conns.len()
    }

    /// Stop accepting and join all threads.
    pub fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return; // already stopped
        }
        // Unblock the accept loop with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.conn_threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for DeviceServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Serve one connection: read command lines, execute them on a fresh
/// session, write framed responses. Returns when the peer closes or the
/// server shuts down.
///
/// Reads use a short timeout so an idle session re-checks the shutdown
/// flag; without it, `DeviceServer::stop` would deadlock joining a thread
/// blocked in `read_line` on a still-open client.
fn serve_connection(
    stream: TcpStream,
    model: &DeviceModel,
    shutdown: &AtomicBool,
    faults: Option<&FaultPlan>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(std::time::Duration::from_millis(200)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut session = Session::new(model);
    // The shared bounded frame reader: partial commands accumulate
    // across read-timeout polls (so the shutdown flag is re-checked
    // between them) and a hostile endless line is a typed error instead
    // of an unbounded allocation.
    let mut frames = FrameAccumulator::new(MAX_FRAME_BYTES);
    loop {
        let line = match frames.poll(&mut reader)? {
            Some(Frame::Line(line)) => line,
            Some(Frame::Eof) => return Ok(()), // peer closed
            None => {
                // Read timeout: keep the partial frame and retry unless
                // we are shutting down.
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
        };
        let input = line.as_str();
        if input == "\u{4}" || input == "logout" {
            return Ok(());
        }
        // Chaos layer: the fault plan decides per request whether this
        // one fails, and how (each injection is recorded in the plan's
        // drainable log).
        if let Some(plan) = faults {
            match plan.decide(input) {
                Some(FaultKind::Reset) => return Ok(()), // drop mid-session
                Some(FaultKind::Delay) => {
                    // Stall past the client deadline, then answer anyway
                    // (the write usually lands on a hung-up peer).
                    plan.sleep_delay(shutdown);
                }
                Some(FaultKind::Garble) => {
                    writer.write_all(b"?garbled-frame 0xdeadbeef\n")?;
                    writer.flush()?;
                    continue;
                }
                Some(FaultKind::Busy) => {
                    Response::Err {
                        message: BUSY_MESSAGE.to_string(),
                    }
                    .write_to(&mut writer)?;
                    continue;
                }
                None => {}
            }
        }
        let response = match session.exec(input) {
            Ok(Accepted::Output(lines)) => Response::Output { lines },
            Ok(_) => Response::Ok {
                view: session.current_view().to_string(),
            },
            Err(e) => Response::Err { message: e.message },
        };
        response.write_to(&mut writer)?;
        writer.flush()?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::DeviceClient;

    fn model() -> Arc<DeviceModel> {
        let mut m = DeviceModel::new("system");
        m.add_view("bgp-view", "system").unwrap();
        m.add_command("system", "bgp <as-number>", Some("bgp-view"))
            .unwrap();
        m.add_command("bgp-view", "router-id <ipv4-address>", None)
            .unwrap();
        m.add_command("system", "sysname <host-name>", None)
            .unwrap();
        Arc::new(m)
    }

    #[test]
    fn serves_a_session_over_tcp() {
        let mut server = DeviceServer::spawn(model()).unwrap();
        let mut client = DeviceClient::connect(server.addr()).unwrap();
        assert_eq!(
            client.exec("bgp 65001").unwrap(),
            Response::Ok {
                view: "bgp-view".into()
            }
        );
        assert_eq!(
            client.exec("router-id 1.1.1.1").unwrap(),
            Response::Ok {
                view: "bgp-view".into()
            }
        );
        match client.exec("display current-configuration").unwrap() {
            Response::Output { lines } => {
                assert_eq!(lines, vec!["bgp 65001", " router-id 1.1.1.1"]);
            }
            other => panic!("expected output, got {other:?}"),
        }
        server.stop();
    }

    #[test]
    fn rejects_bad_commands_over_tcp() {
        let mut server = DeviceServer::spawn(model()).unwrap();
        let mut client = DeviceClient::connect(server.addr()).unwrap();
        assert!(matches!(
            client.exec("frobnicate 7").unwrap(),
            Response::Err { .. }
        ));
        server.stop();
    }

    #[test]
    fn sessions_are_isolated_per_connection() {
        let mut server = DeviceServer::spawn(model()).unwrap();
        let mut c1 = DeviceClient::connect(server.addr()).unwrap();
        let mut c2 = DeviceClient::connect(server.addr()).unwrap();
        c1.exec("bgp 65001").unwrap();
        // c2 is still at the root: BGP-view commands fail there.
        assert!(matches!(
            c2.exec("router-id 1.1.1.1").unwrap(),
            Response::Err { .. }
        ));
        // And c2's config is empty even though c1 configured something.
        match c2.exec("display current-configuration").unwrap() {
            Response::Output { lines } => assert!(lines.is_empty()),
            other => panic!("expected output, got {other:?}"),
        }
        server.stop();
    }

    #[test]
    fn concurrent_clients_do_not_interfere() {
        let mut server = DeviceServer::spawn(model()).unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = DeviceClient::connect(addr).unwrap();
                    let asn = 65000 + i;
                    assert!(matches!(
                        c.exec(&format!("bgp {asn}")).unwrap(),
                        Response::Ok { .. }
                    ));
                    assert!(matches!(
                        c.exec(&format!("router-id 10.0.0.{i}")).unwrap(),
                        Response::Ok { .. }
                    ));
                    match c.exec("display current-configuration").unwrap() {
                        Response::Output { lines } => {
                            assert_eq!(lines[0], format!("bgp {asn}"));
                        }
                        other => panic!("expected output, got {other:?}"),
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.stop();
    }

    #[test]
    fn failed_session_does_not_kill_server() {
        let mut server = DeviceServer::spawn(model()).unwrap();
        // Three rude clients: connect, optionally write a garbage
        // half-line, and vanish without the protocol's goodbye.
        for garbage in [b"\xff\xfe\xfd" as &[u8], b"bgp", b""] {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            let _ = s.write_all(garbage);
            drop(s);
        }
        // The accept loop must still be alive and serving new sessions.
        let mut client = DeviceClient::connect(server.addr()).unwrap();
        assert_eq!(
            client.exec("sysname core1").unwrap(),
            Response::Ok {
                view: "system".into()
            }
        );
        // Any recorded session errors are typed Device/Io errors, and the
        // log drains.
        for e in server.take_session_errors() {
            assert!(matches!(
                e,
                NassimError::Device { .. } | NassimError::Io { .. }
            ));
        }
        assert!(server.take_session_errors().is_empty());
        server.stop();
    }

    #[test]
    fn stop_is_idempotent() {
        let mut server = DeviceServer::spawn(model()).unwrap();
        server.stop();
        server.stop();
    }

    #[test]
    fn finished_session_threads_are_reaped() {
        let mut server = DeviceServer::spawn(model()).unwrap();
        for _ in 0..16 {
            let mut client = DeviceClient::connect(server.addr()).unwrap();
            client.exec("sysname probe").unwrap();
            client.exec("logout").unwrap_err(); // server closes, read EOFs
        }
        // Closed sessions exit promptly; live_sessions reaps them. Poll
        // briefly to absorb thread-exit latency.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while server.live_sessions() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert_eq!(server.live_sessions(), 0, "dead session threads not reaped");
        server.stop();
    }

    #[test]
    fn busy_fault_is_injected_and_logged() {
        let plan = Arc::new(FaultPlan::only(1, FaultKind::Busy, 1.0));
        let mut server = DeviceServer::spawn_with(model(), Some(Arc::clone(&plan))).unwrap();
        let mut client = DeviceClient::connect(server.addr()).unwrap();
        match client.exec("sysname core1").unwrap() {
            Response::Err { message } => assert!(message.starts_with("busy"), "{message}"),
            other => panic!("expected injected busy, got {other:?}"),
        }
        let log = plan.take_injections();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].kind, FaultKind::Busy);
        assert_eq!(log[0].target, "sysname core1");
        server.stop();
    }

    #[test]
    fn reset_fault_drops_the_connection() {
        let plan = Arc::new(FaultPlan::only(2, FaultKind::Reset, 1.0));
        let mut server = DeviceServer::spawn_with(model(), Some(Arc::clone(&plan))).unwrap();
        let mut client = DeviceClient::connect(server.addr()).unwrap();
        let err = client.exec("sysname core1").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        assert_eq!(plan.take_injections()[0].kind, FaultKind::Reset);
        server.stop();
    }

    #[test]
    fn garble_fault_is_unparseable_but_typed() {
        let plan = Arc::new(FaultPlan::only(3, FaultKind::Garble, 1.0));
        let mut server = DeviceServer::spawn_with(model(), Some(Arc::clone(&plan))).unwrap();
        let mut client = DeviceClient::connect(server.addr()).unwrap();
        let err = client.exec("sysname core1").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        server.stop();
    }
}
