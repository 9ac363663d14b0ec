//! The serving chaos layer: a seeded fault plan and the chaos client
//! that drives it against a live daemon.
//!
//! Mirrors the device chaos layer ([`nassim_device::faults`]) on the
//! *client* side of the serving protocol: a [`ServeFaultPlan`] (a
//! [`nassim_diag::chaos::SeededPlan`]) decides deterministically, per
//! scripted request, whether to disturb it and how — pacing the bytes
//! out slowly ([`ServeFaultKind::SlowLoris`]), vanishing mid-frame
//! ([`ServeFaultKind::Disconnect`]), sending garbage
//! ([`ServeFaultKind::Malformed`]), carrying an already-expired deadline
//! ([`ServeFaultKind::Deadline`]) or surrounding it with a burst volley
//! ([`ServeFaultKind::Burst`]). Every injection lands in a drainable
//! log, so a run's disturbances reconcile exactly against the daemon's
//! own event log; the same seed replays the same disturbance sequence.

use crate::client::ServeClient;
use crate::protocol::{ErrKind, Reply, Request};
use nassim_diag::chaos::{FaultClass, SeededPlan};
use std::io;
use std::net::SocketAddr;
use std::time::Duration;

/// One class of injected client-side disturbance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeFaultKind {
    /// Write the request bytes in small chunks with pauses between them
    /// — the response must still be byte-identical to a clean send.
    SlowLoris,
    /// Open a connection, write half a request frame, vanish. The
    /// server must account a mid-frame disconnect; the scripted request
    /// is then sent cleanly on a fresh connection.
    Disconnect,
    /// Send an unparseable frame instead of the request; the server
    /// must answer a typed `malformed` error.
    Malformed,
    /// Send the request with a zero deadline; the server must shed it
    /// with a typed `deadline` error before doing any work.
    Deadline,
    /// Fire a volley of concurrent extra queries before the request;
    /// the daemon may shed part of the volley (accounted), but the
    /// scripted request itself still completes cleanly.
    Burst,
}

impl FaultClass for ServeFaultKind {
    const ALL: &'static [ServeFaultKind] = &[
        ServeFaultKind::SlowLoris,
        ServeFaultKind::Disconnect,
        ServeFaultKind::Malformed,
        ServeFaultKind::Deadline,
        ServeFaultKind::Burst,
    ];
}

impl std::fmt::Display for ServeFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ServeFaultKind::SlowLoris => "slow-loris",
            ServeFaultKind::Disconnect => "disconnect",
            ServeFaultKind::Malformed => "malformed",
            ServeFaultKind::Deadline => "deadline",
            ServeFaultKind::Burst => "burst",
        })
    }
}

/// A seeded serving fault plan; the target of a decision is the index
/// of the scripted request.
pub type ServeFaultPlan = SeededPlan<ServeFaultKind>;

/// The outcome of one scripted request under chaos.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Index into the request script.
    pub index: usize,
    /// The disturbance injected on this request, if any.
    pub fault: Option<ServeFaultKind>,
    /// Raw reply frames (progress + final), joined with `\n` — the
    /// byte-parity unit. Malformed and deadline injections replace the
    /// request, so theirs are the typed error's frames.
    pub raw: String,
    /// The parsed final reply.
    pub reply: Reply,
}

/// Everything one chaos run observed, for reconciliation against the
/// daemon's counters and event log.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    pub outcomes: Vec<ChaosOutcome>,
    /// Volley replies answered OK.
    pub burst_ok: usize,
    /// Volley replies shed with `overloaded`.
    pub burst_shed: usize,
    /// Volley replies shed for any other reason (always 0 in a healthy
    /// run; kept so nothing is silently dropped).
    pub burst_other: usize,
    /// Mid-frame disconnects this client performed.
    pub disconnects_injected: usize,
    /// Garbage frames this client sent.
    pub malformed_injected: usize,
    /// Zero-deadline requests this client sent.
    pub deadline_injected: usize,
}

/// Chaos driver configuration.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Concurrent queries per burst volley.
    pub burst_size: usize,
    /// Pause between slow-loris chunks.
    pub loris_pause: Duration,
}

impl Default for ChaosOptions {
    fn default() -> ChaosOptions {
        ChaosOptions {
            burst_size: 8,
            loris_pause: Duration::from_millis(30),
        }
    }
}

/// Drive `script` against the daemon at `addr`, one fresh connection per
/// request (the protocol is stateless per request), injecting faults per
/// `plan`. With `plan = None` this is the fault-free baseline the parity
/// oracle compares against.
pub fn run_chaos(
    addr: SocketAddr,
    script: &[Request],
    plan: Option<&ServeFaultPlan>,
    opts: &ChaosOptions,
) -> io::Result<ChaosReport> {
    let mut report = ChaosReport::default();
    for (index, request) in script.iter().enumerate() {
        let fault = plan.and_then(|p| p.decide(index));
        let (raw, reply) = match fault {
            None => ServeClient::connect(addr)?.request_full(request)?,
            Some(ServeFaultKind::SlowLoris) => {
                // Trickle the request line out in small chunks; the
                // reply must not differ from a clean send in any byte.
                let mut client = ServeClient::connect(addr)?;
                let line = format!("{}\n", request.to_line());
                let bytes = line.as_bytes();
                let chunk = (bytes.len() / 4).max(1);
                for piece in bytes.chunks(chunk) {
                    client.send_bytes(piece)?;
                    std::thread::sleep(opts.loris_pause);
                }
                client.read_reply_frames()?
            }
            Some(ServeFaultKind::Disconnect) => {
                // Half a frame, then vanish; the scripted request then
                // runs cleanly on a fresh connection.
                report.disconnects_injected += 1;
                {
                    let mut rude = ServeClient::connect(addr)?;
                    let line = request.to_line();
                    rude.send_bytes(&line.as_bytes()[..line.len() / 2])?;
                    // Dropping the client closes the socket mid-frame.
                }
                ServeClient::connect(addr)?.request_full(request)?
            }
            Some(ServeFaultKind::Malformed) => {
                report.malformed_injected += 1;
                let mut client = ServeClient::connect(addr)?;
                client.send_line("{\"op\": chaos-garbage !!!")?;
                client.read_reply_frames()?
            }
            Some(ServeFaultKind::Deadline) => {
                // A zero budget expires at the server's first check,
                // deterministically, whatever the op.
                report.deadline_injected += 1;
                let mut doomed = request.clone();
                if let Request::QueryMapping { deadline_ms, .. }
                | Request::SubmitManual { deadline_ms, .. } = &mut doomed
                {
                    *deadline_ms = Some(0);
                } else {
                    // Ops without deadlines are disturbed as queries so
                    // the class still fires.
                    doomed = Request::QueryMapping {
                        sequences: vec!["chaos deadline probe".to_string()],
                        k: 1,
                        deadline_ms: Some(0),
                        mode: None,
                    };
                }
                ServeClient::connect(addr)?.request_full(&doomed)?
            }
            Some(ServeFaultKind::Burst) => {
                // A joined volley of concurrent queries; the daemon may
                // shed part of it, every reply is accounted. The volley
                // completes before the scripted request, which must
                // therefore still find a free slot.
                let volley: Vec<std::thread::JoinHandle<io::Result<Reply>>> = (0..opts.burst_size)
                    .map(|b| {
                        std::thread::spawn(move || {
                            let mut c = ServeClient::connect(addr)?;
                            c.request(&Request::QueryMapping {
                                sequences: vec![format!("burst probe {b}")],
                                k: 1,
                                deadline_ms: None,
                                mode: None,
                            })
                        })
                    })
                    .collect();
                for handle in volley {
                    match handle.join() {
                        Ok(Ok(Reply::Err(e))) if e.kind == ErrKind::Overloaded => {
                            report.burst_shed += 1;
                        }
                        Ok(Ok(Reply::Ok(_))) => report.burst_ok += 1,
                        _ => report.burst_other += 1,
                    }
                }
                ServeClient::connect(addr)?.request_full(request)?
            }
        };
        report.outcomes.push(ChaosOutcome {
            index,
            fault,
            raw: raw.join("\n"),
            reply,
        });
    }
    Ok(report)
}
