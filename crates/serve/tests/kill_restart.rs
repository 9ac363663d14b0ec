//! Kill–restart recovery: a real `nassim-serve` process is `SIGKILL`ed
//! mid-submit and restarted over the same journal directory. The oracle
//! is byte parity — after recovery, `job-status` and an idempotent
//! resubmit must answer byte-identically to an uninterrupted control
//! daemon serving the same catalog. The victim is killed either while
//! streaming progress or after running under a seeded `NASSIM_CRASH`
//! plan that tears its persists.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim_datasets::catalog::Catalog;
use nassim_datasets::{manualgen, style};
use nassim_serve::{
    ErrKind, Reply, Request, ServeClient, ServeConfig, ServeDaemon, ServeState, StateOptions,
};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

const JOB: &str = "kill-restart.job-1";

fn submit_pages() -> Vec<(String, String)> {
    let st = style::vendor("cirrus").unwrap();
    let manual = manualgen::generate(
        &st,
        &Catalog::base(),
        &manualgen::GenOptions {
            seed: 4242,
            syntax_error_rate: 0.0,
            ambiguity_rate: 0.0,
            ..Default::default()
        },
    );
    manual
        .pages
        .iter()
        .take(3)
        .map(|p| (p.url.clone(), p.html.clone()))
        .collect()
}

fn submit_request(pages: &[(String, String)]) -> Request {
    Request::SubmitManual {
        vendor: "cirrus".to_string(),
        pages: pages.to_vec(),
        deadline_ms: None,
        job: Some(JOB.to_string()),
    }
}

/// A `nassim-serve` child process bound to a journal directory. Holding
/// stdin open keeps it serving; dropping stdin drains it.
struct DaemonProc {
    child: Child,
    addr: SocketAddr,
}

/// Spawn a daemon over `journal`; `crash` (`seed:rate`) arms the
/// process-wide crash plan inside it, `None` runs it injection-free.
fn spawn_daemon(journal: &Path, crash: Option<&str>) -> DaemonProc {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_nassim-serve"));
    cmd.env("NASSIM_SERVE_JOURNAL", journal)
        .env("NASSIM_SERVE_VENDORS", "cirrus")
        .env_remove("NASSIM_CRASH")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(plan) = crash {
        cmd.env("NASSIM_CRASH", plan);
    }
    let mut child = cmd.spawn().unwrap();
    // The daemon prints its address only after spawn-time recovery has
    // finished every pending journaled job.
    let stdout = child.stdout.take().unwrap();
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).unwrap();
    let addr: SocketAddr = line.trim().parse().unwrap_or_else(|e| {
        panic!("daemon printed {line:?} instead of an address: {e}");
    });
    DaemonProc { child, addr }
}

impl DaemonProc {
    fn client(&self) -> ServeClient {
        let mut c = ServeClient::connect(self.addr).unwrap();
        c.set_read_timeout(Duration::from_secs(30)).unwrap();
        c
    }

    fn shutdown(mut self) {
        // Closing stdin asks for a graceful drain-and-exit.
        drop(self.child.stdin.take());
        let _ = self.child.wait();
    }

    fn sigkill(mut self) {
        self.child.kill().unwrap();
        let _ = self.child.wait();
    }
}

fn temp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nassim-kill-restart-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ok_frame(raw: &[String], reply: &Reply) -> String {
    match reply {
        Reply::Ok(_) => raw.last().unwrap().clone(),
        other => panic!("expected ok reply, got {other:?} (frames: {raw:?})"),
    }
}

/// An uninterrupted, injection-free daemon completing the job: its
/// submit reply and `job-status` frames are the recovery oracle.
fn control_frames(request: &Request, tag: &str) -> (String, String) {
    let dir = temp_journal(tag);
    let control = spawn_daemon(&dir, None);
    let mut client = control.client();
    let (raw, reply) = client.request_full(request).unwrap();
    let control_ok = ok_frame(&raw, &reply);
    let (raw, reply) = client
        .request_full(&Request::JobStatus {
            job: JOB.to_string(),
        })
        .unwrap();
    let control_status = ok_frame(&raw, &reply);
    assert!(control_status.contains("\"done\""), "{control_status}");
    drop(client);
    control.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    (control_ok, control_status)
}

/// Restart injection-free over a killed victim's journal and check that
/// `job-status` and an idempotent resubmit answer byte-identically to
/// the control. Returns the restart's `jobs_recovered` health count.
fn assert_recovers(
    victim_dir: &Path,
    request: &Request,
    control: &(String, String),
    what: &str,
) -> f64 {
    let (control_ok, control_status) = control;
    // Spawn-time recovery finishes pending jobs before the address is
    // printed.
    let restarted = spawn_daemon(victim_dir, None);
    let mut client = restarted.client();
    let (raw, reply) = client
        .request_full(&Request::JobStatus {
            job: JOB.to_string(),
        })
        .unwrap();
    let recovered_status = ok_frame(&raw, &reply);
    assert_eq!(
        &recovered_status, control_status,
        "{what}: recovered job-status lost byte parity with the uninterrupted control"
    );

    // Idempotent resubmit: the recorded reply replays byte-identically,
    // with no progress frames (nothing is re-run).
    let (raw, reply) = client.request_full(request).unwrap();
    assert_eq!(
        raw.len(),
        1,
        "{what}: replayed reply must be a single frame: {raw:?}"
    );
    assert_eq!(
        &ok_frame(&raw, &reply),
        control_ok,
        "{what}: resubmit diverged"
    );

    let recovered = match client.request(&Request::Health).unwrap() {
        Reply::Ok(v) => match v.get("jobs_recovered") {
            Some(serde::Value::Num(n)) => *n,
            other => panic!("{what}: health missing jobs_recovered: {other:?}"),
        },
        other => panic!("{what}: health failed: {other:?}"),
    };
    drop(client);
    restarted.shutdown();
    recovered
}

#[test]
fn sigkilled_daemon_resumes_the_job_byte_identically() {
    let request = submit_request(&submit_pages());
    let control = control_frames(&request, "control");

    // Victim: SIGKILL the daemon mid-submit. The intent record is
    // durable before the first progress frame is sent, so once a frame
    // has been read the job is guaranteed journaled; whether any stages
    // (or even the reply) landed before the kill is timing — recovery
    // must answer identically in every case.
    let victim_dir = temp_journal("victim");
    let victim = spawn_daemon(&victim_dir, None);
    let mut client = victim.client();
    client.send_line(&request.to_line()).unwrap();
    let first = client.read_raw().unwrap();
    assert!(first.contains("progress"), "unexpected first frame {first}");
    victim.sigkill();
    drop(client);

    let recovered = assert_recovers(&victim_dir, &request, &control, "mid-stream kill");
    assert!(recovered >= 1.0, "restart recovered no jobs");
    let _ = std::fs::remove_dir_all(&victim_dir);
}

/// The victim runs under a seeded crash plan, so its submit may die
/// typed at a persist kill point (a torn journal append or store save)
/// or complete; it is then SIGKILLed. Either start must recover to the
/// control's bytes.
#[test]
fn crash_armed_victims_recover_byte_identically() {
    let request = submit_request(&submit_pages());
    let control = control_frames(&request, "armed-control");
    let mut died_typed = 0;
    for seed in [3u64, 11, 42] {
        let victim_dir = temp_journal(&format!("armed-victim-{seed}"));
        let victim = spawn_daemon(&victim_dir, Some(&format!("{seed}:0.5")));
        let mut client = victim.client();
        let (_, reply) = client.request_full(&request).unwrap();
        if !matches!(reply, Reply::Ok(_)) {
            died_typed += 1;
        }
        drop(client);
        victim.sigkill();

        assert_recovers(&victim_dir, &request, &control, &format!("seed {seed}"));
        let _ = std::fs::remove_dir_all(&victim_dir);
    }
    assert!(died_typed > 0, "the crash plan never fired in any victim");
}

#[test]
fn journaled_submissions_are_idempotent_in_process() {
    let dir = temp_journal("in-process");
    let (state, _) = ServeState::build(&StateOptions::default()).unwrap();
    let daemon = ServeDaemon::spawn(
        Arc::new(state),
        ServeConfig {
            journal_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let pages = submit_pages();
    let request = submit_request(&pages);

    let mut client = ServeClient::connect(daemon.addr()).unwrap();
    let (first_raw, first_reply) = client.request_full(&request).unwrap();
    let first_ok = ok_frame(&first_raw, &first_reply);
    assert!(first_raw.len() > 1, "first run must stream progress frames");

    // Replay: one frame, byte-identical payload, nothing recomputed.
    let (second_raw, second_reply) = client.request_full(&request).unwrap();
    assert_eq!(second_raw.len(), 1);
    assert_eq!(ok_frame(&second_raw, &second_reply), first_ok);

    // Same id with different content is a typed client error.
    let mut altered = pages.clone();
    altered.truncate(1);
    match client.request(&submit_request(&altered)).unwrap() {
        Reply::Err(e) => assert_eq!(e.kind, ErrKind::Malformed),
        other => panic!("conflicting resubmit answered {other:?}"),
    }

    // job-status carries the same recorded result.
    let (raw, reply) = client
        .request_full(&Request::JobStatus {
            job: JOB.to_string(),
        })
        .unwrap();
    let status = ok_frame(&raw, &reply);
    assert!(status.contains("\"done\""), "{status}");

    // A daemon without a journal refuses journaled ops, typed.
    let (state, _) = ServeState::build(&StateOptions::default()).unwrap();
    let plain = ServeDaemon::spawn(Arc::new(state), ServeConfig::default()).unwrap();
    let mut client = ServeClient::connect(plain.addr()).unwrap();
    match client.request(&request).unwrap() {
        Reply::Err(e) => assert_eq!(e.kind, ErrKind::UnknownOp),
        other => panic!("journal-less daemon answered {other:?}"),
    }
    match client
        .request(&Request::JobStatus {
            job: JOB.to_string(),
        })
        .unwrap()
    {
        Reply::Err(e) => assert_eq!(e.kind, ErrKind::UnknownOp),
        other => panic!("journal-less job-status answered {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
