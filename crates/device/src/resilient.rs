//! Resilient device access: retry, backoff, reconnect, re-navigation.
//!
//! [`ResilientClient`] wraps [`DeviceClient`] with the policy a
//! production config-push driver needs against a flaky channel:
//!
//! * every operation has a deadline (the socket timeouts set at connect);
//! * transient failures — I/O errors, garbled frames, `busy` responses —
//!   are retried with deterministic exponential backoff through an
//!   injectable [`Clock`], so tests never sleep wall-clock;
//! * a dropped session is reconnected automatically and the opener chain
//!   recorded by [`ResilientClient::navigate`] is replayed before the
//!   failed operation retries (a fresh CLI session starts at the root
//!   view, so navigation state must be rebuilt);
//! * a [`RetryBudget`] bounds total retries across the client's lifetime:
//!   when it empties the circuit opens and every further operation fails
//!   fast, letting callers degrade gracefully instead of grinding on a
//!   dead device.
//!
//! Each retry is recorded as a [`RetryEvent`] so callers can surface the
//! full recovery history as diagnostics.

use crate::client::DeviceClient;
use crate::protocol::Response;
use parking_lot::Mutex;
use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Is a `-ERR` message a transient device condition worth retrying?
/// (Real devices say "busy" / "try again"; the fault injector's
/// [`crate::faults::BUSY_MESSAGE`] matches too.)
pub fn is_transient(message: &str) -> bool {
    message.starts_with("busy")
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// The sleep source backoff goes through — injectable so tests assert
/// the backoff schedule without ever sleeping wall-clock.
pub trait Clock: Send + Sync {
    fn sleep(&self, duration: Duration);
}

/// The real thing: `std::thread::sleep`.
pub struct WallClock;

impl Clock for WallClock {
    fn sleep(&self, duration: Duration) {
        std::thread::sleep(duration);
    }
}

/// A test clock: records every requested sleep and returns immediately.
#[derive(Default)]
pub struct ManualClock {
    slept: Mutex<Vec<Duration>>,
}

impl ManualClock {
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Every duration passed to [`Clock::sleep`], in call order.
    pub fn slept(&self) -> Vec<Duration> {
        self.slept.lock().clone()
    }

    /// Total virtual time slept.
    pub fn total_slept(&self) -> Duration {
        self.slept.lock().iter().sum()
    }
}

impl Clock for ManualClock {
    fn sleep(&self, duration: Duration) {
        self.slept.lock().push(duration);
    }
}

// ---------------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------------

/// Knobs of the resilience layer.
#[derive(Debug, Clone)]
pub struct ResiliencePolicy {
    /// TCP connect deadline.
    pub connect_timeout: Duration,
    /// Per-operation socket read/write deadline.
    pub op_timeout: Duration,
    /// Retries allowed per operation before it is declared exhausted.
    pub max_retries: u32,
    /// First backoff; doubles each retry up to `max_backoff`.
    pub base_backoff: Duration,
    pub max_backoff: Duration,
    /// Total retries allowed across the client's lifetime (the circuit
    /// breaker). When spent, every further operation fails fast.
    pub retry_budget: u32,
}

impl ResiliencePolicy {
    /// The one TCP connect deadline every resilience-layer site uses.
    /// Validation targets are LAN-local devices: a connect that has not
    /// completed in 2 s is down, and the retry/backoff layer above this
    /// timeout handles it — there is no point waiting longer per
    /// attempt. Named once here so the default policy, the chaos
    /// harnesses and the benches can never drift apart again.
    pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
}

impl Default for ResiliencePolicy {
    fn default() -> ResiliencePolicy {
        ResiliencePolicy {
            connect_timeout: ResiliencePolicy::CONNECT_TIMEOUT,
            op_timeout: Duration::from_secs(10),
            max_retries: 4,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            retry_budget: 256,
        }
    }
}

/// Deterministic exponential backoff: `base * 2^attempt`, capped.
pub fn backoff_delay(policy: &ResiliencePolicy, attempt: u32) -> Duration {
    let factor = 2u32.saturating_pow(attempt.min(16));
    policy
        .base_backoff
        .saturating_mul(factor)
        .min(policy.max_backoff)
}

// ---------------------------------------------------------------------------
// Errors, events, budget
// ---------------------------------------------------------------------------

/// Why a resilient operation gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResilienceError {
    /// Per-op retries or the global budget ran out.
    Exhausted {
        op: String,
        attempts: u32,
        last: String,
    },
    /// The retry budget emptied earlier; the circuit is open and the
    /// operation was not attempted at all.
    CircuitOpen { op: String },
    /// A non-retryable failure (e.g. the device rejected an opener that
    /// previously succeeded during navigation replay).
    Fatal { op: String, reason: String },
}

impl fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResilienceError::Exhausted { op, attempts, last } => {
                write!(
                    f,
                    "`{op}` exhausted after {attempts} retries (last: {last})"
                )
            }
            ResilienceError::CircuitOpen { op } => {
                write!(
                    f,
                    "`{op}` not attempted: retry budget exhausted (circuit open)"
                )
            }
            ResilienceError::Fatal { op, reason } => write!(f, "`{op}` failed: {reason}"),
        }
    }
}

impl std::error::Error for ResilienceError {}

/// One recorded retry: which op, which attempt, why, how long we backed
/// off before retrying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryEvent {
    pub op: String,
    /// 0-based attempt number that failed.
    pub attempt: u32,
    pub reason: String,
    pub backoff: Duration,
}

/// Counters the caller reads after a run.
#[derive(Debug, Clone, Default)]
pub struct ResilienceStats {
    /// Operations requested through [`ResilientClient::exec`].
    pub ops: u64,
    /// Retries performed (every [`RetryEvent`]).
    pub retries: u64,
    /// Connections established after the first (each implies a replay
    /// of the recorded navigation chain).
    pub reconnects: u64,
}

/// The lifetime retry allowance. When it empties the circuit opens.
#[derive(Debug, Clone)]
pub struct RetryBudget {
    remaining: u32,
    open: bool,
}

impl RetryBudget {
    pub fn new(total: u32) -> RetryBudget {
        RetryBudget {
            remaining: total,
            open: false,
        }
    }

    /// Take one retry from the budget; opens the circuit when spent.
    fn try_consume(&mut self) -> bool {
        if self.remaining == 0 {
            self.open = true;
            return false;
        }
        self.remaining -= 1;
        true
    }

    pub fn is_open(&self) -> bool {
        self.open
    }

    pub fn remaining(&self) -> u32 {
        self.remaining
    }
}

// ---------------------------------------------------------------------------
// The client
// ---------------------------------------------------------------------------

/// Outcome of [`ResilientClient::navigate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Navigated {
    /// The whole opener chain was accepted; the session sits in the
    /// target view.
    Entered,
    /// The device rejected an opener — a validation finding, not a
    /// channel failure.
    Rejected { opener: String, message: String },
}

/// A [`DeviceClient`] wrapped in retry/backoff/reconnect policy.
pub struct ResilientClient {
    addr: SocketAddr,
    policy: ResiliencePolicy,
    clock: Arc<dyn Clock>,
    inner: Option<DeviceClient>,
    /// Opener instances to replay on a fresh session (set by
    /// [`ResilientClient::navigate`]).
    nav: Vec<String>,
    /// Bumped whenever the live connection is lost; callers compare
    /// generations to detect that per-session state (like pushed config)
    /// was lost mid-sequence.
    generation: u64,
    budget: RetryBudget,
    stats: ResilienceStats,
    events: Vec<RetryEvent>,
}

impl ResilientClient {
    /// Connect (with retries under `policy`) to the device at `addr`.
    pub fn connect(
        addr: SocketAddr,
        policy: ResiliencePolicy,
        clock: Arc<dyn Clock>,
    ) -> Result<ResilientClient, ResilienceError> {
        let budget = RetryBudget::new(policy.retry_budget);
        let mut client = ResilientClient {
            addr,
            policy,
            clock,
            inner: None,
            nav: Vec::new(),
            generation: 0,
            budget,
            stats: ResilienceStats::default(),
            events: Vec::new(),
        };
        let mut attempt = 0u32;
        client.ensure_connected("connect", &mut attempt)?;
        Ok(client)
    }

    /// How many times the session was lost so far. A change across a
    /// multi-op sequence means per-session device state was reset.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn stats(&self) -> &ResilienceStats {
        &self.stats
    }

    /// Drain the recorded retry events.
    pub fn take_events(&mut self) -> Vec<RetryEvent> {
        std::mem::take(&mut self.events)
    }

    /// True once the retry budget is spent: every further op fails fast.
    pub fn circuit_open(&self) -> bool {
        self.budget.is_open()
    }

    pub fn budget_remaining(&self) -> u32 {
        self.budget.remaining()
    }

    /// Navigate to the view entered by executing `openers` in order from
    /// the root view, and remember the chain for replay after reconnects.
    pub fn navigate(&mut self, openers: &[String]) -> Result<Navigated, ResilienceError> {
        self.nav.clear();
        if let Response::Err { message } = self.exec("return")? {
            // `return` is universal CLI navigation; a rejection means the
            // endpoint is not a device we understand.
            return Err(ResilienceError::Fatal {
                op: "return".to_string(),
                reason: format!("device rejected `return`: {message}"),
            });
        }
        for opener in openers {
            match self.exec(opener)? {
                Response::Err { message } => {
                    return Ok(Navigated::Rejected {
                        opener: opener.clone(),
                        message,
                    });
                }
                _ => self.nav.push(opener.clone()),
            }
        }
        Ok(Navigated::Entered)
    }

    /// Execute one command resiliently: transient `busy` responses and
    /// I/O failures are retried (reconnecting and replaying the recorded
    /// navigation chain when the session dropped) with exponential
    /// backoff, until the response is definitive or retries run out.
    pub fn exec(&mut self, line: &str) -> Result<Response, ResilienceError> {
        if self.budget.is_open() {
            return Err(ResilienceError::CircuitOpen {
                op: line.to_string(),
            });
        }
        self.stats.ops += 1;
        let mut attempt = 0u32;
        loop {
            self.ensure_connected(line, &mut attempt)?;
            match self.raw_exec(line) {
                Ok(Response::Err { message }) if is_transient(&message) => {
                    self.note_retry(line, &mut attempt, format!("transient: {message}"))?;
                }
                Ok(response) => return Ok(response),
                Err(e) => {
                    self.invalidate();
                    self.note_retry(line, &mut attempt, format!("i/o failure: {e}"))?;
                }
            }
        }
    }

    /// Drop the live connection (the next op reconnects and replays).
    fn invalidate(&mut self) {
        if self.inner.take().is_some() {
            self.generation += 1;
        }
    }

    fn raw_exec(&mut self, line: &str) -> io::Result<Response> {
        match self.inner.as_mut() {
            Some(client) => client.exec(line),
            None => Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "no live connection",
            )),
        }
    }

    /// Make sure a connection exists, replaying the navigation chain on
    /// any fresh session. Shares the caller's per-op attempt counter so
    /// reconnect churn counts against the same retry limits.
    fn ensure_connected(&mut self, op: &str, attempt: &mut u32) -> Result<(), ResilienceError> {
        'establish: loop {
            if self.inner.is_none() {
                match DeviceClient::connect_with_timeout(
                    self.addr,
                    self.policy.connect_timeout,
                    self.policy.op_timeout,
                ) {
                    Ok(client) => {
                        if self.generation > 0 {
                            self.stats.reconnects += 1;
                        }
                        self.inner = Some(client);
                    }
                    Err(e) => {
                        self.note_retry(op, attempt, format!("connect failed: {e}"))?;
                        continue 'establish;
                    }
                }
                // A fresh session starts at the root view: rebuild the
                // navigation state before the caller's op runs.
                let mut idx = 0;
                while idx < self.nav.len() {
                    let line = self.nav[idx].clone();
                    match self.raw_exec(&line) {
                        Ok(Response::Err { message }) if is_transient(&message) => {
                            self.note_retry(
                                op,
                                attempt,
                                format!("nav replay `{line}` transient: {message}"),
                            )?;
                        }
                        Ok(Response::Err { message }) => {
                            // An opener that succeeded before is rejected
                            // now: the device changed under us.
                            return Err(ResilienceError::Fatal {
                                op: op.to_string(),
                                reason: format!("nav replay `{line}` rejected: {message}"),
                            });
                        }
                        Ok(_) => idx += 1,
                        Err(e) => {
                            self.invalidate();
                            self.note_retry(
                                op,
                                attempt,
                                format!("nav replay `{line}` i/o failure: {e}"),
                            )?;
                            continue 'establish;
                        }
                    }
                }
            }
            return Ok(());
        }
    }

    /// Record one retry: enforce the per-op limit and the global budget,
    /// then back off through the injected clock.
    fn note_retry(
        &mut self,
        op: &str,
        attempt: &mut u32,
        reason: String,
    ) -> Result<(), ResilienceError> {
        if *attempt >= self.policy.max_retries {
            return Err(ResilienceError::Exhausted {
                op: op.to_string(),
                attempts: *attempt,
                last: reason,
            });
        }
        if !self.budget.try_consume() {
            return Err(ResilienceError::Exhausted {
                op: op.to_string(),
                attempts: *attempt,
                last: format!("retry budget exhausted ({reason})"),
            });
        }
        let backoff = backoff_delay(&self.policy, *attempt);
        self.stats.retries += 1;
        self.events.push(RetryEvent {
            op: op.to_string(),
            attempt: *attempt,
            reason,
            backoff,
        });
        self.clock.sleep(backoff);
        *attempt += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = ResiliencePolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(45),
            ..Default::default()
        };
        let seq: Vec<_> = (0..5).map(|a| backoff_delay(&policy, a)).collect();
        assert_eq!(
            seq,
            vec![
                Duration::from_millis(10),
                Duration::from_millis(20),
                Duration::from_millis(40),
                Duration::from_millis(45),
                Duration::from_millis(45),
            ]
        );
    }

    #[test]
    fn manual_clock_records_instead_of_sleeping() {
        let clock = ManualClock::new();
        clock.sleep(Duration::from_secs(3600));
        clock.sleep(Duration::from_secs(1800));
        assert_eq!(clock.slept().len(), 2);
        assert_eq!(clock.total_slept(), Duration::from_secs(5400));
    }

    #[test]
    fn budget_opens_circuit_when_spent() {
        let mut budget = RetryBudget::new(2);
        assert!(budget.try_consume());
        assert!(budget.try_consume());
        assert!(!budget.is_open(), "open only on the failed draw");
        assert!(!budget.try_consume());
        assert!(budget.is_open());
        assert_eq!(budget.remaining(), 0);
    }

    #[test]
    fn transient_messages_recognised() {
        assert!(is_transient("busy: transient fault injected, retry"));
        assert!(is_transient("busy"));
        assert!(!is_transient("unrecognized command"));
    }

    #[test]
    fn connect_to_dead_address_exhausts_with_recorded_backoffs() {
        // A bound-then-dropped listener gives an address that refuses
        // connections fast (no SYN blackhole).
        let addr = {
            let l = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
            l.local_addr().unwrap()
        };
        let clock = Arc::new(ManualClock::new());
        let policy = ResiliencePolicy {
            connect_timeout: Duration::from_millis(200),
            max_retries: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(20),
            ..Default::default()
        };
        let err = match ResilientClient::connect(addr, policy, Arc::clone(&clock) as Arc<dyn Clock>)
        {
            Err(e) => e,
            Ok(_) => panic!("connect to a dead address must fail"),
        };
        assert!(matches!(err, ResilienceError::Exhausted { .. }), "{err}");
        // Backoffs were recorded, not slept: 10, 20, 20 (capped).
        assert_eq!(
            clock.slept(),
            vec![
                Duration::from_millis(10),
                Duration::from_millis(20),
                Duration::from_millis(20),
            ]
        );
    }
}
