//! The serving wire protocol: one JSON object per `\n`-terminated line,
//! framed by the same bounded reader the device protocol uses
//! ([`nassim_device::framing`]).
//!
//! Requests carry an `"op"` discriminator; replies are one of three
//! shapes — `{"ok": …}`, `{"progress": …}` (zero or more before the
//! final reply of a streaming op) and `{"err": {"kind", "message"}}`.
//! Every malformed input maps to a **typed** error reply, never a hang
//! or a dropped connection, and every reply is serialized with a fixed
//! key order so a fault-free rerun of the same request is byte-identical
//! (the chaos harness' parity oracle depends on this).

use nassim_mapper::RetrievalMode;
use serde::Value;

/// Longest accepted journal job id.
pub const MAX_JOB_ID_LEN: usize = 64;

/// Whether `id` is a valid journal job id: 1–[`MAX_JOB_ID_LEN`] chars
/// of `[A-Za-z0-9._-]`. Validated at the protocol boundary because the
/// id becomes part of an on-disk file name (`job-<id>.store.json`) —
/// this charset cannot traverse or collide with journal internals.
pub fn valid_job_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= MAX_JOB_ID_LEN
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness + counters + queue depths; never admitted (control
    /// plane), so it answers even under full overload.
    Health,
    /// List the vendors the daemon serves.
    Catalog,
    /// Inspect one catalog vendor.
    Inspect { vendor: String },
    /// Rank UDM leaves for a VDM-parameter context (the §6 Mapper's
    /// exact DL scan).
    QueryMapping {
        sequences: Vec<String>,
        k: usize,
        deadline_ms: Option<u64>,
        /// Retrieval mode override: `"exact"`, `"quantized"`, `"ann"` or
        /// `"ann:<probes>"`. Absent = the daemon's default (exact). An
        /// unknown mode string is a typed `malformed` reply.
        mode: Option<RetrievalMode>,
    },
    /// Assimilate a submitted manual through the staged pipeline,
    /// streaming one progress frame per stage. With a `job` id the
    /// submission is journaled: its intent and every completed stage
    /// are durably recorded, so a killed daemon finishes the job at
    /// restart and replies byte-identically (see [`crate::journal`]).
    SubmitManual {
        vendor: String,
        pages: Vec<(String, String)>,
        deadline_ms: Option<u64>,
        job: Option<String>,
    },
    /// Look up a journaled job: pending (with its durable stages) or
    /// done (with the recorded reply payload). Control plane — a map
    /// lookup, answerable even under full overload.
    JobStatus { job: String },
    /// Hold an admission slot for `ms` (debug builds of the daemon only;
    /// lets tests and benches create overload deterministically).
    DebugSleep { ms: u64 },
    /// Panic inside the request handler (debug ops only; proves the
    /// per-connection `catch_unwind` isolation).
    DebugPanic,
}

impl Request {
    /// The `"op"` string of this request.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Health => "health",
            Request::Catalog => "catalog",
            Request::Inspect { .. } => "inspect",
            Request::QueryMapping { .. } => "query-mapping",
            Request::SubmitManual { .. } => "submit-manual",
            Request::JobStatus { .. } => "job-status",
            Request::DebugSleep { .. } => "debug-sleep",
            Request::DebugPanic => "debug-panic",
        }
    }

    /// Ops that go through admission control (they do real pipeline
    /// work); control-plane ops bypass the queue so `health` stays
    /// answerable under overload.
    pub fn is_admitted(&self) -> bool {
        matches!(
            self,
            Request::QueryMapping { .. }
                | Request::SubmitManual { .. }
                | Request::DebugSleep { .. }
                | Request::DebugPanic
        )
    }

    /// The request's deadline budget, when it carries one.
    pub fn deadline_ms(&self) -> Option<u64> {
        match self {
            Request::QueryMapping { deadline_ms, .. }
            | Request::SubmitManual { deadline_ms, .. } => *deadline_ms,
            _ => None,
        }
    }

    /// Serialize as one request line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut fields: Vec<(String, Value)> =
            vec![("op".to_string(), Value::Str(self.op().to_string()))];
        match self {
            Request::Health | Request::Catalog | Request::DebugPanic => {}
            Request::Inspect { vendor } => {
                fields.push(("vendor".to_string(), Value::Str(vendor.clone())));
            }
            Request::QueryMapping {
                sequences,
                k,
                deadline_ms,
                mode,
            } => {
                fields.push((
                    "sequences".to_string(),
                    Value::Arr(sequences.iter().map(|s| Value::Str(s.clone())).collect()),
                ));
                fields.push(("k".to_string(), Value::Num(*k as f64)));
                if let Some(ms) = deadline_ms {
                    fields.push(("deadline_ms".to_string(), Value::Num(*ms as f64)));
                }
                // Emitted only when present, so pre-mode request lines
                // keep their exact bytes (the parity oracle's replay
                // corpus includes them).
                if let Some(mode) = mode {
                    fields.push(("mode".to_string(), Value::Str(mode_to_wire(mode))));
                }
            }
            Request::SubmitManual {
                vendor,
                pages,
                deadline_ms,
                job,
            } => {
                fields.push(("vendor".to_string(), Value::Str(vendor.clone())));
                fields.push((
                    "pages".to_string(),
                    Value::Arr(
                        pages
                            .iter()
                            .map(|(url, html)| {
                                Value::Arr(vec![Value::Str(url.clone()), Value::Str(html.clone())])
                            })
                            .collect(),
                    ),
                ));
                if let Some(ms) = deadline_ms {
                    fields.push(("deadline_ms".to_string(), Value::Num(*ms as f64)));
                }
                if let Some(job) = job {
                    fields.push(("job".to_string(), Value::Str(job.clone())));
                }
            }
            Request::JobStatus { job } => {
                fields.push(("job".to_string(), Value::Str(job.clone())));
            }
            Request::DebugSleep { ms } => {
                fields.push(("ms".to_string(), Value::Num(*ms as f64)));
            }
        }
        value_to_line(&Value::Obj(fields))
    }

    /// Parse one request line. Every malformed shape is a typed
    /// [`ErrKind::Malformed`] / [`ErrKind::UnknownOp`] the server echoes
    /// back — parsing never panics and never kills the connection.
    pub fn parse(line: &str) -> Result<Request, ErrReply> {
        let malformed = |detail: &str| ErrReply {
            kind: ErrKind::Malformed,
            message: format!("malformed request: {detail}"),
        };
        let mut value: Value =
            serde_json::from_str(line).map_err(|e| malformed(&format!("invalid JSON: {e:?}")))?;
        let Some(Value::Str(op)) = value.get_mut("op").map(Value::take) else {
            return Err(malformed("missing string `op` field"));
        };
        let str_field = |value: &Value, name: &str| -> Result<String, ErrReply> {
            match value.get(name) {
                Some(Value::Str(s)) => Ok(s.clone()),
                _ => Err(malformed(&format!("missing string `{name}` field"))),
            }
        };
        let num_field = |value: &Value, name: &str| -> Result<Option<u64>, ErrReply> {
            match value.get(name) {
                None => Ok(None),
                Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(Some(*n as u64)),
                Some(_) => Err(malformed(&format!(
                    "`{name}` must be a non-negative integer"
                ))),
            }
        };
        match op.as_str() {
            "health" => Ok(Request::Health),
            "catalog" => Ok(Request::Catalog),
            "inspect" => Ok(Request::Inspect {
                vendor: str_field(&value, "vendor")?,
            }),
            "query-mapping" => {
                let Some(Value::Arr(seqs)) = value.get("sequences") else {
                    return Err(malformed("missing `sequences` array"));
                };
                let mut sequences = Vec::with_capacity(seqs.len());
                for s in seqs {
                    match s {
                        Value::Str(s) => sequences.push(s.clone()),
                        _ => return Err(malformed("`sequences` entries must be strings")),
                    }
                }
                if sequences.is_empty() {
                    return Err(malformed("`sequences` must not be empty"));
                }
                let k = num_field(&value, "k")?.unwrap_or(5).clamp(1, 100) as usize;
                let mode = match value.get("mode") {
                    None => None,
                    Some(Value::Str(s)) => Some(RetrievalMode::parse(s).ok_or_else(|| {
                        malformed(&format!(
                            "`mode` must be exact, quantized, ann or ann:<probes>, got `{s}`"
                        ))
                    })?),
                    Some(_) => return Err(malformed("`mode` must be a string")),
                };
                Ok(Request::QueryMapping {
                    sequences,
                    k,
                    deadline_ms: num_field(&value, "deadline_ms")?,
                    mode,
                })
            }
            "submit-manual" => {
                let vendor = str_field(&value, "vendor")?;
                // The page strings move out of the parsed tree.
                let Some(Value::Arr(raw)) = value.get_mut("pages").map(Value::take) else {
                    return Err(malformed("missing `pages` array"));
                };
                let mut pages = Vec::with_capacity(raw.len());
                for p in raw {
                    let Value::Arr(pair) = p else {
                        return Err(malformed("`pages` entries must be arrays"));
                    };
                    let Ok([Value::Str(url), Value::Str(html)]) = <[Value; 2]>::try_from(pair)
                    else {
                        return Err(malformed(
                            "`pages` entries must be [url, html] string pairs",
                        ));
                    };
                    pages.push((url, html));
                }
                if pages.is_empty() {
                    return Err(malformed("`pages` must not be empty"));
                }
                let job = match value.get("job") {
                    None => None,
                    Some(Value::Str(job)) if valid_job_id(job) => Some(job.clone()),
                    Some(_) => {
                        return Err(malformed(&format!(
                            "`job` must be 1-{MAX_JOB_ID_LEN} chars of [A-Za-z0-9._-]"
                        )))
                    }
                };
                Ok(Request::SubmitManual {
                    vendor,
                    pages,
                    deadline_ms: num_field(&value, "deadline_ms")?,
                    job,
                })
            }
            "job-status" => {
                let job = str_field(&value, "job")?;
                if !valid_job_id(&job) {
                    return Err(malformed(&format!(
                        "`job` must be 1-{MAX_JOB_ID_LEN} chars of [A-Za-z0-9._-]"
                    )));
                }
                Ok(Request::JobStatus { job })
            }
            "debug-sleep" => Ok(Request::DebugSleep {
                ms: num_field(&value, "ms")?.unwrap_or(0),
            }),
            "debug-panic" => Ok(Request::DebugPanic),
            other => Err(ErrReply {
                kind: ErrKind::UnknownOp,
                message: format!("unknown op `{other}`"),
            }),
        }
    }
}

/// The wire spelling of a retrieval mode — `as_str` except that a
/// non-default probe count survives the round trip as `ann:<probes>`.
fn mode_to_wire(mode: &RetrievalMode) -> String {
    match mode {
        RetrievalMode::Ann { probes } if *probes > 0 => format!("ann:{probes}"),
        other => other.as_str().to_string(),
    }
}

/// Typed error classes a request can be answered with. The wire string
/// (`as_str`) is the protocol contract the chaos harness asserts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrKind {
    /// Admission queue full — shed, retry later.
    Overloaded,
    /// The daemon is draining; no new work is admitted.
    Draining,
    /// The request's deadline expired (queued or mid-pipeline).
    Deadline,
    /// Unparseable request line.
    Malformed,
    /// Well-formed JSON, unknown `op`.
    UnknownOp,
    /// `inspect`/`submit-manual` for a vendor with no registered parser.
    UnknownVendor,
    /// `job-status` for a job id the journal has never seen.
    UnknownJob,
    /// Handler bug (includes caught panics) — the one kind that is a
    /// server defect rather than a client or capacity condition.
    Internal,
}

impl ErrKind {
    pub fn as_str(self) -> &'static str {
        match self {
            ErrKind::Overloaded => "overloaded",
            ErrKind::Draining => "draining",
            ErrKind::Deadline => "deadline",
            ErrKind::Malformed => "malformed",
            ErrKind::UnknownOp => "unknown_op",
            ErrKind::UnknownVendor => "unknown_vendor",
            ErrKind::UnknownJob => "unknown_job",
            ErrKind::Internal => "internal",
        }
    }

    pub fn parse(s: &str) -> Option<ErrKind> {
        Some(match s {
            "overloaded" => ErrKind::Overloaded,
            "draining" => ErrKind::Draining,
            "deadline" => ErrKind::Deadline,
            "malformed" => ErrKind::Malformed,
            "unknown_op" => ErrKind::UnknownOp,
            "unknown_vendor" => ErrKind::UnknownVendor,
            "unknown_job" => ErrKind::UnknownJob,
            "internal" => ErrKind::Internal,
            _ => return None,
        })
    }
}

/// A typed error reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrReply {
    pub kind: ErrKind,
    pub message: String,
}

impl ErrReply {
    pub fn new(kind: ErrKind, message: impl Into<String>) -> ErrReply {
        ErrReply {
            kind,
            message: message.into(),
        }
    }

    /// Serialize as one reply line (no trailing newline).
    pub fn to_line(&self) -> String {
        value_to_line(&Value::Obj(vec![(
            "err".to_string(),
            Value::Obj(vec![
                (
                    "kind".to_string(),
                    Value::Str(self.kind.as_str().to_string()),
                ),
                ("message".to_string(), Value::Str(self.message.clone())),
            ]),
        )]))
    }
}

/// One reply frame, as the client sees it.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Final success payload.
    Ok(Value),
    /// Intermediate progress frame of a streaming op.
    Progress(Value),
    /// Final typed error.
    Err(ErrReply),
}

impl Reply {
    /// `true` for frames that end a request (ok or err); progress frames
    /// are followed by more.
    pub fn is_final(&self) -> bool {
        !matches!(self, Reply::Progress(_))
    }

    /// Parse one reply line.
    pub fn parse(line: &str) -> Result<Reply, String> {
        let mut value: Value =
            serde_json::from_str(line).map_err(|e| format!("unparseable reply: {e:?}"))?;
        // The payload moves out of the parsed tree instead of being copied.
        if let Some(ok) = value.get_mut("ok") {
            return Ok(Reply::Ok(ok.take()));
        }
        if let Some(p) = value.get_mut("progress") {
            return Ok(Reply::Progress(p.take()));
        }
        if let Some(err) = value.get("err") {
            let kind = match err.get("kind") {
                Some(Value::Str(s)) => {
                    ErrKind::parse(s).ok_or_else(|| format!("unknown err kind `{s}`"))?
                }
                _ => return Err("err reply without `kind`".to_string()),
            };
            let message = match err.get("message") {
                Some(Value::Str(s)) => s.clone(),
                _ => String::new(),
            };
            return Ok(Reply::Err(ErrReply { kind, message }));
        }
        Err(format!("reply is neither ok, progress nor err: {line}"))
    }
}

/// Wrap a payload as an `{"ok": …}` reply line.
pub fn ok_line(payload: Value) -> String {
    value_to_line(&Value::Obj(vec![("ok".to_string(), payload)]))
}

/// Wrap a payload as a `{"progress": …}` reply line.
pub fn progress_line(payload: Value) -> String {
    value_to_line(&Value::Obj(vec![("progress".to_string(), payload)]))
}

/// Compact single-line serialization. The vendored `serde_json` preserves
/// object key order and prints integral floats as integers, so the same
/// `Value` always serializes to the same bytes — the byte-parity
/// guarantee of the whole protocol rests here.
fn value_to_line(v: &Value) -> String {
    #[allow(clippy::unwrap_used)] // Value serialization is infallible.
    serde_json::to_string(v).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_their_lines() {
        let cases = vec![
            Request::Health,
            Request::Catalog,
            Request::Inspect {
                vendor: "cirrus".into(),
            },
            Request::QueryMapping {
                sequences: vec!["as-number".into(), "bgp <as-number>".into()],
                k: 5,
                deadline_ms: Some(250),
                mode: None,
            },
            Request::QueryMapping {
                sequences: vec!["mtu".into()],
                k: 10,
                deadline_ms: None,
                mode: Some(RetrievalMode::Quantized),
            },
            Request::QueryMapping {
                sequences: vec!["mtu".into()],
                k: 10,
                deadline_ms: None,
                mode: Some(RetrievalMode::Ann { probes: 7 }),
            },
            Request::QueryMapping {
                sequences: vec!["mtu".into()],
                k: 10,
                deadline_ms: None,
                mode: Some(RetrievalMode::Ann { probes: 0 }),
            },
            Request::SubmitManual {
                vendor: "helix".into(),
                pages: vec![("u1".into(), "<html>".into())],
                deadline_ms: None,
                job: None,
            },
            Request::SubmitManual {
                vendor: "helix".into(),
                pages: vec![("u1".into(), "<html>".into())],
                deadline_ms: Some(500),
                job: Some("upload-7.rev_2".into()),
            },
            Request::JobStatus {
                job: "upload-7.rev_2".into(),
            },
            Request::DebugSleep { ms: 40 },
            Request::DebugPanic,
        ];
        for req in cases {
            let line = req.to_line();
            assert_eq!(Request::parse(&line).unwrap(), req, "{line}");
            // Deterministic: serializing twice gives identical bytes.
            assert_eq!(line, req.to_line());
        }
    }

    #[test]
    fn malformed_requests_are_typed_not_fatal() {
        for bad in [
            "{{{",
            "42",
            "{}",
            "{\"op\":7}",
            "{\"op\":\"inspect\"}",
            "{\"op\":\"query-mapping\"}",
            "{\"op\":\"query-mapping\",\"sequences\":[]}",
            "{\"op\":\"query-mapping\",\"sequences\":[1]}",
            "{\"op\":\"submit-manual\",\"vendor\":\"v\"}",
            "{\"op\":\"submit-manual\",\"vendor\":\"v\",\"pages\":[\"x\"]}",
            "{\"op\":\"query-mapping\",\"sequences\":[\"a\"],\"deadline_ms\":-3}",
            "{\"op\":\"query-mapping\",\"sequences\":[\"a\"],\"mode\":\"bogus\"}",
            "{\"op\":\"query-mapping\",\"sequences\":[\"a\"],\"mode\":\"ann:x\"}",
            "{\"op\":\"query-mapping\",\"sequences\":[\"a\"],\"mode\":3}",
            "{\"op\":\"submit-manual\",\"vendor\":\"v\",\"pages\":[[\"u\",\"h\"]],\"job\":\"\"}",
            "{\"op\":\"submit-manual\",\"vendor\":\"v\",\"pages\":[[\"u\",\"h\"]],\"job\":\"../x\"}",
            "{\"op\":\"submit-manual\",\"vendor\":\"v\",\"pages\":[[\"u\",\"h\"]],\"job\":7}",
            "{\"op\":\"job-status\"}",
            "{\"op\":\"job-status\",\"job\":\"a/b\"}",
        ] {
            let err = Request::parse(bad).unwrap_err();
            assert_eq!(err.kind, ErrKind::Malformed, "{bad}");
        }
        let err = Request::parse("{\"op\":\"frobnicate\"}").unwrap_err();
        assert_eq!(err.kind, ErrKind::UnknownOp);
    }

    #[test]
    fn replies_round_trip() {
        let ok = ok_line(Value::Obj(vec![("n".to_string(), Value::Num(3.0))]));
        assert!(matches!(Reply::parse(&ok).unwrap(), Reply::Ok(_)));
        let prog = progress_line(Value::Str("parse".to_string()));
        let parsed = Reply::parse(&prog).unwrap();
        assert!(!parsed.is_final());
        let err = ErrReply::new(ErrKind::Overloaded, "queue full").to_line();
        match Reply::parse(&err).unwrap() {
            Reply::Err(e) => {
                assert_eq!(e.kind, ErrKind::Overloaded);
                assert_eq!(e.message, "queue full");
            }
            other => panic!("expected err, got {other:?}"),
        }
        assert!(Reply::parse("{\"neither\":1}").is_err());
    }

    #[test]
    fn job_id_validation() {
        for ok in [
            "a",
            "upload-7.rev_2",
            "A.B-c_9",
            &"x".repeat(MAX_JOB_ID_LEN),
        ] {
            assert!(valid_job_id(ok), "{ok}");
        }
        for bad in [
            "",
            "a/b",
            "../x",
            "a b",
            "job\n",
            "é",
            &"x".repeat(MAX_JOB_ID_LEN + 1),
        ] {
            assert!(!valid_job_id(bad), "{bad}");
        }
    }

    #[test]
    fn err_kind_strings_round_trip() {
        for kind in [
            ErrKind::Overloaded,
            ErrKind::Draining,
            ErrKind::Deadline,
            ErrKind::Malformed,
            ErrKind::UnknownOp,
            ErrKind::UnknownVendor,
            ErrKind::UnknownJob,
            ErrKind::Internal,
        ] {
            assert_eq!(ErrKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(ErrKind::parse("nope"), None);
    }
}
