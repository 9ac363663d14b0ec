//! The write-ahead job journal: durable `submit-manual` jobs that
//! survive a `SIGKILL` and resume byte-identically after restart.
//!
//! A journaled submission (`submit-manual` with a `job` id) writes its
//! intent — vendor, deadline and the full page payload — to an
//! append-only log *before* any pipeline work, then records each
//! completed §4–§5 stage (keyed by the corpus content hash,
//! [`nassim::corpus_key`]) after atomically persisting the job's
//! [`nassim::ArtifactStore`], and finally records the reply payload
//! itself. Each record is one JSON line framed as
//! `{"sum":"<fnv1a hex>","rec":{…}}` and fsynced through
//! [`nassim::append_record`], so the log on disk is always a valid
//! prefix plus at most one torn tail. The checksum covers the `rec`
//! bytes as they stand in the line, never a re-serialization: a record
//! that is equivalent JSON in other bytes (an escape such as `\u0041`
//! in place of `A`, added whitespace) fails it, and the writer never
//! produces such bytes.
//!
//! Recovery invariants (what a restarted daemon can rely on):
//!
//! 1. **Prefix validity** — replay applies records in order and stops at
//!    the first line whose checksum or JSON does not verify; the tear is
//!    truncated away (classic WAL redo semantics), surfaced as a
//!    [`NassimError::JournalTorn`]-derived diagnostic, never trusted.
//! 2. **At-least-once completion** — a job with a `submitted` record
//!    but no `done` record is *pending*: the daemon re-runs it at spawn.
//!    Completed stages are pure cache hits against the job's persisted
//!    artifact store, so recovery resumes from the last durable stage
//!    rather than recomputing the manual.
//! 3. **Byte-identical replies** — the pipeline is deterministic in
//!    (vendor, pages) and cached artifacts are content-addressed, so
//!    the recovered reply payload — and every `job-status` line — is
//!    byte-for-byte the payload an uninterrupted run would have sent.
//! 4. **Idempotence** — re-submitting a done job replays the recorded
//!    payload without re-running anything; re-submitting a pending job
//!    resumes it; stage records are never duplicated.
//!
//! Appends honour the process-wide `NASSIM_CRASH` plan
//! ([`nassim::CrashPlan`]): an injected torn append leaves a real torn
//! tail on disk and poisons the journal (every later append fails
//! typed) — the simulated kill, observable end to end by restarting.

use crate::protocol::valid_job_id;
use nassim::corpus::fnv1a_bytes;
use nassim::{append_record, global_crash_plan, CrashPlan, MAX_STORE_BYTES};
use nassim_diag::{Diagnostic, NassimError, Stage};
use parking_lot::Mutex;
use serde::Value;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// File name of the append-only log inside the journal directory.
pub const JOURNAL_FILE: &str = "journal.log";

/// One journal record. The `job` id is validated at the protocol layer
/// ([`valid_job_id`]), so it is always safe inside a file name.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// Intent: the full request payload, written before any work.
    Submitted {
        job: String,
        vendor: String,
        deadline_ms: Option<u64>,
        pages: Vec<(String, String)>,
    },
    /// A stage completed and its artifacts are durably in the job's
    /// store. `key` is the corpus content hash the stage ran under.
    Stage {
        job: String,
        stage: String,
        key: String,
    },
    /// The final reply payload (the `ok` body of the submit).
    Done { job: String, result: Value },
}

impl JournalRecord {
    pub fn job(&self) -> &str {
        match self {
            JournalRecord::Submitted { job, .. }
            | JournalRecord::Stage { job, .. }
            | JournalRecord::Done { job, .. } => job,
        }
    }

    fn type_str(&self) -> &'static str {
        match self {
            JournalRecord::Submitted { .. } => "submitted",
            JournalRecord::Stage { .. } => "stage",
            JournalRecord::Done { .. } => "done",
        }
    }

    /// The record's fields as a tree, `pages` excepted: a `submitted`
    /// record's pages are written from the borrowed strings instead (see
    /// [`JournalRecord::submitted_line`]).
    fn head_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("type".to_string(), Value::Str(self.type_str().to_string())),
            ("job".to_string(), Value::Str(self.job().to_string())),
        ];
        match self {
            JournalRecord::Submitted {
                vendor,
                deadline_ms,
                ..
            } => {
                fields.push(("vendor".to_string(), Value::Str(vendor.clone())));
                if let Some(ms) = deadline_ms {
                    fields.push(("deadline_ms".to_string(), Value::Num(*ms as f64)));
                }
            }
            JournalRecord::Stage { stage, key, .. } => {
                fields.push(("stage".to_string(), Value::Str(stage.clone())));
                fields.push(("key".to_string(), Value::Str(key.clone())));
            }
            JournalRecord::Done { result, .. } => {
                fields.push(("result".to_string(), result.clone()));
            }
        }
        Value::Obj(fields)
    }

    /// Decode a verified `rec` object, moving its strings out.
    fn from_value(mut value: Value) -> Result<JournalRecord, String> {
        let mut take = |name: &str| value.get_mut(name).map(Value::take);
        let job = str_field(take("job"), "job")?;
        if !valid_job_id(&job) {
            return Err(format!("invalid job id `{job}`"));
        }
        match str_field(take("type"), "type")?.as_str() {
            "submitted" => {
                let deadline_ms = match take("deadline_ms") {
                    None => None,
                    Some(Value::Num(n)) if n >= 0.0 && n.fract() == 0.0 => Some(n as u64),
                    Some(_) => return Err("`deadline_ms` must be a non-negative integer".into()),
                };
                let Some(Value::Arr(raw)) = take("pages") else {
                    return Err("missing `pages` array".to_string());
                };
                let mut pages = Vec::with_capacity(raw.len());
                for p in raw {
                    let Value::Arr(pair) = p else {
                        return Err("`pages` entries must be arrays".to_string());
                    };
                    let Ok([Value::Str(url), Value::Str(html)]) = <[Value; 2]>::try_from(pair)
                    else {
                        return Err("`pages` entries must be [url, html] pairs".into());
                    };
                    pages.push((url, html));
                }
                Ok(JournalRecord::Submitted {
                    job,
                    vendor: str_field(take("vendor"), "vendor")?,
                    deadline_ms,
                    pages,
                })
            }
            "stage" => Ok(JournalRecord::Stage {
                job,
                stage: str_field(take("stage"), "stage")?,
                key: str_field(take("key"), "key")?,
            }),
            "done" => match take("result") {
                Some(result) => Ok(JournalRecord::Done { job, result }),
                None => Err("missing `result` field".to_string()),
            },
            other => Err(format!("unknown record type `{other}`")),
        }
    }

    /// Serialize as one checksummed log line (no trailing newline):
    /// `{"sum":"<fnv1a of rec's bytes>","rec":{…}}`. The record is
    /// serialized once; the checksum covers exactly the `rec` bytes in
    /// the line, which is what [`JournalRecord::parse_line`] hashes.
    pub fn to_line(&self) -> String {
        match self {
            JournalRecord::Submitted {
                job,
                vendor,
                deadline_ms,
                pages,
            } => JournalRecord::submitted_line(job, vendor, *deadline_ms, pages),
            _ => frame(0, |out| serde_json::to_writer(out, &self.head_value())),
        }
    }

    /// The [`JournalRecord::to_line`] of a `submitted` record, written
    /// from borrowed fields: each page string is escaped straight into
    /// the line, so the payload is neither copied into a record nor into
    /// a JSON tree on its way to disk.
    pub fn submitted_line(
        job: &str,
        vendor: &str,
        deadline_ms: Option<u64>,
        pages: &[(String, String)],
    ) -> String {
        let head = JournalRecord::Submitted {
            job: job.to_string(),
            vendor: vendor.to_string(),
            deadline_ms,
            pages: Vec::new(),
        }
        .head_value();
        let payload: usize = pages.iter().map(|(u, h)| u.len() + h.len() + 8).sum();
        frame(payload + 128, |out| {
            serde_json::to_writer(&mut *out, &head)?;
            // Reopen the head object to append `pages` as its last field.
            out.pop();
            out.extend_from_slice(br#","pages":["#);
            for (i, (url, html)) in pages.iter().enumerate() {
                out.extend_from_slice(if i == 0 { b"[" } else { b",[" });
                serde_json::to_writer_str(&mut *out, url)?;
                out.push(b',');
                serde_json::to_writer_str(&mut *out, html)?;
                out.push(b']');
            }
            out.extend_from_slice(b"]}");
            Ok(())
        })
    }

    /// Parse and verify one log line. Any failure — bad JSON, missing
    /// framing, checksum mismatch, undecodable record — is a tear: the
    /// line and everything after it must be discarded. The checksum is
    /// taken over the `rec` bytes as they appear in the line, so a record
    /// that is equivalent JSON but not the bytes `to_line` writes (an
    /// escape in place of a plain character, added whitespace) fails it.
    pub fn parse_line(line: &str) -> Result<JournalRecord, String> {
        let (mut value, spans) =
            serde_json::from_str_with_spans(line).map_err(|e| format!("invalid JSON: {e:?}"))?;
        let sum = str_field(value.get_mut("sum").map(Value::take), "sum")?;
        let rec_at = match &value {
            Value::Obj(fields) => fields.iter().position(|(k, _)| k == "rec"),
            _ => None,
        };
        let Some(rec_at) = rec_at else {
            return Err("missing `rec` field".to_string());
        };
        let actual = format!(
            "{:016x}",
            fnv1a_bytes(&line.as_bytes()[spans[rec_at].clone()])
        );
        if sum != actual {
            return Err(format!("checksum mismatch (stored {sum}, actual {actual})"));
        }
        JournalRecord::from_value(value.get_mut("rec").map_or(Value::Null, Value::take))
    }
}

/// One log line, `{"sum":"<fnv1a of rec's bytes>","rec":<rec>}`, with
/// `rec` serialized in place by `write_rec` into a buffer sized for
/// `capacity` bytes of it. The checksum is fixed-width, so it is patched
/// in after the record rather than the record being copied behind it.
fn frame(
    capacity: usize,
    write_rec: impl FnOnce(&mut Vec<u8>) -> Result<(), serde_json::Error>,
) -> String {
    const HEAD: &[u8] = br#"{"sum":"0000000000000000","rec":"#;
    const SUM: std::ops::Range<usize> = 8..24;
    // Room for the frame and the `\n` the append adds.
    let mut line = Vec::with_capacity(HEAD.len() + capacity + 2);
    line.extend_from_slice(HEAD);
    // Writing JSON into a `Vec` cannot fail, and it writes only UTF-8,
    // so neither fallback below is ever taken.
    let _ = write_rec(&mut line);
    let sum = format!("{:016x}", fnv1a_bytes(&line[HEAD.len()..]));
    line[SUM].copy_from_slice(sum.as_bytes());
    line.push(b'}');
    String::from_utf8(line).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

fn str_field(value: Option<Value>, name: &str) -> Result<String, String> {
    match value {
        Some(Value::Str(s)) => Ok(s),
        _ => Err(format!("missing string `{name}` field")),
    }
}

/// Everything the journal knows about one job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobState {
    pub vendor: String,
    pub deadline_ms: Option<u64>,
    pub pages: Vec<(String, String)>,
    /// Durably completed stages, in completion order: `(stage, key)`.
    pub stages: Vec<(String, String)>,
    /// The recorded reply payload; `Some` exactly when the job is done.
    pub result: Option<Value>,
}

impl JobState {
    pub fn is_done(&self) -> bool {
        self.result.is_some()
    }

    /// Whether `stage` is already durably recorded.
    pub fn has_stage(&self, stage: &str) -> bool {
        self.stages.iter().any(|(s, _)| s == stage)
    }
}

/// The write-ahead job journal: an fsynced append-only log plus the
/// in-memory job index replayed from it.
pub struct JobJournal {
    dir: PathBuf,
    log_path: PathBuf,
    file: Mutex<File>,
    jobs: Mutex<BTreeMap<String, JobState>>,
    /// Torn records discarded (and truncated away) at open.
    torn_at_open: AtomicU64,
    /// Set after an injected torn append: the on-disk tail is torn, so
    /// further appends would land unreachable bytes after the tear.
    /// Every later append fails typed until the journal is reopened
    /// (which truncates the tear) — the injected crash is supposed to
    /// be followed by a restart, and this keeps a process that outlives
    /// it honest instead of silently losing records.
    poisoned: AtomicBool,
}

impl JobJournal {
    /// Open (or create) the journal in `dir`, replaying the log into the
    /// job index. Returns the journal plus one [`Stage::Internal`]
    /// diagnostic per abnormality absorbed — a torn tail (detected by
    /// checksum, truncated away) or an oversized log. Fails only when
    /// the directory or log file cannot be created or read at all.
    pub fn open(dir: &Path) -> Result<(JobJournal, Vec<Diagnostic>), NassimError> {
        let io_err = |context: String, e: &std::io::Error| NassimError::Io {
            context,
            reason: e.to_string(),
        };
        std::fs::create_dir_all(dir)
            .map_err(|e| io_err(format!("creating journal dir `{}`", dir.display()), &e))?;
        let log_path = dir.join(JOURNAL_FILE);
        let mut diagnostics = Vec::new();
        let mut jobs: BTreeMap<String, JobState> = BTreeMap::new();
        let mut torn = 0u64;
        if log_path.exists() {
            let meta = std::fs::metadata(&log_path)
                .map_err(|e| io_err(format!("reading journal `{}`", log_path.display()), &e))?;
            if meta.len() > MAX_STORE_BYTES {
                return Err(NassimError::ArtifactCorrupt {
                    path: log_path.display().to_string(),
                    reason: format!(
                        "journal is {} bytes, over the {MAX_STORE_BYTES}-byte load cap",
                        meta.len()
                    ),
                });
            }
            let bytes = std::fs::read(&log_path)
                .map_err(|e| io_err(format!("reading journal `{}`", log_path.display()), &e))?;
            let mut offset = 0usize;
            let mut valid_end = 0usize;
            while offset < bytes.len() {
                let rest = &bytes[offset..];
                let (line_bytes, framed) = match rest.iter().position(|&b| b == b'\n') {
                    Some(nl) => (&rest[..nl], true),
                    // No terminator: a record died mid-append.
                    None => (rest, false),
                };
                let parsed = if !framed {
                    Err("record has no `\\n` terminator (torn append)".to_string())
                } else {
                    match std::str::from_utf8(line_bytes) {
                        Ok("") => {
                            offset += 1;
                            valid_end = offset;
                            continue;
                        }
                        Ok(line) => JournalRecord::parse_line(line),
                        Err(e) => Err(format!("record is not UTF-8: {e}")),
                    }
                };
                match parsed {
                    Ok(rec) => {
                        apply_record(&mut jobs, rec);
                        offset += line_bytes.len() + 1;
                        valid_end = offset;
                    }
                    Err(reason) => {
                        // Prefix-validity invariant: the tear and
                        // everything after it are discarded.
                        torn += 1;
                        let err = NassimError::JournalTorn {
                            path: log_path.display().to_string(),
                            offset,
                            reason,
                        };
                        diagnostics.push(Diagnostic::warning(
                            Stage::Internal,
                            format!("{err}; truncating {} trailing bytes", bytes.len() - offset),
                        ));
                        break;
                    }
                }
            }
            if valid_end < bytes.len() {
                let f = OpenOptions::new()
                    .write(true)
                    .open(&log_path)
                    .map_err(|e| {
                        io_err(format!("truncating journal `{}`", log_path.display()), &e)
                    })?;
                f.set_len(valid_end as u64).map_err(|e| {
                    io_err(format!("truncating journal `{}`", log_path.display()), &e)
                })?;
                f.sync_all().map_err(|e| {
                    io_err(format!("fsyncing journal `{}`", log_path.display()), &e)
                })?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)
            .map_err(|e| io_err(format!("opening journal `{}`", log_path.display()), &e))?;
        Ok((
            JobJournal {
                dir: dir.to_path_buf(),
                log_path,
                file: Mutex::new(file),
                jobs: Mutex::new(jobs),
                torn_at_open: AtomicU64::new(torn),
                poisoned: AtomicBool::new(false),
            },
            diagnostics,
        ))
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Torn records discarded while opening.
    pub fn torn_at_open(&self) -> u64 {
        self.torn_at_open.load(Ordering::Relaxed)
    }

    /// Where this job's artifact store persists between stages. Job ids
    /// are [`valid_job_id`]-restricted, so the name cannot traverse.
    pub fn job_store_path(&self, job: &str) -> PathBuf {
        self.dir.join(format!("job-{job}.store.json"))
    }

    /// Best-effort removal of a completed job's store file (its reply is
    /// in the `done` record; the artifacts are no longer needed).
    pub fn remove_job_store(&self, job: &str) {
        let _ = std::fs::remove_file(self.job_store_path(job));
    }

    /// Durably append one record (fsynced before return) and apply it to
    /// the index. Under an injected crash the record is torn on disk,
    /// **not** applied, and the journal is poisoned (see the field doc).
    pub fn append(&self, rec: &JournalRecord) -> Result<(), NassimError> {
        self.append_with(rec, global_crash_plan())
    }

    /// [`JobJournal::append`] with an explicit crash plan (tests inject
    /// a local plan; production goes through the process-global one).
    pub fn append_with(
        &self,
        rec: &JournalRecord,
        plan: Option<&CrashPlan>,
    ) -> Result<(), NassimError> {
        self.append_line(rec.to_line(), plan, || rec.clone())
    }

    /// Durably append a job's intent, written from the borrowed request
    /// ([`JournalRecord::submitted_line`]): the pages are copied once,
    /// into the job index, and the record applied there is the one
    /// [`JobJournal::append`] would apply.
    pub fn append_submitted(
        &self,
        job: &str,
        vendor: &str,
        deadline_ms: Option<u64>,
        pages: &[(String, String)],
    ) -> Result<(), NassimError> {
        let line = JournalRecord::submitted_line(job, vendor, deadline_ms, pages);
        self.append_line(line, global_crash_plan(), || JournalRecord::Submitted {
            job: job.to_string(),
            vendor: vendor.to_string(),
            deadline_ms,
            pages: pages.to_vec(),
        })
    }

    /// Append one serialized record and, once it is durable, apply the
    /// record `applied` builds to the index.
    fn append_line(
        &self,
        mut line: String,
        plan: Option<&CrashPlan>,
        applied: impl FnOnce() -> JournalRecord,
    ) -> Result<(), NassimError> {
        if self.poisoned.load(Ordering::SeqCst) {
            return Err(NassimError::Internal {
                context: format!(
                    "journal `{}` is poisoned by an injected torn append; restart to recover",
                    self.log_path.display()
                ),
            });
        }
        line.push('\n');
        let mut file = self.file.lock();
        match append_record(&mut file, &self.log_path, line.as_bytes(), plan) {
            Ok(()) => {
                apply_record(&mut self.jobs.lock(), applied());
                Ok(())
            }
            Err(e) => {
                if matches!(e, NassimError::CrashInjected { .. }) {
                    self.poisoned.store(true, Ordering::SeqCst);
                }
                Err(e)
            }
        }
    }

    /// Current state of one job.
    pub fn job(&self, id: &str) -> Option<JobState> {
        self.jobs.lock().get(id).cloned()
    }

    /// The recorded reply payload of a done job.
    pub fn done_result(&self, id: &str) -> Option<Value> {
        self.jobs.lock().get(id).and_then(|s| s.result.clone())
    }

    /// Jobs with a `submitted` record but no `done` record — the work a
    /// restarted daemon must finish (in deterministic id order).
    pub fn pending_jobs(&self) -> Vec<(String, JobState)> {
        self.jobs
            .lock()
            .iter()
            .filter(|(_, s)| !s.is_done())
            .map(|(id, s)| (id.clone(), s.clone()))
            .collect()
    }

    /// Total jobs the journal knows about.
    pub fn job_count(&self) -> usize {
        self.jobs.lock().len()
    }

    /// Append raw bytes without framing or fsync — test-only hook for
    /// fabricating torn tails without a kill.
    #[doc(hidden)]
    pub fn debug_append_raw(&self, bytes: &[u8]) -> std::io::Result<()> {
        self.file.lock().write_all(bytes)
    }
}

/// Apply one replayed or freshly appended record to the job index.
/// Replay-safe: re-applying a record a prior life already applied (the
/// live handler skips recorded stages, but a resumed submit re-submits)
/// never duplicates state.
fn apply_record(jobs: &mut BTreeMap<String, JobState>, rec: JournalRecord) {
    match rec {
        JournalRecord::Submitted {
            job,
            vendor,
            deadline_ms,
            pages,
        } => {
            // Field writes rather than wholesale insert: a duplicate
            // `submitted` (a pending job re-submitted after a crash)
            // must not erase recorded stages.
            let state = jobs.entry(job).or_default();
            state.vendor = vendor;
            state.deadline_ms = deadline_ms;
            if state.pages.is_empty() {
                state.pages = pages;
            }
        }
        JournalRecord::Stage { job, stage, key } => {
            let state = jobs.entry(job).or_default();
            if !state.has_stage(&stage) {
                state.stages.push((stage, key));
            }
        }
        JournalRecord::Done { job, result } => {
            jobs.entry(job).or_default().result = Some(result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassim_diag::NassimError;

    fn temp_journal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nassim-journal-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Submitted {
                job: "j1".to_string(),
                vendor: "cirrus".to_string(),
                deadline_ms: Some(750),
                pages: vec![("u1".to_string(), "<html>a</html>".to_string())],
            },
            JournalRecord::Stage {
                job: "j1".to_string(),
                stage: "parse".to_string(),
                key: "00000000deadbeef".to_string(),
            },
            JournalRecord::Done {
                job: "j1".to_string(),
                result: Value::Obj(vec![("nodes".to_string(), Value::Num(7.0))]),
            },
        ]
    }

    #[test]
    fn records_round_trip_and_tampering_is_a_tear() {
        for rec in sample_records() {
            let line = rec.to_line();
            let back = JournalRecord::parse_line(&line).unwrap();
            assert_eq!(back, rec);
            // Any byte flip inside the record body breaks the checksum.
            let tampered = line.replace("j1", "j2");
            let err = JournalRecord::parse_line(&tampered).unwrap_err();
            assert!(err.contains("checksum mismatch"), "{err}");
        }
        // Framing failures are tears too, not panics.
        for bad in [
            "",
            "{",
            "{\"rec\":{}}",
            "{\"sum\":\"0\",\"rec\":{\"type\":\"nope\"}}",
        ] {
            assert!(JournalRecord::parse_line(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn reopen_replays_the_log_into_the_same_index() {
        let dir = temp_journal("replay");
        {
            let (journal, diags) = JobJournal::open(&dir).unwrap();
            assert!(diags.is_empty());
            for rec in sample_records() {
                journal.append(&rec).unwrap();
            }
            journal
                .append(&JournalRecord::Submitted {
                    job: "j2".to_string(),
                    vendor: "helix".to_string(),
                    deadline_ms: None,
                    pages: vec![("u2".to_string(), "<html>b</html>".to_string())],
                })
                .unwrap();
        }
        let (journal, diags) = JobJournal::open(&dir).unwrap();
        assert!(diags.is_empty());
        assert_eq!(journal.torn_at_open(), 0);
        assert_eq!(journal.job_count(), 2);
        let j1 = journal.job("j1").unwrap();
        assert!(j1.is_done());
        assert!(j1.has_stage("parse"));
        assert_eq!(
            journal.done_result("j1"),
            Some(Value::Obj(vec![("nodes".to_string(), Value::Num(7.0))]))
        );
        // j2 never got its `done` record: it is the pending work.
        let pending = journal.pending_jobs();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].0, "j2");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_the_prefix_survives() {
        let dir = temp_journal("torn");
        let log_path = dir.join(JOURNAL_FILE);
        {
            let (journal, _) = JobJournal::open(&dir).unwrap();
            for rec in sample_records() {
                journal.append(&rec).unwrap();
            }
            // A record that died mid-append: valid prefix of a real line,
            // no terminator.
            let torn = JournalRecord::Stage {
                job: "j9".to_string(),
                stage: "syntax".to_string(),
                key: "0".repeat(16),
            }
            .to_line();
            journal
                .debug_append_raw(&torn.as_bytes()[..torn.len() - 5])
                .unwrap();
        }
        let torn_len = std::fs::metadata(&log_path).unwrap().len();

        let (journal, diags) = JobJournal::open(&dir).unwrap();
        assert_eq!(journal.torn_at_open(), 1);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("torn"), "{}", diags[0].message);
        // The tear is physically gone and the prefix fully replayed.
        assert!(std::fs::metadata(&log_path).unwrap().len() < torn_len);
        assert!(journal.job("j1").unwrap().is_done());
        assert!(journal.job("j9").is_none(), "torn record must not apply");
        // The truncated journal accepts appends again, cleanly.
        journal
            .append(&JournalRecord::Stage {
                job: "j1".to_string(),
                stage: "extra".to_string(),
                key: "f".repeat(16),
            })
            .unwrap();
        let (journal, diags) = JobJournal::open(&dir).unwrap();
        assert!(diags.is_empty());
        assert!(journal.job("j1").unwrap().has_stage("extra"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_torn_append_poisons_until_reopen() {
        let dir = temp_journal("poison");
        let (journal, _) = JobJournal::open(&dir).unwrap();
        let recs = sample_records();
        journal.append(&recs[0]).unwrap();

        // Rate-1.0 plan: the very next append tears mid-record.
        let plan = CrashPlan::uniform(11, 1.0);
        let err = journal.append_with(&recs[1], Some(&plan)).unwrap_err();
        assert!(
            matches!(err, NassimError::CrashInjected { .. }),
            "expected injected crash, got {err}"
        );
        assert_eq!(plan.injection_count(), 1);
        // The torn record was not applied, and the journal refuses
        // further appends until a restart truncates the tear.
        assert!(!journal.job("j1").unwrap().has_stage("parse"));
        let err = journal.append(&recs[2]).unwrap_err();
        assert!(matches!(err, NassimError::Internal { .. }), "{err}");

        // The restart: the tear is truncated, the intent record intact,
        // and the journal is writable again.
        let (journal, diags) = JobJournal::open(&dir).unwrap();
        assert_eq!(journal.torn_at_open(), 1);
        assert_eq!(diags.len(), 1);
        assert_eq!(journal.pending_jobs().len(), 1);
        journal.append(&recs[1]).unwrap();
        journal.append(&recs[2]).unwrap();
        assert!(journal.job("j1").unwrap().is_done());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn borrowed_intent_writes_the_record_line() {
        let dir = temp_journal("borrowed");
        let pages = vec![
            ("u1".to_string(), "<p>\"a\\b\"\n\u{1}é 😀</p>".to_string()),
            ("u2".to_string(), String::new()),
        ];
        let owned = JournalRecord::Submitted {
            job: "j3".to_string(),
            vendor: "norsk".to_string(),
            deadline_ms: Some(90),
            pages: pages.clone(),
        };
        {
            let (journal, _) = JobJournal::open(&dir).unwrap();
            journal
                .append_submitted("j3", "norsk", Some(90), &pages)
                .unwrap();
            assert_eq!(journal.job("j3").unwrap().pages, pages);
        }
        let on_disk = std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(on_disk, owned.to_line() + "\n");
        let (journal, _) = JobJournal::open(&dir).unwrap();
        assert_eq!(journal.job("j3").unwrap().pages, pages);
        // A record with no pages closes its empty array.
        let empty = JournalRecord::submitted_line("j4", "helix", None, &[]);
        assert!(empty.ends_with(r#""pages":[]}}"#), "{empty}");
        assert!(JournalRecord::parse_line(&empty).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replayed_duplicates_never_double_apply() {
        let mut jobs = BTreeMap::new();
        let recs = sample_records();
        // A crash-resumed submit re-submits and re-records: the index
        // must converge, not accumulate.
        for _ in 0..2 {
            for rec in &recs {
                apply_record(&mut jobs, rec.clone());
            }
        }
        let state = jobs.get("j1").unwrap();
        assert_eq!(state.stages.len(), 1);
        assert_eq!(state.pages.len(), 1);
        assert!(state.is_done());
    }
}
