//! What a run reports: the metric list of `BENCHMARK.json`, the outcome a
//! workload returns, and the result line.

use crate::stats;
use crate::trace::Span;
use serde::Value;

/// The benchmark's definition file, compiled in so the names, units and bounds
/// printed here are the ones the acceptance check reads.
const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

/// Error messages kept per run; further failures are only counted.
const MAX_ERRORS: usize = 20;

pub struct Metric {
    pub name: String,
    pub unit: String,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

pub struct Spec {
    /// The default `--seconds`.
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("BENCHMARK.json: missing string `{key}`")),
    }
}

fn list<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match v.get(key) {
        Some(Value::Arr(items)) => Ok(items),
        _ => Err(format!("BENCHMARK.json: missing list `{key}`")),
    }
}

fn metrics(v: &Value, key: &str) -> Result<Vec<Metric>, String> {
    list(v, key)?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: str_field(m, "name")?,
                unit: str_field(m, "unit")?,
                bound: match m.get("bound") {
                    Some(Value::Num(b)) => Some(*b),
                    _ => None,
                },
            })
        })
        .collect()
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let v: Value =
            serde_json::from_str(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(Spec {
            run_seconds: match v.get("run_seconds") {
                Some(Value::Num(s)) => *s as u64,
                _ => return Err("BENCHMARK.json: missing `run_seconds`".to_string()),
            },
            workloads: list(&v, "workloads")?
                .iter()
                .map(|w| str_field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics(&v, "end_to_end")?,
            per_layer: metrics(&v, "per_layer")?,
        })
    }

    /// The metrics a run reports: end-to-end untraced, per-layer traced.
    pub fn reported(&self, traced: bool) -> &[Metric] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct: failed ops and failed checks.
    pub errors: Vec<String>,
    pub error_count: usize,
    pub metrics: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// A check that does not belong to one op failed.
    pub fn error(&mut self, message: String) {
        self.error_count += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(message);
        }
    }

    /// An attempted op failed: an error reply, a shed, a timeout or an
    /// oracle mismatch.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.error(message);
    }

    pub fn correct(&self) -> bool {
        self.error_count == 0
    }

    /// `p50_ms` and `tail_ms` (nearest-rank percentile `tail_p`) of the
    /// op latencies; too few samples beyond the tail fails the run.
    pub fn latency(&mut self, latencies_ms: &[f64], tail_p: f64) {
        self.set("p50_ms", stats::median(latencies_ms));
        match stats::tail(latencies_ms, tail_p) {
            Ok(t) => self.set("tail_ms", t),
            Err(e) => self.error(format!("tail_ms: {e}")),
        }
    }
}

/// Worker-pool jobs and respawns over the spans of work passed to
/// [`PoolDelta::around`], so untimed input generation is left out.
#[derive(Default)]
pub struct PoolDelta {
    jobs: usize,
    respawns: usize,
}

impl PoolDelta {
    pub fn around<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = nassim_exec::pool_stats();
        let out = f();
        let after = nassim_exec::pool_stats();
        self.jobs += after.jobs - before.jobs;
        self.respawns += after.respawns - before.respawns;
        out
    }

    pub fn report(&self, out: &mut Outcome, ops: u64) {
        out.set(
            "exec.pool_jobs_per_op",
            self.jobs as f64 / ops.max(1) as f64,
        );
        out.set("exec.respawns", self.respawns as f64);
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric the
/// run reports, with its unit. A per-layer metric a workload does not
/// exercise reads 0; a missing end-to-end metric is an error.
pub fn result_line(spec: &Spec, outcome: &Outcome, traced: bool) -> Result<String, String> {
    for (name, _) in &outcome.metrics {
        let known = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .any(|m| m.name == *name);
        if !known {
            return Err(format!("metric `{name}` is not in BENCHMARK.json"));
        }
    }
    let mut fields = Vec::new();
    for m in spec.reported(traced) {
        let value = match outcome.metrics.iter().find(|(n, _)| *n == m.name) {
            Some((_, v)) => *v,
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric `{}` was not measured", m.name)),
        };
        if !value.is_finite() {
            return Err(format!("metric `{}` is not finite: {value}", m.name));
        }
        fields.push((
            m.name.clone(),
            Value::Obj(vec![
                ("value".to_string(), Value::Num(value)),
                ("unit".to_string(), Value::Str(m.unit.clone())),
            ]),
        ));
    }
    let line = Value::Obj(vec![
        ("correct".to_string(), Value::Bool(outcome.correct())),
        (
            "attempted".to_string(),
            Value::Num(outcome.attempted as f64),
        ),
        ("failed".to_string(), Value::Num(outcome.failed as f64)),
        ("metrics".to_string(), Value::Obj(fields)),
    ]);
    serde_json::to_string(&line).map_err(|e| e.to_string())
}
