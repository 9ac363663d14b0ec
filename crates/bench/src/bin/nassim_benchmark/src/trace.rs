//! The span recorder of traced runs.
//!
//! Spans sit in the benchmark's own code, around each call into a
//! library layer, and are kept in memory until the run ends. A span has
//! an id, its parent, the id of the request it serves, a name, and a
//! start and end in nanoseconds since the run's epoch. Roots named
//! `op.*` are the timed operations; roots named `replay.*` are in-process
//! replays run after the timed loop; every other span is a layer call.
//!
//! A span's self time is its duration minus the part of it its children
//! cover. For an `op.*` root that is the time no layer span accounts for,
//! reported as the workload's `*.unaccounted_ms`.

use serde::Value;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Handle of a started span; [`SpanId::NONE`] when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn dur_ms(&self) -> f64 {
        self.dur_ns() as f64 / 1e6
    }
}

/// One thread's recorder. Threads of one run share an epoch and take
/// disjoint id ranges, so their spans merge into one tree.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    base: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A disabled recorder whose span ids start above `thread << 40`.
    pub fn new(epoch: Instant, thread: u64) -> Tracer {
        Tracer {
            epoch,
            enabled: false,
            base: thread << 40,
            spans: Vec::new(),
        }
    }

    /// Switch recording on or off for the spans started from now on.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Start a span now.
    pub fn start(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        self.start_at(name, parent, req, Instant::now())
    }

    /// Start a span at an earlier instant (an open-loop op starts when it
    /// was due, not when the generator got to it).
    pub fn start_at(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        at: Instant,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start_ns = self.ns(at);
        self.spans.push(Span {
            id: self.base + self.spans.len() as u64 + 1,
            parent: (parent != SpanId::NONE).then_some(parent.0),
            req,
            name,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(self.base + self.spans.len() as u64)
    }

    /// End a span now.
    pub fn end(&mut self, id: SpanId) {
        self.end_at(id, Instant::now());
    }

    pub fn end_at(&mut self, id: SpanId, at: Instant) {
        if id == SpanId::NONE {
            return;
        }
        let end_ns = self.ns(at);
        if let Some(span) = self.spans.get_mut((id.0 - self.base - 1) as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Record a span over an interval the caller already measured.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.start_at(name, parent, req, start);
        self.end_at(id, end);
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.start(name, parent, req);
        let out = f();
        self.end(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

fn children_of(spans: &[Span]) -> HashMap<u64, Vec<&Span>> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    children
}

/// Self time of every span, in ns: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let children = children_of(spans);
    spans
        .iter()
        .map(|s| {
            let mut intervals: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|cs| {
                    cs.iter()
                        .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            intervals.sort_unstable();
            let (mut covered, mut reach) = (0u64, 0u64);
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// The `op.*` roots.
pub fn ops(spans: &[Span]) -> impl Iterator<Item = &Span> {
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name.starts_with("op."))
}

/// Per `op.*` root, the summed duration (ms) of its direct children
/// named `name`; roots without such a child contribute nothing.
pub fn child_totals_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let children = children_of(spans);
    ops(spans)
        .filter_map(|op| {
            let total: u64 = children
                .get(&op.id)?
                .iter()
                .filter(|c| c.name == name)
                .map(|c| c.dur_ns())
                .sum();
            (total > 0).then_some(total as f64 / 1e6)
        })
        .collect()
}

/// Self time (ms) of every `op.*` root: the op time no layer span covers.
pub fn op_self_ms(spans: &[Span]) -> Vec<f64> {
    let selfs = self_times(spans);
    ops(spans).map(|op| selfs[&op.id] as f64 / 1e6).collect()
}

/// Durations (ms) of the spans named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ms)
        .collect()
}

/// The additivity check: over all `op.*` roots, the direct children's
/// durations plus the roots' self time must equal the roots' duration
/// within `tolerance` (a share). Fails when children overlap or leave
/// their parent, which would make the breakdown double-count.
pub fn check_additivity(spans: &[Span], tolerance: f64) -> Result<(), String> {
    let children = children_of(spans);
    let selfs = self_times(spans);
    let (mut total, mut parts) = (0u64, 0u64);
    for op in ops(spans) {
        total += op.dur_ns();
        parts += selfs[&op.id];
        parts += children
            .get(&op.id)
            .map_or(0, |cs| cs.iter().map(|c| c.dur_ns()).sum::<u64>());
    }
    if total == 0 {
        return Err("no traced op spans".to_string());
    }
    let off = (parts as f64 - total as f64).abs() / total as f64;
    if off > tolerance {
        return Err(format!(
            "layer spans plus unaccounted time are {parts} ns against {total} ns of traced op time ({:.2}% off)",
            off * 100.0
        ));
    }
    Ok(())
}

/// The per-layer report. Spans are grouped by their root's name and
/// their own; per group: the count, the p50 duration, the p50 self time,
/// and the group's self time as a share of its roots' time. A root row's
/// share is the time no layer span accounts for.
pub fn layer_table(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut root_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut groups: BTreeMap<(&str, &str), Vec<&Span>> = BTreeMap::new();
    for s in spans {
        let mut top = s;
        while let Some(parent) = top.parent.and_then(|p| by_id.get(&p)) {
            top = parent;
        }
        let root = top.name;
        if s.parent.is_none() {
            *root_ns.entry(root).or_default() += s.dur_ns();
        }
        groups.entry((root, s.name)).or_default().push(s);
    }
    let mut out = format!(
        "{:<56} {:>7} {:>12} {:>12} {:>8}\n",
        "span", "count", "p50 ms", "p50 self ms", "share"
    );
    for ((root, name), group) in groups {
        let durs: Vec<f64> = group.iter().map(|s| s.dur_ms()).collect();
        let self_ms: Vec<f64> = group.iter().map(|s| selfs[&s.id] as f64 / 1e6).collect();
        let self_ns: u64 = group.iter().map(|s| selfs[&s.id]).sum();
        let share = self_ns as f64 / root_ns.get(root).copied().unwrap_or(0).max(1) as f64;
        let label = if root == name {
            name.to_string()
        } else {
            format!("{root} > {name}")
        };
        out.push_str(&format!(
            "{label:<56} {:>7} {:>12.4} {:>12.4} {:>7.2}%\n",
            group.len(),
            crate::stats::median(&durs),
            crate::stats::median(&self_ms),
            share * 100.0
        ));
    }
    out
}

/// The spans as a JSON array, written at exit for `--spans`.
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<Value> = spans
        .iter()
        .map(|s| {
            Value::Obj(vec![
                ("id".to_string(), Value::Num(s.id as f64)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("req".to_string(), Value::Num(s.req as f64)),
                ("name".to_string(), Value::Str(s.name.to_string())),
                ("start_ns".to_string(), Value::Num(s.start_ns as f64)),
                ("end_ns".to_string(), Value::Num(s.end_ns as f64)),
            ])
        })
        .collect();
    serde_json::to_string(&Value::Arr(rows)).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        // op [0,100): children [10,30) and [50,90); grandchild [55,60)
        // inside the second child; an overlapping child [20,40) adds only
        // its uncovered part.
        let spans = vec![
            span(1, None, "op.x", 0, 100),
            span(2, Some(1), "a", 10, 30),
            span(3, Some(1), "b", 50, 90),
            span(4, Some(3), "c", 55, 60),
            span(5, Some(1), "d", 20, 40),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 30 - 40);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 40 - 5);
        assert_eq!(selfs[&4], 5);
        assert_eq!(selfs[&5], 20);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![span(1, None, "op.x", 10, 20), span(2, Some(1), "a", 0, 15)];
        assert_eq!(self_times(&spans)[&1], 5);
    }

    #[test]
    fn additivity_holds_for_nested_spans_and_fails_on_overlap() {
        let nested = vec![
            span(1, None, "op.x", 0, 100),
            span(2, Some(1), "a", 0, 40),
            span(3, Some(1), "b", 40, 70),
            span(4, Some(3), "c", 45, 50),
        ];
        assert!(check_additivity(&nested, 0.01).is_ok());
        let overlapping = vec![
            span(1, None, "op.x", 0, 100),
            span(2, Some(1), "a", 0, 60),
            span(3, Some(1), "b", 40, 100),
        ];
        assert!(check_additivity(&overlapping, 0.01).is_err());
    }

    #[test]
    fn child_totals_sum_per_op() {
        let spans = vec![
            span(1, None, "op.x", 0, 10_000_000),
            span(2, Some(1), "parse", 0, 2_000_000),
            span(3, Some(1), "parse", 2_000_000, 5_000_000),
            span(4, None, "op.x", 0, 1_000_000),
            span(5, None, "replay.y", 0, 1_000_000),
        ];
        assert_eq!(child_totals_ms(&spans, "parse"), vec![5.0]);
        assert_eq!(op_self_ms(&spans), vec![5.0, 1.0]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, 3);
        let id = t.start("op.x", SpanId::NONE, 1);
        assert_eq!(id, SpanId::NONE);
        t.end(id);
        t.set_enabled(true);
        let op = t.start("op.x", SpanId::NONE, 7);
        assert_eq!(t.span("a", op, 7, || 42), 42);
        t.end(op);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, (3 << 40) + 1);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
