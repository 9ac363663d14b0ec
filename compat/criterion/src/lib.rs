//! Offline stand-in for `criterion`.
//!
//! Provides the API surface the workspace's benches use — `Criterion`,
//! `benchmark_group`, `bench_function`, `bench_with_input`, `Bencher::
//! iter`, `Throughput`, `BenchmarkId` and the
//! `criterion_group!`/`criterion_main!` macros — measuring with
//! plain `Instant` timing: a short warm-up, then a fixed sample of
//! iterations whose mean/min are printed per benchmark. No statistics,
//! plots or comparisons, but enough to smoke-run every bench and read
//! relative costs.

use std::fmt;
use std::time::{Duration, Instant};

use std::hint::black_box;

/// Units processed per iteration; folded into the printed report.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Elements(u64),
}

/// A benchmark label built from a parameter.
pub struct BenchmarkId(String);

impl BenchmarkId {
    pub fn from_parameter(parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId(parameter.to_string())
    }
}

/// Anything usable as a benchmark label.
pub trait IntoBenchmarkId {
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.0
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

/// Collects per-iteration timings for one benchmark.
pub struct Bencher {
    samples: Vec<Duration>,
    iterations: usize,
}

impl Bencher {
    fn new(iterations: usize) -> Bencher {
        Bencher {
            samples: Vec::new(),
            iterations,
        }
    }

    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        black_box(routine()); // warm-up
        for _ in 0..self.iterations {
            let t = Instant::now();
            black_box(routine());
            self.samples.push(t.elapsed());
        }
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn report(label: &str, samples: &[Duration], throughput: Option<Throughput>) {
    if samples.is_empty() {
        println!("bench {label:<40} (no samples)");
        return;
    }
    let total: Duration = samples.iter().sum();
    let mean = total / samples.len() as u32;
    let min = *samples.iter().min().expect("non-empty samples");
    let mut line = format!(
        "bench {label:<40} mean {:>12}  min {:>12}  n={}",
        fmt_duration(mean),
        fmt_duration(min),
        samples.len()
    );
    if let Some(Throughput::Elements(n)) = throughput {
        line.push_str(&format!("  {:.0} elem/s", n as f64 / mean.as_secs_f64()));
    }
    println!("{line}");
}

/// The benchmark driver. `Default` gives the configuration the
/// `criterion_group!` macro uses.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        report(name, &b.samples, None);
        self
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.sample_size,
            throughput: None,
            _criterion: self,
        }
    }
}

pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into_id());
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        report(&label, &b.samples, self.throughput);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.0);
        let mut b = Bencher::new(self.sample_size);
        f(&mut b, input);
        report(&label, &b.samples, self.throughput);
        self
    }

    pub fn finish(self) {}
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_samples() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(3);
        group.throughput(Throughput::Elements(10));
        let mut ran = 0u32;
        group.bench_function("count", |b| b.iter(|| ran += 1));
        group.bench_with_input(BenchmarkId::from_parameter(7), &7u32, |b, x| {
            b.iter(|| x + 1)
        });
        group.finish();
        assert!(ran >= 3, "iter ran {ran} times");
    }
}
