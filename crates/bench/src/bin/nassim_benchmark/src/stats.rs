//! Summary statistics over latency samples, and the open-loop schedule.

use std::time::{Duration, Instant};

/// Fewest samples that must lie beyond a reported tail percentile; a
/// tail resting on fewer is one or two outliers, not a percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0 < p ≤ 1): the smallest sample with at
/// least `p` of the samples at or below it; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    v.get(rank(p, v.len()) - 1).copied().unwrap_or(0.0)
}

/// [`percentile`] for a reported tail: fails unless at least
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn tail(values: &[f64], p: f64) -> Result<f64, String> {
    let beyond = values.len().saturating_sub(rank(p, values.len()));
    if beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{} over {} samples leaves {beyond} beyond it, fewer than {MIN_TAIL_SAMPLES}",
            p * 100.0,
            values.len()
        ));
    }
    Ok(percentile(values, p))
}

/// Quartiles `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them, so spreads printed here match the acceptance check.
/// `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = (n + 1) as i64;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = i * m - j * 4;
        let j = j as usize;
        (v[j - 1] * (4 - delta) as f64 + v[j] * delta as f64) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// `(traced − untraced) / untraced` of the two medians, in percent.
pub fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    let base = median(untraced);
    if base == 0.0 {
        return 0.0;
    }
    (median(traced) - base) / base * 100.0
}

/// One open-loop operation: when it was due, when the generator got to
/// send it, and when its reply completed.
#[derive(Debug, Clone, Copy)]
pub struct Scheduled {
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
}

impl Scheduled {
    /// Latency from the due time, so a stall also charges the requests
    /// queued behind it.
    pub fn latency_ms(&self) -> f64 {
        ms(self.done.saturating_duration_since(self.due))
    }

    /// How late the generator sent the request.
    pub fn lag_ms(&self) -> f64 {
        ms(self.sent.saturating_duration_since(self.due))
    }
}

/// Drive `n` operations due every `period` from `start`: sleep until each
/// is due unless the previous one overran, then run it. `op` gets the
/// index and due time.
pub fn open_loop<T>(
    start: Instant,
    period: Duration,
    n: usize,
    mut op: impl FnMut(usize, Instant) -> T,
) -> Vec<(Scheduled, T)> {
    (0..n)
        .map(|i| {
            let due = start + period * i as u32;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let out = op(i, due);
            let sched = Scheduled {
                due,
                sent,
                done: Instant::now(),
            };
            (sched, out)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_picks_the_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values, 0.90).unwrap(), 90.0);
        let values: Vec<f64> = (1..=500).rev().map(f64::from).collect();
        assert_eq!(tail(&values, 0.98).unwrap(), 490.0);
    }

    #[test]
    fn tail_fails_with_fewer_than_ten_samples_beyond() {
        let values: Vec<f64> = (1..=99).map(f64::from).collect();
        let err = tail(&values, 0.90).unwrap_err();
        assert!(err.contains("leaves 9 beyond"), "{err}");
        let values: Vec<f64> = (1..=199).map(f64::from).collect();
        assert!(tail(&values, 0.95).is_err());
        assert!(tail(&[], 0.5).is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([1, 5, 9], n=4) == [1.0, 5.0, 9.0]
        assert_eq!(quartiles(&[9.0, 1.0, 5.0]), Some((1.0, 5.0, 9.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        // Each op takes 20 ms but is due every 5 ms: the generator falls
        // behind, and the wait it imposes is charged to later requests.
        let start = Instant::now();
        let out = open_loop(start, Duration::from_millis(5), 4, |_, _| {
            std::thread::sleep(Duration::from_millis(20));
        });
        assert_eq!(out.len(), 4);
        for (i, (s, ())) in out.iter().enumerate() {
            assert_eq!(s.due, start + Duration::from_millis(5 * i as u64));
            assert!(s.lag_ms() >= 15.0 * i as f64, "op {i}: lag {}", s.lag_ms());
            assert!(
                s.latency_ms() >= s.lag_ms() + 20.0,
                "op {i}: latency {}",
                s.latency_ms()
            );
        }
    }

    #[test]
    fn open_loop_waits_for_due_times() {
        let start = Instant::now();
        let out = open_loop(start, Duration::from_millis(10), 3, |i, due| (i, due));
        for (i, (s, (j, due))) in out.iter().enumerate() {
            assert_eq!(i, *j);
            assert_eq!(s.due, *due);
            assert!(s.sent >= s.due, "op {i} was sent before it was due");
        }
    }
}
