//! Bounded partial top-k selection over `(index, score)` pairs.
//!
//! Every retrieval surface in the pipeline — TF-IDF shortlisting, the
//! mapper's Eq. 2 ranking, weight-search argmax — needs "the k best of n
//! scored candidates, best first, ties broken by lower index". Scoring
//! then fully sorting is O(n log n) per query; this module keeps a
//! bounded min-heap of the k best seen so far, which is O(n log k) and,
//! crucially, exposes the current k-th score as a prune threshold so
//! callers can skip scoring candidates that provably cannot enter the
//! result ([`TopK::prune_below`]).
//!
//! The ordering contract is exactly the one the previous full-sort code
//! used: descending score under `partial_cmp` (incomparable scores rank
//! as equal), then ascending index. [`TopK::into_sorted_vec`] therefore
//! returns byte-identical results to `sort + truncate(k)` for any input
//! without NaN scores.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// "Goodness" order: higher score wins, lower index breaks ties.
fn better(a: (usize, f32), b: (usize, f32)) -> Ordering {
    a.1.partial_cmp(&b.1)
        .unwrap_or(Ordering::Equal)
        .then_with(|| b.0.cmp(&a.0))
}

/// Heap entry ordered so the *worst* candidate sits at the top of a
/// max-heap (i.e. reverse goodness).
#[derive(Clone, Copy)]
struct Worst(usize, f32);

impl PartialEq for Worst {
    fn eq(&self, other: &Self) -> bool {
        better((self.0, self.1), (other.0, other.1)) == Ordering::Equal
    }
}
impl Eq for Worst {}
impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Worst {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the max-heap's max is the worst candidate.
        better((other.0, other.1), (self.0, self.1))
    }
}

/// A bounded collector of the `k` best `(index, score)` candidates.
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Worst>,
}

impl TopK {
    /// Collector for the best `k` candidates.
    pub fn new(k: usize) -> TopK {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k.saturating_add(1).min(4096)),
        }
    }

    /// Offer one candidate; keeps it only if it ranks among the k best
    /// seen so far.
    pub fn offer(&mut self, index: usize, score: f32) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(Worst(index, score));
            return;
        }
        // Full: replace the worst if the candidate beats it.
        if let Some(&Worst(wi, ws)) = self.heap.peek() {
            if better((index, score), (wi, ws)) == Ordering::Greater {
                self.heap.pop();
                self.heap.push(Worst(index, score));
            }
        }
    }

    /// Scores strictly below this bound cannot enter the collection, no
    /// matter their index — the prune threshold for early-exit scoring.
    /// `None` until the collector is full (every candidate still fits).
    pub fn prune_below(&self) -> Option<f32> {
        if self.heap.len() < self.k {
            return None;
        }
        self.heap.peek().map(|w| w.1)
    }

    /// The collected candidates, best first.
    pub fn into_sorted_vec(self) -> Vec<(usize, f32)> {
        let mut out: Vec<(usize, f32)> = self.heap.into_iter().map(|Worst(i, s)| (i, s)).collect();
        out.sort_by(|&a, &b| better(b, a));
        out
    }
}

/// One-shot convenience: the `k` best of `scored`, best first, ties by
/// lower index — equivalent to the full sort-and-truncate it replaces.
pub fn top_k_scored(scored: impl IntoIterator<Item = (usize, f32)>, k: usize) -> Vec<(usize, f32)> {
    let mut top = TopK::new(k);
    for (i, s) in scored {
        top.offer(i, s);
    }
    top.into_sorted_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full-sort reference the heap must match exactly.
    fn reference(mut scored: Vec<(usize, f32)>, k: usize) -> Vec<(usize, f32)> {
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        scored.truncate(k);
        scored
    }

    #[test]
    fn matches_full_sort_reference() {
        let scored: Vec<(usize, f32)> = (0..100)
            .map(|i| (i, ((i * 37 + 11) % 50) as f32 / 10.0))
            .collect();
        for k in [0, 1, 3, 10, 99, 100, 500] {
            assert_eq!(
                top_k_scored(scored.iter().copied(), k),
                reference(scored.clone(), k),
                "k={k}"
            );
        }
    }

    #[test]
    fn ties_break_by_lower_index() {
        let scored = vec![(5, 1.0), (2, 1.0), (9, 1.0), (0, 0.5)];
        assert_eq!(top_k_scored(scored, 2), vec![(2, 1.0), (5, 1.0)]);
    }

    #[test]
    fn prune_threshold_tracks_kth_best() {
        let mut top = TopK::new(2);
        assert_eq!(top.prune_below(), None);
        top.offer(0, 0.3);
        assert_eq!(top.prune_below(), None, "not full yet");
        top.offer(1, 0.8);
        assert_eq!(top.prune_below(), Some(0.3));
        top.offer(2, 0.5);
        assert_eq!(top.prune_below(), Some(0.5));
        // A candidate below the threshold never displaces anything.
        top.offer(3, 0.1);
        assert_eq!(top.into_sorted_vec(), vec![(1, 0.8), (2, 0.5)]);
    }

    #[test]
    fn k_zero_collects_nothing() {
        let mut top = TopK::new(0);
        top.offer(0, 9.0);
        assert!(top.into_sorted_vec().is_empty());
    }

    #[test]
    fn negative_scores_and_duplicates() {
        let scored = vec![(0, -1.0), (1, -0.5), (2, -1.0), (3, -2.0)];
        assert_eq!(top_k_scored(scored.clone(), 3), reference(scored, 3));
    }
}
