//! Int8 quantized scoring for embedding retrieval.
//!
//! The mapper's exact path ranks UDM leaves by f32 dot products against
//! pre-normalized context embeddings. At the million-leaf scale of the
//! ROADMAP north-star that scan is memory-bound: 4 bytes/dim/leaf of f32
//! traffic per query. This module trades 4× memory traffic for a bounded
//! approximation error using the classic per-dimension symmetric scheme:
//!
//! * **Corpus side** — one scale per dimension, `s[d] = max_corpus|x[d]| / 127`
//!   (all-zero dimensions get `s[d] = 1.0` so they quantize to 0), and each
//!   corpus row is stored as `q[d] = round(x[d] / s[d])` clamped to
//!   `[-127, 127]`.
//! * **Query side** — the per-dimension scales are *folded into the query*:
//!   with `z[d] = y[d] * s[d]`, the exact dot `Σ y·x ≈ Σ z[d] q[d]`, and `z`
//!   is itself symmetric-quantized with a single query scale
//!   `sq = max_d|z[d]| / 127`, giving `dot ≈ sq · Σ p[d] q[d]` — a pure
//!   i8×i8 integer kernel with widening i32 accumulation.
//!
//! Because `sq` is constant per query, ranking corpus rows by the raw i32
//! dot is identical to ranking by the approximate score, so candidate
//! selection never touches floats. The approximation error is analytically
//! bounded (see [`Quantizer::error_bound`]), and the intended use is
//! **two-phase rerank**: an i32 scan keeps a generous candidate set
//! ([`Quantizer::candidates`]), then the caller rescores the survivors with
//! the exact f32 kernel — so the only possible divergence from the exact
//! path is a true top-k row failing to survive the candidate cut, which the
//! differential proptests in `tests/quant_parity.rs` bound.
//!
//! Everything here is deterministic: scale fitting, rounding and the
//! candidate scan are pure functions of the input rows, independent of
//! thread count or call order.

/// Per-dimension symmetric int8 quantizer fitted over a corpus of rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantizer {
    /// Per-dimension scale: `x ≈ s[d] * q[d]` with `q[d] ∈ [-127, 127]`.
    scales: Vec<f32>,
}

/// A query folded into the corpus scales: `dot ≈ scale · Σ p[d] q[d]`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedQuery {
    /// Symmetric-quantized `y[d] * s[d]`.
    pub codes: Vec<i8>,
    /// The single query scale `sq` (1.0 for an all-zero query).
    pub scale: f32,
}

impl Quantizer {
    /// Fit per-dimension scales over `rows` (each of width `dim`).
    ///
    /// Rows shorter than `dim` contribute only their present dimensions;
    /// dimensions never observed (or observed only as zero) get scale 1.0.
    pub fn fit<'a>(rows: impl IntoIterator<Item = &'a [f32]>, dim: usize) -> Quantizer {
        let mut maxes = vec![0f32; dim];
        for row in rows {
            for (m, &x) in maxes.iter_mut().zip(row.iter()) {
                let a = x.abs();
                if a > *m {
                    *m = a;
                }
            }
        }
        let scales = maxes
            .into_iter()
            .map(|m| if m > 0.0 { m / 127.0 } else { 1.0 })
            .collect();
        Quantizer { scales }
    }

    /// Rebuild a quantizer from previously fitted scales (persistence
    /// path). Non-positive scales are replaced by the 1.0 guard so a
    /// corrupt store can never divide by zero.
    pub fn from_scales(scales: Vec<f32>) -> Quantizer {
        let scales = scales
            .into_iter()
            .map(|s| if s > 0.0 && s.is_finite() { s } else { 1.0 })
            .collect();
        Quantizer { scales }
    }

    /// Width this quantizer was fitted for.
    pub fn dim(&self) -> usize {
        self.scales.len()
    }

    /// The fitted per-dimension scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Quantize one corpus row: `q[d] = round(x[d] / s[d])` clamped to
    /// `[-127, 127]`. Rows shorter than `dim` are zero-padded.
    pub fn encode(&self, row: &[f32]) -> Vec<i8> {
        self.scales
            .iter()
            .enumerate()
            .map(|(d, &s)| {
                let x = row.get(d).copied().unwrap_or(0.0);
                quantize_one(x / s)
            })
            .collect()
    }

    /// Fold a query into the corpus scales and symmetric-quantize it.
    pub fn encode_query(&self, query: &[f32]) -> QuantizedQuery {
        let folded: Vec<f32> = self
            .scales
            .iter()
            .enumerate()
            .map(|(d, &s)| query.get(d).copied().unwrap_or(0.0) * s)
            .collect();
        let max = folded.iter().fold(0f32, |m, z| m.max(z.abs()));
        let scale = if max > 0.0 { max / 127.0 } else { 1.0 };
        let codes = folded.iter().map(|&z| quantize_one(z / scale)).collect();
        QuantizedQuery { codes, scale }
    }

    /// Approximate dot product: `sq · Σ p[d] q[d]`.
    pub fn approx_dot(&self, query: &QuantizedQuery, row: &[i8]) -> f32 {
        query.scale * dot_i8(&query.codes, row) as f32
    }

    /// Analytic bound on `|exact_dot − approx_dot|` for one (query, row)
    /// pair: the corpus rounding error contributes `Σ |y[d]| · s[d] / 2`
    /// and the query rounding error `(sq / 2) · Σ |q[d]|`.
    pub fn error_bound(&self, query: &[f32], quantized: &QuantizedQuery, row: &[i8]) -> f32 {
        let corpus_err: f32 = self
            .scales
            .iter()
            .enumerate()
            .map(|(d, &s)| query.get(d).copied().unwrap_or(0.0).abs() * s * 0.5)
            .sum();
        let query_err: f32 =
            quantized.scale * 0.5 * row.iter().map(|&q| (q as i32).abs() as f32).sum::<f32>();
        corpus_err + query_err
    }

    /// Two-phase candidate scan: rank every corpus row by the raw i32 dot
    /// (per-query scale is constant, so i32 order == approximate-score
    /// order) and return the indices of the top `r` survivors, sorted by
    /// descending i32 dot with ties to the lower index.
    ///
    /// `rows` is the flattened corpus (`n × dim()`, row-major). Callers
    /// rescore the survivors with the exact f32 kernel.
    pub fn candidates(&self, query: &QuantizedQuery, rows: &[i8], r: usize) -> Vec<usize> {
        let dim = self.scales.len();
        if dim == 0 || r == 0 {
            return Vec::new();
        }
        let mut heap = TopKI32::new(r);
        for (i, row) in rows.chunks_exact(dim).enumerate() {
            heap.offer(i, dot_i8(&query.codes, row));
        }
        heap.into_sorted_indices()
    }

    /// [`Quantizer::candidates`] restricted to a subset of row indices —
    /// the probe path of an inverted-file index scans only the rows of the
    /// probed clusters. Ties still break to the lower *row index* (not
    /// visit order), so the result is independent of the order `indices`
    /// arrives in.
    pub fn candidates_among(
        &self,
        query: &QuantizedQuery,
        rows: &[i8],
        indices: impl IntoIterator<Item = usize>,
        r: usize,
    ) -> Vec<usize> {
        let dim = self.scales.len();
        if dim == 0 || r == 0 {
            return Vec::new();
        }
        let mut heap = TopKI32::new(r);
        for i in indices {
            let row = &rows[i * dim..(i + 1) * dim];
            heap.offer(i, dot_i8(&query.codes, row));
        }
        heap.into_sorted_indices()
    }
}

/// Round-to-nearest and clamp into the i8 symmetric range.
#[inline]
fn quantize_one(x: f32) -> i8 {
    x.round().clamp(-127.0, 127.0) as i8
}

/// Integer dot product with widening i32 accumulation, unrolled into four
/// independent accumulators (mirrors the f32 `dot_unrolled` in the mapper).
/// i8×i8 products are ≤ 16129, so i32 is overflow-safe up to ~133k dims.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    let n = a.len().min(b.len());
    let (mut s0, mut s1, mut s2, mut s3) = (0i32, 0i32, 0i32, 0i32);
    let chunks = n / 4;
    for c in 0..chunks {
        let i = c * 4;
        s0 += a[i] as i32 * b[i] as i32;
        s1 += a[i + 1] as i32 * b[i + 1] as i32;
        s2 += a[i + 2] as i32 * b[i + 2] as i32;
        s3 += a[i + 3] as i32 * b[i + 3] as i32;
    }
    for i in chunks * 4..n {
        s0 += a[i] as i32 * b[i] as i32;
    }
    s0 + s1 + s2 + s3
}

/// Bounded top-k over i32 scores with the ranking contract shared by the
/// whole retrieval stack: descending score, ties to the lower index. Kept
/// integer-native so candidate selection is exact even where an f32
/// conversion of the score would collapse distinct i32 values (> 2^24).
struct TopKI32 {
    k: usize,
    /// Sorted ascending by (score, Reverse(index)) — worst entry first.
    entries: Vec<(i32, usize)>,
}

impl TopKI32 {
    fn new(k: usize) -> TopKI32 {
        TopKI32 {
            k,
            entries: Vec::with_capacity(k + 1),
        }
    }

    fn offer(&mut self, index: usize, score: i32) {
        if self.k == 0 {
            return;
        }
        let beats = |&(s, i): &(i32, usize)| score > s || (score == s && index < i);
        if self.entries.len() == self.k {
            match self.entries.first() {
                Some(worst) if beats(worst) => {
                    self.entries.remove(0);
                }
                _ => return,
            }
        }
        // Entries the candidate beats are exactly the worst-first prefix,
        // so the candidate slots right after them.
        let pos = self.entries.partition_point(beats);
        self.entries.insert(pos, (score, index));
    }

    fn into_sorted_indices(self) -> Vec<usize> {
        // entries are worst-first; reverse for best-first.
        self.entries.into_iter().rev().map(|(_, i)| i).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_scales_cover_corpus_range() {
        let rows: Vec<Vec<f32>> = vec![vec![1.0, -3.0, 0.0], vec![-2.0, 0.5, 0.0]];
        let q = Quantizer::fit(rows.iter().map(Vec::as_slice), 3);
        assert_eq!(q.scales()[0], 2.0 / 127.0);
        assert_eq!(q.scales()[1], 3.0 / 127.0);
        assert_eq!(q.scales()[2], 1.0); // all-zero dimension guard
                                        // The max-magnitude entries land exactly on ±127.
        assert_eq!(q.encode(&rows[0]), vec![64, -127, 0]);
        assert_eq!(q.encode(&rows[1]), vec![-127, 21, 0]);
    }

    #[test]
    fn approx_dot_respects_analytic_bound() {
        let rows: Vec<Vec<f32>> = vec![
            vec![0.3, -0.9, 0.11, 0.0],
            vec![-0.5, 0.2, 0.77, 0.0],
            vec![0.0; 4],
        ];
        let q = Quantizer::fit(rows.iter().map(Vec::as_slice), 4);
        let query = [0.4, 0.1, -0.6, 2.0];
        let qq = q.encode_query(&query);
        for row in &rows {
            let exact: f32 = query.iter().zip(row).map(|(a, b)| a * b).sum();
            let codes = q.encode(row);
            let approx = q.approx_dot(&qq, &codes);
            let bound = q.error_bound(&query, &qq, &codes) + 1e-5;
            assert!(
                (exact - approx).abs() <= bound,
                "exact {exact} vs approx {approx} exceeds bound {bound}"
            );
        }
    }

    #[test]
    fn candidates_rank_by_integer_dot_with_stable_ties() {
        // dim 1 corpus: values 3, 1, 3, 2 → dots with query 1.0 tie at the
        // two 3s; the lower index must win, and order is descending.
        let q = Quantizer { scales: vec![1.0] };
        let rows: Vec<i8> = vec![3, 1, 3, 2];
        let query = QuantizedQuery {
            codes: vec![1],
            scale: 1.0,
        };
        assert_eq!(q.candidates(&query, &rows, 3), vec![0, 2, 3]);
        assert_eq!(q.candidates(&query, &rows, 10), vec![0, 2, 3, 1]);
        assert_eq!(q.candidates(&query, &rows, 0), Vec::<usize>::new());
    }

    #[test]
    fn candidates_among_is_order_independent() {
        let q = Quantizer { scales: vec![1.0] };
        let rows: Vec<i8> = vec![3, 1, 3, 2, 5];
        let query = QuantizedQuery {
            codes: vec![1],
            scale: 1.0,
        };
        // Same subset, two visit orders → identical ranking (global index
        // tie-break, not offer order).
        let a = q.candidates_among(&query, &rows, [0, 2, 3], 2);
        let b = q.candidates_among(&query, &rows, [3, 2, 0], 2);
        assert_eq!(a, vec![0, 2]);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_query_and_zero_corpus_are_well_defined() {
        let q = Quantizer::fit(std::iter::empty(), 4);
        assert_eq!(q.scales(), &[1.0; 4]);
        let qq = q.encode_query(&[0.0; 4]);
        assert_eq!(qq.scale, 1.0);
        assert_eq!(qq.codes, vec![0; 4]);
        assert_eq!(q.approx_dot(&qq, &[5, -5, 5, -5]), 0.0);
    }

    #[test]
    fn dot_i8_matches_naive_reference() {
        let a: Vec<i8> = (-63..64).collect();
        let b: Vec<i8> = (-63..64).rev().collect();
        let naive: i32 = a.iter().zip(&b).map(|(&x, &y)| x as i32 * y as i32).sum();
        assert_eq!(dot_i8(&a, &b), naive);
        assert_eq!(dot_i8(&[], &[]), 0);
        assert_eq!(dot_i8(&[127; 5], &[127; 3]), 3 * 127 * 127);
    }
}
