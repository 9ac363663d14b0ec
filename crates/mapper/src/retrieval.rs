//! Sub-linear retrieval over the mapper's leaf embeddings (ROADMAP 3).
//!
//! The exact DL scan (`Mapper::dl_scan`) evaluates Eq. 2's k_V × k_U
//! cosine grid for **every** UDM leaf. Under the paper's uniform weights
//! that grid collapses: with rows pre-scaled to unit norm,
//!
//! ```text
//!   sim(V, U) = Σ_ij v̂_i·û_j / (k_V·k_U) = (Σ_i v̂_i)·(Σ_j û_j) / (k_V·k_U)
//! ```
//!
//! so each leaf is representable by one *pooled* vector and ranking
//! reduces to a single max-inner-product search. This module exploits
//! that identity twice:
//!
//! * [`RetrievalMode::Quantized`] — the pooled corpus is int8-quantized
//!   ([`nassim_nlp::quant`]); a query is folded into the corpus scales and
//!   scanned with the widening i32 dot kernel. The i32 ranking selects a
//!   generous candidate set (`max(4k, 32)`), which is then **rescored by
//!   the exact f32 Eq. 2 kernel** — survivors carry bit-identical scores
//!   to the exact path, so the only possible divergence is a true top-k
//!   leaf missing the candidate cut.
//! * [`RetrievalMode::Ann`] — an IVF index on top of the same quantized
//!   corpus: spherical k-means (`nlist ≈ √n`, fixed Lloyd iterations,
//!   deterministic evenly-spaced seeding) partitions the pooled vectors;
//!   a query probes the `probes` highest-dot centroids and only the
//!   member leaves of those clusters enter the quantized scan + rescore.
//!
//! **Determinism.** Construction fans the pooling / quantization /
//! assignment passes across the worker pool, but every per-leaf result is
//! a pure function of that leaf and centroid accumulation runs serially
//! in leaf order — so the index (and therefore every query answer) is
//! byte-identical at any `NASSIM_THREADS`. Candidate selection breaks
//! ties by the *global* leaf index, never visit order.
//!
//! **Fallbacks.** Non-uniform Eq. 2 `weights` break the pooling identity,
//! so a mapper with custom weights silently serves sub-linear queries
//! through the exact scan. Corpora that cannot pool (no embeddings, or
//! mixed row counts/widths) keep the mode at `Exact`.

use crate::models::{context_similarity_normalized, Mapper, NormalizedEmbedding};
use nassim_corpus::{keyed, Fnv1a};
use nassim_nlp::quant::{QuantizedQuery, Quantizer};
use nassim_nlp::topk::TopK;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Leaves per worker chunk for the pooling / encoding / assignment passes
/// of index construction: each item is a few hundred nanoseconds, so
/// chunks amortise pool dispatch.
const BUILD_MIN_CHUNK: usize = 256;

/// Lloyd iterations for the IVF k-means. Few and fixed: the index only
/// routes candidate generation (survivors are exactly rescored), so a
/// lightly-converged clustering costs recall, not correctness — and a
/// fixed count keeps construction time predictable and deterministic.
const LLOYD_ITERS: usize = 4;

/// Below this corpus size an IVF layer is pure overhead (nlist would be a
/// handful); `Ann` degrades to the quantized full scan.
const IVF_MIN_LEAVES: usize = 512;

/// Candidate budget for the two-phase rerank: `max(RERANK_FACTOR · k,
/// RERANK_MIN)` survivors are exactly rescored.
const RERANK_FACTOR: usize = 4;
const RERANK_MIN: usize = 32;

/// How the DL scan ranks candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetrievalMode {
    /// The exact full scan — the default; bit-identical to the mapper's
    /// behaviour before sub-linear retrieval existed.
    #[default]
    Exact,
    /// Int8 quantized full scan + exact f32 rescore of the survivors.
    Quantized,
    /// IVF probe + quantized scan of the probed clusters + exact rescore.
    /// `probes` = number of clusters scanned; `0` means auto
    /// (`max(8, nlist/4)` — tuned for the documented recall@10 ≥ 0.95
    /// floor at bench scale while still probing a shrinking corpus
    /// fraction as `nlist` grows with √n).
    Ann { probes: usize },
}

impl RetrievalMode {
    /// Parse a user-facing mode string: `exact`, `quantized`, `ann` or
    /// `ann:<probes>`. Anything else is `None` (the serve protocol
    /// answers it with a typed `malformed` error).
    pub fn parse(s: &str) -> Option<RetrievalMode> {
        match s {
            "exact" => Some(RetrievalMode::Exact),
            "quantized" => Some(RetrievalMode::Quantized),
            "ann" => Some(RetrievalMode::Ann { probes: 0 }),
            _ => {
                let probes = s.strip_prefix("ann:")?.parse::<usize>().ok()?;
                Some(RetrievalMode::Ann { probes })
            }
        }
    }

    /// Canonical mode name (probe counts elided).
    pub fn as_str(&self) -> &'static str {
        match self {
            RetrievalMode::Exact => "exact",
            RetrievalMode::Quantized => "quantized",
            RetrievalMode::Ann { .. } => "ann",
        }
    }
}

/// The quantized pooled corpus plus (for `Ann`) the IVF layer. Immutable
/// once built; shared by mapper clones behind an `Arc`.
pub struct SublinearIndex {
    quant: Quantizer,
    /// `n × dim` int8 pooled rows, row-major.
    codes: Vec<i8>,
    n: usize,
    dim: usize,
    /// k_U — uniform across the corpus (build precondition), so the
    /// per-leaf Eq. 2 divisor is query-constant and i32 ranking is score
    /// ranking.
    rows_per_context: usize,
    ivf: Option<IvfIndex>,
    /// FNV-1a over the pooled corpus bits + layout — the artifact-store
    /// key; a corpus change invalidates the persisted index.
    pub corpus_hash: u64,
    /// Wall-clock of the build that produced this index, in ms (0 for an
    /// index restored from the artifact store — a session statistic, not
    /// content).
    pub build_ms: f64,
}

/// Inverted-file layer: spherical k-means centroids over the pooled f32
/// rows and the member leaves of each cluster.
struct IvfIndex {
    nlist: usize,
    /// `nlist × dim`, unit-normalized (zero if a cluster's mean is zero).
    centroids: Vec<f32>,
    /// Ascending leaf indices per cluster.
    clusters: Vec<Vec<u32>>,
}

/// Pool every embedding and validate the corpus is uniform enough for the
/// pooling identity: same row count and width everywhere, both non-zero.
fn pooled_corpus(embeddings: &[Arc<NormalizedEmbedding>]) -> Option<(Vec<Vec<f32>>, usize, usize)> {
    let first = embeddings.first()?;
    let (dim, ku) = (first.width(), first.row_count());
    if dim == 0 || ku == 0 {
        return None;
    }
    if embeddings
        .iter()
        .any(|e| e.width() != dim || e.row_count() != ku)
    {
        return None;
    }
    let pooled =
        nassim_exec::par_map_chunked(embeddings, BUILD_MIN_CHUNK, |_, e| e.pooled_scaled());
    Some((pooled, dim, ku))
}

/// Content hash of a pooled corpus: bit-exact over every row, length
/// framed, plus the layout parameters that shape the index.
fn pooled_hash(pooled: &[Vec<f32>], dim: usize, ku: usize) -> u64 {
    let mut h = Fnv1a::new();
    h.write_usize(pooled.len());
    h.write_usize(dim);
    h.write_usize(ku);
    for row in pooled {
        for &x in row {
            h.write_u64(x.to_bits() as u64);
        }
    }
    h.finish()
}

/// Unit-normalize in place; all-zero vectors stay zero.
fn normalize(v: &mut [f32]) {
    let n = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if n > 0.0 {
        for x in v {
            *x /= n;
        }
    }
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

impl SublinearIndex {
    /// Build the quantized corpus (and, for large corpora, the IVF layer)
    /// over the mapper's leaf embeddings. `None` when the corpus cannot
    /// pool (empty, or non-uniform shapes).
    pub(crate) fn build(embeddings: &[Arc<NormalizedEmbedding>]) -> Option<SublinearIndex> {
        let (pooled, dim, ku) = pooled_corpus(embeddings)?;
        let hash = pooled_hash(&pooled, dim, ku);
        Some(SublinearIndex::from_pooled(pooled, dim, ku, hash))
    }

    fn from_pooled(pooled: Vec<Vec<f32>>, dim: usize, ku: usize, hash: u64) -> SublinearIndex {
        let start = Instant::now();
        let n = pooled.len();
        let quant = Quantizer::fit(pooled.iter().map(Vec::as_slice), dim);
        let code_rows =
            nassim_exec::par_map_chunked(&pooled, BUILD_MIN_CHUNK, |_, row| quant.encode(row));
        let mut codes = Vec::with_capacity(n * dim);
        for row in code_rows {
            codes.extend_from_slice(&row);
        }
        let ivf = IvfIndex::build(&pooled, dim);
        SublinearIndex {
            quant,
            codes,
            n,
            dim,
            rows_per_context: ku,
            ivf,
            corpus_hash: hash,
            build_ms: start.elapsed().as_secs_f64() * 1e3,
        }
    }

    /// Number of IVF clusters (0 when the corpus is below the IVF floor).
    pub fn nlist(&self) -> usize {
        self.ivf.as_ref().map(|ivf| ivf.nlist).unwrap_or(0)
    }

    /// Effective probe count for a requested `probes` (0 → auto).
    pub fn effective_probes(&self, probes: usize) -> usize {
        let nlist = self.nlist();
        if nlist == 0 {
            return 0;
        }
        let auto = (nlist / 4).max(8);
        if probes == 0 {
            auto.min(nlist)
        } else {
            probes.min(nlist)
        }
    }

    /// Quantized full-corpus candidate scan.
    fn scan_all(&self, qq: &QuantizedQuery, r: usize) -> Vec<usize> {
        self.quant.candidates(qq, &self.codes, r.min(self.n))
    }

    /// IVF probe + quantized scan of the probed clusters. Falls back to
    /// the full scan when no IVF layer exists (small corpus).
    fn scan_probed(
        &self,
        pooled_q: &[f32],
        qq: &QuantizedQuery,
        probes: usize,
        r: usize,
    ) -> Vec<usize> {
        let Some(ivf) = &self.ivf else {
            return self.scan_all(qq, r);
        };
        let probes = self.effective_probes(probes);
        let mut top = TopK::new(probes);
        for c in 0..ivf.nlist {
            let centroid = &ivf.centroids[c * self.dim..(c + 1) * self.dim];
            top.offer(c, dot(pooled_q, centroid));
        }
        let members = top
            .into_sorted_vec()
            .into_iter()
            .flat_map(|(c, _)| ivf.clusters[c].iter().map(|&i| i as usize));
        self.quant.candidates_among(qq, &self.codes, members, r)
    }
}

impl IvfIndex {
    /// Deterministic spherical k-means over the pooled rows. Seeding is
    /// evenly-spaced leaf picks (pure function of `n`/`nlist`); each Lloyd
    /// iteration assigns points in parallel (pure per point) and
    /// accumulates centroids serially in leaf order, so the result is
    /// independent of worker count.
    fn build(pooled: &[Vec<f32>], dim: usize) -> Option<IvfIndex> {
        let n = pooled.len();
        if n < IVF_MIN_LEAVES {
            return None;
        }
        let nlist = (n as f64).sqrt().ceil() as usize;
        let mut centroids = vec![0.0f32; nlist * dim];
        for c in 0..nlist {
            let pick = c * n / nlist;
            let row = &pooled[pick];
            let slot = &mut centroids[c * dim..(c + 1) * dim];
            slot.copy_from_slice(row);
            normalize(slot);
        }
        for _ in 0..LLOYD_ITERS {
            let assign = nassim_exec::par_map_chunked(pooled, BUILD_MIN_CHUNK, |_, row| {
                nearest_centroid(&centroids, dim, nlist, row)
            });
            // Serial accumulation in leaf order: deterministic means.
            let mut sums = vec![0.0f64; nlist * dim];
            let mut counts = vec![0usize; nlist];
            for (row, &c) in pooled.iter().zip(&assign) {
                counts[c as usize] += 1;
                let slot = &mut sums[c as usize * dim..(c as usize + 1) * dim];
                for (s, &x) in slot.iter_mut().zip(row) {
                    *s += x as f64;
                }
            }
            for c in 0..nlist {
                if counts[c] == 0 {
                    continue; // empty cluster keeps its previous centroid
                }
                let slot = &mut centroids[c * dim..(c + 1) * dim];
                for (o, &s) in slot.iter_mut().zip(&sums[c * dim..(c + 1) * dim]) {
                    *o = (s / counts[c] as f64) as f32;
                }
                normalize(slot);
            }
        }
        // Final assignment against the converged centroids.
        let assign = nassim_exec::par_map_chunked(pooled, BUILD_MIN_CHUNK, |_, row| {
            nearest_centroid(&centroids, dim, nlist, row)
        });
        let mut clusters: Vec<Vec<u32>> = vec![Vec::new(); nlist];
        for (i, &c) in assign.iter().enumerate() {
            clusters[c as usize].push(i as u32);
        }
        Some(IvfIndex {
            nlist,
            centroids,
            clusters,
        })
    }
}

/// Highest-dot centroid, ties to the lower centroid index.
fn nearest_centroid(centroids: &[f32], dim: usize, nlist: usize, row: &[f32]) -> u32 {
    let mut best = 0u32;
    let mut best_dot = f32::NEG_INFINITY;
    for c in 0..nlist {
        let d = dot(row, &centroids[c * dim..(c + 1) * dim]);
        if d > best_dot {
            best_dot = d;
            best = c as u32;
        }
    }
    best
}

/// Point-in-time description of a mapper's retrieval configuration — what
/// `nassim-serve` reports in `health`.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrievalStats {
    /// Effective mode name (`exact` when a sub-linear mode could not be
    /// enabled).
    pub mode: &'static str,
    pub leaf_count: usize,
    /// Build time of the sub-linear index in ms (0.0 when none exists or
    /// it was restored from the artifact store).
    pub index_build_ms: f64,
    /// IVF cluster count (0 = no IVF layer).
    pub nlist: usize,
    /// Effective probe count for the current mode (0 unless `Ann`).
    pub probes: usize,
}

impl Mapper {
    /// The currently effective retrieval mode.
    pub fn retrieval_mode(&self) -> RetrievalMode {
        self.retrieval
    }

    /// Switch the DL scan's retrieval mode. Enabling a sub-linear mode
    /// builds the quantized corpus (+ IVF layer) on first use — fanned
    /// across the worker pool, deterministic at any thread count. If the
    /// corpus cannot support it (no embeddings, non-uniform context
    /// shapes) the mode stays `Exact`.
    pub fn set_retrieval_mode(&mut self, mode: RetrievalMode) {
        self.apply_mode(mode, None);
    }

    /// [`Mapper::set_retrieval_mode`] through an [`AnnCache`]: an index
    /// whose corpus hash is already cached is reused (an `Arc` bump);
    /// otherwise the built index is inserted for the next warm start.
    pub fn set_retrieval_mode_cached(&mut self, mode: RetrievalMode, cache: &mut AnnCache) {
        self.apply_mode(mode, Some(cache));
    }

    fn apply_mode(&mut self, mode: RetrievalMode, cache: Option<&mut AnnCache>) {
        if mode == RetrievalMode::Exact {
            // Keep any built index around: flipping back is free.
            self.retrieval = RetrievalMode::Exact;
            return;
        }
        if self.sublinear.is_none() {
            self.sublinear = match cache {
                None => SublinearIndex::build(&self.index.leaf_embeddings).map(Arc::new),
                Some(cache) => cache.get_or_build(&self.index.leaf_embeddings),
            };
        }
        self.retrieval = if self.sublinear.is_some() {
            mode
        } else {
            RetrievalMode::Exact
        };
    }

    /// One-shot clone with a different retrieval mode: mapper clones share
    /// the index and (once built) the sub-linear structures, so serving
    /// can answer per-request mode choices without rebuilding anything.
    pub fn with_retrieval_mode(&self, mode: RetrievalMode) -> Mapper {
        let mut m = self.clone();
        m.set_retrieval_mode(mode);
        m
    }

    /// Current retrieval configuration, for health/diagnostic surfaces.
    pub fn retrieval_stats(&self) -> RetrievalStats {
        let sub = self.sublinear.as_deref();
        let probes = match (self.retrieval, sub) {
            (RetrievalMode::Ann { probes }, Some(s)) => s.effective_probes(probes),
            _ => 0,
        };
        RetrievalStats {
            mode: if sub.is_some() || self.retrieval == RetrievalMode::Exact {
                self.retrieval.as_str()
            } else {
                "exact"
            },
            leaf_count: self.index.leaves.len(),
            index_build_ms: sub.map(|s| s.build_ms).unwrap_or(0.0),
            nlist: sub.map(|s| s.nlist()).unwrap_or(0),
            probes,
        }
    }

    /// Mode-dispatched DL candidate ranking. `Exact` — and every
    /// configuration the sub-linear identity cannot serve (no index,
    /// non-uniform Eq. 2 weights) — is precisely the pre-existing
    /// [`Mapper::dl_scan`].
    pub(crate) fn retrieve(&self, ev: &NormalizedEmbedding, k: usize) -> Vec<(usize, f32)> {
        let sub = match &self.sublinear {
            Some(sub) if self.retrieval != RetrievalMode::Exact && self.weights.is_none() => sub,
            _ => return self.dl_scan(ev, k),
        };
        let pooled_q = ev.pooled_scaled();
        let qq = sub.quant.encode_query(&pooled_q);
        let r = (k * RERANK_FACTOR).max(RERANK_MIN);
        let candidates = match self.retrieval {
            RetrievalMode::Quantized => sub.scan_all(&qq, r),
            RetrievalMode::Ann { probes } => sub.scan_probed(&pooled_q, &qq, probes, r),
            RetrievalMode::Exact => return self.dl_scan(ev, k),
        };
        // Phase 2: exact Eq. 2 rescore of the survivors — identical
        // arithmetic and tie-break to the exact scan, so survivor scores
        // are bit-equal to what `dl_scan` would have produced.
        let mut top = TopK::new(k);
        for i in candidates {
            top.offer(
                i,
                context_similarity_normalized(ev, &self.index.leaf_embeddings[i], None),
            );
        }
        top.into_sorted_vec()
    }
}

/// Content-addressed cache of built [`SublinearIndex`]es, keyed by the
/// pooled-corpus hash — the mapper-side mirror of [`crate::EmbeddingCache`],
/// persisted as the artifact store's `ann` section so a warm start skips
/// the k-means build. A corpus edit changes the hash, so stale indexes
/// are never served (they are dropped at the next save).
#[derive(Clone, Default)]
pub struct AnnCache {
    entries: HashMap<u64, Arc<SublinearIndex>>,
    pub hits: usize,
    pub misses: usize,
}

impl AnnCache {
    pub fn new() -> AnnCache {
        AnnCache::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look the corpus up by pooled hash; build + insert on miss. `None`
    /// when the corpus cannot pool at all.
    fn get_or_build(
        &mut self,
        embeddings: &[Arc<NormalizedEmbedding>],
    ) -> Option<Arc<SublinearIndex>> {
        let (pooled, dim, ku) = pooled_corpus(embeddings)?;
        let hash = pooled_hash(&pooled, dim, ku);
        if let Some(idx) = self.entries.get(&hash) {
            self.hits += 1;
            return Some(idx.clone());
        }
        self.misses += 1;
        let idx = Arc::new(SublinearIndex::from_pooled(pooled, dim, ku, hash));
        self.entries.insert(hash, idx.clone());
        Some(idx)
    }
}

/// Persistence form (artifact store `ann` section): [`keyed`] keys, each
/// index flattened to numbers — scales and centroids as IEEE-754 bit
/// patterns (lossless), codes as small ints. Hit/miss counters are
/// session statistics and reset on load, as does `build_ms`.
impl AnnCache {
    pub fn to_value(&self) -> Value {
        let entries = keyed::encode(&self.entries, index_to_value);
        Value::Obj(vec![("entries".to_string(), entries)])
    }

    /// Inverse of [`AnnCache::to_value`]: undecodable entries, and ones
    /// whose corpus hash is not their key, are skipped and described
    /// while the valid ones load — a missing index is just a rebuild,
    /// never a correctness problem.
    pub fn decode(v: &Value) -> (AnnCache, Vec<String>) {
        let (entries, errors) = keyed::decode(v.get("entries"), |k, val| {
            let idx = index_from_value(val)?;
            if idx.corpus_hash != k {
                return Err(DeError::new(format!(
                    "carries corpus hash {:016x}",
                    idx.corpus_hash
                )));
            }
            Ok(idx)
        });
        let cache = AnnCache {
            entries,
            ..AnnCache::default()
        };
        (cache, errors)
    }
}

fn index_to_value(idx: &SublinearIndex) -> Value {
    let scales: Vec<u32> = idx.quant.scales().iter().map(|s| s.to_bits()).collect();
    let codes: Vec<i64> = idx.codes.iter().map(|&c| c as i64).collect();
    let mut obj = vec![
        ("n".to_string(), Value::Num(idx.n as f64)),
        ("dim".to_string(), Value::Num(idx.dim as f64)),
        ("ku".to_string(), Value::Num(idx.rows_per_context as f64)),
        (
            "hash".to_string(),
            Value::Str(format!("{:016x}", idx.corpus_hash)),
        ),
        ("scales".to_string(), scales.to_value()),
        ("codes".to_string(), codes.to_value()),
    ];
    if let Some(ivf) = &idx.ivf {
        let centroids: Vec<u32> = ivf.centroids.iter().map(|c| c.to_bits()).collect();
        obj.push((
            "ivf".to_string(),
            Value::Obj(vec![
                ("nlist".to_string(), Value::Num(ivf.nlist as f64)),
                ("centroids".to_string(), centroids.to_value()),
                ("clusters".to_string(), ivf.clusters.to_value()),
            ]),
        ));
    }
    Value::Obj(obj)
}

fn index_from_value(v: &Value) -> Result<SublinearIndex, DeError> {
    let num = |key: &str| -> Result<usize, DeError> {
        match v.get(key) {
            Some(Value::Num(n)) if *n >= 0.0 => Ok(*n as usize),
            _ => Err(DeError::new(format!("SublinearIndex: bad `{key}`"))),
        }
    };
    let n = num("n")?;
    let dim = num("dim")?;
    let ku = num("ku")?;
    let hash = match v.get("hash") {
        Some(Value::Str(s)) => u64::from_str_radix(s, 16)
            .map_err(|e| DeError::new(format!("SublinearIndex: bad `hash`: {e}")))?,
        _ => return Err(DeError::new("SublinearIndex: missing `hash`")),
    };
    let scale_bits: Vec<u32> = Deserialize::from_value(
        v.get("scales")
            .ok_or_else(|| DeError::new("SublinearIndex: missing `scales`"))?,
    )?;
    if scale_bits.len() != dim {
        return Err(DeError::new("SublinearIndex: scales/dim mismatch"));
    }
    let code_nums: Vec<i64> = Deserialize::from_value(
        v.get("codes")
            .ok_or_else(|| DeError::new("SublinearIndex: missing `codes`"))?,
    )?;
    if code_nums.len() != n * dim {
        return Err(DeError::new("SublinearIndex: codes/n×dim mismatch"));
    }
    let mut codes = Vec::with_capacity(code_nums.len());
    for c in code_nums {
        if !(-127..=127).contains(&c) {
            return Err(DeError::new("SublinearIndex: code out of i8 range"));
        }
        codes.push(c as i8);
    }
    let ivf = match v.get("ivf") {
        None | Some(Value::Null) => None,
        Some(ivf_v) => {
            let nlist = match ivf_v.get("nlist") {
                Some(Value::Num(x)) if *x >= 1.0 => *x as usize,
                _ => return Err(DeError::new("SublinearIndex: bad `ivf.nlist`")),
            };
            let centroid_bits: Vec<u32> = Deserialize::from_value(
                ivf_v
                    .get("centroids")
                    .ok_or_else(|| DeError::new("SublinearIndex: missing `ivf.centroids`"))?,
            )?;
            if centroid_bits.len() != nlist * dim {
                return Err(DeError::new("SublinearIndex: centroids/nlist×dim mismatch"));
            }
            let clusters: Vec<Vec<u32>> = Deserialize::from_value(
                ivf_v
                    .get("clusters")
                    .ok_or_else(|| DeError::new("SublinearIndex: missing `ivf.clusters`"))?,
            )?;
            if clusters.len() != nlist
                || clusters.iter().flatten().any(|&i| i as usize >= n)
                || clusters.iter().map(Vec::len).sum::<usize>() != n
            {
                return Err(DeError::new("SublinearIndex: malformed `ivf.clusters`"));
            }
            Some(IvfIndex {
                nlist,
                centroids: centroid_bits.into_iter().map(f32::from_bits).collect(),
                clusters,
            })
        }
    };
    Ok(SublinearIndex {
        quant: Quantizer::from_scales(scale_bits.into_iter().map(f32::from_bits).collect()),
        codes,
        n,
        dim,
        rows_per_context: ku,
        ivf,
        corpus_hash: hash,
        build_ms: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::models::{ContextEmbedding, Embedder};
    use nassim_corpus::Udm;

    struct HashEmbedder;
    impl Embedder for HashEmbedder {
        fn embed(&self, text: &str) -> Vec<f32> {
            let mut v = vec![0.0f32; 24];
            for word in text.to_ascii_lowercase().split_whitespace() {
                let mut h: u32 = 2166136261;
                for b in word.bytes() {
                    h ^= b as u32;
                    h = h.wrapping_mul(16777619);
                }
                v[(h % 24) as usize] += 1.0;
            }
            v
        }
    }

    fn udm_with_leaves(n: usize) -> Udm {
        let mut udm = Udm::new("u");
        for i in 0..n {
            let c = udm.ensure_path(&["grp", ["a", "b", "c"][i % 3]]);
            udm.add(
                c,
                format!("leaf-{i}"),
                format!("attribute {i} of family {}", i % 7),
                "uint32",
            );
        }
        udm
    }

    fn query(text: &str) -> Context {
        Context {
            sequences: vec![text.to_string()],
        }
    }

    #[test]
    fn mode_parsing_round_trips() {
        assert_eq!(RetrievalMode::parse("exact"), Some(RetrievalMode::Exact));
        assert_eq!(
            RetrievalMode::parse("quantized"),
            Some(RetrievalMode::Quantized)
        );
        assert_eq!(
            RetrievalMode::parse("ann"),
            Some(RetrievalMode::Ann { probes: 0 })
        );
        assert_eq!(
            RetrievalMode::parse("ann:12"),
            Some(RetrievalMode::Ann { probes: 12 })
        );
        assert_eq!(RetrievalMode::parse("ann:"), None);
        assert_eq!(RetrievalMode::parse("ANN"), None);
        assert_eq!(RetrievalMode::parse("hnsw"), None);
    }

    #[test]
    fn default_mode_is_exact_and_stats_reflect_it() {
        let udm = udm_with_leaves(12);
        let m = Mapper::dl(&udm, Arc::new(HashEmbedder));
        assert_eq!(m.retrieval_mode(), RetrievalMode::Exact);
        let stats = m.retrieval_stats();
        assert_eq!(stats.mode, "exact");
        assert_eq!(stats.leaf_count, 12);
        assert_eq!(stats.nlist, 0);
    }

    #[test]
    fn quantized_mode_matches_exact_on_a_small_corpus() {
        // With the rerank floor (32) ≥ corpus size, phase 1 keeps every
        // leaf, so the exact rescore must reproduce the exact scan
        // bit-for-bit.
        let udm = udm_with_leaves(24);
        let exact = Mapper::dl(&udm, Arc::new(HashEmbedder));
        let quant = exact.with_retrieval_mode(RetrievalMode::Quantized);
        assert_eq!(quant.retrieval_mode(), RetrievalMode::Quantized);
        for q in ["attribute 3 of family 3", "leaf-7", "unrelated words"] {
            let a = exact.recommend(&query(q), 5);
            let b = quant.recommend(&query(q), 5);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.0, y.0, "q={q}");
                assert_eq!(x.1.to_bits(), y.1.to_bits(), "q={q}");
            }
        }
    }

    #[test]
    fn ann_mode_builds_an_ivf_layer_on_large_corpora() {
        let udm = udm_with_leaves(600);
        let m = Mapper::dl(&udm, Arc::new(HashEmbedder))
            .with_retrieval_mode(RetrievalMode::Ann { probes: 0 });
        let stats = m.retrieval_stats();
        assert_eq!(stats.mode, "ann");
        assert!(stats.nlist >= 2, "nlist={}", stats.nlist);
        assert!(stats.probes >= 4);
        // Probing every cluster ≡ quantized full scan candidates: with a
        // corpus-wide rerank budget both match the exact scan.
        let exact = Mapper::dl(&udm, Arc::new(HashEmbedder));
        let all_probes = exact.with_retrieval_mode(RetrievalMode::Ann { probes: usize::MAX });
        let q = query("attribute 100 of family 2");
        let a = exact.recommend(&q, 8);
        let b = all_probes.recommend(&q, 8);
        // Rerank budget is max(4k, 32) = 32 < 600, so only assert the
        // top-1 (well inside any sane candidate cut) and score bit-parity
        // on the overlap.
        assert_eq!(a[0].0, b[0].0);
        for (x, y) in a.iter().zip(&b) {
            if x.0 == y.0 {
                assert_eq!(x.1.to_bits(), y.1.to_bits());
            }
        }
    }

    #[test]
    fn custom_weights_fall_back_to_the_exact_scan() {
        let udm = udm_with_leaves(24);
        let exact = Mapper::dl(&udm, Arc::new(HashEmbedder));
        let mut weighted = exact.with_retrieval_mode(RetrievalMode::Quantized);
        weighted.weights = Some(vec![0.7, 0.1, 0.1, 0.1]);
        let mut exact_weighted = exact.clone();
        exact_weighted.weights = Some(vec![0.7, 0.1, 0.1, 0.1]);
        let q = query("attribute 5 of family 5");
        assert_eq!(weighted.recommend(&q, 6), exact_weighted.recommend(&q, 6));
    }

    #[test]
    fn ir_mapper_cannot_enable_sublinear_modes() {
        let udm = udm_with_leaves(12);
        let mut m = Mapper::ir(&udm);
        m.set_retrieval_mode(RetrievalMode::Quantized);
        assert_eq!(m.retrieval_mode(), RetrievalMode::Exact);
        assert_eq!(m.retrieval_stats().mode, "exact");
    }

    #[test]
    fn index_construction_is_thread_count_independent() {
        let udm = udm_with_leaves(700);
        let build = || {
            let m = Mapper::dl(&udm, Arc::new(HashEmbedder))
                .with_retrieval_mode(RetrievalMode::Ann { probes: 3 });
            let q = query("attribute 42 of family 0");
            m.recommend(&q, 10)
        };
        let serial = nassim_exec::with_threads(1, build);
        let parallel = nassim_exec::with_threads(8, build);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn ann_cache_round_trips_and_reuses_entries() {
        let udm = udm_with_leaves(600);
        let mut cache = AnnCache::new();
        let mut m = Mapper::dl(&udm, Arc::new(HashEmbedder));
        m.set_retrieval_mode_cached(RetrievalMode::Ann { probes: 2 }, &mut cache);
        assert_eq!((cache.hits, cache.misses, cache.len()), (0, 1, 1));
        // Same corpus again: a hit, same Arc.
        let mut m2 = Mapper::dl(&udm, Arc::new(HashEmbedder));
        m2.set_retrieval_mode_cached(RetrievalMode::Ann { probes: 2 }, &mut cache);
        assert_eq!(cache.hits, 1);
        // Serde round trip preserves answers exactly.
        let value = cache.to_value();
        let (mut restored, errors) = AnnCache::decode(&value);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(restored.len(), 1);
        assert_eq!(restored.to_value(), value);
        let mut m3 = Mapper::dl(&udm, Arc::new(HashEmbedder));
        m3.set_retrieval_mode_cached(RetrievalMode::Ann { probes: 2 }, &mut restored);
        assert_eq!(restored.misses, 0);
        let q = query("attribute 17 of family 3");
        let a = m.recommend(&q, 7);
        let c = m3.recommend(&q, 7);
        assert_eq!(a.len(), c.len());
        for (x, y) in a.iter().zip(&c) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
    }

    #[test]
    fn lossy_cache_load_skips_corrupt_entries() {
        let udm = udm_with_leaves(40);
        let mut cache = AnnCache::new();
        let mut m = Mapper::dl(&udm, Arc::new(HashEmbedder));
        m.set_retrieval_mode_cached(RetrievalMode::Quantized, &mut cache);
        let mut v = cache.to_value();
        // Corrupt: add a junk entry alongside the valid one.
        if let Value::Obj(fields) = &mut v {
            if let Some((_, Value::Obj(entries))) = fields.iter_mut().find(|(k, _)| k == "entries")
            {
                entries.push(("zzzz".to_string(), Value::Str("junk".to_string())));
            }
        }
        let (salvaged, errors) = AnnCache::decode(&v);
        assert_eq!(salvaged.len(), 1);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("`zzzz`"), "{}", errors[0]);
    }

    #[test]
    fn pooled_corpus_rejects_mixed_shapes() {
        let a = Arc::new(NormalizedEmbedding::new(ContextEmbedding {
            rows: vec![vec![1.0, 0.0], vec![0.0, 1.0]],
        }));
        let b = Arc::new(NormalizedEmbedding::new(ContextEmbedding {
            rows: vec![vec![1.0, 0.0]],
        }));
        assert!(pooled_corpus(&[a.clone(), b]).is_none());
        assert!(pooled_corpus(&[]).is_none());
        assert!(pooled_corpus(&[a.clone(), a]).is_some());
    }
}
