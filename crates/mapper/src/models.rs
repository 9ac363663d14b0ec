//! The compared mapping models and Eq. 2 similarity — §6.2 / §7.3.
//!
//! All models expose one operation: rank the UDM's leaf attributes for a
//! given VDM-parameter context. Three families are implemented exactly as
//! the paper compares them:
//!
//! * **IR** — TF-IDF cosine over the joined context texts;
//! * **DL** — a sentence [`Embedder`] (SBERT-like, SimCSE-like or
//!   NetBERT) encoding each context sequence separately; parameter pairs
//!   are scored by Eq. 2's weighted row-wise cosine of the two context
//!   embedding matrices;
//! * **IR+DL** — IR produces a top-`shortlist` (50 in the paper)
//!   candidate set, DL re-ranks it. The re-rank score keeps a small IR
//!   prior (`IR_BLEND`) so the composite degrades to IR's ordering when
//!   the encoder is uninformative — the behaviour an engineer shipping
//!   the paper's §7.3 composite would implement.

use crate::context::{udm_leaf_context, Context};
use nassim_corpus::{Fnv1a, Udm, UdmNodeId};
use nassim_nlp::tensor::cosine;
use nassim_nlp::topk::TopK;
use nassim_nlp::{BatchEncoder, Encoder, TfIdf, Vocab};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Texts per worker chunk when the default [`Embedder::embed_batch`] fans
/// out: one embed is sub-millisecond, so chunks amortise spawn overhead.
const EMBED_MIN_CHUNK: usize = 8;

/// Minimum leaves per DL-scan shard: below this, per-query fan-out
/// overhead beats the scan itself and the shard is folded into its
/// neighbour. One leaf similarity is a handful of microseconds, so a
/// shard represents a few hundred microseconds of work.
const SHARD_MIN_LEAVES: usize = 192;

/// Upper bound on DL-scan shards — beyond the widest realistic worker
/// count, more shards only add merge work.
const MAX_SHARDS: usize = 32;

/// Contiguous equal-width shards over `n` leaf indices. Pure function of
/// `n` alone — never of thread count — so a mapper's shard layout (and
/// therefore its output) is identical on every machine.
fn leaf_shards(n: usize) -> Vec<Range<usize>> {
    let count = (n / SHARD_MIN_LEAVES).clamp(1, MAX_SHARDS);
    let size = n.div_ceil(count).max(1);
    (0..count)
        .map(|s| s * size..((s + 1) * size).min(n))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Anything that turns one text into one vector.
///
/// `Send + Sync` are supertraits so mapper construction and evaluation
/// can fan embedding work out across [`nassim_exec`] workers and so
/// mappers (which hold their embedder behind an [`Arc`]) can move across
/// threads; embedders are read-only model weights, so this costs
/// implementations nothing.
pub trait Embedder: Send + Sync {
    fn embed(&self, text: &str) -> Vec<f32>;

    /// Embed many texts in one call, position-aligned with `texts`.
    ///
    /// The default chunks [`Embedder::embed`] across workers;
    /// [`BatchEncoder`] overrides it with shared parameter preparation,
    /// in-batch deduplication and the LRU embedding memo.
    fn embed_batch(&self, texts: &[&str]) -> Vec<Vec<f32>> {
        nassim_exec::par_map_chunked(texts, EMBED_MIN_CHUNK, |t| self.embed(t))
    }
}

/// The transformer encoder + vocabulary as an [`Embedder`].
///
/// Owns its weights so it can live behind the `Arc<dyn Embedder>` a
/// [`Mapper`] carries; both fields are plain data, so constructing one
/// from an existing encoder/vocab is a single clone of the weights.
pub struct EncoderEmbedder {
    pub encoder: Encoder,
    pub vocab: Vocab,
}

impl Embedder for EncoderEmbedder {
    fn embed(&self, text: &str) -> Vec<f32> {
        self.encoder.embed_text(&self.vocab, text)
    }
}

/// The tape-free batched encoder as an [`Embedder`]: batch calls hit the
/// real batching path (single prepared weight layout, per-worker scratch,
/// memoised repeats) instead of the per-text fan-out.
impl Embedder for BatchEncoder {
    fn embed(&self, text: &str) -> Vec<f32> {
        self.embed_text(text)
    }

    fn embed_batch(&self, texts: &[&str]) -> Vec<Vec<f32>> {
        BatchEncoder::embed_batch(self, texts)
    }
}

/// A context embedding matrix E = e(c(p)) ∈ R^(k×m) (Eq. 1).
#[derive(Debug, Clone)]
pub struct ContextEmbedding {
    pub rows: Vec<Vec<f32>>,
}

/// Embed each sequence of `ctx` separately (Eq. 1).
pub fn embed_context(embedder: &dyn Embedder, ctx: &Context) -> ContextEmbedding {
    ContextEmbedding {
        rows: ctx.sequences.iter().map(|s| embedder.embed(s)).collect(),
    }
}

/// Embed many contexts through **one** [`Embedder::embed_batch`] call:
/// all sequences of all contexts are concatenated, batch-embedded, then
/// split back per context and normalized. This is how the mapper encodes
/// every UDM leaf at construction and every query in
/// [`Mapper::prepare_queries`].
pub fn embed_contexts(embedder: &dyn Embedder, ctxs: &[&Context]) -> Vec<NormalizedEmbedding> {
    let texts: Vec<&str> = ctxs
        .iter()
        .flat_map(|c| c.sequences.iter().map(String::as_str))
        .collect();
    let mut rows = embedder.embed_batch(&texts).into_iter();
    ctxs.iter()
        .map(|c| {
            let rows: Vec<Vec<f32>> = rows.by_ref().take(c.sequences.len()).collect();
            NormalizedEmbedding::new(ContextEmbedding { rows })
        })
        .collect()
}

/// A context embedding with its per-row inverse L2 norms precomputed.
///
/// Eq. 2 evaluates a k_V × k_U grid of row-wise cosines per candidate
/// pair; with norms hoisted here (computed **once**, at mapper
/// construction or query embedding), each cosine in the hot loop
/// collapses to a single dot-product pass instead of three.
#[derive(Debug, Clone)]
pub struct NormalizedEmbedding {
    pub rows: Vec<Vec<f32>>,
    /// `1/‖row‖` per row; `0.0` for all-zero rows so their cosine
    /// contribution is 0, matching [`cosine`]'s zero-vector convention.
    pub inv_norms: Vec<f32>,
    /// Rows pre-multiplied by their inverse norm, flattened into one
    /// contiguous buffer (zero rows stay zero): each Eq. 2 cosine in the
    /// hot loop is a plain dot product of two unit vectors.
    scaled: Vec<f32>,
    /// Row stride of `scaled` (max row length; short rows are zero-padded,
    /// which contributes nothing to a dot product).
    dim: usize,
}

impl NormalizedEmbedding {
    pub fn new(e: ContextEmbedding) -> NormalizedEmbedding {
        let inv_norms: Vec<f32> = e
            .rows
            .iter()
            .map(|r| {
                let n = r.iter().map(|x| x * x).sum::<f32>().sqrt();
                if n == 0.0 {
                    0.0
                } else {
                    1.0 / n
                }
            })
            .collect();
        let dim = e.rows.iter().map(Vec::len).max().unwrap_or(0);
        let mut scaled = vec![0.0f32; e.rows.len() * dim];
        for (i, (row, &inv)) in e.rows.iter().zip(&inv_norms).enumerate() {
            for (o, &v) in scaled[i * dim..i * dim + row.len()].iter_mut().zip(row) {
                *o = v * inv;
            }
        }
        NormalizedEmbedding {
            rows: e.rows,
            inv_norms,
            scaled,
            dim,
        }
    }

    #[inline]
    fn scaled_row(&self, i: usize) -> &[f32] {
        &self.scaled[i * self.dim..(i + 1) * self.dim]
    }

    /// Row stride of the scaled buffer (max row length).
    pub(crate) fn width(&self) -> usize {
        self.dim
    }

    /// Number of context rows (k of Eq. 1).
    pub(crate) fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Sum of the pre-scaled (unit-normalized) rows, the *pooled* form of
    /// this embedding: under uniform Eq. 2 weights the k_V × k_U cosine
    /// grid collapses to `dot(pooled_v, pooled_u) / (k_V · k_U)` because
    /// the dot product distributes over the row sums and zero rows (scaled
    /// to all-zeros) contribute nothing — the identity the sub-linear
    /// retrieval modes build on.
    pub(crate) fn pooled_scaled(&self) -> Vec<f32> {
        let mut pooled = vec![0.0f32; self.dim];
        for i in 0..self.rows.len() {
            for (o, &v) in pooled.iter_mut().zip(self.scaled_row(i)) {
                *o += v;
            }
        }
        pooled
    }

    /// The raw rows as IEEE-754 bit patterns — the lossless persistence
    /// form used by the artifact store. `from_bit_rows` inverts this
    /// exactly: norms and scaled buffers are recomputed by the same
    /// arithmetic as construction, so a round-tripped embedding is
    /// bit-for-bit identical to the original.
    pub fn to_bit_rows(&self) -> Vec<Vec<u32>> {
        self.rows
            .iter()
            .map(|r| r.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    /// Rebuild an embedding from [`NormalizedEmbedding::to_bit_rows`]
    /// output.
    pub fn from_bit_rows(bit_rows: &[Vec<u32>]) -> NormalizedEmbedding {
        NormalizedEmbedding::new(ContextEmbedding {
            rows: bit_rows
                .iter()
                .map(|r| r.iter().map(|&b| f32::from_bits(b)).collect())
                .collect(),
        })
    }
}

/// Dot product with four independent accumulators: breaks the sequential
/// floating-point dependence chain of a naive fold, deterministic for a
/// given pair of slices.
#[inline]
fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let mut acc = [0.0f32; 4];
    for (x, y) in ca.by_ref().zip(cb.by_ref()) {
        acc[0] += x[0] * y[0];
        acc[1] += x[1] * y[1];
        acc[2] += x[2] * y[2];
        acc[3] += x[3] * y[3];
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        sum += x * y;
    }
    sum
}

/// Eq. 2 over pre-normalized embeddings: same result as
/// [`context_similarity`] up to float rounding, with both norm passes
/// hoisted out of the pair loop and each cosine collapsed to one
/// unrolled dot over the pre-scaled rows. Zero rows (inverse norm 0)
/// contribute exactly 0 and are skipped.
pub fn context_similarity_normalized(
    ev: &NormalizedEmbedding,
    eu: &NormalizedEmbedding,
    weights: Option<&[f32]>,
) -> f32 {
    let kv = ev.rows.len();
    let ku = eu.rows.len();
    if kv == 0 || ku == 0 {
        return 0.0;
    }
    let uniform = 1.0 / (kv * ku) as f32;
    let mut sim = 0.0;
    for i in 0..kv {
        if ev.inv_norms[i] == 0.0 {
            continue;
        }
        let vrow = ev.scaled_row(i);
        for j in 0..ku {
            if eu.inv_norms[j] == 0.0 {
                continue;
            }
            let w = weights.map(|w| w[i * ku + j]).unwrap_or(uniform);
            sim += w * dot_unrolled(vrow, eu.scaled_row(j));
        }
    }
    sim
}

/// Safety margin on the prune bound: the running remaining-weight sum
/// accumulates float rounding, and a bound that under-estimates by even
/// one ulp could prune a candidate that ties the current top-k threshold
/// — which would break the heap path's exact equivalence with full sort.
const PRUNE_MARGIN: f32 = 1e-4;

/// Eq. 2 with norm-bound early exit: returns `None` as soon as the
/// partial score plus the remaining pairs' maximum possible contribution
/// (each cosine lies in `[-1, 1]`, so a pair is bounded by `|w|`) falls
/// strictly below `threshold` minus nothing — i.e. the candidate provably
/// cannot reach `threshold`. A completed score (`Some`) is computed by
/// the exact arithmetic of [`context_similarity_normalized`].
pub fn context_similarity_pruned(
    ev: &NormalizedEmbedding,
    eu: &NormalizedEmbedding,
    weights: Option<&[f32]>,
    threshold: f32,
) -> Option<f32> {
    let kv = ev.rows.len();
    let ku = eu.rows.len();
    if kv == 0 || ku == 0 {
        return if PRUNE_MARGIN < threshold { None } else { Some(0.0) };
    }
    let uniform = 1.0 / (kv * ku) as f32;
    let mut remaining: f32 = match weights {
        None => 1.0,
        Some(w) => w[..kv * ku].iter().map(|x| x.abs()).sum(),
    };
    let mut sim = 0.0;
    for i in 0..kv {
        let vzero = ev.inv_norms[i] == 0.0;
        let vrow = ev.scaled_row(i);
        for j in 0..ku {
            let w = weights.map(|w| w[i * ku + j]).unwrap_or(uniform);
            remaining -= w.abs();
            if !vzero && eu.inv_norms[j] != 0.0 {
                sim += w * dot_unrolled(vrow, eu.scaled_row(j));
            }
        }
        if sim + remaining + PRUNE_MARGIN < threshold {
            return None;
        }
    }
    Some(sim)
}

/// Eq. 2: weighted sum of the k_V × k_U row-wise cosine similarities.
/// `weights` must have length k_V × k_U and sum to 1; `None` uses the
/// uniform vector (the paper's "simplest setting").
pub fn context_similarity(
    ev: &ContextEmbedding,
    eu: &ContextEmbedding,
    weights: Option<&[f32]>,
) -> f32 {
    let kv = ev.rows.len();
    let ku = eu.rows.len();
    if kv == 0 || ku == 0 {
        return 0.0;
    }
    let uniform = 1.0 / (kv * ku) as f32;
    let mut sim = 0.0;
    for (i, vrow) in ev.rows.iter().enumerate() {
        for (j, urow) in eu.rows.iter().enumerate() {
            let w = weights.map(|w| w[i * ku + j]).unwrap_or(uniform);
            sim += w * cosine(vrow, urow);
        }
    }
    sim
}

/// Weight of the IR score blended into the IR+DL composite's re-rank
/// (0 = the paper's pure re-rank; the TF-IDF scores and Eq.-2 cosines are
/// both in `[0, 1]`-ish ranges so a fixed blend is meaningful).
pub const IR_BLEND: f32 = 0.35;

/// Which ranking strategy a [`Mapper`] uses. Embedders are shared, not
/// borrowed, so mappers are self-contained values.
#[derive(Clone)]
enum Strategy {
    Ir,
    Dl {
        embedder: Arc<dyn Embedder>,
    },
    IrDl {
        embedder: Arc<dyn Embedder>,
        shortlist: usize,
    },
}

/// The immutable, shareable core of a [`Mapper`]: the UDM, its leaf
/// contexts, the fitted TF-IDF model and the pre-normalized leaf context
/// embeddings. Built once per (UDM, embedder) pair and shared by every
/// clone of the mapper — cloning a mapper is two `Arc` bumps, never a
/// re-embedding.
pub struct MapperIndex {
    udm: Udm,
    pub(crate) leaves: Vec<UdmNodeId>,
    leaf_contexts: Vec<Context>,
    /// leaf id → index into `leaves`/`leaf_contexts` (O(1) lookups).
    leaf_index: HashMap<UdmNodeId, usize>,
    /// TF-IDF fitted on the joined leaf contexts (all strategies keep it;
    /// IR-based ones query it).
    ir: TfIdf,
    /// Pre-computed, pre-normalized leaf context embeddings (DL
    /// strategies): the norms are paid once here, never per query. Each
    /// embedding sits behind an `Arc` so the artifact store's embedding
    /// cache and any number of mappers share one copy.
    pub(crate) leaf_embeddings: Vec<Arc<NormalizedEmbedding>>,
}

impl MapperIndex {
    /// Number of candidate leaves.
    pub fn candidate_count(&self) -> usize {
        self.leaves.len()
    }
}

/// A ready-to-query mapper over one UDM. Owns all of its state (the
/// index behind an [`Arc`], the embedder behind an `Arc<dyn Embedder>`),
/// so it is `Clone`, `Send` and has no borrow tying it to the UDM it was
/// built from.
#[derive(Clone)]
pub struct Mapper {
    pub(crate) index: Arc<MapperIndex>,
    /// Contiguous leaf-index partitions for the parallel DL scan,
    /// computed once at construction from the corpus size alone.
    shards: Vec<Range<usize>>,
    strategy: Strategy,
    /// Optional Eq. 2 weight vector (length k_V × k_U).
    pub weights: Option<Vec<f32>>,
    /// How the DL scan ranks candidates — `Exact` (the default) is the
    /// byte-for-byte pre-existing sharded scan; the sub-linear modes live
    /// in [`crate::retrieval`].
    pub(crate) retrieval: crate::retrieval::RetrievalMode,
    /// The quantized corpus + optional IVF index backing the sub-linear
    /// modes; `None` until a non-`Exact` mode is first enabled.
    pub(crate) sublinear: Option<Arc<crate::retrieval::SublinearIndex>>,
}

/// Content key of one leaf context's embedding under one embedder:
/// FNV-1a over the embedder identity and the context's sequences,
/// length-framed. Two leaves with identical contexts share a key (and
/// therefore a cached embedding), which is sound because embedders are
/// pure functions of their input text.
pub fn leaf_embedding_key(embedder_id: &str, ctx: &Context) -> u64 {
    let mut h = Fnv1a::new();
    h.write_field(embedder_id);
    h.write_usize(ctx.sequences.len());
    for s in &ctx.sequences {
        h.write_field(s);
    }
    h.finish()
}

/// Content-addressed cache of normalized leaf-context embeddings, keyed
/// by [`leaf_embedding_key`]. [`Mapper::dl_cached`] consults it so an
/// incremental re-assimilation only pays the embedder for contexts it
/// has never seen; `hits`/`misses` expose the reuse rate to benches and
/// differential tests.
#[derive(Clone, Default)]
pub struct EmbeddingCache {
    entries: HashMap<u64, Arc<NormalizedEmbedding>>,
    pub hits: usize,
    pub misses: usize,
}

impl EmbeddingCache {
    pub fn new() -> EmbeddingCache {
        EmbeddingCache::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Persistence form: keys as fixed-width hex strings (the vendored JSON
/// value model has no u64 map keys), embeddings as their raw IEEE-754
/// bit rows. Hit/miss counters are session statistics, not content, and
/// deliberately reset on load.
impl Serialize for EmbeddingCache {
    fn to_value(&self) -> Value {
        let mut entries: Vec<(String, Value)> = self
            .entries
            .iter()
            .map(|(k, e)| (format!("{k:016x}"), e.to_bit_rows().to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Obj(vec![("entries".to_string(), Value::Obj(entries))])
    }
}

impl Deserialize for EmbeddingCache {
    fn from_value(v: &Value) -> Result<EmbeddingCache, DeError> {
        let Some(Value::Obj(entries)) = v.get("entries") else {
            return Err(DeError::new("EmbeddingCache: missing `entries` object"));
        };
        let mut cache = EmbeddingCache::new();
        for (key, val) in entries {
            let k = u64::from_str_radix(key, 16)
                .map_err(|e| DeError::new(format!("EmbeddingCache: bad key `{key}`: {e}")))?;
            let bit_rows: Vec<Vec<u32>> = Deserialize::from_value(val)?;
            cache
                .entries
                .insert(k, Arc::new(NormalizedEmbedding::from_bit_rows(&bit_rows)));
        }
        Ok(cache)
    }
}

impl EmbeddingCache {
    /// Per-entry lossy variant of the [`Deserialize`] impl: entries that
    /// fail to decode (bad key, malformed bit rows) are skipped and
    /// described in the returned error list while every valid entry
    /// still loads. A value without the `entries` object salvages
    /// nothing — one error, empty cache. Used by degraded warm starts
    /// (`ArtifactStore::load_lossy`), where a missing embedding is just
    /// a future cache miss, never a correctness problem.
    pub fn from_value_lossy(v: &Value) -> (EmbeddingCache, Vec<String>) {
        let mut cache = EmbeddingCache::new();
        let mut errors = Vec::new();
        let Some(Value::Obj(entries)) = v.get("entries") else {
            errors.push("EmbeddingCache: missing `entries` object".to_string());
            return (cache, errors);
        };
        for (key, val) in entries {
            let k = match u64::from_str_radix(key, 16) {
                Ok(k) => k,
                Err(e) => {
                    errors.push(format!("EmbeddingCache: bad key `{key}`: {e}"));
                    continue;
                }
            };
            let bit_rows: Vec<Vec<u32>> = match Deserialize::from_value(val) {
                Ok(rows) => rows,
                Err(e) => {
                    errors.push(format!("EmbeddingCache: entry `{key}`: {}", e.0));
                    continue;
                }
            };
            cache
                .entries
                .insert(k, Arc::new(NormalizedEmbedding::from_bit_rows(&bit_rows)));
        }
        (cache, errors)
    }
}

/// Embed `leaf_contexts` through `cache`: hits are `Arc` bumps, misses
/// are embedded in **one** [`embed_contexts`] batch and inserted. The
/// output vector is position-aligned with `leaf_contexts`.
fn embed_leaves_cached(
    embedder: &dyn Embedder,
    embedder_id: &str,
    leaf_contexts: &[Context],
    cache: &mut EmbeddingCache,
) -> Vec<Arc<NormalizedEmbedding>> {
    let keys: Vec<u64> = leaf_contexts
        .iter()
        .map(|c| leaf_embedding_key(embedder_id, c))
        .collect();
    let mut missing: Vec<usize> = Vec::new();
    for (i, k) in keys.iter().enumerate() {
        if cache.entries.contains_key(k) {
            cache.hits += 1;
        } else {
            cache.misses += 1;
            // Duplicate contexts within one build share a key; embed the
            // first occurrence only.
            if missing.iter().all(|&j| keys[j] != *k) {
                missing.push(i);
            }
        }
    }
    if !missing.is_empty() {
        let ctx_refs: Vec<&Context> = missing.iter().map(|&i| &leaf_contexts[i]).collect();
        let embedded = embed_contexts(embedder, &ctx_refs);
        for (&i, e) in missing.iter().zip(embedded) {
            cache.entries.insert(keys[i], Arc::new(e));
        }
    }
    keys.iter()
        .map(|k| {
            cache.entries.get(k).cloned().unwrap_or_else(|| {
                // Unreachable: every key was either a hit or just
                // inserted; keep a sound fallback instead of panicking.
                Arc::new(NormalizedEmbedding::new(ContextEmbedding {
                    rows: Vec::new(),
                }))
            })
        })
        .collect()
}

impl Mapper {
    fn base(udm: &Udm, strategy: Strategy) -> Mapper {
        let index = Mapper::build_index(udm, &strategy, None);
        Mapper::assemble(index, strategy)
    }

    /// Build the shared index, embedding leaf contexts through `cache`
    /// when one is supplied (cache hits skip the embedder entirely; all
    /// misses go through **one** batch, so the computed embeddings are
    /// bit-identical to an uncached build).
    fn build_index(
        udm: &Udm,
        strategy: &Strategy,
        cache: Option<(&str, &mut EmbeddingCache)>,
    ) -> MapperIndex {
        let leaves = udm.leaves();
        let leaf_contexts: Vec<Context> =
            leaves.iter().map(|&l| udm_leaf_context(udm, l)).collect();
        let leaf_index = leaves.iter().enumerate().map(|(i, &l)| (l, i)).collect();
        let joined: Vec<String> = leaf_contexts.iter().map(Context::joined).collect();
        let ir = TfIdf::fit(joined.iter().map(String::as_str));
        let leaf_embeddings = match strategy {
            Strategy::Ir => Vec::new(),
            // Embedding every leaf context is the expensive part of
            // construction — hand the whole corpus to the embedder as one
            // batch (shared parameter prep, memoised repeats, chunked
            // fan-out for plain embedders).
            Strategy::Dl { embedder } | Strategy::IrDl { embedder, .. } => match cache {
                None => {
                    let ctx_refs: Vec<&Context> = leaf_contexts.iter().collect();
                    embed_contexts(embedder.as_ref(), &ctx_refs)
                        .into_iter()
                        .map(Arc::new)
                        .collect()
                }
                Some((embedder_id, cache)) => {
                    embed_leaves_cached(embedder.as_ref(), embedder_id, &leaf_contexts, cache)
                }
            },
        };
        MapperIndex {
            udm: udm.clone(),
            leaves,
            leaf_contexts,
            leaf_index,
            ir,
            leaf_embeddings,
        }
    }

    fn assemble(index: MapperIndex, strategy: Strategy) -> Mapper {
        let shards = leaf_shards(index.leaves.len());
        let mut mapper = Mapper {
            index: Arc::new(index),
            shards,
            strategy,
            weights: None,
            retrieval: crate::retrieval::RetrievalMode::Exact,
            sublinear: None,
        };
        // `NASSIM_RETRIEVAL=exact|quantized|ann[:probes]` overrides the
        // default mode for every new mapper (unset → Exact, so tier-1
        // behaviour is untouched). Invalid values are ignored: retrieval
        // modes only change latency, never correctness, so a typo must
        // not take the exact path down.
        if let Some(mode) = crate::retrieval::RetrievalMode::from_env() {
            mapper.set_retrieval_mode(mode);
        }
        mapper
    }

    /// How many shards the DL scan is partitioned into (1 = serial scan).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Re-partition the DL scan into exactly `count` shards (clamped to
    /// `[1, leaf count]`). The default layout from construction is right
    /// for production; this exists so benches can sweep shard widths and
    /// tests can force the sharded path on small corpora. Results are
    /// identical for every `count` — only the scan's parallel grain
    /// changes.
    pub fn set_shard_count(&mut self, count: usize) {
        let n = self.index.leaves.len();
        let count = count.clamp(1, n.max(1));
        let size = n.div_ceil(count).max(1);
        self.shards = (0..count)
            .map(|s| s * size..((s + 1) * size).min(n))
            .filter(|r| !r.is_empty())
            .collect();
    }

    /// Pure information-retrieval mapper (TF-IDF).
    pub fn ir(udm: &Udm) -> Mapper {
        Mapper::base(udm, Strategy::Ir)
    }

    /// Pure DL mapper over `embedder`.
    pub fn dl(udm: &Udm, embedder: Arc<dyn Embedder>) -> Mapper {
        Mapper::base(udm, Strategy::Dl { embedder })
    }

    /// [`Mapper::dl`] through an [`EmbeddingCache`]: leaf contexts whose
    /// [`leaf_embedding_key`] is already cached reuse the stored
    /// embedding (an `Arc` bump, no embedder call); the misses are
    /// embedded in one batch and inserted. Because the batched encoder's
    /// output is batch-composition independent, the resulting mapper is
    /// bit-for-bit identical to `Mapper::dl` at any hit rate.
    /// `embedder_id` names the embedder's identity (weights + vocab) and
    /// partitions the cache's key space.
    pub fn dl_cached(
        udm: &Udm,
        embedder: Arc<dyn Embedder>,
        embedder_id: &str,
        cache: &mut EmbeddingCache,
    ) -> Mapper {
        let strategy = Strategy::Dl {
            embedder: embedder.clone(),
        };
        let index = Mapper::build_index(udm, &strategy, Some((embedder_id, cache)));
        Mapper::assemble(index, strategy)
    }

    /// IR shortlist (paper: top-50) re-ranked by `embedder`.
    pub fn ir_dl(udm: &Udm, embedder: Arc<dyn Embedder>, shortlist: usize) -> Mapper {
        Mapper::base(udm, Strategy::IrDl { embedder, shortlist })
    }

    /// The UDM this mapper ranks over.
    pub fn udm(&self) -> &Udm {
        &self.index.udm
    }

    /// The shared index: UDM, leaf contexts, TF-IDF and embeddings.
    pub fn index(&self) -> &Arc<MapperIndex> {
        &self.index
    }

    /// Number of candidate leaves.
    pub fn candidate_count(&self) -> usize {
        self.index.leaves.len()
    }

    /// Context of candidate `leaf` (for human-readable recommendations).
    pub fn leaf_context(&self, leaf: UdmNodeId) -> Option<&Context> {
        self.index
            .leaf_index
            .get(&leaf)
            .map(|&i| &self.index.leaf_contexts[i])
    }

    /// The embedder behind DL-backed strategies, `None` for pure IR.
    fn embedder(&self) -> Option<&dyn Embedder> {
        match &self.strategy {
            Strategy::Ir => None,
            Strategy::Dl { embedder } => Some(embedder.as_ref()),
            Strategy::IrDl { embedder, .. } => Some(embedder.as_ref()),
        }
    }

    /// Rank UDM leaves for one VDM-parameter context; returns the top `k`
    /// `(leaf, score)` pairs, best first — the Mapper's human-editable
    /// recommendation list.
    ///
    /// For many queries, [`Mapper::prepare_queries`] +
    /// [`Mapper::recommend_prepared`] encodes all contexts in one batch
    /// instead of one embedder call per query.
    pub fn recommend(&self, ctx: &Context, k: usize) -> Vec<(UdmNodeId, f32)> {
        // Joined context text is needed by both IR-backed strategies;
        // build it once per query instead of once per use site.
        let joined = ctx.joined();
        let ev = self
            .embedder()
            .map(|e| NormalizedEmbedding::new(embed_context(e, ctx)));
        self.recommend_inner(&joined, ev.as_ref(), k)
    }

    /// Pre-encode many query contexts in **one** embedding batch; the
    /// returned queries replay through [`Mapper::recommend_prepared`]
    /// without touching the embedder again.
    pub fn prepare_queries(&self, ctxs: &[&Context]) -> Vec<PreparedQuery> {
        let joined: Vec<String> = ctxs.iter().map(|c| c.joined()).collect();
        match self.embedder() {
            None => joined
                .into_iter()
                .map(|joined| PreparedQuery {
                    joined,
                    embedding: None,
                })
                .collect(),
            Some(e) => embed_contexts(e, ctxs)
                .into_iter()
                .zip(joined)
                .map(|(emb, joined)| PreparedQuery {
                    joined,
                    embedding: Some(emb),
                })
                .collect(),
        }
    }

    /// [`Mapper::recommend`] against a query prepared by **this**
    /// mapper's [`Mapper::prepare_queries`]. (A query prepared by an IR
    /// mapper carries no embedding; fed to a DL mapper it scores 0 on the
    /// DL term rather than panicking.)
    pub fn recommend_prepared(&self, query: &PreparedQuery, k: usize) -> Vec<(UdmNodeId, f32)> {
        self.recommend_inner(&query.joined, query.embedding.as_ref(), k)
    }

    /// Shared ranking core: bounded-heap partial top-k with norm-bound
    /// early exit on the DL scan — exactly the order full sort produced
    /// (descending score, ties to the lower candidate index).
    fn recommend_inner(
        &self,
        joined: &str,
        ev: Option<&NormalizedEmbedding>,
        k: usize,
    ) -> Vec<(UdmNodeId, f32)> {
        let fallback;
        let ev = match ev {
            Some(ev) => ev,
            None => {
                fallback = NormalizedEmbedding::new(ContextEmbedding { rows: Vec::new() });
                &fallback
            }
        };
        let scored: Vec<(usize, f32)> = match &self.strategy {
            Strategy::Ir => self.index.ir.top_k(joined, k),
            // `retrieve` dispatches on the retrieval mode; `Exact` (the
            // default) is precisely `dl_scan`.
            Strategy::Dl { .. } => self.retrieve(ev, k),
            Strategy::IrDl { shortlist, .. } => {
                let mut top = TopK::new(k);
                for (i, ir_score) in self.index.ir.top_k(joined, *shortlist) {
                    let dl = context_similarity_normalized(
                        ev,
                        &self.index.leaf_embeddings[i],
                        self.weights.as_deref(),
                    );
                    top.offer(i, dl + IR_BLEND * ir_score);
                }
                top.into_sorted_vec()
            }
        };
        scored
            .into_iter()
            .map(|(i, s)| (self.index.leaves[i], s))
            .collect()
    }

    /// Full-corpus DL scan: per-shard bounded-heap partial top-k with
    /// norm-bound early exit, merged into one global top-k.
    ///
    /// The sharded and serial paths return **identical** results: shard
    /// prune thresholds are local (each shard's heap fills independently,
    /// so its threshold is at most as aggressive as the global scan's at
    /// the same point), pruning is sound per shard, surviving scores are
    /// computed by the same arithmetic in the same per-leaf order, and
    /// the final merge re-ranks under the same total order (descending
    /// score, ties to the lower leaf index). Sharding therefore changes
    /// wall-clock only, never output.
    pub(crate) fn dl_scan(&self, ev: &NormalizedEmbedding, k: usize) -> Vec<(usize, f32)> {
        // Fan out only when it can pay: multiple shards, multiple
        // workers, and no enclosing parallel region already saturating
        // the pool (mapper evaluation fans out per *case*; its inner
        // scans run serial so cases don't fight over workers).
        let fan_out = self.shards.len() > 1
            && nassim_exec::threads() > 1
            && !nassim_exec::in_parallel_region();
        if !fan_out {
            let all = 0..self.index.leaves.len();
            return self.dl_scan_shard(ev, k, all).into_sorted_vec();
        }
        let partials = nassim_exec::par_map(&self.shards, |range| {
            self.dl_scan_shard(ev, k, range.clone()).into_sorted_vec()
        });
        let mut top = TopK::new(k);
        for shard in partials {
            for (i, s) in shard {
                top.offer(i, s);
            }
        }
        top.into_sorted_vec()
    }

    /// Scan one contiguous leaf range into a bounded top-k heap.
    fn dl_scan_shard(&self, ev: &NormalizedEmbedding, k: usize, range: Range<usize>) -> TopK {
        let mut top = TopK::new(k);
        for i in range {
            let score = match top.prune_below() {
                // Heap is full: a candidate provably below the current
                // k-th score can be skipped unscored.
                Some(threshold) => match context_similarity_pruned(
                    ev,
                    &self.index.leaf_embeddings[i],
                    self.weights.as_deref(),
                    threshold,
                ) {
                    Some(s) => s,
                    None => continue,
                },
                None => context_similarity_normalized(
                    ev,
                    &self.index.leaf_embeddings[i],
                    self.weights.as_deref(),
                ),
            };
            top.offer(i, score);
        }
        top
    }
}

/// A query context pre-processed for repeated
/// [`Mapper::recommend_prepared`] calls: the joined text for the IR
/// stages plus — for DL strategies — the normalized context embedding,
/// produced in one batch by [`Mapper::prepare_queries`].
pub struct PreparedQuery {
    joined: String,
    embedding: Option<NormalizedEmbedding>,
}

/// Grid-search a non-uniform Eq. 2 weight vector on a labelled validation
/// set: greedy coordinate ascent over a small weight grid, maximising
/// recall@1. Returns the best weight vector found (normalised to sum 1).
///
/// The validation queries are embedded (and normalized) **once** up
/// front; every candidate weight vector re-scores those memoized
/// embeddings instead of re-running the embedder n×grid times.
pub fn grid_search_weights(
    mapper: &Mapper,
    validation: &[(Context, UdmNodeId)],
    kv: usize,
    ku: usize,
) -> Vec<f32> {
    let n = kv * ku;
    let queries = embed_validation(mapper, validation);
    let mut best = vec![1.0 / n as f32; n];
    let mut best_score = weight_score_embedded(mapper, &queries, validation, &best);
    let grid = [0.5f32, 1.0, 2.0, 4.0];
    for dim in 0..n {
        for &g in &grid {
            let mut cand = best.clone();
            cand[dim] *= g;
            let sum: f32 = cand.iter().sum();
            for w in &mut cand {
                *w /= sum;
            }
            let score = weight_score_embedded(mapper, &queries, validation, &cand);
            if score > best_score {
                best_score = score;
                best = cand;
            }
        }
    }
    best
}

/// Embed every validation query once, as a single batch. Returns an
/// empty vec for IR mappers — weights are a DL concept.
fn embed_validation(
    mapper: &Mapper,
    validation: &[(Context, UdmNodeId)],
) -> Vec<NormalizedEmbedding> {
    let Some(embedder) = mapper.embedder() else {
        return Vec::new();
    };
    let ctx_refs: Vec<&Context> = validation.iter().map(|(ctx, _)| ctx).collect();
    embed_contexts(embedder, &ctx_refs)
}

/// Reference scorer that re-embeds the queries on every call; production
/// code goes through the memoized path in [`grid_search_weights`].
#[cfg(test)]
fn weight_score(mapper: &Mapper, validation: &[(Context, UdmNodeId)], w: &[f32]) -> f32 {
    weight_score_embedded(mapper, &embed_validation(mapper, validation), validation, w)
}

fn weight_score_embedded(
    mapper: &Mapper,
    queries: &[NormalizedEmbedding],
    validation: &[(Context, UdmNodeId)],
    w: &[f32],
) -> f32 {
    if queries.is_empty() {
        return 0.0; // IR mapper: weights are a DL concept.
    }
    // Rank with the candidate weights — a pruned argmax scan per case
    // (top-1 of the same ordering the old full sort produced), chunked
    // across workers.
    let case_hits = nassim_exec::par_map_indexed_chunked(validation, 4, |qi, (_, truth)| {
        let ev = &queries[qi];
        let mut top = TopK::new(1);
        for i in 0..mapper.index.leaves.len() {
            match top.prune_below() {
                Some(threshold) => {
                    if let Some(s) = context_similarity_pruned(
                        ev,
                        &mapper.index.leaf_embeddings[i],
                        Some(w),
                        threshold,
                    ) {
                        top.offer(i, s);
                    }
                }
                None => top.offer(
                    i,
                    context_similarity_normalized(ev, &mapper.index.leaf_embeddings[i], Some(w)),
                ),
            }
        }
        top.into_sorted_vec()
            .first()
            .map(|&(i, _)| mapper.index.leaves[i])
            == Some(*truth)
    });
    let hits = case_hits.into_iter().filter(|&h| h).count();
    hits as f32 / validation.len().max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassim_corpus::Udm;

    /// A deterministic bag-of-characters embedder for tests: texts sharing
    /// words get similar vectors.
    struct HashEmbedder;
    impl Embedder for HashEmbedder {
        fn embed(&self, text: &str) -> Vec<f32> {
            let mut v = vec![0.0f32; 32];
            for word in text.to_ascii_lowercase().split_whitespace() {
                let mut h: u32 = 2166136261;
                for b in word.bytes() {
                    h ^= b as u32;
                    h = h.wrapping_mul(16777619);
                }
                v[(h % 32) as usize] += 1.0;
            }
            v
        }
    }

    fn sample_udm() -> Udm {
        let mut udm = Udm::new("u");
        let bgp = udm.ensure_path(&["protocols", "bgp", "neighbor"]);
        udm.add(bgp, "peer-as", "autonomous system number of the remote peer", "uint32");
        udm.add(bgp, "neighbor-address", "ipv4 address of the bgp neighbor", "ipv4-address");
        let vlan = udm.ensure_path(&["vlans", "vlan"]);
        udm.add(vlan, "vlan-id", "identifier of the vlan", "uint16");
        udm
    }

    fn query(text: &str) -> Context {
        Context {
            sequences: vec![text.to_string()],
        }
    }

    #[test]
    fn ir_mapper_ranks_lexically_similar_leaf_first() {
        let udm = sample_udm();
        let m = Mapper::ir(&udm);
        let top = m.recommend(&query("the identifier of the vlan"), 3);
        assert_eq!(udm.path_of(top[0].0), "vlans/vlan/vlan-id");
    }

    #[test]
    fn dl_mapper_uses_embeddings() {
        let udm = sample_udm();
        let m = Mapper::dl(&udm, Arc::new(HashEmbedder));
        let top = m.recommend(&query("ipv4 address of the bgp neighbor"), 3);
        assert_eq!(udm.path_of(top[0].0), "protocols/bgp/neighbor/neighbor-address");
    }

    #[test]
    fn ir_dl_respects_shortlist() {
        let udm = sample_udm();
        // Shortlist of 1: DL can only re-rank IR's single candidate.
        let m = Mapper::ir_dl(&udm, Arc::new(HashEmbedder), 1);
        let top = m.recommend(&query("identifier of the vlan"), 3);
        assert_eq!(top.len(), 1);
    }

    #[test]
    fn recommendations_are_sorted_and_truncated() {
        let udm = sample_udm();
        let m = Mapper::ir(&udm);
        let top = m.recommend(&query("peer"), 2);
        assert_eq!(top.len(), 2);
        assert!(top[0].1 >= top[1].1);
    }

    #[test]
    fn eq2_uniform_weighting_averages_pairs() {
        let ev = ContextEmbedding {
            rows: vec![vec![1.0, 0.0], vec![0.0, 1.0]],
        };
        let eu = ContextEmbedding {
            rows: vec![vec![1.0, 0.0]],
        };
        // Pairs: (1,0)·(1,0)=1 and (0,1)·(1,0)=0 → uniform avg 0.5.
        assert!((context_similarity(&ev, &eu, None) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn eq2_custom_weights_shift_the_score() {
        let ev = ContextEmbedding {
            rows: vec![vec![1.0, 0.0], vec![0.0, 1.0]],
        };
        let eu = ContextEmbedding {
            rows: vec![vec![1.0, 0.0]],
        };
        let sim = context_similarity(&ev, &eu, Some(&[1.0, 0.0]));
        assert!((sim - 1.0).abs() < 1e-6);
        let sim = context_similarity(&ev, &eu, Some(&[0.0, 1.0]));
        assert!(sim.abs() < 1e-6);
    }

    #[test]
    fn grid_search_never_worsens_recall() {
        let udm = sample_udm();
        let m = Mapper::dl(&udm, Arc::new(HashEmbedder));
        let validation: Vec<(Context, _)> = vec![
            (query("identifier of the vlan"), udm.lookup("vlans/vlan/vlan-id").unwrap()),
            (
                query("autonomous system number of the peer"),
                udm.lookup("protocols/bgp/neighbor/peer-as").unwrap(),
            ),
        ];
        let uniform = vec![1.0 / 4.0; 4]; // k_V=1, k_U=4
        let tuned = grid_search_weights(&m, &validation, 1, 4);
        assert!(
            weight_score(&m, &validation, &tuned) >= weight_score(&m, &validation, &uniform)
        );
        assert!((tuned.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn normalized_similarity_matches_reference_cosine_path() {
        let ev = ContextEmbedding {
            rows: vec![vec![1.0, 2.0, 3.0], vec![-1.0, 0.5, 2.0]],
        };
        let eu = ContextEmbedding {
            rows: vec![vec![0.25, 4.0, -2.0], vec![3.0, 3.0, 3.0], vec![0.0, 1.0, 0.0]],
        };
        let reference = context_similarity(&ev, &eu, None);
        let fast = context_similarity_normalized(
            &NormalizedEmbedding::new(ev.clone()),
            &NormalizedEmbedding::new(eu.clone()),
            None,
        );
        assert!((reference - fast).abs() < 1e-6, "{reference} vs {fast}");
        let w = [0.3, 0.1, 0.05, 0.2, 0.25, 0.1];
        let reference = context_similarity(&ev, &eu, Some(&w));
        let fast = context_similarity_normalized(
            &NormalizedEmbedding::new(ev),
            &NormalizedEmbedding::new(eu),
            Some(&w),
        );
        assert!((reference - fast).abs() < 1e-6, "{reference} vs {fast}");
    }

    #[test]
    fn normalized_zero_rows_contribute_zero() {
        let zeroish = NormalizedEmbedding::new(ContextEmbedding {
            rows: vec![vec![0.0, 0.0], vec![1.0, 0.0]],
        });
        assert_eq!(zeroish.inv_norms[0], 0.0);
        let unit = NormalizedEmbedding::new(ContextEmbedding {
            rows: vec![vec![1.0, 0.0]],
        });
        // Pairs: (zero,(1,0)) → 0 and ((1,0),(1,0)) → 1, uniform avg 0.5.
        let sim = context_similarity_normalized(&zeroish, &unit, None);
        assert!((sim - 0.5).abs() < 1e-6, "{sim}");
        // All-zero against all-zero is 0, not NaN.
        let zero = NormalizedEmbedding::new(ContextEmbedding {
            rows: vec![vec![0.0, 0.0]],
        });
        assert_eq!(context_similarity_normalized(&zero, &zero, None), 0.0);
    }

    /// Full-sort reference ranking over the mapper's own leaf embeddings
    /// — what `recommend` computed before the bounded-heap rewrite.
    fn full_sort_reference(
        m: &Mapper,
        ctx: &Context,
        e: &dyn Embedder,
        k: usize,
    ) -> Vec<(UdmNodeId, f32)> {
        let ev = NormalizedEmbedding::new(embed_context(e, ctx));
        let mut scored: Vec<(usize, f32)> = (0..m.index.leaves.len())
            .map(|i| {
                (
                    i,
                    context_similarity_normalized(
                        &ev,
                        &m.index.leaf_embeddings[i],
                        m.weights.as_deref(),
                    ),
                )
            })
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        scored
            .into_iter()
            .take(k)
            .map(|(i, s)| (m.index.leaves[i], s))
            .collect()
    }

    fn wide_udm() -> Udm {
        let mut udm = Udm::new("u");
        let c = udm.ensure_path(&["sys", "cfg"]);
        for i in 0..12 {
            udm.add(
                c,
                format!("leaf-{i}"),
                format!("attribute number {} of group {}", i, i % 3),
                "uint32",
            );
        }
        udm
    }

    #[test]
    fn recommend_heap_matches_full_sort_reference() {
        let udm = wide_udm();
        let e = HashEmbedder;
        let m = Mapper::dl(&udm, Arc::new(HashEmbedder));
        for qtext in [
            "attribute number 7 of group 1",
            "attribute of group",
            "zzz unrelated words",
        ] {
            let q = query(qtext);
            for k in [1, 3, 12, 50] {
                let heap = m.recommend(&q, k);
                let reference = full_sort_reference(&m, &q, &e, k);
                assert_eq!(heap.len(), reference.len(), "q={qtext} k={k}");
                for (h, r) in heap.iter().zip(&reference) {
                    assert_eq!(h.0, r.0, "q={qtext} k={k}");
                    assert_eq!(h.1.to_bits(), r.1.to_bits(), "q={qtext} k={k}");
                }
            }
        }
    }

    /// Every text embeds identically → every candidate ties → the heap
    /// must reproduce full sort's deterministic index-order tie-break.
    struct ConstEmbedder;
    impl Embedder for ConstEmbedder {
        fn embed(&self, _text: &str) -> Vec<f32> {
            vec![1.0, 2.0, 3.0, 4.0]
        }
    }

    #[test]
    fn recommend_breaks_ties_by_leaf_index_like_full_sort() {
        let udm = wide_udm();
        let e = ConstEmbedder;
        let m = Mapper::dl(&udm, Arc::new(ConstEmbedder));
        let top = m.recommend(&query("anything"), 5);
        let reference = full_sort_reference(&m, &query("anything"), &e, 5);
        assert_eq!(
            top.iter().map(|r| r.0).collect::<Vec<_>>(),
            reference.iter().map(|r| r.0).collect::<Vec<_>>()
        );
        // All scores tie, so the winners are the first leaves in order.
        assert_eq!(
            top.iter().map(|r| r.0).collect::<Vec<_>>(),
            m.index.leaves[..5].to_vec()
        );
    }

    #[test]
    fn prepared_queries_match_direct_recommend() {
        let udm = wide_udm();
        for m in [
            Mapper::ir(&udm),
            Mapper::dl(&udm, Arc::new(HashEmbedder)),
            Mapper::ir_dl(&udm, Arc::new(HashEmbedder), 5),
        ] {
            let queries: Vec<Context> = ["attribute number 2", "group 0", ""]
                .iter()
                .map(|t| query(t))
                .collect();
            let refs: Vec<&Context> = queries.iter().collect();
            let prepared = m.prepare_queries(&refs);
            for (ctx, p) in queries.iter().zip(&prepared) {
                assert_eq!(m.recommend(ctx, 4), m.recommend_prepared(p, 4));
            }
        }
    }

    #[test]
    fn batch_encoder_mapper_matches_per_text_encoder_mapper() {
        let udm = sample_udm();
        let texts: Vec<String> = udm
            .leaves()
            .into_iter()
            .map(|l| udm_leaf_context(&udm, l).joined())
            .collect();
        let vocab = Vocab::build(texts.iter().map(String::as_str), 1);
        let enc = Encoder::new(
            nassim_nlp::EncoderConfig {
                vocab_size: vocab.len(),
                dim: 16,
                heads: 2,
                layers: 1,
                ff_dim: 24,
                max_len: 16,
            },
            3,
        );
        let per_text = EncoderEmbedder {
            encoder: enc.clone(),
            vocab: vocab.clone(),
        };
        let m_per_text = Mapper::dl(&udm, Arc::new(per_text));
        let batched = BatchEncoder::new(enc.clone(), vocab.clone());
        let m_batched = Mapper::dl(&udm, Arc::new(batched));
        let q = query("ipv4 address of the bgp neighbor");
        let a = m_per_text.recommend(&q, 3);
        let b = m_batched.recommend(&q, 3);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "batched path diverged");
        }
    }

    #[test]
    fn leaf_context_lookup() {
        let udm = sample_udm();
        let m = Mapper::ir(&udm);
        let leaf = udm.lookup("vlans/vlan/vlan-id").unwrap();
        let ctx = m.leaf_context(leaf).unwrap();
        assert_eq!(ctx.sequences[0], "vlan-id");
    }

    #[test]
    fn dl_cached_matches_dl_bitwise_and_reuses_embeddings() {
        let udm = wide_udm();
        let uncached = Mapper::dl(&udm, Arc::new(HashEmbedder));
        let mut cache = EmbeddingCache::new();
        // Cold build: every leaf misses.
        let cold = Mapper::dl_cached(&udm, Arc::new(HashEmbedder), "hash", &mut cache);
        assert_eq!(cache.hits, 0);
        assert_eq!(cache.misses, udm.leaves().len());
        // Warm build: every leaf hits; no new entries.
        let entries_after_cold = cache.len();
        let warm = Mapper::dl_cached(&udm, Arc::new(HashEmbedder), "hash", &mut cache);
        assert_eq!(cache.hits, udm.leaves().len());
        assert_eq!(cache.len(), entries_after_cold);
        for qtext in ["attribute number 7 of group 1", "attribute of group"] {
            let q = query(qtext);
            let reference = uncached.recommend(&q, 6);
            for m in [&cold, &warm] {
                let got = m.recommend(&q, 6);
                assert_eq!(got.len(), reference.len());
                for (g, r) in got.iter().zip(&reference) {
                    assert_eq!(g.0, r.0, "q={qtext}");
                    assert_eq!(g.1.to_bits(), r.1.to_bits(), "q={qtext}");
                }
            }
        }
    }

    #[test]
    fn embedder_id_partitions_the_cache() {
        let udm = sample_udm();
        let mut cache = EmbeddingCache::new();
        Mapper::dl_cached(&udm, Arc::new(HashEmbedder), "a", &mut cache);
        let before = cache.len();
        // A different embedder id must not hit "a"'s entries.
        Mapper::dl_cached(&udm, Arc::new(ConstEmbedder), "b", &mut cache);
        assert_eq!(cache.hits, 0);
        assert_eq!(cache.len(), 2 * before);
    }

    #[test]
    fn embedding_cache_round_trips_through_serde() {
        let udm = wide_udm();
        let mut cache = EmbeddingCache::new();
        Mapper::dl_cached(&udm, Arc::new(HashEmbedder), "hash", &mut cache);
        let value = cache.to_value();
        let mut restored = EmbeddingCache::from_value(&value).unwrap();
        assert_eq!(restored.len(), cache.len());
        // A build against the restored cache is all hits and bit-equal.
        let a = Mapper::dl_cached(&udm, Arc::new(HashEmbedder), "hash", &mut restored);
        assert_eq!(restored.misses, 0);
        let b = Mapper::dl(&udm, Arc::new(HashEmbedder));
        let q = query("attribute number 3 of group 0");
        for (x, y) in a.recommend(&q, 12).iter().zip(&b.recommend(&q, 12)) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
    }

    /// Owned mappers are values: clones share the index and embedder and
    /// answer identically, and a mapper can cross a thread boundary.
    #[test]
    fn mapper_is_clone_and_send() {
        let udm = wide_udm();
        let m = Mapper::dl(&udm, Arc::new(HashEmbedder));
        let clone = m.clone();
        assert!(Arc::ptr_eq(m.index(), clone.index()));
        let q = query("attribute number 1 of group 1");
        let here = m.recommend(&q, 4);
        let there = std::thread::spawn(move || clone.recommend(&query("attribute number 1 of group 1"), 4))
            .join()
            .unwrap();
        assert_eq!(here, there);
    }
}
