//! Tape-free batched inference engine for the transformer encoder.
//!
//! [`Encoder::embed_ids_tape`] is correct but built for training: every
//! call clones *all* parameters (including the vocab×dim token table)
//! onto a fresh autograd tape and allocates a new matrix per op, purely
//! to throw the gradient bookkeeping away. This module replays the exact
//! op sequence of [`Encoder::embed_on_tape`] — same op order, same f32
//! arithmetic — against borrowed weights and reused scratch buffers, so
//! inference embeddings are **bitwise identical** to the tape path (a
//! differential proptest in `tests/infer_parity.rs` enforces this)
//! at a fraction of the cost.
//!
//! ## Parity contract
//!
//! Bitwise equality holds because every kernel *is* its tape
//! counterpart's loop, run against a reused buffer instead of a freshly
//! allocated one:
//!
//! * `matmul_into` is the `(i,k,j)` loop of [`Matrix::matmul`]
//!   verbatim — same `a[i][k] == 0.0` skip, same ascending-`k`
//!   accumulation order, and the same memory-order inner `j` loop the
//!   compiler vectorises. Attention scores `q·kᵀ` materialise `kᵀ` into
//!   scratch first, exactly as the tape's `matmul_transpose_b` does.
//! * Softmax, layer norm (with the tape's `LN_EPS`), bias add, ReLU,
//!   scaling and mean pooling replicate the tape expressions
//!   literally, in place.
//! * Gathers, transposes and concatenation are pure copies.
//!
//! What the replay *removes* is everything around the arithmetic: the
//! tape path clones every parameter per call, allocates a fresh output
//! and gradient slot per op, and keeps all intermediates alive for the
//! backward pass that inference never runs.
//!
//! ## Batching and memoisation
//!
//! [`BatchEncoder`] embeds many texts in one call with a per-worker
//! `Scratch` arena (steady-state embedding allocates nothing but the
//! output vector), and memoises embeddings in a bounded LRU keyed by the
//! (clamped, truncated) token-id sequence under an Fx-style hash —
//! repeated context phrases across eval cases are encoded exactly once.

use crate::autograd::LN_EPS;
use crate::tensor::Matrix;
use crate::tokenizer::Vocab;
use crate::transformer::Encoder;
use nassim_exec::par_map_with;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Mutex;

// ---------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------

/// Re-shape `m` and zero-fill, reusing its allocation.
#[inline(always)]
fn reset(m: &mut Matrix, rows: usize, cols: usize) {
    m.rows = rows;
    m.cols = cols;
    m.data.clear();
    m.data.resize(rows * cols, 0.0);
}

/// Re-shape `m` *without* zero-filling — only for buffers whose every
/// element is overwritten before being read (transpose targets, layer-norm
/// outputs). Stale values never escape; skipping the memset saves a pass.
#[inline(always)]
fn reshape(m: &mut Matrix, rows: usize, cols: usize) {
    m.rows = rows;
    m.cols = cols;
    m.data.resize(rows * cols, 0.0);
}

/// `out = mᵀ` into a reused buffer — the [`Matrix::transpose`] copy.
#[inline(always)]
fn transpose_into(m: &Matrix, out: &mut Matrix) {
    reshape(out, m.cols, m.rows);
    for r in 0..m.rows {
        for (c, &v) in m.row(r).iter().enumerate() {
            out.data[c * m.rows + r] = v;
        }
    }
}

/// `out = a × b`, bitwise equal to [`Matrix::matmul`] but ~8× cheaper on
/// output-row traffic.
///
/// The tape kernel is an `(i,k,j)` loop that skips `a[i][k] == 0.0` and
/// streams over the output row once per non-zero `k`. Here the non-zero
/// `k` are taken **eight at a time**: each output element evaluates
/// `(((((((o + a₀b₀) + a₁b₁) + a₂b₂) + a₃b₃) + a₄b₄) + a₅b₅) + a₆b₆) + a₇b₇`
/// — the identical ascending-`k` add sequence (Rust `+` is
/// left-associative and the compiler may not reassociate floats) with one
/// load/store of `o` instead of eight. The `< 8` remainder replays the
/// tape loop verbatim, so every output bit matches.
#[inline(always)]
fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.cols, b.rows, "matmul shape mismatch");
    reset(out, a.rows, b.cols);
    let cols = b.cols;
    for i in 0..a.rows {
        let arow = &a.data[i * a.cols..(i + 1) * a.cols];
        let orow = &mut out.data[i * cols..(i + 1) * cols];
        // Dense fast path: when the row has no zeros (the overwhelmingly
        // common case for activations — only post-ReLU rows are sparse),
        // the pend buffer would fill with consecutive indices anyway, so
        // run the same 8-wide flush over fixed k-blocks with no scan
        // bookkeeping. The add sequence per output element is unchanged.
        if arow.iter().all(|&v| v != 0.0) {
            let kk = arow.len();
            let mut k = 0;
            while k + 8 <= kk {
                let a0 = arow[k];
                let a1 = arow[k + 1];
                let a2 = arow[k + 2];
                let a3 = arow[k + 3];
                let a4 = arow[k + 4];
                let a5 = arow[k + 5];
                let a6 = arow[k + 6];
                let a7 = arow[k + 7];
                // SAFETY: `k + 7 < kk == a.cols == b.rows` and every lane
                // index below is `< cols == b.cols` (it indexes `orow`),
                // so all pointers stay inside `b.data`.
                unsafe {
                    let bp = b.data.as_ptr().add(k * cols);
                    let b0 = bp;
                    let b1 = bp.add(cols);
                    let b2 = bp.add(2 * cols);
                    let b3 = bp.add(3 * cols);
                    let b4 = bp.add(4 * cols);
                    let b5 = bp.add(5 * cols);
                    let b6 = bp.add(6 * cols);
                    let b7 = bp.add(7 * cols);
                    for (j, o) in orow.iter_mut().enumerate() {
                        *o = *o
                            + a0 * *b0.add(j)
                            + a1 * *b1.add(j)
                            + a2 * *b2.add(j)
                            + a3 * *b3.add(j)
                            + a4 * *b4.add(j)
                            + a5 * *b5.add(j)
                            + a6 * *b6.add(j)
                            + a7 * *b7.add(j);
                    }
                }
                k += 8;
            }
            // Tail (< 8 columns left): the verbatim tape loop.
            while k < kk {
                let av = arow[k];
                let brow = &b.data[k * cols..(k + 1) * cols];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
                k += 1;
            }
            continue;
        }
        let mut pend = [0usize; 8];
        let mut np = 0;
        for (k, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            pend[np] = k;
            np += 1;
            if np == 8 {
                np = 0;
                let a0 = arow[pend[0]];
                let a1 = arow[pend[1]];
                let a2 = arow[pend[2]];
                let a3 = arow[pend[3]];
                let a4 = arow[pend[4]];
                let a5 = arow[pend[5]];
                let a6 = arow[pend[6]];
                let a7 = arow[pend[7]];
                // SAFETY: every `pend[i] < a.cols == b.rows` (it is a loop
                // index over `arow`), and `j < cols == b.cols` (it indexes
                // `orow`, whose length is `cols`), so each `bN.add(j)` stays
                // inside `b.data`. Raw pointers only drop the eight per-lane
                // bounds checks the optimiser fails to hoist.
                unsafe {
                    let bp = b.data.as_ptr();
                    let b0 = bp.add(pend[0] * cols);
                    let b1 = bp.add(pend[1] * cols);
                    let b2 = bp.add(pend[2] * cols);
                    let b3 = bp.add(pend[3] * cols);
                    let b4 = bp.add(pend[4] * cols);
                    let b5 = bp.add(pend[5] * cols);
                    let b6 = bp.add(pend[6] * cols);
                    let b7 = bp.add(pend[7] * cols);
                    for (j, o) in orow.iter_mut().enumerate() {
                        *o = *o
                            + a0 * *b0.add(j)
                            + a1 * *b1.add(j)
                            + a2 * *b2.add(j)
                            + a3 * *b3.add(j)
                            + a4 * *b4.add(j)
                            + a5 * *b5.add(j)
                            + a6 * *b6.add(j)
                            + a7 * *b7.add(j);
                    }
                }
            }
        }
        for &k in &pend[..np] {
            let av = arow[k];
            let brow = &b.data[k * cols..(k + 1) * cols];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// In-place row-wise softmax — the [`Matrix::softmax_rows`] arithmetic
/// (max-subtract, exp with running sum, divide) applied to the buffer.
#[inline(always)]
fn softmax_rows_inplace(m: &mut Matrix) {
    for r in 0..m.rows {
        let row = m.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// `tmp = a + b; out = layer_norm(tmp) * gain + bias`, replicating the
/// tape expression (element-wise residual add, then mean, biased variance,
/// `1/sqrt(var + LN_EPS)`, `xhat*g + b`) exactly. The residual sum is
/// materialised *while* the mean accumulates — same adds, one less pass.
#[inline(always)]
fn add_layer_norm_into(
    a: &Matrix,
    b: &Matrix,
    gain: &Matrix,
    bias: &Matrix,
    tmp: &mut Matrix,
    out: &mut Matrix,
) {
    assert_eq!((a.rows, a.cols), (b.rows, b.cols));
    reshape(tmp, a.rows, a.cols);
    reshape(out, a.rows, a.cols);
    let cols = a.cols;
    for r in 0..a.rows {
        let arow = &a.data[r * cols..(r + 1) * cols];
        let brow = &b.data[r * cols..(r + 1) * cols];
        let trow = &mut tmp.data[r * cols..(r + 1) * cols];
        let mut sum = 0.0f32;
        for ((t, &x), &y) in trow.iter_mut().zip(arow).zip(brow) {
            *t = x + y;
            sum += *t;
        }
        let mean = sum / cols as f32;
        let var = trow.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / cols as f32;
        let inv = 1.0 / (var + LN_EPS).sqrt();
        let orow = &mut out.data[r * cols..(r + 1) * cols];
        for (c, &xv) in trow.iter().enumerate() {
            let xhat = (xv - mean) * inv;
            orow[c] = xhat * gain.data[c] + bias.data[c];
        }
    }
}

/// Broadcast-add a 1×cols bias to every row, in place — the `+=` of
/// [`Matrix::add_row`] on the buffer.
#[inline(always)]
fn add_row_inplace(m: &mut Matrix, bias: &Matrix) {
    for r in 0..m.rows {
        for (v, &b) in m.row_mut(r).iter_mut().zip(&bias.data) {
            *v += b;
        }
    }
}

// ---------------------------------------------------------------------
// Prepared weights + scratch arena
// ---------------------------------------------------------------------

/// Per-block weight layout built once per encoder: the per-head
/// `Wq`/`Wk`/`Wv` matrices concatenated column-wise into one
/// `dim × 3·dim` matrix, so all heads' projections run as a **single
/// wide matmul** instead of `3 × heads` narrow ones. Each column of the
/// concatenation is the corresponding per-head weight column unchanged,
/// and matmul accumulates every output element independently over
/// ascending `k` — so slicing the wide product back into per-head
/// `q`/`k`/`v` yields bitwise the same values the tape's per-head
/// matmuls produce.
pub(crate) struct PreparedBlock {
    qkv: Matrix,
}

/// Build the concatenated-QKV layout for every block of `enc`.
pub(crate) fn prepare(enc: &Encoder) -> Vec<PreparedBlock> {
    let dim = enc.config.dim;
    let heads = enc.config.heads;
    let hd = dim / heads;
    enc.blocks
        .iter()
        .map(|b| {
            let mut qkv = Matrix::zeros(dim, 3 * dim);
            for (section, ws) in [&b.wq, &b.wk, &b.wv].into_iter().enumerate() {
                for (h, w) in ws.iter().enumerate() {
                    let off = section * dim + h * hd;
                    for r in 0..dim {
                        qkv.row_mut(r)[off..off + hd].copy_from_slice(w.row(r));
                    }
                }
            }
            PreparedBlock { qkv }
        })
        .collect()
}

/// Per-thread buffer arena: every intermediate of the forward pass lives
/// in one of these reused matrices, so steady-state embedding performs no
/// heap allocation.
#[derive(Default)]
pub(crate) struct Scratch {
    ids: Vec<usize>,
    x: Matrix,
    qkv: Matrix,
    q: Matrix,
    k: Matrix,
    kt: Matrix,
    v: Matrix,
    scores: Matrix,
    headout: Matrix,
    concat: Matrix,
    proj: Matrix,
    tmp: Matrix,
    normed: Matrix,
    h1: Matrix,
    h2: Matrix,
}

/// The tape-free forward pass: replays [`Encoder::embed_on_tape`] op for
/// op against the encoder's own weights and `scratch`'s buffers.
///
/// One codegen serves every host: a `#[target_feature(enable = "avx2")]`
/// clone of this body was tried and *lost* ~45 µs/call to the baseline
/// build on the Xeon this repo benches on (256-bit ops downclock or
/// microcode poorly there), so the kernels rely on the compiler's
/// baseline auto-vectorisation. That also keeps the parity story simple:
/// the differential proptest exercises the exact code every caller runs.
pub(crate) fn forward(
    enc: &Encoder,
    prep: &[PreparedBlock],
    ids: &[usize],
    scratch: &mut Scratch,
) -> Vec<f32> {
    let cfg = &enc.config;
    let s = scratch;
    s.ids.clear();
    s.ids.extend(
        ids.iter()
            .take(cfg.max_len)
            .map(|&i| i.min(cfg.vocab_size - 1)),
    );
    let n = s.ids.len();

    // Token + position embedding: gather is a row copy, the add matches
    // the tape's element-wise `tok + pos`.
    reset(&mut s.x, n, cfg.dim);
    for r in 0..n {
        let trow = enc.tok_emb.row(s.ids[r]);
        let prow = enc.pos_emb.row(r);
        for (c, o) in s.x.row_mut(r).iter_mut().enumerate() {
            *o = trow[c] + prow[c];
        }
    }

    let hd = cfg.dim / cfg.heads;
    let scale = 1.0 / (hd as f32).sqrt();
    for (b, p) in enc.blocks.iter().zip(prep) {
        // All heads' q/k/v in one wide matmul against the concatenated
        // weights, then per-head column slices (pure copies).
        matmul_into(&s.x, &p.qkv, &mut s.qkv);
        // Multi-head self-attention; heads land in their concat columns.
        reset(&mut s.concat, n, cfg.dim);
        for h in 0..cfg.heads {
            for (m, section) in [(&mut s.q, 0usize), (&mut s.k, 1), (&mut s.v, 2)] {
                reset(m, n, hd);
                let off = section * cfg.dim + h * hd;
                for r in 0..n {
                    m.row_mut(r).copy_from_slice(&s.qkv.row(r)[off..off + hd]);
                }
            }
            // q·kᵀ, materialising kᵀ exactly like `matmul_transpose_b`.
            transpose_into(&s.k, &mut s.kt);
            matmul_into(&s.q, &s.kt, &mut s.scores);
            for v in &mut s.scores.data {
                *v *= scale;
            }
            softmax_rows_inplace(&mut s.scores);
            matmul_into(&s.scores, &s.v, &mut s.headout);
            let off = h * hd;
            for r in 0..n {
                s.concat.row_mut(r)[off..off + hd].copy_from_slice(s.headout.row(r));
            }
        }
        matmul_into(&s.concat, &b.wo, &mut s.proj);
        add_layer_norm_into(
            &s.x,
            &s.proj,
            &b.ln1_gain,
            &b.ln1_bias,
            &mut s.tmp,
            &mut s.normed,
        );

        // Feed-forward. Bias-add and ReLU fuse into one pass: each element
        // still computes `(v + bias).max(0)` — the tape's two ops — with a
        // single load/store instead of two.
        matmul_into(&s.normed, &b.ff1, &mut s.h1);
        for r in 0..s.h1.rows {
            for (v, &bv) in s.h1.row_mut(r).iter_mut().zip(&b.ff1_bias.data) {
                *v = (*v + bv).max(0.0);
            }
        }
        matmul_into(&s.h1, &b.ff2, &mut s.h2);
        add_row_inplace(&mut s.h2, &b.ff2_bias);
        add_layer_norm_into(
            &s.normed,
            &s.h2,
            &b.ln2_gain,
            &b.ln2_bias,
            &mut s.tmp,
            &mut s.x,
        );
    }

    // Mean pooling, replicating `Matrix::mean_rows`: accumulate rows
    // ascending, then divide by rows.max(1).
    let mut pooled = vec![0.0f32; cfg.dim];
    for r in 0..n {
        for (o, &v) in pooled.iter_mut().zip(s.x.row(r)) {
            *o += v;
        }
    }
    let denom = n.max(1) as f32;
    for o in &mut pooled {
        *o /= denom;
    }
    pooled
}

/// One-shot embed for [`Encoder::embed_ids`]: builds the concatenated-QKV
/// layout and a fresh scratch per call. Still far cheaper than the tape
/// path (no parameter cloning, no per-op allocation); callers with many
/// texts should hold a [`BatchEncoder`] to amortise the prep too.
pub(crate) fn embed_ids_oneshot(enc: &Encoder, ids: &[usize]) -> Vec<f32> {
    let prep = prepare(enc);
    let mut scratch = Scratch::default();
    forward(enc, &prep, ids, &mut scratch)
}

// ---------------------------------------------------------------------
// Fx-style hashing + LRU memo
// ---------------------------------------------------------------------

/// The Firefox/rustc multiply-rotate hash, written out here because the
/// build is offline (no `rustc-hash` crate). Not DoS-resistant — fine
/// for memo keys we generate ourselves.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` state using [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

struct MemoEntry {
    emb: Vec<f32>,
    last_used: u64,
}

/// Bounded LRU memo keyed by the clamped/truncated token-id sequence —
/// the exact forward-pass input, so a hit is guaranteed bitwise equal to
/// recomputation.
struct Memo {
    map: HashMap<Vec<usize>, MemoEntry, FxBuildHasher>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Memo {
    fn new(capacity: usize) -> Memo {
        Memo {
            map: HashMap::default(),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn get(&mut self, ids: &[usize]) -> Option<Vec<f32>> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(ids) {
            Some(e) => {
                e.last_used = tick;
                self.hits += 1;
                Some(e.emb.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, ids: Vec<usize>, emb: Vec<f32>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&ids) {
            // Evict the least-recently-used entry. O(len) scan, but the
            // memo is small and eviction is rare on eval workloads.
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
            }
        }
        let tick = self.tick;
        self.map.insert(
            ids,
            MemoEntry {
                emb,
                last_used: tick,
            },
        );
    }
}

/// Hit/miss counters for the embedding memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
}

// ---------------------------------------------------------------------
// BatchEncoder
// ---------------------------------------------------------------------

/// Lock a mutex, recovering the guard from a poisoned lock (a panicked
/// embed can't corrupt scratch buffers — they're reset before reuse — or
/// the memo, whose entries are only written complete).
fn lock_or_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Default number of memoised embeddings.
pub const DEFAULT_MEMO_CAPACITY: usize = 4096;

/// Texts per worker chunk in [`BatchEncoder::embed_batch`]: one embed is
/// hundreds of microseconds, so small chunks already amortise spawn cost.
const BATCH_MIN_CHUNK: usize = 8;

/// A tape-free encoder front-end that owns the prepared concatenated-QKV
/// weight layout, a scratch arena, and the LRU embedding memo, and can
/// embed whole batches in one call.
pub struct BatchEncoder {
    encoder: Encoder,
    vocab: Vocab,
    prep: Vec<PreparedBlock>,
    memo: Mutex<Memo>,
    scratch: Mutex<Scratch>,
}

impl BatchEncoder {
    /// Wrap `encoder` + `vocab` with the default memo capacity.
    pub fn new(encoder: Encoder, vocab: Vocab) -> BatchEncoder {
        BatchEncoder::with_memo_capacity(encoder, vocab, DEFAULT_MEMO_CAPACITY)
    }

    /// Wrap with an explicit memo capacity (0 disables memoisation).
    pub fn with_memo_capacity(encoder: Encoder, vocab: Vocab, capacity: usize) -> BatchEncoder {
        let prep = prepare(&encoder);
        BatchEncoder {
            encoder,
            vocab,
            prep,
            memo: Mutex::new(Memo::new(capacity)),
            scratch: Mutex::new(Scratch::default()),
        }
    }

    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// The forward-pass input for `text`: tokenised, truncated, clamped —
    /// also the memo key.
    fn key_of(&self, text: &str) -> Vec<usize> {
        self.vocab
            .encode(text, self.encoder.config.max_len)
            .into_iter()
            .map(|i| i.min(self.encoder.config.vocab_size - 1))
            .collect()
    }

    /// Embed one token-id sequence through the memo.
    pub fn embed_ids(&self, ids: &[usize]) -> Vec<f32> {
        let key: Vec<usize> = ids
            .iter()
            .take(self.encoder.config.max_len)
            .map(|&i| i.min(self.encoder.config.vocab_size - 1))
            .collect();
        if let Some(hit) = lock_or_recover(&self.memo).get(&key) {
            return hit;
        }
        let emb = {
            let mut scratch = lock_or_recover(&self.scratch);
            forward(&self.encoder, &self.prep, &key, &mut scratch)
        };
        lock_or_recover(&self.memo).insert(key, emb.clone());
        emb
    }

    /// Embed one text through the memo.
    pub fn embed_text(&self, text: &str) -> Vec<f32> {
        let key = self.key_of(text);
        self.embed_ids(&key)
    }

    /// Embed many texts in one call: memo lookups first, then each
    /// *distinct* missing token sequence is embedded exactly once, fanned
    /// out over workers with a per-worker scratch arena. Results are
    /// position-aligned with `texts`.
    pub fn embed_batch<S: AsRef<str> + Sync>(&self, texts: &[S]) -> Vec<Vec<f32>> {
        let keys: Vec<Vec<usize>> = texts.iter().map(|t| self.key_of(t.as_ref())).collect();
        let mut out: Vec<Option<Vec<f32>>> = vec![None; texts.len()];

        // (distinct missing key, positions wanting it)
        let mut misses: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
        {
            let mut seen: HashMap<&[usize], usize, FxBuildHasher> = HashMap::default();
            let mut memo = lock_or_recover(&self.memo);
            for (i, key) in keys.iter().enumerate() {
                if let Some(&mi) = seen.get(key.as_slice()) {
                    misses[mi].1.push(i);
                    continue;
                }
                match memo.get(key) {
                    Some(hit) => out[i] = Some(hit),
                    None => {
                        misses.push((key.clone(), vec![i]));
                        // Indexing `misses` we just pushed; borrow of
                        // `keys` outlives the loop.
                        seen.insert(key.as_slice(), misses.len() - 1);
                    }
                }
            }
        }

        let encoder = &self.encoder;
        let prep = &self.prep;
        let computed = par_map_with(
            &misses,
            BATCH_MIN_CHUNK,
            Scratch::default,
            |scratch, _, (key, _)| forward(encoder, prep, key, scratch),
        );

        {
            let mut memo = lock_or_recover(&self.memo);
            for ((key, positions), emb) in misses.iter().zip(&computed) {
                memo.insert(key.clone(), emb.clone());
                for &p in positions {
                    out[p] = Some(emb.clone());
                }
            }
        }

        out.into_iter().flatten().collect()
    }

    /// Memo hit/miss counters since construction.
    pub fn memo_stats(&self) -> MemoStats {
        let memo = lock_or_recover(&self.memo);
        MemoStats {
            hits: memo.hits,
            misses: memo.misses,
            entries: memo.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transformer::EncoderConfig;

    fn enc() -> Encoder {
        Encoder::new(
            EncoderConfig {
                vocab_size: 60,
                dim: 16,
                heads: 2,
                layers: 2,
                ff_dim: 32,
                max_len: 12,
            },
            7,
        )
    }

    #[test]
    fn tape_free_matches_tape_bitwise() {
        let e = enc();
        for ids in [
            vec![],
            vec![0],
            vec![1, 2, 3],
            vec![5; 12],
            (0..40).collect::<Vec<_>>(),
            vec![10_000, 3],
        ] {
            let fast = e.embed_ids(&ids);
            let slow = e.embed_ids_tape(&ids);
            let fast_bits: Vec<u32> = fast.iter().map(|v| v.to_bits()).collect();
            let slow_bits: Vec<u32> = slow.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fast_bits, slow_bits, "ids={ids:?}");
        }
    }

    #[test]
    fn scratch_reuse_does_not_leak_between_inputs() {
        let e = enc();
        let prep = prepare(&e);
        let mut s = Scratch::default();
        let long = forward(&e, &prep, &[1, 2, 3, 4, 5, 6], &mut s);
        let short = forward(&e, &prep, &[9], &mut s);
        let long_again = forward(&e, &prep, &[1, 2, 3, 4, 5, 6], &mut s);
        assert_eq!(long, long_again);
        assert_eq!(short, forward(&e, &prep, &[9], &mut s));
        assert_ne!(long, short);
    }

    #[test]
    fn batch_encoder_matches_per_text_path() {
        let e = enc();
        let vocab = Vocab::build(
            ["switch port vlan", "interface mtu size"].iter().copied(),
            1,
        );
        let be = BatchEncoder::new(e.clone(), vocab.clone());
        let texts = ["switch port", "interface mtu", "switch port", "vlan size"];
        let batch = be.embed_batch(&texts);
        for (t, b) in texts.iter().zip(&batch) {
            assert_eq!(b, &e.embed_text(&vocab, t), "text={t}");
        }
    }

    #[test]
    fn memo_counts_hits_and_dedups_within_batch() {
        let e = enc();
        let vocab = Vocab::build(["a b c d"].iter().copied(), 1);
        let be = BatchEncoder::new(e, vocab);
        let _ = be.embed_batch(&["a b", "a b", "c d"]);
        let s1 = be.memo_stats();
        assert_eq!(s1.misses, 2, "duplicate within batch embeds once");
        assert_eq!(s1.entries, 2);
        let _ = be.embed_text("a b");
        let s2 = be.memo_stats();
        assert_eq!(s2.hits, s1.hits + 1);
        assert_eq!(s2.misses, s1.misses);
    }

    #[test]
    fn memo_evicts_least_recently_used() {
        let e = enc();
        let vocab = Vocab::build(["a b c"].iter().copied(), 1);
        let be = BatchEncoder::with_memo_capacity(e, vocab, 2);
        let _ = be.embed_text("a");
        let _ = be.embed_text("b");
        let _ = be.embed_text("a"); // refresh "a"
        let _ = be.embed_text("c"); // evicts "b"
        let _ = be.embed_text("a");
        let stats = be.memo_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.hits, 2); // the refresh and the final "a"
        let before = be.memo_stats().misses;
        let _ = be.embed_text("b"); // was evicted → miss
        assert_eq!(be.memo_stats().misses, before + 1);
    }

    #[test]
    fn zero_capacity_disables_memo() {
        let e = enc();
        let vocab = Vocab::build(["a"].iter().copied(), 1);
        let be = BatchEncoder::with_memo_capacity(e.clone(), vocab.clone(), 0);
        let a1 = be.embed_text("a");
        let a2 = be.embed_text("a");
        assert_eq!(a1, a2);
        assert_eq!(be.memo_stats().entries, 0);
        assert_eq!(be.memo_stats().hits, 0);
    }

    #[test]
    fn fx_hasher_is_deterministic_and_spreads() {
        let mut h1 = FxHasher::default();
        h1.write_usize(42);
        let mut h2 = FxHasher::default();
        h2.write_usize(42);
        assert_eq!(h1.finish(), h2.finish());
        let mut h3 = FxHasher::default();
        h3.write_usize(43);
        assert_ne!(h1.finish(), h3.finish());
    }
}
