//! Parallel execution layer for the assimilation pipeline.
//!
//! A deliberately small, dependency-free fan-out primitive backed by a
//! **persistent worker pool** (see [`pool`](crate::pool_stats)):
//! [`par_map`] and its variants split the input into contiguous
//! chunks, push them onto a process-global injector where parked worker
//! threads (plus the calling thread itself) claim and run them, and
//! splice the per-chunk outputs back **in input order**. Because the
//! merge is index-ordered and chunk geometry is a pure function of the
//! input length and resolved worker count, a parallel map is
//! byte-identical to its serial equivalent — the determinism contract
//! every pipeline stage (parser, syntax audit, hierarchy vote, mapper
//! evaluation) relies on — no matter which pool thread ran which chunk.
//!
//! Worker threads are created **once**, lazily, on the first call that
//! wants them; subsequent calls reuse the parked threads with no spawn
//! or teardown cost.
//!
//! Worker count resolution, in priority order:
//! 1. a thread-local override installed by [`with_threads`] (used by
//!    tests and benches so runs don't race on process-global state) —
//!    propagated onto pool workers for the duration of each chunk, so
//!    nested parallelism under an override resolves consistently,
//! 2. the `NASSIM_THREADS` environment variable,
//! 3. `std::thread::available_parallelism()`.
//!
//! Inputs smaller than `MIN_PARALLEL` (4) items, or a resolved worker
//! count of 1, run inline on the calling thread with no pool traffic at
//! all.

use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

mod pool;

pub use pool::{debug_poison_workers, pool_stats, PoolStats};

/// Inputs shorter than this run serially: below it, spawn overhead
/// dominates any possible win.
const MIN_PARALLEL: usize = 4;

/// A worker failure isolated to one input item.
///
/// Produced by [`par_map_isolated`] when the closure panicked on an item:
/// `index` is the item's position in the input slice and `payload` is the
/// panic payload rendered to text (the panic message for the
/// overwhelmingly common `String`/`&str` payloads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// Index of the failing item in the original input slice.
    pub index: usize,
    /// The panic payload, rendered to text.
    pub payload: String,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worker panicked at item {}: {}",
            self.index, self.payload
        )
    }
}

impl std::error::Error for ExecError {}

/// Render a panic payload to text. `panic!`/`assert!` payloads are
/// `String` or `&str`; anything else (a `panic_any` with a custom type)
/// degrades to a placeholder rather than being dropped silently.
fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The raw [`with_threads`] override on this thread, if any — captured
/// at job submission so pool workers can mirror it around each chunk.
pub(crate) fn thread_override() -> Option<usize> {
    THREAD_OVERRIDE.with(Cell::get)
}

fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("NASSIM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map(|n| n.max(1))
    })
}

/// The worker count [`par_map`] will use right now on this thread.
pub fn threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f` with the worker count pinned to `n` on the current thread.
///
/// The override is thread-local and restored on exit (including on
/// panic), so concurrent tests never observe each other's setting —
/// unlike mutating `NASSIM_THREADS` via `std::env::set_var`.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(Some(n.max(1)))));
    f()
}

/// Map `f` over `items` in parallel, preserving input order.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_with(items, 1, || (), move |(), _, t| f(t))
}

/// Map `f(index, item)` over `items` in parallel with a minimum
/// per-worker batch, preserving input order.
///
/// `f` receives the item's index in the *original* slice, so per-item
/// work that depends on position (seeded RNG streams, report labels)
/// is identical whether one worker runs or sixteen.
///
/// Each worker is guaranteed at least `min_chunk` items, so cheap items
/// amortize the fan-out cost instead of losing to it: the worker count
/// resolves to `min(threads(), len / min_chunk)` (at least 1). With
/// `min_chunk` chosen so that one chunk represents a few milliseconds of
/// work, small inputs degrade gracefully to fewer workers — or straight
/// to the inline serial path. The merge is the same index-ordered
/// splice, so results are byte-identical to a serial loop.
pub fn par_map_chunked<T, U, F>(items: &[T], min_chunk: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_with(items, min_chunk, || (), move |(), i, t| f(i, t))
}

/// Resolve how many workers `len` items justify given a `min_chunk`
/// amortisation floor.
fn resolve_workers(len: usize, min_chunk: usize) -> usize {
    if len < MIN_PARALLEL {
        return 1;
    }
    threads().min((len / min_chunk.max(1)).max(1))
}

/// Chunk oversplit factor: each resolved worker's share is split this
/// many ways so fast workers steal from slow ones instead of idling at
/// the tail. Geometry stays a pure function of `(len, min_chunk,
/// resolved workers)`, so determinism is unaffected.
const CHUNKS_PER_WORKER: usize = 4;

/// Output slot array shared with pool workers: each chunk index writes
/// exactly one disjoint `Option` cell, exactly once, so plain raw-pointer
/// writes are race-free; the pool's completion latch (a mutex) publishes
/// them to the caller.
struct Slots<U>(*mut Option<Vec<U>>);
// SAFETY: only `U: Send` values cross threads through the slots, and the
// disjoint-single-write discipline above rules out aliasing.
unsafe impl<U: Send> Send for Slots<U> {}
unsafe impl<U: Send> Sync for Slots<U> {}

impl<U> Slots<U> {
    /// SAFETY: caller must guarantee `ci` is in bounds of the slot array
    /// and written at most once across all threads.
    unsafe fn write(&self, ci: usize, value: Vec<U>) {
        unsafe { *self.0.add(ci) = Some(value) };
    }
}

/// The most general fan-out: map `f(state, index, item)` over `items`
/// with **per-chunk mutable state**, preserving input order.
///
/// `init` runs once per chunk (and once total on the serial path) to
/// build that chunk's state — a scratch arena, a reusable buffer, a
/// memo — which `f` then threads through every item in the chunk. This
/// is how callers reuse allocations across items without sharing (and
/// locking) them across threads. `f` must not let results depend on
/// *which* items share a state beyond reuse of scratch space: outputs
/// must be a pure function of `(index, item)` for the determinism
/// contract to hold.
///
/// `min_chunk` applies the [`par_map_chunked`] min-batch heuristic.
pub fn par_map_with<T, S, U, I, F>(items: &[T], min_chunk: usize, init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> U + Sync,
{
    let len = items.len();
    let workers = resolve_workers(len, min_chunk);
    if workers <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }
    // Oversplit for stealing granularity, but never below the min_chunk
    // amortisation floor and never beyond one item per chunk. Geometry
    // depends only on (len, min_chunk, workers) — not on which threads
    // exist or how they race — so output layout is deterministic.
    let chunk_count = (workers * CHUNKS_PER_WORKER)
        .min((len / min_chunk.max(1)).max(1))
        .min(len);
    let chunk_size = len.div_ceil(chunk_count);
    let chunk_count = len.div_ceil(chunk_size);
    let mut slots: Vec<Option<Vec<U>>> = (0..chunk_count).map(|_| None).collect();
    let out_slots = Slots(slots.as_mut_ptr());
    let init = &init;
    let f = &f;
    let task = move |ci: usize| {
        let start = ci * chunk_size;
        let end = (start + chunk_size).min(len);
        let mut state = init();
        let produced: Vec<U> = items[start..end]
            .iter()
            .enumerate()
            .map(|(j, t)| {
                let index = start + j;
                // Catch per item so a panic can be re-raised carrying
                // the failing item's index — the chunk-level record the
                // pool keeps only knows the chunk.
                match catch_unwind(AssertUnwindSafe(|| f(&mut state, index, t))) {
                    Ok(v) => v,
                    Err(payload) => reraise_with_index(index, payload),
                }
            })
            .collect();
        // SAFETY: `ci < chunk_count` (the pool never claims past the
        // submitted chunk count) and each `ci` is claimed exactly once,
        // so this is a unique write to a live, disjoint cell.
        unsafe { out_slots.write(ci, produced) };
    };
    let panics = pool::run_job(chunk_count, workers - 1, &task);
    // Propagate the lowest-chunk panic — the one a serial loop would
    // have hit first; its payload already carries the item index.
    // Resuming with a partial result would silently corrupt the fold.
    if let Some((_, payload)) = panics.into_iter().next() {
        resume_unwind(payload);
    }
    let mut out = Vec::with_capacity(len);
    for slot in &mut slots {
        if let Some(produced) = slot.take() {
            out.extend(produced);
        }
    }
    out
}

/// Re-raise a caught panic, annotating string payloads with the failing
/// item's index. Non-string payloads are resumed untouched — they may
/// carry typed data a downstream `catch_unwind` wants to downcast.
fn reraise_with_index(index: usize, payload: Box<dyn std::any::Any + Send>) -> ! {
    if payload.is::<String>() || payload.is::<&str>() {
        let msg = payload_to_string(payload.as_ref());
        std::panic::panic_any(format!("worker panicked at item {index}: {msg}"));
    }
    resume_unwind(payload)
}

/// Map `f` over `items` in parallel with **per-item panic isolation**
/// and the [`par_map_chunked`] min-batch heuristic.
///
/// Each call to `f` runs under `catch_unwind`, so one item that panics
/// yields an `Err(`[`ExecError`]`)` in its slot instead of poisoning the
/// whole join — the surviving items still return, in deterministic input
/// order. This is the fan-out primitive for ingesting adversarial input:
/// one pathological manual page must never abort the other thousand.
/// Inputs that take the inline serial path keep the per-item
/// `catch_unwind` — it is the semantic contract.
///
/// `f` should be effectively panic-pure (no shared state left half
/// mutated when it unwinds); the pipeline's page parsers take `&self` and
/// build their output from scratch, which satisfies this trivially.
pub fn par_map_isolated<T, U, F>(items: &[T], min_chunk: usize, f: F) -> Vec<Result<U, ExecError>>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_chunked(items, min_chunk, |index, item| {
        catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|payload| ExecError {
            index,
            payload: payload_to_string(payload.as_ref()),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<u64> = (0..103).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for n in [1, 2, 3, 8, 64] {
            let parallel = with_threads(n, || par_map(&items, |x| x * x + 1));
            assert_eq!(parallel, serial, "mismatch at {n} workers");
        }
    }

    #[test]
    fn chunked_map_sees_original_positions() {
        let items = vec!["a", "b", "c", "d", "e", "f", "g"];
        let want: Vec<String> = items
            .iter()
            .enumerate()
            .map(|(i, s)| format!("{i}:{s}"))
            .collect();
        for min_chunk in [1, 2] {
            let got = with_threads(3, || {
                par_map_chunked(&items, min_chunk, |i, s| format!("{i}:{s}"))
            });
            assert_eq!(got, want, "min_chunk {min_chunk}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs_run_inline() {
        let empty: Vec<u32> = Vec::new();
        assert!(with_threads(8, || par_map(&empty, |x| x + 1)).is_empty());
        let tiny = vec![1u32, 2];
        assert_eq!(with_threads(8, || par_map(&tiny, |x| x + 1)), vec![2, 3]);
    }

    #[test]
    fn with_threads_restores_on_exit_and_panic() {
        let outside = threads();
        with_threads(5, || assert_eq!(threads(), 5));
        assert_eq!(threads(), outside);
        let result = std::panic::catch_unwind(|| with_threads(7, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(threads(), outside);
    }

    #[test]
    fn chunked_map_matches_serial_map() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for min_chunk in [1, 7, 64, 1000] {
            for n in [1, 4, 16] {
                let got = with_threads(n, || par_map_chunked(&items, min_chunk, |_, x| x * 3 + 1));
                assert_eq!(got, serial, "min_chunk {min_chunk}, {n} workers");
            }
        }
    }

    #[test]
    fn min_chunk_caps_worker_count() {
        // 100 items at min_chunk 64 justify only one worker.
        assert_eq!(resolve_workers(100, 64), 1);
        // 10 items below MIN_PARALLEL stay serial regardless.
        assert_eq!(resolve_workers(3, 1), 1);
        // Large inputs still fan all the way out.
        with_threads(8, || {
            assert_eq!(resolve_workers(1024, 64), 8);
            assert_eq!(resolve_workers(130, 64), 2);
        });
    }

    #[test]
    fn par_map_with_reuses_per_worker_state() {
        let items: Vec<u32> = (0..64).collect();
        for n in [1, 4] {
            // State is a scratch buffer; results must not depend on reuse.
            let got = with_threads(n, || {
                par_map_with(&items, 1, Vec::<u32>::new, |scratch, i, &x| {
                    scratch.push(x); // grows per worker, never reset
                    x * 2 + i as u32
                })
            });
            let want: Vec<u32> = items
                .iter()
                .enumerate()
                .map(|(i, &x)| x * 2 + i as u32)
                .collect();
            assert_eq!(got, want, "{n} workers");
        }
    }

    #[test]
    fn workers_more_than_items_is_fine() {
        let items: Vec<usize> = (0..5).collect();
        let got = with_threads(64, || par_map(&items, |x| x + 1));
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn isolated_map_survives_panicking_items() {
        let items: Vec<u32> = (0..40).collect();
        for min_chunk in [1, 8] {
            for n in [1, 8] {
                let got = with_threads(n, || {
                    par_map_isolated(&items, min_chunk, |&x| {
                        if x % 7 == 3 {
                            panic!("boom on {x}");
                        }
                        x * 2
                    })
                });
                assert_eq!(got.len(), items.len());
                for (i, r) in got.iter().enumerate() {
                    if i % 7 == 3 {
                        let e = r.as_ref().expect_err("item should have panicked");
                        assert_eq!(e.index, i);
                        assert!(e.payload.contains(&format!("boom on {i}")), "{e}");
                    } else {
                        assert_eq!(*r, Ok(i as u32 * 2), "min_chunk {min_chunk}, {n} workers");
                    }
                }
            }
        }
    }

    #[test]
    fn isolated_map_renders_non_string_payloads() {
        let items = vec![0u8; 16];
        for min_chunk in [1, 8] {
            for n in [1, 8] {
                let got = with_threads(n, || {
                    par_map_isolated(&items, min_chunk, |_| -> u8 {
                        std::panic::panic_any(42u64)
                    })
                });
                for (i, r) in got.into_iter().enumerate() {
                    let e = r.expect_err("all panic");
                    assert_eq!(e.index, i);
                    assert_eq!(e.payload, "<non-string panic payload>");
                }
            }
        }
    }

    #[test]
    fn par_map_panic_carries_item_index() {
        let items: Vec<u32> = (0..40).collect();
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map(&items, |&x| {
                    if x == 17 {
                        panic!("original message");
                    }
                    x
                })
            })
        });
        let payload = caught.expect_err("must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .expect("string payload")
            .clone();
        assert!(msg.contains("item 17"), "missing index: {msg}");
        assert!(msg.contains("original message"), "payload lost: {msg}");
    }
}
