//! The persistent worker pool behind every `par_map` combinator.
//!
//! The original engine spawned scoped threads on **every** call; at
//! hundreds of fan-out calls per pipeline run, the spawn/teardown cost
//! swamped the per-item work (hierarchy derivation measured 0.64× its
//! serial time at 4 workers). This module creates worker threads **once**
//! — lazily, on first parallel call, grown up to the largest worker count
//! any call resolves to — and keeps them parked on a condvar between
//! calls.
//!
//! ## Architecture
//!
//! * **Injector.** Submitted jobs land in a global FIFO
//!   (`Mutex<VecDeque<Arc<Job>>>` + `Condvar`). A job is a type-erased
//!   closure `run(chunk_index)` plus an atomic chunk cursor.
//! * **Chunked stealing.** Workers (and the submitting caller) claim
//!   chunks with a single `fetch_add` on the job's cursor — the
//!   crossbeam-injector pattern collapsed to its essentials: contiguous
//!   chunks are pre-split by the caller, so "stealing" is claiming the
//!   next unclaimed chunk, and the only synchronisation on the hot path
//!   is one uncontended atomic per chunk.
//! * **Help-first waiting.** The submitting thread never blocks while its
//!   own job has unclaimed chunks: it claims and runs them like any
//!   worker, then sleeps only for chunks actively executing on other
//!   threads. This makes nested submissions (a chunk that itself calls
//!   `par_map`) deadlock-free by induction: every claimed chunk is being
//!   executed by exactly one live thread, and execution always
//!   terminates.
//! * **Determinism.** Chunk geometry is a pure function of
//!   `(len, min_chunk, resolved worker count)` and every chunk writes a
//!   disjoint, index-addressed output slot, so results are byte-identical
//!   to a serial loop no matter which thread runs which chunk in which
//!   order.
//! * **Panic isolation.** Each chunk runs under `catch_unwind`; payloads
//!   are recorded per chunk and re-raised on the submitting thread
//!   (lowest chunk first — the same panic a serial loop would have hit
//!   first). A worker thread therefore survives task panics, and if one
//!   ever dies anyway (the only in-tree path is the test-only poison
//!   hook; in theory a panicking payload `Drop` could too), a sentinel
//!   guard respawns a replacement so the pool never shrinks.
//!
//! The pool is process-global and never shuts down: parked workers cost
//! nothing, and pipeline lifetime == process lifetime everywhere this
//! crate is used.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// A caught panic payload.
pub(crate) type Payload = Box<dyn std::any::Any + Send>;

/// Hard ceiling on pool threads: far above any sane `NASSIM_THREADS`,
/// low enough that a typo (`NASSIM_THREADS=80000`) cannot fork-bomb.
const MAX_POOL_WORKERS: usize = 256;

/// Lock, recovering from poisoning: pool state is only mutated under
/// short critical sections that cannot be left half-written.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Type-erased, lifetime-erased chunk runner. The pointee lives on the
/// submitting thread's stack; validity is guaranteed by the completion
/// protocol (see `SAFETY` on [`Job::run_available`]).
struct RawTask(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` (shared execution from many threads is
// its purpose) and the pointer is only dereferenced while the submitting
// stack frame is pinned in `run_job`.
unsafe impl Send for RawTask {}
unsafe impl Sync for RawTask {}

/// One submitted fan-out: `chunks` calls of the erased task.
struct Job {
    task: RawTask,
    chunks: usize,
    /// Next unclaimed chunk index; claims past `chunks` are no-ops.
    next: AtomicUsize,
    /// Worker-count override active on the submitting thread, installed
    /// around chunk execution so nested `par_map`s inside a chunk resolve
    /// the same worker count they would on the submitting thread.
    override_threads: Option<usize>,
    state: Mutex<JobState>,
    done: Condvar,
}

struct JobState {
    finished: usize,
    /// `(chunk index, payload)` for every chunk that panicked.
    panics: Vec<(usize, Payload)>,
}

impl Job {
    /// Claim the next unclaimed chunk, if any.
    fn claim(&self) -> Option<usize> {
        // Relaxed is enough: the claim itself is the only synchronisation
        // this counter provides; chunk *results* are published by the
        // `state` mutex in `finish`.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.chunks).then_some(i)
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.chunks
    }

    /// Claim and run chunks until none are left to claim.
    ///
    /// SAFETY (of the internal raw deref): the submitting thread does not
    /// return from [`run_job`] until `finished == chunks`, and
    /// `finished` is incremented only after a task call has fully
    /// returned or unwound. A claim that fails (`next >= chunks`) never
    /// dereferences the task, so no call site can observe a dangling
    /// pointer.
    fn run_available(&self) {
        while let Some(ci) = self.claim() {
            let result = catch_unwind(AssertUnwindSafe(|| {
                // SAFETY: see above — a successful claim pins liveness.
                let task = unsafe { &*self.task.0 };
                // Propagate the submitter's thread-count override for the
                // duration of the chunk (restored by `with_threads`).
                match self.override_threads {
                    Some(n) => crate::with_threads(n, || task(ci)),
                    None => task(ci),
                }
            }));
            let mut st = lock(&self.state);
            if let Err(payload) = result {
                st.panics.push((ci, payload));
            }
            st.finished += 1;
            if st.finished == self.chunks {
                self.done.notify_all();
            }
        }
    }

    /// Block until every chunk has finished (on whatever thread ran it).
    fn wait_done(&self) {
        let mut st = lock(&self.state);
        while st.finished < self.chunks {
            st = self.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A queue entry: a real job, or a poison pill that kills the worker
/// that swallows it (test hook for the sentinel-respawn path).
enum Item {
    Job(Arc<Job>),
    Poison,
}

struct Pool {
    injector: Mutex<VecDeque<Item>>,
    work: Condvar,
    /// Pool threads ever spawned (live count — respawns replace 1:1).
    workers: Mutex<usize>,
    /// Jobs submitted since process start.
    jobs: AtomicUsize,
    /// Workers respawned after an unexpected worker-thread death.
    respawns: AtomicUsize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        injector: Mutex::new(VecDeque::new()),
        work: Condvar::new(),
        workers: Mutex::new(0),
        jobs: AtomicUsize::new(0),
        respawns: AtomicUsize::new(0),
    })
}

/// Guard that resurrects a worker whose thread dies unwinding. Task
/// panics are caught per chunk, so this only fires on the poison test
/// hook or a pathological payload-drop panic — but it guarantees the
/// pool never silently loses capacity either way.
struct Sentinel;

impl Drop for Sentinel {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let p = pool();
            p.respawns.fetch_add(1, Ordering::Relaxed);
            spawn_worker(p);
        }
    }
}

fn spawn_worker(p: &'static Pool) {
    let spawned = std::thread::Builder::new()
        .name("nassim-exec-worker".into())
        .spawn(move || {
            let _sentinel = Sentinel;
            worker_loop(p);
        })
        .is_ok();
    if !spawned {
        // Out of threads: degrade to fewer workers. Callers never block
        // on pool capacity (they help-first), so this only costs speed.
        let mut w = lock(&p.workers);
        *w = w.saturating_sub(1);
    }
}

fn worker_loop(p: &'static Pool) {
    loop {
        let job = {
            let mut q = lock(&p.injector);
            loop {
                // Prune exhausted jobs parked at the front; their
                // submitters drain them on completion, but a worker that
                // raced past can leave one behind.
                while matches!(q.front(), Some(Item::Job(j)) if j.exhausted()) {
                    q.pop_front();
                }
                let found = q.iter().position(|it| match it {
                    Item::Job(j) => !j.exhausted(),
                    Item::Poison => true,
                });
                match found {
                    Some(i) => match &q[i] {
                        Item::Job(j) => break j.clone(),
                        Item::Poison => {
                            q.remove(i);
                            drop(q);
                            // Unwinds through the loop; the sentinel
                            // respawns a replacement.
                            std::panic::panic_any(PoisonPill);
                        }
                    },
                    None => {
                        q = p.work.wait(q).unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        };
        job.run_available();
    }
}

/// Marker payload of the poison test hook, so the panic is identifiable.
struct PoisonPill;

/// Grow the pool to at least `n` live workers (capped).
fn ensure_workers(p: &'static Pool, n: usize) {
    let n = n.min(MAX_POOL_WORKERS);
    let mut w = lock(&p.workers);
    while *w < n {
        *w += 1;
        spawn_worker(p);
    }
}

/// Submit a `chunks`-way fan-out and run it to completion, helping from
/// the calling thread. Returns the panic records (empty on success),
/// sorted by chunk index.
///
/// `helpers` is how many pool workers the call wants awake alongside the
/// caller — `resolved worker count - 1`.
pub(crate) fn run_job(
    chunks: usize,
    helpers: usize,
    task: &(dyn Fn(usize) + Sync),
) -> Vec<(usize, Payload)> {
    let p = pool();
    ensure_workers(p, helpers);
    p.jobs.fetch_add(1, Ordering::Relaxed);
    // SAFETY: lifetime erasure only. `task` borrows the caller's stack,
    // and this frame does not return before `wait_done` saw every chunk
    // finish (see `Job::run_available`).
    let raw = RawTask(unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
            as *const _
    });
    let job = Arc::new(Job {
        task: raw,
        chunks,
        next: AtomicUsize::new(0),
        override_threads: crate::thread_override(),
        state: Mutex::new(JobState {
            finished: 0,
            panics: Vec::new(),
        }),
        done: Condvar::new(),
    });
    {
        let mut q = lock(&p.injector);
        q.push_back(Item::Job(job.clone()));
    }
    p.work.notify_all();

    // Help-run the remaining chunks, wait for stragglers, then unlink
    // the job from the injector.
    job.run_available();
    job.wait_done();
    {
        let mut q = lock(&p.injector);
        if let Some(i) = q
            .iter()
            .position(|it| matches!(it, Item::Job(j) if Arc::ptr_eq(j, &job)))
        {
            q.remove(i);
        }
    }
    let mut st = lock(&job.state);
    let mut panics = std::mem::take(&mut st.panics);
    panics.sort_by_key(|&(ci, _)| ci);
    panics
}

/// Counters describing the process-global pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Live persistent worker threads.
    pub workers: usize,
    /// Jobs submitted since process start.
    pub jobs: usize,
    /// Workers respawned after an unexpected worker death.
    pub respawns: usize,
}

/// Snapshot of the pool counters (workers are lazily spawned, so this is
/// 0/0/0 until the first parallel call).
pub fn pool_stats() -> PoolStats {
    let p = pool();
    PoolStats {
        workers: *lock(&p.workers),
        jobs: p.jobs.load(Ordering::Relaxed),
        respawns: p.respawns.load(Ordering::Relaxed),
    }
}

/// Test hook: kill `n` pool workers via poison pills (each swallowing
/// worker panics and is respawned by its sentinel). Blocks until the
/// pills are consumed and replacements registered, so callers can assert
/// on [`pool_stats`] deterministically.
#[doc(hidden)]
pub fn debug_poison_workers(n: usize) {
    let p = pool();
    ensure_workers(p, n.max(1));
    let target = p.respawns.load(Ordering::Relaxed) + n;
    {
        let mut q = lock(&p.injector);
        for _ in 0..n {
            q.push_back(Item::Poison);
        }
    }
    p.work.notify_all();
    while p.respawns.load(Ordering::Relaxed) < target {
        std::thread::yield_now();
    }
}
