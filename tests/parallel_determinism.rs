//! The parallel engine must be invisible: generating and assimilating a
//! manual with 1 worker and with 8 workers must produce identical pages,
//! reports, votes and VDMs — wall-clock timings excluded.
// Test fixtures: unwrap/expect outside #[test] fns (helpers) are fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim::pipeline::{assimilate, Assimilation};
use nassim_datasets::{catalog::Catalog, manualgen, style};
use nassim_exec::with_threads;
use nassim_parser::parser_for;

/// Defect injection on: the determinism contract must hold on the
/// interesting paths (audit failures, ambiguity votes), not just the
/// clean one.
fn gen_opts() -> manualgen::GenOptions {
    manualgen::GenOptions {
        seed: 42,
        syntax_error_rate: 0.05,
        ambiguity_rate: 0.10,
        ..Default::default()
    }
}

fn assimilate_helix(threads: usize) -> Assimilation {
    let cat = Catalog::base();
    let parser = parser_for("helix").unwrap();
    nassim_exec::with_threads(threads, || {
        let m = manualgen::generate(&style::vendor("helix").unwrap(), &cat, &gen_opts());
        assimilate(
            parser.as_ref(),
            m.pages.iter().map(|p| (p.url.as_str(), p.html.as_str())),
        )
        .unwrap()
    })
}

#[test]
fn manual_generation_is_identical_across_worker_counts() {
    let cat = Catalog::base();
    let st = style::vendor("helix").unwrap();
    let a = nassim_exec::with_threads(1, || manualgen::generate(&st, &cat, &gen_opts()));
    let b = nassim_exec::with_threads(8, || manualgen::generate(&st, &cat, &gen_opts()));
    assert_eq!(a.pages.len(), b.pages.len());
    for (pa, pb) in a.pages.iter().zip(&b.pages) {
        assert_eq!(pa.url, pb.url);
        assert_eq!(
            pa.html, pb.html,
            "page {} differs across worker counts",
            pa.url
        );
    }
    assert_eq!(a.defects, b.defects);
}

#[test]
fn assimilation_is_identical_at_1_and_8_threads() {
    let a = assimilate_helix(1);
    let b = assimilate_helix(8);

    // Parser output and TDD report.
    assert_eq!(
        format!("{:?}", a.parse.report),
        format!("{:?}", b.parse.report)
    );
    assert_eq!(
        format!("{:?}", a.parse.pages),
        format!("{:?}", b.parse.pages)
    );

    // Stage 1: syntax audit, including failure order.
    assert_eq!(format!("{:?}", a.syntax), format!("{:?}", b.syntax));

    // Stage 2: derivation (everything except the Duration stats).
    assert_eq!(a.derivation.openers, b.derivation.openers);
    assert_eq!(a.derivation.votes, b.derivation.votes);
    assert_eq!(
        format!("{:?}", a.derivation.ambiguous),
        format!("{:?}", b.derivation.ambiguous)
    );
    assert_eq!(a.derivation.root_view, b.derivation.root_view);
    assert_eq!(a.derivation.stats.votes_cast, b.derivation.stats.votes_cast);
    assert_eq!(
        a.derivation.stats.example_snippets,
        b.derivation.stats.example_snippets
    );
    assert_eq!(
        a.derivation.stats.self_match_failures,
        b.derivation.stats.self_match_failures
    );

    // The assembled VDM, byte-for-byte.
    assert_eq!(
        serde_json::to_string(&a.build.vdm).unwrap(),
        serde_json::to_string(&b.build.vdm).unwrap()
    );
    assert_eq!(a.build.unplaced_pages, b.build.unplaced_pages);

    // Table-4 report with the wall-clock field zeroed out.
    let mut ra = a.report("model", None);
    let mut rb = b.report("model", None);
    ra.construction_time = std::time::Duration::ZERO;
    rb.construction_time = std::time::Duration::ZERO;
    assert_eq!(ra, rb);
}

// ---------------------------------------------------------------------
// Pool-level determinism: every combinator must be byte-identical at 1
// and 8 workers, across reuse of the persistent pool, after worker
// panics, and under nested `with_threads` overrides.
// ---------------------------------------------------------------------

#[test]
fn every_combinator_is_identical_at_1_and_8_threads() {
    let items: Vec<u64> = (0..523).collect();

    let serial_map = with_threads(1, || nassim_exec::par_map(&items, |x| x * x + 7));
    let parallel_map = with_threads(8, || nassim_exec::par_map(&items, |x| x * x + 7));
    assert_eq!(serial_map, parallel_map);

    for min_chunk in [1, 16, 100] {
        let chunked = |threads: usize| {
            with_threads(threads, || {
                nassim_exec::par_map_chunked(&items, min_chunk, |i, x| {
                    (i as u64) * 1000 + (x ^ 0xABCD)
                })
            })
        };
        assert_eq!(chunked(1), chunked(8), "min_chunk {min_chunk}");
    }

    let s = with_threads(1, || {
        nassim_exec::par_map_with(&items, 4, Vec::<u64>::new, |scratch, i, &x| {
            scratch.push(x);
            x.rotate_left((i % 13) as u32)
        })
    });
    let p = with_threads(8, || {
        nassim_exec::par_map_with(&items, 4, Vec::<u64>::new, |scratch, i, &x| {
            scratch.push(x);
            x.rotate_left((i % 13) as u32)
        })
    });
    assert_eq!(s, p);

    for min_chunk in [1, 8] {
        let isolated = |threads: usize| {
            with_threads(threads, || {
                nassim_exec::par_map_isolated(&items, min_chunk, |&x| {
                    if x % 97 == 13 {
                        panic!("boom {x}")
                    } else {
                        x
                    }
                })
            })
        };
        assert_eq!(isolated(1), isolated(8), "min_chunk {min_chunk}");
    }
}

#[test]
fn pool_is_reused_across_sequential_calls() {
    let items: Vec<u32> = (0..256).collect();
    let want: Vec<u32> = items.iter().map(|x| x + 1).collect();
    // Warm the pool to this binary's widest worker count (tests share
    // the process-global pool and run concurrently, so the snapshot must
    // be taken at the high-water mark), then run many more fan-outs: the
    // worker count must not grow — the same parked threads serve every
    // call.
    with_threads(8, || nassim_exec::par_map(&items, |x| x + 1));
    let warm = nassim_exec::pool_stats();
    assert!(
        warm.workers >= 7,
        "pool should have spawned helpers: {warm:?}"
    );
    for _ in 0..50 {
        let got = with_threads(4, || nassim_exec::par_map(&items, |x| x + 1));
        assert_eq!(got, want);
    }
    let after = nassim_exec::pool_stats();
    assert_eq!(
        after.workers, warm.workers,
        "pool spawned new threads per call"
    );
    assert!(
        after.jobs >= warm.jobs + 50,
        "calls should route through the pool"
    );
}

#[test]
fn pool_survives_task_panics_and_worker_deaths() {
    let items: Vec<u32> = (0..64).collect();
    let want: Vec<u32> = items.iter().map(|x| x * 2).collect();
    // Warm to the binary's high-water mark so concurrent tests cannot
    // grow the pool between the snapshots below.
    with_threads(8, || nassim_exec::par_map(&items, |x| x * 2));

    // A panicking task must not take the pool down for later calls.
    let caught = std::panic::catch_unwind(|| {
        with_threads(8, || {
            nassim_exec::par_map(&items, |&x| {
                if x == 33 {
                    panic!("task panic");
                }
                x
            })
        })
    });
    assert!(caught.is_err());
    let got = with_threads(8, || nassim_exec::par_map(&items, |x| x * 2));
    assert_eq!(got, want, "pool broken after a task panic");

    // Kill actual worker threads; the sentinel must respawn them and the
    // pool must keep producing correct results.
    let before = nassim_exec::pool_stats();
    nassim_exec::debug_poison_workers(2);
    let after = nassim_exec::pool_stats();
    assert!(
        after.respawns >= before.respawns + 2,
        "workers were not respawned: {before:?} -> {after:?}"
    );
    assert_eq!(after.workers, before.workers, "pool lost capacity");
    let got = with_threads(8, || nassim_exec::par_map(&items, |x| x * 2));
    assert_eq!(got, want, "pool broken after worker deaths");
}

#[test]
fn with_threads_nesting_propagates_through_the_pool() {
    // An inner override must win over the outer one, on the calling
    // thread and inside pool chunks alike; the outer override must be
    // restored afterwards.
    let outer: Vec<usize> = with_threads(8, || {
        assert_eq!(nassim_exec::threads(), 8);
        let inner = with_threads(2, || {
            assert_eq!(nassim_exec::threads(), 2);
            // Chunks run under the submitter's override even when they
            // execute on pool workers that have no override of their own.
            nassim_exec::par_map(&(0..97u32).collect::<Vec<_>>(), |_| nassim_exec::threads())
        });
        assert_eq!(nassim_exec::threads(), 8, "outer override not restored");
        inner
    });
    assert!(
        outer.iter().all(|&t| t == 2),
        "chunk saw wrong thread count: {outer:?}"
    );

    // Nested par_map inside a pool chunk stays deterministic.
    let items: Vec<u32> = (0..48).collect();
    let nested = |threads: usize| {
        with_threads(threads, || {
            nassim_exec::par_map(&items, |&x| {
                let inner: Vec<u32> =
                    nassim_exec::par_map(&(0..17u32).collect::<Vec<_>>(), |&y| x * 100 + y);
                inner.iter().sum::<u32>()
            })
        })
    };
    assert_eq!(nested(1), nested(8));
}
