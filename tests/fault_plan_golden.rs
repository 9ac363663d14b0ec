//! The decision streams of all four seeded fault-plan families, pinned.
//!
//! The chaos suites replay a run only against another run of the same
//! code, so a change to the draw contract that both share goes unseen;
//! these digests see it. Each plan renders every decision, then its
//! drained log as `seq:class:target[:offset]` lines, and each family
//! reduces to one `digest64` over seeds {0, 1, 3, 7, 11, 42} × rates
//! {0, 0.05, 0.25, 0.5, 0.7, 1.0}: uniform and single-class plans for
//! the device and ingestion families, uniform serving plans, and crash
//! plans over a mix of store writes and journal appends. The literals
//! were captured from the four per-family plans that preceded the
//! shared `nassim_diag::chaos` engine.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim::{decide_crash, CrashPlan, PersistOp};
use nassim_corpus::digest64;
use nassim_datasets::corrupt::CorruptKind;
use nassim_device::faults::FaultKind;
use nassim_diag::chaos::{FaultClass, SeededPlan};
use nassim_serve::ServeFaultPlan;
use std::fmt::Write;
use std::path::Path;

const SEEDS: [u64; 6] = [0, 1, 3, 7, 11, 42];
const RATES: [f64; 6] = [0.0, 0.05, 0.25, 0.5, 0.7, 1.0];
/// Decisions drawn per plan.
const DRAWS: usize = 200;

/// Renders one plan: a header, a token per decision (the class name,
/// or `-` for a miss), the drained log and the injection count.
fn render<K: FaultClass>(
    out: &mut String,
    header: String,
    plan: &SeededPlan<K>,
    target: fn(usize) -> String,
) {
    writeln!(out, "{header}").unwrap();
    for i in 0..DRAWS {
        let decision = plan.decide(target(i));
        writeln!(
            out,
            "{}",
            decision.map_or("-".to_string(), |k| k.to_string())
        )
        .unwrap();
    }
    render_log(out, plan);
}

fn render_log<K: FaultClass>(out: &mut String, plan: &SeededPlan<K>) {
    for injection in plan.take_injections() {
        writeln!(out, "{injection}").unwrap();
    }
    writeln!(out, "count {}", plan.injection_count()).unwrap();
}

/// A family's uniform plan, then one single-class plan per class, at
/// every (seed, rate). The device `FaultPlan` wraps exactly these plans.
fn class_matrix<K: FaultClass>(target: fn(usize) -> String) -> u64 {
    let mut out = String::new();
    for seed in SEEDS {
        for rate in RATES {
            let uniform = SeededPlan::<K>::uniform(seed, rate);
            render(
                &mut out,
                format!("plan {seed} {rate} all"),
                &uniform,
                target,
            );
            for &kind in K::ALL {
                let only = SeededPlan::only(seed, kind, rate);
                render(
                    &mut out,
                    format!("plan {seed} {rate} {kind}"),
                    &only,
                    target,
                );
            }
        }
    }
    digest64(out.as_bytes())
}

fn serve_stream() -> u64 {
    let mut out = String::new();
    for seed in SEEDS {
        for rate in RATES {
            let plan = ServeFaultPlan::uniform(seed, rate);
            render(&mut out, format!("plan {seed} {rate}"), &plan, |i| {
                i.to_string()
            });
        }
    }
    digest64(out.as_bytes())
}

/// Record lengths the crash mix cycles through, from one byte (where a
/// torn write keeps nothing) to a large store.
const CRASH_LENS: [usize; 7] = [1, 2, 17, 64, 513, 4096, 65_536];

fn crash_stream() -> u64 {
    let store = Path::new("store.json");
    let journal = Path::new("journal.log");
    let mut out = String::new();
    for seed in SEEDS {
        for rate in RATES {
            let plan = CrashPlan::uniform(seed, rate);
            writeln!(out, "plan {seed} {rate}").unwrap();
            for i in 0..DRAWS {
                let len = CRASH_LENS[i % CRASH_LENS.len()] + i;
                let (op, path) = if i % 3 == 0 {
                    (PersistOp::JournalAppend, journal)
                } else {
                    (PersistOp::StoreWrite, store)
                };
                match decide_crash(&plan, op, path, len) {
                    Some(inj) => writeln!(out, "{}:{:?}", inj.kind, inj.offset).unwrap(),
                    None => writeln!(out, "-").unwrap(),
                }
            }
            render_log(&mut out, &plan);
        }
    }
    digest64(out.as_bytes())
}

#[test]
fn device_decisions_are_pinned() {
    let stream = class_matrix::<FaultKind>(|i| format!("cmd {i}"));
    assert_eq!(stream, 0xf9d1_8cd3_5ac8_e6d7);
}

#[test]
fn corruption_decisions_are_pinned() {
    let stream = class_matrix::<CorruptKind>(|i| format!("manual://x/{i}"));
    assert_eq!(stream, 0x74fb_225a_78a1_ca8d);
}

#[test]
fn serve_decisions_are_pinned() {
    assert_eq!(serve_stream(), 0x6d40_face_e52d_5791);
}

#[test]
fn crash_decisions_and_offsets_are_pinned() {
    assert_eq!(crash_stream(), 0xfe1a_4529_77cb_04ef);
}
