//! Memory bound for hostile request frames: a frame is as large as the
//! bounded reader lets it be (16 MiB), and decoding it must not multiply
//! that. `Request::parse` of 16 MiB of `[` is a typed `malformed` reply
//! and allocates under 1 MiB while parsing; a parser that first copied
//! the input into a `Vec<char>` allocated 64 MiB for it.
//!
//! A counting global allocator measures the bytes allocated on the
//! parsing thread only, so the test harness's own threads do not count.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim_serve::{ErrKind, Request};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn record(bytes: usize) {
    // `try_with` so an allocation during thread teardown is not counted
    // rather than a panic.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `record` only updates
// thread-local counters and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: as for `dealloc`, plus the caller's guarantee that
        // `new_size` is valid for `layout`'s alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes allocated on this thread while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATED.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATED.with(Cell::get))
}

const FRAME_BYTES: usize = 16 * 1024 * 1024;
const BUDGET: usize = 1024 * 1024;

#[test]
fn a_16_mib_frame_of_brackets_is_malformed_in_under_1_mib() {
    let frames = [
        "[".repeat(FRAME_BYTES),
        format!("{{\"op\":{}", "{\"k\":".repeat(FRAME_BYTES / 5)),
        // An unterminated string: the parser finds no closing quote
        // before it copies anything.
        format!("{{\"op\":\"{}", "a".repeat(FRAME_BYTES)),
    ];
    for frame in &frames {
        let (parsed, bytes) = allocated_by(|| Request::parse(frame));
        let err = parsed.unwrap_err();
        assert_eq!(err.kind, ErrKind::Malformed, "{}", err.message);
        assert!(
            bytes < BUDGET,
            "parsing a {}-byte frame allocated {bytes} bytes",
            frame.len()
        );
    }
}
