//! A counting global allocator for the hostile-input harness.
//!
//! Wraps the system allocator with per-thread live-byte and
//! high-water-mark counters so the wire-mutation tests can assert that no
//! mutated image — however inflated its length fields claim to be —
//! drives the decoder into an unbounded allocation.  The decoder's own
//! guard is `mojave_wire::MAX_REASONABLE_LEN`; the cap here is the belt to
//! that suspenders, measured at the allocator where lies are impossible.
//!
//! The counters belong to the thread that allocates, so a measurement
//! window ([`CapAlloc::measure`]) sees only what its own thread does:
//! allocations on other threads — another test, the test harness — never
//! land in it.  A thread's count goes down when it frees memory another
//! thread allocated, so it is signed.
//!
//! This is the one module in the workspace that needs `unsafe`: the
//! [`GlobalAlloc`] trait is unsafe by construction.  The impl only
//! forwards to [`System`] and updates thread-local counters — it never
//! touches the returned memory.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without destructors, so reading them never
    // allocates and never fails during thread teardown.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Counting wrapper around the system allocator.  Install it in a test
/// binary with `#[global_allocator] static ALLOC: CapAlloc = CapAlloc;`.
#[derive(Debug)]
pub struct CapAlloc;

impl CapAlloc {
    /// Run `f` and return its result with the peak bytes this thread had
    /// allocated at once while it ran, and the bytes it left allocated.
    pub fn measure<T>(&self, f: impl FnOnce() -> T) -> (T, usize, usize) {
        let baseline = LIVE.with(Cell::get);
        PEAK.with(|peak| peak.set(baseline));
        let out = f();
        let peak = PEAK.with(Cell::get) - baseline;
        let kept = LIVE.with(Cell::get) - baseline;
        (out, peak.max(0) as usize, kept.max(0) as usize)
    }

    fn record_alloc(size: usize) {
        let _ = LIVE.try_with(|live| {
            let now = live.get() + size as isize;
            live.set(now);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
        });
    }

    fn record_free(size: usize) {
        let _ = LIVE.try_with(|live| live.set(live.get() - size as isize));
    }
}

// SAFETY: every method forwards verbatim to `System` (which upholds the
// `GlobalAlloc` contract) and additionally updates two thread-local
// counters; the counters never influence which pointer is returned.
unsafe impl GlobalAlloc for CapAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::record_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            Self::record_free(layout.size());
            Self::record_alloc(new_size);
        }
        p
    }
}
