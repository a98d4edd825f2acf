//! Heap counters fed by the counting `GlobalAlloc` in the `sim-bench`
//! binary's crate root (the only place in this package with `unsafe`).
//! Without that allocator installed — in this library's own tests — every
//! counter stays 0.
//!
//! Counting costs three atomic read-modify-writes per allocation, which the
//! engine's allocation rate turns into a third of a statement's time. So
//! the counters only run inside a [`Window`], and the harness opens one
//! around a round of its own whose timings it discards.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

// Relaxed everywhere: these are statistics and publish no other data.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
/// Live bytes relative to the level at `Window::open`; frees of older
/// blocks take it below zero.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Called by the allocator after a successful allocation of `size` bytes.
pub fn on_alloc(size: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCATED.fetch_add(size as u64, Relaxed);
        let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
        PEAK.fetch_max(live, Relaxed);
    }
}

/// Called by the allocator when `size` bytes are freed.
pub fn on_dealloc(size: usize) {
    if COUNTING.load(Relaxed) {
        LIVE.fetch_sub(size as i64, Relaxed);
    }
}

/// Bytes allocated since the window opened.
pub fn allocated() -> u64 {
    ALLOCATED.load(Relaxed)
}

/// Bytes live now, minus bytes live when the window opened.
pub fn live() -> i64 {
    LIVE.load(Relaxed)
}

/// Highest `live()` since the window opened.
pub fn peak() -> i64 {
    PEAK.load(Relaxed)
}

/// One counted interval. One at a time: opening a window zeroes the
/// counters.
#[derive(Debug)]
pub struct Window(());

impl Window {
    pub fn open() -> Window {
        ALLOCATED.store(0, Relaxed);
        LIVE.store(0, Relaxed);
        PEAK.store(0, Relaxed);
        COUNTING.store(true, Relaxed);
        Window(())
    }

    /// Stop counting: `(bytes allocated, peak of live bytes above the level
    /// at open)`.
    pub fn close(self) -> (u64, u64) {
        COUNTING.store(false, Relaxed);
        (allocated(), peak().max(0) as u64)
    }
}
