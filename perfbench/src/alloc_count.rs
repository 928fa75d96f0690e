//! Heap-allocation counters fed by the traced binary's global allocator.
//!
//! Only `perfbench_traced` installs an allocator that calls
//! [`note_alloc`] / [`note_dealloc`], and it only counts while
//! [`set_enabled`] is on (during traced repetitions). In the untraced
//! binary nothing calls them, so every counter reads 0 and the end-to-end
//! numbers pay nothing for allocation accounting.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Allocations made by the current thread while counting was on. A
    /// const-initialised `Cell` without a destructor: reading or bumping it
    /// never allocates, so the allocator may touch it.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// Every atomic here is a statistic that publishes no other data, so
// `Relaxed` suffices.

/// Turns counting on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Records one allocation (or reallocation) of `bytes` bytes.
#[inline]
pub fn note_alloc(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        LIVE_BYTES.fetch_add(i64::try_from(bytes).unwrap_or(i64::MAX), Ordering::Relaxed);
    }
}

/// Records that `bytes` bytes were freed.
#[inline]
pub fn note_dealloc(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        LIVE_BYTES.fetch_sub(i64::try_from(bytes).unwrap_or(i64::MAX), Ordering::Relaxed);
    }
}

/// Allocations the calling thread made while counting was on.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Net bytes allocated process-wide while counting was on. Only
/// differences between two readings taken while counting stayed on are
/// meaningful.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}
