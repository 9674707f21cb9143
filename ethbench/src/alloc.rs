//! Counting global allocator: peak heap growth over a measured region.
//!
//! Every heap operation in the process moves `HEAP_CURRENT`; `HEAP_PEAK`
//! tracks its high-water mark since the last [`PeakScope::start`]. The
//! counters are process-wide, so a region that spans worker threads
//! (the grid, the sharded engine) is measured as a whole.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

struct CountingAlloc;

static HEAP_CURRENT: AtomicI64 = AtomicI64::new(0);
static HEAP_PEAK: AtomicI64 = AtomicI64::new(0);

#[inline]
fn grow(bytes: i64) {
    let cur = HEAP_CURRENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
    HEAP_PEAK.fetch_max(cur, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's pointer and
// layout unchanged; the only addition is relaxed counter arithmetic, which
// neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        HEAP_CURRENT.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One measured region: peak heap growth above the heap size at start.
pub struct PeakScope {
    start: i64,
}

impl PeakScope {
    /// Resets the high-water mark to the current heap size.
    pub fn start() -> Self {
        let start = HEAP_CURRENT.load(Ordering::Relaxed);
        HEAP_PEAK.store(start, Ordering::Relaxed);
        PeakScope { start }
    }

    /// Peak growth since [`PeakScope::start`], in bytes.
    pub fn peak_bytes(&self) -> u64 {
        (HEAP_PEAK.load(Ordering::Relaxed) - self.start).max(0) as u64
    }
}
