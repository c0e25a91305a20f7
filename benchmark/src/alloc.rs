//! A counting wrapper over the system allocator.
//!
//! Feeds the exact cost counts (`alloc_bytes_per_op`, `allocs_per_op`,
//! `heap.*`, `core.provision_allocs`). The counters are statistics that
//! publish no other data, so every access is `Relaxed`; the benchmark
//! drives the library from one thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// `System` with relaxed counters on every call.
pub struct Counting;

fn grew(by: u64) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(by, Relaxed);
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory
// handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as u64);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as u64);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc counts as one call requesting the new size.
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        grew(new_size as u64);
        // SAFETY: `ptr`/`layout` came from this allocator; `new_size` is
        // the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls and bytes requested since process start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    pub calls: u64,
    pub bytes: u64,
}

impl Counts {
    pub fn now() -> Self {
        Counts {
            calls: CALLS.load(Relaxed),
            bytes: BYTES.load(Relaxed),
        }
    }

    /// What was requested since `earlier`.
    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Bytes currently allocated.
pub fn live_bytes() -> u64 {
    LIVE.load(Relaxed)
}

/// Highest `live_bytes` since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}

/// Restart peak tracking from the current live size (once per repetition).
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}
