//! A counting wrapper around the system allocator, installed in the
//! benchmark binary only (the `serve` child runs on the plain allocator).
//! The traced pass reads the counters around single calls, so a layer's
//! allocation cost is reported as a count beside its wall clock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to
// `std::alloc::System`, which upholds the `GlobalAlloc` contract for them;
// the only addition is relaxed atomic counter bumps, which allocate
// nothing and cannot unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller's layout goes straight through to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: `ptr` and `layout` come from the paired `alloc` and are
    // forwarded unchanged to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: the arguments are forwarded unchanged to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation calls and bytes requested by `work`, on every thread, while
/// it ran (frees are not tracked: the figure is how much a call writes).
pub fn counted<T>(work: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let out = work();
    (
        out,
        CALLS.load(Ordering::Relaxed) - before.0,
        BYTES.load(Ordering::Relaxed) - before.1,
    )
}
