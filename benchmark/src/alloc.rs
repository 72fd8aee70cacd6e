//! Counting global allocator: the source of `allocs_per_op`.
//!
//! Always on — the counter is one relaxed atomic increment per
//! allocation, which is below the noise of every workload here. The
//! generator allocates nothing in steady state (frames are pre-built,
//! buffers and the batch are recycled), so a delta taken around a timed
//! window is the program's own allocation count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation events (`alloc`, `alloc_zeroed`, `realloc`) since start.
/// A statistic that publishes no other data, hence `Relaxed`.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus an event counter.
pub struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed counter increment, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`, as `System.realloc` needs.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation events so far in this process.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
