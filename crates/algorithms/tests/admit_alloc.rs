//! `RobustFilter::admit` performs no heap allocation.
//!
//! The window's buffers are sized when the filter is built, so neither the
//! order-statistic queries nor the push that follows them may allocate, in
//! warmup or after the window has wrapped. A counting global allocator
//! checks it; this file holds a single test so no other test's allocations
//! are counted.

use dslice_algorithms::RobustFilter;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` (every allocation here does)
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn admit_never_allocates() {
    for window in [64, 128] {
        // A spread stream with a periodic far outlier, so both verdicts and
        // every branch of the tests occur.
        let sample = |i: usize| {
            if i.is_multiple_of(17) {
                1e6
            } else {
                ((i * 7919) % 1000) as f64
            }
        };
        let mut filters = [
            RobustFilter::new(window),
            RobustFilter::trimmed(window, 0.1),
            RobustFilter::fenced_trimmed(window, 0.1),
        ];
        // Half-filled windows keep their full buffers through a clone.
        for filter in &mut filters {
            for i in 0..window / 2 {
                filter.admit(sample(i));
            }
        }
        let mut filters = filters.clone();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let mut admitted = 0usize;
        for i in window / 2..20 * window {
            for filter in &mut filters {
                admitted += usize::from(filter.admit(sample(i)));
            }
        }
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(allocations, 0, "admit allocated at window {window}");
        assert!(admitted > 0 && admitted < 3 * 20 * window);
    }
}
