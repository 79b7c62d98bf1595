//! The "allocation-free after warmup" contract of `LatencyHistogram`,
//! measured with a counting global allocator rather than asserted by
//! inspection (same stance as `crypto_bench` / `wire_bench`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations per thread, so an allocation by the test harness or
/// another test's thread during a measured window is not charged to it.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the current thread makes while running `f`.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn record_merge_and_quantile_never_allocate() {
    use pdn_simnet::LatencyHistogram;

    // Construction is the one allocating step.
    let mut a = LatencyHistogram::new();
    let mut b = LatencyHistogram::new();

    let recorded = allocs(|| {
        let mut v = 3u64;
        for i in 0..100_000u64 {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(i);
            a.record(v % 10_000_000_000);
            b.record_n(v % 1_000, 3);
        }
    });
    assert_eq!(recorded, 0, "record allocated {recorded} times");

    let queried = allocs(|| {
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            std::hint::black_box(a.quantile(q));
            std::hint::black_box(b.quantile(q));
        }
        std::hint::black_box(a.mean());
    });
    assert_eq!(queried, 0, "quantile/mean allocated {queried} times");

    let merged = allocs(|| {
        a.merge(&b);
        a.clear();
    });
    assert_eq!(merged, 0, "merge/clear allocated {merged} times");
}
