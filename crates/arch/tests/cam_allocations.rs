//! Building the simulator must not cost more as the modelled CAMs grow:
//! each CAM is one zeroed table plus a per-set fill count, so a run's heap
//! allocation count is independent of the L2 CAM's set count.
//!
//! The test binary installs a global allocator that counts allocations made
//! on the calling thread, so the test harness's own threads do not disturb
//! the count. This file holds a single test for the same reason.

use spacea_arch::{HwConfig, Machine, RunSpec};
use spacea_mapping::MapKind;
use spacea_matrix::Csr;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Forwards to the system allocator, counting every fresh block.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made by one `Machine::run` of a one-non-zero matrix on the
/// scaled machine with `l2_sets` L2 CAM sets. The matrix, mapping and
/// machine are built before counting starts.
fn run_allocations(l2_sets: usize) -> u64 {
    let hw = HwConfig::scaled().with_l2_cam_sets(l2_sets);
    let a = Csr::from_dense(&[vec![2.0]]);
    let x = [3.0];
    let mapping = MapKind::Proposed.strategy().map(&a, &hw.shape);
    let machine = Machine::new(hw);
    let before = ALLOCS.with(Cell::get);
    let report = machine.run(RunSpec::spmv(&a, &x, &mapping)).expect("run succeeds").into_report();
    let after = ALLOCS.with(Cell::get);
    assert_eq!(report.output, vec![6.0]);
    after - before
}

#[test]
fn run_allocation_count_does_not_depend_on_l2_cam_sets() {
    // Warm up once so lazily initialised process state is not counted.
    run_allocations(2048);
    let paper = run_allocations(2048);
    let wide = run_allocations(8192);
    assert_eq!(paper, wide, "allocations: {paper} with 2048 L2 sets, {wide} with 8192");
}
