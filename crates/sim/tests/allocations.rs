//! The event queue and the load queues must not allocate per event: both
//! keep their entries in slabs, and the queue's next-cycle lane and the
//! load queues' key index in buffers, that grow to the peak pending count
//! and then reuse freed room.
//!
//! The test binary installs a global allocator that counts allocations and
//! reallocations made on the calling thread, so tests running on other
//! threads do not disturb a count.

use spacea_sim::engine::EventQueue;
use spacea_sim::ldq::LoadQueue;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Forwards to the system allocator, counting every fresh or resized block.
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
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made by a fresh queue that carries one event forward `hop`
/// cycles at a time for `hops` hops, drained the way the machine drains.
fn carry_one_event(hops: u64, hop: u64) -> u64 {
    let mut batch = Vec::with_capacity(1);
    let before = allocations();
    let mut q = EventQueue::new();
    q.schedule(0, 0u64);
    while let Some(t) = q.drain_cycle(&mut batch) {
        for n in batch.drain(..) {
            if n + 1 < hops {
                q.schedule(t + hop, n + 1);
            }
        }
    }
    assert_eq!(q.processed_count(), hops);
    allocations() - before
}

#[test]
fn event_queue_allocations_do_not_grow_with_buckets_touched() {
    // A one-cycle hop goes through the next-cycle lane, so the wheel is
    // walked with a hop of 3: 200 hops touch 200 wheel buckets, and 20,000
    // hops touch all 4,096 (3 is coprime to 4,096) several times over.
    let short = carry_one_event(200, 3);
    let long = carry_one_event(20_000, 3);
    assert_eq!(short, long, "wheel allocations: {short} over 200 hops, {long} over 20,000");
}

#[test]
fn event_queue_allocations_do_not_grow_with_lane_cycles() {
    let short = carry_one_event(200, 1);
    let long = carry_one_event(20_000, 1);
    assert_eq!(short, long, "lane allocations: {short} over 200 hops, {long} over 20,000");
}

#[test]
fn load_queue_reuses_its_slots() {
    const IN_FLIGHT: u64 = 8;
    let mut q: LoadQueue<u32> = LoadQueue::new(IN_FLIGHT as usize);
    let mut woken: Vec<u32> = Vec::with_capacity(2);
    // Every key gets a requesting waiter and a deduplicated one.
    fn admit(q: &mut LoadQueue<u32>, key: u64) {
        q.push_forced_at(key, key as u32, key);
        q.push_forced_at(key, key as u32 + 1, key);
    }
    for key in 0..IN_FLIGHT {
        admit(&mut q, key);
    }
    let before = allocations();
    for key in IN_FLIGHT..10_000 {
        woken.clear();
        q.complete(key - IN_FLIGHT, &mut woken);
        assert_eq!(woken.len(), 2);
        admit(&mut q, key);
    }
    let after = allocations();
    assert_eq!(q.len(), IN_FLIGHT as usize);
    assert_eq!(q.counters().completed, 10_000 - IN_FLIGHT);
    assert_eq!(after - before, 0, "allocations after the first {IN_FLIGHT} admissions");
}
