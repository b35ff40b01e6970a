//! Calendar-queue vs reference-heap equivalence: arbitrary schedules must
//! produce bitwise-identical delivery streams from both engines.
//!
//! The calendar queue ([`EventQueue`]) replaced the `BinaryHeap` engine
//! (kept verbatim as [`reference::HeapQueue`]). Its correctness contract is
//! "observably identical": same pop stream, same `drain_cycle` batches,
//! same clock positions — including the tricky regions the wheel layout
//! creates (same-cycle bursts inside one bucket, far-future events routed
//! through the overflow tree and migrated back, past schedules clamped to
//! now, next-cycle events on the lane meeting the wheel events of their
//! cycle). These tests drive both engines in lockstep through arbitrary
//! operation sequences and compare every observable.

use proptest::prelude::*;
use spacea_sim::engine::reference::HeapQueue;
use spacea_sim::engine::{EventQueue, WHEEL_BUCKETS};
use spacea_sim::workload::{run_workload, standard_workloads};

/// One step of an interleaved schedule/deliver sequence, decoded from a
/// generated `(selector, at, payload)` triple.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule `payload` at absolute cycle `at`. Because the clock only
    /// moves forward, late ops with small `at` exercise the past-clamp
    /// path; large `at` values land beyond the 4096-bucket wheel horizon
    /// and exercise the overflow tree.
    Schedule { at: u64, payload: u32 },
    /// Schedule `payload` at `now + ahead`: `ahead == 1` goes to the
    /// calendar queue's next-cycle lane.
    ScheduleAhead { ahead: u64, payload: u32 },
    /// Pop one event.
    Pop,
    /// Drain the whole next cycle as a batch; for every drained event with
    /// an odd payload, schedule a follow-up *at the drained cycle* — the
    /// same-cycle re-entry pattern the machine's drain loop produces.
    Drain,
    /// Drain like [`Op::Drain`], but follow up every drained event whose
    /// payload is 1 mod 3 at the next cycle (onto the lane, behind
    /// anything already there) and every one that is 2 mod 3 at the
    /// drained cycle.
    DrainAhead,
}

/// Weighted decode: half schedules (so queues actually fill up), the rest
/// split between pops and drains.
fn decode(selector: u8, at: u64, payload: u32) -> Op {
    match selector % 8 {
        0..=3 => Op::Schedule { at, payload },
        4 | 5 => Op::Pop,
        _ => Op::Drain,
    }
}

/// The clock-relative offsets [`decode_relative`] picks from: now, the
/// lane, the first wheel bucket past it, and the overflow boundary.
const AHEAD: [u64; 6] = [0, 1, 1, 2, WHEEL_BUCKETS as u64 - 1, WHEEL_BUCKETS as u64];

/// Clock-relative decode: half schedules at an [`AHEAD`] offset (so the
/// lane fills while the wheel still holds events for the same cycle), the
/// rest pops and both kinds of drain.
fn decode_relative(selector: u8, ahead: usize, payload: u32) -> Op {
    match selector % 8 {
        0..=3 => Op::ScheduleAhead { ahead: AHEAD[ahead % AHEAD.len()], payload },
        4 | 5 => Op::Pop,
        6 => Op::Drain,
        _ => Op::DrainAhead,
    }
}

/// Applies one op to both engines and asserts every observable matches.
fn step(op: Op, cal: &mut EventQueue<u32>, heap: &mut HeapQueue<u32>) {
    match op {
        Op::Schedule { at, payload } => {
            cal.schedule(at, payload);
            heap.schedule(at, payload);
        }
        Op::ScheduleAhead { ahead, payload } => {
            assert_eq!(cal.now(), heap.now(), "clocks diverged");
            cal.schedule(cal.now() + ahead, payload);
            heap.schedule(heap.now() + ahead, payload);
        }
        Op::Pop => {
            assert_eq!(cal.pop(), heap.pop(), "pop streams diverged");
        }
        Op::DrainAhead => {
            let (mut cb, mut hb) = (Vec::new(), Vec::new());
            let (ct, ht) = (cal.drain_cycle(&mut cb), heap.drain_cycle(&mut hb));
            assert_eq!(ct, ht, "drain cycles diverged");
            assert_eq!(cb, hb, "drain batches diverged at cycle {ct:?}");
            if let Some(t) = ct {
                for &p in &cb {
                    let at = match p % 3 {
                        1 => t + 1,
                        2 => t,
                        _ => continue,
                    };
                    cal.schedule(at, p / 3);
                    heap.schedule(at, p / 3);
                }
            }
        }
        Op::Drain => {
            let (mut cb, mut hb) = (Vec::new(), Vec::new());
            let (ct, ht) = (cal.drain_cycle(&mut cb), heap.drain_cycle(&mut hb));
            assert_eq!(ct, ht, "drain cycles diverged");
            assert_eq!(cb, hb, "drain batches diverged at cycle {ct:?}");
            if let Some(t) = ct {
                for &p in cb.iter().filter(|&&p| p % 2 == 1) {
                    // Same-cycle follow-up: must be delivered at cycle t,
                    // after everything drained above, by both engines.
                    cal.schedule(t, p.wrapping_mul(31));
                    heap.schedule(t, p.wrapping_mul(31));
                }
            }
        }
    }
    assert_eq!(cal.len(), heap.len(), "pending counts diverged");
    assert_eq!(cal.peek_time(), heap.peek_time(), "peek times diverged");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn calendar_matches_heap_on_arbitrary_schedules(
        ops in proptest::collection::vec((any::<u8>(), 0u64..20_000, any::<u32>()), 1..400)
    ) {
        let mut cal = EventQueue::new();
        let mut heap = HeapQueue::new();
        for (selector, at, payload) in ops {
            step(decode(selector, at, payload), &mut cal, &mut heap);
        }
        // Drain both to empty: the tails must agree too.
        loop {
            let (c, h) = (cal.pop(), heap.pop());
            prop_assert_eq!(c, h, "tail pop streams diverged");
            if c.is_none() {
                break;
            }
        }
        cal.check_counters();
    }

    #[test]
    fn lane_matches_heap_on_clock_relative_schedules(
        ops in proptest::collection::vec((any::<u8>(), 0usize..64, any::<u32>()), 1..400)
    ) {
        // Schedules relative to the clock put events on the lane often,
        // and drains add next-cycle follow-ups behind them, so pops and
        // drains keep meeting a due lane next to the wheel bucket of the
        // same cycle.
        let mut cal = EventQueue::new();
        let mut heap = HeapQueue::new();
        for (selector, ahead, payload) in ops {
            step(decode_relative(selector, ahead, payload), &mut cal, &mut heap);
        }
        loop {
            let (mut cb, mut hb) = (Vec::new(), Vec::new());
            let (c, h) = (cal.drain_cycle(&mut cb), heap.drain_cycle(&mut hb));
            prop_assert_eq!(c, h, "tail drain cycles diverged");
            prop_assert_eq!(cb, hb, "tail drain batches diverged");
            if c.is_none() {
                break;
            }
        }
        cal.check_counters();
    }

    #[test]
    fn same_cycle_bursts_preserve_fifo_order(
        burst in proptest::collection::vec(any::<u32>(), 1..200),
        at in 0u64..10_000
    ) {
        // All events land in one bucket; both engines must deliver them in
        // scheduling order (the seq tie-break), and one drain must take the
        // whole burst.
        let mut cal = EventQueue::new();
        let mut heap = HeapQueue::new();
        for &p in &burst {
            cal.schedule(at, p);
            heap.schedule(at, p);
        }
        let (mut cb, mut hb) = (Vec::new(), Vec::new());
        prop_assert_eq!(cal.drain_cycle(&mut cb), Some(at));
        prop_assert_eq!(heap.drain_cycle(&mut hb), Some(at));
        prop_assert_eq!(&cb, &burst, "calendar drain must be FIFO");
        prop_assert_eq!(&hb, &burst, "heap drain must be FIFO");
        prop_assert!(cal.is_empty() && heap.is_empty());
    }

    #[test]
    fn far_future_overflow_round_trips(
        near in proptest::collection::vec((0u64..4_000, any::<u32>()), 1..50),
        far in proptest::collection::vec((5_000u64..1_000_000, any::<u32>()), 1..50)
    ) {
        // Mix events inside the wheel horizon with events far beyond it
        // (overflow tree), then pop everything: the merged stream must
        // match the heap exactly, proving overflow migration preserves
        // both ordering and the FIFO tie-break.
        let mut cal = EventQueue::new();
        let mut heap = HeapQueue::new();
        for &(at, p) in near.iter().chain(&far) {
            cal.schedule(at, p);
            heap.schedule(at, p);
        }
        loop {
            let (c, h) = (cal.pop(), heap.pop());
            prop_assert_eq!(c, h, "overflow pop streams diverged");
            if c.is_none() {
                break;
            }
        }
    }
}

/// The `engine_bench` workload suite replays to identical results on both
/// engines — the same cross-check the benchmark performs, pinned as a test
/// so `cargo test` catches a divergence without running the bench.
#[test]
fn standard_workloads_agree_across_engines() {
    for w in standard_workloads() {
        let cal = run_workload(&w, &mut EventQueue::new());
        let heap = run_workload(&w, &mut HeapQueue::new());
        assert_eq!(cal, heap, "workload {} diverged between engines", w.name);
        assert!(cal.events > 0, "workload {} delivered nothing", w.name);
    }
}
