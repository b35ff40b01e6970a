//! Deterministic synthetic event schedules for engine benchmarking and
//! equivalence testing.
//!
//! Each [`Workload`] drives any [`DesQueue`] implementation through a fully
//! deterministic schedule derived from a seeded splitmix64 stream — no
//! ambient randomness, no wall clock — and folds every delivered
//! `(cycle, payload)` pair into an FNV-1a checksum. Replaying the same
//! workload on the calendar queue and the reference heap must yield the
//! same [`WorkloadResult`] bit for bit; `engine_bench` ratchets these
//! checksums in `BENCH_engine.json` and `core/tests/determinism.rs` pins
//! them across double runs.

use crate::engine::DesQueue;
use crate::Cycle;

/// Shape of the synthetic schedule a workload generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Classic hold model: each delivered event schedules one replacement a
    /// short random delay ahead. Keeps queue occupancy constant and
    /// exercises the steady-state schedule/drain path.
    Hold {
        /// Events resident in the queue throughout the run.
        population: usize,
        /// Exclusive upper bound on the uniform reschedule delay.
        max_delay: Cycle,
    },
    /// Same-cycle bursts: each round schedules a burst of events for one
    /// nearby cycle, then drains whole cycles via `drain_cycle`. Exercises
    /// the batch API and FIFO tie-ordering.
    Burst {
        /// Events per burst round.
        burst: usize,
        /// Exclusive upper bound on the gap between burst cycles.
        max_gap: Cycle,
    },
    /// Hold model with a far-future tail: a slice of reschedules jump far
    /// beyond the wheel horizon, exercising the overflow tree and its
    /// migration back into the wheel.
    FarFuture {
        /// Events resident in the queue throughout the run.
        population: usize,
        /// Exclusive upper bound on the near-reschedule delay.
        max_delay: Cycle,
        /// One in `far_one_in` reschedules jumps `far_jump` cycles ahead.
        far_one_in: u64,
        /// Distance of the far jump (beyond the wheel horizon).
        far_jump: Cycle,
    },
}

/// A named, seeded synthetic schedule.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Stable identifier (used in `BENCH_engine.json` entries).
    pub name: &'static str,
    /// Splitmix64 seed for the delay stream.
    pub seed: u64,
    /// Number of deliver-reschedule (or burst) rounds to run.
    pub rounds: u64,
    /// Schedule shape.
    pub kind: WorkloadKind,
}

/// Outcome of replaying a workload on some queue implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadResult {
    /// Total events delivered.
    pub events: u64,
    /// FNV-1a checksum over every delivered `(cycle, payload)` pair in
    /// delivery order.
    pub checksum: u64,
}

/// The fixed workload suite measured by `engine_bench` and pinned by the
/// determinism tests.
pub fn standard_workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "hold-4k",
            seed: 0x5EED_0001,
            rounds: 400_000,
            kind: WorkloadKind::Hold { population: 4096, max_delay: 256 },
        },
        Workload {
            name: "burst-64",
            seed: 0x5EED_0002,
            rounds: 20_000,
            kind: WorkloadKind::Burst { burst: 64, max_gap: 32 },
        },
        Workload {
            name: "far-future",
            seed: 0x5EED_0003,
            rounds: 300_000,
            kind: WorkloadKind::FarFuture {
                population: 2048,
                max_delay: 128,
                far_one_in: 64,
                far_jump: 1 << 20,
            },
        },
    ]
}

/// Deterministic splitmix64 step (same generator the matrix synthesizers
/// use); advances `state` and returns the next draw.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv_fold(mut hash: u64, value: u64) -> u64 {
    for byte in value.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

impl WorkloadResult {
    /// Folds one delivered `(cycle, payload)` pair into the result.
    fn deliver(&mut self, at: Cycle, payload: u64) {
        self.events += 1;
        self.checksum = fnv_fold(fnv_fold(self.checksum, at), payload);
    }
}

/// Replays `workload` on `queue`, returning the delivered-event count and
/// order-sensitive checksum. The queue must be freshly constructed.
///
/// Every event is delivered through [`DesQueue::drain_cycle`], a whole
/// cycle at a time, and the queue ends empty.
pub fn run_workload<Q: DesQueue<u64>>(workload: &Workload, queue: &mut Q) -> WorkloadResult {
    let mut rng = workload.seed;
    let mut result = WorkloadResult { events: 0, checksum: FNV_OFFSET };
    let mut payload = 0u64;
    let mut sink = Vec::new();
    let (population, max_delay, far) = match workload.kind {
        WorkloadKind::Burst { burst, max_gap } => {
            for _ in 0..workload.rounds {
                let at = queue.now() + 1 + splitmix64(&mut rng) % max_gap;
                for _ in 0..burst {
                    queue.schedule(at, payload);
                    payload += 1;
                }
                while let Some(cycle) = queue.drain_cycle(&mut sink) {
                    for ev in sink.drain(..) {
                        result.deliver(cycle, ev);
                    }
                }
            }
            return result;
        }
        WorkloadKind::Hold { population, max_delay } => (population, max_delay, None),
        WorkloadKind::FarFuture { population, max_delay, far_one_in, far_jump } => {
            (population, max_delay, Some((far_one_in, far_jump)))
        }
    };
    for _ in 0..population {
        let delay = splitmix64(&mut rng) % max_delay;
        queue.schedule(delay, payload);
        payload += 1;
    }
    // Each delivery reschedules one event while rounds remain, so the
    // population holds steady; a round limit may land mid-cycle, and the
    // rest of that cycle and every later one drain without rescheduling.
    let mut rounds = workload.rounds;
    while let Some(at) = queue.drain_cycle(&mut sink) {
        for ev in sink.drain(..) {
            result.deliver(at, ev);
            if rounds == 0 {
                continue;
            }
            rounds -= 1;
            let draw = splitmix64(&mut rng);
            let delay = match far {
                Some((far_one_in, far_jump)) if draw.is_multiple_of(far_one_in) => far_jump,
                _ => 1 + draw % max_delay,
            };
            queue.schedule(at + delay, payload);
            payload += 1;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{reference::HeapQueue, EventQueue};

    /// The pop-by-pop replay of a hold or far-future workload that the
    /// drain loop replaced, kept as its oracle and driven through the
    /// heap's one-at-a-time `pop`: `rounds` deliver-and-reschedule steps,
    /// then a tail that pops the rest. Also says whether the round limit
    /// landed mid-cycle (the tail's first event shares the last round's
    /// cycle).
    fn pop_by_pop(workload: &Workload) -> (WorkloadResult, bool) {
        let (population, max_delay, far) = match workload.kind {
            WorkloadKind::Hold { population, max_delay } => (population, max_delay, None),
            WorkloadKind::FarFuture { population, max_delay, far_one_in, far_jump } => {
                (population, max_delay, Some((far_one_in, far_jump)))
            }
            WorkloadKind::Burst { .. } => unreachable!("bursts always drained"),
        };
        let mut queue = HeapQueue::new();
        let mut rng = workload.seed;
        let mut result = WorkloadResult { events: 0, checksum: FNV_OFFSET };
        let mut payload = 0u64;
        for _ in 0..population {
            let delay = splitmix64(&mut rng) % max_delay;
            queue.schedule(delay, payload);
            payload += 1;
        }
        let mut last_round = None;
        for _ in 0..workload.rounds {
            let Some((at, ev)) = queue.pop() else { break };
            result.deliver(at, ev);
            last_round = Some(at);
            let draw = splitmix64(&mut rng);
            let delay = match far {
                Some((far_one_in, far_jump)) if draw.is_multiple_of(far_one_in) => far_jump,
                _ => 1 + draw % max_delay,
            };
            queue.schedule(at + delay, payload);
            payload += 1;
        }
        let mid_cycle = last_round.is_some() && queue.peek_time() == last_round;
        while let Some((at, ev)) = queue.pop() {
            result.deliver(at, ev);
        }
        (result, mid_cycle)
    }

    #[test]
    fn suite_is_deterministic_and_engine_agnostic() {
        for wl in standard_workloads() {
            let small = Workload { rounds: wl.rounds.min(2_000), ..wl };
            let mut cal = EventQueue::new();
            let mut heap = HeapQueue::new();
            let a = run_workload(&small, &mut cal);
            let b = run_workload(&small, &mut heap);
            assert_eq!(a, b, "workload {} diverged between engines", small.name);
            assert!(a.events > 0);
            assert_eq!(cal.try_check_counters(), Ok(()));
            assert!(cal.is_empty() && heap.is_empty());
            // Replay is bit-identical.
            let mut again = EventQueue::new();
            assert_eq!(run_workload(&small, &mut again), a);
        }
    }

    #[test]
    fn drain_loop_matches_pop_by_pop_at_every_round_limit() {
        // A short delay range puts several events on most cycles, so round
        // limits land mid-cycle; one far-future reschedule in three jumps
        // past the wheel horizon.
        let mut mid_cycle_limits = 0;
        for population in [1usize, 5, 16] {
            let n = population as u64;
            let kinds = [
                WorkloadKind::Hold { population, max_delay: 4 },
                WorkloadKind::FarFuture {
                    population,
                    max_delay: 4,
                    far_one_in: 3,
                    far_jump: crate::engine::WHEEL_BUCKETS as Cycle + 7,
                },
            ];
            for kind in kinds {
                for rounds in [0, 1, 7, n - 1, n + 3] {
                    let w = Workload { name: "boundary", seed: 0x5EED_00FF ^ n, rounds, kind };
                    let (expect, mid_cycle) = pop_by_pop(&w);
                    mid_cycle_limits += usize::from(mid_cycle);
                    let mut cal = EventQueue::new();
                    assert_eq!(run_workload(&w, &mut cal), expect, "{kind:?}, {rounds} rounds");
                    assert_eq!(expect.events, n + rounds, "{kind:?}, {rounds} rounds");
                    assert!(cal.is_empty());
                    assert_eq!(run_workload(&w, &mut HeapQueue::new()), expect);
                }
            }
        }
        assert!(mid_cycle_limits > 0, "no round limit landed mid-cycle");
    }
}
