//! Property tests for the simulation substrate: each stateful component is
//! checked against a simple reference model under arbitrary operation
//! sequences.

use proptest::prelude::*;
use spacea_sim::cam::{Cam, CamConfig};
use spacea_sim::dram::{AccessKind, DramBank, DramTiming};
use spacea_sim::engine::EventQueue;
use spacea_sim::ldq::{LdqPush, LoadQueue};
use spacea_sim::link::Link;
use spacea_sim::noc::MeshNoc;
use spacea_sim::stats::LdqCounters;
use std::collections::BTreeMap;

/// Reference LRU model for one CAM set: its resident keys, most recent
/// first.
#[derive(Default)]
struct RefLru {
    keys: Vec<u64>,
    ways: usize,
}

impl RefLru {
    fn lookup(&mut self, key: u64) -> bool {
        let Some(pos) = self.keys.iter().position(|&k| k == key) else { return false };
        self.keys.remove(pos);
        self.keys.insert(0, key);
        true
    }

    /// Inserts or refreshes `key`, returning the evicted key, if any.
    fn insert(&mut self, key: u64) -> Option<u64> {
        let mut evicted = None;
        if let Some(pos) = self.keys.iter().position(|&k| k == key) {
            self.keys.remove(pos);
        } else if self.keys.len() == self.ways {
            evicted = self.keys.pop();
        }
        self.keys.insert(0, key);
        evicted
    }
}

/// Keys the load-queue model test draws from, by index.
const LDQ_KEYS: usize = 42;

/// Load-queue test key `ix`: `0`, `u64::MAX`, twenty multiples of
/// `1 << 16`, then twenty small block numbers like the machine's.
fn ldq_key(ix: usize) -> u64 {
    match ix {
        0 => 0,
        1 => u64::MAX,
        2..=21 => (ix as u64 - 1) << 16,
        _ => ix as u64 - 21,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn cam_matches_reference_lru(ops in proptest::collection::vec((0u64..1024, any::<bool>()), 1..400)) {
        // Every geometry replays the same operations against one reference
        // LRU per set, checking residency, evicted keys and `len` after
        // every step. A single set makes every key collide (the hardest LRU
        // case); several sets catch a wrong set offset in the CAM's flat
        // table. Each set sees `ways + 2` distinct keys, so sets fill, evict
        // and refresh.
        for sets in [1usize, 3, 32] {
            for ways in [1usize, 2, 4, 8] {
                let mut cam = Cam::new(CamConfig { sets, ways, way_bytes: 32 });
                let mut reference: Vec<RefLru> =
                    (0..sets).map(|_| RefLru { ways, ..Default::default() }).collect();
                let keys = (sets * (ways + 2)) as u64;
                let set_of = |key: u64| (key % sets as u64) as usize;
                for &(raw, is_insert) in &ops {
                    let key = raw % keys;
                    let set = &mut reference[set_of(key)];
                    if is_insert {
                        let evicted = cam.insert(key);
                        prop_assert_eq!(evicted, set.insert(key),
                            "{}x{}: insert {}", sets, ways, key);
                        if let Some(old) = evicted {
                            prop_assert!(!cam.peek(old), "{}x{}: {} evicted yet resident", sets, ways, old);
                        }
                    } else {
                        prop_assert_eq!(cam.lookup(key), set.lookup(key),
                            "{}x{}: lookup {}", sets, ways, key);
                    }
                    prop_assert_eq!(cam.peek(key), set.keys.contains(&key), "{}x{}: peek {}", sets, ways, key);
                    let resident: usize = reference.iter().map(|r| r.keys.len()).sum();
                    prop_assert_eq!(cam.len(), resident, "{}x{}", sets, ways);
                }
                for key in 0..keys {
                    let resident = reference[set_of(key)].keys.contains(&key);
                    prop_assert_eq!(cam.peek(key), resident, "{}x{}: final peek {}", sets, ways, key);
                }
            }
        }
    }

    #[test]
    fn event_queue_is_a_stable_sort(events in proptest::collection::vec((0u64..1000, 0u32..1000), 0..300)) {
        let mut q = EventQueue::new();
        for &(t, payload) in &events {
            q.schedule(t, payload);
        }
        let mut expected: Vec<(u64, u32)> = events.clone();
        // Stable sort by time reproduces FIFO-within-cycle semantics.
        expected.sort_by_key(|&(t, _)| t);
        let mut drained = Vec::new();
        let mut batch = Vec::new();
        while let Some(t) = q.drain_cycle(&mut batch) {
            prop_assert!(drained.last().is_none_or(|&(last, _)| last < t), "cycle {} drained twice", t);
            drained.extend(batch.drain(..).map(|p| (t, p)));
        }
        prop_assert_eq!(drained, expected);
    }

    #[test]
    fn dram_bank_time_is_monotone(accesses in proptest::collection::vec((0u64..16, 1usize..300), 1..100)) {
        let mut bank = DramBank::new(DramTiming::default());
        let mut last = 0;
        for (row, bytes) in accesses {
            let done = bank.access(0, row, bytes, AccessKind::Read);
            prop_assert!(done >= last, "bank completion times must not go backwards");
            prop_assert!(done > 0);
            last = done;
        }
        let c = bank.counters();
        prop_assert!(c.activates >= 1, "the first access always activates");
    }

    #[test]
    fn ldq_matches_reference_model(
        ops in proptest::collection::vec((any::<u8>(), 0usize..LDQ_KEYS, 0u64..5), 1..400),
        drain_order in proptest::collection::vec(any::<u64>(), LDQ_KEYS),
    ) {
        // The reference keeps each in-flight key's admission cycle and its
        // waiters in arrival order. The keys include `0`, `u64::MAX` and
        // multiples of `1 << 16`, whose hashes crowd into shared probe
        // chains. Completions hit keys in random order, so deletions land
        // in the middle of chains. One op in three completes, so the
        // in-flight set grows far past the capacity of four: `rejected_full`
        // counts and forced admissions make the key index grow.
        const CAPACITY: usize = 4;
        let mut ldq: LoadQueue<u32> = LoadQueue::new(CAPACITY);
        let mut reference: BTreeMap<u64, (u64, Vec<u32>)> = BTreeMap::new();
        let mut counters = LdqCounters::default();
        let mut now = 0u64;
        for (i, (selector, key_ix, dt)) in ops.into_iter().enumerate() {
            let key = ldq_key(key_ix);
            now += dt;
            if selector % 3 == 0 {
                // `complete` appends: the sentinel already in the buffer stays first.
                let mut expected = vec![u32::MAX];
                if let Some((_, waiters)) = reference.remove(&key) {
                    expected.extend(waiters);
                    counters.completed += 1;
                }
                let mut woken = vec![u32::MAX];
                ldq.complete(key, &mut woken);
                prop_assert_eq!(woken, expected, "complete {}", key);
            } else {
                let waiter = i as u32;
                let push = ldq.push_forced_at(key, waiter, now);
                if let Some((_, waiters)) = reference.get_mut(&key) {
                    waiters.push(waiter);
                    counters.deduplicated += 1;
                    prop_assert_eq!(push, LdqPush::Deduplicated, "push {}", key);
                } else {
                    counters.rejected_full += u64::from(reference.len() >= CAPACITY);
                    counters.new_requests += 1;
                    reference.insert(key, (now, vec![waiter]));
                    prop_assert_eq!(push, LdqPush::NewRequest, "push {}", key);
                }
            }
            prop_assert_eq!(ldq.len(), reference.len());
            prop_assert_eq!(ldq.is_empty(), reference.is_empty());
            for k in (0..LDQ_KEYS).map(ldq_key) {
                prop_assert_eq!(ldq.contains(k), reference.contains_key(&k), "contains {}", k);
            }
            let oldest = reference.values().map(|&(since, _)| now - since).max().unwrap_or(0);
            prop_assert_eq!(ldq.oldest_age(now), oldest);
            prop_assert_eq!(ldq.counters(), &counters);
        }
        // Draining every key, in random order, returns each remaining
        // key's waiters once and leaves the others findable.
        let mut order: Vec<usize> = (0..LDQ_KEYS).collect();
        order.sort_by_key(|&ix| drain_order[ix]);
        for key in order.into_iter().map(ldq_key) {
            let Some((_, waiters)) = reference.remove(&key) else { continue };
            let mut woken = Vec::new();
            ldq.complete(key, &mut woken);
            prop_assert_eq!(woken, waiters, "drain {}", key);
            for &k in reference.keys() {
                prop_assert!(ldq.contains(k), "{} lost after completing {}", k, key);
            }
        }
        prop_assert!(ldq.is_empty());
    }

    #[test]
    fn link_transfers_never_overlap(transfers in proptest::collection::vec((0u64..500, 1usize..100), 1..60)) {
        let mut link = Link::new_bus(3, 16);
        let mut prev_done = 0;
        for (earliest, bytes) in transfers {
            let done = link.transfer(earliest, bytes);
            prop_assert!(done >= prev_done, "bus transfers must serialize");
            prop_assert!(done >= earliest);
            prev_done = done;
        }
    }

    #[test]
    fn noc_accounts_every_byte(sends in proptest::collection::vec((0usize..16, 0usize..16, 1usize..100), 1..60)) {
        let mut noc = MeshNoc::new(4, 4, 2, 16);
        let mut bytes = 0u64;
        let mut byte_hops = 0u64;
        for (src, dst, sz) in sends {
            let arrive = noc.send(0, src, dst, sz);
            let hops = noc.hops(src, dst) as u64;
            bytes += sz as u64;
            byte_hops += sz as u64 * hops;
            if src == dst {
                prop_assert_eq!(arrive, 0);
            } else {
                prop_assert!(arrive >= hops * (2 + 1), "at least latency+ser per hop");
            }
        }
        prop_assert_eq!(noc.bytes(), bytes);
        prop_assert_eq!(noc.byte_hops(), byte_hops);
    }
}
