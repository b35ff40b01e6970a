//! Property tests for cache GC: the size pass never evicts below the byte
//! budget, never removes entries touched during the current run, follows
//! the documented LRU order (file mtime, then key) exactly, and is
//! idempotent.

use proptest::prelude::*;
use spacea_gpu::GpuRun;
use spacea_harness::{GcPolicy, JobKey, JobResult, ResultStore};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "spacea-gc-prop-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

fn entry_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{}.json", JobKey(key)))
}

fn gpu(i: u64) -> GpuRun {
    GpuRun {
        time_s: 1.0 + i as f64,
        dram_bytes: 100 + i,
        dram_read_throughput: 1e9,
        effective_read_throughput: 0.5e9,
        bw_utilization: 0.5,
        alu_utilization: 0.1,
        energy_j: 0.25,
        bw_efficiency: 0.9,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn gc_respects_budget_protection_and_lru_order(
        n in 1u64..10,
        touch_mask in 0u64..1024,
        budget_pct in 0u64..101,
        hours_old in proptest::collection::vec(0u64..4, 10),
    ) {
        let dir = scratch_dir();
        let _ = std::fs::remove_dir_all(&dir);
        // Populate from a first process…
        {
            let store = ResultStore::with_disk(&dir).expect("open store");
            for i in 0..n {
                store.insert(JobKey(i + 1), JobResult::Gpu(gpu(i)));
            }
        }
        // …age the entries by whole hours, so recency is not just key order…
        for i in 0..n {
            let mtime = SystemTime::now() - Duration::from_secs(3600 * hours_old[i as usize]);
            std::fs::File::options()
                .write(true)
                .open(entry_path(&dir, i + 1))
                .and_then(|f| f.set_times(std::fs::FileTimes::new().set_modified(mtime)))
                .expect("backdate entry");
        }
        // …then gc from a second one that only touched a subset.
        let store = ResultStore::with_disk(&dir).expect("reopen store");
        let touched: HashSet<u64> =
            (0..n).filter(|i| touch_mask & (1 << i) != 0).map(|i| i + 1).collect();
        for &key in &touched {
            prop_assert!(store.lookup(JobKey(key)).is_some());
        }

        // Predict the survivors by replaying the documented policy over the
        // files themselves: walk entries oldest mtime first (whole seconds,
        // key as tie-break), skip touched, stop the moment the running total
        // fits the budget.
        let mut order: Vec<(u64, u64, u64)> = (1..=n)
            .map(|key| {
                let meta = std::fs::metadata(entry_path(&dir, key)).expect("entry on disk");
                let mtime = meta.modified().expect("mtime");
                let secs = mtime.duration_since(UNIX_EPOCH).expect("after 1970").as_secs();
                (secs, key, meta.len())
            })
            .collect();
        order.sort_unstable();
        let total: u64 = order.iter().map(|&(_, _, bytes)| bytes).sum();
        let budget = total * budget_pct / 100;
        let mut expect_kept = total;
        let mut expect_evicted: HashSet<u64> = HashSet::new();
        for &(_, key, bytes) in &order {
            if expect_kept <= budget {
                break;
            }
            if touched.contains(&key) {
                continue;
            }
            expect_evicted.insert(key);
            expect_kept -= bytes;
        }

        let policy = GcPolicy { max_bytes: Some(budget), max_age_secs: None };
        let report = store.gc(&policy).expect("gc");
        prop_assert_eq!(report.kept_bytes, expect_kept);
        prop_assert_eq!(report.evicted, expect_evicted.len());
        prop_assert_eq!(report.protected, touched.len());
        for i in 0..n {
            let key = i + 1;
            let on_disk = entry_path(&dir, key).exists();
            prop_assert_eq!(on_disk, !expect_evicted.contains(&key), "key {}", key);
            if touched.contains(&key) {
                prop_assert!(on_disk, "touched key {} must survive", key);
            }
        }

        // Idempotent: everything over budget that may be evicted already
        // was, so a second pass removes nothing.
        let again = store.gc(&policy).expect("second gc");
        prop_assert_eq!(again.evicted, 0);
        prop_assert_eq!(again.kept_bytes, report.kept_bytes);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
