//! The bit-exact reproducibility contract behind `spacea-lint`'s D-rules:
//! two independent runs of the same job list — fresh stores, fresh contexts,
//! different worker counts — must agree on every cache key, every cycle
//! count, and every entry of the activity ledger. This is the dynamic twin
//! of the static pass: rules D1/D2 forbid the usual nondeterminism sources
//! (hash-ordered collections, wall clock, ambient RNG) in model crates, and
//! this test double-runs the stack to catch anything the scanner cannot see.

use spacea_arch::HwConfig;
use spacea_gpu::TitanXpSpec;
use spacea_harness::{run_jobs, JobCtx, JobRecord, JobSpec, MatrixSource, ResultStore};
use spacea_mapping::MapKind;
use spacea_model::EnergyParams;
use spacea_sim::engine::EventQueue;
use spacea_sim::workload::{run_workload, standard_workloads};
use std::sync::Arc;

/// A small mixed job list: both mappings of two suite matrices on the tiny
/// machine, plus a GPU baseline job (exercises the non-sim result path).
fn jobs() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for id in [1u8, 3] {
        for kind in [MapKind::Naive, MapKind::Proposed] {
            jobs.push(JobSpec::Sim {
                source: MatrixSource::Suite { id, scale: 256 },
                kind,
                hw: HwConfig::tiny(),
                energy: EnergyParams::default(),
            });
        }
    }
    jobs.push(JobSpec::Gpu {
        source: MatrixSource::Suite { id: 1, scale: 256 },
        spec: TitanXpSpec::default(),
    });
    jobs
}

/// Runs the job list into a fresh in-memory store with a fresh context and
/// returns the run's records plus its store.
fn run_once(workers: usize) -> (Vec<JobRecord>, Arc<ResultStore>) {
    let store = Arc::new(ResultStore::in_memory());
    let ctx = Arc::new(JobCtx::new());
    let records = run_jobs(&jobs(), &store, &ctx, workers, None);
    (records, store)
}

#[test]
fn double_run_is_bit_identical() {
    let (first, store_a) = run_once(1);
    let (second, store_b) = run_once(4);

    // Same jobs hash to the same content keys, in the same order.
    let keys_a: Vec<u64> = first.iter().map(|r| r.key.0).collect();
    let keys_b: Vec<u64> = second.iter().map(|r| r.key.0).collect();
    assert_eq!(keys_a, keys_b, "job keys must not depend on the run");

    for (r1, r2) in first.iter().zip(&second) {
        let a = store_a.lookup(r1.key).map(|(res, _)| res);
        let b = store_b.lookup(r2.key).map(|(res, _)| res);
        let (a, b) = (a.expect("first run cached"), b.expect("second run cached"));
        match (&a, &b) {
            (spacea_harness::JobResult::Sim(ra), spacea_harness::JobResult::Sim(rb)) => {
                assert_eq!(ra.cycles, rb.cycles, "{}: cycles differ", r1.label);
                assert_eq!(
                    ra.events_processed, rb.events_processed,
                    "{}: event counts differ",
                    r1.label
                );
                // The full ledger, field by field — any hash-ordered
                // iteration or wall-clock leak shows up here first.
                assert_eq!(ra.activity, rb.activity, "{}: activity ledgers differ", r1.label);
                assert_eq!(ra.pe_work, rb.pe_work, "{}: per-PE work differs", r1.label);
                assert_eq!(
                    ra.output.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
                    rb.output.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
                    "{}: output vectors differ bitwise",
                    r1.label
                );
            }
            (spacea_harness::JobResult::Gpu(ga), spacea_harness::JobResult::Gpu(gb)) => {
                assert_eq!(ga, gb, "{}: GPU runs differ", r1.label);
            }
            _ => panic!("{}: result kinds differ between runs", r1.label),
        }
    }
}

/// The `engine_bench` workload suite is part of the same contract: replaying
/// a workload on a fresh calendar queue must reproduce the event count and
/// the FNV checksum over the delivered `(cycle, payload)` stream exactly —
/// the numbers pinned in `BENCH_engine.json` and ratcheted by CI.
#[test]
fn engine_bench_workloads_double_run_identically() {
    for w in standard_workloads() {
        let first = run_workload(&w, &mut EventQueue::new());
        let second = run_workload(&w, &mut EventQueue::new());
        assert_eq!(first, second, "workload {} is not reproducible", w.name);
        assert!(first.events >= w.rounds, "workload {} under-delivered", w.name);
    }
}
