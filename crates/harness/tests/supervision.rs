//! Guarded execution end-to-end: injected faults either produce a correct
//! result or a structured failure (never a wrong-but-successful run), the
//! same every time, so each job is attempted once; a panicking or
//! livelocked job cannot take a sweep down, and failures are never cached
//! (healthy jobs re-run from disk, failed ones are re-attempted).

use proptest::prelude::*;
use spacea_harness::exec::execute;
use spacea_harness::{
    input_vector, run_jobs, CacheOutcome, JobCtx, JobResult, JobSpec, JobStatus, MappingStats,
    MatrixSource, ResultStore, RunManifest, SimulationStats,
};
use spacea_mapping::MapKind;
use spacea_model::EnergyParams;

/// A quick sim job over Table I matrix `id` on the tiny machine, where an
/// injected hang trips the stall window in a few milliseconds.
fn quick_sim(id: u8) -> JobSpec {
    JobSpec::Sim {
        source: MatrixSource::Suite { id, scale: 256 },
        kind: MapKind::Proposed,
        hw: spacea_arch::HwConfig::tiny(),
        energy: EnergyParams::default(),
    }
}

fn faults_of(spec: &mut JobSpec) -> &mut spacea_arch::FaultPlan {
    match spec {
        JobSpec::Sim { hw, .. } => &mut hw.faults,
        JobSpec::Gpu { .. } | JobSpec::Scenario { .. } => {
            unreachable!("tests only inject into sim jobs")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The headline robustness property: whatever single fault is injected,
    /// the job either completes with the reference-SpMV output or reports a
    /// structured failure. It must never succeed with wrong numbers, and
    /// executing it again gives the identical outcome — which is why the
    /// harness attempts each job once.
    #[test]
    fn injected_single_fault_is_never_wrong_but_successful(kind in 0usize..5, n in 0u64..8) {
        let mut spec = quick_sim(1);
        let faults = faults_of(&mut spec);
        match kind {
            1 => faults.drop_noc_packet = Some(n),
            2 => faults.stall_vault = Some(((n % 4) as usize, 100 * n)),
            3 => faults.flip_accum_update = Some(n),
            4 => faults.delay_noc = Some((n, 40)),
            _ => {} // healthy control
        }
        let ctx = JobCtx::new();
        let outcome = execute(&spec, &ctx);
        let again = execute(&spec, &JobCtx::new());
        prop_assert_eq!(&again, &outcome, "a re-execution must repeat the outcome");
        match outcome {
            Ok(JobResult::Sim(report)) => {
                let a = ctx.matrix(&MatrixSource::Suite { id: 1, scale: 256 });
                let want = a.spmv(&input_vector(a.cols()));
                prop_assert_eq!(report.output.len(), want.len());
                for (i, (got, want)) in report.output.iter().zip(&want).enumerate() {
                    prop_assert!(
                        got.to_bits() == want.to_bits(),
                        "wrong-but-successful output at row {} (kind {}, n {}): {} vs {}",
                        i, kind, n, got, want
                    );
                }
            }
            Ok(other) => prop_assert!(false, "sim job returned {:?}", other),
            Err(e) => prop_assert!(
                !e.to_string().is_empty(),
                "failures must carry a diagnosis"
            ),
        }
    }
}

#[test]
fn panicking_job_is_isolated_from_the_rest_of_the_sweep() {
    let mut jobs = vec![quick_sim(1), quick_sim(2), quick_sim(3)];
    faults_of(&mut jobs[0]).panic_on_run = true;
    let store = ResultStore::in_memory();
    let records = run_jobs(&jobs, &store, &JobCtx::new(), 2, None);
    assert_eq!(records.len(), 3);
    assert_eq!(records[0].status.tag(), "failed");
    assert!(records[0].status.failure().unwrap().contains("panic"), "{:?}", records[0].status);
    for r in &records[1..] {
        assert_eq!(r.status, JobStatus::Ok, "healthy jobs must complete");
    }
    assert_eq!(store.len(), 2, "only the two healthy results are stored");
}

/// A job's failure follows from its inputs, so the harness attempts each
/// job once: a faulted job ends `failed` after a single simulation.
#[test]
fn a_failing_job_is_attempted_once() {
    let mut job = quick_sim(1);
    faults_of(&mut job).flip_accum_update = Some(0);
    let ctx = JobCtx::new();
    let records = run_jobs(std::slice::from_ref(&job), &ResultStore::in_memory(), &ctx, 1, None);
    assert_eq!(records[0].status.tag(), "failed", "{:?}", records[0].status);
    assert_eq!(ctx.simulation_stats().run, 1, "a failed job must not be simulated again");
}

#[test]
fn stalled_vault_times_out_with_a_diagnosis_naming_the_vault() {
    let mut jobs = vec![quick_sim(1), quick_sim(2)];
    faults_of(&mut jobs[0]).stall_vault = Some((0, 100));
    let store = ResultStore::in_memory();
    let records = run_jobs(&jobs, &store, &JobCtx::new(), 2, None);
    assert_eq!(records[0].status.tag(), "timed-out");
    let diagnosis = records[0].status.failure().unwrap();
    assert!(diagnosis.contains("vault 0"), "diagnosis must name the stalled vault: {diagnosis}");
    assert_eq!(records[1].status, JobStatus::Ok);

    // The manifest carries the per-job statuses and the diagnosis.
    let manifest = RunManifest {
        workers: 2,
        total_wall_ms: 1.0,
        records,
        stats: store.stats(),
        mappings: MappingStats::default(),
        simulations: SimulationStats::default(),
        corrupt_paths: Vec::new(),
    };
    let json = manifest.to_json();
    assert!(json.contains("\"status\":\"timed-out\""), "{json}");
    assert!(json.contains("vault 0"), "{json}");
}

/// The acceptance scenario: after a sweep with one failing job, a re-run
/// over the same disk cache answers the healthy jobs from disk and re-attempts
/// only the failed one — failures are never cached.
#[test]
fn rerun_over_disk_cache_retries_only_the_failed_job() {
    let dir = std::env::temp_dir().join(format!("spacea-supervision-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut jobs = vec![quick_sim(1), quick_sim(2)];
    faults_of(&mut jobs[0]).flip_accum_update = Some(0);

    let run = |store: &ResultStore| run_jobs(&jobs, store, &JobCtx::new(), 2, None);
    let first = ResultStore::with_disk(&dir).unwrap();
    let records = run(&first);
    assert_eq!(records[0].status.tag(), "failed", "{:?}", records[0].status);
    assert_eq!(records[0].outcome, CacheOutcome::Computed);
    assert_eq!(records[1].status, JobStatus::Ok);

    // Fresh process (fresh memory) over the same cache directory.
    let second = ResultStore::with_disk(&dir).unwrap();
    let records = run(&second);
    assert_eq!(
        records[1].outcome,
        CacheOutcome::DiskHit,
        "the healthy job must be answered from disk"
    );
    assert_eq!(records[0].status.tag(), "failed", "the faulted job fails again");
    assert_eq!(
        records[0].outcome,
        CacheOutcome::Computed,
        "the failed job must be re-attempted, not served from cache"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The in-process run memo keys on the whole machine, fault plan included:
/// a faulted run and its fault-free twin never share a run, whichever of
/// the two comes first.
#[test]
fn memoised_runs_are_never_lent_across_a_fault() {
    let healthy = quick_sim(1);
    let mut faulted = healthy.clone();
    faults_of(&mut faulted).flip_accum_update = Some(0);
    for faulted_first in [false, true] {
        let (ctx, store) = (JobCtx::new(), ResultStore::in_memory());
        let status = |job: &JobSpec| {
            run_jobs(std::slice::from_ref(job), &store, &ctx, 1, None)[0].status.tag()
        };
        let (first, second) =
            if faulted_first { (&faulted, &healthy) } else { (&healthy, &faulted) };
        let got = [status(first), status(second)];
        let want = if faulted_first { ["failed", "ok"] } else { ["ok", "failed"] };
        assert_eq!(got, want, "faulted twin submitted first: {faulted_first}");
    }
}
