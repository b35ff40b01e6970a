//! Supervised execution end-to-end: injected faults either produce a
//! correct result or a structured failure (never a wrong-but-successful
//! run), a panicking or livelocked job cannot take a sweep down, failures
//! are never cached (healthy jobs re-run from disk, failed ones retry), and
//! wall-clock budgets cut off runaway attempts.

use proptest::prelude::*;
use spacea_harness::exec::execute;
use spacea_harness::{
    input_vector, run_jobs, run_jobs_supervised, CacheOutcome, JobCtx, JobResult, JobSpec,
    MappingStats, MatrixSource, ResultStore, RunManifest, SimulationStats, SupervisionPolicy,
};
use spacea_mapping::MapKind;
use spacea_model::EnergyParams;
use std::sync::Arc;
use std::time::Duration;

/// A quick sim job over Table I matrix `id`, with watchdog budgets tight
/// enough that injected hangs resolve in well under a second.
fn watched_sim(id: u8) -> JobSpec {
    let mut hw = spacea_arch::HwConfig::tiny();
    hw.watchdog.stall_window = Some(50_000);
    hw.watchdog.max_cycles = Some(5_000_000);
    JobSpec::Sim {
        source: MatrixSource::Suite { id, scale: 256 },
        kind: MapKind::Proposed,
        hw,
        energy: EnergyParams::default(),
    }
}

fn hw_of(spec: &mut JobSpec) -> &mut spacea_arch::HwConfig {
    match spec {
        JobSpec::Sim { hw, .. } => hw,
        JobSpec::Gpu { .. } | JobSpec::Scenario { .. } => {
            unreachable!("tests only inject into sim jobs")
        }
    }
}

fn faults_of(spec: &mut JobSpec) -> &mut spacea_arch::FaultPlan {
    &mut hw_of(spec).faults
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The headline robustness property: whatever single fault is injected,
    /// the job either completes with the reference-SpMV output or reports a
    /// structured failure. It must never succeed with wrong numbers.
    #[test]
    fn injected_single_fault_is_never_wrong_but_successful(kind in 0usize..5, n in 0u64..8) {
        let mut spec = watched_sim(1);
        let faults = faults_of(&mut spec);
        match kind {
            1 => faults.drop_noc_packet = Some(n),
            2 => faults.stall_vault = Some(((n % 4) as usize, 100 * n)),
            3 => faults.flip_accum_update = Some(n),
            4 => faults.delay_noc = Some((n, 40)),
            _ => {} // healthy control
        }
        let ctx = JobCtx::new();
        match execute(&spec, &ctx) {
            Ok(JobResult::Sim(report)) => {
                let a = ctx.matrix(&MatrixSource::Suite { id: 1, scale: 256 });
                let want = a.spmv(&input_vector(a.cols()));
                prop_assert_eq!(report.output.len(), want.len());
                for (i, (got, want)) in report.output.iter().zip(&want).enumerate() {
                    prop_assert!(
                        (got - want).abs() <= 1e-9,
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
    let mut jobs = vec![watched_sim(1), watched_sim(2), watched_sim(3)];
    faults_of(&mut jobs[0]).panic_on_run = true;
    let store = ResultStore::in_memory();
    let out = run_jobs_supervised(
        &jobs,
        &store,
        &Arc::new(JobCtx::new()),
        2,
        &SupervisionPolicy::default(),
        None,
    );
    assert_eq!(out.records.len(), 3);
    assert_eq!(out.records[0].status.tag(), "failed");
    assert!(
        out.records[0].status.failure().unwrap().contains("panic"),
        "{:?}",
        out.records[0].status
    );
    for r in &out.records[1..] {
        assert!(r.status.is_success(), "healthy jobs must complete: {:?}", r.status);
    }
    assert_eq!(store.len(), 2, "only the two healthy results are stored");
    assert!(out.abandoned.is_empty());
}

#[test]
fn stalled_vault_times_out_with_a_diagnosis_naming_the_vault() {
    let mut jobs = vec![watched_sim(1), watched_sim(2)];
    faults_of(&mut jobs[0]).stall_vault = Some((0, 100));
    let store = ResultStore::in_memory();
    let out = run_jobs_supervised(
        &jobs,
        &store,
        &Arc::new(JobCtx::new()),
        2,
        &SupervisionPolicy::default(),
        None,
    );
    assert_eq!(out.records[0].status.tag(), "timed-out");
    let diagnosis = out.records[0].status.failure().unwrap();
    assert!(diagnosis.contains("vault 0"), "diagnosis must name the stalled vault: {diagnosis}");
    assert!(out.records[1].status.is_success());

    // The manifest carries the per-job statuses and the diagnosis.
    let manifest = RunManifest {
        workers: 2,
        total_wall_ms: 1.0,
        records: out.records,
        stats: store.stats(),
        mappings: MappingStats::default(),
        simulations: SimulationStats::default(),
        corrupt_paths: Vec::new(),
        abandoned: out.abandoned,
    };
    let json = manifest.to_json();
    assert!(json.contains("\"status\":\"timed-out\""), "{json}");
    assert!(json.contains("vault 0"), "{json}");
}

/// The acceptance scenario: after a sweep with one failing job, a re-run
/// over the same disk cache answers the healthy jobs from disk and retries
/// only the failed one — failures are never cached.
#[test]
fn rerun_over_disk_cache_retries_only_the_failed_job() {
    let dir = std::env::temp_dir().join(format!("spacea-supervision-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut jobs = vec![watched_sim(1), watched_sim(2)];
    faults_of(&mut jobs[0]).flip_accum_update = Some(0);

    let run = |store: &ResultStore| {
        run_jobs_supervised(
            &jobs,
            store,
            &Arc::new(JobCtx::new()),
            2,
            &SupervisionPolicy { max_retries: 0, ..SupervisionPolicy::default() },
            None,
        )
    };
    let first = ResultStore::with_disk(&dir).unwrap();
    let out = run(&first);
    assert_eq!(out.records[0].status.tag(), "failed", "{:?}", out.records[0].status);
    assert_eq!(out.records[0].outcome, CacheOutcome::Computed);
    assert!(out.records[1].status.is_success());

    // Fresh process (fresh memory) over the same cache directory.
    let second = ResultStore::with_disk(&dir).unwrap();
    let out = run(&second);
    assert_eq!(
        out.records[1].outcome,
        CacheOutcome::DiskHit,
        "the healthy job must be answered from disk"
    );
    assert_eq!(out.records[0].status.tag(), "failed", "the faulted job fails again");
    assert_eq!(
        out.records[0].outcome,
        CacheOutcome::Computed,
        "the failed job must be re-attempted, not served from cache"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The in-process run memo keys on the whole machine, watchdog budgets
/// included (the job key leaves them out): a run one job completed is
/// never lent to a twin whose budget cuts it off, a cut-off run never
/// stands in for the completed one, and a faulted run and its fault-free
/// twin never share a run either, whichever of the two comes first.
#[test]
fn memoised_runs_are_never_lent_across_a_budget_or_a_fault() {
    let healthy = watched_sim(1);
    let cycles = match execute(&healthy, &JobCtx::new()) {
        Ok(JobResult::Sim(report)) => report.cycles,
        other => panic!("the healthy run must succeed: {other:?}"),
    };
    let mut budgeted = healthy.clone();
    hw_of(&mut budgeted).watchdog.max_cycles = Some(cycles / 2);
    assert_eq!(budgeted.key(), healthy.key(), "budgets are not part of the job key");
    let mut faulted = healthy.clone();
    faults_of(&mut faulted).flip_accum_update = Some(0);
    for (twin, twin_status) in [(&budgeted, "timed-out"), (&faulted, "failed")] {
        for twin_first in [false, true] {
            let ctx = Arc::new(JobCtx::new());
            // A fresh store per job: the budget twins share a job key, so a
            // shared store alone would hand both the first one's result.
            let status = |job: &JobSpec| {
                run_jobs(std::slice::from_ref(job), &ResultStore::in_memory(), &ctx, 1)[0]
                    .status
                    .tag()
            };
            let (first, second) = if twin_first { (twin, &healthy) } else { (&healthy, twin) };
            let got = [status(first), status(second)];
            let want = if twin_first { [twin_status, "ok"] } else { ["ok", twin_status] };
            assert_eq!(got, want, "{twin_status} twin submitted first: {twin_first}");
        }
    }
}

#[test]
fn wall_clock_budget_abandons_a_slow_attempt() {
    // Scale 64 is ~16x more work than the quick configuration — far more
    // than a 1 ms budget allows on any machine.
    let job = JobSpec::Sim {
        source: MatrixSource::Suite { id: 1, scale: 64 },
        kind: MapKind::Proposed,
        hw: spacea_arch::HwConfig::tiny(),
        energy: EnergyParams::default(),
    };
    let store = ResultStore::in_memory();
    let policy = SupervisionPolicy {
        wall_budget: Some(Duration::from_millis(1)),
        ..SupervisionPolicy::default()
    };
    let out = run_jobs_supervised(
        std::slice::from_ref(&job),
        &store,
        &Arc::new(JobCtx::new()),
        1,
        &policy,
        None,
    );
    assert_eq!(out.records[0].status.tag(), "timed-out");
    assert!(
        out.records[0].status.failure().unwrap().contains("wall-clock"),
        "{:?}",
        out.records[0].status
    );
    assert!(store.lookup(job.key()).is_none(), "abandoned attempts must not populate the store");
}
