//! End-to-end contracts between the experiment registry (and the studies
//! list) and the parallel harness: job enumerations cover everything
//! rendering consumes, parallel pre-warming is byte-identical to serial
//! execution, and a warm store serves a second run entirely from cache.

use spacea_core::experiments::{self, ExpConfig, ExpOutput, SuiteCache};
use spacea_harness::{dedup_jobs, run_jobs, JobCtx, JobSpec, ResultStore};
use std::sync::Arc;

#[test]
fn registry_ids_are_unique_and_jobs_nonempty() {
    let reg = experiments::registry();
    assert_eq!(reg.len(), 12);
    // `experiment ID` looks an id up in both lists, so ids are unique
    // across them.
    let mut ids: Vec<&str> = reg.iter().chain(&experiments::studies()).map(|e| e.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 17, "duplicate experiment ids");
    let jobs = experiments::all_jobs(&ExpConfig::quick());
    assert!(jobs.len() > 100, "full evaluation should enumerate many jobs, got {}", jobs.len());
    // Deduplication is part of the contract: fig5/fig6/fig8 overlap.
    let mut keys: Vec<u64> = jobs.iter().map(|j| j.key().0).collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), jobs.len(), "all_jobs must be deduplicated");
}

/// The full evaluation's jobs followed by every study's.
fn all_and_study_jobs(cfg: &ExpConfig) -> Vec<JobSpec> {
    let mut jobs = experiments::all_jobs(cfg);
    jobs.extend(experiments::studies().iter().flat_map(|e| (e.jobs)(cfg)));
    dedup_jobs(jobs)
}

/// `run_all`'s outputs followed by every study's.
fn render_all_and_studies(cache: &mut SuiteCache) -> Vec<ExpOutput> {
    let mut outputs = experiments::run_all(cache);
    outputs.extend(experiments::studies().iter().map(|e| (e.run)(cache)));
    outputs
}

#[test]
fn prewarmed_store_covers_every_render_lookup() {
    let cfg = ExpConfig::quick();
    let store = Arc::new(ResultStore::in_memory());
    let ctx = Arc::new(JobCtx::new());
    run_jobs(&all_and_study_jobs(&cfg), &store, &ctx, 4, None);
    let misses_before = store.stats().misses;
    let mut cache = SuiteCache::with_store(cfg, Arc::clone(&store), ctx);
    assert!(!render_all_and_studies(&mut cache).is_empty());
    assert_eq!(
        store.stats().misses,
        misses_before,
        "rendering must not compute anything the job enumeration missed"
    );
}

#[test]
fn four_workers_render_byte_identical_to_one_worker() {
    let run_with_workers = |workers: usize| {
        let cfg = ExpConfig::quick();
        let store = Arc::new(ResultStore::in_memory());
        let ctx = Arc::new(JobCtx::new());
        run_jobs(&all_and_study_jobs(&cfg), &store, &ctx, workers, None);
        let mut cache = SuiteCache::with_store(cfg, store, ctx);
        render_all_and_studies(&mut cache)
    };
    assert_eq!(run_with_workers(1), run_with_workers(4));
}

#[test]
fn second_run_over_a_warm_store_is_all_hits() {
    let cfg = ExpConfig::quick();
    let store = Arc::new(ResultStore::in_memory());
    let ctx = Arc::new(JobCtx::new());
    let jobs = experiments::all_jobs(&cfg);
    run_jobs(&jobs, &store, &ctx, 2, None);
    let records = run_jobs(&jobs, &store, &ctx, 2, None);
    assert!(
        records.iter().all(|r| r.outcome == spacea_harness::CacheOutcome::MemoryHit),
        "second run must be served entirely from the store"
    );
}
