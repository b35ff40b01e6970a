//! Grid parameter sweeps over the SpaceA design space, with sharded
//! execution and cache GC.
//!
//! A sweep names axes with flags — matrices, scales, mappings, machine
//! variants, cube counts, CAM set counts, the GPU baseline, and scenario
//! backends, formats and partitionings — enumerates their cartesian product
//! deterministically into deduplicated content-addressed jobs, computes
//! them in parallel into the shared result cache, and renders one summary
//! row per point.
//!
//! Run: `cargo run --release -p spacea-bench --bin sweep -- --ids 1,2
//! --scales 8,16 --kinds naive,proposed [--csv]`.
//!
//! Sharding: `--shard K/N` runs (and renders) only the K-th of N contiguous,
//! disjoint, union-complete slices of the grid. Shards share the cache
//! directory, so concatenating the N shard outputs in shard order — CSV
//! rows after the shared header — reproduces the unsharded output
//! byte-for-byte, and an unsharded re-run afterwards is answered entirely
//! from cache. Stdout carries only the (merge-stable) table; telemetry and
//! shard provenance go to stderr.
//!
//! Cache GC: `--gc` (with `--gc-max-kb N` and/or `--gc-max-age-days N`)
//! enforces size/age budgets on the cache directory after the sweep,
//! evicting least-recently-hit entries first and never the entries this
//! run touched.
//!
//! Fault injection: `--faults '[IDX:]PLAN[;...]'` arms deterministic faults
//! (`drop-noc=N`, `delay-noc=N@D`, `stall-vault=V@T`, `flip-accum=N`,
//! `panic`) on the IDX-th grid point (global, pre-shard; omit IDX for all
//! sim points). Faulted jobs fail or time out with a diagnosis in the
//! Status column and the manifest; healthy points still complete, and the
//! sweep still exits 0 — robustness drills don't fail the pipeline.
//!
//! Timelines: `--timeline[=EVERY-CYCLES]` runs every sim point observed and
//! writes one Chrome-trace JSON per successful job under
//! `<cache-dir>/timelines/<job-key>.json` — load them in Perfetto
//! (ui.perfetto.dev) or inspect with the `timeline` binary. Observation is
//! timing-neutral: cycle counts match an unobserved sweep exactly.

use spacea_bench::{HarnessOptions, HarnessSession, SweepCli, SWEEP_USAGE};
use spacea_core::table::{fmt, pct, Table};
use spacea_harness::{
    shard_range, JobRecord, JobResult, JobSpec, MatrixSource, SweepBase, SweepPoint,
};
use std::collections::HashMap;

fn main() {
    let mut cli = SweepCli::default();
    let opts = HarnessOptions::from_args_with(std::env::args().skip(1), |flag, args| {
        cli.accept(flag, args)
    })
    .unwrap_or_else(|e| e.exit_with_usage(SWEEP_USAGE));

    if cli.spec.is_empty() && cli.gc_policy().is_none() {
        spacea_bench::ArgError::new(
            "empty grid: set at least one axis (e.g. --ids 1,2 --scales 8,16), or --gc to \
             only collect the cache",
        )
        .exit_with_usage(SWEEP_USAGE);
    }

    let mut session = HarnessSession::from_opts(opts);
    session.timeline = cli.timeline_config(&session.opts.cache_dir());
    if let Some(tl) = &session.timeline {
        eprintln!(
            "sweep: timelines on (every {} cycles) -> {}",
            tl.observe.every,
            tl.dir().display()
        );
    }
    let base = SweepBase {
        hw_name: "default".into(),
        hw: session.opts.cfg.hw.clone(),
        energy: session.opts.cfg.energy,
        scale: session.opts.cfg.scale,
        gpu_spec: session.opts.cfg.gpu_spec(),
        hbm_spec: spacea_backend::HbmSpec::default(),
    };

    // An all-empty spec only reaches here in `--gc`-only mode; it must not
    // enumerate (every axis would fall back to the base, simulating one
    // point nobody asked for).
    let mut points = if cli.spec.is_empty() { Vec::new() } else { cli.spec.points(&base) };
    // Faults apply to global point indices, before sharding, so a faulted
    // point is the same point in every shard layout.
    cli.apply_faults(&mut points);
    let range = match cli.shard {
        Some((k, n)) => shard_range(points.len(), k, n),
        None => 0..points.len(),
    };
    let shard_points = &points[range.clone()];
    if let Some((k, n)) = cli.shard {
        eprintln!(
            "sweep: shard {k}/{n} owns points {}..{} of {}",
            range.start,
            range.end,
            points.len()
        );
    }

    if !shard_points.is_empty() {
        let manifest = session.prewarm(shard_points.iter().map(SweepPoint::job).collect());
        let mut table = sweep_table(&session, shard_points, &manifest.records);
        if let Some((_, n)) = cli.shard {
            table.push_note(format!(
                "one of {n} shards; concatenate shard outputs in shard order for the full grid"
            ));
        }
        // Stdout carries only the rows (CSV drops title and notes), so
        // merged shard output is byte-comparable with an unsharded run.
        session.emit_table(&table);
        eprint!("{}", manifest.summary());
        match session.write_manifest(&manifest) {
            Ok(path) => eprintln!("harness: run manifest written to {}", path.display()),
            Err(e) => eprintln!("harness: could not write run manifest: {e}"),
        }
    }

    if let Some(policy) = cli.gc_policy() {
        match session.cache.store().gc(&policy) {
            Ok(report) => eprintln!("{}", report.summary()),
            Err(e) => {
                eprintln!("gc failed: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Renders one row per grid point from the cache, with a Status column from
/// this run's job records. Failed/timed-out jobs have no cached result
/// (failures are never cached): their rows keep the identity columns and
/// dash out the metrics, so shard outputs stay mergeable and a sweep with
/// faulted points still accounts for every point.
fn sweep_table(session: &HarnessSession, points: &[SweepPoint], records: &[JobRecord]) -> Table {
    let by_key: HashMap<u64, &JobRecord> = records.iter().map(|r| (r.key.0, r)).collect();
    let mut table = Table::new(
        "Sweep summary (one row per grid point)",
        &[
            "ID", "Matrix", "Scale", "Map", "HW", "Cubes", "L1", "L2", "Cycles", "us", "PE busy",
            "L1 hit", "Status",
        ],
    );
    for p in points {
        let key = p.job.key();
        // Points answered purely from an earlier run's cache (e.g. rendered
        // by a shard that did not run them) default to "ok" so shard merges
        // stay byte-stable.
        let status = by_key.get(&key.0).map(|r| r.status.tag()).unwrap_or("ok").to_string();
        // Sweeps enumerate Table I matrices only.
        let (id, scale) = match *p.job.source() {
            MatrixSource::Suite { id, scale } => (id.to_string(), scale),
            MatrixSource::Graph { scale, .. } => ("-".into(), scale),
        };
        let mut row = vec![id, p.matrix_name().into(), scale.to_string()];
        row.extend(identity_columns(p));
        match session.cache.store().lookup(key) {
            Some((JobResult::Sim(r), _)) if matches!(p.job, JobSpec::Sim { .. }) => {
                row.extend([
                    r.cycles.to_string(),
                    fmt(r.seconds() * 1e6, 2),
                    pct(r.pe_busy_fraction),
                    pct(r.l1_hit_rate),
                ]);
            }
            Some((JobResult::Gpu(g), _)) if matches!(p.job, JobSpec::Gpu { .. }) => {
                row.extend(["-".into(), fmt(g.time_s * 1e6, 2), "-".into(), "-".into()]);
            }
            Some((JobResult::Scenario(s), _)) if matches!(p.job, JobSpec::Scenario { .. }) => {
                row.extend([s.cycles.to_string(), fmt(s.time_s * 1e6, 2), "-".into(), "-".into()]);
            }
            // No result (the job failed — failures are never cached), or a
            // result kind that cannot belong to this point: dash the
            // metrics, let the Status column tell the story.
            _ => row.extend(std::iter::repeat_n("-".to_string(), 4)),
        }
        row.push(status);
        table.push_row(row);
    }
    table
}

/// The identity columns (Map, HW, Cubes, L1, L2) of a grid point —
/// renderable whether or not the point's job produced a result.
fn identity_columns(p: &SweepPoint) -> Vec<String> {
    match &p.job {
        JobSpec::Sim { kind, hw, .. } => vec![
            kind.label().to_string(),
            p.hw_name.clone(),
            hw.shape.cubes.to_string(),
            hw.l1_cam.sets.to_string(),
            hw.l2_cam.sets.to_string(),
        ],
        JobSpec::Gpu { .. } => {
            vec!["gpu".into(), p.hw_name.clone(), "-".into(), "-".into(), "-".into()]
        }
        // Scenario cells reuse the columns: Map carries the storage format,
        // HW the backend, Cubes the stream partitioning.
        JobSpec::Scenario { backend, format, partition, .. } => vec![
            format.label().to_string(),
            backend.label().to_string(),
            partition.label().to_string(),
            "-".into(),
            "-".into(),
        ],
    }
}
