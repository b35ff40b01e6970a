//! `--trace 1`: the per-layer split.
//!
//! The replay runs a workload's inputs through the layers in-process, one
//! call at a time, with a span around each call into a layer's public API
//! — the crates themselves stay uninstrumented. It repeats for the run's
//! seconds and reports per-layer medians. A short daemon segment over the
//! same served matrices and request seeds adds what only the live service
//! can show: admission wait, fusion, and the latency no layer accounts for.

use crate::daemon::{closed_loop, planned, Daemon, Planned, Reply, Stop};
use crate::metrics::PER_LAYER;
use crate::stats::median;
use crate::trace::Recorder;
use crate::workloads::{run_rep, verify_replies, Kind, Outcome, Plan, WORKERS};
use spacea_arch::{Machine, RunSpec};
use spacea_backend::{BackendKind, ScenarioSpec};
use spacea_gpu::simulate_csrmv;
use spacea_harness::job::Fnv;
use spacea_harness::json::{parse, Json};
use spacea_harness::{
    input_vector, CacheOutcome, JobCtx, JobResult, JobSpec, MappingStore, MatrixSource,
    ResultStore, ScenarioRec,
};
use spacea_mapping::algorithm1::assign_rows;
use spacea_mapping::naive::{assign_rows_naive, DEFAULT_SEED};
use spacea_mapping::placement::cluster_hierarchy;
use spacea_mapping::{LocalityMapping, MachineShape, MapKind, Mapping, Placement};
use spacea_matrix::formats::FormatKind;
use spacea_matrix::Csr;
use spacea_serve::protocol::{self, y_bits, y_from_bits, Request};
use spacea_serve::{seeded_vector, vec_hash, AckRecord, ServeConfig, ServeEngine};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Requests per client in the daemon segment, and so per replay.
const REQUESTS_PER_CLIENT: usize = 8;

/// Spans recorded to calibrate the cost of recording one.
const CALIBRATION_SPANS: usize = 20_000;

/// Layer metrics that total one span name's self time per replay.
const TOTALS: [(&str, &str); 13] = [
    ("matrix.gen_ms", "matrix.gen"),
    ("matrix.format_build_ms", "matrix.format_build"),
    ("matrix.spmv_ref_ms", "matrix.spmv_ref"),
    ("mapping.phase1_ms", "mapping.phase1"),
    ("mapping.phase2_ms", "mapping.phase2"),
    ("mapping.store_warm_ms", "mapping.store_warm"),
    ("arch.run_ms", "arch.run"),
    ("backend.spacea_ms", "backend.spacea"),
    ("backend.gpu_ms", "backend.gpu"),
    ("backend.cpu_ms", "backend.cpu"),
    ("backend.hbm_ms", "backend.hbm"),
    ("harness.store_insert_ms", "harness.store_insert"),
    ("harness.store_lookup_ms", "harness.store_lookup"),
];

/// Serve metrics that take the median self time of one call, with the
/// divisor from nanoseconds to the metric's unit.
const PER_CALL: [(&str, &str, f64); 7] = [
    ("serve.register_cold_ms", "serve.register_cold", 1e6),
    ("serve.register_warm_ms", "serve.register_warm", 1e6),
    ("serve.parse_us", "serve.parse", 1e3),
    ("serve.run_batch_ms", "serve.run_batch", 1e6),
    ("serve.journal_append_us", "serve.journal_append", 1e3),
    ("serve.encode_us", "serve.encode", 1e3),
    ("serve.decode_us", "serve.decode", 1e3),
];

/// What a replay produced that must repeat exactly on every replay.
#[derive(Debug, PartialEq, Eq, Default)]
struct Counts {
    events: u64,
    cycles: u64,
    mappings: u64,
    store_bytes: u64,
    /// Simulated cycles per job key, for the manifest cross-check.
    cycles_by_key: BTreeMap<String, u64>,
    /// Simulated cycles per served request, in request order.
    served_cycles: Vec<u64>,
}

/// A mapping's identity, keyed the way the harness's `JobCtx` keys it
/// (`None` format = the logical matrix, `Some` = a format's footprint).
type MapKey = (MatrixSource, Option<FormatKind>, MapKind, MachineShape);

/// One replay's memo of generated operands and computed mappings.
struct Replay {
    ctx: JobCtx,
    generated: HashSet<MatrixSource>,
    mappings: Vec<(MapKey, Arc<Csr>, Arc<Mapping>)>,
    cold_maps: MappingStore,
    counts: Counts,
}

impl Replay {
    fn matrix(&mut self, rec: &mut Recorder, source: &MatrixSource) -> Arc<Csr> {
        if self.generated.insert(*source) {
            rec.span("matrix.gen", |_| self.ctx.matrix(source))
        } else {
            self.ctx.matrix(source)
        }
    }

    /// Phase I and II of `operand`, each timed; then the same mapping
    /// persisted through a cold [`MappingStore`], whose own compute must
    /// agree with the phase-by-phase one.
    fn mapping(
        &mut self,
        rec: &mut Recorder,
        key: MapKey,
        operand: Arc<Csr>,
    ) -> Result<Arc<Mapping>, String> {
        if let Some((_, _, m)) = self.mappings.iter().find(|(k, _, _)| *k == key) {
            return Ok(Arc::clone(m));
        }
        let (_, _, kind, shape) = key;
        let a = operand.as_ref();
        let pes = shape.product_pes();
        let mapping = match kind {
            MapKind::Proposed => {
                let penalty = LocalityMapping::paper_defaults().penalty;
                let assignment = rec.span("mapping.phase1", |_| assign_rows(a, pes, penalty));
                let placement =
                    rec.span("mapping.phase2", |_| cluster_hierarchy(a, &assignment, &shape));
                Mapping { assignment, placement }
            }
            MapKind::Naive => {
                let assignment =
                    rec.span("mapping.phase1", |_| assign_rows_naive(a, pes, DEFAULT_SEED));
                let placement = rec.span("mapping.phase2", |_| Placement::identity(pes));
                Mapping { assignment, placement }
            }
        };
        let stored =
            rec.span("mapping.store_cold", |_| self.cold_maps.get_or_compute(a, kind, &shape));
        if stored != mapping {
            return Err(format!("phase-by-phase mapping of {:?} differs from the store's", key.0));
        }
        let mapping = Arc::new(mapping);
        self.mappings.push((key, operand, Arc::clone(&mapping)));
        Ok(mapping)
    }

    /// One job through its layers, as the harness executes it.
    fn job(&mut self, rec: &mut Recorder, job: &JobSpec) -> Result<JobResult, String> {
        let source = *job.source();
        let a = self.matrix(rec, &source);
        let x = input_vector(a.cols());
        Ok(match job {
            JobSpec::Gpu { spec, .. } => {
                JobResult::Gpu(rec.span("gpu.csrmv", |_| simulate_csrmv(spec, &a)))
            }
            JobSpec::Sim { kind, hw, .. } => {
                let m = self.mapping(rec, (source, None, *kind, hw.shape), Arc::clone(&a))?;
                let out = rec
                    .span("arch.run", |_| Machine::new(hw.clone()).run(RunSpec::spmv(&a, &x, &m)))
                    .map_err(|e| format!("{}: {e}", job.label()))?;
                self.counts.events += out.report.events_processed;
                self.counts.cycles += out.report.cycles;
                self.counts.cycles_by_key.insert(job.key().to_string(), out.report.cycles);
                JobResult::Sim(Arc::new(out.report))
            }
            JobSpec::Scenario { backend, format, partition, kind, hw, gpu, hbm, .. } => {
                let built = rec.span("matrix.format_build", |_| format.build(&a));
                let mapping = match backend.needs_mapping() {
                    true => {
                        let pattern =
                            rec.span("matrix.format_build", |_| format.build(&a).storage_pattern());
                        let key = (source, Some(*format), *kind, hw.shape);
                        Some(self.mapping(rec, key, Arc::new(pattern))?)
                    }
                    false => None,
                };
                let spec = ScenarioSpec {
                    a: &a,
                    format: built.as_ref(),
                    partition: *partition,
                    x: &x,
                    mapping: mapping.as_deref(),
                };
                let model = backend.build(hw, gpu, hbm);
                let run = rec
                    .span(backend_span(*backend), |_| model.run(&spec))
                    .map_err(|e| format!("{}: {e}", job.label()))?;
                let reference = rec.span("matrix.spmv_ref", |_| a.spmv(&x));
                if !bitwise_eq(&run.y, &reference) {
                    return Err(format!("{}: output differs from Csr::spmv", job.label()));
                }
                let mut h = Fnv::new();
                run.y.iter().for_each(|v| h.f64(*v));
                self.counts.cycles_by_key.insert(job.key().to_string(), run.cycles);
                JobResult::Scenario(ScenarioRec {
                    cycles: run.cycles,
                    time_s: run.time_s,
                    stream_bytes: run.stream_bytes,
                    effective_bw: run.effective_bw,
                    bytes_per_nnz: run.bytes_per_nnz,
                    reorder_stalls: run.reorder_stalls,
                    y_hash: h.finish(),
                    bitwise_ok: true,
                })
            }
        })
    }
}

fn backend_span(backend: BackendKind) -> &'static str {
    match backend {
        BackendKind::Spacea => "backend.spacea",
        BackendKind::Gpu => "backend.gpu",
        BackendKind::Cpu => "backend.cpu",
        BackendKind::Hbm => "backend.hbm",
    }
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One replay under a root `replay` span: every job through its layers
/// into a disk-backed result store, the persisted mappings and results
/// read back warm, then the served matrices and requests through the serve
/// engine's calls.
fn replay_once(
    rec: &mut Recorder,
    jobs: &[JobSpec],
    served: &[(u8, usize)],
    requests: &[Planned],
    dir: &Path,
) -> Result<Counts, String> {
    let _ = std::fs::remove_dir_all(dir);
    rec.span("replay", |rec| {
        let store = ResultStore::with_disk(dir.join("results")).map_err(|e| e.to_string())?;
        let mut replay = Replay {
            ctx: JobCtx::new(),
            generated: HashSet::new(),
            mappings: Vec::new(),
            cold_maps: MappingStore::with_dir(dir.join("mappings")),
            counts: Counts::default(),
        };
        let mut results = Vec::with_capacity(jobs.len());
        for job in jobs {
            results.push(rec.span_detail("job", Some(job.label()), |rec| {
                let result = replay.job(rec, job)?;
                rec.span("harness.store_insert", |_| store.insert(job.key(), result.clone()));
                Ok::<_, String>(result)
            })?);
        }

        let warm_maps = MappingStore::with_dir(dir.join("mappings"));
        for ((_, _, kind, shape), operand, mapping) in &replay.mappings {
            let loaded =
                rec.span("mapping.store_warm", |_| warm_maps.get_or_compute(operand, *kind, shape));
            if loaded != **mapping {
                return Err("a warm-loaded mapping differs from the computed one".into());
            }
        }
        if warm_maps.stats().computed != 0 {
            return Err("the warm mapping store recomputed a persisted mapping".into());
        }

        let warm = ResultStore::with_disk(dir.join("results")).map_err(|e| e.to_string())?;
        for (job, mut result) in jobs.iter().zip(results) {
            let got = rec.span("harness.store_lookup", |_| warm.lookup(job.key()));
            // The store persists every field but a simulation's output
            // vector.
            if let JobResult::Sim(report) = &mut result {
                Arc::make_mut(report).output.clear();
            }
            if got != Some((result, CacheOutcome::DiskHit)) {
                return Err(format!("{}: the disk store did not return its result", job.label()));
            }
        }

        let mut counts = replay.counts;
        counts.mappings = replay.mappings.len() as u64;
        counts.store_bytes = dir_bytes(&dir.join("results"));
        counts.served_cycles = replay_serve(rec, served, requests, &dir.join("serve"))?;
        Ok(counts)
    })
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// Registers `served` cold and then warm, and puts every request through
/// the daemon's per-request calls: wire parse, batch run, journal append,
/// reply encode and client decode, checked against `Csr::spmv`.
fn replay_serve(
    rec: &mut Recorder,
    served: &[(u8, usize)],
    requests: &[Planned],
    dir: &Path,
) -> Result<Vec<u64>, String> {
    let cold = ServeEngine::new(ServeConfig::quick(dir));
    for &(id, scale) in served {
        rec.span("serve.register_cold", |_| cold.register_suite(id, scale))
            .map_err(|e| e.to_string())?;
    }
    drop(cold);
    let engine = ServeEngine::new(ServeConfig::quick(dir));
    let mut keys = Vec::new();
    for &(id, scale) in served {
        let info = rec
            .span("serve.register_warm", |_| engine.register_suite(id, scale))
            .map_err(|e| e.to_string())?;
        keys.push(info.key);
    }
    if engine.stats().mappings.computed != 0 {
        return Err("a warm serve engine recomputed a mapping".into());
    }
    let mut cycles = Vec::with_capacity(requests.len());
    for p in requests {
        let detail = Some(format!("seed {:016x}", p.seed));
        cycles.push(rec.span_detail("request", detail, |rec| {
            let line = Request::Submit { matrix: keys[p.matrix], seed: p.seed, deadline_ms: None }
                .to_line();
            let Ok(Request::Submit { matrix, seed, .. }) =
                rec.span("serve.parse", |_| Request::parse(&line))
            else {
                return Err(format!("the wire line {line} did not parse back"));
            };
            let a = engine.matrix(matrix).ok_or("a registered matrix vanished")?;
            let x = seeded_vector(a.cols(), seed);
            let rep = rec
                .span("serve.run_batch", |_| engine.run_batch(matrix, std::slice::from_ref(&x)))
                .map_err(|e| e.to_string())?;
            let y = &rep.outputs[0];
            let cycles = rep.report.cycles;
            let ack =
                AckRecord { matrix, x_hash: vec_hash(&x), y_hash: vec_hash(y), batch: 1, cycles };
            rec.span("serve.journal_append", |_| engine.journal().append(&[ack]))
                .map_err(|e| e.to_string())?;
            let text = rec.span("serve.encode", |_| {
                protocol::ok(vec![
                    ("y", y_bits(y)),
                    ("batch", Json::U64(1)),
                    ("cycles", Json::U64(cycles)),
                    ("queue_wait_us", Json::U64(0)),
                ])
                .to_text()
            });
            let decoded = rec.span("serve.decode", |_| {
                parse(&text).ok().and_then(|v| v.get("y").and_then(y_from_bits))
            });
            let want = rec.span("matrix.spmv_ref", |_| a.spmv(&x));
            if !decoded.is_some_and(|d| bitwise_eq(&d, &want)) {
                return Err(format!("request seed {seed}: the decoded reply is not Csr::spmv"));
            }
            Ok(cycles)
        })?);
    }
    Ok(cycles)
}

/// The cost of recording one span, in nanoseconds, measured on a scratch
/// recorder.
fn span_cost_ns() -> f64 {
    let mut rec = Recorder::new();
    let t = Instant::now();
    for i in 0..CALIBRATION_SPANS {
        rec.span("calibration", |_| std::hint::black_box(i));
    }
    t.elapsed().as_nanos() as f64 / CALIBRATION_SPANS as f64
}

/// Self times of the replays' spans: per span name, one total per replay
/// and every call's own value (nanoseconds).
struct LayerTimes {
    totals: HashMap<&'static str, Vec<f64>>,
    calls: HashMap<&'static str, Vec<f64>>,
    replay_walls: Vec<f64>,
    spans_per_replay: f64,
}

impl LayerTimes {
    fn of(rec: &Recorder) -> LayerTimes {
        let spans = rec.spans();
        let selfs = rec.self_times();
        let mut root = vec![0; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            // Parents precede children, so a parent's root is known.
            root[i] = s.parent.map_or(i, |p| root[p]);
        }
        let replays: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].name == "replay" && spans[i].parent.is_none())
            .collect();
        let mut per_replay: Vec<HashMap<&'static str, f64>> = vec![HashMap::new(); replays.len()];
        let mut calls: HashMap<&'static str, Vec<f64>> = HashMap::new();
        let mut in_replays = 0;
        for (i, s) in spans.iter().enumerate() {
            let Some(r) = replays.iter().position(|&r| r == root[i]) else { continue };
            *per_replay[r].entry(s.name).or_default() += selfs[i] as f64;
            calls.entry(s.name).or_default().push(selfs[i] as f64);
            in_replays += 1;
        }
        let mut totals: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for map in per_replay {
            for (name, total) in map {
                totals.entry(name).or_default().push(total);
            }
        }
        LayerTimes {
            totals,
            calls,
            replay_walls: replays.iter().map(|&r| spans[r].dur_ns() as f64).collect(),
            spans_per_replay: in_replays as f64 / replays.len().max(1) as f64,
        }
    }

    /// Median over replays of a span name's total self time; NaN (which
    /// fails the run) if the replay never called that layer.
    fn total_ns(&self, name: &str) -> f64 {
        self.totals.get(name).and_then(|v| median(v)).unwrap_or(f64::NAN)
    }

    /// Median self time of one call, and the number of calls.
    fn per_call_ns(&self, name: &str) -> (f64, usize) {
        let calls = self.calls.get(name).map_or(&[][..], Vec::as_slice);
        (median(calls).unwrap_or(f64::NAN), calls.len())
    }
}

/// Runs one workload traced and returns its per-layer metrics; writes the
/// spans as a Chrome trace to `trace_path`.
///
/// # Errors
///
/// A failure that leaves nothing to measure.
pub fn per_layer(
    kind: Kind,
    plan: &Plan,
    bins: &Path,
    work: &Path,
    trace_path: &Path,
) -> Result<Outcome, String> {
    let jobs = kind.jobs(plan);
    let served = kind.served_matrices(&jobs);
    let n = served.len();
    let requests: Vec<Planned> = (0..WORKERS)
        .flat_map(|c| (0..REQUESTS_PER_CLIENT).map(move |i| planned(plan.seed, c, i, n)))
        .collect();
    let mut out = Outcome::new(&PER_LAYER);
    let mut rec = Recorder::new();

    // The program's own account of the jobs, for the cycle cross-check.
    let manifest = match kind {
        Kind::ServeMixed => None,
        _ => Some(run_rep(kind, plan, bins, &work.join("reference"))?.manifest),
    };

    // The live service over the same matrices and request seeds.
    let daemon = Daemon::start(&bins.join("serve"), &work.join("serve"), &served)?;
    let replies = closed_loop(
        daemon.port()?,
        &daemon.registered,
        WORKERS,
        plan.seed,
        Stop::Count(REQUESTS_PER_CLIENT),
    );
    out.attempted += replies.len();
    out.failed += verify_replies(&daemon, &replies, &mut out.problems);
    daemon.shutdown()?;
    rec.span("serve.window", |rec| {
        for r in &replies {
            rec.record("serve.request", r.start, r.end, r.client as u32 + 1, None);
        }
    });

    // The replays, for the run's seconds; their counts must repeat.
    let started = Instant::now();
    let mut counts: Option<Counts> = None;
    while counts.is_none() || started.elapsed().as_secs_f64() < plan.seconds {
        out.attempted += 1;
        let got = replay_once(&mut rec, &jobs, &served, &requests, &work.join("replay"))?;
        match &counts {
            Some(first) if *first != got => {
                out.failed += 1;
                out.problems.push("simulated counts differ between replays".into());
            }
            Some(_) => {}
            None => counts = Some(got),
        }
    }
    let counts = counts.expect("at least one replay ran");
    cross_check(&counts, manifest.as_ref(), &requests, &replies, &mut out.problems);

    let text = rec.to_chrome_trace(kind.name());
    spacea_obs::json::validate_chrome_trace(&text).map_err(|e| format!("invalid trace: {e}"))?;
    std::fs::write(trace_path, &text)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    eprintln!("{}: trace written to {}", kind.name(), trace_path.display());

    let lt = LayerTimes::of(&rec);
    let replays = lt.replay_walls.len();
    let v = &mut out.values;
    for (metric, span) in TOTALS {
        v.set(metric, lt.total_ns(span) / 1e6, replays);
    }
    v.set("arch.ns_per_event", lt.total_ns("arch.run") / counts.events as f64, replays);
    v.set("arch.events", counts.events as f64, replays);
    v.set("arch.cycles", counts.cycles as f64, replays);
    v.set("mapping.computed", counts.mappings as f64, replays);
    v.set("harness.store_bytes", counts.store_bytes as f64, replays);
    let mut attributed_ms = 0.0;
    for (metric, span, unit_ns) in PER_CALL {
        let (ns, calls) = lt.per_call_ns(span);
        v.set(metric, ns / unit_ns, calls);
        if span != "serve.register_cold" && span != "serve.register_warm" {
            attributed_ms += ns / 1e6;
        }
    }
    served_metrics(&mut out, &replies, attributed_ms);
    let wall = median(&lt.replay_walls).unwrap_or(f64::NAN);
    out.values.set("trace.overhead_frac", span_cost_ns() * lt.spans_per_replay / wall, replays);
    Ok(out)
}

/// The traced composition must reproduce the program: per-job cycles and
/// the mapping count of the manifest, and the cycles of every solo pass the
/// daemon served.
fn cross_check(
    counts: &Counts,
    manifest: Option<&crate::workloads::Manifest>,
    requests: &[Planned],
    replies: &[Reply],
    problems: &mut Vec<String>,
) {
    if let Some(m) = manifest {
        for (key, want) in m.cycles_by_key() {
            if counts.cycles_by_key.get(key) != Some(&want) {
                problems.push(format!("job {key}: replay cycles differ from the manifest"));
            }
        }
        if m.mappings != counts.mappings {
            problems.push(format!(
                "the replay computed {} mappings, the program {}",
                counts.mappings, m.mappings
            ));
        }
    }
    for r in replies {
        // A fused pass simulates several vectors at once; only a solo pass
        // is the replay's single-vector run.
        let Ok(o) = &r.outcome else { continue };
        let replayed =
            requests.iter().position(|p| *p == r.planned).map(|i| counts.served_cycles[i]);
        if o.batch == 1 && replayed != Some(o.cycles) {
            problems.push(format!("served seed {}: cycles differ from the replay", r.planned.seed));
        }
    }
}

/// What the daemon segment reports: admission wait and fusion as the
/// daemon saw them, and the median round trip no layer call accounts for.
fn served_metrics(out: &mut Outcome, replies: &[Reply], attributed_ms: f64) {
    let acked: Vec<_> =
        replies.iter().filter_map(|r| Some((r, r.outcome.as_ref().ok()?))).collect();
    let n = acked.len();
    let waits: Vec<f64> = acked.iter().map(|(_, o)| o.queue_wait_us as f64).collect();
    let batch_sum: usize = acked.iter().map(|(_, o)| o.batch).sum();
    let latency: Vec<f64> = acked.iter().map(|(r, _)| r.latency_ms()).collect();
    let v = &mut out.values;
    v.set("serve.queue_wait_p50_us", median(&waits).unwrap_or(f64::NAN), n);
    v.set("serve.batch_mean", batch_sum as f64 / n as f64, n);
    v.set("serve.unattributed_p50_ms", median(&latency).unwrap_or(f64::NAN) - attributed_ms, n);
}
