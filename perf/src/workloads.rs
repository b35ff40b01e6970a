//! The four workloads and their untraced end-to-end measurement.
//!
//! Batch workloads run the release binaries as child processes, one
//! operation per command run; `serve-mixed` runs a daemon child under a
//! closed-loop client load from this process. Every run checks the
//! program's outputs before it reports a number.

use crate::daemon::{closed_loop, splitmix64, Daemon, Stop};
use crate::metrics::{Values, END_TO_END};
use crate::procfs::{pid_cpu_ticks, pid_vm_hwm_kb, self_children_cpu_ticks, TICKS_PER_SEC};
use crate::stats::{median, percentile, tail_percentile};
use spacea_backend::{BackendKind, HbmSpec, Partition};
use spacea_core::experiments::{all_jobs, ExpConfig, MapKind};
use spacea_harness::json::{parse, Json};
use spacea_harness::{dedup_jobs, JobCtx, JobResult, JobSpec, MatrixSource, SweepBase, SweepSpec};
use spacea_matrix::formats::FormatKind;
use spacea_matrix::suite;
use std::collections::HashMap;
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Worker threads of the batch runs and client connections of the served
/// run: the core count of the 2-core machine the bounds were set on, so
/// load generator and program never oversubscribe it.
pub const WORKERS: usize = 2;

/// The served matrices of `serve-mixed` (Table I ids at scale 64): a
/// structural, two irregular and a power-law operand.
pub const SERVE_MATRICES: [(u8, usize); 4] = [(1, 64), (3, 64), (7, 64), (12, 64)];

/// How often a batch child's peak resident set is sampled.
const RSS_POLL: Duration = Duration::from_millis(5);

/// A batch command run longer than this is killed and fails the run.
const REP_TIMEOUT: Duration = Duration::from_secs(120);

/// How many seeded jobs every batch run re-executes in-process to check
/// that the binary's cycle counts are the library's.
const CROSS_CHECKED_JOBS: usize = 3;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `all_experiments --quick` into a fresh cache.
    ExperimentsCold,
    /// The same command over a populated cache.
    ExperimentsWarm,
    /// The backend × format × partitioning sweep into a fresh cache.
    SweepFormatsCold,
    /// A daemon under two closed-loop clients over four matrices.
    ServeMixed,
}

impl Kind {
    /// Every workload. `BENCHMARK.json` declares all but
    /// `experiments-warm`, whose spread the README explains.
    pub const ALL: [Kind; 4] =
        [Kind::ExperimentsCold, Kind::ExperimentsWarm, Kind::SweepFormatsCold, Kind::ServeMixed];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ExperimentsCold => "experiments-cold",
            Kind::ExperimentsWarm => "experiments-warm",
            Kind::SweepFormatsCold => "sweep-formats-cold",
            Kind::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The harness jobs behind the workload, in the order the program
    /// submits them. For `serve-mixed`, the jobs that put its matrices
    /// through every batch layer (a simulation, the GPU model, and one CSR
    /// cell per backend), so the traced replay times every layer on every
    /// workload's own inputs.
    pub fn jobs(self, plan: &Plan) -> Vec<JobSpec> {
        let cfg = ExpConfig::quick();
        match self {
            Kind::ExperimentsCold | Kind::ExperimentsWarm => all_jobs(&cfg),
            Kind::SweepFormatsCold => {
                let mut spec = SweepSpec::default();
                let scale = plan.sweep_scale.to_string();
                for (axis, value) in [
                    ("ids", "all"),
                    ("scales", scale.as_str()),
                    ("backends", "all"),
                    ("formats", "all"),
                    ("partitions", "all"),
                ] {
                    spec.set(axis, value).expect("the sweep axes are valid");
                }
                let base = SweepBase {
                    hw_name: "default".into(),
                    hw: cfg.hw.clone(),
                    energy: cfg.energy,
                    scale: cfg.scale,
                    gpu_spec: cfg.gpu_spec(),
                    hbm_spec: HbmSpec::default(),
                };
                dedup_jobs(spec.points(&base).iter().map(|p| p.job()).collect())
            }
            Kind::ServeMixed => SERVE_MATRICES
                .iter()
                .flat_map(|&(id, scale)| {
                    let cfg = ExpConfig::quick().with_scale(scale);
                    let mut jobs = vec![cfg.sim_job(id, MapKind::Proposed), cfg.gpu_job(id)];
                    jobs.extend(
                        BackendKind::ALL
                            .map(|b| cfg.scenario_job(id, b, FormatKind::Csr, Partition::RowSplit)),
                    );
                    jobs
                })
                .collect(),
        }
    }

    /// The matrices a daemon serves for this workload: `serve-mixed`'s own
    /// four, or the first two suite operands of a batch workload's jobs.
    pub fn served_matrices(self, jobs: &[JobSpec]) -> Vec<(u8, usize)> {
        if self == Kind::ServeMixed {
            return SERVE_MATRICES.to_vec();
        }
        let mut out = Vec::new();
        for job in jobs {
            if let MatrixSource::Suite { id, scale } = *job.source() {
                if !out.contains(&(id, scale)) && out.len() < 2 {
                    out.push((id, scale));
                }
            }
        }
        out
    }

    /// One batch command run into `cache`.
    fn command(self, plan: &Plan, bins: &Path, cache: &Path) -> Command {
        let mut cmd = match self {
            Kind::ExperimentsCold | Kind::ExperimentsWarm => {
                let mut cmd = Command::new(bins.join("all_experiments"));
                cmd.arg("--quick");
                cmd
            }
            Kind::SweepFormatsCold => {
                let mut cmd = Command::new(bins.join("sweep"));
                cmd.args(["--quick", "--ids", "all", "--scales", &plan.sweep_scale.to_string()]);
                cmd.args(["--backend", "all", "--format", "all", "--partition", "all", "--csv"]);
                cmd
            }
            Kind::ServeMixed => unreachable!("serve-mixed has no batch command"),
        };
        cmd.args(["--jobs", &WORKERS.to_string(), "--cache-dir"]).arg(cache);
        cmd
    }
}

/// How much of each workload one run does.
#[derive(Debug)]
pub struct Plan {
    /// Seeds the inputs: the served request vectors and which jobs are
    /// cross-checked in-process.
    pub seed: u64,
    /// How long the measured loop (or the traced replay) runs.
    pub seconds: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Operations measured at least, however long they take.
    pub min_reps: usize,
    /// Table I down-scale of the format sweep.
    pub sweep_scale: usize,
}

impl Plan {
    /// A measuring run.
    pub fn measure(seed: u64, seconds: f64) -> Plan {
        Plan { seed, seconds, setups: 3, min_reps: 3, sweep_scale: 64 }
    }

    /// The smoke run: one set-up, quick/256 matrices, a short window.
    pub fn smoke(seed: u64) -> Plan {
        Plan { seed, seconds: 2.0, setups: 1, min_reps: 1, sweep_scale: 256 }
    }
}

/// What one run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// The metric values.
    pub values: Values,
    /// Operations attempted in the measured part.
    pub attempted: usize,
    /// Operations that failed or returned a wrong output.
    pub failed: usize,
    /// Every check that failed, for stderr.
    pub problems: Vec<String>,
}

impl Outcome {
    /// An empty outcome that must end up holding `expected`.
    pub fn new(expected: &'static [crate::metrics::Metric]) -> Self {
        Outcome { values: Values::new(expected), attempted: 0, failed: 0, problems: Vec::new() }
    }

    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Runs one workload untraced and returns its end-to-end metrics.
///
/// # Errors
///
/// A failure that leaves nothing to measure (a binary that cannot start).
pub fn end_to_end(kind: Kind, plan: &Plan, bins: &Path, work: &Path) -> Result<Outcome, String> {
    match kind {
        Kind::ServeMixed => serve_end_to_end(plan, bins, work),
        _ => batch_end_to_end(kind, plan, bins, work),
    }
}

/// One finished batch command run.
#[derive(Debug)]
pub struct Rep {
    /// Spawn to exit.
    pub wall_s: f64,
    /// Highest `VmHWM` sampled while it ran.
    pub peak_rss_kb: u64,
    /// Everything it printed on stdout.
    pub stdout: Vec<u8>,
    /// Its run manifest (`<cache>/last-run.json`).
    pub manifest: Manifest,
}

/// The parts of a harness run manifest the checks read.
#[derive(Debug)]
pub struct Manifest {
    /// Per job: key, status, cache outcome, cycles, events.
    pub jobs: Vec<ManifestJob>,
    /// Phase I/II mappings the run obtained, computed or read back from
    /// disk. Which of the two a mapping is can race between workers (two
    /// operands with equal content share one artifact); the sum cannot.
    pub mappings: u64,
}

/// One job record of a manifest.
#[derive(Debug)]
pub struct ManifestJob {
    /// The job key, 16 hex digits.
    pub key: String,
    /// `ok`, `retried`, `failed` or `timed-out`.
    pub status: String,
    /// `computed`, `disk-hit` or `memory-hit`.
    pub outcome: String,
    /// Simulated cycles, for simulation and scenario jobs.
    pub cycles: Option<u64>,
    /// Discrete events, for simulation jobs.
    pub events: Option<u64>,
}

impl Manifest {
    /// Reads `<cache>/last-run.json`.
    ///
    /// # Errors
    ///
    /// A missing or malformed manifest.
    pub fn read(cache: &Path) -> Result<Manifest, String> {
        let path = cache.join("last-run.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let v = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let bad = || format!("{}: unexpected manifest shape", path.display());
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).map(str::to_string);
        let jobs = v
            .get("jobs")
            .and_then(Json::as_arr)
            .ok_or_else(bad)?
            .iter()
            .map(|j| {
                Some(ManifestJob {
                    key: field(j, "key")?,
                    status: field(j, "status")?,
                    outcome: field(j, "outcome")?,
                    cycles: j.get("cycles").and_then(Json::as_u64),
                    events: j.get("events_processed").and_then(Json::as_u64),
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(bad)?;
        let maps = v.get("mappings").ok_or_else(bad)?;
        let count = |k: &str| maps.get(k).and_then(Json::as_u64).ok_or_else(bad);
        let mappings = count("computed")? + count("disk_hits")?;
        Ok(Manifest { jobs, mappings })
    }

    /// Simulated cycles by job key.
    pub fn cycles_by_key(&self) -> HashMap<&str, u64> {
        self.jobs.iter().filter_map(|j| Some((j.key.as_str(), j.cycles?))).collect()
    }

    fn counts(&self) -> Vec<(Option<u64>, Option<u64>)> {
        self.jobs.iter().map(|j| (j.cycles, j.events)).collect()
    }
}

/// Runs one batch command into `cache`, sampling its peak memory.
///
/// # Errors
///
/// The command could not start, timed out, exited unsuccessfully, or left
/// no readable manifest.
pub fn run_rep(kind: Kind, plan: &Plan, bins: &Path, cache: &Path) -> Result<Rep, String> {
    let stderr_path = cache.with_extension("stderr");
    let stderr =
        File::create(&stderr_path).map_err(|e| format!("cannot create stderr log: {e}"))?;
    let mut cmd = kind.command(plan, bins, cache);
    cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(stderr);
    let start = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("cannot spawn {kind:?}: {e}"))?;
    let (wall, peak, stdout) = watch(&mut child, start)?;
    let status = child.wait().map_err(|e| format!("wait failed: {e}"))?;
    if !status.success() {
        let log = std::fs::read_to_string(&stderr_path).unwrap_or_default();
        let tail: Vec<&str> = log.lines().rev().take(5).collect();
        return Err(format!("{} exited with {status}: {}", kind.name(), tail.join(" | ")));
    }
    Ok(Rep {
        wall_s: wall.as_secs_f64(),
        peak_rss_kb: peak,
        stdout,
        manifest: Manifest::read(cache)?,
    })
}

/// Waits for `child` to close its stdout (it does so as it exits), reading
/// everything it printed and sampling `VmHWM` meanwhile. The exit instant is
/// taken by the reader thread, so the memory poll interval does not
/// quantize the wall time. Kills the child after [`REP_TIMEOUT`].
fn watch(child: &mut Child, start: Instant) -> Result<(Duration, u64, Vec<u8>), String> {
    let mut pipe = child.stdout.take().expect("stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut out = Vec::new();
        let read = pipe.read_to_end(&mut out);
        let _ = tx.send(Instant::now());
        read.map(|_| out)
    });
    let pid = child.id();
    let mut peak = 0;
    let end = loop {
        if let Some(kb) = pid_vm_hwm_kb(pid) {
            peak = peak.max(kb);
        }
        match rx.recv_timeout(RSS_POLL) {
            Ok(end) => break Ok(end),
            Err(RecvTimeoutError::Timeout) if start.elapsed() < REP_TIMEOUT => {}
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("command did not finish within {REP_TIMEOUT:?}; killed"));
            }
        }
    };
    let stdout = reader.join().expect("the stdout reader does not panic");
    let end = end?;
    let stdout = stdout.map_err(|e| format!("reading stdout failed: {e}"))?;
    Ok((end - start, peak, stdout))
}

/// What every later run of a batch workload must reproduce.
struct Reference {
    stdout: Vec<u8>,
    counts: Vec<(Option<u64>, Option<u64>)>,
    mappings: u64,
}

/// Checks one batch run's outputs: the job list is the workload's, every
/// job succeeded, a warm run computed nothing, sweep CSV rows are complete,
/// and stdout and the simulated counts repeat the reference exactly.
fn check(
    kind: Kind,
    rep: &Rep,
    keys: &[String],
    reference: Option<&Reference>,
) -> Result<(), String> {
    let m = &rep.manifest;
    let got: Vec<&str> = m.jobs.iter().map(|j| j.key.as_str()).collect();
    if got != keys.iter().map(String::as_str).collect::<Vec<_>>() {
        return Err(format!(
            "manifest lists {} jobs, not the workload's {}",
            got.len(),
            keys.len()
        ));
    }
    if let Some(j) = m.jobs.iter().find(|j| j.status != "ok") {
        return Err(format!("job {} ended {}", j.key, j.status));
    }
    if kind == Kind::SweepFormatsCold {
        let text = String::from_utf8_lossy(&rep.stdout);
        let lines = text.lines().count();
        if lines != keys.len() + 1 {
            return Err(format!("sweep CSV has {lines} lines, expected {}", keys.len() + 1));
        }
        if text.lines().any(|l| l.ends_with(",failed") || l.ends_with(",timed-out")) {
            return Err("sweep CSV has failed or timed-out cells".into());
        }
    }
    let Some(r) = reference else { return Ok(()) };
    if rep.stdout != r.stdout {
        return Err("stdout differs from the reference run".into());
    }
    if m.counts() != r.counts {
        return Err("simulated cycles or events differ from the reference run".into());
    }
    let warm = m.jobs.iter().all(|j| j.outcome != "computed");
    match (kind, warm) {
        (Kind::ExperimentsWarm, true) if m.mappings == 0 => Ok(()),
        (Kind::ExperimentsWarm, _) => Err("a warm run computed jobs or mappings".into()),
        _ if m.mappings != r.mappings => {
            Err(format!("{} mappings obtained, the reference obtained {}", m.mappings, r.mappings))
        }
        _ => Ok(()),
    }
}

/// Re-executes a seeded sample of the manifest's jobs in-process and
/// checks the library reproduces the binary's cycle counts.
fn cross_check(jobs: &[JobSpec], manifest: &Manifest, seed: u64) -> Result<(), String> {
    let cycles = manifest.cycles_by_key();
    let candidates: Vec<&JobSpec> =
        jobs.iter().filter(|j| cycles.contains_key(j.key().to_string().as_str())).collect();
    let ctx = JobCtx::new();
    for i in 0..CROSS_CHECKED_JOBS.min(candidates.len()) {
        let pick = splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let job = candidates[pick as usize % candidates.len()];
        let got = match spacea_harness::exec::execute(job, &ctx) {
            Ok(JobResult::Sim(r)) => r.cycles,
            Ok(JobResult::Scenario(s)) => s.cycles,
            Ok(JobResult::Gpu(_)) => continue,
            Err(e) => return Err(format!("{}: in-process re-run failed: {e}", job.label())),
        };
        let want = cycles[job.key().to_string().as_str()];
        if got != want {
            return Err(format!("{}: binary reports {want} cycles, library {got}", job.label()));
        }
    }
    Ok(())
}

fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

fn batch_end_to_end(kind: Kind, plan: &Plan, bins: &Path, work: &Path) -> Result<Outcome, String> {
    let jobs = kind.jobs(plan);
    let keys: Vec<String> = jobs.iter().map(|j| j.key().to_string()).collect();
    let mut out = Outcome::new(&END_TO_END);
    let mut reference: Option<Reference> = None;
    let mut setup_s = Vec::new();
    // Set-up: cold runs into fresh caches. They fix the reference output
    // the measured runs must repeat, and the last one is the cache the warm
    // workload reads.
    let mut cache = PathBuf::new();
    for s in 0..plan.setups {
        cache = work.join(format!("setup-{s}"));
        let rep = run_rep(kind, plan, bins, &cache)?;
        setup_s.push(rep.wall_s);
        let cold = if kind == Kind::ExperimentsWarm { Kind::ExperimentsCold } else { kind };
        let checked = check(cold, &rep, &keys, reference.as_ref()).and_then(|()| {
            if s == 0 {
                cross_check(&jobs, &rep.manifest, plan.seed)
            } else {
                Ok(())
            }
        });
        if let Err(e) = checked {
            out.problems.push(format!("set-up {s}: {e}"));
        }
        reference.get_or_insert(Reference {
            counts: rep.manifest.counts(),
            mappings: rep.manifest.mappings,
            stdout: rep.stdout,
        });
        if s + 1 < plan.setups {
            remove(&cache);
        }
    }

    let cpu_before = self_children_cpu_ticks()?;
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < plan.min_reps || started.elapsed().as_secs_f64() < plan.seconds {
        let dir = match kind {
            Kind::ExperimentsWarm => cache.clone(),
            _ => work.join(format!("rep-{}", reps.len())),
        };
        let rep = run_rep(kind, plan, bins, &dir)?;
        out.attempted += 1;
        if let Err(e) = check(kind, &rep, &keys, reference.as_ref()) {
            out.failed += 1;
            out.problems.push(format!("run {}: {e}", reps.len()));
        }
        if kind != Kind::ExperimentsWarm {
            remove(&dir);
        }
        reps.push((rep.wall_s, rep.peak_rss_kb, rep.manifest.jobs.len()));
    }
    let cpu_s = (self_children_cpu_ticks()? - cpu_before) as f64 / TICKS_PER_SEC;

    let n = reps.len();
    let walls: Vec<f64> = reps.iter().map(|r| r.0).collect();
    let items: usize = reps.iter().map(|r| r.2).sum();
    let rss: Vec<f64> = reps.iter().map(|r| r.1 as f64 / 1024.0).collect();
    let v = &mut out.values;
    v.set("latency_p50_ms", median(&walls).unwrap_or(f64::NAN) * 1e3, n);
    v.set("items_per_s", items as f64 / walls.iter().sum::<f64>(), n);
    v.set("cpu_ms_per_item", cpu_s * 1e3 / items as f64, n);
    v.set("peak_rss_mb", median(&rss).unwrap_or(f64::NAN), n);
    v.set("setup_s", median(&setup_s).unwrap_or(f64::NAN), setup_s.len());
    Ok(out)
}

/// Checks every served reply bitwise against the reference SpMV of its
/// seeded vector; returns the number of failed or wrong requests.
pub fn verify_replies(
    daemon: &Daemon,
    replies: &[crate::daemon::Reply],
    problems: &mut Vec<String>,
) -> usize {
    let matrices: Vec<_> = daemon
        .registered
        .iter()
        .map(|r| suite::entry_by_id(r.id).map(|e| e.generate(r.scale)))
        .collect();
    let mut failed = 0;
    for r in replies {
        match &r.outcome {
            Ok(o) => {
                let Some(a) = &matrices[r.planned.matrix] else {
                    failed += 1;
                    continue;
                };
                let want = a.spmv(&spacea_serve::seeded_vector(a.cols(), r.planned.seed));
                let same = o.y.len() == want.len()
                    && o.y.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits());
                if !same {
                    failed += 1;
                    problems.push(format!(
                        "reply to seed {} is not the reference SpMV",
                        r.planned.seed
                    ));
                }
            }
            Err(e) => {
                failed += 1;
                if e.code.is_empty() {
                    problems.push(format!("a rejection carried no code: {}", e.message));
                }
            }
        }
    }
    failed
}

fn serve_end_to_end(plan: &Plan, bins: &Path, work: &Path) -> Result<Outcome, String> {
    let serve = bins.join("serve");
    let mut out = Outcome::new(&END_TO_END);
    // Set-up: spawn, port file, registration (Phase I/II runs cold: every
    // set-up has a fresh cache). The last daemon stays up for the load.
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for s in 0..plan.setups {
        let t = Instant::now();
        let d = Daemon::start(&serve, &work.join(format!("serve-{s}")), &SERVE_MATRICES)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if s + 1 < plan.setups {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one set-up");
    let pid = daemon.pid();
    let cpu_before = pid_cpu_ticks(pid)?;
    let started = Instant::now();
    let until = started + Duration::from_secs_f64(plan.seconds);
    let replies =
        closed_loop(daemon.port()?, &daemon.registered, WORKERS, plan.seed, Stop::At(until));
    let window = replies.iter().map(|r| r.end).max().unwrap_or(started) - started;
    let cpu_s = (pid_cpu_ticks(pid)? - cpu_before) as f64 / TICKS_PER_SEC;
    let peak_kb = pid_vm_hwm_kb(pid).ok_or("daemon exited under load")?;

    out.attempted = replies.len();
    out.failed = verify_replies(&daemon, &replies, &mut out.problems);
    daemon.shutdown()?;

    let acked: Vec<f64> =
        replies.iter().filter(|r| r.outcome.is_ok()).map(|r| r.latency_ms()).collect();
    let n = acked.len();
    if let Some(p) = tail_percentile(n) {
        eprintln!(
            "serve-mixed: p{p} latency {:.3} ms over {n} requests",
            percentile(&acked, p).unwrap_or(f64::NAN)
        );
    }
    let v = &mut out.values;
    v.set("latency_p50_ms", median(&acked).unwrap_or(f64::NAN), n);
    v.set("items_per_s", n as f64 / window.as_secs_f64(), n);
    v.set("cpu_ms_per_item", cpu_s * 1e3 / n as f64, n);
    v.set("peak_rss_mb", peak_kb as f64 / 1024.0, 1);
    v.set("setup_s", median(&setup_s).unwrap_or(f64::NAN), setup_s.len());
    Ok(out)
}
