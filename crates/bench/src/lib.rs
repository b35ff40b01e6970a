//! Shared plumbing for the experiment harness binaries.
//!
//! Every paper table/figure is an entry of
//! `spacea_core::experiments::registry()`, and every study behind a side
//! claim an entry of `spacea_core::experiments::studies()`; one binary runs
//! either by id (`cargo run --release -p spacea-bench --bin experiment --
//! fig5`, `... -- ablations`). It, `all_experiments`,
//! `write_experiments_md` and `sweep` accept the same flags:
//!
//! * `--scale N` — Table I matrix down-scale factor (default 8)
//! * `--graph-scale N` — Table III graph down-scale factor (default 64)
//! * `--cubes N` — cube count of the machine under test (default 2)
//! * `--quick` — the miniature smoke-test configuration (explicit flags
//!   still apply, regardless of order)
//! * `--jobs N` — worker threads for the parallel job phase (default: the
//!   machine's available parallelism, capped at 8)
//! * `--no-cache` — skip the persistent result cache under
//!   `target/spacea-cache/`
//! * `--cache-dir DIR` — use a different cache directory (CI isolation,
//!   scratch sweeps)
//! * `--csv` — emit CSV instead of aligned text
//!
//! Flags parse through [`HarnessOptions::from_args`]; unknown flags are
//! [`ArgError`]s carrying a usage string, and binaries with extra flags (the
//! experiment id, the sweep grid, sharding, cache GC — see [`SweepCli`])
//! plug them into the same parser via [`HarnessOptions::from_args_with`]
//! instead of hand-rolling a second one.
//!
//! Each binary starts from a [`HarnessSession`] — the named successor of the
//! old `(SuiteCache, bool)` tuple — via [`harness`] (parse args, open the
//! store) or [`HarnessSession::from_opts`]. Experiments first enumerate the
//! jobs they consume (see `spacea_core::experiments::Experiment::jobs`),
//! compute them in parallel through [`HarnessSession::prewarm`] into a
//! content-addressed [`ResultStore`], and only then render — rendering is
//! pure lookup, so the output is byte-identical for any `--jobs` value.
//!
//! The two CI ratchets, `engine_bench` (`BENCH_engine.json`: event counts
//! and replay checksums) and `serve_bench` (`BENCH_serve.json`: cycles per
//! fused batch), share one `--write | --check FILE` checker, [`snapshot`]:
//! one file format and one exact-match rule.

#![warn(missing_docs)]

pub mod snapshot;

use spacea_core::experiments::{ExpConfig, ExpOutput, SuiteCache};
use spacea_core::table::Table;
use spacea_harness::{
    write_atomic, FaultPlan, GcPolicy, JobCtx, JobSpec, ResultStore, RunManifest, SweepPoint,
    SweepSpec, TimelineConfig, DEFAULT_CACHE_DIR,
};
use spacea_obs::Cycle;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Parsed harness options.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessOptions {
    /// The experiment configuration.
    pub cfg: ExpConfig,
    /// Emit CSV instead of text tables.
    pub csv: bool,
    /// Worker threads for the parallel job phase.
    pub jobs: usize,
    /// Skip the persistent on-disk result cache.
    pub no_cache: bool,
    /// Override of the cache directory (default [`DEFAULT_CACHE_DIR`]).
    pub cache_dir: Option<PathBuf>,
}

/// The default worker count: available parallelism, capped at 8.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
}

/// A rejected argument list: the offending detail plus the usage string.
#[derive(Debug, Clone, PartialEq)]
pub struct ArgError {
    /// What was wrong (`"unknown flag '--warp'"`).
    pub message: String,
}

/// The usage line for the shared harness flags.
pub const BASE_USAGE: &str = "flags: --scale N | --graph-scale N | --cubes N | --quick | \
     --jobs N | --no-cache | --cache-dir DIR | --csv";

impl ArgError {
    /// A fresh error.
    pub fn new(message: impl Into<String>) -> Self {
        ArgError { message: message.into() }
    }

    /// Prints the message plus usage (base and, if non-empty, `extra`) to
    /// stderr and exits with status 2 — the harness binaries' error path.
    pub fn exit_with_usage(self, extra: &str) -> ! {
        eprintln!("{}", self.message);
        eprintln!("{BASE_USAGE}");
        if !extra.is_empty() {
            eprintln!("{extra}");
        }
        std::process::exit(2)
    }

    /// [`ArgError::exit_with_usage`] with no extra flags to advertise.
    pub fn exit(self) -> ! {
        self.exit_with_usage("")
    }
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

/// The argument cursor handed to flag handlers: the not-yet-consumed tail
/// of the argument list, with typed value accessors.
pub struct ArgStream {
    inner: std::vec::IntoIter<String>,
}

impl ArgStream {
    fn next(&mut self) -> Option<String> {
        self.inner.next()
    }

    /// The value following `flag`, or an error naming the flag.
    pub fn value(&mut self, flag: &str) -> Result<String, ArgError> {
        self.next().ok_or_else(|| ArgError::new(format!("{flag} needs a value")))
    }

    /// The positive-integer value following `flag`.
    pub fn usize_value(&mut self, flag: &str) -> Result<usize, ArgError> {
        self.value(flag)?
            .parse()
            .map_err(|_| ArgError::new(format!("{flag} needs a positive integer")))
    }
}

impl HarnessOptions {
    /// Parses the shared harness flags from an argument iterator. Unknown
    /// flags (and malformed values) are errors, never silently ignored.
    pub fn from_args<I: Iterator<Item = String>>(args: I) -> Result<Self, ArgError> {
        Self::from_args_with(args, |_, _| Ok(false))
    }

    /// Like [`HarnessOptions::from_args`], but flags the base parser does
    /// not recognize are offered to `extra(flag, args)` first: return
    /// `Ok(true)` if consumed (taking any values from the [`ArgStream`]),
    /// `Ok(false)` to reject it as unknown. This is how the sweep binary
    /// plugs its grid/shard/gc flags into the shared parser.
    pub fn from_args_with<I, F>(args: I, mut extra: F) -> Result<Self, ArgError>
    where
        I: Iterator<Item = String>,
        F: FnMut(&str, &mut ArgStream) -> Result<bool, ArgError>,
    {
        let args: Vec<String> = args.collect();
        // `--quick` replaces the whole base configuration, so it is applied
        // first and the explicit flags overlay it — `--cubes 4 --quick`
        // keeps the 4 cubes regardless of flag order.
        let mut cfg = if args.iter().any(|a| a == "--quick") {
            ExpConfig::quick()
        } else {
            ExpConfig::default()
        };
        let mut csv = false;
        let mut jobs = default_jobs();
        let mut no_cache = false;
        let mut cache_dir = None;
        let mut stream = ArgStream { inner: args.into_iter() };
        while let Some(arg) = stream.next() {
            match arg.as_str() {
                "--scale" => cfg = cfg.with_scale(stream.usize_value("--scale")?),
                "--graph-scale" => cfg = cfg.with_graph_scale(stream.usize_value("--graph-scale")?),
                "--cubes" => cfg = cfg.with_cubes(stream.usize_value("--cubes")?),
                "--jobs" => jobs = stream.usize_value("--jobs")?.max(1),
                "--no-cache" => no_cache = true,
                "--cache-dir" => cache_dir = Some(PathBuf::from(stream.value("--cache-dir")?)),
                "--quick" => {} // already applied as the base configuration
                "--csv" => csv = true,
                "--help" | "-h" => return Err(ArgError::new("usage")),
                other => {
                    if !extra(other, &mut stream)? {
                        return Err(ArgError::new(format!("unknown flag '{other}'")));
                    }
                }
            }
        }
        Ok(HarnessOptions { cfg, csv, jobs, no_cache, cache_dir })
    }

    /// The cache directory this run persists to (even with `--no-cache`,
    /// where it is only used for the run manifest).
    pub fn cache_dir(&self) -> PathBuf {
        self.cache_dir.clone().unwrap_or_else(|| PathBuf::from(DEFAULT_CACHE_DIR))
    }
}

/// One configured harness run: the shared computation cache, the resolved
/// options, and where its run manifest goes. Replaces the anonymous
/// `(SuiteCache, bool)` tuples the binaries used to destructure.
pub struct HarnessSession {
    /// Store-backed access to matrices, mappings and results.
    pub cache: SuiteCache,
    /// The fully resolved options this session was built from.
    pub opts: HarnessOptions,
    /// Where [`HarnessSession::write_manifest`] persists run telemetry.
    pub manifest_path: PathBuf,
    /// When set, sim jobs run observed and [`HarnessSession::prewarm`]
    /// writes one Chrome-trace timeline per job (the `--timeline` flag).
    pub timeline: Option<TimelineConfig>,
}

impl HarnessSession {
    /// Builds a session from parsed options. Unless `--no-cache` was given,
    /// results persist under [`HarnessOptions::cache_dir`] (in memory only if
    /// that directory cannot be opened) and computed mappings under
    /// `<cache-dir>/mappings/`, so Phase I/II is paid once per sparsity
    /// pattern *ever* (warm restarts load them from disk).
    pub fn from_opts(opts: HarnessOptions) -> Self {
        let dir = opts.cache_dir();
        let (store, ctx) = if opts.no_cache {
            (ResultStore::in_memory(), JobCtx::new())
        } else {
            let store = ResultStore::with_disk(&dir).unwrap_or_else(|e| {
                eprintln!(
                    "harness: cannot open cache dir {} ({e}); continuing without disk cache",
                    dir.display()
                );
                ResultStore::in_memory()
            });
            (store, JobCtx::with_mapping_dir(dir.join("mappings")))
        };
        let cache = SuiteCache::with_store(opts.cfg.clone(), Arc::new(store), Arc::new(ctx));
        HarnessSession { cache, opts, manifest_path: dir.join("last-run.json"), timeline: None }
    }

    /// Computes `jobs` (deduplicated) in parallel on this session's worker
    /// count, filling the cache's store, and returns the run telemetry. A
    /// panicking or hung job ends up as a failure record in the manifest;
    /// the rest still completes. With [`HarnessSession::timeline`] set, sim
    /// jobs run observed and each success writes a Chrome-trace artifact
    /// (see [`TimelineConfig`]).
    pub fn prewarm(&self, jobs: Vec<JobSpec>) -> RunManifest {
        let cache = &self.cache;
        let jobs = spacea_harness::dedup_jobs(jobs);
        let started = Instant::now();
        let records = spacea_harness::run_jobs(
            &jobs,
            cache.store(),
            cache.ctx(),
            self.opts.jobs,
            self.timeline.as_ref(),
        );
        RunManifest {
            workers: self.opts.jobs,
            total_wall_ms: started.elapsed().as_secs_f64() * 1e3,
            records,
            stats: cache.store().stats(),
            mappings: cache.ctx().mapping_stats(),
            simulations: cache.ctx().simulation_stats(),
            corrupt_paths: cache
                .store()
                .corrupt_paths()
                .iter()
                .chain(&cache.ctx().healed_mapping_paths())
                .map(|p| p.display().to_string())
                .collect(),
        }
    }

    /// One experiment's tables in this session's format: what
    /// [`HarnessSession::emit`] prints.
    pub fn render(&self, out: &ExpOutput) -> String {
        let mut s = self.render_table(&out.table);
        for t in &out.extra_tables {
            s.push('\n');
            s += &self.render_table(t);
        }
        if !out.headline.is_empty() && !self.opts.csv {
            s += "\npaper vs measured:\n";
            for (name, paper, measured) in &out.headline {
                s += &format!("  {name}: paper {paper:.3} | measured {measured:.3}\n");
            }
        }
        s
    }

    /// Prints one experiment's tables in this session's format.
    pub fn emit(&self, out: &ExpOutput) {
        print!("{}", self.render(out));
    }

    /// Prints a single table in this session's format. CSV mode emits only
    /// the header and rows (no title/notes), which is what makes per-shard
    /// sweep output concatenable into the unsharded output.
    pub fn emit_table(&self, table: &Table) {
        print!("{}", self.render_table(table));
    }

    fn render_table(&self, table: &Table) -> String {
        if self.opts.csv {
            table.to_csv()
        } else {
            table.to_text()
        }
    }

    /// Writes the run manifest JSON to [`HarnessSession::manifest_path`]
    /// (tmp file + rename, so concurrent shards never leave a torn file) and
    /// returns that path.
    pub fn write_manifest(&self, manifest: &RunManifest) -> std::io::Result<PathBuf> {
        write_atomic(&self.manifest_path, &manifest.to_json())?;
        Ok(self.manifest_path.clone())
    }
}

/// Parses the process arguments and builds the session.
pub fn harness() -> HarnessSession {
    let opts = HarnessOptions::from_args(std::env::args().skip(1)).unwrap_or_else(|e| e.exit());
    HarnessSession::from_opts(opts)
}

/// The sweep binary's extra flags — grid axes, sharding, cache GC — in a
/// form any binary can plug into [`HarnessOptions::from_args_with`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepCli {
    /// The grid the axis flags built.
    pub spec: SweepSpec,
    /// `--shard K/N`: run (and render) only shard K of N.
    pub shard: Option<(usize, usize)>,
    /// `--gc`: run cache GC after the sweep.
    pub gc: bool,
    /// `--gc-max-kb N`: size budget for `--gc`, in KiB.
    pub gc_max_kb: Option<u64>,
    /// `--gc-max-age-days N`: age budget for `--gc`, in days.
    pub gc_max_age_days: Option<u64>,
    /// `--faults SPEC`: fault plans to inject, as `(point index, plan)`
    /// pairs; `None` index means every sim point. See [`SweepCli::accept`].
    pub faults: Vec<(Option<usize>, FaultPlan)>,
    /// `--timeline[=EVERY]`: export per-job timelines; `Some(0)` means the
    /// default sampling cadence, any other value is the cadence in cycles.
    pub timeline: Option<Cycle>,
}

/// Usage line for the sweep flags (shown next to [`BASE_USAGE`]).
pub const SWEEP_USAGE: &str = "sweep: --ids L|all | --scales L | --kinds L | \
     --hw L | --cubes-axis L | --l1-sets L | --l2-sets L | --gpu | \
     --backend L|all | --format L|all | --partition L|all (scenario cells: backend x format x \
     partitioning, verified bitwise against the CSR reference) | \
     --shard K/N | --gc | --gc-max-kb N | --gc-max-age-days N | \
     --faults '[IDX:]PLAN[;...]' (PLAN e.g. stall-vault=0@100, drop-noc=5, panic) | \
     --timeline[=EVERY-CYCLES] (per-job Perfetto timelines under <cache>/timelines/)   \
     (L = comma-separated list)";

impl SweepCli {
    /// Offers `flag` to the sweep parser; `Ok(true)` if it was consumed.
    /// Pass this (as a closure) to [`HarnessOptions::from_args_with`].
    pub fn accept(&mut self, flag: &str, args: &mut ArgStream) -> Result<bool, ArgError> {
        let mut axis = |key: &str, value: &str| self.spec.set(key, value).map_err(ArgError::new);
        match flag {
            "--ids" => axis("ids", &args.value("--ids")?)?,
            "--scales" => axis("scales", &args.value("--scales")?)?,
            "--kinds" => axis("kinds", &args.value("--kinds")?)?,
            "--hw" => axis("hw", &args.value("--hw")?)?,
            "--cubes-axis" => axis("cubes", &args.value("--cubes-axis")?)?,
            "--l1-sets" => axis("l1-sets", &args.value("--l1-sets")?)?,
            "--l2-sets" => axis("l2-sets", &args.value("--l2-sets")?)?,
            "--gpu" => self.spec.gpu = true,
            "--backend" => axis("backends", &args.value("--backend")?)?,
            "--format" => axis("formats", &args.value("--format")?)?,
            "--partition" => axis("partitions", &args.value("--partition")?)?,
            "--shard" => {
                let v = args.value("--shard")?;
                let parsed = v.split_once('/').and_then(|(k, n)| {
                    Some((k.trim().parse::<usize>().ok()?, n.trim().parse::<usize>().ok()?))
                });
                match parsed {
                    Some((k, n)) if n > 0 && k < n => self.shard = Some((k, n)),
                    _ => {
                        return Err(ArgError::new(format!(
                            "--shard needs K/N with K < N, got '{v}'"
                        )))
                    }
                }
            }
            "--gc" => self.gc = true,
            "--gc-max-kb" => {
                self.gc_max_kb = Some(args.usize_value("--gc-max-kb")? as u64);
                self.gc = true;
            }
            "--gc-max-age-days" => {
                self.gc_max_age_days = Some(args.usize_value("--gc-max-age-days")? as u64);
                self.gc = true;
            }
            "--faults" => {
                // `;`-separated `[IDX:]PLAN` entries. Fault directives never
                // contain ':', so the first ':' always splits off the index.
                let v = args.value("--faults")?;
                for part in v.split(';').map(str::trim).filter(|p| !p.is_empty()) {
                    let (idx, plan_text) = match part.split_once(':') {
                        Some((i, rest)) => {
                            let i = i.trim().parse::<usize>().map_err(|_| {
                                ArgError::new(format!("--faults: bad point index in '{part}'"))
                            })?;
                            (Some(i), rest)
                        }
                        None => (None, part),
                    };
                    let plan = FaultPlan::parse(plan_text)
                        .map_err(|e| ArgError::new(format!("--faults: {e}")))?;
                    self.faults.push((idx, plan));
                }
            }
            "--timeline" => self.timeline = Some(0),
            other if other.starts_with("--timeline=") => {
                let v = &other["--timeline=".len()..];
                // `0` falls back to the default cadence, same as bare
                // `--timeline` (TimelineConfig::with_every treats 0 as
                // "keep the default").
                let every = v.parse::<Cycle>().map_err(|_| {
                    ArgError::new(format!("--timeline needs a cycle count, got '{v}'"))
                })?;
                self.timeline = Some(every);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The timeline configuration `--timeline` requested, rooted under
    /// `cache_dir` (artifacts go to `<cache_dir>/timelines/<job-key>.json`).
    pub fn timeline_config(&self, cache_dir: &Path) -> Option<TimelineConfig> {
        self.timeline.map(|every| TimelineConfig::new(cache_dir).with_every(every))
    }

    /// Applies the `--faults` plans to the enumerated sweep points. Indices
    /// are **global** (pre-shard) point positions, so a faulted sharded
    /// sweep targets the same point regardless of which shard runs it; a
    /// plan with no index applies to every simulation point. Plans aimed at
    /// GPU points or out-of-range indices are reported on stderr and
    /// skipped.
    pub fn apply_faults(&self, points: &mut [SweepPoint]) {
        for (idx, plan) in &self.faults {
            match idx {
                None => {
                    for p in points.iter_mut() {
                        if let JobSpec::Sim { hw, .. } = &mut p.job {
                            hw.faults = *plan;
                        }
                    }
                }
                Some(i) => match points.get_mut(*i) {
                    Some(p) => match &mut p.job {
                        JobSpec::Sim { hw, .. } => hw.faults = *plan,
                        JobSpec::Gpu { .. } | JobSpec::Scenario { .. } => eprintln!(
                            "sweep: --faults index {i} names a non-sim point; fault ignored"
                        ),
                    },
                    None => eprintln!(
                        "sweep: --faults index {i} out of range ({} points); ignored",
                        points.len()
                    ),
                },
            }
        }
    }

    /// The GC policy the flags requested, if `--gc` was given.
    pub fn gc_policy(&self) -> Option<GcPolicy> {
        if !self.gc {
            return None;
        }
        Some(GcPolicy {
            max_bytes: self.gc_max_kb.map(|kb| kb * 1024),
            max_age_secs: self.gc_max_age_days.map(|d| d * 24 * 3600),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> HarnessOptions {
        HarnessOptions::from_args(args.iter().map(|s| s.to_string())).expect("args parse")
    }

    #[test]
    fn defaults() {
        let o = parse(&[]);
        assert_eq!(o.cfg.scale, 8);
        assert!(!o.csv);
        assert!(!o.no_cache);
        assert!(o.cache_dir.is_none());
        assert!(o.jobs >= 1);
    }

    #[test]
    fn scale_flag() {
        assert_eq!(parse(&["--scale", "128"]).cfg.scale, 128);
    }

    #[test]
    fn cubes_flag() {
        assert_eq!(parse(&["--cubes", "4"]).cfg.hw.shape.cubes, 4);
    }

    #[test]
    fn quick_flag() {
        let o = parse(&["--quick"]);
        assert_eq!(o.cfg, ExpConfig::quick());
    }

    #[test]
    fn quick_does_not_clobber_explicit_flags_in_any_order() {
        // Regression: `--cubes 4 --quick` used to silently reset the cube
        // count because `--quick` replaced the whole config when reached.
        let a = parse(&["--cubes", "4", "--quick"]);
        let b = parse(&["--quick", "--cubes", "4"]);
        assert_eq!(a.cfg.hw.shape.cubes, 4);
        assert_eq!(a.cfg, b.cfg);
        assert_eq!(a.cfg.scale, ExpConfig::quick().scale, "quick base still applies");
        let c = parse(&["--scale", "12", "--quick", "--graph-scale", "99"]);
        assert_eq!(c.cfg.scale, 12);
        assert_eq!(c.cfg.graph_scale, 99);
    }

    #[test]
    fn jobs_no_cache_and_cache_dir_flags() {
        let o = parse(&["--jobs", "3", "--no-cache", "--cache-dir", "/tmp/x"]);
        assert_eq!(o.jobs, 3);
        assert!(o.no_cache);
        assert_eq!(o.cache_dir, Some(PathBuf::from("/tmp/x")));
        assert_eq!(o.cache_dir(), PathBuf::from("/tmp/x"));
        assert_eq!(parse(&[]).cache_dir(), PathBuf::from(DEFAULT_CACHE_DIR));
        assert_eq!(parse(&["--jobs", "0"]).jobs, 1, "worker count clamps to 1");
    }

    #[test]
    fn csv_flag() {
        assert!(parse(&["--csv"]).csv);
    }

    #[test]
    fn unknown_flags_and_bad_values_are_errors_not_exits() {
        let err = |args: &[&str]| {
            HarnessOptions::from_args(args.iter().map(|s| s.to_string())).unwrap_err()
        };
        assert!(err(&["--warp"]).message.contains("unknown flag '--warp'"));
        assert!(err(&["--scale"]).message.contains("needs a value"));
        assert!(err(&["--scale", "many"]).message.contains("positive integer"));
    }

    #[test]
    fn extra_hook_consumes_flags_the_base_parser_rejects() {
        let mut seen = Vec::new();
        let opts = HarnessOptions::from_args_with(
            ["--csv", "--wings", "2", "--scale", "16"].iter().map(|s| s.to_string()),
            |flag, args| {
                if flag == "--wings" {
                    seen.push(args.usize_value("--wings")?);
                    Ok(true)
                } else {
                    Ok(false)
                }
            },
        )
        .unwrap();
        assert_eq!(seen, vec![2]);
        assert!(opts.csv);
        assert_eq!(opts.cfg.scale, 16, "base flags after extra flags still parse");
    }

    fn sweep(args: &[&str]) -> (HarnessOptions, SweepCli) {
        let mut cli = SweepCli::default();
        let opts = HarnessOptions::from_args_with(args.iter().map(|s| s.to_string()), |f, a| {
            cli.accept(f, a)
        })
        .expect("sweep args parse");
        (opts, cli)
    }

    #[test]
    fn sweep_flags_build_a_grid() {
        let (opts, cli) =
            sweep(&["--ids", "1,2", "--kinds", "naive,proposed", "--shard", "1/3", "--quick"]);
        assert_eq!(cli.spec.ids, vec![1, 2]);
        assert_eq!(cli.spec.kinds.len(), 2);
        assert_eq!(cli.shard, Some((1, 3)));
        assert_eq!(opts.cfg, ExpConfig::quick(), "base flags co-exist with sweep flags");

        // Flags are the only command-line route to the grid: each of the
        // eleven `SweepSpec::set` keys has one, and it sets exactly what
        // `set` does with the same key and value.
        let axes = [
            ("--ids", "ids", "1,13"),
            ("--scales", "scales", "256,512"),
            ("--kinds", "kinds", "naive,proposed"),
            ("--hw", "hw", "tiny,scaled"),
            ("--cubes-axis", "cubes", "1,2"),
            ("--l1-sets", "l1-sets", "16,32"),
            ("--l2-sets", "l2-sets", "1024"),
            ("--gpu", "gpu", "true"),
            ("--backend", "backends", "spacea,hbm"),
            ("--format", "formats", "csr,sell"),
            ("--partition", "partitions", "row,nnz"),
        ];
        let mut args = Vec::new();
        let mut expected = SweepSpec::default();
        for (flag, key, value) in axes {
            args.push(flag);
            if flag != "--gpu" {
                args.push(value);
            }
            expected.set(key, value).unwrap();
        }
        let (_, cli) = sweep(&args);
        assert_eq!(cli.spec, expected);
    }

    #[test]
    fn sweep_shard_and_gc_flags_validate() {
        let err = |args: &[&str]| {
            let mut cli = SweepCli::default();
            HarnessOptions::from_args_with(args.iter().map(|s| s.to_string()), |f, a| {
                cli.accept(f, a)
            })
            .unwrap_err()
        };
        assert!(err(&["--shard", "3/3"]).message.contains("K < N"));
        assert!(err(&["--shard", "nope"]).message.contains("K < N"));
        assert!(err(&["--ids", "99"]).message.contains("Table I"));

        let (_, cli) = sweep(&["--gc-max-kb", "64", "--gc-max-age-days", "7"]);
        let policy = cli.gc_policy().expect("budget flags imply --gc");
        assert_eq!(policy.max_bytes, Some(64 * 1024));
        assert_eq!(policy.max_age_secs, Some(7 * 24 * 3600));
        let (_, cli) = sweep(&["--ids", "1"]);
        assert!(cli.gc_policy().is_none());
    }

    #[test]
    fn scenario_flags_build_the_cell_axes() {
        let (_, cli) = sweep(&["--backend", "spacea,hbm", "--format", "all", "--partition", "nnz"]);
        assert_eq!(cli.spec.backends.len(), 2);
        assert_eq!(cli.spec.formats.len(), 4, "'all' expands to every format");
        assert_eq!(cli.spec.partitions.len(), 1);

        let err = {
            let mut cli = SweepCli::default();
            HarnessOptions::from_args_with(
                ["--backend".to_string(), "fpga".to_string()].into_iter(),
                |f, a| cli.accept(f, a),
            )
            .unwrap_err()
        };
        assert!(err.message.contains("unknown backend"), "{}", err.message);
    }

    #[test]
    fn faults_flag_parses_indices_and_plans() {
        let (_, cli) = sweep(&["--faults", "0:stall-vault=2@100; panic", "--ids", "1"]);
        assert_eq!(cli.faults.len(), 2);
        assert_eq!(cli.faults[0].0, Some(0));
        assert_eq!(cli.faults[0].1.stall_vault, Some((2, 100)));
        assert_eq!(cli.faults[1].0, None);
        assert!(cli.faults[1].1.panic_on_run);

        let err = |args: &[&str]| {
            let mut cli = SweepCli::default();
            HarnessOptions::from_args_with(args.iter().map(|s| s.to_string()), |f, a| {
                cli.accept(f, a)
            })
            .unwrap_err()
        };
        assert!(err(&["--faults", "0:bogus=1"]).message.contains("--faults"));
        assert!(err(&["--faults", "x:panic"]).message.contains("point index"));
    }

    #[test]
    fn timeline_flag_parses_bare_and_with_cadence() {
        let (_, cli) = sweep(&["--ids", "1"]);
        assert_eq!(cli.timeline, None);
        assert!(cli.timeline_config(Path::new("c")).is_none());

        let (_, cli) = sweep(&["--timeline", "--ids", "1"]);
        assert_eq!(cli.timeline, Some(0));
        let cfg = cli.timeline_config(Path::new("c")).unwrap();
        assert_eq!(cfg.dir(), Path::new("c/timelines"));
        assert_eq!(cfg.observe, spacea_obs::SamplerConfig::default());

        let (_, cli) = sweep(&["--timeline=512"]);
        assert_eq!(cli.timeline, Some(512));
        let cfg = cli.timeline_config(Path::new("c")).unwrap();
        assert_eq!(cfg.observe.every, 512);

        let err = {
            let mut cli = SweepCli::default();
            HarnessOptions::from_args_with(["--timeline=soon".to_string()].into_iter(), |f, a| {
                cli.accept(f, a)
            })
            .unwrap_err()
        };
        assert!(err.message.contains("cycle count"), "{}", err.message);
    }
}
