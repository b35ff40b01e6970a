//! Shared experiment configuration and the store-backed computation cache.

use crate::table::Table;
use spacea_arch::{HwConfig, SimReport};
use spacea_backend::{BackendKind, HbmSpec, Partition};
use spacea_gpu::spec::{Dgx1CpuSpec, TitanXpSpec};
use spacea_gpu::GpuRun;
use spacea_harness::{JobCtx, JobResult, JobSpec, MatrixSource, ResultStore, ScenarioRec};
use spacea_mapping::{MachineShape, Mapping};
use spacea_matrix::formats::FormatKind;
use spacea_matrix::suite;
use spacea_matrix::Csr;
use spacea_model::energy::StaticConfig;
use spacea_model::{EnergyBreakdown, EnergyParams};
use std::sync::Arc;

pub use spacea_mapping::MapKind;

/// Experiment configuration: how much everything is scaled down.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpConfig {
    /// Table I matrix down-scale factor (rows and nnz divided by this).
    pub scale: usize,
    /// Case-study graph down-scale factor (Table III).
    pub graph_scale: usize,
    /// The SpaceA machine under test.
    pub hw: HwConfig,
    /// Energy model parameters.
    pub energy: EnergyParams,
}

impl Default for ExpConfig {
    /// The harness default: matrices at 1/8, a 2-cube machine (the paper's
    /// per-PE work regime; see DESIGN.md section 4).
    fn default() -> Self {
        ExpConfig {
            scale: suite::DEFAULT_SCALE,
            graph_scale: 64,
            hw: HwConfig::scaled(),
            energy: EnergyParams::default(),
        }
    }
}

impl ExpConfig {
    /// A much smaller configuration for unit tests: small matrices on a tiny
    /// machine, so every experiment module can be exercised quickly.
    pub fn quick() -> Self {
        ExpConfig {
            scale: 256,
            graph_scale: 2048,
            hw: HwConfig::tiny(),
            energy: EnergyParams::default(),
        }
    }

    /// Axis constructor: this configuration at a different Table I matrix
    /// scale.
    pub fn with_scale(mut self, scale: usize) -> Self {
        self.scale = scale.max(1);
        self
    }

    /// Axis constructor: this configuration at a different case-study graph
    /// scale.
    pub fn with_graph_scale(mut self, graph_scale: usize) -> Self {
        self.graph_scale = graph_scale.max(1);
        self
    }

    /// Axis constructor: this configuration's machine with a different cube
    /// count (per-cube structure unchanged).
    pub fn with_cubes(mut self, cubes: usize) -> Self {
        self.hw = self.hw.with_cubes(cubes);
        self
    }

    /// The iso-area scale factor for baselines: the paper compares its
    /// 3584-Product-PE machine (16 cubes) against a full Titan Xp / DGX-1,
    /// so a smaller machine is compared against a proportional slice of the
    /// baseline.
    pub fn baseline_fraction(&self) -> f64 {
        self.hw.shape.product_pes() as f64 / MachineShape::paper().product_pes() as f64
    }

    /// The Titan Xp slice matching this machine's cube count.
    pub fn gpu_spec(&self) -> TitanXpSpec {
        let f = self.baseline_fraction();
        let full = TitanXpSpec::default();
        TitanXpSpec {
            dram_bw: full.dram_bw * f,
            peak_flops: full.peak_flops * f,
            l2_bytes: ((full.l2_bytes as f64 * f) as usize).max(64 * 1024),
            idle_power_w: full.idle_power_w * f,
            dram_power_w: full.dram_power_w * f,
            alu_power_w: full.alu_power_w * f,
            ..full
        }
    }

    /// The DGX-1 CPU slice matching this machine's cube count.
    pub fn cpu_spec(&self) -> Dgx1CpuSpec {
        let full = Dgx1CpuSpec::default();
        Dgx1CpuSpec { mem_bw: full.mem_bw * self.baseline_fraction(), ..full }
    }

    /// The [`MatrixSource`] naming Table I matrix `id` at this
    /// configuration's scale.
    pub fn source(&self, id: u8) -> MatrixSource {
        MatrixSource::Suite { id, scale: self.scale }
    }

    /// The job computing the GPU baseline for matrix `id`.
    pub fn gpu_job(&self, id: u8) -> JobSpec {
        JobSpec::Gpu { source: self.source(id), spec: self.gpu_spec() }
    }

    /// The job simulating matrix `id` on the default machine.
    pub fn sim_job(&self, id: u8, kind: MapKind) -> JobSpec {
        self.sim_job_with(id, kind, &self.hw)
    }

    /// The job simulating matrix `id` on an arbitrary machine.
    pub fn sim_job_with(&self, id: u8, kind: MapKind, hw: &HwConfig) -> JobSpec {
        JobSpec::Sim { source: self.source(id), kind, hw: hw.clone(), energy: self.energy }
    }

    /// The HBM accelerator parameters scenario cells run against.
    pub fn hbm_spec(&self) -> HbmSpec {
        HbmSpec::default()
    }

    /// The job running one backend × format × partitioning scenario cell on
    /// matrix `id` (bitwise-verified against the CSR reference).
    pub fn scenario_job(
        &self,
        id: u8,
        backend: BackendKind,
        format: FormatKind,
        partition: Partition,
    ) -> JobSpec {
        JobSpec::Scenario {
            source: self.source(id),
            backend,
            format,
            partition,
            kind: MapKind::Proposed,
            hw: self.hw.clone(),
            gpu: self.gpu_spec(),
            hbm: self.hbm_spec(),
        }
    }

    /// Static-power structure counts for an arbitrary shape.
    pub fn static_config_for(shape: &MachineShape) -> StaticConfig {
        let layers = shape.product_bgs_per_vault + 1;
        StaticConfig {
            banks: shape.vaults() * layers * shape.banks_per_bg,
            bank_groups: shape.vaults() * layers,
            vaults: shape.vaults(),
            cubes: shape.cubes,
        }
    }
}

/// One result table (plus optional sub-tables) and the headline numbers the
/// EXPERIMENTS.md generator records as paper-vs-measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExpOutput {
    /// Experiment id (`"fig5"`, `"table3"`…).
    pub id: &'static str,
    /// The main rendered table.
    pub table: Table,
    /// Additional tables (e.g. Figure 7's five panels).
    pub extra_tables: Vec<Table>,
    /// Headline `(metric, paper value, measured value)` triples.
    pub headline: Vec<(String, f64, f64)>,
}

/// Store-backed access to matrices, mappings, GPU runs and SpaceA
/// simulations, shared across experiments (and worker threads) in one
/// process.
///
/// Every expensive result is addressed by its [`JobSpec`] content hash in a
/// shared [`ResultStore`], so work pre-computed by the parallel harness
/// ([`spacea_harness::run_jobs`]) is found here by key — rendering never
/// recomputes, which is what makes parallel runs byte-identical to serial
/// ones. Matrices and mappings (job *inputs*) are memoized in a shared
/// [`JobCtx`].
pub struct SuiteCache {
    /// The shared configuration.
    pub cfg: ExpConfig,
    store: Arc<ResultStore>,
    ctx: Arc<JobCtx>,
}

impl SuiteCache {
    /// Creates a cache with a fresh in-memory store.
    pub fn new(cfg: ExpConfig) -> Self {
        SuiteCache::with_store(cfg, Arc::new(ResultStore::in_memory()), Arc::new(JobCtx::new()))
    }

    /// Creates a cache over an existing (possibly pre-warmed, possibly
    /// disk-backed) store and input context.
    pub fn with_store(cfg: ExpConfig, store: Arc<ResultStore>, ctx: Arc<JobCtx>) -> Self {
        SuiteCache { cfg, store, ctx }
    }

    /// The shared result store.
    pub fn store(&self) -> &Arc<ResultStore> {
        &self.store
    }

    /// The shared matrix/mapping context.
    pub fn ctx(&self) -> &Arc<JobCtx> {
        &self.ctx
    }

    /// The scaled matrix for Table I id `id`.
    pub fn matrix(&mut self, id: u8) -> Arc<Csr> {
        self.ctx.matrix(&self.cfg.source(id))
    }

    /// An arbitrary source's matrix (case-study operands).
    pub fn matrix_of(&mut self, source: &MatrixSource) -> Arc<Csr> {
        self.ctx.matrix(source)
    }

    /// The mapping of matrix `id` for the cache's machine shape.
    pub fn mapping(&mut self, id: u8, kind: MapKind) -> Arc<Mapping> {
        self.ctx.mapping(&self.cfg.source(id), kind, self.cfg.hw.shape)
    }

    /// Runs a job through the store: hit → cached result, miss → execute
    /// here (serially) and insert.
    ///
    /// # Panics
    ///
    /// Panics if the job fails. Rendering runs on the serial path with
    /// trusted experiment definitions; sweeps go through
    /// [`spacea_harness::run_jobs`] instead.
    pub fn run_job(&mut self, job: &JobSpec) -> JobResult {
        let key = job.key();
        if let Some((result, _)) = self.store.lookup(key) {
            return result;
        }
        let result = spacea_harness::exec::execute(job, &self.ctx)
            // lint:allow(R1) documented panic: the serial render path runs trusted jobs
            .unwrap_or_else(|e| panic!("job {} failed: {e}", job.label()));
        self.store.insert(key, result.clone());
        result
    }

    /// Unwraps a sim job's result variant.
    ///
    /// # Panics
    ///
    /// Panics when the store hands back a non-`Sim` result for a sim job
    /// key, which means the content-addressed cache is corrupt — not
    /// recoverable on the render path.
    fn expect_sim(job: &JobSpec, result: JobResult) -> Arc<SimReport> {
        match result {
            JobResult::Sim(report) => report,
            // lint:allow(R1) documented panic: result-kind mismatch is cache corruption
            other => panic!("sim job {} returned {other:?}", job.label()),
        }
    }

    /// The GPU baseline run for matrix `id` (iso-area scaled spec).
    pub fn gpu(&mut self, id: u8) -> GpuRun {
        let job = self.cfg.gpu_job(id);
        match self.run_job(&job) {
            JobResult::Gpu(run) => run,
            // lint:allow(R1) documented panic: result-kind mismatch is cache corruption
            other => panic!("gpu job {} returned {other:?}", job.label()),
        }
    }

    /// The SpaceA simulation of matrix `id` on the default machine.
    pub fn sim(&mut self, id: u8, kind: MapKind) -> Arc<SimReport> {
        let hw = self.cfg.hw.clone();
        self.sim_with(id, kind, &hw)
    }

    /// The simulation of matrix `id` with a custom hardware configuration
    /// (sensitivity sweeps). Cached in the store like every other sim.
    pub fn sim_with(&mut self, id: u8, kind: MapKind, hw: &HwConfig) -> Arc<SimReport> {
        let job = self.cfg.sim_job_with(id, kind, hw);
        let result = self.run_job(&job);
        Self::expect_sim(&job, result)
    }

    /// The simulation of an arbitrary matrix source on the default machine
    /// with the proposed mapping semantics of `kind` (Table III operands).
    pub fn sim_source(&mut self, source: &MatrixSource, kind: MapKind) -> Arc<SimReport> {
        let job = JobSpec::Sim {
            source: *source,
            kind,
            hw: self.cfg.hw.clone(),
            energy: self.cfg.energy,
        };
        let result = self.run_job(&job);
        Self::expect_sim(&job, result)
    }

    /// One backend × format × partitioning scenario cell for matrix `id`,
    /// computed (and cached) through the store like every other job.
    pub fn scenario(
        &mut self,
        id: u8,
        backend: BackendKind,
        format: FormatKind,
        partition: Partition,
    ) -> ScenarioRec {
        let job = self.cfg.scenario_job(id, backend, format, partition);
        match self.run_job(&job) {
            JobResult::Scenario(rec) => rec,
            // lint:allow(R1) documented panic: result-kind mismatch is cache corruption
            other => panic!("scenario job {} returned {other:?}", job.label()),
        }
    }

    /// The energy breakdown of a cached default-machine simulation.
    pub fn energy(&mut self, id: u8, kind: MapKind) -> EnergyBreakdown {
        let report = self.sim(id, kind);
        let sc = ExpConfig::static_config_for(&self.cfg.hw.shape);
        self.cfg.energy.breakdown(&report.activity, report.cycles, &sc)
    }

    /// Speedup of SpaceA (with `kind` mapping) over the GPU baseline.
    pub fn speedup(&mut self, id: u8, kind: MapKind) -> f64 {
        let gpu = self.gpu(id);
        let sim = self.sim(id, kind);
        gpu.time_s / sim.seconds()
    }

    /// Energy saving of SpaceA over the GPU baseline (fraction in `[0, 1)`
    /// when SpaceA wins).
    pub fn energy_saving(&mut self, id: u8, kind: MapKind) -> f64 {
        let gpu = self.gpu(id);
        let e = self.energy(id, kind);
        1.0 - e.total_j() / gpu.energy_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_memoizes_matrices() {
        let mut c = SuiteCache::new(ExpConfig::quick());
        let a = c.matrix(1);
        let b = c.matrix(1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn cache_memoizes_sims() {
        let mut c = SuiteCache::new(ExpConfig::quick());
        let r1 = c.sim(12, MapKind::Proposed);
        let r2 = c.sim(12, MapKind::Proposed);
        assert_eq!(r1, r2);
        assert_eq!(c.store().stats().mem_hits, 1);
    }

    #[test]
    fn sweep_sims_are_cached_too() {
        let mut c = SuiteCache::new(ExpConfig::quick());
        let mut hw = c.cfg.hw.clone();
        hw.tsv_latency = 9;
        let r1 = c.sim_with(3, MapKind::Proposed, &hw);
        let misses = c.store().stats().misses;
        let r2 = c.sim_with(3, MapKind::Proposed, &hw);
        assert_eq!(r1, r2);
        assert_eq!(c.store().stats().misses, misses, "second sweep sim must hit");
    }

    #[test]
    fn caches_sharing_a_store_share_results() {
        let mut a = SuiteCache::new(ExpConfig::quick());
        a.sim(5, MapKind::Proposed);
        let mut b =
            SuiteCache::with_store(ExpConfig::quick(), Arc::clone(a.store()), Arc::clone(a.ctx()));
        b.sim(5, MapKind::Proposed);
        let stats = b.store().stats();
        assert_eq!(stats.mem_hits, 1, "second cache must reuse the first's sim");
    }

    #[test]
    fn axis_constructors_compose() {
        let cfg = ExpConfig::quick().with_scale(32).with_graph_scale(512).with_cubes(4);
        assert_eq!(cfg.scale, 32);
        assert_eq!(cfg.graph_scale, 512);
        assert_eq!(cfg.hw.shape.cubes, 4);
        assert_eq!(cfg.hw.shape.vaults_per_cube, ExpConfig::quick().hw.shape.vaults_per_cube);
        assert_eq!(ExpConfig::quick().with_scale(0).scale, 1, "scale clamps to 1");
    }

    #[test]
    fn speedup_positive() {
        let mut c = SuiteCache::new(ExpConfig::quick());
        assert!(c.speedup(1, MapKind::Proposed) > 0.0);
    }

    #[test]
    fn gpu_spec_scaling() {
        let cfg = ExpConfig::default();
        // 2 cubes with the paper's per-cube structure → 1/8 of the full GPU.
        assert!((cfg.gpu_spec().dram_bw - 547.8e9 / 8.0).abs() < 1.0);
        assert!((cfg.baseline_fraction() - 0.125).abs() < 1e-12);
        // The tiny test machine has 16 of the paper's 3584 PEs.
        let tiny = ExpConfig::quick();
        assert!((tiny.baseline_fraction() - 16.0 / 3584.0).abs() < 1e-12);
    }

    #[test]
    fn static_config_for_counts() {
        let sc = ExpConfig::static_config_for(&MachineShape::tiny());
        assert_eq!(sc.banks, 24);
        assert_eq!(sc.vaults, 4);
    }
}
