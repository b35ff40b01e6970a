//! Job descriptions and their content-hash keys.

use spacea_arch::HwConfig;
use spacea_backend::{BackendKind, HbmSpec, Partition};
use spacea_gpu::spec::TitanXpSpec;
use spacea_graph::workloads::CaseStudyGraph;
use spacea_mapping::MapKind;
use spacea_matrix::formats::FormatKind;
use spacea_matrix::suite;
use spacea_matrix::Csr;
use spacea_model::EnergyParams;

/// Which SpMV operand a case-study graph is turned into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphOperand {
    /// The raw adjacency matrix (iteration-count and CPU-baseline input).
    Adjacency,
    /// Column-normalized transpose — the PageRank iteration operand.
    PageRank,
    /// Plain transpose — the SSSP (Bellman-Ford sweep) operand.
    Transpose,
}

impl GraphOperand {
    fn tag(&self) -> u8 {
        match self {
            GraphOperand::Adjacency => 2,
            GraphOperand::PageRank => 0,
            GraphOperand::Transpose => 1,
        }
    }
}

/// Where a job's matrix comes from. Sources are cheap identifiers; the
/// matrix itself is generated (and memoized in-process) by [`crate::JobCtx`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatrixSource {
    /// A Table I suite matrix at a down-scale factor.
    Suite {
        /// Table I id (1–15).
        id: u8,
        /// Down-scale factor (rows and nnz divided by this).
        scale: usize,
    },
    /// A Table III case-study graph, reduced to an SpMV operand.
    Graph {
        /// Which graph.
        graph: CaseStudyGraph,
        /// Graph down-scale factor.
        scale: usize,
        /// Which operand matrix to derive from it.
        operand: GraphOperand,
    },
}

impl MatrixSource {
    /// Checks that this source names a generatable matrix, without
    /// generating it. [`MatrixSource::generate`] panics on an unknown
    /// Table I id (a programming error in the hard-coded experiment
    /// enumerations), so user-supplied sources (sweep flags, service
    /// requests) go through here first and fail as a structured job error
    /// instead.
    ///
    /// # Errors
    ///
    /// Returns a message naming the bad field.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            MatrixSource::Suite { id, scale } => {
                if suite::entry_by_id(*id).is_none() {
                    return Err(format!("unknown Table I matrix id {id}"));
                }
                if *scale == 0 {
                    return Err("matrix scale must be positive".into());
                }
            }
            MatrixSource::Graph { scale, .. } => {
                if *scale == 0 {
                    return Err("graph scale must be positive".into());
                }
            }
        }
        Ok(())
    }

    /// Generates the matrix this source names (deterministic).
    ///
    /// # Panics
    ///
    /// Panics on a source that fails [`MatrixSource::validate`]; callers
    /// handling untrusted input validate first.
    pub fn generate(&self) -> Csr {
        match self {
            MatrixSource::Suite { id, scale } => {
                // lint:allow(R1) documented panic; validate() screens untrusted ids
                suite::entry_by_id(*id).expect("valid Table I id").generate(*scale)
            }
            MatrixSource::Graph { graph, scale, operand } => {
                let a = graph.generate(*scale);
                match operand {
                    GraphOperand::Adjacency => a,
                    GraphOperand::PageRank => spacea_graph::pr_operand(&a),
                    GraphOperand::Transpose => a.transpose(),
                }
            }
        }
    }

    /// Short display label (`"m3/8"`, `"WK/256:pr"`).
    pub fn label(&self) -> String {
        match self {
            MatrixSource::Suite { id, scale } => format!("m{id}/{scale}"),
            MatrixSource::Graph { graph, scale, operand } => {
                let op = match operand {
                    GraphOperand::Adjacency => "adj",
                    GraphOperand::PageRank => "pr",
                    GraphOperand::Transpose => "t",
                };
                format!("{}/{scale}:{op}", graph.label())
            }
        }
    }

    fn feed(&self, h: &mut Fnv) {
        match self {
            MatrixSource::Suite { id, scale } => {
                h.u8(0);
                h.u8(*id);
                h.usize(*scale);
            }
            MatrixSource::Graph { graph, scale, operand } => {
                h.u8(1);
                h.u8(match graph {
                    CaseStudyGraph::Wiki => 0,
                    CaseStudyGraph::LiveJournal => 1,
                });
                h.usize(*scale);
                h.u8(operand.tag());
            }
        }
    }
}

/// One unit of work the harness can execute and cache.
// Sim carries a full HwConfig inline; job lists are enumerated in the
// hundreds and short-lived, so the size asymmetry is not worth a Box.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// A GPU baseline model run (`simulate_csrmv`) on a matrix.
    Gpu {
        /// The operand matrix.
        source: MatrixSource,
        /// The (iso-area scaled) GPU model parameters.
        spec: TitanXpSpec,
    },
    /// A cycle-level SpaceA simulation of one SpMV.
    Sim {
        /// The operand matrix.
        source: MatrixSource,
        /// Which mapping to use.
        kind: MapKind,
        /// The machine under test.
        hw: HwConfig,
        /// Energy-model parameters. Not read during simulation, but part of
        /// the job identity: the tables derived from this job's activity
        /// counters depend on them, so changing them must invalidate the
        /// cached result's key.
        energy: EnergyParams,
    },
    /// One cell of the backend × format × partitioning scenario matrix,
    /// executed through the `spacea-backend` trait and bitwise-verified
    /// against the CSR reference.
    Scenario {
        /// The operand matrix.
        source: MatrixSource,
        /// Which execution model runs the cell.
        backend: BackendKind,
        /// Which storage layout the backend executes.
        format: FormatKind,
        /// How the backend shards the matrix.
        partition: Partition,
        /// Which mapping the SpaceA backend uses (part of every scenario
        /// key for axis symmetry; ignored by mapping-free backends).
        kind: MapKind,
        /// The SpaceA machine under test.
        hw: HwConfig,
        /// The GPU model parameters.
        gpu: TitanXpSpec,
        /// The HBM accelerator model parameters.
        hbm: HbmSpec,
    },
}

impl JobSpec {
    /// The matrix source this job operates on.
    pub fn source(&self) -> &MatrixSource {
        match self {
            JobSpec::Gpu { source, .. }
            | JobSpec::Sim { source, .. }
            | JobSpec::Scenario { source, .. } => source,
        }
    }

    /// Short display label for telemetry (`"sim:m3/8:proposed"`).
    pub fn label(&self) -> String {
        match self {
            JobSpec::Gpu { source, .. } => format!("gpu:{}", source.label()),
            JobSpec::Sim { source, kind, .. } => {
                format!("sim:{}:{}", source.label(), kind.label())
            }
            JobSpec::Scenario { source, backend, format, partition, .. } => {
                format!(
                    "scn:{}:{}:{}:{}",
                    source.label(),
                    backend.label(),
                    format.label(),
                    partition.label()
                )
            }
        }
    }

    /// The content hash identifying this job.
    ///
    /// Every field that can influence the result (or its downstream tables)
    /// is folded into an FNV-1a hash; floats contribute their exact IEEE-754
    /// bit patterns. The encoding starts with a format-version tag — bump it
    /// to invalidate all previously persisted results.
    pub fn key(&self) -> JobKey {
        let mut h = Fnv::new();
        h.str("spacea-job-v1");
        match self {
            JobSpec::Gpu { source, spec } => {
                h.u8(1);
                source.feed(&mut h);
                feed_gpu_spec(&mut h, spec);
            }
            JobSpec::Sim { source, kind, hw, energy } => {
                h.u8(2);
                source.feed(&mut h);
                h.u8(match kind {
                    MapKind::Naive => 0,
                    MapKind::Proposed => 1,
                });
                feed_hw(&mut h, hw);
                feed_energy(&mut h, energy);
            }
            JobSpec::Scenario { source, backend, format, partition, kind, hw, gpu, hbm } => {
                h.u8(3);
                source.feed(&mut h);
                h.u8(match backend {
                    BackendKind::Spacea => 0,
                    BackendKind::Gpu => 1,
                    BackendKind::Cpu => 2,
                    BackendKind::Hbm => 3,
                });
                h.u8(match format {
                    FormatKind::Csr => 0,
                    FormatKind::Coo => 1,
                    FormatKind::Bcsr => 2,
                    FormatKind::Sell => 3,
                });
                h.u8(match partition {
                    Partition::RowSplit => 0,
                    Partition::NnzSplit => 1,
                });
                h.u8(match kind {
                    MapKind::Naive => 0,
                    MapKind::Proposed => 1,
                });
                feed_hw(&mut h, hw);
                feed_gpu_spec(&mut h, gpu);
                feed_hbm(&mut h, hbm);
            }
        }
        JobKey(h.finish())
    }
}

/// A job's 64-bit content hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobKey(pub u64);

impl std::fmt::Display for JobKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// FNV-1a, 64-bit: stable across runs and platforms (unlike `std::hash`,
/// whose default hasher is seeded per-process).
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds a string (length-prefixed so concatenations can't collide).
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    /// Folds one byte.
    pub fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    /// Folds a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a `usize` (as 64 bits, for cross-platform stability).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Folds a `bool`.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Folds an `f64` by exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

// The feed_* functions below enumerate every public field of the hashed
// configuration structs. If a field is added there without being folded in
// here, stale cache entries would be served for configurations that differ
// in the new field. For the machine, `feed_hw` destructures `HwConfig`, so
// a new field does not compile until it is hashed, and
// `every_settable_hw_value_reaches_the_key` changes each settable value.

fn feed_hw(h: &mut Fnv, hw: &HwConfig) {
    let HwConfig { shape, l1_cam, l2_cam, tsv_latency, tsv_bytes_per_cycle, ldq_dedup, faults } =
        hw;
    h.usize(shape.cubes);
    h.usize(shape.vaults_per_cube);
    h.usize(shape.product_bgs_per_vault);
    h.usize(shape.banks_per_bg);
    for cam in [l1_cam, l2_cam] {
        h.usize(cam.sets);
        h.usize(cam.ways);
    }
    h.u64(*tsv_latency);
    h.usize(*tsv_bytes_per_cycle);
    h.bool(*ldq_dedup);
    // An injected fault changes what the run produces, so it is part of the
    // job identity — but only when one is set, so every fault-free key (the
    // entire pre-existing cache population) is preserved.
    if !faults.is_empty() {
        h.str("faults");
        feed_opt_u64(h, faults.drop_noc_packet);
        feed_opt_pair(h, faults.delay_noc);
        feed_opt_pair(h, faults.stall_vault.map(|(v, t)| (v as u64, t)));
        feed_opt_u64(h, faults.flip_accum_update);
        h.bool(faults.panic_on_run);
    }
}

fn feed_opt_u64(h: &mut Fnv, v: Option<u64>) {
    match v {
        None => h.u8(0),
        Some(x) => {
            h.u8(1);
            h.u64(x);
        }
    }
}

fn feed_opt_pair(h: &mut Fnv, v: Option<(u64, u64)>) {
    match v {
        None => h.u8(0),
        Some((a, b)) => {
            h.u8(1);
            h.u64(a);
            h.u64(b);
        }
    }
}

fn feed_gpu_spec(h: &mut Fnv, s: &TitanXpSpec) {
    h.f64(s.dram_bw);
    h.f64(s.peak_flops);
    h.usize(s.l2_bytes);
    h.usize(s.l2_ways);
    h.usize(s.line_bytes);
    h.f64(s.idle_power_w);
    h.f64(s.dram_power_w);
    h.f64(s.alu_power_w);
    h.f64(s.die_mm2);
}

fn feed_hbm(h: &mut Fnv, s: &HbmSpec) {
    h.usize(s.channels);
    h.f64(s.channel_bytes_per_cycle);
    h.f64(s.freq_hz);
    h.usize(s.reorder_window);
    h.u64(s.stall_cycles);
}

fn feed_energy(h: &mut Fnv, e: &EnergyParams) {
    h.f64(e.dram_activate_pj);
    h.f64(e.dram_beat_pj);
    h.f64(e.pe_queue_pj);
    h.f64(e.register_file_pj);
    h.f64(e.l1_cam_search_pj);
    h.f64(e.l1_cam_fill_pj);
    h.f64(e.l2_cam_search_pj);
    h.f64(e.l2_cam_fill_pj);
    h.f64(e.l1_ldq_pj);
    h.f64(e.l2_ldq_pj);
    h.f64(e.fpu_op_pj);
    h.f64(e.tsv_pj_per_byte);
    h.f64(e.noc_pj_per_byte_hop);
    h.f64(e.static_mw_per_bank);
    h.f64(e.static_mw_per_bank_group);
    h.f64(e.static_mw_per_vault);
    h.f64(e.static_mw_per_cube);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_job() -> JobSpec {
        JobSpec::Sim {
            source: MatrixSource::Suite { id: 3, scale: 256 },
            kind: MapKind::Proposed,
            hw: HwConfig::tiny(),
            energy: EnergyParams::default(),
        }
    }

    #[test]
    fn key_is_stable() {
        assert_eq!(sim_job().key(), sim_job().key());
    }

    #[test]
    fn key_depends_on_every_identity_field() {
        let base = sim_job().key();
        let mut j = sim_job();
        if let JobSpec::Sim { source, .. } = &mut j {
            *source = MatrixSource::Suite { id: 4, scale: 256 };
        }
        assert_ne!(j.key(), base, "matrix id must change the key");

        let mut j = sim_job();
        if let JobSpec::Sim { source, .. } = &mut j {
            *source = MatrixSource::Suite { id: 3, scale: 128 };
        }
        assert_ne!(j.key(), base, "scale must change the key");

        let mut j = sim_job();
        if let JobSpec::Sim { kind, .. } = &mut j {
            *kind = MapKind::Naive;
        }
        assert_ne!(j.key(), base, "mapping kind must change the key");

        let mut j = sim_job();
        if let JobSpec::Sim { hw, .. } = &mut j {
            hw.tsv_latency += 1;
        }
        assert_ne!(j.key(), base, "hardware config must change the key");

        let mut j = sim_job();
        if let JobSpec::Sim { energy, .. } = &mut j {
            energy.fpu_op_pj += 1.0;
        }
        assert_ne!(j.key(), base, "energy params must change the key");
    }

    #[test]
    fn every_settable_hw_value_reaches_the_key() {
        let key_of = |hw: &HwConfig| {
            JobSpec::Sim {
                source: MatrixSource::Suite { id: 3, scale: 256 },
                kind: MapKind::Proposed,
                hw: hw.clone(),
                energy: EnergyParams::default(),
            }
            .key()
        };
        let base = HwConfig::tiny();
        type Edit = (&'static str, fn(&mut HwConfig));
        let edits: &[Edit] = &[
            ("cubes", |hw| hw.shape.cubes += 1),
            ("vaults per cube", |hw| hw.shape.vaults_per_cube += 1),
            ("bank groups per vault", |hw| hw.shape.product_bgs_per_vault += 1),
            ("banks per group", |hw| hw.shape.banks_per_bg += 1),
            ("L1 CAM sets", |hw| hw.l1_cam.sets += 1),
            ("L1 CAM ways", |hw| hw.l1_cam.ways += 1),
            ("L2 CAM sets", |hw| hw.l2_cam.sets += 1),
            ("L2 CAM ways", |hw| hw.l2_cam.ways += 1),
            ("TSV latency", |hw| hw.tsv_latency += 1),
            ("TSV width", |hw| hw.tsv_bytes_per_cycle += 1),
            ("LDQ dedup", |hw| hw.ldq_dedup = !hw.ldq_dedup),
            ("drop-noc", |hw| hw.faults.drop_noc_packet = Some(5)),
            ("drop-noc ordinal", |hw| hw.faults.drop_noc_packet = Some(6)),
            ("delay-noc", |hw| hw.faults.delay_noc = Some((0, 50))),
            ("delay-noc ordinal", |hw| hw.faults.delay_noc = Some((1, 50))),
            ("delay-noc cycles", |hw| hw.faults.delay_noc = Some((0, 51))),
            ("stall-vault", |hw| hw.faults.stall_vault = Some((0, 100))),
            ("stall-vault vault", |hw| hw.faults.stall_vault = Some((1, 100))),
            ("stall-vault cycle", |hw| hw.faults.stall_vault = Some((0, 101))),
            ("flip-accum", |hw| hw.faults.flip_accum_update = Some(0)),
            ("flip-accum ordinal", |hw| hw.faults.flip_accum_update = Some(1)),
            ("panic", |hw| hw.faults.panic_on_run = true),
        ];
        let mut seen = std::collections::HashMap::from([(key_of(&base), "the base machine")]);
        for &(what, edit) in edits {
            let mut hw = base.clone();
            edit(&mut hw);
            if let Some(clash) = seen.insert(key_of(&hw), what) {
                panic!("changing the {what} keys the job like {clash}");
            }
        }
    }

    #[test]
    fn sources_validate_untrusted_fields() {
        assert!(MatrixSource::Suite { id: 3, scale: 256 }.validate().is_ok());
        assert!(MatrixSource::Suite { id: 99, scale: 256 }.validate().is_err());
        assert!(MatrixSource::Suite { id: 3, scale: 0 }.validate().is_err());
        let g = MatrixSource::Graph {
            graph: CaseStudyGraph::Wiki,
            scale: 0,
            operand: GraphOperand::PageRank,
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn gpu_and_sim_keys_disjoint() {
        let gpu = JobSpec::Gpu {
            source: MatrixSource::Suite { id: 3, scale: 256 },
            spec: TitanXpSpec::default(),
        };
        assert_ne!(gpu.key(), sim_job().key());
    }

    fn scenario_job() -> JobSpec {
        JobSpec::Scenario {
            source: MatrixSource::Suite { id: 3, scale: 256 },
            backend: BackendKind::Hbm,
            format: FormatKind::Sell,
            partition: Partition::RowSplit,
            kind: MapKind::Proposed,
            hw: HwConfig::tiny(),
            gpu: TitanXpSpec::default(),
            hbm: HbmSpec::default(),
        }
    }

    #[test]
    fn scenario_keys_depend_on_every_axis() {
        let base = scenario_job().key();
        assert_eq!(scenario_job().key(), base, "scenario keys are stable");
        assert_ne!(base, sim_job().key(), "scenario and sim keys are disjoint");

        let mut j = scenario_job();
        if let JobSpec::Scenario { backend, .. } = &mut j {
            *backend = BackendKind::Gpu;
        }
        assert_ne!(j.key(), base, "backend must change the key");

        let mut j = scenario_job();
        if let JobSpec::Scenario { format, .. } = &mut j {
            *format = FormatKind::Bcsr;
        }
        assert_ne!(j.key(), base, "format must change the key");

        let mut j = scenario_job();
        if let JobSpec::Scenario { partition, .. } = &mut j {
            *partition = Partition::NnzSplit;
        }
        assert_ne!(j.key(), base, "partition must change the key");

        let mut j = scenario_job();
        if let JobSpec::Scenario { hbm, .. } = &mut j {
            hbm.reorder_window += 1;
        }
        assert_ne!(j.key(), base, "HBM parameters must change the key");
    }

    #[test]
    fn graph_sources_distinguished() {
        let a = MatrixSource::Graph {
            graph: CaseStudyGraph::Wiki,
            scale: 64,
            operand: GraphOperand::PageRank,
        };
        let b = MatrixSource::Graph {
            graph: CaseStudyGraph::Wiki,
            scale: 64,
            operand: GraphOperand::Transpose,
        };
        let mut ha = Fnv::new();
        a.feed(&mut ha);
        let mut hb = Fnv::new();
        b.feed(&mut hb);
        assert_ne!(ha.finish(), hb.finish());
    }

    #[test]
    fn key_formats_as_hex() {
        let k = JobKey(0xdead_beef);
        assert_eq!(k.to_string(), "00000000deadbeef");
    }
}
