//! Hardware configuration (paper Section V-A, "Hardware Configuration").
//!
//! [`HwConfig`] holds what an experiment varies: the machine shape (the
//! Figure 10 cube count and the presets), the CAM geometries (Figure 7), the
//! TSV latency and width (Figure 9 and the HBM preset), load-queue
//! deduplication (the ablation) and the fault plan. Every other component
//! parameter is fixed, and defined here once as a constant with its paper
//! source (or, for the stall window, its reason).

use spacea_mapping::MachineShape;
use spacea_sim::cam::{CamConfig, MAX_WAYS};
use spacea_sim::dram::DramTiming;
use spacea_sim::fault::FaultPlan;
use spacea_sim::Cycle;

/// DRAM bank timing of the HMC-like stack (Sections II-C and V-A, and the
/// HMC characterization study the paper cites): tRAS 27, tCCD 4 ("as small
/// as 4 cycles") and tRP 13 cycles, 256-bit beats, and a 2 Kb (256-byte)
/// row buffer.
pub const DRAM_TIMING: DramTiming =
    DramTiming { t_ras: 27, t_ccd: 4, t_rp: 13, beat_bytes: 32, row_bytes: 256 };

/// Non-zeros that fit in one matrix DRAM row: a 4-byte row-index header,
/// then (4-byte column index, 8-byte value) pairs (Section III-B), so 21 in
/// a 256-byte row.
pub const NNZ_PER_DRAM_ROW: usize = (DRAM_TIMING.row_bytes - 4) / 12;

/// Bytes in one input-vector block (Section V-A): a CAM way holds one block
/// of four `f64` elements, the vectors are distributed in blocks, and an X
/// response carries one block per vector.
pub const BLOCK_BYTES: usize = 32;

/// L1 load-queue entries per bank group (Section V-A).
pub const L1_LDQ_ENTRIES: usize = 512;

/// L2 load-queue entries per vault controller (Section V-A).
pub const L2_LDQ_ENTRIES: usize = 8192;

/// PE queue capacity in DRAM rows: the 16 Kb scratchpad (Section V-A) holds
/// eight 2 Kb rows.
pub const PE_QUEUE_ROWS: usize = 8;

/// Update-buffer capacity in DRAM rows: an Accumulation-PE reuses the PE
/// queue SRAM as its update buffer (Section III-B).
pub const UPDATE_BUFFER_ROWS: usize = PE_QUEUE_ROWS;

/// Per-hop latency of the base-die vault mesh (the 2D-mesh NoC of Section
/// III-C), cycles.
pub const NOC_HOP_LATENCY: Cycle = 3;

/// Link width of the base-die vault mesh (Section III-C), bytes per cycle.
pub const NOC_BYTES_PER_CYCLE: usize = 16;

/// Per-hop latency of the inter-cube SerDes mesh (Section III-A's memory
/// network), cycles.
pub const SERDES_HOP_LATENCY: Cycle = 12;

/// Link width of the inter-cube SerDes mesh (Section III-A), bytes per
/// cycle: an HMC link carries about 120 GB/s.
pub const SERDES_BYTES_PER_CYCLE: usize = 128;

/// Cycles per non-zero scan step of a Product-PE's control unit, the
/// paper's `L_p` (Section III-B).
pub const L_P: Cycle = 1;

/// L1 CAM search latency, cycles: a CACTI-3DD-magnitude figure for the
/// 4 KB CAM (the paper sizes its CAMs with CACTI-3DD, Section V-A).
pub const L1_CAM_LATENCY: Cycle = 2;

/// L2 CAM search latency, cycles: a CACTI-3DD-magnitude figure for the
/// 256 KB CAM (Section V-A).
pub const L2_CAM_LATENCY: Cycle = 4;

/// Latency of one double-precision multiply-accumulate (the FPU of \[23\],
/// Section V-A), cycles.
pub const FPU_LATENCY: Cycle = 4;

/// The run loop's stall window, cycles: a run with work outstanding that
/// retires nothing (no matrix entry consumed, no Y element written back)
/// for this long is a livelock. Healthy runs retire continuously, so the
/// window never fires on them; the occupancy history behind a livelock's
/// diagnosis samples every `STALL_WINDOW / 16` cycles.
pub const STALL_WINDOW: Cycle = 1_000_000;

/// The varied part of a SpaceA machine's configuration.
///
/// Defaults follow the paper's HMC-like configuration; [`HwConfig::scaled`]
/// shrinks the cube count (not the per-cube structure) so that cycle-level
/// simulation of the scaled Table I suite stays laptop-feasible, and
/// [`HwConfig::tiny`] is a miniature for unit tests. The fixed component
/// parameters are the constants of this module.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HwConfig {
    /// Cube/vault/layer/bank structure (shared with the mapping crate).
    pub shape: MachineShape,
    /// L1 CAM geometry (per bank group).
    pub l1_cam: CamConfig,
    /// L2 CAM geometry (per vault controller).
    pub l2_cam: CamConfig,
    /// TSV transfer latency in cycles (default 2; swept 1–16 in Figure 9).
    pub tsv_latency: Cycle,
    /// TSV bandwidth per vault slice, bytes/cycle (1024 TSVs @ 2 Gbps over
    /// 16 vaults = 16 B/cycle).
    pub tsv_bytes_per_cycle: usize,
    /// Whether the load queues deduplicate outstanding requests (the
    /// Section III-B design; disable only for the ablation study).
    pub ldq_dedup: bool,
    /// Deterministic fault-injection plan (empty by default; used to prove
    /// the robustness layer fails loudly).
    pub faults: FaultPlan,
}

impl HwConfig {
    /// The paper's default 16-cube machine.
    pub fn paper() -> Self {
        Self::with_shape(MachineShape::paper())
    }

    /// A 2-cube machine with the paper's per-cube structure (see DESIGN.md
    /// §4 on scaling).
    pub fn scaled() -> Self {
        Self::with_shape(MachineShape::scaled())
    }

    /// A miniature machine for unit tests: 1 cube × 4 vaults × 2 matrix
    /// layers × 2 banks.
    pub fn tiny() -> Self {
        Self::with_shape(MachineShape::tiny())
    }

    /// An HBM-like realization (paper Section VII, "HMC vs. HBM").
    ///
    /// HBM groups banks horizontally into channels instead of vertically
    /// into vaults, but both give low-latency TSVs among the banks sharing a
    /// channel. Under an equivalent configuration — same bank count, same
    /// per-bank interface, same per-channel TSV bandwidth — the paper argues
    /// SpaceA behaves the same; this preset encodes that equivalence on the
    /// 2-stack scale (4 stacks × 8 channels × 7 bank pairs = 448 PEs, the
    /// same as [`HwConfig::scaled`]) with HBM's pseudo-channel timing: a
    /// slightly longer TSV transfer and a wider per-channel interface.
    pub fn hbm_like() -> Self {
        let mut cfg = Self::with_shape(MachineShape {
            cubes: 4,           // stacks
            vaults_per_cube: 8, // channels per stack
            product_bgs_per_vault: 7,
            banks_per_bg: 2,
        });
        cfg.tsv_latency = 3; // longer channel wiring
        cfg.tsv_bytes_per_cycle = 32; // 256 GB/s per stack over 8 channels
        cfg
    }

    /// Every named configuration variant, in the order [`HwConfig::by_name`]
    /// accepts them. Sweep grids use these names as their hardware axis.
    pub fn variant_names() -> &'static [&'static str] {
        &["scaled", "paper", "tiny", "hbm"]
    }

    /// Looks up a named configuration variant (`"scaled"`, `"paper"`,
    /// `"tiny"`, `"hbm"`), the machine axis of a sweep grid.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "scaled" => Some(Self::scaled()),
            "paper" => Some(Self::paper()),
            "tiny" => Some(Self::tiny()),
            "hbm" => Some(Self::hbm_like()),
            _ => None,
        }
    }

    /// Axis constructor: this configuration with a different cube count
    /// (per-cube structure unchanged) — the Figure 10 scalability axis.
    pub fn with_cubes(mut self, cubes: usize) -> Self {
        self.shape.cubes = cubes.max(1);
        self
    }

    /// Axis constructor: this configuration with a different L1 CAM set
    /// count (the Figure 7(a) capacity axis).
    pub fn with_l1_cam_sets(mut self, sets: usize) -> Self {
        self.l1_cam.sets = sets.max(1);
        self
    }

    /// Axis constructor: this configuration with a different L2 CAM set
    /// count (the Figure 7(c) capacity axis).
    pub fn with_l2_cam_sets(mut self, sets: usize) -> Self {
        self.l2_cam.sets = sets.max(1);
        self
    }

    /// The paper's component parameters on an arbitrary machine shape.
    pub fn with_shape(shape: MachineShape) -> Self {
        HwConfig {
            shape,
            l1_cam: CamConfig::l1_default(),
            l2_cam: CamConfig::l2_default(),
            tsv_latency: 2,
            tsv_bytes_per_cycle: 16,
            ldq_dedup: true,
            faults: FaultPlan::default(),
        }
    }

    /// Total vector banks (one Accumulation-PE each): the bottom DRAM layer.
    pub fn vector_banks(&self) -> usize {
        self.shape.cubes * self.shape.vaults_per_cube * self.shape.banks_per_bg
    }

    /// Mesh dimensions for `n` nodes: the most-square factorization.
    pub fn mesh_dims(n: usize) -> (usize, usize) {
        assert!(n > 0, "mesh needs at least one node");
        let mut best = (1, n);
        let mut w = 1;
        while w * w <= n {
            if n.is_multiple_of(w) {
                best = (n / w, w);
            }
            w += 1;
        }
        best
    }

    /// Basic sanity checks on the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.shape.product_pes() == 0 {
            return Err("machine has no product PEs".into());
        }
        if self.tsv_bytes_per_cycle == 0 {
            return Err("TSV links need a positive bandwidth, got 0 bytes/cycle".into());
        }
        for (level, cam) in [("L1", &self.l1_cam), ("L2", &self.l2_cam)] {
            if cam.sets == 0 || !(1..=MAX_WAYS).contains(&cam.ways) {
                return Err(format!(
                    "{level} CAM needs at least one set and 1 to {MAX_WAYS} ways, got {} x {}",
                    cam.sets, cam.ways
                ));
            }
        }
        if let Some((vault, _)) = self.faults.stall_vault {
            if vault >= self.shape.vaults() {
                return Err(format!(
                    "fault plan stalls vault {vault}, but the machine has only {} vaults",
                    self.shape.vaults()
                ));
            }
        }
        Ok(())
    }
}

impl Default for HwConfig {
    /// Defaults to the laptop-feasible [`HwConfig::scaled`] machine.
    fn default() -> Self {
        Self::scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_v() {
        let c = HwConfig::paper();
        assert_eq!(c.shape.product_pes(), 3584);
        assert_eq!(c.l1_cam.sets * c.l1_cam.ways * BLOCK_BYTES, 4096);
        assert_eq!(c.l2_cam.sets * c.l2_cam.ways * BLOCK_BYTES, 256 * 1024);
        // A 16 Kb PE queue holds eight 2 Kb DRAM rows.
        assert_eq!(PE_QUEUE_ROWS * DRAM_TIMING.row_bytes * 8, 16 * 1024);
        assert_eq!(c.tsv_latency, 2);
    }

    #[test]
    fn nnz_packing_matches_row_size() {
        // (256 - 4) / 12 = 21 non-zeros per DRAM row.
        assert_eq!(NNZ_PER_DRAM_ROW, 21);
    }

    #[test]
    fn vector_bank_count() {
        let c = HwConfig::tiny();
        // 1 cube × 4 vaults × 2 banks on the vector layer.
        assert_eq!(c.vector_banks(), 8);
    }

    #[test]
    fn mesh_dims_square_factorizations() {
        assert_eq!(HwConfig::mesh_dims(16), (4, 4));
        assert_eq!(HwConfig::mesh_dims(32), (8, 4));
        assert_eq!(HwConfig::mesh_dims(64), (8, 8));
        assert_eq!(HwConfig::mesh_dims(1), (1, 1));
        assert_eq!(HwConfig::mesh_dims(7), (7, 1));
    }

    #[test]
    fn hbm_like_matches_scaled_pe_count() {
        let hbm = HwConfig::hbm_like();
        assert_eq!(hbm.shape.product_pes(), HwConfig::scaled().shape.product_pes());
        // Same aggregate channel bandwidth per stack: 8 ch x 32 B/cy = 16
        // vaults x 16 B/cy.
        assert_eq!(
            hbm.shape.vaults_per_cube * hbm.tsv_bytes_per_cycle,
            16 * HwConfig::scaled().tsv_bytes_per_cycle
        );
    }

    #[test]
    fn named_variants_resolve() {
        for name in HwConfig::variant_names() {
            assert!(HwConfig::by_name(name).is_some(), "variant {name} must resolve");
        }
        assert_eq!(HwConfig::by_name("scaled"), Some(HwConfig::scaled()));
        assert_eq!(HwConfig::by_name("hbm"), Some(HwConfig::hbm_like()));
        assert!(HwConfig::by_name("warp-drive").is_none());
    }

    #[test]
    fn axis_constructors_change_one_knob() {
        let base = HwConfig::tiny();
        let c = base.clone().with_cubes(3);
        assert_eq!(c.shape.cubes, 3);
        assert_eq!(c.shape.vaults_per_cube, base.shape.vaults_per_cube);
        let c = base.clone().with_l1_cam_sets(64).with_l2_cam_sets(128);
        assert_eq!((c.l1_cam.sets, c.l2_cam.sets), (64, 128));
        assert_eq!(c.l1_cam.ways, base.l1_cam.ways);
        // Degenerate values clamp instead of producing an unusable machine.
        assert_eq!(base.clone().with_cubes(0).shape.cubes, 1);
        assert_eq!(base.with_l1_cam_sets(0).l1_cam.sets, 1);
    }

    #[test]
    fn validate_catches_bad_configs() {
        let mut c = HwConfig::tiny();
        assert!(c.validate().is_ok());
        c.faults.stall_vault = Some((99, 0));
        assert!(c.validate().is_err(), "stalling a non-existent vault must be rejected");
        c.faults.stall_vault = Some((0, 0));
        assert!(c.validate().is_ok());

        // A zero TSV width the machine would otherwise panic on while
        // building its links.
        let mut c = HwConfig::tiny();
        c.tsv_bytes_per_cycle = 0;
        let Err(err) = c.validate() else { panic!("a zero TSV width passed validation") };
        assert!(err.contains("TSV"), "{err}");

        // A run refuses such a config in preflight instead of panicking.
        let a = spacea_matrix::Csr::from_dense(&[vec![2.0]]);
        let mapping = spacea_mapping::MapKind::Naive.strategy().map(&a, &c.shape);
        let run = crate::Machine::new(c).run(crate::RunSpec::spmv(&a, &[1.0], &mapping));
        assert!(matches!(run, Err(crate::SimError::BadConfig(_))), "{run:?}");
    }

    #[test]
    fn validate_rejects_cam_geometries_the_cam_cannot_build() {
        for level in ["L1", "L2"] {
            for (sets, ways) in [(0, 4), (32, 0), (32, MAX_WAYS + 1)] {
                let mut c = HwConfig::tiny();
                let cam = if level == "L1" { &mut c.l1_cam } else { &mut c.l2_cam };
                (cam.sets, cam.ways) = (sets, ways);
                let Err(err) = c.validate() else {
                    panic!("{level} CAM {sets} x {ways} passed validation");
                };
                assert!(err.contains(&format!("{level} CAM")), "{err}");
            }
        }
        let mut widest = HwConfig::tiny();
        widest.l1_cam.ways = MAX_WAYS;
        widest.l2_cam.ways = MAX_WAYS;
        assert!(widest.validate().is_ok());

        // A run refuses such a config in preflight instead of panicking
        // while it builds the CAMs.
        let mut c = HwConfig::tiny();
        c.l2_cam.ways = 0;
        let a = spacea_matrix::Csr::from_dense(&[vec![2.0]]);
        let mapping = spacea_mapping::MapKind::Naive.strategy().map(&a, &c.shape);
        let run = crate::Machine::new(c).run(crate::RunSpec::spmv(&a, &[1.0], &mapping));
        assert!(matches!(run, Err(crate::SimError::BadConfig(_))));
    }
}
