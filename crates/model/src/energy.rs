//! Energy model (paper Section V-A/B and Figure 8).
//!
//! The simulator logs per-component activity; this module prices that
//! activity with CACTI-3DD-magnitude dynamic energies and adds static energy
//! (static power × execution time). The output is the paper's four-part
//! breakdown: DRAM dynamic, PE + L1 + L2 dynamic, interconnect dynamic, and
//! total static (Figure 8).

use spacea_sim::stats::{CamCounters, LdqCounters, SramCounters};

/// Aggregated activity of one simulated SpMV run, filled by the architecture
/// crate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ActivitySummary {
    /// DRAM row activations over all banks.
    pub dram_activates: u64,
    /// DRAM 256-bit beats read over all banks.
    pub dram_read_beats: u64,
    /// DRAM 256-bit beats written over all banks.
    pub dram_write_beats: u64,
    /// Double-precision FPU operations (multiply-accumulate counts as one).
    pub fpu_ops: u64,
    /// PE queue scratchpad accesses (also used as the update buffer in
    /// Accumulation-PEs).
    pub pe_queue: SramCounters,
    /// Register file accesses.
    pub register_file: SramCounters,
    /// Aggregated L1 CAM activity over all bank groups.
    pub l1_cam: CamCounters,
    /// Aggregated L2 CAM activity over all vaults.
    pub l2_cam: CamCounters,
    /// Aggregated L1 load-queue activity.
    pub l1_ldq: LdqCounters,
    /// Aggregated L2 load-queue activity.
    pub l2_ldq: LdqCounters,
    /// Bytes moved over TSVs (intra-vault, uniform latency).
    pub tsv_bytes: u64,
    /// NoC traffic in bytes × hops (intra- and inter-cube meshes).
    pub noc_byte_hops: u64,
}

/// Hardware structure counts needed for static power.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticConfig {
    /// Total memory banks (DRAM static).
    pub banks: usize,
    /// Total bank groups (PE + L1 CAM + LDQ static).
    pub bank_groups: usize,
    /// Total vaults (L2 CAM + LDQ + router static).
    pub vaults: usize,
    /// Total cubes (SerDes and base-die overhead static).
    pub cubes: usize,
}

/// Per-event dynamic energies (pJ) and per-structure static powers (mW).
///
/// Defaults are CACTI-3DD-magnitude values for 22 nm logic under DRAM-process
/// derating, chosen so the Figure 8 breakdown reproduces the paper's shape
/// (DRAM dynamic and static dominate; added PE/CAM logic is negligible).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Energy per DRAM row activation.
    pub dram_activate_pj: f64,
    /// Energy per 256-bit DRAM beat (read or write).
    pub dram_beat_pj: f64,
    /// Energy per PE-queue scratchpad access.
    pub pe_queue_pj: f64,
    /// Energy per register-file access.
    pub register_file_pj: f64,
    /// Energy per L1 CAM search.
    pub l1_cam_search_pj: f64,
    /// Energy per L1 CAM fill.
    pub l1_cam_fill_pj: f64,
    /// Energy per L2 CAM search.
    pub l2_cam_search_pj: f64,
    /// Energy per L2 CAM fill.
    pub l2_cam_fill_pj: f64,
    /// Energy per L1 LDQ associative operation.
    pub l1_ldq_pj: f64,
    /// Energy per L2 LDQ associative operation.
    pub l2_ldq_pj: f64,
    /// Energy per double-precision fused multiply-add \[23\].
    pub fpu_op_pj: f64,
    /// TSV transfer energy per byte.
    pub tsv_pj_per_byte: f64,
    /// NoC energy per byte per hop (router + link).
    pub noc_pj_per_byte_hop: f64,
    /// Static power per memory bank (DRAM periphery + refresh), mW.
    pub static_mw_per_bank: f64,
    /// Static power of the added bank-group logic (PEs, L1 CAM, LDQ), mW.
    pub static_mw_per_bank_group: f64,
    /// Static power per vault controller (L2 CAM, LDQ, router), mW.
    pub static_mw_per_vault: f64,
    /// Static power per cube for SerDes links and base-die periphery, mW.
    pub static_mw_per_cube: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams {
            dram_activate_pj: 900.0,
            dram_beat_pj: 100.0,
            pe_queue_pj: 2.0,
            register_file_pj: 0.8,
            l1_cam_search_pj: 3.0,
            l1_cam_fill_pj: 2.0,
            l2_cam_search_pj: 12.0,
            l2_cam_fill_pj: 8.0,
            l1_ldq_pj: 3.0,
            l2_ldq_pj: 8.0,
            fpu_op_pj: 15.0,
            tsv_pj_per_byte: 0.8,
            noc_pj_per_byte_hop: 2.0,
            static_mw_per_bank: 5.0,
            static_mw_per_bank_group: 10.0,
            static_mw_per_vault: 34.0,
            static_mw_per_cube: 5000.0,
        }
    }
}

/// The Figure 8 energy breakdown, in joules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// DRAM dynamic energy.
    pub dram_dynamic_j: f64,
    /// Dynamic energy of the PEs, L1 CAM/LDQ and L2 CAM/LDQ.
    pub pe_cam_dynamic_j: f64,
    /// Dynamic energy of the interconnect (TSV and NoC).
    pub interconnect_dynamic_j: f64,
    /// Static energy of the whole chip.
    pub static_j: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.dram_dynamic_j + self.pe_cam_dynamic_j + self.interconnect_dynamic_j + self.static_j
    }
}

impl EnergyParams {
    /// Prices the activity of a run that took `cycles` (1 GHz clock) into
    /// the four-part breakdown.
    pub fn breakdown(
        &self,
        act: &ActivitySummary,
        cycles: u64,
        cfg: &StaticConfig,
    ) -> EnergyBreakdown {
        const PJ: f64 = 1e-12;
        let dram = (act.dram_activates as f64 * self.dram_activate_pj
            + (act.dram_read_beats + act.dram_write_beats) as f64 * self.dram_beat_pj)
            * PJ;

        let pe_cam = (act.pe_queue.total() as f64 * self.pe_queue_pj
            + act.register_file.total() as f64 * self.register_file_pj
            + act.l1_cam.searches() as f64 * self.l1_cam_search_pj
            + act.l1_cam.fills as f64 * self.l1_cam_fill_pj
            + act.l2_cam.searches() as f64 * self.l2_cam_search_pj
            + act.l2_cam.fills as f64 * self.l2_cam_fill_pj
            + act.l1_ldq.searches() as f64 * self.l1_ldq_pj
            + act.l2_ldq.searches() as f64 * self.l2_ldq_pj
            + act.fpu_ops as f64 * self.fpu_op_pj)
            * PJ;

        let interconnect = (act.tsv_bytes as f64 * self.tsv_pj_per_byte
            + act.noc_byte_hops as f64 * self.noc_pj_per_byte_hop)
            * PJ;

        let static_w = self.static_power_w(cfg);
        let seconds = cycles as f64 * 1e-9; // 1 GHz clock
        EnergyBreakdown {
            dram_dynamic_j: dram,
            pe_cam_dynamic_j: pe_cam,
            interconnect_dynamic_j: interconnect,
            static_j: static_w * seconds,
        }
    }

    /// Whole-chip static power in watts for a machine configuration.
    pub fn static_power_w(&self, cfg: &StaticConfig) -> f64 {
        (cfg.banks as f64 * self.static_mw_per_bank
            + cfg.bank_groups as f64 * self.static_mw_per_bank_group
            + cfg.vaults as f64 * self.static_mw_per_vault
            + cfg.cubes as f64 * self.static_mw_per_cube)
            * 1e-3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_cube() -> StaticConfig {
        StaticConfig { banks: 256, bank_groups: 128, vaults: 16, cubes: 1 }
    }

    #[test]
    fn zero_activity_has_only_static() {
        let act = ActivitySummary::default();
        let b = EnergyParams::default().breakdown(&act, 1_000_000, &one_cube());
        assert_eq!(b.dram_dynamic_j, 0.0);
        assert_eq!(b.pe_cam_dynamic_j, 0.0);
        assert_eq!(b.interconnect_dynamic_j, 0.0);
        assert!(b.static_j > 0.0);
        assert_eq!(b.total_j(), b.static_j);
    }

    #[test]
    fn static_scales_with_time() {
        let p = EnergyParams::default();
        let act = ActivitySummary::default();
        let b1 = p.breakdown(&act, 1000, &one_cube());
        let b2 = p.breakdown(&act, 2000, &one_cube());
        assert!((b2.static_j / b1.static_j - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dram_energy_counts_activates_and_beats() {
        let p = EnergyParams::default();
        let act = ActivitySummary {
            dram_activates: 10,
            dram_read_beats: 100,
            dram_write_beats: 50,
            ..Default::default()
        };
        let b = p.breakdown(&act, 0, &one_cube());
        let expected = (10.0 * p.dram_activate_pj + 150.0 * p.dram_beat_pj) * 1e-12;
        assert!((b.dram_dynamic_j - expected).abs() < 1e-20);
    }

    #[test]
    fn interconnect_energy_uses_byte_hops() {
        let p = EnergyParams::default();
        let act = ActivitySummary { tsv_bytes: 1000, noc_byte_hops: 500, ..Default::default() };
        let b = p.breakdown(&act, 0, &one_cube());
        let expected = (1000.0 * p.tsv_pj_per_byte + 500.0 * p.noc_pj_per_byte_hop) * 1e-12;
        assert!((b.interconnect_dynamic_j - expected).abs() < 1e-20);
    }

    #[test]
    fn static_power_magnitude_is_plausible() {
        // A 16-cube machine idles around 100-150 W (HMC cubes draw ~10 W
        // each, dominated by SerDes), consistent with the paper's
        // static-dominated Figure 8 and its implied SpaceA average power of
        // roughly 1.7x the GPU's (Section V-B arithmetic).
        let cfg = StaticConfig { banks: 4096, bank_groups: 2048, vaults: 256, cubes: 16 };
        let w = EnergyParams::default().static_power_w(&cfg);
        assert!(w > 50.0 && w < 250.0, "static power {w} W implausible");
    }

    #[test]
    fn total_is_sum_of_parts() {
        let p = EnergyParams::default();
        let act = ActivitySummary {
            dram_activates: 7,
            dram_read_beats: 9,
            fpu_ops: 11,
            tsv_bytes: 13,
            ..Default::default()
        };
        let b = p.breakdown(&act, 5000, &one_cube());
        let sum = b.dram_dynamic_j + b.pe_cam_dynamic_j + b.interconnect_dynamic_j + b.static_j;
        assert!((b.total_j() - sum).abs() < 1e-20);
    }
}
