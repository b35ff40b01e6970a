//! Area and power-density model (paper Table II and Section V-B).
//!
//! All logic is assumed fabricated in a 22 nm process and doubled in area for
//! the DRAM process (fewer metal layers), exactly as the paper does:
//! "we multiply all area results from CACTI-3DD and existing FPU design by 2x".

/// Area (mm²) and power density (mW/mm²) of one component instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentArea {
    /// Human-readable name matching Table II.
    pub name: &'static str,
    /// Instances per bank group (Table II's "(x2)" entries).
    pub count: usize,
    /// Area per instance in mm² (already includes the 2× DRAM-process
    /// factor).
    pub area_mm2: f64,
    /// Power density in mW/mm².
    pub power_density_mw_mm2: f64,
}

/// The bank-group-level overhead table (paper Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct BankGroupArea {
    /// Per-component rows.
    pub components: Vec<ComponentArea>,
}

impl BankGroupArea {
    /// Total added area per bank group in mm² (Table II: 0.1458 mm²).
    pub fn total_mm2(&self) -> f64 {
        spacea_matrix::reduce::sum_f64(self.components.iter().map(|c| c.area_mm2 * c.count as f64))
    }

    /// Peak power density across components (Table II: 66.56 mW/mm²).
    /// Densities are non-negative, so the `NEG_INFINITY`-seeded canonical
    /// max matches the old `0.0`-seeded fold on every real table.
    pub fn peak_power_density(&self) -> f64 {
        spacea_matrix::reduce::max_f64(self.components.iter().map(|c| c.power_density_mw_mm2))
            .max(0.0)
    }
}

/// The analytic area model with the paper's published constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AreaModel;

impl AreaModel {
    /// Bank-group area in mm² (derived from Table II: the 0.1458 mm² overhead
    /// is 4.86% of a bank group).
    pub const BANK_GROUP_MM2: f64 = 3.0;
    /// Area of the two memory banks in a bank group (overhead is 5.96% of the
    /// banks).
    pub const BANKS_MM2: f64 = 2.446;
    /// Vault area in mm² (48 mm² cube footprint / 16 vaults).
    pub const VAULT_MM2: f64 = 3.0;
    /// Default L2 CAM area (256 KB, Section V-B): 0.1898 mm².
    pub const L2_CAM_DEFAULT_MM2: f64 = 0.1898;
    /// Default L2 load queue area (8192 entries): 0.0760 mm².
    pub const L2_LDQ_DEFAULT_MM2: f64 = 0.0760;
    /// Commodity-server active cooling power density limit, mW/mm² \[46\].
    pub const COOLING_LIMIT_COMMODITY: f64 = 706.0;
    /// Stacked DRAM layers contributing to the footprint power density.
    pub const LAYERS: usize = 8;

    /// The Table II component table.
    pub fn bank_group(&self) -> BankGroupArea {
        BankGroupArea {
            components: vec![
                ComponentArea {
                    name: "PE Queue",
                    count: 2,
                    area_mm2: 0.0048 / 2.0,
                    power_density_mw_mm2: 43.75,
                },
                ComponentArea {
                    name: "Register File",
                    count: 2,
                    area_mm2: 0.0058 / 2.0,
                    power_density_mw_mm2: 49.66,
                },
                ComponentArea {
                    name: "PE Logic",
                    count: 2,
                    area_mm2: 0.0994 / 2.0,
                    power_density_mw_mm2: 28.21,
                },
                ComponentArea {
                    name: "L1 CAM (4 KB)",
                    count: 1,
                    area_mm2: 0.0286,
                    power_density_mw_mm2: 66.56,
                },
                ComponentArea {
                    name: "L1 Load Queue",
                    count: 1,
                    area_mm2: 0.0072,
                    power_density_mw_mm2: 56.29,
                },
            ],
        }
    }

    /// Bank-group overhead as a fraction of the bank-group area
    /// (paper: 4.86%).
    pub fn bank_group_overhead_fraction(&self) -> f64 {
        self.bank_group().total_mm2() / Self::BANK_GROUP_MM2
    }

    /// Bank-group overhead as a fraction of the two banks' area
    /// (paper: 5.96%).
    pub fn bank_overhead_fraction(&self) -> f64 {
        self.bank_group().total_mm2() / Self::BANKS_MM2
    }

    /// Area of an L2 CAM with the given geometry.
    ///
    /// Linear capacity model anchored on the two published points: 4 KB →
    /// 0.0286 mm² (the L1 CAM uses the same circuit) and 256 KB → 0.1898 mm².
    pub fn cam_area_mm2(&self, sets: usize, ways: usize, way_bytes: usize) -> f64 {
        let kb = (sets * ways * way_bytes) as f64 / 1024.0;
        // fixed search/control logic + per-KB storage
        let per_kb = (Self::L2_CAM_DEFAULT_MM2 - 0.0286) / (256.0 - 4.0);
        let fixed = 0.0286 - 4.0 * per_kb;
        fixed + per_kb * kb
    }

    /// Area of a fully-associative load queue with `entries` entries,
    /// proportional to the published 8192-entry point.
    pub fn ldq_area_mm2(&self, entries: usize) -> f64 {
        Self::L2_LDQ_DEFAULT_MM2 * entries as f64 / 8192.0
    }

    /// Base-die area consumed by a vault's L2 CAM + L2 LDQ, in mm².
    pub fn vault_base_die_mm2(&self, cam_sets: usize, cam_ways: usize, ldq_entries: usize) -> f64 {
        self.cam_area_mm2(cam_sets, cam_ways, 32) + self.ldq_area_mm2(ldq_entries)
    }

    /// Peak footprint power density in mW/mm²: the per-layer peak stacked
    /// over all DRAM layers (paper: 66.56 × 8 = 532.48 mW/mm²).
    pub fn peak_footprint_power_density(&self) -> f64 {
        self.bank_group().peak_power_density() * Self::LAYERS as f64
    }

    /// Thermal feasibility against the commodity cooling limit (paper
    /// Section V-B: 532.48 < 706 mW/mm²).
    pub fn thermally_feasible(&self) -> bool {
        self.peak_footprint_power_density() < Self::COOLING_LIMIT_COMMODITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_total_matches_paper() {
        let bg = AreaModel.bank_group();
        assert!((bg.total_mm2() - 0.1458).abs() < 1e-9, "total {}", bg.total_mm2());
    }

    #[test]
    fn table2_peak_density_matches_paper() {
        assert!((AreaModel.bank_group().peak_power_density() - 66.56).abs() < 1e-9);
    }

    #[test]
    fn overhead_fractions_match_paper() {
        let m = AreaModel;
        assert!((m.bank_group_overhead_fraction() - 0.0486).abs() < 0.001);
        assert!((m.bank_overhead_fraction() - 0.0596).abs() < 0.001);
    }

    #[test]
    fn l2_defaults_match_published_areas() {
        let m = AreaModel;
        assert!((m.cam_area_mm2(2048, 4, 32) - AreaModel::L2_CAM_DEFAULT_MM2).abs() < 1e-9);
        assert!((m.cam_area_mm2(32, 4, 32) - 0.0286).abs() < 1e-9);
        assert!((m.ldq_area_mm2(8192) - AreaModel::L2_LDQ_DEFAULT_MM2).abs() < 1e-12);
    }

    #[test]
    fn vault_base_die_total_matches_paper() {
        // 0.1898 + 0.0760 = 0.2658 mm², 8.86% of a 3 mm² vault.
        let total = AreaModel.vault_base_die_mm2(2048, 4, 8192);
        assert!((total - 0.2658).abs() < 1e-9);
        assert!((total / AreaModel::VAULT_MM2 - 0.0886).abs() < 0.001);
    }

    #[test]
    fn cam_area_grows_with_size() {
        let m = AreaModel;
        assert!(m.cam_area_mm2(4096, 4, 32) > m.cam_area_mm2(2048, 4, 32));
        assert!(m.cam_area_mm2(2048, 8, 32) > m.cam_area_mm2(2048, 4, 32));
    }

    #[test]
    fn thermal_check_matches_paper() {
        let m = AreaModel;
        assert!((m.peak_footprint_power_density() - 532.48).abs() < 0.01);
        assert!(m.thermally_feasible());
    }
}
