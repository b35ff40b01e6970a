//! The public accelerator API.

use crate::experiments::ExpConfig;
use spacea_arch::{HwConfig, Machine, RunSpec, SimError, SimReport};
use spacea_mapping::{MapKind, Mapping};
use spacea_matrix::Csr;
use spacea_model::energy::StaticConfig;
use spacea_model::{EnergyBreakdown, EnergyParams};

/// Builder for [`Accelerator`].
///
/// # Example
///
/// ```
/// use spacea_core::Accelerator;
/// use spacea_arch::HwConfig;
/// use spacea_mapping::MapKind;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let accel = Accelerator::builder()
///     .hw_config(HwConfig::tiny())
///     .mapping(MapKind::Naive)
///     .build()?;
/// assert_eq!(accel.config().shape.product_pes(), 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct AcceleratorBuilder {
    hw: Option<HwConfig>,
    mapping: Option<MapKind>,
}

impl AcceleratorBuilder {
    /// Sets the hardware configuration (default: [`HwConfig::scaled`]).
    pub fn hw_config(mut self, hw: HwConfig) -> Self {
        self.hw = Some(hw);
        self
    }

    /// Sets the mapping (default: [`MapKind::Proposed`]).
    pub fn mapping(mut self, kind: MapKind) -> Self {
        self.mapping = Some(kind);
        self
    }

    /// Builds the accelerator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] if the hardware configuration is
    /// invalid.
    pub fn build(self) -> Result<Accelerator, SimError> {
        let hw = self.hw.unwrap_or_default();
        hw.validate().map_err(SimError::BadConfig)?;
        Ok(Accelerator {
            machine: Machine::new(hw),
            mapping: self.mapping.unwrap_or(MapKind::Proposed),
        })
    }
}

/// The result of one accelerated SpMV: the simulation report plus the
/// Figure 8 energy breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelRun {
    /// Full simulation report (cycles, traffic, hit rates, validated output).
    pub report: SimReport,
    /// Energy breakdown priced with [`EnergyParams::default`].
    pub energy: EnergyBreakdown,
}

/// A configured SpaceA accelerator: a machine and a mapping. Runs are
/// priced with the paper's energy model, [`EnergyParams::default`].
#[derive(Debug, Clone)]
pub struct Accelerator {
    machine: Machine,
    mapping: MapKind,
}

impl Accelerator {
    /// Starts building an accelerator.
    pub fn builder() -> AcceleratorBuilder {
        AcceleratorBuilder::default()
    }

    /// The machine's hardware configuration.
    pub fn config(&self) -> &HwConfig {
        self.machine.config()
    }

    /// Computes the mapping of `a` onto this machine (the offline
    /// preprocessing step; amortize it by reusing the result across
    /// iterations via [`Accelerator::spmv_mapped`]).
    pub fn map(&self, a: &Csr) -> Mapping {
        self.mapping.strategy().map(a, &self.config().shape)
    }

    /// Maps and runs `y = A·x` in one call.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the simulation.
    pub fn spmv(&self, a: &Csr, x: &[f64]) -> Result<AccelRun, SimError> {
        let mapping = self.map(a);
        self.spmv_mapped(a, x, &mapping)
    }

    /// Runs `y = A·x` with a precomputed mapping (the iterative-workload
    /// path: map once, run many).
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the simulation.
    pub fn spmv_mapped(&self, a: &Csr, x: &[f64], mapping: &Mapping) -> Result<AccelRun, SimError> {
        let report = self.machine.run(RunSpec::spmv(a, x, mapping))?.into_report();
        let energy = EnergyParams::default().breakdown(
            &report.activity,
            report.cycles,
            &self.static_config(),
        );
        Ok(AccelRun { report, energy })
    }

    /// The structure counts the static-power model needs for this machine.
    pub fn static_config(&self) -> StaticConfig {
        ExpConfig::static_config_for(&self.config().shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacea_matrix::gen::{banded, BandedConfig};

    fn small() -> Csr {
        banded(&BandedConfig { n: 128, ..Default::default() })
    }

    #[test]
    fn builder_defaults() {
        let accel = Accelerator::builder().hw_config(HwConfig::tiny()).build().unwrap();
        assert_eq!(accel.config().shape.product_pes(), 16);
    }

    #[test]
    fn spmv_end_to_end() {
        let a = small();
        let x = vec![1.0; a.cols()];
        let accel = Accelerator::builder().hw_config(HwConfig::tiny()).build().unwrap();
        let run = accel.spmv(&a, &x).unwrap();
        assert!(run.energy.total_j() > 0.0);
        // The machine reduces each row in the oracle's order: exact output.
        assert_eq!(run.report.output, a.spmv(&x));
    }

    #[test]
    fn mapped_reuse_matches_one_shot() {
        let a = small();
        let x = vec![2.0; a.cols()];
        let accel = Accelerator::builder().hw_config(HwConfig::tiny()).build().unwrap();
        let mapping = accel.map(&a);
        let r1 = accel.spmv_mapped(&a, &x, &mapping).unwrap();
        let r2 = accel.spmv(&a, &x).unwrap();
        assert_eq!(r1.report.cycles, r2.report.cycles);
    }

    #[test]
    fn naive_choice_used() {
        let a = small();
        let accel = Accelerator::builder()
            .hw_config(HwConfig::tiny())
            .mapping(MapKind::Naive)
            .build()
            .unwrap();
        let m1 = accel.map(&a);
        let m2 = accel.map(&a);
        assert_eq!(m1.assignment, m2.assignment, "the naive mapping is seeded");
        assert_eq!(m1, MapKind::Naive.strategy().map(&a, &HwConfig::tiny().shape));
    }

    #[test]
    fn static_config_counts_vector_layer() {
        let accel = Accelerator::builder().hw_config(HwConfig::tiny()).build().unwrap();
        let sc = accel.static_config();
        // tiny: 4 vaults × (2 product + 1 vector) layers × 2 banks.
        assert_eq!(sc.banks, 24);
        assert_eq!(sc.bank_groups, 12);
        assert_eq!(sc.vaults, 4);
        assert_eq!(sc.cubes, 1);
    }

    #[test]
    fn invalid_config_rejected_at_build() {
        let mut hw = HwConfig::tiny();
        hw.l2_cam.ways = 0;
        assert!(Accelerator::builder().hw_config(hw).build().is_err());
    }
}
