//! Section VII check: SpaceA realized on HBM-like stacks vs the HMC-like
//! default, under an equivalent configuration (same PE count, same aggregate
//! channel bandwidth). The paper claims "similar performance and power";
//! this study quantifies the similarity over the Table I suite.

use super::context::{ExpConfig, ExpOutput, MapKind, SuiteCache};
use crate::table::{fmt, geo_mean, Table};
use spacea_arch::HwConfig;
use spacea_harness::JobSpec;
use spacea_matrix::suite;

/// Each Table I matrix simulated on the configured (HMC-like) machine and
/// on [`HwConfig::hbm_like`].
pub fn jobs(cfg: &ExpConfig) -> Vec<JobSpec> {
    let hbm = HwConfig::hbm_like();
    suite::entries()
        .iter()
        .flat_map(|e| {
            [cfg.sim_job(e.id, MapKind::Proposed), cfg.sim_job_with(e.id, MapKind::Proposed, &hbm)]
        })
        .collect()
}

/// Renders the per-matrix HMC and HBM cycles and their geo-mean ratio.
pub fn run(cache: &mut SuiteCache) -> ExpOutput {
    let hbm = HwConfig::hbm_like();
    let mut table = Table::new(
        "Section VII: HMC-like vs HBM-like realization (equivalent configuration)",
        &["ID", "Matrix", "HMC cycles", "HBM cycles", "HBM/HMC"],
    );
    let mut ratios = Vec::new();
    for e in suite::entries() {
        let r_hmc = cache.sim(e.id, MapKind::Proposed);
        let r_hbm = cache.sim_with(e.id, MapKind::Proposed, &hbm);
        let ratio = r_hbm.cycles as f64 / r_hmc.cycles as f64;
        ratios.push(ratio);
        table.push_row(vec![
            e.id.to_string(),
            e.name.to_string(),
            r_hmc.cycles.to_string(),
            r_hbm.cycles.to_string(),
            fmt(ratio, 3),
        ]);
    }
    table.push_row(vec![
        "-".into(),
        "Geo. Mean".into(),
        "-".into(),
        "-".into(),
        fmt(geo_mean(&ratios), 3),
    ]);
    table.push_note(
        "the paper (Section VII) argues both memory technologies give similar performance; \
         a geo-mean ratio near 1.0 confirms it in this model",
    );
    ExpOutput { id: "hbm_comparison", table, ..Default::default() }
}
