//! Figure 2: profiling SpMV on the GPU baseline — DRAM read throughput,
//! effective read throughput, and ALU utilization per matrix.

use super::context::{ExpConfig, ExpOutput, SuiteCache};
use crate::table::{fmt, geo_mean, pct, Table};
use spacea_harness::JobSpec;
use spacea_matrix::suite;
use spacea_model::reference::paper_headline;

/// The GPU-baseline jobs this figure consumes (one per Table I matrix).
pub fn jobs(cfg: &ExpConfig) -> Vec<JobSpec> {
    suite::entries().iter().map(|e| cfg.gpu_job(e.id)).collect()
}

/// Regenerates the Figure 2 series.
pub fn run(cache: &mut SuiteCache) -> ExpOutput {
    let mut table = Table::new(
        "Figure 2: SpMV on GPU (Titan Xp model)",
        &["ID", "Matrix", "DRAM read GB/s", "Effective GB/s", "BW util", "ALU util"],
    );
    let mut bw_utils = Vec::new();
    let mut bw_utils_structural = Vec::new();
    let mut alu_utils = Vec::new();
    for entry in suite::entries() {
        let r = cache.gpu(entry.id);
        // Report throughputs normalized back to the full-GPU scale so the
        // bars are comparable with the paper's absolute GB/s axis.
        let unscale = 1.0 / cache.cfg.baseline_fraction();
        table.push_row(vec![
            entry.id.to_string(),
            entry.name.to_string(),
            fmt(r.dram_read_throughput * unscale / 1e9, 1),
            fmt(r.effective_read_throughput * unscale / 1e9, 1),
            pct(r.bw_utilization),
            pct(r.alu_utilization),
        ]);
        bw_utils.push(r.bw_utilization);
        if !entry.is_power_law() {
            bw_utils_structural.push(r.bw_utilization);
        }
        alu_utils.push(r.alu_utilization);
    }
    let mean_bw = bw_utils.iter().sum::<f64>() / bw_utils.len() as f64;
    let mean_bw_structural =
        bw_utils_structural.iter().sum::<f64>() / bw_utils_structural.len() as f64;
    let mean_alu = geo_mean(&alu_utils);
    table.push_note(format!(
        "mean BW utilization {} (paper: 27.08%); excluding matrices 12-14: {} (paper: 43.39%)",
        pct(mean_bw),
        pct(mean_bw_structural)
    ));
    table.push_note(format!("geo-mean ALU utilization {} (paper: 2.68%)", pct(mean_alu)));

    ExpOutput {
        id: "fig2",
        table,
        extra_tables: vec![],
        headline: vec![
            ("mean GPU BW utilization".into(), paper_headline::GPU_BW_UTILIZATION, mean_bw),
            ("geo-mean GPU ALU utilization".into(), paper_headline::GPU_ALU_UTILIZATION, mean_alu),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::context::ExpConfig;

    #[test]
    fn utilization_shape_matches_paper() {
        let mut cache = SuiteCache::new(ExpConfig::quick());
        let out = run(&mut cache);
        assert_eq!(out.table.rows.len(), 15);
        let (_, _, mean_bw) = &out.headline[0];
        let (_, _, mean_alu) = &out.headline[1];
        // The shape claims: memory-bound (low ALU), moderate BW utilization.
        assert!(*mean_bw > 0.05 && *mean_bw < 0.7, "mean BW util {mean_bw}");
        assert!(*mean_alu < 0.15, "ALU util {mean_alu} should be single-digit");
    }

    #[test]
    fn power_law_rows_utilize_worse_than_structural() {
        let mut cache = SuiteCache::new(ExpConfig::quick());
        let mut structural = Vec::new();
        let mut graphs = Vec::new();
        for e in suite::entries() {
            let r = cache.gpu(e.id);
            if e.is_power_law() {
                graphs.push(r.bw_utilization);
            } else {
                structural.push(r.bw_utilization);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&graphs) < mean(&structural));
    }
}
