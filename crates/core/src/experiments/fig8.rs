//! Figure 8: energy-consumption breakdown for the naive and proposed
//! mappings, normalized to the naive mapping's DRAM dynamic energy.

use super::context::{ExpConfig, ExpOutput, MapKind, SuiteCache};
use crate::table::{fmt, Table};
use spacea_harness::JobSpec;
use spacea_matrix::suite;

/// The jobs this figure consumes — the same default-machine simulations as
/// Figure 6 (the energy breakdown is derived from their activity counters).
pub fn jobs(cfg: &ExpConfig) -> Vec<JobSpec> {
    super::fig6::jobs(cfg)
}

/// Regenerates the Figure 8 stacked-bar data.
pub fn run(cache: &mut SuiteCache) -> ExpOutput {
    let mut table = Table::new(
        "Figure 8: energy breakdown (normalized to naive DRAM dynamic)",
        &[
            "ID",
            "Matrix",
            "Mapping",
            "DRAM dynamic",
            "PE & L1 & L2 dynamic",
            "Interconnect dynamic",
            "Total static",
        ],
    );
    let mut interconnect_savings = Vec::new();
    let mut static_savings = Vec::new();
    for entry in suite::entries() {
        let en = cache.energy(entry.id, MapKind::Naive);
        let ep = cache.energy(entry.id, MapKind::Proposed);
        let base = en.dram_dynamic_j.max(f64::MIN_POSITIVE);
        for (kind, e) in [(MapKind::Naive, &en), (MapKind::Proposed, &ep)] {
            table.push_row(vec![
                entry.id.to_string(),
                entry.name.to_string(),
                kind.label().into(),
                fmt(e.dram_dynamic_j / base, 3),
                fmt(e.pe_cam_dynamic_j / base, 3),
                fmt(e.interconnect_dynamic_j / base, 3),
                fmt(e.static_j / base, 3),
            ]);
        }
        if en.interconnect_dynamic_j > 0.0 {
            interconnect_savings.push(1.0 - ep.interconnect_dynamic_j / en.interconnect_dynamic_j);
        }
        if en.static_j > 0.0 {
            static_savings.push(1.0 - ep.static_j / en.static_j);
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let ic = mean(&interconnect_savings);
    let st = mean(&static_savings);
    table.push_note(format!(
        "proposed mapping saves {:.2}% of interconnect dynamic energy (paper: 65.55%)",
        ic * 100.0
    ));
    table.push_note(format!(
        "proposed mapping saves {:.2}% of static energy via speedup (paper: 54.05%)",
        st * 100.0
    ));
    table.push_note("added PE/L1/L2 dynamic energy is a negligible slice, as in the paper");

    ExpOutput {
        id: "fig8",
        table,
        extra_tables: vec![],
        headline: vec![
            ("interconnect dynamic saving".into(), 0.6555, ic),
            ("static energy saving".into(), 0.5405, st),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::context::ExpConfig;

    #[test]
    fn breakdown_shape_matches_paper() {
        let mut cache = SuiteCache::new(ExpConfig::quick());
        let out = run(&mut cache);
        assert_eq!(out.table.rows.len(), 30); // 15 matrices × 2 mappings
        let ic_saving = out.headline[0].2;
        assert!(ic_saving > 0.0, "proposed must save interconnect energy, got {ic_saving}");
    }

    #[test]
    fn added_logic_energy_is_negligible() {
        let mut cache = SuiteCache::new(ExpConfig::quick());
        for id in [1u8, 9, 13] {
            let e = cache.energy(id, MapKind::Proposed);
            assert!(
                e.pe_cam_dynamic_j < 0.2 * e.total_j(),
                "matrix {id}: PE/CAM dynamic should be a small slice"
            );
        }
    }
}
