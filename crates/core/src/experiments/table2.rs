//! Table II: area and power density of the components in a bank group.

use super::context::ExpOutput;
use crate::table::{fmt, Table};
use spacea_arch::{BLOCK_BYTES, L2_LDQ_ENTRIES};
use spacea_model::AreaModel;
use spacea_sim::cam::CamConfig;

/// Regenerates Table II from the analytic area model.
pub fn run() -> ExpOutput {
    let model = AreaModel;
    let bg = model.bank_group();
    let mut table = Table::new(
        "Table II: area and power density of components in a bank group",
        &["Component", "Count", "Area (mm^2)", "Power density (mW/mm^2)"],
    );
    for c in &bg.components {
        table.push_row(vec![
            c.name.to_string(),
            format!("x{}", c.count),
            fmt(c.area_mm2 * c.count as f64, 4),
            fmt(c.power_density_mw_mm2, 2),
        ]);
    }
    table.push_row(vec![
        "Total / Peak".into(),
        "-".into(),
        fmt(bg.total_mm2(), 4),
        fmt(bg.peak_power_density(), 2),
    ]);
    table.push_note(format!(
        "bank-group overhead {:.2}% of a bank group, {:.2}% of the banks (paper: 4.86% / 5.96%)",
        model.bank_group_overhead_fraction() * 100.0,
        model.bank_overhead_fraction() * 100.0
    ));
    let l2 = CamConfig::l2_default();
    let cam = model.cam_area_mm2(l2.sets * l2.ways * BLOCK_BYTES);
    let ldq = model.ldq_area_mm2(L2_LDQ_ENTRIES);
    let base_die = cam + ldq;
    table.push_note(format!(
        "base die per vault: L2 CAM {} mm^2 + L2 LDQ {} mm^2 = {} mm^2 ({:.2}% of a vault; paper: 8.86%)",
        fmt(cam, 4),
        fmt(ldq, 4),
        fmt(base_die, 4),
        base_die / AreaModel::VAULT_MM2 * 100.0
    ));
    table.push_note(format!(
        "peak footprint power density {} mW/mm^2 (paper: 532.48), commodity cooling limit {} mW/mm^2 -> {}",
        fmt(model.peak_footprint_power_density(), 2),
        fmt(AreaModel::COOLING_LIMIT_COMMODITY, 0),
        if model.thermally_feasible() { "feasible" } else { "INFEASIBLE" }
    ));

    ExpOutput {
        id: "table2",
        table,
        extra_tables: vec![],
        headline: vec![
            ("bank-group overhead mm^2".into(), 0.1458, bg.total_mm2()),
            ("peak power density mW/mm^2".into(), 66.56, bg.peak_power_density()),
            (
                "footprint power density mW/mm^2".into(),
                532.48,
                model.peak_footprint_power_density(),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_totals_exactly() {
        let out = run();
        assert_eq!(out.table.rows.len(), 6); // 5 components + total
        for (name, paper, measured) in &out.headline {
            assert!(
                (paper - measured).abs() / paper < 1e-3,
                "{name}: paper {paper} vs measured {measured}"
            );
        }
    }
}
