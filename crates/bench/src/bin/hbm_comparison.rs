//! Section VII check: SpaceA realized on HBM-like stacks vs the HMC-like
//! default, under an equivalent configuration (same PE count, same aggregate
//! channel bandwidth). The paper claims "similar performance and power";
//! this harness quantifies the similarity over the Table I suite.
//!
//! Run: `cargo run --release -p spacea-bench --bin hbm_comparison [--scale N]`

use spacea_arch::HwConfig;
use spacea_core::experiments::MapKind;
use spacea_core::table::{fmt, geo_mean, Table};
use spacea_matrix::suite;

fn main() {
    let mut session = spacea_bench::harness();
    let cache = &mut session.cache;
    let hmc = cache.cfg.hw.clone();
    let hbm = HwConfig::hbm_like();

    let mut table = Table::new(
        "Section VII: HMC-like vs HBM-like realization (equivalent configuration)",
        &["ID", "Matrix", "HMC cycles", "HBM cycles", "HBM/HMC"],
    );
    let ids: Vec<(u8, String)> =
        suite::entries().iter().map(|e| (e.id, e.name.to_string())).collect();
    let mut ratios = Vec::new();
    for (id, name) in ids {
        let r_hmc = cache.sim_with(id, MapKind::Proposed, &hmc);
        let r_hbm = cache.sim_with(id, MapKind::Proposed, &hbm);
        let ratio = r_hbm.cycles as f64 / r_hmc.cycles as f64;
        ratios.push(ratio);
        table.push_row(vec![
            id.to_string(),
            name,
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
    session.emit_table(&table);
}
