//! Figure 5: overall speedup and energy saving of SpaceA over the GPU
//! baseline, with the naive and the proposed mapping.

use super::context::{ExpConfig, ExpOutput, MapKind, SuiteCache};
use crate::table::{fmt, geo_mean, pct, Table};
use spacea_harness::JobSpec;
use spacea_matrix::suite;
use spacea_model::reference::paper_headline;

/// The jobs this figure consumes: per matrix, the GPU baseline plus a
/// default-machine simulation under each mapping.
pub fn jobs(cfg: &ExpConfig) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for e in suite::entries() {
        jobs.push(cfg.gpu_job(e.id));
        for kind in [MapKind::Naive, MapKind::Proposed] {
            jobs.push(cfg.sim_job(e.id, kind));
        }
    }
    jobs
}

/// Regenerates the Figure 5 series.
pub fn run(cache: &mut SuiteCache) -> ExpOutput {
    let mut table = Table::new(
        "Figure 5: speedup and energy saving w.r.t. GPU",
        &[
            "ID",
            "Matrix",
            "Speedup (naive)",
            "Speedup (proposed)",
            "Energy saving (naive)",
            "Energy saving (proposed)",
        ],
    );
    let mut sp_naive = Vec::new();
    let mut sp_prop = Vec::new();
    let mut es_naive = Vec::new();
    let mut es_prop = Vec::new();
    for entry in suite::entries() {
        let sn = cache.speedup(entry.id, MapKind::Naive);
        let sp = cache.speedup(entry.id, MapKind::Proposed);
        let en = cache.energy_saving(entry.id, MapKind::Naive);
        let ep = cache.energy_saving(entry.id, MapKind::Proposed);
        table.push_row(vec![
            entry.id.to_string(),
            entry.name.to_string(),
            fmt(sn, 2),
            fmt(sp, 2),
            pct(en),
            pct(ep),
        ]);
        sp_naive.push(sn);
        sp_prop.push(sp);
        es_naive.push(en);
        es_prop.push(ep);
    }
    let g_naive = geo_mean(&sp_naive);
    let g_prop = geo_mean(&sp_prop);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let m_es_naive = mean(&es_naive);
    let m_es_prop = mean(&es_prop);
    table.push_row(vec![
        "-".into(),
        "Geo. Mean / Mean".into(),
        fmt(g_naive, 2),
        fmt(g_prop, 2),
        pct(m_es_naive),
        pct(m_es_prop),
    ]);
    table.push_note(format!(
        "paper: naive {}x / proposed {}x speedup; naive {}% / proposed {}% energy saving",
        paper_headline::SPEEDUP_NAIVE,
        paper_headline::SPEEDUP_PROPOSED,
        paper_headline::ENERGY_SAVING_NAIVE * 100.0,
        paper_headline::ENERGY_SAVING_PROPOSED * 100.0
    ));
    table.push_note(format!(
        "mapping contribution: proposed/naive speedup ratio {} (paper: 2.18x)",
        fmt(g_prop / g_naive, 2)
    ));

    ExpOutput {
        id: "fig5",
        table,
        extra_tables: vec![],
        headline: vec![
            ("geo-mean speedup (naive)".into(), paper_headline::SPEEDUP_NAIVE, g_naive),
            ("geo-mean speedup (proposed)".into(), paper_headline::SPEEDUP_PROPOSED, g_prop),
            ("mean energy saving (naive)".into(), paper_headline::ENERGY_SAVING_NAIVE, m_es_naive),
            (
                "mean energy saving (proposed)".into(),
                paper_headline::ENERGY_SAVING_PROPOSED,
                m_es_prop,
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::context::ExpConfig;

    #[test]
    fn spacea_wins_and_proposed_beats_naive() {
        let mut cache = SuiteCache::new(ExpConfig::quick());
        let out = run(&mut cache);
        // 15 matrices + mean row.
        assert_eq!(out.table.rows.len(), 16);
        let g_naive = out.headline[0].2;
        let g_prop = out.headline[1].2;
        assert!(g_prop > 1.0, "SpaceA must beat the GPU (got {g_prop})");
        assert!(g_prop > g_naive, "proposed ({g_prop}) must beat naive ({g_naive})");
    }
}
