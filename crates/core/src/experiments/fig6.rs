//! Figure 6: mapping-quality metrics — normalized workload, L1/L2 CAM hit
//! rates, and TSV/NoC traffic of the proposed mapping relative to naive.

use super::context::{ExpConfig, ExpOutput, MapKind, SuiteCache};
use crate::table::{fmt, pct, Table};
use spacea_harness::JobSpec;
use spacea_matrix::suite;
use spacea_model::reference::paper_headline;

/// The jobs this figure consumes: both mappings simulated on the default
/// machine for every Table I matrix.
pub fn jobs(cfg: &ExpConfig) -> Vec<JobSpec> {
    suite::entries()
        .iter()
        .flat_map(|e| [cfg.sim_job(e.id, MapKind::Naive), cfg.sim_job(e.id, MapKind::Proposed)])
        .collect()
}

/// Regenerates the Figure 6 panels (a)–(d).
pub fn run(cache: &mut SuiteCache) -> ExpOutput {
    let mut table = Table::new(
        "Figure 6: naive vs proposed mapping metrics",
        &[
            "ID",
            "Matrix",
            "Norm. workload (N)",
            "Norm. workload (P)",
            "L1 hit (N)",
            "L1 hit (P)",
            "L2 hit (N)",
            "L2 hit (P)",
            "TSV traffic P/N",
            "NoC traffic P/N",
        ],
    );
    let mut wl_ratio = Vec::new();
    let mut l1_n = Vec::new();
    let mut l1_p = Vec::new();
    let mut l2_n = Vec::new();
    let mut l2_p = Vec::new();
    let mut tsv_ratio = Vec::new();
    let mut noc_ratio = Vec::new();
    for entry in suite::entries() {
        let rn = cache.sim(entry.id, MapKind::Naive);
        let rp = cache.sim(entry.id, MapKind::Proposed);
        let (an, ap) = (&rn.activity, &rp.activity);
        let tsv = ap.tsv_bytes as f64 / an.tsv_bytes.max(1) as f64;
        let noc = if an.noc_byte_hops == 0 {
            1.0
        } else {
            ap.noc_byte_hops as f64 / an.noc_byte_hops as f64
        };
        let (wn, wp) = (rn.normalized_workload(), rp.normalized_workload());
        let (l2n, l2p) = (an.l2_cam.hit_rate(), ap.l2_cam.hit_rate());
        table.push_row(vec![
            entry.id.to_string(),
            entry.name.to_string(),
            fmt(wn, 3),
            fmt(wp, 3),
            pct(rn.l1_hit_rate),
            pct(rp.l1_hit_rate),
            pct(l2n),
            pct(l2p),
            fmt(tsv, 3),
            fmt(noc, 3),
        ]);
        wl_ratio.push(wn / wp.max(1e-12));
        l1_n.push(rn.l1_hit_rate);
        l1_p.push(rp.l1_hit_rate);
        l2_n.push(l2n);
        l2_p.push(l2p);
        tsv_ratio.push(tsv);
        noc_ratio.push(noc);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    table.push_note(format!(
        "naive normalized workload is {} of proposed on average (paper: 81%)",
        pct(mean(&wl_ratio))
    ));
    table.push_note(format!(
        "mean L1 hit rate: naive {} -> proposed {} (paper: 18% -> 78%)",
        pct(mean(&l1_n)),
        pct(mean(&l1_p))
    ));
    table.push_note(format!(
        "mean L2 hit rate: naive {} -> proposed {} (paper: 47.09% -> 31.93%, drops because fewer requests reach L2)",
        pct(mean(&l2_n)),
        pct(mean(&l2_p))
    ));
    table.push_note(format!(
        "mean traffic of proposed relative to naive: TSV {} (paper: 33.11%), NoC {} (paper: 38.89%)",
        pct(mean(&tsv_ratio)),
        pct(mean(&noc_ratio))
    ));

    ExpOutput {
        id: "fig6",
        table,
        extra_tables: vec![],
        headline: vec![
            (
                "naive/proposed normalized workload".into(),
                paper_headline::NAIVE_NORMALIZED_WORKLOAD_RATIO,
                mean(&wl_ratio),
            ),
            ("mean L1 hit rate (naive)".into(), paper_headline::L1_HIT_NAIVE, mean(&l1_n)),
            ("mean L1 hit rate (proposed)".into(), paper_headline::L1_HIT_PROPOSED, mean(&l1_p)),
            ("mean L2 hit rate (naive)".into(), paper_headline::L2_HIT_NAIVE, mean(&l2_n)),
            ("mean L2 hit rate (proposed)".into(), paper_headline::L2_HIT_PROPOSED, mean(&l2_p)),
            (
                "TSV traffic proposed/naive".into(),
                paper_headline::TSV_TRAFFIC_RATIO,
                mean(&tsv_ratio),
            ),
            (
                "NoC traffic proposed/naive".into(),
                paper_headline::NOC_TRAFFIC_RATIO,
                mean(&noc_ratio),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::context::ExpConfig;

    #[test]
    fn proposed_improves_the_right_metrics() {
        let mut cache = SuiteCache::new(ExpConfig::quick());
        let out = run(&mut cache);
        assert_eq!(out.table.rows.len(), 15);
        let get = |name: &str| {
            out.headline
                .iter()
                .find(|(n, _, _)| n.contains(name))
                .map(|(_, _, v)| *v)
                .expect("headline present")
        };
        // The load-bearing directional claims of Figure 6:
        assert!(
            get("L1 hit rate (proposed)") > get("L1 hit rate (naive)"),
            "proposed mapping must raise L1 hit rate"
        );
        assert!(get("TSV traffic") < 1.0, "proposed mapping must cut TSV traffic");
    }
}
