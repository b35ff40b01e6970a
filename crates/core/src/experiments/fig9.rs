//! Figure 9: sensitivity of performance to the TSV transfer latency.

use super::context::{ExpConfig, ExpOutput, MapKind, SuiteCache};
use crate::table::{fmt, geo_mean, Table};
use spacea_harness::JobSpec;
use spacea_matrix::suite;

/// The paper's swept TSV latencies, in cycles.
pub const LATENCIES: [u64; 5] = [1, 2, 4, 8, 16];

/// The jobs this figure consumes: every matrix at every swept TSV latency.
pub fn jobs(cfg: &ExpConfig) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for e in suite::entries() {
        for &lat in &LATENCIES {
            let mut hw = cfg.hw.clone();
            hw.tsv_latency = lat;
            jobs.push(cfg.sim_job_with(e.id, MapKind::Proposed, &hw));
        }
    }
    jobs
}

/// Regenerates the Figure 9 series: execution time at each TSV latency,
/// normalized to latency = 1.
pub fn run(cache: &mut SuiteCache) -> ExpOutput {
    let mut headers: Vec<String> = vec!["ID".into(), "Matrix".into()];
    headers.extend(LATENCIES.iter().map(|l| format!("Latency={l}")));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new("Figure 9: normalized execution time vs TSV latency", &headers_ref);

    let ids: Vec<(u8, String)> =
        suite::entries().iter().map(|e| (e.id, e.name.to_string())).collect();
    let mut per_latency: Vec<Vec<f64>> = vec![Vec::new(); LATENCIES.len()];
    for (id, name) in ids {
        let mut cycles = Vec::new();
        for &lat in &LATENCIES {
            let mut hw = cache.cfg.hw.clone();
            hw.tsv_latency = lat;
            cycles.push(cache.sim_with(id, MapKind::Proposed, &hw).cycles as f64);
        }
        let base = cycles[0];
        let mut row = vec![id.to_string(), name];
        for (k, c) in cycles.iter().enumerate() {
            let slowdown = c / base;
            row.push(fmt(slowdown, 3));
            per_latency[k].push(slowdown);
        }
        table.push_row(row);
    }
    let mut mean_row = vec!["-".to_string(), "Geo. Mean".to_string()];
    let mut means = Vec::new();
    for v in &per_latency {
        let m = geo_mean(v);
        means.push(m);
        mean_row.push(fmt(m, 3));
    }
    table.push_row(mean_row);
    table.push_note(
        "paper: latency 1 vs 2 nearly identical; 4 cycles ~1.3x mean slowdown; 16 cycles ~2x",
    );

    ExpOutput {
        id: "fig9",
        table,
        extra_tables: vec![],
        headline: vec![
            ("mean slowdown at TSV latency 4".into(), 1.3, means[2]),
            ("mean slowdown at TSV latency 16".into(), 2.0, means[4]),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::context::ExpConfig;

    #[test]
    fn slowdown_monotone_in_latency() {
        let mut cache = SuiteCache::new(ExpConfig::quick());
        let out = run(&mut cache);
        // The geo-mean row is last; slowdowns must not decrease with latency.
        let mean_row = out.table.rows.last().unwrap();
        let values: Vec<f64> = mean_row[2..].iter().map(|s| s.parse().unwrap()).collect();
        for w in values.windows(2) {
            assert!(w[1] >= w[0] * 0.999, "slowdown must be monotone: {values:?}");
        }
        assert!((values[0] - 1.0).abs() < 1e-9, "baseline normalizes to 1");
        assert!(*values.last().unwrap() > 1.0, "16-cycle TSV must cost something");
    }
}
