//! Figure 10: scalability of SpaceA with the number of memory cubes.
//!
//! The paper sweeps 16 → 32 → 64 cubes; this harness sweeps the same 1:2:4
//! ratio from the configured base machine (2 → 4 → 8 cubes by default).

use super::context::{ExpConfig, ExpOutput, MapKind, SuiteCache};
use crate::table::{fmt, geo_mean, Table};
use spacea_arch::HwConfig;
use spacea_harness::JobSpec;
use spacea_mapping::MachineShape;
use spacea_matrix::suite;
use spacea_model::reference::paper_headline;
use std::sync::Arc;

/// The configuration this figure actually sweeps: matrices twice the
/// configured size (`scale / 2`) — the sweep's larger machines would
/// otherwise leave so little work per PE that the scaled-down matrices stop
/// resembling the paper's fixed-size workloads (DESIGN.md §4).
fn sweep_config(cfg: &ExpConfig) -> ExpConfig {
    let mut cfg = cfg.clone();
    cfg.scale = (cfg.scale / 2).max(1);
    cfg
}

/// The 1:2:4 cube-count ratio sweep from the configured base machine.
fn cube_counts(cfg: &ExpConfig) -> [usize; 3] {
    let base = cfg.hw.shape.cubes;
    [base, base * 2, base * 4]
}

/// The jobs this figure consumes: every matrix (at the sweep scale) on each
/// swept cube count.
pub fn jobs(cfg: &ExpConfig) -> Vec<JobSpec> {
    let cfg = sweep_config(cfg);
    let mut jobs = Vec::new();
    for &cubes in &cube_counts(&cfg) {
        let shape = MachineShape { cubes, ..cfg.hw.shape };
        let hw = HwConfig { shape, ..cfg.hw.clone() };
        for e in suite::entries() {
            jobs.push(cfg.sim_job_with(e.id, MapKind::Proposed, &hw));
        }
    }
    jobs
}

/// Regenerates the Figure 10 series: speedup vs the base cube count.
pub fn run(cache: &mut SuiteCache) -> ExpOutput {
    // The sweep-scale cache shares the caller's store and context, so jobs
    // pre-warmed by the harness are found by key instead of recomputed.
    let mut local = SuiteCache::with_store(
        sweep_config(&cache.cfg),
        Arc::clone(cache.store()),
        Arc::clone(cache.ctx()),
    );
    let cache = &mut local;
    let cube_counts = cube_counts(&cache.cfg);
    let mut headers: Vec<String> = vec!["ID".into(), "Matrix".into()];
    headers.extend(cube_counts.iter().map(|c| format!("#cubes={c}")));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new("Figure 10: normalized speedup vs number of cubes", &headers_ref);

    let ids: Vec<(u8, String)> =
        suite::entries().iter().map(|e| (e.id, e.name.to_string())).collect();
    let mut per_count: Vec<Vec<f64>> = vec![Vec::new(); cube_counts.len()];
    for (id, name) in ids {
        let mut cycles = Vec::new();
        for &cubes in &cube_counts {
            let shape = MachineShape { cubes, ..cache.cfg.hw.shape };
            let hw = HwConfig { shape, ..cache.cfg.hw.clone() };
            cycles.push(cache.sim_with(id, MapKind::Proposed, &hw).cycles as f64);
        }
        let base = cycles[0];
        let mut row = vec![id.to_string(), name];
        for (k, c) in cycles.iter().enumerate() {
            let speedup = base / c;
            row.push(fmt(speedup, 3));
            per_count[k].push(speedup);
        }
        table.push_row(row);
    }
    let mut mean_row = vec!["-".to_string(), "Geo. Mean".to_string()];
    let mut means = Vec::new();
    for v in &per_count {
        let m = geo_mean(v);
        means.push(m);
        mean_row.push(fmt(m, 3));
    }
    table.push_row(mean_row);
    table.push_note(format!(
        "paper (16->32->64 cubes): 1.00x -> {}x -> {}x; the ratio sweep here is {}:{}:{} cubes",
        paper_headline::SCALE_32_CUBES,
        paper_headline::SCALE_64_CUBES,
        cube_counts[0],
        cube_counts[1],
        cube_counts[2]
    ));

    ExpOutput {
        id: "fig10",
        table,
        extra_tables: vec![],
        headline: vec![
            ("speedup at 2x cubes".into(), paper_headline::SCALE_32_CUBES, means[1]),
            ("speedup at 4x cubes".into(), paper_headline::SCALE_64_CUBES, means[2]),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::context::ExpConfig;

    #[test]
    fn more_cubes_help_but_sublinearly() {
        let mut cache = SuiteCache::new(ExpConfig::quick());
        let out = run(&mut cache);
        let s2 = out.headline[0].2;
        let s4 = out.headline[1].2;
        assert!(s2 > 1.0, "2x cubes must speed up ({s2})");
        assert!(s4 >= s2, "4x cubes must be at least as fast as 2x ({s4} vs {s2})");
        assert!(s4 < 4.0, "scalability must be sublinear ({s4})");
    }
}
