//! Figure 7: sensitivity of performance to the L1/L2 CAM geometry, and the
//! L2 CAM performance/area trade-off.

use super::context::{ExpConfig, ExpOutput, MapKind, SuiteCache};
use crate::table::{fmt, geo_mean, Table};
use spacea_arch::{HwConfig, BLOCK_BYTES};
use spacea_harness::JobSpec;
use spacea_matrix::suite;
use spacea_model::AreaModel;

/// Sweep points per panel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig7Sweep {
    /// Panel (a): L1 set counts.
    pub l1_sets: Vec<usize>,
    /// Panel (b): L1 way counts.
    pub l1_ways: Vec<usize>,
    /// Panel (c): L2 set counts.
    pub l2_sets: Vec<usize>,
    /// Panel (d): L2 way counts.
    pub l2_ways: Vec<usize>,
    /// Panel (e): L2 set counts for the area/performance trade-off.
    pub tradeoff_l2_sets: Vec<usize>,
}

impl Default for Fig7Sweep {
    /// The paper's sweep axes.
    fn default() -> Self {
        Fig7Sweep {
            l1_sets: vec![32, 128, 1024, 4096],
            l1_ways: vec![1, 2, 4, 8, 16, 32],
            l2_sets: vec![32, 1024, 2048, 4096, 8192],
            l2_ways: vec![1, 2, 4, 8, 16],
            tradeoff_l2_sets: vec![256, 1024, 2048, 4096, 8192],
        }
    }
}

impl Fig7Sweep {
    /// A minimal sweep for tests.
    pub fn quick() -> Self {
        Fig7Sweep {
            l1_sets: vec![32, 128],
            l1_ways: vec![1, 4],
            l2_sets: vec![32, 2048],
            l2_ways: vec![1, 4],
            tradeoff_l2_sets: vec![256, 2048],
        }
    }
}

/// The jobs the default sweep consumes: each panel's tweaked machine
/// simulated for every matrix, plus the GPU baselines the speedups divide
/// by.
pub fn jobs(cfg: &ExpConfig) -> Vec<JobSpec> {
    let sweep = Fig7Sweep::default();
    let mut configs: Vec<(MapKind, HwConfig)> = Vec::new();
    let tweaked = |kind: MapKind, f: &dyn Fn(&mut HwConfig)| {
        let mut hw = cfg.hw.clone();
        f(&mut hw);
        (kind, hw)
    };
    for &sets in &sweep.l1_sets {
        configs.push(tweaked(MapKind::Proposed, &|hw| hw.l1_cam.sets = sets));
    }
    for &ways in &sweep.l1_ways {
        configs.push(tweaked(MapKind::Proposed, &|hw| hw.l1_cam.ways = ways));
    }
    for &sets in &sweep.l2_sets {
        configs.push(tweaked(MapKind::Proposed, &|hw| hw.l2_cam.sets = sets));
    }
    for &ways in &sweep.l2_ways {
        configs.push(tweaked(MapKind::Proposed, &|hw| hw.l2_cam.ways = ways));
    }
    for kind in [MapKind::Naive, MapKind::Proposed] {
        for &sets in &sweep.tradeoff_l2_sets {
            configs.push(tweaked(kind, &|hw| hw.l2_cam.sets = sets));
        }
    }
    let mut jobs = Vec::new();
    for e in suite::entries() {
        jobs.push(cfg.gpu_job(e.id));
        for (kind, hw) in &configs {
            jobs.push(cfg.sim_job_with(e.id, *kind, hw));
        }
    }
    jobs
}

/// Geo-mean speedup over the GPU baseline for a modified configuration.
fn mean_speedup(
    cache: &mut SuiteCache,
    kind: MapKind,
    tweak: impl Fn(&mut spacea_arch::HwConfig),
) -> f64 {
    let mut hw = cache.cfg.hw.clone();
    tweak(&mut hw);
    let ids: Vec<u8> = suite::entries().iter().map(|e| e.id).collect();
    let mut speedups = Vec::new();
    for id in ids {
        let gpu = cache.gpu(id);
        let sim = cache.sim_with(id, kind, &hw);
        speedups.push(gpu.time_s / sim.seconds());
    }
    geo_mean(&speedups)
}

/// Regenerates Figure 7 with the default sweep.
pub fn run(cache: &mut SuiteCache) -> ExpOutput {
    run_with(cache, &Fig7Sweep::default())
}

/// Regenerates Figure 7 with a custom sweep.
pub fn run_with(cache: &mut SuiteCache, sweep: &Fig7Sweep) -> ExpOutput {
    let mut a =
        Table::new("Figure 7(a): speedup vs number of L1 sets", &["L1 sets", "Geo-mean speedup"]);
    for &sets in &sweep.l1_sets {
        let s = mean_speedup(cache, MapKind::Proposed, |hw| hw.l1_cam.sets = sets);
        a.push_row(vec![sets.to_string(), fmt(s, 2)]);
    }

    let mut b =
        Table::new("Figure 7(b): speedup vs number of L1 ways", &["L1 ways", "Geo-mean speedup"]);
    for &ways in &sweep.l1_ways {
        let s = mean_speedup(cache, MapKind::Proposed, |hw| hw.l1_cam.ways = ways);
        b.push_row(vec![ways.to_string(), fmt(s, 2)]);
    }

    let mut c =
        Table::new("Figure 7(c): speedup vs number of L2 sets", &["L2 sets", "Geo-mean speedup"]);
    let mut c_speedups = Vec::new();
    for &sets in &sweep.l2_sets {
        let s = mean_speedup(cache, MapKind::Proposed, |hw| hw.l2_cam.sets = sets);
        c.push_row(vec![sets.to_string(), fmt(s, 2)]);
        c_speedups.push((sets, s));
    }

    let mut d =
        Table::new("Figure 7(d): speedup vs number of L2 ways", &["L2 ways", "Geo-mean speedup"]);
    for &ways in &sweep.l2_ways {
        let s = mean_speedup(cache, MapKind::Proposed, |hw| hw.l2_cam.ways = ways);
        d.push_row(vec![ways.to_string(), fmt(s, 2)]);
    }

    let mut e = Table::new(
        "Figure 7(e): performance vs L2 CAM area trade-off",
        &["Mapping", "L2 sets", "Area (mm^2)", "Geo-mean speedup"],
    );
    let model = AreaModel;
    for kind in [MapKind::Naive, MapKind::Proposed] {
        for &sets in &sweep.tradeoff_l2_sets {
            let s = mean_speedup(cache, kind, |hw| hw.l2_cam.sets = sets);
            let area = model.cam_area_mm2(sets * cache.cfg.hw.l2_cam.ways * BLOCK_BYTES);
            e.push_row(vec![kind.label().into(), sets.to_string(), fmt(area, 4), fmt(s, 2)]);
        }
    }
    e.push_note(
        "paper: naive with a 0.76 mm^2 L2 CAM achieves only 68.61% of proposed with 0.09 mm^2",
    );

    let mut main = Table::new("Figure 7: CAM sensitivity summary", &["Panel", "Observation"]);
    main.push_row(vec!["(a)/(b)".into(), "performance is not sensitive to L1 CAM size".into()]);
    main.push_row(vec![
        "(c)/(d)".into(),
        "performance is moderately sensitive to L2 CAM size".into(),
    ]);
    main.push_row(vec![
        "(e)".into(),
        "proposed mapping needs less L2 area for more speedup".into(),
    ]);

    ExpOutput {
        id: "fig7",
        table: main,
        extra_tables: vec![a, b, c, d, e],
        headline: vec![(
            "L2-sets sweep speedup range (max/min)".into(),
            15.0 / 11.0, // the paper's "from 11x to 15x" spread
            {
                let max = c_speedups.iter().map(|&(_, s)| s).fold(f64::MIN, f64::max);
                let min = c_speedups.iter().map(|&(_, s)| s).fold(f64::MAX, f64::min);
                max / min
            },
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::context::ExpConfig;

    #[test]
    fn sweep_produces_all_panels() {
        let mut cache = SuiteCache::new(ExpConfig::quick());
        let out = run_with(&mut cache, &Fig7Sweep::quick());
        assert_eq!(out.extra_tables.len(), 5);
        assert_eq!(out.extra_tables[0].rows.len(), 2);
        assert_eq!(out.extra_tables[4].rows.len(), 4); // 2 mappings × 2 sizes
    }

    #[test]
    fn bigger_l2_does_not_hurt() {
        let mut cache = SuiteCache::new(ExpConfig::quick());
        let small = mean_speedup(&mut cache, MapKind::Proposed, |hw| hw.l2_cam.sets = 32);
        let big = mean_speedup(&mut cache, MapKind::Proposed, |hw| hw.l2_cam.sets = 2048);
        assert!(big >= small * 0.95, "bigger L2 ({big}) should not lose to small ({small})");
    }
}
