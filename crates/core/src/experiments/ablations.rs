//! Ablation study for the design choices DESIGN.md calls out.
//!
//! Reports *simulated* cycles (not wall time) of the proposed design against
//! four cripple-one-mechanism variants:
//!
//! * `no-l1-cam` — L1 CAM reduced to a single entry (no input-vector reuse
//!   at the bank group).
//! * `no-l2-cam` — L2 CAM reduced to a single entry (no reuse at the vault).
//! * `no-dedup` — load-queue request deduplication disabled: every miss
//!   sends its own packet downstream.
//! * `naive-mapping` — the proposed hardware with the random mapping.
//!
//! plus the `chunked-mapping` baseline (contiguous equal-nnz row chunks).

use super::context::{ExpConfig, ExpOutput, MapKind, SuiteCache};
use crate::table::{fmt, geo_mean, Table};
use spacea_arch::{HwConfig, Machine, RunSpec, SimReport};
use spacea_harness::JobSpec;
use spacea_mapping::{ChunkedMapping, MappingStrategy};
use spacea_matrix::suite;

/// The table's simulated rows in order: the full design first (the
/// baseline every row divides by), then each variant, as (label, machine,
/// mapping).
fn variants(base: &HwConfig) -> Vec<(&'static str, HwConfig, MapKind)> {
    let mut no_l1_cam = base.clone();
    (no_l1_cam.l1_cam.sets, no_l1_cam.l1_cam.ways) = (1, 1);
    let mut no_l2_cam = base.clone();
    (no_l2_cam.l2_cam.sets, no_l2_cam.l2_cam.ways) = (1, 1);
    let mut no_dedup = base.clone();
    no_dedup.ldq_dedup = false;
    vec![
        ("proposed", base.clone(), MapKind::Proposed),
        ("no-l1-cam", no_l1_cam, MapKind::Proposed),
        ("no-l2-cam", no_l2_cam, MapKind::Proposed),
        ("no-dedup", no_dedup, MapKind::Proposed),
        ("naive-mapping", base.clone(), MapKind::Naive),
    ]
}

/// Every variant's simulation of every Table I matrix. The chunked
/// baseline is not a [`MapKind`], so [`run`] simulates it directly.
pub fn jobs(cfg: &ExpConfig) -> Vec<JobSpec> {
    let variants = variants(&cfg.hw);
    suite::entries()
        .iter()
        .flat_map(|e| variants.iter().map(|(_, hw, kind)| cfg.sim_job_with(e.id, *kind, hw)))
        .collect()
}

/// A run's (cycles, TSV bytes), the two quantities each row compares.
fn point(r: &SimReport) -> (f64, f64) {
    (r.cycles as f64, r.activity.tsv_bytes.max(1) as f64)
}

/// Renders the ablation table.
///
/// # Panics
///
/// Panics if a direct chunked-mapping run fails.
pub fn run(cache: &mut SuiteCache) -> ExpOutput {
    let base_hw = cache.cfg.hw.clone();
    let ids: Vec<u8> = suite::entries().iter().map(|e| e.id).collect();
    let mut rows: Vec<(&str, Vec<(f64, f64)>)> = Vec::new();
    for (name, hw, kind) in variants(&base_hw) {
        rows.push((name, ids.iter().map(|&id| point(&cache.sim_with(id, kind, &hw))).collect()));
    }
    let machine = Machine::new(base_hw.clone());
    let chunked = ids
        .iter()
        .map(|&id| {
            let a = cache.matrix(id);
            let mapping = ChunkedMapping.map(&a, &base_hw.shape);
            let x = spacea_harness::input_vector(a.cols());
            let out = machine
                .run(RunSpec::spmv(&a, &x, &mapping))
                // lint:allow(R1) documented panic: the study simulates trusted suite matrices
                .unwrap_or_else(|e| panic!("ablations: chunked run failed: {e}"));
            point(&out.report)
        })
        .collect();
    rows.push(("chunked-mapping", chunked));

    let mut table = Table::new(
        "Ablations: simulated slowdown vs the full proposed design (geo-mean over Table I)",
        &["Variant", "Geo-mean slowdown", "Geo-mean TSV traffic ratio"],
    );
    let base = &rows[0].1;
    for (name, points) in &rows {
        let slowdowns: Vec<f64> = points.iter().zip(base).map(|(p, b)| p.0 / b.0).collect();
        let tsv_ratios: Vec<f64> = points.iter().zip(base).map(|(p, b)| p.1 / b.1).collect();
        table.push_row(vec![
            name.to_string(),
            fmt(geo_mean(&slowdowns), 3),
            fmt(geo_mean(&tsv_ratios), 3),
        ]);
    }
    table.push_note("slowdown 1.0 = the full design; higher = that mechanism matters");
    table.push_note(
        "chunked-mapping = contiguous equal-nnz row chunks: inherits ordering locality but cannot regroup rows",
    );
    ExpOutput { id: "ablations", table, ..Default::default() }
}
