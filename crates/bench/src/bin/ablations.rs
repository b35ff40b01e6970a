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
//! Run: `cargo run --release -p spacea-bench --bin ablations [--scale N]`

use spacea_core::experiments::MapKind;
use spacea_core::table::{fmt, geo_mean, Table};
use spacea_matrix::suite;

fn main() {
    let mut session = spacea_bench::harness();
    let cache = &mut session.cache;
    let base_hw = cache.cfg.hw.clone();
    let ids: Vec<u8> = suite::entries().iter().map(|e| e.id).collect();

    let variants: Vec<(&str, spacea_arch::HwConfig, MapKind)> = vec![
        ("proposed", base_hw.clone(), MapKind::Proposed),
        (
            "no-l1-cam",
            {
                let mut hw = base_hw.clone();
                hw.l1_cam.sets = 1;
                hw.l1_cam.ways = 1;
                hw
            },
            MapKind::Proposed,
        ),
        (
            "no-l2-cam",
            {
                let mut hw = base_hw.clone();
                hw.l2_cam.sets = 1;
                hw.l2_cam.ways = 1;
                hw
            },
            MapKind::Proposed,
        ),
        (
            "no-dedup",
            {
                let mut hw = base_hw.clone();
                hw.ldq_dedup = false;
                hw
            },
            MapKind::Proposed,
        ),
        ("naive-mapping", base_hw.clone(), MapKind::Naive),
    ];

    let mut table = Table::new(
        "Ablations: simulated slowdown vs the full proposed design (geo-mean over Table I)",
        &["Variant", "Geo-mean slowdown", "Geo-mean TSV traffic ratio"],
    );
    let mut base_cycles = Vec::new();
    let mut base_tsv = Vec::new();
    for &id in &ids {
        let r = cache.sim_with(id, MapKind::Proposed, &base_hw);
        base_cycles.push(r.cycles as f64);
        base_tsv.push(r.activity.tsv_bytes.max(1) as f64);
    }
    for (name, hw, kind) in &variants {
        let mut slowdowns = Vec::new();
        let mut tsv_ratios = Vec::new();
        for (k, &id) in ids.iter().enumerate() {
            let r = cache.sim_with(id, *kind, hw);
            slowdowns.push(r.cycles as f64 / base_cycles[k]);
            tsv_ratios.push(r.activity.tsv_bytes.max(1) as f64 / base_tsv[k]);
        }
        table.push_row(vec![
            name.to_string(),
            fmt(geo_mean(&slowdowns), 3),
            fmt(geo_mean(&tsv_ratios), 3),
        ]);
    }
    // Chunked (contiguous equal-nnz) mapping is not part of the paper's
    // comparison, so it is simulated directly rather than through the cache.
    {
        use spacea_mapping::{ChunkedMapping, MappingStrategy};
        let mut slowdowns = Vec::new();
        let mut tsv_ratios = Vec::new();
        for (k, &id) in ids.iter().enumerate() {
            let a = cache.matrix(id);
            let mapping = ChunkedMapping.map(&a, &base_hw.shape);
            let x = spacea_harness::input_vector(a.cols());
            let r = spacea_arch::Machine::new(base_hw.clone())
                .run(spacea_arch::RunSpec::spmv(&a, &x, &mapping))
                .map(|out| out.into_report())
                .unwrap_or_else(|e| {
                    eprintln!("ablations: chunked run failed: {e}");
                    std::process::exit(1)
                });
            slowdowns.push(r.cycles as f64 / base_cycles[k]);
            tsv_ratios.push(r.activity.tsv_bytes.max(1) as f64 / base_tsv[k]);
        }
        table.push_row(vec![
            "chunked-mapping".into(),
            fmt(geo_mean(&slowdowns), 3),
            fmt(geo_mean(&tsv_ratios), 3),
        ]);
    }
    table.push_note("slowdown 1.0 = the full design; higher = that mechanism matters");
    table.push_note(
        "chunked-mapping = contiguous equal-nnz row chunks: inherits ordering locality but cannot regroup rows",
    );
    session.emit_table(&table);
}
