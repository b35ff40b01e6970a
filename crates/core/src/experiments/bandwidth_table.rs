//! The Section II-C bandwidth arithmetic, computed from the configured
//! machine: per-bank, per-vault TSV, cube-internal, and external SerDes
//! bandwidths — the motivation table for near-bank processing ("2 TB/s
//! internal bandwidth at the bank-level, which is 8 times ... TSV").

use super::context::ExpOutput;
use crate::table::{fmt, Table};
use spacea_arch::{HwConfig, DRAM_TIMING, SERDES_BYTES_PER_CYCLE};

/// Renders the bandwidth hierarchy of `hw`: pure arithmetic, no jobs.
pub fn run(hw: &HwConfig) -> ExpOutput {
    let shape = hw.shape;

    // 1 GHz clock: bytes/cycle == GB/s.
    let bank_gbs = DRAM_TIMING.beat_bytes as f64 / DRAM_TIMING.t_ccd as f64;
    let banks_per_cube =
        shape.vaults_per_cube * (shape.product_bgs_per_vault + 1) * shape.banks_per_bg;
    let bank_level_cube = bank_gbs * banks_per_cube as f64;
    let tsv_cube = (hw.tsv_bytes_per_cycle * shape.vaults_per_cube) as f64;
    let serdes_cube = (SERDES_BYTES_PER_CYCLE * 4) as f64; // 4 mesh links

    let mut t = Table::new(
        "Section II-C: bandwidth hierarchy of the configured machine (GB/s)",
        &["Level", "Per unit", "Per cube", "Whole machine"],
    );
    t.push_row(vec![
        "DRAM bank interface".into(),
        fmt(bank_gbs, 1),
        fmt(bank_level_cube, 0),
        fmt(bank_level_cube * shape.cubes as f64, 0),
    ]);
    t.push_row(vec![
        "TSV (vault slice)".into(),
        fmt(hw.tsv_bytes_per_cycle as f64, 1),
        fmt(tsv_cube, 0),
        fmt(tsv_cube * shape.cubes as f64, 0),
    ]);
    t.push_row(vec![
        "SerDes links".into(),
        fmt(SERDES_BYTES_PER_CYCLE as f64, 1),
        fmt(serdes_cube, 0),
        fmt(serdes_cube * shape.cubes as f64, 0),
    ]);
    t.push_note(format!(
        "bank-level / TSV ratio: {:.1}x (the paper's Section II-C quotes 8x for the 16-vault, 256-bank cube)",
        bank_level_cube / tsv_cube
    ));
    t.push_note(format!(
        "paper's arithmetic at paper scale: 256 banks x 8 GB/s = 2 TB/s internal vs 256 GB/s TSV; this machine: {} banks/cube x {} GB/s",
        banks_per_cube,
        fmt(bank_gbs, 1)
    ));
    ExpOutput { id: "bandwidth_table", table: t, ..Default::default() }
}
