//! Quickstart: simulate one SpMV on a SpaceA machine and inspect the report.
//!
//! Run: `cargo run --release --example quickstart`

use spacea::arch::HwConfig;
use spacea::core::Accelerator;
use spacea::matrix::gen::{banded, BandedConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small FEM-style matrix: clustered row lengths, columns near the
    // diagonal — the structural pattern SpaceA's mapping exploits.
    let a = banded(&BandedConfig { n: 2048, mean_row_nnz: 32.0, ..Default::default() });
    let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 + (i % 5) as f64).collect();
    println!("matrix: {}", a.stats());

    // A single-cube machine with the paper's per-cube structure.
    let accel = Accelerator::builder()
        .hw_config(HwConfig::with_shape(spacea::mapping::MachineShape {
            cubes: 1,
            vaults_per_cube: 16,
            product_bgs_per_vault: 7,
            banks_per_bg: 2,
        }))
        .mapping(spacea::mapping::MapKind::Proposed)
        .build()?;

    let run = accel.spmv(&a, &x)?;
    let r = &run.report;
    println!("simulated {} cycles ({:.2} us at 1 GHz)", r.cycles, r.seconds() * 1e6);
    println!("output matches the software oracle bit for bit (checked by every run)");
    println!("L1 CAM hit rate: {:.1}%", r.l1_hit_rate * 100.0);
    println!("L2 CAM hit rate: {:.1}%", r.activity.l2_cam.hit_rate() * 100.0);
    println!("TSV traffic: {} bytes", r.activity.tsv_bytes);
    println!("NoC traffic: {} byte-hops", r.activity.noc_byte_hops);
    println!("normalized workload: {:.3}", r.normalized_workload());
    println!(
        "energy: {:.2} uJ (DRAM {:.2} + PE/CAM {:.2} + interconnect {:.2} + static {:.2})",
        run.energy.total_j() * 1e6,
        run.energy.dram_dynamic_j * 1e6,
        run.energy.pe_cam_dynamic_j * 1e6,
        run.energy.interconnect_dynamic_j * 1e6,
        run.energy.static_j * 1e6,
    );
    println!("y[0..4] = {:?}", &r.output[..4]);
    Ok(())
}
