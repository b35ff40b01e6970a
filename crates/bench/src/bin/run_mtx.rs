//! Run SpMV on a user-supplied Matrix Market file: the downstream-user tool.
//!
//! Run: `cargo run --release -p spacea-bench --bin run_mtx -- <file.mtx>
//! [--cubes N]`
//!
//! Simulates the matrix with both mappings on the configured machine and
//! prints the comparison the paper's Figures 5/6 make per matrix.

use spacea_arch::{Machine, RunSpec};
use spacea_core::table::{fmt, pct, Table};
use spacea_mapping::{LocalityMapping, MappingStrategy, NaiveMapping};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let Some(pos) = args.iter().position(|a| !a.starts_with("--")) else {
        eprintln!("usage: run_mtx <file.mtx> [--cubes N]");
        std::process::exit(2);
    };
    let path = args.remove(pos);
    let opts =
        spacea_bench::HarnessOptions::from_args(args.into_iter()).unwrap_or_else(|e| e.exit());
    let hw = opts.cfg.hw.clone();

    let a = match spacea_matrix::mmio::read_file(&path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    println!("{path}: {}", a.stats());
    println!(
        "machine: {} cubes x {} vaults = {} product PEs",
        hw.shape.cubes,
        hw.shape.vaults_per_cube,
        hw.shape.product_pes()
    );

    let x = spacea_harness::input_vector(a.cols());
    let machine = Machine::new(hw.clone());
    let mut table = Table::new(
        "SpaceA simulation",
        &["Mapping", "Cycles", "us @1GHz", "L1 hit", "L2 hit", "TSV bytes", "Norm. workload"],
    );
    for (name, mapping) in [
        ("naive", NaiveMapping::default().map(&a, &hw.shape)),
        ("proposed", LocalityMapping::default().map(&a, &hw.shape)),
    ] {
        match machine.run(RunSpec::spmv(&a, &x, &mapping)).map(|out| out.into_report()) {
            Ok(r) => table.push_row(vec![
                name.into(),
                r.cycles.to_string(),
                fmt(r.seconds() * 1e6, 2),
                pct(r.l1_hit_rate),
                pct(r.activity.l2_cam.hit_rate()),
                r.activity.tsv_bytes.to_string(),
                fmt(r.normalized_workload(), 3),
            ]),
            Err(e) => {
                eprintln!("simulation failed: {e}");
                std::process::exit(1);
            }
        }
    }
    print!("{}", table.to_text());
}
