//! Mini sensitivity study: how the L2 CAM size and the TSV latency move
//! performance (the paper's Figures 7 and 9, at example scale).
//!
//! Run: `cargo run --release --example sensitivity`

use spacea::arch::{HwConfig, Machine, RunSpec};
use spacea::mapping::{LocalityMapping, MappingStrategy};
use spacea::matrix::suite;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let entry = suite::entry_by_name("consph").expect("known Table I matrix");
    let a = entry.generate(128);
    let x = vec![1.0; a.cols()];
    let base = HwConfig::tiny();
    let mapping = LocalityMapping::default().map(&a, &base.shape);

    println!("L2 CAM size sweep (consph):");
    for sets in [32usize, 256, 2048, 8192] {
        let mut hw = base.clone();
        hw.l2_cam.sets = sets;
        let r = Machine::new(hw).run(RunSpec::spmv(&a, &x, &mapping))?.into_report();
        println!(
            "  L2 sets {sets:>5} ({:>4} KB): {} cycles, L2 hit {:.1}%",
            sets * 4 * 32 / 1024,
            r.cycles,
            r.activity.l2_cam.hit_rate() * 100.0
        );
    }

    println!("TSV latency sweep (consph):");
    let mut baseline = None;
    for lat in [1u64, 2, 4, 8, 16] {
        let mut hw = base.clone();
        hw.tsv_latency = lat;
        let r = Machine::new(hw).run(RunSpec::spmv(&a, &x, &mapping))?.into_report();
        let base_cycles = *baseline.get_or_insert(r.cycles);
        println!(
            "  latency {lat:>2}: {} cycles ({:.2}x)",
            r.cycles,
            r.cycles as f64 / base_cycles as f64
        );
    }
    Ok(())
}
