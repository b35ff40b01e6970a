//! The Section VII execution model: offload SpMV over PCIe and quantify how
//! many iterations amortize the one-time preprocessing + transfer cost.
//!
//! Stdout holds only modelled numbers (the simulated iteration and the PCIe
//! copy-out), so it is the same on every run. Set-up and iterations-to-10%
//! include the host's measured mapping time, so they go to stderr.
//!
//! Run: `cargo run --release --example offload_amortization`

use spacea::arch::HwConfig;
use spacea::core::offload::{offload_spmv, PcieModel};
use spacea::core::Accelerator;
use spacea::matrix::suite;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let accel = Accelerator::builder().hw_config(HwConfig::tiny()).build()?;
    let pcie = PcieModel::default();

    println!("{:<20} {:>12} {:>12}", "matrix", "iter (us)", "copy-out(us)");
    eprintln!("{:<20} {:>12} {:>14}  (host-measured)", "matrix", "setup (us)", "iters to 10%");
    for name in ["bcsstk32", "pwtk", "webbase-1M"] {
        let entry = suite::entry_by_name(name).expect("known Table I matrix");
        let a = entry.generate(512);
        let x = vec![1.0; a.cols()];
        let r = offload_spmv(&accel, &pcie, &a, &x)?;
        let needed =
            r.amortization_iterations(0.1).map(|n| n.to_string()).unwrap_or_else(|| "1".into());
        println!("{:<20} {:>12.2} {:>12.2}", name, r.iteration_s * 1e6, r.transfer_out_s * 1e6);
        eprintln!("{:<20} {:>12.1} {:>14}", name, r.setup_s() * 1e6, needed);
    }
    println!();
    println!("the paper's argument (Sections I and VII): iterative applications");
    println!("reuse the same matrix across many SpMV runs, so the mapping and");
    println!("PCIe transfer are one-time costs that amortize away");
    Ok(())
}
