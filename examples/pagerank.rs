//! Graph analytics on SpaceA: PageRank as iterated SpMV (the paper's
//! Section V-F case study, at example scale).
//!
//! Run: `cargo run --release --example pagerank`

use spacea::arch::{HwConfig, Machine, RunSpec};
use spacea::graph::workloads::CaseStudyGraph;
use spacea::graph::{pagerank, pr_operand, PageRankConfig};
use spacea::mapping::{LocalityMapping, MappingStrategy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scaled Wiki-shaped power-law graph.
    let g = CaseStudyGraph::Wiki.generate(512);
    println!("graph: {} vertices, {} edges", g.rows(), g.nnz());

    // Numerical PageRank (the software oracle).
    let pr = pagerank(&g, &PageRankConfig::default());
    println!("pagerank converged: {} after {} iterations", pr.converged, pr.iterations);
    let mut top: Vec<(usize, f64)> = pr.ranks.iter().copied().enumerate().collect();
    top.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("ranks are finite"));
    println!("top 3 vertices: {:?}", &top[..3]);

    // One PageRank iteration is one SpMV with the column-normalized
    // transpose; SpaceA's timing for the whole run is iterations x one
    // simulated SpMV (the mapping is computed once and amortized).
    let n = g.rows();
    let operand = pr_operand(&g);

    let hw = HwConfig::tiny();
    let mapping = LocalityMapping::default().map(&operand, &hw.shape);
    let x = vec![1.0 / n as f64; n];
    let report = Machine::new(hw).run(RunSpec::spmv(&operand, &x, &mapping))?.into_report();
    println!(
        "one SpMV iteration on SpaceA: {} cycles ({:.2} us); full PageRank: {:.2} us",
        report.cycles,
        report.seconds() * 1e6,
        report.seconds() * 1e6 * pr.iterations as f64,
    );
    Ok(())
}
