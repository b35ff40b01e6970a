//! The paper's evaluation, experiment by experiment (Section V).
//!
//! Every table and figure has a module that regenerates its rows/series:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table I — the matrix suite and its statistics |
//! | [`fig2`] | Figure 2 — GPU profiling (throughput, ALU utilization) |
//! | [`fig5`] | Figure 5 — speedup & energy saving vs GPU |
//! | [`table2`] | Table II — bank-group area and power density |
//! | [`fig6`] | Figure 6 — mapping metrics (workload, hit rates, traffic) |
//! | [`fig7`] | Figure 7 — L1/L2 CAM sensitivity and area trade-off |
//! | [`fig8`] | Figure 8 — energy breakdown |
//! | [`fig9`] | Figure 9 — TSV latency sensitivity |
//! | [`fig10`] | Figure 10 — cube-count scalability |
//! | [`table3`] | Table III — graph analytics vs Tesseract/GraphP |
//! | [`graphs`] | Case-study workloads (BFS, CC, PR, SSSP) as harness jobs |
//! | [`formats`] | Scenario matrix — backend × format × partitioning cells |
//!
//! The studies behind the paper's side claims ([`ablations`],
//! [`bandwidth_table`], [`hbm_comparison`], [`ordering_study`],
//! [`utilization`]) are a second list, [`studies`].
//!
//! All experiments share a [`SuiteCache`] so matrices, mappings and
//! simulations are computed once per process. The default [`ExpConfig`]
//! scales the Table I matrices by 1/8 and the machine to 2 cubes, preserving
//! the paper's work-per-PE regime (see DESIGN.md §4).

pub mod ablations;
pub mod bandwidth_table;
pub mod context;
pub mod fig10;
pub mod fig2;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod formats;
pub mod graphs;
pub mod hbm_comparison;
pub mod ordering_study;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod utilization;

pub use context::{ExpConfig, ExpOutput, MapKind, SuiteCache};

use spacea_harness::JobSpec;

/// A registered experiment: its id, the jobs it consumes (what the
/// parallel harness pre-warms) and its table renderer.
pub struct Experiment {
    /// Output id (`"fig5"`, `"table3"`…), matching [`ExpOutput::id`].
    pub id: &'static str,
    /// Enumerates every expensive job the renderer will look up, so the
    /// harness can compute them in parallel (and cache them) up front.
    pub jobs: fn(&ExpConfig) -> Vec<JobSpec>,
    /// Renders the experiment's tables from the (pre-warmed) cache.
    pub run: fn(&mut SuiteCache) -> ExpOutput,
}

fn no_jobs(_: &ExpConfig) -> Vec<JobSpec> {
    Vec::new()
}

/// Every experiment, in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment { id: "table1", jobs: no_jobs, run: table1::run },
        Experiment { id: "fig2", jobs: fig2::jobs, run: fig2::run },
        Experiment { id: "fig5", jobs: fig5::jobs, run: fig5::run },
        Experiment { id: "table2", jobs: no_jobs, run: |_| table2::run() },
        Experiment { id: "fig6", jobs: fig6::jobs, run: fig6::run },
        Experiment { id: "fig7", jobs: fig7::jobs, run: fig7::run },
        Experiment { id: "fig8", jobs: fig8::jobs, run: fig8::run },
        Experiment { id: "fig9", jobs: fig9::jobs, run: fig9::run },
        Experiment { id: "fig10", jobs: fig10::jobs, run: fig10::run },
        Experiment { id: "table3", jobs: table3::jobs, run: table3::run },
        Experiment { id: "graphs", jobs: graphs::jobs, run: graphs::run },
        Experiment { id: "formats", jobs: formats::jobs, run: formats::run },
    ]
}

/// The studies behind the paper's side claims, in id order: `experiment
/// ID` runs them like [`registry`] entries, but the full evaluation
/// ([`all_jobs`], [`run_all`]) leaves them out.
pub fn studies() -> Vec<Experiment> {
    vec![
        Experiment { id: "ablations", jobs: ablations::jobs, run: ablations::run },
        Experiment {
            id: "bandwidth_table",
            jobs: no_jobs,
            run: |cache| bandwidth_table::run(&cache.cfg.hw),
        },
        Experiment { id: "hbm_comparison", jobs: hbm_comparison::jobs, run: hbm_comparison::run },
        Experiment { id: "ordering_study", jobs: no_jobs, run: ordering_study::run },
        Experiment { id: "utilization", jobs: utilization::jobs, run: utilization::run },
    ]
}

/// Every distinct job the full evaluation consumes, in registry order with
/// duplicates removed (fig5/fig6/fig8 share simulations).
pub fn all_jobs(cfg: &ExpConfig) -> Vec<JobSpec> {
    spacea_harness::dedup_jobs(registry().iter().flat_map(|e| (e.jobs)(cfg)).collect())
}

/// Runs every experiment in paper order and returns the rendered tables.
///
/// This is what the `all_experiments` harness binary and the EXPERIMENTS.md
/// generator call.
pub fn run_all(cache: &mut SuiteCache) -> Vec<ExpOutput> {
    registry().iter().map(|e| (e.run)(cache)).collect()
}
