//! Graph case-study workloads (BFS, CC, PageRank, SSSP) as harness jobs.
//!
//! Table III reports only the PageRank and SSSP speedups; the graph crate
//! also implements BFS and connected components as semiring SpMV
//! iterations. This experiment registers every case-study workload's SpMV
//! operand as a content-addressed harness job — so sweeps, sharding, fault
//! drills and timeline export all reach the graph workloads too — and
//! renders one row per workload × graph with its iteration count and the
//! simulated SpaceA time per sweep.

use super::context::{ExpConfig, ExpOutput, MapKind, SuiteCache};
use crate::table::{fmt, Table};
use spacea_graph::workloads::CaseStudyGraph;
use spacea_graph::{bfs, connected_components, pagerank, sssp, PageRankConfig};
use spacea_harness::{GraphOperand, JobSpec, MatrixSource};

/// The case-study workloads and the SpMV operand each one iterates on.
///
/// BFS and SSSP sweep the plain transpose (pull-style frontier/relaxation),
/// CC propagates labels over the adjacency matrix, and PageRank multiplies
/// by the column-normalized transpose.
pub const WORKLOADS: [(&str, GraphOperand); 4] = [
    ("bfs", GraphOperand::Transpose),
    ("cc", GraphOperand::Adjacency),
    ("pagerank", GraphOperand::PageRank),
    ("sssp", GraphOperand::Transpose),
];

/// Every SpMV-operand simulation the case-study workloads consume: one job
/// per graph × distinct operand (BFS and SSSP share the transpose sweep).
pub fn jobs(cfg: &ExpConfig) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for graph in [CaseStudyGraph::Wiki, CaseStudyGraph::LiveJournal] {
        for operand in [GraphOperand::Adjacency, GraphOperand::PageRank, GraphOperand::Transpose] {
            jobs.push(JobSpec::Sim {
                source: MatrixSource::Graph { graph, scale: cfg.graph_scale, operand },
                kind: MapKind::Proposed,
                hw: cfg.hw.clone(),
                energy: cfg.energy,
            });
        }
    }
    spacea_harness::dedup_jobs(jobs)
}

/// One rendered workload row.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRow {
    /// Workload name (`bfs`, `cc`, `pagerank`, `sssp`).
    pub workload: &'static str,
    /// Graph label (`WK`, `LJ`).
    pub graph: &'static str,
    /// Iterations until the workload converged.
    pub iterations: usize,
    /// Simulated SpaceA seconds for one SpMV sweep of the operand.
    pub sweep_seconds: f64,
}

impl WorkloadRow {
    /// Total simulated time: iterations × per-sweep time (operand
    /// preprocessing is offline and amortized, as in Table III).
    pub fn total_seconds(&self) -> f64 {
        self.sweep_seconds * self.iterations as f64
    }
}

/// Runs every workload on both graphs and returns the rows.
pub fn rows(cache: &mut SuiteCache) -> Vec<WorkloadRow> {
    let mut out = Vec::new();
    for graph in [CaseStudyGraph::Wiki, CaseStudyGraph::LiveJournal] {
        let scale = cache.cfg.graph_scale;
        let adj = cache.matrix_of(&MatrixSource::Graph {
            graph,
            scale,
            operand: GraphOperand::Adjacency,
        });
        for (workload, operand) in WORKLOADS {
            let iterations = match workload {
                "bfs" => bfs(&adj, 0).iterations,
                "cc" => connected_components(&adj).iterations,
                "pagerank" => pagerank(&adj, &PageRankConfig::default()).iterations,
                _ => sssp(&adj, 0).iterations,
            };
            let src = MatrixSource::Graph { graph, scale, operand };
            let sweep_seconds = cache.sim_source(&src, MapKind::Proposed).seconds();
            out.push(WorkloadRow { workload, graph: graph.label(), iterations, sweep_seconds });
        }
    }
    out
}

/// Regenerates the graph-workload summary table.
pub fn run(cache: &mut SuiteCache) -> ExpOutput {
    let rows = rows(cache);
    let mut table = Table::new(
        "Graph case-study workloads as harness jobs (BFS, CC, PR, SSSP)",
        &["Workload", "Graph", "Iterations", "us/sweep", "Total us"],
    );
    for r in &rows {
        table.push_row(vec![
            r.workload.to_string(),
            r.graph.to_string(),
            r.iterations.to_string(),
            fmt(r.sweep_seconds * 1e6, 2),
            fmt(r.total_seconds() * 1e6, 2),
        ]);
    }
    table.push_note(
        "each workload iterates one SpMV operand: bfs/sssp the transpose, cc the adjacency, \
         pagerank the column-normalized transpose",
    );
    table.push_note(format!(
        "graphs are R-MAT stand-ins scaled 1/{}; sweeps use the proposed mapping",
        cache.cfg.graph_scale
    ));
    ExpOutput { id: "graphs", table, extra_tables: vec![], headline: vec![] }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::context::ExpConfig;

    #[test]
    fn jobs_cover_both_graphs_and_dedup_shared_operands() {
        let cfg = ExpConfig::quick();
        let jobs = jobs(&cfg);
        // 2 graphs × 3 distinct operands (bfs and sssp share the transpose).
        assert_eq!(jobs.len(), 6);
    }

    #[test]
    fn every_workload_converges_and_costs_time() {
        let mut cache = SuiteCache::new(ExpConfig::quick());
        let rows = rows(&mut cache);
        assert_eq!(rows.len(), 8, "4 workloads x 2 graphs");
        for r in &rows {
            assert!(r.iterations > 0, "{} + {} never iterated", r.workload, r.graph);
            assert!(r.sweep_seconds > 0.0);
            assert!(r.total_seconds() >= r.sweep_seconds);
        }
        // BFS and SSSP simulate the same operand, so their per-sweep times
        // must come from the same cached simulation.
        let by = |w: &str, g: &str| {
            rows.iter().find(|r| r.workload == w && r.graph == g).unwrap().sweep_seconds
        };
        assert_eq!(by("bfs", "WK"), by("sssp", "WK"));
    }
}
