//! Table III: graph analytics case study — PageRank and SSSP on Wiki- and
//! LiveJournal-shaped graphs, SpaceA vs the CPU baseline, compared against
//! the published Tesseract and GraphP speedups.

use super::context::{ExpConfig, ExpOutput, MapKind, SuiteCache};
use crate::table::{fmt, Table};
use spacea_gpu::cpu::model_full_sweeps;
use spacea_graph::workloads::CaseStudyGraph;
use spacea_graph::{pagerank, sssp, PageRankConfig};
use spacea_harness::{GraphOperand, JobSpec, MatrixSource};
use spacea_model::reference::{claimed_speedups, GraphDataset, GraphWorkload};

/// One Table III row: the measured SpaceA speedup next to published numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseStudyRow {
    /// Workload (PR / SSSP).
    pub workload: GraphWorkload,
    /// Dataset (WK / LJ).
    pub dataset: GraphDataset,
    /// Tesseract's claimed speedup over CPU.
    pub tesseract: f64,
    /// GraphP's claimed speedup over CPU.
    pub graphp: f64,
    /// SpaceA's speedup as published in the paper.
    pub spacea_paper: f64,
    /// SpaceA's speedup measured by this reproduction.
    pub spacea_measured: f64,
}

fn operand_source(
    cache: &SuiteCache,
    graph: CaseStudyGraph,
    operand: GraphOperand,
) -> MatrixSource {
    MatrixSource::Graph { graph, scale: cache.cfg.graph_scale, operand }
}

/// The case-study simulation jobs (one per graph × SpMV operand). The
/// per-iteration SpMV time uses the proposed mapping, computed once —
/// offline preprocessing, amortized over all iterations, exactly as the
/// paper's execution model prescribes.
pub fn jobs(cfg: &ExpConfig) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for graph in [CaseStudyGraph::Wiki, CaseStudyGraph::LiveJournal] {
        for operand in [GraphOperand::PageRank, GraphOperand::Transpose] {
            jobs.push(JobSpec::Sim {
                source: MatrixSource::Graph { graph, scale: cfg.graph_scale, operand },
                kind: MapKind::Proposed,
                hw: cfg.hw.clone(),
                energy: cfg.energy,
            });
        }
    }
    jobs
}

/// Runs the full case study and returns the rows.
pub fn rows(cache: &mut SuiteCache) -> Vec<CaseStudyRow> {
    let cpu = cache.cfg.cpu_spec();
    let mut out = Vec::new();
    for (graph, dataset) in [
        (CaseStudyGraph::Wiki, GraphDataset::Wiki),
        (CaseStudyGraph::LiveJournal, GraphDataset::LiveJournal),
    ] {
        let a = cache.matrix_of(&operand_source(cache, graph, GraphOperand::Adjacency));

        // PageRank: every iteration is one full SpMV on both platforms.
        let pr = pagerank(&a, &PageRankConfig::default());
        let pr_src = operand_source(cache, graph, GraphOperand::PageRank);
        let spacea_iter = cache.sim_source(&pr_src, MapKind::Proposed).seconds();
        let spacea_pr = spacea_iter * pr.iterations as f64;
        let cpu_pr = model_full_sweeps(&cpu, &a, pr.iterations).time_s;
        out.push(make_row(GraphWorkload::PageRank, dataset, cpu_pr / spacea_pr));

        // SSSP: both platforms run full Bellman-Ford (min-plus SpMV)
        // sweeps, as the paper's SpMV formulation prescribes; the CPU's
        // relaxation sweeps run at its lower irregular-access efficiency.
        let ss = sssp(&a, 0);
        let at_src = operand_source(cache, graph, GraphOperand::Transpose);
        let spacea_sweep = cache.sim_source(&at_src, MapKind::Proposed).seconds();
        let spacea_ss = spacea_sweep * ss.iterations as f64;
        let cpu_sssp_spec =
            spacea_gpu::spec::Dgx1CpuSpec { bw_efficiency: cpu.sssp_efficiency, ..cpu };
        let cpu_ss = model_full_sweeps(&cpu_sssp_spec, &a, ss.iterations).time_s;
        out.push(make_row(GraphWorkload::Sssp, dataset, cpu_ss / spacea_ss));
    }
    out
}

fn make_row(workload: GraphWorkload, dataset: GraphDataset, measured: f64) -> CaseStudyRow {
    let c = claimed_speedups(workload, dataset);
    CaseStudyRow {
        workload,
        dataset,
        tesseract: c.tesseract,
        graphp: c.graphp,
        spacea_paper: c.spacea_paper,
        spacea_measured: measured,
    }
}

/// Regenerates Table III.
pub fn run(cache: &mut SuiteCache) -> ExpOutput {
    let rows = rows(cache);
    let mut table = Table::new(
        "Table III: speedup over CPU for PR and SSSP (WK, LJ)",
        &["Workload", "Tesseract", "GraphP", "SpaceA (paper)", "SpaceA (measured)"],
    );
    let mut headline = Vec::new();
    for r in &rows {
        table.push_row(vec![
            format!("{} + {}", r.workload, r.dataset),
            fmt(r.tesseract, 2),
            fmt(r.graphp, 2),
            fmt(r.spacea_paper, 2),
            fmt(r.spacea_measured, 2),
        ]);
        headline.push((
            format!("{} + {} speedup", r.workload, r.dataset),
            r.spacea_paper,
            r.spacea_measured,
        ));
    }
    table.push_note(
        "Tesseract / GraphP columns are their papers' claimed speedups, as in the paper",
    );
    table.push_note(format!(
        "graphs are R-MAT stand-ins scaled 1/{}; CPU baseline is an iso-scaled bandwidth model",
        cache.cfg.graph_scale
    ));
    ExpOutput { id: "table3", table, extra_tables: vec![], headline }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::context::ExpConfig;

    #[test]
    fn spacea_beats_prior_accelerators() {
        let mut cache = SuiteCache::new(ExpConfig::quick());
        let rows = rows(&mut cache);
        assert_eq!(rows.len(), 4);
        // At the miniature quick() scale the machine loses proportionally
        // more to fixed latencies than at harness scale, so the unit test
        // checks the directional claim against Tesseract; the full-scale
        // GraphP comparison is recorded by the table3 harness binary.
        for r in &rows {
            assert!(
                r.spacea_measured > r.tesseract,
                "{} + {}: measured {} must beat Tesseract's {}",
                r.workload,
                r.dataset,
                r.spacea_measured,
                r.tesseract
            );
        }
    }
}
