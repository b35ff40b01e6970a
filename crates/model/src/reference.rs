//! Published reference constants for the baselines.
//!
//! Table III compares SpaceA against Tesseract \[4\] and GraphP \[76\] by taking
//! the speedups *claimed in their papers* ("We assume Tesseract and GraphP
//! can obtain the same speedup as claimed in their paper"). This module
//! embeds those constants, plus the host-platform specifications used by the
//! analytic CPU baseline.

/// Graph workload of the Section V-F case study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphWorkload {
    /// PageRank.
    PageRank,
    /// Single-source shortest path.
    Sssp,
}

impl std::fmt::Display for GraphWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphWorkload::PageRank => f.write_str("PR"),
            GraphWorkload::Sssp => f.write_str("SSSP"),
        }
    }
}

/// Input graph of the Section V-F case study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphDataset {
    /// The SNAP Wiki vote/talk graph ("WK").
    Wiki,
    /// The SNAP LiveJournal graph ("LJ").
    LiveJournal,
}

impl std::fmt::Display for GraphDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphDataset::Wiki => f.write_str("WK"),
            GraphDataset::LiveJournal => f.write_str("LJ"),
        }
    }
}

/// Claimed speedup over the CPU baseline for a prior accelerator (Table III
/// columns 1 and 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClaimedSpeedup {
    /// Tesseract's claimed speedup.
    pub tesseract: f64,
    /// GraphP's claimed speedup.
    pub graphp: f64,
    /// The paper's measured SpaceA speedup (for EXPERIMENTS.md comparison).
    pub spacea_paper: f64,
}

/// The Table III prior-work speedups for a workload × dataset pair.
pub fn claimed_speedups(workload: GraphWorkload, dataset: GraphDataset) -> ClaimedSpeedup {
    use GraphDataset::*;
    use GraphWorkload::*;
    match (workload, dataset) {
        (PageRank, Wiki) => ClaimedSpeedup { tesseract: 18.19, graphp: 22.58, spacea_paper: 29.73 },
        (Sssp, Wiki) => ClaimedSpeedup { tesseract: 43.70, graphp: 52.17, spacea_paper: 103.57 },
        (PageRank, LiveJournal) => {
            ClaimedSpeedup { tesseract: 21.09, graphp: 34.08, spacea_paper: 58.34 }
        }
        (Sssp, LiveJournal) => {
            ClaimedSpeedup { tesseract: 40.10, graphp: 42.83, spacea_paper: 51.47 }
        }
    }
}

/// The paper's headline results (Section V-B), used by EXPERIMENTS.md to
/// record paper-vs-measured deltas.
pub mod paper_headline {
    /// Mean speedup of SpaceA + proposed mapping over the GPU baseline.
    pub const SPEEDUP_PROPOSED: f64 = 13.54;
    /// Mean speedup of SpaceA + naive mapping over the GPU baseline.
    pub const SPEEDUP_NAIVE: f64 = 6.22;
    /// Mean energy saving of SpaceA + proposed mapping (fraction).
    pub const ENERGY_SAVING_PROPOSED: f64 = 0.8749;
    /// Mean energy saving of SpaceA + naive mapping (fraction).
    pub const ENERGY_SAVING_NAIVE: f64 = 0.7955;
    /// Mean GPU DRAM bandwidth utilization over all 15 matrices (Figure 2).
    pub const GPU_BW_UTILIZATION: f64 = 0.2708;
    /// Mean GPU ALU utilization (Figure 2).
    pub const GPU_ALU_UTILIZATION: f64 = 0.0268;
    /// Normalized workload of naive relative to proposed (Figure 6(a)).
    pub const NAIVE_NORMALIZED_WORKLOAD_RATIO: f64 = 0.81;
    /// L1 CAM hit rates, naive → proposed (Figure 6(b)).
    pub const L1_HIT_NAIVE: f64 = 0.18;
    /// L1 CAM hit rate with the proposed mapping.
    pub const L1_HIT_PROPOSED: f64 = 0.78;
    /// L2 CAM hit rates, naive → proposed (Figure 6(c)).
    pub const L2_HIT_NAIVE: f64 = 0.4709;
    /// L2 CAM hit rate with the proposed mapping.
    pub const L2_HIT_PROPOSED: f64 = 0.3193;
    /// TSV traffic of proposed relative to naive (Figure 6(d)).
    pub const TSV_TRAFFIC_RATIO: f64 = 0.3311;
    /// NoC traffic of proposed relative to naive (Figure 6(d)).
    pub const NOC_TRAFFIC_RATIO: f64 = 0.3889;
    /// Scalability speedups vs 16 cubes (Figure 10).
    pub const SCALE_32_CUBES: f64 = 1.42;
    /// Speedup of the 64-cube machine over 16 cubes.
    pub const SCALE_64_CUBES: f64 = 1.8;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_values_match_paper() {
        let s = claimed_speedups(GraphWorkload::Sssp, GraphDataset::Wiki);
        assert_eq!(s.tesseract, 43.70);
        assert_eq!(s.graphp, 52.17);
        assert_eq!(s.spacea_paper, 103.57);
    }

    #[test]
    fn spacea_beats_prior_work_in_paper() {
        for w in [GraphWorkload::PageRank, GraphWorkload::Sssp] {
            for d in [GraphDataset::Wiki, GraphDataset::LiveJournal] {
                let s = claimed_speedups(w, d);
                assert!(s.spacea_paper > s.graphp && s.graphp > s.tesseract);
            }
        }
    }

    #[test]
    fn display_labels() {
        assert_eq!(GraphWorkload::PageRank.to_string(), "PR");
        assert_eq!(GraphDataset::LiveJournal.to_string(), "LJ");
    }
}
