//! PageRank as iterated SpMV (paper Section V-F, case-study workload "PR").

use crate::semiring::{semiring_spmv, PlusTimes};
use spacea_matrix::Csr;

/// PageRank parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankConfig {
    /// Damping factor (the canonical 0.85).
    pub damping: f64,
    /// L1 convergence threshold on the rank vector.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iterations: usize,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig { damping: 0.85, tolerance: 1e-7, max_iterations: 100 }
    }
}

/// Result of a PageRank run.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankResult {
    /// Final rank vector (sums to ~1).
    pub ranks: Vec<f64>,
    /// SpMV iterations executed.
    pub iterations: usize,
    /// Whether the tolerance was reached before the iteration cap.
    pub converged: bool,
}

/// Column-normalized transpose of an adjacency matrix: entry `(j, i)` is
/// `1 / outdeg(i)` per edge `i → j` — the PageRank iteration's SpMV operand,
/// built once (the mapping amortization argument of the paper). Shared with
/// the Table III case study and the harness job model.
pub fn pr_operand(a: &Csr) -> Csr {
    let n = a.rows();
    let mut coo = spacea_matrix::Coo::new(n, n);
    coo.reserve(a.nnz());
    for i in 0..n {
        let deg = a.row_nnz(i).max(1) as f64;
        for (j, _) in a.row(i) {
            // lint:allow(R1) transposed indices come from a validated Csr
            coo.push(j as usize, i, 1.0 / deg).expect("transposed coordinate in bounds");
        }
    }
    coo.to_csr()
}

/// Runs power-iteration PageRank on a directed adjacency matrix `a`
/// (`a[i][j] != 0` ⇔ edge `i → j`).
///
/// Each iteration is one SpMV `r' = d · Aᵀ_col-norm · r + (1-d)/n` over
/// [`pr_operand`], the exact shape SpaceA accelerates. Dangling mass is
/// redistributed uniformly.
///
/// # Panics
///
/// Panics if `a` is not square or has no rows.
#[allow(clippy::needless_range_loop)] // indexed kernels read clearer
pub fn pagerank(a: &Csr, cfg: &PageRankConfig) -> PageRankResult {
    assert_eq!(a.rows(), a.cols(), "adjacency matrix must be square");
    assert!(a.rows() > 0, "graph must have at least one vertex");
    let n = a.rows();

    let out_deg: Vec<usize> = (0..n).map(|i| a.row_nnz(i)).collect();
    let at = pr_operand(a);

    let mut r = vec![1.0 / n as f64; n];
    let mut iterations = 0;
    let mut converged = false;
    while iterations < cfg.max_iterations {
        iterations += 1;
        let dangling: f64 =
            spacea_matrix::reduce::sum_f64((0..n).filter(|&i| out_deg[i] == 0).map(|i| r[i]))
                / n as f64;
        let spread = semiring_spmv::<PlusTimes>(&at, &r);
        let base = (1.0 - cfg.damping) / n as f64;
        let mut delta = 0.0;
        let mut next = vec![0.0; n];
        for i in 0..n {
            next[i] = base + cfg.damping * (spread[i] + dangling);
            delta += (next[i] - r[i]).abs();
        }
        r = next;
        if delta < cfg.tolerance {
            converged = true;
            break;
        }
    }
    PageRankResult { ranks: r, iterations, converged }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacea_matrix::gen::{rmat, RmatConfig};
    use spacea_matrix::Coo;

    fn cycle3() -> Csr {
        // 0 → 1 → 2 → 0
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 2, 1.0).unwrap();
        coo.push(2, 0, 1.0).unwrap();
        coo.to_csr()
    }

    #[test]
    fn symmetric_cycle_ranks_equal() {
        let r = pagerank(&cycle3(), &PageRankConfig::default());
        assert!(r.converged);
        for i in 0..3 {
            assert!((r.ranks[i] - 1.0 / 3.0).abs() < 1e-6, "rank {i} = {}", r.ranks[i]);
        }
    }

    #[test]
    fn ranks_sum_to_one() {
        let g = rmat(&RmatConfig { n: 500, edges: 3000, ..Default::default() });
        let r = pagerank(&g, &PageRankConfig::default());
        let sum: f64 = r.ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "rank sum {sum}");
    }

    #[test]
    fn hub_outranks_leaf() {
        // star: 1,2,3 all point to 0.
        let mut coo = Coo::new(4, 4);
        for s in 1..4 {
            coo.push(s, 0, 1.0).unwrap();
        }
        let r = pagerank(&coo.to_csr(), &PageRankConfig::default());
        assert!(r.ranks[0] > r.ranks[1]);
    }

    #[test]
    fn iteration_cap_respected() {
        let g = rmat(&RmatConfig { n: 200, edges: 1000, ..Default::default() });
        let r = pagerank(&g, &PageRankConfig { max_iterations: 3, ..Default::default() });
        assert_eq!(r.iterations, 3);
        assert!(!r.converged);
    }

    #[test]
    fn dangling_mass_preserved() {
        // 0 → 1, vertex 1 dangles.
        let mut coo = Coo::new(2, 2);
        coo.push(0, 1, 1.0).unwrap();
        let r = pagerank(&coo.to_csr(), &PageRankConfig::default());
        let sum: f64 = r.ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }
}
