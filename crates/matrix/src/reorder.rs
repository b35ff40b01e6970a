//! Matrix reordering: reverse Cuthill–McKee (RCM) bandwidth reduction.
//!
//! The SuiteSparse FEM matrices the paper evaluates are stored in
//! bandwidth-reduced orderings, which is why row order carries locality.
//! RCM lets this repo study ordering sensitivity: shuffle a matrix to
//! destroy ordering locality, then recover it — the `ordering` ablation
//! shows how much of the mapping pipeline's benefit is ordering-dependent.

use crate::{Coo, Csr};
use std::collections::VecDeque;

/// A row/column permutation: `perm[new_index] = old_index`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    perm: Vec<u32>,
}

impl Permutation {
    /// Builds a permutation from a `new → old` table.
    ///
    /// # Panics
    ///
    /// Panics if the table is not a permutation of `0..len`.
    pub fn new(perm: Vec<u32>) -> Self {
        let mut seen = vec![false; perm.len()];
        for &p in &perm {
            assert!((p as usize) < perm.len() && !seen[p as usize], "table must be a permutation");
            seen[p as usize] = true;
        }
        Permutation { perm }
    }

    /// The identity permutation.
    pub fn identity(n: usize) -> Self {
        Permutation { perm: (0..n as u32).collect() }
    }

    /// Length of the permutation.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Returns `true` for an empty permutation.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// The inverse map: `inv[old_index] = new_index`.
    pub fn inverse_table(&self) -> Vec<u32> {
        let mut inv = vec![0u32; self.perm.len()];
        for (new, &old) in self.perm.iter().enumerate() {
            inv[old as usize] = new as u32;
        }
        inv
    }

    /// Applies the permutation symmetrically: `B[i][j] = A[perm(i)][perm(j)]`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or sizes mismatch.
    pub fn apply_symmetric(&self, a: &Csr) -> Csr {
        assert_eq!(a.rows(), a.cols(), "symmetric permutation needs a square matrix");
        assert_eq!(a.rows(), self.len(), "permutation length must match the matrix");
        let inv = self.inverse_table();
        let mut coo = Coo::new(a.rows(), a.cols());
        coo.reserve(a.nnz());
        for i in 0..a.rows() {
            let ni = inv[i] as usize;
            for (j, v) in a.row(i) {
                // lint:allow(R1) permutation length is validated above
                coo.push(ni, inv[j as usize] as usize, v).expect("permuted index in bounds");
            }
        }
        coo.to_csr()
    }

    /// Permutes a vector: `out[i] = x[perm(i)]`.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch.
    pub fn apply_to_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.len(), "vector length must match");
        self.perm.iter().map(|&old| x[old as usize]).collect()
    }
}

/// The half-bandwidth of a matrix: `max |i - j|` over non-zeros.
pub fn bandwidth(a: &Csr) -> usize {
    let mut bw = 0usize;
    for i in 0..a.rows() {
        for &c in a.row_cols(i) {
            bw = bw.max((c as i64 - i as i64).unsigned_abs() as usize);
        }
    }
    bw
}

/// Computes the reverse Cuthill–McKee ordering of the symmetrized structure
/// of `a`.
///
/// Classic BFS-based bandwidth reduction: start from a minimum-degree vertex
/// of each connected component, visit neighbours in increasing-degree order,
/// and reverse the final order.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn rcm(a: &Csr) -> Permutation {
    assert_eq!(a.rows(), a.cols(), "RCM needs a square matrix");
    let n = a.rows();
    // Symmetrized adjacency (unweighted, deduped, sorted by degree later).
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for i in 0..n {
        for &j in a.row_cols(i) {
            let j = j as usize;
            if i != j {
                adj[i].push(j as u32);
                adj[j].push(i as u32);
            }
        }
    }
    for l in &mut adj {
        l.sort_unstable();
        l.dedup();
    }
    let degree = |v: usize| adj[v].len();

    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    // Deterministic component starts: lowest-degree unvisited vertex
    // (scanning ids ascending breaks ties).
    loop {
        let start = (0..n).filter(|&v| !visited[v]).min_by_key(|&v| (degree(v), v));
        let Some(start) = start else { break };
        visited[start] = true;
        queue.push_back(start as u32);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut neighbours: Vec<u32> =
                adj[v as usize].iter().copied().filter(|&u| !visited[u as usize]).collect();
            neighbours.sort_by_key(|&u| (degree(u as usize), u));
            for u in neighbours {
                visited[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    Permutation::new(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    #[test]
    fn permutation_roundtrip_on_vectors() {
        let p = Permutation::new(vec![2, 0, 1]);
        let x = vec![10.0, 20.0, 30.0];
        assert_eq!(p.apply_to_vec(&x), vec![30.0, 10.0, 20.0]);
        let inv = p.inverse_table();
        assert_eq!(inv, vec![1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "must be a permutation")]
    fn rejects_non_permutation() {
        Permutation::new(vec![0, 0, 1]);
    }

    #[test]
    fn symmetric_apply_preserves_spmv_up_to_permutation() {
        let m = crate::gen::banded(&crate::gen::BandedConfig { n: 64, ..Default::default() });
        let p = Permutation::new({
            let mut v: Vec<u32> = (0..64).collect();
            let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
            v.shuffle(&mut rng);
            v
        });
        let b = p.apply_symmetric(&m);
        let x: Vec<f64> = (0..64).map(|i| i as f64 * 0.1).collect();
        // B (P x) == P (A x): permuting the system permutes the answer.
        let px = p.apply_to_vec(&x);
        let lhs = b.spmv(&px);
        let rhs = p.apply_to_vec(&m.spmv(&x));
        for (l, r) in lhs.iter().zip(&rhs) {
            assert!((l - r).abs() < 1e-12);
        }
    }

    #[test]
    fn rcm_recovers_banded_structure() {
        // Shuffle a banded matrix, then RCM it: bandwidth should recover to
        // near the original.
        let m = crate::gen::banded(&crate::gen::BandedConfig {
            n: 256,
            mean_row_nnz: 8.0,
            band_factor: 3.0,
            ..Default::default()
        });
        let original_bw = bandwidth(&m);
        let shuffle = Permutation::new({
            let mut v: Vec<u32> = (0..256).collect();
            let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
            v.shuffle(&mut rng);
            v
        });
        let shuffled = shuffle.apply_symmetric(&m);
        assert!(bandwidth(&shuffled) > 2 * original_bw, "shuffle must destroy banding");
        let recovered = rcm(&shuffled).apply_symmetric(&shuffled);
        assert!(
            bandwidth(&recovered) < bandwidth(&shuffled) / 2,
            "RCM must substantially reduce bandwidth: {} -> {}",
            bandwidth(&shuffled),
            bandwidth(&recovered)
        );
    }

    #[test]
    fn rcm_is_a_permutation_even_with_isolated_vertices() {
        // Diagonal-only matrix: every vertex is isolated.
        let mut coo = Coo::new(5, 5);
        for i in 0..5 {
            coo.push(i, i, 1.0).unwrap();
        }
        let p = rcm(&coo.to_csr());
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn rcm_deterministic() {
        let m =
            crate::gen::rmat(&crate::gen::RmatConfig { n: 128, edges: 500, ..Default::default() });
        assert_eq!(rcm(&m), rcm(&m));
    }

    #[test]
    fn bandwidth_of_diagonal_is_zero() {
        let mut coo = Coo::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 1.0).unwrap();
        }
        assert_eq!(bandwidth(&coo.to_csr()), 0);
    }

    #[test]
    fn identity_permutation_is_noop() {
        let m = crate::gen::banded(&crate::gen::BandedConfig { n: 32, ..Default::default() });
        let p = Permutation::identity(32);
        assert_eq!(p.apply_symmetric(&m), m);
        assert!(!p.is_empty());
    }
}
