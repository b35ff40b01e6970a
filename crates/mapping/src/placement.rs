//! Phase II: logical PE placement (paper Section IV-C, Formula 1).
//!
//! Given the per-PE column sets from Phase I, logical PEs are clustered into
//! bank groups, bank groups into vaults, and (for multi-cube machines)
//! vaults into cubes. Each stage solves the same abstract problem: divide `p`
//! sets evenly into `q` groups of `k = p / q`, minimizing the maximum number
//! of unique elements per group — grouped sets with large overlaps keep
//! input-vector requests local to the shared L1/L2 CAM.
//!
//! The paper notes the problem is NP-hard and solves it with "a heuristic
//! algorithm similar to Algorithm 1"; [`cluster_sets`] is that greedy: items
//! are placed, largest first, into the non-full group with the highest
//! overlap ratio (falling back to the emptiest group when nothing overlaps).

use crate::{MachineShape, RowAssignment};
use spacea_matrix::Csr;
use std::collections::BTreeSet;

/// Phase II output: which logical PE occupies each physical PE slot.
///
/// Physical slots are linearized as
/// `((cube · V + vault) · L + layer_bg) · B + bank`, matching the
/// architecture crate's bank enumeration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Placement {
    slot_to_logical: Vec<u32>,
}

impl Placement {
    /// Identity placement: logical PE `i` occupies slot `i` (the naive
    /// baseline).
    pub fn identity(num_pes: usize) -> Self {
        Placement { slot_to_logical: (0..num_pes as u32).collect() }
    }

    /// Builds a placement from an explicit slot→logical table.
    ///
    /// # Panics
    ///
    /// Panics if the table is not a permutation of `0..len`.
    pub fn from_table(slot_to_logical: Vec<u32>) -> Self {
        let mut seen = vec![false; slot_to_logical.len()];
        for &l in &slot_to_logical {
            assert!(
                (l as usize) < seen.len() && !seen[l as usize],
                "placement table must be a permutation"
            );
            seen[l as usize] = true;
        }
        Placement { slot_to_logical }
    }

    /// The logical PE occupying physical slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn logical_at_slot(&self, slot: usize) -> u32 {
        self.slot_to_logical[slot]
    }

    /// Number of slots (equals the number of logical PEs).
    pub fn len(&self) -> usize {
        self.slot_to_logical.len()
    }

    /// Returns `true` for a zero-PE placement (never produced in practice).
    pub fn is_empty(&self) -> bool {
        self.slot_to_logical.is_empty()
    }
}

/// The unique column-index set of each logical PE under an assignment.
pub fn pe_column_sets(matrix: &Csr, assignment: &RowAssignment) -> Vec<Vec<u32>> {
    (0..assignment.num_pes())
        .map(|pid| {
            let mut cols: Vec<u32> = assignment
                .rows_of(pid)
                .iter()
                .flat_map(|&r| matrix.row_cols(r as usize).iter().copied())
                .collect();
            cols.sort_unstable();
            cols.dedup();
            cols
        })
        .collect()
}

/// Greedily clusters `sets` into `q` groups of exactly `k = sets.len() / q`
/// members, maximizing intra-group overlap (Formula 1's heuristic).
///
/// Returns, per group, the indices of its member sets in placement order.
///
/// # Panics
///
/// Panics if `sets.len() != q * k` or `q == 0`.
pub fn cluster_sets(sets: &[Vec<u32>], q: usize, k: usize) -> Vec<Vec<u32>> {
    assert!(q > 0, "need at least one group");
    assert_eq!(sets.len(), q * k, "sets must divide evenly into groups");

    // Place the largest sets first: they dominate the max-unique objective.
    let mut order: Vec<u32> = (0..sets.len() as u32).collect();
    order.sort_by_key(|&i| std::cmp::Reverse((sets[i as usize].len(), std::cmp::Reverse(i))));

    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); q];
    let mut unions: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); q];

    for &item in &order {
        let s = &sets[item as usize];
        let mut best_g = usize::MAX;
        let mut best_key = (f64::NEG_INFINITY, usize::MAX); // (score, -union pref via cmp)
        for g in 0..q {
            if groups[g].len() >= k {
                continue;
            }
            let overlap = s.iter().filter(|c| unions[g].contains(c)).count();
            // Any positive overlap beats every no-overlap candidate;
            // among no-overlap groups, prefer the emptiest union.
            let score = if overlap > 0 {
                overlap as f64 / s.len() as f64
            } else {
                1e-6 / (1.0 + unions[g].len() as f64)
            };
            // Higher score wins; ties prefer the smaller union (balances the
            // max-unique objective), then the lower group id (determinism).
            let key = (score, usize::MAX - unions[g].len());
            if key > best_key {
                best_key = key;
                best_g = g;
            }
        }
        debug_assert!(best_g != usize::MAX, "there is always a non-full group");
        groups[best_g].push(item);
        unions[best_g].extend(s.iter().copied());
    }
    groups
}

/// Runs the full Phase II hierarchy: PEs → bank groups → vaults → cubes, and
/// composes the result into a physical [`Placement`].
pub fn cluster_hierarchy(
    matrix: &Csr,
    assignment: &RowAssignment,
    shape: &MachineShape,
) -> Placement {
    let pe_sets = pe_column_sets(matrix, assignment);

    // Stage A: logical PEs → product bank groups.
    let bg_members = cluster_sets(&pe_sets, shape.product_bank_groups(), shape.banks_per_bg);
    let bg_sets: Vec<Vec<u32>> = bg_members.iter().map(|m| union_of(&pe_sets, m)).collect();

    // Stage B: bank groups → vaults.
    let vault_members = cluster_sets(&bg_sets, shape.vaults(), shape.product_bgs_per_vault);

    // Stage C: vaults → cubes (identity when there is a single cube).
    let vault_order: Vec<u32> = if shape.cubes > 1 {
        let vault_sets: Vec<Vec<u32>> =
            vault_members.iter().map(|m| union_of(&bg_sets, m)).collect();
        cluster_sets(&vault_sets, shape.cubes, shape.vaults_per_cube).concat()
    } else {
        (0..shape.vaults() as u32).collect()
    };

    // Compose: walk physical slots in linear order and record which logical
    // PE lands in each.
    let mut table = Vec::with_capacity(assignment.num_pes());
    for &v in &vault_order {
        for &bg in &vault_members[v as usize] {
            for &pe in &bg_members[bg as usize] {
                table.push(pe);
            }
        }
    }
    Placement::from_table(table)
}

fn union_of(sets: &[Vec<u32>], members: &[u32]) -> Vec<u32> {
    let mut u: Vec<u32> = members.iter().flat_map(|&m| sets[m as usize].iter().copied()).collect();
    u.sort_unstable();
    u.dedup();
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::assign_rows;
    use spacea_matrix::gen::{banded, BandedConfig};

    #[test]
    fn identity_placement() {
        let p = Placement::identity(4);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        assert_eq!(p.logical_at_slot(2), 2);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn from_table_rejects_duplicates() {
        Placement::from_table(vec![0, 0, 1]);
    }

    #[test]
    fn cluster_groups_overlapping_sets() {
        // Sets 0,1 share elements; sets 2,3 share elements; q=2, k=2.
        let sets = vec![vec![1, 2, 3], vec![2, 3, 4], vec![10, 11], vec![11, 12]];
        let groups = cluster_sets(&sets, 2, 2);
        for g in &groups {
            assert_eq!(g.len(), 2);
            let pair: Vec<u32> = g.to_vec();
            let both_low = pair.iter().all(|&i| i < 2);
            let both_high = pair.iter().all(|&i| i >= 2);
            assert!(both_low || both_high, "group mixes clusters: {pair:?}");
        }
    }

    #[test]
    fn cluster_respects_capacity() {
        let sets: Vec<Vec<u32>> = (0..12).map(|i| vec![i]).collect();
        let groups = cluster_sets(&sets, 4, 3);
        assert_eq!(groups.len(), 4);
        for g in &groups {
            assert_eq!(g.len(), 3);
        }
        let mut all: Vec<u32> = groups.concat();
        all.sort_unstable();
        assert_eq!(all, (0..12).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn cluster_requires_even_division() {
        cluster_sets(&[vec![0], vec![1], vec![2]], 2, 2);
    }

    #[test]
    fn hierarchy_produces_permutation() {
        let m = banded(&BandedConfig { n: 400, ..Default::default() });
        let shape = MachineShape::tiny();
        let a = assign_rows(&m, shape.product_pes(), 1e6);
        let p = cluster_hierarchy(&m, &a, &shape);
        assert_eq!(p.len(), shape.product_pes());
        // from_table already asserts the permutation property.
    }

    #[test]
    fn hierarchy_multi_cube() {
        let m = banded(&BandedConfig { n: 400, ..Default::default() });
        let shape = MachineShape {
            cubes: 2,
            vaults_per_cube: 2,
            product_bgs_per_vault: 2,
            banks_per_bg: 2,
        };
        let a = assign_rows(&m, shape.product_pes(), 1e6);
        let p = cluster_hierarchy(&m, &a, &shape);
        assert_eq!(p.len(), 16);
    }

    #[test]
    fn pe_column_sets_dedup() {
        let m = banded(&BandedConfig { n: 64, ..Default::default() });
        let a = assign_rows(&m, 4, 1e6);
        let sets = pe_column_sets(&m, &a);
        for s in &sets {
            let mut d = s.clone();
            d.dedup();
            assert_eq!(&d, s, "column sets must be sorted and unique");
        }
    }
}
