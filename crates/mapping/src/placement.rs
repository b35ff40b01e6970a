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
use std::cmp::Reverse;

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

/// The unique column-index set of each logical PE under an assignment, in
/// first-occurrence order: the PE's rows in assignment order, each row's
/// columns in CSR order.
pub fn pe_column_sets(matrix: &Csr, assignment: &RowAssignment) -> Vec<Vec<u32>> {
    column_sets(matrix, assignment, &mut Dedup::new(matrix.cols()))
}

fn column_sets(matrix: &Csr, assignment: &RowAssignment, dedup: &mut Dedup) -> Vec<Vec<u32>> {
    (0..assignment.num_pes())
        .map(|pid| {
            let rows = assignment.rows_of(pid);
            dedup.distinct(rows.iter().flat_map(|&r| matrix.row_cols(r as usize).iter().copied()))
        })
        .collect()
}

/// Deduplicates element lists through one stamp per element: an element is
/// new to the list being built when its stamp is not the current pass.
/// Linear in the elements read, with one universe-sized array for every
/// list of a hierarchy.
struct Dedup {
    stamp: Vec<u32>,
    pass: u32,
    scratch: Vec<u32>,
}

impl Dedup {
    fn new(universe: usize) -> Self {
        Dedup { stamp: vec![0; universe], pass: 0, scratch: Vec::new() }
    }

    /// The distinct elements of `items`, in first-occurrence order.
    fn distinct(&mut self, items: impl Iterator<Item = u32>) -> Vec<u32> {
        // A hierarchy makes one pass per set it builds, far below 2^32.
        self.pass += 1;
        self.scratch.clear();
        for c in items {
            let stamp = &mut self.stamp[c as usize];
            if *stamp != self.pass {
                *stamp = self.pass;
                self.scratch.push(c);
            }
        }
        // Copied out at its exact length: a hierarchy keeps every set.
        self.scratch.clone()
    }

    /// The union of `sets[m]` over `members`.
    fn union_of(&mut self, sets: &[Vec<u32>], members: &[u32]) -> Vec<u32> {
        self.distinct(members.iter().flat_map(|&m| sets[m as usize].iter().copied()))
    }
}

/// Greedily clusters `sets` into `q` groups of exactly `k = sets.len() / q`
/// members, maximizing intra-group overlap (Formula 1's heuristic).
///
/// Returns, per group, the indices of its member sets in placement order.
///
/// Each item goes to the non-full group with the highest score: its
/// overlap ratio `|s ∩ U_g| / |s|` (elements of `s` counted with
/// multiplicity) when that is positive, else `1e-6 / (1 + |U_g|)`. Ties
/// prefer the smaller union `U_g`, then the lower group id. The unions are
/// never materialized per group: every element keeps the list of groups
/// whose union holds it, so scoring an item reads the lists of its
/// elements once, and the clustering takes time linear in the total set
/// size and in those lists, plus `q` per item.
///
/// # Panics
///
/// Panics if `sets.len() != q * k`, `q == 0`, or the sets hold `2^32` or
/// more elements in total.
pub fn cluster_sets(sets: &[Vec<u32>], q: usize, k: usize) -> Vec<Vec<u32>> {
    assert!(q > 0, "need at least one group");
    assert_eq!(sets.len(), q * k, "sets must divide evenly into groups");
    let total = sets.iter().map(Vec::len).sum::<usize>();
    assert!(u32::try_from(total).is_ok(), "too many elements");

    // Place the largest sets first: they dominate the max-unique objective.
    let mut order: Vec<u32> = (0..sets.len() as u32).collect();
    order.sort_by_key(|&i| Reverse((sets[i as usize].len(), Reverse(i))));

    // Group unions as per-element holder lists, packed in one array:
    // element `c`'s list is `holders[start[c]..end[c]]`. A group joins a
    // list only when a set holding `c` is placed in it, so a list never
    // outgrows the number of times `c` occurs in `sets`, its reserved room.
    let universe = sets.iter().flatten().max().map_or(0, |&c| c as usize + 1);
    let mut start = vec![0u32; universe + 1];
    for &c in sets.iter().flatten() {
        start[c as usize + 1] += 1;
    }
    for c in 0..universe {
        start[c + 1] += start[c];
    }
    let mut end = start[..universe].to_vec();
    let mut holders = vec![0u32; total];
    let mut union_len = vec![0usize; q];
    let mut overlap = vec![0usize; q];
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); q];

    for &item in &order {
        let s = &sets[item as usize];
        for &c in s {
            let c = c as usize;
            for &g in &holders[start[c] as usize..end[c] as usize] {
                overlap[g as usize] += 1;
            }
        }

        // The best group with a positive overlap, and the zero-overlap one
        // with the smallest union (its score falls as the union grows), each
        // the lowest id among equals; `overlap` is zeroed on the way.
        let mut best_g = usize::MAX;
        let mut best_key = (f64::NEG_INFINITY, 0);
        let mut empty_g = usize::MAX;
        for g in 0..q {
            let ov = std::mem::take(&mut overlap[g]);
            if groups[g].len() >= k {
                continue;
            }
            if ov > 0 {
                // Higher score wins; ties prefer the smaller union (balances
                // the max-unique objective), then the lower group id.
                let key = (ov as f64 / s.len() as f64, usize::MAX - union_len[g]);
                if key > best_key {
                    best_key = key;
                    best_g = g;
                }
            } else if empty_g == usize::MAX || union_len[g] < union_len[empty_g] {
                empty_g = g;
            }
        }
        if empty_g != usize::MAX {
            let key = (1e-6 / (1.0 + union_len[empty_g] as f64), usize::MAX - union_len[empty_g]);
            if key > best_key || (key == best_key && empty_g < best_g) {
                best_g = empty_g;
            }
        }
        debug_assert!(best_g != usize::MAX, "there is always a non-full group");

        groups[best_g].push(item);
        for &c in s {
            let c = c as usize;
            if !holders[start[c] as usize..end[c] as usize].contains(&(best_g as u32)) {
                holders[end[c] as usize] = best_g as u32;
                end[c] += 1;
                union_len[best_g] += 1;
            }
        }
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
    let mut dedup = Dedup::new(matrix.cols());
    let pe_sets = column_sets(matrix, assignment, &mut dedup);

    // Stage A: logical PEs → product bank groups.
    let bg_members = cluster_sets(&pe_sets, shape.product_bank_groups(), shape.banks_per_bg);
    let bg_sets: Vec<Vec<u32>> = bg_members.iter().map(|m| dedup.union_of(&pe_sets, m)).collect();

    // Stage B: bank groups → vaults.
    let vault_members = cluster_sets(&bg_sets, shape.vaults(), shape.product_bgs_per_vault);

    // Stage C: vaults → cubes (identity when there is a single cube).
    let vault_order: Vec<u32> = if shape.cubes > 1 {
        let vault_sets: Vec<Vec<u32>> =
            vault_members.iter().map(|m| dedup.union_of(&bg_sets, m)).collect();
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
        for (pid, s) in sets.iter().enumerate() {
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), s.len(), "column sets must be unique");
            // First-occurrence order: the PE's columns as its rows list them.
            let mut seen = Vec::new();
            for &r in a.rows_of(pid) {
                for &c in m.row_cols(r as usize) {
                    if !seen.contains(&c) {
                        seen.push(c);
                    }
                }
            }
            assert_eq!(&seen, s);
        }
    }
}
