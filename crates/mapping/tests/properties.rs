//! Property tests for the mapping pipeline: every strategy must produce a
//! valid partition and placement on arbitrary matrices and read only the
//! sparsity pattern, and the clustering heuristic must respect its
//! structural constraints and agree exactly with a plain ordered-set
//! reference.

use proptest::prelude::*;
use spacea_mapping::algorithm1::assign_rows;
use spacea_mapping::placement::{cluster_hierarchy, cluster_sets, pe_column_sets};
use spacea_mapping::{
    ChunkedMapping, LocalityMapping, MachineShape, MappingStrategy, NaiveMapping, Placement,
    RowAssignment,
};
use spacea_matrix::{Coo, Csr};
use std::collections::BTreeSet;

fn sparse_square() -> impl Strategy<Value = Csr> {
    (2usize..48).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, 0.1f64..5.0), 0..200).prop_map(move |entries| {
            let mut coo = Coo::new(n, n);
            for (r, c, v) in entries {
                coo.push(r, c, v).expect("in range");
            }
            coo.to_csr()
        })
    })
}

/// Formula 1's greedy as first written: each group's union is an ordered
/// set probed once per element. The oracle of [`cluster_sets`].
fn reference_cluster_sets(sets: &[Vec<u32>], q: usize, k: usize) -> Vec<Vec<u32>> {
    let mut order: Vec<u32> = (0..sets.len() as u32).collect();
    order.sort_by_key(|&i| std::cmp::Reverse((sets[i as usize].len(), std::cmp::Reverse(i))));

    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); q];
    let mut unions: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); q];
    for &item in &order {
        let s = &sets[item as usize];
        let mut best_g = usize::MAX;
        let mut best_key = (f64::NEG_INFINITY, usize::MAX);
        for g in 0..q {
            if groups[g].len() >= k {
                continue;
            }
            let overlap = s.iter().filter(|c| unions[g].contains(c)).count();
            let score = if overlap > 0 {
                overlap as f64 / s.len() as f64
            } else {
                1e-6 / (1.0 + unions[g].len() as f64)
            };
            let key = (score, usize::MAX - unions[g].len());
            if key > best_key {
                best_key = key;
                best_g = g;
            }
        }
        groups[best_g].push(item);
        unions[best_g].extend(s.iter().copied());
    }
    groups
}

/// The Phase II hierarchy over sorted column sets and the reference
/// clustering: the oracle of [`cluster_hierarchy`].
fn reference_hierarchy(
    matrix: &Csr,
    assignment: &RowAssignment,
    shape: &MachineShape,
) -> Placement {
    let sorted_union = |sets: &[Vec<u32>], members: &[u32]| {
        let mut u: Vec<u32> = members.iter().flat_map(|&m| sets[m as usize].clone()).collect();
        u.sort_unstable();
        u.dedup();
        u
    };
    let pe_sets: Vec<Vec<u32>> = (0..assignment.num_pes())
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
        .collect();
    let bg_members =
        reference_cluster_sets(&pe_sets, shape.product_bank_groups(), shape.banks_per_bg);
    let bg_sets: Vec<Vec<u32>> = bg_members.iter().map(|m| sorted_union(&pe_sets, m)).collect();
    let vault_members =
        reference_cluster_sets(&bg_sets, shape.vaults(), shape.product_bgs_per_vault);
    let vault_order: Vec<u32> = if shape.cubes > 1 {
        let vault_sets: Vec<Vec<u32>> =
            vault_members.iter().map(|m| sorted_union(&bg_sets, m)).collect();
        reference_cluster_sets(&vault_sets, shape.cubes, shape.vaults_per_cube).concat()
    } else {
        (0..shape.vaults() as u32).collect()
    };
    let mut table = Vec::new();
    for &v in &vault_order {
        for &bg in &vault_members[v as usize] {
            table.extend(bg_members[bg as usize].iter().copied());
        }
    }
    Placement::from_table(table)
}

/// Two cubes of two vaults, two bank groups each: every hierarchy stage.
fn two_cube_shape() -> MachineShape {
    MachineShape { cubes: 2, vaults_per_cube: 2, product_bgs_per_vault: 2, banks_per_bg: 2 }
}

/// `a` with every value replaced by `value(i, v)` (entry index, old value).
fn revalued(a: &Csr, value: impl Fn(usize, f64) -> f64) -> Csr {
    let vals = a.vals().iter().enumerate().map(|(i, &v)| value(i, v)).collect();
    Csr::from_parts(a.rows(), a.cols(), a.row_ptr().to_vec(), a.col_idx().to_vec(), vals)
        .expect("same pattern, valid matrix")
}

/// `q * k` sets over a small universe: some empty, some with repeated
/// elements.
fn set_family() -> impl Strategy<Value = (Vec<Vec<u32>>, usize, usize)> {
    (1usize..8, 1usize..6).prop_flat_map(|(q, k)| {
        let sets = proptest::collection::vec(proptest::collection::vec(0u32..24, 0..10), q * k);
        sets.prop_map(move |sets| (sets, q, k))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn cluster_sets_matches_reference((sets, q, k) in set_family()) {
        prop_assert_eq!(cluster_sets(&sets, q, k), reference_cluster_sets(&sets, q, k));
    }

    #[test]
    fn cluster_hierarchy_matches_reference(a in sparse_square()) {
        for shape in [MachineShape::tiny(), two_cube_shape()] {
            let assignment = assign_rows(&a, shape.product_pes(), 1e6);
            prop_assert_eq!(
                cluster_hierarchy(&a, &assignment, &shape),
                reference_hierarchy(&a, &assignment, &shape)
            );
        }
    }

    #[test]
    fn strategies_read_only_the_pattern(a in sparse_square()) {
        // Unit values, scaled values, and one stored value set to an
        // explicit 0.0: the same pattern must map the same way.
        let copies = [
            revalued(&a, |_, _| 1.0),
            revalued(&a, |_, v| v * -3.5),
            revalued(&a, |i, v| if i == 0 { 0.0 } else { v }),
        ];
        for shape in [MachineShape::tiny(), two_cube_shape()] {
            let strategies: [&dyn MappingStrategy; 3] =
                [&NaiveMapping::default(), &LocalityMapping::default(), &ChunkedMapping];
            for strategy in strategies {
                let m = strategy.map(&a, &shape);
                for copy in &copies {
                    prop_assert_eq!(&strategy.map(copy, &shape), &m, "{}", strategy.name());
                }
            }
        }
    }

    #[test]
    fn every_strategy_partitions_and_places(a in sparse_square()) {
        let shape = MachineShape::tiny();
        let strategies: [&dyn MappingStrategy; 3] =
            [&NaiveMapping::default(), &LocalityMapping::default(), &ChunkedMapping];
        for strategy in strategies {
            let m = strategy.map(&a, &shape);
            prop_assert!(m.assignment.validate().is_ok(), "{} partition", strategy.name());
            prop_assert_eq!(m.placement.len(), shape.product_pes());
            // Placement is a permutation (checked by construction, but
            // verify the round trip anyway).
            let mut seen = vec![false; shape.product_pes()];
            for slot in 0..shape.product_pes() {
                let l = m.placement.logical_at_slot(slot) as usize;
                prop_assert!(!seen[l]);
                seen[l] = true;
            }
        }
    }

    #[test]
    fn workload_sums_are_invariant(a in sparse_square()) {
        // Total assigned work equals nnz for every strategy.
        let shape = MachineShape::tiny();
        for strategy in [&NaiveMapping::default() as &dyn MappingStrategy, &LocalityMapping::default(), &ChunkedMapping] {
            let m = strategy.map(&a, &shape);
            let total: usize = m.assignment.workloads(|r| a.row_nnz(r)).iter().sum();
            prop_assert_eq!(total, a.nnz(), "{}", strategy.name());
        }
    }

    #[test]
    fn cluster_sets_respects_structure(
        seed_sets in proptest::collection::vec(
            proptest::collection::vec(0u32..64, 0..12), 1..5
        ),
        q in 1usize..4,
    ) {
        // Build exactly q*k sets for some k.
        let k = seed_sets.len();
        let mut sets: Vec<Vec<u32>> = Vec::new();
        for i in 0..(q * k) {
            let mut s = seed_sets[i % k].clone();
            s.sort_unstable();
            s.dedup();
            sets.push(s);
        }
        let groups = cluster_sets(&sets, q, k);
        prop_assert_eq!(groups.len(), q);
        let mut all: Vec<u32> = Vec::new();
        for g in &groups {
            prop_assert_eq!(g.len(), k, "groups must be exactly k wide");
            all.extend(g.iter().copied());
        }
        all.sort_unstable();
        let expected: Vec<u32> = (0..(q * k) as u32).collect();
        prop_assert_eq!(all, expected, "every set placed exactly once");
    }

    #[test]
    fn pe_column_sets_cover_matrix_columns(a in sparse_square()) {
        let shape = MachineShape::tiny();
        let m = LocalityMapping::default().map(&a, &shape);
        let sets = pe_column_sets(&a, &m.assignment);
        let mut union: Vec<u32> = sets.into_iter().flatten().collect();
        union.sort_unstable();
        union.dedup();
        let mut expected: Vec<u32> = a.col_idx().to_vec();
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(union, expected);
    }
}
