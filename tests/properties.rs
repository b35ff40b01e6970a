//! Property-based tests over the core invariants: simulator correctness on
//! arbitrary matrices, mapping partition properties, format round trips, and
//! determinism.

use proptest::prelude::*;
use spacea::arch::{HwConfig, Machine, RunSpec};
use spacea::mapping::{LocalityMapping, MappingStrategy, NaiveMapping};
use spacea::matrix::{Coo, Csr};

/// Strategy: a small random sparse matrix as (rows, cols, entries).
fn sparse_matrix() -> impl Strategy<Value = Csr> {
    (2usize..40, 2usize..40).prop_flat_map(|(rows, cols)| {
        let entry = (0..rows, 0..cols, -4.0f64..4.0);
        proptest::collection::vec(entry, 0..160).prop_map(move |entries| {
            let mut coo = Coo::new(rows, cols);
            for (r, c, v) in entries {
                coo.push(r, c, v).expect("coordinates drawn in range");
            }
            coo.to_csr()
        })
    })
}

/// Strategy: a small random *square* matrix plus a matching input vector.
fn square_system() -> impl Strategy<Value = (Csr, Vec<f64>)> {
    (2usize..32).prop_flat_map(|n| {
        let entry = (0..n, 0..n, -4.0f64..4.0);
        let mat = proptest::collection::vec(entry, 1..128).prop_map(move |entries| {
            let mut coo = Coo::new(n, n);
            for (r, c, v) in entries {
                coo.push(r, c, v).expect("in range");
            }
            coo.to_csr()
        });
        let x = proptest::collection::vec(-3.0f64..3.0, n..=n);
        (mat, x)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn simulator_matches_oracle_on_arbitrary_matrices((a, x) in square_system()) {
        let hw = HwConfig::tiny();
        let mapping = LocalityMapping::default().map(&a, &hw.shape);
        let r =
            Machine::new(hw).run(RunSpec::spmv(&a, &x, &mapping)).expect("must validate").into_report();
        let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(bits(&r.output), bits(&a.spmv(&x)));
    }

    #[test]
    fn simulation_is_deterministic((a, x) in square_system()) {
        let hw = HwConfig::tiny();
        let mapping = NaiveMapping::default().map(&a, &hw.shape);
        let r1 = Machine::new(hw.clone())
            .run(RunSpec::spmv(&a, &x, &mapping))
            .expect("run 1")
            .into_report();
        let r2 =
            Machine::new(hw).run(RunSpec::spmv(&a, &x, &mapping)).expect("run 2").into_report();
        prop_assert_eq!(r1.cycles, r2.cycles);
        prop_assert_eq!(r1.activity.tsv_bytes, r2.activity.tsv_bytes);
        prop_assert_eq!(r1.activity.noc_byte_hops, r2.activity.noc_byte_hops);
        prop_assert_eq!(r1.activity.fpu_ops, r2.activity.fpu_ops);
    }

    #[test]
    fn spmv_is_linear(a in sparse_matrix()) {
        // A(x + y) == Ax + Ay up to floating-point tolerance.
        let x: Vec<f64> = (0..a.cols()).map(|i| (i % 7) as f64 - 3.0).collect();
        let y: Vec<f64> = (0..a.cols()).map(|i| (i % 5) as f64 * 0.5).collect();
        let xy: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        let lhs = a.spmv(&xy);
        let ax = a.spmv(&x);
        let ay = a.spmv(&y);
        for i in 0..a.rows() {
            prop_assert!((lhs[i] - (ax[i] + ay[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn csr_coo_roundtrip(a in sparse_matrix()) {
        prop_assert_eq!(Csr::from_coo(&a.to_coo()), a);
    }

    #[test]
    fn transpose_is_involution(a in sparse_matrix()) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matrix_market_roundtrip(a in sparse_matrix()) {
        let text = spacea::matrix::mmio::write_string(&a);
        let back = spacea::matrix::mmio::read_str(&text).expect("own output parses");
        prop_assert_eq!(back.rows(), a.rows());
        prop_assert_eq!(back.cols(), a.cols());
        prop_assert_eq!(back.nnz(), a.nnz());
        // Values survive the decimal round trip.
        let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 + i as f64).collect();
        let (ya, yb) = (a.spmv(&x), back.spmv(&x));
        for (p, q) in ya.iter().zip(&yb) {
            prop_assert!((p - q).abs() < 1e-9);
        }
    }

    #[test]
    fn both_mappings_partition_rows(a in sparse_matrix()) {
        let shape = spacea::mapping::MachineShape::tiny();
        for mapping in [
            NaiveMapping::default().map(&a, &shape),
            LocalityMapping::default().map(&a, &shape),
        ] {
            prop_assert!(mapping.assignment.validate().is_ok());
            prop_assert_eq!(mapping.placement.len(), shape.product_pes());
        }
    }

    #[test]
    fn normalized_workload_bounded(a in sparse_matrix()) {
        let shape = spacea::mapping::MachineShape::tiny();
        let mapping = LocalityMapping::default().map(&a, &shape);
        let w = spacea::mapping::metrics::normalized_workload(&mapping.assignment, &a);
        prop_assert!(w > 0.0 && w <= 1.0 + 1e-12);
    }

    #[test]
    fn semiring_spmv_plus_times_equals_spmv(a in sparse_matrix()) {
        let x: Vec<f64> = (0..a.cols()).map(|i| (i % 9) as f64 * 0.25).collect();
        let lhs = spacea::graph::semiring_spmv::<spacea::graph::PlusTimes>(&a, &x);
        let rhs = a.spmv(&x);
        for (p, q) in lhs.iter().zip(&rhs) {
            prop_assert!((p - q).abs() < 1e-12);
        }
    }
}
