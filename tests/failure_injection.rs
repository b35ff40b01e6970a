//! Failure-injection tests: corrupted inputs and hostile configurations must
//! produce typed errors, never wrong answers or panics across the public API.

use spacea::arch::{HwConfig, Machine, RunSpec, SimError};
use spacea::core::Accelerator;
use spacea::mapping::{
    LocalityMapping, MachineShape, MapKind, Mapping, MappingStrategy, Placement, RowAssignment,
};
use spacea::matrix::gen::{banded, BandedConfig};
use spacea::matrix::{mmio, Csr, MatrixError};

fn small() -> Csr {
    banded(&BandedConfig { n: 96, ..Default::default() })
}

#[test]
fn mapping_that_drops_a_row_is_rejected() {
    let a = small();
    let cfg = HwConfig::tiny();
    // Hand-craft an assignment that silently drops row 0: PE work totals
    // would no longer cover the matrix; the machine must refuse before
    // producing a wrong (incomplete) output vector.
    let mut rows_of: Vec<Vec<u32>> = vec![Vec::new(); cfg.shape.product_pes()];
    for r in 1..a.rows() as u32 {
        rows_of[(r as usize) % cfg.shape.product_pes()].push(r);
    }
    let bad = Mapping {
        assignment: RowAssignment::new(rows_of, a.rows()),
        placement: Placement::identity(cfg.shape.product_pes()),
    };
    assert!(bad.assignment.validate().is_err(), "the assignment itself is detectably bad");

    // The machine checks PE count and row count; a dropped row with correct
    // totals is caught by the oracle validation instead — either way the
    // run cannot return success with a wrong vector. Here row counts match,
    // so it must fail oracle validation.
    let x = vec![1.0; a.cols()];
    match Machine::new(cfg).run(RunSpec::spmv(&a, &x, &bad)) {
        Err(SimError::ValidationFailed { .. }) => {}
        Err(other) => panic!("expected validation failure, got {other}"),
        Ok(_) => panic!("machine accepted a row-dropping mapping"),
    }
}

#[test]
fn wrong_machine_size_is_rejected() {
    let a = small();
    let other =
        MachineShape { cubes: 1, vaults_per_cube: 2, product_bgs_per_vault: 1, banks_per_bg: 2 };
    let mapping = LocalityMapping::default().map(&a, &other);
    let err =
        Machine::new(HwConfig::tiny()).run(RunSpec::spmv(&a, &[1.0; 96], &mapping)).unwrap_err();
    assert!(matches!(err, SimError::MappingMismatch(_)));
    assert!(err.to_string().contains("PEs"));
}

#[test]
fn mapping_for_wrong_matrix_is_rejected() {
    let a = small();
    let b = banded(&BandedConfig { n: 64, ..Default::default() });
    let cfg = HwConfig::tiny();
    let mapping_for_b = LocalityMapping::default().map(&b, &cfg.shape);
    let err = Machine::new(cfg).run(RunSpec::spmv(&a, &[1.0; 96], &mapping_for_b)).unwrap_err();
    assert!(matches!(err, SimError::MappingMismatch(_)));
}

#[test]
fn degenerate_configs_rejected_not_crashed() {
    let mut no_l2_ways = HwConfig::tiny();
    no_l2_ways.l2_cam.ways = 0;
    assert!(matches!(
        Accelerator::builder().hw_config(no_l2_ways).build(),
        Err(SimError::BadConfig(_))
    ));

    let mut stall_past_machine = HwConfig::tiny();
    stall_past_machine.faults.stall_vault = Some((stall_past_machine.shape.vaults(), 0));
    assert!(Accelerator::builder().hw_config(stall_past_machine).build().is_err());
}

#[test]
fn corrupted_matrix_market_streams_are_typed_errors() {
    let cases = [
        "",                                                                   // empty
        "%%MatrixMarket matrix coordinate real general\n",                    // no size line
        "%%MatrixMarket matrix coordinate real general\nx y z\n",             // junk size
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",    // out of range
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",        // missing value
        "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n", // unsupported type
    ];
    for text in cases {
        match mmio::read_str(text) {
            Err(MatrixError::Parse { .. }) => {}
            Err(other) => panic!("{text:?}: expected parse error, got {other}"),
            Ok(_) => panic!("{text:?}: corrupted stream parsed successfully"),
        }
    }
}

#[test]
fn accelerator_propagates_dimension_errors() {
    let a = small();
    let accel =
        Accelerator::builder().hw_config(HwConfig::tiny()).mapping(MapKind::Naive).build().unwrap();
    let err = accel.spmv(&a, &[1.0; 5]).unwrap_err();
    assert!(matches!(err, SimError::DimensionMismatch { expected: 96, actual: 5 }));
}

#[test]
fn error_messages_are_informative() {
    // Every error Display must mention the offending quantity.
    let e = SimError::DimensionMismatch { expected: 10, actual: 3 };
    assert!(e.to_string().contains("10") && e.to_string().contains('3'));
    let e = SimError::ValidationFailed { index: 7, simulated: 1.0, expected: 2.0 };
    assert!(e.to_string().contains('7'));
}
