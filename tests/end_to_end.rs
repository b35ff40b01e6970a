//! End-to-end integration tests: the full pipeline — suite generation,
//! mapping, cycle-level simulation, oracle validation, energy pricing —
//! across matrices, mappings and machine shapes.

use spacea::arch::{HwConfig, Machine, RunSpec};
use spacea::core::Accelerator;
use spacea::mapping::{LocalityMapping, MachineShape, MapKind, MappingStrategy, NaiveMapping};
use spacea::matrix::suite;
use spacea::model::EnergyParams;

fn x_for(n: usize) -> Vec<f64> {
    (0..n).map(|i| 0.5 + (i % 11) as f64 * 0.3).collect()
}

#[test]
fn every_suite_matrix_validates_with_both_mappings() {
    let hw = HwConfig::tiny();
    let machine = Machine::new(hw.clone());
    for entry in suite::entries() {
        let a = entry.generate(512);
        let x = x_for(a.cols());
        for (name, mapping) in [
            ("naive", NaiveMapping::default().map(&a, &hw.shape)),
            ("proposed", LocalityMapping::default().map(&a, &hw.shape)),
        ] {
            let r = machine
                .run(RunSpec::spmv(&a, &x, &mapping))
                .unwrap_or_else(|e| panic!("{} + {name}: {e}", entry.name))
                .into_report();
            assert!(r.cycles > 0);
            assert_eq!(
                r.pe_work.iter().sum::<u64>() as usize,
                a.nnz(),
                "{} + {name}: every non-zero processed exactly once",
                entry.name
            );
        }
    }
}

#[test]
fn iterative_spmv_feeds_output_back() {
    // Power-iteration style: y_{k+1} = A y_k, three rounds through the
    // accelerator with the mapping computed once.
    let entry = suite::entry_by_name("xenon2").expect("known matrix");
    let a = entry.generate(512);
    let accel = Accelerator::builder().hw_config(HwConfig::tiny()).build().unwrap();
    let mapping = accel.map(&a);

    let mut x = x_for(a.cols());
    let mut oracle = x.clone();
    for round in 0..3 {
        let run = accel.spmv_mapped(&a, &x, &mapping).expect("iteration validates");
        // Normalize to keep values in range.
        let norm = run.report.output.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-30);
        x = run.report.output.iter().map(|v| v / norm).collect();
        let oracle_next = a.spmv(&oracle);
        let onorm = oracle_next.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-30);
        oracle = oracle_next.iter().map(|v| v / onorm).collect();
        for (i, (s, o)) in x.iter().zip(&oracle).enumerate() {
            assert!((s - o).abs() < 1e-6, "round {round}, element {i}: sim {s} vs oracle {o}");
        }
    }
}

#[test]
fn multi_cube_shapes_validate() {
    let entry = suite::entry_by_name("cant").expect("known matrix");
    let a = entry.generate(512);
    let x = x_for(a.cols());
    for cubes in [1usize, 2, 4] {
        let shape =
            MachineShape { cubes, vaults_per_cube: 4, product_bgs_per_vault: 2, banks_per_bg: 2 };
        let hw = HwConfig::with_shape(shape);
        let mapping = LocalityMapping::default().map(&a, &shape);
        Machine::new(hw)
            .run(RunSpec::spmv(&a, &x, &mapping))
            .unwrap_or_else(|e| panic!("{cubes} cubes failed: {e}"));
    }
}

#[test]
fn accelerator_energy_consistent_with_report() {
    let entry = suite::entry_by_name("rma10").expect("known matrix");
    let a = entry.generate(512);
    let x = x_for(a.cols());
    let accel =
        Accelerator::builder().hw_config(HwConfig::tiny()).mapping(MapKind::Naive).build().unwrap();
    let run = accel.spmv(&a, &x).unwrap();
    // Re-pricing the activity must reproduce the breakdown exactly.
    let again = EnergyParams::default().breakdown(
        &run.report.activity,
        run.report.cycles,
        &accel.static_config(),
    );
    assert_eq!(run.energy, again);
    assert!(run.energy.total_j() > 0.0);
    assert!(run.energy.static_j > 0.0);
}

#[test]
fn sparser_cam_configuration_never_breaks_correctness() {
    // Correctness must be invariant to any performance knob.
    let entry = suite::entry_by_name("lhr71").expect("known matrix");
    let a = entry.generate(512);
    let x = x_for(a.cols());
    let shape = MachineShape::tiny();
    let mapping = LocalityMapping::default().map(&a, &shape);
    for (l1_sets, l2_sets, tsv_latency, dedup) in
        [(1usize, 1usize, 16u64, false), (4096, 8192, 1, true), (32, 2048, 4, true)]
    {
        let mut hw = HwConfig::with_shape(shape);
        hw.l1_cam.sets = l1_sets;
        hw.l2_cam.sets = l2_sets;
        hw.tsv_latency = tsv_latency;
        hw.ldq_dedup = dedup;
        Machine::new(hw).run(RunSpec::spmv(&a, &x, &mapping)).expect("validates");
    }
}

#[test]
fn report_metrics_are_internally_consistent() {
    let entry = suite::entry_by_name("consph").expect("known matrix");
    let a = entry.generate(512);
    let x = x_for(a.cols());
    let hw = HwConfig::tiny();
    let mapping = LocalityMapping::default().map(&a, &hw.shape);
    let r = Machine::new(hw.clone()).run(RunSpec::spmv(&a, &x, &mapping)).unwrap().into_report();

    assert_eq!(r.pe_work.len(), hw.shape.product_pes());
    assert!(r.normalized_workload() > 0.0 && r.normalized_workload() <= 1.0);
    assert!(r.l1_hit_rate >= 0.0 && r.l1_hit_rate <= 1.0);
    let l2_hit_rate = r.activity.l2_cam.hit_rate();
    assert!((0.0..=1.0).contains(&l2_hit_rate));
    // Each non-zero needs one product FPU op; each non-empty row one
    // accumulation op.
    let nonempty = (0..a.rows()).filter(|&i| a.row_nnz(i) > 0).count();
    assert_eq!(r.activity.fpu_ops as usize, a.nnz() + nonempty);
}
