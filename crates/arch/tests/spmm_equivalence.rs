//! Property tests of the multi-vector batching contract: a fused
//! SpMM pass over k vectors produces, for every vector, output
//! bitwise-identical to a solo SpMV run of that vector — independent of
//! batch composition and arrival order. This is what lets the serve
//! batcher fuse concurrent requests as pure scheduling, never semantics.
//! A pass's report depends on its batch only through the width, which is
//! what lets the serve daemon simulate each (matrix, width) once.

use proptest::prelude::*;
use spacea_arch::{HwConfig, Machine, RunSpec, SimReport};
use spacea_mapping::MapKind;
use spacea_matrix::gen::{rmat, RmatConfig};
use spacea_matrix::Csr;

/// A deterministic request vector (distinct from the serve protocol's
/// generator on purpose — the contract must not depend on vector values).
fn vector(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let mut z = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
            z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            z ^= z >> 33;
            ((z % 2048) as f64 - 1024.0) / 256.0
        })
        .collect()
}

fn random_matrix(seed: u64) -> Csr {
    rmat(&RmatConfig { n: 96, edges: 600, a: 0.57, b: 0.19, c: 0.19, seed })
}

fn bits(y: &[f64]) -> Vec<u64> {
    y.iter().map(|v| v.to_bits()).collect()
}

/// IEEE-754 specials: NaN, both infinities, both zeros and a subnormal.
const SPECIALS: [f64; 6] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 5e-324];

/// A batch of `k` vectors cycling through [`SPECIALS`], each vector at
/// another phase.
fn specials(n: usize, k: usize) -> Vec<Vec<f64>> {
    (0..k).map(|v| (0..n).map(|i| SPECIALS[(i + v) % SPECIALS.len()]).collect()).collect()
}

/// Everything a report says about timing and traffic, with its `f64`
/// fields as bit patterns so equality is bitwise.
fn report_bits(r: &SimReport) -> impl PartialEq + std::fmt::Debug {
    (
        r.cycles,
        r.events_processed,
        r.activity,
        r.pe_work.clone(),
        r.l1_hit_rate.to_bits(),
        r.pe_busy_fraction.to_bits(),
        r.matrix_bank_busy_fraction.to_bits(),
        r.vector_bank_busy_fraction.to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Every fused output is bitwise the solo SpMV result.
    #[test]
    fn fused_batch_matches_solo_runs_bitwise(
        seed in 0u64..1_000,
        k in 1usize..5,
        kind_tag in 0usize..2,
    ) {
        let kind = if kind_tag == 0 { MapKind::Naive } else { MapKind::Proposed };
        let a = random_matrix(seed);
        let hw = HwConfig::tiny();
        let mapping = kind.strategy().map(&a, &hw.shape);
        let machine = Machine::new(hw);
        let xs: Vec<Vec<f64>> = (0..k as u64).map(|s| vector(a.cols(), seed ^ s)).collect();

        let fused = machine.run(RunSpec::spmm(&a, &xs, &mapping)).expect("fused pass runs");
        prop_assert_eq!(fused.outputs.len(), k);
        for (v, x) in xs.iter().enumerate() {
            let solo = machine.run(RunSpec::spmv(&a, x, &mapping)).expect("solo pass runs").into_report();
            prop_assert_eq!(
                bits(&fused.outputs[v]),
                bits(&solo.output),
                "vector {} of {} diverged under fusion", v, k
            );
            // And both agree bitwise with the reference CSR SpMV.
            prop_assert_eq!(bits(&fused.outputs[v]), bits(&a.spmv(x)));
        }
    }

    /// Rotating the batch permutes the outputs identically: arrival order
    /// never changes any individual result.
    #[test]
    fn batch_order_is_irrelevant(
        seed in 0u64..1_000,
        k in 2usize..5,
        rot in 1usize..4,
    ) {
        let a = random_matrix(seed);
        let hw = HwConfig::tiny();
        let mapping = MapKind::Proposed.strategy().map(&a, &hw.shape);
        let machine = Machine::new(hw);
        let xs: Vec<Vec<f64>> = (0..k as u64).map(|s| vector(a.cols(), seed ^ s)).collect();
        let rot = rot % k;
        let rotated: Vec<Vec<f64>> =
            (0..k).map(|v| xs[(v + rot) % k].clone()).collect();

        let base = machine.run(RunSpec::spmm(&a, &xs, &mapping)).expect("base pass runs");
        let perm = machine.run(RunSpec::spmm(&a, &rotated, &mapping)).expect("rotated pass runs");
        for v in 0..k {
            prop_assert_eq!(
                bits(&perm.outputs[v]),
                bits(&base.outputs[(v + rot) % k]),
                "rotation by {} changed vector {}", rot, v
            );
        }
    }

    /// Two passes of equal width over different vectors report the same
    /// run: seeded batches and a batch of specials alike. The serve
    /// daemon's run memo stands on this.
    #[test]
    fn equal_widths_report_equal_runs_whatever_the_values(
        seed in 0u64..1_000,
        k in 1usize..5,
        kind_tag in 0usize..2,
    ) {
        let kind = if kind_tag == 0 { MapKind::Naive } else { MapKind::Proposed };
        let a = random_matrix(seed);
        let hw = HwConfig::tiny();
        let mapping = kind.strategy().map(&a, &hw.shape);
        let machine = Machine::new(hw);
        let n = a.cols();
        let batches: [Vec<Vec<f64>>; 3] = [
            (0..k as u64).map(|s| vector(n, seed ^ s)).collect(),
            (0..k as u64).map(|s| vector(n, !seed ^ s)).collect(),
            specials(n, k),
        ];
        let mut runs = Vec::new();
        for xs in &batches {
            let run = machine.run(RunSpec::spmm(&a, xs, &mapping)).expect("pass runs");
            for (x, y) in xs.iter().zip(&run.outputs) {
                prop_assert_eq!(bits(y), bits(&a.spmv(x)));
            }
            runs.push(report_bits(&run.report));
        }
        prop_assert_eq!(&runs[0], &runs[1], "two seeded batches of width {}", k);
        prop_assert_eq!(&runs[0], &runs[2], "a seeded and a specials batch of width {}", k);
    }
}
