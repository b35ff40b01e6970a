//! Property tests for the format subsystem contracts (DESIGN.md §8):
//! every `SparseFormat` round-trips through every other format losslessly,
//! and each format's reference `spmv` is bitwise-equal to `Csr::spmv` on
//! the generator suite. BCSR's stored footprint is also checked against an
//! oracle.

use proptest::prelude::*;
use spacea_matrix::formats::{convert, BcsrFormat, FormatKind, SparseFormat, BCSR_BLOCK, PAD};
use spacea_matrix::gen::{banded, rmat, uniform_random, BandedConfig, RmatConfig, UniformConfig};
use spacea_matrix::{Coo, Csr};
use std::collections::BTreeSet;

/// One generator-suite matrix per shape family, parameterized by the
/// proptest case.
fn generated(family: u8, n: usize, seed: u64) -> Csr {
    match family % 3 {
        0 => banded(&BandedConfig {
            n,
            mean_row_nnz: 6.0,
            stddev_row_nnz: 2.0,
            seed,
            ..Default::default()
        }),
        1 => rmat(&RmatConfig { n, edges: n * 4, seed, ..Default::default() }),
        _ => uniform_random(&UniformConfig { rows: n, cols: n, row_nnz: 3, seed }),
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Prime matrix sizes, so the [`BCSR_BLOCK`] blocks leave a partial last
/// block row and block column.
const RAGGED_SIZES: [usize; 6] = [67, 71, 89, 97, 131, 193];

/// The BCSR footprint oracle: every in-bounds cell of each [`BCSR_BLOCK`]
/// block that holds a non-zero of `a`, as a unit-valued pattern.
fn bcsr_footprint(a: &Csr) -> Csr {
    let (br, bc) = BCSR_BLOCK;
    let blocks: BTreeSet<(usize, usize)> = (0..a.rows())
        .flat_map(|r| a.row_cols(r).iter().map(move |&c| (r / br, c as usize / bc)))
        .collect();
    let mut coo = Coo::new(a.rows(), a.cols());
    for (bi, bj) in blocks {
        for r in bi * br..((bi + 1) * br).min(a.rows()) {
            for c in bj * bc..((bj + 1) * bc).min(a.cols()) {
                coo.push(r, c, 1.0).unwrap();
            }
        }
    }
    coo.to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// A → B → CSR is lossless for every ordered format pair, preserving
    /// nnz order semantics (CSR equality covers arrays, not just values).
    #[test]
    fn every_format_pair_round_trips(family in 0u8..3, n in 16usize..200, seed in 0u64..1000) {
        let a = generated(family, n, seed);
        for from in FormatKind::ALL {
            let f = from.build(&a);
            prop_assert_eq!(&f.to_csr(), &a, "{} direct", from);
            for to in FormatKind::ALL {
                let g = convert(f.as_ref(), to);
                prop_assert_eq!(&g.to_csr(), &a, "{} -> {}", from, to);
            }
        }
    }

    /// Each format's reference SpMV is bitwise-equal to `Csr::spmv`.
    #[test]
    fn every_format_spmv_is_bitwise_csr(
        family in 0u8..3,
        n in 16usize..200,
        seed in 0u64..1000,
        xseed in 0u64..100,
    ) {
        let a = generated(family, n, seed);
        // A deterministic but irregular input vector, including negatives.
        let x: Vec<f64> = (0..a.cols())
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(xseed);
                (h % 1009) as f64 / 251.0 - 2.0
            })
            .collect();
        let want = bits(&a.spmv(&x));
        for kind in FormatKind::ALL {
            prop_assert_eq!(&bits(&kind.build(&a).spmv(&x)), &want, "{}", kind);
        }
    }

    /// Storage models stay coherent: positive byte counts, slots cover the
    /// nnz, and the stream names exactly the stored slots.
    #[test]
    fn storage_and_stream_models_are_coherent(family in 0u8..3, n in 16usize..200, seed in 0u64..1000) {
        let a = generated(family, n, seed);
        for kind in FormatKind::ALL {
            let f = kind.build(&a);
            prop_assert!(f.bytes() > 0, "{}", kind);
            prop_assert!(f.stored_slots() >= f.nnz(), "{}", kind);
            let stream = f.stream_rows();
            prop_assert_eq!(stream.len(), f.stored_slots(), "{}", kind);
            let live = stream.iter().filter(|&&r| r != spacea_matrix::formats::PAD).count();
            prop_assert_eq!(live, f.nnz(), "{} stream must name each nnz once", kind);
            let pattern = f.storage_pattern();
            prop_assert!(pattern.nnz() >= a.nnz(), "{}", kind);
            prop_assert_eq!((pattern.rows(), pattern.cols()), (a.rows(), a.cols()), "{}", kind);
        }
    }

    /// BCSR on matrices whose sizes leave ragged edge blocks: the stored
    /// footprint is exactly the touched blocks (clipped to the matrix), and
    /// the round-trip, bitwise-SpMV and stream contracts hold.
    #[test]
    fn bcsr_footprint_is_exactly_the_touched_blocks(
        family in 0u8..3,
        n in (0..RAGGED_SIZES.len()).prop_map(|i| RAGGED_SIZES[i]),
        seed in 0u64..1000,
    ) {
        let a = generated(family, n, seed);
        let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
        let f = BcsrFormat::from_csr(&a);
        prop_assert_eq!(&f.to_csr(), &a, "round trip");
        prop_assert_eq!(&bits(&f.spmv(&x)), &bits(&a.spmv(&x)), "spmv");
        let stream = f.stream_rows();
        prop_assert_eq!(stream.len(), f.stored_slots());
        let live = stream.iter().filter(|&&r| r != PAD).count();
        prop_assert_eq!(live, f.nnz(), "stream must name each nnz once");
        prop_assert_eq!(f.storage_pattern(), bcsr_footprint(&a), "footprint");
    }
}
