//! Pins the GPU model's numbers bit for bit.
//!
//! `simulate_csrmv` and `GpuBackend` are refactored without any intended
//! change in output: the L2 gather walk, the roofline and every derived
//! metric must repeat exactly. These constants were recorded from the
//! model before the refactor; a change to any of them is a model change
//! and must say so.

use spacea_backend::{Backend, GpuBackend, Partition, ScenarioSpec};
use spacea_gpu::{simulate_csrmv, TitanXpSpec};
use spacea_matrix::formats::FormatKind;
use spacea_matrix::suite;

/// `(id, dram_bytes, time_s bits, effective_read_throughput bits)` at
/// scale 256 under `TitanXpSpec::default()` (3 MiB L2).
const CSRMV_3MIB: &[(u8, u64, u64, u64)] = &[
    (1, 81_752, 4_510_970_575_080_186_028, 4_775_766_268_471_117_652),
    (7, 461_980, 4_522_221_499_684_524_648, 4_776_005_287_035_742_304),
    (12, 50_532, 4_517_612_347_163_462_905, 4_764_734_222_335_965_917),
    (14, 256_376, 4_533_395_507_305_153_332, 4_757_548_131_944_491_555),
];

/// The same four matrices with a 64 KiB L2 (`--quick`'s Titan Xp slice).
/// At scale 256 every input vector fits, so only cold misses remain.
const CSRMV_64KIB: &[(u8, u64, u64, u64)] = CSRMV_3MIB;

/// The same four matrices with a 1 KiB L2 (2 sets of 16 ways): no input
/// vector fits, so the LRU victim choice decides the miss bytes.
const CSRMV_1KIB: &[(u8, u64, u64, u64)] = &[
    (1, 84_184, 4_511_189_849_774_749_662, 4_775_579_810_618_977_409),
    (7, 522_652, 4_522_892_738_801_502_175, 4_775_228_298_170_699_632),
    (12, 87_812, 4_521_305_171_624_498_725, 4_760_941_769_934_883_133),
    (14, 467_672, 4_537_259_251_970_583_080, 4_753_647_035_075_664_037),
];

/// `(format, cycles, time_s bits, effective_bw bits)` for matrix 1 at
/// scale 256 under `TitanXpSpec::default()`.
const BACKEND_M1: &[(FormatKind, u64, u64, u64)] = &[
    (FormatKind::Csr, 618, 4_510_970_575_080_186_028, 4_775_766_268_471_117_652),
    (FormatKind::Coo, 806, 4_512_912_123_013_181_441, 4_774_258_466_647_797_579),
    (FormatKind::Bcsr, 811, 4_512_939_712_674_586_240, 4_774_230_249_632_281_615),
    (FormatKind::Sell, 686, 4_511_788_888_043_944_061, 4_775_121_325_372_443_460),
];

fn csrmv_row(spec: &TitanXpSpec, id: u8) -> (u8, u64, u64, u64) {
    let a = suite::entry_by_id(id).expect("suite id").generate(256);
    let run = simulate_csrmv(spec, &a);
    (id, run.dram_bytes, run.time_s.to_bits(), run.effective_read_throughput.to_bits())
}

#[test]
fn csrmv_repeats_bit_for_bit() {
    let l2 = |l2_bytes| TitanXpSpec { l2_bytes, ..TitanXpSpec::default() };
    for (spec, want) in
        [(l2(1024), CSRMV_1KIB), (TitanXpSpec::default(), CSRMV_3MIB), (l2(64 * 1024), CSRMV_64KIB)]
    {
        let got: Vec<_> = [1, 7, 12, 14].into_iter().map(|id| csrmv_row(&spec, id)).collect();
        assert_eq!(got, want, "L2 of {} bytes", spec.l2_bytes);
    }
}

#[test]
fn gpu_backend_repeats_bit_for_bit_in_every_format() {
    let a = suite::entry_by_id(1).expect("suite id").generate(256);
    let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    let backend = GpuBackend { spec: TitanXpSpec::default() };
    let got: Vec<_> = FormatKind::ALL
        .into_iter()
        .map(|fk| {
            let format = fk.build(&a);
            let spec = ScenarioSpec {
                a: &a,
                format: format.as_ref(),
                partition: Partition::RowSplit,
                x: &x,
                mapping: None,
            };
            let run = backend.run(&spec).expect("gpu cell runs");
            (fk, run.cycles, run.time_s.to_bits(), run.effective_bw.to_bits())
        })
        .collect();
    assert_eq!(got, BACKEND_M1);
}
