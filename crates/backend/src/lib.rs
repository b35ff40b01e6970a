//! The `Backend` trait: every SpMV execution model behind one entrypoint.
//!
//! Before this crate, the SpaceA machine (`spacea-arch`), the Titan Xp
//! csrmv model and the DGX-1 CPU model (`spacea-gpu`) were special-cased
//! call sites in `core` and `bench`. A [`Backend`] runs one
//! [`ScenarioSpec`] — a matrix in a chosen
//! [`FormatKind`](spacea_matrix::formats::FormatKind) with a chosen
//! [`Partition`] — and returns a [`ScenarioRun`] whose output vector is
//! bitwise-equal to the `Csr::spmv` reference, which makes the
//! backend × format × partitioning grid sweepable through the harness
//! cache like any other job.
//!
//! Four backends implement the trait:
//!
//! * [`SpaceaBackend`] — the paper's machine, driven through
//!   `Machine::run(RunSpec)`; needs a [`Mapping`].
//! * [`GpuBackend`] — the Titan Xp csrmv roofline, streaming the format's
//!   storage instead of the CSR arrays.
//! * [`CpuBackend`] — a bandwidth-bound stream model of the DGX-1 host.
//! * [`hbm::HbmBackend`] — a Serpens-style HBM accelerator: the matrix is
//!   sharded across channels ([`Partition`]), each channel streams its
//!   slots at a fixed rate, and an accumulator reorder window charges a
//!   stall whenever the same output row recurs too soon — which is
//!   exactly what SELL-C-σ's row interleaving avoids (DESIGN.md §8).

#![warn(missing_docs)]

pub mod hbm;

pub use hbm::{HbmBackend, HbmDetail, HbmSpec};

use spacea_arch::{HwConfig, Machine, RunSpec, SimReport};
use spacea_gpu::csrmv::NNZ_BYTES;
use spacea_gpu::spec::Dgx1CpuSpec;
use spacea_gpu::{simulate_csrmv_with_stream, TitanXpSpec};
use spacea_mapping::Mapping;
use spacea_matrix::formats::SparseFormat;
use spacea_matrix::Csr;
use std::sync::Arc;

/// Titan Xp core clock, used to express GPU model time in cycles.
pub const GPU_CLOCK_HZ: f64 = 1.582e9;

/// DGX-1 host (Xeon E5-2698 v4) clock, used to express CPU model time in
/// cycles.
pub const CPU_CLOCK_HZ: f64 = 2.2e9;

/// How a backend shards the matrix across its parallel resources
/// (SparseP's 1D partitioning taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Partition {
    /// Equal contiguous row ranges per shard.
    RowSplit,
    /// Contiguous row ranges balanced by stored slots per shard.
    NnzSplit,
}

impl Partition {
    /// Every partitioning, in sweep order.
    pub const ALL: [Partition; 2] = [Partition::RowSplit, Partition::NnzSplit];

    /// Short name used in CLI axes, CSV cells and job labels.
    pub fn label(self) -> &'static str {
        match self {
            Partition::RowSplit => "row",
            Partition::NnzSplit => "nnz",
        }
    }

    /// Parses a [`Partition::label`] string.
    pub fn parse(s: &str) -> Option<Partition> {
        Partition::ALL.into_iter().find(|p| p.label() == s)
    }
}

impl std::fmt::Display for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The execution models the scenario matrix sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The SpaceA machine (paper Section III).
    Spacea,
    /// The Titan Xp csrmv model (paper Section II-B).
    Gpu,
    /// The DGX-1 host CPU stream model.
    Cpu,
    /// The Serpens-style HBM streaming accelerator model.
    Hbm,
}

impl BackendKind {
    /// Every backend, in sweep order.
    pub const ALL: [BackendKind; 4] =
        [BackendKind::Spacea, BackendKind::Gpu, BackendKind::Cpu, BackendKind::Hbm];

    /// Short name used in CLI axes, CSV cells and job labels.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Spacea => "spacea",
            BackendKind::Gpu => "gpu",
            BackendKind::Cpu => "cpu",
            BackendKind::Hbm => "hbm",
        }
    }

    /// Parses a [`BackendKind::label`] string.
    pub fn parse(s: &str) -> Option<BackendKind> {
        BackendKind::ALL.into_iter().find(|b| b.label() == s)
    }

    /// Whether this backend consumes a SpaceA [`Mapping`].
    pub fn needs_mapping(self) -> bool {
        matches!(self, BackendKind::Spacea)
    }

    /// Builds this backend from the machine / device parameters.
    pub fn build(self, hw: &HwConfig, gpu: &TitanXpSpec, hbm: &HbmSpec) -> Box<dyn Backend> {
        match self {
            BackendKind::Spacea => Box::new(SpaceaBackend { hw: hw.clone() }),
            BackendKind::Gpu => Box::new(GpuBackend { spec: *gpu }),
            BackendKind::Cpu => Box::new(CpuBackend { spec: Dgx1CpuSpec::default() }),
            BackendKind::Hbm => Box::new(HbmBackend { spec: *hbm }),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One cell of the scenario matrix: run `format`'s representation of `a`
/// with `partition` sharding on some backend, against input `x`.
pub struct ScenarioSpec<'a> {
    /// The canonical CSR (the bitwise reference and the mapping input).
    pub a: &'a Csr,
    /// The storage layout the backend executes.
    pub format: &'a dyn SparseFormat,
    /// How the backend shards the matrix.
    pub partition: Partition,
    /// The input vector (`len == a.cols()`).
    pub x: &'a [f64],
    /// A SpaceA mapping; required by [`BackendKind::needs_mapping`]
    /// backends, ignored by the rest.
    pub mapping: Option<&'a Mapping>,
}

/// What every backend reports for one scenario cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRun {
    /// The output vector, bitwise-equal to `Csr::spmv` on the same matrix.
    pub y: Vec<f64>,
    /// Modelled execution time in cycles of the backend's own clock.
    pub cycles: u64,
    /// Modelled execution time in seconds.
    pub time_s: f64,
    /// Bytes of matrix storage streamed (the format's footprint).
    pub stream_bytes: u64,
    /// Useful-payload throughput: `nnz × 12 B / time` (Figure 2's metric).
    pub effective_bw: f64,
    /// The format's storage bytes per logical non-zero.
    pub bytes_per_nnz: f64,
    /// Accumulator reorder-window stalls (HBM backend; 0 elsewhere).
    pub reorder_stalls: u64,
}

/// A `run(spec)`-shaped SpMV execution model (see the crate docs).
pub trait Backend {
    /// Which model this is.
    fn kind(&self) -> BackendKind;

    /// Runs one scenario cell.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the spec is unrunnable
    /// (missing mapping, dimension mismatch, simulator fault).
    fn run(&self, spec: &ScenarioSpec<'_>) -> Result<ScenarioRun, String>;
}

pub(crate) fn check_dims(spec: &ScenarioSpec<'_>) -> Result<(), String> {
    if spec.x.len() != spec.a.cols() {
        return Err(format!("input length {} != {} columns", spec.x.len(), spec.a.cols()));
    }
    if spec.format.rows() != spec.a.rows() || spec.format.cols() != spec.a.cols() {
        return Err(format!(
            "format is {}x{} but matrix is {}x{}",
            spec.format.rows(),
            spec.format.cols(),
            spec.a.rows(),
            spec.a.cols()
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// SpaceA
// ---------------------------------------------------------------------------

/// The SpaceA machine behind the [`Backend`] trait: a cycle-accurate
/// `Machine::run(RunSpec)` with the scenario's mapping. The partition axis
/// is subsumed by the mapping (row assignment *is* SpaceA's partitioning);
/// the format contributes its storage model to the stream-bytes report.
pub struct SpaceaBackend {
    /// Machine configuration.
    pub hw: HwConfig,
}

impl SpaceaBackend {
    /// Prices one SpaceA cell from the single-vector run of `spec.a` and
    /// `spec.x` under `spec.mapping` that `simulate` returns, after the
    /// dimension and mapping checks every cell gets.
    ///
    /// The machine streams the logical non-zeros whatever the format, so
    /// the run depends on the format only through the mapping: a caller
    /// may hand back one shared report for every cell whose mapping is
    /// equal (the harness memoises them). The format still prices the
    /// stream bytes.
    ///
    /// # Errors
    ///
    /// As [`Backend::run`], plus whatever `simulate` reports.
    pub fn run_with(
        spec: &ScenarioSpec<'_>,
        simulate: impl FnOnce(&Mapping) -> Result<Arc<SimReport>, String>,
    ) -> Result<ScenarioRun, String> {
        check_dims(spec)?;
        let mapping = spec.mapping.ok_or("the spacea backend requires a mapping")?;
        let report = simulate(mapping)?;
        let time_s = report.seconds();
        let effective_bw =
            if time_s > 0.0 { (spec.a.nnz() as u64 * NNZ_BYTES) as f64 / time_s } else { 0.0 };
        Ok(ScenarioRun {
            y: report.output.clone(),
            cycles: report.cycles,
            time_s,
            stream_bytes: spec.format.bytes() as u64,
            effective_bw,
            bytes_per_nnz: spec.format.bytes_per_nnz(),
            reorder_stalls: 0,
        })
    }
}

impl Backend for SpaceaBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Spacea
    }

    fn run(&self, spec: &ScenarioSpec<'_>) -> Result<ScenarioRun, String> {
        SpaceaBackend::run_with(spec, |mapping| {
            let out = Machine::new(self.hw.clone())
                .run(RunSpec::spmv(spec.a, spec.x, mapping))
                .map_err(|e| e.to_string())?;
            Ok(Arc::new(out.report))
        })
    }
}

// ---------------------------------------------------------------------------
// GPU
// ---------------------------------------------------------------------------

/// The Titan Xp csrmv roofline behind the [`Backend`] trait.
///
/// The model streams the scenario format's storage footprint in place of
/// the CSR arrays ([`simulate_csrmv_with_stream`]), so COO's extra row
/// indices and SELL/BCSR padding cost real modelled time.
pub struct GpuBackend {
    /// Device parameters.
    pub spec: TitanXpSpec,
}

impl Backend for GpuBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Gpu
    }

    fn run(&self, spec: &ScenarioSpec<'_>) -> Result<ScenarioRun, String> {
        check_dims(spec)?;
        let run = simulate_csrmv_with_stream(&self.spec, spec.a, spec.format.bytes() as u64);
        let time_s = run.time_s.max(f64::MIN_POSITIVE);
        Ok(ScenarioRun {
            y: spec.format.spmv(spec.x),
            cycles: (time_s * GPU_CLOCK_HZ).ceil() as u64,
            time_s,
            stream_bytes: spec.format.bytes() as u64,
            effective_bw: (spec.a.nnz() as u64 * NNZ_BYTES) as f64 / time_s,
            bytes_per_nnz: spec.format.bytes_per_nnz(),
            reorder_stalls: 0,
        })
    }
}

// ---------------------------------------------------------------------------
// CPU
// ---------------------------------------------------------------------------

/// A bandwidth-bound stream model of the DGX-1 host CPU: the format's
/// storage streams once, every non-zero gathers 8 B of `x` (no cache
/// credit), and `y` is read and written once per row, all at the host's
/// sustained streaming efficiency.
pub struct CpuBackend {
    /// Host parameters.
    pub spec: Dgx1CpuSpec,
}

impl Backend for CpuBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Cpu
    }

    fn run(&self, spec: &ScenarioSpec<'_>) -> Result<ScenarioRun, String> {
        check_dims(spec)?;
        let bytes =
            spec.format.bytes() as u64 + 8 * spec.a.nnz() as u64 + 16 * spec.a.rows() as u64;
        let time_s =
            (bytes as f64 / (self.spec.mem_bw * self.spec.bw_efficiency)).max(f64::MIN_POSITIVE);
        Ok(ScenarioRun {
            y: spec.format.spmv(spec.x),
            cycles: (time_s * CPU_CLOCK_HZ).ceil() as u64,
            time_s,
            stream_bytes: spec.format.bytes() as u64,
            effective_bw: (spec.a.nnz() as u64 * NNZ_BYTES) as f64 / time_s,
            bytes_per_nnz: spec.format.bytes_per_nnz(),
            reorder_stalls: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacea_mapping::MapKind;
    use spacea_matrix::formats::FormatKind;
    use spacea_matrix::gen::{banded, BandedConfig};

    fn sample() -> Csr {
        banded(&BandedConfig { n: 96, mean_row_nnz: 6.0, seed: 11, ..Default::default() })
    }

    fn input(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn labels_round_trip() {
        for b in BackendKind::ALL {
            assert_eq!(BackendKind::parse(b.label()), Some(b));
        }
        for p in Partition::ALL {
            assert_eq!(Partition::parse(p.label()), Some(p));
        }
        assert_eq!(BackendKind::parse("tpu"), None);
        assert_eq!(Partition::parse("2d"), None);
    }

    #[test]
    fn every_backend_times_every_format_and_matches_csr_bitwise() {
        let a = sample();
        let x = input(a.cols());
        let want = bits(&a.spmv(&x));
        let hw = HwConfig::tiny();
        let mapping = MapKind::Proposed.strategy().map(&a, &hw.shape);
        for bk in BackendKind::ALL {
            let backend = bk.build(&hw, &TitanXpSpec::default(), &HbmSpec::default());
            assert_eq!(backend.kind(), bk);
            for fk in FormatKind::ALL {
                let format = fk.build(&a);
                let spec = ScenarioSpec {
                    a: &a,
                    format: format.as_ref(),
                    partition: Partition::RowSplit,
                    x: &x,
                    mapping: Some(&mapping),
                };
                let run = backend.run(&spec).unwrap_or_else(|e| panic!("{bk}/{fk}: {e}"));
                assert_eq!(bits(&run.y), want, "{bk}/{fk} must be bitwise CSR");
                assert!(run.cycles > 0, "{bk}/{fk}");
                assert!(run.time_s > 0.0, "{bk}/{fk}");
                assert!(run.stream_bytes > 0, "{bk}/{fk}");
                assert!(run.effective_bw > 0.0, "{bk}/{fk}");
            }
        }
    }

    #[test]
    fn spacea_requires_a_mapping() {
        let a = sample();
        let x = input(a.cols());
        let format = FormatKind::Csr.build(&a);
        let spec = ScenarioSpec {
            a: &a,
            format: format.as_ref(),
            partition: Partition::RowSplit,
            x: &x,
            mapping: None,
        };
        let err = SpaceaBackend { hw: HwConfig::tiny() }.run(&spec).unwrap_err();
        assert!(err.contains("mapping"), "{err}");
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let a = sample();
        let format = FormatKind::Coo.build(&a);
        let x = vec![1.0; a.cols() + 1];
        let spec = ScenarioSpec {
            a: &a,
            format: format.as_ref(),
            partition: Partition::RowSplit,
            x: &x,
            mapping: None,
        };
        assert!(CpuBackend { spec: Dgx1CpuSpec::default() }.run(&spec).is_err());
    }

    #[test]
    fn gpu_model_charges_formats_with_bigger_footprints() {
        let a = sample();
        let x = input(a.cols());
        let backend = GpuBackend { spec: TitanXpSpec::default() };
        let time_of = |fk: FormatKind| {
            let format = fk.build(&a);
            let spec = ScenarioSpec {
                a: &a,
                format: format.as_ref(),
                partition: Partition::RowSplit,
                x: &x,
                mapping: None,
            };
            backend.run(&spec).map(|r| r.time_s).unwrap_or(0.0)
        };
        // COO streams 16 B/nnz against CSR's ~12: strictly slower in the
        // bandwidth-bound regime.
        assert!(time_of(FormatKind::Coo) > time_of(FormatKind::Csr));
    }
}
