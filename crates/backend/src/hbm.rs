//! A Serpens-style HBM streaming accelerator model.
//!
//! Serpens (DAC 2022) streams a sparse matrix out of HBM with one
//! processing lane per channel and accumulates partial sums in on-chip
//! URAM. Two properties dominate its performance and are what this model
//! captures:
//!
//! 1. **Channel sharding** — the packed matrix stream is split into
//!    contiguous shards, one per HBM channel, with shard boundaries set
//!    by the [`crate::Partition`] (equal rows vs equal non-zeros); the
//!    run finishes when the *slowest* channel drains, so imbalance costs
//!    real time.
//! 2. **The accumulator reorder window** — a floating-point accumulator
//!    has multi-cycle latency, so an element whose output row was touched
//!    within the last [`HbmSpec::reorder_window`] pipeline slots incurs a
//!    read-after-write stall. A row-major CSR stream is the worst case
//!    (every long row stalls on itself); SELL-C-σ's column-major slices
//!    space same-row elements `C` slots apart, which is exactly the
//!    scheduling trick Serpens implements in hardware.
//!
//! The model consumes
//! [`SparseFormat::stream_rows`](spacea_matrix::formats::SparseFormat::stream_rows)
//! — the format's own slot emission order — so the format axis changes HBM
//! cycle counts through two real mechanisms: storage footprint (bytes to
//! stream) and stream schedule (stalls). Padding slots cost bandwidth but
//! also space out live elements, the classic ELLPACK trade.

use crate::{check_dims, Backend, BackendKind, Partition, ScenarioRun, ScenarioSpec};
use spacea_gpu::csrmv::NNZ_BYTES;
use spacea_matrix::formats::PAD;
use spacea_obs::sampler::{Metric, MetricKey, Timeline};
use spacea_obs::series::Series;

/// Parameters of the HBM accelerator model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HbmSpec {
    /// HBM pseudo-channels feeding independent lanes (Serpens uses 24 for
    /// the matrix).
    pub channels: usize,
    /// Stream bandwidth per channel, bytes per accelerator cycle.
    pub channel_bytes_per_cycle: f64,
    /// Accelerator clock in Hz.
    pub freq_hz: f64,
    /// Pipeline slots an output row must stay untouched before it can be
    /// accumulated again without stalling (the fp-add latency shadow).
    pub reorder_window: usize,
    /// Penalty per reorder conflict, in cycles.
    pub stall_cycles: u64,
}

impl Default for HbmSpec {
    fn default() -> Self {
        // 24 channels × 32 B/cycle × 450 MHz ≈ 345.6 GB/s of matrix
        // stream, Serpens-scale; window 6 < SELL's C of 8, so a
        // well-interleaved stream clears the accumulator shadow.
        HbmSpec {
            channels: 24,
            channel_bytes_per_cycle: 32.0,
            freq_hz: 450.0e6,
            reorder_window: 6,
            stall_cycles: 3,
        }
    }
}

/// Per-channel accounting of one HBM run, consumed by [`hbm_timeline`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HbmDetail {
    /// Stream slots (live + padding) each channel drained.
    pub channel_slots: Vec<u64>,
    /// Bytes each channel streamed.
    pub channel_bytes: Vec<u64>,
    /// Cycles each channel took (stream + stalls).
    pub channel_cycles: Vec<u64>,
    /// Reorder-window stalls each channel hit.
    pub channel_stalls: Vec<u64>,
    /// Aggregate stream-bandwidth utilization in `[0, 1]`: bytes moved
    /// over bytes the channels could have moved while the slowest drained.
    pub utilization: f64,
}

/// The Serpens-style HBM backend (see the module docs).
pub struct HbmBackend {
    /// Accelerator parameters.
    pub spec: HbmSpec,
}

impl HbmBackend {
    /// Runs one scenario cell, returning the per-channel accounting next
    /// to the scenario report.
    ///
    /// # Errors
    ///
    /// Returns a message for dimension mismatches (the model itself
    /// cannot fault).
    pub fn run_detailed(
        &self,
        spec: &ScenarioSpec<'_>,
    ) -> Result<(ScenarioRun, HbmDetail), String> {
        check_dims(spec)?;
        let channels = self.spec.channels.max(1);
        let window = self.spec.reorder_window;
        let rows = spec.a.rows();
        let nnz = spec.a.nnz();

        let stream = spec.format.stream_rows();
        let slots_total = stream.len().max(1);
        let bytes_per_slot = spec.format.bytes() as f64 / slots_total as f64;

        // Channels own *contiguous shards of the stream* (Serpens feeds
        // each lane a contiguous slice of the packed matrix), so the
        // format's slot spacing — SELL's C-way interleaving in particular
        // — survives sharding. Row-split cuts shard boundaries so every
        // channel sees an equal share of output rows (rows counted in
        // first-appearance order, which for a row-major stream is the
        // classic contiguous row range); nnz-split balances live slots.
        let mut slots = vec![0u64; channels];
        let mut stalls = vec![0u64; channels];
        // Each channel's last `window` stream slots (PAD included: padding
        // occupies a pipeline slot and therefore spaces live elements).
        let mut recent: Vec<Vec<u32>> = vec![vec![PAD; window]; channels];
        let mut cursor = vec![0usize; channels];
        let mut seen = vec![false; rows];
        let mut rows_seen = 0usize;
        let mut live_seen = 0usize;
        for &r in &stream {
            if r != PAD && !seen[r as usize] {
                seen[r as usize] = true;
                rows_seen += 1;
            }
            let ch = match spec.partition {
                Partition::RowSplit => (rows_seen.saturating_sub(1) * channels)
                    .checked_div(rows)
                    .map_or(0, |c| c.min(channels - 1)),
                Partition::NnzSplit => {
                    (live_seen * channels).checked_div(nnz).map_or(0, |c| c.min(channels - 1))
                }
            };
            if r != PAD {
                live_seen += 1;
            }
            slots[ch] += 1;
            if window > 0 {
                if r != PAD && recent[ch].contains(&r) {
                    stalls[ch] += 1;
                }
                let at = cursor[ch];
                recent[ch][at] = r;
                cursor[ch] = (at + 1) % window;
            }
        }

        let mut cycles = vec![0u64; channels];
        let mut bytes = vec![0u64; channels];
        let mut max_cycles = 1u64;
        for ch in 0..channels {
            bytes[ch] = (slots[ch] as f64 * bytes_per_slot).round() as u64;
            let drain = (bytes[ch] as f64 / self.spec.channel_bytes_per_cycle).ceil() as u64;
            cycles[ch] = drain + stalls[ch] * self.spec.stall_cycles;
            max_cycles = max_cycles.max(cycles[ch]);
        }
        let time_s = max_cycles as f64 / self.spec.freq_hz;
        let total_bytes: u64 = bytes.iter().sum();
        let capacity = max_cycles as f64 * channels as f64 * self.spec.channel_bytes_per_cycle;
        let detail = HbmDetail {
            channel_slots: slots,
            channel_bytes: bytes,
            channel_cycles: cycles,
            channel_stalls: stalls.clone(),
            utilization: if capacity > 0.0 { total_bytes as f64 / capacity } else { 0.0 },
        };
        let run = ScenarioRun {
            y: spec.format.spmv(spec.x),
            cycles: max_cycles,
            time_s,
            stream_bytes: spec.format.bytes() as u64,
            effective_bw: (spec.a.nnz() as u64 * NNZ_BYTES) as f64 / time_s,
            bytes_per_nnz: spec.format.bytes_per_nnz(),
            reorder_stalls: stalls.iter().sum(),
        };
        Ok((run, detail))
    }
}

impl Backend for HbmBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Hbm
    }

    fn run(&self, spec: &ScenarioSpec<'_>) -> Result<ScenarioRun, String> {
        self.run_detailed(spec).map(|(run, _)| run)
    }
}

/// Builds an observability timeline from one HBM run: per-channel gauges
/// (keyed like per-vault machine gauges) plus run-level aggregates.
pub fn hbm_timeline(detail: &HbmDetail) -> Timeline {
    let channels = detail.channel_cycles.len();
    let end = detail.channel_cycles.iter().copied().max().unwrap_or(1).max(1);
    let mut series = Vec::with_capacity(3 * channels + 2);
    for ch in 0..channels {
        let mut bytes = Series::new(2, end);
        bytes.record(detail.channel_cycles[ch], detail.channel_bytes[ch] as f64);
        series.push((MetricKey::vault(Metric::HbmChannelBytes, ch), bytes));
        let mut cycles = Series::new(2, end);
        cycles.record(detail.channel_cycles[ch], detail.channel_cycles[ch] as f64);
        series.push((MetricKey::vault(Metric::HbmChannelCycles, ch), cycles));
        let mut stalls = Series::new(2, end);
        stalls.record(detail.channel_cycles[ch], detail.channel_stalls[ch] as f64);
        series.push((MetricKey::vault(Metric::HbmChannelStalls, ch), stalls));
    }
    let mut total_stalls = Series::new(2, end);
    total_stalls.record(end, detail.channel_stalls.iter().sum::<u64>() as f64);
    series.push((MetricKey::global(Metric::HbmReorderStalls), total_stalls));
    let mut util = Series::new(2, end);
    util.record(end, detail.utilization);
    series.push((MetricKey::global(Metric::HbmUtilization), util));
    Timeline { series, slices: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacea_matrix::formats::FormatKind;
    use spacea_matrix::gen::{banded, BandedConfig};
    use spacea_matrix::{suite, Csr};

    fn sample() -> Csr {
        banded(&BandedConfig { n: 200, mean_row_nnz: 16.0, seed: 7, ..Default::default() })
    }

    fn run_kind(a: &Csr, kind: FormatKind, partition: Partition) -> (ScenarioRun, HbmDetail) {
        let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
        let format = kind.build(a);
        let spec = ScenarioSpec { a, format: format.as_ref(), partition, x: &x, mapping: None };
        HbmBackend { spec: HbmSpec::default() }.run_detailed(&spec).unwrap()
    }

    #[test]
    fn sell_interleaving_beats_csr_on_stalls() {
        let a = sample();
        let (csr, _) = run_kind(&a, FormatKind::Csr, Partition::RowSplit);
        let (sell, _) = run_kind(&a, FormatKind::Sell, Partition::RowSplit);
        // A row-major CSR stream stalls on every long row; SELL's C of 8
        // exceeds the reorder window of 6, clearing the shadow.
        assert!(csr.reorder_stalls > 0, "CSR must hit the accumulator shadow");
        assert_eq!(sell.reorder_stalls, 0, "SELL-C-σ must clear the reorder window");
        assert_eq!(
            csr.y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            sell.y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn nnz_split_balances_power_law_matrices() {
        // Stanford-shaped: a few heavy rows. Row-split leaves one channel
        // holding the heavy rows; nnz-split evens out the drain time.
        let a = suite::entry_by_id(13).unwrap().generate(2048);
        let (_, row) = run_kind(&a, FormatKind::Csr, Partition::RowSplit);
        let (_, nnz) = run_kind(&a, FormatKind::Csr, Partition::NnzSplit);
        let spread = |d: &HbmDetail| {
            let max = *d.channel_slots.iter().max().unwrap() as f64;
            let mean = d.channel_slots.iter().sum::<u64>() as f64 / d.channel_slots.len() as f64;
            max / mean.max(1.0)
        };
        assert!(
            spread(&nnz) < spread(&row),
            "nnz-split spread {:.3} must beat row-split spread {:.3}",
            spread(&nnz),
            spread(&row)
        );
    }

    #[test]
    fn partitions_change_the_cycle_count() {
        let a = suite::entry_by_id(13).unwrap().generate(2048);
        let (row, _) = run_kind(&a, FormatKind::Csr, Partition::RowSplit);
        let (nnz, _) = run_kind(&a, FormatKind::Csr, Partition::NnzSplit);
        assert_ne!(row.cycles, nnz.cycles, "partitioning must be a real axis");
        assert!(nnz.cycles < row.cycles, "balancing must help a power-law matrix");
    }

    #[test]
    fn channel_accounting_is_conserved() {
        let a = sample();
        for partition in Partition::ALL {
            for kind in FormatKind::ALL {
                let (run, detail) = run_kind(&a, kind, partition);
                let slots: u64 = detail.channel_slots.iter().sum();
                let format = kind.build(&a);
                assert_eq!(slots as usize, format.stored_slots(), "{kind}/{partition}");
                assert_eq!(run.cycles, *detail.channel_cycles.iter().max().unwrap());
                assert!(detail.utilization > 0.0 && detail.utilization <= 1.0);
            }
        }
    }

    #[test]
    fn empty_matrix_still_runs() {
        let a = spacea_matrix::Coo::new(8, 8).to_csr();
        let (run, _) = run_kind(&a, FormatKind::Csr, Partition::NnzSplit);
        assert_eq!(run.y, vec![0.0; 8]);
        assert!(run.cycles >= 1);
    }
}
