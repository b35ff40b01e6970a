//! Cycle-sampled time-series observability with bounded memory.
//!
//! The aggregate counters in `spacea-sim::stats` say *how much* each
//! component did over a whole run; this crate records *when*: a [`Sampler`]
//! snapshots gauges — per-vault load-queue and PE occupancy, CAM hit rates,
//! DRAM row-buffer locality, NoC and TSV traffic — every N cycles into
//! fixed-capacity [`Series`]. Every gauge is a [`Metric`], a closed enum,
//! so a misspelled gauge name does not compile. When a series fills up it merges adjacent
//! windows and doubles its window length, so a billion-cycle run costs the
//! same memory as a thousand-cycle one while still preserving exact running
//! means (window merging adds counts and sums, it never re-averages).
//!
//! The collected [`Timeline`] exports to Chrome trace-event JSON that loads
//! directly in [Perfetto](https://ui.perfetto.dev): one counter track per
//! gauge (grouped per vault) plus duration slices the machine derives from
//! its event trace. `Timeline::summary` prints one line per series, and
//! [`sparkline`] renders a one-line terminal summary of any series.
//!
//! The crate deliberately depends only on `spacea-sim` (for the [`Cycle`]
//! type): any component that can expose an `Fn(&Ctx) -> f64` gauge can be
//! sampled, with `spacea-arch::machine` as the primary producer.

#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod sampler;
pub mod series;

pub use export::sparkline;
pub use sampler::{Metric, MetricKey, Sampler, SamplerConfig, Slice, Timeline};
pub use series::{Series, Window};

/// Simulated clock tick, re-exported from `spacea-sim` so probe authors
/// need only this crate.
pub use spacea_sim::Cycle;
