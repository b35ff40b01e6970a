//! Cycle-sampled time-series observability with bounded memory.
//!
//! The aggregate counters in `spacea-sim::stats` say *how much* each
//! component did over a whole run; this crate holds *when*. An observed
//! machine run samples its own gauges — per-vault load-queue and PE
//! occupancy, CAM hit rates, DRAM row-buffer locality, NoC and TSV traffic
//! — every N cycles ([`SamplerConfig`]) into fixed-capacity [`Series`].
//! Every gauge is a [`Metric`], a closed enum, so a misspelled gauge name
//! does not compile. When a series fills up it merges adjacent windows and
//! doubles its window length, so a billion-cycle run costs the same memory
//! as a thousand-cycle one while still preserving exact running means
//! (window merging adds counts and sums, it never re-averages).
//!
//! The collected [`Timeline`] exports to Chrome trace-event JSON that loads
//! directly in [Perfetto](https://ui.perfetto.dev): one counter track per
//! gauge (grouped per vault) plus duration slices the machine derives from
//! its event trace. `Timeline::summary` prints one line per series, and
//! [`sparkline`] renders a one-line terminal summary of any series.
//!
//! The crate holds the series, the timeline and its exporters, and
//! depends only on `spacea-sim` (for the [`Cycle`] type). Its producers —
//! the machine (`spacea-arch`), the Serpens-style HBM model
//! (`spacea-backend`) and the daemon (`spacea-serve`) — each build their
//! [`Timeline`] from their own state.

#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod sampler;
pub mod series;

pub use export::sparkline;
pub use sampler::{Metric, MetricKey, SamplerConfig, Slice, Timeline};
pub use series::{Series, Window};

/// Simulated clock tick, re-exported from `spacea-sim` so timeline
/// producers and readers need only this crate.
pub use spacea_sim::Cycle;
