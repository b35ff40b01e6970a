//! What a timeline is made of: gauge identities, the sampling cadence, and
//! the series and slices a producer collects.
//!
//! Each producer samples its own gauges. The machine (`spacea-arch`)
//! reads its state on a [`SamplerConfig`] cadence, and the HBM model and
//! the daemon record from their own accounting. Every gauge is keyed by
//! `(metric, vault)` ([`MetricKey`]), and its samples land in one bounded
//! [`Series`], so sampling memory is flat in simulated time.

use crate::series::Series;
use spacea_sim::Cycle;
use std::fmt;

/// Every gauge a timeline publishes, one variant per `(component, name)`
/// pair, so a misspelled gauge fails to compile.
///
/// The machine (`spacea-arch`) publishes the `ldq`, `pe`, `cam`, `dram` and
/// `tsv` gauges per vault and the `noc` and `engine` gauges machine-wide.
/// `spacea-backend`'s Serpens-style HBM model publishes the `hbm` gauges:
/// per-channel stream accounting (one channel per vault slot) plus
/// run-level aggregates. The `spacea-serve` daemon publishes the `serve`
/// gauges: per-request queue latency, the width and cost of each fused
/// batch pass, and the request-lifecycle fault counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Entries in a vault's L1 load queues.
    LdqL1Occupancy,
    /// Entries in a vault's L2 load queue.
    LdqL2Occupancy,
    /// Age in cycles of a vault's longest-waiting load-queue entry.
    LdqQueueAge,
    /// Entries a vault's PEs hold waiting on an outstanding X request.
    PePending,
    /// A vault's L1 CAM hit rate.
    CamL1HitRate,
    /// A vault's L2 CAM hit rate.
    CamL2HitRate,
    /// A vault's DRAM row-buffer hit rate.
    DramRowHitRate,
    /// Bytes a vault's TSV has moved.
    TsvBytes,
    /// Byte-hops over every NoC and the SerDes links.
    NocByteHops,
    /// Pending events in the calendar queue.
    EngineQueueDepth,
    /// Bytes an HBM channel streamed.
    HbmChannelBytes,
    /// Cycles an HBM channel took (stream plus stalls).
    HbmChannelCycles,
    /// Reorder-window stalls an HBM channel hit.
    HbmChannelStalls,
    /// Reorder-window stalls over every HBM channel.
    HbmReorderStalls,
    /// Aggregate HBM stream-bandwidth utilization.
    HbmUtilization,
    /// A request's admission-queue wait, in microseconds.
    ServeQueueWaitUs,
    /// Requests fused into one batch pass.
    ServeBatchSize,
    /// Simulated cycles per request of a batch pass.
    ServeCyclesPerRequest,
    /// Admission-queue depth.
    ServeQueueDepth,
    /// Load sheds (admission rejections).
    ServeShed,
    /// Deadline cancellations.
    ServeDeadlineMiss,
    /// Age of a batch's longest-waiting request at execution, in
    /// microseconds.
    ServeQueueAgeUs,
}

impl Metric {
    /// The component family (`"ldq"`, `"cam"`, `"hbm"`, `"serve"`…).
    pub fn component(self) -> &'static str {
        self.parts().0
    }

    /// The metric name within its component (`"l1-occupancy"`…).
    pub fn name(self) -> &'static str {
        self.parts().1
    }

    fn parts(self) -> (&'static str, &'static str) {
        match self {
            Metric::LdqL1Occupancy => ("ldq", "l1-occupancy"),
            Metric::LdqL2Occupancy => ("ldq", "l2-occupancy"),
            Metric::LdqQueueAge => ("ldq", "queue-age"),
            Metric::PePending => ("pe", "pending"),
            Metric::CamL1HitRate => ("cam", "l1-hit-rate"),
            Metric::CamL2HitRate => ("cam", "l2-hit-rate"),
            Metric::DramRowHitRate => ("dram", "row-hit-rate"),
            Metric::TsvBytes => ("tsv", "bytes"),
            Metric::NocByteHops => ("noc", "byte-hops"),
            Metric::EngineQueueDepth => ("engine", "queue-depth"),
            Metric::HbmChannelBytes => ("hbm", "channel-bytes"),
            Metric::HbmChannelCycles => ("hbm", "channel-cycles"),
            Metric::HbmChannelStalls => ("hbm", "channel-stalls"),
            Metric::HbmReorderStalls => ("hbm", "reorder-stalls"),
            Metric::HbmUtilization => ("hbm", "utilization"),
            Metric::ServeQueueWaitUs => ("serve", "queue-wait-us"),
            Metric::ServeBatchSize => ("serve", "batch-size"),
            Metric::ServeCyclesPerRequest => ("serve", "cycles-per-request"),
            Metric::ServeQueueDepth => ("serve", "queue-depth"),
            Metric::ServeShed => ("serve", "shed"),
            Metric::ServeDeadlineMiss => ("serve", "deadline-miss"),
            Metric::ServeQueueAgeUs => ("serve", "queue-age-us"),
        }
    }
}

/// Identity of one gauge: which [`Metric`], on which vault (if any).
///
/// A key is built from a [`Metric`], never from strings:
///
/// ```
/// use spacea_obs::{Metric, MetricKey};
/// let key = MetricKey::global(Metric::TsvBytes);
/// assert_eq!(key.track_name(), "tsv/bytes");
/// ```
///
/// so a misspelled gauge does not compile:
///
/// ```compile_fail
/// use spacea_obs::{Metric, MetricKey};
/// let key = MetricKey::global("tvs", "bytes");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricKey {
    /// The gauge.
    pub metric: Metric,
    /// Global vault id for per-vault gauges, `None` for machine-wide ones.
    pub vault: Option<u32>,
}

impl MetricKey {
    /// A per-vault gauge key.
    pub fn vault(metric: Metric, vault: usize) -> Self {
        MetricKey { metric, vault: Some(vault as u32) }
    }

    /// A machine-wide gauge key.
    pub fn global(metric: Metric) -> Self {
        MetricKey { metric, vault: None }
    }

    /// The Perfetto counter-track name (`"vault3/ldq/l1-occupancy"`), one
    /// track per vault.
    pub fn track_name(&self) -> String {
        let (component, name) = (self.metric.component(), self.metric.name());
        match self.vault {
            Some(v) => format!("vault{v}/{component}/{name}"),
            None => format!("{component}/{name}"),
        }
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.track_name())
    }
}

/// Sampling cadence and per-series memory bound of an observed machine
/// run (`RunSpec::observed` in `spacea-arch`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerConfig {
    /// Sample every N cycles (clamped to ≥ 1).
    pub every: Cycle,
    /// Maximum windows per series; on overflow the series downsamples.
    pub capacity: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig { every: 4096, capacity: 256 }
    }
}

/// A duration slice on a vault's timeline track, derived by the producer
/// from its event trace (e.g. X-request issue → response arrival).
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    /// Track the slice belongs to (`None` = the machine-wide track).
    pub vault: Option<u32>,
    /// Slice label (`"X block 12"`).
    pub name: String,
    /// First cycle of the slice.
    pub start: Cycle,
    /// One past the last cycle of the slice (`end ≥ start`).
    pub end: Cycle,
}

/// Everything one observed run collected: gauge series in the producer's
/// publication order plus derived duration slices. Export with
/// [`Timeline::to_chrome_trace`] (see [`crate::export`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Timeline {
    /// Collected series, in publication order.
    pub series: Vec<(MetricKey, Series)>,
    /// Derived duration slices, in start order.
    pub slices: Vec<Slice>,
}

impl Timeline {
    /// The series published under `key`, if any.
    pub fn series(&self, key: &MetricKey) -> Option<&Series> {
        self.series.iter().find(|(k, _)| k == key).map(|(_, s)| s)
    }

    /// Global vault ids that have at least one per-vault series.
    pub fn vaults(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.series.iter().filter_map(|(k, _)| k.vault).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn track_names_group_by_vault() {
        assert_eq!(
            MetricKey::vault(Metric::CamL1HitRate, 3).track_name(),
            "vault3/cam/l1-hit-rate"
        );
        assert_eq!(MetricKey::global(Metric::NocByteHops).track_name(), "noc/byte-hops");
    }
}
