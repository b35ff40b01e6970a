//! Gauge registration and cycle-cadenced sampling.
//!
//! A [`Sampler`] owns a set of gauges keyed by `(metric, vault)`
//! ([`MetricKey`]). Each gauge is a probe — any `Fn(&Ctx) -> f64` — read
//! against the producer's context every time [`Sampler::tick`] finds the
//! sampling cadence due. Samples land in one bounded [`Series`] per gauge,
//! so sampling cost and memory are flat in simulated time. A probe only
//! *reads* the context; ticking a sampler must never perturb what it
//! observes.

use crate::series::Series;
use spacea_sim::Cycle;
use std::collections::HashSet;
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
    /// NoC byte-hops per cycle since the previous sample.
    NocUtilization,
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
    /// Transient-batch retries.
    ServeRetries,
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
            Metric::NocUtilization => ("noc", "utilization"),
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
            Metric::ServeRetries => ("serve", "retries"),
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

/// Sampling cadence and per-series memory bound.
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

struct Gauge<C: ?Sized> {
    key: MetricKey,
    probe: Box<dyn Fn(&C) -> f64>,
    series: Series,
}

/// Snapshots every registered gauge each time the cadence comes due.
pub struct Sampler<C: ?Sized> {
    cfg: SamplerConfig,
    next: Cycle,
    gauges: Vec<Gauge<C>>,
    seen: HashSet<MetricKey>,
}

impl<C: ?Sized> Sampler<C> {
    /// A sampler with no gauges; the first [`Sampler::tick`] samples
    /// immediately (cycle 0 is always covered).
    pub fn new(cfg: SamplerConfig) -> Self {
        let cfg = SamplerConfig { every: cfg.every.max(1), capacity: cfg.capacity };
        Sampler { cfg, next: 0, gauges: Vec::new(), seen: HashSet::new() }
    }

    /// Registers a gauge under `key`: `probe` reads its current value from
    /// the context and must not mutate the observed state. Producers pass
    /// plain closures capturing component indices.
    ///
    /// # Panics
    ///
    /// Panics if `key` is already registered — two probes under one key
    /// would silently interleave into the same series, which is always a
    /// producer bug.
    pub fn register(&mut self, key: MetricKey, probe: impl Fn(&C) -> f64 + 'static) {
        assert!(self.seen.insert(key), "duplicate metric key {key}");
        let series = Series::new(self.cfg.capacity, self.cfg.every);
        self.gauges.push(Gauge { key, probe: Box::new(probe), series });
    }

    /// Registered gauges.
    pub fn len(&self) -> usize {
        self.gauges.len()
    }

    /// True when no gauge is registered.
    pub fn is_empty(&self) -> bool {
        self.gauges.is_empty()
    }

    /// True when cycle `t` has reached the next sampling point. Cheap —
    /// callers on a hot path can guard [`Sampler::tick`] with this.
    pub fn due(&self, t: Cycle) -> bool {
        t >= self.next
    }

    /// Samples every gauge if the cadence is due at cycle `t`; otherwise a
    /// no-op. Call from the event loop with the current simulated time.
    pub fn tick(&mut self, t: Cycle, ctx: &C) {
        if !self.due(t) {
            return;
        }
        self.sample_now(t, ctx);
        self.next = (t - t % self.cfg.every) + self.cfg.every;
    }

    /// Samples every gauge unconditionally (used for a final snapshot at
    /// run end, so short runs still produce non-empty series).
    pub fn sample_now(&mut self, t: Cycle, ctx: &C) {
        for g in &mut self.gauges {
            g.series.record(t, (g.probe)(ctx));
        }
    }

    /// Consumes the sampler into its collected series (no slices yet — the
    /// producer attaches those from its own event trace).
    pub fn into_timeline(self) -> Timeline {
        Timeline {
            series: self.gauges.into_iter().map(|g| (g.key, g.series)).collect(),
            slices: Vec::new(),
        }
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

/// Everything one observed run collected: gauge series in registration
/// order plus derived duration slices. Export with
/// [`Timeline::to_chrome_trace`] (see [`crate::export`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Timeline {
    /// Collected series, in gauge registration order.
    pub series: Vec<(MetricKey, Series)>,
    /// Derived duration slices, in start order.
    pub slices: Vec<Slice>,
}

impl Timeline {
    /// The series registered under `key`, if any.
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

    struct Ctx {
        depth: usize,
    }

    #[test]
    fn ticks_sample_on_cadence_only() {
        let mut s: Sampler<Ctx> = Sampler::new(SamplerConfig { every: 100, capacity: 16 });
        s.register(MetricKey::vault(Metric::LdqL1Occupancy, 0), |c: &Ctx| c.depth as f64);
        let mut ctx = Ctx { depth: 0 };
        for t in 0..1000u64 {
            ctx.depth = t as usize;
            s.tick(t, &ctx);
        }
        let tl = s.into_timeline();
        let series = tl.series(&MetricKey::vault(Metric::LdqL1Occupancy, 0)).unwrap();
        assert_eq!(series.total_count(), 10, "every=100 over 1000 cycles is 10 samples");
        assert_eq!(series.peak(), 900.0, "the last sample, at cycle 900, is the largest");
        assert_eq!(tl.vaults(), vec![0]);
    }

    #[test]
    fn first_tick_samples_cycle_zero() {
        let mut s: Sampler<Ctx> = Sampler::new(SamplerConfig::default());
        s.register(MetricKey::global(Metric::NocUtilization), |_: &Ctx| 7.0);
        s.tick(0, &Ctx { depth: 0 });
        let tl = s.into_timeline();
        assert_eq!(tl.series[0].1.total_count(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate metric key")]
    fn duplicate_keys_panic() {
        let mut s: Sampler<Ctx> = Sampler::new(SamplerConfig::default());
        s.register(MetricKey::vault(Metric::PePending, 1), |_: &Ctx| 0.0);
        s.register(MetricKey::vault(Metric::PePending, 1), |_: &Ctx| 1.0);
    }

    #[test]
    fn track_names_group_by_vault() {
        assert_eq!(
            MetricKey::vault(Metric::CamL1HitRate, 3).track_name(),
            "vault3/cam/l1-hit-rate"
        );
        assert_eq!(MetricKey::global(Metric::NocByteHops).track_name(), "noc/byte-hops");
    }
}
