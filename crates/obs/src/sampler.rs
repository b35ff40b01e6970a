//! Gauge registration and cycle-cadenced sampling.
//!
//! A [`Sampler`] owns a registry of gauges keyed by
//! `(component, vault, name)` ([`MetricKey`]). Each gauge is a probe —
//! any `Fn(&Ctx) -> f64` — read against the producer's context every time
//! [`Sampler::tick`] finds the sampling cadence due. Samples land in one
//! bounded [`Series`] per gauge, so sampling cost and memory are flat in
//! simulated time. A probe only *reads* the context; ticking a sampler must
//! never perturb what it observes.

use crate::series::Series;
use spacea_sim::Cycle;
use std::collections::HashSet;
use std::fmt;

/// Identity of one gauge: which component, on which vault (if any), which
/// metric.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricKey {
    /// Component family (`"ldq"`, `"cam"`, `"dram"`, `"tsv"`, `"noc"`…).
    pub component: String,
    /// Global vault id for per-vault gauges, `None` for machine-wide ones.
    pub vault: Option<u32>,
    /// Metric name within the component (`"l1-occupancy"`, `"hit-rate"`…).
    pub name: String,
}

impl MetricKey {
    /// A per-vault gauge key.
    pub fn vault(component: &str, vault: usize, name: &str) -> Self {
        MetricKey { component: component.into(), vault: Some(vault as u32), name: name.into() }
    }

    /// A machine-wide gauge key.
    pub fn global(component: &str, name: &str) -> Self {
        MetricKey { component: component.into(), vault: None, name: name.into() }
    }

    /// The Perfetto counter-track name (`"vault3/ldq/l1-occupancy"`), one
    /// track per vault.
    pub fn track_name(&self) -> String {
        match self.vault {
            Some(v) => format!("vault{v}/{}/{}", self.component, self.name),
            None => format!("{}/{}", self.component, self.name),
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
        assert!(self.seen.insert(key.clone()), "duplicate metric key {key}");
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
        s.register(MetricKey::vault("ldq", 0, "occupancy"), |c: &Ctx| c.depth as f64);
        let mut ctx = Ctx { depth: 0 };
        for t in 0..1000u64 {
            ctx.depth = t as usize;
            s.tick(t, &ctx);
        }
        let tl = s.into_timeline();
        let series = tl.series(&MetricKey::vault("ldq", 0, "occupancy")).unwrap();
        assert_eq!(series.total_count(), 10, "every=100 over 1000 cycles is 10 samples");
        assert_eq!(series.peak(), 900.0, "the last sample, at cycle 900, is the largest");
        assert_eq!(tl.vaults(), vec![0]);
    }

    #[test]
    fn first_tick_samples_cycle_zero() {
        let mut s: Sampler<Ctx> = Sampler::new(SamplerConfig::default());
        s.register(MetricKey::global("noc", "utilization"), |_: &Ctx| 7.0);
        s.tick(0, &Ctx { depth: 0 });
        let tl = s.into_timeline();
        assert_eq!(tl.series[0].1.total_count(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate metric key")]
    fn duplicate_keys_panic() {
        let mut s: Sampler<Ctx> = Sampler::new(SamplerConfig::default());
        s.register(MetricKey::vault("pe", 1, "pending"), |_: &Ctx| 0.0);
        s.register(MetricKey::vault("pe", 1, "pending"), |_: &Ctx| 1.0);
    }

    #[test]
    fn track_names_group_by_vault() {
        assert_eq!(
            MetricKey::vault("cam", 3, "l1-hit-rate").track_name(),
            "vault3/cam/l1-hit-rate"
        );
        assert_eq!(MetricKey::global("noc", "byte-hops").track_name(), "noc/byte-hops");
    }
}
