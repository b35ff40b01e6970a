//! Timeline exporters: Chrome trace-event JSON, a one-line-per-series text
//! summary, and terminal sparklines.
//!
//! The Chrome trace output loads directly in [Perfetto](https://ui.perfetto.dev)
//! or `chrome://tracing`: one process ("spacea"), one thread track per
//! vault, each gauge as a counter track (named `vaultN/component/metric`)
//! with one counter event per aggregation window, and duration slices
//! (`ph: "X"`) on the vault threads. Timestamps map cycles to microseconds
//! at an assumed 1 GHz clock (1000 cycles = 1 µs), which keeps Perfetto's
//! time axis readable without claiming wall-clock accuracy.

use crate::json::{escape, fmt_num};
use crate::sampler::Timeline;
use std::fmt::Write as _;

/// Cycles per exported microsecond (1 GHz: cycle N lands at N/1000 µs).
const CYCLES_PER_US: f64 = 1000.0;

impl Timeline {
    /// Renders the timeline as a Chrome trace-event JSON document.
    pub fn to_chrome_trace(&self) -> String {
        let mut events: Vec<String> = Vec::new();
        events.push(
            "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\
             \"args\":{\"name\":\"spacea\"}}"
                .to_string(),
        );
        for v in self.vaults() {
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{v},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"vault {v}\"}}}}"
            ));
        }
        for (key, series) in &self.series {
            let track = escape(&key.track_name());
            for w in series.windows() {
                events.push(format!(
                    "{{\"ph\":\"C\",\"pid\":1,\"name\":\"{track}\",\"ts\":{ts},\
                     \"args\":{{\"value\":{value}}}}}",
                    ts = fmt_num(w.start as f64 / CYCLES_PER_US),
                    value = fmt_num(w.mean()),
                ));
            }
        }
        for slice in &self.slices {
            let tid = slice.vault.unwrap_or(0);
            let dur = slice.end.saturating_sub(slice.start).max(1);
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{name}\",\
                 \"ts\":{ts},\"dur\":{dur}}}",
                name = escape(&slice.name),
                ts = fmt_num(slice.start as f64 / CYCLES_PER_US),
                dur = fmt_num(dur as f64 / CYCLES_PER_US),
            ));
        }
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        out.push_str(&events.join(",\n"));
        out.push_str("\n]}\n");
        out
    }

    /// One `name  min..max  sparkline` line per series, for terminal
    /// summaries.
    pub fn summary(&self) -> String {
        let width = self.series.iter().map(|(k, _)| k.track_name().len()).max().unwrap_or(0);
        let mut out = String::new();
        for (key, series) in &self.series {
            let means: Vec<f64> = series.windows().iter().map(|w| w.mean()).collect();
            let _ = writeln!(
                out,
                "{:width$}  mean {:>10}  peak {:>10}  {}",
                key.track_name(),
                fmt_num(series.mean()),
                fmt_num(series.peak()),
                sparkline(&means),
            );
        }
        out
    }
}

/// Renders values as a unicode sparkline (`▁▂▃▄▅▆▇█`), scaled to the
/// value range; an empty input renders as an empty string.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if !lo.is_finite() {
        return String::new();
    }
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                return BARS[0];
            }
            let t = ((v - lo) / span * 7.0).round() as usize;
            BARS[t.min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_chrome_trace;
    use crate::sampler::{Metric, MetricKey, Slice};
    use crate::series::Series;

    fn sample_timeline() -> Timeline {
        let mut a = Series::new(8, 10);
        a.record(0, 1.0);
        a.record(10, 3.0);
        let mut b = Series::new(8, 10);
        b.record(0, 0.25);
        Timeline {
            series: vec![
                (MetricKey::vault(Metric::LdqL1Occupancy, 0), a),
                (MetricKey::global(Metric::NocByteHops), b),
            ],
            slices: vec![Slice { vault: Some(0), name: "X block 1".into(), start: 5, end: 25 }],
        }
    }

    #[test]
    fn chrome_trace_is_valid_and_tracked_per_vault() {
        let text = sample_timeline().to_chrome_trace();
        let summary = validate_chrome_trace(&text).unwrap();
        assert_eq!(summary.counter_events, 3);
        assert_eq!(summary.duration_events, 1);
        assert!(summary.counter_tracks.contains(&"vault0/ldq/l1-occupancy".to_string()));
        assert!(summary.counter_tracks.contains(&"noc/byte-hops".to_string()));
        // Vault 0 got a thread_name metadata record alongside the process's.
        assert_eq!(summary.metadata_events, 2);
    }

    #[test]
    fn sparkline_scales_to_range() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0]), "▁");
        let line = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(line.chars().count(), 3);
        assert!(line.starts_with('▁') && line.ends_with('█'));
    }

    #[test]
    fn summary_renders_each_series() {
        let text = sample_timeline().summary();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("vault0/ldq/l1-occupancy"));
        assert!(text.contains("noc/byte-hops"));
    }
}
