//! The benchmark's declared metrics — the code-side mirror of
//! `BENCHMARK.json`, which a unit test keeps identical — and the checked
//! map a run fills with measured values.

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name; per-layer names start with the crate (layer) they time.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// End-to-end metrics, host clock, measured untraced on every workload.
/// An operation is one full command run for the batch workloads and one
/// request round trip for `serve-mixed`; an item is one harness job or one
/// acknowledged request.
pub const END_TO_END: [Metric; 5] = [
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("items_per_s", "1/s", Higher, 0.25),
    e2e("cpu_ms_per_item", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics from a traced replay of the workload's inputs.
/// `_ms` layer times are totals per replay; `serve.*` times are medians
/// per call.
pub const PER_LAYER: [Metric; 29] = [
    layer("matrix.gen_ms", "ms", Lower),
    layer("matrix.format_build_ms", "ms", Lower),
    layer("matrix.spmv_ref_ms", "ms", Lower),
    layer("mapping.phase1_ms", "ms", Lower),
    layer("mapping.phase2_ms", "ms", Lower),
    layer("mapping.store_warm_ms", "ms", Lower),
    layer("mapping.computed", "count", Lower),
    layer("arch.run_ms", "ms", Lower),
    layer("arch.ns_per_event", "ns", Lower),
    layer("arch.events", "count", Lower),
    layer("arch.cycles", "cycles", Lower),
    layer("backend.spacea_ms", "ms", Lower),
    layer("backend.gpu_ms", "ms", Lower),
    layer("backend.cpu_ms", "ms", Lower),
    layer("backend.hbm_ms", "ms", Lower),
    layer("harness.store_insert_ms", "ms", Lower),
    layer("harness.store_lookup_ms", "ms", Lower),
    layer("harness.store_bytes", "bytes", Lower),
    layer("serve.register_cold_ms", "ms", Lower),
    layer("serve.register_warm_ms", "ms", Lower),
    layer("serve.parse_us", "us", Lower),
    layer("serve.run_batch_ms", "ms", Lower),
    layer("serve.journal_append_us", "us", Lower),
    layer("serve.encode_us", "us", Lower),
    layer("serve.decode_us", "us", Lower),
    layer("serve.queue_wait_p50_us", "us", Lower),
    layer("serve.batch_mean", "requests", Higher),
    layer("serve.unattributed_p50_ms", "ms", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];

/// Looks a metric up by name among both declared sets.
pub fn declared(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|m| m.name == name)
}

/// A finished run's metrics in declaration order: `(metric, value,
/// samples)`.
pub type Measured = Vec<(&'static Metric, f64, usize)>;

/// The measured values of one run, keyed by declared name. Only declared
/// metrics can be set, every one of `expected` must be set before the map
/// is [`Values::finish`]ed, and every value must be a finite number.
#[derive(Debug)]
pub struct Values {
    expected: &'static [Metric],
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Values {
    /// An empty map that will have to hold every metric of `expected`.
    pub fn new(expected: &'static [Metric]) -> Self {
        Values { expected, values: BTreeMap::new() }
    }

    /// Records `value`, measured over `samples` samples.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the expected set: that is a bug in the
    /// benchmark, not a measurement outcome.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            self.expected.iter().any(|m| m.name == name),
            "metric {name} is not declared for this mode"
        );
        self.values.insert(name, (value, samples));
    }

    /// The finished map in declaration order.
    ///
    /// # Errors
    ///
    /// Names a declared metric that was never set or is not finite.
    pub fn finish(&self) -> Result<Measured, String> {
        self.expected
            .iter()
            .map(|m| match self.values.get(m.name) {
                Some(&(v, n)) if v.is_finite() => Ok((m, v, n)),
                Some(&(v, _)) => Err(format!("metric {} is not finite ({v})", m.name)),
                None => Err(format!("metric {} was not measured", m.name)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacea_obs::json::{parse, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn check_section(doc: &Value, key: &str, declared: &[Metric]) {
        let listed = doc.get(key).and_then(Value::as_arr).expect("metric list");
        let names: Vec<&str> =
            listed.iter().map(|m| m.get("name").and_then(Value::as_str).unwrap()).collect();
        let ours: Vec<&str> = declared.iter().map(|m| m.name).collect();
        assert_eq!(names, ours, "{key}: BENCHMARK.json and perf declare different metrics");
        for (entry, metric) in listed.iter().zip(declared) {
            let field = |k: &str| entry.get(k).and_then(Value::as_str);
            assert_eq!(field("unit"), Some(metric.unit), "{}", metric.name);
            assert_eq!(field("better"), Some(metric.better.label()), "{}", metric.name);
            assert_eq!(entry.get("bound").and_then(Value::as_num), metric.bound, "{}", metric.name);
        }
    }

    #[test]
    fn declarations_match_benchmark_json() {
        let doc = benchmark_json();
        check_section(&doc, "end_to_end", &END_TO_END);
        check_section(&doc, "per_layer", &PER_LAYER);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        // experiments-warm is implemented but not declared: its spread is
        // wider than any bound the benchmark may declare (README.md).
        let ours: Vec<&str> = crate::workloads::Kind::ALL
            .iter()
            .map(|k| k.name())
            .filter(|&n| n != "experiments-warm")
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn setup_s_has_the_largest_bound() {
        let setup = declared("setup_s").unwrap().bound.unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound.unwrap() <= setup));
        assert!(setup <= 0.25);
    }

    #[test]
    fn every_declared_metric_must_be_emitted() {
        let mut v = Values::new(&END_TO_END);
        for m in &END_TO_END[1..] {
            v.set(m.name, 1.0, 3);
        }
        let err = Values::new(&END_TO_END).finish().unwrap_err();
        assert!(err.contains("was not measured"), "{err}");
        let err = v.finish().unwrap_err();
        assert!(err.contains("latency_p50_ms"), "{err}");

        let mut v = Values::new(&PER_LAYER);
        for m in &PER_LAYER {
            v.set(m.name, 2.0, 1);
        }
        assert_eq!(v.finish().unwrap().len(), PER_LAYER.len());

        let mut v = Values::new(&END_TO_END);
        for m in &END_TO_END {
            v.set(m.name, f64::NAN, 1);
        }
        assert!(v.finish().unwrap_err().contains("not finite"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_cannot_be_emitted() {
        Values::new(&END_TO_END).set("arch.run_ms", 1.0, 1);
    }
}
