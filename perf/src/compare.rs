//! Sets of runs: `perf record` writes one JSON line per run, `perf compare`
//! sets two such files side by side with a verdict per workload and metric.

use crate::metrics::{declared, Better};
use crate::stats::{iqr_share, median, quartiles};
use spacea_obs::json::{escape, parse, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// One line of a record file: which workload and seed, and the run's
/// result object exactly as it printed it.
pub fn record_line(workload: &str, seed: u64, result_json: &str) -> String {
    format!(r#"{{"workload":"{}","seed":{seed},"result":{result_json}}}"#, escape(workload))
}

/// The metric samples of a record file, by workload then metric, in file
/// order; also the number of runs that reported incorrect outputs.
pub struct RunSet {
    samples: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// Runs whose result said `"correct": false`.
    pub incorrect: usize,
}

impl RunSet {
    /// Reads a record file.
    ///
    /// # Errors
    ///
    /// Unreadable files and lines that are not record lines.
    pub fn load(path: &Path) -> Result<RunSet, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut set = RunSet { samples: BTreeMap::new(), incorrect: 0 };
        for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
            let bad = |what: &str| format!("{}:{}: {what}", path.display(), i + 1);
            let v = parse(line).map_err(|e| bad(&e))?;
            let workload =
                v.get("workload").and_then(Value::as_str).ok_or_else(|| bad("no workload"))?;
            let result = v.get("result").ok_or_else(|| bad("no result"))?;
            if result.get("correct") != Some(&Value::Bool(true)) {
                set.incorrect += 1;
            }
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                return Err(bad("no metrics object"));
            };
            let by_metric = set.samples.entry(workload.to_string()).or_default();
            for (name, m) in metrics {
                let value = m.get("value").and_then(Value::as_num).ok_or_else(|| bad(name))?;
                by_metric.entry(name.clone()).or_default().push(value);
            }
        }
        Ok(set)
    }

    /// The samples of one workload and metric.
    pub fn values(&self, workload: &str, metric: &str) -> &[f64] {
        self.samples.get(workload).and_then(|m| m.get(metric)).map_or(&[], Vec::as_slice)
    }

    /// Every `(workload, metric)` pair present.
    pub fn keys(&self) -> Vec<(String, String)> {
        self.samples
            .iter()
            .flat_map(|(w, m)| m.keys().map(move |k| (w.clone(), k.clone())))
            .collect()
    }
}

/// How a metric moved from set A to set B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The medians differ by no more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// B's median is better than A's by more than the bound.
    Better,
    /// The run-to-run spread exceeds the bound, and the sets overlap.
    Unresolved,
    /// A per-layer metric: no bound to judge against.
    NoBound,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::NoBound => "-",
        }
    }
}

/// Judges B against A for one metric. Where either set's spread (quartile
/// distance over median) exceeds the bound the change is unresolved,
/// unless every run of one set reads better than every run of the other.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let (Some(bound), Some(ma), Some(mb)) = (bound, median(a), median(b)) else {
        return Verdict::NoBound;
    };
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let lo = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let separated = match better {
        Better::Lower => hi(b) < lo(a) || lo(b) > hi(a),
        Better::Higher => lo(b) > hi(a) || hi(b) < lo(a),
    };
    let spread = iqr_share(a).unwrap_or(0.0).max(iqr_share(b).unwrap_or(0.0));
    if spread > bound && !separated {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn describe(v: &[f64]) -> String {
    match (median(v), quartiles(v)) {
        (Some(m), Some((q1, q3))) => format!(
            "{m:>12.4} [{q1:.4}, {q3:.4}] spread {:>5.1}% n={}",
            iqr_share(v).unwrap_or(0.0) * 100.0,
            v.len()
        ),
        _ => "no samples".to_string(),
    }
}

/// Prints, per workload and metric, both sets' medians, quartiles and
/// spreads with the verdict. Returns how many bounded metrics were worse
/// or unresolved.
pub fn compare(a: &RunSet, b: &RunSet) -> usize {
    let mut keys = a.keys();
    keys.extend(b.keys());
    keys.sort();
    keys.dedup();
    let mut flagged = 0;
    for (workload, metric) in keys {
        let Some(m) = declared(&metric) else { continue };
        let (va, vb) = (a.values(&workload, &metric), b.values(&workload, &metric));
        let v = verdict(va, vb, m.better, m.bound);
        if matches!(v, Verdict::Worse | Verdict::Unresolved) {
            flagged += 1;
        }
        let bound = m.bound.map_or(String::new(), |b| format!(" (bound {:.0}%)", b * 100.0));
        println!(
            "{workload} {metric} [{}, {} is better]{bound}: {}",
            m.unit,
            m.better.label(),
            v.label()
        );
        println!("    A {}", describe(va));
        println!("    B {}", describe(vb));
    }
    for (name, set) in [("A", a), ("B", b)] {
        if set.incorrect > 0 {
            println!("set {name}: {} run(s) reported incorrect outputs", set.incorrect);
            flagged += 1;
        }
    }
    flagged
}

/// Prints each workload's and metric's median and spread in one set, and
/// flags bounded metrics whose spread is not below a third of the bound —
/// the steadiness a bound needs to be judged against.
pub fn summarize(set: &RunSet) -> usize {
    let mut unsteady = 0;
    for (workload, metric) in set.keys() {
        let Some(m) = declared(&metric) else { continue };
        let v = set.values(&workload, &metric);
        let spread = iqr_share(v).unwrap_or(0.0);
        let flag = match m.bound {
            Some(b) if metric != "setup_s" && spread >= b / 3.0 => {
                unsteady += 1;
                "  <- spread not below a third of the bound"
            }
            _ => "",
        };
        println!("{workload:>20} {metric:<26} {}{flag}", describe(v));
    }
    unsteady
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_direction() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let same = [101.0, 100.0, 102.0, 100.5, 101.5];
        assert_eq!(verdict(&a, &same, Better::Lower, Some(0.1)), Verdict::Within);
        assert_eq!(verdict(&a, &slower, Better::Lower, Some(0.1)), Verdict::Worse);
        assert_eq!(verdict(&a, &slower, Better::Higher, Some(0.1)), Verdict::Better);
        assert_eq!(verdict(&slower, &a, Better::Lower, Some(0.1)), Verdict::Better);
        assert_eq!(verdict(&a, &same, Better::Lower, None), Verdict::NoBound);
    }

    #[test]
    fn wide_overlapping_spreads_are_unresolved() {
        let a = [50.0, 100.0, 150.0, 80.0, 120.0];
        let b = [60.0, 110.0, 160.0, 90.0, 130.0];
        assert_eq!(verdict(&a, &b, Better::Lower, Some(0.1)), Verdict::Unresolved);
        // Separated sets are judged even when each is noisy.
        let far = [500.0, 520.0, 540.0, 510.0, 530.0];
        assert_eq!(verdict(&a, &far, Better::Lower, Some(0.1)), Verdict::Worse);
    }

    #[test]
    fn record_lines_load_back() {
        let dir = std::env::temp_dir().join(format!("spacea-perf-set-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.jsonl");
        let result = |v: f64, ok: bool| {
            format!(
                r#"{{"correct": {ok}, "attempted": 3, "failed": 0, "metrics": {{"setup_s": {{"value": {v}, "unit": "s"}}}}}}"#
            )
        };
        let text = [
            record_line("serve-mixed", 1, &result(1.5, true)),
            record_line("serve-mixed", 2, &result(2.5, false)),
        ]
        .join("\n");
        std::fs::write(&path, text).unwrap();
        let set = RunSet::load(&path).unwrap();
        assert_eq!(set.values("serve-mixed", "setup_s"), &[1.5, 2.5]);
        assert_eq!(set.incorrect, 1);
        assert_eq!(set.keys(), vec![("serve-mixed".to_string(), "setup_s".to_string())]);
        std::fs::write(&path, "{\"workload\": 3}").unwrap();
        assert!(RunSet::load(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
