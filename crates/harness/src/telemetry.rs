//! Run telemetry: per-job records, the JSON run manifest, and the
//! human-readable summary.

use crate::exec::SimulationStats;
use crate::job::JobKey;
use crate::mapstore::MappingStats;
use crate::store::{CacheOutcome, CacheStats};
use spacea_obs::json::Json;

/// How one job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// The job produced a result (computed, or from cache).
    Ok,
    /// The job failed with an error or a panic; no result exists for it.
    Failed {
        /// The error message.
        error: String,
    },
    /// The simulation hung (a deadlock, or nothing retired within the stall
    /// window) and was cut off; no result exists for it.
    TimedOut {
        /// The hang's stall diagnosis.
        diagnosis: String,
    },
}

impl JobStatus {
    /// Short JSON/display tag.
    pub fn tag(&self) -> &'static str {
        match self {
            JobStatus::Ok => "ok",
            JobStatus::Failed { .. } => "failed",
            JobStatus::TimedOut { .. } => "timed-out",
        }
    }

    /// The failure message, if the job did not produce a result.
    pub fn failure(&self) -> Option<&str> {
        match self {
            JobStatus::Failed { error } => Some(error),
            JobStatus::TimedOut { diagnosis } => Some(diagnosis),
            JobStatus::Ok => None,
        }
    }
}

/// Telemetry for one job in a run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Position in the submitted job list.
    pub index: usize,
    /// Display label (`"sim:m3/8:proposed"`).
    pub label: String,
    /// The job's content hash.
    pub key: JobKey,
    /// Where the result came from.
    pub outcome: CacheOutcome,
    /// How the job ended (a failed job's `outcome` is `Computed`: the cache
    /// had nothing and the worker attempted the computation).
    pub status: JobStatus,
    /// Wall time spent obtaining the result (lookup or compute), ms.
    pub wall_ms: f64,
    /// Simulated cycles (simulation jobs only).
    pub cycles: Option<u64>,
    /// Discrete events processed (simulation jobs only).
    pub events: Option<u64>,
}

/// Everything recorded about one harness run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Worker threads used.
    pub workers: usize,
    /// End-to-end wall time of the job phase, ms.
    pub total_wall_ms: f64,
    /// Per-job records, in submission order.
    pub records: Vec<JobRecord>,
    /// The store's aggregate counters at the end of the run.
    pub stats: CacheStats,
    /// On-disk cache entries that failed to decode (treated as misses); the
    /// run summary surfaces them so silent cache damage is visible.
    pub corrupt_paths: Vec<String>,
    /// Phase I/II mapping work this run: computed-from-scratch versus warmed
    /// from persisted artifacts. Zero `computed` after a restart is the
    /// warm-mapping-cache guarantee.
    pub mappings: MappingStats,
    /// Single-vector simulations this run made versus reused from the
    /// in-process memo (jobs whose runs have equal inputs share one).
    pub simulations: SimulationStats,
}

impl RunManifest {
    /// Fraction of jobs answered from cache (memory or disk).
    pub fn hit_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let hits = self.records.iter().filter(|r| r.outcome != CacheOutcome::Computed).count();
        hits as f64 / self.records.len() as f64
    }

    /// The manifest as a JSON document.
    ///
    /// Times are reported in integer microseconds (this dialect has no
    /// floats, and sub-microsecond precision is noise here anyway).
    pub fn to_json(&self) -> String {
        let jobs: Vec<Json> = self
            .records
            .iter()
            .map(|r| {
                let mut pairs = vec![
                    ("label", Json::Str(r.label.clone())),
                    ("key", Json::Str(r.key.to_string())),
                    ("outcome", Json::Str(r.outcome.tag().into())),
                    ("status", Json::Str(r.status.tag().into())),
                    ("wall_us", Json::U64((r.wall_ms * 1e3) as u64)),
                ];
                if let Some(f) = r.status.failure() {
                    pairs.push(("failure", Json::Str(f.to_string())));
                }
                if let Some(c) = r.cycles {
                    pairs.push(("cycles", Json::U64(c)));
                }
                if let Some(e) = r.events {
                    pairs.push(("events_processed", Json::U64(e)));
                }
                Json::obj(pairs)
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::Str("spacea-run-manifest-v1".into())),
            ("workers", Json::U64(self.workers as u64)),
            ("total_wall_us", Json::U64((self.total_wall_ms * 1e3) as u64)),
            (
                "cache",
                Json::obj(vec![
                    ("mem_hits", Json::U64(self.stats.mem_hits)),
                    ("disk_hits", Json::U64(self.stats.disk_hits)),
                    ("misses", Json::U64(self.stats.misses)),
                    ("corrupt", Json::U64(self.stats.corrupt)),
                ]),
            ),
            (
                "mappings",
                Json::obj(vec![
                    ("computed", Json::U64(self.mappings.computed)),
                    ("disk_hits", Json::U64(self.mappings.disk_hits)),
                    ("healed", Json::U64(self.mappings.healed)),
                ]),
            ),
            (
                "simulations",
                Json::obj(vec![
                    ("run", Json::U64(self.simulations.run)),
                    ("reused", Json::U64(self.simulations.reused)),
                ]),
            ),
            (
                "corrupt_paths",
                Json::Arr(self.corrupt_paths.iter().map(|p| Json::Str(p.clone())).collect()),
            ),
            ("jobs", Json::Arr(jobs)),
        ])
        .to_text()
    }

    /// A short human-readable run summary.
    pub fn summary(&self) -> String {
        let computed = self.records.iter().filter(|r| r.outcome == CacheOutcome::Computed).count();
        let disk = self.records.iter().filter(|r| r.outcome == CacheOutcome::DiskHit).count();
        let mem = self.records.len() - computed - disk;
        let sim_cycles: u64 = self.records.iter().filter_map(|r| r.cycles).sum();
        let events: u64 = self.records.iter().filter_map(|r| r.events).sum();
        let mut out = format!(
            "harness: {} jobs on {} workers in {:.1}s — {} computed, {} disk hits, {} memory hits ({:.0}% cached)\n",
            self.records.len(),
            self.workers,
            self.total_wall_ms / 1e3,
            computed,
            disk,
            mem,
            self.hit_fraction() * 100.0,
        );
        out.push_str(&format!(
            "harness: {sim_cycles} simulated cycles, {events} events processed\n"
        ));
        let failed = self.records.iter().filter(|r| r.status.tag() == "failed").count();
        let timed_out = self.records.iter().filter(|r| r.status.tag() == "timed-out").count();
        if failed + timed_out > 0 {
            out.push_str(&format!("harness: {failed} failed, {timed_out} timed out\n"));
            for r in &self.records {
                if let Some(f) = r.status.failure() {
                    out.push_str(&format!("harness:   {}: {} — {f}\n", r.status.tag(), r.label));
                }
            }
        }
        let mut slowest: Vec<&JobRecord> =
            self.records.iter().filter(|r| r.outcome == CacheOutcome::Computed).collect();
        slowest.sort_by(|a, b| b.wall_ms.total_cmp(&a.wall_ms));
        for r in slowest.iter().take(3) {
            out.push_str(&format!("harness:   slowest: {} ({:.0} ms)\n", r.label, r.wall_ms));
        }
        if self.stats.corrupt > 0 {
            out.push_str(&format!(
                "harness: {} corrupt cache entr{} recomputed:\n",
                self.stats.corrupt,
                if self.stats.corrupt == 1 {
                    "y treated as a miss and"
                } else {
                    "ies treated as misses and"
                },
            ));
            for p in &self.corrupt_paths {
                out.push_str(&format!("harness:   corrupt: {p}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacea_obs::json;

    fn manifest() -> RunManifest {
        RunManifest {
            workers: 4,
            total_wall_ms: 1234.5,
            records: vec![
                JobRecord {
                    index: 0,
                    label: "sim:m1/256:proposed".into(),
                    key: JobKey(1),
                    outcome: CacheOutcome::Computed,
                    status: JobStatus::Ok,
                    wall_ms: 900.0,
                    cycles: Some(1000),
                    events: Some(5000),
                },
                JobRecord {
                    index: 1,
                    label: "gpu:m1/256".into(),
                    key: JobKey(2),
                    outcome: CacheOutcome::DiskHit,
                    status: JobStatus::Ok,
                    wall_ms: 1.5,
                    cycles: None,
                    events: None,
                },
            ],
            stats: CacheStats { mem_hits: 0, disk_hits: 1, misses: 1, corrupt: 0 },
            corrupt_paths: Vec::new(),
            mappings: MappingStats { computed: 1, disk_hits: 0, healed: 0 },
            simulations: SimulationStats { run: 1, reused: 2 },
        }
    }

    #[test]
    fn manifest_json_parses_and_carries_fields() {
        let m = manifest();
        let v = json::parse(&m.to_json()).unwrap();
        assert_eq!(v.get("workers").unwrap().as_u64(), Some(4));
        let jobs = v.get("jobs").unwrap().as_arr().unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].get("outcome").unwrap().as_str(), Some("computed"));
        assert_eq!(jobs[0].get("status").unwrap().as_str(), Some("ok"));
        assert!(jobs[0].get("failure").is_none());
        assert_eq!(jobs[0].get("cycles").unwrap().as_u64(), Some(1000));
        assert_eq!(jobs[1].get("outcome").unwrap().as_str(), Some("disk-hit"));
        assert!(jobs[1].get("cycles").is_none());
        assert_eq!(v.get("cache").unwrap().get("disk_hits").unwrap().as_u64(), Some(1));
        let maps = v.get("mappings").unwrap();
        assert_eq!(maps.get("computed").unwrap().as_u64(), Some(1));
        assert_eq!(maps.get("disk_hits").unwrap().as_u64(), Some(0));
        let sims = v.get("simulations").unwrap();
        assert_eq!(sims.get("run").unwrap().as_u64(), Some(1));
        assert_eq!(sims.get("reused").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn hit_fraction_counts_both_hit_kinds() {
        assert!((manifest().hit_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn summary_mentions_the_headline_numbers() {
        let s = manifest().summary();
        assert!(s.contains("2 jobs on 4 workers"), "{s}");
        assert!(s.contains("1 computed, 1 disk hits"), "{s}");
        assert!(s.contains("slowest: sim:m1/256:proposed"), "{s}");
        assert!(!s.contains("corrupt"), "clean runs must not mention corruption: {s}");
    }

    #[test]
    fn failures_surface_in_json_and_summary() {
        let mut m = manifest();
        m.records[0].status =
            JobStatus::TimedOut { diagnosis: "no retirement in 1000 cycles; vault 2".into() };
        m.records[1].status = JobStatus::Failed { error: "job panicked: boom".into() };
        let v = json::parse(&m.to_json()).unwrap();
        let jobs = v.get("jobs").unwrap().as_arr().unwrap();
        assert_eq!(jobs[0].get("status").unwrap().as_str(), Some("timed-out"));
        assert!(jobs[0].get("failure").unwrap().as_str().unwrap().contains("vault 2"));
        assert_eq!(jobs[1].get("status").unwrap().as_str(), Some("failed"));
        let s = m.summary();
        assert!(s.contains("1 failed, 1 timed out\n"), "{s}");
        assert!(s.contains("vault 2"), "{s}");
    }

    #[test]
    fn summary_and_json_report_corrupt_entries() {
        let mut m = manifest();
        m.stats.corrupt = 1;
        m.corrupt_paths = vec!["target/spacea-cache/dead.json".into()];
        let s = m.summary();
        assert!(s.contains("1 corrupt cache entry"), "{s}");
        assert!(s.contains("target/spacea-cache/dead.json"), "{s}");
        let v = json::parse(&m.to_json()).unwrap();
        assert_eq!(v.get("cache").unwrap().get("corrupt").unwrap().as_u64(), Some(1));
        let paths = v.get("corrupt_paths").unwrap().as_arr().unwrap();
        assert_eq!(paths[0].as_str(), Some("target/spacea-cache/dead.json"));
    }
}
