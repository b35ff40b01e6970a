//! Per-job timeline artifacts next to the result cache.
//!
//! A sweep run with observation enabled writes one Chrome-trace JSON file
//! per successful sim job under `<cache-dir>/timelines/<job-key>.json`,
//! keyed like the result store so a timeline is found from the same
//! [`JobKey`] that finds the cached result. The files live in their own
//! subdirectory: the result-store GC only considers key-named files in the
//! cache root, so timelines survive cache eviction and can be pruned by
//! hand (`rm -r <cache-dir>/timelines`).

use crate::job::JobKey;
use crate::store::write_atomic;
use spacea_obs::{Cycle, SamplerConfig, Timeline};
use std::path::{Path, PathBuf};

/// Where timeline artifacts go and what an observed run records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineConfig {
    dir: PathBuf,
    /// Sampling cadence and bounds passed to the machine's observed run.
    pub observe: SamplerConfig,
}

impl TimelineConfig {
    /// Artifacts under `<cache_dir>/timelines`, default observation config.
    pub fn new(cache_dir: &Path) -> Self {
        TimelineConfig { dir: cache_dir.join("timelines"), observe: SamplerConfig::default() }
    }

    /// Overrides the sampling cadence; `0` keeps the default.
    pub fn with_every(mut self, every: Cycle) -> Self {
        if every > 0 {
            self.observe.every = every;
        }
        self
    }

    /// The artifact directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The artifact path for one job.
    pub fn path_for(&self, key: JobKey) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Writes one job's timeline as Chrome trace JSON, creating the
    /// directory on first use. This is the only file an observed run
    /// writes.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures.
    pub fn write(&self, key: JobKey, timeline: &Timeline) -> std::io::Result<PathBuf> {
        let path = self.path_for(key);
        // Write-then-rename so a concurrent shard never reads a torn file.
        write_atomic(&path, &timeline.to_chrome_trace())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacea_obs::{Metric, MetricKey, Series};

    #[test]
    fn artifacts_are_keyed_like_the_store() {
        let cfg = TimelineConfig::new(Path::new("cache"));
        let key = JobKey(0xabcd);
        assert_eq!(cfg.path_for(key), Path::new("cache/timelines/000000000000abcd.json"));
        assert_eq!(cfg.observe, SamplerConfig::default());
        assert_eq!(cfg.clone().with_every(0).observe.every, SamplerConfig::default().every);
        assert_eq!(cfg.with_every(512).observe.every, 512);
    }

    #[test]
    fn write_round_trips_through_the_validator() {
        let dir = std::env::temp_dir().join(format!("spacea-timeline-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = TimelineConfig::new(&dir);
        let mut series = Series::new(8, 10);
        series.record(0, 1.0);
        let timeline = Timeline {
            series: vec![(MetricKey::vault(Metric::LdqL1Occupancy, 0), series)],
            slices: vec![],
        };
        let path = cfg.write(JobKey(7), &timeline).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let summary = spacea_obs::json::validate_chrome_trace(&text).unwrap();
        assert_eq!(summary.counter_events, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
