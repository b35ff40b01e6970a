//! Per-job timeline artifacts next to the result cache.
//!
//! A sweep run with observation enabled writes one Chrome-trace JSON file
//! per successful sim job under `<cache-dir>/timelines/<job-key>.json`,
//! keyed like the result store so a timeline is found from the same
//! [`JobKey`] that finds the cached result. The files live in their own
//! subdirectory: the result-store GC only considers key-named files in the
//! cache root, so timelines survive cache eviction and can be pruned by
//! hand (`rm -r <cache-dir>/timelines`).
//!
//! # Incremental chunks
//!
//! While a run is in flight, a [`ChunkSink`] appends each completed sampler
//! window to `<cache-dir>/timelines/<job-key>.d/chunk-N.json` — one small
//! file per window, O(gauges) each, instead of rewriting the whole snapshot
//! per window. The `index.json` in the same directory is the commit point:
//! it is replaced by tmp-file + atomic rename after the chunk lands, so it
//! only ever counts fully written chunks. A run killed mid-flight leaves a
//! chunk set that [`TimelineConfig::load_chunks`] replays back into the
//! exact [`Timeline`] the live sampler held (every window records exactly
//! one value per gauge, and [`spacea_obs::Series`] downsampling is a
//! deterministic function of the record stream). The final artifact write
//! removes the chunk directory.

use crate::job::JobKey;
use crate::store::write_atomic;
use spacea_arch::{ObserveConfig, SampleFlush};
use spacea_obs::json::{self, Json};
use spacea_obs::{Cycle, MetricKey, Series, Timeline};
use std::path::{Path, PathBuf};

/// Where timeline artifacts go and what an observed run records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineConfig {
    dir: PathBuf,
    /// Sampling cadence and bounds passed to the machine's observed run.
    pub observe: ObserveConfig,
}

impl TimelineConfig {
    /// Artifacts under `<cache_dir>/timelines`, default observation config.
    pub fn new(cache_dir: &Path) -> Self {
        TimelineConfig { dir: cache_dir.join("timelines"), observe: ObserveConfig::default() }
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

    /// The incremental chunk directory for one job (`<key>.d`).
    pub fn chunk_dir(&self, key: JobKey) -> PathBuf {
        self.dir.join(format!("{key}.d"))
    }

    /// Writes one job's timeline as Chrome trace JSON, creating the
    /// directory on first use. The finished artifact supersedes any
    /// incremental chunk set, which is removed on success.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures.
    pub fn write(&self, key: JobKey, timeline: &Timeline) -> std::io::Result<PathBuf> {
        let path = self.path_for(key);
        // Write-then-rename so a concurrent shard never reads a torn file.
        write_atomic(&path, &timeline.to_chrome_trace())?;
        let _ = std::fs::remove_dir_all(self.chunk_dir(key));
        Ok(path)
    }

    /// Replays a job's incremental chunk set back into a [`Timeline`]
    /// (series only — duration slices are derived from the event trace at
    /// run end, which a killed run never reached).
    ///
    /// # Errors
    ///
    /// Reports a missing or unparsable index, a chunk the index promises
    /// but that cannot be read, or malformed chunk contents.
    pub fn load_chunks(&self, key: JobKey) -> Result<Timeline, String> {
        let dir = self.chunk_dir(key);
        let text = std::fs::read_to_string(dir.join("index.json"))
            .map_err(|e| format!("no chunk index under {}: {e}", dir.display()))?;
        let index = json::parse(&text)?;
        let field = |name: &str| {
            index.get(name).and_then(Json::as_u64).ok_or(format!("index missing {name}"))
        };
        let every = field("every")?;
        let capacity = field("capacity")? as usize;
        let chunks = field("chunks")? as usize;
        let mut series: Vec<(MetricKey, Series)> = Vec::new();
        for i in 0..chunks {
            let text = std::fs::read_to_string(dir.join(format!("chunk-{i}.json")))
                .map_err(|e| format!("chunk {i}: {e}"))?;
            let chunk = json::parse(&text)?;
            let cycle = chunk
                .get("cycle")
                .and_then(Json::as_u64)
                .ok_or(format!("chunk {i} missing cycle"))?;
            let samples = chunk
                .get("samples")
                .and_then(|v| v.as_arr())
                .ok_or(format!("chunk {i} missing samples"))?;
            for s in samples {
                let text_field = |name: &str| {
                    s.get(name)
                        .and_then(|v| v.as_str())
                        .ok_or(format!("chunk {i} sample missing {name}"))
                };
                let metric = MetricKey {
                    component: text_field("component")?.into(),
                    vault: s.get("vault").and_then(Json::as_u64).map(|v| v as u32),
                    name: text_field("name")?.into(),
                };
                let value = s
                    .get("value")
                    .and_then(|v| v.as_num())
                    .ok_or(format!("chunk {i} sample missing value"))?;
                let ix = match series.iter().position(|(k, _)| *k == metric) {
                    Some(ix) => ix,
                    None => {
                        series.push((metric, Series::new(capacity, every)));
                        series.len() - 1
                    }
                };
                series[ix].1.record(cycle, value);
            }
        }
        Ok(Timeline { series, slices: Vec::new() })
    }
}

/// Streams completed sampler windows to disk as they happen.
///
/// Each [`ChunkSink::append`] writes one `chunk-N.json` and then commits it
/// by atomically replacing `index.json` — a crash between the two leaves
/// the index at the old count and the orphan chunk is simply overwritten by
/// the next run. I/O failures are swallowed: an unwritable snapshot must
/// never fail the job it observes (the final artifact write still reports
/// its own errors).
pub struct ChunkSink {
    dir: PathBuf,
    every: Cycle,
    capacity: usize,
    chunks: usize,
}

impl ChunkSink {
    /// A sink writing under `cfg`'s chunk directory for `key`.
    pub fn new(cfg: &TimelineConfig, key: JobKey) -> Self {
        ChunkSink {
            dir: cfg.chunk_dir(key),
            every: cfg.observe.every,
            capacity: cfg.observe.capacity,
            chunks: 0,
        }
    }

    /// Appends one completed sampler window.
    pub fn append(&mut self, flush: &SampleFlush<'_>) {
        let _ = self.try_append(flush);
    }

    /// How many windows have been committed to the index.
    pub fn chunks_written(&self) -> usize {
        self.chunks
    }

    fn try_append(&mut self, flush: &SampleFlush<'_>) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let samples = flush.samples.iter().map(|(key, value)| {
            let mut fields = vec![("component", Json::Str(key.component.clone()))];
            fields.extend(key.vault.map(|v| ("vault", Json::U64(v.into()))));
            fields.push(("name", Json::Str(key.name.clone())));
            fields.push(("value", Json::Num(*value)));
            Json::obj(fields)
        });
        let body = Json::obj(vec![
            ("cycle", Json::U64(flush.cycle)),
            ("samples", Json::Arr(samples.collect())),
        ]);
        std::fs::write(self.dir.join(format!("chunk-{}.json", self.chunks)), body.to_text())?;
        // The index rename is the commit point: it only ever counts chunks
        // that are fully on disk.
        let index = Json::obj(vec![
            ("every", Json::U64(self.every)),
            ("capacity", Json::U64(self.capacity as u64)),
            ("chunks", Json::U64(self.chunks as u64 + 1)),
        ]);
        write_atomic(&self.dir.join("index.json"), &index.to_text())?;
        self.chunks += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacea_obs::{MetricKey, Series};

    #[test]
    fn artifacts_are_keyed_like_the_store() {
        let cfg = TimelineConfig::new(Path::new("cache"));
        let key = JobKey(0xabcd);
        assert_eq!(cfg.path_for(key), Path::new("cache/timelines/000000000000abcd.json"));
        assert_eq!(cfg.observe, ObserveConfig::default());
        assert_eq!(cfg.clone().with_every(0).observe.every, ObserveConfig::default().every);
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
            series: vec![(MetricKey::vault("ldq", 0, "l1-occupancy"), series)],
            slices: vec![],
        };
        let path = cfg.write(JobKey(7), &timeline).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let summary = spacea_obs::json::validate_chrome_trace(&text).unwrap();
        assert_eq!(summary.counter_events, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunk_sink_replays_exactly_and_final_write_clears_chunks() {
        let dir = std::env::temp_dir().join(format!("spacea-chunks-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = TimelineConfig::new(&dir).with_every(64);
        let key = JobKey(0x55);
        let mut sink = ChunkSink::new(&cfg, key);
        let k1 = MetricKey::vault("ldq", 0, "occupancy");
        let k2 = MetricKey::global("noc", "utilization");
        let mut live1 = Series::new(cfg.observe.capacity, cfg.observe.every);
        let mut live2 = live1.clone();
        for w in 0..5u64 {
            let cycle = w * cfg.observe.every;
            let (v1, v2) = (w as f64 * 1.5, 100.25 - w as f64);
            live1.record(cycle, v1);
            live2.record(cycle, v2);
            let samples = vec![(&k1, v1), (&k2, v2)];
            sink.append(&SampleFlush { cycle, samples: &samples });
        }
        assert_eq!(sink.chunks_written(), 5);
        let replayed = cfg.load_chunks(key).unwrap();
        assert_eq!(replayed.series, vec![(k1, live1), (k2, live2)]);
        // A torn chunk past the committed index count is simply ignored.
        std::fs::write(cfg.chunk_dir(key).join("chunk-5.json"), "{torn").unwrap();
        assert_eq!(cfg.load_chunks(key).unwrap().series.len(), 2);
        // The final artifact write supersedes the chunk set.
        cfg.write(key, &replayed).unwrap();
        assert!(!cfg.chunk_dir(key).exists());
        assert!(cfg.load_chunks(key).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
