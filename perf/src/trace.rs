//! In-memory span recording around calls into the layers, self time, and
//! Chrome-trace export (loadable in Perfetto).

use spacea_obs::json::{escape, fmt_num};
use std::time::Instant;

/// One timed call.
#[derive(Debug)]
pub struct Span {
    /// The layer function it timed (`arch.run`, `serve.parse`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Thread lane in the exported trace (0 = the replay thread).
    pub tid: u32,
    /// Free-form label (a job label, a request seed).
    pub detail: Option<String>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread and closed spans handed over from
/// others; everything stays in memory until [`Recorder::to_chrome_trace`].
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Every span recorded so far, in start order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Times `f` as span `name`, a child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.span_detail(name, None, f)
    }

    /// [`Recorder::span`] with a label.
    pub fn span_detail<T>(
        &mut self,
        name: &'static str,
        detail: Option<String>,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, tid: 0, detail });
        self.open.push(idx);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let span = &mut self.spans[idx];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
        out
    }

    /// Records a span timed elsewhere (another thread) as a child of the
    /// innermost open span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        tid: u32,
        detail: Option<String>,
    ) {
        let parent = self.open.last().copied();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns, parent, tid, detail });
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover.
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// The spans as Chrome trace-event JSON: one complete (`X`) event per
    /// span carrying its id, parent, self time and workload, plus process
    /// and thread names.
    pub fn to_chrome_trace(&self, workload: &str) -> String {
        let selfs = self.self_times();
        let mut events = vec![format!(
            r#"{{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{{"name":"perf {}"}}}}"#,
            escape(workload)
        )];
        let mut tids: Vec<u32> = self.spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            let lane = if tid == 0 { "replay".to_string() } else { format!("client {tid}") };
            events.push(format!(
                r#"{{"ph":"M","pid":1,"tid":{tid},"name":"thread_name","args":{{"name":"{lane}"}}}}"#
            ));
        }
        for (id, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let detail = s
                .detail
                .as_deref()
                .map_or(String::new(), |d| format!(r#","detail":"{}""#, escape(d)));
            events.push(format!(
                r#"{{"ph":"X","pid":1,"tid":{},"name":"{}","ts":{},"dur":{},"args":{{"id":{id},"parent":{parent},"workload":"{}","self_us":{}{detail}}}}}"#,
                s.tid,
                escape(s.name),
                fmt_num(s.start_ns as f64 / 1e3),
                fmt_num(s.dur_ns() as f64 / 1e3),
                escape(workload),
                fmt_num(*self_ns as f64 / 1e3),
            ));
        }
        format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

/// Self time of every span in `spans` (see [`Recorder::self_times`]).
/// Children of one parent may overlap (spans from several threads), so
/// their clipped intervals are merged before subtracting.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, tid: 0, detail: None }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("job", 0, 100, None),
            span("arch.run", 10, 40, Some(0)),
            span("harness.store_insert", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 30, 10]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span("window", 0, 100, None),
            span("serve.request", 10, 60, Some(0)),
            span("serve.request", 40, 90, Some(0)),
            span("serve.request", 95, 150, Some(0)),
        ];
        // Covered: [10, 90) plus [95, 100) clipped to the parent.
        assert_eq!(self_times(&spans)[0], 100 - 80 - 5);
    }

    #[test]
    fn nested_recording_sets_parents_and_exports_a_valid_trace() {
        let mut rec = Recorder::new();
        rec.span("replay", |rec| {
            rec.span_detail("job", Some("sim:m1/256:\"q\"".into()), |rec| {
                rec.span("arch.run", |_| std::hint::black_box(3 + 4))
            });
            let now = Instant::now();
            rec.record("serve.request", now, now, 1, None);
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let text = rec.to_chrome_trace("experiments-cold");
        let summary = spacea_obs::json::validate_chrome_trace(&text).unwrap();
        assert_eq!(summary.duration_events, 4);
        assert_eq!(summary.metadata_events, 3, "process name and two thread lanes");
    }
}
