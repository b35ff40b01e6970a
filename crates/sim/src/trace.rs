//! Bounded event tracing.
//!
//! One of three instrumentation layers approximating the detailed event
//! trace the paper's simulator logs (Section V-A): this module is the
//! *inspectable prefix* — a bounded log with a drop counter, so memory
//! stays predictable on billion-event runs while debugging and teaching
//! tools can replay what the machine did first. The `stats` module keeps
//! the whole-run aggregates that feed the energy model, and the
//! `spacea-obs` crate adds the time-resolved view: cycle-sampled gauge
//! series and Perfetto-loadable timelines covering the entire run.

/// A bounded prefix log of trace records.
///
/// Keeps the first `capacity` records pushed; later pushes only increment
/// the drop counter. A capacity of zero disables tracing with no per-push
/// allocation cost.
///
/// # Example
///
/// ```
/// use spacea_sim::trace::TraceLog;
///
/// let mut log = TraceLog::new(2);
/// log.push("a");
/// log.push("b");
/// log.push("c");
/// assert_eq!(log.records(), &["a", "b"]);
/// assert_eq!(log.dropped(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TraceLog<R> {
    records: Vec<R>,
    capacity: usize,
    dropped: u64,
}

impl<R> TraceLog<R> {
    /// Creates a log keeping at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        TraceLog { records: Vec::with_capacity(capacity.min(1 << 20)), capacity, dropped: 0 }
    }

    /// Creates a disabled log (capacity zero).
    pub fn disabled() -> Self {
        Self::new(0)
    }

    /// Whether pushes are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Appends a record, or counts it as dropped when full/disabled.
    pub fn push(&mut self, record: R) {
        if self.records.len() < self.capacity {
            self.records.push(record);
        } else {
            self.dropped += 1;
        }
    }

    /// Appends the record produced by `f` only if there is room — use when
    /// building the record itself is expensive.
    pub fn push_with(&mut self, f: impl FnOnce() -> R) {
        if self.records.len() < self.capacity {
            self.records.push(f());
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded prefix.
    pub fn records(&self) -> &[R] {
        &self.records
    }

    /// Records not retained because the log was full or disabled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total records offered (retained + dropped).
    pub fn offered(&self) -> u64 {
        self.records.len() as u64 + self.dropped
    }
}

impl<R> Default for TraceLog<R> {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_prefix_and_counts_drops() {
        let mut log = TraceLog::new(3);
        for i in 0..10 {
            log.push(i);
        }
        assert_eq!(log.records(), &[0, 1, 2]);
        assert_eq!(log.dropped(), 7);
        assert_eq!(log.offered(), 10);
    }

    #[test]
    fn disabled_log_drops_everything() {
        let mut log: TraceLog<u8> = TraceLog::disabled();
        assert!(!log.is_enabled());
        log.push(1);
        assert!(log.records().is_empty());
        assert_eq!(log.dropped(), 1);
    }

    #[test]
    fn push_with_skips_builder_when_full() {
        let mut log = TraceLog::new(1);
        log.push_with(|| 1);
        let mut called = false;
        log.push_with(|| {
            called = true;
            2
        });
        assert!(!called, "builder must not run when the log is full");
        assert_eq!(log.dropped(), 1);
    }
}
