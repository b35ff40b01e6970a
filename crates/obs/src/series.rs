//! Bounded, self-downsampling time series.
//!
//! A [`Series`] holds at most `capacity` [`Window`]s of `window_len` cycles
//! each. Samples merge into the window covering their cycle; when a new
//! window would exceed the capacity, adjacent windows are merged pairwise
//! and the window length doubles. Merging adds counts and sums (and takes
//! the max), so the series' total count, total sum — and therefore its
//! running mean — are exact at any downsampling level; only the time
//! resolution degrades.

use spacea_sim::Cycle;

/// One aggregation window: every sample whose cycle fell in
/// `[start, start + window_len)`, summarized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// First cycle this window covers (aligned to the series' window
    /// length).
    pub start: Cycle,
    /// Samples merged into this window.
    pub count: u64,
    /// Sum of the merged sample values.
    pub sum: f64,
    /// Largest merged value.
    pub max: f64,
}

impl Window {
    fn from_sample(start: Cycle, value: f64) -> Self {
        Window { start, count: 1, sum: value, max: value }
    }

    fn absorb_sample(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Merges a later window into this one (used when downsampling).
    fn absorb_window(&mut self, later: &Window) {
        self.count += later.count;
        self.sum += later.sum;
        self.max = self.max.max(later.max);
    }

    /// Mean of the samples in this window.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A bounded series of cycle-aligned windows.
///
/// Samples must arrive in non-decreasing cycle order (the event loop's
/// order); a sample older than the open window folds into that window
/// rather than rewriting history.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    capacity: usize,
    window_len: Cycle,
    windows: Vec<Window>,
}

impl Series {
    /// A series holding at most `capacity` windows (clamped to ≥ 2), each
    /// initially `resolution` cycles long (clamped to ≥ 1).
    pub fn new(capacity: usize, resolution: Cycle) -> Self {
        let capacity = capacity.max(2);
        Series { capacity, window_len: resolution.max(1), windows: Vec::new() }
    }

    /// Records one sample, downsampling if the series is full.
    pub fn record(&mut self, cycle: Cycle, value: f64) {
        let start = cycle - cycle % self.window_len;
        match self.windows.last_mut() {
            Some(open) if start <= open.start => open.absorb_sample(value),
            _ => {
                self.windows.push(Window::from_sample(start, value));
                while self.windows.len() > self.capacity {
                    self.compress();
                }
            }
        }
    }

    /// Halves the resolution: doubles the window length and merges windows
    /// that now share an aligned start.
    fn compress(&mut self) {
        self.window_len *= 2;
        let mut merged: Vec<Window> = Vec::with_capacity(self.windows.len() / 2 + 1);
        for w in &self.windows {
            let start = w.start - w.start % self.window_len;
            match merged.last_mut() {
                Some(open) if open.start == start => open.absorb_window(w),
                _ => {
                    let mut nw = *w;
                    nw.start = start;
                    merged.push(nw);
                }
            }
        }
        self.windows = merged;
    }

    /// The aggregated windows, oldest first. Never more than the capacity.
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Total samples recorded, across all downsampling.
    pub fn total_count(&self) -> u64 {
        self.windows.iter().map(|w| w.count).sum()
    }

    /// Sum of every recorded value, across all downsampling.
    pub fn total_sum(&self) -> f64 {
        self.windows.iter().map(|w| w.sum).sum()
    }

    /// Exact running mean of every recorded value.
    pub fn mean(&self) -> f64 {
        let n = self.total_count();
        if n == 0 {
            0.0
        } else {
            self.total_sum() / n as f64
        }
    }

    /// Largest single value ever recorded.
    pub fn peak(&self) -> f64 {
        self.windows.iter().fold(0.0f64, |m, w| m.max(w.max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn windows_aggregate_in_order() {
        let mut s = Series::new(8, 10);
        s.record(0, 1.0);
        s.record(5, 3.0);
        s.record(12, 5.0);
        assert_eq!(s.windows().len(), 2);
        assert_eq!(s.windows()[0].count, 2);
        assert_eq!(s.windows()[0].mean(), 2.0);
        assert_eq!(s.windows()[1].start, 10);
        assert_eq!(s.mean(), 3.0);
    }

    #[test]
    fn overflow_downsamples_instead_of_growing() {
        let mut s = Series::new(4, 1);
        for c in 0..1000u64 {
            s.record(c, c as f64);
            assert!(s.windows().len() <= 4, "cycle {c}: {} windows", s.windows().len());
        }
        assert_eq!(s.total_count(), 1000);
        assert!(s.window_len >= 256, "1000 samples over 4 windows need len ≥ 256");
        assert_eq!(s.windows().first().map(|w| w.start), Some(0));
        let exact_mean = (0..1000).sum::<u64>() as f64 / 1000.0;
        assert!((s.mean() - exact_mean).abs() < 1e-9);
    }

    #[test]
    fn sparse_cycles_still_bound_memory() {
        let mut s = Series::new(3, 1);
        for i in 0..64u64 {
            // Exponentially spread cycles: pairwise merging needs several
            // passes before neighbours share a window.
            s.record(i * i * 1000, 1.0);
            assert!(s.windows().len() <= 3);
        }
        assert_eq!(s.total_count(), 64);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
        #[test]
        fn capacity_and_means_survive_downsampling(
            capacity in 2usize..10,
            resolution in 1u64..64,
            steps in proptest::collection::vec((0u64..5000, 0.0f64..100.0), 1..400),
        ) {
            let mut s = Series::new(capacity, resolution);
            let mut cycle = 0u64;
            let mut exact_sum = 0.0;
            let mut first_cycle = None;
            let mut max_value = 0.0f64;
            for (gap, value) in &steps {
                cycle += gap;
                first_cycle.get_or_insert(cycle);
                exact_sum += value;
                max_value = max_value.max(*value);
                s.record(cycle, *value);
                // A series' memory bound: never more windows than
                // configured, no matter how many cycles go by.
                prop_assert!(s.windows().len() <= capacity.max(2));
            }
            // Downsampling preserves the sample count and sum exactly, so
            // the running mean is exact too.
            prop_assert_eq!(s.total_count(), steps.len() as u64);
            prop_assert!((s.total_sum() - exact_sum).abs() <= 1e-6 * exact_sum.abs().max(1.0));
            // First window still covers the first sample; the largest value
            // survives every merge.
            let first = first_cycle.unwrap();
            let first_start = s.windows().first().unwrap().start;
            prop_assert!(first_start <= first);
            prop_assert!(first_start + s.window_len > first);
            prop_assert_eq!(s.peak(), max_value);
            // Windows stay ordered and aligned.
            for w in s.windows().windows(2) {
                prop_assert!(w[0].start < w[1].start);
            }
            for w in s.windows() {
                prop_assert_eq!(w.start % s.window_len, 0);
                prop_assert!(w.count > 0);
            }
        }
    }
}
