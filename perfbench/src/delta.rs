//! Differences between two snapshots of the program's `sst-obs` registry:
//! how much a counter moved and how many observations, and how much time,
//! a histogram gained between them.

use sst_obs::MetricsSnapshot;

#[derive(Debug, Clone, Copy)]
pub struct Delta<'a> {
    pub before: &'a MetricsSnapshot,
    pub after: &'a MetricsSnapshot,
}

impl<'a> Delta<'a> {
    pub fn new(before: &'a MetricsSnapshot, after: &'a MetricsSnapshot) -> Delta<'a> {
        Delta { before, after }
    }

    pub fn counter(&self, name: &str) -> u64 {
        let get = |s: &MetricsSnapshot| s.counter(name).unwrap_or(0);
        get(self.after).saturating_sub(get(self.before))
    }

    /// Observations and seconds a histogram gained.
    pub fn hist(&self, name: &str) -> (u64, f64) {
        let get = |s: &MetricsSnapshot| {
            s.histogram(name)
                .map_or((0, 0.0), |h| (h.count, h.sum_seconds))
        };
        let (c0, s0) = get(self.before);
        let (c1, s1) = get(self.after);
        (c1.saturating_sub(c0), (s1 - s0).max(0.0))
    }

    /// Seconds a histogram gained.
    pub fn secs(&self, name: &str) -> f64 {
        self.hist(name).1
    }

    /// Observations and seconds gained by every histogram whose name
    /// starts with `prefix`.
    pub fn hist_prefix(&self, prefix: &str) -> (u64, f64) {
        let sum = |s: &MetricsSnapshot| {
            s.histograms
                .iter()
                .filter(|(n, _)| n.starts_with(prefix))
                .fold((0u64, 0.0f64), |(c, t), (_, h)| {
                    (c + h.count, t + h.sum_seconds)
                })
        };
        let (c0, s0) = sum(self.before);
        let (c1, s1) = sum(self.after);
        (c1.saturating_sub(c0), (s1 - s0).max(0.0))
    }
}
