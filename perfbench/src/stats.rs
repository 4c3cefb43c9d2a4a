//! The benchmark's own metric arithmetic: percentiles, span self time,
//! completion rates and failure accounting. Kept free of I/O so
//! the unit tests below can pin it on synthetic inputs.

/// Nearest-rank quantile of an ascending slice (`q` in [0, 1]); 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A tail percentile together with the number of samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// The highest candidate percentile that has at least ten samples beyond
/// it, so a reported tail never rests on a handful of outliers.
pub fn highest_tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_CANDIDATES.iter().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let beyond = n.saturating_sub(rank);
        (rank >= 1 && beyond >= 10).then(|| Tail {
            percentile: p,
            value: sorted[rank - 1],
            samples: n,
            beyond,
        })
    })
}

/// Total length of the union of `children`, clipped to `[start, end)`.
/// Overlapping children are counted once.
pub fn covered(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// A span's self time: its duration minus what its children cover.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    end.saturating_sub(start) - covered(start, end, children)
}

/// Completions per second over `[0, span_ns)`, from each operation's end
/// time; completions at or after `span_ns` do not count.
pub fn completion_rate(end_ns: &[u64], span_ns: u64) -> f64 {
    let done = end_ns.iter().filter(|&&e| e < span_ns).count();
    if span_ns == 0 {
        0.0
    } else {
        done as f64 * 1e9 / span_ns as f64
    }
}

/// Why an operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// A response other than 200.
    Status(u16),
    /// The connection could not be opened, or was reset or closed early.
    Reset,
    /// No complete response within the client timeout.
    Timeout,
    /// The answer failed the output check.
    Wrong,
}

/// Attempted and failed operations, failures split by kind.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub status: u64,
    pub reset: u64,
    pub timeout: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, failure: Failure) {
        self.attempted += 1;
        self.mark(failure);
    }

    /// Marks an already attempted operation as failed (an output check
    /// that rejects an answer the transport delivered).
    pub fn mark(&mut self, failure: Failure) {
        match failure {
            Failure::Status(_) => self.status += 1,
            Failure::Reset => self.reset += 1,
            Failure::Timeout => self.timeout += 1,
            Failure::Wrong => self.wrong += 1,
        }
    }

    pub fn failed(&self) -> u64 {
        self.status + self.reset + self.timeout + self.wrong
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn highest_tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99.9 leaves 1 beyond, p99 leaves 10: p99 is the highest usable.
        let t = highest_tail(&v).expect("tail");
        assert_eq!(
            (t.percentile, t.value, t.samples, t.beyond),
            (99.0, 990.0, 1000, 10)
        );

        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        // p99 leaves only 9 beyond 999 samples, so p90 is reported.
        let t = highest_tail(&v).expect("tail");
        assert_eq!((t.percentile, t.beyond), (90.0, 99));

        let v: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(highest_tail(&v).expect("tail").percentile, 99.99);

        assert!(highest_tail(&[1.0; 15]).is_none());
        assert_eq!(highest_tail(&[1.0; 20]).expect("tail").percentile, 50.0);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Parent 0..100; children 10..40 and 30..50 overlap on 30..40.
        assert_eq!(covered(0, 100, &[(10, 40), (30, 50)]), 40);
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 50)]), 60);
        // A child nested in another adds nothing.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 30)]), 50);
        // Children are clipped to the parent.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        // Disjoint, unsorted children.
        assert_eq!(self_time(0, 100, &[(70, 80), (0, 10)]), 80);
        // No children: all self.
        assert_eq!(self_time(5, 9, &[]), 4);
        // Children covering everything leave nothing.
        assert_eq!(self_time(0, 10, &[(0, 6), (5, 10)]), 0);
    }

    #[test]
    fn completion_rate_counts_what_ends_inside_the_span() {
        // 1000 completions spread evenly over one second.
        let ends: Vec<u64> = (0..1000).map(|i| i * 1_000_000).collect();
        assert_eq!(completion_rate(&ends, 1_000_000_000), 1000.0);
        // Requests still in flight when the span ends do not count.
        assert_eq!(completion_rate(&ends, 500_000_000), 1000.0);
        assert_eq!(completion_rate(&[5, 2_000_000_000], 1_000_000_000), 1.0);
        assert_eq!(completion_rate(&[], 1_000_000_000), 0.0);
        assert_eq!(completion_rate(&[0], 0), 0.0);
    }

    #[test]
    fn failed_share_counts_every_kind() {
        let mut t = Tally::default();
        for _ in 0..6 {
            t.ok();
        }
        t.fail(Failure::Status(500));
        t.fail(Failure::Reset);
        t.fail(Failure::Timeout);
        t.mark(Failure::Wrong);
        assert_eq!(t.attempted, 9);
        assert_eq!(t.failed(), 4);
        assert!((t.failed_share() - 4.0 / 9.0).abs() < 1e-12);
        assert_eq!(Tally::default().failed_share(), 0.0);
    }
}
