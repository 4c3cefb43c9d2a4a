//! In-memory span recorder for the traced run. Spans are recorded from
//! the benchmark's own calls into each layer's public functions, kept in
//! memory, and written out when the run ends.

use std::time::Instant;

use crate::stats;

/// One recorded span; times are nanoseconds since the tracer's start.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// A span recorder that can be switched off, so the tracing overhead can
/// be measured as the difference between a run with and without spans.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    base: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// An instant as nanoseconds since the tracer started.
    pub fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.base).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span; returns its id (meaningless when off).
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        if !self.on {
            return usize::MAX;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Opens a span that [`Tracer::close`] finishes.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now();
        self.record(name, now, now, parent, request)
    }

    pub fn close(&mut self, id: usize) {
        let now = self.now();
        if let Some(span) = self.spans.get_mut(id) {
            span.end = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Indexes the recorded spans by parent for attribution.
    pub fn analysis(&self) -> Analysis<'_> {
        let mut kids = vec![Vec::new(); self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent.and_then(|p| kids.get_mut(p)) {
                p.push(id);
            }
        }
        Analysis {
            spans: &self.spans,
            kids,
        }
    }
}

/// Recorded spans indexed by parent.
#[derive(Debug)]
pub struct Analysis<'a> {
    spans: &'a [Span],
    kids: Vec<Vec<usize>>,
}

impl Analysis<'_> {
    fn duration(&self, id: usize) -> u64 {
        self.spans[id].end.saturating_sub(self.spans[id].start)
    }

    /// Self time of span `id`: its duration minus its children's cover.
    pub fn self_time(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let kids: Vec<(u64, u64)> = self.kids[id]
            .iter()
            .map(|&c| (self.spans[c].start, self.spans[c].end))
            .collect();
        stats::self_time(span.start, span.end, &kids)
    }

    /// Share of span `id` covered by its children (the named layers); the
    /// rest is `other`.
    pub fn attributed_share(&self, id: usize) -> f64 {
        let total = self.duration(id);
        if total == 0 {
            return 1.0;
        }
        1.0 - self.self_time(id) as f64 / total as f64
    }

    /// Per-name sums of self time over the subtrees of `roots`, in
    /// nanoseconds and sorted by name; the roots' own self time is
    /// reported as `other`.
    pub fn layer_table(&self, roots: &[usize]) -> Vec<(String, u64)> {
        let mut table: std::collections::BTreeMap<String, u64> = Default::default();
        let mut stack: Vec<(usize, bool)> = roots.iter().map(|&r| (r, true)).collect();
        while let Some((id, root)) = stack.pop() {
            let name = if root { "other" } else { self.spans[id].name };
            *table.entry(name.to_owned()).or_default() += self.self_time(id);
            stack.extend(self.kids[id].iter().map(|&c| (c, false)));
        }
        table.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_table_attributes_self_time() {
        let mut t = Tracer::new(true);
        let root = t.record("request", 0, 100, None, 7);
        let h = t.record("router.handle", 10, 60, Some(root), 7);
        t.record("core.prepare", 20, 40, Some(h), 7);
        t.record("http.write_response", 60, 90, Some(root), 7);
        let a = t.analysis();
        let table = a.layer_table(&[root]);
        let get = |n: &str| table.iter().find(|(k, _)| k == n).map(|(_, v)| *v);
        assert_eq!(get("other"), Some(20));
        assert_eq!(get("router.handle"), Some(30));
        assert_eq!(get("core.prepare"), Some(20));
        assert_eq!(get("http.write_response"), Some(30));
        assert!((a.attributed_share(root) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", None, 0);
        t.close(id);
        assert!(t.spans().is_empty());
        assert_eq!(t.time("y", None, 0, || 5), 5);
        assert!(t.spans().is_empty());
    }
}
