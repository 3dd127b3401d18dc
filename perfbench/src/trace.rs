//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A traced operation is one root span (the op) whose children are the
//! layer calls the benchmark makes on its behalf. Spans of one op share
//! its id; they stay in memory and are written out when the run ends.
//! A span's self time is its duration minus the time its children cover.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `cache.view_run`.
    pub name: &'static str,
    /// The op (request) this span belongs to.
    pub op: u64,
    /// Index of the parent span, `None` for an op's root.
    pub parent: Option<u32>,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Span recorder for one client thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    current: Option<u32>,
    op: u64,
    next_op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            current: None,
            op: 0,
            next_op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a new op: a root span named `name` with a fresh op id.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.op = self.next_op;
        self.next_op += 1;
        let outer = self.current.take();
        let out = self.span_with(name, f);
        self.current = outer;
        out
    }

    /// Runs `f` as a child span of the current span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_with(name, |_| f())
    }

    /// Runs `f` as a child span that may open spans of its own.
    fn span_with<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.current,
            start,
            end: start,
        });
        let parent = self.current.replace(idx);
        let out = f(self);
        self.current = parent;
        self.spans[idx as usize].end = self.now();
        out
    }

    /// Renames the most recently opened span.
    pub fn rename_last(&mut self, name: &'static str) {
        if let Some(s) = self.spans.last_mut() {
            s.name = name;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Samples {
        let mut out = Samples::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.push(Duration::from_nanos(s.duration()));
        }
        out
    }

    /// Durations of the spans named `name` inside ops whose root span is
    /// named `root`.
    pub fn durations_in(&self, name: &str, root: &str) -> Samples {
        let roots: BTreeMap<u64, bool> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.op, s.name == root))
            .collect();
        let mut out = Samples::default();
        for s in &self.spans {
            if s.name == name && s.parent.is_some() && roots.get(&s.op) == Some(&true) {
                out.push(Duration::from_nanos(s.duration()));
            }
        }
        out
    }

    /// Self time of every span, index-aligned with [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let p = p as usize;
                own[p] = own[p].saturating_sub(s.duration());
            }
        }
        own
    }

    /// Per span name: `(spans, total self time in ns)`.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own;
        }
        out
    }

    /// For ops whose root span is named `root`: per span name, the median
    /// and the mean self time inside one op (the root's own included), in
    /// microseconds; and the median over those ops of their summed self
    /// times, which is the whole op's duration.
    pub fn op_breakdown(&self, root: &str) -> (Vec<(&'static str, f64, f64)>, f64) {
        let own = self.self_times();
        let roots: BTreeMap<u64, bool> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.op, s.name == root))
            .collect();
        let mut per_op: BTreeMap<(u64, &'static str), u64> = BTreeMap::new();
        let mut op_total: BTreeMap<u64, u64> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            if roots.get(&s.op) == Some(&true) {
                *per_op.entry((s.op, s.name)).or_default() += t;
                *op_total.entry(s.op).or_default() += t;
            }
        }
        let mut by_name: BTreeMap<&'static str, Samples> = BTreeMap::new();
        for ((_, name), t) in per_op {
            by_name
                .entry(name)
                .or_default()
                .push(Duration::from_nanos(t));
        }
        let ops = op_total.len().max(1) as f64;
        let parts = by_name
            .iter()
            .map(|(n, s)| (*n, s.p50_us(), s.sum_us() / ops))
            .collect();
        let totals: Vec<u64> = op_total.into_values().collect();
        (parts, crate::stats::quantile(&totals, 0.5) / 1e3)
    }

    /// Writes every span as tab-separated `op name parent start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "op\tname\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}",
                s.op, s.name, parent, s.start, s.end
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.op("op.deep", |t| {
            t.span("cache.view_run", || {
                std::thread::sleep(Duration::from_millis(2))
            });
            t.span("query.project", || {
                std::thread::sleep(Duration::from_millis(1))
            });
        });
        t.op("op.other", |t| t.span("query.project", || ()));
        let own = t.self_times();
        let spans = t.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].op, 1);
        assert_eq!(spans[4].parent, Some(3));
        let children = spans[1].duration() + spans[2].duration();
        assert_eq!(own[0], spans[0].duration() - children);
        let (parts, sum) = t.op_breakdown("op.deep");
        assert_eq!(parts.len(), 3);
        assert!((sum - spans[0].duration() as f64 / 1e3).abs() < 1e-6);
        let mean_sum: f64 = parts.iter().map(|p| p.2).sum();
        assert!((mean_sum - sum).abs() < 1e-6);
        assert_eq!(t.durations("query.project").len(), 2);
    }
}
