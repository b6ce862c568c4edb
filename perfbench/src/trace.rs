//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer: name, start, end, the span that caused it and the operation
//! (request) id. Nothing is written until the run ends. With tracing off,
//! [`Tracer::span`] only calls through, so the untraced run executes the
//! same code path without recording.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    req: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), spans: Vec::new(), stack: Vec::new(), req: 0 }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a new operation: spans opened under it share its id.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.req += 1;
        self.span(name, f)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req: self.req });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    /// Self time per span name in ms: each span's duration minus the part
    /// of it that its child spans cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns - c) as f64 / 1e6;
        }
        out
    }

    /// Total duration in ms of the top-level (operation) spans.
    pub fn op_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Inclusive time in ms of every span named `name`; 0 (not the -0 an
    /// empty float `sum` gives) when there is none.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |ms, s| ms + (s.end_ns - s.start_ns) as f64 / 1e6)
    }

    /// Self time in ms of the operation spans: the part of the traced
    /// operations that no layer span covers.
    pub fn unattributed_ms(&self) -> f64 {
        let attributed: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].parent.is_none()))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum();
        self.op_ms() - attributed
    }

    /// Writes every span as one tab-separated line:
    /// `req name start_ns end_ns parent`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "req\tname\tstart_ns\tend_ns\tparent")?;
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(w, "{}\t{}\t{}\t{}\t{}", s.req, s.name, s.start_ns, s.end_ns, parent)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.op("op", |t| {
            t.span("child", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let s = t.self_ms();
        assert!(s["child"] >= 5.0);
        assert!(s["op"] < s["child"]);
        assert!((s["op"] + s["child"] - t.op_ms()).abs() < 1e-6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.op("op", |t| t.span("child", |_| 7)), 7);
        assert!(t.self_ms().is_empty());
    }
}
