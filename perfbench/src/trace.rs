//! In-memory span recorder for the traced run.
//!
//! Spans are opened from the benchmark's own files around calls into the
//! program's public functions; the program itself carries no spans. When
//! tracing is off, [`Tracer::span`] only calls its closure.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// The op the span belongs to; setup spans carry `None`.
    pub op: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tag the spans that follow with op `op` (`None`: setup).
    pub fn set_op(&mut self, op: Option<u64>) {
        self.op = op;
    }

    /// Run `f` inside a span named `name` when tracing is on. `f` gets the
    /// tracer back, so it can open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and span count per span name. A span's self time is its
    /// duration minus the time its direct children cover (spans are
    /// recorded on one thread, so children never overlap).
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_insert((0, 0));
            e.0 += s.dur_ns() - c;
            e.1 += 1;
        }
        out
    }

    /// Write every span as Chrome trace-event JSON (complete events), with
    /// the parent index and op in `args`.
    pub fn write_chrome_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let op = s.op.map_or("null".to_owned(), |o| o.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{op}}}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.set_on(true);
        t.span("outer", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
        });
        let by_name = t.self_ns_by_name();
        let (outer, inner) = (&t.spans()[0], &t.spans()[1]);
        assert_eq!(by_name["inner"], (inner.dur_ns(), 1));
        assert_eq!(by_name["outer"], (outer.dur_ns() - inner.dur_ns(), 1));
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new();
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
