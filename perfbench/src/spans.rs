//! Spans recorded by the benchmark around each public call it makes.
//!
//! The untraced runs use [`NoSpans`], which compiles to the bare call;
//! the traced run uses [`Recorder`], which keeps every span in memory and
//! writes them out once, at exit. Instrumentation inside the program is
//! deliberately out of scope: these spans sit at the crate boundaries.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Something that can wrap a call in a named span.
pub trait Spans {
    /// Runs `f` inside a span called `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T;

    /// Tags the spans that follow with op id `op`.
    fn begin_op(&mut self, _op: u64) {}
}

/// Records nothing.
pub struct NoSpans;

impl Spans for NoSpans {
    #[inline(always)]
    fn span<T>(&mut self, _name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        f(self)
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, named after the crate entry point it wraps.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Keeps spans in memory.
pub struct Recorder {
    epoch: Instant,
    /// Every span closed so far, in start order.
    pub spans: Vec<Span>,
    open: Vec<usize>,
    /// The op id new spans are tagged with.
    pub op: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Spans for Recorder {
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    fn begin_op(&mut self, op: u64) {
        self.op = op;
    }
}

impl Recorder {
    /// Durations (ms) of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Mean duration (ms) of the spans called `name`; 0.0 for none.
    pub fn mean_ms(&self, name: &str) -> f64 {
        crate::stats::mean(&self.durations(name))
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover, summed, in milliseconds.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            );
        }
        out
    }
}
