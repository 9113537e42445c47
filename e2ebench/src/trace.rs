//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! the system's public functions: a name, start, end, the span that
//! encloses it, and the id of the operation it belongs to. They stay in
//! memory while the workload runs and are written out at the end. A
//! span's self time is its duration minus the time its child spans
//! cover. With tracing off every call is a no-op.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary, e.g. `conform.conform`.
    pub name: &'static str,
    /// The client thread that recorded it.
    pub thread: usize,
    /// The operation it belongs to; with `thread`, shared by all spans of
    /// one operation.
    pub op: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Nanoseconds covered by child spans.
    pub child_ns: u64,
}

impl Span {
    /// Duration minus the part covered by child spans.
    pub fn self_ns(&self) -> u64 {
        (self.end_ns - self.start_ns).saturating_sub(self.child_ns)
    }
}

/// A handle to an open span (or nothing, with tracing off).
#[must_use = "an open span must be ended"]
pub struct Open(Option<usize>);

/// Per-thread span recorder and counter sink.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: usize,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A recorder for client thread `thread`; records only when `on`.
    pub fn new(on: bool, epoch: Instant, thread: usize) -> Self {
        Tracer {
            on,
            epoch,
            thread,
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Starts a new operation: spans opened from now on share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            thread: self.thread,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            child_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `span`.
    pub fn end(&mut self, span: Open) {
        self.close(span, None);
    }

    /// Closes `span` under a name chosen once its call has returned
    /// (e.g. by the planner outcome it reported).
    pub fn end_as(&mut self, span: Open, name: &'static str) {
        self.close(span, Some(name));
    }

    fn close(&mut self, span: Open, rename: Option<&'static str>) {
        let Some(idx) = span.0 else { return };
        let end = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans close innermost first");
        let s = &mut self.spans[idx];
        s.end_ns = end;
        if let Some(name) = rename {
            s.name = name;
        }
        let (dur, parent) = (s.end_ns - s.start_ns, s.parent);
        if let Some(p) = parent {
            self.spans[p].child_ns += dur;
        }
    }

    /// Adds `v` to counter `name` (recorded only with tracing on).
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counters.entry(name).or_insert(0.0) += v;
        }
    }
}

/// Every thread's spans and counters of one traced run.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// Folds one thread's recorder in.
    pub fn absorb(&mut self, t: Tracer) {
        assert!(t.stack.is_empty(), "every span is closed before absorb");
        let offset = self.spans.len();
        self.spans.extend(t.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        for (k, v) in t.counters {
            *self.counters.entry(k).or_insert(0.0) += v;
        }
    }

    /// Sets counter `name` directly (for values measured outside a
    /// client thread).
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.counters.insert(name, v);
    }

    /// Adds `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    /// Counter `name`, 0 when never recorded.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Mean self time of spans named `name`, in milliseconds; 0 when
    /// none was recorded.
    pub fn mean_self_ms(&self, name: &str) -> f64 {
        let (n, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.self_ns()));
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1e6
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"i\":{i},\"thread\":{},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.thread,
                s.op,
                s.name,
                s.start_ns,
                s.end_ns,
                s.self_ns()
            )?;
        }
        out.flush()
    }
}
