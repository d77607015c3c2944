//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into a
//! layer's public functions; the library itself carries no instrumentation.
//! When tracing is off, [`Tracer::span`] is a plain call.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call: its name, the span it ran inside, and its interval in
/// nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            on: Cell::new(false),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f`, returning its result and its host seconds, and records a
    /// span named `name` when tracing is on.
    pub fn timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        if !self.on.get() {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed().as_secs_f64());
        }
        let parent = self.open.borrow().last().copied();
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        let end_ns = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[index].end_ns = end_ns;
        let secs = spans[index].secs();
        (out, secs)
    }

    /// Runs `f` inside a span named `name` (a plain call when tracing is
    /// off).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if self.on.get() {
            self.timed(name, f).0
        } else {
            f()
        }
    }

    /// Durations in seconds of every recorded span named `name`, in
    /// recording order.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Share of each span named `name` that its direct child spans cover,
    /// one value per span.
    pub fn child_coverage(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.borrow();
        let mut covered = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                covered[p] += s.secs();
            }
        }
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && s.end_ns > s.start_ns)
            .map(|(i, s)| covered[i] / s.secs())
            .collect()
    }

    /// Every recorded span as a JSON array of
    /// `{"name", "parent", "start_ns", "end_ns"}` objects.
    pub fn to_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-1".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}
