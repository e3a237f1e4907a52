//! The traced run's span recorder.
//!
//! Spans are taken from outside the library: each one wraps a call into a
//! public function of a layer (`neura_sparse`, `neura_chip`, `neura_serve`,
//! `neura_lab`). They stay in memory and are written out once, when the
//! worker exits. With tracing off, [`Spans::off`] records nothing and
//! [`Spans::time`] is a plain call.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span, used as the parent of later spans.
pub type SpanId = usize;

/// One timed interval, in nanoseconds since the worker started.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    /// 0 for the main thread, `1 + worker` for `neura_lab::Runner` workers.
    thread: usize,
}

/// Span storage; `None` inside when tracing is off.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    recorded: Option<Vec<Span>>,
    open: Vec<SpanId>,
}

impl Spans {
    /// A recorder that keeps every span.
    pub fn on(origin: Instant) -> Self {
        Spans { origin, recorded: Some(Vec::new()), open: Vec::new() }
    }

    /// A recorder that keeps nothing.
    pub fn off(origin: Instant) -> Self {
        Spans { origin, recorded: None, open: Vec::new() }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.recorded.is_some()
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Option<SpanId> {
        self.recorded.as_ref()?;
        let start_ns = self.ns(Instant::now());
        let parent = self.open.last().copied();
        let spans = self.recorded.as_mut()?;
        spans.push(Span { name, start_ns, end_ns: start_ns, parent, thread: 0 });
        let id = spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `begin` returned (a no-op with tracing off).
    pub fn end(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let end_ns = self.ns(Instant::now());
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in nesting order");
        if let Some(spans) = self.recorded.as_mut() {
            spans[id].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Adds a span measured elsewhere (on a runner worker thread), under
    /// the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, thread: usize) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let parent = self.open.last().copied();
        if let Some(spans) = self.recorded.as_mut() {
            spans.push(Span { name, start_ns, end_ns, parent, thread });
        }
    }

    /// Summed duration in seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.recorded
            .iter()
            .flatten()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Every span as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, s) in self.recorded.iter().flatten().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id == 0 { "" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}  {{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"thread\": {}}}",
                s.name, s.start_ns, s.end_ns, s.thread
            );
        }
        out.push_str("\n]\n");
        out
    }
}
