//! In-memory spans for the traced replay: name, trace id, start, end and
//! parent, recorded around calls into each layer, kept in memory and
//! written out when the run ends, then reduced to self time (a span's
//! duration minus the part its children cover).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Spans replaying one request share this id.
    pub trace: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// A span recorder; disabled, it only runs the closures.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    /// Wall time inside [`Tracer::measured`], traced or not.
    measured_ns: u64,
    trace: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            measured_ns: 0,
            trace: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Spans recorded from now on belong to request `trace`.
    pub fn set_trace(&mut self, trace: u64) {
        self.trace = trace;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            trace: self.trace,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        result
    }

    /// Run `f` and add its wall time to [`Tracer::measured_s`], whether
    /// or not spans are recorded: the replay work that spans wrap, without
    /// the warm-up around it.
    pub fn measured<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let started = Instant::now();
        let result = f(self);
        self.measured_ns += started.elapsed().as_nanos() as u64;
        result
    }

    pub fn measured_s(&self) -> f64 {
        self.measured_ns as f64 / 1e9
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"trace\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.name, span.trace, span.start_ns, span.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Total self time (ns) and call count per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.end_ns - span.start_ns;
        }
    }
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let entry = totals.entry(span.name).or_default();
        entry.0 += (span.end_ns - span.start_ns).saturating_sub(children);
        entry.1 += 1;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            trace: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_excludes_children_only() {
        let spans = vec![
            span("request", 0, 100, None),
            span("decode", 10, 30, Some(0)),
            span("estimate", 30, 80, Some(0)),
            span("floorplan", 40, 50, Some(2)),
            span("estimate", 200, 260, None),
        ];
        let totals = self_times(&spans);
        assert_eq!(totals["request"], (30, 1));
        assert_eq!(totals["decode"], (20, 1));
        assert_eq!(totals["estimate"], (40 + 60, 2));
        assert_eq!(totals["floorplan"], (10, 1));
    }

    #[test]
    fn nesting_follows_the_call_stack() {
        let mut tracer = Tracer::new(true);
        tracer.set_trace(7);
        let value = tracer.span("outer", |t| t.span("inner", |_| 41) + 1);
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].trace),
            ("inner", Some(0), 7)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |_| 1), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn only_measured_work_counts_traced_or_not() {
        let pause = std::time::Duration::from_millis(20);
        for enabled in [false, true] {
            let mut tracer = Tracer::new(enabled);
            std::thread::sleep(pause);
            tracer.measured(|t| t.span("work", |_| std::thread::sleep(pause)));
            let measured = tracer.measured_s();
            assert!((0.02..0.04).contains(&measured), "{measured}");
        }
    }
}
