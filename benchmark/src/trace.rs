//! In-memory spans around the calls into each layer. Kept in memory while
//! the traced pass runs and written out as JSONL when it ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Identifier shared by the spans of one request.
    pub request: usize,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; spans opened before the matching [`Self::exit`] become
    /// its children.
    pub fn enter(&mut self, name: &'static str, request: usize) -> usize {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let end_us = self.now_us();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_us = end_us;
    }

    /// Run `work` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, request: usize, work: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request);
        let out = work();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ms)
            .collect()
    }

    /// One JSON object per span, in start order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_ms = self_times_ms(&self.spans);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
                 \"start_us\":{:.3},\"end_us\":{:.3},\"self_ms\":{:.6}}}",
                span.name, span.request, span.start_us, span.end_us, self_ms[id]
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the durations of its children.
pub fn self_times_ms(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration_ms).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.duration_ms();
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("root", None, 0.0, 10_000.0),
            span("a", Some(0), 1_000.0, 4_000.0),
            span("a.inner", Some(1), 2_000.0, 3_000.0),
            span("b", Some(0), 5_000.0, 9_000.0),
        ];
        assert_eq!(self_times_ms(&spans), vec![3.0, 2.0, 1.0, 4.0]);
    }

    #[test]
    fn nesting_sets_parents_and_request_ids() {
        let mut tracer = Tracer::new();
        let root = tracer.enter("root", 7);
        let one = tracer.span("leaf", 7, || 1);
        let leaf = tracer.enter("leaf", 7);
        let two = tracer.span("deep", 7, || 2);
        tracer.exit(leaf);
        tracer.exit(root);
        assert_eq!(one + two, 3);
        let parents: Vec<Option<usize>> = tracer.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(tracer
            .spans()
            .iter()
            .all(|s| s.request == 7 && s.end_us >= s.start_us));
        assert_eq!(tracer.durations_ms("leaf").len(), 2);
        let own = self_times_ms(tracer.spans());
        assert!(own.iter().all(|&ms| ms >= 0.0));
    }
}
