//! The benchmark's own spans: one per call into a layer, recorded from
//! outside the program, kept in memory and written out when the run ends.
//! The per-layer table is derived from these spans.

use std::io::Write;
use std::time::Instant;

use crate::json;

/// One completed call. `parent` indexes the enclosing span; spans of one
/// iteration share an `op_id`.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
    /// Off during warm-up iterations: calls still run, nothing is kept.
    pub recording: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
            open: Vec::new(),
            next_op: 0,
            recording: true,
        }
    }

    /// Run `f` inside a span named `name`. A span opened while no other is
    /// open starts a new op; spans opened by `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.recording {
            return f(self);
        }
        if self.open.is_empty() {
            self.next_op += 1;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op_id: self.next_op,
        });
        self.open.push(index);
        let start = self.epoch.elapsed();
        let result = f(self);
        let end = self.epoch.elapsed();
        self.open.pop();
        self.spans[index].start_ns = start.as_nanos() as u64;
        self.spans[index].end_ns = end.as_nanos() as u64;
        result
    }

    /// Run `f` as a leaf span.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, |_| f())
    }

    /// `warm` unrecorded then `iters` recorded iterations of `body`, so that
    /// the calls inside one iteration are interleaved with each other.
    pub fn rounds(&mut self, (warm, iters): (usize, usize), mut body: impl FnMut(&mut Tracer)) {
        for i in 0..warm + iters {
            self.recording = i >= warm;
            body(self);
        }
        self.recording = true;
    }

    /// Durations in nanoseconds of every recorded span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Median duration in nanoseconds of the spans called `name`.
    pub fn median_ns(&self, name: &str) -> f64 {
        crate::stats::median(&self.durations(name))
    }

    /// Write every span as one JSON document.
    pub fn write_json(&self, mut out: impl Write) -> std::io::Result<()> {
        out.write_all(b"{\"spans\": [\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op_id\": {}}}{comma}",
                json::quote(s.name),
                s.start_ns,
                s.end_ns,
                s.op_id
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_share_op_ids_and_skip_warm_ups() {
        let mut t = Tracer::new();
        t.rounds((2, 3), |t| {
            t.span("outer", |t| {
                t.call("inner", || std::hint::black_box(1 + 1));
            });
        });
        assert_eq!(t.durations("outer").len(), 3);
        assert_eq!(t.durations("inner").len(), 3);
        for pair in t.spans.chunks(2) {
            assert_eq!(pair[0].parent, None);
            assert_eq!(pair[1].op_id, pair[0].op_id);
            assert!(pair[0].start_ns <= pair[1].start_ns && pair[1].end_ns <= pair[0].end_ns);
        }
        assert_eq!(t.spans[1].parent, Some(0));
        assert_ne!(t.spans[0].op_id, t.spans[2].op_id);
        let mut text = Vec::new();
        t.write_json(&mut text).unwrap();
        let doc = json::parse(std::str::from_utf8(&text).unwrap()).unwrap();
        assert_eq!(doc.get("spans").unwrap().items().len(), 6);
    }
}
