//! Spans the benchmark records around each call it makes into a layer.
//!
//! A span is a name, a start, an end, the span that caused it, and the
//! request it belongs to. Each thread records into its own [`Recorder`]
//! (no lock on the measured path); the recorders are merged when the run
//! ends and written out as JSON lines.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer call, as `layer.call` (for example `core.ingest_batch`).
    pub name: &'static str,
    /// The benchmark thread that made the call.
    pub thread: &'static str,
    /// Start, in microseconds since the run's origin.
    pub start_us: f64,
    /// End, in microseconds since the run's origin.
    pub end_us: f64,
    /// Index of the enclosing span in the merged list, if any.
    pub parent: Option<usize>,
    /// The request (epoch, poll or step number) the span served.
    pub request: u64,
}

impl Span {
    /// The span's duration in microseconds.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A per-thread span buffer. When disabled it records nothing, so the
/// untraced run pays one branch per call.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    thread: &'static str,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for `thread`, timing relative to `origin`.
    pub fn new(origin: Instant, enabled: bool, thread: &'static str) -> Recorder {
        Recorder {
            origin,
            enabled,
            thread,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span that ran from `start` to `end`; returns its index in
    /// this recorder for use as a later span's `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            thread: self.thread,
            start_us: us(start),
            end_us: us(end),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Runs `f`, records it as a span, and returns its result with its
    /// duration (measured whether or not spans are kept).
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, request, None, start, end);
        (out, end - start)
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans, with parent indices local to this recorder.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Appends `from` to `into`, rebasing its parent indices.
pub fn merge(into: &mut Vec<Span>, from: Vec<Span>) {
    let base = into.len();
    into.extend(from.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Durations in microseconds of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_us)
        .collect()
}

/// Writes `spans` as one JSON object per line, each with its index.
///
/// # Errors
///
/// IO errors creating or writing the file.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"thread\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"request\":{}}}",
            s.name, s.thread, s.start_us, s.end_us, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing_but_still_times() {
        let mut r = Recorder::new(Instant::now(), false, "t");
        let (v, d) = r.time("x", 0, || 7);
        assert_eq!(v, 7);
        assert!(d >= Duration::ZERO);
        assert!(r.into_spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin, true, "a");
        let p = a.record("outer", 1, None, origin, origin);
        a.record("inner", 1, p, origin, origin);
        let mut all = Vec::new();
        merge(&mut all, a.into_spans());
        let mut b = Recorder::new(origin, true, "b");
        let p = b.record("outer", 2, None, origin, origin);
        b.record("inner", 2, p, origin, origin);
        merge(&mut all, b.into_spans());
        assert_eq!(all[3].parent, Some(2));
        assert_eq!(durations_us(&all, "inner").len(), 2);
    }
}
