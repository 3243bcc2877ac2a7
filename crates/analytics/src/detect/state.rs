//! The incremental detection engine: push-based detector state machines.
//!
//! Every detector in this module family is an **online kernel**: a
//! [`DetectorState`] consumes one `(Timestamp, f64)` sample at a time and
//! emits [`AnomalySpan`]s as soon as they can be closed. Batch detection
//! ([`super::Detector::detect`]) is a thin provided method that feeds a whole
//! [`batchlens_trace::TimeSeries`] through the same state, so the batch and
//! streaming families can never disagree.
//!
//! # Per-sample complexity contract
//!
//! Each detector documents what one [`DetectorState::push`] costs; `n` is the
//! number of samples pushed so far and `w` the number of samples inside a
//! rolling horizon:
//!
//! | detector | per-sample cost | working memory | notes |
//! |---|---|---|---|
//! | threshold | O(1) | O(1) | pure comparison |
//! | EWMA | O(1) | O(1) | running mean/variance |
//! | CUSUM | O(1) | O(1) | two accumulators + EWMA target |
//! | z-score | O(1) | O(1) | Welford running moments over accepted samples |
//! | IQR | O(1) | O(1) | two P² quantile estimators (Q1, Q3) |
//! | MAD | O(log n) | O(n) | two two-heap running medians |
//! | ensemble | Σ members | Σ members | one push per member kernel |
//! | spike | O(1) | O(1) | rolling baseline sum + running peak/min |
//! | thrashing | O(1) amortized | O(w) | monotonic deque of CPU maxima |
//!
//! All other states are strictly O(1) amortized per sample, so per-sample
//! ingest cost is independent of how long the stream (or rolling window) is —
//! the property the `stream_ingest` bench pins down.

use batchlens_trace::{TimeDelta, TimeRange, Timestamp};

use super::{AnomalyKind, AnomalySpan};

/// The instantaneous outcome of pushing one sample into a state.
///
/// `flagged`/`severity` describe the *current* sample (this is what online
/// consumers such as `StreamMonitor` alert on, and what [`EnsembleState`]
/// members vote with); `closed` carries a span that this sample finished
/// (always a span of *earlier* samples — a sample never closes a span it
/// belongs to).
///
/// [`EnsembleState`]: super::Ensemble
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Whether this sample is anomalous by the detector's rule.
    pub flagged: bool,
    /// Detector-specific severity of this sample (0.0 when unflagged).
    pub severity: f64,
    /// A span closed by this sample, if any.
    pub closed: Option<AnomalySpan>,
}

impl Step {
    pub(crate) fn new(flagged: bool, severity: f64, closed: Option<AnomalySpan>) -> Step {
        Step {
            flagged,
            severity: if flagged { severity } else { 0.0 },
            closed,
        }
    }
}

/// An incremental single-series detector: push samples in time order, get
/// spans out as soon as they close.
///
/// # Contract
///
/// * Timestamps must be pushed in strictly increasing order; behaviour on
///   out-of-order input is unspecified (callers such as `StreamMonitor` drop
///   and count stragglers instead of pushing them).
/// * `push` is O(1) amortized per sample for every built-in detector except
///   MAD (O(log n)).
/// * [`DetectorState::finish`] closes the run still open at end-of-stream;
///   after `finish` the state must not be pushed again.
pub trait DetectorState: std::fmt::Debug + Send {
    /// Consumes the next sample, returning the instantaneous verdict plus
    /// any span this sample closed.
    fn push(&mut self, t: Timestamp, value: f64) -> Step;

    /// Ends the stream, closing any still-open run.
    fn finish(&mut self) -> Option<AnomalySpan>;
}

/// An incremental **paired-series** detector (e.g. thrashing, which needs
/// CPU *and* memory). Same contract as [`DetectorState`], but each push
/// carries the two metrics already aligned on one time grid.
pub trait PairedDetectorState: std::fmt::Debug + Send {
    /// Consumes the next aligned sample pair.
    fn push(&mut self, t: Timestamp, primary: f64, secondary: f64) -> Step;

    /// Ends the stream, closing any still-open run.
    fn finish(&mut self) -> Option<AnomalySpan>;
}

/// Groups a stream of per-sample flags into [`AnomalySpan`]s online — the
/// incremental counterpart of `spans_from_flags`, reproducing its grouping
/// exactly: runs shorter than `min_samples` are dropped, a span's
/// peak/severity come from its most severe sample (first one wins ties), and
/// the half-open end extends one *local* sample gap past the last flagged
/// sample.
///
/// O(1) per observation, O(1) memory. Detector states compose this with
/// their per-sample kernel; custom detectors can do the same.
#[derive(Debug, Clone)]
pub struct SpanBuilder {
    kind: AnomalyKind,
    min_samples: usize,
    /// Gap in seconds between the last two observed samples (≥ 1); 1 until
    /// two samples have been seen. Used to size the final span at
    /// end-of-stream, mirroring the batch kernel's tail fallback.
    prev_gap: i64,
    prev_t: Option<Timestamp>,
    open: Option<OpenRun>,
}

#[derive(Debug, Clone, Copy)]
struct OpenRun {
    start: Timestamp,
    last: Timestamp,
    count: usize,
    peak: f64,
    peak_time: Timestamp,
    severity: f64,
}

impl SpanBuilder {
    /// A builder emitting spans of `kind`, dropping runs shorter than
    /// `min_samples` (clamped to ≥ 1).
    pub fn new(kind: AnomalyKind, min_samples: usize) -> Self {
        SpanBuilder {
            kind,
            min_samples: min_samples.max(1),
            prev_gap: 1,
            prev_t: None,
            open: None,
        }
    }

    /// Feeds the verdict for the next sample (strictly increasing `t`).
    /// `value` is the sample value recorded as the span peak if this sample
    /// ends up the most severe of its run. Returns the span closed by this
    /// sample, if any.
    pub fn observe(
        &mut self,
        t: Timestamp,
        value: f64,
        flagged: bool,
        severity: f64,
    ) -> Option<AnomalySpan> {
        let closed = if flagged {
            match &mut self.open {
                Some(run) => {
                    run.last = t;
                    run.count += 1;
                    if severity > run.severity {
                        run.severity = severity;
                        run.peak = value;
                        run.peak_time = t;
                    }
                    None
                }
                None => {
                    self.open = Some(OpenRun {
                        start: t,
                        last: t,
                        count: 1,
                        peak: value,
                        peak_time: t,
                        severity,
                    });
                    None
                }
            }
        } else {
            // The unflagged sample is the run's successor in the grid, so
            // the span end extends by exactly the local gap to it.
            self.open
                .take()
                .and_then(|run| self.close(run, (t - run.last).as_seconds().max(1)))
        };
        if let Some(p) = self.prev_t {
            self.prev_gap = (t - p).as_seconds().max(1);
        }
        self.prev_t = Some(t);
        closed
    }

    /// Ends the stream: closes a run that reaches the final sample, sizing
    /// its end by the gap *before* that sample (the batch tail rule).
    pub fn finish(&mut self) -> Option<AnomalySpan> {
        let run = self.open.take()?;
        self.close(run, self.prev_gap)
    }

    fn close(&self, run: OpenRun, period: i64) -> Option<AnomalySpan> {
        if run.count < self.min_samples {
            return None;
        }
        let range = TimeRange::new(run.start, run.last + TimeDelta::seconds(period))
            .expect("samples observed in increasing time order");
        Some(AnomalySpan {
            kind: self.kind,
            range,
            peak: run.peak,
            peak_time: run.peak_time,
            severity: run.severity,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(builder: &mut SpanBuilder, samples: &[(i64, f64, bool)]) -> Vec<AnomalySpan> {
        let mut out = Vec::new();
        for &(t, v, f) in samples {
            out.extend(builder.observe(Timestamp::new(t), v, f, v));
        }
        out.extend(builder.finish());
        out
    }

    #[test]
    fn groups_consecutive_flags() {
        let mut b = SpanBuilder::new(AnomalyKind::HighUtilization, 1);
        let spans = feed(
            &mut b,
            &[
                (0, 0.1, false),
                (60, 0.9, true),
                (120, 0.8, true),
                (180, 0.1, false),
                (240, 0.7, true),
            ],
        );
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].range.start(), Timestamp::new(60));
        assert_eq!(spans[0].range.end(), Timestamp::new(180));
        assert_eq!(spans[0].peak, 0.9);
        // Tail run extends by the gap before the final sample.
        assert_eq!(spans[1].range.end(), Timestamp::new(300));
    }

    #[test]
    fn short_runs_are_dropped() {
        let mut b = SpanBuilder::new(AnomalyKind::Outlier, 3);
        let spans = feed(
            &mut b,
            &[
                (0, 0.9, true),
                (60, 0.9, true),
                (120, 0.1, false),
                (180, 0.9, true),
                (240, 0.9, true),
                (300, 0.9, true),
            ],
        );
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].range.start(), Timestamp::new(180));
    }

    #[test]
    fn irregular_gap_sizes_span_end() {
        let mut b = SpanBuilder::new(AnomalyKind::Deviation, 1);
        // Run closes right before a 600 s reporting gap.
        let spans = feed(
            &mut b,
            &[(0, 0.9, true), (60, 0.9, true), (660, 0.1, false)],
        );
        assert_eq!(spans[0].range.end(), Timestamp::new(660));
    }

    #[test]
    fn first_most_severe_sample_wins_ties() {
        let mut b = SpanBuilder::new(AnomalyKind::Outlier, 1);
        let mut out = Vec::new();
        out.extend(b.observe(Timestamp::new(0), 1.0, true, 5.0));
        out.extend(b.observe(Timestamp::new(60), 2.0, true, 5.0));
        out.extend(b.finish());
        assert_eq!(out[0].peak, 1.0);
        assert_eq!(out[0].peak_time, Timestamp::new(0));
    }

    #[test]
    fn single_sample_stream() {
        let mut b = SpanBuilder::new(AnomalyKind::Outlier, 1);
        let spans = feed(&mut b, &[(100, 0.9, true)]);
        assert_eq!(spans.len(), 1);
        // No neighbours: the period falls back to one second.
        assert_eq!(spans[0].range.end(), Timestamp::new(101));
    }
}
