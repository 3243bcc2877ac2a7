//! Anomaly detection over utilization series — one incremental engine.
//!
//! Every detector is an **online kernel**: [`Detector::state`] yields a
//! [`DetectorState`] that consumes one `(Timestamp, f64)` sample at a time
//! in O(1) amortized per sample (see the complexity table in the `state` module), and
//! batch detection ([`Detector::detect`]) is a provided method that feeds the
//! whole series through that state. The batch and streaming paths therefore
//! share one implementation and can never disagree.
//!
//! Two families:
//!
//! * **Generic metric detectors** implementing [`Detector`] — threshold,
//!   z-score, EWMA, MAD, CUSUM, IQR and the voting [`Ensemble`]. These are
//!   the "metric-based approaches" the paper cites as prior art and that
//!   BatchLens complements visually.
//! * **Signature detectors** for the two case-study behaviours:
//!   [`spike::SpikeDetector`] (utilization peaking at job end, Fig 3(b)),
//!   whose state is scoped to one job window, and
//!   [`thrashing::ThrashingDetector`] (memory pinned while CPU collapses,
//!   Fig 3(c)), a [`PairedDetectorState`] over aligned CPU/memory samples.
//!
//! The retained scan implementations live in [`reference`](mod@reference)
//! for differential testing and benchmarking.

mod cusum;
mod ensemble;
mod ewma;
mod iqr;
mod mad;
pub mod parallel;
pub mod reference;
pub mod spike;
mod state;
pub mod thrashing;
mod threshold;
mod zscore;

pub use cusum::CusumDetector;
pub use ensemble::Ensemble;
pub use ewma::EwmaDetector;
pub use iqr::IqrDetector;
pub use mad::MadDetector;
pub use parallel::{detect_all_machines, detect_metric_all_machines, MachineDetection};
pub use spike::SpikeDetector;
pub use state::{DetectorState, PairedDetectorState, SpanBuilder, Step};
pub use thrashing::{ThrashingDetector, ThrashingState};
pub use threshold::ThresholdDetector;
pub use zscore::ZScoreDetector;

use batchlens_trace::{TimeDelta, TimeRange, TimeSeries, Timestamp};
use serde::{Deserialize, Serialize};

/// What kind of anomalous behaviour a span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum AnomalyKind {
    /// Sustained utilization above a fixed threshold.
    HighUtilization,
    /// Statistical outlier relative to the series' own distribution.
    Outlier,
    /// Deviation from the EWMA-smoothed expectation.
    Deviation,
    /// The end-of-job spike signature (Fig 3(b)).
    EndSpike,
    /// The thrashing signature (Fig 3(c)).
    Thrashing,
}

/// A detected anomalous interval in one series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnomalySpan {
    /// Behaviour classification.
    pub kind: AnomalyKind,
    /// The flagged interval.
    pub range: TimeRange,
    /// The most extreme value inside the span.
    pub peak: f64,
    /// When the most extreme value occurred.
    pub peak_time: Timestamp,
    /// Detector-specific severity (threshold excess, z-score, …); larger is
    /// more anomalous, values are comparable only within one detector.
    pub severity: f64,
}

/// A detector over a single metric series.
///
/// Implementations provide an incremental [`DetectorState`]; batch detection
/// is the provided [`Detector::detect`], which feeds the whole series through
/// a fresh state — so a detector is pure by construction: the same series
/// yields the same spans, whether pushed sample-by-sample or scanned.
///
/// The `Send + Sync` supertraits let detector configurations be shared
/// across ingest threads (the online `StreamMonitor` spawns one state per
/// machine from a shared detector set).
pub trait Detector: Send + Sync {
    /// Short name for reports and benches (e.g. `"zscore"`).
    fn name(&self) -> &'static str;

    /// The anomaly classification this detector's spans and flags carry
    /// (e.g. online alert routing labels a flagged sample with this kind).
    fn kind(&self) -> AnomalyKind;

    /// A fresh incremental state for one stream.
    fn state(&self) -> Box<dyn DetectorState>;

    /// Scans `series` by streaming it through [`Detector::state`] and
    /// returns anomalous spans in time order.
    fn detect(&self, series: &TimeSeries) -> Vec<AnomalySpan> {
        self.detect_view(series.view())
    }

    /// [`Detector::detect`] over a borrowed window — the zero-copy entry
    /// point windowed fan-outs use ([`parallel::detect_all_machines`]), so
    /// restricting detection to a brushed range never clones the samples.
    fn detect_view(&self, view: batchlens_trace::SeriesView<'_>) -> Vec<AnomalySpan> {
        let mut state = self.state();
        let mut out = Vec::new();
        for (t, v) in view.iter() {
            if let Some(span) = state.push(t, v).closed {
                out.push(span);
            }
        }
        out.extend(state.finish());
        out
    }
}

/// Groups consecutive flagged sample indices into [`AnomalySpan`]s.
///
/// `flags[i]` marks sample `i` anomalous; runs shorter than `min_samples`
/// are dropped. `severity_of(i)` scores one sample; a span's severity/peak
/// come from its most severe sample. Span ends extend one sample period past
/// the last flagged sample (half-open ranges).
pub(crate) fn spans_from_flags(
    series: &TimeSeries,
    flags: &[bool],
    min_samples: usize,
    kind: AnomalyKind,
    severity_of: impl Fn(usize) -> f64,
) -> Vec<AnomalySpan> {
    let times = series.times();
    let values = series.values();
    debug_assert_eq!(times.len(), flags.len());
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < flags.len() {
        if !flags[i] {
            i += 1;
            continue;
        }
        let run_start = i;
        while i < flags.len() && flags[i] {
            i += 1;
        }
        let run_end = i; // exclusive
        if run_end - run_start < min_samples.max(1) {
            continue;
        }
        let mut best = run_start;
        for j in run_start..run_end {
            if severity_of(j) > severity_of(best) {
                best = j;
            }
        }
        // Half-open end: one sample period past the last flagged point. The
        // period is the *local* gap after the run's last sample (or, at the
        // series tail, the gap before it) so irregular or resampled series
        // don't inherit a global `times[1] - times[0]` estimate that
        // mis-sizes their spans.
        let last = run_end - 1;
        let period = if last + 1 < times.len() {
            (times[last + 1] - times[last]).as_seconds().max(1)
        } else if last > 0 {
            (times[last] - times[last - 1]).as_seconds().max(1)
        } else {
            1
        };
        let range = TimeRange::new(
            times[run_start],
            times[run_end - 1] + TimeDelta::seconds(period),
        )
        .expect("monotone sample times");
        out.push(AnomalySpan {
            kind,
            range,
            peak: values[best],
            peak_time: times[best],
            severity: severity_of(best),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64]) -> TimeSeries {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (Timestamp::new(i as i64 * 60), v))
            .collect()
    }

    #[test]
    fn spans_merge_consecutive_flags() {
        let s = series(&[0.0, 1.0, 1.0, 0.0, 1.0]);
        let flags = [false, true, true, false, true];
        let spans = spans_from_flags(&s, &flags, 1, AnomalyKind::HighUtilization, |i| {
            s.values()[i]
        });
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].range.start(), Timestamp::new(60));
        assert_eq!(spans[0].range.end(), Timestamp::new(180));
        assert_eq!(spans[1].range.start(), Timestamp::new(240));
    }

    #[test]
    fn short_runs_are_dropped() {
        let s = series(&[0.0, 1.0, 0.0, 1.0, 1.0, 1.0]);
        let flags = [false, true, false, true, true, true];
        let spans = spans_from_flags(&s, &flags, 3, AnomalyKind::HighUtilization, |i| {
            s.values()[i]
        });
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].range.start(), Timestamp::new(180));
    }

    #[test]
    fn span_end_uses_local_gap_on_irregular_grids() {
        // Samples at 0, 60, 120, then a 600 s reporting gap, then 720.
        let s: TimeSeries = [0i64, 60, 120, 720, 780]
            .iter()
            .enumerate()
            .map(|(i, &t)| (Timestamp::new(t), i as f64))
            .collect();
        // Run ends at t=60; the local gap to the next sample (120) is 60 s.
        let flags = [true, true, false, false, false];
        let spans = spans_from_flags(&s, &flags, 1, AnomalyKind::HighUtilization, |i| {
            s.values()[i]
        });
        assert_eq!(spans[0].range.end(), Timestamp::new(120));
        // Run ending right before the long gap extends by that gap, not by
        // the global times[1]-times[0] estimate.
        let flags = [false, false, true, false, false];
        let spans = spans_from_flags(&s, &flags, 1, AnomalyKind::HighUtilization, |i| {
            s.values()[i]
        });
        assert_eq!(spans[0].range.end(), Timestamp::new(720));
        // A run reaching the series tail reuses the gap before the last
        // sample (60 s here).
        let flags = [false, false, false, true, true];
        let spans = spans_from_flags(&s, &flags, 1, AnomalyKind::HighUtilization, |i| {
            s.values()[i]
        });
        assert_eq!(spans[0].range.end(), Timestamp::new(840));
    }

    #[test]
    fn peak_is_most_severe_sample() {
        let s = series(&[0.0, 0.5, 0.9, 0.7, 0.0]);
        let flags = [false, true, true, true, false];
        let spans = spans_from_flags(&s, &flags, 1, AnomalyKind::HighUtilization, |i| {
            s.values()[i]
        });
        assert_eq!(spans[0].peak, 0.9);
        assert_eq!(spans[0].peak_time, Timestamp::new(120));
    }
}
