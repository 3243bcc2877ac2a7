//! The Fig 3(b) signature: utilization climbs through a job's execution,
//! **peaks when the job ends**, then decays back. ("a notable spike emerges
//! for CPU and memory usage after Job job_7901 is scheduled into the
//! corresponding machines. Both metrics reach the peak of the utilization
//! when the job execution is over, followed by a slow drop to the normal
//! level.")

use batchlens_trace::{SeriesView, TimeDelta, TimeRange, Timestamp};
use serde::{Deserialize, Serialize};

use super::{AnomalyKind, AnomalySpan, DetectorState, Step};

/// Detects the end-of-job spike signature on one machine series given the
/// job's execution window on that machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpikeDetector {
    /// Minimum rise from the pre-job level to the peak (fraction points).
    pub min_rise: f64,
    /// The peak must fall within the job window stretched by this fraction
    /// of the job duration past its end.
    pub end_slack: f64,
    /// The series must drop below `peak - decay_fraction * rise` after the
    /// peak for the pattern to count as a spike (not a step change).
    pub decay_fraction: f64,
}

/// A matched spike pattern.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpikeMatch {
    /// When the peak occurred.
    pub peak_time: Timestamp,
    /// Peak value.
    pub peak: f64,
    /// Pre-job baseline level.
    pub baseline: f64,
    /// Rise magnitude (`peak - baseline`).
    pub rise: f64,
}

impl SpikeDetector {
    /// Detector with the default thresholds used by the case study.
    ///
    /// `min_rise` is deliberately high (30 points): a plateau-shaped batch
    /// task co-located with another job can produce a ~10–20 point rise
    /// that is normal multiplexing, not the Fig 3(b) anomaly.
    pub fn new() -> Self {
        SpikeDetector {
            min_rise: 0.30,
            end_slack: 0.6,
            decay_fraction: 0.3,
        }
    }

    /// A fresh incremental matcher scoped to one job window: push the
    /// machine's metric samples in time order and the state emits the spike
    /// span as soon as the signature is confirmed.
    pub fn state_for(&self, job_window: TimeRange) -> SpikeState {
        SpikeState::new(*self, job_window)
    }

    /// Scans one machine's metric series for the spike signature relative to
    /// a job executed on that machine during `job_window` — a thin wrapper
    /// feeding the series through [`SpikeDetector::state_for`].
    ///
    /// Returns `None` when any part of the signature is missing: no
    /// sufficient rise, peak not aligned with the job end, or no post-peak
    /// decay visible in the data.
    pub fn match_spike(
        &self,
        series: SeriesView<'_>,
        job_window: &TimeRange,
    ) -> Option<SpikeMatch> {
        if series.is_empty() || job_window.is_empty() {
            return None;
        }
        let mut state = self.state_for(*job_window);
        for (t, v) in series.iter() {
            state.push(t, v);
        }
        state.finish();
        state.matched()
    }

    /// Converts a match into a generic [`AnomalySpan`] covering the job
    /// window plus slack.
    pub fn span_for(&self, m: &SpikeMatch, job_window: &TimeRange) -> AnomalySpan {
        let slack = (job_window.duration().as_seconds() as f64 * self.end_slack) as i64;
        AnomalySpan {
            kind: AnomalyKind::EndSpike,
            range: TimeRange::new(
                job_window.start(),
                job_window.end() + batchlens_trace::TimeDelta::seconds(slack),
            )
            .expect("window is ordered"),
            peak: m.peak,
            peak_time: m.peak_time,
            severity: m.rise,
        }
    }
}

impl Default for SpikeDetector {
    fn default() -> Self {
        SpikeDetector::new()
    }
}

/// Incremental spike matcher for one job window.
///
/// O(1) per sample, O(1) memory: a rolling pre-window baseline sum, the
/// running peak inside the stretched search window, and the running minimum
/// after the current peak (for decay confirmation). The span is emitted at
/// the first sample at which the signature is fully confirmed *and* the
/// search window is behind us (so the peak is final) — the emitted match is
/// identical to what a whole-series scan would report.
///
/// Unlike the per-sample kernels, the spike signature is only decidable in
/// retrospect (the confirming sample lies *after* the anomaly), so this
/// state never sets [`Step::flagged`]: consumers act on [`Step::closed`]
/// (and [`SpikeState::matched`]), not on instantaneous flags.
#[derive(Debug, Clone)]
pub struct SpikeState {
    det: SpikeDetector,
    window: TimeRange,
    pre_start: Timestamp,
    search_end: Timestamp,
    last_third: Timestamp,
    pre_sum: f64,
    pre_count: usize,
    first: Option<f64>,
    peak: Option<(Timestamp, f64)>,
    min_after_peak: f64,
    found: Option<SpikeMatch>,
    emitted: bool,
}

impl SpikeState {
    /// A matcher for `det` scoped to `job_window`.
    pub fn new(det: SpikeDetector, job_window: TimeRange) -> Self {
        let dur = job_window.duration().as_seconds();
        let slack = (dur as f64 * det.end_slack) as i64;
        SpikeState {
            det,
            window: job_window,
            pre_start: job_window.start() - job_window.duration(),
            search_end: job_window.end() + TimeDelta::seconds(slack),
            last_third: job_window.start() + TimeDelta::seconds((dur as f64 * 0.66) as i64),
            pre_sum: 0.0,
            pre_count: 0,
            first: None,
            peak: None,
            min_after_peak: f64::INFINITY,
            found: None,
            emitted: false,
        }
    }

    /// The confirmed match, if the signature has been observed.
    pub fn matched(&self) -> Option<SpikeMatch> {
        self.found
    }

    /// Evaluates the signature against the state so far.
    fn evaluate(&self) -> Option<SpikeMatch> {
        if self.window.is_empty() {
            return None;
        }
        let (peak_time, peak) = self.peak?;
        let baseline = if self.pre_count > 0 {
            self.pre_sum / self.pre_count as f64
        } else {
            self.first?
        };
        let rise = peak - baseline;
        if rise < self.det.min_rise {
            return None;
        }
        // The peak must be near the job end: in the last third of the run or
        // within the slack after it.
        if peak_time < self.last_third {
            return None;
        }
        // Post-peak decay: some later sample fell below
        // peak - decay_fraction * rise.
        let decay_level = peak - self.det.decay_fraction * rise;
        if self.min_after_peak >= decay_level {
            return None;
        }
        Some(SpikeMatch {
            peak_time,
            peak,
            baseline,
            rise,
        })
    }

    fn confirm(&mut self) -> Option<AnomalySpan> {
        if self.emitted {
            return None;
        }
        let m = self.evaluate()?;
        self.found = Some(m);
        self.emitted = true;
        Some(self.det.span_for(&m, &self.window))
    }
}

impl DetectorState for SpikeState {
    fn push(&mut self, t: Timestamp, value: f64) -> Step {
        if self.first.is_none() {
            self.first = Some(value);
        }
        // Pre-job baseline: mean over a window of the same length before
        // the job start.
        if t >= self.pre_start && t < self.window.start() {
            self.pre_sum += value;
            self.pre_count += 1;
        }
        // Running peak within [start, end + slack). `>=` keeps the *last*
        // maximal sample, matching the batch scan's tie-breaking.
        if t >= self.window.start() && t < self.search_end {
            match self.peak {
                Some((_, p)) if value < p => {}
                _ => {
                    self.peak = Some((t, value));
                    self.min_after_peak = f64::INFINITY;
                }
            }
        }
        if let Some((pt, _)) = self.peak {
            if t > pt {
                self.min_after_peak = self.min_after_peak.min(value);
            }
        }
        // Emit only once the search window is behind us: the peak (and
        // hence the rise) is final, and the decay condition is monotone.
        let closed = if t >= self.search_end {
            self.confirm()
        } else {
            None
        };
        // The confirming sample itself is quiet — it sits after the spike —
        // so per-sample flags stay false; the verdict travels in `closed`.
        Step::new(false, 0.0, closed)
    }

    fn finish(&mut self) -> Option<AnomalySpan> {
        self.confirm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchlens_trace::TimeSeries;

    /// Synthesizes a series with an end-of-job spike: baseline, quadratic
    /// climb during the job, exponential decay after.
    fn spike_series(base: f64, peak: f64) -> (TimeSeries, TimeRange) {
        let start = 1800i64;
        let end = 4200i64;
        let mut s = TimeSeries::new();
        for i in 0..120 {
            let t = i * 60;
            let v = if t < start {
                base
            } else if t < end {
                let p = (t - start) as f64 / (end - start) as f64;
                base + (peak - base) * p * p
            } else {
                peak * (-((t - end) as f64) / 900.0).exp()
            };
            s.push(Timestamp::new(t), v).unwrap();
        }
        (
            s,
            TimeRange::new(Timestamp::new(start), Timestamp::new(end)).unwrap(),
        )
    }

    #[test]
    fn matches_textbook_spike() {
        let (s, w) = spike_series(0.2, 0.85);
        let m = SpikeDetector::new().match_spike(s.view(), &w).unwrap();
        assert!(m.rise > 0.5);
        // Peak within a sample of the job end.
        assert!(
            (m.peak_time.seconds() - 4200).abs() <= 60,
            "peak at {}",
            m.peak_time
        );
        let span = SpikeDetector::new().span_for(&m, &w);
        assert_eq!(span.kind, AnomalyKind::EndSpike);
        assert!(span.range.contains(m.peak_time));
    }

    #[test]
    fn rejects_flat_series() {
        let s: TimeSeries = (0..100).map(|i| (Timestamp::new(i * 60), 0.3)).collect();
        let w = TimeRange::new(Timestamp::new(1800), Timestamp::new(4200)).unwrap();
        assert!(SpikeDetector::new().match_spike(s.view(), &w).is_none());
    }

    #[test]
    fn rejects_early_peak() {
        // Peak right at job start, decaying through the job: not the signature.
        let mut s = TimeSeries::new();
        for i in 0..100 {
            let t = i * 60;
            let v = if (1800..2400).contains(&t) { 0.9 } else { 0.2 };
            s.push(Timestamp::new(t), v).unwrap();
        }
        let w = TimeRange::new(Timestamp::new(1800), Timestamp::new(4200)).unwrap();
        assert!(SpikeDetector::new().match_spike(s.view(), &w).is_none());
    }

    #[test]
    fn rejects_step_change_without_decay() {
        // Rises to a new level and stays: a regime change, not a spike.
        let mut s = TimeSeries::new();
        for i in 0..100 {
            let t = i * 60;
            let v = if t < 4000 {
                0.2 + 0.6 * ((t - 1800).max(0) as f64 / 2400.0).powi(2).min(1.0)
            } else {
                0.8
            };
            s.push(Timestamp::new(t), v).unwrap();
        }
        let w = TimeRange::new(Timestamp::new(1800), Timestamp::new(4200)).unwrap();
        assert!(SpikeDetector::new().match_spike(s.view(), &w).is_none());
    }

    #[test]
    fn empty_inputs() {
        let d = SpikeDetector::new();
        let w = TimeRange::new(Timestamp::new(0), Timestamp::new(100)).unwrap();
        assert!(d.match_spike(TimeSeries::new().view(), &w).is_none());
        let (s, _) = spike_series(0.2, 0.9);
        let empty = TimeRange::new(Timestamp::new(50), Timestamp::new(50)).unwrap();
        assert!(d.match_spike(s.view(), &empty).is_none());
    }
}
