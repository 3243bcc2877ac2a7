//! The Fig 3(c) signature: **thrashing**. Virtual memory is overused, so
//! the machine pages instead of computing — memory utilization stays pinned
//! while CPU utilization *decreases* and the system stops making progress.
//! ("It is likely to speculate that the compute node is suffering thrashing
//! while the virtual memory is overused … Eventually thrashing forces the
//! CPU utilization to decrease and the whole system is not making any
//! progresses.")

use std::collections::VecDeque;

use batchlens_trace::{SeriesView, TimeDelta, Timestamp};
use serde::{Deserialize, Serialize};

use super::{AnomalyKind, AnomalySpan, PairedDetectorState, SpanBuilder, Step};

/// Detects the thrashing signature across a machine's CPU and memory series.
///
/// A sample looks thrashing when memory is pinned above `mem_high`, the
/// `mem - cpu` gap exceeds `min_gap`, **and** the CPU has declined by at
/// least `min_cpu_decline` from its maximum over the trailing `horizon` —
/// the window-max-to-current rule. (An earlier revision compared the first
/// and last samples of the window, which missed a mid-window collapse after
/// a flat start.)
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThrashingDetector {
    /// Memory utilization considered "pinned".
    pub mem_high: f64,
    /// Minimum gap `mem - cpu` for a sample to look thrashing.
    pub min_gap: f64,
    /// Minimum consecutive samples for a span to be reported.
    pub min_samples: usize,
    /// The CPU must sit at least this far below its trailing-window maximum.
    pub min_cpu_decline: f64,
    /// How far back the CPU reference maximum looks.
    pub horizon: TimeDelta,
}

impl ThrashingDetector {
    /// Detector with the case study's default thresholds.
    pub fn new() -> Self {
        ThrashingDetector {
            mem_high: 0.6,
            min_gap: 0.25,
            min_samples: 3,
            min_cpu_decline: 0.05,
            horizon: TimeDelta::minutes(30),
        }
    }

    /// A fresh incremental state: push aligned `(t, cpu, mem)` samples in
    /// time order.
    pub fn state(&self) -> ThrashingState {
        ThrashingState {
            det: *self,
            maxima: VecDeque::new(),
            builder: SpanBuilder::new(AnomalyKind::Thrashing, self.min_samples),
        }
    }

    /// Scans paired CPU/memory series (same machine) for thrashing spans —
    /// a thin wrapper that aligns memory onto the CPU grid with
    /// sample-and-hold (two-cursor merge, O(n + m)) and feeds the pairs
    /// through [`ThrashingDetector::state`]. Both are borrowed views, such
    /// as a dataset machine's usage ([`batchlens_trace::MachineView::usage`]).
    pub fn detect(&self, cpu: SeriesView<'_>, mem: SeriesView<'_>) -> Vec<AnomalySpan> {
        if cpu.is_empty() || mem.is_empty() {
            return Vec::new();
        }
        let mut state = self.state();
        let mut out = Vec::new();
        let mut j = 0usize; // first index of `mem` with time > t
        for (t, c) in cpu.iter() {
            while j < mem.len() && mem.times()[j] <= t {
                j += 1;
            }
            if j == 0 {
                // Memory has not started reporting yet: nothing to pair.
                continue;
            }
            if let Some(span) = state.push(t, c, mem.values()[j - 1]).closed {
                out.push(span);
            }
        }
        out.extend(state.finish());
        out
    }
}

impl Default for ThrashingDetector {
    fn default() -> Self {
        ThrashingDetector::new()
    }
}

/// Incremental thrashing state over aligned `(cpu, mem)` pairs.
///
/// O(1) amortized per sample (each sample enters and leaves the monotonic
/// deque at most once), O(w) memory for `w` samples inside the horizon.
/// Span peaks report the *memory* level at the widest-gap sample — the
/// overuse driving the collapse — and span severity is that gap.
#[derive(Debug, Clone)]
pub struct ThrashingState {
    det: ThrashingDetector,
    /// Monotonically decreasing `(time, cpu)` maxima inside the horizon;
    /// the front is the trailing-window CPU maximum.
    maxima: VecDeque<(Timestamp, f64)>,
    builder: SpanBuilder,
}

impl PairedDetectorState for ThrashingState {
    fn push(&mut self, t: Timestamp, cpu: f64, mem: f64) -> Step {
        let cutoff = t - self.det.horizon;
        while self.maxima.front().is_some_and(|&(ft, _)| ft < cutoff) {
            self.maxima.pop_front();
        }
        let window_max = self.maxima.front().map_or(cpu, |&(_, m)| m.max(cpu));
        let decline = window_max - cpu;
        while self.maxima.back().is_some_and(|&(_, bv)| bv <= cpu) {
            self.maxima.pop_back();
        }
        self.maxima.push_back((t, cpu));

        let gap = mem - cpu;
        let flagged = mem > self.det.mem_high
            && gap > self.det.min_gap
            && decline >= self.det.min_cpu_decline;
        let closed = self.builder.observe(t, mem, flagged, gap);
        Step::new(flagged, gap, closed)
    }

    fn finish(&mut self) -> Option<AnomalySpan> {
        self.builder.finish()
    }
}

/// Convenience: fraction of flagged machines among `pairs`, used by reports
/// ("a tremendous amount of nodes are running at high memory but low CPU").
pub fn thrashing_machine_fraction<'a, I>(detector: &ThrashingDetector, pairs: I) -> f64
where
    I: IntoIterator<Item = (SeriesView<'a>, SeriesView<'a>)>,
{
    let mut total = 0usize;
    let mut hit = 0usize;
    for (cpu, mem) in pairs {
        total += 1;
        if !detector.detect(cpu, mem).is_empty() {
            hit += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        hit as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchlens_trace::TimeSeries;

    /// CPU healthy then collapsing at `collapse_at`; memory pinned from
    /// `collapse_at` on.
    fn thrash_pair(collapse_at: i64) -> (TimeSeries, TimeSeries) {
        let mut cpu = TimeSeries::new();
        let mut mem = TimeSeries::new();
        for i in 0..120 {
            let t = i * 60;
            let c = if t < collapse_at {
                0.55
            } else {
                // Exponential collapse toward 0.08.
                0.08 + (0.55 - 0.08) * (-((t - collapse_at) as f64) / 600.0).exp()
            };
            let m = if t < collapse_at { 0.45 } else { 0.92 };
            cpu.push(Timestamp::new(t), c).unwrap();
            mem.push(Timestamp::new(t), m).unwrap();
        }
        (cpu, mem)
    }

    #[test]
    fn detects_collapse() {
        let (cpu, mem) = thrash_pair(3600);
        let spans = ThrashingDetector::new().detect(cpu.view(), mem.view());
        assert_eq!(spans.len(), 1, "spans: {spans:?}");
        let s = spans[0];
        assert_eq!(s.kind, AnomalyKind::Thrashing);
        assert!(s.range.start().seconds() >= 3600);
        assert!(
            s.peak > 0.9,
            "span peak should be the pinned memory, got {}",
            s.peak
        );
        assert!(s.severity > 0.25);
    }

    #[test]
    fn mid_window_collapse_after_flat_start_is_caught() {
        // CPU flat at the window start, then collapsing mid-window while
        // memory pins: the window-max-to-current rule catches this; the old
        // first-to-last comparison on a window opening mid-collapse did not
        // reliably.
        let mut cpu = TimeSeries::new();
        let mut mem = TimeSeries::new();
        for i in 0..60 {
            let t = i * 60;
            let c = if t < 1200 {
                0.5
            } else {
                (0.5 - (t - 1200) as f64 / 1500.0).max(0.05)
            };
            cpu.push(Timestamp::new(t), c).unwrap();
            mem.push(Timestamp::new(t), if t < 1200 { 0.4 } else { 0.9 })
                .unwrap();
        }
        let spans = ThrashingDetector::new().detect(cpu.view(), mem.view());
        assert!(!spans.is_empty());
    }

    #[test]
    fn healthy_busy_machine_is_not_thrashing() {
        // Both CPU and memory high: busy, not thrashing.
        let cpu: TimeSeries = (0..100).map(|i| (Timestamp::new(i * 60), 0.85)).collect();
        let mem: TimeSeries = (0..100).map(|i| (Timestamp::new(i * 60), 0.9)).collect();
        assert!(ThrashingDetector::new()
            .detect(cpu.view(), mem.view())
            .is_empty());
    }

    #[test]
    fn idle_machine_with_cached_memory_is_not_thrashing() {
        // Memory high but CPU flat-low the whole time: no decline, so not
        // thrashing (just cached/committed memory on an idle box).
        let cpu: TimeSeries = (0..100).map(|i| (Timestamp::new(i * 60), 0.1)).collect();
        let mem: TimeSeries = (0..100).map(|i| (Timestamp::new(i * 60), 0.8)).collect();
        assert!(ThrashingDetector::new()
            .detect(cpu.view(), mem.view())
            .is_empty());
    }

    #[test]
    fn gap_alone_without_pinned_memory_is_ignored() {
        let cpu: TimeSeries = (0..100).map(|i| (Timestamp::new(i * 60), 0.05)).collect();
        let mem: TimeSeries = (0..100).map(|i| (Timestamp::new(i * 60), 0.45)).collect();
        assert!(ThrashingDetector::new()
            .detect(cpu.view(), mem.view())
            .is_empty());
    }

    #[test]
    fn fraction_counts_hits() {
        let (c1, m1) = thrash_pair(3600);
        let c2: TimeSeries = (0..100).map(|i| (Timestamp::new(i * 60), 0.5)).collect();
        let m2: TimeSeries = (0..100).map(|i| (Timestamp::new(i * 60), 0.4)).collect();
        let f = thrashing_machine_fraction(
            &ThrashingDetector::new(),
            vec![(c1.view(), m1.view()), (c2.view(), m2.view())],
        );
        assert!((f - 0.5).abs() < 1e-12);
        assert_eq!(
            thrashing_machine_fraction(&ThrashingDetector::new(), Vec::new()),
            0.0
        );
    }

    #[test]
    fn empty_series_are_clean() {
        let d = ThrashingDetector::new();
        assert!(d
            .detect(TimeSeries::new().view(), TimeSeries::new().view())
            .is_empty());
    }

    #[test]
    fn different_grids_are_aligned() {
        // Memory sampled at 300 s, CPU at 60 s.
        let mut cpu = TimeSeries::new();
        let mut mem = TimeSeries::new();
        for i in 0..120 {
            let t = i * 60;
            let c = if t < 3600 { 0.5 } else { 0.1 };
            cpu.push(Timestamp::new(t), c).unwrap();
        }
        for i in 0..24 {
            let t = i * 300;
            let m = if t < 3600 { 0.4 } else { 0.9 };
            mem.push(Timestamp::new(t), m).unwrap();
        }
        let spans = ThrashingDetector::new().detect(cpu.view(), mem.view());
        assert!(!spans.is_empty());
    }
}
