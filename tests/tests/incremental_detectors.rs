//! Differential property tests for the incremental detection engine:
//! feeding samples one at a time through a [`DetectorState`] must agree with
//! batch `detect`, and — for the purely causal kernels — with the retained
//! whole-series scan references, bit for bit, on random irregular grids.

use batchlens::analytics::detect::{
    reference, CusumDetector, Detector, DetectorState, Ensemble, EwmaDetector, IqrDetector,
    MadDetector, SpikeDetector, ThrashingDetector, ThresholdDetector, ZScoreDetector,
};
use batchlens::analytics::AnomalySpan;
use batchlens::stream::{StreamConfig, StreamMonitor};
use batchlens::trace::{
    MachineId, Metric, ServerUsageRecord, TimeDelta, TimeRange, TimeSeries, Timestamp,
    UtilizationTriple,
};
use proptest::prelude::*;

/// A random series on an irregular grid: cumulative gaps of 1..600 s.
fn irregular_series() -> impl Strategy<Value = TimeSeries> {
    prop::collection::vec((1i64..600, 0.0f64..1.0), 0..250).prop_map(|steps| {
        let mut t = 0i64;
        let mut s = TimeSeries::new();
        for (gap, v) in steps {
            t += gap;
            s.push(Timestamp::new(t), v).expect("gaps are positive");
        }
        s
    })
}

/// Feeds `series` sample-by-sample through a fresh state of `d`.
fn state_fed(d: &dyn Detector, series: &TimeSeries) -> Vec<AnomalySpan> {
    let mut state = d.state();
    let mut out = Vec::new();
    for (t, v) in series.iter() {
        if let Some(span) = state.push(t, v).closed {
            out.push(span);
        }
    }
    out.extend(state.finish());
    out
}

fn all_detectors() -> Vec<Box<dyn Detector>> {
    vec![
        Box::new(ThresholdDetector::new(0.7)),
        Box::new(ZScoreDetector::new(2.5)),
        Box::new(EwmaDetector::default()),
        Box::new(MadDetector::default()),
        Box::new(CusumDetector::default()),
        Box::new(IqrDetector::default()),
        Box::new(Ensemble::standard()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Incremental == batch for every detector: `detect` is the provided
    /// method over the state, and a second manual state run must reproduce
    /// it exactly (states carry no hidden whole-series dependence).
    #[test]
    fn incremental_matches_batch(series in irregular_series()) {
        for d in all_detectors() {
            let batch = d.detect(&series);
            let fed = state_fed(d.as_ref(), &series);
            prop_assert_eq!(&batch, &fed, "detector {} diverged", d.name());
        }
    }

    /// The threshold state reproduces the original whole-series scan
    /// bit for bit.
    #[test]
    fn threshold_matches_reference(series in irregular_series(), high in 0.1f64..0.95) {
        let det = ThresholdDetector { high, min_samples: 2 };
        prop_assert_eq!(det.detect(&series), reference::threshold(&det, &series));
    }

    /// The EWMA state reproduces the original whole-series scan bit for bit.
    #[test]
    fn ewma_matches_reference(series in irregular_series()) {
        let det = EwmaDetector::default();
        prop_assert_eq!(det.detect(&series), reference::ewma(&det, &series));
    }

    /// The CUSUM state reproduces the original whole-series scan bit for bit.
    #[test]
    fn cusum_matches_reference(series in irregular_series()) {
        let det = CusumDetector::default();
        prop_assert_eq!(det.detect(&series), reference::cusum(&det, &series));
    }

    /// The incremental spike matcher agrees with the original two-pass scan
    /// on random series and job windows.
    #[test]
    fn spike_matches_reference(
        series in irregular_series(),
        start in 0i64..40_000,
        dur in 1i64..30_000,
    ) {
        let window = TimeRange::new(Timestamp::new(start), Timestamp::new(start + dur)).unwrap();
        let det = SpikeDetector::new();
        let incremental = det.match_spike(series.view(), &window);
        let scanned = reference::match_spike(&det, &series, &window);
        prop_assert_eq!(incremental, scanned);
    }

    /// The monotonic-deque thrashing state agrees with an O(n·w) rescan of
    /// the trailing-window CPU maximum, on independently-gridded CPU and
    /// memory series.
    #[test]
    fn thrashing_matches_reference(
        cpu in irregular_series(),
        mem in irregular_series(),
    ) {
        let det = ThrashingDetector::new();
        prop_assert_eq!(det.detect(cpu.view(), mem.view()), reference::thrashing(&det, &cpu, &mem));
    }

    /// The spike state emits its span exactly once, and only after the
    /// search window has passed (so the online emission equals the batch
    /// verdict).
    #[test]
    fn spike_state_emits_at_most_once(
        series in irregular_series(),
        start in 0i64..40_000,
        dur in 1i64..30_000,
    ) {
        let window = TimeRange::new(Timestamp::new(start), Timestamp::new(start + dur)).unwrap();
        let mut state = SpikeDetector::new().state_for(window);
        let mut emitted = 0usize;
        for (t, v) in series.iter() {
            if state.push(t, v).closed.is_some() {
                emitted += 1;
            }
        }
        if state.finish().is_some() {
            emitted += 1;
        }
        prop_assert!(emitted <= 1);
        prop_assert_eq!(emitted == 1, state.matched().is_some());
    }

    /// StreamMonitor alert timestamps equal the flagged samples of running
    /// the batch threshold detector over the machine's full history: the
    /// online and batch paths share one kernel.
    #[test]
    fn monitor_alerts_match_batch_over_window(
        values in prop::collection::vec(0.0f64..1.0, 1..200),
        high in 0.3f64..0.95,
    ) {
        let cfg = StreamConfig {
            // A horizon covering the whole stream, so the final window is
            // the full history.
            horizon: TimeDelta::hours(1_000),
            high,
            ..StreamConfig::default()
        };
        let monitor = StreamMonitor::new(cfg).unwrap();
        let machine = MachineId::new(1);
        let mut alert_times = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            let rec = ServerUsageRecord {
                time: Timestamp::new(i as i64 * 60),
                machine,
                util: UtilizationTriple::clamped(v, 0.0, 0.0),
            };
            for alert in monitor.ingest(rec) {
                prop_assert_eq!(alert.metric, Metric::Cpu);
                alert_times.push(alert.at);
            }
        }
        let series = monitor.series(machine, Metric::Cpu).expect("tracked");
        prop_assert_eq!(series.len(), values.len(), "window must cover everything");
        let spans = ThresholdDetector { high, min_samples: 1 }.detect(&series);
        let batch_flagged: Vec<Timestamp> = series
            .iter()
            .filter(|&(_, v)| v > high)
            .map(|(t, _)| t)
            .collect();
        // Every alert lies inside a batch span, and the alert set is exactly
        // the batch flag set.
        for &at in &alert_times {
            prop_assert!(spans.iter().any(|s| s.range.contains(at)));
        }
        prop_assert_eq!(alert_times, batch_flagged);
    }
}
