//! Cluster-wide batch detection: fan one [`Detector`] out over every
//! machine of a dataset.
//!
//! [`Detector::detect`] is a per-series scan; at `--tier paper` scale there
//! are 1300 machines × 3 metrics of it, all independent. The drivers here
//! shard that fan-out across the [`batchlens_exec`] pool — one work item
//! per machine, results returned in machine-id order — so the output is
//! **bit-identical to the serial loop at every thread count** (each
//! machine's spans are computed by exactly the serial kernel; parallelism
//! only reorders wall-clock, never floats).

use batchlens_exec as exec;
use batchlens_trace::{MachineId, Metric, TimeRange, TraceDataset};

use super::{AnomalySpan, Detector};

/// One machine's batch-detection result across all three metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineDetection {
    /// The machine the spans belong to.
    pub machine: MachineId,
    /// Spans per metric, indexed by [`Metric::index`]; a metric without a
    /// usage series yields an empty list.
    pub by_metric: [Vec<AnomalySpan>; 3],
}

impl MachineDetection {
    /// The spans for one metric.
    pub fn metric(&self, metric: Metric) -> &[AnomalySpan] {
        &self.by_metric[metric.index()]
    }

    /// Total spans across the three metrics.
    pub fn span_count(&self) -> usize {
        self.by_metric.iter().map(Vec::len).sum()
    }
}

/// Runs `detector` over every machine's series for every metric —
/// optionally restricted to `window` — across `threads` workers
/// (`0` = process default, `1` = serial fallback).
///
/// Results come back in machine-id order with each machine's spans in time
/// order, independent of scheduling. O(cluster series samples) total work,
/// divided by the effective worker count on multi-core hosts.
pub fn detect_all_machines(
    ds: &TraceDataset,
    detector: &dyn Detector,
    window: Option<&TimeRange>,
    threads: usize,
) -> Vec<MachineDetection> {
    let machines: Vec<MachineId> = ds.machines().map(|m| m.id()).collect();
    exec::par_map(threads, &machines, |&machine| {
        let mv = ds.machine(machine).expect("machine listed by dataset");
        let by_metric = std::array::from_fn(|k| {
            let metric = Metric::ALL[k];
            match mv.usage(metric) {
                // Detection borrows the dataset's samples, windowed or not —
                // no per-machine-per-metric sub-series clone.
                Some(series) => detector.detect_view(window.map_or(series, |w| series.slice(w))),
                None => Vec::new(),
            }
        });
        MachineDetection { machine, by_metric }
    })
}

/// Single-metric variant of [`detect_all_machines`]: `(machine, spans)` in
/// machine-id order, machines without a series for `metric` omitted.
pub fn detect_metric_all_machines(
    ds: &TraceDataset,
    detector: &dyn Detector,
    metric: Metric,
    window: Option<&TimeRange>,
    threads: usize,
) -> Vec<(MachineId, Vec<AnomalySpan>)> {
    let machines: Vec<MachineId> = ds
        .machines()
        .filter(|m| m.usage(metric).is_some())
        .map(|m| m.id())
        .collect();
    exec::par_map(threads, &machines, |&machine| {
        let series = ds
            .machine(machine)
            .and_then(|m| m.usage(metric))
            .expect("machine filtered on series presence");
        let spans = detector.detect_view(window.map_or(series, |w| series.slice(w)));
        (machine, spans)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::Ensemble;
    use batchlens_sim::scenario;

    #[test]
    fn fan_out_matches_serial_loop_at_any_thread_count() {
        let ds = scenario::fig3c(3).run().unwrap();
        let ensemble = Ensemble::standard();
        let serial: Vec<MachineDetection> = detect_all_machines(&ds, &ensemble, None, 1);
        assert_eq!(serial.len(), ds.machine_count());
        for threads in [2usize, 7] {
            let par = detect_all_machines(&ds, &ensemble, None, threads);
            assert_eq!(par, serial, "threads={threads}");
        }
        // Spot-check against a direct per-machine call.
        let m0 = &serial[0];
        let mv = ds.machine(m0.machine).unwrap();
        let direct = ensemble.detect_view(mv.usage(Metric::Cpu).unwrap());
        assert_eq!(m0.metric(Metric::Cpu), direct.as_slice());
    }

    #[test]
    fn windowed_fan_out_slices_before_detection() {
        let ds = scenario::fig3c(4).run().unwrap();
        let span = ds.span().unwrap();
        let half = batchlens_trace::TimeRange::new(
            span.start(),
            span.start() + batchlens_trace::TimeDelta::seconds(span.duration().as_seconds() / 2),
        )
        .unwrap();
        let ensemble = Ensemble::standard();
        let windowed = detect_metric_all_machines(&ds, &ensemble, Metric::Cpu, Some(&half), 2);
        for (machine, spans) in &windowed {
            let mv = ds.machine(*machine).unwrap();
            let direct = ensemble.detect(&mv.usage(Metric::Cpu).unwrap().slice(&half).to_owned());
            assert_eq!(spans, &direct);
        }
    }
}
