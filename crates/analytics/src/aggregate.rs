//! Series aggregation: per-job node series grouped by task (line-chart
//! views) and the cluster-wide timeline (the brushable overview).

use batchlens_trace::{
    JobId, MachineId, Metric, SeriesView, TaskId, TimeRange, TimeSeries, Timestamp, TraceDataset,
};
use serde::{Deserialize, Serialize};

/// One line in a per-job line chart: a node's metric series, tagged with the
/// task it serves so the detail view can color lines per task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeLine {
    /// The machine whose utilization this line plots.
    pub machine: MachineId,
    /// The task the machine serves within the selected job.
    pub task: TaskId,
    /// Per-node job start time (green annotation line in the paper).
    pub start: Timestamp,
    /// Per-node job end time (colored annotation line, bundled per task).
    pub end: Timestamp,
    /// The metric series over the requested window.
    pub series: TimeSeries,
}

/// The data of the paper's Fig 2 view: all node lines of one job for one
/// metric, plus the annotation timestamps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobMetricLines {
    /// The selected job.
    pub job: JobId,
    /// The plotted metric.
    pub metric: Metric,
    /// One line per (machine, task) pair, ordered by task then machine.
    pub lines: Vec<NodeLine>,
}

impl JobMetricLines {
    /// Builds the line-chart data for `job`/`metric` over `window`.
    ///
    /// A machine serving two tasks of the job yields two entries (one per
    /// task) sharing the same series data, matching the paper's per-task
    /// line coloring.
    pub fn build(
        ds: &TraceDataset,
        job: JobId,
        metric: Metric,
        window: &TimeRange,
    ) -> Option<JobMetricLines> {
        let job_view = ds.job(job)?;
        let mut lines = Vec::new();
        for task in job_view.tasks() {
            // machine → (min start, max end) among this task's instances.
            let mut spans: std::collections::BTreeMap<MachineId, (Timestamp, Timestamp)> =
                std::collections::BTreeMap::new();
            for inst in task.instances() {
                let e = spans
                    .entry(inst.record.machine)
                    .or_insert((inst.record.start_time, inst.record.end_time));
                e.0 = e.0.min(inst.record.start_time);
                e.1 = e.1.max(inst.record.end_time);
            }
            for (machine, (start, end)) in spans {
                let Some(mv) = ds.machine(machine) else {
                    continue;
                };
                let Some(series) = mv.usage(metric) else {
                    continue;
                };
                lines.push(NodeLine {
                    machine,
                    task: task.id(),
                    start,
                    end,
                    series: series.slice(window).to_owned(),
                });
            }
        }
        Some(JobMetricLines { job, metric, lines })
    }

    /// The start annotations of all lines (the paper's green lines).
    pub fn start_annotations(&self) -> Vec<Timestamp> {
        self.lines.iter().map(|l| l.start).collect()
    }

    /// The end annotations grouped per task: `(task, end timestamps)`.
    pub fn end_annotations_by_task(&self) -> Vec<(TaskId, Vec<Timestamp>)> {
        let mut out: Vec<(TaskId, Vec<Timestamp>)> = Vec::new();
        for l in &self.lines {
            match out.iter_mut().find(|(t, _)| *t == l.task) {
                Some((_, v)) => v.push(l.end),
                None => out.push((l.task, vec![l.end])),
            }
        }
        out
    }

    /// Distinct tasks present, in first-seen order.
    pub fn tasks(&self) -> Vec<TaskId> {
        let mut out = Vec::new();
        for l in &self.lines {
            if !out.contains(&l.task) {
                out.push(l.task);
            }
        }
        out
    }
}

/// The cluster-wide aggregated timeline: one mean series per metric across
/// every machine — the data behind the brushable overview strip
/// ("a simple timeline is used to represent the metrics aggregated across
/// the entire cloud systems over time").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterTimeline {
    /// Mean CPU utilization across machines over time.
    pub cpu: TimeSeries,
    /// Mean memory utilization across machines over time.
    pub mem: TimeSeries,
    /// Mean disk utilization across machines over time.
    pub disk: TimeSeries,
}

impl ClusterTimeline {
    /// Aggregates `ds` over its full span with the process-default worker
    /// count ([`batchlens_exec::default_threads`]).
    pub fn build(ds: &TraceDataset) -> ClusterTimeline {
        ClusterTimeline::build_with_threads(ds, 0)
    }

    /// Aggregates `ds` across `threads` workers (`0` = process default,
    /// `1` = serial fallback).
    ///
    /// The three per-metric sweeps run concurrently, and each sweep
    /// additionally splits its k-way merge by machine chunk with a final
    /// pairwise combine ([`TimeSeries::mean_of_par`]). The chunk/combine
    /// graph is a fixed function of the dataset, so the timeline is
    /// **bit-identical at every thread count**, including `threads = 1`.
    pub fn build_with_threads(ds: &TraceDataset, threads: usize) -> ClusterTimeline {
        let threads = batchlens_exec::resolve_threads(threads);
        let per_metric: Vec<Vec<SeriesView<'_>>> = Metric::ALL
            .iter()
            .map(|&metric| ds.machines().filter_map(|m| m.usage(metric)).collect())
            .collect();
        // Outer fan-out: one task per metric; the per-sweep budget is the
        // floor share of the knob so outer × inner never exceeds the
        // requested thread count.
        let inner = (threads / Metric::ALL.len()).max(1);
        let mut sweeps = batchlens_exec::run_indexed(threads.min(Metric::ALL.len()), 3, |k| {
            TimeSeries::mean_of_par(per_metric[k].iter().copied(), inner)
        });
        let disk = sweeps.pop().expect("three metrics");
        let mem = sweeps.pop().expect("three metrics");
        let cpu = sweeps.pop().expect("three metrics");
        ClusterTimeline { cpu, mem, disk }
    }

    /// The series for one metric.
    pub fn metric(&self, metric: Metric) -> &TimeSeries {
        match metric {
            Metric::Cpu => &self.cpu,
            Metric::Memory => &self.mem,
            Metric::Disk => &self.disk,
        }
    }

    /// Restricts all three series to `window`.
    #[must_use]
    pub fn slice(&self, window: &TimeRange) -> ClusterTimeline {
        ClusterTimeline {
            cpu: self.cpu.slice(window),
            mem: self.mem.slice(window),
            disk: self.disk.slice(window),
        }
    }
}

/// Count of running instances over time on a grid — the cluster's activity
/// pulse, useful for spotting the paper's mass-shutdown cliff.
///
/// A two-cursor sweep over the dataset's sorted start/end arrays: O(n + G)
/// for n instances and G grid points, instead of one full-table scan per
/// grid point.
pub fn running_instances_series(ds: &TraceDataset, step: batchlens_trace::TimeDelta) -> TimeSeries {
    let Some(span) = ds.span() else {
        return TimeSeries::new();
    };
    let starts = ds.instance_index().sorted_starts();
    let ends = ds.instance_index().sorted_ends();
    let mut out = TimeSeries::new();
    let (mut si, mut ei) = (0usize, 0usize);
    for t in span.steps(step) {
        while si < starts.len() && starts[si] <= t {
            si += 1;
        }
        while ei < ends.len() && ends[ei] <= t {
            ei += 1;
        }
        // Started minus ended; empty windows cancel out exactly as in
        // `BatchInstanceRecord::running_at`.
        out.push(t, (si - ei) as f64)
            .expect("strictly increasing grid");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchlens_sim::{scenario, SimConfig, Simulation};
    use batchlens_trace::{naive, TimeDelta};

    #[test]
    fn fig2_lines_cover_all_nodes() {
        let ds = scenario::fig2_sample(1).run().unwrap();
        let window = ds.span().unwrap();
        let lines = JobMetricLines::build(&ds, scenario::JOB_7399, Metric::Cpu, &window).unwrap();
        // 20 machines, each serving exactly one task.
        assert_eq!(lines.lines.len(), 20);
        assert_eq!(lines.tasks().len(), 2);
        // Start annotations bundle: all within the configured jitter.
        let starts = lines.start_annotations();
        let min = starts.iter().min().unwrap().seconds();
        let max = starts.iter().max().unwrap().seconds();
        assert!(max - min <= 10, "starts spread {}", max - min);
        // End annotations split into exactly two task clusters.
        let ends = lines.end_annotations_by_task();
        assert_eq!(ends.len(), 2);
        let mean = |v: &[Timestamp]| v.iter().map(|t| t.seconds()).sum::<i64>() / v.len() as i64;
        let gap = (mean(&ends[0].1) - mean(&ends[1].1)).abs();
        assert!(gap > 1000, "end clusters too close: {gap}");
    }

    #[test]
    fn missing_job_yields_none() {
        let ds = scenario::fig1_sample(2).run().unwrap();
        let window = ds.span().unwrap();
        assert!(JobMetricLines::build(&ds, JobId::new(999), Metric::Cpu, &window).is_none());
    }

    #[test]
    fn cluster_timeline_has_all_metrics() {
        let ds = scenario::fig1_sample(3).run().unwrap();
        let tl = ClusterTimeline::build(&ds);
        assert!(!tl.cpu.is_empty());
        assert!(!tl.mem.is_empty());
        assert!(!tl.disk.is_empty());
        // Slicing shrinks.
        let span = ds.span().unwrap();
        let half = TimeRange::new(
            span.start(),
            span.start() + TimeDelta::seconds(span.duration().as_seconds() / 2),
        )
        .unwrap();
        let sliced = tl.slice(&half);
        assert!(sliced.cpu.len() < tl.cpu.len());
        assert_eq!(tl.metric(Metric::Cpu), &tl.cpu);
    }

    /// The timeline against its reference. On a cluster wider than one
    /// 64-machine chunk, each metric's series is `naive::mean_of` over the
    /// machines' usage (same grid, values within 1e-9 relative) and the
    /// three series share one grid; at one chunk or less each series is the
    /// serial `TimeSeries::mean_of`, bit for bit.
    #[test]
    fn cluster_timeline_matches_the_naive_mean_of_usage() {
        for machines in [150, 40] {
            let mut cfg = SimConfig::small(5);
            cfg.machines = machines;
            let ds = Simulation::new(cfg).run().unwrap();
            let tl = ClusterTimeline::build(&ds);
            assert_eq!(tl.cpu.times(), tl.mem.times());
            assert_eq!(tl.cpu.times(), tl.disk.times());
            for metric in Metric::ALL {
                let usage: Vec<SeriesView<'_>> =
                    ds.machines().filter_map(|m| m.usage(metric)).collect();
                assert_eq!(usage.len(), machines as usize);
                let series = tl.metric(metric);
                let reference = naive::mean_of(usage.iter().copied());
                assert_eq!(series.times(), reference.times(), "{metric:?}");
                for (a, b) in series.values().iter().zip(reference.values()) {
                    assert!(
                        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()),
                        "{metric:?}: {a} vs {b}"
                    );
                }
                if usage.len() <= 64 {
                    let serial = TimeSeries::mean_of(usage.iter().copied());
                    assert_eq!(series.times(), serial.times());
                    let bits = |s: &TimeSeries| s.values().iter().map(|v| v.to_bits()).collect();
                    let (got, want): (Vec<u64>, Vec<u64>) = (bits(series), bits(&serial));
                    assert_eq!(got, want, "{metric:?}");
                }
            }
        }
    }

    #[test]
    fn running_instances_pulse() {
        let ds = scenario::fig1_sample(4).run().unwrap();
        let pulse = running_instances_series(&ds, TimeDelta::seconds(300));
        assert!(!pulse.is_empty());
        // The single job has 6 instances; the peak should reach 6.
        let max = pulse.stats().unwrap().max;
        assert!((max - 6.0).abs() < 1e-9, "max {max}");
    }
}
