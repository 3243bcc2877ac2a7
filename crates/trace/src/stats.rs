//! Dataset-level statistics reproducing the numbers quoted in the paper's
//! Section II:
//!
//! > "According to our data pre-processing, 75 % batch jobs contain only one
//! > task, while 94 % tasks have multiple instances. Note that each instance
//! > must be executed by only one compute node, and each compute node can run
//! > multiple instances simultaneously."
//!
//! [`DatasetStats::compute`] measures all of these on any [`TraceDataset`],
//! so the simulator's output can be asserted against the paper's shape and
//! the `figures` binary can write the comparison table
//! (`table_dataset_stats.txt`).

use serde::{Deserialize, Serialize};

use crate::{TimeDelta, TimeRange, Timestamp, TraceDataset};

/// Aggregate statistics of a trace dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Number of machines.
    pub machines: usize,
    /// Number of batch jobs.
    pub jobs: usize,
    /// Number of tasks.
    pub tasks: usize,
    /// Number of instances.
    pub instances: usize,
    /// Fraction of jobs with exactly one task (paper: ≈ 0.75).
    pub single_task_job_fraction: f64,
    /// Fraction of tasks with more than one instance (paper: ≈ 0.94).
    pub multi_instance_task_fraction: f64,
    /// Trace span in seconds (paper: 86 400 — 24 hours).
    pub span_seconds: i64,
    /// Largest number of instances observed concurrently on one machine.
    pub max_concurrent_instances_per_machine: usize,
    /// Mean number of instances per task.
    pub mean_instances_per_task: f64,
    /// Mean number of tasks per job.
    pub mean_tasks_per_job: f64,
}

impl DatasetStats {
    /// Computes statistics over `ds`.
    pub fn compute(ds: &TraceDataset) -> DatasetStats {
        let jobs = ds.job_count();
        let tasks = ds.task_count();
        let instances = ds.instance_count();

        let mut single_task_jobs = 0usize;
        for job in ds.jobs() {
            if job.task_count() == 1 {
                single_task_jobs += 1;
            }
        }

        let mut multi_instance_tasks = 0usize;
        for job in ds.jobs() {
            for task in job.tasks() {
                if task.instance_count() > 1 {
                    multi_instance_tasks += 1;
                }
            }
        }

        let span = ds.span();
        let span_seconds = span.map_or(0, |s| s.duration().as_seconds());

        let max_concurrent = ds
            .machines()
            .map(|m| {
                max_concurrency(
                    m.instances()
                        .map(|i| (i.record.start_time, i.record.end_time)),
                )
            })
            .max()
            .unwrap_or(0);

        DatasetStats {
            machines: ds.machine_count(),
            jobs,
            tasks,
            instances,
            single_task_job_fraction: fraction(single_task_jobs, jobs),
            multi_instance_task_fraction: fraction(multi_instance_tasks, tasks),
            span_seconds,
            max_concurrent_instances_per_machine: max_concurrent,
            mean_instances_per_task: mean(instances, tasks),
            mean_tasks_per_job: mean(tasks, jobs),
        }
    }

    /// Formats the paper-vs-measured comparison table used by the
    /// `table_dataset_stats` experiment.
    pub fn comparison_table(&self) -> String {
        let mut s = String::new();
        s.push_str("statistic                       | paper      | measured\n");
        s.push_str("--------------------------------|------------|----------\n");
        s.push_str(&format!(
            "machines                        | 1300       | {}\n",
            self.machines
        ));
        s.push_str(&format!(
            "trace span (hours)              | 24         | {:.1}\n",
            self.span_seconds as f64 / 3600.0
        ));
        s.push_str(&format!(
            "single-task job fraction        | 0.75       | {:.3}\n",
            self.single_task_job_fraction
        ));
        s.push_str(&format!(
            "multi-instance task fraction    | 0.94       | {:.3}\n",
            self.multi_instance_task_fraction
        ));
        s.push_str(&format!(
            "instances per machine (max conc)| many       | {}\n",
            self.max_concurrent_instances_per_machine
        ));
        s
    }
}

fn fraction(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn mean(num: usize, den: usize) -> f64 {
    fraction(num, den)
}

/// Maximum number of simultaneously open `[start, end)` intervals.
///
/// This verifies the paper's "each compute node can run multiple instances
/// simultaneously" claim on generated data.
pub fn max_concurrency<I>(intervals: I) -> usize
where
    I: IntoIterator<Item = (Timestamp, Timestamp)>,
{
    let mut events: Vec<(Timestamp, i32)> = Vec::new();
    for (start, end) in intervals {
        if end <= start {
            continue;
        }
        events.push((start, 1));
        events.push((end, -1));
    }
    // Ends sort before starts at equal time: half-open intervals do not overlap
    // at the boundary.
    events.sort_by_key(|&(t, delta)| (t, delta));
    let mut current = 0i64;
    let mut best = 0i64;
    for (_, delta) in events {
        current += i64::from(delta);
        best = best.max(current);
    }
    best.max(0) as usize
}

/// Histogram of tasks-per-job, used to calibrate the simulator against the
/// paper's 75 % single-task statement.
pub fn tasks_per_job_histogram(ds: &TraceDataset) -> Vec<(usize, usize)> {
    let mut counts: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    for job in ds.jobs() {
        *counts.entry(job.task_count()).or_default() += 1;
    }
    counts.into_iter().collect()
}

/// Histogram of instances-per-task.
pub fn instances_per_task_histogram(ds: &TraceDataset) -> Vec<(usize, usize)> {
    let mut counts: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    for job in ds.jobs() {
        for task in job.tasks() {
            *counts.entry(task.instance_count()).or_default() += 1;
        }
    }
    counts.into_iter().collect()
}

/// Mean utilization across all machines over the whole trace, per metric —
/// a quick health check that generated regimes hit their target bands.
pub fn overall_mean_utilization(ds: &TraceDataset) -> [f64; 3] {
    let mut sums = [0.0f64; 3];
    let mut counts = [0usize; 3];
    for machine in ds.machines() {
        for metric in crate::Metric::ALL {
            if let Some(series) = machine.usage(metric) {
                if let Some(st) = series.stats() {
                    sums[metric.index()] += st.mean * st.count as f64;
                    counts[metric.index()] += st.count;
                }
            }
        }
    }
    let mut out = [0.0f64; 3];
    for i in 0..3 {
        if counts[i] > 0 {
            out[i] = sums[i] / counts[i] as f64;
        }
    }
    out
}

/// Returns `TimeDelta::BATCH_RESOLUTION`-aligned timestamps at which at least
/// one job is running, useful for picking interesting snapshot times.
pub fn active_batch_timestamps(ds: &TraceDataset) -> Vec<Timestamp> {
    active_grid_points(ds, TimeDelta::BATCH_RESOLUTION).collect()
}

/// The grid points `span.start + k·step` at which a job is running,
/// ascending (none for a non-positive `step`). Only the points inside the
/// instance windows' extent, `[earliest start, latest end)`, are visited,
/// so the work is bounded by the instances, not by the span, which one
/// usage sample at `i64::MAX` stretches to ~3·10¹⁶ batch steps.
pub fn active_grid_points(
    ds: &TraceDataset,
    step: TimeDelta,
) -> impl Iterator<Item = Timestamp> + '_ {
    let index = ds.instance_index();
    let bounds = ds.span().zip(index.sorted_starts().first());
    let extent = bounds
        .zip(index.sorted_ends().last())
        .filter(|_| step.is_positive());
    let grid = extent.and_then(|((span, &lo), &hi)| {
        // The first grid point at or after `lo`, in `i128`: it can lie past
        // `i64::MAX`, and then there is none.
        let [origin, lo, step_s] = [span.start().seconds(), lo.seconds(), step.as_seconds()];
        let [origin, lo, step_s] = [origin, lo, step_s].map(i128::from);
        let first = origin + (lo - origin + step_s - 1) / step_s * step_s;
        TimeRange::new(Timestamp::new(i64::try_from(first).ok()?), hi).ok()
    });
    grid.into_iter()
        .flat_map(move |grid| grid.steps(step))
        .filter(move |&t| !ds.jobs_running_at(t).is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        BatchInstanceRecord, BatchTaskRecord, JobId, MachineId, TaskId, TaskStatus,
        TraceDatasetBuilder,
    };

    fn build(jobs: &[(u32, &[u32])]) -> TraceDataset {
        // jobs: (job_id, [instances_per_task...])
        let mut b = TraceDatasetBuilder::new();
        let mut machine = 0u32;
        for &(job, tasks) in jobs {
            for (ti, &n) in tasks.iter().enumerate() {
                let task_id = ti as u32 + 1;
                b.push_task(BatchTaskRecord {
                    create_time: Timestamp::new(0),
                    modify_time: Timestamp::new(600),
                    job: JobId::new(job),
                    task: TaskId::new(task_id),
                    instance_count: n,
                    status: TaskStatus::Terminated,
                    plan_cpu: 1.0,
                    plan_mem: 0.5,
                });
                for seq in 0..n {
                    b.push_instance(BatchInstanceRecord {
                        start_time: Timestamp::new(0),
                        end_time: Timestamp::new(600),
                        job: JobId::new(job),
                        task: TaskId::new(task_id),
                        seq,
                        total: n,
                        machine: MachineId::new(machine % 4),
                        status: TaskStatus::Terminated,
                        cpu_avg: 0.5,
                        cpu_max: 0.8,
                        mem_avg: 0.3,
                        mem_max: 0.4,
                    });
                    machine += 1;
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn fractions_match_construction() {
        // 4 jobs: 3 single-task (75 %), 1 two-task.
        // 5 tasks: instances [4, 4, 4, 4, 1] → 4/5 = 80 % multi-instance.
        let ds = build(&[(1, &[4]), (2, &[4]), (3, &[4]), (4, &[4, 1])]);
        let st = DatasetStats::compute(&ds);
        assert_eq!(st.jobs, 4);
        assert_eq!(st.tasks, 5);
        assert!((st.single_task_job_fraction - 0.75).abs() < 1e-12);
        assert!((st.multi_instance_task_fraction - 0.8).abs() < 1e-12);
    }

    #[test]
    fn max_concurrency_counts_overlaps() {
        let t = Timestamp::new;
        assert_eq!(
            max_concurrency(vec![(t(0), t(10)), (t(5), t(15)), (t(20), t(30))]),
            2
        );
        // Half-open: one interval ending exactly when another starts is not overlap.
        assert_eq!(max_concurrency(vec![(t(0), t(10)), (t(10), t(20))]), 1);
        assert_eq!(max_concurrency(Vec::<(Timestamp, Timestamp)>::new()), 0);
        // Degenerate intervals are ignored.
        assert_eq!(max_concurrency(vec![(t(5), t(5))]), 0);
    }

    #[test]
    fn histograms_sum_to_totals() {
        let ds = build(&[(1, &[4]), (2, &[2, 1])]);
        let tj = tasks_per_job_histogram(&ds);
        assert_eq!(tj.iter().map(|(_, c)| c).sum::<usize>(), 2);
        let it = instances_per_task_histogram(&ds);
        assert_eq!(it.iter().map(|(_, c)| c).sum::<usize>(), 3);
    }

    #[test]
    fn comparison_table_mentions_paper_numbers() {
        let ds = build(&[(1, &[4])]);
        let table = DatasetStats::compute(&ds).comparison_table();
        assert!(table.contains("0.75"));
        assert!(table.contains("0.94"));
        assert!(table.contains("1300"));
    }

    #[test]
    fn empty_dataset_stats_are_zero() {
        let ds = TraceDatasetBuilder::new().build().unwrap();
        let st = DatasetStats::compute(&ds);
        assert_eq!(st.jobs, 0);
        assert_eq!(st.single_task_job_fraction, 0.0);
        assert_eq!(st.span_seconds, 0);
    }
}
