//! Convenience queries and roll-ups over a [`crate::TraceDataset`].
//!
//! These are ergonomic wrappers the views and examples reach for: "the N
//! busiest machines at t", "a job's full timeline", "which machines a job
//! touched". They live in their own module so the core dataset API stays
//! small while downstream code gets rich, intention-revealing helpers.

use crate::{JobId, MachineId, Metric, TaskId, TimeRange, Timestamp, TraceDataset, Utilization};

/// One entry of a busiest-machines ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineLoad {
    /// The machine.
    pub machine: MachineId,
    /// Its mean-of-triple utilization at the query time.
    pub utilization: Utilization,
    /// Instances running on it at the query time.
    pub instances: usize,
}

/// The `n` busiest machines at `t`, by mean utilization, descending. Machines
/// without usage data at `t` are excluded.
pub fn busiest_machines(ds: &TraceDataset, t: Timestamp, n: usize) -> Vec<MachineLoad> {
    let mut loads: Vec<MachineLoad> = ds
        .machines()
        .filter_map(|m| {
            let u = m.util_at(t)?;
            let instances = m.running_instances_at(t);
            Some(MachineLoad {
                machine: m.id(),
                utilization: u.mean(),
                instances,
            })
        })
        .collect();
    loads.sort_by(|a, b| {
        b.utilization
            .fraction()
            .partial_cmp(&a.utilization.fraction())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.machine.cmp(&b.machine))
    });
    loads.truncate(n);
    loads
}

/// A task's observed execution window (min start … max end of its instances).
pub fn task_window(ds: &TraceDataset, job: JobId, task: TaskId) -> Option<TimeRange> {
    let job_view = ds.job(job)?;
    let tv = job_view.tasks().find(|t| t.id() == task)?;
    let start = tv.observed_start()?;
    let end = tv.observed_end()?;
    TimeRange::new(start, end.max(start + crate::TimeDelta::seconds(1))).ok()
}

/// A job's observed execution window (union of its tasks).
pub fn job_window(ds: &TraceDataset, job: JobId) -> Option<TimeRange> {
    ds.job(job)?.lifetime()
}

/// The distinct machines a job touched over its whole lifetime.
pub fn job_footprint(ds: &TraceDataset, job: JobId) -> Vec<MachineId> {
    ds.job(job).map(|j| j.machines()).unwrap_or_default()
}

/// Peak concurrent instance count on `machine` over the whole trace.
pub fn machine_peak_concurrency(ds: &TraceDataset, machine: MachineId) -> usize {
    let Some(m) = ds.machine(machine) else {
        return 0;
    };
    crate::stats::max_concurrency(
        m.instances()
            .map(|i| (i.record.start_time, i.record.end_time)),
    )
}

/// The single hottest `(machine, metric, value, time)` sample over `window`,
/// scanning every machine's series through borrowed views — no allocation
/// per machine per metric. `None` for an empty dataset/window.
pub fn hottest_sample(
    ds: &TraceDataset,
    window: &TimeRange,
) -> Option<(MachineId, Metric, f64, Timestamp)> {
    let mut best: Option<(MachineId, Metric, f64, Timestamp)> = None;
    for m in ds.machines() {
        for metric in Metric::ALL {
            let Some(series) = m.usage(metric) else {
                continue;
            };
            for (t, v) in series.slice(window).iter() {
                if best.is_none_or(|(_, _, bv, _)| v > bv) {
                    best = Some((m.id(), metric, v, t));
                }
            }
        }
    }
    best
}

/// Windowed summary statistics for one machine/metric without copying the
/// series — the view-based counterpart of slicing then calling `stats`.
pub fn stats_in(
    ds: &TraceDataset,
    machine: MachineId,
    metric: Metric,
    window: &TimeRange,
) -> Option<crate::SeriesStats> {
    ds.machine(machine)?.usage(metric)?.slice(window).stats()
}

/// Total instance-seconds of work executed on `machine` (a crude "how much
/// did this node do" measure).
pub fn machine_instance_seconds(ds: &TraceDataset, machine: MachineId) -> i64 {
    let Some(m) = ds.machine(machine) else {
        return 0;
    };
    m.instances()
        .map(|i| {
            (i.record.end_time - i.record.start_time)
                .as_seconds()
                .max(0)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        BatchInstanceRecord, BatchTaskRecord, ServerUsageRecord, TaskStatus, TraceDatasetBuilder,
        UtilizationTriple,
    };

    fn dataset() -> TraceDataset {
        let mut b = TraceDatasetBuilder::new();
        // job 1, one task, 3 instances on machines 0,1,2.
        b.push_task(BatchTaskRecord {
            create_time: Timestamp::new(0),
            modify_time: Timestamp::new(1000),
            job: JobId::new(1),
            task: TaskId::new(1),
            instance_count: 3,
            status: TaskStatus::Terminated,
            plan_cpu: 1.0,
            plan_mem: 0.5,
        });
        for m in 0..3u32 {
            b.push_instance(BatchInstanceRecord {
                start_time: Timestamp::new(0),
                end_time: Timestamp::new(1000),
                job: JobId::new(1),
                task: TaskId::new(1),
                seq: m,
                total: 3,
                machine: MachineId::new(m),
                status: TaskStatus::Terminated,
                cpu_avg: 0.3,
                cpu_max: 0.5,
                mem_avg: 0.2,
                mem_max: 0.4,
            });
        }
        for t in [0i64, 300, 600, 900] {
            for m in 0..3u32 {
                // Machine m runs hotter the higher its id.
                let level = 0.2 + 0.2 * m as f64;
                b.push_usage(ServerUsageRecord {
                    time: Timestamp::new(t),
                    machine: MachineId::new(m),
                    util: UtilizationTriple::clamped(level, level, level),
                });
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn busiest_ranks_descending() {
        let ds = dataset();
        let top = busiest_machines(&ds, Timestamp::new(300), 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].machine, MachineId::new(2));
        assert_eq!(top[1].machine, MachineId::new(1));
        assert!(top[0].utilization.fraction() > top[1].utilization.fraction());
        assert_eq!(top[0].instances, 1);
    }

    #[test]
    fn windows_and_footprint() {
        let ds = dataset();
        let jw = job_window(&ds, JobId::new(1)).unwrap();
        assert_eq!(jw.start(), Timestamp::new(0));
        let tw = task_window(&ds, JobId::new(1), TaskId::new(1)).unwrap();
        assert_eq!(tw.end(), Timestamp::new(1000));
        assert_eq!(
            job_footprint(&ds, JobId::new(1)),
            vec![MachineId::new(0), MachineId::new(1), MachineId::new(2)]
        );
        assert!(job_window(&ds, JobId::new(99)).is_none());
    }

    #[test]
    fn peak_concurrency_and_instance_seconds() {
        let ds = dataset();
        // Each machine runs exactly one instance here.
        assert_eq!(machine_peak_concurrency(&ds, MachineId::new(0)), 1);
        assert_eq!(machine_instance_seconds(&ds, MachineId::new(0)), 1000);
        assert_eq!(machine_peak_concurrency(&ds, MachineId::new(99)), 0);
    }

    #[test]
    fn hottest_sample_found() {
        let ds = dataset();
        let (m, _metric, v, _t) = hottest_sample(&ds, &ds.span().unwrap()).unwrap();
        assert_eq!(m, MachineId::new(2)); // hottest machine
        assert!((v - 0.6).abs() < 1e-9);
    }

    #[test]
    fn windowed_stats_match_sliced_series() {
        let ds = dataset();
        let window = TimeRange::new(Timestamp::new(300), Timestamp::new(900)).unwrap();
        let viewed = stats_in(&ds, MachineId::new(1), Metric::Cpu, &window).unwrap();
        let sliced = ds
            .machine(MachineId::new(1))
            .unwrap()
            .usage(Metric::Cpu)
            .unwrap()
            .slice(&window)
            .stats()
            .unwrap();
        assert_eq!(viewed, sliced);
        assert!(stats_in(&ds, MachineId::new(99), Metric::Cpu, &window).is_none());
    }

    #[test]
    fn empty_queries() {
        let ds = TraceDatasetBuilder::new().build().unwrap();
        assert!(busiest_machines(&ds, Timestamp::ZERO, 5).is_empty());
        assert!(hottest_sample(&ds, &TimeRange::full_day()).is_none());
    }
}
