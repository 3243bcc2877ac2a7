//! Service-Level-Agreement violation analysis.
//!
//! The paper's introduction frames the whole problem around SLAs: *"Anomalous
//! behaviors of batch jobs can potentially indicate existing software bugs
//! and hardware crashes, which will eventually result in the violation of the
//! Service Level Agreement."* This module turns that into concrete,
//! measurable policies over a dataset: saturation budgets, job-completion
//! deadlines, and availability floors.

use batchlens_trace::{
    JobId, MachineId, Metric, TaskStatus, TimeDelta, TimeRange, Timestamp, TraceDataset,
};
use serde::{Deserialize, Serialize};

/// A set of SLA thresholds to check a dataset against.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlaPolicy {
    /// A machine violates if any metric stays above this for longer than
    /// `max_saturation`.
    pub saturation_level: f64,
    /// Maximum continuous saturation allowed before a violation.
    pub max_saturation: TimeDelta,
    /// A job violates if it ends in a non-success terminal state
    /// (`Failed`/`Cancelled`) while others complete — a proxy for a missed
    /// completion guarantee.
    pub penalize_failures: bool,
}

impl Default for SlaPolicy {
    fn default() -> Self {
        SlaPolicy {
            saturation_level: 0.95,
            max_saturation: TimeDelta::minutes(10),
            penalize_failures: true,
        }
    }
}

/// A concrete SLA violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Violation {
    /// A machine's metric exceeded the saturation level for too long.
    Saturation {
        /// The machine.
        machine: MachineId,
        /// Which metric.
        metric: Metric,
        /// The interval of continuous over-threshold utilization.
        range: TimeRange,
    },
    /// A job ended in a failure/cancellation terminal state.
    JobFailure {
        /// The job.
        job: JobId,
        /// The worst terminal status observed among its tasks.
        status: TaskStatus,
    },
}

impl Violation {
    /// A short machine-readable kind name.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::Saturation { .. } => "saturation",
            Violation::JobFailure { .. } => "job_failure",
        }
    }
}

/// The outcome of checking a dataset against a policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlaReport {
    /// Every violation found, in discovery order (machines then jobs).
    pub violations: Vec<Violation>,
    /// Machines checked.
    pub machines_checked: usize,
    /// Jobs checked.
    pub jobs_checked: usize,
}

impl SlaReport {
    /// Fraction of machines with at least one saturation violation.
    pub fn saturated_machine_fraction(&self) -> f64 {
        if self.machines_checked == 0 {
            return 0.0;
        }
        let mut set = std::collections::BTreeSet::new();
        for v in &self.violations {
            if let Violation::Saturation { machine, .. } = v {
                set.insert(*machine);
            }
        }
        set.len() as f64 / self.machines_checked as f64
    }

    /// Number of job-failure violations.
    pub fn job_failures(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| matches!(v, Violation::JobFailure { .. }))
            .count()
    }

    /// True when no violations were found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks `ds` against `policy` with the process-default worker count.
pub fn check(ds: &TraceDataset, policy: &SlaPolicy) -> SlaReport {
    check_with_threads(ds, policy, 0)
}

/// [`check`] across an explicit worker count (`0` = process default,
/// `1` = serial).
///
/// Machines (saturation runs over three metrics each) and jobs (terminal
/// status scans) are independent work items; per-item violation lists are
/// concatenated in machine/job order, so the report is identical to the
/// serial scan at every thread count.
pub fn check_with_threads(ds: &TraceDataset, policy: &SlaPolicy, threads: usize) -> SlaReport {
    let machines: Vec<MachineId> = ds.machines().map(|m| m.id()).collect();
    let machines_checked = machines.len();
    let per_machine = batchlens_exec::par_map(threads, &machines, |&id| {
        let machine = ds.machine(id).expect("machine listed by dataset");
        let mut out = Vec::new();
        for metric in Metric::ALL {
            let Some(series) = machine.usage(metric) else {
                continue;
            };
            for range in over_threshold_runs(series, policy.saturation_level, policy.max_saturation)
            {
                out.push(Violation::Saturation {
                    machine: id,
                    metric,
                    range,
                });
            }
        }
        out
    });
    let mut violations: Vec<Violation> = per_machine.into_iter().flatten().collect();

    let jobs_checked;
    if policy.penalize_failures {
        let jobs: Vec<JobId> = ds.jobs().map(|j| j.id()).collect();
        jobs_checked = jobs.len();
        let per_job = batchlens_exec::par_map(threads, &jobs, |&id| {
            let job = ds.job(id).expect("job listed by dataset");
            let mut worst: Option<TaskStatus> = None;
            for task in job.tasks() {
                let s = task.record().status;
                if matches!(s, TaskStatus::Failed | TaskStatus::Cancelled) {
                    // Failed outranks Cancelled.
                    worst = Some(match (worst, s) {
                        (Some(TaskStatus::Failed), _) | (_, TaskStatus::Failed) => {
                            TaskStatus::Failed
                        }
                        _ => TaskStatus::Cancelled,
                    });
                }
            }
            worst.map(|status| Violation::JobFailure { job: id, status })
        });
        violations.extend(per_job.into_iter().flatten());
    } else {
        jobs_checked = ds.job_count();
    }

    SlaReport {
        violations,
        machines_checked,
        jobs_checked,
    }
}

/// Maximal intervals where the series stays strictly above `level` for at
/// least `min_duration` — the shared threshold kernel with a duration
/// filter, so SLA saturation checking and threshold anomaly detection can
/// never disagree about what "over threshold" means.
fn over_threshold_runs(
    series: batchlens_trace::SeriesView<'_>,
    level: f64,
    min_duration: TimeDelta,
) -> Vec<TimeRange> {
    use crate::detect::{Detector, ThresholdDetector};
    ThresholdDetector {
        high: level,
        min_samples: 1,
    }
    .detect_view(series)
    .into_iter()
    .map(|span| span.range)
    .filter(|range| range.duration() >= min_duration)
    .collect()
}

/// Cluster-wide availability over a window: the fraction of `[start, end)`
/// during which at least `min_jobs` jobs are running (a coarse "is the
/// platform doing useful work" SLA).
pub fn availability(
    ds: &TraceDataset,
    window: &TimeRange,
    min_jobs: usize,
    step: TimeDelta,
) -> f64 {
    let mut up = 0usize;
    let mut total = 0usize;
    for t in window.steps(step) {
        total += 1;
        if ds.jobs_running_at(t).len() >= min_jobs {
            up += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        up as f64 / total as f64
    }
}

/// Convenience: the first saturation violation at or after `from`, if any.
pub fn first_saturation(report: &SlaReport, from: Timestamp) -> Option<&Violation> {
    report.violations.iter().find(|v| match v {
        Violation::Saturation { range, .. } => range.start() >= from,
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchlens_sim::scenario;

    #[test]
    fn healthy_regime_has_few_saturation_violations() {
        let ds = scenario::fig3a(1).run().unwrap();
        let report = check(&ds, &SlaPolicy::default());
        assert!(report.machines_checked > 0);
        // Fig 3(a) is explicitly low-utilization: essentially no saturation.
        assert!(
            report.saturated_machine_fraction() < 0.1,
            "{:?}",
            report.saturated_machine_fraction()
        );
    }

    #[test]
    fn overload_regime_has_more_saturation() {
        let low = check(&scenario::fig3a(2).run().unwrap(), &SlaPolicy::default());
        let high = check(&scenario::fig3c(2).run().unwrap(), &SlaPolicy::default());
        assert!(
            high.saturated_machine_fraction() >= low.saturated_machine_fraction(),
            "high {} vs low {}",
            high.saturated_machine_fraction(),
            low.saturated_machine_fraction()
        );
    }

    #[test]
    fn mass_shutdown_produces_job_failures() {
        // fig3c cancels all but job_11599 at t=44100.
        let ds = scenario::fig3c(3).run().unwrap();
        let report = check(&ds, &SlaPolicy::default());
        assert!(
            report.job_failures() > 0,
            "expected cancelled jobs to count as failures"
        );
    }

    #[test]
    fn availability_is_high_when_jobs_run() {
        let ds = scenario::fig3b(4).run().unwrap();
        let window = ds.span().unwrap();
        let avail = availability(&ds, &window, 1, TimeDelta::minutes(5));
        assert!(avail > 0.5, "availability {avail}");
    }

    #[test]
    fn over_threshold_respects_min_duration() {
        use batchlens_trace::TimeSeries;
        // A 2-sample blip above 0.95 at 60 s spacing = 120 s, below a 10-min
        // minimum → no violation.
        let s: TimeSeries = (0..20)
            .map(|i| {
                (
                    Timestamp::new(i * 60),
                    if (5..7).contains(&i) { 0.99 } else { 0.3 },
                )
            })
            .collect();
        assert!(over_threshold_runs(s.view(), 0.95, TimeDelta::minutes(10)).is_empty());
        // A long run does violate.
        let s2: TimeSeries = (0..40)
            .map(|i| (Timestamp::new(i * 60), if i >= 5 { 0.99 } else { 0.3 }))
            .collect();
        assert_eq!(
            over_threshold_runs(s2.view(), 0.95, TimeDelta::minutes(10)).len(),
            1
        );
    }

    #[test]
    fn clean_report_on_empty_dataset() {
        let ds = batchlens_trace::TraceDatasetBuilder::new().build().unwrap();
        let report = check(&ds, &SlaPolicy::default());
        assert!(report.is_clean());
        assert_eq!(report.saturated_machine_fraction(), 0.0);
    }

    #[test]
    fn violation_kinds() {
        let ds = scenario::fig3c(5).run().unwrap();
        let report = check(&ds, &SlaPolicy::default());
        assert!(report
            .violations
            .iter()
            .all(|v| { matches!(v.kind(), "saturation" | "job_failure") }));
    }
}
