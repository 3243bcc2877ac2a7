//! The batch hierarchy snapshot: the data model of the hierarchical bubble
//! chart (paper Fig 1 and the main views of Fig 3).
//!
//! At a chosen timestamp, the cluster's running work forms a three-level
//! tree: **jobs** (blue dotted bubbles) contain **tasks** (purple dotted
//! bubbles) contain **compute nodes** (three-annuli glyphs colored by CPU /
//! memory / disk utilization).

use batchlens_trace::{DatasetQuery, JobId, MachineId, TaskId, Timestamp, UtilizationTriple};
use serde::{Deserialize, Serialize};

/// Run-length encodes an **ascending** triple slice into
/// `((job, task, machine), count)` pairs, without a map allocation.
fn count_runs(
    triples: &[(JobId, TaskId, MachineId)],
) -> impl Iterator<Item = ((JobId, TaskId, MachineId), u32)> + '_ {
    let mut i = 0usize;
    std::iter::from_fn(move || {
        if i >= triples.len() {
            return None;
        }
        let key = triples[i];
        let mut n = 0u32;
        while i < triples.len() && triples[i] == key {
            i += 1;
            n += 1;
        }
        Some((key, n))
    })
}

/// One compute node inside a task bubble.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeEntry {
    /// The machine.
    pub machine: MachineId,
    /// How many of this task's instances run on it at the snapshot time.
    pub instances: u32,
    /// The machine's utilization triple at the snapshot time (sample-and-
    /// hold); `None` when the trace has no usage for it yet.
    pub util: Option<UtilizationTriple>,
}

/// One task bubble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskEntry {
    /// The task id within its job.
    pub task: TaskId,
    /// Nodes executing this task at the snapshot time, in machine order.
    pub nodes: Vec<NodeEntry>,
}

impl TaskEntry {
    /// Mean utilization over this task's nodes (ignoring nodes without
    /// usage data); `None` if no node has data.
    pub fn mean_util(&self) -> Option<UtilizationTriple> {
        UtilizationTriple::mean_of(self.nodes.iter().filter_map(|n| n.util.as_ref()))
    }
}

/// One job bubble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobEntry {
    /// The job id.
    pub job: JobId,
    /// The job's tasks that have at least one running instance, task order.
    pub tasks: Vec<TaskEntry>,
    /// Distinct machines under the job, ascending — computed once at
    /// snapshot build time (see [`JobEntry::machines`]).
    machines: Vec<MachineId>,
}

impl JobEntry {
    /// All distinct machines under this job at the snapshot time,
    /// ascending. Precomputed at construction — a borrow, not a per-call
    /// re-derivation.
    pub fn machines(&self) -> &[MachineId] {
        &self.machines
    }

    /// Mean utilization over all nodes of all tasks.
    pub fn mean_util(&self) -> Option<UtilizationTriple> {
        UtilizationTriple::mean_of(
            self.tasks
                .iter()
                .flat_map(|t| t.nodes.iter())
                .filter_map(|n| n.util.as_ref()),
        )
    }

    /// Total node glyph count (a machine appearing under two tasks counts
    /// twice, matching the paper's job-based rendering).
    pub fn node_count(&self) -> usize {
        self.tasks.iter().map(|t| t.nodes.len()).sum()
    }
}

/// The full bubble-chart model at one timestamp.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchySnapshot {
    /// Snapshot time.
    pub at: Timestamp,
    /// Jobs with at least one running instance, in job-id order.
    pub jobs: Vec<JobEntry>,
}

impl HierarchySnapshot {
    /// Builds the snapshot of `src` at time `at`.
    ///
    /// A job/task/node appears iff an instance of it is *running* at `at`
    /// (half-open execution windows). Node utilization is the machine's
    /// sample-and-hold value at `at`.
    ///
    /// Generic over [`DatasetQuery`], so the same code snapshots a batch
    /// [`batchlens_trace::TraceDataset`] or a live monitor window — the two
    /// sources answer the underlying queries bit-identically.
    pub fn at<Q: DatasetQuery + ?Sized>(src: &Q, at: Timestamp) -> HierarchySnapshot {
        // One interval-index stab gives every running instance, ascending
        // by (job, task, machine), so counting runs groups them in the
        // job → task → machine order of the bubble chart.
        let triples = src.running_triples_at(at);
        // Machines repeat across tasks/jobs; look their utilization up once.
        let mut util_cache: std::collections::BTreeMap<MachineId, Option<UtilizationTriple>> =
            std::collections::BTreeMap::new();
        Self::from_triples(at, &triples, |machine| {
            *util_cache
                .entry(machine)
                .or_insert_with(|| src.util_at(machine, at))
        })
    }

    /// Builds the snapshot from a [`batchlens_trace::QueryFrame`] — every
    /// structural and utilization answer comes from the frame's single
    /// captured state, so the result is transactionally consistent with any
    /// other product derived from the same frame. Bit-identical to
    /// [`HierarchySnapshot::at`] over the state the frame captured.
    pub fn from_frame(frame: &batchlens_trace::QueryFrame) -> HierarchySnapshot {
        Self::from_triples(frame.at(), frame.running_triples(), |machine| {
            frame.util_of(machine)
        })
    }

    /// The one materialization path both construction routes share —
    /// [`HierarchySnapshot::at`] and [`HierarchySnapshot::from_frame`] feed
    /// it, which is what makes "from a frame == from the source" a
    /// structural identity rather than a coincidence. `triples` must ascend
    /// by `(job, task, machine)`.
    fn from_triples(
        at: Timestamp,
        triples: &[(JobId, TaskId, MachineId)],
        mut util_of: impl FnMut(MachineId) -> Option<UtilizationTriple>,
    ) -> HierarchySnapshot {
        let mut jobs: Vec<JobEntry> = Vec::new();
        let mut runs = count_runs(triples).peekable();
        while let Some(&((job, _, _), _)) = runs.peek() {
            let mut tasks: Vec<TaskEntry> = Vec::new();
            while let Some(((_, task, machine), instances)) =
                runs.next_if(|&((j, _, _), _)| j == job)
            {
                let node = NodeEntry {
                    machine,
                    instances,
                    util: util_of(machine),
                };
                match tasks.last_mut() {
                    Some(te) if te.task == task => te.nodes.push(node),
                    _ => tasks.push(TaskEntry {
                        task,
                        nodes: vec![node],
                    }),
                }
            }
            // Distinct machines, computed once here rather than per
            // `JobEntry::machines` call.
            let mut machines: Vec<MachineId> = tasks
                .iter()
                .flat_map(|t| t.nodes.iter().map(|n| n.machine))
                .collect();
            machines.sort_unstable();
            machines.dedup();
            jobs.push(JobEntry {
                job,
                tasks,
                machines,
            });
        }
        HierarchySnapshot { at, jobs }
    }

    /// Looks up one job entry.
    pub fn job(&self, id: JobId) -> Option<&JobEntry> {
        self.jobs.iter().find(|j| j.job == id)
    }

    /// Jobs ranked by ascending mean utilization (the case study's "lowest
    /// utilization" ordering). Jobs without usage data sort last.
    pub fn jobs_by_mean_util(&self) -> Vec<(JobId, Option<UtilizationTriple>)> {
        let mut out: Vec<(JobId, Option<UtilizationTriple>)> =
            self.jobs.iter().map(|j| (j.job, j.mean_util())).collect();
        out.sort_by(|a, b| match (&a.1, &b.1) {
            (Some(x), Some(y)) => x
                .mean()
                .fraction()
                .partial_cmp(&y.mean().fraction())
                .unwrap_or(std::cmp::Ordering::Equal),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => std::cmp::Ordering::Equal,
        });
        out
    }

    /// Total node glyphs across all jobs.
    pub fn total_nodes(&self) -> usize {
        self.jobs.iter().map(|j| j.node_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchlens_trace::{
        BatchInstanceRecord, BatchTaskRecord, ServerUsageRecord, TaskStatus, TraceDataset,
        TraceDatasetBuilder,
    };

    fn build() -> TraceDataset {
        let mut b = TraceDatasetBuilder::new();
        // job 1: task 1 with 2 instances on machines 0 and 1 (machine 0 ×2),
        //        task 2 with 1 instance on machine 0.
        for (task, n) in [(1u32, 3u32), (2, 1)] {
            b.push_task(BatchTaskRecord {
                create_time: Timestamp::new(0),
                modify_time: Timestamp::new(1000),
                job: JobId::new(1),
                task: TaskId::new(task),
                instance_count: n,
                status: TaskStatus::Terminated,
                plan_cpu: 1.0,
                plan_mem: 0.5,
            });
        }
        let inst = |task: u32, seq: u32, machine: u32, t0: i64, t1: i64| BatchInstanceRecord {
            start_time: Timestamp::new(t0),
            end_time: Timestamp::new(t1),
            job: JobId::new(1),
            task: TaskId::new(task),
            seq,
            total: 3,
            machine: MachineId::new(machine),
            status: TaskStatus::Terminated,
            cpu_avg: 0.2,
            cpu_max: 0.4,
            mem_avg: 0.2,
            mem_max: 0.4,
        };
        b.push_instance(inst(1, 0, 0, 0, 1000));
        b.push_instance(inst(1, 1, 0, 0, 1000));
        b.push_instance(inst(1, 2, 1, 0, 500)); // ends before t=600
        b.push_instance(inst(2, 0, 0, 0, 1000));
        for t in [0i64, 300, 600, 900] {
            for m in [0u32, 1] {
                b.push_usage(ServerUsageRecord {
                    time: Timestamp::new(t),
                    machine: MachineId::new(m),
                    util: UtilizationTriple::clamped(0.3 + m as f64 * 0.2, 0.3, 0.3),
                });
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn snapshot_reflects_running_instances() {
        let ds = build();
        let snap = HierarchySnapshot::at(&ds, Timestamp::new(100));
        assert_eq!(snap.jobs.len(), 1);
        let job = &snap.jobs[0];
        assert_eq!(job.tasks.len(), 2);
        // Task 1 at t=100: machines 0 (2 instances) and 1 (1 instance).
        let t1 = &job.tasks[0];
        assert_eq!(t1.nodes.len(), 2);
        assert_eq!(t1.nodes[0].machine, MachineId::new(0));
        assert_eq!(t1.nodes[0].instances, 2);
        assert_eq!(t1.nodes[1].instances, 1);
        // Node glyph count double-counts machine 0 (appears under both tasks).
        assert_eq!(job.node_count(), 3);
        assert_eq!(job.machines(), vec![MachineId::new(0), MachineId::new(1)]);
    }

    #[test]
    fn finished_instances_drop_out() {
        let ds = build();
        let snap = HierarchySnapshot::at(&ds, Timestamp::new(600));
        let t1 = &snap.jobs[0].tasks[0];
        // Machine 1's instance ended at 500.
        assert_eq!(t1.nodes.len(), 1);
        assert_eq!(t1.nodes[0].machine, MachineId::new(0));
    }

    #[test]
    fn empty_when_nothing_runs() {
        let ds = build();
        let snap = HierarchySnapshot::at(&ds, Timestamp::new(5000));
        assert!(snap.jobs.is_empty());
        assert_eq!(snap.total_nodes(), 0);
    }

    #[test]
    fn utilization_is_attached() {
        let ds = build();
        let snap = HierarchySnapshot::at(&ds, Timestamp::new(100));
        let n = &snap.jobs[0].tasks[0].nodes[1]; // machine 1
        let u = n.util.unwrap();
        assert!((u.cpu.fraction() - 0.5).abs() < 1e-9);
        let mean = snap.jobs[0].mean_util().unwrap();
        assert!(mean.cpu.fraction() > 0.3);
    }

    #[test]
    fn ranking_sorts_by_mean() {
        let ds = build();
        let snap = HierarchySnapshot::at(&ds, Timestamp::new(100));
        let ranked = snap.jobs_by_mean_util();
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].0, JobId::new(1));
        assert!(snap.job(JobId::new(1)).is_some());
        assert!(snap.job(JobId::new(9)).is_none());
    }
}
