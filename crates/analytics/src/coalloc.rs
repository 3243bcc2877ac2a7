//! Co-allocation analysis: which machines execute several jobs at once.
//!
//! The hierarchical bubble chart is *job-based*, so one physical machine can
//! be rendered inside several job bubbles. BatchLens's hover interaction
//! connects those renderings with colored dotted lines (paper Fig 3(b):
//! "we connect the same machines with colored dotted lines (green, orange
//! and purple) … to help trace down the machines \[that\] execute multiple
//! tasks simultaneously"). This module computes the underlying index.

use batchlens_trace::{DatasetQuery, JobId, MachineId, TaskId, Timestamp};
use serde::{Deserialize, Serialize};

/// A machine rendered under more than one job bubble at the snapshot time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedMachine {
    /// The physical machine.
    pub machine: MachineId,
    /// The jobs with at least one instance running on it (≥ 2 entries).
    pub jobs: Vec<JobId>,
}

/// A renderable link: one machine appearing under two specific jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineLink {
    /// The shared machine.
    pub machine: MachineId,
    /// First job bubble.
    pub job_a: JobId,
    /// Second job bubble.
    pub job_b: JobId,
}

/// Co-allocation index at one timestamp.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CoallocationIndex {
    shared: Vec<SharedMachine>,
    /// All pairwise links, ascending by `(machine, job_a, job_b)` —
    /// precomputed at construction so [`CoallocationIndex::links`] and
    /// [`CoallocationIndex::links_for`] are borrows, not per-call pair
    /// expansions.
    links: Vec<MachineLink>,
}

impl CoallocationIndex {
    /// Builds the index of `src` at time `at`.
    ///
    /// One interval-index stab over the running instances, grouped by
    /// machine — O(log n + k log k) instead of a per-machine instance scan
    /// across the whole cluster. Generic over [`DatasetQuery`], so the same
    /// code indexes a batch dataset or a live monitor window.
    pub fn at<Q: DatasetQuery + ?Sized>(src: &Q, at: Timestamp) -> CoallocationIndex {
        Self::from_triples(&src.running_triples_at(at))
    }

    /// Builds the index from a [`batchlens_trace::QueryFrame`]'s captured
    /// running set — transactionally consistent with every other product of
    /// the same frame, and bit-identical to [`CoallocationIndex::at`] over
    /// the state the frame captured.
    pub fn from_frame(frame: &batchlens_trace::QueryFrame) -> CoallocationIndex {
        Self::from_triples(frame.running_triples())
    }

    /// The shared grouping path: ascending running triples → machine → job
    /// sets → shared machines + precomputed pairwise links. Both
    /// construction routes ([`CoallocationIndex::at`] and
    /// [`CoallocationIndex::from_frame`]) land here.
    fn from_triples(triples: &[(JobId, TaskId, MachineId)]) -> CoallocationIndex {
        let mut by_machine: std::collections::BTreeMap<
            MachineId,
            std::collections::BTreeSet<JobId>,
        > = std::collections::BTreeMap::new();
        for &(job, _, machine) in triples {
            by_machine.entry(machine).or_default().insert(job);
        }
        let shared: Vec<SharedMachine> = by_machine
            .into_iter()
            .filter(|(_, jobs)| jobs.len() >= 2)
            .map(|(machine, jobs)| SharedMachine {
                machine,
                jobs: jobs.into_iter().collect(),
            })
            .collect();
        // Pairwise links, ascending by (machine, job_a, job_b): machines
        // and each machine's jobs already ascend.
        let mut links = Vec::new();
        for s in &shared {
            for (i, &a) in s.jobs.iter().enumerate() {
                for &b in &s.jobs[i + 1..] {
                    links.push(MachineLink {
                        machine: s.machine,
                        job_a: a,
                        job_b: b,
                    });
                }
            }
        }
        CoallocationIndex { shared, links }
    }

    /// Machines shared by at least two jobs, in machine order.
    pub fn shared_machines(&self) -> &[SharedMachine] {
        &self.shared
    }

    /// Number of shared machines.
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    /// True when no machine is shared.
    pub fn is_empty(&self) -> bool {
        self.shared.is_empty()
    }

    /// All pairwise links, one per `(machine, job_a, job_b)` with
    /// `job_a < job_b` — each becomes one dotted line in the view.
    /// Precomputed at construction: a borrow, not a pair expansion.
    pub fn links(&self) -> &[MachineLink] {
        &self.links
    }

    /// The links involving one specific machine — what a mouse-over on that
    /// node highlights. A binary-searched sub-slice of the precomputed
    /// links (they ascend by machine), O(log L) per call, no allocation.
    pub fn links_for(&self, machine: MachineId) -> &[MachineLink] {
        let lo = self.links.partition_point(|l| l.machine < machine);
        let hi = self.links.partition_point(|l| l.machine <= machine);
        &self.links[lo..hi]
    }

    /// The jobs sharing a given machine, if it is shared.
    pub fn jobs_on(&self, machine: MachineId) -> Option<&[JobId]> {
        self.shared
            .iter()
            .find(|s| s.machine == machine)
            .map(|s| s.jobs.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchlens_trace::{
        BatchInstanceRecord, BatchTaskRecord, TaskId, TaskStatus, TraceDataset, TraceDatasetBuilder,
    };

    /// Three jobs; machine 0 shared by jobs 1+2, machine 1 shared by all
    /// three, machine 2 exclusive to job 3.
    fn build() -> TraceDataset {
        let mut b = TraceDatasetBuilder::new();
        for job in 1..=3u32 {
            b.push_task(BatchTaskRecord {
                create_time: Timestamp::new(0),
                modify_time: Timestamp::new(1000),
                job: JobId::new(job),
                task: TaskId::new(1),
                instance_count: 2,
                status: TaskStatus::Terminated,
                plan_cpu: 1.0,
                plan_mem: 0.5,
            });
        }
        for (job, machine) in [(1u32, 0u32), (1, 1), (2, 0), (2, 1), (3, 1), (3, 2)] {
            b.push_instance(BatchInstanceRecord {
                start_time: Timestamp::new(0),
                end_time: Timestamp::new(1000),
                job: JobId::new(job),
                task: TaskId::new(1),
                seq: machine, // unique per (job, task)
                total: 2,
                machine: MachineId::new(machine),
                status: TaskStatus::Terminated,
                cpu_avg: 0.1,
                cpu_max: 0.2,
                mem_avg: 0.1,
                mem_max: 0.2,
            });
        }
        b.build().unwrap()
    }

    #[test]
    fn shared_machines_found() {
        let ds = build();
        let idx = CoallocationIndex::at(&ds, Timestamp::new(100));
        assert_eq!(idx.len(), 2);
        let m0 = idx.jobs_on(MachineId::new(0)).unwrap();
        assert_eq!(m0, &[JobId::new(1), JobId::new(2)]);
        let m1 = idx.jobs_on(MachineId::new(1)).unwrap();
        assert_eq!(m1.len(), 3);
        assert!(idx.jobs_on(MachineId::new(2)).is_none());
    }

    #[test]
    fn links_are_pairwise() {
        let ds = build();
        let idx = CoallocationIndex::at(&ds, Timestamp::new(100));
        let links = idx.links();
        // machine 0: 1 pair; machine 1: C(3,2) = 3 pairs.
        assert_eq!(links.len(), 4);
        let m1_links = idx.links_for(MachineId::new(1));
        assert_eq!(m1_links.len(), 3);
        for l in m1_links {
            assert!(l.job_a < l.job_b);
        }
        assert!(m1_links.iter().all(|l| l.machine == MachineId::new(1)));
        assert!(idx.links_for(MachineId::new(2)).is_empty());
        // links ascend by (machine, job_a, job_b): the sub-slice contract.
        assert!(links.windows(2).all(
            |w| (w[0].machine, w[0].job_a, w[0].job_b) < (w[1].machine, w[1].job_a, w[1].job_b)
        ));
    }

    #[test]
    fn empty_after_everything_ends() {
        let ds = build();
        let idx = CoallocationIndex::at(&ds, Timestamp::new(2000));
        assert!(idx.is_empty());
        assert!(idx.links().is_empty());
    }
}
