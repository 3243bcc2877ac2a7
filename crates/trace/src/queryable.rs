//! [`DatasetQuery`]: the shared snapshot-query surface of batch datasets
//! and live windows.
//!
//! PR 1 gave [`crate::TraceDataset`] indexed structural queries; the online
//! path answers the same questions over a rolling window. This trait is the
//! one definition both implement, so every consumer — hierarchy snapshots,
//! co-allocation, liveness overlays — is written once and runs bit-identically
//! against either source. The `stream_batch_differential` workspace suite
//! enforces that equality on random record streams.
//!
//! [`DatasetQuery::frame`] captures every answer at one instant as one
//! [`QueryFrame`]; the hierarchy snapshot and co-allocation index that a
//! served frame shows are built from it. Each source keeps one machine
//! table, one entry per machine holding its liveness checkpoints and
//! usage, and captures a frame in one ordered pass over it, not by issuing
//! the per-machine queries one by one; those queries stay the reference
//! the frame is tested against.
//!
//! Implementations:
//!
//! * [`crate::TraceDataset`] (here) — served by the build-time interval
//!   indexes and the machine table, O(log n + k) per query.
//! * `batchlens::stream::LiveWindowView` (crate `batchlens`) — served by the
//!   monitor's [`crate::RollingIntervalIndex`] and its machine table of
//!   rolling liveness checkpoints and usage windows, same bounds, no window
//!   re-scan.

use crate::{
    JobId, MachineId, Metric, TaskId, TimeRange, TimeSeries, Timestamp, UtilizationTriple,
};

/// Resolves machine liveness from time-sorted `(checkpoint time, alive
/// afterwards)` pairs: the last checkpoint at or before `t` decides, and a
/// machine is alive before its first checkpoint (matching the event-less
/// default). O(log e) — the **single definition** of the lookup, shared by
/// the batch index and the online rolling checkpoints. Checkpoint lists
/// must hold at most one entry per timestamp (duplicate-time events are
/// merged dead-wins at construction on both sides).
pub fn alive_at_checkpoints(checkpoints: &[(Timestamp, bool)], t: Timestamp) -> bool {
    match checkpoints.partition_point(|&(time, _)| time <= t) {
        0 => true,
        n => checkpoints[n - 1].1,
    }
}

/// One timestamp's worth of structural queries, captured **transactionally
/// consistently**: every answer in a frame reflects the same source state.
///
/// For an immutable batch dataset that is trivially true; for a live window
/// the implementation ([`DatasetQuery::frame`] on
/// `batchlens::stream::LiveWindowView`) acquires the monitor lock **once**
/// and answers every probe under it — where issuing the sub-queries
/// individually would let concurrent ingest slide the window between them.
/// The captured [`QueryFrame::version`] names that state, so downstream
/// caches can key on `(version, at)`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryFrame {
    at: Timestamp,
    version: u64,
    /// Running `(job, task, machine)` triples, ascending, one per instance.
    triples: Vec<(JobId, TaskId, MachineId)>,
    /// Every machine known to the source, ascending.
    machines: Vec<MachineId>,
    /// Liveness per machine, parallel to `machines`.
    alive: Vec<bool>,
    /// Sample-and-hold utilization per machine, parallel to `machines`.
    utils: Vec<Option<UtilizationTriple>>,
    /// Retained anomaly alerts per machine, parallel to `machines` (all
    /// zero for sources without an anomaly stream).
    anomalies: Vec<u32>,
}

impl QueryFrame {
    /// Assembles a frame from pre-queried parts. `machines` must ascend and
    /// `alive`/`utils` must align with it; `triples` must ascend. Anomaly
    /// counts are zero — sources with an anomaly stream use
    /// [`QueryFrame::with_anomalies`].
    pub fn new(
        at: Timestamp,
        version: u64,
        triples: Vec<(JobId, TaskId, MachineId)>,
        machines: Vec<MachineId>,
        alive: Vec<bool>,
        utils: Vec<Option<UtilizationTriple>>,
    ) -> QueryFrame {
        let anomalies = vec![0; machines.len()];
        QueryFrame::with_anomalies(at, version, triples, machines, alive, utils, anomalies)
    }

    /// [`QueryFrame::new`] plus per-machine retained anomaly-alert counts
    /// (parallel to `machines`), captured under the same lock as the rest
    /// of the frame — which is what lets a dashboard render an anomaly
    /// sidebar overlay from the frame alone, with no second lock
    /// acquisition racing the ingest path.
    pub fn with_anomalies(
        at: Timestamp,
        version: u64,
        triples: Vec<(JobId, TaskId, MachineId)>,
        machines: Vec<MachineId>,
        alive: Vec<bool>,
        utils: Vec<Option<UtilizationTriple>>,
        anomalies: Vec<u32>,
    ) -> QueryFrame {
        debug_assert!(machines.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(triples.windows(2).all(|w| w[0] <= w[1]));
        debug_assert_eq!(machines.len(), alive.len());
        debug_assert_eq!(machines.len(), utils.len());
        debug_assert_eq!(machines.len(), anomalies.len());
        QueryFrame {
            at,
            version,
            triples,
            machines,
            alive,
            utils,
            anomalies,
        }
    }

    /// The frame's timestamp.
    pub fn at(&self) -> Timestamp {
        self.at
    }

    /// The source state version the frame was captured from
    /// ([`DatasetQuery::state_version`]).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Running `(job, task, machine)` triples, ascending — exactly
    /// [`DatasetQuery::running_triples_at`] at [`QueryFrame::at`].
    pub fn running_triples(&self) -> &[(JobId, TaskId, MachineId)] {
        &self.triples
    }

    /// How many instances were running.
    pub fn running_instance_count(&self) -> usize {
        self.triples.len()
    }

    /// Jobs with at least one running instance, ascending, each once.
    pub fn jobs_running(&self) -> Vec<JobId> {
        let mut out: Vec<JobId> = self.triples.iter().map(|t| t.0).collect();
        out.dedup();
        out
    }

    /// Every machine known to the source, ascending.
    pub fn machine_ids(&self) -> &[MachineId] {
        &self.machines
    }

    /// Whether `machine` was alive; machines unknown to the source count
    /// alive, matching [`DatasetQuery::alive_at`].
    pub fn alive(&self, machine: MachineId) -> bool {
        match self.machines.binary_search(&machine) {
            Ok(i) => self.alive[i],
            Err(_) => true,
        }
    }

    /// The machine's sample-and-hold utilization, or `None` when the source
    /// had no sample for it yet (or doesn't know it).
    pub fn util_of(&self, machine: MachineId) -> Option<UtilizationTriple> {
        match self.machines.binary_search(&machine) {
            Ok(i) => self.utils[i],
            Err(_) => None,
        }
    }

    /// The machines alive in this frame, ascending — the frame-consistent
    /// [`DatasetQuery::machines_active_at`].
    pub fn machines_active(&self) -> Vec<MachineId> {
        self.machines
            .iter()
            .zip(&self.alive)
            .filter(|&(_, &a)| a)
            .map(|(&m, _)| m)
            .collect()
    }

    /// Mean utilization over the machines with a known sample — the
    /// dashboard's cluster-utilization stat, recomputed fresh per frame (no
    /// cross-frame float accumulation, hence no drift to rebase away).
    pub fn mean_utilization(&self) -> Option<UtilizationTriple> {
        UtilizationTriple::mean_of(self.utils.iter().filter_map(|u| u.as_ref()))
    }

    /// Retained anomaly alerts for `machine` in the source's alert buffer
    /// at capture time (0 for machines unknown to the source, and for
    /// sources without an anomaly stream — e.g. a batch
    /// [`crate::TraceDataset`]).
    pub fn anomaly_count(&self, machine: MachineId) -> u32 {
        match self.machines.binary_search(&machine) {
            Ok(i) => self.anomalies[i],
            Err(_) => 0,
        }
    }

    /// Total retained anomaly alerts across all machines in the frame.
    pub fn total_anomalies(&self) -> u64 {
        self.anomalies.iter().map(|&c| u64::from(c)).sum()
    }
}

/// The structural query surface shared by [`crate::TraceDataset`] and live
/// window views.
///
/// Contracts every implementation must honor (the differential suite checks
/// them pairwise):
///
/// * Results are **deterministic and sorted**: ids ascend, and
///   [`DatasetQuery::running_triples_at`] ascends by `(job, task, machine)`.
/// * Instance windows are half-open `[start, end)`; empty windows never
///   match.
/// * Machines without recorded lifecycle events count as alive.
/// * Utilization is sample-and-hold: the last sample at or before `t`, or
///   `None` before the first (known) sample.
pub trait DatasetQuery {
    /// Every machine known to the source (declared, referenced by an
    /// instance or event, or reporting usage), ascending.
    fn machine_ids(&self) -> Vec<MachineId>;

    /// Jobs with at least one instance running at `t`, ascending, each
    /// exactly once.
    fn jobs_running_at(&self, t: Timestamp) -> Vec<JobId>;

    /// One `(job, task, machine)` triple per instance running at `t`
    /// (multiple instances of one task on one machine repeat the triple),
    /// ascending.
    fn running_triples_at(&self, t: Timestamp) -> Vec<(JobId, TaskId, MachineId)>;

    /// How many instances are running at `t`.
    fn running_instance_count_at(&self, t: Timestamp) -> usize;

    /// Whether `machine` is alive at `t` according to its lifecycle events;
    /// machines with no events (or unknown to the source) count alive.
    fn alive_at(&self, machine: MachineId, t: Timestamp) -> bool;

    /// The machine's sample-and-hold utilization triple at `t`.
    fn util_at(&self, machine: MachineId, t: Timestamp) -> Option<UtilizationTriple>;

    /// The machine's usage samples for `metric` inside the half-open
    /// `window`, or `None` when the source has no usage for it.
    fn series_window(
        &self,
        machine: MachineId,
        metric: Metric,
        window: &TimeRange,
    ) -> Option<TimeSeries>;

    /// The machines alive at `t`, ascending — the default walks
    /// [`DatasetQuery::machine_ids`] through [`DatasetQuery::alive_at`].
    fn machines_active_at(&self, t: Timestamp) -> Vec<MachineId> {
        self.machine_ids()
            .into_iter()
            .filter(|&m| self.alive_at(m, t))
            .collect()
    }

    /// A monotone counter naming the source state the queries answer from.
    /// Immutable sources (a built [`crate::TraceDataset`]) return a
    /// constant `0`; mutable sources bump it on **every** state change that
    /// could alter a query answer, so `(state_version, timestamp)` is a
    /// sound memoization key for frames captured at `timestamp`.
    fn state_version(&self) -> u64 {
        0
    }

    /// Captures every structural query at `at` as one transactionally
    /// consistent [`QueryFrame`], equal to what the individual queries
    /// answer from the same source state.
    ///
    /// Each source builds the frame in one ordered pass over its machine
    /// table. A mutable live source takes its lock **once**
    /// and answers the whole frame under it (the frame consistency
    /// guarantee: hierarchy, co-allocation, utilization, alive-set and
    /// anomaly-count probes derived from one frame can never disagree about
    /// the window state).
    fn frame(&self, at: Timestamp) -> QueryFrame;
}

impl DatasetQuery for crate::TraceDataset {
    fn machine_ids(&self) -> Vec<MachineId> {
        self.machines().map(|m| m.id()).collect()
    }

    fn jobs_running_at(&self, t: Timestamp) -> Vec<JobId> {
        // The inherent method (which this resolves to) serves the merged
        // per-job interval index: ascending, deduplicated.
        self.jobs_running_at(t).iter().map(|j| j.id()).collect()
    }

    fn running_triples_at(&self, t: Timestamp) -> Vec<(JobId, TaskId, MachineId)> {
        let mut out: Vec<(JobId, TaskId, MachineId)> = self
            .instances_running_at(t)
            .iter()
            .map(|i| (i.record.job, i.record.task, i.record.machine))
            .collect();
        // instances_running_at ascends by (job, task, seq); the trait orders
        // by (job, task, machine), so re-sort the machine tie-break.
        out.sort_unstable();
        out
    }

    fn running_instance_count_at(&self, t: Timestamp) -> usize {
        self.running_instance_count_at(t)
    }

    fn alive_at(&self, machine: MachineId, t: Timestamp) -> bool {
        self.machine(machine).is_none_or(|m| m.alive_at(t))
    }

    fn util_at(&self, machine: MachineId, t: Timestamp) -> Option<UtilizationTriple> {
        self.machine(machine)?.util_at(t)
    }

    fn series_window(
        &self,
        machine: MachineId,
        metric: Metric,
        window: &TimeRange,
    ) -> Option<TimeSeries> {
        Some(
            self.machine(machine)?
                .usage(metric)?
                .slice(window)
                .to_owned(),
        )
    }

    /// One ordered pass over the machine table: each machine's liveness
    /// and utilization come from its own entry, the utilization from one
    /// guessed search on its grid.
    fn frame(&self, at: Timestamp) -> QueryFrame {
        let n = self.machine_count();
        let (mut machines, mut alive, mut utils) = (
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
        );
        for machine in self.machines() {
            machines.push(machine.id());
            alive.push(machine.alive_at(at));
            utils.push(machine.util_at(at));
        }
        let triples = self.running_triples_at(at);
        QueryFrame::new(at, 0, triples, machines, alive, utils)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        BatchInstanceRecord, BatchTaskRecord, MachineEvent, MachineEventRecord, ServerUsageRecord,
        TaskStatus, TraceDataset, TraceDatasetBuilder,
    };

    fn dataset() -> TraceDataset {
        let mut b = TraceDatasetBuilder::new();
        for (job, task) in [(1u32, 1u32), (1, 2), (2, 1)] {
            b.push_task(BatchTaskRecord {
                create_time: Timestamp::new(0),
                modify_time: Timestamp::new(1000),
                job: JobId::new(job),
                task: TaskId::new(task),
                instance_count: 2,
                status: TaskStatus::Terminated,
                plan_cpu: 1.0,
                plan_mem: 0.5,
            });
        }
        // Task (1,1) places seq 0 on machine 5 and seq 1 on machine 3: the
        // trait's (job, task, machine) order differs from seq order here.
        for (job, task, seq, machine, s, e) in [
            (1u32, 1u32, 0u32, 5u32, 0i64, 600i64),
            (1, 1, 1, 3, 0, 500),
            (1, 2, 0, 3, 100, 900),
            (2, 1, 0, 7, 300, 1200),
        ] {
            b.push_instance(BatchInstanceRecord {
                start_time: Timestamp::new(s),
                end_time: Timestamp::new(e),
                job: JobId::new(job),
                task: TaskId::new(task),
                seq,
                total: 2,
                machine: MachineId::new(machine),
                status: TaskStatus::Terminated,
                cpu_avg: 0.2,
                cpu_max: 0.4,
                mem_avg: 0.2,
                mem_max: 0.4,
            });
        }
        for t in (0..1200).step_by(300) {
            b.push_usage(ServerUsageRecord {
                time: Timestamp::new(t),
                machine: MachineId::new(3),
                util: UtilizationTriple::clamped(0.4, 0.3, 0.2),
            });
        }
        // Machine 9 is named only by a Remove event, machine 11 only by its
        // usage samples.
        for (time, machine) in [(700, 7u32), (500, 9)] {
            b.push_machine_event(MachineEventRecord {
                time: Timestamp::new(time),
                machine: MachineId::new(machine),
                event: MachineEvent::Remove,
                capacity_cpu: 0.0,
                capacity_mem: 0.0,
                capacity_disk: 0.0,
            });
        }
        for t in (600..1200).step_by(300) {
            b.push_usage(ServerUsageRecord {
                time: Timestamp::new(t),
                machine: MachineId::new(11),
                util: UtilizationTriple::clamped(0.1, 0.2, 0.3),
            });
        }
        b.build().unwrap()
    }

    #[test]
    fn trait_queries_match_inherent_ones() {
        let ds = dataset();
        let t = Timestamp::new(350);
        let jobs = DatasetQuery::jobs_running_at(&ds, t);
        assert_eq!(jobs, vec![JobId::new(1), JobId::new(2)]);
        let triples = ds.running_triples_at(t);
        assert_eq!(
            triples,
            vec![
                (JobId::new(1), TaskId::new(1), MachineId::new(3)),
                (JobId::new(1), TaskId::new(1), MachineId::new(5)),
                (JobId::new(1), TaskId::new(2), MachineId::new(3)),
                (JobId::new(2), TaskId::new(1), MachineId::new(7)),
            ]
        );
        assert_eq!(
            DatasetQuery::running_instance_count_at(&ds, t),
            triples.len()
        );
    }

    #[test]
    fn liveness_and_unknown_machines() {
        let ds = dataset();
        assert!(DatasetQuery::alive_at(
            &ds,
            MachineId::new(7),
            Timestamp::new(600)
        ));
        assert!(!DatasetQuery::alive_at(
            &ds,
            MachineId::new(7),
            Timestamp::new(700)
        ));
        // Unknown machines default alive, like event-less ones.
        assert!(DatasetQuery::alive_at(
            &ds,
            MachineId::new(99),
            Timestamp::new(0)
        ));
        let active = ds.machines_active_at(Timestamp::new(800));
        assert_eq!(
            active,
            [3u32, 5, 11].map(MachineId::new).to_vec(),
            "machine 9 removed at 500, machine 7 at 700"
        );
    }

    #[test]
    fn frame_matches_individual_queries() {
        let ds = dataset();
        for t in [0i64, 350, 700, 1200, 5000] {
            let t = Timestamp::new(t);
            let frame = ds.frame(t);
            assert_eq!(frame.at(), t);
            assert_eq!(frame.version(), 0, "immutable source");
            assert_eq!(frame.running_triples(), &ds.running_triples_at(t)[..]);
            assert_eq!(
                frame.running_instance_count(),
                DatasetQuery::running_instance_count_at(&ds, t)
            );
            assert_eq!(frame.jobs_running(), DatasetQuery::jobs_running_at(&ds, t));
            assert_eq!(frame.machine_ids(), &ds.machine_ids()[..]);
            assert_eq!(frame.machines_active(), ds.machines_active_at(t));
            for m in [3u32, 5, 7, 9, 11, 99] {
                let m = MachineId::new(m);
                assert_eq!(frame.alive(m), DatasetQuery::alive_at(&ds, m, t));
                assert_eq!(frame.util_of(m), DatasetQuery::util_at(&ds, m, t));
            }
        }
    }

    #[test]
    fn util_and_series_windows() {
        let ds = dataset();
        let u = DatasetQuery::util_at(&ds, MachineId::new(3), Timestamp::new(450)).unwrap();
        assert!((u.cpu.fraction() - 0.4).abs() < 1e-12);
        assert!(DatasetQuery::util_at(&ds, MachineId::new(5), Timestamp::new(450)).is_none());
        let w = TimeRange::new(Timestamp::new(300), Timestamp::new(900)).unwrap();
        let s = ds
            .series_window(MachineId::new(3), Metric::Cpu, &w)
            .unwrap();
        assert_eq!(s.len(), 2); // samples at 300 and 600; 900 excluded
        assert!(ds
            .series_window(MachineId::new(5), Metric::Cpu, &w)
            .is_none());
    }
}
