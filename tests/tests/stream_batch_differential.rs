//! Differential proptests for the online rolling index layer: every
//! [`DatasetQuery`] a `LiveWindowView` answers must be **bit-identical** to
//! the batch `TraceDataset` answer over the same records — the stream/batch
//! analogue of `parallel_differential`.
//!
//! Each case generates a random record soup (irregular grids, staggered
//! machines, duplicate timestamps, zero-length and straggler instance
//! windows, bounded out-of-order delivery), streams it into a
//! `StreamMonitor` one record at a time, replays the monitor's documented
//! acceptance rule as a golden model to derive the batch feed, builds the
//! indexed `TraceDataset` from that feed, and compares the full shared
//! query surface at probe timestamps across the window.

use std::collections::BTreeSet;

use batchlens::stream::{StreamConfig, StreamMonitor};
use batchlens::trace::{
    BatchInstanceRecord, BatchTaskRecord, DatasetQuery, JobId, MachineEvent, MachineEventRecord,
    MachineId, Metric, ServerUsageRecord, TaskId, TaskStatus, TimeDelta, TimeRange, Timestamp,
    TraceDataset, TraceDatasetBuilder, UtilizationTriple,
};
use proptest::prelude::*;

/// A random record soup plus its delivery order.
#[derive(Debug, Clone)]
struct Soup {
    tasks: Vec<BatchTaskRecord>,
    instances: Vec<BatchInstanceRecord>,
    /// Usage records in delivery order: per-machine time-ordered modulo a
    /// bounded jitter (see [`soup_strategy`]), so some arrive late within
    /// the monitor's tolerance and some beyond it.
    usage_deliveries: Vec<ServerUsageRecord>,
    events: Vec<MachineEventRecord>,
}

const MACHINES: u32 = 6;
/// Delivery jitter stays under this; the monitor's tolerance in the tests.
const TOLERANCE_S: i64 = 240;

fn soup_strategy() -> impl Strategy<Value = Soup> {
    (
        prop::collection::vec(
            // (job, task, machine, start, duration) — durations of 0 (empty)
            // and huge (straggler) both appear.
            (0u32..5, 1u32..4, 0..MACHINES, 0i64..4_000, 0i64..3_000),
            1..50,
        ),
        prop::collection::vec(
            // (machine, time, cpu, delivery jitter)
            (0..MACHINES, 0i64..6_000, 0.0f64..1.0, 0i64..TOLERANCE_S),
            1..250,
        ),
        prop::collection::vec(
            // (machine, time, event kind selector)
            (0..MACHINES, 0i64..6_000, 0u8..4),
            0..12,
        ),
    )
        .prop_map(|(inst_rows, usage_samples, event_rows)| {
            let mut tasks = Vec::new();
            let mut instances = Vec::new();
            let mut seen_task = BTreeSet::new();
            let mut seq_of = std::collections::BTreeMap::new();
            for (job, task, machine, start, dur) in inst_rows {
                if seen_task.insert((job, task)) {
                    tasks.push(BatchTaskRecord {
                        create_time: Timestamp::new(0),
                        modify_time: Timestamp::new(20_000),
                        job: JobId::new(job),
                        task: TaskId::new(task),
                        instance_count: 1,
                        status: TaskStatus::Terminated,
                        plan_cpu: 1.0,
                        plan_mem: 0.5,
                    });
                }
                let seq = seq_of.entry((job, task)).or_insert(0u32);
                // Every tenth duration becomes a straggler spanning far past
                // the soup's horizon.
                let dur = if dur % 10 == 9 { 50_000 } else { dur };
                instances.push(BatchInstanceRecord {
                    start_time: Timestamp::new(start),
                    end_time: Timestamp::new(start + dur),
                    job: JobId::new(job),
                    task: TaskId::new(task),
                    seq: *seq,
                    total: 1,
                    machine: MachineId::new(machine),
                    status: TaskStatus::Terminated,
                    cpu_avg: 0.4,
                    cpu_max: 0.6,
                    mem_avg: 0.3,
                    mem_max: 0.5,
                });
                *seq += 1;
            }
            // Usage deliveries ordered by (time + jitter) — a realistic
            // interleaved feed where records arrive up to TOLERANCE_S late
            // relative to faster peers. Duplicate (machine, time) rows stay
            // in: the monitor must reject re-deliveries of a retained
            // timestamp, and the golden model mirrors that.
            let mut deliveries: Vec<(i64, ServerUsageRecord)> = usage_samples
                .into_iter()
                .map(|(machine, t, cpu, jitter)| {
                    let rec = ServerUsageRecord {
                        time: Timestamp::new(t),
                        machine: MachineId::new(machine),
                        util: UtilizationTriple::clamped(cpu, cpu * 0.7, cpu * 0.4),
                    };
                    (t + jitter, rec)
                })
                .collect();
            deliveries.sort_by_key(|&(arrival, rec)| (arrival, rec.machine, rec.time));
            let usage_deliveries = deliveries.into_iter().map(|(_, rec)| rec).collect();
            // Duplicate (machine, time) events stay in: both sides must
            // resolve equal-time ties dead-wins, independent of order.
            let events = event_rows
                .into_iter()
                .map(|(machine, t, kind)| MachineEventRecord {
                    time: Timestamp::new(t),
                    machine: MachineId::new(machine),
                    event: match kind {
                        0 => MachineEvent::Add,
                        1 => MachineEvent::SoftError,
                        2 => MachineEvent::HardError,
                        _ => MachineEvent::Remove,
                    },
                    capacity_cpu: 1.0,
                    capacity_mem: 1.0,
                    capacity_disk: 1.0,
                })
                .collect();
            Soup {
                tasks,
                instances,
                usage_deliveries,
                events,
            }
        })
}

/// Streams the soup into a monitor (usage in delivery order, instances and
/// events shuffled deterministically by a round-robin pick) and builds the
/// batch dataset from the records the monitor's documented acceptance rule
/// admits. Returns `(monitor, dataset, rejected usage records)`.
fn stream_and_build(soup: &Soup, cfg: StreamConfig) -> (StreamMonitor, TraceDataset, u64) {
    let monitor = StreamMonitor::new(cfg).unwrap();
    // Interleave structural records with usage so index maintenance and
    // window maintenance interleave like a real feed. Deterministic order.
    for (i, rec) in soup.instances.iter().enumerate() {
        if i % 2 == 0 {
            monitor.ingest_instance(*rec);
        } else {
            // The open/close path must land in the same indexed state.
            monitor.instance_started(rec.job, rec.task, rec.seq, rec.machine, rec.start_time);
            monitor.instance_finished(rec.job, rec.task, rec.seq, rec.end_time);
        }
    }
    for ev in soup.events.iter().rev() {
        // Reverse arrival: liveness checkpoints must sort themselves.
        monitor.ingest_machine_event(*ev);
    }
    // Golden model of the usage acceptance rule: last-seen per machine,
    // accept in-order or within tolerance (first delivery per timestamp).
    let mut accepted: Vec<ServerUsageRecord> = Vec::new();
    let mut seen: std::collections::BTreeMap<MachineId, (Timestamp, BTreeSet<Timestamp>)> =
        std::collections::BTreeMap::new();
    let mut rejected = 0u64;
    for rec in &soup.usage_deliveries {
        monitor.ingest(*rec);
        let entry = seen
            .entry(rec.machine)
            .or_insert_with(|| (rec.time, BTreeSet::new()));
        let ok = if entry.1.is_empty() || rec.time > entry.0 {
            entry.0 = rec.time;
            true
        } else {
            entry.0 - rec.time <= cfg.ooo_tolerance && !entry.1.contains(&rec.time)
        };
        if ok {
            entry.1.insert(rec.time);
            accepted.push(*rec);
        } else {
            rejected += 1;
        }
    }
    let mut b = TraceDatasetBuilder::new();
    b.extend_tables(
        soup.tasks.iter().copied(),
        soup.instances.iter().copied(),
        accepted,
        soup.events.iter().copied(),
    );
    let ds = b.build().expect("accepted soup is valid");
    (monitor, ds, rejected)
}

/// Probe timestamps covering the soup's span, its edges and far outside.
fn probes() -> impl Iterator<Item = Timestamp> {
    (-500..7_000)
        .step_by(171)
        .chain([0, 3_999, 4_000, 5_999, 6_000, 55_000, -10_000])
        .map(Timestamp::new)
}

/// Asserts the full shared query surface equal at `t`.
fn assert_queries_equal(
    live: &batchlens::stream::LiveWindowView<'_>,
    ds: &TraceDataset,
    t: Timestamp,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        live.jobs_running_at(t),
        DatasetQuery::jobs_running_at(ds, t),
        "jobs_running_at({})",
        t
    );
    prop_assert_eq!(
        live.running_triples_at(t),
        ds.running_triples_at(t),
        "running_triples_at({})",
        t
    );
    prop_assert_eq!(
        live.running_instance_count_at(t),
        DatasetQuery::running_instance_count_at(ds, t),
        "running_instance_count_at({})",
        t
    );
    prop_assert_eq!(
        live.machines_active_at(t),
        ds.machines_active_at(t),
        "machines_active_at({})",
        t
    );
    for m in 0..MACHINES {
        let m = MachineId::new(m);
        prop_assert_eq!(
            live.alive_at(m, t),
            DatasetQuery::alive_at(ds, m, t),
            "alive_at({}, {})",
            m,
            t
        );
        // Bit-identical utilization triples (f64 equality, not tolerance).
        prop_assert_eq!(
            live.util_at(m, t),
            DatasetQuery::util_at(ds, m, t),
            "util_at({}, {})",
            m,
            t
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With a horizon wide enough to retain everything, every shared query
    /// is bit-identical between the live view and the batch dataset at
    /// every probe — including out-of-order usage arrivals within
    /// tolerance, which both sides must retain identically.
    #[test]
    fn live_window_queries_equal_batch(soup in soup_strategy()) {
        let cfg = StreamConfig {
            horizon: TimeDelta::hours(100),
            ooo_tolerance: TimeDelta::seconds(TOLERANCE_S),
            ..Default::default()
        };
        let (monitor, ds, rejected) = stream_and_build(&soup, cfg);
        prop_assert_eq!(monitor.stale_dropped(), rejected, "acceptance-rule parity");
        let live = monitor.live_view();
        // The two sources agree on the machine universe.
        prop_assert_eq!(live.machine_ids(), ds.machine_ids());
        for t in probes() {
            assert_queries_equal(&live, &ds, t)?;
        }
        // Windowed series extraction, over a few windows.
        for (lo, hi) in [(-100i64, 2_000i64), (1_000, 1_001), (0, 6_500)] {
            let w = TimeRange::new(Timestamp::new(lo), Timestamp::new(hi)).unwrap();
            for m in 0..MACHINES {
                let m = MachineId::new(m);
                for metric in Metric::ALL {
                    prop_assert_eq!(
                        live.series_window(m, metric, &w),
                        ds.series_window(m, metric, &w),
                        "series_window({}, {:?}, [{}, {}))",
                        m, metric, lo, hi
                    );
                }
            }
        }
    }

    /// With a tight horizon, eviction may discard old intervals — but every
    /// structural query **inside the retained window** (probes at or after
    /// `frontier - horizon`) still equals the batch answer: eviction only
    /// removes intervals that can no longer match there.
    #[test]
    fn eviction_preserves_in_window_equality(soup in soup_strategy()) {
        let horizon = TimeDelta::seconds(2_500);
        let cfg = StreamConfig {
            horizon,
            ooo_tolerance: TimeDelta::seconds(TOLERANCE_S),
            ..Default::default()
        };
        let (monitor, ds, _) = stream_and_build(&soup, cfg);
        let live = monitor.live_view();
        // The frontier is the max structural event time the monitor saw.
        let frontier = soup
            .instances
            .iter()
            .map(|r| r.end_time.max(r.start_time))
            .max();
        let Some(frontier) = frontier else { return Ok(()) };
        let cutoff = frontier - horizon;
        for t in probes().filter(|&t| t >= cutoff) {
            prop_assert_eq!(
                live.jobs_running_at(t),
                DatasetQuery::jobs_running_at(&ds, t),
                "jobs_running_at({}) inside retained window (cutoff {})",
                t,
                cutoff
            );
            prop_assert_eq!(
                live.running_triples_at(t),
                ds.running_triples_at(t),
                "running_triples_at({})",
                t
            );
        }
    }

    /// The generic analytics consumers — hierarchy snapshot and
    /// co-allocation index — produce structurally equal results from either
    /// source (they only see the DatasetQuery surface).
    #[test]
    fn snapshots_and_coalloc_equal_from_either_source(soup in soup_strategy()) {
        use batchlens::analytics::coalloc::CoallocationIndex;
        use batchlens::analytics::hierarchy::HierarchySnapshot;
        let cfg = StreamConfig {
            horizon: TimeDelta::hours(100),
            ooo_tolerance: TimeDelta::seconds(TOLERANCE_S),
            ..Default::default()
        };
        let (monitor, ds, _) = stream_and_build(&soup, cfg);
        let live = monitor.live_view();
        for t in (0..6_000).step_by(997).map(Timestamp::new) {
            prop_assert_eq!(
                HierarchySnapshot::at(&live, t),
                HierarchySnapshot::at(&ds, t),
                "hierarchy snapshot at {}",
                t
            );
            prop_assert_eq!(
                CoallocationIndex::at(&live, t),
                CoallocationIndex::at(&ds, t),
                "coallocation at {}",
                t
            );
        }
    }
}

/// Beyond-tolerance stragglers are rejected by the monitor and must *not*
/// be fed to the batch side — the golden model in `stream_and_build`
/// replicates the rule; this pins it on a hand-built case.
#[test]
fn beyond_tolerance_stragglers_stay_dropped() {
    let cfg = StreamConfig {
        horizon: TimeDelta::hours(100),
        ooo_tolerance: TimeDelta::seconds(TOLERANCE_S),
        ..Default::default()
    };
    let monitor = StreamMonitor::new(cfg).unwrap();
    let rec = |t: i64, cpu: f64| ServerUsageRecord {
        time: Timestamp::new(t),
        machine: MachineId::new(0),
        util: UtilizationTriple::clamped(cpu, 0.2, 0.2),
    };
    monitor.ingest(rec(1_000, 0.5));
    monitor.ingest(rec(1_000 - TOLERANCE_S, 0.6)); // exactly at tolerance: in
    monitor.ingest(rec(1_000 - TOLERANCE_S - 1, 0.7)); // beyond: dropped
    monitor.ingest(rec(1_000, 0.9)); // duplicate: dropped
    assert_eq!(monitor.late_accepted(), 1);
    assert_eq!(monitor.stale_dropped(), 2);
    let s = monitor
        .series(MachineId::new(0), Metric::Cpu)
        .expect("machine tracked");
    assert_eq!(s.len(), 2);
    // The retained window equals a batch build over the accepted records.
    let mut b = TraceDatasetBuilder::new();
    b.push_usage(rec(1_000, 0.5));
    b.push_usage(rec(1_000 - TOLERANCE_S, 0.6));
    let ds = b.build().unwrap();
    let w = TimeRange::new(Timestamp::new(0), Timestamp::new(2_000)).unwrap();
    assert_eq!(
        monitor
            .live_view()
            .series_window(MachineId::new(0), Metric::Cpu, &w),
        ds.series_window(MachineId::new(0), Metric::Cpu, &w)
    );
}
