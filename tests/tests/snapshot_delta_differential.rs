//! Differential proptests for the delta snapshot engine: a
//! [`SnapshotScrubber`] walked across **random timestamp walks** — forward,
//! backward, repeats, far jumps — must produce hierarchy snapshots and
//! co-allocation indexes **bit-identical** to the from-scratch
//! `HierarchySnapshot::at` / `CoallocationIndex::at` builders at every
//! step, on both query sources:
//!
//! * a batch `TraceDataset` (immutable: one rebase, then pure deltas), and
//! * a `StreamMonitor`'s `LiveWindowView` with straggler / out-of-order
//!   ingest interleaved between scrub steps (every ingest bumps the
//!   monitor's state version, forcing the scrubber through its single-lock
//!   frame rebase; idle stretches advance by pure delta).
//!
//! The suite also pins the frame consistency guarantee: products derived
//! from one `QueryFrame` equal the individually-queried ones whenever the
//! source holds still.

use batchlens::analytics::coalloc::CoallocationIndex;
use batchlens::analytics::hierarchy::HierarchySnapshot;
use batchlens::analytics::scrub::SnapshotScrubber;
use batchlens::stream::{StreamConfig, StreamMonitor};
use batchlens::trace::{
    BatchInstanceRecord, BatchTaskRecord, DatasetQuery, JobId, MachineEvent, MachineEventRecord,
    MachineId, ServerUsageRecord, TaskId, TaskStatus, TimeDelta, Timestamp, TraceDataset,
    TraceDatasetBuilder, UtilizationTriple,
};
use proptest::prelude::*;

const MACHINES: u32 = 6;

/// A random record soup: instance windows (with empties and stragglers),
/// usage rows and lifecycle events, plus a random scrub walk.
#[derive(Debug, Clone)]
struct Soup {
    tasks: Vec<BatchTaskRecord>,
    instances: Vec<BatchInstanceRecord>,
    usage: Vec<ServerUsageRecord>,
    events: Vec<MachineEventRecord>,
}

fn soup_strategy() -> impl Strategy<Value = Soup> {
    (
        prop::collection::vec(
            // (job, task, machine, start, duration)
            (0u32..5, 1u32..4, 0..MACHINES, 0i64..4_000, 0i64..2_500),
            1..40,
        ),
        prop::collection::vec(
            // (machine, time, cpu) — in-order per machine after sorting.
            (0..MACHINES, 0i64..6_000, 0.0f64..1.0),
            0..120,
        ),
        prop::collection::vec((0..MACHINES, 0i64..6_000, 0u8..4), 0..10),
    )
        .prop_map(|(inst_rows, usage_samples, event_rows)| {
            let mut tasks = Vec::new();
            let mut instances = Vec::new();
            let mut seen_task = std::collections::BTreeSet::new();
            let mut seq_of = std::collections::BTreeMap::new();
            for (job, task, machine, start, dur) in inst_rows {
                if seen_task.insert((job, task)) {
                    tasks.push(BatchTaskRecord {
                        create_time: Timestamp::new(0),
                        modify_time: Timestamp::new(60_000),
                        job: JobId::new(job),
                        task: TaskId::new(task),
                        instance_count: 1,
                        status: TaskStatus::Terminated,
                        plan_cpu: 1.0,
                        plan_mem: 0.5,
                    });
                }
                let seq = seq_of.entry((job, task)).or_insert(0u32);
                let dur = if dur % 10 == 9 { 50_000 } else { dur }; // straggler
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
            // Deduplicate usage (machine, time) and order per machine so the
            // batch builder accepts the rows; live delivery re-orders below.
            let mut seen_usage = std::collections::BTreeSet::new();
            let mut usage = Vec::new();
            for (machine, t, cpu) in usage_samples {
                if seen_usage.insert((machine, t)) {
                    usage.push(ServerUsageRecord {
                        time: Timestamp::new(t),
                        machine: MachineId::new(machine),
                        util: UtilizationTriple::clamped(cpu, cpu * 0.7, cpu * 0.4),
                    });
                }
            }
            usage.sort_by_key(|r| (r.machine, r.time));
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
                usage,
                events,
            }
        })
}

/// A scrub walk: arbitrary hops across (and past) the soup's span, with
/// explicit repeats so the same-instant shortcut is exercised.
fn walk_strategy() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec((-500i64..7_000, 0u8..2), 1..30).prop_map(|steps| {
        let mut walk = Vec::new();
        for (t, repeat) in steps {
            walk.push(t);
            if repeat == 1 {
                walk.push(t); // revisit the exact instant
            }
        }
        walk
    })
}

fn build_dataset(soup: &Soup) -> TraceDataset {
    let mut b = TraceDatasetBuilder::new();
    b.extend_tables(
        soup.tasks.iter().copied(),
        soup.instances.iter().copied(),
        soup.usage.iter().cloned(),
        soup.events.iter().copied(),
    );
    b.build().expect("soup is valid")
}

/// Asserts the scrubber's products at its cursor equal the from-scratch
/// builders on `src`.
fn assert_scrub_matches<Q: DatasetQuery + ?Sized>(
    scrub: &mut SnapshotScrubber,
    src: &Q,
    t: Timestamp,
) -> Result<(), TestCaseError> {
    scrub.seek(src, t);
    prop_assert_eq!(
        scrub.snapshot(src),
        &HierarchySnapshot::at(src, t),
        "hierarchy snapshot at {}",
        t
    );
    prop_assert_eq!(
        scrub.coalloc(),
        &CoallocationIndex::at(src, t),
        "coallocation at {}",
        t
    );
    prop_assert_eq!(
        scrub.running_instance_count(),
        src.running_instance_count_at(t),
        "running multiset cardinality at {}",
        t
    );
    prop_assert_eq!(
        scrub.machines_active(),
        &src.machines_active_at(t)[..],
        "delta-maintained active machine set at {}",
        t
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batch source: one rebase on the first seek, then pure deltas (and
    /// the periodic policy) across the whole walk — bit-identical at every
    /// step, at several rebase periods including "never".
    #[test]
    fn scrubbed_equals_from_scratch_on_batch(
        soup in soup_strategy(),
        walk in walk_strategy(),
        rebase_choice in 0usize..3,
    ) {
        let rebase_every = [0u32, 3, 1024][rebase_choice];
        let ds = build_dataset(&soup);
        let mut scrub = SnapshotScrubber::with_rebase_every(rebase_every);
        for &t in &walk {
            assert_scrub_matches(&mut scrub, &ds, Timestamp::new(t))?;
        }
        let stats = scrub.stats();
        prop_assert!(stats.rebases >= 1);
        if rebase_every == 0 {
            prop_assert_eq!(
                stats.rebases, 1,
                "immutable source + disabled policy: only the first seek rebases"
            );
        }
    }

    /// Live source: the same walk with straggler/out-of-order ingest
    /// interleaved between scrub steps. Every ingest bumps the monitor's
    /// version (forcing a single-lock frame rebase); idle stretches advance
    /// by delta. Scrubbed == from-scratch at every step regardless.
    #[test]
    fn scrubbed_equals_from_scratch_on_live(
        soup in soup_strategy(),
        walk in walk_strategy(),
        chunk in 1usize..6,
    ) {
        let monitor = StreamMonitor::new(StreamConfig {
            horizon: TimeDelta::hours(100),
            ooo_tolerance: TimeDelta::seconds(600),
            ..Default::default()
        }).unwrap();
        let view = monitor.live_view();
        let mut scrub = SnapshotScrubber::new();
        let mut walk_iter = walk.iter().cycle();
        let mut steps_taken = 0usize;
        // Interleave: `chunk` structural/usage ingests, then one scrub
        // step, until the soup is drained. Delivery is deliberately
        // shuffled: instances round-robin between the completed-record path
        // and the open/close path, events arrive reversed (out of order),
        // usage arrives with a bounded backward jitter (late within
        // tolerance).
        let mut feed: Vec<Feed> = Vec::new();
        for (i, rec) in soup.instances.iter().enumerate() {
            feed.push(Feed::Instance(i, *rec));
        }
        for ev in soup.events.iter().rev() {
            feed.push(Feed::Event(*ev));
        }
        let mut usage = soup.usage.clone();
        usage.sort_by_key(|r| (r.time, r.machine));
        feed.extend(usage.into_iter().map(Feed::Usage));
        for (i, item) in feed.iter().enumerate() {
            match item {
                Feed::Instance(i, rec) => {
                    if i % 2 == 0 {
                        monitor.ingest_instance(*rec);
                    } else {
                        monitor.instance_started(
                            rec.job, rec.task, rec.seq, rec.machine, rec.start_time,
                        );
                        monitor.instance_finished(rec.job, rec.task, rec.seq, rec.end_time);
                    }
                }
                Feed::Event(ev) => monitor.ingest_machine_event(*ev),
                Feed::Usage(rec) => {
                    monitor.ingest(*rec);
                }
            }
            if i % chunk == chunk - 1 {
                let &t = walk_iter.next().expect("cycle never ends");
                assert_scrub_matches(&mut scrub, &view, Timestamp::new(t))?;
                steps_taken += 1;
            }
        }
        let _ = steps_taken;
        // Replay the whole walk against the now-idle monitor: one rebase to
        // catch up with the final version, pure delta steps from there.
        let rebases_when_idle_starts = scrub.stats().rebases;
        for &t in &walk {
            assert_scrub_matches(&mut scrub, &view, Timestamp::new(t))?;
        }
        let stats = scrub.stats();
        prop_assert!(
            stats.rebases <= rebases_when_idle_starts + 1,
            "an idle monitor must not force rebases (allowing one for the \
             first post-ingest version catch-up): {:?}",
            stats
        );
    }

    /// Frame consistency: every product derived from one captured
    /// `QueryFrame` equals its individually-queried counterpart while the
    /// source holds still — on both sources.
    #[test]
    fn frame_products_equal_individual_queries(soup in soup_strategy()) {
        let ds = build_dataset(&soup);
        let monitor = StreamMonitor::new(StreamConfig {
            horizon: TimeDelta::hours(100),
            ..Default::default()
        }).unwrap();
        monitor.ingest_instances(soup.instances.iter().copied());
        for ev in &soup.events {
            monitor.ingest_machine_event(*ev);
        }
        for rec in &soup.usage {
            monitor.ingest(*rec);
        }
        let view = monitor.live_view();
        for t in (-300i64..6_500).step_by(911) {
            let t = Timestamp::new(t);
            for frame in [ds.frame(t), view.frame(t)] {
                let (snap, coalloc) = (
                    HierarchySnapshot::from_frame(&frame),
                    CoallocationIndex::from_frame(&frame),
                );
                if frame.version() == 0 {
                    prop_assert_eq!(&snap, &HierarchySnapshot::at(&ds, t));
                    prop_assert_eq!(&coalloc, &CoallocationIndex::at(&ds, t));
                } else {
                    prop_assert_eq!(&snap, &HierarchySnapshot::at(&view, t));
                    prop_assert_eq!(&coalloc, &CoallocationIndex::at(&view, t));
                    prop_assert_eq!(frame.machines_active(), view.machines_active_at(t));
                }
            }
        }
    }
}

/// One delivery of the interleaved live feed.
#[derive(Debug, Clone)]
enum Feed {
    Instance(usize, BatchInstanceRecord),
    Event(MachineEventRecord),
    Usage(ServerUsageRecord),
}

/// Hand-pinned regression: a backward-in-time scrub right after eviction
/// reshaped the window must still match from-scratch (the delta engine may
/// only ever be compared against the live state it versioned, not the
/// pre-eviction past).
#[test]
fn backward_scrub_after_eviction_matches_from_scratch() {
    let monitor = StreamMonitor::new(StreamConfig {
        horizon: TimeDelta::seconds(600),
        ..Default::default()
    })
    .unwrap();
    let view = monitor.live_view();
    let inst = |job: u32, seq: u32, s: i64, e: i64| BatchInstanceRecord {
        start_time: Timestamp::new(s),
        end_time: Timestamp::new(e),
        job: JobId::new(job),
        task: TaskId::new(1),
        seq,
        total: 1,
        machine: MachineId::new(1),
        status: TaskStatus::Terminated,
        cpu_avg: 0.1,
        cpu_max: 0.2,
        mem_avg: 0.1,
        mem_max: 0.2,
    };
    let mut scrub = SnapshotScrubber::new();
    monitor.ingest_instance(inst(1, 0, 0, 100));
    monitor.ingest_instance(inst(2, 0, 0, 650));
    scrub.seek(&view, Timestamp::new(50));
    assert_eq!(
        *scrub.snapshot(&view),
        HierarchySnapshot::at(&view, Timestamp::new(50))
    );
    // Frontier jumps to 1200: job 1's interval is evicted. The version bump
    // forces a rebase, so the backward hop sees the post-eviction state.
    monitor.ingest_instance(inst(3, 0, 1100, 1200));
    for t in [1150i64, 50, 500, 1199] {
        let t = Timestamp::new(t);
        scrub.seek(&view, t);
        assert_eq!(
            *scrub.snapshot(&view),
            HierarchySnapshot::at(&view, t),
            "{t}"
        );
        assert_eq!(*scrub.coalloc(), CoallocationIndex::at(&view, t), "{t}");
    }
}
