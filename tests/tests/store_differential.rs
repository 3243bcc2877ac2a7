//! Columnar-store differential proptests: a [`TraceDataset`] reopened from
//! its on-disk segment dump must be **bit-identical** to the in-RAM build —
//! on the dataset itself (`PartialEq` covers every table, series and
//! index), on the full [`DatasetQuery`] surface including `frame()`, and
//! on the hierarchy snapshots and co-allocation indexes built from it —
//! across random record soups and segment sizes small enough to split
//! every family across many segments.
//!
//! A second suite reuses the PR 6 corruption-at-every-offset pattern at the
//! segment layer: flipping a single bit anywhere in any segment file makes
//! `TraceDataset::open` return a typed [`TraceError::CorruptSegment`] whose
//! reported `[offset, offset+len)` region *contains* the flipped byte —
//! never a panic, never a silently different dataset. A third covers the
//! durability integration: `dump`/`restore` of a lens goes through the
//! segment store, which is the dump's only copy of the tables. The dump
//! also holds a WAL-logged monitor: `restore`, which rebuilds the lens and
//! the monitor concurrently, must return exactly what a direct
//! `StreamMonitor::recover` of the dumped WAL and a direct store open plus
//! `BatchLens::with_session` return.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use batchlens::analytics::coalloc::CoallocationIndex;
use batchlens::analytics::hierarchy::HierarchySnapshot;
use batchlens::durability;
use batchlens::stream::{StreamConfig, StreamMonitor};
use batchlens::trace::store::{self, StoreConfig};
use batchlens::trace::wal::{WalConfig, WalWriter};
use batchlens::trace::{
    BatchInstanceRecord, BatchTaskRecord, DatasetQuery, JobId, MachineEvent, MachineEventRecord,
    MachineId, ServerUsageRecord, TaskId, TaskStatus, Timestamp, TraceDataset, TraceDatasetBuilder,
    TraceError, UtilizationTriple,
};
use batchlens::{BatchLens, Event};
use proptest::prelude::*;

const MACHINES: u32 = 6;

/// One random batch instance; `seq` is assigned from the soup index so
/// every `(job, task, seq)` stays unique.
#[derive(Debug, Clone)]
struct InstanceSpec {
    job: u32,
    task: u32,
    machine: u32,
    start: i64,
    dur: i64,
    cpu: f64,
}

fn instance_strategy() -> impl Strategy<Value = InstanceSpec> {
    (
        1u32..5,
        1u32..3,
        0u32..MACHINES,
        0i64..3_000,
        0i64..2_000,
        0.0f64..1.0,
    )
        .prop_map(|(job, task, machine, start, dur, cpu)| InstanceSpec {
            job,
            task,
            machine,
            start,
            dur,
            cpu,
        })
}

fn usage_strategy() -> impl Strategy<Value = ServerUsageRecord> {
    (0i64..4_000, 0u32..MACHINES, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(t, m, a, b)| {
        ServerUsageRecord {
            time: Timestamp::new(t),
            machine: MachineId::new(m),
            util: UtilizationTriple::clamped(a, b, (a + b) / 2.0),
        }
    })
}

fn event_strategy() -> impl Strategy<Value = MachineEventRecord> {
    (0i64..4_000, 0u32..MACHINES, 0u8..4, 0.5f64..1.0).prop_map(|(t, m, e, cap)| {
        MachineEventRecord {
            time: Timestamp::new(t),
            machine: MachineId::new(m),
            event: match e {
                0 => MachineEvent::Add,
                1 => MachineEvent::SoftError,
                2 => MachineEvent::HardError,
                _ => MachineEvent::Remove,
            },
            capacity_cpu: cap,
            capacity_mem: cap,
            capacity_disk: cap,
        }
    })
}

/// Builds the in-RAM reference dataset from a soup: one task row per
/// `(job, task)` pair in use, the instances, and the usage/event streams.
fn build_dataset(
    instances: &[InstanceSpec],
    usage: &[ServerUsageRecord],
    events: &[MachineEventRecord],
) -> TraceDataset {
    let mut b = TraceDatasetBuilder::new();
    let mut pairs: Vec<(u32, u32)> = instances.iter().map(|i| (i.job, i.task)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    for &(job, task) in &pairs {
        b.push_task(BatchTaskRecord {
            create_time: Timestamp::new(0),
            modify_time: Timestamp::new(6_000),
            job: JobId::new(job),
            task: TaskId::new(task),
            instance_count: instances.len() as u32,
            status: TaskStatus::Terminated,
            plan_cpu: 0.5 + f64::from(job) / 8.0,
            plan_mem: 0.25,
        });
    }
    for (seq, spec) in instances.iter().enumerate() {
        b.push_instance(BatchInstanceRecord {
            start_time: Timestamp::new(spec.start),
            end_time: Timestamp::new(spec.start + spec.dur),
            job: JobId::new(spec.job),
            task: TaskId::new(spec.task),
            seq: seq as u32,
            total: instances.len() as u32,
            machine: MachineId::new(spec.machine),
            status: TaskStatus::Terminated,
            cpu_avg: spec.cpu * 0.8,
            cpu_max: spec.cpu,
            mem_avg: spec.cpu * 0.5,
            mem_max: spec.cpu * 0.6,
        });
    }
    for r in fed_usage_rows(usage) {
        b.push_usage(r);
    }
    for r in events {
        b.push_machine_event(*r);
    }
    b.build().expect("soup datasets are valid by construction")
}

/// The usage rows [`build_dataset`] feeds the builder, which wants
/// per-machine strictly ascending sample times: the soup sorted by
/// `(machine, time)`, duplicate cells dropped.
fn fed_usage_rows(usage: &[ServerUsageRecord]) -> Vec<ServerUsageRecord> {
    let mut usage = usage.to_vec();
    usage.sort_by_key(|r| (r.machine, r.time));
    usage.dedup_by_key(|r| (r.machine, r.time));
    usage
}

/// Asserts that a dataset's derived tables equal a scan of its flat ones:
/// every task's instances are the `(job, task)` filter of the instance
/// table in `seq` order, and the flattened usage rows are the rows fed.
fn assert_tables_match_scans(
    ds: &TraceDataset,
    fed_usage: &[ServerUsageRecord],
) -> Result<(), TestCaseError> {
    for job in ds.jobs() {
        for task in job.tasks() {
            let mut scanned: Vec<&BatchInstanceRecord> = ds
                .instance_records()
                .iter()
                .filter(|r| (r.job, r.task) == (task.job(), task.id()))
                .collect();
            scanned.sort_by_key(|r| r.seq);
            let listed: Vec<&BatchInstanceRecord> = task.instances().map(|i| i.record).collect();
            prop_assert_eq!(
                &listed,
                &scanned,
                "instances of {:?}",
                (task.job(), task.id())
            );
            prop_assert_eq!(task.instance_count(), scanned.len());
        }
    }
    prop_assert_eq!(ds.usage_records(), fed_usage, "usage_records");
    Ok(())
}

/// A process-unique scratch directory (no tempfile dependency).
fn scratch_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "batchlens-storediff-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The sampled query instants every surface comparison sweeps — before,
/// inside and after every generated interval.
fn sample_times() -> impl Iterator<Item = Timestamp> {
    (-200i64..6_000).step_by(431).map(Timestamp::new)
}

/// Asserts the full [`DatasetQuery`] surface of two datasets agrees with
/// exact (bit-level for `f64`) equality, including transactional frames.
fn assert_query_surface_identical(
    reopened: &TraceDataset,
    reference: &TraceDataset,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(reopened.machine_count(), reference.machine_count());
    prop_assert_eq!(reopened.span(), reference.span());
    for t in sample_times() {
        prop_assert_eq!(reopened.frame(t), reference.frame(t), "frame({})", t);
        prop_assert_eq!(
            reopened.running_triples_at(t),
            reference.running_triples_at(t),
            "running_triples_at({})",
            t
        );
        prop_assert_eq!(
            DatasetQuery::jobs_running_at(reopened, t),
            DatasetQuery::jobs_running_at(reference, t),
            "jobs_running_at({})",
            t
        );
        prop_assert_eq!(
            reopened.machines_active_at(t),
            reference.machines_active_at(t),
            "machines_active_at({})",
            t
        );
        for m in (0..MACHINES).map(MachineId::new) {
            prop_assert_eq!(
                reopened.alive_at(m, t),
                reference.alive_at(m, t),
                "alive_at({}, {})",
                m,
                t
            );
            prop_assert_eq!(
                reopened.util_at(m, t),
                reference.util_at(m, t),
                "util_at({}, {})",
                m,
                t
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole property: dump → reopen is the identity, down to the
    /// bit, at segment sizes from "everything splits" to "one segment per
    /// family", at every construction concurrency, mapped and buffered
    /// alike — and the reopened dataset builds the same hierarchy snapshots
    /// and co-allocation indexes as the original. On both datasets every
    /// task's instances equal a scan of the instance table, and the
    /// flattened usage rows equal the rows fed to the builder.
    #[test]
    fn segment_roundtrip_is_bit_identical(
        instances in prop::collection::vec(instance_strategy(), 1..48),
        usage in prop::collection::vec(usage_strategy(), 0..64),
        events in prop::collection::vec(event_strategy(), 0..12),
        segment_rows in 1usize..96,
        threads in 1usize..5,
    ) {
        let ds = build_dataset(&instances, &usage, &events);
        let dir = scratch_dir("roundtrip");
        let report = store::dump_dataset_with(&dir, &ds, StoreConfig { segment_rows })
            .expect("dump");
        prop_assert!(report.segments > 0);

        // Identity on the whole dataset (PartialEq covers every table,
        // every series sample, every index) — then the query surface on
        // top, which is what downstream consumers actually read.
        let reopened = TraceDataset::open_with_threads(&dir, threads).expect("open");
        prop_assert_eq!(&reopened, &ds, "reopened dataset diverged");
        assert_query_surface_identical(&reopened, &ds)?;

        // Task lists and flattened usage rows against scans, on both.
        let fed_usage = fed_usage_rows(&usage);
        assert_tables_match_scans(&ds, &fed_usage)?;
        assert_tables_match_scans(&reopened, &fed_usage)?;

        // Buffered (pread-fallback) backend: same bytes, same dataset.
        let buffered = TraceDataset::open_buffered(&dir).expect("open buffered");
        prop_assert_eq!(&buffered, &ds, "buffered open diverged");

        // The bubble chart's products: identical snapshots and
        // co-allocation indexes on both datasets at every sampled instant.
        for t in sample_times() {
            prop_assert_eq!(
                HierarchySnapshot::at(&reopened, t),
                HierarchySnapshot::at(&ds, t),
                "snapshot diverged at {}",
                t
            );
            prop_assert_eq!(
                CoallocationIndex::at(&reopened, t),
                CoallocationIndex::at(&ds, t),
                "coalloc diverged at {}",
                t
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Single-bit corruption anywhere in any segment file is detected as a
    /// typed [`TraceError::CorruptSegment`] naming the right segment and a
    /// byte region containing the flip — never a panic, never a dataset.
    #[test]
    fn single_bit_corruption_is_detected_with_its_region(
        instances in prop::collection::vec(instance_strategy(), 1..24),
        usage in prop::collection::vec(usage_strategy(), 1..32),
        events in prop::collection::vec(event_strategy(), 0..8),
        segment_rows in 1usize..32,
        pick_file in 0.0f64..1.0,
        pick_byte in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let ds = build_dataset(&instances, &usage, &events);
        let dir = scratch_dir("flip");
        store::dump_dataset_with(&dir, &ds, StoreConfig { segment_rows }).expect("dump");

        let files = store::list_store_segments(&dir).expect("list segments");
        prop_assert!(!files.is_empty());
        let victim = &files[((pick_file * files.len() as f64) as usize).min(files.len() - 1)];
        let mut bytes = fs::read(victim).expect("read segment");
        let offset = ((pick_byte * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[offset] ^= 1 << bit;
        fs::write(victim, &bytes).expect("write corrupted segment");

        let victim_name = victim
            .file_name()
            .expect("segment file name")
            .to_string_lossy()
            .into_owned();
        match TraceDataset::open(&dir) {
            Err(TraceError::CorruptSegment { segment, offset: off, len, .. }) => {
                prop_assert_eq!(&segment, &victim_name, "wrong segment blamed");
                let end = off + len.max(1);
                prop_assert!(
                    (off..end).contains(&(offset as u64)),
                    "flip at byte {} of {} reported outside [{}, {})",
                    offset,
                    victim_name,
                    off,
                    end
                );
            }
            Err(other) => prop_assert!(false, "expected CorruptSegment, got {other:?}"),
            Ok(_) => prop_assert!(false, "corruption at byte {offset} went undetected"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Durability integration: a dumped lens restores from its segment
    /// store bit-identically, and a dump whose store is gone is a typed
    /// error, not a panic. The dump also holds a WAL-logged monitor fed the
    /// case's usage, instance starts and finishes, and machine events.
    /// `restore` runs its lens and monitor halves concurrently; it must
    /// return the monitor a direct recovery of the dumped WAL returns, and
    /// the lens a direct store open plus session replay returns.
    #[test]
    fn lens_dump_restore_rides_the_segment_payload(
        instances in prop::collection::vec(instance_strategy(), 1..24),
        usage in prop::collection::vec(usage_strategy(), 1..32),
        events in prop::collection::vec(event_strategy(), 0..8),
        alert_capacity in 1usize..8,
        selected in 0i64..4_000,
    ) {
        let mut lens = BatchLens::new(build_dataset(&instances, &usage, &events));
        lens.apply(Event::SelectTimestamp(Timestamp::new(selected)));
        lens.apply(Event::SelectJob(JobId::new(instances[0].job)));
        let cfg = StreamConfig {
            alert_capacity,
            ..StreamConfig::default()
        };
        let wal_dir = scratch_dir("lens-wal");
        let monitor = StreamMonitor::new(cfg).expect("valid config");
        monitor.attach_wal(WalWriter::open(&wal_dir, WalConfig::default()).expect("open wal"));
        let key = |seq: usize, spec: &InstanceSpec| {
            (JobId::new(spec.job), TaskId::new(spec.task), seq as u32)
        };
        for (seq, spec) in instances.iter().enumerate() {
            let (job, task, seq) = key(seq, spec);
            let machine = MachineId::new(spec.machine);
            monitor.instance_started(job, task, seq, machine, Timestamp::new(spec.start));
        }
        for r in &usage {
            monitor.ingest(*r);
        }
        for (seq, spec) in instances.iter().enumerate() {
            let (job, task, seq) = key(seq, spec);
            monitor.instance_finished(job, task, seq, Timestamp::new(spec.start + spec.dur));
        }
        for ev in &events {
            monitor.ingest_machine_event(*ev);
        }
        let dir = scratch_dir("lens");
        let report = durability::dump(&dir, &lens, Some(&monitor)).expect("dump");
        prop_assert!(report.dataset.segments > 0, "the dump writes a segment payload");
        let restored = durability::restore(&dir).expect("segment-backed restore");
        prop_assert_eq!(restored.lens.dataset(), lens.dataset());
        assert_query_surface_identical(restored.lens.dataset(), lens.dataset())?;

        let dataset = TraceDataset::open(&dir.join("dataset")).expect("open dumped store");
        let direct_lens = BatchLens::with_session(dataset, lens.log().clone());
        prop_assert_eq!(restored.lens.dataset(), direct_lens.dataset());
        prop_assert_eq!(restored.lens.view(), direct_lens.view());

        let (direct, report) =
            StreamMonitor::recover(&dir.join("monitor").join("wal"), cfg).expect("recover");
        prop_assert_eq!(restored.monitor_report, Some(report));
        let rm = restored.monitor.expect("the dump holds a monitor");
        prop_assert_eq!(rm.state_version(), monitor.state_version());
        prop_assert_eq!(rm.state_version(), direct.state_version());
        prop_assert_eq!(rm.ingested(), direct.ingested());
        prop_assert_eq!(rm.stale_dropped(), direct.stale_dropped());
        prop_assert_eq!(rm.total_alerts(), direct.total_alerts());
        prop_assert_eq!(rm.next_alert_seq(), direct.next_alert_seq());
        prop_assert_eq!(rm.alerts_since(0), direct.alerts_since(0));
        for t in sample_times() {
            prop_assert_eq!(
                rm.live_view().frame(t),
                direct.live_view().frame(t),
                "monitor frame({})",
                t
            );
        }

        fs::remove_dir_all(dir.join("dataset")).expect("drop segment payload");
        prop_assert!(matches!(
            durability::restore(&dir),
            Err(durability::RestoreError::Trace(TraceError::Io { .. }))
        ));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&wal_dir);
    }
}

/// A hand-built witness for multi-segment families: tiny segments force
/// every family to split, and the reopened dataset still equals the
/// original exactly.
#[test]
fn tiny_segments_round_trip() {
    let instances: Vec<InstanceSpec> = (0..12u32)
        .map(|i| InstanceSpec {
            job: 1 + i % 3,
            task: 1 + i % 2,
            machine: i % MACHINES,
            start: i64::from(i) * 100,
            dur: 500,
            cpu: 0.5,
        })
        .collect();
    let usage: Vec<ServerUsageRecord> = (0..20i64)
        .map(|i| ServerUsageRecord {
            time: Timestamp::new(i * 150),
            machine: MachineId::new((i as u32) % MACHINES),
            util: UtilizationTriple::clamped(0.3, 0.4, 0.2),
        })
        .collect();
    let ds = build_dataset(&instances, &usage, &[]);
    let dir = scratch_dir("tiny");
    let report = store::dump_dataset_with(&dir, &ds, StoreConfig { segment_rows: 2 })
        .expect("dump with 2-row segments");
    assert!(
        report.segments >= 10,
        "tiny segments must split every family"
    );
    assert_eq!(TraceDataset::open(&dir).expect("open"), ds);
    let _ = fs::remove_dir_all(&dir);
}
