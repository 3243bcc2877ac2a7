//! Columnar-store differential proptests: a [`TraceDataset`] reopened from
//! its on-disk segment dump must be **bit-identical** to the in-RAM build —
//! on the dataset itself (`PartialEq` covers every table, series and
//! index), on the full [`DatasetQuery`] surface including `frame()`, and
//! under delta-scrubber walks — across random record soups and segment
//! sizes small enough to split every family across many segments.
//!
//! A second suite reuses the PR 6 corruption-at-every-offset pattern at the
//! segment layer: flipping a single bit anywhere in any segment file makes
//! `TraceDataset::open` return a typed [`TraceError::CorruptSegment`] whose
//! reported `[offset, offset+len)` region *contains* the flipped byte —
//! never a panic, never a silently different dataset. A third covers the
//! durability integration: `dump`/`restore` of a lens goes through the
//! segment store, which is the dump's only copy of the tables.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use batchlens::analytics::coalloc::CoallocationIndex;
use batchlens::analytics::hierarchy::HierarchySnapshot;
use batchlens::analytics::scrub::SnapshotScrubber;
use batchlens::durability;
use batchlens::trace::store::{self, StoreConfig};
use batchlens::trace::{
    BatchInstanceRecord, BatchTaskRecord, DatasetQuery, JobId, MachineEvent, MachineEventRecord,
    MachineId, ServerUsageRecord, TaskId, TaskStatus, Timestamp, TraceDataset, TraceDatasetBuilder,
    TraceError, UtilizationTriple,
};
use batchlens::BatchLens;
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
    // The builder wants per-machine strictly ascending sample times: sort
    // the soup and drop duplicate (machine, time) cells.
    let mut usage = usage.to_vec();
    usage.sort_by_key(|r| (r.machine, r.time));
    usage.dedup_by_key(|r| (r.machine, r.time));
    for r in &usage {
        b.push_usage(*r);
    }
    for r in events {
        b.push_machine_event(*r);
    }
    b.build().expect("soup datasets are valid by construction")
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
            prop_assert_eq!(
                reopened.util_hold(m, t),
                reference.util_hold(m, t),
                "util_hold({}, {})",
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
    /// alike — and the reopened dataset walks the delta scrubber exactly
    /// like the original.
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

        // Buffered (pread-fallback) backend: same bytes, same dataset.
        let buffered = TraceDataset::open_buffered(&dir).expect("open buffered");
        prop_assert_eq!(&buffered, &ds, "buffered open diverged");

        // Scrubber walk: the delta engine sees identical snapshots and
        // co-allocation indexes on both datasets at every hop.
        let mut scrub_new = SnapshotScrubber::new();
        let mut scrub_ref = SnapshotScrubber::new();
        for t in sample_times() {
            scrub_new.seek(&reopened, t);
            scrub_ref.seek(&ds, t);
            prop_assert_eq!(
                scrub_new.snapshot(&reopened),
                scrub_ref.snapshot(&ds),
                "scrubbed snapshot diverged at {}",
                t
            );
            prop_assert_eq!(scrub_new.coalloc(), scrub_ref.coalloc(), "coalloc at {}", t);
            prop_assert_eq!(
                scrub_new.snapshot(&reopened),
                &HierarchySnapshot::at(&ds, t),
                "scrubbed vs from-scratch at {}",
                t
            );
            prop_assert_eq!(
                scrub_new.coalloc(),
                &CoallocationIndex::at(&ds, t),
                "coalloc vs from-scratch at {}",
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
    /// error, not a panic.
    #[test]
    fn lens_dump_restore_rides_the_segment_payload(
        instances in prop::collection::vec(instance_strategy(), 1..24),
        usage in prop::collection::vec(usage_strategy(), 1..32),
        events in prop::collection::vec(event_strategy(), 0..8),
    ) {
        let ds = build_dataset(&instances, &usage, &events);
        let lens = BatchLens::new(ds);
        let dir = scratch_dir("lens");
        let report = durability::dump(&dir, &lens, None).expect("dump");
        prop_assert!(report.dataset.segments > 0, "the dump writes a segment payload");
        let restored = durability::restore(&dir).expect("segment-backed restore");
        prop_assert_eq!(restored.lens.dataset(), lens.dataset());
        assert_query_surface_identical(restored.lens.dataset(), lens.dataset())?;

        fs::remove_dir_all(dir.join("dataset")).expect("drop segment payload");
        prop_assert!(matches!(
            durability::restore(&dir),
            Err(durability::RestoreError::Trace(TraceError::Io { .. }))
        ));
        let _ = fs::remove_dir_all(&dir);
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
