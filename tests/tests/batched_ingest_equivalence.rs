//! Property suite for epoch-batched ingestion: [`StreamMonitor::ingest_batch`]
//! over any partition of a delivery sequence into sealed epochs must be
//! **bit-identical** to ingesting the same records one at a time — alerts
//! (values and sequence numbers), every counter, `state_version` (the
//! version advances per *accepted record*, never per batch — batching
//! amortizes the lock, not the version), the retained windows, and the
//! WAL: a batch-logged WAL (one group write per epoch) is byte-identical to
//! a record-logged one that seals each epoch, and replaying it reproduces
//! the same state plus the sealed-epoch frontier.
//!
//! CI runs this suite at 512 cases in the deep-properties job.

use std::path::{Path, PathBuf};

use batchlens::stream::{BatchSequencer, StreamConfig, StreamMonitor};
use batchlens::trace::wal::{WalConfig, WalRecord, WalWriter};
use batchlens::trace::{
    DatasetQuery, MachineId, Metric, ServerUsageRecord, TimeDelta, TimeRange, Timestamp,
    UtilizationTriple,
};
use proptest::prelude::*;

const MACHINES: u32 = 5;
const TOLERANCE_S: i64 = 200;

/// Usage deliveries with bounded jitter (some beyond tolerance) plus the
/// epoch partition width.
fn deliveries_strategy() -> impl Strategy<Value = (Vec<ServerUsageRecord>, usize)> {
    (
        prop::collection::vec(
            (0..MACHINES, 0i64..5_000, 0.0f64..1.0, 0i64..2 * TOLERANCE_S),
            1..200,
        ),
        1usize..30,
    )
        .prop_map(|(rows, chunk)| {
            let mut deliveries: Vec<(i64, ServerUsageRecord)> = rows
                .into_iter()
                .map(|(machine, t, cpu, jitter)| {
                    let rec = ServerUsageRecord {
                        time: Timestamp::new(t),
                        machine: MachineId::new(machine),
                        util: UtilizationTriple::clamped(cpu, cpu * 0.6, cpu * 0.3),
                    };
                    (t + jitter, rec)
                })
                .collect();
            deliveries.sort_by_key(|&(arrival, rec)| (arrival, rec.machine, rec.time));
            (deliveries.into_iter().map(|(_, r)| r).collect(), chunk)
        })
}

fn cfg() -> StreamConfig {
    StreamConfig {
        horizon: TimeDelta::hours(100),
        ooo_tolerance: TimeDelta::seconds(TOLERANCE_S),
        ..Default::default()
    }
}

fn assert_equal_state(
    batched: &StreamMonitor,
    serial: &StreamMonitor,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(batched.state_version(), serial.state_version());
    prop_assert_eq!(batched.ingested(), serial.ingested());
    prop_assert_eq!(batched.stale_dropped(), serial.stale_dropped());
    prop_assert_eq!(batched.late_accepted(), serial.late_accepted());
    prop_assert_eq!(batched.tracked_machines(), serial.tracked_machines());
    prop_assert_eq!(batched.peek_alerts(), serial.peek_alerts());
    prop_assert_eq!(batched.total_alerts(), serial.total_alerts());
    prop_assert_eq!(batched.next_alert_seq(), serial.next_alert_seq());
    let w = TimeRange::new(Timestamp::new(-500), Timestamp::new(12_000)).unwrap();
    for machine in 0..MACHINES {
        let m = MachineId::new(machine);
        for metric in Metric::ALL {
            prop_assert_eq!(
                batched.live_view().series_window(m, metric, &w),
                serial.live_view().series_window(m, metric, &w),
                "series_window({}, {:?})",
                m,
                metric
            );
        }
    }
    for t in (-200..5_500).step_by(397).map(Timestamp::new) {
        prop_assert_eq!(batched.live_view().frame(t), serial.live_view().frame(t));
    }
    Ok(())
}

/// A process-unique, empty scratch directory.
fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static DIR_ID: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "batchlens-batch-equiv-{tag}-{}-{}",
        std::process::id(),
        DIR_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every segment of the log in `dir`: `(file name, bytes)`, in name order.
fn segments(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    out.sort();
    out
}

/// Logs the deliveries twice — epoch by epoch through `ingest_batch`, and
/// record by record with the epoch's `EpochSealed` marker applied after
/// each epoch — and checks that the two logs are byte-identical and replay
/// to both live monitors.
fn batch_logged_wal_matches_record_logged(
    deliveries: &[ServerUsageRecord],
    chunk: usize,
    wal_cfg: WalConfig,
) -> Result<(), TestCaseError> {
    let batched_dir = scratch_dir("batched");
    let serial_dir = scratch_dir("serial");
    let sequencer = BatchSequencer::new();
    let batched = StreamMonitor::new(cfg()).unwrap();
    batched.attach_wal(WalWriter::open(&batched_dir, wal_cfg).unwrap());
    let serial = StreamMonitor::new(cfg()).unwrap();
    serial.attach_wal(WalWriter::open(&serial_dir, wal_cfg).unwrap());
    let mut last_version = None;
    for part in deliveries.chunks(chunk) {
        let batch = sequencer.seal(
            part.last().map_or(Timestamp::new(0), |r| r.time),
            part.to_vec(),
        );
        batched.ingest_batch(&batch);
        for &rec in part {
            serial.ingest(rec);
        }
        serial.apply_replayed(WalRecord::EpochSealed(batch.version));
        last_version = Some(batch.version);
    }
    prop_assert_eq!(batched.wal_errors(), 0);
    prop_assert_eq!(serial.wal_errors(), 0);
    drop(batched.detach_wal());
    drop(serial.detach_wal());

    let logged = segments(&batched_dir);
    prop_assert!(
        logged == segments(&serial_dir),
        "group-logged and record-logged segments differ ({:?})",
        wal_cfg
    );
    if wal_cfg.segment_bytes < 256 && deliveries.len() >= 4 {
        prop_assert!(logged.len() > 1, "a tiny segment limit must rotate");
    }

    let (recovered, report) = StreamMonitor::recover(&batched_dir, cfg()).unwrap();
    prop_assert!(report.reason.is_clean(), "{:?}", report.reason);
    prop_assert_eq!(recovered.sealed_epoch(), last_version);
    prop_assert_eq!(serial.sealed_epoch(), last_version);
    assert_equal_state(&recovered, &batched)?;
    assert_equal_state(&recovered, &serial)?;
    std::fs::remove_dir_all(&batched_dir).ok();
    std::fs::remove_dir_all(&serial_dir).ok();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any partition of the delivery sequence into sealed epochs lands in
    /// the same state as record-at-a-time ingestion — and the concatenated
    /// per-epoch alert returns equal the per-record returns exactly.
    #[test]
    fn batch_partitions_equal_singles(input in deliveries_strategy()) {
        let (deliveries, chunk) = input;
        let sequencer = BatchSequencer::new();
        let batched = StreamMonitor::new(cfg()).unwrap();
        let serial = StreamMonitor::new(cfg()).unwrap();
        let mut versions = Vec::new();
        for part in deliveries.chunks(chunk) {
            let batch = sequencer.seal(
                part.last().map_or(Timestamp::new(0), |r| r.time),
                part.to_vec(),
            );
            let before = batched.state_version();
            let from_batch = batched.ingest_batch(&batch);
            // state_version delta == accepted deliveries in the epoch:
            // usage acceptances bump it once each; the seal marker does not.
            versions.push((batch.version, batched.state_version() - before));
            let mut from_singles = Vec::new();
            for &rec in part {
                from_singles.extend(serial.ingest(rec));
            }
            prop_assert_eq!(from_batch, from_singles, "per-epoch alert parity");
            prop_assert_eq!(batched.sealed_epoch(), Some(batch.version));
        }
        assert_equal_state(&batched, &serial)?;
        prop_assert_eq!(serial.sealed_epoch(), None, "singles seal nothing");
        // Documented contract: Σ per-epoch version deltas == total accepted.
        let total: u64 = versions.iter().map(|&(_, d)| d).sum();
        prop_assert_eq!(total, batched.state_version());
        // Epoch versions from one sequencer are contiguous from 1.
        for (i, &(v, _)) in versions.iter().enumerate() {
            prop_assert_eq!(v, i as u64 + 1);
        }
    }

    /// A batch-logged WAL holds exactly the bytes of a record-logged one
    /// that seals each epoch, with one segment or with groups crossing
    /// rotations, and its replay is bit-identical to the pre-crash monitor
    /// *and* to the record-at-a-time monitor — `EpochSealed` markers replay
    /// as state no-ops, restoring only the sealed-epoch frontier.
    #[test]
    fn batch_logged_wal_replays_bit_identically(input in deliveries_strategy()) {
        let (deliveries, chunk) = input;
        let tiny = WalConfig {
            segment_bytes: 200,
            sync_each_append: false,
        };
        for wal_cfg in [WalConfig::default(), tiny] {
            batch_logged_wal_matches_record_logged(&deliveries, chunk, wal_cfg)?;
        }
    }
}
