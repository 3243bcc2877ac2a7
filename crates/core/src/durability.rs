//! Whole-lens dump and restore: dataset, session log, and live-monitor
//! state persisted to one directory, so a long-running monitor's
//! write-ahead log can be **compacted into a snapshot plus tail**.
//!
//! A dump directory holds each table once:
//!
//! * `session.json` — the recorded interaction log,
//! * `dataset/` — the trace tables and machine capacities as columnar
//!   [`batchlens_trace::store`] segments (sorted, checksummed,
//!   memory-mappable); [`restore`] reopens them through the lazy
//!   [`TraceDataset::open`],
//! * `monitor/config.json` + `monitor/wal/` — the live monitor's
//!   configuration and its WAL, compacted to a single sealed segment with
//!   sequence numbers preserved (present only when a monitor was dumped).
//!
//! CSV stays the trace import/export format ([`batchlens_trace::csv`]);
//! a dump does not write it.
//!
//! The compacted monitor WAL is the **snapshot** half of a
//! snapshot-plus-tail scheme: [`restore`] replays it through
//! [`StreamMonitor::recover`], and any records the live log accepted
//! *after* the dump (sequence numbers past the dump's last) are the tail —
//! feed them to [`StreamMonitor::apply_replayed`] to catch up. Both halves
//! round-trip **bit-identically**: the WAL codec and the segment store
//! keep every f64 as raw bits.
//!
//! [`restore`] reads the lens's files (`session.json`, `dataset/`) and the
//! monitor's (`monitor/`) independently, so it rebuilds the two
//! **concurrently**: a restart waits for the slower of the WAL replay and
//! the lens build, not for their sum. When both fail, the lens half's
//! error wins.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use batchlens_trace::wal::{self, RecoveryReport, WalError};
use batchlens_trace::{store, TraceDataset, TraceError};

use crate::app::BatchLens;
use crate::session::SessionLog;
use crate::stream::{RecoverError, StreamConfig, StreamMonitor};

/// Why a [`dump`] failed.
#[derive(Debug)]
pub enum DumpError {
    /// A file could not be written.
    Io {
        /// The operation that failed.
        op: &'static str,
        /// The path it failed on.
        path: PathBuf,
        /// The OS error.
        source: io::Error,
    },
    /// The session log or monitor config failed to serialize.
    Serialize(serde_json::Error),
    /// The monitor's WAL could not be compacted.
    Wal(WalError),
    /// The columnar segment payload could not be written.
    Store(TraceError),
    /// The monitor to dump has no WAL attached: its state can only be
    /// persisted by replaying its log, so an unlogged monitor cannot be
    /// dumped.
    MonitorHasNoWal,
}

impl std::fmt::Display for DumpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DumpError::Io { op, path, source } => {
                write!(f, "dump: {op} {} failed: {source}", path.display())
            }
            DumpError::Serialize(e) => write!(f, "dump: serialize failed: {e}"),
            DumpError::Wal(e) => write!(f, "dump: wal compaction failed: {e}"),
            DumpError::Store(e) => write!(f, "dump: segment store write failed: {e}"),
            DumpError::MonitorHasNoWal => {
                write!(
                    f,
                    "dump: monitor has no wal attached, state cannot be persisted"
                )
            }
        }
    }
}

impl std::error::Error for DumpError {}

impl From<serde_json::Error> for DumpError {
    fn from(e: serde_json::Error) -> DumpError {
        DumpError::Serialize(e)
    }
}

impl From<WalError> for DumpError {
    fn from(e: WalError) -> DumpError {
        DumpError::Wal(e)
    }
}

impl From<TraceError> for DumpError {
    fn from(e: TraceError) -> DumpError {
        DumpError::Store(e)
    }
}

/// Why a [`restore`] failed.
#[derive(Debug)]
pub enum RestoreError {
    /// A dump file could not be read.
    Io {
        /// The operation that failed.
        op: &'static str,
        /// The path it failed on.
        path: PathBuf,
        /// The OS error.
        source: io::Error,
    },
    /// The `dataset/` segment store could not be opened (missing, torn,
    /// corrupt or out of order), or its tables were invalid.
    Trace(TraceError),
    /// `session.json` or `monitor/config.json` was malformed.
    Deserialize(serde_json::Error),
    /// The monitor could not be recovered from the dumped WAL.
    Recover(RecoverError),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Io { op, path, source } => {
                write!(f, "restore: {op} {} failed: {source}", path.display())
            }
            RestoreError::Trace(e) => write!(f, "restore: invalid table: {e}"),
            RestoreError::Deserialize(e) => write!(f, "restore: malformed json: {e}"),
            RestoreError::Recover(e) => write!(f, "restore: monitor recovery failed: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<TraceError> for RestoreError {
    fn from(e: TraceError) -> RestoreError {
        RestoreError::Trace(e)
    }
}

impl From<serde_json::Error> for RestoreError {
    fn from(e: serde_json::Error) -> RestoreError {
        RestoreError::Deserialize(e)
    }
}

impl From<RecoverError> for RestoreError {
    fn from(e: RecoverError) -> RestoreError {
        RestoreError::Recover(e)
    }
}

/// What a [`dump`] wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpReport {
    /// What the `dataset/` segment store holds: rows per family and
    /// segment files written.
    pub dataset: store::StoreReport,
    /// The monitor WAL compaction outcome, when a monitor was dumped. A
    /// non-clean reason means the live log had a torn/corrupt tail and the
    /// dump captured its intact prefix.
    pub monitor: Option<RecoveryReport>,
}

/// A restored lens: the rebuilt dataset + session, and the recovered
/// monitor when the dump contained one.
#[derive(Debug)]
pub struct RestoredLens {
    /// The lens, with the dumped session log replayed into its view state.
    pub lens: BatchLens,
    /// The recovered monitor (no WAL attached — attach a fresh one to
    /// resume logging).
    pub monitor: Option<StreamMonitor>,
    /// The monitor replay outcome, when a monitor was restored.
    pub monitor_report: Option<RecoveryReport>,
}

fn write_file(path: &Path, contents: &str) -> Result<(), DumpError> {
    fs::write(path, contents).map_err(|source| DumpError::Io {
        op: "write",
        path: path.to_path_buf(),
        source,
    })
}

fn read_file(path: &Path) -> Result<String, RestoreError> {
    fs::read_to_string(path).map_err(|source| RestoreError::Io {
        op: "read",
        path: path.to_path_buf(),
        source,
    })
}

/// Dumps the whole lens state — session log, dataset segments, and (when
/// `monitor` is given) the live monitor's config plus its WAL compacted to
/// a single segment — into `dir`, creating it if needed.
///
/// The monitor must have a WAL attached ([`StreamMonitor::attach_wal`]):
/// its state is persisted *as* that log, synced and compacted with
/// sequence numbers preserved, so a later [`restore`] replays to the
/// bit-identical state and newer live-log records still apply as a tail.
///
/// # Errors
///
/// [`DumpError::MonitorHasNoWal`] for an unlogged monitor, returned before
/// anything is created or written; otherwise IO, serialization, or
/// WAL-compaction failures.
pub fn dump(
    dir: &Path,
    lens: &BatchLens,
    monitor: Option<&StreamMonitor>,
) -> Result<DumpReport, DumpError> {
    // Checked first: a dump that stopped here after writing the tables
    // would restore as a lens whose monitor silently vanished.
    let monitor = match monitor {
        Some(m) => Some((m, m.wal_dir().ok_or(DumpError::MonitorHasNoWal)?)),
        None => None,
    };
    fs::create_dir_all(dir).map_err(|source| DumpError::Io {
        op: "create dir",
        path: dir.to_path_buf(),
        source,
    })?;

    write_file(&dir.join("session.json"), &lens.log().to_json()?)?;
    let mut report = DumpReport {
        dataset: store::dump_dataset(&dir.join("dataset"), lens.dataset())?,
        monitor: None,
    };
    let monitor_dir = dir.join("monitor");
    if let Some((monitor, wal_dir)) = monitor {
        monitor.sync_wal();
        fs::create_dir_all(&monitor_dir).map_err(|source| DumpError::Io {
            op: "create dir",
            path: monitor_dir.clone(),
            source,
        })?;
        write_file(
            &monitor_dir.join("config.json"),
            &serde_json::to_string_pretty(monitor.config())?,
        )?;
        report.monitor = Some(wal::compact(&wal_dir, &monitor_dir.join("wal"))?);
    } else if monitor_dir.exists() {
        // An earlier dump's monitor must not restore as this one's.
        fs::remove_dir_all(&monitor_dir).map_err(|source| DumpError::Io {
            op: "remove dir",
            path: monitor_dir,
            source,
        })?;
    }
    Ok(report)
}

/// Restores a lens (and monitor, when the dump contains one) from a
/// directory written by [`dump`].
///
/// The dataset is opened from the `dataset/` segment store
/// ([`TraceDataset::open`]); a dump without it is a
/// [`RestoreError::Trace`] naming the missing path. The session log
/// replays into the view state
/// ([`BatchLens::with_session`]), and the monitor — if dumped — is
/// recovered from the compacted WAL with the dumped configuration. Apply
/// tail records from a newer live log via
/// [`StreamMonitor::apply_replayed`] to catch the monitor up past the
/// dump point.
///
/// The lens half (session log, store open, lens build) and the monitor
/// half (config, WAL replay) share no files, so they run concurrently:
/// the monitor half on a scoped thread, the lens half on the calling
/// thread. Both halves' working sets are live at once: the WAL reader
/// holds the whole compacted log while the lens is built. The call
/// returns once both halves have finished, even when one of them failed.
///
/// # Errors
///
/// IO failures reading the dump, a missing or corrupt segment store,
/// malformed JSON, an invalid dumped monitor configuration, or a
/// `monitor/` without its `wal/` directory (a [`RestoreError::Io`] naming
/// it: [`dump`] always writes one). When both halves fail, the lens
/// half's error wins. Corrupt WAL *contents* are not an error — replay
/// stops at the last intact record and the report says so.
pub fn restore(dir: &Path) -> Result<RestoredLens, RestoreError> {
    // The lens half stays on the calling thread, so its allocations come
    // from the caller's malloc arena, which holds what an earlier lens
    // freed. With both halves on fresh threads, each drawing on its own
    // arena, the peak resident set of the replay benchmark's
    // `crash_restart` workload rose by about a quarter.
    let (lens, monitor) = std::thread::scope(|scope| {
        let monitor = scope.spawn(|| restore_monitor(&dir.join("monitor")));
        let lens = restore_lens(dir);
        let monitor = monitor
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        Ok::<_, RestoreError>((lens?, monitor?))
    })?;
    let (monitor, monitor_report) = monitor.unzip();
    Ok(RestoredLens {
        lens,
        monitor,
        monitor_report,
    })
}

fn restore_lens(dir: &Path) -> Result<BatchLens, RestoreError> {
    let log = SessionLog::from_json(&read_file(&dir.join("session.json"))?)?;
    let dataset = TraceDataset::open(&dir.join("dataset"))?;
    Ok(BatchLens::with_session(dataset, log))
}

/// `None` when the dump holds no monitor.
fn restore_monitor(
    monitor_dir: &Path,
) -> Result<Option<(StreamMonitor, RecoveryReport)>, RestoreError> {
    if !monitor_dir.is_dir() {
        return Ok(None);
    }
    let cfg: StreamConfig = serde_json::from_str(&read_file(&monitor_dir.join("config.json"))?)?;
    // `recover` reads a missing directory as an empty log, which would
    // restore a damaged dump as a blank monitor.
    let wal_dir = monitor_dir.join("wal");
    fs::metadata(&wal_dir).map_err(|source| RestoreError::Io {
        op: "open",
        path: wal_dir.clone(),
        source,
    })?;
    Ok(Some(StreamMonitor::recover(&wal_dir, cfg)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::Event;
    use batchlens_trace::wal::{WalConfig, WalWriter};
    use batchlens_trace::{
        BatchInstanceRecord, BatchTaskRecord, DatasetQuery, InstanceStatus, JobId, MachineEvent,
        MachineEventRecord, MachineId, ServerUsageRecord, TaskId, TaskStatus, Timestamp,
        TraceDatasetBuilder, UtilizationTriple,
    };

    fn temp_dump_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "batchlens-dump-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample_lens() -> BatchLens {
        let mut b = TraceDatasetBuilder::new();
        b.push_task(BatchTaskRecord {
            create_time: Timestamp::new(0),
            modify_time: Timestamp::new(900),
            job: JobId::new(1),
            task: TaskId::new(1),
            instance_count: 2,
            status: TaskStatus::Terminated,
            plan_cpu: 1.5,
            plan_mem: 0.25,
        });
        for seq in 0..2 {
            b.push_instance(BatchInstanceRecord {
                start_time: Timestamp::new(60),
                end_time: Timestamp::new(600 + 60 * i64::from(seq)),
                job: JobId::new(1),
                task: TaskId::new(1),
                seq,
                total: 2,
                machine: MachineId::new(seq + 1),
                status: InstanceStatus::Terminated,
                cpu_avg: 0.5,
                cpu_max: 0.75,
                mem_avg: 0.25,
                mem_max: 0.5,
            });
        }
        for t in 0..4 {
            b.push_usage(ServerUsageRecord {
                time: Timestamp::new(t * 300),
                machine: MachineId::new(1),
                util: UtilizationTriple::clamped(0.25, 0.5, 0.75),
            });
        }
        b.push_machine_event(MachineEventRecord {
            time: Timestamp::new(0),
            machine: MachineId::new(2),
            event: MachineEvent::Add,
            capacity_cpu: 64.0,
            capacity_mem: 1.0,
            capacity_disk: 1.0,
        });
        BatchLens::new(b.build().unwrap())
    }

    #[test]
    fn dump_restore_round_trips_lens_and_monitor() {
        let dump_dir = temp_dump_dir("roundtrip");
        let wal_dir = temp_dump_dir("roundtrip-wal");
        let mut lens = sample_lens();
        lens.apply(Event::SelectTimestamp(Timestamp::new(300)));
        lens.apply(Event::SelectJob(JobId::new(1)));

        let monitor = StreamMonitor::new(StreamConfig::default()).unwrap();
        monitor.attach_wal(WalWriter::open(&wal_dir, WalConfig::default()).unwrap());
        for t in 0..6 {
            monitor.ingest(ServerUsageRecord {
                time: Timestamp::new(t * 60),
                machine: MachineId::new(1),
                util: UtilizationTriple::clamped(0.95, 0.3, 0.2),
            });
        }
        monitor.instance_started(
            JobId::new(1),
            TaskId::new(1),
            0,
            MachineId::new(1),
            Timestamp::new(30),
        );

        let report = dump(&dump_dir, &lens, Some(&monitor)).unwrap();
        assert_eq!(report.dataset.rows, [1, 2, 4, 1, 2]);
        let wal_report = report.monitor.unwrap();
        assert!(wal_report.reason.is_clean());
        assert_eq!(wal_report.records_replayed, 7);

        let restored = restore(&dump_dir).unwrap();
        assert_eq!(restored.lens.log(), lens.log());
        assert_eq!(restored.lens.view(), lens.view());
        assert_eq!(
            restored.lens.dataset().instance_records(),
            lens.dataset().instance_records()
        );
        assert_eq!(
            restored
                .lens
                .dataset()
                .machine(MachineId::new(2))
                .unwrap()
                .info(),
            lens.dataset().machine(MachineId::new(2)).unwrap().info()
        );
        for t in [0, 300, 600, 900] {
            assert_eq!(
                restored.lens.dataset().frame(Timestamp::new(t)),
                lens.dataset().frame(Timestamp::new(t)),
                "dataset frame({t})"
            );
        }

        let rm = restored.monitor.unwrap();
        assert!(restored.monitor_report.unwrap().reason.is_clean());
        assert_eq!(rm.state_version(), monitor.state_version());
        assert_eq!(rm.total_alerts(), monitor.total_alerts());
        assert_eq!(rm.alerts_since(0), monitor.alerts_since(0));
        for t in [0, 150, 300] {
            assert_eq!(
                rm.live_view().frame(Timestamp::new(t)),
                monitor.live_view().frame(Timestamp::new(t)),
                "monitor frame({t})"
            );
        }

        // Snapshot plus tail: the live log keeps growing after the dump;
        // records past the dump's last sequence catch the restored monitor
        // up to the live one, bit-identically.
        let last_dumped = wal_report.last_seq.unwrap();
        monitor.ingest(ServerUsageRecord {
            time: Timestamp::new(360),
            machine: MachineId::new(1),
            util: UtilizationTriple::clamped(0.2, 0.9, 0.1),
        });
        monitor.instance_finished(JobId::new(1), TaskId::new(1), 0, Timestamp::new(400));
        drop(monitor.detach_wal());
        let mut tail = batchlens_trace::wal::WalReader::open(&wal_dir).unwrap();
        for (seq, record) in &mut tail {
            if seq > last_dumped {
                rm.apply_replayed(record);
            }
        }
        assert_eq!(rm.state_version(), monitor.state_version());
        for t in [300, 360, 400] {
            assert_eq!(
                rm.live_view().frame(Timestamp::new(t)),
                monitor.live_view().frame(Timestamp::new(t)),
                "caught-up frame({t})"
            );
        }

        fs::remove_dir_all(&dump_dir).ok();
        fs::remove_dir_all(&wal_dir).ok();
    }

    #[test]
    fn dump_holds_each_table_once() {
        let dir = temp_dump_dir("segments");
        let lens = sample_lens();
        let report = dump(&dir, &lens, None).unwrap();
        assert!(report.dataset.segments >= 5, "one segment per family");
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["dataset", "session.json"], "no CSV copy");
        let restored = restore(&dir).unwrap();
        assert_eq!(restored.lens.dataset(), lens.dataset());

        // The segment store is the only copy of the tables: without it,
        // restore is a typed error naming the missing path.
        fs::remove_dir_all(dir.join("dataset")).unwrap();
        match restore(&dir) {
            Err(RestoreError::Trace(TraceError::Io { path, .. })) => {
                assert!(path.ends_with("dataset"), "{path}");
            }
            other => panic!("expected the store's Io error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dump_without_monitor_restores_none() {
        let dir = temp_dump_dir("nomonitor");
        let lens = sample_lens();
        let report = dump(&dir, &lens, None).unwrap();
        assert!(report.monitor.is_none());
        let restored = restore(&dir).unwrap();
        assert!(restored.monitor.is_none());
        assert!(restored.monitor_report.is_none());
        assert_eq!(
            restored.lens.dataset().machine_count(),
            lens.dataset().machine_count()
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn redump_into_a_used_directory_restores_only_the_new_dataset() {
        // 70,000 usage rows span two usage segments; the second dump's
        // one segment must not be read together with the first's second.
        let grid = |machines: u32, samples: i64| {
            let mut b = TraceDatasetBuilder::new();
            for m in 0..machines {
                for t in 0..samples {
                    b.push_usage(ServerUsageRecord {
                        time: Timestamp::new(t * 60),
                        machine: MachineId::new(m),
                        util: UtilizationTriple::clamped(0.25, 0.5, 0.75),
                    });
                }
            }
            BatchLens::new(b.build().unwrap())
        };
        let dir = temp_dump_dir("redump");
        let first = dump(&dir, &grid(100, 700), None).unwrap();
        assert_eq!(first.dataset.rows[2], 70_000);
        assert_eq!(
            first.dataset.segments, 3,
            "two usage segments, one machine table"
        );
        let small = grid(10, 10);
        dump(&dir, &small, None).unwrap();
        let restored = restore(&dir).unwrap();
        assert_eq!(restored.lens.dataset().machine_count(), 10);
        assert_eq!(restored.lens.dataset(), small.dataset());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dump_without_monitor_removes_an_earlier_monitor() {
        let dir = temp_dump_dir("redump-monitor");
        let wal_dir = temp_dump_dir("redump-monitor-wal");
        let lens = sample_lens();
        let monitor = StreamMonitor::new(StreamConfig::default()).unwrap();
        monitor.attach_wal(WalWriter::open(&wal_dir, WalConfig::default()).unwrap());
        monitor.ingest(ServerUsageRecord {
            time: Timestamp::new(0),
            machine: MachineId::new(1),
            util: UtilizationTriple::clamped(0.95, 0.3, 0.2),
        });
        dump(&dir, &lens, Some(&monitor)).unwrap();
        assert!(restore(&dir).unwrap().monitor.is_some());
        dump(&dir, &lens, None).unwrap();
        let restored = restore(&dir).unwrap();
        assert!(restored.monitor.is_none());
        assert!(restored.monitor_report.is_none());
        fs::remove_dir_all(&dir).ok();
        fs::remove_dir_all(&wal_dir).ok();
    }

    #[test]
    fn dumping_an_unlogged_monitor_is_an_error() {
        let dir = temp_dump_dir("unlogged");
        let lens = sample_lens();
        let monitor = StreamMonitor::new(StreamConfig::default()).unwrap();
        let err = dump(&dir, &lens, Some(&monitor)).unwrap_err();
        assert!(matches!(err, DumpError::MonitorHasNoWal));
        // Nothing was written, so the failed dump cannot restore as a lens
        // without its monitor.
        assert!(!dir.exists(), "a failed dump leaves no files behind");
        let err = restore(&dir).unwrap_err();
        assert!(matches!(err, RestoreError::Io { .. }), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    /// A dump of the sample lens with a WAL-logged monitor at
    /// `state_version` 5; returns the dump and the live WAL directories.
    fn dump_with_monitor(tag: &str) -> (PathBuf, PathBuf) {
        let dir = temp_dump_dir(tag);
        let wal_dir = temp_dump_dir(&format!("{tag}-wal"));
        let monitor = StreamMonitor::new(StreamConfig::default()).unwrap();
        monitor.attach_wal(WalWriter::open(&wal_dir, WalConfig::default()).unwrap());
        for t in 0..5 {
            monitor.ingest(ServerUsageRecord {
                time: Timestamp::new(t * 60),
                machine: MachineId::new(1),
                util: UtilizationTriple::clamped(0.95, 0.3, 0.2),
            });
        }
        assert_eq!(monitor.state_version(), 5);
        dump(&dir, &sample_lens(), Some(&monitor)).unwrap();
        (dir, wal_dir)
    }

    #[test]
    fn a_monitor_without_its_wal_is_an_error_not_a_blank_monitor() {
        let (dir, wal_dir) = dump_with_monitor("lost-wal");
        let restored = restore(&dir).unwrap().monitor.unwrap();
        assert_eq!(restored.state_version(), 5);
        fs::remove_dir_all(dir.join("monitor").join("wal")).unwrap();
        match restore(&dir) {
            Err(RestoreError::Io { path, .. }) => {
                assert!(path.ends_with("monitor/wal"), "{}", path.display());
            }
            other => panic!("expected an Io error naming monitor/wal, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
        fs::remove_dir_all(&wal_dir).ok();
    }

    #[test]
    fn the_lens_half_error_wins_over_the_monitor_half_error() {
        use crate::stream::StreamConfigError;
        let (dir, wal_dir) = dump_with_monitor("precedence");
        let invalid = StreamConfig {
            alert_capacity: 0,
            ..StreamConfig::default()
        };
        fs::write(
            dir.join("monitor").join("config.json"),
            serde_json::to_string(&invalid).unwrap(),
        )
        .unwrap();

        // An intact lens half: the monitor half's error.
        let err = restore(&dir).unwrap_err();
        assert!(
            matches!(
                err,
                RestoreError::Recover(RecoverError::Config(StreamConfigError::ZeroAlertCapacity))
            ),
            "{err}"
        );

        // A malformed session log: its error, not the monitor's.
        let session = dir.join("session.json");
        let log = fs::read_to_string(&session).unwrap();
        fs::write(&session, "{").unwrap();
        let err = restore(&dir).unwrap_err();
        assert!(matches!(err, RestoreError::Deserialize(_)), "{err}");

        // No segment store: the store's error, not the monitor's.
        fs::write(&session, log).unwrap();
        fs::remove_dir_all(dir.join("dataset")).unwrap();
        match restore(&dir) {
            Err(RestoreError::Trace(TraceError::Io { path, .. })) => {
                assert!(path.ends_with("dataset"), "{path}");
            }
            other => panic!("expected the store's Io error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
        fs::remove_dir_all(&wal_dir).ok();
    }

    #[test]
    fn restore_from_missing_dir_reports_io() {
        let dir = temp_dump_dir("missing");
        let err = restore(&dir).unwrap_err();
        assert!(matches!(err, RestoreError::Io { .. }));
    }
}
