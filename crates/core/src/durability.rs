//! Whole-lens dump and restore: dataset, session log, and live-monitor
//! state persisted to one directory, so a long-running monitor's
//! write-ahead log can be **compacted into a snapshot plus tail**.
//!
//! A dump directory contains:
//!
//! * the four trace tables in their canonical CSV form (`batch_task.csv`,
//!   `batch_instance.csv`, `server_usage.csv`, `machine_events.csv`),
//! * `dataset/` — the same tables as columnar
//!   [`batchlens_trace::store`] segments (sorted, checksummed,
//!   memory-mappable); [`restore`] prefers this payload when present and
//!   rebuilds the dataset via the lazy [`TraceDataset::open`] path, which
//!   is both faster than a CSV re-parse and bit-exact on every f64,
//! * `machines.json` — explicit machine capacity declarations,
//! * `session.json` — the recorded interaction log,
//! * `monitor/config.json` + `monitor/wal/` — the live monitor's
//!   configuration and its WAL, compacted to a single sealed segment with
//!   sequence numbers preserved (present only when a monitor was dumped).
//!
//! The compacted monitor WAL is the **snapshot** half of a
//! snapshot-plus-tail scheme: [`restore`] replays it through
//! [`StreamMonitor::recover`], and any records the live log accepted
//! *after* the dump (sequence numbers past the dump's last) are the tail —
//! feed them to [`StreamMonitor::apply_replayed`] to catch up. Monitor
//! state round-trips **bit-identically** (the WAL codec is bit-exact);
//! `server_usage` rows round-trip on the trace's native 0.01 % utilization
//! grid, which every CSV-parsed dataset already lies on.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use batchlens_trace::wal::{self, RecoveryReport, WalError};
use batchlens_trace::{csv, store, MachineId, MachineInfo, TraceDatasetBuilder, TraceError};
use batchlens_trace::{Metric, ServerUsageRecord, TraceDataset, UtilizationTriple};

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
    /// A CSV table or the rebuilt dataset was invalid.
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
    /// Rows written per CSV table: tasks, instances, usage, events.
    pub rows: [usize; 4],
    /// Columnar segment files written into `dataset/`.
    pub segments: usize,
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

/// Opens a CSV table for streaming parse — a buffered line reader, so
/// restore never materializes a multi-gigabyte table as one `String`.
fn open_csv(path: &Path) -> Result<io::BufReader<fs::File>, RestoreError> {
    fs::File::open(path)
        .map(io::BufReader::new)
        .map_err(|source| RestoreError::Io {
            op: "open",
            path: path.to_path_buf(),
            source,
        })
}

/// Reconstructs the flat `server_usage` rows from a dataset's per-machine
/// series (the builder consumed the rows into three aligned series per
/// machine; zipping them back is exact because they share one grid).
fn usage_rows(lens: &BatchLens) -> Vec<ServerUsageRecord> {
    let mut rows = Vec::new();
    for machine in lens.dataset().machines() {
        let (Some(cpu), Some(mem), Some(disk)) = (
            machine.usage(Metric::Cpu),
            machine.usage(Metric::Memory),
            machine.usage(Metric::Disk),
        ) else {
            continue;
        };
        for i in 0..cpu.len() {
            rows.push(ServerUsageRecord {
                time: cpu.times()[i],
                machine: machine.id(),
                util: UtilizationTriple::clamped(
                    cpu.values()[i],
                    mem.values()[i],
                    disk.values()[i],
                ),
            });
        }
    }
    rows.sort_by_key(|r| (r.time, r.machine));
    rows
}

/// Dumps the whole lens state — dataset tables, session log, and (when
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

    let ds = lens.dataset();
    let tasks: Vec<_> = ds.task_records().copied().collect();
    let instances = ds.instance_records();
    let usage = usage_rows(lens);
    let events = ds.machine_events();

    write_file(&dir.join("batch_task.csv"), &csv::write_batch_tasks(&tasks))?;
    write_file(
        &dir.join("batch_instance.csv"),
        &csv::write_batch_instances(instances),
    )?;
    write_file(
        &dir.join("server_usage.csv"),
        &csv::write_server_usage(&usage),
    )?;
    write_file(
        &dir.join("machine_events.csv"),
        &csv::write_machine_events(events),
    )?;

    let machines: Vec<(MachineId, MachineInfo)> =
        ds.machines().map(|m| (m.id(), m.info())).collect();
    write_file(
        &dir.join("machines.json"),
        &serde_json::to_string_pretty(&machines)?,
    )?;
    write_file(&dir.join("session.json"), &lens.log().to_json()?)?;

    // The columnar payload: same tables as the CSVs, but sorted, checksummed
    // and memory-mappable, giving restore its fast lazy path.
    let store_report = store::dump_dataset(&dir.join("dataset"), ds)?;

    let mut report = DumpReport {
        rows: [tasks.len(), instances.len(), usage.len(), events.len()],
        segments: store_report.segments,
        monitor: None,
    };
    if let Some((monitor, wal_dir)) = monitor {
        monitor.sync_wal();
        let monitor_dir = dir.join("monitor");
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
    }
    Ok(report)
}

/// Restores a lens (and monitor, when the dump contains one) from a
/// directory written by [`dump`].
///
/// The dataset is opened from the `dataset/` segment store
/// ([`TraceDataset::open`]); only a dump without that directory falls back
/// to parsing the CSV tables and explicit machine declarations. The
/// session log replays into the view state
/// ([`BatchLens::with_session`]), and the monitor — if dumped — is
/// recovered from the compacted WAL with the dumped configuration. Apply
/// tail records from a newer live log via
/// [`StreamMonitor::apply_replayed`] to catch the monitor up past the
/// dump point.
///
/// # Errors
///
/// IO failures reading the dump, malformed tables/JSON, or an invalid
/// dumped monitor configuration. Corrupt WAL *contents* are not an error —
/// replay stops at the last intact record and the report says so.
pub fn restore(dir: &Path) -> Result<RestoredLens, RestoreError> {
    let log = SessionLog::from_json(&read_file(&dir.join("session.json"))?)?;

    // Prefer the columnar segment payload: lazy mmap-backed open, no
    // re-parse. Dumps from older versions (no `dataset/` directory) fall
    // back to a streaming parse of the canonical CSVs.
    let segment_dir = dir.join("dataset");
    let dataset = if segment_dir.is_dir() {
        TraceDataset::open(&segment_dir)?
    } else {
        let tasks = csv::parse_batch_tasks_reader(open_csv(&dir.join("batch_task.csv"))?)?;
        let instances =
            csv::parse_batch_instances_reader(open_csv(&dir.join("batch_instance.csv"))?)?;
        let usage = csv::parse_server_usage_reader(open_csv(&dir.join("server_usage.csv"))?)?;
        let events = csv::parse_machine_events_reader(open_csv(&dir.join("machine_events.csv"))?)?;
        let machines: Vec<(MachineId, MachineInfo)> =
            serde_json::from_str(&read_file(&dir.join("machines.json"))?)?;
        let mut builder = TraceDatasetBuilder::new();
        for (id, info) in machines {
            builder.declare_machine(id, info);
        }
        builder.extend_tables(tasks, instances, usage, events);
        builder.build()?
    };
    let lens = BatchLens::with_session(dataset, log);

    let monitor_dir = dir.join("monitor");
    let (monitor, monitor_report) = if monitor_dir.is_dir() {
        let cfg: StreamConfig =
            serde_json::from_str(&read_file(&monitor_dir.join("config.json"))?)?;
        let (monitor, report) = StreamMonitor::recover(&monitor_dir.join("wal"), cfg)?;
        (Some(monitor), Some(report))
    } else {
        (None, None)
    };

    Ok(RestoredLens {
        lens,
        monitor,
        monitor_report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::Event;
    use batchlens_trace::wal::{WalConfig, WalWriter};
    use batchlens_trace::{
        BatchInstanceRecord, BatchTaskRecord, DatasetQuery, InstanceStatus, JobId, MachineEvent,
        MachineEventRecord, TaskId, TaskStatus, Timestamp,
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
                // On the 0.01 % grid the CSV codec uses, so the dump
                // round-trips exactly.
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
        assert_eq!(report.rows, [1, 2, 4, 1]);
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
        assert_eq!(rm.peek_alerts(), monitor.peek_alerts());
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
    fn restore_prefers_segment_payload_over_csvs() {
        let dir = temp_dump_dir("segments");
        let lens = sample_lens();
        let report = dump(&dir, &lens, None).unwrap();
        assert!(report.segments >= 4, "dump must write a segment payload");
        assert!(dir.join("dataset").is_dir());

        // Vandalize the CSVs: a segment-preferring restore never reads them.
        for table in [
            "batch_task.csv",
            "batch_instance.csv",
            "server_usage.csv",
            "machine_events.csv",
        ] {
            fs::write(dir.join(table), "not,a,valid,table\n").unwrap();
        }
        let restored = restore(&dir).unwrap();
        assert_eq!(restored.lens.dataset(), lens.dataset());

        // Without the segment payload the same dump falls back to the CSVs
        // and now reports their corruption.
        fs::remove_dir_all(dir.join("dataset")).unwrap();
        assert!(matches!(restore(&dir), Err(RestoreError::Trace(_))));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_fallback_restore_matches_original() {
        let dir = temp_dump_dir("csv-fallback");
        let lens = sample_lens();
        dump(&dir, &lens, None).unwrap();
        fs::remove_dir_all(dir.join("dataset")).unwrap();
        let restored = restore(&dir).unwrap();
        assert_eq!(
            restored.lens.dataset().instance_records(),
            lens.dataset().instance_records()
        );
        for t in [0, 300, 900] {
            assert_eq!(
                restored.lens.dataset().frame(Timestamp::new(t)),
                lens.dataset().frame(Timestamp::new(t))
            );
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

    #[test]
    fn restore_from_missing_dir_reports_io() {
        let dir = temp_dump_dir("missing");
        let err = restore(&dir).unwrap_err();
        assert!(matches!(err, RestoreError::Io { .. }));
    }
}
