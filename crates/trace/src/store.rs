//! Columnar on-disk trace store: sorted, checksummed, memory-mappable
//! segment files per record family.
//!
//! The CSV tables are a parse-everything-every-time format; the real
//! cluster-trace-v2017 corpus is ~100 GB, so reopening a dataset must not
//! cost a re-parse and resident memory must not be bounded by the corpus.
//! This module provides the storage half of that story:
//!
//! * [`SegmentWriter`] takes each record family (`batch_task`,
//!   `batch_instance`, `server_usage`, `machine_events`, plus the machine
//!   capacity table) already in its family's sort order and writes
//!   fixed-layout little-endian **columnar** segment files of bounded row
//!   count,
//! * [`SegmentReader`] memory-maps a segment (with a portable buffered
//!   fallback) and serves zero-copy sorted column scans,
//! * [`TraceDataset::open`] is the second construction path next to the
//!   CSV parse: segments are mapped lazily (pages fault in on first
//!   touch), the batch/event families decode one exec-pool task per
//!   segment and concatenate in segment order under one linear order
//!   check, the machine-major `server_usage` columns turn into each
//!   machine's time grid and three value columns directly — no record
//!   materialization, and the verified grid is moved in, not copied —
//!   and the sorted tables feed a trusted build that skips the builder's
//!   re-sorts. A store whose checksums pass but whose rows are out of
//!   order was hand-made, tampered with, or written from unsorted rows:
//!   opening it is a typed [`TraceError::CorruptSegment`] naming the
//!   segment and the row's leading key cell, never a dataset.
//!
//! # Segment format
//!
//! One segment file holds one sorted chunk of one record family:
//!
//! ```text
//! header   magic "BLS1" u32 | family u32 | row_count u64
//!          | column_count u32 | reserved u32
//! columns  column 0 ‖ column 1 ‖ …        (row_count fixed-width LE cells each)
//! footer   per column: offset u64 | len u64 | crc u32
//!          min_key i64 | max_key i64
//!          header_crc u32 | footer_len u32 | tail magic "BLSE" u32
//!          footer_crc u32
//! ```
//!
//! # Durability contract
//!
//! Every byte of a sealed segment is covered by exactly one CRC-32 (the
//! [`crate::wal`] machinery): the header by `header_crc`, each column by
//! its footer entry, and the footer itself — including `footer_len` and
//! the tail magic — by the trailing `footer_crc`. [`SegmentReader::open`]
//! verifies all of them before returning, so a torn tail, a short write or
//! any single-bit flip surfaces as a typed
//! [`TraceError::CorruptSegment`] naming the segment and the exact byte
//! region that failed — never as a panic, and never as silently wrong
//! data. `min_key`/`max_key` describe the sorted key range of the rows
//! (family-specific, see [`Family::key_of_row`] docs), letting a directory
//! open verify that consecutive segments of one family are
//! non-overlapping ascending ranges.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::dataset::MachineUsage;
use crate::wal::{crc32, put_f64, put_i64, put_u32, put_u64, Cursor};
use crate::{
    BatchInstanceRecord, BatchTaskRecord, JobId, MachineEvent, MachineEventRecord, MachineId,
    MachineInfo, ServerUsageRecord, TaskId, TaskStatus, Timestamp, TraceDataset, TraceError,
    Utilization, UtilizationTriple,
};

/// Failpoint site evaluated before every segment-file write
/// (`batchlens_fault` grammar: `store.write=short_write:40@nth:2`, …).
pub const FAILPOINT_WRITE: &str = "store.write";

/// Failpoint site evaluated before every segment map/open.
pub const FAILPOINT_MMAP: &str = "store.mmap";

const HEADER_LEN: usize = 24;
const MAGIC: u32 = u32::from_le_bytes(*b"BLS1");
const TAIL_MAGIC: u32 = u32::from_le_bytes(*b"BLSE");
/// Fixed footer bytes past the per-column entries: min/max keys,
/// header crc, footer len, tail magic, footer crc.
const FOOTER_FIXED: usize = 16 + 4 + 4 + 4 + 4;
const COL_ENTRY: usize = 8 + 8 + 4;

/// Hard ceiling on rows per segment, guarding decode allocations against a
/// corrupted-but-plausible header the same way
/// [`crate::wal`]'s `MAX_PAYLOAD_BYTES` guards frame lengths.
pub const MAX_SEGMENT_ROWS: usize = 1 << 24;

/// The record families a segment can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// `batch_task` rows, sorted by `(job, task)`.
    BatchTask,
    /// `batch_instance` rows, sorted by `(job, task, seq)`.
    BatchInstance,
    /// `server_usage` rows, sorted by `(machine, time)` — machine-major,
    /// so one machine's samples are a contiguous column slice.
    ServerUsage,
    /// `machine_events` rows, sorted by `(time, machine)`.
    MachineEvents,
    /// Machine capacity declarations, sorted by machine id.
    Machines,
}

/// Cell width of one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColKind {
    /// 8-byte little-endian signed integer.
    I64,
    /// 4-byte little-endian unsigned integer.
    U32,
    /// 8-byte little-endian IEEE-754 double (bit-exact round trip).
    F64,
}

impl ColKind {
    /// Bytes per cell.
    pub const fn width(self) -> usize {
        match self {
            ColKind::I64 | ColKind::F64 => 8,
            ColKind::U32 => 4,
        }
    }
}

/// Schema entry: one named fixed-width column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnSpec {
    /// Column name (diagnostics only; the layout is positional).
    pub name: &'static str,
    /// Cell width/kind.
    pub kind: ColKind,
}

const fn col(name: &'static str, kind: ColKind) -> ColumnSpec {
    ColumnSpec { name, kind }
}

const TASK_COLS: &[ColumnSpec] = &[
    col("create_time", ColKind::I64),
    col("modify_time", ColKind::I64),
    col("job", ColKind::U32),
    col("task", ColKind::U32),
    col("instance_count", ColKind::U32),
    col("status", ColKind::U32),
    col("plan_cpu", ColKind::F64),
    col("plan_mem", ColKind::F64),
];

const INSTANCE_COLS: &[ColumnSpec] = &[
    col("start_time", ColKind::I64),
    col("end_time", ColKind::I64),
    col("job", ColKind::U32),
    col("task", ColKind::U32),
    col("seq", ColKind::U32),
    col("total", ColKind::U32),
    col("machine", ColKind::U32),
    col("status", ColKind::U32),
    col("cpu_avg", ColKind::F64),
    col("cpu_max", ColKind::F64),
    col("mem_avg", ColKind::F64),
    col("mem_max", ColKind::F64),
];

const USAGE_COLS: &[ColumnSpec] = &[
    col("time", ColKind::I64),
    col("machine", ColKind::U32),
    col("cpu", ColKind::F64),
    col("mem", ColKind::F64),
    col("disk", ColKind::F64),
];

const EVENT_COLS: &[ColumnSpec] = &[
    col("time", ColKind::I64),
    col("machine", ColKind::U32),
    col("event", ColKind::U32),
    col("capacity_cpu", ColKind::F64),
    col("capacity_mem", ColKind::F64),
    col("capacity_disk", ColKind::F64),
];

const MACHINE_COLS: &[ColumnSpec] = &[
    col("machine", ColKind::U32),
    col("capacity_cpu", ColKind::F64),
    col("capacity_mem", ColKind::F64),
    col("capacity_disk", ColKind::F64),
];

impl Family {
    /// The family's on-disk tag.
    const fn tag(self) -> u32 {
        match self {
            Family::BatchTask => 1,
            Family::BatchInstance => 2,
            Family::ServerUsage => 3,
            Family::MachineEvents => 4,
            Family::Machines => 5,
        }
    }

    fn from_tag(tag: u32) -> Option<Family> {
        Some(match tag {
            1 => Family::BatchTask,
            2 => Family::BatchInstance,
            3 => Family::ServerUsage,
            4 => Family::MachineEvents,
            5 => Family::Machines,
            _ => return None,
        })
    }

    /// The family's table name, used as the segment file prefix.
    pub const fn table(self) -> &'static str {
        match self {
            Family::BatchTask => "batch_task",
            Family::BatchInstance => "batch_instance",
            Family::ServerUsage => "server_usage",
            Family::MachineEvents => "machine_events",
            Family::Machines => "machines",
        }
    }

    fn from_table(table: &str) -> Option<Family> {
        Some(match table {
            "batch_task" => Family::BatchTask,
            "batch_instance" => Family::BatchInstance,
            "server_usage" => Family::ServerUsage,
            "machine_events" => Family::MachineEvents,
            "machines" => Family::Machines,
            _ => return None,
        })
    }

    /// The family's column schema, in on-disk order.
    pub const fn columns(self) -> &'static [ColumnSpec] {
        match self {
            Family::BatchTask => TASK_COLS,
            Family::BatchInstance => INSTANCE_COLS,
            Family::ServerUsage => USAGE_COLS,
            Family::MachineEvents => EVENT_COLS,
            Family::Machines => MACHINE_COLS,
        }
    }

    fn row_width(self) -> usize {
        let mut w = 0;
        let cols = self.columns();
        let mut i = 0;
        while i < cols.len() {
            w += cols[i].kind.width();
            i += 1;
        }
        w
    }

    /// What `min_key`/`max_key` summarize for this family: batch families
    /// pack `(job << 32) | task`, machine events use the timestamp in
    /// seconds, and the machine-major families (`server_usage` and the
    /// machine table) use the machine id. Rows within a segment ascend by
    /// the full family sort key, of which this i64 is a (possibly
    /// coarsened) prefix.
    pub fn key_of_row(self) -> &'static str {
        match self {
            Family::BatchTask | Family::BatchInstance => "(job << 32) | task",
            Family::MachineEvents => "time (seconds)",
            Family::ServerUsage | Family::Machines => "machine id",
        }
    }
}

fn io_err(op: &'static str, path: &Path, source: std::io::Error) -> TraceError {
    TraceError::Io {
        op,
        path: path.display().to_string(),
        message: source.to_string(),
    }
}

fn corrupt(path: &Path, offset: u64, len: u64, message: impl Into<String>) -> TraceError {
    TraceError::CorruptSegment {
        segment: path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string()),
        offset,
        len,
        message: message.into(),
    }
}

fn status_code(s: TaskStatus) -> u32 {
    match s {
        TaskStatus::Waiting => 0,
        TaskStatus::Running => 1,
        TaskStatus::Terminated => 2,
        TaskStatus::Failed => 3,
        TaskStatus::Cancelled => 4,
    }
}

fn status_from_code(code: u32) -> Option<TaskStatus> {
    Some(match code {
        0 => TaskStatus::Waiting,
        1 => TaskStatus::Running,
        2 => TaskStatus::Terminated,
        3 => TaskStatus::Failed,
        4 => TaskStatus::Cancelled,
        _ => return None,
    })
}

fn event_code(e: MachineEvent) -> u32 {
    match e {
        MachineEvent::Add => 0,
        MachineEvent::SoftError => 1,
        MachineEvent::HardError => 2,
        MachineEvent::Remove => 3,
    }
}

fn event_from_code(code: u32) -> Option<MachineEvent> {
    Some(match code {
        0 => MachineEvent::Add,
        1 => MachineEvent::SoftError,
        2 => MachineEvent::HardError,
        3 => MachineEvent::Remove,
        _ => return None,
    })
}

fn job_task_key(job: JobId, task: TaskId) -> i64 {
    ((u32::from(job) as i64) << 32) | u32::from(task) as i64
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Tuning for [`SegmentWriter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Maximum rows per segment file; a family with more rows splits into
    /// consecutive non-overlapping sorted segments (which is what lets
    /// [`TraceDataset::open`] decode one exec-pool task per segment).
    pub segment_rows: usize,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            segment_rows: 65_536,
        }
    }
}

/// What a store write produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreReport {
    /// Rows written per family: tasks, instances, usage, events, machines.
    pub rows: [usize; 5],
    /// Total segment files written.
    pub segments: usize,
}

/// Writes sorted columnar segments into a directory — the durable half of
/// the trace store.
///
/// # Row order
///
/// Each `write_*` takes its rows already in the family's sort order (see
/// [`Family`]) and writes them as given, without a copy or a sort; debug
/// builds check the order. Rows passed out of order make a store that
/// [`TraceDataset::open`] rejects with a typed
/// [`TraceError::CorruptSegment`]. [`dump_dataset`] passes a dataset's
/// tables, which it already holds in these orders.
///
/// # Durability contract
///
/// A segment is **sealed** once `write_*` returns: its bytes are flushed
/// and fsynced, every region is checksummed as described in the
/// [module docs](self), and the file is never modified again. Creating a
/// writer removes every `*.seg` file already in its directory, so a store
/// written into a used directory holds only its own segments. A crash
/// mid-write leaves a torn tail that [`SegmentReader::open`] rejects with
/// a typed [`TraceError::CorruptSegment`]; earlier sealed segments remain
/// readable.
#[derive(Debug)]
pub struct SegmentWriter {
    dir: PathBuf,
    cfg: StoreConfig,
    segments_written: usize,
}

impl SegmentWriter {
    /// [`SegmentWriter::with_config`] with the default config.
    pub fn create(dir: &Path) -> Result<SegmentWriter, TraceError> {
        SegmentWriter::with_config(dir, StoreConfig::default())
    }

    /// Creates `dir` (if needed), removes the segments already in it, and
    /// returns a writer with an explicit config.
    pub fn with_config(dir: &Path, cfg: StoreConfig) -> Result<SegmentWriter, TraceError> {
        if cfg.segment_rows == 0 || cfg.segment_rows > MAX_SEGMENT_ROWS {
            return Err(TraceError::InvalidResolution {
                seconds: cfg.segment_rows as i64,
            });
        }
        fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, e))?;
        // An earlier, larger store's higher-numbered segments would
        // otherwise be read back as part of this one.
        for path in list_store_segments(dir)? {
            fs::remove_file(&path).map_err(|e| io_err("remove", &path, e))?;
        }
        Ok(SegmentWriter {
            dir: dir.to_path_buf(),
            cfg,
            segments_written: 0,
        })
    }

    /// Segment files written so far.
    pub fn segments_written(&self) -> usize {
        self.segments_written
    }

    /// Writes the `batch_task` family; `rows` ascend by `(job, task)`.
    /// Returns the number of segments written.
    pub fn write_tasks(&mut self, rows: &[BatchTaskRecord]) -> Result<usize, TraceError> {
        debug_assert!(rows.is_sorted_by_key(|r| (r.job, r.task)));
        self.write_family(
            Family::BatchTask,
            rows,
            |r| job_task_key(r.job, r.task),
            |out: &mut Vec<u8>, rows: &[BatchTaskRecord], c: usize| {
                for r in rows {
                    match c {
                        0 => put_i64(out, r.create_time.seconds()),
                        1 => put_i64(out, r.modify_time.seconds()),
                        2 => put_u32(out, u32::from(r.job)),
                        3 => put_u32(out, u32::from(r.task)),
                        4 => put_u32(out, r.instance_count),
                        5 => put_u32(out, status_code(r.status)),
                        6 => put_f64(out, r.plan_cpu),
                        _ => put_f64(out, r.plan_mem),
                    }
                }
            },
        )
    }

    /// Writes the `batch_instance` family; `rows` ascend by `(job, task,
    /// seq)`.
    pub fn write_instances(&mut self, rows: &[BatchInstanceRecord]) -> Result<usize, TraceError> {
        debug_assert!(rows.is_sorted_by_key(|r| (r.job, r.task, r.seq)));
        self.write_family(
            Family::BatchInstance,
            rows,
            |r| job_task_key(r.job, r.task),
            |out: &mut Vec<u8>, rows: &[BatchInstanceRecord], c: usize| {
                for r in rows {
                    match c {
                        0 => put_i64(out, r.start_time.seconds()),
                        1 => put_i64(out, r.end_time.seconds()),
                        2 => put_u32(out, u32::from(r.job)),
                        3 => put_u32(out, u32::from(r.task)),
                        4 => put_u32(out, r.seq),
                        5 => put_u32(out, r.total),
                        6 => put_u32(out, u32::from(r.machine)),
                        7 => put_u32(out, status_code(r.status)),
                        8 => put_f64(out, r.cpu_avg),
                        9 => put_f64(out, r.cpu_max),
                        10 => put_f64(out, r.mem_avg),
                        _ => put_f64(out, r.mem_max),
                    }
                }
            },
        )
    }

    /// Writes the `server_usage` family; `rows` ascend by `(machine,
    /// time)`, as [`TraceDataset::usage_records`] returns them (segments
    /// are keyed by machine). Machine-major order means the merged stream
    /// at open time is already grouped per machine — the usage build slices
    /// it linearly instead of re-bucketing a time-major stream row by row.
    /// Utilization fractions round-trip bit-exactly (stored as raw f64).
    pub fn write_usage(&mut self, rows: &[ServerUsageRecord]) -> Result<usize, TraceError> {
        debug_assert!(rows.is_sorted_by_key(|r| (r.machine, r.time)));
        self.write_family(
            Family::ServerUsage,
            rows,
            |r| i64::from(u32::from(r.machine)),
            |out: &mut Vec<u8>, rows: &[ServerUsageRecord], c: usize| {
                for r in rows {
                    match c {
                        0 => put_i64(out, r.time.seconds()),
                        1 => put_u32(out, u32::from(r.machine)),
                        2 => put_f64(out, r.util.cpu.fraction()),
                        3 => put_f64(out, r.util.mem.fraction()),
                        _ => put_f64(out, r.util.disk.fraction()),
                    }
                }
            },
        )
    }

    /// Writes the `machine_events` family; `rows` ascend by `(time,
    /// machine)`.
    pub fn write_events(&mut self, rows: &[MachineEventRecord]) -> Result<usize, TraceError> {
        debug_assert!(rows.is_sorted_by_key(|r| (r.time, r.machine)));
        self.write_family(
            Family::MachineEvents,
            rows,
            |r| r.time.seconds(),
            |out: &mut Vec<u8>, rows: &[MachineEventRecord], c: usize| {
                for r in rows {
                    match c {
                        0 => put_i64(out, r.time.seconds()),
                        1 => put_u32(out, u32::from(r.machine)),
                        2 => put_u32(out, event_code(r.event)),
                        3 => put_f64(out, r.capacity_cpu),
                        4 => put_f64(out, r.capacity_mem),
                        _ => put_f64(out, r.capacity_disk),
                    }
                }
            },
        )
    }

    /// Writes the machine capacity table; `rows` ascend by machine id.
    pub fn write_machines(
        &mut self,
        rows: &[(MachineId, MachineInfo)],
    ) -> Result<usize, TraceError> {
        debug_assert!(rows.is_sorted_by_key(|r| r.0));
        self.write_family(
            Family::Machines,
            rows,
            |r| i64::from(u32::from(r.0)),
            |out: &mut Vec<u8>, rows: &[(MachineId, MachineInfo)], c: usize| {
                for (m, info) in rows {
                    match c {
                        0 => put_u32(out, u32::from(*m)),
                        1 => put_f64(out, info.capacity_cpu),
                        2 => put_f64(out, info.capacity_mem),
                        _ => put_f64(out, info.capacity_disk),
                    }
                }
            },
        )
    }

    fn write_family<T>(
        &mut self,
        family: Family,
        sorted: &[T],
        key: impl Fn(&T) -> i64,
        encode_col: impl Fn(&mut Vec<u8>, &[T], usize),
    ) -> Result<usize, TraceError> {
        let mut written = 0;
        for (idx, chunk) in sorted.chunks(self.cfg.segment_rows).enumerate() {
            let path = self.dir.join(format!("{}-{idx:05}.seg", family.table()));
            let min_key = key(&chunk[0]);
            let max_key = key(&chunk[chunk.len() - 1]);
            let bytes = encode_segment(family, chunk, min_key, max_key, &encode_col);
            write_segment_file(&path, &bytes)?;
            written += 1;
        }
        self.segments_written += written;
        Ok(written)
    }
}

fn encode_segment<T>(
    family: Family,
    rows: &[T],
    min_key: i64,
    max_key: i64,
    encode_col: &impl Fn(&mut Vec<u8>, &[T], usize),
) -> Vec<u8> {
    let cols = family.columns();
    let mut out = Vec::with_capacity(HEADER_LEN + rows.len() * family.row_width());
    put_u32(&mut out, MAGIC);
    put_u32(&mut out, family.tag());
    put_u64(&mut out, rows.len() as u64);
    put_u32(&mut out, cols.len() as u32);
    put_u32(&mut out, 0);
    debug_assert_eq!(out.len(), HEADER_LEN);
    let header_crc = crc32(&out);

    let mut entries: Vec<(u64, u64, u32)> = Vec::with_capacity(cols.len());
    for (c, col) in cols.iter().enumerate() {
        let start = out.len();
        encode_col(&mut out, rows, c);
        let len = out.len() - start;
        debug_assert_eq!(len, rows.len() * col.kind.width());
        entries.push((start as u64, len as u64, crc32(&out[start..])));
    }

    let footer_start = out.len();
    for (off, len, crc) in entries {
        put_u64(&mut out, off);
        put_u64(&mut out, len);
        put_u32(&mut out, crc);
    }
    put_i64(&mut out, min_key);
    put_i64(&mut out, max_key);
    put_u32(&mut out, header_crc);
    let footer_len = (out.len() - footer_start) + 4 + 4 + 4;
    put_u32(&mut out, footer_len as u32);
    put_u32(&mut out, TAIL_MAGIC);
    let footer_crc = crc32(&out[footer_start..]);
    put_u32(&mut out, footer_crc);
    out
}

/// Writes (and fsyncs) one sealed segment, honoring the
/// [`FAILPOINT_WRITE`] site: an injected `ShortWrite(n)` persists exactly
/// the first `n` bytes — a torn segment on disk — before erroring, exactly
/// like the WAL's append seam.
fn write_segment_file(path: &Path, bytes: &[u8]) -> Result<(), TraceError> {
    let mut file = fs::File::create(path).map_err(|e| io_err("create", path, e))?;
    match batchlens_fault::fire(FAILPOINT_WRITE) {
        None => {}
        Some(batchlens_fault::Fault::ShortWrite(n)) => {
            let n = n.min(bytes.len());
            file.write_all(&bytes[..n])
                .and_then(|_| file.sync_data())
                .map_err(|e| io_err("write", path, e))?;
            return Err(io_err(
                "write",
                path,
                batchlens_fault::injected_io_error(FAILPOINT_WRITE),
            ));
        }
        Some(_) => {
            return Err(io_err(
                "write",
                path,
                batchlens_fault::injected_io_error(FAILPOINT_WRITE),
            ));
        }
    }
    file.write_all(bytes)
        .and_then(|_| file.sync_data())
        .map_err(|e| io_err("write", path, e))
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A zero-copy view of one column's cells inside a mapped segment.
#[derive(Debug, Clone, Copy)]
pub struct ColumnScan<'a> {
    bytes: &'a [u8],
    kind: ColKind,
}

impl<'a> ColumnScan<'a> {
    /// Number of cells.
    pub fn len(&self) -> usize {
        self.bytes.len() / self.kind.width()
    }

    /// True when the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The cell kind.
    pub fn kind(&self) -> ColKind {
        self.kind
    }

    /// Cell `i` as i64 (must be an [`ColKind::I64`] column).
    pub fn i64_at(&self, i: usize) -> i64 {
        debug_assert_eq!(self.kind, ColKind::I64);
        let off = i * 8;
        i64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap())
    }

    /// Cell `i` as u32 (must be a [`ColKind::U32`] column).
    pub fn u32_at(&self, i: usize) -> u32 {
        debug_assert_eq!(self.kind, ColKind::U32);
        let off = i * 4;
        u32::from_le_bytes(self.bytes[off..off + 4].try_into().unwrap())
    }

    /// Cell `i` as f64 (must be an [`ColKind::F64`] column).
    pub fn f64_at(&self, i: usize) -> f64 {
        debug_assert_eq!(self.kind, ColKind::F64);
        let off = i * 8;
        f64::from_bits(u64::from_le_bytes(
            self.bytes[off..off + 8].try_into().unwrap(),
        ))
    }

    /// Sum of an f64 column, accumulated in cell order — the column-scan
    /// kernel the `segment_scan_*` bench rows time against an in-RAM
    /// record-slice walk.
    pub fn sum_f64(&self) -> f64 {
        debug_assert_eq!(self.kind, ColKind::F64);
        let mut acc = 0.0;
        for chunk in self.bytes.chunks_exact(8) {
            acc += f64::from_bits(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        acc
    }
}

/// A sealed, validated, memory-mapped segment.
///
/// # Durability contract
///
/// `open` returns only after the tail magic, the footer CRC, the header
/// CRC and **every column CRC** have verified against the mapped bytes, so
/// a reader in hand is proof the segment is exactly what its writer
/// sealed. All scans after that are zero-copy reads of the mapped region;
/// the file must not be truncated while the reader lives (BatchLens
/// segments are immutable once sealed).
#[derive(Debug)]
pub struct SegmentReader {
    name: String,
    family: Family,
    rows: usize,
    min_key: i64,
    max_key: i64,
    cols: Vec<(usize, usize)>,
    map: memmap2::Mmap,
}

impl SegmentReader {
    /// Maps and validates the segment at `path` (mmap-backed where the
    /// platform allows, buffered otherwise).
    pub fn open(path: &Path) -> Result<SegmentReader, TraceError> {
        if batchlens_fault::fire(FAILPOINT_MMAP).is_some() {
            return Err(io_err(
                "map",
                path,
                batchlens_fault::injected_io_error(FAILPOINT_MMAP),
            ));
        }
        let map = memmap2::Mmap::open(path).map_err(|e| io_err("map", path, e))?;
        SegmentReader::from_map(path, map)
    }

    /// Opens the segment through the portable buffered backend
    /// unconditionally — the eager twin of the lazy [`SegmentReader::open`],
    /// used by the differential suite to prove the two backends are
    /// observationally identical.
    pub fn open_buffered(path: &Path) -> Result<SegmentReader, TraceError> {
        if batchlens_fault::fire(FAILPOINT_MMAP).is_some() {
            return Err(io_err(
                "map",
                path,
                batchlens_fault::injected_io_error(FAILPOINT_MMAP),
            ));
        }
        let map = memmap2::Mmap::open_buffered(path).map_err(|e| io_err("read", path, e))?;
        SegmentReader::from_map(path, map)
    }

    fn from_map(path: &Path, map: memmap2::Mmap) -> Result<SegmentReader, TraceError> {
        let data: &[u8] = &map;
        let len = data.len();
        if len < HEADER_LEN + FOOTER_FIXED {
            return Err(corrupt(path, 0, len as u64, "file too short for a segment"));
        }
        // Tail: footer_len | tail magic | footer crc.
        let tail = &data[len - 12..];
        let footer_len = u32::from_le_bytes(tail[0..4].try_into().unwrap()) as usize;
        let tail_magic = u32::from_le_bytes(tail[4..8].try_into().unwrap());
        let footer_crc = u32::from_le_bytes(tail[8..12].try_into().unwrap());
        if tail_magic != TAIL_MAGIC {
            return Err(corrupt(path, (len - 8) as u64, 4, "bad tail magic"));
        }
        if footer_len < FOOTER_FIXED || footer_len > len - HEADER_LEN {
            return Err(corrupt(
                path,
                (len - 12) as u64,
                12,
                "footer length out of bounds",
            ));
        }
        let footer_start = len - footer_len;
        // The footer CRC covers everything from footer start up to (not
        // including) the trailing crc itself — so footer_len and the tail
        // magic are covered too.
        if crc32(&data[footer_start..len - 4]) != footer_crc {
            return Err(corrupt(
                path,
                footer_start as u64,
                footer_len as u64,
                "footer checksum mismatch",
            ));
        }
        // The header CRC lives in the (now trusted) footer.
        let header_crc = u32::from_le_bytes(data[len - 16..len - 12].try_into().unwrap());
        if crc32(&data[..HEADER_LEN]) != header_crc {
            return Err(corrupt(
                path,
                0,
                HEADER_LEN as u64,
                "header checksum mismatch",
            ));
        }

        let mut h = Cursor::new(&data[..HEADER_LEN]);
        let magic = h.u32().unwrap_or(0);
        let tag = h.u32().unwrap_or(0);
        let rows = h.u64().unwrap_or(0);
        let ncols = h.u32().unwrap_or(0);
        if magic != MAGIC {
            return Err(corrupt(path, 0, 4, "bad segment magic"));
        }
        let family = Family::from_tag(tag)
            .ok_or_else(|| corrupt(path, 4, 4, format!("unknown family tag {tag}")))?;
        let cols = family.columns();
        if ncols as usize != cols.len() {
            return Err(corrupt(
                path,
                16,
                4,
                format!("expected {} columns, header says {ncols}", cols.len()),
            ));
        }
        if rows > MAX_SEGMENT_ROWS as u64 {
            return Err(corrupt(path, 8, 8, format!("row count {rows} over limit")));
        }
        let rows = rows as usize;
        if footer_len != cols.len() * COL_ENTRY + FOOTER_FIXED {
            return Err(corrupt(
                path,
                (len - 12) as u64,
                12,
                "footer length disagrees with column count",
            ));
        }
        if HEADER_LEN + rows * family.row_width() != footer_start {
            return Err(corrupt(path, 8, 8, "row count disagrees with file length"));
        }

        let mut f = Cursor::new(&data[footer_start..len - 4]);
        let mut col_ranges = Vec::with_capacity(cols.len());
        let mut expected_off = HEADER_LEN;
        for (c, spec) in cols.iter().enumerate() {
            let off = f.u64().unwrap_or(0) as usize;
            let clen = f.u64().unwrap_or(0) as usize;
            let crc = f.u32().unwrap_or(0);
            if off != expected_off || clen != rows * spec.kind.width() {
                return Err(corrupt(
                    path,
                    (footer_start + c * COL_ENTRY) as u64,
                    COL_ENTRY as u64,
                    format!("column {} ({}) layout mismatch", c, spec.name),
                ));
            }
            if crc32(&data[off..off + clen]) != crc {
                return Err(corrupt(
                    path,
                    off as u64,
                    clen as u64,
                    format!("column {} ({}) checksum mismatch", c, spec.name),
                ));
            }
            col_ranges.push((off, clen));
            expected_off += clen;
        }
        let min_key = f.i64().unwrap_or(0);
        let max_key = f.i64().unwrap_or(0);

        Ok(SegmentReader {
            name: path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string()),
            family,
            rows,
            min_key,
            max_key,
            cols: col_ranges,
            map,
        })
    }

    /// The segment's record family.
    pub fn family(&self) -> Family {
        self.family
    }

    /// The segment's file name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rows in this segment.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Smallest family key in the segment (see [`Family::key_of_row`]).
    pub fn min_key(&self) -> i64 {
        self.min_key
    }

    /// Largest family key in the segment.
    pub fn max_key(&self) -> i64 {
        self.max_key
    }

    /// Whether the bytes are an actual memory map (false = buffered
    /// fallback).
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// Zero-copy scan of column `idx` (panics on an out-of-range index —
    /// the schema is static per family, so that is a caller bug, not a
    /// data condition).
    pub fn column(&self, idx: usize) -> ColumnScan<'_> {
        let (off, len) = self.cols[idx];
        ColumnScan {
            bytes: &self.map[off..off + len],
            kind: self.family.columns()[idx].kind,
        }
    }

    fn expect_family(&self, family: Family) -> Result<(), TraceError> {
        if self.family == family {
            Ok(())
        } else {
            Err(TraceError::NotFound {
                entity: format!(
                    "{} rows in segment {} (family {})",
                    family.table(),
                    self.name,
                    self.family.table()
                ),
            })
        }
    }

    /// [`TraceError::CorruptSegment`] over the cell at (`col`, `row`).
    fn cell_err(&self, col: usize, row: usize, message: String) -> TraceError {
        let (off, _) = self.cols[col];
        let w = self.family.columns()[col].kind.width();
        TraceError::CorruptSegment {
            segment: self.name.clone(),
            offset: (off + row * w) as u64,
            len: w as u64,
            message,
        }
    }

    /// The error for a row that breaks its family's sort order, over the
    /// row's leading key cell.
    fn out_of_order(&self, row: usize) -> TraceError {
        let lead = match self.family {
            Family::BatchTask | Family::BatchInstance => 2,
            Family::ServerUsage => 1,
            Family::MachineEvents | Family::Machines => 0,
        };
        let table = self.family.table();
        self.cell_err(
            lead,
            row,
            format!("row {row} breaks the {table} sort order"),
        )
    }

    /// Decodes every row of a `batch_task` segment, in stored (sorted)
    /// order.
    pub fn tasks(&self) -> Result<Vec<BatchTaskRecord>, TraceError> {
        self.expect_family(Family::BatchTask)?;
        let (create, modify) = (self.column(0), self.column(1));
        let (job, task) = (self.column(2), self.column(3));
        let (count, status) = (self.column(4), self.column(5));
        let (cpu, mem) = (self.column(6), self.column(7));
        (0..self.rows)
            .map(|i| {
                Ok(BatchTaskRecord {
                    create_time: Timestamp::new(create.i64_at(i)),
                    modify_time: Timestamp::new(modify.i64_at(i)),
                    job: JobId::new(job.u32_at(i)),
                    task: TaskId::new(task.u32_at(i)),
                    instance_count: count.u32_at(i),
                    status: status_from_code(status.u32_at(i))
                        .ok_or_else(|| self.cell_err(5, i, "undecodable task status".into()))?,
                    plan_cpu: cpu.f64_at(i),
                    plan_mem: mem.f64_at(i),
                })
            })
            .collect()
    }

    /// Decodes every row of a `batch_instance` segment, in stored order.
    pub fn instances(&self) -> Result<Vec<BatchInstanceRecord>, TraceError> {
        self.expect_family(Family::BatchInstance)?;
        let (start, end) = (self.column(0), self.column(1));
        let (job, task, seq) = (self.column(2), self.column(3), self.column(4));
        let (total, machine, status) = (self.column(5), self.column(6), self.column(7));
        let (ca, cm) = (self.column(8), self.column(9));
        let (ma, mm) = (self.column(10), self.column(11));
        (0..self.rows)
            .map(|i| {
                Ok(BatchInstanceRecord {
                    start_time: Timestamp::new(start.i64_at(i)),
                    end_time: Timestamp::new(end.i64_at(i)),
                    job: JobId::new(job.u32_at(i)),
                    task: TaskId::new(task.u32_at(i)),
                    seq: seq.u32_at(i),
                    total: total.u32_at(i),
                    machine: MachineId::new(machine.u32_at(i)),
                    status: status_from_code(status.u32_at(i))
                        .ok_or_else(|| self.cell_err(7, i, "undecodable instance status".into()))?,
                    cpu_avg: ca.f64_at(i),
                    cpu_max: cm.f64_at(i),
                    mem_avg: ma.f64_at(i),
                    mem_max: mm.f64_at(i),
                })
            })
            .collect()
    }

    /// Decodes every row of a `server_usage` segment, in stored order.
    pub fn usage(&self) -> Result<Vec<ServerUsageRecord>, TraceError> {
        self.expect_family(Family::ServerUsage)?;
        let (time, machine) = (self.column(0), self.column(1));
        let (cpu, mem, disk) = (self.column(2), self.column(3), self.column(4));
        Ok((0..self.rows)
            .map(|i| ServerUsageRecord {
                time: Timestamp::new(time.i64_at(i)),
                machine: MachineId::new(machine.u32_at(i)),
                util: UtilizationTriple::clamped(cpu.f64_at(i), mem.f64_at(i), disk.f64_at(i)),
            })
            .collect())
    }

    /// Decodes every row of a `machine_events` segment, in stored order.
    pub fn events(&self) -> Result<Vec<MachineEventRecord>, TraceError> {
        self.expect_family(Family::MachineEvents)?;
        let (time, machine, event) = (self.column(0), self.column(1), self.column(2));
        let (cc, cm, cd) = (self.column(3), self.column(4), self.column(5));
        (0..self.rows)
            .map(|i| {
                Ok(MachineEventRecord {
                    time: Timestamp::new(time.i64_at(i)),
                    machine: MachineId::new(machine.u32_at(i)),
                    event: event_from_code(event.u32_at(i))
                        .ok_or_else(|| self.cell_err(2, i, "undecodable machine event".into()))?,
                    capacity_cpu: cc.f64_at(i),
                    capacity_mem: cm.f64_at(i),
                    capacity_disk: cd.f64_at(i),
                })
            })
            .collect()
    }

    /// Decodes every row of a machine-capacity segment, in stored order.
    pub fn machines(&self) -> Result<Vec<(MachineId, MachineInfo)>, TraceError> {
        self.expect_family(Family::Machines)?;
        let (machine, cc) = (self.column(0), self.column(1));
        let (cm, cd) = (self.column(2), self.column(3));
        Ok((0..self.rows)
            .map(|i| {
                (
                    MachineId::new(machine.u32_at(i)),
                    MachineInfo {
                        capacity_cpu: cc.f64_at(i),
                        capacity_mem: cm.f64_at(i),
                        capacity_disk: cd.f64_at(i),
                    },
                )
            })
            .collect())
    }
}

// ---------------------------------------------------------------------------
// Directory-level store
// ---------------------------------------------------------------------------

/// Lists the segment files in `dir`, name-sorted — which is `(family,
/// chunk index)` order, since writers name segments
/// `{family}-{index:05}.seg`.
pub fn list_store_segments(dir: &Path) -> Result<Vec<PathBuf>, TraceError> {
    let mut out = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err("read dir", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read dir", dir, e))?;
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "seg") {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// An opened segment directory: every segment mapped (pages still lazy)
/// and validated, grouped by family in chunk order.
#[derive(Debug)]
pub struct SegmentStore {
    segments: Vec<SegmentReader>,
}

impl SegmentStore {
    /// Opens every segment in `dir` (mmap-backed).
    pub fn open(dir: &Path) -> Result<SegmentStore, TraceError> {
        SegmentStore::open_with(dir, SegmentReader::open)
    }

    /// Opens every segment in `dir` through the buffered fallback.
    pub fn open_buffered(dir: &Path) -> Result<SegmentStore, TraceError> {
        SegmentStore::open_with(dir, SegmentReader::open_buffered)
    }

    fn open_with(
        dir: &Path,
        open: impl Fn(&Path) -> Result<SegmentReader, TraceError>,
    ) -> Result<SegmentStore, TraceError> {
        let paths = list_store_segments(dir)?;
        let mut segments = Vec::with_capacity(paths.len());
        for path in &paths {
            let seg = open(path)?;
            let expected = Family::from_table(
                path.file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default()
                    .rsplit_once('-')
                    .map(|(table, _)| table.to_string())
                    .unwrap_or_default()
                    .as_str(),
            );
            if expected != Some(seg.family()) {
                return Err(corrupt(
                    path,
                    4,
                    4,
                    format!(
                        "file name family disagrees with header ({})",
                        seg.family().table()
                    ),
                ));
            }
            segments.push(seg);
        }
        // Consecutive segments of one family must be non-overlapping
        // ascending key ranges — the writer seals sorted chunks in order.
        for pair in segments.windows(2) {
            if pair[0].family() == pair[1].family() && pair[0].max_key() > pair[1].min_key() {
                return Err(TraceError::CorruptSegment {
                    segment: pair[1].name().to_string(),
                    offset: 0,
                    len: 0,
                    message: format!("key range overlaps previous segment {}", pair[0].name()),
                });
            }
        }
        Ok(SegmentStore { segments })
    }

    /// All segments, in `(family, chunk index)` order.
    pub fn segments(&self) -> &[SegmentReader] {
        &self.segments
    }

    /// The segments of one family, in chunk order.
    pub fn family_segments(&self, family: Family) -> impl Iterator<Item = &SegmentReader> + '_ {
        self.segments.iter().filter(move |s| s.family() == family)
    }

    /// Total rows across the segments of one family.
    pub fn family_rows(&self, family: Family) -> usize {
        self.family_segments(family)
            .map(SegmentReader::row_count)
            .sum()
    }
}

/// Dumps a built dataset into `dir` as columnar segments — the
/// segment-backed payload `batchlens::durability` adds next to the
/// canonical CSVs. Re-opening via [`TraceDataset::open`] rebuilds the
/// dataset **bit-identically** (the store round-trips every f64 raw).
pub fn dump_dataset(dir: &Path, ds: &TraceDataset) -> Result<StoreReport, TraceError> {
    dump_dataset_with(dir, ds, StoreConfig::default())
}

/// [`dump_dataset`] with an explicit segment size.
pub fn dump_dataset_with(
    dir: &Path,
    ds: &TraceDataset,
    cfg: StoreConfig,
) -> Result<StoreReport, TraceError> {
    let mut w = SegmentWriter::with_config(dir, cfg)?;
    let tasks: Vec<BatchTaskRecord> = ds.task_records().copied().collect();
    let usage = ds.usage_records();
    let machines: Vec<(MachineId, MachineInfo)> =
        ds.machines().map(|m| (m.id(), m.info())).collect();
    w.write_tasks(&tasks)?;
    w.write_instances(ds.instance_records())?;
    w.write_usage(&usage)?;
    w.write_events(ds.machine_events())?;
    w.write_machines(&machines)?;
    Ok(StoreReport {
        rows: [
            tasks.len(),
            ds.instance_records().len(),
            usage.len(),
            ds.machine_events().len(),
            machines.len(),
        ],
        segments: w.segments_written(),
    })
}

/// Concatenates one family's decoded runs in segment order, checking the
/// family's sort key on the way. The writer seals consecutive chunks of
/// sorted rows, so for any store it wrote the concatenation *is* the
/// sorted table; the first row that breaks the order is
/// [`TraceError::CorruptSegment`] in the segment that holds it.
fn concat_runs<T: Copy, K: Ord>(
    runs: Vec<(&SegmentReader, Vec<T>)>,
    key: impl Fn(&T) -> K,
) -> Result<Vec<T>, TraceError> {
    let mut out: Vec<T> = Vec::with_capacity(runs.iter().map(|(_, r)| r.len()).sum());
    for (seg, run) in runs {
        let mut prev = out.last().map(&key);
        for (row, rec) in run.iter().enumerate() {
            let k = key(rec);
            if prev.is_some_and(|p| p > k) {
                return Err(seg.out_of_order(row));
            }
            prev = Some(k);
        }
        out.extend_from_slice(&run);
    }
    Ok(out)
}

/// The decoded rows of one non-usage segment, tagged by family — the unit
/// of parallel decode in [`TraceDataset::open`]. Usage has no variant:
/// its series build straight from the mapped columns (see
/// [`usage_series_from_columns`]).
enum DecodedSegment {
    Tasks(Vec<BatchTaskRecord>),
    Instances(Vec<BatchInstanceRecord>),
    Events(Vec<MachineEventRecord>),
    Machines(Vec<(MachineId, MachineInfo)>),
}

fn decode_segment(seg: &SegmentReader) -> Result<DecodedSegment, TraceError> {
    Ok(match seg.family() {
        Family::BatchTask => DecodedSegment::Tasks(seg.tasks()?),
        Family::BatchInstance => DecodedSegment::Instances(seg.instances()?),
        Family::ServerUsage => unreachable!("usage segments are filtered before decode fan-out"),
        Family::MachineEvents => DecodedSegment::Events(seg.events()?),
        Family::Machines => DecodedSegment::Machines(seg.machines()?),
    })
}

/// Builds each machine's usage straight from the mapped usage columns — no
/// `ServerUsageRecord` ever materializes. The machine-major sort makes each
/// machine's samples a contiguous slice of every column (possibly spanning
/// consecutive segments), so a machine's usage is its verified time grid,
/// moved in, and three clamped value-column copies.
///
/// Machines must not decrease, and times must ascend strictly within one
/// machine. The walk below visits the rows in store order, so the first
/// row that breaks either is the [`TraceError::CorruptSegment`] returned,
/// in the segment that holds it.
fn usage_series_from_columns(
    segs: &[&SegmentReader],
) -> Result<Vec<(MachineId, MachineUsage)>, TraceError> {
    // Machine runs in store order: (machine, segment index, row range).
    let mut runs: Vec<(u32, usize, usize, usize)> = Vec::new();
    for (s, seg) in segs.iter().enumerate() {
        let col = seg.column(1);
        let rows = seg.row_count();
        let mut lo = 0;
        while lo < rows {
            let m = col.u32_at(lo);
            let mut hi = lo + 1;
            while hi < rows && col.u32_at(hi) == m {
                hi += 1;
            }
            runs.push((m, s, lo, hi));
            lo = hi;
        }
    }

    let mut out: Vec<(MachineId, MachineUsage)> = Vec::new();
    let mut idx = 0;
    while idx < runs.len() {
        let (machine, first_seg, first_row, _) = runs[idx];
        if out
            .last()
            .is_some_and(|(prev, _)| u32::from(*prev) > machine)
        {
            return Err(segs[first_seg].out_of_order(first_row));
        }
        let mut end = idx + 1;
        while end < runs.len() && runs[end].0 == machine {
            end += 1;
        }
        let group = &runs[idx..end];
        let total: usize = group.iter().map(|&(_, _, lo, hi)| hi - lo).sum();

        let mut times: Vec<Timestamp> = Vec::with_capacity(total);
        let mut last: Option<i64> = None;
        for &(_, s, lo, hi) in group {
            let tcol = segs[s].column(0);
            for i in lo..hi {
                let t = tcol.i64_at(i);
                if last.is_some_and(|l| t <= l) {
                    return Err(segs[s].out_of_order(i));
                }
                last = Some(t);
                times.push(Timestamp::new(t));
            }
        }
        let metric = |c: usize| -> Vec<f64> {
            let mut vals: Vec<f64> = Vec::with_capacity(total);
            for &(_, s, lo, hi) in group {
                let col = segs[s].column(c);
                for i in lo..hi {
                    // The same per-component clamp the record decode +
                    // builder path applies (`UtilizationTriple::clamped`
                    // clamps each metric independently).
                    vals.push(Utilization::clamped(col.f64_at(i)).fraction());
                }
            }
            vals
        };
        let values = [metric(2), metric(3), metric(4)];
        out.push((MachineId::new(machine), MachineUsage { times, values }));
        idx = end;
    }
    Ok(out)
}

fn build_from_store(store: &SegmentStore, threads: usize) -> Result<TraceDataset, TraceError> {
    let threads = batchlens_exec::resolve_threads(threads);
    // One decode task per non-usage segment on the exec pool; results come
    // back in segment order, so the per-family run lists are deterministic.
    // Usage — by far the largest family — is *not* decoded into records:
    // its series build straight from the mapped columns.
    let segs: Vec<&SegmentReader> = store
        .segments()
        .iter()
        .filter(|s| s.family() != Family::ServerUsage)
        .collect();
    let decoded = batchlens_exec::try_par_map(threads, &segs, |seg| decode_segment(seg))?;

    let mut task_runs = Vec::new();
    let mut instance_runs = Vec::new();
    let mut event_runs = Vec::new();
    let mut machines: Vec<(MachineId, MachineInfo)> = Vec::new();
    for (&seg, part) in segs.iter().zip(decoded) {
        match part {
            DecodedSegment::Tasks(r) => task_runs.push((seg, r)),
            DecodedSegment::Instances(r) => instance_runs.push((seg, r)),
            DecodedSegment::Events(r) => event_runs.push((seg, r)),
            DecodedSegment::Machines(mut r) => machines.append(&mut r),
        }
    }
    let usage_segs: Vec<&SegmentReader> = store.family_segments(Family::ServerUsage).collect();
    // Every table verified in store order: the trusted build runs the
    // builder's validations but none of its sorts or row-at-a-time
    // re-bucketing.
    TraceDataset::from_sorted_tables(
        crate::dataset::SortedTables {
            tasks: concat_runs(task_runs, |r: &BatchTaskRecord| (r.job, r.task))?,
            instances: concat_runs(instance_runs, |r: &BatchInstanceRecord| {
                (r.job, r.task, r.seq)
            })?,
            usage: usage_series_from_columns(&usage_segs)?,
            events: concat_runs(event_runs, |r: &MachineEventRecord| (r.time, r.machine))?,
            machines,
        },
        threads,
    )
}

impl TraceDataset {
    /// Opens a dataset from a columnar segment directory written by
    /// [`dump_dataset`] / [`SegmentWriter`] — the second construction path
    /// next to the CSV parse, and the fast one: segments map lazily,
    /// checksums verify against the mapped bytes, the sorted per-family
    /// runs concatenate after a linear order check, machine-major usage
    /// columns build per-machine series without materializing records,
    /// and the pre-sorted tables skip the builder's re-sorts on the way
    /// into the sharded index build. The result is
    /// **bit-identical** to the in-RAM build from the same tables (the
    /// workspace `store_differential` suite enforces it across the full
    /// [`crate::DatasetQuery`] surface).
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] for OS-level failures (a missing directory
    /// included), [`TraceError::CorruptSegment`] for torn or bit-flipped
    /// segments and for rows out of their family's sort order (never a
    /// panic), and the usual builder errors for semantically invalid
    /// tables.
    pub fn open(dir: &Path) -> Result<TraceDataset, TraceError> {
        TraceDataset::open_with_threads(dir, 0)
    }

    /// [`TraceDataset::open`] with an explicit worker-thread count (`0` =
    /// process default, `1` = serial). The dataset is bit-identical at
    /// every thread count.
    pub fn open_with_threads(dir: &Path, threads: usize) -> Result<TraceDataset, TraceError> {
        let store = SegmentStore::open(dir)?;
        build_from_store(&store, threads)
    }

    /// [`TraceDataset::open`] through the buffered (non-mmap) backend —
    /// the eager twin the differential suite compares against the lazy
    /// mapped open.
    pub fn open_buffered(dir: &Path) -> Result<TraceDataset, TraceError> {
        let store = SegmentStore::open_buffered(dir)?;
        build_from_store(&store, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetQuery, TraceDatasetBuilder};
    use batchlens_fault::{arm, Fault, FaultSpec, Trigger};

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "batchlens-store-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_dataset() -> TraceDataset {
        let mut b = TraceDatasetBuilder::new();
        for job in 1..=3u32 {
            b.push_task(BatchTaskRecord {
                create_time: Timestamp::new(0),
                modify_time: Timestamp::new(900),
                job: JobId::new(job),
                task: TaskId::new(1),
                instance_count: 2,
                status: TaskStatus::Terminated,
                plan_cpu: 1.5,
                plan_mem: 0.25,
            });
            for seq in 0..2 {
                b.push_instance(BatchInstanceRecord {
                    start_time: Timestamp::new(60 * i64::from(job)),
                    end_time: Timestamp::new(600 + 60 * i64::from(seq)),
                    job: JobId::new(job),
                    task: TaskId::new(1),
                    seq,
                    total: 2,
                    machine: MachineId::new(seq + job),
                    status: TaskStatus::Terminated,
                    cpu_avg: 0.5,
                    cpu_max: 0.75,
                    mem_avg: 0.25,
                    mem_max: 0.5,
                });
            }
        }
        for t in 0..5 {
            for m in 1..=4u32 {
                b.push_usage(ServerUsageRecord {
                    time: Timestamp::new(t * 300),
                    machine: MachineId::new(m),
                    util: UtilizationTriple::clamped(0.1 * f64::from(m), 0.05 * f64::from(m), 0.3),
                });
            }
        }
        b.push_machine_event(MachineEventRecord {
            time: Timestamp::new(0),
            machine: MachineId::new(1),
            event: MachineEvent::Add,
            capacity_cpu: 64.0,
            capacity_mem: 1.0,
            capacity_disk: 1.0,
        });
        b.push_machine_event(MachineEventRecord {
            time: Timestamp::new(700),
            machine: MachineId::new(2),
            event: MachineEvent::Remove,
            capacity_cpu: 0.0,
            capacity_mem: 0.0,
            capacity_disk: 0.0,
        });
        b.build().unwrap()
    }

    #[test]
    fn dump_open_round_trips_bit_identically() {
        // Every test that writes or maps segments goes through the store
        // failpoint sites, so it holds the guard: another test's armed
        // schedule must not fire on its IO.
        let _guard = batchlens_fault::test_guard();
        let dir = temp_dir("roundtrip");
        let ds = sample_dataset();
        let report = dump_dataset(&dir, &ds).unwrap();
        assert_eq!(report.rows[0], 3);
        assert_eq!(report.rows[1], 6);
        assert!(report.segments >= 5);

        let reopened = TraceDataset::open(&dir).unwrap();
        assert_eq!(reopened, ds);
        for t in [0, 150, 600, 900] {
            let t = Timestamp::new(t);
            assert_eq!(reopened.frame(t), ds.frame(t), "frame({t})");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewriting_a_directory_keeps_only_the_new_store() {
        let _guard = batchlens_fault::test_guard();
        let dir = temp_dir("rewrite");
        let cfg = StoreConfig { segment_rows: 2 };
        dump_dataset_with(&dir, &sample_dataset(), cfg).unwrap();
        let mut b = TraceDatasetBuilder::new();
        b.push_usage(ServerUsageRecord {
            time: Timestamp::new(0),
            machine: MachineId::new(9),
            util: UtilizationTriple::clamped(0.5, 0.5, 0.5),
        });
        let small = b.build().unwrap();
        let report = dump_dataset_with(&dir, &small, cfg).unwrap();
        assert_eq!(list_store_segments(&dir).unwrap().len(), report.segments);
        assert_eq!(TraceDataset::open(&dir).unwrap(), small);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn usage_at_the_last_instant_builds_and_round_trips() {
        let _guard = batchlens_fault::test_guard();
        let mut b = TraceDatasetBuilder::new();
        for (t, cpu) in [(0, 0.25), (i64::MAX, 0.75)] {
            b.push_usage(ServerUsageRecord {
                time: Timestamp::new(t),
                machine: MachineId::new(1),
                util: UtilizationTriple::clamped(cpu, cpu / 2.0, cpu / 4.0),
            });
        }
        let ds = b.build().unwrap();
        let end = Timestamp::new(i64::MAX);
        assert_eq!(
            ds.span(),
            Some(crate::TimeRange::new(Timestamp::ZERO, end).unwrap())
        );
        assert_eq!(
            ds.util_at(MachineId::new(1), end),
            Some(UtilizationTriple::clamped(0.75, 0.375, 0.1875))
        );

        let dir = temp_dir("last-instant");
        dump_dataset(&dir, &ds).unwrap();
        assert_eq!(TraceDataset::open(&dir).unwrap(), ds);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn buffered_open_equals_mapped_open() {
        let _guard = batchlens_fault::test_guard();
        let dir = temp_dir("buffered");
        let ds = sample_dataset();
        dump_dataset(&dir, &ds).unwrap();
        let mapped = TraceDataset::open(&dir).unwrap();
        let buffered = TraceDataset::open_buffered(&dir).unwrap();
        assert_eq!(mapped, buffered);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn small_segments_split_and_merge_back() {
        let _guard = batchlens_fault::test_guard();
        let dir = temp_dir("split");
        let ds = sample_dataset();
        let report = dump_dataset_with(&dir, &ds, StoreConfig { segment_rows: 2 }).unwrap();
        assert!(report.segments > 5, "tiny segments must split families");
        let store = SegmentStore::open(&dir).unwrap();
        assert_eq!(store.family_rows(Family::ServerUsage), 20);
        assert!(store.family_segments(Family::ServerUsage).count() >= 10);
        let reopened = TraceDataset::open(&dir).unwrap();
        assert_eq!(reopened, ds);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_is_identical_at_every_thread_count() {
        let _guard = batchlens_fault::test_guard();
        let dir = temp_dir("threads");
        let ds = sample_dataset();
        dump_dataset_with(&dir, &ds, StoreConfig { segment_rows: 3 }).unwrap();
        let serial = TraceDataset::open_with_threads(&dir, 1).unwrap();
        let par = TraceDataset::open_with_threads(&dir, 8).unwrap();
        assert_eq!(serial, par);
        assert_eq!(serial, ds);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn column_scan_matches_record_walk() {
        let _guard = batchlens_fault::test_guard();
        let dir = temp_dir("scan");
        let ds = sample_dataset();
        dump_dataset(&dir, &ds).unwrap();
        let store = SegmentStore::open(&dir).unwrap();
        let seg = store
            .family_segments(Family::ServerUsage)
            .next()
            .expect("usage segment");
        let rows = seg.usage().unwrap();
        let scanned: f64 = seg.column(2).sum_f64();
        let walked: f64 = rows.iter().map(|r| r.util.cpu.fraction()).sum();
        assert_eq!(scanned.to_bits(), walked.to_bits());
        assert_eq!(seg.column(0).len(), rows.len());
        assert_eq!(seg.column(1).u32_at(0), u32::from(rows[0].machine));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_single_bit_flip_is_detected_with_its_region() {
        let _guard = batchlens_fault::test_guard();
        let dir = temp_dir("bitflip");
        let mut w = SegmentWriter::create(&dir).unwrap();
        let rows: Vec<ServerUsageRecord> = (0..8)
            .map(|i| ServerUsageRecord {
                time: Timestamp::new(i * 30),
                machine: MachineId::new(7),
                util: UtilizationTriple::clamped(0.5, 0.25, 0.125),
            })
            .collect();
        w.write_usage(&rows).unwrap();
        let path = list_store_segments(&dir).unwrap().remove(0);
        let clean = fs::read(&path).unwrap();
        SegmentReader::open(&path).unwrap();

        for byte in 0..clean.len() {
            for bit in 0..8u8 {
                let mut dirty = clean.clone();
                dirty[byte] ^= 1 << bit;
                fs::write(&path, &dirty).unwrap();
                let err = SegmentReader::open(&path)
                    .err()
                    .unwrap_or_else(|| panic!("flip at byte {byte} bit {bit} undetected"));
                match err {
                    TraceError::CorruptSegment {
                        segment,
                        offset,
                        len,
                        ..
                    } => {
                        assert_eq!(segment, path.file_name().unwrap().to_string_lossy());
                        let (off, len) = (offset as usize, len as usize);
                        assert!(
                            off <= byte && byte < off + len.max(1),
                            "flip at {byte} reported region {off}+{len}"
                        );
                    }
                    other => panic!("unexpected error kind: {other}"),
                }
            }
        }
        fs::write(&path, &clean).unwrap();
        SegmentReader::open(&path).unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_tail_is_a_typed_error() {
        let _guard = batchlens_fault::test_guard();
        let dir = temp_dir("torn");
        let mut w = SegmentWriter::create(&dir).unwrap();
        w.write_machines(&[(MachineId::new(1), MachineInfo::default())])
            .unwrap();
        let path = list_store_segments(&dir).unwrap().remove(0);
        let clean = fs::read(&path).unwrap();
        for keep in 0..clean.len() {
            fs::write(&path, &clean[..keep]).unwrap();
            assert!(
                matches!(
                    SegmentReader::open(&path),
                    Err(TraceError::CorruptSegment { .. })
                ),
                "truncation to {keep} bytes must be typed corruption"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_write_failpoint_leaves_torn_segment() {
        let _guard = batchlens_fault::test_guard();
        let dir = temp_dir("failpoint-short");
        arm(
            FAILPOINT_WRITE,
            FaultSpec::new(Fault::ShortWrite(40), Trigger::Nth(0)),
        );
        let mut w = SegmentWriter::create(&dir).unwrap();
        let err = w
            .write_machines(&[(MachineId::new(1), MachineInfo::default())])
            .unwrap_err();
        assert!(matches!(err, TraceError::Io { .. }));
        batchlens_fault::disarm_all();
        let path = list_store_segments(&dir).unwrap().remove(0);
        assert_eq!(fs::metadata(&path).unwrap().len(), 40);
        assert!(matches!(
            SegmentReader::open(&path),
            Err(TraceError::CorruptSegment { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mmap_failpoint_is_a_typed_io_error() {
        let _guard = batchlens_fault::test_guard();
        let dir = temp_dir("failpoint-map");
        let ds = sample_dataset();
        dump_dataset(&dir, &ds).unwrap();
        arm(
            FAILPOINT_MMAP,
            FaultSpec::new(Fault::Error, Trigger::Nth(0)),
        );
        let err = TraceDataset::open(&dir).unwrap_err();
        assert!(matches!(err, TraceError::Io { .. }));
        batchlens_fault::disarm_all();
        assert_eq!(TraceDataset::open(&dir).unwrap(), ds);
        fs::remove_dir_all(&dir).ok();
    }

    /// Re-seals `path` through the module's own encoder with rows copied
    /// from `(segment, row)` sources, so every checksum passes whatever
    /// the row order; the footer claims `keys`.
    fn reseal(path: &Path, rows: &[(&SegmentReader, usize)], keys: (i64, i64)) {
        let family = rows[0].0.family();
        let copy = |out: &mut Vec<u8>, rows: &[(&SegmentReader, usize)], c: usize| {
            let w = family.columns()[c].kind.width();
            for (seg, r) in rows {
                out.extend_from_slice(&seg.column(c).bytes[r * w..(r + 1) * w]);
            }
        };
        write_segment_file(path, &encode_segment(family, rows, keys.0, keys.1, &copy)).unwrap();
    }

    /// Dumps `ds` into a fresh directory and re-seals its segment `name`
    /// with the rows in `order`, footer keys unchanged.
    fn dump_and_reorder(ds: &TraceDataset, name: &str, order: &[usize]) -> PathBuf {
        let dir = temp_dir("order");
        dump_dataset(&dir, ds).unwrap();
        let path = dir.join(name);
        let seg = SegmentReader::open_buffered(&path).unwrap();
        let rows: Vec<(&SegmentReader, usize)> = order.iter().map(|&r| (&seg, r)).collect();
        reseal(&path, &rows, (seg.min_key(), seg.max_key()));
        dir
    }

    /// Both open paths answer `dir` with the out-of-order error for `row`
    /// of `segment`, never with a dataset.
    fn assert_out_of_order(dir: &Path, segment: &str, row: usize) {
        let expected = SegmentReader::open_buffered(&dir.join(segment))
            .unwrap()
            .out_of_order(row);
        let mapped = TraceDataset::open(dir).unwrap_err();
        let buffered = TraceDataset::open_buffered(dir).unwrap_err();
        assert_eq!(mapped, expected, "mapped: {segment} row {row}");
        assert_eq!(buffered, expected, "buffered: {segment} row {row}");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn out_of_order_rows_are_a_typed_error() {
        let _guard = batchlens_fault::test_guard();
        let ds = sample_dataset();
        // Two batch_task rows swapped: job 3 before job 2.
        let dir = dump_and_reorder(&ds, "batch_task-00000.seg", &[0, 2, 1]);
        assert_out_of_order(&dir, "batch_task-00000.seg", 2);

        // Usage rows are machine-major, five samples per machine: machine
        // 3's rows before machine 2's make the machine column decrease.
        let order: Vec<usize> = (0..5).chain(10..15).chain(5..10).chain(15..20).collect();
        let dir = dump_and_reorder(&ds, "server_usage-00000.seg", &order);
        assert_out_of_order(&dir, "server_usage-00000.seg", 10);

        // A repeated, then a decreasing, time within machine 1.
        for head in [[0, 1, 1], [0, 2, 1]] {
            let order: Vec<usize> = head.into_iter().chain(3..20).collect();
            let dir = dump_and_reorder(&ds, "server_usage-00000.seg", &order);
            assert_out_of_order(&dir, "server_usage-00000.seg", 2);
        }

        // Two machine_events segments whose footers still claim ascending
        // ranges ([0, 100] and [200, 300]) but whose rows interleave.
        let mut b = TraceDatasetBuilder::new();
        for (m, t) in [0, 100, 200, 300].into_iter().enumerate() {
            b.push_machine_event(MachineEventRecord {
                time: Timestamp::new(t),
                machine: MachineId::new(m as u32),
                event: MachineEvent::Add,
                capacity_cpu: 1.0,
                capacity_mem: 1.0,
                capacity_disk: 1.0,
            });
        }
        let dir = temp_dir("order");
        dump_dataset_with(&dir, &b.build().unwrap(), StoreConfig { segment_rows: 2 }).unwrap();
        let paths = [0, 1].map(|i| dir.join(format!("machine_events-0000{i}.seg")));
        let segs = paths
            .clone()
            .map(|p| SegmentReader::open_buffered(&p).unwrap());
        for (i, path) in paths.iter().enumerate() {
            let keys = (segs[i].min_key(), segs[i].max_key());
            reseal(path, &[(&segs[0], i), (&segs[1], i)], keys);
        }
        assert_out_of_order(&dir, "machine_events-00001.seg", 0);
    }

    #[test]
    fn empty_directory_opens_as_empty_dataset() {
        let dir = temp_dir("empty");
        let ds = TraceDataset::open(&dir).unwrap();
        assert_eq!(ds.machine_count(), 0);
        assert!(ds.span().is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_is_io_error() {
        let dir = temp_dir("missing");
        fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(
            TraceDataset::open(&dir),
            Err(TraceError::Io { .. })
        ));
    }

    #[test]
    fn wrong_family_scan_is_not_found() {
        let _guard = batchlens_fault::test_guard();
        let dir = temp_dir("family");
        let mut w = SegmentWriter::create(&dir).unwrap();
        w.write_machines(&[(MachineId::new(1), MachineInfo::default())])
            .unwrap();
        let path = list_store_segments(&dir).unwrap().remove(0);
        let seg = SegmentReader::open(&path).unwrap();
        assert!(matches!(seg.tasks(), Err(TraceError::NotFound { .. })));
        assert!(seg.machines().is_ok());
        fs::remove_dir_all(&dir).ok();
    }
}
