//! Write-ahead log: checksummed, length-prefixed binary record framing with
//! segment rotation — the durability substrate of the streaming monitor.
//!
//! Every delivery the live monitor accepts for processing (usage sample,
//! instance record, instance open/close, machine event) is encoded as one
//! [`WalRecord`] and appended as one *frame* before it is applied; a
//! sealed epoch appends its records and an [`WalRecord::EpochSealed`]
//! marker as one group. Because the monitor is deterministic — its
//! out-of-order acceptance decisions depend only on the records delivered
//! before — replaying the log reproduces the pre-crash state
//! **bit-identically**: every counter, every window sample, every detector
//! kernel state, every buffered alert.
//!
//! ## Frame format
//!
//! ```text
//! ┌─────────┬─────────┬─────────┬──────────────────────┐
//! │ len u32 │ seq u64 │ crc u32 │ payload (len bytes)  │   all little-endian
//! └─────────┴─────────┴─────────┴──────────────────────┘
//! ```
//!
//! * `len` — payload length in bytes (`1..=`[`MAX_PAYLOAD_BYTES`]).
//! * `seq` — monotonically increasing record sequence number.
//! * `crc` — CRC-32 (IEEE 802.3 polynomial) over `len ‖ seq ‖ payload`.
//!   Covering the length and sequence fields means a single-bit flip
//!   *anywhere* in the frame is detected: a flip in the protected region
//!   changes the checksum, and a flip in the `crc` field itself mismatches
//!   the recomputed value.
//! * `payload` — a one-byte record tag followed by the fixed-width body
//!   (integers little-endian, `f64` fields as IEEE-754 bit patterns, so
//!   round-trips are bit-exact).
//!
//! ## Segments
//!
//! Frames append to segment files named `{first_seq:020}.wal` inside the log
//! directory. When the active segment would exceed
//! [`WalConfig::segment_bytes`] the writer fsyncs it, seals it, and opens a
//! new segment named after the next sequence number. [`WalReader`] iterates
//! segments in name order and validates framing, checksums, and sequence
//! continuity; it **never panics on bad input** — a torn header, torn body,
//! bad length, checksum mismatch, sequence break, or undecodable payload
//! stops replay cleanly at the last intact record with a typed
//! [`WalStopReason`], and everything from the failure point on is reported
//! as discarded ([`RecoveryReport::bytes_discarded`]).

use std::borrow::Borrow;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::{
    BatchInstanceRecord, JobId, MachineEvent, MachineEventRecord, MachineId, ServerUsageRecord,
    TaskId, TaskStatus, Timestamp, UtilizationTriple,
};

/// Bytes in a frame header: `len: u32 ‖ seq: u64 ‖ crc: u32`.
pub const FRAME_HEADER_BYTES: usize = 16;

/// Hard upper bound on a frame payload. Lengths above this are rejected as
/// [`WalStopReason::BadLength`] before any allocation — a corrupted length
/// field must not be able to request gigabytes.
pub const MAX_PAYLOAD_BYTES: u32 = 1 << 20;

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Slice-by-8 lookup tables: `TABLES[0]` is the classic byte-at-a-time
/// table, and `TABLES[k][i]` advances the CRC of byte `i` through `k`
/// further zero bytes — so eight table reads fold eight input bytes at
/// once into the same polynomial the one-byte loop computes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let base = crc32_table();
    let mut tables = [[0u32; 256]; 8];
    tables[0] = base;
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ base[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Incremental CRC-32 (IEEE 802.3 reflected polynomial `0xEDB88320`) — the
/// per-frame checksum. CRC-32 detects all single-bit and double-bit errors
/// and all burst errors up to 32 bits, which is exactly the torn-write and
/// bit-rot failure class the log guards against.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// Starts a fresh checksum.
    pub const fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Folds `bytes` into the running checksum.
    ///
    /// Eight bytes per step via the slice-by-8 tables (bit-identical to
    /// the one-byte-at-a-time recurrence, just ~8× fewer dependent table
    /// lookups — segment-store opens checksum every mapped byte, so this
    /// is on the dataset-open hot path as well as the WAL's).
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLES;
        let mut crc = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ crc;
            let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    /// Finalizes and returns the checksum.
    pub const fn finish(self) -> u32 {
        !self.0
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One logged monitor mutation: the unit of replay.
///
/// The log records every **delivery**, not just every accepted mutation:
/// stale records the monitor drops still consume a log entry, because the
/// drop itself mutates observable state (the `stale_dropped` counter) and
/// replay is held to bit-identity with the pre-crash monitor.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A delivered `server_usage` sample ([`ServerUsageRecord`]).
    Usage(ServerUsageRecord),
    /// A delivered closed-instance record ([`BatchInstanceRecord`]).
    Instance(BatchInstanceRecord),
    /// An instance opened in the live window.
    InstanceStarted {
        /// Owning job.
        job: JobId,
        /// Owning task.
        task: TaskId,
        /// Sequence number within the task.
        seq: u32,
        /// The machine executing the instance.
        machine: MachineId,
        /// Open time.
        at: Timestamp,
    },
    /// A previously opened instance closed.
    InstanceFinished {
        /// Owning job.
        job: JobId,
        /// Owning task.
        task: TaskId,
        /// Sequence number within the task.
        seq: u32,
        /// Close time.
        at: Timestamp,
    },
    /// A delivered machine lifecycle event ([`MachineEventRecord`]).
    MachineEvent(MachineEventRecord),
    /// The alert buffer was emptied by a destructive drain. No monitor
    /// writes this marker any more (alerts are read through cursors), but
    /// logs written before the change hold it: replay empties the buffer,
    /// so such a log recovers exactly the alerts its writer still held.
    AlertsDrained,
    /// Every record of the ingestion epoch with this monotonic batch
    /// version precedes this marker in the log: `ingest_batch` writes it
    /// as the last frame of the epoch's group. Replay restores it as the
    /// monitor's sealed epoch, the last epoch the log holds in full, so a
    /// producer knows to resend from the epoch after it. Applying the
    /// marker mutates no query-visible state.
    EpochSealed(u64),
}

const TAG_USAGE: u8 = 1;
const TAG_INSTANCE: u8 = 2;
const TAG_INSTANCE_STARTED: u8 = 3;
const TAG_INSTANCE_FINISHED: u8 = 4;
const TAG_MACHINE_EVENT: u8 = 5;
const TAG_ALERTS_DRAINED: u8 = 6;
const TAG_EPOCH_SEALED: u8 = 7;

fn status_code(s: TaskStatus) -> u8 {
    match s {
        TaskStatus::Waiting => 0,
        TaskStatus::Running => 1,
        TaskStatus::Terminated => 2,
        TaskStatus::Failed => 3,
        TaskStatus::Cancelled => 4,
    }
}

fn status_from_code(c: u8) -> Option<TaskStatus> {
    Some(match c {
        0 => TaskStatus::Waiting,
        1 => TaskStatus::Running,
        2 => TaskStatus::Terminated,
        3 => TaskStatus::Failed,
        4 => TaskStatus::Cancelled,
        _ => return None,
    })
}

fn event_code(e: MachineEvent) -> u8 {
    match e {
        MachineEvent::Add => 0,
        MachineEvent::SoftError => 1,
        MachineEvent::HardError => 2,
        MachineEvent::Remove => 3,
    }
}

fn event_from_code(c: u8) -> Option<MachineEvent> {
    Some(match c {
        0 => MachineEvent::Add,
        1 => MachineEvent::SoftError,
        2 => MachineEvent::HardError,
        3 => MachineEvent::Remove,
        _ => return None,
    })
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Forward-only cursor over a payload body; every `take_*` returns `None`
/// past the end, so decoding can never index out of bounds.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    pub(crate) fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let end = self.pos.checked_add(N)?;
        let chunk = self.bytes.get(self.pos..end)?;
        self.pos = end;
        chunk.try_into().ok()
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take::<1>().map(|b| b[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take::<4>().map(u32::from_le_bytes)
    }

    pub(crate) fn i64(&mut self) -> Option<i64> {
        self.take::<8>().map(i64::from_le_bytes)
    }

    pub(crate) fn f64(&mut self) -> Option<f64> {
        self.take::<8>()
            .map(|b| f64::from_bits(u64::from_le_bytes(b)))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take::<8>().map(u64::from_le_bytes)
    }

    pub(crate) fn exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

impl WalRecord {
    /// Encodes the record payload (tag byte + fixed-width body): the bytes
    /// [`encode_frame_into`] puts after the frame header.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut frame = encode_frame(0, self);
        frame.drain(..FRAME_HEADER_BYTES);
        frame
    }

    /// Appends the payload to `out`. Only [`encode_frame_into`] calls it,
    /// so every encoded record goes through one frame encoder.
    fn put_payload(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Usage(r) => {
                out.push(TAG_USAGE);
                put_i64(out, r.time.seconds());
                put_u32(out, r.machine.raw());
                put_f64(out, r.util.cpu.fraction());
                put_f64(out, r.util.mem.fraction());
                put_f64(out, r.util.disk.fraction());
            }
            WalRecord::Instance(r) => {
                out.push(TAG_INSTANCE);
                put_i64(out, r.start_time.seconds());
                put_i64(out, r.end_time.seconds());
                put_u32(out, r.job.raw());
                put_u32(out, r.task.raw());
                put_u32(out, r.seq);
                put_u32(out, r.total);
                put_u32(out, r.machine.raw());
                out.push(status_code(r.status));
                put_f64(out, r.cpu_avg);
                put_f64(out, r.cpu_max);
                put_f64(out, r.mem_avg);
                put_f64(out, r.mem_max);
            }
            WalRecord::InstanceStarted {
                job,
                task,
                seq,
                machine,
                at,
            } => {
                out.push(TAG_INSTANCE_STARTED);
                put_u32(out, job.raw());
                put_u32(out, task.raw());
                put_u32(out, *seq);
                put_u32(out, machine.raw());
                put_i64(out, at.seconds());
            }
            WalRecord::InstanceFinished { job, task, seq, at } => {
                out.push(TAG_INSTANCE_FINISHED);
                put_u32(out, job.raw());
                put_u32(out, task.raw());
                put_u32(out, *seq);
                put_i64(out, at.seconds());
            }
            WalRecord::MachineEvent(r) => {
                out.push(TAG_MACHINE_EVENT);
                put_i64(out, r.time.seconds());
                put_u32(out, r.machine.raw());
                out.push(event_code(r.event));
                put_f64(out, r.capacity_cpu);
                put_f64(out, r.capacity_mem);
                put_f64(out, r.capacity_disk);
            }
            WalRecord::AlertsDrained => out.push(TAG_ALERTS_DRAINED),
            WalRecord::EpochSealed(version) => {
                out.push(TAG_EPOCH_SEALED);
                put_u64(out, *version);
            }
        }
    }

    /// Decodes a payload produced by [`WalRecord::encode_payload`].
    ///
    /// Returns `None` on an unknown tag, an out-of-range enum code, or a
    /// body whose length does not match the tag exactly — never panics.
    pub fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
        let mut c = Cursor::new(payload);
        let rec = match c.u8()? {
            TAG_USAGE => WalRecord::Usage(ServerUsageRecord {
                time: Timestamp::new(c.i64()?),
                machine: MachineId::new(c.u32()?),
                util: UtilizationTriple::clamped(c.f64()?, c.f64()?, c.f64()?),
            }),
            TAG_INSTANCE => WalRecord::Instance(BatchInstanceRecord {
                start_time: Timestamp::new(c.i64()?),
                end_time: Timestamp::new(c.i64()?),
                job: JobId::new(c.u32()?),
                task: TaskId::new(c.u32()?),
                seq: c.u32()?,
                total: c.u32()?,
                machine: MachineId::new(c.u32()?),
                status: status_from_code(c.u8()?)?,
                cpu_avg: c.f64()?,
                cpu_max: c.f64()?,
                mem_avg: c.f64()?,
                mem_max: c.f64()?,
            }),
            TAG_INSTANCE_STARTED => WalRecord::InstanceStarted {
                job: JobId::new(c.u32()?),
                task: TaskId::new(c.u32()?),
                seq: c.u32()?,
                machine: MachineId::new(c.u32()?),
                at: Timestamp::new(c.i64()?),
            },
            TAG_INSTANCE_FINISHED => WalRecord::InstanceFinished {
                job: JobId::new(c.u32()?),
                task: TaskId::new(c.u32()?),
                seq: c.u32()?,
                at: Timestamp::new(c.i64()?),
            },
            TAG_MACHINE_EVENT => WalRecord::MachineEvent(MachineEventRecord {
                time: Timestamp::new(c.i64()?),
                machine: MachineId::new(c.u32()?),
                event: event_from_code(c.u8()?)?,
                capacity_cpu: c.f64()?,
                capacity_mem: c.f64()?,
                capacity_disk: c.f64()?,
            }),
            TAG_ALERTS_DRAINED => WalRecord::AlertsDrained,
            TAG_EPOCH_SEALED => WalRecord::EpochSealed(c.u64()?),
            _ => return None,
        };
        c.exhausted().then_some(rec)
    }
}

/// Appends one complete frame (`header ‖ payload`) for `seq` to `out` —
/// the log's one encoder. [`WalWriter`] encodes a whole group of frames
/// into one reused buffer with it; [`encode_frame`],
/// [`WalRecord::encode_payload`] and [`compact`] are built on it.
pub fn encode_frame_into(out: &mut Vec<u8>, seq: u64, record: &WalRecord) {
    let start = out.len();
    let body = start + FRAME_HEADER_BYTES;
    out.extend_from_slice(&[0; FRAME_HEADER_BYTES]);
    record.put_payload(out);
    // Every payload is a tag plus a fixed-width body of at most 70 bytes.
    let len = (out.len() - body) as u32;
    debug_assert!(len <= MAX_PAYLOAD_BYTES);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 12].copy_from_slice(&seq.to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&out[start..start + 12]);
    crc.update(&out[body..]);
    out[start + 12..body].copy_from_slice(&crc.finish().to_le_bytes());
}

/// Encodes one complete frame (`header ‖ payload`) for `seq`.
pub fn encode_frame(seq: u64, record: &WalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + 64);
    encode_frame_into(&mut out, seq, record);
    out
}

/// Why replay stopped where it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalStopReason {
    /// Every byte of every segment was consumed as intact records.
    Clean,
    /// Fewer than [`FRAME_HEADER_BYTES`] bytes remained — a torn header
    /// (the classic partial-write tail).
    TornHeader,
    /// The header claimed more payload bytes than the segment holds — a
    /// torn body.
    TornBody,
    /// The length field was zero or above [`MAX_PAYLOAD_BYTES`].
    BadLength,
    /// The recomputed CRC-32 disagreed with the stored one.
    ChecksumMismatch,
    /// The record's sequence number broke monotonic continuity.
    SequenceBreak,
    /// Framing was intact but the payload did not decode to a record.
    DecodeError,
}

impl WalStopReason {
    /// True only for [`WalStopReason::Clean`].
    pub const fn is_clean(self) -> bool {
        matches!(self, WalStopReason::Clean)
    }
}

impl fmt::Display for WalStopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WalStopReason::Clean => "clean",
            WalStopReason::TornHeader => "torn header",
            WalStopReason::TornBody => "torn body",
            WalStopReason::BadLength => "bad length",
            WalStopReason::ChecksumMismatch => "checksum mismatch",
            WalStopReason::SequenceBreak => "sequence break",
            WalStopReason::DecodeError => "payload decode error",
        })
    }
}

/// What a replay pass established: how far the log was intact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Intact records replayed.
    pub records_replayed: u64,
    /// Bytes from the first failure point to the end of the log (0 when
    /// [`WalStopReason::Clean`]). Everything past a framing failure is
    /// untrusted and discarded, even if later frames happen to look intact.
    pub bytes_discarded: u64,
    /// Why replay stopped.
    pub reason: WalStopReason,
    /// Sequence number of the last intact record, if any.
    pub last_seq: Option<u64>,
    /// Segment files the log directory held.
    pub segments: usize,
}

/// IO-level failure of the log itself (not corruption — corruption is data,
/// reported through [`RecoveryReport`]).
#[derive(Debug)]
pub enum WalError {
    /// An operating-system IO operation failed.
    Io {
        /// What the writer/reader was doing (e.g. `"append"`, `"open"`).
        op: &'static str,
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io { op, path, source } => {
                write!(f, "wal {op} {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io { source, .. } => Some(source),
        }
    }
}

fn io_err(op: &'static str, path: &Path, source: io::Error) -> WalError {
    WalError::Io {
        op,
        path: path.to_path_buf(),
        source,
    }
}

// ---------------------------------------------------------------------------
// IO seam
// ---------------------------------------------------------------------------

/// Failpoint site evaluated by [`StdWalIo`] before every write. One write
/// carries a whole group of frames (see [`WalIo::write_frame`]), so the
/// site fires at most once per write, not once per record.
pub const FAILPOINT_APPEND: &str = "wal.append";
/// Failpoint site evaluated by [`StdWalIo`] before every fsync.
pub const FAILPOINT_SYNC: &str = "wal.sync";

/// The writer's IO seam: every byte the [`WalWriter`] hands to the
/// operating system, and every fsync, goes through one of these two
/// methods — so disk faults can be injected *under* the writer without
/// touching its logic.
///
/// # Contract
///
/// * One `write_frame` call carries a group of whole frames: every frame
///   of one [`WalWriter::append_all`] call that lands in the same segment
///   (one frame for [`WalWriter::append`]).
/// * `write_frame` either writes **all** of `buf` and returns `Ok`, or
///   returns `Err` having written any *prefix* of `buf` (a short write —
///   the torn-tail shape a power failure leaves). The writer treats any
///   `Err` as "these frames were not logged": their sequence numbers are
///   not consumed and `segment_len` is not advanced. Whatever prefix
///   reached the disk is left to the reader's framing validation: the
///   whole frames inside it replay, and replay stops at the first torn
///   one.
/// * `sync_data` either makes previously written bytes durable and returns
///   `Ok`, or returns `Err` having synced nothing (a failed fsync — the
///   bytes remain in the page cache, durable against process crash but not
///   power loss).
///
/// The default implementation, [`StdWalIo`], performs the real IO but first
/// evaluates the [`FAILPOINT_APPEND`] / [`FAILPOINT_SYNC`] failpoint sites
/// ([`batchlens_fault`]), so fault-injection suites can drive disk-full,
/// short-write, failed-sync and torn-tail schedules through an unmodified
/// production writer. Disarmed, each evaluation is a single relaxed atomic
/// load.
pub trait WalIo: Send + fmt::Debug {
    /// Writes a group of complete frames to `file` (see the seam
    /// contract).
    ///
    /// # Errors
    ///
    /// An `Err` means the frames were not logged; any prefix of `buf` may
    /// have reached the file.
    fn write_frame(&mut self, file: &mut File, buf: &[u8]) -> io::Result<()>;

    /// Forces `file`'s written bytes to stable storage.
    ///
    /// # Errors
    ///
    /// An `Err` means nothing new became durable.
    fn sync_data(&mut self, file: &mut File) -> io::Result<()>;
}

/// The production [`WalIo`]: real writes and fsyncs, guarded by the
/// [`FAILPOINT_APPEND`] / [`FAILPOINT_SYNC`] failpoint sites.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdWalIo;

impl WalIo for StdWalIo {
    fn write_frame(&mut self, file: &mut File, buf: &[u8]) -> io::Result<()> {
        match batchlens_fault::fire(FAILPOINT_APPEND) {
            None => file.write_all(buf),
            Some(batchlens_fault::Fault::ShortWrite(n)) => {
                // Torn tail: the prefix reaches the file, then the device
                // "fails". The caller sees an error; the reader sees a torn
                // frame.
                file.write_all(&buf[..n.min(buf.len())])?;
                Err(batchlens_fault::injected_io_error(FAILPOINT_APPEND))
            }
            Some(_) => Err(batchlens_fault::injected_io_error(FAILPOINT_APPEND)),
        }
    }

    fn sync_data(&mut self, file: &mut File) -> io::Result<()> {
        match batchlens_fault::fire(FAILPOINT_SYNC) {
            None => file.sync_data(),
            Some(_) => Err(batchlens_fault::injected_io_error(FAILPOINT_SYNC)),
        }
    }
}

// ---------------------------------------------------------------------------
// Segments
// ---------------------------------------------------------------------------

fn segment_name(first_seq: u64) -> String {
    format!("{first_seq:020}.wal")
}

/// Lists `*.wal` segments in `dir`, sorted by their first-sequence name.
/// Returns an empty list when the directory does not exist.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err("list", dir, e)),
    };
    let mut segments = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err("list", dir, e))?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("wal") {
            continue;
        }
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        let Ok(first_seq) = stem.parse::<u64>() else {
            continue;
        };
        segments.push((first_seq, path));
    }
    segments.sort();
    Ok(segments)
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Replays a segment directory record by record, stopping cleanly at the
/// first framing problem.
///
/// Iterate it (`for (seq, record) in &mut reader`) until exhaustion, then
/// read [`WalReader::report`]. The reader holds segment contents in memory
/// (segments are bounded by [`WalConfig::segment_bytes`]), so iteration
/// itself is infallible: corruption is a *result*, never an `Err` or a
/// panic.
#[derive(Debug)]
pub struct WalReader {
    segments: Vec<(PathBuf, Vec<u8>)>,
    seg_idx: usize,
    offset: usize,
    expected: Option<u64>,
    records: u64,
    last_seq: Option<u64>,
    stop: Option<(WalStopReason, usize, usize)>,
}

impl WalReader {
    /// Opens every segment in `dir`. A missing or empty directory is a
    /// valid, empty log.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] only for OS-level failures (unreadable
    /// directory or file) — never for corrupt contents.
    pub fn open(dir: &Path) -> Result<WalReader, WalError> {
        let mut segments = Vec::new();
        for (_, path) in list_segments(dir)? {
            let bytes = fs::read(&path).map_err(|e| io_err("read", &path, e))?;
            segments.push((path, bytes));
        }
        Ok(WalReader {
            segments,
            seg_idx: 0,
            offset: 0,
            expected: None,
            records: 0,
            last_seq: None,
            stop: None,
        })
    }

    fn finish(&mut self, reason: WalStopReason) {
        self.stop = Some((reason, self.seg_idx, self.offset));
    }

    /// The stop reason, once iteration has finished.
    pub fn stop_reason(&self) -> Option<WalStopReason> {
        self.stop.map(|(r, _, _)| r)
    }

    /// `(segment index, byte offset)` of the first untrusted byte, once
    /// iteration has finished. Everything before it is intact.
    pub(crate) fn stop_position(&self) -> Option<(usize, usize)> {
        self.stop.map(|(_, seg, off)| (seg, off))
    }

    /// Paths of the segments the reader opened, in replay order.
    pub fn segment_paths(&self) -> impl Iterator<Item = &Path> {
        self.segments.iter().map(|(p, _)| p.as_path())
    }

    /// Sequence number of the last intact record seen so far.
    pub fn last_seq(&self) -> Option<u64> {
        self.last_seq
    }

    /// The replay outcome. Meaningful once iteration has returned `None`;
    /// before that the reason reflects progress so far (`Clean`).
    pub fn report(&self) -> RecoveryReport {
        let (reason, seg, off) =
            self.stop
                .unwrap_or((WalStopReason::Clean, self.seg_idx, self.offset));
        let mut discarded = 0u64;
        if let Some((_, bytes)) = self.segments.get(seg) {
            discarded += (bytes.len() - off.min(bytes.len())) as u64;
        }
        for (_, bytes) in self.segments.iter().skip(seg + 1) {
            discarded += bytes.len() as u64;
        }
        RecoveryReport {
            records_replayed: self.records,
            bytes_discarded: discarded,
            reason,
            last_seq: self.last_seq,
            segments: self.segments.len(),
        }
    }
}

impl Iterator for WalReader {
    type Item = (u64, WalRecord);

    fn next(&mut self) -> Option<(u64, WalRecord)> {
        if self.stop.is_some() {
            return None;
        }
        loop {
            let Some((_, bytes)) = self.segments.get(self.seg_idx) else {
                // Past the last segment: park the stop position at the end
                // of the final segment so nothing counts as discarded.
                self.seg_idx = self.segments.len().saturating_sub(1);
                self.offset = self.segments.last().map(|(_, b)| b.len()).unwrap_or(0);
                self.finish(WalStopReason::Clean);
                return None;
            };
            let rest = &bytes[self.offset..];
            if rest.is_empty() {
                self.seg_idx += 1;
                self.offset = 0;
                continue;
            }
            if rest.len() < FRAME_HEADER_BYTES {
                self.finish(WalStopReason::TornHeader);
                return None;
            }
            let len = u32::from_le_bytes(rest[0..4].try_into().unwrap());
            if len == 0 || len > MAX_PAYLOAD_BYTES {
                self.finish(WalStopReason::BadLength);
                return None;
            }
            let total = FRAME_HEADER_BYTES + len as usize;
            if rest.len() < total {
                self.finish(WalStopReason::TornBody);
                return None;
            }
            let seq = u64::from_le_bytes(rest[4..12].try_into().unwrap());
            let stored_crc = u32::from_le_bytes(rest[12..16].try_into().unwrap());
            let payload = &rest[FRAME_HEADER_BYTES..total];
            let mut crc = Crc32::new();
            crc.update(&rest[0..12]);
            crc.update(payload);
            if crc.finish() != stored_crc {
                self.finish(WalStopReason::ChecksumMismatch);
                return None;
            }
            if let Some(expected) = self.expected {
                if seq != expected {
                    self.finish(WalStopReason::SequenceBreak);
                    return None;
                }
            }
            let Some(record) = WalRecord::decode_payload(payload) else {
                self.finish(WalStopReason::DecodeError);
                return None;
            };
            self.offset += total;
            self.records += 1;
            self.last_seq = Some(seq);
            self.expected = Some(seq.wrapping_add(1));
            return Some((seq, record));
        }
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Tuning knobs for a [`WalWriter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Rotate to a new segment once the active one reaches this many bytes.
    /// A segment always holds at least one record, so tiny limits are legal
    /// (tests use them to force multi-segment logs).
    pub segment_bytes: u64,
    /// `fsync` after **every** append — once per group for
    /// [`WalWriter::append_all`] — instead of only at rotation and
    /// [`WalWriter::sync`]. Survives power loss per append, at a large
    /// throughput cost.
    pub sync_each_append: bool,
}

impl Default for WalConfig {
    fn default() -> WalConfig {
        WalConfig {
            segment_bytes: 8 * 1024 * 1024,
            sync_each_append: false,
        }
    }
}

/// Appends framed records to a segment directory.
///
/// # Durability contract
///
/// * [`WalWriter::append_all`] hands a group of frames to the operating
///   system in one `write` per segment the group touches — a single
///   `write` unless the group crosses a rotation — before returning;
///   [`WalWriter::append`] is the one-frame group. Once an append returns,
///   a **process crash** (panic, kill, OOM) loses nothing — the frames are
///   in the page cache regardless of what the process does next.
/// * An `fsync` makes frames survive **power loss / kernel crash** too. It
///   happens (a) once per group when [`WalConfig::sync_each_append`] is
///   set, (b) on every segment rotation for the sealed segment, and (c) on
///   [`WalWriter::sync`]. Between fsyncs, a power failure may truncate or
///   tear the *tail* of the active segment only.
/// * A torn tail is safe by construction: writes are strictly sequential,
///   so a partial write can only affect the frames of the final write, and
///   the reader's length/CRC validation stops replay exactly at the last
///   intact record. [`WalWriter::open`] on an existing directory truncates
///   that torn tail (and deletes any unreachable later segments) before
///   resuming, so the next append continues the intact prefix with the
///   next sequence number.
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    cfg: WalConfig,
    file: File,
    segment_path: PathBuf,
    segment_len: u64,
    next_seq: u64,
    io: Box<dyn WalIo>,
    /// The frames of the group being appended; reused across appends so
    /// steady-state encoding allocates nothing.
    buf: Vec<u8>,
}

impl WalWriter {
    /// Opens (resuming) or creates the log in `dir`.
    ///
    /// On a fresh directory the first segment starts at sequence 0. On an
    /// existing log the writer replays it to find the last intact record,
    /// truncates the torn tail, deletes unreachable later segments, and
    /// resumes with the following sequence number.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] on OS-level failures only; corrupt existing
    /// contents are repaired (truncated), not errored on.
    pub fn open(dir: &Path, cfg: WalConfig) -> Result<WalWriter, WalError> {
        WalWriter::open_with_io(dir, cfg, Box::new(StdWalIo))
    }

    /// Like [`WalWriter::open`], but with an explicit [`WalIo`]
    /// implementation — the programmatic seam for injecting disk faults
    /// (see the trait's contract).
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] on OS-level failures only; corrupt existing
    /// contents are repaired (truncated), not errored on.
    pub fn open_with_io(
        dir: &Path,
        cfg: WalConfig,
        io: Box<dyn WalIo>,
    ) -> Result<WalWriter, WalError> {
        fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, e))?;
        let mut reader = WalReader::open(dir)?;
        for _ in &mut reader {}
        let next_seq = reader.last_seq().map(|s| s + 1).unwrap_or(0);
        let segment_paths: Vec<PathBuf> = reader.segment_paths().map(Path::to_path_buf).collect();
        let (seg_idx, offset) = reader.stop_position().unwrap_or((0, 0));
        if segment_paths.is_empty() {
            return WalWriter::fresh_segment(dir.to_path_buf(), cfg, next_seq, io);
        }
        // Drop the torn tail of the stop segment and every segment past it:
        // nothing after the first framing failure is trustworthy.
        for path in &segment_paths[seg_idx + 1..] {
            fs::remove_file(path).map_err(|e| io_err("remove", path, e))?;
        }
        let segment_path = segment_paths[seg_idx].clone();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&segment_path)
            .map_err(|e| io_err("open", &segment_path, e))?;
        file.set_len(offset as u64)
            .map_err(|e| io_err("truncate", &segment_path, e))?;
        let mut file = file;
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek", &segment_path, e))?;
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            cfg,
            file,
            segment_path,
            segment_len: offset as u64,
            next_seq,
            io,
            buf: Vec::new(),
        })
    }

    fn fresh_segment(
        dir: PathBuf,
        cfg: WalConfig,
        first_seq: u64,
        io: Box<dyn WalIo>,
    ) -> Result<WalWriter, WalError> {
        let segment_path = dir.join(segment_name(first_seq));
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&segment_path)
            .map_err(|e| io_err("create", &segment_path, e))?;
        Ok(WalWriter {
            dir,
            cfg,
            file,
            segment_path,
            segment_len: 0,
            next_seq: first_seq,
            io,
            buf: Vec::new(),
        })
    }

    /// The directory the log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sequence number the next append will be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one record — the one-record case of
    /// [`WalWriter::append_all`] — returning its sequence number.
    ///
    /// # Errors
    ///
    /// As for [`WalWriter::append_all`].
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, WalError> {
        self.append_all(std::iter::once(record))
            .map(|seqs| seqs.start)
    }

    /// Appends `records` as one group, returning the sequence numbers they
    /// were assigned. The frames are encoded into one reused buffer and
    /// handed to the OS in one `write` per segment the group touches. A
    /// group rotates before exactly the frame where one-record appends
    /// would, so the log's segment names and bytes do not depend on how
    /// the records were grouped. See the
    /// [durability contract](WalWriter#durability-contract).
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] when a write, a rotation or the configured
    /// fsync fails.
    /// * A failed write consumes no sequence numbers: its frames and every
    ///   later frame of the group are not logged. Only a group that
    ///   crosses a rotation can have an earlier write, which stays logged.
    /// * A failed fsync comes after every write succeeded, so the group's
    ///   sequence numbers are consumed and its frames replay; only their
    ///   survival of a power loss is unknown.
    pub fn append_all<I>(&mut self, records: I) -> Result<Range<u64>, WalError>
    where
        I: IntoIterator,
        I::Item: Borrow<WalRecord>,
    {
        let first = self.next_seq;
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        let mut end = first;
        for record in records {
            encode_frame_into(&mut buf, end, record.borrow());
            end += 1;
        }
        let written = self.write_group(&buf, first);
        self.buf = buf;
        written?;
        if self.cfg.sync_each_append && end > first {
            self.sync()?;
        }
        Ok(first..end)
    }

    /// Writes the whole frames in `buf`, numbered from `first_seq`, with
    /// one `write_frame` call per segment: it rotates before each frame
    /// that would overflow the active segment, the rule a one-record
    /// append applies. `next_seq` and `segment_len` advance after each
    /// successful write, so a later failure leaves earlier writes counted.
    fn write_group(&mut self, buf: &[u8], first_seq: u64) -> Result<(), WalError> {
        let (mut start, mut pos, mut seq) = (0, 0, first_seq);
        while pos < buf.len() {
            let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4-byte length"));
            let frame = FRAME_HEADER_BYTES + len as usize;
            let filled = self.segment_len + (pos - start) as u64;
            if filled > 0 && filled + frame as u64 > self.cfg.segment_bytes {
                self.write_chunk(&buf[start..pos], seq)?;
                self.rotate(seq)?;
                start = pos;
            }
            pos += frame;
            seq += 1;
        }
        self.write_chunk(&buf[start..], seq)
    }

    /// Hands `chunk`, whole frames ending just before `end_seq`, to the
    /// active segment in one write.
    fn write_chunk(&mut self, chunk: &[u8], end_seq: u64) -> Result<(), WalError> {
        if chunk.is_empty() {
            return Ok(());
        }
        self.io
            .write_frame(&mut self.file, chunk)
            .map_err(|e| io_err("append", &self.segment_path, e))?;
        self.segment_len += chunk.len() as u64;
        self.next_seq = end_seq;
        Ok(())
    }

    fn rotate(&mut self, first_seq: u64) -> Result<(), WalError> {
        // Seal the full segment durably before the log moves past it.
        self.io
            .sync_data(&mut self.file)
            .map_err(|e| io_err("sync", &self.segment_path, e))?;
        let segment_path = self.dir.join(segment_name(first_seq));
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&segment_path)
            .map_err(|e| io_err("create", &segment_path, e))?;
        self.file = file;
        self.segment_path = segment_path;
        self.segment_len = 0;
        Ok(())
    }

    /// Forces the active segment to stable storage (`fsync`).
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] when the fsync fails.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.io
            .sync_data(&mut self.file)
            .map_err(|e| io_err("sync", &self.segment_path, e))
    }
}

/// Compacts the intact prefix of the log in `src` into a **single sealed
/// segment** in `dst`, preserving every record's sequence number — the
/// snapshot half of a snapshot-plus-tail scheme: replaying the compacted
/// segment reproduces exactly the records `src` held, and the live log's
/// records with later sequence numbers form the tail.
///
/// `dst` is created if missing; an existing log there is replaced. A torn
/// or corrupt `src` tail is dropped exactly as replay would drop it (see
/// the returned report). An empty `src` compacts to an empty `dst`.
///
/// # Errors
///
/// Returns [`WalError::Io`] on OS-level failures only.
pub fn compact(src: &Path, dst: &Path) -> Result<RecoveryReport, WalError> {
    let mut reader = WalReader::open(src)?;
    let mut frames: Vec<u8> = Vec::new();
    let mut first_seq = None;
    for (seq, record) in &mut reader {
        first_seq.get_or_insert(seq);
        encode_frame_into(&mut frames, seq, &record);
    }
    fs::create_dir_all(dst).map_err(|e| io_err("create dir", dst, e))?;
    for (_, path) in list_segments(dst)? {
        fs::remove_file(&path).map_err(|e| io_err("remove", &path, e))?;
    }
    if let Some(first) = first_seq {
        let path = dst.join(segment_name(first));
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err("create", &path, e))?;
        file.write_all(&frames)
            .map_err(|e| io_err("append", &path, e))?;
        file.sync_data().map_err(|e| io_err("sync", &path, e))?;
    }
    Ok(reader.report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "batchlens-wal-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Usage(ServerUsageRecord {
                time: Timestamp::new(-3),
                machine: MachineId::new(7),
                util: UtilizationTriple::clamped(0.25, 0.5, 1.0),
            }),
            WalRecord::Instance(BatchInstanceRecord {
                start_time: Timestamp::new(10),
                end_time: Timestamp::new(400),
                job: JobId::new(1),
                task: TaskId::new(2),
                seq: 3,
                total: 4,
                machine: MachineId::new(5),
                status: TaskStatus::Failed,
                cpu_avg: 0.125,
                cpu_max: f64::MAX,
                mem_avg: -0.0,
                mem_max: f64::NAN,
            }),
            WalRecord::InstanceStarted {
                job: JobId::new(9),
                task: TaskId::new(8),
                seq: 7,
                machine: MachineId::new(6),
                at: Timestamp::new(i64::MIN + 1),
            },
            WalRecord::InstanceFinished {
                job: JobId::new(9),
                task: TaskId::new(8),
                seq: 7,
                at: Timestamp::new(i64::MAX),
            },
            WalRecord::MachineEvent(MachineEventRecord {
                time: Timestamp::new(0),
                machine: MachineId::new(u32::MAX),
                event: MachineEvent::SoftError,
                capacity_cpu: 64.0,
                capacity_mem: 1.0,
                capacity_disk: 0.5,
            }),
            WalRecord::AlertsDrained,
            WalRecord::EpochSealed(0),
            WalRecord::EpochSealed(u64::MAX),
        ]
    }

    /// Bitwise record equality: `PartialEq` treats NaN != NaN and
    /// -0.0 == 0.0, but replay is held to bit-identity.
    fn assert_bits_equal(a: &WalRecord, b: &WalRecord) {
        assert_eq!(a.encode_payload(), b.encode_payload());
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn payloads_round_trip_bit_exactly() {
        for rec in sample_records() {
            let payload = rec.encode_payload();
            let back = WalRecord::decode_payload(&payload).expect("decodes");
            assert_bits_equal(&rec, &back);
        }
    }

    #[test]
    fn truncated_or_extended_payloads_are_rejected() {
        for rec in sample_records() {
            let payload = rec.encode_payload();
            for cut in 0..payload.len() {
                assert!(
                    WalRecord::decode_payload(&payload[..cut]).is_none(),
                    "prefix of length {cut} must not decode"
                );
            }
            let mut extended = payload.clone();
            extended.push(0);
            assert!(WalRecord::decode_payload(&extended).is_none());
        }
        assert!(WalRecord::decode_payload(&[0xFF]).is_none());
        assert!(WalRecord::decode_payload(&[]).is_none());
    }

    #[test]
    fn write_read_round_trip_across_rotated_segments() {
        // Every test that appends through the failpoint site holds the
        // guard, so no other test's armed schedule fires on its writes.
        let _g = batchlens_fault::test_guard();
        let dir = temp_dir("rotate");
        let cfg = WalConfig {
            segment_bytes: 64, // force rotation every couple of records
            sync_each_append: false,
        };
        let records = sample_records();
        let mut w = WalWriter::open(&dir, cfg).unwrap();
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(w.append(rec).unwrap(), i as u64);
        }
        assert!(
            list_segments(&dir).unwrap().len() > 1,
            "tiny segment limit must rotate"
        );
        let mut r = WalReader::open(&dir).unwrap();
        let got: Vec<(u64, WalRecord)> = (&mut r).collect();
        assert_eq!(got.len(), records.len());
        for (i, ((seq, got), want)) in got.iter().zip(&records).enumerate() {
            assert_eq!(*seq, i as u64);
            assert_bits_equal(got, want);
        }
        let report = r.report();
        assert_eq!(report.reason, WalStopReason::Clean);
        assert_eq!(report.records_replayed, records.len() as u64);
        assert_eq!(report.bytes_discarded, 0);
        assert_eq!(report.last_seq, Some(records.len() as u64 - 1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_merges_segments_preserving_sequences() {
        let _g = batchlens_fault::test_guard();
        let src = temp_dir("compact-src");
        let dst = temp_dir("compact-dst");
        let cfg = WalConfig {
            segment_bytes: 64,
            sync_each_append: false,
        };
        let records = sample_records();
        let mut w = WalWriter::open(&src, cfg).unwrap();
        for rec in &records {
            w.append(rec).unwrap();
        }
        drop(w);
        assert!(list_segments(&src).unwrap().len() > 1);

        let report = compact(&src, &dst).unwrap();
        assert_eq!(report.records_replayed, records.len() as u64);
        assert_eq!(report.reason, WalStopReason::Clean);
        assert_eq!(list_segments(&dst).unwrap().len(), 1, "single segment");

        let mut r = WalReader::open(&dst).unwrap();
        let got: Vec<(u64, WalRecord)> = (&mut r).collect();
        assert_eq!(got.len(), records.len());
        for (i, ((seq, got), want)) in got.iter().zip(&records).enumerate() {
            assert_eq!(*seq, i as u64, "sequence numbers preserved");
            assert_bits_equal(got, want);
        }
        assert!(r.report().reason.is_clean());

        // A resumed writer on the compacted log continues the numbering.
        let w = WalWriter::open(&dst, WalConfig::default()).unwrap();
        assert_eq!(w.next_seq(), records.len() as u64);

        // Compacting an empty log yields an empty destination.
        let empty_src = temp_dir("compact-empty-src");
        let empty_dst = temp_dir("compact-empty-dst");
        let report = compact(&empty_src, &empty_dst).unwrap();
        assert_eq!(report.records_replayed, 0);
        assert!(list_segments(&empty_dst).unwrap().is_empty());

        for d in [&src, &dst, &empty_src, &empty_dst] {
            fs::remove_dir_all(d).ok();
        }
    }

    #[test]
    fn torn_tail_is_detected_and_resume_truncates_it() {
        let _g = batchlens_fault::test_guard();
        let dir = temp_dir("torn");
        let records = sample_records();
        let mut w = WalWriter::open(&dir, WalConfig::default()).unwrap();
        for rec in &records {
            w.append(rec).unwrap();
        }
        drop(w);
        // Tear the final record: chop 3 bytes off the single segment.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);
        let mut r = WalReader::open(&dir).unwrap();
        let n = (&mut r).count();
        assert_eq!(n, records.len() - 1);
        let report = r.report();
        assert!(matches!(
            report.reason,
            WalStopReason::TornBody | WalStopReason::TornHeader
        ));
        assert!(report.bytes_discarded > 0);
        // Resume: the torn tail is truncated, appends continue the prefix.
        let mut w = WalWriter::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(w.next_seq(), records.len() as u64 - 1);
        w.append(&WalRecord::AlertsDrained).unwrap();
        drop(w);
        let mut r = WalReader::open(&dir).unwrap();
        let got: Vec<(u64, WalRecord)> = (&mut r).collect();
        assert_eq!(got.len(), records.len());
        assert_eq!(r.report().reason, WalStopReason::Clean);
        assert_bits_equal(&got.last().unwrap().1, &WalRecord::AlertsDrained);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let _g = batchlens_fault::test_guard();
        let dir = temp_dir("bitflip");
        let records = sample_records();
        let mut w = WalWriter::open(&dir, WalConfig::default()).unwrap();
        for rec in &records {
            w.append(rec).unwrap();
        }
        drop(w);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let clean = fs::read(&path).unwrap();
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut corrupt = clean.clone();
                corrupt[byte] ^= 1 << bit;
                fs::write(&path, &corrupt).unwrap();
                let mut r = WalReader::open(&dir).unwrap();
                let n = (&mut r).count();
                let report = r.report();
                assert!(
                    !report.reason.is_clean(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
                assert!(
                    n < records.len(),
                    "flip at byte {byte} bit {bit} still replayed everything"
                );
                // Every record the reader did yield is a clean prefix.
                assert_eq!(report.records_replayed, n as u64);
                assert!(report.bytes_discarded > 0);
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_after_mid_log_corruption_drops_later_segments() {
        let _g = batchlens_fault::test_guard();
        let dir = temp_dir("midlog");
        let cfg = WalConfig {
            segment_bytes: 64,
            sync_each_append: false,
        };
        let records = sample_records();
        let mut w = WalWriter::open(&dir, cfg).unwrap();
        for rec in &records {
            w.append(rec).unwrap();
        }
        drop(w);
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 3);
        // Corrupt the *first* segment's first frame checksum region.
        let first = &segments[0].1;
        let mut bytes = fs::read(first).unwrap();
        bytes[13] ^= 0x40;
        fs::write(first, &bytes).unwrap();
        let mut r = WalReader::open(&dir).unwrap();
        assert_eq!((&mut r).count(), 0);
        let report = r.report();
        assert_eq!(report.reason, WalStopReason::ChecksumMismatch);
        assert_eq!(report.last_seq, None);
        // All bytes in all segments are untrusted.
        let total: u64 = list_segments(&dir)
            .unwrap()
            .iter()
            .map(|(_, p)| fs::metadata(p).unwrap().len())
            .sum();
        assert_eq!(report.bytes_discarded, total);
        // Resume repairs: truncates segment 0, removes the orphans.
        let mut w = WalWriter::open(&dir, cfg).unwrap();
        assert_eq!(w.next_seq(), 0);
        w.append(&records[0]).unwrap();
        drop(w);
        assert_eq!(list_segments(&dir).unwrap().len(), 1);
        let mut r = WalReader::open(&dir).unwrap();
        assert_eq!((&mut r).count(), 1);
        assert_eq!(r.report().reason, WalStopReason::Clean);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_and_missing_directories_are_empty_logs() {
        let dir = temp_dir("empty");
        let mut r = WalReader::open(&dir).unwrap();
        assert_eq!((&mut r).count(), 0);
        let report = r.report();
        assert_eq!(report.reason, WalStopReason::Clean);
        assert_eq!(report.records_replayed, 0);
        assert_eq!(report.bytes_discarded, 0);
        assert_eq!(report.segments, 0);
        assert_eq!(report.last_seq, None);
        // A writer on the same missing dir starts at seq 0.
        let w = WalWriter::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(w.next_seq(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequence_break_stops_replay() {
        let _g = batchlens_fault::test_guard();
        let dir = temp_dir("seqbreak");
        let mut w = WalWriter::open(&dir, WalConfig::default()).unwrap();
        w.append(&WalRecord::AlertsDrained).unwrap();
        drop(w);
        // Append a validly framed record with a skipped sequence number.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&encode_frame(5, &WalRecord::AlertsDrained));
        fs::write(&path, &bytes).unwrap();
        let mut r = WalReader::open(&dir).unwrap();
        assert_eq!((&mut r).count(), 1);
        assert_eq!(r.report().reason, WalStopReason::SequenceBreak);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn first_record_may_start_at_any_sequence() {
        // A compacted dump preserves original sequence numbers; replay must
        // accept a log whose first record is not seq 0.
        let dir = temp_dir("anystart");
        fs::create_dir_all(&dir).unwrap();
        let mut bytes = encode_frame(41, &WalRecord::AlertsDrained);
        bytes.extend_from_slice(&encode_frame(42, &WalRecord::AlertsDrained));
        fs::write(dir.join(segment_name(41)), &bytes).unwrap();
        let mut r = WalReader::open(&dir).unwrap();
        let seqs: Vec<u64> = (&mut r).map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![41, 42]);
        assert_eq!(r.report().reason, WalStopReason::Clean);
        // And a writer resumes from there.
        let w = WalWriter::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(w.next_seq(), 43);
        fs::remove_dir_all(&dir).unwrap();
    }

    // -- fault injection through the WalIo seam ----------------------------

    use batchlens_fault::{arm, Fault, FaultSpec, Trigger};

    /// Appends `records` with the append failpoint armed to fail the
    /// `fail_at`-th write with `fault`, then checks that (a) exactly that
    /// append errors, (b) its sequence number is not consumed, and (c) a
    /// fresh reader replays exactly the successful appends, bit-identical.
    fn run_append_fault_schedule(tag: &str, fail_at: u64, fault: Fault) {
        let _g = batchlens_fault::test_guard();
        let dir = temp_dir(tag);
        let records = sample_records();
        assert!((fail_at as usize) < records.len());
        let mut w = WalWriter::open(&dir, WalConfig::default()).unwrap();
        arm(
            FAILPOINT_APPEND,
            FaultSpec::new(fault, Trigger::Nth(fail_at)),
        );
        let mut expect_seq = 0;
        for (i, rec) in records.iter().enumerate() {
            let got = w.append(rec);
            if i as u64 == fail_at {
                let err = got.expect_err("armed append must fail");
                assert!(matches!(err, WalError::Io { op: "append", .. }));
                assert_eq!(w.next_seq(), expect_seq, "seq not consumed on error");
            } else {
                assert_eq!(got.unwrap(), expect_seq);
                expect_seq += 1;
            }
        }
        drop(w);
        batchlens_fault::disarm_all();

        // Recovery sees exactly the successful appends — the surviving
        // prefix plus everything written after the fault (a short write
        // leaves garbage mid-log only if a later append follows it; here
        // the reader must stop at the torn frame).
        let mut r = WalReader::open(&dir).unwrap();
        let got: Vec<(u64, WalRecord)> = (&mut r).collect();
        let survivors: Vec<&WalRecord> = records
            .iter()
            .enumerate()
            .filter(|(i, _)| *i as u64 != fail_at)
            .map(|(_, r)| r)
            .collect();
        // A short write leaves torn bytes in the middle of the segment, so
        // replay stops at the fault position; a clean error leaves no bytes
        // and the whole log survives.
        let expect: Vec<&WalRecord> = match fault {
            Fault::ShortWrite(_) => survivors.iter().take(fail_at as usize).copied().collect(),
            _ => survivors,
        };
        assert_eq!(got.len(), expect.len(), "fault {fault:?} at {fail_at}");
        for ((seq, got), want) in got.iter().zip(&expect) {
            assert!(*seq < records.len() as u64);
            assert_bits_equal(got, want);
        }
        if matches!(fault, Fault::ShortWrite(_)) && (fail_at as usize) < records.len() {
            assert!(!r.report().reason.is_clean(), "torn tail must be reported");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_append_errors_skip_exactly_one_record_per_position() {
        let n = sample_records().len() as u64;
        for fail_at in 0..n {
            run_append_fault_schedule("fp-err", fail_at, Fault::Error);
        }
    }

    #[test]
    fn injected_short_writes_tear_the_log_at_every_position() {
        let n = sample_records().len() as u64;
        for fail_at in 0..n {
            for torn_bytes in [1, 7, 13] {
                run_append_fault_schedule("fp-short", fail_at, Fault::ShortWrite(torn_bytes));
            }
        }
    }

    #[test]
    fn torn_tail_from_short_write_is_truncated_on_reopen() {
        let _g = batchlens_fault::test_guard();
        let dir = temp_dir("fp-reopen");
        let records = sample_records();
        let mut w = WalWriter::open(&dir, WalConfig::default()).unwrap();
        for rec in &records[..3] {
            w.append(rec).unwrap();
        }
        arm(
            FAILPOINT_APPEND,
            FaultSpec::new(Fault::ShortWrite(9), Trigger::Always),
        );
        w.append(&records[3]).expect_err("torn append");
        drop(w);
        batchlens_fault::disarm_all();

        // Reopening truncates the torn tail and resumes the numbering; the
        // resumed log replays bit-identical to prefix + resumed appends.
        let mut w = WalWriter::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(w.next_seq(), 3);
        assert_eq!(w.append(&records[4]).unwrap(), 3);
        drop(w);
        let mut r = WalReader::open(&dir).unwrap();
        let got: Vec<(u64, WalRecord)> = (&mut r).collect();
        assert_eq!(got.len(), 4);
        for ((seq, got), want) in got
            .iter()
            .zip(records[..3].iter().chain(std::iter::once(&records[4])))
        {
            assert!(*seq < 4);
            assert_bits_equal(got, want);
        }
        assert!(r.report().reason.is_clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_sync_surfaces_without_losing_buffered_writes() {
        let _g = batchlens_fault::test_guard();
        let dir = temp_dir("fp-sync");
        let cfg = WalConfig {
            segment_bytes: u64::MAX,
            sync_each_append: true,
        };
        let records = sample_records();
        let mut w = WalWriter::open(&dir, cfg).unwrap();
        w.append(&records[0]).unwrap();
        arm(
            FAILPOINT_SYNC,
            FaultSpec::new(Fault::Error, Trigger::Nth(0)),
        );
        let err = w.append(&records[1]).expect_err("sync must fail");
        assert!(matches!(err, WalError::Io { op: "sync", .. }));
        // Only the fsync failed: the frame is in the file, so its sequence
        // number is consumed and the next append cannot reuse it.
        assert_eq!(w.next_seq(), 2);
        for (i, rec) in records.iter().enumerate().skip(2) {
            assert_eq!(w.append(rec).unwrap(), i as u64);
        }
        batchlens_fault::disarm_all();
        // A standalone sync failure surfaces from sync() too.
        arm(
            FAILPOINT_SYNC,
            FaultSpec::new(Fault::Error, Trigger::Always),
        );
        assert!(w.sync().is_err());
        batchlens_fault::disarm_all();
        assert!(w.sync().is_ok());
        drop(w);

        // Every appended record replays, the one whose fsync failed
        // included, and replay stops clean.
        let mut r = WalReader::open(&dir).unwrap();
        let got: Vec<(u64, WalRecord)> = (&mut r).collect();
        assert_eq!(got.len(), records.len());
        for (i, ((seq, got), want)) in got.iter().zip(&records).enumerate() {
            assert_eq!(*seq, i as u64);
            assert_bits_equal(got, want);
        }
        let report = r.report();
        assert!(report.reason.is_clean(), "{:?}", report.reason);
        assert_eq!(report.bytes_discarded, 0);
        // A resumed writer keeps all of it.
        let w = WalWriter::open(&dir, cfg).unwrap();
        assert_eq!(w.next_seq(), records.len() as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Counts the writes and fsyncs a writer issues, then performs them.
    #[derive(Debug, Clone, Default)]
    struct CountingIo {
        writes: std::sync::Arc<AtomicU64>,
        syncs: std::sync::Arc<AtomicU64>,
    }

    impl WalIo for CountingIo {
        fn write_frame(&mut self, file: &mut File, buf: &[u8]) -> io::Result<()> {
            self.writes.fetch_add(1, Ordering::Relaxed);
            file.write_all(buf)
        }

        fn sync_data(&mut self, file: &mut File) -> io::Result<()> {
            self.syncs.fetch_add(1, Ordering::Relaxed);
            file.sync_data()
        }
    }

    fn segment_contents(dir: &Path) -> Vec<(u64, Vec<u8>)> {
        list_segments(dir)
            .unwrap()
            .into_iter()
            .map(|(first, path)| (first, fs::read(path).unwrap()))
            .collect()
    }

    #[test]
    fn group_appends_write_the_same_log_as_record_appends() {
        let _g = batchlens_fault::test_guard();
        let records: Vec<WalRecord> = (0..4).flat_map(|_| sample_records()).collect();
        for segment_bytes in [64, 100, 333, WalConfig::default().segment_bytes] {
            let cfg = WalConfig {
                segment_bytes,
                sync_each_append: false,
            };
            let singles = temp_dir("group-singles");
            let mut w = WalWriter::open(&singles, cfg).unwrap();
            for rec in &records {
                w.append(rec).unwrap();
            }
            drop(w);
            for group in [1, 3, 7, records.len()] {
                let grouped = temp_dir("group-grouped");
                let mut w = WalWriter::open(&grouped, cfg).unwrap();
                for (i, chunk) in records.chunks(group).enumerate() {
                    let first = (i * group) as u64;
                    assert_eq!(
                        w.append_all(chunk).unwrap(),
                        first..first + chunk.len() as u64
                    );
                }
                assert_eq!(w.append_all(&[] as &[WalRecord]).unwrap(), {
                    let n = records.len() as u64;
                    n..n
                });
                drop(w);
                assert_eq!(
                    segment_contents(&grouped),
                    segment_contents(&singles),
                    "segment_bytes {segment_bytes}, groups of {group}"
                );
                fs::remove_dir_all(&grouped).unwrap();
            }
            fs::remove_dir_all(&singles).unwrap();
        }
    }

    #[test]
    fn a_group_is_one_write_per_segment_and_one_fsync() {
        let records: Vec<WalRecord> = (0..4).flat_map(|_| sample_records()).collect();
        // Without rotation: one write and, under sync_each_append, one
        // fsync for the whole group; an empty group issues neither.
        let dir = temp_dir("group-count");
        let io = CountingIo::default();
        let cfg = WalConfig {
            segment_bytes: u64::MAX,
            sync_each_append: true,
        };
        let mut w = WalWriter::open_with_io(&dir, cfg, Box::new(io.clone())).unwrap();
        w.append_all(&records).unwrap();
        w.append_all(&[] as &[WalRecord]).unwrap();
        assert_eq!(io.writes.load(Ordering::Relaxed), 1);
        assert_eq!(io.syncs.load(Ordering::Relaxed), 1);
        drop(w);
        fs::remove_dir_all(&dir).unwrap();

        // Across rotations: one write per segment the group touches, and
        // one fsync per sealed segment.
        let dir = temp_dir("group-count-rotate");
        let io = CountingIo::default();
        let cfg = WalConfig {
            segment_bytes: 256,
            sync_each_append: false,
        };
        let mut w = WalWriter::open_with_io(&dir, cfg, Box::new(io.clone())).unwrap();
        w.append_all(&records).unwrap();
        drop(w);
        let segments = list_segments(&dir).unwrap().len() as u64;
        assert!(segments > 2, "the group must cross rotations");
        assert_eq!(io.writes.load(Ordering::Relaxed), segments);
        assert_eq!(io.syncs.load(Ordering::Relaxed), segments - 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_group_write_consumes_no_sequence_numbers() {
        let _g = batchlens_fault::test_guard();
        let dir = temp_dir("fp-group-err");
        let records = sample_records();
        let mut w = WalWriter::open(&dir, WalConfig::default()).unwrap();
        w.append_all(&records[..2]).unwrap();
        arm(
            FAILPOINT_APPEND,
            FaultSpec::new(Fault::Error, Trigger::Nth(0)),
        );
        let err = w.append_all(&records[2..5]).expect_err("armed write fails");
        assert!(matches!(err, WalError::Io { op: "append", .. }));
        assert_eq!(w.next_seq(), 2, "a failed group consumes nothing");
        batchlens_fault::disarm_all();
        assert_eq!(w.append_all(&records[5..]).unwrap(), 2..5);
        drop(w);
        let mut r = WalReader::open(&dir).unwrap();
        let got: Vec<(u64, WalRecord)> = (&mut r).collect();
        let want: Vec<&WalRecord> = records[..2].iter().chain(&records[5..]).collect();
        assert_eq!(got.len(), want.len());
        for (i, ((seq, got), want)) in got.iter().zip(want).enumerate() {
            assert_eq!(*seq, i as u64);
            assert_bits_equal(got, want);
        }
        assert!(r.report().reason.is_clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_write_failing_after_a_rotation_keeps_the_sealed_segment() {
        let _g = batchlens_fault::test_guard();
        let cfg = WalConfig {
            segment_bytes: 200,
            sync_each_append: false,
        };
        let records: Vec<WalRecord> = (0..2).flat_map(|_| sample_records()).collect();
        // The frames one-record appends put in the first segment.
        let mut sealed = 0;
        let mut filled = 0;
        for rec in &records {
            let len = encode_frame(0, rec).len();
            if filled > 0 && filled + len > cfg.segment_bytes as usize {
                break;
            }
            filled += len;
            sealed += 1;
        }
        assert!(sealed < records.len());

        let dir = temp_dir("fp-group-rotate");
        let mut w = WalWriter::open(&dir, cfg).unwrap();
        arm(
            FAILPOINT_APPEND,
            FaultSpec::new(Fault::Error, Trigger::Nth(1)),
        );
        let err = w.append_all(&records).expect_err("second write fails");
        batchlens_fault::disarm_all();
        assert!(matches!(err, WalError::Io { op: "append", .. }));
        // The first write went through before the rotation: its frames
        // keep their sequence numbers; the failed write's frames do not.
        assert_eq!(w.next_seq(), sealed as u64);
        let first = sealed as u64;
        assert_eq!(
            w.append_all(&records[sealed..]).unwrap(),
            first..records.len() as u64
        );
        drop(w);

        // Retrying the rest leaves the log a clean one-record log would.
        let singles = temp_dir("fp-group-rotate-singles");
        let mut w = WalWriter::open(&singles, cfg).unwrap();
        for rec in &records {
            w.append(rec).unwrap();
        }
        drop(w);
        assert_eq!(segment_contents(&dir), segment_contents(&singles));
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&singles).unwrap();
    }

    #[test]
    fn torn_group_write_keeps_exactly_its_whole_frames() {
        let _g = batchlens_fault::test_guard();
        let records = sample_records();
        let (head, group) = records.split_first().unwrap();
        // Byte offsets, inside the group's write, at which each frame ends.
        let mut ends = Vec::new();
        let mut encoded = Vec::new();
        for (i, rec) in group.iter().enumerate() {
            encode_frame_into(&mut encoded, 1 + i as u64, rec);
            ends.push(encoded.len());
        }
        for torn in 0..=encoded.len() {
            let dir = temp_dir("fp-group-torn");
            let mut w = WalWriter::open(&dir, WalConfig::default()).unwrap();
            w.append(head).unwrap();
            arm(
                FAILPOINT_APPEND,
                FaultSpec::new(Fault::ShortWrite(torn), Trigger::Nth(0)),
            );
            w.append_all(group).expect_err("torn write fails");
            batchlens_fault::disarm_all();
            assert_eq!(w.next_seq(), 1, "a torn group consumes nothing");
            drop(w);

            let whole = ends.iter().take_while(|&&end| end <= torn).count();
            let mut r = WalReader::open(&dir).unwrap();
            let got: Vec<(u64, WalRecord)> = (&mut r).collect();
            assert_eq!(got.len(), 1 + whole, "torn after {torn} bytes");
            for ((_, got), want) in got.iter().zip(&records) {
                assert_bits_equal(got, want);
            }
            let at_boundary = torn == 0 || ends.contains(&torn);
            assert_eq!(r.report().reason.is_clean(), at_boundary);
            // A resumed writer truncates the torn frame and continues.
            let mut w = WalWriter::open(&dir, WalConfig::default()).unwrap();
            assert_eq!(w.next_seq(), 1 + whole as u64);
            w.append(head).unwrap();
            drop(w);
            let mut r = WalReader::open(&dir).unwrap();
            assert_eq!((&mut r).count(), 2 + whole);
            assert!(r.report().reason.is_clean());
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn disarmed_failpoints_leave_round_trips_untouched() {
        let _g = batchlens_fault::test_guard();
        let dir = temp_dir("fp-disarmed");
        let records = sample_records();
        let mut w = WalWriter::open(&dir, WalConfig::default()).unwrap();
        for rec in &records {
            w.append(rec).unwrap();
        }
        drop(w);
        let mut r = WalReader::open(&dir).unwrap();
        assert_eq!((&mut r).count(), records.len());
        assert!(r.report().reason.is_clean());
        fs::remove_dir_all(&dir).unwrap();
    }
}
