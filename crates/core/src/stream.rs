//! The real-time online extension (the paper's future work §VI: "extend
//! BatchLens into a real-time online system").
//!
//! [`StreamMonitor`] ingests `server_usage` records as they arrive and runs
//! the **same incremental detector kernels** as batch detection: each
//! machine gets a `DetectorBank` of live
//! [`batchlens_analytics::detect::DetectorState`]s (one per detector per
//! metric, plus the paired-series thrashing state), so every ingest is O(1)
//! amortized per detector — the window is never re-scanned. Alerts are
//! typed: they carry the [`AnomalyKind`] and severity computed by the shared
//! kernels, so an online alert and a batch
//! [`AnomalySpan`](batchlens_analytics::detect::AnomalySpan) can never
//! disagree about what a sample means.
//!
//! The monitor also maintains the **online rolling index layer**: a
//! [`batchlens_trace::RollingIntervalIndex`] over live instance execution
//! windows (insert on completed records, open/close on start/finish events,
//! windowed eviction behind the event-time frontier) plus rolling per-machine
//! liveness checkpoints — all under the same single lock as detector ingest.
//! [`StreamMonitor::live_view`] exposes that state through
//! [`batchlens_trace::DatasetQuery`], the exact query surface of a batch
//! [`batchlens_trace::TraceDataset`]: `jobs_running_at`, `alive_at`,
//! `machines_active_at`, sample-and-hold utilization and windowed series —
//! each O(log n + k) over the live window, never a window re-scan. The
//! workspace `stream_batch_differential` proptest suite proves every shared
//! query bit-identical between the two sources.
//!
//! The monitor is thread-safe — a single `parking_lot` mutex over all
//! rolling state, taken exactly once per ingest — and pairs with a
//! `crossbeam` channel for producer/consumer ingest.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::path::Path;

use batchlens_analytics::detect::{
    AnomalyKind, Detector, DetectorState, PairedDetectorState, ThrashingDetector, ThrashingState,
    ThresholdDetector,
};
use batchlens_trace::wal::{RecoveryReport, WalError, WalReader, WalRecord, WalWriter};
use batchlens_trace::{
    BatchInstanceRecord, DatasetQuery, JobId, MachineEventRecord, MachineId, Metric, QueryFrame,
    RollingIntervalIndex, ServerUsageRecord, TaskId, TimeDelta, TimeRange, TimeSeries, Timestamp,
    UtilizationTriple,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// A rolling per-machine window of recent utilization, kept for snapshot
/// queries ([`StreamMonitor::series`], [`StreamMonitor::latest`]). Detection
/// does **not** scan this window — the detector bank is incremental.
#[derive(Debug, Clone, Default)]
struct Window {
    samples: VecDeque<(Timestamp, [f64; 3])>,
}

impl Window {
    /// Inserts a sample at its time-sorted position (the common in-order
    /// arrival appends; a bounded out-of-order arrival shifts at most the
    /// few samples that beat it). Returns `false` — without inserting — when
    /// a sample at `t` already exists. Eviction trails the newest sample.
    fn insert(&mut self, t: Timestamp, util: [f64; 3], horizon: TimeDelta) -> bool {
        let pos = self.samples.partition_point(|&(st, _)| st < t);
        if self.samples.get(pos).is_some_and(|&(st, _)| st == t) {
            return false;
        }
        self.samples.insert(pos, (t, util));
        let cutoff = self.samples.back().expect("just inserted").0 - horizon;
        while let Some(&(ft, _)) = self.samples.front() {
            if ft < cutoff {
                self.samples.pop_front();
            } else {
                break;
            }
        }
        true
    }

    fn series(&self, metric: Metric) -> TimeSeries {
        let mut s = TimeSeries::with_capacity(self.samples.len());
        for &(t, util) in &self.samples {
            s.push(t, util[metric.index()])
                .expect("window samples are strictly time-ordered");
        }
        s
    }

    /// Samples inside the half-open `window`, as a series — the live
    /// counterpart of slicing a batch usage series.
    fn series_in(&self, metric: Metric, window: &TimeRange) -> TimeSeries {
        let lo = self.samples.partition_point(|&(st, _)| st < window.start());
        let hi = self.samples.partition_point(|&(st, _)| st < window.end());
        let mut s = TimeSeries::with_capacity(hi - lo);
        for &(t, util) in self.samples.iter().skip(lo).take(hi - lo) {
            s.push(t, util[metric.index()])
                .expect("window samples are strictly time-ordered");
        }
        s
    }

    /// The sample-and-hold triple at `t`: last retained sample at or before
    /// it — O(log n).
    fn at_or_before(&self, t: Timestamp) -> Option<[f64; 3]> {
        let n = self.samples.partition_point(|&(st, _)| st <= t);
        (n > 0).then(|| self.samples[n - 1].1)
    }

    fn latest(&self) -> Option<(Timestamp, [f64; 3])> {
        self.samples.back().copied()
    }
}

/// An online alert emitted by the monitor, typed by the shared detector
/// kernels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// Monotonic firing sequence number, assigned when the alert is
    /// retained in the monitor's buffer: the `n`-th alert ever fired has
    /// `seq == n` (0-based), independent of overflow. Cursors
    /// ([`StreamMonitor::alerts_since`]) position on this number.
    pub seq: u64,
    /// The machine the alert concerns.
    pub machine: MachineId,
    /// When it fired.
    pub at: Timestamp,
    /// The metric that tripped. Thrashing alerts report [`Metric::Memory`]
    /// (the pinned resource driving the collapse).
    pub metric: Metric,
    /// The value of that metric when the alert fired.
    pub value: f64,
    /// What kind of anomaly the kernel saw.
    pub kind: AnomalyKind,
    /// The kernel's severity for this sample (threshold excess, mem-cpu
    /// gap, …); comparable only within one kind.
    pub severity: f64,
}

impl Alert {
    /// Whether this is a thrashing alert.
    pub fn is_thrashing(&self) -> bool {
        self.kind == AnomalyKind::Thrashing
    }
}

/// One non-destructive read of the retained alert buffer from a cursor
/// position — the result of [`StreamMonitor::alerts_since`].
///
/// A consumer holds only its cursor (a sequence number), asks for
/// everything at or after it, and advances the cursor to [`next_seq`].
/// Nothing is removed from the buffer, so any number of independently
/// positioned consumers can poll the same monitor without stealing each
/// other's alerts. A cursor that lags behind eviction (buffer overflow,
/// see [`StreamConfig::alert_capacity`]) observes the gap in [`missed`]
/// instead of silently skipping it.
///
/// [`next_seq`]: AlertBatch::next_seq
/// [`missed`]: AlertBatch::missed
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertBatch {
    /// The retained alerts with `seq >=` the requested cursor, oldest
    /// first. Their sequence numbers are contiguous.
    pub alerts: Vec<Alert>,
    /// The cursor position for the next poll: one past the newest alert
    /// fired so far (equal to [`StreamMonitor::total_alerts`]). Polling
    /// again with this value returns only alerts fired in between.
    pub next_seq: u64,
    /// How many alerts with `seq >=` the requested cursor were already
    /// evicted from the buffer by overflow — the lagging-cursor signal.
    /// Zero when the cursor kept up.
    pub missed: u64,
}

/// Configuration of the online monitor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// How long the rolling window retains samples; also the horizon of the
    /// thrashing kernel's CPU reference maximum.
    pub horizon: TimeDelta,
    /// Utilization above which a high-utilization alert fires.
    pub high: f64,
    /// Memory level considered pinned for thrashing.
    pub mem_pinned: f64,
    /// Minimum CPU decline from the window maximum for thrashing.
    pub cpu_decline: f64,
    /// Minimum `mem - cpu` gap for a sample to look thrashing.
    pub min_gap: f64,
    /// How many fired alerts the monitor retains for cursor reads
    /// ([`StreamMonitor::alerts_since`]); beyond it the oldest are dropped
    /// (and counted in [`StreamMonitor::alerts_overflowed`]).
    pub alert_capacity: usize,
    /// How far behind a machine's newest sample an out-of-order usage
    /// record may arrive and still be accepted into the rolling window and
    /// indexes (it skips the causal detector kernels, which cannot rewind).
    /// Records later than this — or duplicating a retained timestamp — are
    /// dropped and counted in [`StreamMonitor::stale_dropped`]. Defaults to
    /// one v2017 reporting period (300 s).
    pub ooo_tolerance: TimeDelta,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            horizon: TimeDelta::minutes(30),
            high: 0.9,
            mem_pinned: 0.6,
            cpu_decline: 0.1,
            min_gap: 0.25,
            alert_capacity: 4096,
            ooo_tolerance: TimeDelta::minutes(5),
        }
    }
}

/// A [`StreamConfig`] rejected at monitor construction — the typed answer
/// to configurations that would silently misbehave downstream (a
/// non-positive horizon evicts everything or nothing; a negative tolerance
/// makes the straggler comparison vacuous; a zero alert capacity drops
/// every alert on the floor while looking like a working buffer).
///
/// A **zero** `ooo_tolerance` stays legal: it is the documented strict
/// mode ("any out-of-order record is a straggler") and changes no
/// comparison semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamConfigError {
    /// `horizon` was zero or negative: the rolling window would retain
    /// nothing (or, negative, evict samples ahead of the frontier).
    NonPositiveHorizon {
        /// The offending horizon in seconds.
        seconds: i64,
    },
    /// `ooo_tolerance` was negative: even in-order records would compare as
    /// stragglers.
    NegativeOooTolerance {
        /// The offending tolerance in seconds.
        seconds: i64,
    },
    /// `alert_capacity` was zero: every fired alert would be dropped
    /// before any cursor could read it.
    ZeroAlertCapacity,
}

impl fmt::Display for StreamConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamConfigError::NonPositiveHorizon { seconds } => {
                write!(f, "stream horizon must be positive, got {seconds} s")
            }
            StreamConfigError::NegativeOooTolerance { seconds } => {
                write!(f, "ooo_tolerance must be non-negative, got {seconds} s")
            }
            StreamConfigError::ZeroAlertCapacity => {
                write!(f, "alert_capacity must be at least 1")
            }
        }
    }
}

impl std::error::Error for StreamConfigError {}

impl StreamConfig {
    /// Checks the configuration's invariants (see [`StreamConfigError`]).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), StreamConfigError> {
        if self.horizon.as_seconds() <= 0 {
            return Err(StreamConfigError::NonPositiveHorizon {
                seconds: self.horizon.as_seconds(),
            });
        }
        if self.ooo_tolerance.as_seconds() < 0 {
            return Err(StreamConfigError::NegativeOooTolerance {
                seconds: self.ooo_tolerance.as_seconds(),
            });
        }
        if self.alert_capacity == 0 {
            return Err(StreamConfigError::ZeroAlertCapacity);
        }
        Ok(())
    }

    /// The thrashing kernel this configuration implies.
    fn thrashing_detector(&self) -> ThrashingDetector {
        ThrashingDetector {
            mem_high: self.mem_pinned,
            min_gap: self.min_gap,
            min_samples: 1,
            min_cpu_decline: self.cpu_decline,
            horizon: self.horizon,
        }
    }
}

/// The live detector states of one machine: one single-series state per
/// detector per metric, plus the paired-series thrashing state. Each state
/// carries the [`AnomalyKind`] its detector reports, so alerts stay typed
/// exactly as the batch spans would be.
#[derive(Debug)]
struct DetectorBank {
    /// `per_metric[metric][detector]`, parallel to the monitor's detector
    /// set.
    per_metric: [Vec<(AnomalyKind, Box<dyn DetectorState>)>; 3],
    thrashing: ThrashingState,
}

impl DetectorBank {
    fn new(detectors: &[Box<dyn Detector>], thrashing: &ThrashingDetector) -> Self {
        DetectorBank {
            per_metric: std::array::from_fn(|_| {
                detectors.iter().map(|d| (d.kind(), d.state())).collect()
            }),
            thrashing: thrashing.state(),
        }
    }

    /// Pushes one record's utilization triple through every live state,
    /// appending alerts for flagged samples. O(detectors) per record,
    /// independent of window length.
    fn ingest(&mut self, machine: MachineId, t: Timestamp, util: [f64; 3], out: &mut Vec<Alert>) {
        let thrash =
            self.thrashing
                .push(t, util[Metric::Cpu.index()], util[Metric::Memory.index()]);
        if thrash.flagged {
            out.push(Alert {
                seq: 0, // stamped at retention, under the monitor lock
                machine,
                at: t,
                metric: Metric::Memory,
                value: util[Metric::Memory.index()],
                kind: AnomalyKind::Thrashing,
                severity: thrash.severity,
            });
        }
        for metric in Metric::ALL {
            let v = util[metric.index()];
            for (kind, state) in &mut self.per_metric[metric.index()] {
                let step = state.push(t, v);
                if step.flagged {
                    out.push(Alert {
                        seq: 0, // stamped at retention, under the monitor lock
                        machine,
                        at: t,
                        metric,
                        value: v,
                        kind: *kind,
                        severity: step.severity,
                    });
                }
            }
        }
    }
}

/// Per-machine rolling usage state: snapshot window + live detector bank.
#[derive(Debug)]
struct MachineState {
    window: Window,
    bank: DetectorBank,
    last_seen: Option<Timestamp>,
}

/// Everything the monitor knows about one machine: one entry of its
/// machine table. A machine has an entry once any delivery names it.
#[derive(Debug, Default)]
struct Machine {
    /// The usage state, once the machine has reported usage. Boxed, so
    /// each map value stays 32 bytes: the per-record lookup of the usage
    /// step and the frame's pass walk small map nodes.
    usage: Option<Box<MachineState>>,
    /// `(event time, alive afterwards)` checkpoints, kept time-sorted under
    /// bounded out-of-order event arrival — the rolling twin of the batch
    /// dataset's liveness checkpoints.
    liveness: Vec<(Timestamp, bool)>,
}

/// The rolling instance index of the live window, maintained incrementally
/// on every ingest and queried through [`LiveWindowView`].
#[derive(Debug, Default)]
struct LiveIndexes {
    /// Instance execution windows over the live window; payload ids index
    /// `keys`.
    intervals: RollingIntervalIndex,
    /// Rolling id → `(job, task, machine)` of the indexed instance.
    keys: Vec<(JobId, TaskId, MachineId)>,
    /// Ids freed by eviction, reused by the next insert so `keys` stays
    /// bounded by the window's live interval count.
    free_ids: Vec<u32>,
    /// Started-but-unfinished instances: `(job, task, seq)` → rolling id.
    open_instances: BTreeMap<(JobId, TaskId, u32), u32>,
    /// Event-time high-water mark across structural ingests; eviction
    /// trails it by the horizon.
    frontier: Option<Timestamp>,
}

impl LiveIndexes {
    fn alloc_id(&mut self, key: (JobId, TaskId, MachineId)) -> u32 {
        if let Some(id) = self.free_ids.pop() {
            self.keys[id as usize] = key;
            id
        } else {
            self.keys.push(key);
            (self.keys.len() - 1) as u32
        }
    }

    /// Advances the frontier to `t` and evicts intervals that ended at or
    /// before `frontier - horizon` — they can never match a query inside
    /// the live window again.
    fn advance(&mut self, t: Timestamp, horizon: TimeDelta) {
        let frontier = self.frontier.map_or(t, |f| f.max(t));
        self.frontier = Some(frontier);
        let evicted = self.intervals.evict_before(frontier - horizon);
        self.free_ids.extend(evicted);
    }
}

/// A sealed epoch of usage records, ingested under **one** monitor lock
/// acquisition ([`StreamMonitor::ingest_batch`]) instead of one per record.
///
/// The shape follows the task-batching exemplars: a stable identity
/// (`id`), a wall-clock provenance stamp (`created_at`), the payload, and
/// a `version` that increases monotonically across the batches of one
/// producer — the epoch number. The version is logged after the epoch's
/// records as a [`batchlens_trace::wal::WalRecord::EpochSealed`] marker,
/// so after [`StreamMonitor::recover`] the monitor's
/// [`StreamMonitor::sealed_epoch`] names the last epoch the log holds in
/// full, and the producer resends from the epoch after it.
///
/// Construction cost is O(records) to move the payload in; ingesting it is
/// O(records × detectors) amortized — identical per-record work to
/// [`StreamMonitor::ingest`], minus the per-record lock round-trip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Batch {
    /// Stable identity of this batch (unique per producer).
    pub id: u64,
    /// When the producer sealed the batch.
    pub created_at: Timestamp,
    /// The usage records of the epoch, in delivery order.
    pub records: Vec<ServerUsageRecord>,
    /// Monotonic epoch version across one producer's batches. Strictly
    /// increasing; logged with the batch's records, as the group's last
    /// frame, before any record is applied.
    pub version: u64,
}

/// Stamps [`Batch`]es with sequential ids and strictly increasing epoch
/// versions — the single-producer sequencer in front of a monitor. O(1)
/// per seal, thread-safe.
#[derive(Debug, Default)]
pub struct BatchSequencer {
    next: std::sync::atomic::AtomicU64,
}

impl BatchSequencer {
    /// A sequencer starting at id/version 0.
    pub fn new() -> BatchSequencer {
        BatchSequencer::default()
    }

    /// Seals `records` into the next batch: `id` counts from 0 and
    /// `version == id + 1` (versions start at 1 so that "nothing sealed
    /// yet" is distinguishable from epoch 0 in recovery cuts).
    pub fn seal(&self, created_at: Timestamp, records: Vec<ServerUsageRecord>) -> Batch {
        let id = self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Batch {
            id,
            created_at,
            records,
            version: id + 1,
        }
    }
}

/// The WAL group of one sealed epoch: a `Usage` frame per record, in
/// delivery order, then the epoch's `EpochSealed` marker.
fn epoch_group(
    records: impl Iterator<Item = ServerUsageRecord>,
    epoch: u64,
) -> impl Iterator<Item = WalRecord> {
    records
        .map(WalRecord::Usage)
        .chain(std::iter::once(WalRecord::EpochSealed(epoch)))
}

/// Everything the monitor mutates, behind one lock: the machine table
/// (each machine's usage window, detector bank and liveness checkpoints in
/// one entry), the rolling instance index, the counters, the retained
/// alerts and the WAL.
#[derive(Debug, Default)]
struct Inner {
    /// The machine table, ascending by id: every machine a usage record,
    /// an instance placement or a lifecycle event has named.
    machines: BTreeMap<MachineId, Machine>,
    live: LiveIndexes,
    /// Bumped on **every** mutation that could change a query answer
    /// (accepted usage, structural ingest, lifecycle events — not on
    /// rejected stragglers or pure counter updates), so `(version,
    /// timestamp)` keys are sound memoization keys for live frames.
    version: u64,
    ingested: u64,
    stale_dropped: u64,
    late_accepted: u64,
    ingested_instances: u64,
    ingested_events: u64,
    /// Fired alerts retained for cursor reads
    /// ([`StreamMonitor::alerts_since`]), capped at
    /// [`StreamConfig::alert_capacity`] (oldest dropped first).
    alerts: VecDeque<Alert>,
    total_alerts: u64,
    alerts_overflowed: u64,
    /// The write-ahead log, when attached: every delivery is appended here
    /// **before** `StreamMonitor::apply` applies it, under this same lock,
    /// so append order is apply order, and replay runs the same `apply`
    /// over the log in that order.
    wal: Option<WalWriter>,
    /// Appends that failed at the IO layer. Monitoring must keep running on
    /// a full disk; the gap is surfaced here (and in `last_wal_error`)
    /// instead of panicking or poisoning ingest.
    wal_errors: u64,
    last_wal_error: Option<String>,
    /// The highest batch epoch sealed into this monitor's log
    /// ([`WalRecord::EpochSealed`]); `None` before the first sealed batch.
    /// Not query-visible: sealing bumps no version and changes no answer.
    sealed_epoch: Option<u64>,
}

impl Inner {
    /// Sequence number of the oldest retained alert; equals the next
    /// sequence to be assigned when the buffer is empty. The buffer always
    /// holds the contiguous run `[alert_base_seq, total_alerts)`.
    fn alert_base_seq(&self) -> u64 {
        self.total_alerts - self.alerts.len() as u64
    }

    /// The read behind [`StreamMonitor::alerts_since`]: everything
    /// retained at or after `seq`, plus cursor bookkeeping.
    fn alerts_from(&self, seq: u64) -> AlertBatch {
        let base = self.alert_base_seq();
        let start = seq.max(base).min(self.total_alerts);
        AlertBatch {
            alerts: self
                .alerts
                .iter()
                .skip((start - base) as usize)
                .copied()
                .collect(),
            next_seq: self.total_alerts,
            missed: start.saturating_sub(seq),
        }
    }

    /// Appends deliveries to the attached WAL as one group — one `write`
    /// ([`WalWriter::append_all`]) — and is a no-op without one. Called
    /// before the mutations are applied; an IO failure counts once per
    /// group and is not propagated — see [`StreamMonitor::wal_errors`].
    fn log_wal(&mut self, records: impl IntoIterator<Item = WalRecord>) {
        if let Some(wal) = self.wal.as_mut() {
            if let Err(e) = wal.append_all(records) {
                self.wal_errors += 1;
                self.last_wal_error = Some(e.to_string());
            }
        }
    }

    /// Retained anomaly alerts per machine, parallel to the ascending
    /// `machines`. Counts over the retained alert buffer (the same alerts
    /// `alerts_since` serves), so a frame's sidebar overlay agrees exactly
    /// with the alert feed captured at the same version.
    fn anomaly_counts(&self, machines: &[MachineId]) -> Vec<u32> {
        let mut counts = vec![0u32; machines.len()];
        for alert in &self.alerts {
            if let Ok(i) = machines.binary_search(&alert.machine) {
                counts[i] = counts[i].saturating_add(1);
            }
        }
        counts
    }
}

impl Machine {
    /// Sample-and-hold utilization from the machine's usage window.
    fn util_at(&self, t: Timestamp) -> Option<UtilizationTriple> {
        let [cpu, mem, disk] = self.usage.as_ref()?.window.at_or_before(t)?;
        Some(UtilizationTriple::clamped(cpu, mem, disk))
    }

    /// Liveness from the machine's checkpoints; alive without any.
    fn alive_at(&self, t: Timestamp) -> bool {
        batchlens_trace::alive_at_checkpoints(&self.liveness, t)
    }
}

/// The per-query logic of [`LiveWindowView`], implemented as a
/// [`DatasetQuery`] **on the locked state itself**: the lock-per-query
/// [`LiveWindowView`] impl and the single-lock [`DatasetQuery::frame`]
/// (evaluated entirely under one lock) share one definition of every
/// answer.
impl DatasetQuery for Inner {
    fn machine_ids(&self) -> Vec<MachineId> {
        self.machines.keys().copied().collect()
    }

    fn jobs_running_at(&self, t: Timestamp) -> Vec<JobId> {
        let live = &self.live;
        let mut ids: Vec<JobId> = Vec::new();
        live.intervals
            .stab_with(t, |id| ids.push(live.keys[id as usize].0));
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    fn running_triples_at(&self, t: Timestamp) -> Vec<(JobId, TaskId, MachineId)> {
        let live = &self.live;
        let mut out: Vec<(JobId, TaskId, MachineId)> = Vec::new();
        live.intervals
            .stab_with(t, |id| out.push(live.keys[id as usize]));
        out.sort_unstable();
        out
    }

    fn alive_at(&self, machine: MachineId, t: Timestamp) -> bool {
        self.machines.get(&machine).is_none_or(|m| m.alive_at(t))
    }

    fn util_at(&self, machine: MachineId, t: Timestamp) -> Option<UtilizationTriple> {
        self.machines.get(&machine)?.util_at(t)
    }

    fn running_instance_count_at(&self, t: Timestamp) -> usize {
        self.live.intervals.count_at(t)
    }

    fn series_window(
        &self,
        machine: MachineId,
        metric: Metric,
        window: &TimeRange,
    ) -> Option<TimeSeries> {
        let usage = self.machines.get(&machine)?.usage.as_ref()?;
        Some(usage.window.series_in(metric, window))
    }

    fn state_version(&self) -> u64 {
        self.version
    }

    /// One ordered pass over the machine table, which answers each
    /// machine's liveness and utilization from its own entry.
    fn frame(&self, at: Timestamp) -> QueryFrame {
        let n = self.machines.len();
        let (mut machines, mut alive, mut utils) = (
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
        );
        for (&id, machine) in &self.machines {
            machines.push(id);
            alive.push(machine.alive_at(at));
            utils.push(machine.util_at(at));
        }
        let anomalies = self.anomaly_counts(&machines);
        QueryFrame::with_anomalies(
            at,
            self.version,
            self.running_triples_at(at),
            machines,
            alive,
            utils,
            anomalies,
        )
    }
}

/// Thread-safe online monitor over live detector banks.
pub struct StreamMonitor {
    cfg: StreamConfig,
    detectors: Vec<Box<dyn Detector>>,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for StreamMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamMonitor")
            .field("cfg", &self.cfg)
            .field(
                "detectors",
                &self.detectors.iter().map(|d| d.name()).collect::<Vec<_>>(),
            )
            .field("tracked_machines", &self.tracked_machines())
            .finish()
    }
}

/// Why [`StreamMonitor::recover`] failed outright. Corrupt log *contents*
/// are never an error — they stop replay cleanly and are described by the
/// returned [`RecoveryReport`]; this type covers only an invalid
/// configuration or an OS-level IO failure opening the log.
#[derive(Debug)]
pub enum RecoverError {
    /// The configuration failed [`StreamConfig::validate`].
    Config(StreamConfigError),
    /// The log directory or a segment could not be read.
    Wal(WalError),
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Config(e) => write!(f, "invalid stream config: {e}"),
            RecoverError::Wal(e) => write!(f, "cannot read wal: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::Config(e) => Some(e),
            RecoverError::Wal(e) => Some(e),
        }
    }
}

impl From<StreamConfigError> for RecoverError {
    fn from(e: StreamConfigError) -> RecoverError {
        RecoverError::Config(e)
    }
}

impl From<WalError> for RecoverError {
    fn from(e: WalError) -> RecoverError {
        RecoverError::Wal(e)
    }
}

impl StreamMonitor {
    /// Creates a monitor with the default single-series detector set: a
    /// threshold kernel at `cfg.high` per metric (plus the implied paired
    /// thrashing kernel).
    ///
    /// # Errors
    ///
    /// Returns [`StreamConfigError`] when `cfg` fails
    /// [`StreamConfig::validate`].
    pub fn new(cfg: StreamConfig) -> Result<Self, StreamConfigError> {
        let threshold = ThresholdDetector {
            high: cfg.high,
            min_samples: 1,
        };
        StreamMonitor::with_detectors(cfg, vec![Box::new(threshold)])
    }

    /// Creates a monitor running `detectors` on every metric of every
    /// machine — any batch [`Detector`] streams unchanged, because batch
    /// detection *is* the streaming kernel.
    ///
    /// # Errors
    ///
    /// Returns [`StreamConfigError`] when `cfg` fails
    /// [`StreamConfig::validate`].
    pub fn with_detectors(
        cfg: StreamConfig,
        detectors: Vec<Box<dyn Detector>>,
    ) -> Result<Self, StreamConfigError> {
        cfg.validate()?;
        Ok(StreamMonitor {
            cfg,
            detectors,
            inner: Mutex::new(Inner::default()),
        })
    }

    /// Rebuilds a monitor from the write-ahead log in `dir`, with the
    /// default detector set of [`StreamMonitor::new`].
    ///
    /// Replay applies every intact logged delivery through the same apply
    /// step that applied it live, so the recovered monitor reaches the
    /// **exact pre-crash state**: `state_version`, every counter (including
    /// straggler rejections), window contents and evictions, detector
    /// kernel states, and the alert buffer are all bit-identical to the
    /// monitor that wrote the log — the workspace
    /// `crash_recovery_differential` suite enforces this for arbitrary kill
    /// points.
    ///
    /// Recovery **degrades gracefully, never panics**: a torn final record,
    /// a truncated segment, or a corrupted body stops replay at the last
    /// intact record, and the returned [`RecoveryReport`] says how many
    /// records were replayed, how many bytes were discarded, and why
    /// ([`batchlens_trace::wal::WalStopReason`]). `cfg` must equal the
    /// pre-crash configuration; it is not stored in the log.
    ///
    /// The recovered monitor has **no WAL attached** — attach a resumed
    /// writer (`WalWriter::open` on the same directory truncates the torn
    /// tail) via [`StreamMonitor::attach_wal`] to continue logging.
    ///
    /// # Errors
    ///
    /// [`RecoverError::Config`] for an invalid `cfg`, [`RecoverError::Wal`]
    /// for OS-level IO failures reading the log. Corrupt log **contents**
    /// are not an error.
    pub fn recover(
        dir: &Path,
        cfg: StreamConfig,
    ) -> Result<(StreamMonitor, RecoveryReport), RecoverError> {
        let threshold = ThresholdDetector {
            high: cfg.high,
            min_samples: 1,
        };
        StreamMonitor::recover_with_detectors(dir, cfg, vec![Box::new(threshold)])
    }

    /// [`StreamMonitor::recover`] with a custom detector set (which must
    /// equal the pre-crash one for bit-identical kernel states).
    ///
    /// # Errors
    ///
    /// As [`StreamMonitor::recover`].
    pub fn recover_with_detectors(
        dir: &Path,
        cfg: StreamConfig,
        detectors: Vec<Box<dyn Detector>>,
    ) -> Result<(StreamMonitor, RecoveryReport), RecoverError> {
        let monitor = StreamMonitor::with_detectors(cfg, detectors)?;
        let mut reader = WalReader::open(dir)?;
        for (_, record) in &mut reader {
            monitor.apply_replayed(record);
        }
        Ok((monitor, reader.report()))
    }

    /// Applies one WAL record exactly as the live delivery it logged —
    /// the replay step of [`StreamMonitor::recover`], public so a
    /// snapshot-plus-tail restore can feed the tail of a newer log into a
    /// recovered monitor. If a WAL is attached, the applied record is
    /// logged again (it is a fresh delivery from this monitor's view).
    pub fn apply_replayed(&self, record: WalRecord) {
        self.deliver(record);
    }

    /// Attaches a write-ahead log: from now on every delivery is appended
    /// (under the monitor lock, **before** it is applied) so the monitor
    /// can be rebuilt bit-identically by [`StreamMonitor::recover`].
    /// Returns the previously attached writer, if any.
    pub fn attach_wal(&self, writer: WalWriter) -> Option<WalWriter> {
        self.inner.lock().wal.replace(writer)
    }

    /// Detaches and returns the write-ahead log writer, leaving the monitor
    /// unlogged.
    pub fn detach_wal(&self) -> Option<WalWriter> {
        self.inner.lock().wal.take()
    }

    /// Whether a WAL is currently attached.
    pub fn wal_attached(&self) -> bool {
        self.inner.lock().wal.is_some()
    }

    /// The directory of the attached WAL, if one is attached.
    pub fn wal_dir(&self) -> Option<std::path::PathBuf> {
        self.inner
            .lock()
            .wal
            .as_ref()
            .map(|w| w.dir().to_path_buf())
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Forces the attached WAL to stable storage (`fsync`); a no-op without
    /// one. IO failures are counted like failed appends.
    pub fn sync_wal(&self) {
        let mut inner = self.inner.lock();
        if let Some(wal) = inner.wal.as_mut() {
            if let Err(e) = wal.sync() {
                inner.wal_errors += 1;
                inner.last_wal_error = Some(e.to_string());
            }
        }
    }

    /// WAL appends/syncs that failed at the IO layer since construction —
    /// one per failed call, so a sealed epoch's group append counts at
    /// most once. Monitoring keeps running through log failures (a full
    /// disk must not stop detection); a non-zero count means the log has
    /// gaps and a recovery from it would be correspondingly behind.
    pub fn wal_errors(&self) -> u64 {
        self.inner.lock().wal_errors
    }

    /// The most recent WAL IO failure, rendered, if any.
    pub fn last_wal_error(&self) -> Option<String> {
        self.inner.lock().last_wal_error.clone()
    }

    /// Whether the durability layer is trustworthy right now: `true` when
    /// no WAL is attached (nothing promised) or the attached log has taken
    /// zero IO errors. Readiness probes gate on this — a monitor with WAL
    /// gaps keeps serving but should stop attracting new traffic.
    pub fn wal_healthy(&self) -> bool {
        let inner = self.inner.lock();
        inner.wal.is_none() || inner.wal_errors == 0
    }

    /// Ingests one usage record, returning the alerts it triggers (empty
    /// for a quiet sample — no allocation in that case).
    ///
    /// Arrival-order tolerance: a record at or before the machine's newest
    /// sample is **accepted into the rolling window** (and the snapshot
    /// queries it serves) when it is at most [`StreamConfig::ooo_tolerance`]
    /// late — counted in [`StreamMonitor::late_accepted`] — but skips the
    /// causal detector kernels, which consume strictly time-ordered samples
    /// and cannot rewind. Later stragglers, and duplicates of a retained
    /// timestamp, are dropped and counted in
    /// [`StreamMonitor::stale_dropped`] — never silently ignored.
    pub fn ingest(&self, rec: ServerUsageRecord) -> Vec<Alert> {
        self.deliver(WalRecord::Usage(rec)).0
    }

    /// The path of every one-delivery call, live or replayed: takes the
    /// lock, logs `delivery` to the attached WAL, then applies it. Returns
    /// the alerts it fired and whether it moved `state_version`.
    ///
    /// Inlined with [`StreamMonitor::apply`], so each public method
    /// compiles to its own arm: called out of line, the dispatch made a
    /// one-record `ingest` about a quarter slower.
    #[inline(always)]
    fn deliver(&self, delivery: WalRecord) -> (Vec<Alert>, bool) {
        let mut alerts = Vec::new();
        let mut inner = self.inner.lock();
        // A copy, so the match in `apply` still sees the variant the caller
        // built and folds away.
        inner.log_wal([delivery.clone()]);
        let version = inner.version;
        self.apply(&mut inner, delivery, &mut alerts);
        (alerts, inner.version != version)
    }

    /// How one delivery changes the monitor — the only definition, shared
    /// by live ingest, [`StreamMonitor::ingest_batch`] and WAL replay, which
    /// is what makes a recovered monitor bit-identical to the one that
    /// wrote the log.
    ///
    /// Callers log the delivery first — even one this step rejects (a
    /// straggler, a finish without a start), because replaying every
    /// *delivery* (acceptance decisions depend only on prior deliveries)
    /// is what makes recovery reproduce `stale_dropped` and
    /// `late_accepted` exactly.
    #[inline(always)]
    fn apply(&self, inner: &mut Inner, delivery: WalRecord, alerts: &mut Vec<Alert>) {
        match delivery {
            WalRecord::Usage(rec) => self.apply_usage(inner, rec, alerts),
            WalRecord::Instance(rec) => {
                inner.machines.entry(rec.machine).or_default();
                let live = &mut inner.live;
                if let Some(id) = live.open_instances.remove(&(rec.job, rec.task, rec.seq)) {
                    live.intervals.remove(id);
                    live.free_ids.push(id);
                }
                if rec.start_time < rec.end_time {
                    let id = live.alloc_id((rec.job, rec.task, rec.machine));
                    live.intervals.insert(rec.start_time, rec.end_time, id);
                }
                inner.ingested_instances += 1;
                inner.version += 1;
                live.advance(rec.end_time.max(rec.start_time), self.cfg.horizon);
            }
            WalRecord::InstanceStarted {
                job,
                task,
                seq,
                machine,
                at,
            } => {
                inner.machines.entry(machine).or_default();
                let live = &mut inner.live;
                if let Some(&id) = live.open_instances.get(&(job, task, seq)) {
                    live.intervals.remove(id);
                    live.free_ids.push(id);
                }
                let id = live.alloc_id((job, task, machine));
                live.intervals.open(at, id);
                live.open_instances.insert((job, task, seq), id);
                inner.ingested_instances += 1;
                inner.version += 1;
                live.advance(at, self.cfg.horizon);
            }
            WalRecord::InstanceFinished { job, task, seq, at } => {
                let live = &mut inner.live;
                let Some(id) = live.open_instances.remove(&(job, task, seq)) else {
                    return;
                };
                match live.intervals.close(id, at) {
                    Some(start) if start < at => {}
                    // Closed empty (or the id was unexpectedly gone): the id
                    // is free immediately rather than via eviction.
                    _ => live.free_ids.push(id),
                }
                inner.version += 1;
                live.advance(at, self.cfg.horizon);
            }
            WalRecord::MachineEvent(rec) => {
                let alive = rec.event.keeps_alive();
                let checkpoints = &mut inner.machines.entry(rec.machine).or_default().liveness;
                // Events sharing a timestamp merge dead-wins — the same
                // arrival-order-independent tie-break the batch index
                // applies, so out-of-order delivery of equal-time events
                // cannot diverge from it.
                let pos = checkpoints.partition_point(|&(t, _)| t < rec.time);
                match checkpoints.get_mut(pos) {
                    Some((t, a)) if *t == rec.time => *a = *a && alive,
                    _ => checkpoints.insert(pos, (rec.time, alive)),
                }
                // Bound the rolling list: checkpoints wholly behind the
                // window are compressed sample-and-hold — drop everything
                // before the last one at or behind the cutoff, which alone
                // decides liveness there. Done per machine on its own (rare)
                // event arrivals, so advance() stays O(evicted) on the hot
                // ingest paths.
                if let Some(frontier) = inner.live.frontier {
                    let cutoff = frontier - self.cfg.horizon;
                    let keep_from = checkpoints
                        .partition_point(|&(t, _)| t <= cutoff)
                        .saturating_sub(1);
                    checkpoints.drain(..keep_from);
                }
                inner.ingested_events += 1;
                inner.version += 1;
            }
            // Written only by monitors from before alert cursors, whose
            // destructive drain emptied the buffer. Replaying the marker
            // empties it too, so an old log recovers exactly the alerts
            // its writer had not handed out.
            WalRecord::AlertsDrained => inner.alerts.clear(),
            // Not query-visible: sealing bumps no version.
            WalRecord::EpochSealed(epoch) => inner.sealed_epoch = Some(epoch),
        }
    }

    /// The usage step of [`StreamMonitor::apply`], which
    /// [`StreamMonitor::ingest_batch`] also runs once per record of its
    /// epoch, so the batch path is bit-identical to record-at-a-time
    /// ingestion, `state_version` included.
    fn apply_usage(&self, inner: &mut Inner, rec: ServerUsageRecord, alerts: &mut Vec<Alert>) {
        let util = [
            rec.util.cpu.fraction(),
            rec.util.mem.fraction(),
            rec.util.disk.fraction(),
        ];
        let state = inner
            .machines
            .entry(rec.machine)
            .or_default()
            .usage
            .get_or_insert_with(|| {
                Box::new(MachineState {
                    window: Window::default(),
                    bank: DetectorBank::new(&self.detectors, &self.cfg.thrashing_detector()),
                    last_seen: None,
                })
            });
        if let Some(last) = state.last_seen.filter(|&last| rec.time <= last) {
            // A record exactly `ooo_tolerance` late is still accepted (the
            // documented "at most" contract — `<=`, not `<`); with
            // `ooo_tolerance == 0` only duplicates of the newest retained
            // timestamp reach this comparison, and those fall to the window
            // duplicate check.
            if last - rec.time <= self.cfg.ooo_tolerance
                && state.window.insert(rec.time, util, self.cfg.horizon)
            {
                inner.late_accepted += 1;
                inner.ingested += 1;
                inner.version += 1;
            } else {
                // Rejected stragglers change no query answer: the version
                // stays put so memoized frames survive them.
                inner.stale_dropped += 1;
            }
            return;
        }
        state.last_seen = Some(rec.time);
        state.window.insert(rec.time, util, self.cfg.horizon);
        let fired_from = alerts.len();
        state.bank.ingest(rec.machine, rec.time, util, alerts);
        inner.ingested += 1;
        inner.version += 1;
        // Retain fired alerts for consumers that poll (UI overlays) rather
        // than inspect each ingest's return value. Each alert is stamped
        // with its monotonic firing sequence number as it is retained
        // (`total_alerts` doubles as the next sequence number), so the
        // buffer always holds one contiguous run of sequence numbers —
        // the invariant [`StreamMonitor::alerts_since`] relies on. Only the
        // alerts this record fired are stamped: in batch mode `alerts`
        // accumulates across the epoch's records.
        for alert in alerts[fired_from..].iter_mut() {
            alert.seq = inner.total_alerts;
            inner.total_alerts += 1;
            if inner.alerts.len() == self.cfg.alert_capacity {
                inner.alerts.pop_front();
                inner.alerts_overflowed += 1;
            }
            inner.alerts.push_back(*alert);
        }
    }

    /// Ingests a sealed [`Batch`] under **one** lock acquisition and
    /// returns every alert the epoch fired, in record order. With a WAL
    /// attached, the records and the batch's epoch `version`
    /// ([`WalRecord::EpochSealed`]) are logged first, as one group.
    ///
    /// **Equivalence contract** (enforced by the workspace
    /// `batched_ingest_equivalence` suite): each record goes through the
    /// same usage step that [`StreamMonitor::ingest`] and WAL replay apply,
    /// so the resulting monitor state is bit-identical to ingesting the
    /// same records one `ingest` call at a time — windows, detector kernel
    /// states, counters, retained alerts, *and* `state_version`, which
    /// advances once per accepted record in both paths (the lock is
    /// amortized, the version is not). The only divergence is in the log
    /// itself: a batch-logged WAL additionally carries the epoch seal,
    /// which replays as a no-op on query-visible state.
    ///
    /// Logging: the epoch's usage frames and its seal go to the WAL as one
    /// group ([`WalWriter::append_all`]) before any record is applied, so
    /// the log bytes equal those of one [`StreamMonitor::ingest`] per
    /// record followed by the `EpochSealed` marker. A failed group write
    /// counts once in [`StreamMonitor::wal_errors`] and leaves the epoch
    /// out of the log (see [`WalWriter::append_all`] for a group that
    /// crosses a segment rotation); the epoch is still applied.
    ///
    /// Cost: O(records × detectors) amortized, one lock round-trip and,
    /// with a WAL attached, one `write` per epoch (plus one per segment
    /// rotation it crosses) instead of one of each per record.
    pub fn ingest_batch(&self, batch: &Batch) -> Vec<Alert> {
        let mut alerts = Vec::new();
        let mut inner = self.inner.lock();
        inner.log_wal(epoch_group(batch.records.iter().copied(), batch.version));
        for &rec in &batch.records {
            self.apply_usage(&mut inner, rec, &mut alerts);
        }
        let seal = WalRecord::EpochSealed(batch.version);
        self.apply(&mut inner, seal, &mut alerts);
        alerts
    }

    /// The highest batch epoch sealed into this monitor (live or via
    /// replay), if any.
    pub fn sealed_epoch(&self) -> Option<u64> {
        self.inner.lock().sealed_epoch
    }

    /// Number of records ingested so far (stragglers excluded).
    pub fn ingested(&self) -> u64 {
        self.inner.lock().ingested
    }

    /// Number of out-of-order records dropped so far (beyond
    /// [`StreamConfig::ooo_tolerance`], or duplicating a retained sample).
    pub fn stale_dropped(&self) -> u64 {
        self.inner.lock().stale_dropped
    }

    /// Number of out-of-order records accepted into the rolling window
    /// within [`StreamConfig::ooo_tolerance`].
    pub fn late_accepted(&self) -> u64 {
        self.inner.lock().late_accepted
    }

    /// Ingests one completed `batch_instance` record into the rolling
    /// interval index — O(log n), under the same single lock as usage
    /// ingest. Empty windows (`end <= start`) are accepted and never match
    /// a query, exactly as in the batch dataset. Re-ingesting an instance
    /// key that is currently open replaces the open interval.
    pub fn ingest_instance(&self, rec: BatchInstanceRecord) {
        self.deliver(WalRecord::Instance(rec));
    }

    /// Bulk-ingests completed instance records.
    pub fn ingest_instances<I>(&self, records: I)
    where
        I: IntoIterator<Item = BatchInstanceRecord>,
    {
        for rec in records {
            self.ingest_instance(rec);
        }
    }

    /// Records that instance `(job, task, seq)` started executing on
    /// `machine` at `at`: the live window treats it as running from `at`
    /// onwards until [`StreamMonitor::instance_finished`] closes it —
    /// O(log n). A repeated start for the same key replaces the open
    /// interval (an instance restart).
    pub fn instance_started(
        &self,
        job: JobId,
        task: TaskId,
        seq: u32,
        machine: MachineId,
        at: Timestamp,
    ) {
        self.deliver(WalRecord::InstanceStarted {
            job,
            task,
            seq,
            machine,
            at,
        });
    }

    /// Closes the open interval of instance `(job, task, seq)` at `at` —
    /// O(log n). Returns `false` (and changes nothing) when no matching
    /// start was seen; an end at or before the recorded start drops the
    /// interval as empty, matching batch semantics.
    pub fn instance_finished(&self, job: JobId, task: TaskId, seq: u32, at: Timestamp) -> bool {
        // Only a finish with a matching start moves the version.
        let (_, moved) = self.deliver(WalRecord::InstanceFinished { job, task, seq, at });
        moved
    }

    /// Ingests one machine lifecycle event as a rolling liveness checkpoint
    /// — O(log e + e') in the machine's own event count (time-sorted
    /// insertion tolerates out-of-order event arrival). The liveness rule is
    /// the batch dataset's: a machine is alive after an event unless it was
    /// `Remove`/`HardError`; machines without events count alive.
    pub fn ingest_machine_event(&self, rec: MachineEventRecord) {
        self.deliver(WalRecord::MachineEvent(rec));
    }

    /// Number of instance records/start events ingested into the rolling
    /// index so far.
    pub fn ingested_instances(&self) -> u64 {
        self.inner.lock().ingested_instances
    }

    /// Number of machine lifecycle events ingested so far.
    pub fn ingested_events(&self) -> u64 {
        self.inner.lock().ingested_events
    }

    /// Number of liveness checkpoints currently retained for `machine` —
    /// observability for the rolling compression (checkpoints wholly behind
    /// the window collapse to the single deciding one).
    pub fn liveness_checkpoint_count(&self, machine: MachineId) -> usize {
        self.inner
            .lock()
            .machines
            .get(&machine)
            .map_or(0, |m| m.liveness.len())
    }

    /// Number of instance intervals currently indexed in the live window
    /// (open + closed, evicted excluded).
    pub fn live_instances(&self) -> usize {
        self.inner.lock().live.intervals.len()
    }

    /// A [`DatasetQuery`] view over the live rolling window: the same
    /// snapshot-query surface as a batch `TraceDataset`, served by the
    /// rolling indexes (each call takes the monitor lock briefly; results
    /// are point-in-time snapshots). Drive `HierarchySnapshot::at`,
    /// `CoallocationIndex::at` or any other generic consumer directly from
    /// a live monitor with it.
    pub fn live_view(&self) -> LiveWindowView<'_> {
        LiveWindowView { monitor: self }
    }

    /// The monitor's state version: bumped on every ingest/evict that could
    /// change a live-window query answer (accepted usage — including late
    /// acceptances — structural instance ingest, lifecycle events), and
    /// **not** on rejected stragglers. An unchanged version guarantees every
    /// live query answers exactly as it did before, which is what lets
    /// consumers memoize frames on `(version, timestamp)`, as
    /// [`crate::BatchLens::frame_at`] does.
    pub fn state_version(&self) -> u64 {
        self.inner.lock().version
    }

    /// Non-destructive cursor read: every retained alert with `seq >= seq`
    /// (oldest first), the cursor position for the next poll, and how many
    /// alerts the cursor missed because they were evicted before it got
    /// there. O(returned) clone; the buffer is left intact, so any
    /// number of independently positioned consumers can poll concurrently.
    ///
    /// Start a fresh cursor at 0 to see everything still retained (alerts
    /// already evicted count as missed), or at
    /// [`StreamMonitor::next_alert_seq`] to see only alerts fired from now
    /// on.
    pub fn alerts_since(&self, seq: u64) -> AlertBatch {
        self.inner.lock().alerts_from(seq)
    }

    /// The sequence number the next fired alert will carry — the starting
    /// position for a cursor that wants only future alerts. Equal to
    /// [`StreamMonitor::total_alerts`].
    pub fn next_alert_seq(&self) -> u64 {
        self.inner.lock().total_alerts
    }

    /// Total alerts fired since construction (retained or evicted).
    pub fn total_alerts(&self) -> u64 {
        self.inner.lock().total_alerts
    }

    /// Retained alerts concerning `machine` — one lock acquisition and an
    /// O(len) walk of the alert buffer per call. A dashboard sidebar that
    /// needs every machine's count next to a frame should read
    /// [`batchlens_trace::QueryFrame::anomaly_count`] instead: the frame
    /// carries all counts from a single lock acquisition, consistent with
    /// the rest of the frame.
    pub fn machine_alert_count(&self, machine: MachineId) -> u32 {
        self.inner
            .lock()
            .alerts
            .iter()
            .filter(|a| a.machine == machine)
            .count() as u32
    }

    /// Alerts evicted because the buffer was full (see
    /// [`StreamConfig::alert_capacity`]).
    pub fn alerts_overflowed(&self) -> u64 {
        self.inner.lock().alerts_overflowed
    }

    /// The latest utilization known for a machine, if any.
    pub fn latest(&self, machine: MachineId) -> Option<[f64; 3]> {
        let inner = self.inner.lock();
        let (_, util) = inner
            .machines
            .get(&machine)?
            .usage
            .as_ref()?
            .window
            .latest()?;
        Some(util)
    }

    /// The current rolling series for a machine/metric (a snapshot copy).
    pub fn series(&self, machine: MachineId, metric: Metric) -> Option<TimeSeries> {
        let inner = self.inner.lock();
        let usage = inner.machines.get(&machine)?.usage.as_ref()?;
        Some(usage.window.series(metric))
    }

    /// Number of machines that have reported usage — an O(machines) count
    /// over the machine table, which also holds machines only placements
    /// or lifecycle events named.
    pub fn tracked_machines(&self) -> usize {
        let inner = self.inner.lock();
        inner
            .machines
            .values()
            .filter(|m| m.usage.is_some())
            .count()
    }
}

/// A [`DatasetQuery`] view over a [`StreamMonitor`]'s live rolling window.
///
/// Each query takes the monitor's single lock for its duration and answers
/// from the rolling indexes — the structural queries are O(log n + k) in the
/// live window's interval/checkpoint counts, mirroring the batch dataset's
/// indexed bounds; **no query scans the window**. Because the monitor keeps
/// ingesting, two calls can see different states; within one call the result
/// is a consistent snapshot.
///
/// The `stream_batch_differential` workspace suite proves each query
/// bit-identical to the batch [`batchlens_trace::TraceDataset`]
/// implementation over the same records.
#[derive(Debug, Clone, Copy)]
pub struct LiveWindowView<'a> {
    monitor: &'a StreamMonitor,
}

impl DatasetQuery for LiveWindowView<'_> {
    fn machine_ids(&self) -> Vec<MachineId> {
        self.monitor.inner.lock().machine_ids()
    }

    fn jobs_running_at(&self, t: Timestamp) -> Vec<JobId> {
        self.monitor.inner.lock().jobs_running_at(t)
    }

    fn running_triples_at(&self, t: Timestamp) -> Vec<(JobId, TaskId, MachineId)> {
        self.monitor.inner.lock().running_triples_at(t)
    }

    fn running_instance_count_at(&self, t: Timestamp) -> usize {
        self.monitor.inner.lock().running_instance_count_at(t)
    }

    fn alive_at(&self, machine: MachineId, t: Timestamp) -> bool {
        self.monitor.inner.lock().alive_at(machine, t)
    }

    fn util_at(&self, machine: MachineId, t: Timestamp) -> Option<UtilizationTriple> {
        self.monitor.inner.lock().util_at(machine, t)
    }

    fn series_window(
        &self,
        machine: MachineId,
        metric: Metric,
        window: &TimeRange,
    ) -> Option<TimeSeries> {
        self.monitor
            .inner
            .lock()
            .series_window(machine, metric, window)
    }

    fn state_version(&self) -> u64 {
        self.monitor.inner.lock().state_version()
    }

    /// The **single-lock transactional frame**: every probe of the frame —
    /// running triples, liveness, utilization, anomaly counts, the version
    /// stamp — is answered under one lock acquisition, in the locked
    /// state's one ordered pass over its machines, so concurrent ingest can
    /// never slide the window between the sub-answers the way it can when
    /// the queries are issued individually.
    fn frame(&self, at: Timestamp) -> QueryFrame {
        self.monitor.inner.lock().frame(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchlens_trace::{MachineEvent, UtilizationTriple};

    fn rec(machine: u32, t: i64, cpu: f64, mem: f64, disk: f64) -> ServerUsageRecord {
        ServerUsageRecord {
            time: Timestamp::new(t),
            machine: MachineId::new(machine),
            util: UtilizationTriple::clamped(cpu, mem, disk),
        }
    }

    #[test]
    fn high_utilization_alerts() {
        let m = StreamMonitor::new(StreamConfig::default()).unwrap();
        assert!(m.ingest(rec(1, 0, 0.3, 0.3, 0.3)).is_empty());
        let alerts = m.ingest(rec(1, 60, 0.95, 0.3, 0.3));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].metric, Metric::Cpu);
        assert_eq!(alerts[0].kind, AnomalyKind::HighUtilization);
        assert!(!alerts[0].is_thrashing());
        // Severity comes from the shared threshold kernel: value - high.
        assert!((alerts[0].severity - 0.05).abs() < 1e-9);
        assert_eq!(m.ingested(), 2);
    }

    #[test]
    fn rolling_window_evicts_old_samples() {
        let cfg = StreamConfig {
            horizon: TimeDelta::seconds(120),
            ..Default::default()
        };
        let m = StreamMonitor::new(cfg).unwrap();
        for i in 0..10 {
            m.ingest(rec(1, i * 60, 0.3, 0.3, 0.3));
        }
        let s = m.series(MachineId::new(1), Metric::Cpu).unwrap();
        // Horizon 120 s at 60 s spacing keeps ~3 samples.
        assert!(s.len() <= 3, "window not evicting: {} samples", s.len());
    }

    #[test]
    fn thrashing_is_detected_online() {
        let m = StreamMonitor::new(StreamConfig::default()).unwrap();
        // CPU high then collapsing, memory pinned.
        let mut last = None;
        for i in 0..30 {
            let t = i * 60;
            let cpu = if t < 600 {
                0.6
            } else {
                0.6 - (t - 600) as f64 / 2000.0
            };
            let alerts = m.ingest(rec(1, t, cpu.max(0.05), 0.9, 0.4));
            last = alerts.first().copied().or(last);
        }
        let alert = last.expect("thrashing should alert");
        assert!(alert.is_thrashing());
        assert_eq!(alert.metric, Metric::Memory);
        assert_eq!(alert.kind, AnomalyKind::Thrashing);
        // Severity is the mem-cpu gap from the shared kernel.
        assert!(alert.severity > 0.25);
    }

    #[test]
    fn mid_window_collapse_after_flat_start_alerts() {
        // A machine that idles flat, then collapses mid-stream while memory
        // pins: the window-max-to-current rule fires (the old
        // first-to-last-sample comparison could miss this shape once the
        // flat head rolled out of the window).
        let m = StreamMonitor::new(StreamConfig::default()).unwrap();
        let mut thrash = 0usize;
        for i in 0..40 {
            let t = i * 60;
            let (cpu, mem) = if t < 1200 {
                (0.5, 0.4)
            } else {
                ((0.5 - (t - 1200) as f64 / 1000.0).max(0.05), 0.9)
            };
            thrash += m
                .ingest(rec(1, t, cpu, mem, 0.3))
                .iter()
                .filter(|a| a.is_thrashing())
                .count();
        }
        assert!(thrash > 0, "collapse after flat start should alert");
    }

    #[test]
    fn stragglers_are_counted_not_silently_dropped() {
        let m = StreamMonitor::new(StreamConfig::default()).unwrap();
        m.ingest(rec(1, 600, 0.3, 0.3, 0.3));
        // Beyond the tolerance (default 300 s) and duplicate-timestamp
        // records are stragglers.
        assert!(m.ingest(rec(1, 240, 0.99, 0.3, 0.3)).is_empty());
        assert!(m.ingest(rec(1, 600, 0.99, 0.3, 0.3)).is_empty());
        assert_eq!(m.stale_dropped(), 2);
        assert_eq!(m.late_accepted(), 0);
        assert_eq!(m.ingested(), 1);
        // A fresh sample still flows.
        assert_eq!(m.ingest(rec(1, 660, 0.99, 0.3, 0.3)).len(), 1);
    }

    #[test]
    fn late_records_within_tolerance_enter_the_window() {
        // Regression: any out-of-order record used to be dropped as stale —
        // a 60 s-late sample (well within one reporting period) vanished
        // from every live-window query. It must land in the window now.
        let m = StreamMonitor::new(StreamConfig::default()).unwrap();
        m.ingest(rec(1, 300, 0.3, 0.3, 0.3));
        m.ingest(rec(1, 600, 0.3, 0.3, 0.3));
        let late = m.ingest(rec(1, 540, 0.95, 0.3, 0.3));
        // Accepted into the window (counted), but no alert: the causal
        // detector kernels cannot rewind behind t=600.
        assert!(late.is_empty());
        assert_eq!(m.late_accepted(), 1);
        assert_eq!(m.stale_dropped(), 0);
        assert_eq!(m.ingested(), 3);
        let s = m.series(MachineId::new(1), Metric::Cpu).unwrap();
        assert_eq!(s.len(), 3, "late sample retained");
        assert_eq!(s.times()[1], Timestamp::new(540), "time-sorted window");
        assert!((s.values()[1] - 0.95).abs() < 1e-9);
        // Sample-and-hold queries see it too.
        let u = m
            .live_view()
            .util_at(MachineId::new(1), Timestamp::new(550))
            .unwrap();
        assert!((u.cpu.fraction() - 0.95).abs() < 1e-9);
        // A duplicate of the late timestamp is still a straggler.
        assert!(m.ingest(rec(1, 540, 0.5, 0.3, 0.3)).is_empty());
        assert_eq!(m.stale_dropped(), 1);
        // Tolerance is configurable: zero restores the strict behavior.
        let strict = StreamMonitor::new(StreamConfig {
            ooo_tolerance: TimeDelta::seconds(0),
            ..Default::default()
        })
        .unwrap();
        strict.ingest(rec(1, 600, 0.3, 0.3, 0.3));
        strict.ingest(rec(1, 540, 0.3, 0.3, 0.3));
        assert_eq!(strict.stale_dropped(), 1);
        assert_eq!(strict.late_accepted(), 0);
    }

    #[test]
    fn custom_detector_banks_stream_batch_detectors() {
        use batchlens_analytics::detect::EwmaDetector;
        let m = StreamMonitor::with_detectors(
            StreamConfig::default(),
            vec![
                Box::new(ThresholdDetector {
                    high: 0.9,
                    min_samples: 1,
                }),
                Box::new(EwmaDetector::default()),
            ],
        )
        .unwrap();
        // A flat baseline then a step: EWMA flags the deviation even though
        // it never crosses the 0.9 threshold.
        let mut alerts = Vec::new();
        for i in 0..40 {
            let v = if i < 30 { 0.3 } else { 0.7 };
            alerts.extend(m.ingest(rec(1, i * 60, v, 0.2, 0.2)));
        }
        assert!(!alerts.is_empty());
        // The alert carries EWMA's own kind, not a generic label.
        assert!(alerts
            .iter()
            .all(|a| a.kind == AnomalyKind::Deviation && a.metric == Metric::Cpu));
    }

    #[test]
    fn latest_and_tracking() {
        let m = StreamMonitor::new(StreamConfig::default()).unwrap();
        m.ingest(rec(1, 0, 0.2, 0.3, 0.4));
        m.ingest(rec(2, 0, 0.5, 0.6, 0.7));
        assert_eq!(m.tracked_machines(), 2);
        let l = m.latest(MachineId::new(2)).unwrap();
        assert!((l[0] - 0.5).abs() < 1e-9);
        assert!(m.latest(MachineId::new(99)).is_none());
    }

    #[test]
    fn alert_buffer_caps_and_counts_overflow() {
        let cfg = StreamConfig {
            alert_capacity: 3,
            ..Default::default()
        };
        let m = StreamMonitor::new(cfg).unwrap();
        for i in 0..10 {
            m.ingest(rec(1, i * 60, 0.95, 0.3, 0.3));
        }
        let all = m.alerts_since(0);
        assert_eq!(all.alerts.len(), 3);
        assert_eq!(m.total_alerts(), 10);
        assert_eq!(m.alerts_overflowed(), 7);
        assert_eq!(all.missed, 7, "a cursor from 0 sees the overflow as missed");
        assert_eq!(all.next_seq, m.total_alerts());
        // The retained alerts are the most recent three.
        assert_eq!(all.alerts[0].at, Timestamp::new(7 * 60));

        // Capacity 0 is rejected at construction: a monitor that silently
        // discards every alert is a misconfiguration, not a mode.
        let err = StreamMonitor::new(StreamConfig {
            alert_capacity: 0,
            ..Default::default()
        })
        .unwrap_err();
        assert_eq!(err, StreamConfigError::ZeroAlertCapacity);
    }

    /// PR 7's non-destructive cursors: independently positioned
    /// `alerts_since` readers see every alert exactly once, never steal
    /// from each other, and observe eviction gaps as `missed`.
    #[test]
    fn alert_cursors_are_independent_and_observe_gaps() {
        let m = StreamMonitor::new(StreamConfig {
            alert_capacity: 2,
            ..Default::default()
        })
        .unwrap();
        let mut t = 0i64;
        let mut fire = |m: &StreamMonitor, n: usize| {
            for _ in 0..n {
                let fired = m.ingest(rec(1, t, 0.95, 0.3, 0.3));
                assert_eq!(fired.len(), 1);
                t += 60;
            }
        };
        assert_eq!(m.next_alert_seq(), 0);
        fire(&m, 3); // seqs 0,1,2 — seq 0 evicted (capacity 2)

        // A cursor from the beginning sees the retained run and the gap.
        let a = m.alerts_since(0);
        assert_eq!(a.missed, 1, "evicted seq 0 is observed, not skipped");
        assert_eq!(a.alerts.iter().map(|x| x.seq).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(a.next_seq, 3);
        // Re-polling at the returned cursor yields nothing new.
        let empty = m.alerts_since(a.next_seq);
        assert!(empty.alerts.is_empty());
        assert_eq!(empty.missed, 0);

        // A second cursor is untouched by the first one's reads.
        fire(&m, 1); // seq 3; buffer now [2, 3]
        let b = m.alerts_since(0);
        assert_eq!(b.missed, 2);
        assert_eq!(b.alerts.iter().map(|x| x.seq).collect::<Vec<_>>(), [2, 3]);
        let a2 = m.alerts_since(a.next_seq);
        assert_eq!(a2.alerts.iter().map(|x| x.seq).collect::<Vec<_>>(), [3]);
        assert_eq!(a2.missed, 0);

        // Cursor `a` polled seq 3 before it was evicted and kept up. A
        // cursor still at `a.next_seq` lags: it observes the evicted seq 3
        // as missed instead of skipping it silently.
        fire(&m, 2); // seqs 4, 5; buffer now [4, 5]
        let c = m.alerts_since(a2.next_seq);
        assert_eq!(c.alerts.iter().map(|x| x.seq).collect::<Vec<_>>(), [4, 5]);
        assert_eq!(c.missed, 0);
        let lagging = m.alerts_since(a.next_seq);
        assert_eq!(lagging.alerts, c.alerts);
        assert_eq!(lagging.missed, 1);
        assert_eq!(lagging.next_seq, 6);
        // A cursor positioned past everything fired so far sees nothing.
        let future = m.alerts_since(100);
        assert!(future.alerts.is_empty());
        assert_eq!(future.missed, 0);
        // The accounting invariant is untouched by cursor reads:
        // total(6) == retained(2) + overflowed(4).
        assert_eq!(m.total_alerts(), 2 + m.alerts_overflowed());
        assert_eq!(m.alerts_overflowed(), 4);
    }

    #[test]
    fn live_view_answers_structural_queries() {
        use batchlens_trace::{JobId, TaskId};
        let m = StreamMonitor::new(StreamConfig {
            horizon: TimeDelta::DAY,
            ..Default::default()
        })
        .unwrap();
        let inst =
            |job: u32, task: u32, seq: u32, machine: u32, s: i64, e: i64| BatchInstanceRecord {
                start_time: Timestamp::new(s),
                end_time: Timestamp::new(e),
                job: JobId::new(job),
                task: TaskId::new(task),
                seq,
                total: 2,
                machine: MachineId::new(machine),
                status: batchlens_trace::TaskStatus::Terminated,
                cpu_avg: 0.2,
                cpu_max: 0.4,
                mem_avg: 0.2,
                mem_max: 0.4,
            };
        m.ingest_instance(inst(1, 1, 0, 5, 0, 600));
        m.ingest_instance(inst(1, 1, 1, 3, 0, 500));
        m.ingest_instance(inst(2, 1, 0, 3, 300, 900));
        m.ingest_instance(inst(3, 1, 0, 7, 100, 100)); // empty: never runs
        assert_eq!(m.ingested_instances(), 4);
        assert_eq!(m.live_instances(), 3);
        let view = m.live_view();
        assert_eq!(
            view.jobs_running_at(Timestamp::new(400)),
            vec![JobId::new(1), JobId::new(2)]
        );
        assert_eq!(view.running_instance_count_at(Timestamp::new(400)), 3);
        assert_eq!(
            view.running_triples_at(Timestamp::new(550)),
            vec![
                (JobId::new(1), TaskId::new(1), MachineId::new(5)),
                (JobId::new(2), TaskId::new(1), MachineId::new(3)),
            ]
        );
        // Machines known from placements and events, plus usage reporters.
        m.ingest(rec(9, 0, 0.3, 0.3, 0.3));
        assert_eq!(
            view.machine_ids(),
            [3u32, 5, 7, 9].map(MachineId::new).to_vec()
        );
        // Liveness checkpoints drive alive_at / machines_active_at.
        m.ingest_machine_event(MachineEventRecord {
            time: Timestamp::new(450),
            machine: MachineId::new(3),
            event: MachineEvent::Remove,
            capacity_cpu: 0.0,
            capacity_mem: 0.0,
            capacity_disk: 0.0,
        });
        assert!(view.alive_at(MachineId::new(3), Timestamp::new(400)));
        assert!(!view.alive_at(MachineId::new(3), Timestamp::new(450)));
        assert!(
            view.alive_at(MachineId::new(99), Timestamp::new(0)),
            "unknown: alive"
        );
        assert_eq!(
            view.machines_active_at(Timestamp::new(500)),
            [5u32, 7, 9].map(MachineId::new).to_vec()
        );
        assert_eq!(m.ingested_events(), 1);

        // Machine 11 is named only by a lifecycle event and machine 13 only
        // by an instance start: both are known, but only machine 9, which
        // reported usage, is tracked.
        m.ingest_machine_event(MachineEventRecord {
            time: Timestamp::new(200),
            machine: MachineId::new(11),
            event: MachineEvent::Remove,
            capacity_cpu: 0.0,
            capacity_mem: 0.0,
            capacity_disk: 0.0,
        });
        m.instance_started(
            JobId::new(4),
            TaskId::new(1),
            0,
            MachineId::new(13),
            Timestamp::new(350),
        );
        assert_eq!(
            view.machine_ids(),
            [3u32, 5, 7, 9, 11, 13].map(MachineId::new).to_vec()
        );
        assert_eq!(m.tracked_machines(), 1);
        for (machine, checkpoints) in [(3u32, 1), (5, 0), (9, 0), (11, 1), (13, 0), (99, 0)] {
            assert_eq!(
                m.liveness_checkpoint_count(MachineId::new(machine)),
                checkpoints
            );
        }
        for t in [0i64, 200, 350, 450, 550, 1000].map(Timestamp::new) {
            let frame = view.frame(t);
            assert_eq!(frame.machine_ids(), &view.machine_ids()[..]);
            assert_eq!(frame.running_triples(), &view.running_triples_at(t)[..]);
            assert_eq!(frame.machines_active(), view.machines_active_at(t));
            for machine in [3u32, 5, 7, 9, 11, 13, 99].map(MachineId::new) {
                assert_eq!(frame.alive(machine), view.alive_at(machine, t), "{t}");
                assert_eq!(frame.util_of(machine), view.util_at(machine, t), "{t}");
            }
        }
    }

    #[test]
    fn live_view_tracks_open_instances_until_finished() {
        use batchlens_trace::{JobId, TaskId};
        let m = StreamMonitor::new(StreamConfig::default()).unwrap();
        let (job, task) = (JobId::new(4), TaskId::new(1));
        m.instance_started(job, task, 0, MachineId::new(2), Timestamp::new(100));
        let view = m.live_view();
        // Open: running from its start onwards, indefinitely.
        assert!(view.jobs_running_at(Timestamp::new(99)).is_empty());
        assert_eq!(view.jobs_running_at(Timestamp::new(100)), vec![job]);
        assert_eq!(view.jobs_running_at(Timestamp::new(1_000_000)), vec![job]);
        // Finishing bounds it half-open.
        assert!(m.instance_finished(job, task, 0, Timestamp::new(400)));
        assert_eq!(view.jobs_running_at(Timestamp::new(399)), vec![job]);
        assert!(view.jobs_running_at(Timestamp::new(400)).is_empty());
        // Unmatched finish is a no-op.
        assert!(!m.instance_finished(job, task, 9, Timestamp::new(500)));
        // A zero-length run drops out entirely.
        m.instance_started(job, task, 1, MachineId::new(2), Timestamp::new(500));
        assert!(m.instance_finished(job, task, 1, Timestamp::new(500)));
        assert!(view.jobs_running_at(Timestamp::new(500)).is_empty());
        assert_eq!(m.live_instances(), 1);
    }

    #[test]
    fn equal_time_events_merge_dead_wins_in_any_order() {
        let ev = |t: i64, event: MachineEvent| MachineEventRecord {
            time: Timestamp::new(t),
            machine: MachineId::new(1),
            event,
            capacity_cpu: 1.0,
            capacity_mem: 1.0,
            capacity_disk: 1.0,
        };
        // Add and Remove at the same instant, delivered in both orders —
        // and a batch dataset fed the same pair: all three agree (dead
        // wins).
        let add_first = StreamMonitor::new(StreamConfig::default()).unwrap();
        add_first.ingest_machine_event(ev(100, MachineEvent::Add));
        add_first.ingest_machine_event(ev(100, MachineEvent::Remove));
        let remove_first = StreamMonitor::new(StreamConfig::default()).unwrap();
        remove_first.ingest_machine_event(ev(100, MachineEvent::Remove));
        remove_first.ingest_machine_event(ev(100, MachineEvent::Add));
        let mut b = batchlens_trace::TraceDatasetBuilder::new();
        b.push_machine_event(ev(100, MachineEvent::Add));
        b.push_machine_event(ev(100, MachineEvent::Remove));
        let ds = b.build().unwrap();
        for t in [100i64, 500] {
            let t = Timestamp::new(t);
            assert!(!DatasetQuery::alive_at(&ds, MachineId::new(1), t));
            assert!(!add_first.live_view().alive_at(MachineId::new(1), t));
            assert!(!remove_first.live_view().alive_at(MachineId::new(1), t));
        }
        assert!(ds.machine_ids().contains(&MachineId::new(1)));
    }

    #[test]
    fn rolling_liveness_compresses_behind_the_window() {
        use batchlens_trace::{JobId, TaskId};
        let m = StreamMonitor::new(StreamConfig {
            horizon: TimeDelta::seconds(600),
            ..Default::default()
        })
        .unwrap();
        let ev = |t: i64, event: MachineEvent| MachineEventRecord {
            time: Timestamp::new(t),
            machine: MachineId::new(1),
            event,
            capacity_cpu: 1.0,
            capacity_mem: 1.0,
            capacity_disk: 1.0,
        };
        m.ingest_machine_event(ev(0, MachineEvent::Add));
        m.ingest_machine_event(ev(100, MachineEvent::SoftError));
        m.ingest_machine_event(ev(200, MachineEvent::Remove));
        // Push the frontier far ahead via a structural ingest, then deliver
        // one more event: the pre-window checkpoints compress to the single
        // deciding one.
        m.instance_started(
            JobId::new(1),
            TaskId::new(1),
            0,
            MachineId::new(2),
            Timestamp::new(5000),
        );
        m.ingest_machine_event(ev(5000, MachineEvent::Add));
        let view = m.live_view();
        // In-window liveness is unchanged by compression: the last
        // pre-cutoff checkpoint (Remove@200) still holds until the Add.
        assert!(!view.alive_at(MachineId::new(1), Timestamp::new(4500)));
        assert!(view.alive_at(MachineId::new(1), Timestamp::new(5000)));
        assert_eq!(m.ingested_events(), 4);
        // Only the deciding pre-window checkpoint plus the fresh one remain.
        assert_eq!(m.liveness_checkpoint_count(MachineId::new(1)), 2);
    }

    #[test]
    fn live_intervals_evict_behind_the_frontier() {
        let m = StreamMonitor::new(StreamConfig {
            horizon: TimeDelta::seconds(600),
            ..Default::default()
        })
        .unwrap();
        use batchlens_trace::{JobId, TaskId};
        let inst = |job: u32, s: i64, e: i64| BatchInstanceRecord {
            start_time: Timestamp::new(s),
            end_time: Timestamp::new(e),
            job: JobId::new(job),
            task: TaskId::new(1),
            seq: 0,
            total: 1,
            machine: MachineId::new(1),
            status: batchlens_trace::TaskStatus::Terminated,
            cpu_avg: 0.1,
            cpu_max: 0.2,
            mem_avg: 0.1,
            mem_max: 0.2,
        };
        m.ingest_instance(inst(1, 0, 100));
        m.ingest_instance(inst(2, 0, 650));
        assert_eq!(m.live_instances(), 2, "both inside the window");
        // Frontier moves to 1200: job 1 (ended 100 <= 1200-600) is evicted,
        // job 2 (ended 650, still inside the window) survives.
        m.ingest_instance(inst(3, 1100, 1200));
        assert_eq!(m.live_instances(), 2);
        let view = m.live_view();
        assert_eq!(
            view.jobs_running_at(Timestamp::new(500)),
            vec![JobId::new(2)]
        );
        // Job 1 ran at t=50 but its interval left the window: only job 2
        // remains visible there.
        assert_eq!(
            view.jobs_running_at(Timestamp::new(50)),
            vec![JobId::new(2)]
        );
    }

    #[test]
    fn state_version_tracks_query_visible_mutations() {
        use batchlens_trace::{JobId, TaskId};
        let m = StreamMonitor::new(StreamConfig::default()).unwrap();
        assert_eq!(m.state_version(), 0);
        m.ingest(rec(1, 600, 0.3, 0.3, 0.3));
        let v1 = m.state_version();
        assert!(v1 > 0, "accepted usage bumps");
        // Beyond-tolerance straggler and duplicate: rejected, no bump.
        m.ingest(rec(1, 100, 0.5, 0.3, 0.3));
        m.ingest(rec(1, 600, 0.5, 0.3, 0.3));
        assert_eq!(m.state_version(), v1, "rejected stragglers don't bump");
        // Late-but-accepted usage bumps: it changes window queries.
        m.ingest(rec(1, 540, 0.5, 0.3, 0.3));
        let v2 = m.state_version();
        assert!(v2 > v1);
        // Structural ingests bump.
        m.instance_started(
            JobId::new(1),
            TaskId::new(1),
            0,
            MachineId::new(2),
            Timestamp::new(0),
        );
        let v3 = m.state_version();
        assert!(v3 > v2);
        // Unmatched finish is a no-op: no bump.
        assert!(!m.instance_finished(JobId::new(1), TaskId::new(1), 9, Timestamp::new(50)));
        assert_eq!(m.state_version(), v3);
        assert!(m.instance_finished(JobId::new(1), TaskId::new(1), 0, Timestamp::new(50)));
        let v4 = m.state_version();
        assert!(v4 > v3);
        m.ingest_machine_event(MachineEventRecord {
            time: Timestamp::new(10),
            machine: MachineId::new(1),
            event: MachineEvent::Remove,
            capacity_cpu: 0.0,
            capacity_mem: 0.0,
            capacity_disk: 0.0,
        });
        assert!(m.state_version() > v4);
        // Pure reads never bump.
        let view = m.live_view();
        let _ = view.frame(Timestamp::new(50));
        assert_eq!(view.state_version(), m.state_version());
    }

    #[test]
    fn frame_is_consistent_with_individual_queries_when_idle() {
        use batchlens_trace::{DatasetQuery, JobId, TaskId};
        let m = StreamMonitor::new(StreamConfig {
            horizon: TimeDelta::DAY,
            ..Default::default()
        })
        .unwrap();
        let inst =
            |job: u32, task: u32, seq: u32, machine: u32, s: i64, e: i64| BatchInstanceRecord {
                start_time: Timestamp::new(s),
                end_time: Timestamp::new(e),
                job: JobId::new(job),
                task: TaskId::new(task),
                seq,
                total: 2,
                machine: MachineId::new(machine),
                status: batchlens_trace::TaskStatus::Terminated,
                cpu_avg: 0.2,
                cpu_max: 0.4,
                mem_avg: 0.2,
                mem_max: 0.4,
            };
        m.ingest_instance(inst(1, 1, 0, 5, 0, 600));
        m.ingest_instance(inst(1, 2, 0, 3, 100, 900));
        m.ingest_instance(inst(2, 1, 0, 3, 300, 900));
        m.ingest(rec(3, 0, 0.4, 0.3, 0.2));
        m.ingest(rec(3, 300, 0.6, 0.3, 0.2));
        m.ingest_machine_event(MachineEventRecord {
            time: Timestamp::new(450),
            machine: MachineId::new(5),
            event: MachineEvent::Remove,
            capacity_cpu: 0.0,
            capacity_mem: 0.0,
            capacity_disk: 0.0,
        });
        let view = m.live_view();
        for t in [0i64, 299, 300, 450, 899, 2000] {
            let t = Timestamp::new(t);
            let frame = view.frame(t);
            assert_eq!(frame.version(), m.state_version());
            assert_eq!(frame.running_triples(), &view.running_triples_at(t)[..]);
            assert_eq!(frame.jobs_running(), view.jobs_running_at(t));
            assert_eq!(frame.machine_ids(), &view.machine_ids()[..]);
            assert_eq!(frame.machines_active(), view.machines_active_at(t));
            for machine in [3u32, 5, 99] {
                let machine = MachineId::new(machine);
                assert_eq!(frame.alive(machine), view.alive_at(machine, t));
                assert_eq!(frame.util_of(machine), view.util_at(machine, t));
            }
        }
    }

    #[test]
    fn concurrent_ingest_is_safe() {
        use std::sync::Arc;
        use std::thread;
        let m = Arc::new(StreamMonitor::new(StreamConfig::default()).unwrap());
        let mut handles = Vec::new();
        for machine in 0..4u32 {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                for i in 0..100 {
                    m.ingest(rec(machine, i * 60, 0.3, 0.3, 0.3));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.ingested(), 400);
        assert_eq!(m.tracked_machines(), 4);
        assert_eq!(m.stale_dropped(), 0);
    }

    fn temp_wal_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "batchlens-stream-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn config_validation_rejects_degenerate_settings() {
        let err = StreamConfig {
            horizon: TimeDelta::seconds(0),
            ..Default::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err, StreamConfigError::NonPositiveHorizon { seconds: 0 });
        assert!(err.to_string().contains("horizon"));

        let err = StreamConfig {
            horizon: TimeDelta::seconds(-60),
            ..Default::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err, StreamConfigError::NonPositiveHorizon { seconds: -60 });

        let err = StreamConfig {
            ooo_tolerance: TimeDelta::seconds(-1),
            ..Default::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err, StreamConfigError::NegativeOooTolerance { seconds: -1 });

        // Zero tolerance is the documented strict mode, not an error.
        StreamConfig {
            ooo_tolerance: TimeDelta::seconds(0),
            ..Default::default()
        }
        .validate()
        .unwrap();
        StreamConfig::default().validate().unwrap();
    }

    #[test]
    fn wal_round_trip_recovers_exact_state() {
        use batchlens_trace::wal::{WalConfig, WalWriter};
        use batchlens_trace::{JobId, TaskId};
        let dir = temp_wal_dir("roundtrip");
        let m = StreamMonitor::new(StreamConfig::default()).unwrap();
        m.attach_wal(WalWriter::open(&dir, WalConfig::default()).unwrap());
        assert!(m.wal_attached());

        m.ingest(rec(1, 0, 0.3, 0.3, 0.3));
        m.ingest(rec(1, 60, 0.95, 0.4, 0.3)); // fires an alert
        m.ingest(rec(1, 30, 0.5, 0.5, 0.5)); // late-accepted
        m.ingest(rec(1, 30, 0.5, 0.5, 0.5)); // straggler duplicate
        m.instance_started(
            JobId::new(1),
            TaskId::new(1),
            0,
            MachineId::new(1),
            Timestamp::new(10),
        );
        m.ingest_instance(BatchInstanceRecord {
            start_time: Timestamp::new(0),
            end_time: Timestamp::new(50),
            job: JobId::new(2),
            task: TaskId::new(1),
            seq: 0,
            total: 1,
            machine: MachineId::new(2),
            status: batchlens_trace::InstanceStatus::Terminated,
            cpu_avg: 0.4,
            cpu_max: 0.8,
            mem_avg: 0.3,
            mem_max: 0.5,
        });
        m.ingest(rec(2, 90, 0.97, 0.3, 0.3)); // a second alert
        m.instance_finished(JobId::new(1), TaskId::new(1), 0, Timestamp::new(80));
        m.ingest_machine_event(MachineEventRecord {
            time: Timestamp::new(70),
            machine: MachineId::new(2),
            event: MachineEvent::Remove,
            capacity_cpu: 0.0,
            capacity_mem: 0.0,
            capacity_disk: 0.0,
        });
        assert_eq!(m.wal_errors(), 0);
        assert!(m.last_wal_error().is_none());
        drop(m.detach_wal());

        let (r, report) = StreamMonitor::recover(&dir, StreamConfig::default()).unwrap();
        assert!(report.reason.is_clean(), "{:?}", report.reason);
        assert_eq!(report.records_replayed, 9);
        assert_eq!(report.bytes_discarded, 0);

        let m = StreamMonitor::new(StreamConfig::default()).unwrap();
        // A reference monitor fed the same deliveries directly must agree
        // with recovery on every surface.
        m.ingest(rec(1, 0, 0.3, 0.3, 0.3));
        m.ingest(rec(1, 60, 0.95, 0.4, 0.3));
        m.ingest(rec(1, 30, 0.5, 0.5, 0.5));
        m.ingest(rec(1, 30, 0.5, 0.5, 0.5));
        m.instance_started(
            JobId::new(1),
            TaskId::new(1),
            0,
            MachineId::new(1),
            Timestamp::new(10),
        );
        m.ingest_instance(BatchInstanceRecord {
            start_time: Timestamp::new(0),
            end_time: Timestamp::new(50),
            job: JobId::new(2),
            task: TaskId::new(1),
            seq: 0,
            total: 1,
            machine: MachineId::new(2),
            status: batchlens_trace::InstanceStatus::Terminated,
            cpu_avg: 0.4,
            cpu_max: 0.8,
            mem_avg: 0.3,
            mem_max: 0.5,
        });
        m.ingest(rec(2, 90, 0.97, 0.3, 0.3));
        m.instance_finished(JobId::new(1), TaskId::new(1), 0, Timestamp::new(80));
        m.ingest_machine_event(MachineEventRecord {
            time: Timestamp::new(70),
            machine: MachineId::new(2),
            event: MachineEvent::Remove,
            capacity_cpu: 0.0,
            capacity_mem: 0.0,
            capacity_disk: 0.0,
        });

        assert_eq!(r.state_version(), m.state_version());
        assert_eq!(r.ingested(), m.ingested());
        assert_eq!(r.late_accepted(), m.late_accepted());
        assert_eq!(r.stale_dropped(), m.stale_dropped());
        assert_eq!(r.ingested_instances(), m.ingested_instances());
        assert_eq!(r.ingested_events(), m.ingested_events());
        assert_eq!(r.total_alerts(), m.total_alerts());
        assert_eq!(r.alerts_since(0), m.alerts_since(0));
        for t in [0, 30, 60, 70, 90] {
            assert_eq!(
                r.live_view().frame(Timestamp::new(t)),
                m.live_view().frame(Timestamp::new(t)),
                "frame({t})"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_from_empty_dir_is_clean_and_empty() {
        let dir = temp_wal_dir("empty");
        let (r, report) = StreamMonitor::recover(&dir, StreamConfig::default()).unwrap();
        assert!(report.reason.is_clean());
        assert_eq!(report.records_replayed, 0);
        assert_eq!(r.state_version(), 0);
        assert_eq!(r.ingested(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_rejects_invalid_config_before_touching_the_log() {
        let dir = temp_wal_dir("badcfg");
        let err = StreamMonitor::recover(
            &dir,
            StreamConfig {
                horizon: TimeDelta::seconds(0),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, RecoverError::Config(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_truncates_at_corruption_and_reports_it() {
        use batchlens_trace::wal::{WalConfig, WalWriter};
        let dir = temp_wal_dir("corrupt");
        let m = StreamMonitor::new(StreamConfig::default()).unwrap();
        m.attach_wal(WalWriter::open(&dir, WalConfig::default()).unwrap());
        for i in 0..20 {
            m.ingest(rec(1, i * 60, 0.3, 0.3, 0.3));
        }
        drop(m.detach_wal());

        // Flip one bit two-thirds of the way into the single segment.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "wal"))
            .unwrap();
        let mut bytes = std::fs::read(&seg).unwrap();
        let at = bytes.len() * 2 / 3;
        bytes[at] ^= 0x10;
        std::fs::write(&seg, &bytes).unwrap();

        let (r, report) = StreamMonitor::recover(&dir, StreamConfig::default()).unwrap();
        assert!(!report.reason.is_clean());
        assert!(report.bytes_discarded > 0);
        assert!(report.records_replayed < 20);
        // The prefix before the corruption replayed exactly.
        assert_eq!(r.ingested(), report.records_replayed);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A log written before alert cursors replaced the destructive drain
    /// may hold `AlertsDrained` markers. It still recovers exactly: the
    /// marker empties the retained buffer, as the drain did, so alerts
    /// its writer had handed out are not served again.
    #[test]
    fn legacy_drain_marker_replays_as_a_drain() {
        use batchlens_trace::wal::{WalConfig, WalWriter};
        let firing = |m: u32, t: i64| WalRecord::Usage(rec(m, t, 0.95, 0.3, 0.3));
        let legacy = [
            firing(1, 0),
            firing(1, 60),
            firing(2, 0),
            WalRecord::AlertsDrained,
            firing(1, 120),
            firing(2, 60),
        ];
        let dir = temp_wal_dir("legacy-drain");
        let mut w = WalWriter::open(&dir, WalConfig::default()).unwrap();
        for record in &legacy {
            w.append(record).unwrap();
        }
        drop(w);

        let (r, report) = StreamMonitor::recover(&dir, StreamConfig::default()).unwrap();
        assert!(report.reason.is_clean(), "{:?}", report.reason);
        assert_eq!(report.records_replayed, legacy.len() as u64);
        let all = r.alerts_since(0);
        assert_eq!(all.alerts.iter().map(|a| a.seq).collect::<Vec<_>>(), [3, 4]);
        assert_eq!(all.missed, 3, "the pre-marker alerts were handed out");
        assert_eq!(all.next_seq, 5);
        assert_eq!(r.total_alerts(), 5);
        // The frame's counts cover the retained alerts only.
        let frame = r.live_view().frame(Timestamp::new(120));
        assert_eq!(frame.anomaly_count(MachineId::new(1)), 1);
        assert_eq!(frame.anomaly_count(MachineId::new(2)), 1);

        // Replayed into a logged monitor, the marker is logged again, so
        // the new log recovers the same retained run.
        let relog = temp_wal_dir("legacy-drain-relog");
        let m = StreamMonitor::new(StreamConfig::default()).unwrap();
        m.attach_wal(WalWriter::open(&relog, WalConfig::default()).unwrap());
        for record in legacy {
            m.apply_replayed(record);
        }
        drop(m.detach_wal());
        let (again, _) = StreamMonitor::recover(&relog, StreamConfig::default()).unwrap();
        assert_eq!(again.alerts_since(0), all);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&relog).ok();
    }

    #[test]
    fn records_at_the_ends_of_time_are_kept_or_dropped_not_wrapped() {
        // Window eviction (`newest − horizon`), the rolling index's eviction
        // (`frontier − horizon`) and the lateness check (`last − time`) are
        // timestamp arithmetic, which saturates at the ends of i64.
        let m = StreamMonitor::new(StreamConfig::default()).unwrap();
        let (first, last) = (Timestamp::new(i64::MIN), Timestamp::new(i64::MAX));
        m.ingest(rec(1, i64::MIN, 0.3, 0.3, 0.3));
        assert_eq!(m.ingested(), 1);
        assert!(
            m.live_view().util_at(MachineId::new(1), first).is_some(),
            "a sample at i64::MIN outlives its own insert"
        );

        m.ingest_instance(BatchInstanceRecord {
            start_time: first,
            end_time: first + TimeDelta::MINUTE,
            job: JobId::new(1),
            task: TaskId::new(1),
            seq: 0,
            total: 1,
            machine: MachineId::new(1),
            status: batchlens_trace::InstanceStatus::Terminated,
            cpu_avg: 0.4,
            cpu_max: 0.8,
            mem_avg: 0.3,
            mem_max: 0.5,
        });
        assert_eq!(m.live_view().running_instance_count_at(first), 1);

        // i64::MIN + 5 after i64::MAX on one machine is ~2^64 s late, far
        // past the tolerance: a stale drop, not a late acceptance.
        m.ingest(rec(2, i64::MAX, 0.3, 0.3, 0.3));
        m.ingest(rec(2, i64::MIN + 5, 0.3, 0.3, 0.3));
        assert_eq!(m.stale_dropped(), 1);
        assert_eq!(m.late_accepted(), 0);
        assert_eq!(m.ingested(), 2);
        assert!(m.live_view().util_at(MachineId::new(2), last).is_some());
    }

    #[test]
    fn ooo_tolerance_boundary_is_inclusive() {
        // The acceptance rule is "at most `ooo_tolerance` late": a record
        // exactly at the boundary is accepted, one second beyond is not.
        let tol = 120;
        let m = StreamMonitor::new(StreamConfig {
            ooo_tolerance: TimeDelta::seconds(tol),
            ..Default::default()
        })
        .unwrap();
        m.ingest(rec(1, 1_000, 0.3, 0.3, 0.3));
        assert!(m.ingest(rec(1, 1_000 - tol, 0.4, 0.3, 0.3)).is_empty());
        assert_eq!(m.late_accepted(), 1, "exactly-tolerance-late is accepted");
        assert_eq!(m.stale_dropped(), 0);
        m.ingest(rec(1, 1_000 - tol - 1, 0.4, 0.3, 0.3));
        assert_eq!(m.late_accepted(), 1);
        assert_eq!(m.stale_dropped(), 1, "one past the boundary is dropped");
        assert_eq!(m.ingested(), 2);
        // Both counters partition the straggler space: every delivery is
        // either ingested, late_accepted (subset of ingested) or dropped.
        assert_eq!(
            m.series(MachineId::new(1), Metric::Cpu).unwrap().len(),
            2,
            "the boundary record landed in the window"
        );
    }

    #[test]
    fn zero_ooo_tolerance_accepts_only_strictly_newer_records() {
        let m = StreamMonitor::new(StreamConfig {
            ooo_tolerance: TimeDelta::seconds(0),
            ..Default::default()
        })
        .unwrap();
        m.ingest(rec(1, 100, 0.3, 0.3, 0.3));
        // `last - rec.time == 0 <= 0` passes the tolerance gate, but the
        // record is a duplicate timestamp: dropped by the re-delivery rule,
        // not by the lateness rule.
        m.ingest(rec(1, 100, 0.5, 0.3, 0.3));
        m.ingest(rec(1, 99, 0.5, 0.3, 0.3)); // 1 s late: dropped
        m.ingest(rec(1, 101, 0.5, 0.3, 0.3)); // in order: accepted
        assert_eq!(m.stale_dropped(), 2);
        assert_eq!(m.late_accepted(), 0);
        assert_eq!(m.ingested(), 2);
    }

    #[test]
    fn batch_ingest_is_bit_identical_to_singles() {
        // One epoch through `ingest_batch` vs the same records one at a
        // time: alerts (including sequence numbers), counters and
        // state_version must all agree — the lock is amortized, nothing
        // else changes.
        let sequencer = BatchSequencer::new();
        let mut records: Vec<ServerUsageRecord> = (0..60u32)
            .map(|i| {
                rec(
                    i % 3,
                    i64::from(i) * 30,
                    0.3 + f64::from(i % 7) / 10.0,
                    0.3,
                    0.3,
                )
            })
            .collect();
        records.push(rec(0, 60, 0.5, 0.3, 0.3)); // late within tolerance
        records.push(rec(0, 60, 0.5, 0.3, 0.3)); // duplicate: straggler
        records.push(rec(1, -4_000, 0.5, 0.3, 0.3)); // beyond tolerance
        let batch = sequencer.seal(Timestamp::new(2_000), records.clone());
        assert_eq!((batch.id, batch.version), (0, 1));

        let batched = StreamMonitor::new(StreamConfig::default()).unwrap();
        let serial = StreamMonitor::new(StreamConfig::default()).unwrap();
        let from_batch = batched.ingest_batch(&batch);
        let mut from_singles = Vec::new();
        for r in &records {
            from_singles.extend(serial.ingest(*r));
        }
        assert_eq!(
            from_batch, from_singles,
            "alerts bit-identical, seq included"
        );
        assert_eq!(
            batched.state_version(),
            serial.state_version(),
            "state_version advances per accepted record, not per batch"
        );
        assert_eq!(batched.ingested(), serial.ingested());
        assert_eq!(batched.stale_dropped(), serial.stale_dropped());
        assert_eq!(batched.late_accepted(), serial.late_accepted());
        assert_eq!(batched.next_alert_seq(), serial.next_alert_seq());
        for machine in 0..3 {
            assert_eq!(
                batched.series(MachineId::new(machine), Metric::Cpu),
                serial.series(MachineId::new(machine), Metric::Cpu)
            );
        }
        // The only observable divergence: the batch path seals its epoch.
        assert_eq!(batched.sealed_epoch(), Some(1));
        assert_eq!(serial.sealed_epoch(), None);
        // The sequencer numbers epochs contiguously from (id 0, version 1).
        let next = sequencer.seal(Timestamp::new(3_000), Vec::new());
        assert_eq!((next.id, next.version), (1, 2));
    }

    #[test]
    fn batch_logged_wal_replays_to_the_same_state() {
        use batchlens_trace::wal::{WalConfig, WalWriter};
        let dir = temp_wal_dir("batch-replay");
        let sequencer = BatchSequencer::new();
        let m = StreamMonitor::new(StreamConfig::default()).unwrap();
        m.attach_wal(WalWriter::open(&dir, WalConfig::default()).unwrap());
        let records: Vec<ServerUsageRecord> = (0..40u32)
            .map(|i| {
                rec(
                    i % 2,
                    i64::from(i) * 60,
                    if i == 31 { 0.97 } else { 0.4 },
                    0.3,
                    0.3,
                )
            })
            .collect();
        m.ingest_batch(&sequencer.seal(Timestamp::new(2_400), records[..20].to_vec()));
        m.ingest_batch(&sequencer.seal(Timestamp::new(4_800), records[20..].to_vec()));
        assert_eq!(m.sealed_epoch(), Some(2));
        drop(m.detach_wal());

        let (r, report) = StreamMonitor::recover(&dir, StreamConfig::default()).unwrap();
        assert!(report.reason.is_clean(), "{:?}", report.reason);
        assert_eq!(r.sealed_epoch(), Some(2), "epoch frontier survives replay");
        assert_eq!(r.state_version(), m.state_version());
        assert_eq!(r.ingested(), m.ingested());
        assert_eq!(r.alerts_since(0), m.alerts_since(0));
        assert_eq!(
            r.series(MachineId::new(1), Metric::Cpu),
            m.series(MachineId::new(1), Metric::Cpu)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
