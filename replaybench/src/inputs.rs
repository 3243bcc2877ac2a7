//! The replayed inputs: the simulated paper day as a columnar segment
//! store and, for the workloads that ingest it, cut into per-minute epochs
//! with instance starts/finishes and machine events interleaved at their
//! event times.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use batchlens::analytics::baseline::export_usage_records;
use batchlens::sim::scenario;
use batchlens::stream::{Alert, Batch, BatchSequencer, StreamMonitor};
use batchlens::trace::wal::WalConfig;
use batchlens::trace::{
    store, JobId, MachineEventRecord, MachineId, ServerUsageRecord, TaskId, TimeDelta, Timestamp,
    TraceDataset,
};

use crate::spans::Recorder;

/// Simulated seconds per epoch: one usage report per machine.
pub const EPOCH_SECONDS: i64 = 60;

/// The WAL configuration of the writing workloads: the default, except
/// that one segment holds the whole replayed day. Rotating a segment
/// `fsync`s it under the monitor lock, and on a shared virtual disk that
/// flush takes from milliseconds to a quarter of a second, which would
/// make every latency tail measure the host's disk instead of the code.
/// The per-record append path is unchanged.
pub fn wal_config() -> WalConfig {
    WalConfig {
        segment_bytes: 1 << 30,
        ..WalConfig::default()
    }
}

/// A structural delivery: instance lifecycle or a machine event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Structural {
    /// An instance started on a machine.
    Started {
        /// Owning job.
        job: JobId,
        /// Owning task.
        task: TaskId,
        /// Instance sequence number within the task.
        seq: u32,
        /// Where it runs.
        machine: MachineId,
        /// When it started.
        at: Timestamp,
    },
    /// An instance finished.
    Finished {
        /// Owning job.
        job: JobId,
        /// Owning task.
        task: TaskId,
        /// Instance sequence number within the task.
        seq: u32,
        /// When it finished.
        at: Timestamp,
    },
    /// A machine lifecycle event.
    Machine(MachineEventRecord),
}

impl Structural {
    /// The event time.
    pub fn at(&self) -> Timestamp {
        match *self {
            Structural::Started { at, .. } | Structural::Finished { at, .. } => at,
            Structural::Machine(rec) => rec.time,
        }
    }

    /// Delivers the event to `monitor` through its public call.
    pub fn apply(&self, monitor: &StreamMonitor) {
        match *self {
            Structural::Started {
                job,
                task,
                seq,
                machine,
                at,
            } => monitor.instance_started(job, task, seq, machine, at),
            Structural::Finished { job, task, seq, at } => {
                monitor.instance_finished(job, task, seq, at);
            }
            Structural::Machine(rec) => monitor.ingest_machine_event(rec),
        }
    }
}

/// One simulated minute.
#[derive(Debug, Clone, PartialEq)]
pub struct Epoch {
    /// Structural events of the minute, delivered before its usage.
    pub structural: Vec<Structural>,
    /// The minute's usage records, in (time, machine) order, sealed at the
    /// end of the minute. Every replay ingests these same batches into a
    /// fresh monitor, which sees versions from 1, so the records are held
    /// once and never copied.
    pub batch: Batch,
}

/// One injected anomaly, with the window an alert must fall in.
#[derive(Debug, Clone, PartialEq)]
pub struct Injected {
    /// The anomalous job.
    pub job: JobId,
    /// The anomaly's kind (`thrashing`, `end_spike`, ...).
    pub kind: String,
    /// Machines the job ran on.
    pub machines: BTreeSet<MachineId>,
    /// The job's run plus one reporting period.
    pub window: (Timestamp, Timestamp),
}

impl Injected {
    /// One line of text: job, kind, window start and end, machines.
    pub fn to_line(&self) -> String {
        let machines: Vec<String> = self.machines.iter().map(|m| m.raw().to_string()).collect();
        format!(
            "{} {} {} {} {}",
            self.job.raw(),
            self.kind,
            self.window.0.seconds(),
            self.window.1.seconds(),
            machines.join(",")
        )
    }

    /// Parses [`Injected::to_line`]'s output.
    pub fn from_line(line: &str) -> Option<Injected> {
        let mut it = line.split_whitespace();
        let job = JobId::new(it.next()?.parse().ok()?);
        let kind = it.next()?.to_string();
        let start = Timestamp::new(it.next()?.parse().ok()?);
        let end = Timestamp::new(it.next()?.parse().ok()?);
        let machines = it
            .next()?
            .split(',')
            .map(|m| m.parse().ok().map(MachineId::new))
            .collect::<Option<_>>()?;
        Some(Injected {
            job,
            kind,
            machines,
            window: (start, end),
        })
    }
}

/// What the simulation of one seed left for the measured process: the
/// segment store on disk, and these.
#[derive(Debug, Clone, PartialEq)]
pub struct Simulated {
    /// Usage records of the day.
    pub records: usize,
    /// The anomalies the simulator injected.
    pub injected: Vec<Injected>,
}

impl Simulated {
    /// The text the generating process prints: the record count, then one
    /// line per injected anomaly.
    pub fn to_text(&self) -> String {
        let mut out = format!("{}\n", self.records);
        for inj in &self.injected {
            out.push_str(&inj.to_line());
            out.push('\n');
        }
        out
    }

    /// Parses [`Simulated::to_text`]'s output.
    pub fn from_text(text: &str) -> Option<Simulated> {
        let mut lines = text.lines();
        let records = lines.next()?.trim().parse().ok()?;
        let injected = lines.map(Injected::from_line).collect::<Option<_>>()?;
        Some(Simulated { records, injected })
    }
}

/// Simulates the paper day for `seed` on `machines` machines and dumps it
/// as a segment store in `store_dir`. The benchmark runs this in a child
/// process (`replaybench --generate`), so the simulator's memory never
/// counts toward the measured process's peak resident set.
///
/// # Errors
///
/// Simulator or store failures, as text.
pub fn simulate(seed: u64, machines: u32, store_dir: &Path) -> Result<Simulated, String> {
    let (dataset, truth) = scenario::paper_day_with_machines(seed, machines)
        .run_with_truth()
        .map_err(|e| format!("simulate paper day: {e}"))?;
    store::dump_dataset(store_dir, &dataset).map_err(|e| format!("dump store: {e}"))?;
    let injected = truth
        .anomalous_jobs
        .iter()
        .filter_map(|(job, anomaly)| injected_window(&dataset, *job, anomaly.kind()))
        .collect();
    Ok(Simulated {
        records: export_usage_records(&dataset).len(),
        injected,
    })
}

/// What feeding one epoch took, as [`Inputs::feed`] reports it.
#[derive(Debug, Clone, Copy)]
pub struct Fed {
    /// The epoch's index.
    pub index: usize,
    /// When the epoch's minute ends.
    pub created_at: Timestamp,
    /// Time in the epoch's structural calls.
    pub structural: Duration,
    /// Start of the epoch's `ingest_batch` call.
    pub ingest_start: Instant,
    /// Its return.
    pub ingest_end: Instant,
    /// Alerts it returned.
    pub fired: usize,
}

/// Everything a workload replays. The simulated dataset itself is not
/// kept: the workloads open the segment store, and the usage records are
/// held once, in the epochs' batches.
#[derive(Debug)]
pub struct Inputs {
    /// The anomalies the simulator injected.
    pub injected: Vec<Injected>,
    /// The day as epochs (empty when the workload only reads the store).
    pub epochs: Vec<Epoch>,
    /// Usage records of the day.
    pub records: usize,
    /// The day's columnar segment store.
    pub store_dir: PathBuf,
}

impl Inputs {
    /// The inputs of a simulated day whose store is in `store_dir`; with
    /// `epochs`, the day is read back from the store and cut into epochs.
    ///
    /// # Errors
    ///
    /// Store failures, as text.
    pub fn load(store_dir: PathBuf, simulated: Simulated, epochs: bool) -> Result<Inputs, String> {
        let epochs = if epochs {
            let dataset = TraceDataset::open(&store_dir).map_err(|e| format!("open store: {e}"))?;
            let epochs = cut_epochs(&dataset);
            let cut: usize = epochs.iter().map(|e| e.batch.records.len()).sum();
            if cut != simulated.records {
                return Err(format!(
                    "store holds {cut} usage records, the simulation {}",
                    simulated.records
                ));
            }
            epochs
        } else {
            Vec::new()
        };
        Ok(Inputs {
            injected: simulated.injected,
            epochs,
            records: simulated.records,
            store_dir,
        })
    }

    /// Structural deliveries across all epochs.
    pub fn structural_events(&self) -> usize {
        self.epochs.iter().map(|e| e.structural.len()).sum()
    }

    /// Replays every epoch into `monitor` (structural events, then the
    /// sealed batch), recording `core.structural` and `core.ingest_batch`
    /// spans and calling `after` once each epoch is in; returns every
    /// alert `ingest_batch` returned, in order.
    pub fn feed(
        &self,
        monitor: &StreamMonitor,
        rec: &mut Recorder,
        mut after: impl FnMut(&Fed),
    ) -> Vec<Alert> {
        let mut alerts = Vec::new();
        for (index, epoch) in self.epochs.iter().enumerate() {
            let s0 = Instant::now();
            epoch.structural.iter().for_each(|ev| ev.apply(monitor));
            let s1 = Instant::now();
            let fired = monitor.ingest_batch(&epoch.batch);
            let s2 = Instant::now();
            rec.record("core.structural", index as u64, None, s0, s1);
            rec.record("core.ingest_batch", index as u64, None, s1, s2);
            after(&Fed {
                index,
                created_at: epoch.batch.created_at,
                structural: s1 - s0,
                ingest_start: s1,
                ingest_end: s2,
                fired: fired.len(),
            });
            alerts.extend(fired);
        }
        alerts
    }

    /// Scores `alerts` against the injected anomalies: for each, whether an
    /// alert fired on one of its machines inside its window, and after how
    /// many simulated seconds.
    pub fn score(&self, alerts: &[Alert]) -> Vec<Detection> {
        self.injected
            .iter()
            .map(|inj| Detection {
                job: inj.job,
                kind: inj.kind.clone(),
                machines: inj.machines.len(),
                window: inj.window,
                first_alert: alerts
                    .iter()
                    .filter(|a| {
                        inj.machines.contains(&a.machine)
                            && a.at >= inj.window.0
                            && a.at <= inj.window.1
                    })
                    .map(|a| a.at)
                    .min(),
            })
            .collect()
    }
}

/// Cuts `dataset` into one-minute epochs: each minute's usage records,
/// sealed into a batch, with the instance starts and finishes and machine
/// events of the minute delivered before them.
fn cut_epochs(dataset: &TraceDataset) -> Vec<Epoch> {
    let usage = export_usage_records(dataset);
    let first = usage.first().map_or(0, |r| r.time.seconds());
    let minute = |t: Timestamp| (t.seconds() - first).div_euclid(EPOCH_SECONDS);
    let last_minute = usage.last().map_or(0, |r| minute(r.time));

    let mut minutes: Vec<(Vec<Structural>, Vec<ServerUsageRecord>)> =
        vec![(Vec::new(), Vec::new()); last_minute as usize + 1];
    for rec in usage {
        minutes[minute(rec.time) as usize].1.push(rec);
    }
    let mut structural: Vec<Structural> = Vec::new();
    for r in dataset.instance_records() {
        structural.push(Structural::Started {
            job: r.job,
            task: r.task,
            seq: r.seq,
            machine: r.machine,
            at: r.start_time,
        });
        structural.push(Structural::Finished {
            job: r.job,
            task: r.task,
            seq: r.seq,
            at: r.end_time,
        });
    }
    structural.extend(
        dataset
            .machine_events()
            .iter()
            .copied()
            .map(Structural::Machine),
    );
    // Stable: same-time events keep generation order, so a seed always
    // yields one delivery sequence.
    structural.sort_by_key(Structural::at);
    for ev in structural {
        let m = minute(ev.at()).clamp(0, last_minute) as usize;
        minutes[m].0.push(ev);
    }
    let sequencer = BatchSequencer::new();
    minutes
        .into_iter()
        .zip(0..)
        .map(|((structural, records), m)| Epoch {
            structural,
            batch: sequencer.seal(Timestamp::new(first + (m + 1) * EPOCH_SECONDS), records),
        })
        .collect()
}

/// The machines and window of `job`'s run; `None` when it never ran.
fn injected_window(dataset: &TraceDataset, job: JobId, kind: &str) -> Option<Injected> {
    let runs: Vec<_> = dataset
        .instance_records()
        .iter()
        .filter(|r| r.job == job)
        .collect();
    let start = runs.iter().map(|r| r.start_time).min()?;
    // One reporting period of slack: an end spike peaks in the job's last
    // sample, which the monitor sees just after.
    let end = runs.iter().map(|r| r.end_time).max()? + TimeDelta::minutes(5);
    Some(Injected {
        job,
        kind: kind.to_string(),
        machines: runs.iter().map(|r| r.machine).collect(),
        window: (start, end),
    })
}

/// How the live alerts met one injected anomaly.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// The anomalous job.
    pub job: JobId,
    /// The anomaly's kind (`thrashing`, `end_spike`, ...).
    pub kind: String,
    /// Machines the job ran on.
    pub machines: usize,
    /// The window an alert must fall in: the job's run plus one period.
    pub window: (Timestamp, Timestamp),
    /// The first alert on the job's machines inside the window, if any.
    pub first_alert: Option<Timestamp>,
}

impl Detection {
    /// Simulated seconds from the window start to the first alert.
    pub fn delay_s(&self) -> Option<i64> {
        self.first_alert
            .map(|t| t.seconds() - self.window.0.seconds())
    }
}
