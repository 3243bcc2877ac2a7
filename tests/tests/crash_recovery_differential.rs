//! Crash-recovery differential proptests: a WAL-attached [`StreamMonitor`]
//! killed at an **arbitrary byte offset** of its log — including mid-frame,
//! mid-header, and across segment boundaries — must recover to a state
//! bit-identical to a never-crashed reference monitor that received exactly
//! the deliveries whose frames survived intact.
//!
//! Each case generates a random delivery soup (usage samples with stale
//! re-deliveries, closed instances, open/close pairs, machine events),
//! streams it into a logged monitor, then for random kill offsets
//! truncates a copy of the log at that byte and recovers. The recovered
//! monitor's full surface — every [`DatasetQuery`] method through the live
//! view, `frame()`, the alert buffer, every counter — is compared against
//! the reference with exact (bit-level for `f64`) equality. A second suite
//! flips single bits anywhere in the log and proves corruption is always
//! detected, never panics, and never loses intact-prefix records.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use batchlens::stream::{StreamConfig, StreamMonitor};
use batchlens::trace::wal::{self, WalConfig, WalWriter};
use batchlens::trace::{
    BatchInstanceRecord, DatasetQuery, JobId, MachineEvent, MachineEventRecord, MachineId, Metric,
    ServerUsageRecord, TaskId, TaskStatus, TimeDelta, TimeRange, Timestamp, UtilizationTriple,
};
use proptest::prelude::*;

const MACHINES: u32 = 5;
const TOLERANCE_S: i64 = 600;

/// One delivery to the monitor's public mutation surface — the unit the WAL
/// logs and replay reproduces.
#[derive(Debug, Clone)]
enum Delivery {
    Usage(ServerUsageRecord),
    Instance(BatchInstanceRecord),
    Started(JobId, TaskId, u32, MachineId, Timestamp),
    Finished(JobId, TaskId, u32, Timestamp),
    Event(MachineEventRecord),
}

/// Applies one delivery. Every delivery writes exactly one WAL frame, so
/// frame `k` of the log is delivery `k`.
fn apply(monitor: &StreamMonitor, d: &Delivery) {
    match d {
        Delivery::Usage(r) => {
            monitor.ingest(*r);
        }
        Delivery::Instance(r) => monitor.ingest_instance(*r),
        Delivery::Started(job, task, seq, machine, at) => {
            monitor.instance_started(*job, *task, *seq, *machine, *at);
        }
        Delivery::Finished(job, task, seq, at) => {
            monitor.instance_finished(*job, *task, *seq, *at);
        }
        Delivery::Event(r) => monitor.ingest_machine_event(*r),
    }
}

/// One random delivery. The vendored proptest has no `prop_oneof!`, so a
/// selector field picks the variant with usage weighted heaviest (6/11),
/// instances 2/11 and the rest 1/11 each — roughly a live feed's mix.
fn delivery_strategy() -> impl Strategy<Value = Delivery> {
    (
        0u8..11,
        0u32..8,
        0i64..4_000,
        0i64..2_000,
        0.0f64..1.0,
        0u32..6,
    )
        .prop_map(|(kind, a, t, dur, frac, e)| {
            let machine = MachineId::new(a % MACHINES);
            let job = JobId::new(a % 4);
            let task = TaskId::new(1 + (e % 2));
            match kind {
                0..=5 => Delivery::Usage(ServerUsageRecord {
                    time: Timestamp::new(t),
                    machine,
                    util: UtilizationTriple::clamped(frac, frac * 0.7, frac * 0.4),
                }),
                6 | 7 => Delivery::Instance(BatchInstanceRecord {
                    start_time: Timestamp::new(t),
                    end_time: Timestamp::new(t + dur),
                    job,
                    task,
                    seq: e,
                    total: e + 1,
                    machine,
                    status: TaskStatus::Terminated,
                    cpu_avg: 0.4,
                    cpu_max: 0.6,
                    mem_avg: 0.3,
                    mem_max: 0.5,
                }),
                8 => Delivery::Started(job, task, e, machine, Timestamp::new(t)),
                9 => Delivery::Finished(job, task, e, Timestamp::new(t + dur)),
                _ => Delivery::Event(MachineEventRecord {
                    time: Timestamp::new(t),
                    machine,
                    event: match e % 4 {
                        0 => MachineEvent::Add,
                        1 => MachineEvent::SoftError,
                        2 => MachineEvent::HardError,
                        _ => MachineEvent::Remove,
                    },
                    capacity_cpu: 1.0,
                    capacity_mem: 1.0,
                    capacity_disk: 1.0,
                }),
            }
        })
}

fn config() -> StreamConfig {
    StreamConfig {
        horizon: TimeDelta::hours(100),
        ooo_tolerance: TimeDelta::seconds(TOLERANCE_S),
        ..Default::default()
    }
}

/// A process-unique scratch directory (no tempfile dependency).
fn scratch_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "batchlens-crashdiff-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Streams every delivery into a fresh WAL-attached monitor logging to
/// `dir`, then detaches (flushing) and asserts the log never errored.
fn run_logged(deliveries: &[Delivery], wal_cfg: WalConfig, dir: &Path) -> StreamMonitor {
    let monitor = StreamMonitor::new(config()).unwrap();
    monitor.attach_wal(WalWriter::open(dir, wal_cfg).unwrap());
    for d in deliveries {
        apply(&monitor, d);
    }
    drop(monitor.detach_wal());
    assert_eq!(monitor.wal_errors(), 0, "logging must never error");
    monitor
}

/// A never-crashed reference fed the given deliveries directly (no WAL).
fn reference(deliveries: &[Delivery]) -> StreamMonitor {
    let monitor = StreamMonitor::new(config()).unwrap();
    for d in deliveries {
        apply(&monitor, d);
    }
    monitor
}

/// Segment paths under `dir` in replay (name) order.
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read wal dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "wal"))
        .collect();
    out.sort();
    out
}

/// Every segment under `dir` as `(file name, bytes)`, in replay order.
fn segment_bytes(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    segments(dir)
        .into_iter()
        .map(|p| {
            let bytes = fs::read(&p).expect("read segment");
            (p.file_name().expect("segment file name").to_owned(), bytes)
        })
        .collect()
}

/// Total log size in bytes across all segments.
fn log_len(dir: &Path) -> u64 {
    segments(dir)
        .iter()
        .map(|p| p.metadata().expect("segment metadata").len())
        .sum()
}

/// Copies the log in `src` to a fresh `dst`, killed at global byte offset
/// `kill`: segments wholly before the offset are copied intact, the segment
/// containing it is truncated mid-file, and everything after is lost — the
/// exact shape a power failure leaves behind.
fn kill_log_at(src: &Path, dst: &Path, kill: u64) {
    let mut remaining = kill;
    for seg in segments(src) {
        if remaining == 0 {
            break;
        }
        let bytes = fs::read(&seg).expect("read segment");
        let keep = (bytes.len() as u64).min(remaining) as usize;
        remaining -= keep as u64;
        let name = seg.file_name().expect("segment file name");
        fs::write(dst.join(name), &bytes[..keep]).expect("write killed segment");
    }
}

/// Byte size of each frame in delivery order, by re-encoding (the codec is
/// deterministic, so this mirrors what the writer emitted).
fn frame_sizes(dir: &Path) -> Vec<u64> {
    wal::WalReader::open(dir)
        .expect("reader opens")
        .map(|(seq, rec)| wal::encode_frame(seq, &rec).len() as u64)
        .collect()
}

/// How many whole frames fit in the first `kill` bytes of the log.
fn frames_within(sizes: &[u64], kill: u64) -> usize {
    let mut used = 0u64;
    sizes
        .iter()
        .take_while(|&&s| {
            used += s;
            used <= kill
        })
        .count()
}

/// Asserts the full observable surface of two monitors is bit-identical:
/// every counter, the alert buffer, and every [`DatasetQuery`] method plus
/// `frame()` and windowed series through the live view.
fn assert_monitors_identical(
    recovered: &StreamMonitor,
    reference: &StreamMonitor,
    ctx: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        recovered.state_version(),
        reference.state_version(),
        "state_version ({})",
        ctx
    );
    prop_assert_eq!(
        recovered.ingested(),
        reference.ingested(),
        "ingested ({})",
        ctx
    );
    prop_assert_eq!(
        recovered.stale_dropped(),
        reference.stale_dropped(),
        "stale_dropped ({})",
        ctx
    );
    prop_assert_eq!(
        recovered.late_accepted(),
        reference.late_accepted(),
        "late_accepted ({})",
        ctx
    );
    prop_assert_eq!(
        recovered.ingested_instances(),
        reference.ingested_instances(),
        "ingested_instances ({})",
        ctx
    );
    prop_assert_eq!(
        recovered.ingested_events(),
        reference.ingested_events(),
        "ingested_events ({})",
        ctx
    );
    prop_assert_eq!(
        recovered.live_instances(),
        reference.live_instances(),
        "live_instances ({})",
        ctx
    );
    prop_assert_eq!(
        recovered.tracked_machines(),
        reference.tracked_machines(),
        "tracked_machines ({})",
        ctx
    );
    prop_assert_eq!(
        recovered.total_alerts(),
        reference.total_alerts(),
        "total_alerts ({})",
        ctx
    );
    prop_assert_eq!(
        recovered.alerts_overflowed(),
        reference.alerts_overflowed(),
        "alerts_overflowed ({})",
        ctx
    );
    prop_assert_eq!(
        recovered.alerts_since(0),
        reference.alerts_since(0),
        "alert buffer ({})",
        ctx
    );

    let rec_view = recovered.live_view();
    let ref_view = reference.live_view();
    prop_assert_eq!(
        rec_view.machine_ids(),
        ref_view.machine_ids(),
        "machine_ids ({})",
        ctx
    );
    for t in (-200i64..5_000).step_by(397).map(Timestamp::new) {
        prop_assert_eq!(
            rec_view.frame(t),
            ref_view.frame(t),
            "frame({}) ({})",
            t,
            ctx
        );
        prop_assert_eq!(
            rec_view.jobs_running_at(t),
            ref_view.jobs_running_at(t),
            "jobs_running_at({}) ({})",
            t,
            ctx
        );
        prop_assert_eq!(
            rec_view.running_triples_at(t),
            ref_view.running_triples_at(t),
            "running_triples_at({}) ({})",
            t,
            ctx
        );
        prop_assert_eq!(
            rec_view.running_instance_count_at(t),
            ref_view.running_instance_count_at(t),
            "running_instance_count_at({}) ({})",
            t,
            ctx
        );
        prop_assert_eq!(
            rec_view.machines_active_at(t),
            ref_view.machines_active_at(t),
            "machines_active_at({}) ({})",
            t,
            ctx
        );
        for m in (0..MACHINES).map(MachineId::new) {
            prop_assert_eq!(
                rec_view.alive_at(m, t),
                ref_view.alive_at(m, t),
                "alive_at({}, {}) ({})",
                m,
                t,
                ctx
            );
            // Bit-identical utilization (f64 equality, no tolerance).
            prop_assert_eq!(
                rec_view.util_at(m, t),
                ref_view.util_at(m, t),
                "util_at({}, {}) ({})",
                m,
                t,
                ctx
            );
        }
    }
    let w = TimeRange::new(Timestamp::new(-100), Timestamp::new(6_000)).unwrap();
    for m in (0..MACHINES).map(MachineId::new) {
        for metric in Metric::ALL {
            prop_assert_eq!(
                rec_view.series_window(m, metric, &w),
                ref_view.series_window(m, metric, &w),
                "series_window({}, {:?}) ({})",
                m,
                metric,
                ctx
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole property. Kill the log at arbitrary byte offsets —
    /// mid-header, mid-payload, at segment boundaries (tiny segments force
    /// a multi-segment log) — and the recovered monitor is bit-identical to
    /// a reference fed exactly the deliveries whose frames survived. Replay
    /// is also *maximal*: every frame wholly inside the surviving prefix is
    /// recovered, none silently dropped.
    #[test]
    fn recovery_is_bit_identical_at_any_kill_offset(
        deliveries in prop::collection::vec(delivery_strategy(), 1..60),
        kill_points in prop::collection::vec(0.0f64..1.0, 2..5),
    ) {
        let src = scratch_dir("src");
        // 96-byte segments rotate every frame or two: kill offsets land on
        // sealed segments, the active segment, and exact boundaries.
        let wal_cfg = WalConfig { segment_bytes: 96, sync_each_append: false };
        let live = run_logged(&deliveries, wal_cfg, &src);
        let total = log_len(&src);
        let sizes = frame_sizes(&src);
        prop_assert_eq!(sizes.len(), deliveries.len(), "one frame per delivery");
        prop_assert_eq!(sizes.iter().sum::<u64>(), total, "log is exactly the frames");

        let mut kills: Vec<u64> = kill_points.iter().map(|f| (f * total as f64) as u64).collect();
        // Edges: empty log, one byte (torn header), full log (clean).
        kills.extend([0, 1.min(total), total]);
        for kill in kills {
            let dst = scratch_dir("kill");
            kill_log_at(&src, &dst, kill);
            let (recovered, report) = StreamMonitor::recover(&dst, config())
                .expect("recovery only errors on OS-level IO failure");
            let survived = frames_within(&sizes, kill);
            prop_assert_eq!(
                report.records_replayed as usize,
                survived,
                "replay must be maximal at kill={} of {}",
                kill,
                total
            );
            if kill == total {
                prop_assert!(report.reason.is_clean(), "full log replays clean");
            }
            let reference = reference(&deliveries[..survived]);
            assert_monitors_identical(&recovered, &reference, &format!("kill@{kill}"))?;
            let _ = fs::remove_dir_all(&dst);
        }

        // Replaying the intact log into a monitor that logs at the same
        // config rewrites it byte for byte, rotations included: replay
        // logs every record as the live delivery did.
        let relog = scratch_dir("relog");
        let replayed = StreamMonitor::new(config()).unwrap();
        replayed.attach_wal(WalWriter::open(&relog, wal_cfg).unwrap());
        for (_, record) in wal::WalReader::open(&src).expect("reader opens") {
            replayed.apply_replayed(record);
        }
        drop(replayed.detach_wal());
        prop_assert_eq!(replayed.wal_errors(), 0);
        prop_assert_eq!(segment_bytes(&relog), segment_bytes(&src), "re-logged segments");
        assert_monitors_identical(&replayed, &live, "relog")?;
        let _ = fs::remove_dir_all(&relog);

        // Crash-resume continuation: recover from the first kill point,
        // resume logging (the writer truncates the torn tail), deliver the
        // remainder, and the monitor ends bit-identical to one that never
        // crashed at all — the no-data-loss contract end to end.
        let kill = (kill_points[0] * total as f64) as u64;
        let dst = scratch_dir("resume");
        kill_log_at(&src, &dst, kill);
        let (resumed, report) = StreamMonitor::recover(&dst, config()).expect("recover");
        resumed.attach_wal(WalWriter::open(&dst, wal_cfg).expect("writer resumes"));
        for d in &deliveries[report.records_replayed as usize..] {
            apply(&resumed, d);
        }
        drop(resumed.detach_wal());
        assert_monitors_identical(&resumed, &live, "resume")?;
        // And the resumed log itself recovers to the same state again.
        let (rebuilt, report) = StreamMonitor::recover(&dst, config()).expect("recover resumed log");
        prop_assert!(report.reason.is_clean(), "resumed log is clean");
        assert_monitors_identical(&rebuilt, &live, "resume+recover")?;
        let _ = fs::remove_dir_all(&dst);
        let _ = fs::remove_dir_all(&src);
    }

    /// Single-bit corruption anywhere in the log — length field, sequence
    /// number, stored CRC, payload — is always detected: recovery never
    /// panics, replays exactly the frames before the corrupt one, reports a
    /// non-clean stop, and the recovered state still matches the reference
    /// over the intact prefix.
    #[test]
    fn single_bit_corruption_is_always_detected(
        deliveries in prop::collection::vec(delivery_strategy(), 1..40),
        flip_at in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let dir = scratch_dir("flip");
        run_logged(&deliveries, WalConfig::default(), &dir);
        let sizes = frame_sizes(&dir);
        let seg = {
            let segs = segments(&dir);
            prop_assert_eq!(segs.len(), 1, "default config keeps one segment here");
            segs.into_iter().next().unwrap()
        };
        let mut bytes = fs::read(&seg).expect("read segment");
        let total = bytes.len() as u64;
        let offset = ((flip_at * total as f64) as u64).min(total - 1);
        bytes[offset as usize] ^= 1 << bit;
        fs::write(&seg, &bytes).expect("write corrupted segment");

        let (recovered, report) = StreamMonitor::recover(&dir, config())
            .expect("corruption is data, not an IO error");
        prop_assert!(
            !report.reason.is_clean(),
            "a flipped bit at {} must be detected, got {:?}",
            offset,
            report.reason
        );
        prop_assert!(report.bytes_discarded > 0, "the corrupt tail is discarded");
        // Frames strictly before the corrupted byte replay; the one holding
        // it fails its CRC (or framing) check.
        let intact = frames_within(&sizes, offset);
        prop_assert_eq!(
            report.records_replayed as usize,
            intact,
            "replay stops exactly at the corrupt frame (offset {})",
            offset
        );
        let reference = reference(&deliveries[..intact]);
        assert_monitors_identical(&recovered, &reference, &format!("flip@{offset}"))?;
        let _ = fs::remove_dir_all(&dir);
    }

    /// `wal::compact` is recovery-equivalent: compacting a killed log into
    /// a single sealed segment and recovering from *that* yields the same
    /// monitor as recovering from the original — the snapshot half of the
    /// snapshot-plus-tail contract.
    #[test]
    fn compaction_preserves_recovery(
        deliveries in prop::collection::vec(delivery_strategy(), 1..40),
        kill_at in 0.0f64..1.0,
    ) {
        let src = scratch_dir("c-src");
        let wal_cfg = WalConfig { segment_bytes: 128, sync_each_append: false };
        run_logged(&deliveries, wal_cfg, &src);
        let total = log_len(&src);
        let killed = scratch_dir("c-kill");
        kill_log_at(&src, &killed, (kill_at * total as f64) as u64);
        let compacted = scratch_dir("c-dst");
        wal::compact(&killed, &compacted).expect("compact");
        let (from_killed, killed_report) =
            StreamMonitor::recover(&killed, config()).expect("recover killed");
        let (from_compacted, compact_report) =
            StreamMonitor::recover(&compacted, config()).expect("recover compacted");
        prop_assert!(compact_report.reason.is_clean(), "compacted log is clean");
        prop_assert_eq!(compact_report.records_replayed, killed_report.records_replayed);
        prop_assert_eq!(compact_report.last_seq, killed_report.last_seq);
        assert_monitors_identical(&from_compacted, &from_killed, "compacted")?;
        for d in [src, killed, compacted] {
            let _ = fs::remove_dir_all(&d);
        }
    }
}

/// A recovered monitor keeps *working* — deliveries after recovery hit the
/// same acceptance rule and detector state as on the reference. Pinned on a
/// hand-built case so the invariant has a readable witness.
#[test]
fn recovered_monitor_continues_identically() {
    let dir = scratch_dir("continue");
    let usage = |t: i64, m: u32, cpu: f64| {
        Delivery::Usage(ServerUsageRecord {
            time: Timestamp::new(t),
            machine: MachineId::new(m),
            util: UtilizationTriple::clamped(cpu, cpu, cpu),
        })
    };
    let before: Vec<Delivery> = (0..50)
        .map(|i| usage(i * 30, (i % 3) as u32, 0.2))
        .collect();
    let after: Vec<Delivery> = (0..20)
        .map(|i| usage(1_500 + i * 30, (i % 3) as u32, 0.95)) // step change → alerts
        .chain((0..5).map(|i| usage(100 + i, 0, 0.5))) // stale: all dropped
        .collect();

    run_logged(&before, WalConfig::default(), &dir);
    let (recovered, report) = StreamMonitor::recover(&dir, config()).unwrap();
    assert!(report.reason.is_clean());
    assert_eq!(report.records_replayed, before.len() as u64);

    let reference = reference(&before);
    for d in &after {
        apply(&recovered, d);
        apply(&reference, d);
    }
    assert_eq!(recovered.state_version(), reference.state_version());
    assert_eq!(recovered.stale_dropped(), reference.stale_dropped());
    assert_eq!(recovered.total_alerts(), reference.total_alerts());
    assert_eq!(recovered.alerts_since(0), reference.alerts_since(0));
    assert!(
        recovered.stale_dropped() >= 5,
        "the stale burst was rejected"
    );
    let _ = fs::remove_dir_all(&dir);
}
