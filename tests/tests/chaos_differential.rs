//! Chaos differential suite: randomized, **seeded** fault schedules from
//! `batchlens-fault` driven through the whole stack — injected WAL disk
//! errors and torn writes, injected route faults and worker panics,
//! injected capture failures, plus real mid-body client disconnects over
//! loopback — under which the existing invariants must keep holding:
//!
//! * the server stays up and recovers to healthy once faults stop;
//! * no torn frames — any two sessions observing the same
//!   `(timestamp, version)` frame key observe identical contents, stale
//!   or fresh;
//! * exactly-once alert delivery per cursor, across failed polls;
//! * every injected WAL IO error shows up in `wal_errors`, and every
//!   injected route fault / caught panic in the `/statsz` counters;
//! * post-crash recovery is deterministic and bit-identical to a
//!   reference monitor fed exactly the surviving deliveries.
//!
//! Every schedule is seeded (`Trigger::Prob` draws from a per-site
//! splitmix64 stream), so each run injects the same faults; the suites
//! together fire well over a hundred.

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::Duration;

use batchlens::analytics::baseline::export_usage_records;
use batchlens::sim::scenario;
use batchlens::stream::{Batch, BatchSequencer, StreamConfig, StreamMonitor};
use batchlens::trace::wal::{self, WalConfig, WalReader, WalRecord, WalWriter, FAILPOINT_APPEND};
use batchlens::trace::{
    BatchInstanceRecord, DatasetQuery, JobId, MachineId, Metric, ServerUsageRecord, TaskId,
    TaskStatus, TimeDelta, TimeRange, Timestamp, UtilizationTriple,
};
use batchlens::BatchLens;
use batchlens_fault::{arm, disarm, Fault, FaultSpec, Trigger};
use batchlens_serve::codec::read_response;
use batchlens_serve::router::{FAILPOINT_ROUTE, STALE_HEADER};
use batchlens_serve::session::{AlertsPayload, FrameInfo, SessionCreated, FAILPOINT_CAPTURE};
use batchlens_serve::stats::StatszPayload;
use batchlens_serve::{ServeConfig, Server, SessionConfig, SessionManager};

const MACHINES: u32 = 5;

// ---------------------------------------------------------------------------
// WAL chaos: injected disk errors and torn writes vs. recovery
// ---------------------------------------------------------------------------

/// One delivery to the monitor's mutation surface (the unit the WAL logs).
#[derive(Debug, Clone)]
enum Delivery {
    Usage(ServerUsageRecord),
    Instance(BatchInstanceRecord),
    Drain,
    /// A sealed epoch through `ingest_batch`: one group write.
    Epoch(Batch),
}

/// Applies one delivery and returns how many WAL appends it attempts.
/// Usage and instance records always log; a drain logs only when it
/// actually drains something — an empty drain mutates nothing and (since
/// the empty-drain fix) appends nothing, so it contributes no log record.
/// An epoch logs its records and its seal as one group append.
fn apply(monitor: &StreamMonitor, d: &Delivery) -> usize {
    match d {
        Delivery::Usage(r) => {
            monitor.ingest(*r);
            1
        }
        Delivery::Instance(r) => {
            monitor.ingest_instance(*r);
            1
        }
        Delivery::Drain => usize::from(!monitor.drain_alerts().is_empty()),
        Delivery::Epoch(batch) => {
            monitor.ingest_batch(batch);
            1
        }
    }
}

/// The log records a logged delivery appends, in log order.
fn log_records(d: &Delivery) -> Vec<WalRecord> {
    match d {
        Delivery::Usage(r) => vec![WalRecord::Usage(*r)],
        Delivery::Instance(r) => vec![WalRecord::Instance(*r)],
        Delivery::Drain => vec![WalRecord::AlertsDrained],
        Delivery::Epoch(batch) => batch
            .records
            .iter()
            .map(|&r| WalRecord::Usage(r))
            .chain([WalRecord::EpochSealed(batch.version)])
            .collect(),
    }
}

/// A reference fed exactly `records` through the replay surface — the
/// oracle for a log whose replay may stop inside an epoch's group.
fn reference_from_records(records: &[WalRecord]) -> StreamMonitor {
    let monitor = StreamMonitor::new(stream_config()).unwrap();
    for rec in records {
        monitor.apply_replayed(rec.clone());
    }
    monitor
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic delivery soup: mostly usage samples (some of them late
/// or stale), a few instances, the odd alert drain.
fn gen_deliveries(seed: u64, n: usize) -> Vec<Delivery> {
    let mut s = seed.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
    (0..n)
        .map(|_| {
            let r = splitmix(&mut s);
            let t = Timestamp::new((r % 4_000) as i64);
            let machine = MachineId::new(((r >> 16) as u32) % MACHINES);
            match r % 10 {
                0..=6 => Delivery::Usage(ServerUsageRecord {
                    time: t,
                    machine,
                    util: UtilizationTriple::clamped(((r >> 8) % 1_000) as f64 / 1_000.0, 0.3, 0.2),
                }),
                7 | 8 => Delivery::Instance(BatchInstanceRecord {
                    start_time: t,
                    end_time: t + TimeDelta::seconds(600),
                    job: JobId::new(((r >> 20) as u32) % 4),
                    task: TaskId::new(1),
                    seq: ((r >> 24) as u32) % 6,
                    total: 6,
                    machine,
                    status: TaskStatus::Terminated,
                    cpu_avg: 0.4,
                    cpu_max: 0.6,
                    mem_avg: 0.3,
                    mem_max: 0.5,
                }),
                _ => Delivery::Drain,
            }
        })
        .collect()
}

/// The same delivery soup with its usage samples sealed into epochs of
/// 1–12 records by one sequencer; instance records and drains stay
/// one-record calls between the epochs, as structural deliveries do in
/// live ingest.
fn gen_epoch_deliveries(seed: u64, n: usize) -> Vec<Delivery> {
    fn seal(
        sequencer: &BatchSequencer,
        open: &mut Vec<ServerUsageRecord>,
        out: &mut Vec<Delivery>,
    ) {
        if let Some(last) = open.last() {
            out.push(Delivery::Epoch(
                sequencer.seal(last.time, std::mem::take(open)),
            ));
        }
    }
    let sequencer = BatchSequencer::new();
    let mut s = seed ^ 0xE90C_4A11;
    let mut width = 1 + (splitmix(&mut s) % 12) as usize;
    let mut open = Vec::new();
    let mut out = Vec::new();
    for d in gen_deliveries(seed, n) {
        match d {
            Delivery::Usage(r) => {
                open.push(r);
                if open.len() == width {
                    seal(&sequencer, &mut open, &mut out);
                    width = 1 + (splitmix(&mut s) % 12) as usize;
                }
            }
            other => {
                seal(&sequencer, &mut open, &mut out);
                out.push(other);
            }
        }
    }
    seal(&sequencer, &mut open, &mut out);
    out
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        horizon: TimeDelta::hours(100),
        ooo_tolerance: TimeDelta::seconds(600),
        ..Default::default()
    }
}

/// A process-unique scratch directory (no tempfile dependency).
fn scratch_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "batchlens-chaos-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A never-crashed reference fed the given deliveries directly (no WAL).
fn reference(deliveries: &[Delivery]) -> StreamMonitor {
    let monitor = StreamMonitor::new(stream_config()).unwrap();
    for d in deliveries {
        let _ = apply(&monitor, d);
    }
    monitor
}

/// Asserts the observable surface of two monitors is bit-identical: the
/// counters, the alert buffer, and sampled frames / utilization series
/// through the live view (`f64` equality, no tolerance).
fn assert_same_monitor(a: &StreamMonitor, b: &StreamMonitor, ctx: &str) {
    assert_eq!(
        a.state_version(),
        b.state_version(),
        "state_version ({ctx})"
    );
    assert_eq!(a.ingested(), b.ingested(), "ingested ({ctx})");
    assert_eq!(
        a.stale_dropped(),
        b.stale_dropped(),
        "stale_dropped ({ctx})"
    );
    assert_eq!(
        a.late_accepted(),
        b.late_accepted(),
        "late_accepted ({ctx})"
    );
    assert_eq!(
        a.ingested_instances(),
        b.ingested_instances(),
        "ingested_instances ({ctx})"
    );
    assert_eq!(a.total_alerts(), b.total_alerts(), "total_alerts ({ctx})");
    assert_eq!(a.peek_alerts(), b.peek_alerts(), "alert buffer ({ctx})");
    let (va, vb) = (a.live_view(), b.live_view());
    assert_eq!(va.machine_ids(), vb.machine_ids(), "machine_ids ({ctx})");
    for t in (0i64..4_200).step_by(311).map(Timestamp::new) {
        assert_eq!(va.frame(t), vb.frame(t), "frame({t}) ({ctx})");
        for m in (0..MACHINES).map(MachineId::new) {
            assert_eq!(
                va.util_at(m, t),
                vb.util_at(m, t),
                "util_at({m}, {t}) ({ctx})"
            );
        }
    }
    let w = TimeRange::new(Timestamp::new(0), Timestamp::new(4_200)).unwrap();
    for m in (0..MACHINES).map(MachineId::new) {
        for metric in Metric::ALL {
            assert_eq!(
                va.series_window(m, metric, &w),
                vb.series_window(m, metric, &w),
                "series_window({m}, {metric:?}) ({ctx})"
            );
        }
    }
}

/// Seeded disk-error storms against the WAL: every injected append error is
/// accounted in `wal_errors`, the log holds exactly the surviving
/// deliveries, and recovery from it is deterministic (two recoveries agree)
/// and bit-identical to a reference fed only the survivors.
#[test]
fn wal_disk_error_storms_recover_bit_identical() {
    let _guard = batchlens_fault::test_guard();
    let mut total_fired = 0u64;
    for seed in 0..4u64 {
        let dir = scratch_dir("disk");
        arm(
            FAILPOINT_APPEND,
            FaultSpec::new(
                Fault::Error,
                Trigger::Prob {
                    seed: seed.wrapping_mul(0x9E37_79B9).wrapping_add(7),
                    fire_per_1024: 256,
                },
            ),
        );
        let monitor = StreamMonitor::new(stream_config()).unwrap();
        let wal_cfg = WalConfig {
            segment_bytes: 256,
            sync_each_append: false,
        };
        monitor.attach_wal(WalWriter::open(&dir, wal_cfg).unwrap());
        let deliveries = gen_deliveries(seed, 400);
        // Track which deliveries' appends survived by watching the site's
        // fired counter around each one (deliveries are applied serially).
        // No-op deliveries (empty drains) append nothing and mutate
        // nothing, so they are excluded: `survived` stays 1:1 with the
        // records the log holds.
        let mut survived = Vec::new();
        for d in &deliveries {
            let before = batchlens_fault::site_stats(FAILPOINT_APPEND).map_or(0, |s| s.fired);
            let appends = apply(&monitor, d);
            let after = batchlens_fault::site_stats(FAILPOINT_APPEND).map_or(0, |s| s.fired);
            if after == before && appends > 0 {
                survived.push(d.clone());
            }
        }
        drop(monitor.detach_wal());
        let stats = disarm(FAILPOINT_APPEND).expect("site was armed");
        assert!(stats.fired > 0, "seed {seed} injected no faults");
        assert_eq!(
            monitor.wal_errors(),
            stats.fired,
            "every injected append error must be accounted (seed {seed})"
        );
        total_fired += stats.fired;

        let (rec_a, rep_a) = StreamMonitor::recover(&dir, stream_config()).unwrap();
        let (rec_b, rep_b) = StreamMonitor::recover(&dir, stream_config()).unwrap();
        assert!(rep_a.reason.is_clean(), "failed appends write nothing");
        assert_eq!(
            rep_a.records_replayed as usize,
            survived.len(),
            "the log holds exactly the surviving deliveries (seed {seed})"
        );
        assert_eq!(rep_a.records_replayed, rep_b.records_replayed);
        let reference = reference(&survived);
        assert_same_monitor(&rec_a, &reference, &format!("seed {seed} vs reference"));
        assert_same_monitor(&rec_a, &rec_b, &format!("seed {seed} determinism"));
        let _ = fs::remove_dir_all(&dir);
    }
    assert!(
        total_fired >= 100,
        "the storm must inject at least 100 faults, got {total_fired}"
    );
}

/// A torn write mid-stream (short write at delivery `k`) makes everything
/// from `k` on unreachable behind the torn frame; recovery replays exactly
/// the prefix, and a resumed writer truncates the wreckage so re-delivering
/// the remainder converges on the never-crashed state.
#[test]
fn torn_writes_recover_to_the_surviving_prefix_and_resume() {
    let _guard = batchlens_fault::test_guard();
    for (tear_at, torn_bytes) in [(3u64, 1usize), (17, 7), (59, 13)] {
        let dir = scratch_dir("tear");
        arm(
            FAILPOINT_APPEND,
            FaultSpec::new(Fault::ShortWrite(torn_bytes), Trigger::Nth(tear_at)),
        );
        let monitor = StreamMonitor::new(stream_config()).unwrap();
        monitor.attach_wal(WalWriter::open(&dir, WalConfig::default()).unwrap());
        let deliveries = gen_deliveries(tear_at, 80);
        // Empty drains append nothing, so the Nth *append* no longer lands
        // on the Nth delivery: track the pre-tear logged prefix and the
        // delivery during which the torn write fired.
        let mut logged_prefix = Vec::new();
        let mut tear_idx = None;
        for (i, d) in deliveries.iter().enumerate() {
            let before = batchlens_fault::site_stats(FAILPOINT_APPEND).map_or(0, |s| s.fired);
            let appends = apply(&monitor, d);
            let fired =
                batchlens_fault::site_stats(FAILPOINT_APPEND).map_or(0, |s| s.fired) > before;
            if fired && tear_idx.is_none() {
                tear_idx = Some(i);
            } else if tear_idx.is_none() && appends > 0 {
                logged_prefix.push(d.clone());
            }
        }
        let tear_idx = tear_idx.expect("the torn write must fire");
        drop(monitor.detach_wal());
        let stats = disarm(FAILPOINT_APPEND).expect("site was armed");
        assert_eq!(stats.fired, 1, "exactly one torn write");
        assert_eq!(monitor.wal_errors(), 1);

        let (recovered, report) = StreamMonitor::recover(&dir, stream_config()).unwrap();
        assert!(
            !report.reason.is_clean(),
            "the torn frame must stop replay (tear at {tear_at})"
        );
        assert_eq!(
            report.records_replayed as usize,
            logged_prefix.len(),
            "replay is exactly the pre-tear prefix"
        );
        assert_same_monitor(
            &recovered,
            &reference(&logged_prefix),
            &format!("tear at {tear_at}"),
        );

        // Resume: a fresh writer truncates the torn tail; re-delivering the
        // remainder (from the torn delivery on) converges on the
        // never-crashed reference.
        recovered.attach_wal(WalWriter::open(&dir, WalConfig::default()).unwrap());
        for d in &deliveries[tear_idx..] {
            let _ = apply(&recovered, d);
        }
        drop(recovered.detach_wal());
        assert_eq!(recovered.wal_errors(), 0, "resumed logging is clean");
        let (rebuilt, report) = StreamMonitor::recover(&dir, stream_config()).unwrap();
        assert!(report.reason.is_clean(), "resumed log replays clean");
        assert_same_monitor(
            &rebuilt,
            &reference(&deliveries),
            &format!("resume after tear at {tear_at}"),
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

/// The disk-error storm over epoch ingest: usage samples arrive as sealed
/// epochs through `ingest_batch`, and each epoch is one group write. So
/// each fired fault adds exactly one to `wal_errors` and leaves its whole
/// epoch — records and seal — out of the log, while the live monitor still
/// applies it; recovery equals a reference fed only the surviving
/// deliveries.
#[test]
fn wal_disk_error_storms_over_epochs_recover_bit_identical() {
    let _guard = batchlens_fault::test_guard();
    let fired = || batchlens_fault::site_stats(FAILPOINT_APPEND).map_or(0, |s| s.fired);
    let (mut total_fired, mut failed_epochs) = (0u64, 0usize);
    for seed in 0..4u64 {
        let dir = scratch_dir("disk-epochs");
        arm(
            FAILPOINT_APPEND,
            FaultSpec::new(
                Fault::Error,
                Trigger::Prob {
                    seed: seed.wrapping_mul(0x9E37_79B9).wrapping_add(11),
                    fire_per_1024: 256,
                },
            ),
        );
        let monitor = StreamMonitor::new(stream_config()).unwrap();
        // One segment, so every delivery — epoch or record — is one write.
        monitor.attach_wal(WalWriter::open(&dir, WalConfig::default()).unwrap());
        let deliveries = gen_epoch_deliveries(seed, 400);
        let mut survived = Vec::new();
        for d in &deliveries {
            let (fired_before, errors_before) = (fired(), monitor.wal_errors());
            let appends = apply(&monitor, d);
            let fired_now = fired() - fired_before;
            assert!(fired_now <= 1, "a delivery is at most one write");
            assert_eq!(
                monitor.wal_errors() - errors_before,
                fired_now,
                "each fired fault counts exactly once (seed {seed})"
            );
            if fired_now == 0 && appends > 0 {
                survived.push(d.clone());
            } else if matches!(d, Delivery::Epoch(_)) {
                failed_epochs += 1;
            }
        }
        drop(monitor.detach_wal());
        let stats = disarm(FAILPOINT_APPEND).expect("site was armed");
        assert!(stats.fired > 0, "seed {seed} injected no faults");
        assert_eq!(monitor.wal_errors(), stats.fired);
        total_fired += stats.fired;

        // The log holds the surviving deliveries' records and nothing else:
        // no frame of a failed epoch, not even its seal.
        let logged: Vec<WalRecord> = WalReader::open(&dir).unwrap().map(|(_, r)| r).collect();
        let expected: Vec<WalRecord> = survived.iter().flat_map(log_records).collect();
        assert!(
            logged == expected,
            "the log holds exactly the surviving deliveries (seed {seed})"
        );

        let (rec_a, rep_a) = StreamMonitor::recover(&dir, stream_config()).unwrap();
        let (rec_b, _) = StreamMonitor::recover(&dir, stream_config()).unwrap();
        assert!(rep_a.reason.is_clean(), "failed group writes write nothing");
        let reference = reference(&survived);
        assert_same_monitor(&rec_a, &reference, &format!("seed {seed} vs reference"));
        assert_same_monitor(&rec_a, &rec_b, &format!("seed {seed} determinism"));
        assert_eq!(rec_a.sealed_epoch(), reference.sealed_epoch());
        let _ = fs::remove_dir_all(&dir);
    }
    assert!(
        total_fired >= 100,
        "the storm must inject at least 100 faults, got {total_fired}"
    );
    assert!(failed_epochs > 0, "the storm must fail some epochs");
}

/// A torn write inside an epoch's group: `ShortWrite(n)` leaves exactly the
/// whole frames in the group's first `n` bytes replayable. Later writes
/// land behind the torn frame, out of replay's reach. A resumed writer
/// truncates the wreckage, and re-delivering the rest of the epoch and
/// everything after it converges on the never-crashed reference.
#[test]
fn torn_epoch_writes_keep_their_whole_frames_and_resume() {
    let _guard = batchlens_fault::test_guard();
    let deliveries = gen_epoch_deliveries(23, 160);
    let (tear_idx, batch) = deliveries
        .iter()
        .enumerate()
        .skip(3)
        .find_map(|(i, d)| match d {
            Delivery::Epoch(b) if b.records.len() >= 4 => Some((i, b.clone())),
            _ => None,
        })
        .expect("an epoch of at least four records");
    let group = log_records(&deliveries[tear_idx]);
    let frame_ends: Vec<usize> = group
        .iter()
        .scan(0, |end, rec| {
            *end += wal::encode_frame(0, rec).len();
            Some(*end)
        })
        .collect();
    // Inside the first header, inside the third frame, and exactly at the
    // end of the third frame.
    for torn in [7, frame_ends[1] + 20, frame_ends[2]] {
        let dir = scratch_dir("tear-epoch");
        let monitor = StreamMonitor::new(stream_config()).unwrap();
        monitor.attach_wal(WalWriter::open(&dir, WalConfig::default()).unwrap());
        let mut logged = Vec::new();
        for d in &deliveries[..tear_idx] {
            if apply(&monitor, d) > 0 {
                logged.extend(log_records(d));
            }
        }
        arm(
            FAILPOINT_APPEND,
            FaultSpec::new(Fault::ShortWrite(torn), Trigger::Nth(0)),
        );
        apply(&monitor, &deliveries[tear_idx]);
        let stats = disarm(FAILPOINT_APPEND).expect("site was armed");
        assert_eq!(stats.fired, 1, "the epoch is one group write");
        for d in &deliveries[tear_idx + 1..] {
            apply(&monitor, d);
        }
        drop(monitor.detach_wal());
        assert_eq!(monitor.wal_errors(), 1);

        let whole = frame_ends.iter().take_while(|&&end| end <= torn).count();
        logged.extend_from_slice(&group[..whole]);
        let (recovered, report) = StreamMonitor::recover(&dir, stream_config()).unwrap();
        assert!(
            !report.reason.is_clean(),
            "the torn frame stops replay (torn after {torn} bytes)"
        );
        assert_eq!(
            report.records_replayed as usize,
            logged.len(),
            "replay is the prefix plus the epoch's {whole} whole frames"
        );
        let prefix = reference_from_records(&logged);
        assert_same_monitor(&recovered, &prefix, &format!("torn after {torn} bytes"));
        assert_eq!(recovered.sealed_epoch(), prefix.sealed_epoch());

        recovered.attach_wal(WalWriter::open(&dir, WalConfig::default()).unwrap());
        let rest = Batch {
            records: batch.records[whole..].to_vec(),
            ..batch.clone()
        };
        apply(&recovered, &Delivery::Epoch(rest));
        for d in &deliveries[tear_idx + 1..] {
            apply(&recovered, d);
        }
        drop(recovered.detach_wal());
        assert_eq!(recovered.wal_errors(), 0, "resumed logging is clean");
        let never_crashed = reference(&deliveries);
        let ctx = format!("resume after tearing {torn} bytes");
        assert_same_monitor(&recovered, &never_crashed, &ctx);
        let (rebuilt, report) = StreamMonitor::recover(&dir, stream_config()).unwrap();
        assert!(report.reason.is_clean(), "resumed log replays clean");
        assert_same_monitor(&rebuilt, &never_crashed, &ctx);
        assert_eq!(rebuilt.sealed_epoch(), never_crashed.sealed_epoch());
        let _ = fs::remove_dir_all(&dir);
    }
}

/// The CI fault-schedule matrix hook: arms whatever `BATCHLENS_FAILPOINTS`
/// specifies (e.g. `wal.append=error@every:3`) and proves the generic WAL
/// contract under it — every injected IO error is accounted in
/// `wal_errors`, recovery never panics and is deterministic, and (absent
/// sync faults, which orphan already-written bytes) the recovered state is
/// bit-identical to a reference fed the replayed prefix of the surviving
/// appends. With the variable unset this degenerates to a clean round trip,
/// so it is safe in the default suite.
#[test]
fn env_armed_wal_schedule_holds_invariants() {
    use batchlens::trace::wal::FAILPOINT_SYNC;

    let _guard = batchlens_fault::test_guard();
    let armed = batchlens_fault::arm_from_env();
    let dir = scratch_dir("env");
    let monitor = StreamMonitor::new(stream_config()).unwrap();
    let wal_cfg = WalConfig {
        segment_bytes: 512,
        sync_each_append: false,
    };
    monitor.attach_wal(WalWriter::open(&dir, wal_cfg).unwrap());
    let deliveries = gen_deliveries(9, 300);
    // A delivery survived iff it attempted an append (empty drains log
    // and mutate nothing, so they are excluded — `survived` stays 1:1
    // with log records) and the append raised no WAL error (delay faults
    // fire without erroring; the delivery still lands in the log).
    let mut survived = Vec::new();
    for d in &deliveries {
        let before = monitor.wal_errors();
        let appends = apply(&monitor, d);
        if appends > 0 && monitor.wal_errors() == before {
            survived.push(d.clone());
        }
    }
    drop(monitor.detach_wal());
    let append_fired = batchlens_fault::site_stats(FAILPOINT_APPEND).map_or(0, |s| s.fired);
    let sync_fired = batchlens_fault::site_stats(FAILPOINT_SYNC).map_or(0, |s| s.fired);
    assert!(
        monitor.wal_errors() <= append_fired + sync_fired,
        "WAL errors only come from injected faults ({} errors, {} fired)",
        monitor.wal_errors(),
        append_fired + sync_fired
    );
    if armed == 0 {
        assert_eq!(monitor.wal_errors(), 0, "disarmed runs log cleanly");
    }

    let (rec_a, rep_a) = StreamMonitor::recover(&dir, stream_config()).unwrap();
    let (rec_b, rep_b) = StreamMonitor::recover(&dir, stream_config()).unwrap();
    assert_eq!(rep_a.records_replayed, rep_b.records_replayed);
    assert_same_monitor(&rec_a, &rec_b, "env schedule determinism");
    if sync_fired == 0 {
        let replayed = rep_a.records_replayed as usize;
        assert!(replayed <= survived.len(), "replay never invents records");
        if rep_a.reason.is_clean() {
            assert_eq!(replayed, survived.len(), "a clean replay is maximal");
        }
        assert_same_monitor(
            &rec_a,
            &reference(&survived[..replayed]),
            "env schedule vs surviving prefix",
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// [`env_armed_wal_schedule_holds_invariants`] over epoch ingest: the same
/// env-armed schedule, with the usage samples sealed into epochs through
/// `ingest_batch`, so the faults land on group writes as well as on
/// structural one-record writes. The log is one segment, so each delivery
/// is one write. Replay counts records, not deliveries, so the reference
/// is fed the replayed prefix of the surviving deliveries' log records.
/// Like its sibling, it assumes a torn write leaves no whole frame behind,
/// as the matrix's `short_write:9` does.
#[test]
fn env_armed_wal_schedule_over_epochs_holds_invariants() {
    use batchlens::trace::wal::FAILPOINT_SYNC;

    let _guard = batchlens_fault::test_guard();
    let armed = batchlens_fault::arm_from_env();
    let dir = scratch_dir("env-epochs");
    let monitor = StreamMonitor::new(stream_config()).unwrap();
    monitor.attach_wal(WalWriter::open(&dir, WalConfig::default()).unwrap());
    let deliveries = gen_epoch_deliveries(9, 300);
    let mut survived = Vec::new();
    for d in &deliveries {
        let before = monitor.wal_errors();
        let appends = apply(&monitor, d);
        if appends > 0 && monitor.wal_errors() == before {
            survived.extend(log_records(d));
        }
    }
    drop(monitor.detach_wal());
    let append_fired = batchlens_fault::site_stats(FAILPOINT_APPEND).map_or(0, |s| s.fired);
    let sync_fired = batchlens_fault::site_stats(FAILPOINT_SYNC).map_or(0, |s| s.fired);
    assert!(
        monitor.wal_errors() <= append_fired + sync_fired,
        "WAL errors only come from injected faults ({} errors, {} fired)",
        monitor.wal_errors(),
        append_fired + sync_fired
    );
    if armed == 0 {
        assert_eq!(monitor.wal_errors(), 0, "disarmed runs log cleanly");
    }

    let (rec_a, rep_a) = StreamMonitor::recover(&dir, stream_config()).unwrap();
    let (rec_b, rep_b) = StreamMonitor::recover(&dir, stream_config()).unwrap();
    assert_eq!(rep_a.records_replayed, rep_b.records_replayed);
    assert_same_monitor(&rec_a, &rec_b, "env schedule over epochs determinism");
    if sync_fired == 0 {
        let replayed = rep_a.records_replayed as usize;
        assert!(replayed <= survived.len(), "replay never invents records");
        if rep_a.reason.is_clean() {
            assert_eq!(replayed, survived.len(), "a clean replay is maximal");
        }
        let reference = reference_from_records(&survived[..replayed]);
        assert_same_monitor(&rec_a, &reference, "env schedule over epochs vs prefix");
        assert_eq!(rec_a.sealed_epoch(), reference.sealed_epoch());
    }
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Serve chaos: route faults, panics, capture failures, client disconnects
// ---------------------------------------------------------------------------

/// A keep-alive client that survives server-forced closes by reconnecting
/// (an injected panic answers `500` with `connection: close`).
struct ChaosClient {
    addr: SocketAddr,
    conn: TcpStream,
}

impl ChaosClient {
    fn connect(addr: SocketAddr) -> ChaosClient {
        ChaosClient {
            addr,
            conn: TcpStream::connect(addr).expect("connect"),
        }
    }

    fn call(
        &mut self,
        method: &str,
        target: &str,
        body: &str,
    ) -> batchlens_serve::codec::ClientResponse {
        for _attempt in 0..3 {
            let req = format!(
                "{method} {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            );
            if self.conn.write_all(req.as_bytes()).is_err() {
                self.conn = TcpStream::connect(self.addr).expect("reconnect");
                continue;
            }
            let mut reader = BufReader::new(self.conn.try_clone().expect("clone socket"));
            match read_response(&mut reader) {
                Ok(Some(resp)) => {
                    if resp
                        .header("connection")
                        .is_some_and(|v| v.eq_ignore_ascii_case("close"))
                    {
                        self.conn = TcpStream::connect(self.addr).expect("reconnect");
                    }
                    return resp;
                }
                // The server closed before answering (it never dispatched
                // the request): reconnect and retry.
                Ok(None) | Err(_) => {
                    self.conn = TcpStream::connect(self.addr).expect("reconnect");
                }
            }
        }
        panic!("request failed after reconnects");
    }
}

/// Shared tear-detection ledger keyed by `(timestamp, version)`; `session`
/// and `stale` are zeroed before comparison (the only legitimate
/// cross-observation differences).
type FrameLedger = Arc<Mutex<BTreeMap<(i64, u64), FrameInfo>>>;

/// What one chaos session observed.
struct ChaosOutcome {
    created: SessionCreated,
    seqs: Vec<u64>,
    missed: u64,
    /// `500`s from the injected route fault.
    injected_500: u64,
    /// `503`s from capture failures with no last good frame.
    unavailable_503: u64,
    /// Responses tagged stale (served from the last good frame).
    stale: u64,
}

#[allow(clippy::too_many_arguments)]
fn run_chaos_script(
    addr: SocketAddr,
    created: SessionCreated,
    lane: usize,
    ops: usize,
    candidates: &[Timestamp],
    ledger: &FrameLedger,
    start: &Barrier,
    torn: &AtomicBool,
) -> ChaosOutcome {
    let id = created.session;
    let mut client = ChaosClient::connect(addr);
    let mut out = ChaosOutcome {
        created,
        seqs: Vec::new(),
        missed: 0,
        injected_500: 0,
        unavailable_503: 0,
        stale: 0,
    };
    let mut selected: Option<Timestamp> = None;
    start.wait();

    for i in 0..ops {
        match (i + lane) % 8 {
            0 | 5 => {
                let at = candidates[(i + lane) % candidates.len()];
                let event = format!("{{\"SelectTimestamp\": {}}}", at.seconds());
                let resp = client.call("POST", &format!("/sessions/{id}/events"), &event);
                match resp.status {
                    200 => selected = Some(at),
                    500 => out.injected_500 += 1,
                    s => panic!("unexpected select status {s}"),
                }
            }
            1 | 3 | 6 => {
                let resp = client.call("GET", &format!("/sessions/{id}/frame"), "");
                match resp.status {
                    200 => {
                        let mut frame: FrameInfo =
                            serde_json::from_str(&resp.text()).expect("frame payload");
                        if frame.stale {
                            out.stale += 1;
                        } else if let Some(at) = selected {
                            assert_eq!(at, frame.at, "a fresh frame reflects the view");
                        }
                        frame.session = 0;
                        frame.stale = false;
                        let key = (frame.at.seconds(), frame.version);
                        let mut ledger = ledger.lock().expect("ledger lock");
                        if let Some(canonical) = ledger.get(&key) {
                            if *canonical != frame {
                                torn.store(true, Ordering::SeqCst);
                            }
                        } else {
                            ledger.insert(key, frame);
                        }
                    }
                    503 => out.unavailable_503 += 1,
                    500 => out.injected_500 += 1,
                    s => panic!("unexpected frame status {s}"),
                }
            }
            2 | 4 => {
                let resp = client.call(
                    "GET",
                    &format!("/sessions/{id}/render?format=ascii&cols=32&rows=10"),
                    "",
                );
                match resp.status {
                    200 => {
                        assert!(!resp.body.is_empty());
                        if resp.header(STALE_HEADER).is_some() {
                            out.stale += 1;
                        }
                    }
                    503 => out.unavailable_503 += 1,
                    500 => out.injected_500 += 1,
                    s => panic!("unexpected render status {s}"),
                }
            }
            _ => {
                let resp = client.call("GET", &format!("/sessions/{id}/alerts"), "");
                match resp.status {
                    200 => {
                        let batch: AlertsPayload =
                            serde_json::from_str(&resp.text()).expect("alerts payload");
                        out.seqs.extend(batch.alerts.iter().map(|a| a.seq));
                        out.missed += batch.missed;
                    }
                    500 => out.injected_500 += 1,
                    s => panic!("unexpected poll status {s}"),
                }
            }
        }
        // Periodically, a throwaway connection disconnects mid-body — the
        // worker must shrug it off.
        if i % 16 == 15 {
            let mut t = TcpStream::connect(addr).expect("connect");
            let _ = t.write_all(
                format!("POST /sessions/{id}/events HTTP/1.1\r\ncontent-length: 64\r\n\r\ntrunc")
                    .as_bytes(),
            );
            drop(t);
        }
    }
    out
}

/// The serve-layer chaos capstone: seeded route faults and capture failures
/// plus injected panics and real mid-body disconnects, with every existing
/// invariant audited at the end.
#[test]
fn serve_chaos_preserves_invariants_and_recovers() {
    let _fault_guard = batchlens_fault::test_guard();
    const LANES: usize = 4;
    const OPS: usize = 80;
    const BURSTS: usize = 6;

    // A live-monitor-backed lens, as in the serve concurrency suite.
    let dataset = scenario::fig3b(41).run().expect("scenario");
    let span = dataset.span().expect("non-empty dataset");
    let span_end = span.end();
    let step = span.duration() / 4;
    let candidates = [
        span.start() + step,
        span.start() + step * 2,
        span_end - step,
    ];
    let monitor = Arc::new(
        StreamMonitor::new(StreamConfig {
            horizon: TimeDelta::DAY,
            ..Default::default()
        })
        .expect("stream config"),
    );
    let mut usage = export_usage_records(&dataset);
    usage.sort_by_key(|r| (r.time, r.machine));
    for rec in usage {
        monitor.ingest(rec);
    }
    monitor.ingest_instances(dataset.instance_records().iter().copied());
    for ev in dataset.machine_events() {
        monitor.ingest_machine_event(*ev);
    }
    let mut lens = BatchLens::new(dataset);
    lens.attach_live_monitor(Arc::clone(&monitor));

    let manager = Arc::new(SessionManager::with_config(
        Arc::new(lens),
        SessionConfig::default(),
    ));
    let server = Arc::new(
        Server::bind(
            ("127.0.0.1", 0),
            Arc::clone(&manager),
            ServeConfig {
                workers: 8,
                queue_depth: 16,
                idle_timeout: Duration::from_secs(30),
                ..Default::default()
            },
        )
        .expect("bind loopback"),
    );
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = Arc::clone(&server);
    let serve_thread = thread::spawn(move || runner.serve());

    // Sessions are created *before* the failpoints arm, so every script has
    // a session and every cursor sits at the same position.
    let mut setup = ChaosClient::connect(addr);
    let sessions: Vec<SessionCreated> = (0..LANES)
        .map(|_| {
            serde_json::from_str(&setup.call("POST", "/sessions", "").text())
                .expect("session created")
        })
        .collect();

    // Phase A — the storm: seeded route faults (500s) and capture failures
    // (stale frames / 503s) under full concurrent traffic.
    arm(
        FAILPOINT_ROUTE,
        FaultSpec::new(
            Fault::Error,
            Trigger::Prob {
                seed: 0xC0FFEE,
                fire_per_1024: 400,
            },
        ),
    );
    arm(
        FAILPOINT_CAPTURE,
        FaultSpec::new(
            Fault::Error,
            Trigger::Prob {
                seed: 0xDECAF,
                fire_per_1024: 300,
            },
        ),
    );

    let ledger: FrameLedger = Arc::new(Mutex::new(BTreeMap::new()));
    let torn = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(LANES + 1));
    let clients: Vec<_> = sessions
        .iter()
        .enumerate()
        .map(|(lane, created)| {
            let created = created.clone();
            let ledger = Arc::clone(&ledger);
            let torn = Arc::clone(&torn);
            let start = Arc::clone(&start);
            thread::spawn(move || {
                run_chaos_script(
                    addr,
                    created,
                    lane,
                    OPS,
                    &candidates,
                    &ledger,
                    &start,
                    &torn,
                )
            })
        })
        .collect();

    start.wait();
    let seq0 = monitor.next_alert_seq();
    for k in 0..BURSTS {
        monitor.ingest(ServerUsageRecord {
            time: span_end + TimeDelta::seconds(60 * (k as i64 + 1)),
            machine: MachineId::new(0),
            util: UtilizationTriple::clamped(0.95, 0.3, 0.3),
        });
        thread::yield_now();
    }
    let final_seq = monitor.next_alert_seq();
    assert_eq!(final_seq - seq0, BURSTS as u64);

    let mut outcomes: Vec<ChaosOutcome> = clients
        .into_iter()
        .map(|c| c.join().expect("chaos session thread"))
        .collect();
    let route_storm = disarm(FAILPOINT_ROUTE).expect("route site armed");
    let capture_storm = disarm(FAILPOINT_CAPTURE).expect("capture site armed");

    // Phase B — injected worker panics: each is caught, answered with a
    // closing 500, counted, and the server keeps serving.
    arm(
        FAILPOINT_ROUTE,
        FaultSpec::new(Fault::Panic, Trigger::Times(5)),
    );
    let mut prober = ChaosClient::connect(addr);
    for _ in 0..5 {
        let resp = prober.call("GET", "/healthz", "");
        assert_eq!(resp.status, 500, "an injected panic answers 500");
    }
    assert_eq!(prober.call("GET", "/healthz", "").status, 200);
    let panic_storm = disarm(FAILPOINT_ROUTE).expect("route site armed");
    assert_eq!(panic_storm.fired, 5);

    // Phase C — raw mid-request disconnects (line and body) straight at the
    // listener.
    for k in 0..6 {
        let mut t = TcpStream::connect(addr).expect("connect");
        let _ = if k % 2 == 0 {
            t.write_all(b"GET /sta")
        } else {
            t.write_all(b"POST /sessions HTTP/1.1\r\ncontent-length: 32\r\n\r\nhalf")
        };
        drop(t);
    }

    // Phase D — recovery: with the failpoints gone, a fresh session's first
    // capture succeeds and clears degraded mode; the server reports ready.
    let fresh: SessionCreated =
        serde_json::from_str(&prober.call("POST", "/sessions", "").text()).expect("fresh session");
    let resp = prober.call("GET", &format!("/sessions/{}/frame", fresh.session), "");
    assert_eq!(resp.status, 200);
    assert!(!manager.degraded(), "a clean capture clears degraded mode");
    assert_eq!(prober.call("GET", "/healthz", "").status, 200);
    assert_eq!(prober.call("GET", "/readyz", "").status, 200);

    // Drain every chaos cursor: exactly-once delivery must have survived
    // every failed poll and forced reconnect.
    for outcome in &mut outcomes {
        let id = outcome.created.session;
        let resp = prober.call("GET", &format!("/sessions/{id}/alerts"), "");
        assert_eq!(resp.status, 200, "final drain must succeed");
        let batch: AlertsPayload = serde_json::from_str(&resp.text()).expect("alerts payload");
        outcome.seqs.extend(batch.alerts.iter().map(|a| a.seq));
        outcome.missed += batch.missed;
    }

    let statsz: StatszPayload =
        serde_json::from_str(&prober.call("GET", "/statsz", "").text()).expect("statsz payload");

    handle.shutdown();
    serve_thread.join().expect("server joined");

    // --- The audit ---
    assert!(
        !torn.load(Ordering::SeqCst),
        "two observations disagreed about one (timestamp, version) frame key"
    );
    let expect: Vec<u64> = (seq0..final_seq).collect();
    for outcome in &outcomes {
        assert_eq!(outcome.created.cursor, seq0);
        assert_eq!(outcome.missed, 0, "nothing evicted under the cursor");
        assert_eq!(
            outcome.seqs, expect,
            "each cursor delivers every alert exactly once, in order, despite faults"
        );
    }
    let injected_500: u64 = outcomes.iter().map(|o| o.injected_500).sum();
    let stale: u64 = outcomes.iter().map(|o| o.stale).sum();
    let unavailable: u64 = outcomes.iter().map(|o| o.unavailable_503).sum();
    assert_eq!(
        injected_500, route_storm.fired,
        "every injected route fault surfaced as exactly one 500"
    );
    assert_eq!(
        statsz.stale_served, stale,
        "/statsz stale accounting matches what clients observed"
    );
    assert!(
        unavailable <= capture_storm.fired,
        "503s only come from injected capture failures"
    );
    assert_eq!(statsz.worker_panics, 5, "every injected panic was counted");
    assert_eq!(statsz.connections_shed, 0, "no shedding below saturation");
    assert!(!statsz.degraded, "recovery cleared the degraded flag");
    let total_faults = route_storm.fired + capture_storm.fired + panic_storm.fired;
    assert!(
        total_faults >= 100,
        "the chaos run must inject at least 100 faults, got {total_faults} \
         (route {}, capture {}, panics {})",
        route_storm.fired,
        capture_storm.fired,
        panic_storm.fired
    );
}

/// A capture stalled past the frame budget returns its (already paid for)
/// fresh frame but flips the manager degraded; the next in-budget probe
/// restores healthy mode.
#[test]
fn capture_delays_over_budget_degrade_and_recover() {
    let _guard = batchlens_fault::test_guard();
    let ds = scenario::fig3b(5).run().expect("scenario");
    let manager = SessionManager::with_config(
        Arc::new(BatchLens::new(ds)),
        SessionConfig {
            frame_budget: Some(Duration::from_millis(1)),
            probe_every: 2,
            ..Default::default()
        },
    );
    let id = manager.create().session;
    arm(
        FAILPOINT_CAPTURE,
        FaultSpec::new(Fault::Delay(Duration::from_millis(20)), Trigger::Times(1)),
    );
    let info = manager.frame_info(id).expect("frame");
    assert!(
        !info.stale,
        "an over-budget capture still returns fresh data"
    );
    assert!(manager.degraded(), "but the manager degrades");
    // The delay schedule is spent; within a probe cycle the manager heals.
    let mut cleared = false;
    for _ in 0..4 {
        manager.frame_info(id).expect("frame");
        if !manager.degraded() {
            cleared = true;
            break;
        }
    }
    assert!(cleared, "an in-budget probe restores healthy mode");
}
