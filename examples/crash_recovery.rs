//! Crash/restart durability demo: a live monitor is killed mid-stream —
//! tearing the tail of its write-ahead log — restarted from the log, and
//! proven to end in the exact state of a monitor that never crashed.
//!
//! The crash schedule comes from the simulator's
//! [`CrashRestartRegime`](batchlens::sim::CrashRestartRegime): the process
//! dies at scripted times (losing un-synced trailing bytes of the active
//! WAL segment), stays down for the scripted downtime — deliveries arriving
//! meanwhile are lost, as against any dead collector — and restarts by
//! replaying the log with [`StreamMonitor::recover`]. A reference monitor
//! receives exactly the deliveries the crashing one accepted; at the end,
//! counters, alert buffers and live-window query frames must agree
//! bit-identically.
//!
//! Run with: `cargo run -p batchlens --example crash_recovery`

use std::fs::OpenOptions;

use batchlens::analytics::baseline::export_usage_records;
use batchlens::sim::{scenario, CrashRestartRegime, MonitorCrash};
use batchlens::stream::{StreamConfig, StreamMonitor};
use batchlens::trace::wal::{WalConfig, WalWriter};
use batchlens::trace::{DatasetQuery, TimeDelta, Timestamp};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = scenario::fig3b(17).run()?;
    let mut records = export_usage_records(&dataset);
    records.sort_by_key(|r| (r.time, r.machine));
    let span = dataset.span().expect("simulated dataset has a span");
    println!(
        "streaming {} usage records over [{}, {})",
        records.len(),
        span.start(),
        span.end()
    );

    let wal_dir = std::env::temp_dir().join(format!("batchlens-crash-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let cfg = StreamConfig {
        horizon: TimeDelta::DAY,
        ..Default::default()
    };

    // Two scripted crashes: one clean kill, one power-style failure that
    // tears 11 bytes (half a frame header) off the active segment.
    let mid = Timestamp::new((span.start().seconds() + span.end().seconds()) / 2);
    let regime = CrashRestartRegime::new(vec![
        MonitorCrash {
            at: Timestamp::new(span.start().seconds() + 600),
            restart_after: TimeDelta::minutes(5),
            torn_tail_bytes: 0,
        },
        MonitorCrash {
            at: mid,
            restart_after: TimeDelta::minutes(10),
            torn_tail_bytes: 11,
        },
    ]);

    // The crashing monitor, WAL-attached; the reference never crashes and
    // ingests exactly what the crashing one accepts.
    let live = StreamMonitor::new(cfg)?;
    live.attach_wal(WalWriter::open(&wal_dir, WalConfig::default())?);
    let reference = StreamMonitor::new(cfg)?;

    let live_cell = std::cell::RefCell::new(Some(live));
    let stats = regime.drive(
        records.into_iter().map(|r| (r.time, r)),
        |rec| {
            let cell = live_cell.borrow();
            let monitor = cell.as_ref().expect("monitor is up while delivering");
            monitor.ingest(rec);
            reference.ingest(rec);
        },
        |crash| {
            // Process death: the monitor object is dropped without any
            // orderly shutdown, and the crash optionally tears the tail of
            // the newest segment (bytes that never made it out of the page
            // cache).
            let monitor = live_cell.borrow_mut().take().expect("up before a crash");
            drop(monitor); // no detach, no sync — a kill, not a shutdown
            if crash.torn_tail_bytes > 0 {
                let newest = std::fs::read_dir(&wal_dir)
                    .expect("wal dir exists")
                    .filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| p.extension().is_some_and(|x| x == "wal"))
                    .max()
                    .expect("at least one segment");
                let len = newest.metadata().expect("segment metadata").len();
                let file = OpenOptions::new()
                    .write(true)
                    .open(&newest)
                    .expect("open segment");
                file.set_len(len.saturating_sub(crash.torn_tail_bytes))
                    .expect("tear tail");
            }
            println!(
                "crash at t={} (torn tail: {} bytes), down for {}s",
                crash.at,
                crash.torn_tail_bytes,
                crash.restart_after.as_seconds()
            );
        },
        |crash| {
            let (monitor, report) =
                StreamMonitor::recover(&wal_dir, cfg).expect("recovery never fails on content");
            println!(
                "restart at t={}: replayed {} records, discarded {} bytes ({})",
                crash.restart_at(),
                report.records_replayed,
                report.bytes_discarded,
                report.reason
            );
            // Resume logging: the writer truncates the torn tail and
            // continues the sequence numbering.
            monitor.attach_wal(
                WalWriter::open(&wal_dir, WalConfig::default()).expect("wal writer resumes"),
            );
            *live_cell.borrow_mut() = Some(monitor);
        },
    );
    println!(
        "delivered {} records, lost {} to downtime, {} crashes",
        stats.delivered, stats.lost, stats.crashes
    );

    let live = live_cell
        .into_inner()
        .expect("drive ends with a live monitor");

    // The durability claim this demo proves end to end: at any moment, the
    // WAL alone suffices to rebuild the current monitor **bit-identically**
    // — even after two crashes, a torn segment tail, and lost deliveries.
    drop(live.detach_wal());
    let (rebuilt, report) = StreamMonitor::recover(&wal_dir, cfg)?;
    println!(
        "final recovery: {} records, {} bytes discarded ({})",
        report.records_replayed, report.bytes_discarded, report.reason
    );
    assert_eq!(rebuilt.state_version(), live.state_version());
    assert_eq!(rebuilt.ingested(), live.ingested());
    assert_eq!(rebuilt.stale_dropped(), live.stale_dropped());
    assert_eq!(rebuilt.late_accepted(), live.late_accepted());
    assert_eq!(rebuilt.total_alerts(), live.total_alerts());
    assert_eq!(rebuilt.alerts_since(0), live.alerts_since(0));
    for probe in [span.start(), mid, span.end()] {
        assert_eq!(
            rebuilt.live_view().frame(probe),
            live.live_view().frame(probe),
            "recovered frame({probe}) must be bit-identical"
        );
    }
    println!(
        "rebuilt == live: version={} ingested={} alerts={} (never-crashed reference ingested {})",
        rebuilt.state_version(),
        rebuilt.ingested(),
        rebuilt.total_alerts(),
        reference.ingested()
    );

    let _ = std::fs::remove_dir_all(&wal_dir);
    println!("crash recovery demo complete");
    Ok(())
}
