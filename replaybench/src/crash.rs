//! `crash_restart`: the WAL read instead of written.
//!
//! Set-up replays the day into a WAL-logged monitor, builds the live lens
//! and calls `durability::dump`. Each timed restart then runs
//! `durability::restore`, attaches the recovered monitor to the restored
//! lens, binds the server, and ends at the first `200` from both
//! `/readyz` and a session's `/frame`.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use batchlens::durability::{self, RestoredLens};
use batchlens::stream::{StreamConfig, StreamMonitor};
use batchlens::trace::wal::WalWriter;
use batchlens::trace::{QueryFrame, Timestamp, TraceDataset};
use batchlens::{BatchLens, SessionLog, ViewState};
use batchlens_serve::session::FrameInfo;

use crate::http::{Client, Serving};
use crate::inputs::{wal_config, Inputs};
use crate::probe::WriteIo;
use crate::report::Report;
use crate::spans::{self, Recorder};
use crate::stats::{median, ms, quantile};
use crate::Options;

/// How many non-ready answers a restart tolerates before giving up.
const READY_TRIES: u32 = 1000;

/// The pre-crash state every restart must reproduce. Only the frame a new
/// session first serves is kept, not the lens: the pre-crash lens and
/// monitor are dropped before the first restart, so the peak resident set
/// is the restored program's.
struct PreCrash {
    first_at: Timestamp,
    first_frame: Arc<QueryFrame>,
    state_version: u64,
    ingested: u64,
    total_alerts: u64,
    next_alert_seq: u64,
}

/// One restart's results.
struct Restart {
    traced: bool,
    ready: Duration,
    /// From the start of the restart to the first `/readyz` 200.
    readyz: Duration,
    first_frame: Duration,
    replayed: u64,
    queue_depth: usize,
    hit_rate: f64,
}

/// Runs `crash_restart` for `opts.seconds` and fills `report`.
///
/// # Errors
///
/// Set-up failures as text.
pub fn run(
    inputs: &Inputs,
    opts: &Options,
    inputs_s: f64,
    report: &mut Report,
) -> Result<(), String> {
    let origin = Instant::now();
    let mut setup_rec = Recorder::new(origin, opts.trace, "setup");
    let setup_start = Instant::now();
    let cfg = StreamConfig::default();
    let dump_dir = opts.work_dir.join("crash-dump");
    let monitor = Arc::new(StreamMonitor::new(cfg).map_err(|e| e.to_string())?);
    monitor.attach_wal(
        WalWriter::open(&opts.work_dir.join("crash-wal"), wal_config())
            .map_err(|e| format!("open WAL: {e}"))?,
    );
    let io_before = WriteIo::of_this_thread();
    inputs.feed(&monitor, &mut setup_rec, |_| {});
    let io = io_before
        .zip(WriteIo::of_this_thread())
        .map(|(before, after)| after.since(before));
    let (dataset, _) = setup_rec.time("trace.store_open", 0, || {
        TraceDataset::open(&inputs.store_dir)
    });
    let dataset = dataset.map_err(|e| format!("open store: {e}"))?;
    let (mut lens, _) = setup_rec.time("core.lens_build", 0, || BatchLens::new(dataset));
    lens.attach_live_monitor(Arc::clone(&monitor));
    durability::dump(&dump_dir, &lens, Some(&monitor)).map_err(|e| format!("dump: {e}"))?;
    let setup = setup_start.elapsed();
    report.attempted += inputs.records as u64;
    report.failed += monitor.wal_errors() + monitor.stale_dropped();
    // A new session starts at the view's default instant.
    let first_at = ViewState::new(lens.view().extent()).selected_timestamp();
    let pre = PreCrash {
        first_at,
        first_frame: lens.frame_at(first_at),
        state_version: monitor.state_version(),
        ingested: monitor.ingested(),
        total_alerts: monitor.total_alerts(),
        next_alert_seq: monitor.next_alert_seq(),
    };
    drop(lens);
    drop(monitor);
    spans::merge(&mut report.spans, setup_rec.into_spans());

    let budget = Duration::from_secs_f64(opts.seconds);
    let min_restarts = if opts.trace { 2 } else { 1 };
    let mut runs: Vec<Restart> = Vec::new();
    while runs.len() < min_restarts || origin.elapsed() < budget {
        let idx = runs.len();
        let traced = opts.trace && idx.is_multiple_of(2);
        runs.push(restart(&dump_dir, &pre, cfg, idx, traced, origin, report)?);
        report.first_iteration_done();
    }
    summarize(
        &runs,
        io,
        inputs.records,
        opts,
        inputs_s + setup.as_secs_f64(),
        report,
    );
    Ok(())
}

fn restart(
    dump_dir: &Path,
    pre: &PreCrash,
    cfg: StreamConfig,
    idx: usize,
    traced: bool,
    origin: Instant,
    report: &mut Report,
) -> Result<Restart, String> {
    let request = idx as u64;
    let mut rec = Recorder::new(origin, traced, "restart");
    let t0 = Instant::now();
    let (restored, _) = rec.time("core.restore", request, || durability::restore(dump_dir));
    let RestoredLens {
        mut lens,
        monitor,
        monitor_report,
    } = restored.map_err(|e| format!("restore: {e}"))?;
    let monitor = Arc::new(monitor.ok_or("the dump holds no monitor")?);
    lens.attach_live_monitor(Arc::clone(&monitor));
    let lens = Arc::new(lens);
    let serving = Serving::start(Arc::clone(&lens), 1).map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::connect(serving.addr).map_err(|e| format!("connect: {e}"))?;
    let ready_start = Instant::now();
    let mut tries = 0;
    while client.call("GET", "/readyz", "").status != 200 {
        tries += 1;
        if tries >= READY_TRIES {
            return Err(format!("/readyz not 200 after {READY_TRIES} tries"));
        }
    }
    let t_readyz = Instant::now();
    let session = client.create_session();
    let frame_start = Instant::now();
    let frame_path = format!("/sessions/{session}/frame");
    let mut resp = client.call("GET", &frame_path, "");
    while resp.status != 200 {
        tries += 1;
        if tries >= READY_TRIES {
            return Err(format!("/frame not 200 after {READY_TRIES} tries"));
        }
        resp = client.call("GET", &frame_path, "");
    }
    let t_ready = Instant::now();
    let whole = rec.record("restart", request, None, t0, t_ready);
    rec.record("serve.readyz", request, whole, ready_start, t_readyz);
    rec.record("serve.frame", request, whole, frame_start, t_ready);

    // --- checks and counts, outside the timed region ---
    let statsz = client.statsz();
    report.attempted += client.requests + 1;
    report.failed += client.non_ok;
    drop(client);
    serving.stop();
    let clean = monitor_report.as_ref().is_some_and(|r| r.reason.is_clean());
    report.failed += u64::from(!clean);
    report.check(
        "crash_restart: restored monitor matches the pre-crash counters",
        monitor.state_version() == pre.state_version
            && monitor.ingested() == pre.ingested
            && monitor.total_alerts() == pre.total_alerts
            && monitor.next_alert_seq() == pre.next_alert_seq,
        || {
            format!(
                "version {} vs {}, ingested {} vs {}, alerts {} vs {}, next seq {} vs {}",
                monitor.state_version(),
                pre.state_version,
                monitor.ingested(),
                pre.ingested,
                monitor.total_alerts(),
                pre.total_alerts,
                monitor.next_alert_seq(),
                pre.next_alert_seq
            )
        },
    );
    let info: Option<FrameInfo> = serde_json::from_str(&resp.text()).ok();
    let at = info.as_ref().map_or(Timestamp::new(0), |i| i.at);
    // The served frame is in the restored lens's cache, so this is the
    // capture the server answered from.
    let served = lens.frame_at(at);
    report.check(
        "crash_restart: first served frame equals the pre-crash frame",
        info.as_ref()
            .is_some_and(|i| !i.stale && i.version == pre.state_version)
            && at == pre.first_at
            && *served == *pre.first_frame,
        || {
            format!(
                "frame at {at} differs (served version {})",
                served.version()
            )
        },
    );

    if traced {
        // The restore's stages, timed one by one on the same dump.
        let (dataset, _) = rec.time("trace.store_open", request, || {
            TraceDataset::open(&dump_dir.join("dataset"))
        });
        let log = std::fs::read_to_string(dump_dir.join("session.json"))
            .map_err(|e| e.to_string())
            .and_then(|s| SessionLog::from_json(&s).map_err(|e| e.to_string()))?;
        let dataset = dataset.map_err(|e| format!("open dumped store: {e}"))?;
        let (mut fresh, _) = rec.time("core.lens_build", request, || {
            BatchLens::with_session(dataset, log)
        });
        let (recovered, _) = rec.time("trace.wal_recover", request, || {
            StreamMonitor::recover(&dump_dir.join("monitor").join("wal"), cfg)
        });
        let (recovered, _) = recovered.map_err(|e| format!("recover: {e}"))?;
        fresh.attach_live_monitor(Arc::new(recovered));
        let (_, capture) = rec.time("core.frame_at", request, || fresh.frame_at(at));
        // What the served first frame spent outside the capture: the tail
        // of its span once the capture's duration is taken off the front.
        rec.record(
            "serve.residual",
            request,
            None,
            frame_start + capture,
            t_ready,
        );
    }
    spans::merge(&mut report.spans, rec.into_spans());
    Ok(Restart {
        traced,
        ready: t_ready - t0,
        readyz: t_readyz - t0,
        first_frame: t_ready - frame_start,
        replayed: monitor_report.map_or(0, |r| r.records_replayed),
        queue_depth: statsz.worker_pool.queue_depth,
        hit_rate: statsz.frame_cache.hit_rate,
    })
}

fn summarize(
    runs: &[Restart],
    io: Option<WriteIo>,
    records: usize,
    opts: &Options,
    setup_s: f64,
    report: &mut Report,
) {
    let (traced, untraced): (Vec<&Restart>, Vec<&Restart>) = runs.iter().partition(|r| r.traced);
    let measured = if untraced.is_empty() {
        &traced
    } else {
        &untraced
    };
    let ready_ms: Vec<f64> = measured.iter().map(|r| ms(r.ready)).collect();
    let readyz_ms: Vec<f64> = measured.iter().map(|r| ms(r.readyz)).collect();
    let first_ms: Vec<f64> = measured.iter().map(|r| ms(r.first_frame)).collect();
    let rates: Vec<f64> = measured
        .iter()
        .map(|r| r.replayed as f64 / r.ready.as_secs_f64())
        .collect();
    let ready_p50 = median(&ready_ms).unwrap_or(0.0);
    let q = |v: &[f64], p: f64| quantile(v, p).unwrap_or(0.0);

    report.note(format!("{} restarts ({} traced)", runs.len(), traced.len()));
    report.named("restart_ready_s", ready_p50 / 1e3, "s");
    report.named("first_frame_ms", median(&first_ms).unwrap_or(0.0), "ms");
    report.named(
        "wal_records_replayed",
        runs.first().map_or(0.0, |r| r.replayed as f64),
        "count",
    );

    // A restart is one sample (~13 a run), so the tails are p90: the
    // second-slowest restart. Latency is what an orchestrator waits for
    // (`/readyz`); the read is what a user waits for (the first frame),
    // which is `restart_ready_s`.
    report.end_to_end("throughput_per_s", median(&rates).unwrap_or(0.0), "1/s");
    report.end_to_end("latency_p50_ms", median(&readyz_ms).unwrap_or(0.0), "ms");
    report.named("restart_readyz_p90_ms", q(&readyz_ms, 0.9), "ms");
    report.end_to_end("read_p50_ms", ready_p50, "ms");
    report.named("restart_ready_p90_ms", q(&ready_ms, 0.9), "ms");
    report.end_to_end("setup_s", setup_s, "s");

    if !opts.trace {
        return;
    }
    match io {
        Some(io) if records > 0 => {
            report.per_layer(
                "wal.write_syscalls_per_record",
                io.syscalls as f64 / records as f64,
                "1/record",
            );
            report.per_layer(
                "wal.bytes_per_record",
                io.bytes as f64 / records as f64,
                "B/record",
            );
        }
        _ => {
            report
                .absent
                .extend(["wal.write_syscalls_per_record", "wal.bytes_per_record"]);
            report.note("/proc/thread-self/io unavailable: wal.* write counts absent".to_string());
        }
    }
    let recorded = std::mem::take(&mut report.spans);
    let span_q = |name: &str, p: f64| quantile(&spans::durations_us(&recorded, name), p);
    let structural: f64 = spans::durations_us(&recorded, "core.structural")
        .iter()
        .sum();
    let layer = [
        (
            "wal.recover_s",
            span_q("trace.wal_recover", 0.5).map(|v| v / 1e6),
            "s",
        ),
        (
            "store.open_s",
            span_q("trace.store_open", 0.5).map(|v| v / 1e6),
            "s",
        ),
        (
            "app.lens_build_s",
            span_q("core.lens_build", 0.5).map(|v| v / 1e6),
            "s",
        ),
        (
            "durability.restore_s",
            span_q("core.restore", 0.5).map(|v| v / 1e6),
            "s",
        ),
        (
            "stream.epoch_ingest_us_p50",
            span_q("core.ingest_batch", 0.5),
            "us",
        ),
        (
            "stream.epoch_ingest_us_p99",
            span_q("core.ingest_batch", 0.99),
            "us",
        ),
        ("stream.structural_us_total", Some(structural), "us"),
        (
            "app.frame_cache_hit_rate",
            median(&runs.iter().map(|r| r.hit_rate).collect::<Vec<_>>()),
            "ratio",
        ),
        (
            "app.frame_capture_us_p50",
            span_q("core.frame_at", 0.5),
            "us",
        ),
        ("serve.residual_us_p50", span_q("serve.residual", 0.5), "us"),
        (
            "serve.queue_depth_max",
            runs.iter().map(|r| r.queue_depth as f64).reduce(f64::max),
            "count",
        ),
    ];
    for (name, value, unit) in layer {
        if let Some(v) = value {
            report.per_layer(name, v, unit);
        }
    }
    if !untraced.is_empty() {
        let traced_p50 = median(&traced.iter().map(|r| ms(r.ready)).collect::<Vec<_>>());
        if let Some(t) = traced_p50 {
            report.per_layer(
                "trace.overhead_pct",
                100.0 * (t - ready_p50) / ready_p50,
                "%",
            );
        }
    }
    // Restore's share that no stage accounts for (session log, config).
    let stages = ["trace.store_open", "core.lens_build", "trace.wal_recover"];
    let parts: Option<f64> = stages.iter().map(|s| span_q(s, 0.5)).sum();
    if let (Some(restore), Some(parts)) = (span_q("core.restore", 0.5), parts) {
        report.note(format!(
            "restore {:.0} us = open + lens build + WAL recover {:.0} us + other {:.0} us",
            restore,
            parts,
            restore - parts
        ));
    }
    report.spans = recorded;
}
