//! `live_replay`: the writing workload.
//!
//! The benchmark's thread replays the day's epochs flat-out, in a closed
//! loop, into a `StreamMonitor` with a WAL attached: each epoch's
//! structural events, then `ingest_batch` on its sealed batch. After each
//! epoch a dashboard on one keep-alive session refreshes: `GET /alerts`,
//! then select the newest sealed minute and `GET /frame`. The next epoch
//! is delivered once the refresh has answered.
//!
//! The refresh cadence is the trace's: usage arrives one reporting period
//! (a simulated minute) at a time, and a live view shows each period once
//! it arrives. At that cadence a refresh (about a millisecond) ends tens
//! of thousands of times sooner than the next epoch arrives, so in a
//! deployment a refresh never overlaps the next ingest. The replay removes
//! the idle minute between epochs but keeps that order, so the alert lag
//! is the ingest call plus the alert poll, and neither waits on a schedule
//! the benchmark chose. The last refresh, after the last epoch, must
//! deliver every remaining alert.

use std::sync::Arc;
use std::time::{Duration, Instant};

use batchlens::stream::{Alert, StreamConfig, StreamMonitor};
use batchlens::trace::wal::WalWriter;
use batchlens::trace::{Timestamp, TraceDataset};
use batchlens::BatchLens;
use batchlens_serve::router::STALE_HEADER;
use batchlens_serve::session::AlertsPayload;

use crate::http::{Client, Serving};
use crate::inputs::{wal_config, Fed, Inputs, EPOCH_SECONDS};
use crate::probe::WriteIo;
use crate::report::Report;
use crate::spans::{self, Recorder};
use crate::stats::{max, median, ms, quantile, us};
use crate::Options;

/// Traced runs sample `/statsz` every this many refreshes.
const STATSZ_EVERY: usize = 64;

/// One dashboard refresh.
struct Refresh {
    /// When the refresh was due: the end of the epoch's `ingest_batch`.
    due: Instant,
    /// The `/alerts` poll's send and completion.
    alerts: (Instant, Instant),
    /// Its response body, decoded after the replay: the JSON codec's cost
    /// is the client's, not the server's.
    body: Option<String>,
    /// The `/frame` request's send and completion.
    frame: (Instant, Instant),
}

/// The dashboard: one session on one keep-alive connection.
struct Dashboard<'a> {
    client: Client,
    lens: &'a BatchLens,
    alerts_path: String,
    frame_path: String,
    events_path: String,
    rec: Recorder,
    refreshes: Vec<Refresh>,
    stale_frames: u64,
    queue_max: usize,
    /// In-process `frame_at` calls (traced only), so the served hit rate
    /// can exclude them.
    probes: u64,
}

impl<'a> Dashboard<'a> {
    fn new(mut client: Client, lens: &'a BatchLens, rec: Recorder) -> Dashboard<'a> {
        let session = client.create_session();
        Dashboard {
            client,
            lens,
            alerts_path: format!("/sessions/{session}/alerts"),
            frame_path: format!("/sessions/{session}/frame"),
            events_path: format!("/sessions/{session}/events"),
            rec,
            refreshes: Vec::new(),
            stale_frames: 0,
            queue_max: 0,
            probes: 0,
        }
    }

    /// Refreshes after epoch `fed`: polls the alerts, then shows the newest
    /// sealed minute.
    fn refresh(&mut self, fed: &Fed) {
        let n = fed.index as u64;
        let sent = Instant::now();
        let resp = self.client.call("GET", &self.alerts_path, "");
        let done = Instant::now();
        self.rec.record("serve.alerts", n, None, sent, done);
        let body = (resp.status == 200).then(|| resp.text());
        let at = fed.created_at.seconds();
        let select = format!("{{\"SelectTimestamp\": {at}}}");
        self.client.call("POST", &self.events_path, &select);
        let get = Instant::now();
        let resp = self.client.call("GET", &self.frame_path, "");
        let end = Instant::now();
        self.rec.record("serve.frame", n, None, get, end);
        self.stale_frames += u64::from(resp.header(STALE_HEADER).is_some());
        self.refreshes.push(Refresh {
            due: fed.ingest_end,
            alerts: (sent, done),
            body,
            frame: (get, end),
        });
        if self.rec.enabled() {
            // A capture alone, in-process, to split the served frame
            // latency into capture and serving residual. The served
            // instant is cached now, so the probe captures the minute
            // before it, which costs the same and is not.
            let start = Instant::now();
            let _frame = self.lens.frame_at(Timestamp::new(at - EPOCH_SECONDS));
            self.rec
                .record("core.frame_at", n, None, start, Instant::now());
            self.probes += 1;
            if self.refreshes.len().is_multiple_of(STATSZ_EVERY) {
                let depth = self.client.statsz().worker_pool.queue_depth;
                self.queue_max = self.queue_max.max(depth);
            }
        }
    }
}

/// One firing epoch's alert lag, from the start of its `ingest_batch` to
/// the completion of the `/alerts` poll that delivered its alerts, split
/// into the ingest call, the wait before the poll was sent, and the poll.
#[derive(Debug, Clone, Copy)]
struct Lag {
    total_ms: f64,
    ingest_ms: f64,
    wait_ms: f64,
    poll_ms: f64,
}

/// One replay's results.
struct Iteration {
    traced: bool,
    setup: Duration,
    /// Accepted records per second of the driver's monitor calls.
    rec_per_s: f64,
    /// Lag of every delivered alert.
    lags_ms: Vec<f64>,
    /// Lag of each firing epoch (its alerts arrive together).
    bursts: Vec<Lag>,
    /// Frame latency from when the refresh was due.
    frame_ms: Vec<f64>,
    /// Frame latency from the `GET` to its response.
    frame_service_ms: Vec<f64>,
    /// How long after it was due each refresh was sent.
    lateness_ms: Vec<f64>,
    fired: Vec<Alert>,
    structural_us: f64,
    io: Option<WriteIo>,
    hit_rate: f64,
    queue_max: usize,
}

/// Runs `live_replay` for `opts.seconds` and fills `report`.
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
    let budget = Duration::from_secs_f64(opts.seconds);
    let min_iterations = if opts.trace { 2 } else { 1 };
    let mut runs: Vec<Iteration> = Vec::new();
    let mut reference: Option<Vec<Alert>> = None;
    while runs.len() < min_iterations || origin.elapsed() < budget {
        let idx = runs.len();
        // Traced runs alternate traced and untraced replays; the
        // difference between the two is the tracing overhead.
        let traced = opts.trace && idx.is_multiple_of(2);
        let run = iteration(inputs, opts, idx, traced, origin, report)?;
        report.first_iteration_done();
        let reference = reference.get_or_insert_with(|| unlogged_reference(inputs));
        report.check(
            "live_replay: alert stream equals an unlogged, unread monitor's",
            &run.fired == reference,
            || {
                format!(
                    "{} alerts with WAL and readers, {} without",
                    run.fired.len(),
                    reference.len()
                )
            },
        );
        if idx == 0 {
            score(inputs, &run.fired, report);
        }
        runs.push(run);
    }
    summarize(&runs, inputs, opts, inputs_s, report);
    Ok(())
}

/// The reference alert stream: the same epochs into a monitor with no WAL
/// and no readers.
fn unlogged_reference(inputs: &Inputs) -> Vec<Alert> {
    let monitor = StreamMonitor::new(StreamConfig::default()).expect("default config is valid");
    let mut off = Recorder::new(Instant::now(), false, "reference");
    inputs.feed(&monitor, &mut off, |_| {})
}

fn iteration(
    inputs: &Inputs,
    opts: &Options,
    idx: usize,
    traced: bool,
    origin: Instant,
    report: &mut Report,
) -> Result<Iteration, String> {
    let request = idx as u64;
    let mut setup_rec = Recorder::new(origin, traced, "setup");
    let setup_start = Instant::now();
    let wal_dir = opts.work_dir.join(format!("live-wal-{idx}"));
    let (dataset, _) = setup_rec.time("trace.store_open", request, || {
        TraceDataset::open(&inputs.store_dir)
    });
    let dataset = dataset.map_err(|e| format!("open store: {e}"))?;
    let (mut lens, _) = setup_rec.time("core.lens_build", request, || BatchLens::new(dataset));
    let cfg = StreamConfig::default();
    let monitor = Arc::new(StreamMonitor::new(cfg).map_err(|e| e.to_string())?);
    monitor
        .attach_wal(WalWriter::open(&wal_dir, wal_config()).map_err(|e| format!("open WAL: {e}"))?);
    lens.attach_live_monitor(Arc::clone(&monitor));
    let lens = Arc::new(lens);
    let serving = Serving::start(Arc::clone(&lens), 1).map_err(|e| format!("bind: {e}"))?;
    let client = Client::connect(serving.addr).map_err(|e| format!("connect: {e}"))?;
    let mut dashboard = Dashboard::new(client, &lens, Recorder::new(origin, traced, "dashboard"));
    let setup = setup_start.elapsed();

    // --- the replay ---
    let mut rec = Recorder::new(origin, traced, "driver");
    let mut ingest = Vec::with_capacity(inputs.epochs.len());
    let mut fired_epoch = Vec::new();
    let mut structural = Duration::ZERO;
    let mut busy = Duration::ZERO;
    let io_before = WriteIo::of_this_thread();
    let sent_before = (dashboard.client.requests, dashboard.client.written);
    let fired = inputs.feed(&monitor, &mut rec, |fed| {
        structural += fed.structural;
        busy += fed.structural + (fed.ingest_end - fed.ingest_start);
        ingest.push((fed.ingest_start, fed.ingest_end));
        fired_epoch.extend(std::iter::repeat_n(fed.index, fed.fired));
        dashboard.refresh(fed);
    });
    // The dashboard writes its requests from this thread too, one `write`
    // each; the rest are the monitor's.
    let dashboard_io = WriteIo {
        syscalls: dashboard.client.requests - sent_before.0,
        bytes: dashboard.client.written - sent_before.1,
    };
    let io = io_before
        .zip(WriteIo::of_this_thread())
        .map(|(before, after)| after.since(before).since(dashboard_io));

    let Dashboard {
        mut client,
        rec: dash_rec,
        refreshes,
        stale_frames,
        queue_max,
        probes,
        ..
    } = dashboard;
    let statsz = client.statsz();
    let requests = client.requests;
    let non_ok = client.non_ok;
    drop(client);
    serving.stop();

    // --- checks and counts, outside the timed region ---
    let mut missed = 0;
    let mut delivered: Vec<(Alert, &Refresh)> = Vec::new();
    for refresh in &refreshes {
        let Some(body) = &refresh.body else { continue };
        let payload: AlertsPayload = serde_json::from_str(body).expect("alerts payload");
        missed += payload.missed;
        delivered.extend(payload.alerts.into_iter().map(|a| (a, refresh)));
    }
    let received: Vec<Alert> = delivered.iter().map(|(a, _)| *a).collect();
    report.check(
        "live_replay: cursor delivered every fired alert once, in sequence order",
        received == fired,
        || {
            format!(
                "fired {} (seq 0..{}), cursor delivered {}",
                fired.len(),
                fired.len(),
                received.len()
            )
        },
    );
    report.check("live_replay: cursor missed no alert", missed == 0, || {
        format!("missed {missed}")
    });
    // Lag per alert, and per firing epoch: an epoch's alerts become
    // visible together, so its first alert's lag stands for all of them.
    let mut lags_ms = Vec::with_capacity(delivered.len());
    let mut bursts = Vec::new();
    let mut last_epoch = None;
    for (alert, refresh) in &delivered {
        let Some(&epoch) = fired_epoch.get(alert.seq as usize) else {
            continue;
        };
        let (start, end) = ingest[epoch];
        let (sent, done) = refresh.alerts;
        let lag = Lag {
            total_ms: ms(done.saturating_duration_since(start)),
            ingest_ms: ms(end - start),
            wait_ms: ms(sent.saturating_duration_since(end)),
            poll_ms: ms(done.saturating_duration_since(sent.max(end))),
        };
        lags_ms.push(lag.total_ms);
        if last_epoch != Some(epoch) {
            bursts.push(lag);
            last_epoch = Some(epoch);
        }
    }
    let lateness_ms = refreshes
        .iter()
        .map(|r| ms(r.alerts.0.saturating_duration_since(r.due)))
        .collect();
    let frame_ms = refreshes
        .iter()
        .map(|r| ms(r.frame.1.saturating_duration_since(r.due)))
        .collect();
    let frame_service_ms = refreshes
        .iter()
        .map(|r| ms(r.frame.1 - r.frame.0))
        .collect();

    let wal_errors = monitor.wal_errors();
    let stale_dropped = monitor.stale_dropped();
    report.attempted += inputs.records as u64 + requests + fired.len() as u64;
    report.failed += non_ok + missed + wal_errors + stale_frames + stale_dropped;

    if idx == 0 {
        recover_check(&monitor, &wal_dir, cfg, &mut setup_rec, report);
    }
    let _ = std::fs::remove_dir_all(&wal_dir);

    let cache = statsz.frame_cache;
    let run = Iteration {
        traced,
        setup,
        rec_per_s: monitor.ingested() as f64 / busy.as_secs_f64(),
        lags_ms,
        bursts,
        frame_ms,
        frame_service_ms,
        lateness_ms,
        fired,
        structural_us: us(structural),
        io,
        hit_rate: cache.hits as f64
            / (cache.hits + cache.misses).saturating_sub(probes).max(1) as f64,
        queue_max: queue_max.max(statsz.worker_pool.queue_depth),
    };
    for rec in [setup_rec, rec, dash_rec] {
        spans::merge(&mut report.spans, rec.into_spans());
    }
    Ok(run)
}

/// Recovers the replay's WAL and checks the recovered monitor against the
/// live one.
fn recover_check(
    monitor: &StreamMonitor,
    wal_dir: &std::path::Path,
    cfg: StreamConfig,
    rec: &mut Recorder,
    report: &mut Report,
) {
    drop(monitor.detach_wal());
    let (recovered, _) = rec.time("trace.wal_recover", 0, || {
        StreamMonitor::recover(wal_dir, cfg)
    });
    let same = recovered.as_ref().is_ok_and(|(m, r)| {
        r.reason.is_clean()
            && m.state_version() == monitor.state_version()
            && m.ingested() == monitor.ingested()
            && m.total_alerts() == monitor.total_alerts()
            && m.next_alert_seq() == monitor.next_alert_seq()
    });
    report.check(
        "live_replay: WAL recovers the live monitor's state",
        same,
        || format!("recovery: {:?}", recovered.map(|(_, r)| r)),
    );
}

/// Scores the alerts against the injected anomalies.
fn score(inputs: &Inputs, alerts: &[Alert], report: &mut Report) {
    let detections = inputs.score(alerts);
    for d in &detections {
        report.note(match d.delay_s() {
            Some(delay) => format!(
                "injected {} on {} ({} machines, window {}..{}): detected, first alert {} s after window start",
                d.kind, d.job, d.machines, d.window.0, d.window.1, delay
            ),
            None => format!(
                "injected {} on {} ({} machines, window {}..{}): MISSED, no alert on its machines in the window",
                d.kind, d.job, d.machines, d.window.0, d.window.1
            ),
        });
    }
    let detected = detections
        .iter()
        .filter(|d| d.first_alert.is_some())
        .count();
    report.note(format!(
        "alerts fired over the day: {}; injected anomalies detected: {detected}/{}",
        alerts.len(),
        detections.len()
    ));
    report.named("alerts_fired", alerts.len() as f64, "count");
    report.named("anomalies_detected", detected as f64, "count");
}

fn summarize(
    runs: &[Iteration],
    inputs: &Inputs,
    opts: &Options,
    inputs_s: f64,
    report: &mut Report,
) {
    // End-to-end figures come from untraced replays only.
    let measured: Vec<&Iteration> = {
        let untraced: Vec<&Iteration> = runs.iter().filter(|r| !r.traced).collect();
        if untraced.is_empty() {
            runs.iter().collect()
        } else {
            untraced
        }
    };
    let pool = |f: fn(&Iteration) -> &Vec<f64>| -> Vec<f64> {
        measured.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let lags = pool(|r| &r.lags_ms);
    let frames = pool(|r| &r.frame_ms);
    let service = pool(|r| &r.frame_service_ms);
    let lateness = pool(|r| &r.lateness_ms);
    let bursts: Vec<Lag> = measured
        .iter()
        .flat_map(|r| r.bursts.iter().copied())
        .collect();
    let burst = |f: fn(&Lag) -> f64| bursts.iter().map(f).collect::<Vec<f64>>();
    let rates: Vec<f64> = measured.iter().map(|r| r.rec_per_s).collect();
    let setups: Vec<f64> = runs.iter().map(|r| r.setup.as_secs_f64()).collect();
    let rate = median(&rates).unwrap_or(0.0);
    let q = |v: &[f64], p: f64| quantile(v, p).unwrap_or(0.0);

    report.note(format!(
        "{} replays ({} traced); {} alert lag samples from {} firing epochs, {} refreshes with a frame",
        runs.len(),
        runs.iter().filter(|r| r.traced).count(),
        lags.len(),
        bursts.len(),
        frames.len()
    ));
    for (i, r) in runs.iter().enumerate() {
        let total: Vec<f64> = r.bursts.iter().map(|l| l.total_ms).collect();
        report.note(format!(
            "  replay {i}{}: {:.0} rec/s, epoch alert lag p50 {:.2} ms, frame service p50 {:.2} ms, {} refreshes, refresh late max {:.2} ms",
            if r.traced { " (traced)" } else { "" },
            r.rec_per_s,
            q(&total, 0.5),
            q(&r.frame_service_ms, 0.5),
            r.lateness_ms.len(),
            max(&r.lateness_ms).unwrap_or(0.0),
        ));
    }
    report.named("ingest_rec_per_s", rate, "rec/s");
    report.named("alert_lag_p50_ms", q(&lags, 0.5), "ms");
    report.named("alert_lag_p99_ms", q(&lags, 0.99), "ms");
    report.named("live_frame_p50_us", q(&frames, 0.5) * 1e3, "us");
    report.named("live_frame_p99_us", q(&frames, 0.99) * 1e3, "us");
    report.named("live_frame_service_p50_us", q(&service, 0.5) * 1e3, "us");
    report.named("refresh_late_p50_ms", q(&lateness, 0.5), "ms");
    report.named("refresh_late_max_ms", max(&lateness).unwrap_or(0.0), "ms");
    // Where an epoch's alert lag goes: the ingest call, the wait before
    // the dashboard's poll was sent, and the poll.
    report.named(
        "alert_lag_ingest_p50_ms",
        q(&burst(|l| l.ingest_ms), 0.5),
        "ms",
    );
    report.named("alert_lag_wait_p50_ms", q(&burst(|l| l.wait_ms), 0.5), "ms");
    report.named("alert_lag_poll_p50_ms", q(&burst(|l| l.poll_ms), 0.5), "ms");

    // The day's ~1170 alerts fire in a few dozen epochs, and an epoch's
    // alerts reach the cursor in one poll, so the independent lag samples
    // are the firing epochs (~33 a replay, pooled over the replays). The
    // gated frame figure is the service time (request to response); timed
    // from when the refresh was due it also counts the alert poll before
    // it, and is printed as `live_frame_*`. The frame tail is each
    // replay's p90, median over the replays, so one stalled replay does
    // not set it.
    let replay_p90s: Vec<f64> = measured
        .iter()
        .map(|r| q(&r.frame_service_ms, 0.9))
        .collect();
    report.end_to_end("throughput_per_s", rate, "1/s");
    report.end_to_end("latency_p50_ms", q(&burst(|l| l.total_ms), 0.5), "ms");
    report.named(
        "alert_lag_epoch_p90_ms",
        q(&burst(|l| l.total_ms), 0.9),
        "ms",
    );
    report.end_to_end("read_p50_ms", q(&service, 0.5), "ms");
    report.named(
        "live_frame_service_p90_ms",
        median(&replay_p90s).unwrap_or(0.0),
        "ms",
    );
    report.end_to_end("setup_s", inputs_s + median(&setups).unwrap_or(0.0), "s");

    if !opts.trace {
        return;
    }
    let traced: Vec<&Iteration> = runs.iter().filter(|r| r.traced).collect();
    let records = inputs.records as f64;
    let ios: Vec<WriteIo> = traced.iter().filter_map(|r| r.io).collect();
    if ios.len() == traced.len() && records > 0.0 {
        let per = |f: fn(&WriteIo) -> u64| {
            median(
                &ios.iter()
                    .map(|io| f(io) as f64 / records)
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(0.0)
        };
        report.per_layer(
            "wal.write_syscalls_per_record",
            per(|io| io.syscalls),
            "1/record",
        );
        report.per_layer("wal.bytes_per_record", per(|io| io.bytes), "B/record");
    } else {
        report
            .absent
            .extend(["wal.write_syscalls_per_record", "wal.bytes_per_record"]);
        report.note("/proc/thread-self/io unavailable: wal.* write counts absent".to_string());
    }
    let span_median = |name: &str| median(&spans::durations_us(&report.spans, name));
    let ingest = spans::durations_us(&report.spans, "core.ingest_batch");
    let capture = spans::durations_us(&report.spans, "core.frame_at");
    let served_frame = spans::durations_us(&report.spans, "serve.frame");
    let layer = [
        (
            "wal.recover_s",
            span_median("trace.wal_recover").map(|v| v / 1e6),
            "s",
        ),
        (
            "store.open_s",
            span_median("trace.store_open").map(|v| v / 1e6),
            "s",
        ),
        (
            "app.lens_build_s",
            span_median("core.lens_build").map(|v| v / 1e6),
            "s",
        ),
        ("stream.epoch_ingest_us_p50", quantile(&ingest, 0.5), "us"),
        ("stream.epoch_ingest_us_p99", quantile(&ingest, 0.99), "us"),
        (
            "stream.structural_us_total",
            median(&traced.iter().map(|r| r.structural_us).collect::<Vec<_>>()),
            "us",
        ),
        (
            "app.frame_cache_hit_rate",
            median(&runs.iter().map(|r| r.hit_rate).collect::<Vec<_>>()),
            "ratio",
        ),
        ("app.frame_capture_us_p50", quantile(&capture, 0.5), "us"),
        (
            "serve.residual_us_p50",
            quantile(&served_frame, 0.5)
                .zip(quantile(&capture, 0.5))
                .map(|(f, c)| f - c),
            "us",
        ),
        (
            "serve.queue_depth_max",
            runs.iter().map(|r| r.queue_max as f64).reduce(f64::max),
            "count",
        ),
    ];
    for (name, value, unit) in layer {
        if let Some(v) = value {
            report.per_layer(name, v, unit);
        }
    }
    let traced_rate = median(&traced.iter().map(|r| r.rec_per_s).collect::<Vec<_>>());
    if let (Some(t), false) = (traced_rate, measured.iter().all(|r| r.traced)) {
        report.per_layer("trace.overhead_pct", 100.0 * (rate - t) / rate, "%");
    }
}
