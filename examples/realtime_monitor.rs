//! The real-time online extension (paper future work §VI): stream a
//! simulated day's usage records through the rolling-window
//! [`StreamMonitor`] over a channel and print alerts as they fire.
//!
//! A producer thread replays `server_usage` records in time order; the main
//! thread ingests them and surfaces high-utilization and thrashing alerts
//! online, without ever holding the whole trace in an index. Structural
//! records (`batch_instance`, `machine_events`) stream in too, maintaining
//! the rolling interval/liveness indexes — so the same snapshot queries the
//! batch dataset answers run against the live window at the end.
//!
//! Run with: `cargo run -p batchlens --example realtime_monitor`

use std::thread;

use batchlens::analytics::baseline::export_usage_records;
use batchlens::sim::scenario;
use batchlens::stream::{StreamConfig, StreamMonitor};
use batchlens::trace::Metric;
use crossbeam::channel::bounded;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = scenario::fig3c(11).run()?;
    let mut records = export_usage_records(&dataset);
    records.sort_by_key(|r| (r.time, r.machine));
    println!("streaming {} usage records", records.len());

    let (tx, rx) = bounded(1024);
    let producer = thread::spawn(move || {
        for rec in records {
            if tx.send(rec).is_err() {
                break;
            }
        }
    });

    // A day-long rolling window: the live snapshot queries at the end ask
    // about an instant mid-trace, which must still be inside the window —
    // intervals wholly behind `frontier - horizon` are evicted.
    let monitor = std::sync::Arc::new(
        StreamMonitor::new(StreamConfig {
            horizon: batchlens::trace::TimeDelta::DAY,
            ..Default::default()
        })
        .unwrap(),
    );
    let mut high_alerts = 0usize;
    let mut thrash_alerts = 0usize;
    let mut first_thrash = None;
    let mut missed = 0u64;
    // A non-destructive cursor over the alert sequence: `alerts_since`
    // reads from a remembered position and removes nothing, so any number
    // of consumers (this one, a serving layer's sessions) could coexist.
    // Lagging behind the bounded retention shows up as `missed`, never as
    // silent loss.
    let mut next_seq = 0u64;
    let mut consume = |monitor: &StreamMonitor| {
        let batch = monitor.alerts_since(next_seq);
        next_seq = batch.next_seq;
        missed += batch.missed;
        for alert in batch.alerts {
            if alert.is_thrashing() {
                thrash_alerts += 1;
                if first_thrash.is_none() {
                    first_thrash = Some(alert);
                }
            } else {
                high_alerts += 1;
            }
        }
    };
    for (i, rec) in rx.into_iter().enumerate() {
        monitor.ingest(rec);
        if i % 256 == 0 {
            consume(&monitor);
        }
    }
    consume(&monitor);
    producer.join().ok();

    println!(
        "ingested {} records ({} stragglers dropped)",
        monitor.ingested(),
        monitor.stale_dropped()
    );
    println!("tracking {} machines", monitor.tracked_machines());
    println!("high-utilization alerts: {high_alerts}");
    println!("thrashing alerts: {thrash_alerts}");
    println!("alerts evicted before the cursor read them: {missed}");
    if let Some(a) = first_thrash {
        println!(
            "first thrashing alert: {} @ {} (memory {:.0}%)",
            a.machine,
            a.at,
            a.value * 100.0
        );
    }

    // Spot-check one machine's current rolling CPU window.
    if let Some(series) = monitor.series(batchlens::trace::MachineId::new(0), Metric::Cpu) {
        println!(
            "machine_0 rolling CPU window holds {} samples",
            series.len()
        );
    }

    // Live window queries: stream the structural tables in as well, then
    // attach the monitor to a lens and render **frame-driven** — one
    // transactional capture answers every question about the instant, the
    // same path the serving layer takes per request.
    use batchlens::trace::DatasetQuery;
    monitor.ingest_instances(dataset.instance_records().iter().copied());
    for ev in dataset.machine_events() {
        monitor.ingest_machine_event(*ev);
    }
    let at = scenario::T_FIG3C;
    let batch_jobs = DatasetQuery::jobs_running_at(&dataset, at);
    let mut app = batchlens::BatchLens::new(dataset);
    app.attach_live_monitor(std::sync::Arc::clone(&monitor));
    let frame = app.frame_at(at);
    println!(
        "live frame @ {at} (v{}): {} jobs running on {} active machines (batch agrees: {})",
        frame.version(),
        frame.jobs_running().len(),
        frame.machines_active().len(),
        frame.jobs_running() == batch_jobs,
    );
    let snapshot = batchlens::analytics::hierarchy::HierarchySnapshot::from_frame(&frame);
    println!(
        "live hierarchy snapshot: {} job bubbles, {} node glyphs",
        snapshot.jobs.len(),
        snapshot.total_nodes()
    );
    // The full dashboard off the same frame, rasterized for the terminal.
    let scene = batchlens::render::dashboard::Dashboard::new(640.0, 256.0)
        .render_from_frame(&frame, app.timeline());
    print!(
        "{}",
        batchlens::render::ascii::AsciiCanvas::render(&scene, 80, 24).to_text()
    );

    Ok(())
}
