//! `scrub_sessions`: the read-only analyst workload.
//!
//! The day is reopened from its segment store into a batch-backed lens (no
//! monitor, no WAL, a constant frame-cache version). Two closed-loop
//! sessions scrub 42 000–50 000 s, where the paper's Fig. 3 regimes are,
//! on a 60 s grid with back-and-return wiggles; session B starts one grid
//! step ahead of A, so the two share instants and, while they keep pace,
//! A revisits instants B captured moments before. Each step is
//! `POST /sessions/{id}/events` with `SelectTimestamp`, then
//! `GET /sessions/{id}/render?format=svg`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use batchlens::analytics::{CoallocationIndex, HierarchySnapshot};
use batchlens::render::{to_svg, Dashboard};
use batchlens::trace::{Timestamp, TraceDataset};
use batchlens::{BatchLens, Event, ViewState};
use batchlens_serve::router::STALE_HEADER;
use batchlens_serve::SessionManager;

use crate::http::{digest, Client, Serving};
use crate::inputs::Inputs;
use crate::report::Report;
use crate::spans::{self, Recorder};
use crate::stats::{mean, median, ms, quantile, us};
use crate::Options;

/// First scrubbed instant (simulated seconds).
pub const SCRUB_FROM: i64 = 42_000;
/// Last scrubbed instant.
pub const SCRUB_TO: i64 = 50_000;
/// Grid step of the scrub.
pub const SCRUB_STEP: i64 = 60;
/// Every this many steps, the served SVG is digested and checked against
/// an in-process render.
const CHECK_EVERY: usize = 16;
/// The served render size (the router's defaults).
const WIDTH: f64 = 1200.0;
const HEIGHT: f64 = 800.0;

/// One session's scrub script: forward along the grid, stepping back two
/// instants and returning after every third, starting `offset` grid
/// steps in (wrapping at [`SCRUB_TO`]).
pub fn script(offset: i64) -> Vec<Timestamp> {
    let slots = (SCRUB_TO - SCRUB_FROM) / SCRUB_STEP + 1;
    let mut positions = Vec::new();
    for p in 0..slots {
        positions.push(p);
        if p % 3 == 2 {
            positions.extend([p - 2, p]);
        }
    }
    positions
        .into_iter()
        .map(|p| Timestamp::new(SCRUB_FROM + (p + offset) % slots * SCRUB_STEP))
        .collect()
}

/// One served step.
#[derive(Debug, Clone)]
struct Step {
    session: usize,
    k: usize,
    at: Timestamp,
    step_ms: f64,
    render_ms: f64,
    stale: bool,
    svg_bytes: usize,
    digest: Option<u64>,
}

/// One scrub pass's results.
struct Iteration {
    traced: bool,
    setup: Duration,
    steps: Vec<Step>,
    steps_per_s: f64,
    hit_rate: f64,
    queue_max: usize,
}

/// Runs `scrub_sessions` for `opts.seconds` and fills `report`.
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
    let scripts = [script(0), script(1)];
    let mut runs: Vec<Iteration> = Vec::new();
    while runs.len() < min_iterations || origin.elapsed() < budget {
        let idx = runs.len();
        let traced = opts.trace && idx.is_multiple_of(2);
        let run = iteration(inputs, &scripts, idx, traced, origin, report)?;
        report.first_iteration_done();
        if traced && idx == 0 {
            stage_table(inputs, &scripts, &run.steps, origin, report)?;
        }
        runs.push(run);
    }
    summarize(&runs, opts, inputs_s, report);
    Ok(())
}

fn iteration(
    inputs: &Inputs,
    scripts: &[Vec<Timestamp>; 2],
    idx: usize,
    traced: bool,
    origin: Instant,
    report: &mut Report,
) -> Result<Iteration, String> {
    let request = idx as u64;
    let mut setup_rec = Recorder::new(origin, traced, "setup");
    let setup_start = Instant::now();
    let (dataset, _) = setup_rec.time("trace.store_open", request, || {
        TraceDataset::open(&inputs.store_dir)
    });
    let dataset = dataset.map_err(|e| format!("open store: {e}"))?;
    let (lens, _) = setup_rec.time("core.lens_build", request, || BatchLens::new(dataset));
    let lens = Arc::new(lens);
    let serving = Serving::start(Arc::clone(&lens), 2).map_err(|e| format!("bind: {e}"))?;
    let mut clients = Vec::new();
    for _ in 0..2 {
        let mut client = Client::connect(serving.addr).map_err(|e| format!("connect: {e}"))?;
        let id = client.create_session();
        clients.push((client, id));
    }
    let setup = setup_start.elapsed();

    let start = Instant::now();
    let results: Vec<(Vec<Step>, Recorder)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(scripts)
            .enumerate()
            .map(|(session, ((client, id), script))| {
                s.spawn(move || {
                    let mut rec = Recorder::new(origin, traced, "session");
                    let steps = scrub(client, *id, session, script, &mut rec);
                    (steps, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .collect()
    });
    let elapsed = start.elapsed();

    let statsz = clients[0].0.statsz();
    for (client, _) in &clients {
        report.attempted += client.requests;
        report.failed += client.non_ok;
    }
    drop(clients);
    serving.stop();

    let mut steps = Vec::new();
    for (s, rec) in results {
        steps.extend(s);
        spans::merge(&mut report.spans, rec.into_spans());
    }
    spans::merge(&mut report.spans, setup_rec.into_spans());
    report.failed += steps.iter().filter(|s| s.stale).count() as u64;

    // Served SVGs against in-process renders of the same instants.
    let detail = ViewState::new(lens.view().extent()).detail_metric();
    let mut mismatched = Vec::new();
    let mut compared = 0usize;
    for step in steps.iter().filter(|s| s.digest.is_some()) {
        let frame = lens.frame_at(step.at);
        let scene = Dashboard::new(WIDTH, HEIGHT)
            .detail_metric(detail)
            .render_from_frame(&frame, lens.timeline());
        compared += 1;
        if Some(digest(to_svg(&scene).as_bytes())) != step.digest {
            mismatched.push(step.at);
        }
    }
    report.check(
        "scrub_sessions: sampled served SVGs equal in-process renders",
        mismatched.is_empty() && compared > 0,
        || {
            format!(
                "{} of {compared} differ, at {mismatched:?}",
                mismatched.len()
            )
        },
    );

    Ok(Iteration {
        traced,
        setup,
        steps_per_s: steps.len() as f64 / elapsed.as_secs_f64(),
        steps,
        hit_rate: statsz.frame_cache.hit_rate,
        queue_max: statsz.worker_pool.queue_depth,
    })
}

/// One session's closed loop: each step starts when the previous ends.
fn scrub(
    client: &mut Client,
    id: u64,
    session: usize,
    script: &[Timestamp],
    rec: &mut Recorder,
) -> Vec<Step> {
    let events = format!("/sessions/{id}/events");
    let render = format!("/sessions/{id}/render?format=svg");
    let mut steps = Vec::with_capacity(script.len());
    for (k, &at) in script.iter().enumerate() {
        let request = (session * script.len() + k) as u64;
        let t0 = Instant::now();
        client.call(
            "POST",
            &events,
            &format!("{{\"SelectTimestamp\": {}}}", at.seconds()),
        );
        let t1 = Instant::now();
        let resp = client.call("GET", &render, "");
        let t2 = Instant::now();
        let step = rec.record("serve.step", request, None, t0, t2);
        rec.record("serve.select", request, step, t0, t1);
        rec.record("serve.render", request, step, t1, t2);
        steps.push(Step {
            session,
            k,
            at,
            step_ms: ms(t2 - t0),
            render_ms: ms(t2 - t1),
            stale: resp.header(STALE_HEADER).is_some(),
            svg_bytes: resp.body.len(),
            digest: (k % CHECK_EVERY == 0 && resp.status == 200).then(|| digest(&resp.body)),
        });
    }
    steps
}

/// Replays the served step sequence in-process on a fresh lens, timing
/// each stage the served path runs, and reports the stage table: the
/// stages plus the residual (codec, routing, session lock, socket and
/// contention between the two sessions) add up to the served step time.
fn stage_table(
    inputs: &Inputs,
    scripts: &[Vec<Timestamp>; 2],
    served: &[Step],
    origin: Instant,
    report: &mut Report,
) -> Result<(), String> {
    let dataset = TraceDataset::open(&inputs.store_dir).map_err(|e| format!("open store: {e}"))?;
    let manager = SessionManager::new(Arc::new(BatchLens::new(dataset)));
    let lens = Arc::clone(manager.lens());
    let ids = [manager.create().session, manager.create().session];
    let detail = ViewState::new(lens.view().extent()).detail_metric();
    let mut rec = Recorder::new(origin, true, "in-process");
    let mut rows: Vec<[f64; 6]> = Vec::new();
    for k in 0..scripts[0].len() {
        for (session, script) in scripts.iter().enumerate() {
            let at = script[k];
            let request = (session * script.len() + k) as u64;
            let (_, interact) = rec.time("serve.interact", request, || {
                manager.interact(ids[session], Event::SelectTimestamp(at))
            });
            let (_, misses_before) = lens.frame_cache_stats();
            let t0 = Instant::now();
            let frame = lens.frame_at(at);
            let t1 = Instant::now();
            let miss = lens.frame_cache_stats().1 > misses_before;
            rec.record(
                if miss {
                    "core.frame_at"
                } else {
                    "core.frame_at.hit"
                },
                request,
                None,
                t0,
                t1,
            );
            rec.time("analytics.from_frame", request, || {
                (
                    HierarchySnapshot::from_frame(&frame),
                    CoallocationIndex::from_frame(&frame),
                )
            });
            let (scene, dashboard) = rec.time("render.dashboard", request, || {
                Dashboard::new(WIDTH, HEIGHT)
                    .detail_metric(detail)
                    .render_from_frame(&frame, lens.timeline())
            });
            let (_, svg) = rec.time("render.svg", request, || to_svg(&scene));
            let Some(step) = served.iter().find(|s| s.session == session && s.k == k) else {
                continue;
            };
            let stages = [us(interact), us(t1 - t0), us(dashboard), us(svg)];
            let residual = step.step_ms * 1e3 - stages.iter().sum::<f64>();
            rows.push([
                stages[0],
                stages[1],
                stages[2],
                stages[3],
                residual,
                step.step_ms * 1e3,
            ]);
        }
    }
    let column = |i: usize| rows.iter().map(|r| r[i]).collect::<Vec<f64>>();
    let names = [
        "session interact",
        "frame_at",
        "render_from_frame",
        "to_svg",
        "residual (serve)",
        "served step",
    ];
    report.note(format!(
        "stage table over {} steps (us; means add up exactly, medians approximately):",
        rows.len()
    ));
    for (i, name) in names.iter().enumerate() {
        let c = column(i);
        report.note(format!(
            "  {name:<18} mean {:>10.1}  p50 {:>10.1}",
            mean(&c).unwrap_or(0.0),
            median(&c).unwrap_or(0.0)
        ));
    }
    let from_frame = spans::durations_us(rec.spans(), "analytics.from_frame");
    report.note(format!(
        "  of which analytics from_frame (hierarchy + co-allocation, timed separately) p50 {:.1}",
        median(&from_frame).unwrap_or(0.0)
    ));
    if let Some(v) = median(&column(4)) {
        report.per_layer("serve.residual_us_p50", v, "us");
    }
    spans::merge(&mut report.spans, rec.into_spans());
    Ok(())
}

fn summarize(runs: &[Iteration], opts: &Options, inputs_s: f64, report: &mut Report) {
    let (traced, untraced): (Vec<&Iteration>, Vec<&Iteration>) =
        runs.iter().partition(|r| r.traced);
    // End-to-end figures come from untraced passes only.
    let measured = if untraced.is_empty() {
        &traced
    } else {
        &untraced
    };
    let pool = |from: &[&Iteration], f: fn(&Step) -> f64| -> Vec<f64> {
        from.iter().flat_map(|r| r.steps.iter().map(f)).collect()
    };
    let step_ms = pool(measured, |s| s.step_ms);
    let render_ms = pool(measured, |s| s.render_ms);
    let rate = median(&measured.iter().map(|r| r.steps_per_s).collect::<Vec<_>>()).unwrap_or(0.0);
    let setups: Vec<f64> = runs.iter().map(|r| r.setup.as_secs_f64()).collect();
    let q = |v: &[f64], p: f64| quantile(v, p).unwrap_or(0.0);

    report.note(format!(
        "{} scrub passes ({} traced) of {} steps per session, {} step samples",
        runs.len(),
        traced.len(),
        runs.first().map_or(0, |r| r.steps.len() / 2),
        step_ms.len()
    ));
    report.named("scrub_step_p50_ms", q(&step_ms, 0.5), "ms");
    report.named("scrub_step_p99_ms", q(&step_ms, 0.99), "ms");
    report.named("scrub_steps_per_s", rate, "steps/s");

    // The contract tail is p90: p99 of a run's ~2000 steps rests on the
    // few steps a host hiccup hits, and reads differently run to run.
    report.end_to_end("throughput_per_s", rate, "1/s");
    report.end_to_end("latency_p50_ms", q(&step_ms, 0.5), "ms");
    report.named("scrub_step_p90_ms", q(&step_ms, 0.9), "ms");
    report.end_to_end("read_p50_ms", q(&render_ms, 0.5), "ms");
    report.named("scrub_render_p90_ms", q(&render_ms, 0.9), "ms");
    report.end_to_end("setup_s", inputs_s + median(&setups).unwrap_or(0.0), "s");

    if !opts.trace {
        return;
    }
    let span_q = |name: &str, p: f64| quantile(&spans::durations_us(&report.spans, name), p);
    let svg_bytes = pool(&traced, |s| s.svg_bytes as f64);
    let layer = [
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
            "app.frame_cache_hit_rate",
            median(&runs.iter().map(|r| r.hit_rate).collect::<Vec<_>>()),
            "ratio",
        ),
        (
            "app.frame_capture_us_p50",
            span_q("core.frame_at", 0.5),
            "us",
        ),
        (
            "analytics.from_frame_us_p50",
            span_q("analytics.from_frame", 0.5),
            "us",
        ),
        (
            "render.dashboard_us_p50",
            span_q("render.dashboard", 0.5),
            "us",
        ),
        ("render.svg_us_p50", span_q("render.svg", 0.5), "us"),
        ("render.svg_bytes_p50", quantile(&svg_bytes, 0.5), "B"),
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
    if !untraced.is_empty() {
        let traced_p50 = q(&pool(&traced, |s| s.step_ms), 0.5);
        let untraced_p50 = q(&step_ms, 0.5);
        report.per_layer(
            "trace.overhead_pct",
            100.0 * (traced_p50 - untraced_p50) / untraced_p50,
            "%",
        );
    }
}
