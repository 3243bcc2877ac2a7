//! Perf guardrail for the trace-layer and streaming hot paths.
//!
//! Run with: `cargo run --release -p batchlens-bench --bin bench_trace [-- OPTIONS]`
//!
//! Times the sweep/index/incremental kernels against the naive
//! implementations they replaced and writes `BENCH_trace.json` (working
//! directory) so future PRs can track the trajectory. Each op is timed over
//! several runs and reported with min/mean/max so the trajectory carries
//! variance, not just a best-of point.
//!
//! Options:
//!
//! * `--tier small|medium|paper` — which simulated dataset the
//!   dataset-bound rows use. `paper` is the full production-scale shape
//!   (`SimConfig::paper_scale`: 1300 machines / 24 h, Alibaba v2017); its
//!   rows are suffixed `_paper` and merged into the committed file next to
//!   the default `_medium` rows.
//! * `--check` — after running, compare against the committed
//!   `BENCH_trace.json` and exit non-zero if any tracked op's optimized
//!   time regressed more than 2× (the CI guardrail).
//!
//! Rows present in the committed file but not produced by the selected tier
//! (e.g. `_paper` rows during a `--tier medium` CI run) are preserved on
//! write and skipped by `--check`.

use std::collections::BTreeSet;
use std::time::Instant;

use batchlens::stream::{StreamConfig, StreamMonitor};
use batchlens::trace::wal::{WalConfig, WalWriter};
use batchlens::trace::{
    csv, naive, DatasetQuery, JobId, MachineId, Metric, QueryFrame, SeriesView, ServerUsageRecord,
    TimeDelta, TimeSeries, Timestamp, TraceDataset, UtilizationTriple,
};
use batchlens_bench::medium_dataset;
use batchlens_sim::{SimConfig, Simulation};
use serde::{Deserialize, Serialize};

/// Wall-clock distribution of one op over several runs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Stats {
    min_ns: f64,
    mean_ns: f64,
    max_ns: f64,
}

/// One timed comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Entry {
    name: String,
    naive: Stats,
    optimized: Stats,
    /// `naive.min_ns / optimized.min_ns`.
    speedup: f64,
}

/// One serving-layer load point: `sessions` concurrent keep-alive dashboard
/// sessions driving the typed frame endpoint over loopback sockets.
///
/// These rows are informational trajectory data, not `--check`-guarded:
/// loopback socket latency is a property of the host's scheduler and core
/// count, so a threshold would flake on smaller CI runners.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ServeEntry {
    name: String,
    sessions: usize,
    /// Total requests issued across all sessions.
    requests: usize,
    req_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    /// Shared-frame dedup effectiveness across the run's captures.
    frame_cache_hit_rate: f64,
}

/// One overload point: a saturating burst of one-shot connections at twice
/// the server's carrying capacity (workers + queue depth), recording how the
/// shed path behaves — the rate of `503 + Retry-After` rejections, how fast
/// those rejections come back (shedding must be cheaper than serving), and
/// the goodput the server sustains for the connections it does accept.
///
/// Informational, like [`ServeEntry`]: loopback scheduling is host-specific.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct OverloadEntry {
    name: String,
    /// Connections attempted across the whole run.
    connections: usize,
    /// Worker threads + queue slots — the carrying capacity being doubled.
    capacity: usize,
    /// Fraction of connections shed with `503 + Retry-After`.
    shed_rate: f64,
    /// Median latency of a shed response (connect to 503 read).
    shed_p50_us: f64,
    /// Tail latency of a shed response.
    shed_p99_us: f64,
    /// Successful (200) responses per second over the saturated run.
    goodput_req_per_sec: f64,
}

/// The emitted report.
#[derive(Debug, Serialize, Deserialize)]
struct Report {
    description: String,
    entries: Vec<Entry>,
    serve: Vec<ServeEntry>,
    overload: Vec<OverloadEntry>,
}

/// Times `f` once per run, `runs` times.
fn measure(runs: usize, mut f: impl FnMut() -> usize) -> Stats {
    let mut sink = 0usize;
    let mut samples = Vec::with_capacity(runs.max(1));
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        sink = sink.wrapping_add(std::hint::black_box(f()));
        samples.push(start.elapsed().as_nanos() as f64);
    }
    std::hint::black_box(sink);
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    Stats {
        min_ns: min,
        mean_ns: mean,
        max_ns: max,
    }
}

fn entry(name: impl Into<String>, naive: Stats, optimized: Stats) -> Entry {
    Entry {
        name: name.into(),
        naive,
        optimized,
        speedup: naive.min_ns / optimized.min_ns,
    }
}

/// A day of 300 s samples, staggered per machine as in the real trace
/// (machines don't report on a globally aligned grid).
fn machine_series(machine: usize) -> TimeSeries {
    let offset = (machine as i64 * 131) % 300;
    (0..288i64)
        .map(|i| {
            (
                Timestamp::new(offset + i * 300),
                ((machine + i as usize) as f64 * 0.01).sin(),
            )
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Small,
    Medium,
    Paper,
}

impl Tier {
    fn name(self) -> &'static str {
        match self {
            Tier::Small => "small",
            Tier::Medium => "medium",
            Tier::Paper => "paper",
        }
    }

    fn dataset(self) -> TraceDataset {
        match self {
            Tier::Small => Simulation::new(SimConfig::small(7))
                .run()
                .expect("small sim"),
            Tier::Medium => medium_dataset(7),
            Tier::Paper => Simulation::new(SimConfig::paper_scale(7))
                .run()
                .expect("paper-scale sim"),
        }
    }
}

/// Synthetic rows: dataset-independent kernels (run on the default tier
/// only, so the committed values stay comparable run to run).
fn synthetic_entries(entries: &mut Vec<Entry>) {
    // --- mean_of: sweep vs union-grid binary searches ---
    for machines in [100usize, 1000] {
        let series: Vec<TimeSeries> = (0..machines).map(machine_series).collect();
        let reps = if machines >= 1000 { 3 } else { 8 };
        let views = || series.iter().map(TimeSeries::view);
        let optimized = measure(reps, || TimeSeries::mean_of(views()).len());
        let naive_s = measure(2, || naive::mean_of(views()).len());
        entries.push(entry(format!("mean_of_{machines}x288"), naive_s, optimized));
    }

    // --- quantile: selection vs clone + sort ---
    let big: TimeSeries = (0..86_400i64)
        .map(|i| (Timestamp::new(i), (i as f64 * 0.01).sin()))
        .collect();
    let optimized = measure(8, || {
        big.quantile(0.95)
            .map(|v| v.to_bits() as usize)
            .unwrap_or(0)
    });
    let naive_s = measure(4, || {
        let mut sorted = big.values().to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let pos = 0.95 * (sorted.len() - 1) as f64;
        sorted[pos.floor() as usize].to_bits() as usize
    });
    entries.push(entry("quantile_86400", naive_s, optimized));

    // --- stream ingest: incremental detector banks vs per-record window
    //     rescan, at a 24 h rolling horizon ---
    let rec = |t: i64| ServerUsageRecord {
        time: Timestamp::new(t),
        machine: MachineId::new(1),
        util: UtilizationTriple::clamped(0.3 + 0.3 * ((t / 60 % 97) as f64 / 97.0), 0.4, 0.2),
    };
    let cfg = StreamConfig {
        horizon: TimeDelta::DAY,
        ..StreamConfig::default()
    };
    let monitor = StreamMonitor::new(cfg).unwrap();
    let mut t = 0i64;
    while t < 86_400 + 600 {
        monitor.ingest(rec(t));
        t += 60;
    }
    const BATCH: usize = 2_000;
    let optimized = measure(5, || {
        let mut alerts = 0usize;
        for _ in 0..BATCH {
            t += 60;
            alerts += monitor.ingest(rec(t)).len();
        }
        alerts
    });
    let naive_s = measure(3, || {
        let mut sink = 0usize;
        for _ in 0..BATCH {
            t += 60;
            monitor.ingest(rec(t));
            // What the pre-incremental monitor did per record: materialize
            // the rolling window and inspect it.
            let series = monitor
                .series(MachineId::new(1), Metric::Cpu)
                .expect("machine tracked");
            sink += series.len();
        }
        sink
    });
    entries.push(entry(
        format!("stream_ingest_24h_x{BATCH}"),
        naive_s,
        optimized,
    ));

    // --- WAL append overhead on the hot ingest path. Column semantics are
    //     inverted here: "naive" is the *unlogged* baseline and "optimized"
    //     is the WAL-attached ingest the durability contract adds, so the
    //     guardrail tracks the logged path and the speedup column reads as
    //     the fraction of baseline throughput logging retains (< 1). ---
    let wal_dir = std::env::temp_dir().join(format!("batchlens-bench-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let plain = StreamMonitor::new(cfg).unwrap();
    let logged = StreamMonitor::new(cfg).unwrap();
    logged.attach_wal(WalWriter::open(&wal_dir, WalConfig::default()).expect("bench wal opens"));
    let mut tp = 0i64;
    let mut tl = 0i64;
    while tp < 86_400 + 600 {
        plain.ingest(rec(tp));
        logged.ingest(rec(tl));
        tp += 60;
        tl += 60;
    }
    let baseline = measure(5, || {
        let mut alerts = 0usize;
        for _ in 0..BATCH {
            tp += 60;
            alerts += plain.ingest(rec(tp)).len();
        }
        alerts
    });
    let with_wal = measure(5, || {
        let mut alerts = 0usize;
        for _ in 0..BATCH {
            tl += 60;
            alerts += logged.ingest(rec(tl)).len();
        }
        alerts
    });
    assert_eq!(logged.wal_errors(), 0, "bench logging must not error");
    drop(logged.detach_wal());
    let _ = std::fs::remove_dir_all(&wal_dir);
    entries.push(entry("ingest_wal_overhead", baseline, with_wal));
}

/// Dataset-bound rows, suffixed with the tier name.
fn dataset_entries(tier: Tier, ds: &TraceDataset, entries: &mut Vec<Entry>) {
    let span = ds.span().expect("dataset has a span");
    let probes: Vec<Timestamp> = span
        .steps(TimeDelta::seconds(
            (span.duration().as_seconds() / 64).max(1),
        ))
        .collect();
    println!(
        "{} dataset: {} instances, {} machines, {} probes",
        tier.name(),
        ds.instance_count(),
        ds.machine_count(),
        probes.len()
    );
    let suffix = tier.name();

    // --- jobs_running_at: interval index vs full-table scan ---
    let optimized = measure(8, || {
        probes
            .iter()
            .map(|&t| ds.jobs_running_at(t).len())
            .sum::<usize>()
    });
    let naive_s = measure(3, || {
        probes
            .iter()
            .map(|&t| {
                ds.instance_records()
                    .iter()
                    .filter(|r| r.running_at(t))
                    .map(|r| r.job)
                    .collect::<BTreeSet<JobId>>()
                    .len()
            })
            .sum::<usize>()
    });
    entries.push(entry(
        format!("jobs_running_at_{suffix}"),
        naive_s,
        optimized,
    ));

    // --- alive_at: liveness checkpoints vs event-table scan ---
    let machines: Vec<_> = ds.machines().collect();
    let optimized = measure(8, || {
        probes
            .iter()
            .map(|&t| machines.iter().filter(|m| m.alive_at(t)).count())
            .sum::<usize>()
    });
    let naive_s = measure(3, || {
        probes
            .iter()
            .map(|&t| {
                machines
                    .iter()
                    .filter(|m| {
                        let mut alive = true;
                        for ev in ds.machine_events().iter().filter(|e| e.machine == m.id()) {
                            if ev.time > t {
                                break;
                            }
                            alive = !matches!(
                                ev.event,
                                batchlens::trace::MachineEvent::Remove
                                    | batchlens::trace::MachineEvent::HardError
                            );
                        }
                        alive
                    })
                    .count()
            })
            .sum::<usize>()
    });
    entries.push(entry(format!("alive_at_{suffix}"), naive_s, optimized));

    // --- live-window queries: the rolling interval/liveness indexes vs a
    //     scan of the live window (what a no-index monitor would do per
    //     query). The monitor ingests the dataset's structural records as a
    //     stream; with the horizon covering the whole trace, its window
    //     holds exactly the dataset's records, so the scan baseline can
    //     read them off the dataset tables verbatim. ---
    let monitor = StreamMonitor::new(StreamConfig {
        horizon: TimeDelta::hours(100),
        ..Default::default()
    })
    .unwrap();
    monitor.ingest_instances(ds.instance_records().iter().copied());
    for ev in ds.machine_events() {
        monitor.ingest_machine_event(*ev);
    }
    let view = monitor.live_view();
    let machine_ids: Vec<MachineId> = machines.iter().map(|m| m.id()).collect();
    let optimized = measure(8, || {
        probes
            .iter()
            .map(|&t| {
                let running = DatasetQuery::jobs_running_at(&view, t).len();
                let alive = machine_ids
                    .iter()
                    .filter(|&&m| DatasetQuery::alive_at(&view, m, t))
                    .count();
                running + alive
            })
            .sum::<usize>()
    });
    let naive_s = measure(3, || {
        probes
            .iter()
            .map(|&t| {
                // Window scan: every retained instance record per query...
                let running = ds
                    .instance_records()
                    .iter()
                    .filter(|r| r.running_at(t))
                    .map(|r| r.job)
                    .collect::<BTreeSet<JobId>>()
                    .len();
                // ...and every retained lifecycle event per machine.
                let alive = machine_ids
                    .iter()
                    .filter(|&&m| {
                        let mut alive = true;
                        for ev in ds.machine_events().iter().filter(|e| e.machine == m) {
                            if ev.time > t {
                                break;
                            }
                            alive = !matches!(
                                ev.event,
                                batchlens::trace::MachineEvent::Remove
                                    | batchlens::trace::MachineEvent::HardError
                            );
                        }
                        alive
                    })
                    .count();
                running + alive
            })
            .sum::<usize>()
    });
    entries.push(entry(format!("stream_query_{suffix}"), naive_s, optimized));

    // --- batch frame capture: `TraceDataset::frame`'s one ordered pass
    //     over the machine-keyed indexes vs a capture from the individual
    //     queries: the machine list, then `alive_at` and `util_at` per
    //     machine (a map search in each index for each), then the running
    //     triples. The frames are equal (checked here once per probe). ---
    let per_query_frame = |t: Timestamp| {
        let machines = DatasetQuery::machine_ids(ds);
        let alive = machines
            .iter()
            .map(|&m| DatasetQuery::alive_at(ds, m, t))
            .collect();
        let utils = machines
            .iter()
            .map(|&m| DatasetQuery::util_at(ds, m, t))
            .collect();
        QueryFrame::new(
            t,
            ds.state_version(),
            ds.running_triples_at(t),
            machines,
            alive,
            utils,
        )
    };
    for &t in &probes {
        assert_eq!(ds.frame(t), per_query_frame(t), "frame at {t}");
    }
    let capture_reps = if tier == Tier::Paper { 5 } else { 10 };
    let optimized = measure(capture_reps, || {
        probes
            .iter()
            .map(|&t| ds.frame(t).running_instance_count())
            .sum::<usize>()
    });
    let naive_s = measure(capture_reps, || {
        probes
            .iter()
            .map(|&t| per_query_frame(t).running_instance_count())
            .sum::<usize>()
    });
    entries.push(entry(format!("frame_capture_{suffix}"), naive_s, optimized));

    // --- live frame queries: one batched, transactionally consistent
    //     QueryFrame per timestamp (one lock acquisition for hierarchy +
    //     coalloc + utilization + alive probes + the per-machine anomaly
    //     counts the dashboard sidebar overlays) vs issuing the same
    //     products as individual live-view queries — which acquire the
    //     monitor lock per sub-query (and per machine for the utilization,
    //     alive and alert-count probes). ---
    use batchlens::analytics::coalloc::CoallocationIndex;
    use batchlens::analytics::hierarchy::HierarchySnapshot;
    for rec in batchlens::analytics::baseline::export_usage_records(ds) {
        monitor.ingest(rec);
    }
    let frame_reps = if tier == Tier::Paper { 3 } else { 5 };
    let optimized = measure(frame_reps, || {
        probes
            .iter()
            .map(|&t| {
                let frame = view.frame(t);
                HierarchySnapshot::from_frame(&frame).total_nodes()
                    + CoallocationIndex::from_frame(&frame).links().len()
                    + frame.machines_active().len()
                    + frame
                        .machine_ids()
                        .iter()
                        .filter(|&&m| frame.util_of(m).is_some())
                        .count()
                    + frame.total_anomalies() as usize
            })
            .sum::<usize>()
    });
    let naive_s = measure(2, || {
        probes
            .iter()
            .map(|&t| {
                HierarchySnapshot::at(&view, t).total_nodes()
                    + CoallocationIndex::at(&view, t).links().len()
                    + view.machines_active_at(t).len()
                    + machine_ids
                        .iter()
                        .filter(|&&m| view.util_at(m, t).is_some())
                        .count()
                    + machine_ids
                        .iter()
                        .map(|&m| monitor.machine_alert_count(m) as usize)
                        .sum::<usize>()
            })
            .sum::<usize>()
    });
    entries.push(entry(format!("live_frame_{suffix}"), naive_s, optimized));

    // --- timeline aggregation over the real per-machine CPU series ---
    let cpu_series: Vec<SeriesView<'_>> = machines
        .iter()
        .filter_map(|m| m.usage(Metric::Cpu))
        .collect();
    let reps = if tier == Tier::Paper { 2 } else { 5 };
    let optimized = measure(reps, || {
        TimeSeries::mean_of(cpu_series.iter().copied()).len()
    });
    let naive_s = measure(2, || naive::mean_of(cpu_series.iter().copied()).len());
    entries.push(entry(
        format!("timeline_mean_of_{suffix}"),
        naive_s,
        optimized,
    ));

    // --- serial-vs-parallel rows: the PR-3 execution layer. "naive" is the
    //     serial path (1 thread), "optimized" the chunk-merged sweep /
    //     sharded build at one worker per available core; both
    //     bit-identical, so the speedup column is purely the parallel
    //     trajectory. ---
    let threads = par_threads();
    let serial_s = measure(reps, || {
        TimeSeries::mean_of_par(cpu_series.iter().copied(), 1).len()
    });
    let parallel = measure(reps, || {
        TimeSeries::mean_of_par(cpu_series.iter().copied(), threads).len()
    });
    entries.push(entry(
        format!("timeline_mean_par_{suffix}"),
        serial_s,
        parallel,
    ));

    let tasks: Vec<_> = ds.task_records().copied().collect();
    let instances = ds.instance_records().to_vec();
    let events = ds.machine_events().to_vec();
    let usage = batchlens::analytics::baseline::export_usage_records(ds);
    let build_reps = if tier == Tier::Paper { 2 } else { 3 };
    let time_build = |threads: usize| {
        measure(build_reps, || {
            let mut b = batchlens::trace::TraceDatasetBuilder::new();
            b.par_threads(threads);
            b.extend_tables(
                tasks.iter().copied(),
                instances.iter().copied(),
                usage.iter().cloned(),
                events.iter().copied(),
            );
            b.build().expect("records round-trip").instance_count()
        })
    };
    let serial_s = time_build(1);
    let parallel = time_build(threads);
    entries.push(entry(format!("dataset_build_{suffix}"), serial_s, parallel));

    // --- crash restart: rebuilding monitor state by replaying the binary
    //     WAL (`StreamMonitor::recover`) vs re-parsing the CSV archive and
    //     re-ingesting it — the two ways a monitor can come back after a
    //     crash. Both feed the identical delivery sequence, so the
    //     recovered states match; the WAL wins on decode cost alone. ---
    let mut feed = usage.clone();
    feed.sort_by_key(|r| (r.time, r.machine));
    let wal_dir = std::env::temp_dir().join(format!(
        "batchlens-bench-replay-{}-{}",
        std::process::id(),
        suffix
    ));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let stream_cfg = StreamConfig {
        horizon: TimeDelta::hours(100),
        ..Default::default()
    };
    let logged = StreamMonitor::new(stream_cfg).unwrap();
    logged.attach_wal(WalWriter::open(&wal_dir, WalConfig::default()).expect("bench wal opens"));
    logged.ingest_instances(instances.iter().copied());
    for ev in &events {
        logged.ingest_machine_event(*ev);
    }
    for rec in &feed {
        logged.ingest(*rec);
    }
    assert_eq!(logged.wal_errors(), 0, "bench logging must not error");
    drop(logged.detach_wal());
    let inst_csv = csv::write_batch_instances(&instances);
    let event_csv = csv::write_machine_events(&events);
    let usage_csv = csv::write_server_usage(&feed);
    let replay_reps = if tier == Tier::Paper { 2 } else { 3 };
    let optimized = measure(replay_reps, || {
        let (monitor, report) =
            StreamMonitor::recover(&wal_dir, stream_cfg).expect("bench wal recovers");
        assert!(report.reason.is_clean(), "bench log is intact");
        monitor.state_version() as usize
    });
    let naive_s = measure(2, || {
        let monitor = StreamMonitor::new(stream_cfg).unwrap();
        monitor.ingest_instances(csv::parse_batch_instances(&inst_csv).expect("instances parse"));
        for ev in csv::parse_machine_events(&event_csv).expect("events parse") {
            monitor.ingest_machine_event(ev);
        }
        for rec in csv::parse_server_usage(&usage_csv).expect("usage parses") {
            monitor.ingest(rec);
        }
        monitor.state_version() as usize
    });
    let _ = std::fs::remove_dir_all(&wal_dir);
    entries.push(entry(format!("wal_replay_{suffix}"), naive_s, optimized));

    // --- dataset reopen: the columnar segment store (mmap'd sorted
    //     segments, parallel per-segment decode, k-way merge into the
    //     builder) vs re-parsing the CSV archive and rebuilding from
    //     scratch — the two ways a dataset comes back in a new process.
    //     Both construct the bit-identical dataset (the store_differential
    //     suite proves it; the assert below keeps this bench honest). ---
    use batchlens::trace::store::{self, Family, SegmentStore};
    let seg_dir = std::env::temp_dir().join(format!(
        "batchlens-bench-store-{}-{}",
        std::process::id(),
        suffix
    ));
    let _ = std::fs::remove_dir_all(&seg_dir);
    store::dump_dataset(&seg_dir, ds).expect("bench segment dump");
    assert_eq!(
        &TraceDataset::open(&seg_dir).expect("bench segment open"),
        ds,
        "store-backed reopen must be bit-identical"
    );
    let task_csv = csv::write_batch_tasks(&tasks);
    let open_reps = if tier == Tier::Paper { 2 } else { 3 };
    let optimized = measure(open_reps, || {
        TraceDataset::open(&seg_dir)
            .expect("segment reopen")
            .instance_count()
    });
    let naive_s = measure(2, || {
        let mut b = batchlens::trace::TraceDatasetBuilder::new();
        b.extend_tables(
            csv::parse_batch_tasks(&task_csv).expect("tasks parse"),
            csv::parse_batch_instances(&inst_csv).expect("instances parse"),
            csv::parse_server_usage(&usage_csv).expect("usage parses"),
            csv::parse_machine_events(&event_csv).expect("events parse"),
        );
        b.build().expect("csv rebuild").instance_count()
    });
    entries.push(entry(format!("dataset_open_{suffix}"), naive_s, optimized));

    // --- column scans: summing the usage cpu column straight off the
    //     memory-mapped segments (fixed-stride, zero-copy) vs walking the
    //     in-RAM per-machine series the builder materialized. ---
    let seg_store = SegmentStore::open(&seg_dir).expect("bench store opens");
    let scan_col = || {
        seg_store
            .family_segments(Family::ServerUsage)
            .map(|seg| seg.column(2).sum_f64())
            .sum::<f64>()
    };
    let scan_ram = || {
        machines
            .iter()
            .filter_map(|m| m.usage(Metric::Cpu))
            .map(|s| s.values().iter().sum::<f64>())
            .sum::<f64>()
    };
    // Honesty (outside the timed loops): same values, different summation
    // order — agreement to float tolerance, not bit equality.
    assert!(
        (scan_col() - scan_ram()).abs() <= 1e-6 * scan_ram().abs().max(1.0),
        "column scan and series walk must sum the same samples"
    );
    let scan_reps = if tier == Tier::Paper { 3 } else { 8 };
    let optimized = measure(scan_reps, || scan_col().to_bits() as usize);
    let naive_s = measure(3, || scan_ram().to_bits() as usize);
    entries.push(entry(format!("segment_scan_{suffix}"), naive_s, optimized));

    // --- epoch-batched ingestion vs record-at-a-time ingestion, both
    //     into one unlogged monitor: "naive" feeds the time-sorted usage
    //     archive one `ingest` call (one lock acquisition) per record;
    //     "optimized" seals the same feed into EPOCH_RECORDS-record epochs
    //     and applies each with one `ingest_batch` call (one lock
    //     acquisition per epoch). Both land in bit-identical state (the
    //     batched_ingest_equivalence suite proves it), so the ratio is
    //     the lock amortization alone. ---
    use batchlens::stream::BatchSequencer;
    const EPOCH_RECORDS: usize = 512;
    let ingest_reps = if tier == Tier::Paper { 2 } else { 3 };
    let serial_t = measure(ingest_reps, || {
        let monitor = StreamMonitor::new(stream_cfg).unwrap();
        for rec in &feed {
            monitor.ingest(*rec);
        }
        monitor.ingested() as usize
    });
    let batched_t = measure(ingest_reps, || {
        let monitor = StreamMonitor::new(stream_cfg).unwrap();
        let sequencer = BatchSequencer::new();
        for part in feed.chunks(EPOCH_RECORDS) {
            let batch = sequencer.seal(
                part.last().map_or(Timestamp::new(0), |r| r.time),
                part.to_vec(),
            );
            monitor.ingest_batch(&batch);
        }
        monitor.ingested() as usize
    });
    let rps = |t: &Stats| feed.len() as f64 / (t.min_ns / 1e9);
    println!(
        "ingest_throughput_{suffix}: {} records; record-at-a-time {:.0} rec/s, \
         epoch-batched ({EPOCH_RECORDS}-record epochs) {:.0} rec/s",
        feed.len(),
        rps(&serial_t),
        rps(&batched_t),
    );
    entries.push(entry(
        format!("ingest_throughput_{suffix}"),
        serial_t,
        batched_t,
    ));

    // --- restart from a dump of the lens and a `StreamConfig::default()`
    //     monitor fed the usage in epochs: the lens half (session log,
    //     store open, lens build) and then the monitor half (config, WAL
    //     replay) vs `durability::restore`, which runs the two halves on
    //     two threads, so its column scales with the core count. Both
    //     restore equal datasets and monitors (checked here once). ---
    use batchlens::{durability, BatchLens, SessionLog};
    let scratch = |kind: &str| {
        let dir = std::env::temp_dir().join(format!(
            "batchlens-bench-{kind}-{}-{suffix}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let (dump_dir, live_wal) = (scratch("dump"), scratch("dump-wal"));
    let monitor = StreamMonitor::new(StreamConfig::default()).unwrap();
    monitor.attach_wal(WalWriter::open(&live_wal, WalConfig::default()).expect("bench wal opens"));
    let sequencer = BatchSequencer::new();
    for part in feed.chunks(EPOCH_RECORDS) {
        let at = part.last().map_or(Timestamp::new(0), |r| r.time);
        monitor.ingest_batch(&sequencer.seal(at, part.to_vec()));
    }
    assert_eq!(monitor.wal_errors(), 0, "bench logging must not error");
    let lens = BatchLens::new(TraceDataset::open(&seg_dir).expect("segment reopen"));
    durability::dump(&dump_dir, &lens, Some(&monitor)).expect("bench dump");
    drop(lens);
    drop(monitor);
    let _ = std::fs::remove_dir_all(&live_wal);
    let _ = std::fs::remove_dir_all(&seg_dir);
    let in_series = || {
        let read = |file: &str| std::fs::read_to_string(dump_dir.join(file)).expect("dump reads");
        let log = SessionLog::from_json(&read("session.json")).expect("session log parses");
        let dataset = TraceDataset::open(&dump_dir.join("dataset")).expect("dumped store opens");
        let lens = BatchLens::with_session(dataset, log);
        let cfg: StreamConfig =
            serde_json::from_str(&read("monitor/config.json")).expect("config parses");
        let wal = dump_dir.join("monitor").join("wal");
        let (monitor, _) = StreamMonitor::recover(&wal, cfg).expect("dumped wal recovers");
        (lens, monitor)
    };
    let overlapped = || {
        let restored = durability::restore(&dump_dir).expect("bench restore");
        let monitor = restored.monitor.expect("the dump holds a monitor");
        (restored.lens, monitor)
    };
    {
        let ((a, a_monitor), (b, b_monitor)) = (in_series(), overlapped());
        assert_eq!(a.dataset(), b.dataset(), "both sides restore one dataset");
        assert_eq!(a_monitor.state_version(), b_monitor.state_version());
        assert_eq!(a_monitor.ingested(), b_monitor.ingested());
        assert_eq!(a_monitor.alerts_since(0), b_monitor.alerts_since(0));
    }
    let restore_reps = if tier == Tier::Paper { 2 } else { 3 };
    let naive_s = measure(restore_reps, || in_series().1.state_version() as usize);
    let optimized = measure(restore_reps, || overlapped().1.state_version() as usize);
    let _ = std::fs::remove_dir_all(&dump_dir);
    entries.push(entry(format!("restore_{suffix}"), naive_s, optimized));

    // --- the served dashboard at the middle of the span, serialized:
    //     laying the timeline strip out on every render
    //     (`render_from_frame`) vs drawing on a strip prepared once per
    //     viewport outside the timed loop, as the lens's memo serves it.
    //     The documents are byte-identical (checked here once). ---
    use batchlens::analytics::aggregate::ClusterTimeline;
    use batchlens::render::{svg, Dashboard};
    let mid = span.start() + TimeDelta::seconds(span.duration().as_seconds() / 2);
    let timeline = ClusterTimeline::build(ds);
    let frame = ds.frame(mid);
    let dashboard = Dashboard::new(1200.0, 800.0);
    let strip = dashboard.timeline_view().prepare(&timeline);
    let scene = dashboard.render_from_frame_with_strip(&frame, &strip);
    assert_eq!(
        svg::to_svg(&dashboard.render_from_frame(&frame, &timeline)),
        svg::to_svg(&scene),
        "a prepared strip must draw what a fresh one draws"
    );
    let svg_reps = if tier == Tier::Paper { 20 } else { 40 };
    let naive_s = measure(svg_reps, || {
        svg::to_svg(&dashboard.render_from_frame(&frame, &timeline)).len()
    });
    let optimized = measure(svg_reps, || {
        svg::to_svg(&dashboard.render_from_frame_with_strip(&frame, &strip)).len()
    });
    println!(
        "dashboard_frame_{suffix}: at t={}; strip laid out per render {:.0} us, \
         prepared strip {:.0} us",
        mid.seconds(),
        naive_s.min_ns / 1e3,
        optimized.min_ns / 1e3,
    );
    entries.push(entry(
        format!("dashboard_frame_{suffix}"),
        naive_s,
        optimized,
    ));

    // --- SVG serialization of that dashboard: the retained
    //     allocate-per-token serializer vs the writer that puts every token
    //     straight into the output. The documents are byte-identical
    //     (svg_differential proves it over random scenes; checked here
    //     once outside the timed loops). ---
    let svg_bytes = svg::to_svg(&scene);
    assert_eq!(
        svg_bytes,
        svg::reference::to_svg(&scene),
        "the writer must match the reference serializer"
    );
    let optimized = measure(svg_reps, || svg::to_svg(&scene).len());
    let naive_s = measure(svg_reps, || svg::reference::to_svg(&scene).len());
    println!(
        "svg_render_{suffix}: {} B at t={}; reference {:.0} us, writer {:.0} us",
        svg_bytes.len(),
        mid.seconds(),
        naive_s.min_ns / 1e3,
        optimized.min_ns / 1e3,
    );
    entries.push(entry(format!("svg_render_{suffix}"), naive_s, optimized));
}

/// Serving-layer rows: `sessions` concurrent keep-alive dashboard sessions
/// over real loopback sockets, all scrubbed to a shared set of timestamps so
/// the frame cache dedups their captures. Each session issues
/// [`SERVE_REQUESTS`] requests (mostly typed `/frame` fetches, with a
/// timestamp scrub every 16th); per-request wall latency feeds the p50/p99
/// columns and the run's span the req/sec column.
fn serve_entries(tier: Tier, ds: &TraceDataset, serve: &mut Vec<ServeEntry>) {
    use batchlens_serve::codec::read_response;
    use batchlens_serve::session::SessionCreated;
    use batchlens_serve::stats::StatszPayload;
    use batchlens_serve::{ServeConfig, Server, SessionManager};
    use std::io::{BufReader, Write};
    use std::net::TcpStream;
    use std::sync::{Arc, Barrier};

    let span = ds.span().expect("dataset has a span");
    let step = span.duration() / 8;
    let candidates: Vec<Timestamp> = (1..=4i64).map(|k| span.start() + step * k).collect();
    let suffix = tier.name();

    let call = |conn: &mut TcpStream, method: &str, target: &str, body: &str| {
        // One buffer per request: fragmented small writes on a Nagle-enabled
        // socket cost a delayed-ACK round trip (~40 ms) per request.
        let req = format!(
            "{method} {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        conn.write_all(req.as_bytes()).expect("request written");
        let mut reader = BufReader::new(conn.try_clone().expect("clone socket"));
        read_response(&mut reader)
            .expect("response framed")
            .expect("connection open")
    };

    for &sessions in &[1usize, 8, 64] {
        let lens = batchlens::BatchLens::new(ds.clone());
        let manager = Arc::new(SessionManager::new(Arc::new(lens)));
        let server = Arc::new(
            Server::bind(
                ("127.0.0.1", 0),
                Arc::clone(&manager),
                // One worker per keep-alive session: a worker owns its
                // connection until it closes.
                ServeConfig {
                    workers: sessions + 1,
                    idle_timeout: std::time::Duration::from_secs(30),
                    ..Default::default()
                },
            )
            .expect("bind loopback"),
        );
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = Arc::clone(&server);
        let serve_thread = std::thread::spawn(move || runner.serve());

        let start = Arc::new(Barrier::new(sessions + 1));
        let clients: Vec<_> = (0..sessions)
            .map(|_| {
                let start = Arc::clone(&start);
                let candidates = candidates.clone();
                std::thread::spawn(move || {
                    let mut conn = TcpStream::connect(addr).expect("connect");
                    conn.set_nodelay(true).ok();
                    let created: SessionCreated =
                        serde_json::from_str(&call(&mut conn, "POST", "/sessions", "").text())
                            .expect("session created");
                    let id = created.session;
                    start.wait();
                    let mut latencies = Vec::with_capacity(SERVE_REQUESTS);
                    for i in 0..SERVE_REQUESTS {
                        let t0 = Instant::now();
                        let resp = if i % 16 == 0 {
                            let at = candidates[(i / 16) % candidates.len()];
                            let event = format!("{{\"SelectTimestamp\": {}}}", at.seconds());
                            call(&mut conn, "POST", &format!("/sessions/{id}/events"), &event)
                        } else {
                            call(&mut conn, "GET", &format!("/sessions/{id}/frame"), "")
                        };
                        assert_eq!(resp.status, 200);
                        latencies.push(t0.elapsed().as_nanos() as f64 / 1_000.0);
                    }
                    latencies
                })
            })
            .collect();

        start.wait();
        let wall = Instant::now();
        let mut latencies: Vec<f64> = clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect();
        let elapsed = wall.elapsed().as_secs_f64();
        latencies.sort_by(|a, b| a.total_cmp(b));
        let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];

        let mut conn = TcpStream::connect(addr).expect("connect");
        let statsz: StatszPayload =
            serde_json::from_str(&call(&mut conn, "GET", "/statsz", "").text())
                .expect("statsz payload");
        drop(conn);
        handle.shutdown();
        serve_thread.join().expect("server joined");

        let requests = sessions * SERVE_REQUESTS;
        let row = ServeEntry {
            name: format!("serve_sessions_{suffix}"),
            sessions,
            requests,
            req_per_sec: requests as f64 / elapsed,
            p50_us: pct(0.50),
            p99_us: pct(0.99),
            frame_cache_hit_rate: statsz.frame_cache.hit_rate,
        };
        println!(
            "{} @ {} sessions: {:.0} req/s, p50 {:.0} us, p99 {:.0} us, cache hit rate {:.3}",
            row.name,
            row.sessions,
            row.req_per_sec,
            row.p50_us,
            row.p99_us,
            row.frame_cache_hit_rate
        );
        serve.push(row);
    }
}

/// Overload row: a deliberately tiny server (2 workers, 4 queue slots) hit
/// with rounds of simultaneous one-shot bursts at 2x its carrying capacity.
/// Connections beyond capacity must be shed immediately with
/// `503 + Retry-After` while the accepted ones keep completing — the row
/// records the shed rate, how quickly shed responses come back, and the
/// goodput of the survivors.
fn overload_entries(tier: Tier, ds: &TraceDataset, overload: &mut Vec<OverloadEntry>) {
    use batchlens_serve::codec::read_response;
    use batchlens_serve::session::SessionCreated;
    use batchlens_serve::{ServeConfig, Server, SessionManager};
    use std::io::{BufReader, Write};
    use std::net::TcpStream;
    use std::sync::{Arc, Barrier};

    const WORKERS: usize = 2;
    const QUEUE: usize = 4;
    const ROUNDS: usize = 24;
    let capacity = WORKERS + QUEUE;
    let burst = 2 * capacity;

    let lens = batchlens::BatchLens::new(ds.clone());
    let manager = Arc::new(SessionManager::new(Arc::new(lens)));
    let server = Arc::new(
        Server::bind(
            ("127.0.0.1", 0),
            Arc::clone(&manager),
            ServeConfig {
                workers: WORKERS,
                queue_depth: QUEUE,
                idle_timeout: std::time::Duration::from_secs(30),
                ..Default::default()
            },
        )
        .expect("bind loopback"),
    );
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = Arc::clone(&server);
    let serve_thread = std::thread::spawn(move || runner.serve());

    // One shared session: the burst connections are one-shot, so the frame
    // endpoint is the work unit, not session state.
    let id = {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(
            b"POST /sessions HTTP/1.1\r\nconnection: close\r\ncontent-length: 0\r\n\r\n",
        )
        .expect("request written");
        let mut reader = BufReader::new(conn);
        let created: SessionCreated = serde_json::from_str(
            &read_response(&mut reader)
                .expect("response framed")
                .expect("connection open")
                .text(),
        )
        .expect("session created");
        created.session
    };

    let mut ok = 0usize;
    let mut shed_latencies: Vec<f64> = Vec::new();
    let wall = Instant::now();
    for _ in 0..ROUNDS {
        let start = Arc::new(Barrier::new(burst));
        let workers: Vec<_> = (0..burst)
            .map(|_| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let t0 = Instant::now();
                    let mut conn = TcpStream::connect(addr).expect("connect");
                    conn.set_nodelay(true).ok();
                    conn.write_all(
                        format!(
                            "GET /sessions/{id}/frame HTTP/1.1\r\nconnection: close\r\n\
                             content-length: 0\r\n\r\n"
                        )
                        .as_bytes(),
                    )
                    .expect("request written");
                    let mut reader = BufReader::new(conn);
                    let resp = read_response(&mut reader)
                        .expect("response framed")
                        .expect("connection open");
                    (resp.status, t0.elapsed().as_nanos() as f64 / 1_000.0)
                })
            })
            .collect();
        for w in workers {
            let (status, us) = w.join().expect("burst thread");
            match status {
                200 => ok += 1,
                503 => shed_latencies.push(us),
                other => panic!("unexpected overload status {other}"),
            }
        }
    }
    let elapsed = wall.elapsed().as_secs_f64();
    handle.shutdown();
    serve_thread.join().expect("server joined");

    shed_latencies.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| {
        if shed_latencies.is_empty() {
            0.0
        } else {
            shed_latencies[((shed_latencies.len() - 1) as f64 * p) as usize]
        }
    };
    let connections = ROUNDS * burst;
    let row = OverloadEntry {
        name: format!("serve_overload_{}", tier.name()),
        connections,
        capacity,
        shed_rate: shed_latencies.len() as f64 / connections as f64,
        shed_p50_us: pct(0.50),
        shed_p99_us: pct(0.99),
        goodput_req_per_sec: ok as f64 / elapsed,
    };
    println!(
        "{} @ 2x capacity ({} conns): shed rate {:.3}, shed p50 {:.0} us, p99 {:.0} us, \
         goodput {:.0} req/s",
        row.name,
        row.connections,
        row.shed_rate,
        row.shed_p50_us,
        row.shed_p99_us,
        row.goodput_req_per_sec
    );
    overload.push(row);
}

/// Requests each benchmark session issues against the serving layer.
const SERVE_REQUESTS: usize = 64;

/// Worker count for the serial-vs-parallel rows: one per available core,
/// so the rows time the parallel paths rather than oversubscription.
fn par_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Factor by which a tracked op's optimized time may grow before `--check`
/// fails.
const REGRESSION_FACTOR: f64 = 2.0;

fn main() {
    let mut tier = Tier::Medium;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tier" => {
                let v = args.next().unwrap_or_default();
                tier = match v.as_str() {
                    "small" => Tier::Small,
                    "medium" => Tier::Medium,
                    "paper" => Tier::Paper,
                    other => {
                        eprintln!("unknown tier {other:?}; use small|medium|paper");
                        std::process::exit(2);
                    }
                };
            }
            "--check" => check = true,
            other => {
                eprintln!("unknown option {other:?}; use [--tier small|medium|paper] [--check]");
                std::process::exit(2);
            }
        }
    }

    let committed: Option<Report> = std::fs::read_to_string("BENCH_trace.json")
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok());

    let mut entries = Vec::new();
    let mut serve_rows = Vec::new();
    let mut overload_rows = Vec::new();
    if tier == Tier::Medium {
        synthetic_entries(&mut entries);
    }
    let ds = tier.dataset();
    dataset_entries(tier, &ds, &mut entries);
    serve_entries(tier, &ds, &mut serve_rows);
    overload_entries(tier, &ds, &mut overload_rows);

    // --check: compare fresh optimized times against the committed file.
    // The serial-vs-parallel trajectory rows are excluded: their "optimized"
    // column runs one worker per available core, so it scales with the
    // host's core count, not with the code — a CI runner with fewer cores
    // than the machine that committed the file would fail with no real
    // regression. The `restore_` rows are excluded for the same reason:
    // `durability::restore`'s two threads overlap only when the host has a
    // second core.
    let guarded = |name: &str| {
        !name.starts_with("timeline_mean_par_")
            && !name.starts_with("dataset_build_")
            && !name.starts_with("restore_")
    };
    let mut regressions = Vec::new();
    if check {
        if let Some(old) = &committed {
            for fresh in entries.iter().filter(|e| guarded(&e.name)) {
                if let Some(prev) = old.entries.iter().find(|e| e.name == fresh.name) {
                    let ratio = fresh.optimized.min_ns / prev.optimized.min_ns;
                    if ratio > REGRESSION_FACTOR {
                        regressions.push(format!(
                            "{}: optimized {:.0} ns vs committed {:.0} ns ({ratio:.2}x)",
                            fresh.name, fresh.optimized.min_ns, prev.optimized.min_ns
                        ));
                    }
                }
            }
        } else {
            println!("--check: no committed BENCH_trace.json; nothing to compare");
        }
    }

    // Merge: refresh rows we produced, keep rows from other tiers.
    let (mut merged, mut merged_serve, mut merged_overload) = committed
        .map(|r| (r.entries, r.serve, r.overload))
        .unwrap_or_default();
    for fresh in entries {
        if let Some(slot) = merged.iter_mut().find(|e| e.name == fresh.name) {
            *slot = fresh;
        } else {
            merged.push(fresh);
        }
    }
    for fresh in serve_rows {
        if let Some(slot) = merged_serve
            .iter_mut()
            .find(|e| e.name == fresh.name && e.sessions == fresh.sessions)
        {
            *slot = fresh;
        } else {
            merged_serve.push(fresh);
        }
    }
    for fresh in overload_rows {
        if let Some(slot) = merged_overload.iter_mut().find(|e| e.name == fresh.name) {
            *slot = fresh;
        } else {
            merged_overload.push(fresh);
        }
    }
    let report = Report {
        description: "naive vs optimized wall-clock (min/mean/max over N runs, release) for \
                      the trace-layer and streaming hot paths; speedup = naive.min / \
                      optimized.min; dataset-bound rows are suffixed by sim tier; serve rows \
                      record serving-layer throughput/latency per session count and overload \
                      rows the shed/goodput behaviour at 2x queue-depth saturation (both \
                      untracked by --check: host-dependent)"
            .into(),
        entries: merged,
        serve: merged_serve,
        overload: merged_overload,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write("BENCH_trace.json", &json).expect("write BENCH_trace.json");
    println!("{json}");
    println!("wrote BENCH_trace.json");

    if !regressions.is_empty() {
        eprintln!("PERF REGRESSION (> {REGRESSION_FACTOR}x vs committed BENCH_trace.json):");
        for r in &regressions {
            eprintln!("  {r}");
        }
        std::process::exit(1);
    }
    if check {
        println!("perf guardrail: no tracked op regressed more than {REGRESSION_FACTOR}x");
    }
}
