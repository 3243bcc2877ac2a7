//! What one run reports: the contract metrics, the workload's own named
//! metrics, correctness checks, failure counts and free-form notes.

use crate::spans::Span;
use crate::Workload;

/// The end-to-end metrics every untraced run emits, with their units.
/// Their meaning per workload is documented in `README.md`. Latency tails
/// are printed as named metrics instead: on a 2-vCPU VM they move with
/// host contention more than any contract bound allows.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run emits, with their units. A
/// layer the workload's path never calls reads 0; the two `wal.write_*`
/// counts are absent when `/proc/thread-self/io` is.
pub const PER_LAYER: [(&str, &str); 18] = [
    ("wal.write_syscalls_per_record", "1/record"),
    ("wal.bytes_per_record", "B/record"),
    ("wal.recover_s", "s"),
    ("store.open_s", "s"),
    ("stream.epoch_ingest_us_p50", "us"),
    ("stream.epoch_ingest_us_p99", "us"),
    ("stream.structural_us_total", "us"),
    ("app.frame_cache_hit_rate", "ratio"),
    ("app.frame_capture_us_p50", "us"),
    ("app.lens_build_s", "s"),
    ("durability.restore_s", "s"),
    ("analytics.from_frame_us_p50", "us"),
    ("render.dashboard_us_p50", "us"),
    ("render.svg_us_p50", "us"),
    ("render.svg_bytes_p50", "B"),
    ("serve.residual_us_p50", "us"),
    ("serve.queue_depth_max", "count"),
    ("trace.overhead_pct", "%"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name.
    pub name: String,
    /// Its value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// The workload that ran.
    pub workload: Workload,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Operations attempted (records delivered, requests sent, alerts
    /// fired, restarts).
    pub attempted: u64,
    /// Operations that failed (non-200s, missed alerts, WAL errors, stale
    /// frames, dropped records, unclean recoveries).
    pub failed: u64,
    /// Correctness checks that passed.
    pub checks_passed: usize,
    /// Correctness checks that failed, with what differed.
    pub check_failures: Vec<String>,
    /// The contract metrics of the untraced run.
    pub end_to_end: Vec<Metric>,
    /// The contract metrics of the traced run.
    pub per_layer: Vec<Metric>,
    /// The workload's own metrics under the names the documentation uses
    /// (for example `ingest_rec_per_s`).
    pub named: Vec<Metric>,
    /// Per-layer metrics deliberately left out (their source is missing).
    pub absent: Vec<&'static str>,
    /// Human-readable lines: scores, stage tables, generator lateness.
    pub notes: Vec<String>,
    /// Every span recorded (traced runs only).
    pub spans: Vec<Span>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: Workload, traced: bool) -> Report {
        Report {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            checks_passed: 0,
            check_failures: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            named: Vec::new(),
            absent: Vec::new(),
            notes: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Records an end-to-end metric.
    pub fn end_to_end(&mut self, name: &str, value: f64, unit: &'static str) {
        push(&mut self.end_to_end, name, value, unit);
    }

    /// Records a per-layer metric.
    pub fn per_layer(&mut self, name: &str, value: f64, unit: &'static str) {
        push(&mut self.per_layer, name, value, unit);
    }

    /// Records one of the workload's own named metrics.
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        push(&mut self.named, name, value, unit);
    }

    /// Records `peak_rss_mb` as the process's peak resident set so far, the
    /// first time it is called: workloads call it after each iteration,
    /// so the figure covers set-up and one iteration. Later iterations
    /// rebuild what the first one dropped, and how much of the freed heap
    /// they reuse varies from run to run with the allocator's state.
    pub fn first_iteration_done(&mut self) {
        if !self.end_to_end.iter().any(|m| m.name == "peak_rss_mb") {
            self.end_to_end(
                "peak_rss_mb",
                crate::probe::peak_rss_mb().unwrap_or(0.0),
                "MB",
            );
        }
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a correctness check; `detail` explains a failure.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            self.checks_passed += 1;
        } else {
            self.check_failures.push(format!("{what}: {}", detail()));
        }
    }

    /// Whether every correctness check passed (and at least one ran).
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.checks_passed > 0
    }

    /// Fills the per-layer metrics the workload's path never reached with
    /// 0, so every traced run carries the full set.
    pub fn complete_per_layer(&mut self) {
        for (name, unit) in PER_LAYER {
            let present = self.per_layer.iter().any(|m| m.name == name);
            if !present && !self.absent.contains(&name) {
                self.per_layer(name, 0.0, unit);
            }
        }
    }

    /// The metrics the final JSON line carries.
    pub fn contract_metrics(&self) -> &[Metric] {
        if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The human-readable lines printed before the JSON line.
    pub fn human_lines(&self) -> Vec<String> {
        let w = self.workload.name();
        let mut lines: Vec<String> = self.notes.iter().map(|n| format!("{w}: {n}")).collect();
        let all = self
            .named
            .iter()
            .chain(&self.end_to_end)
            .chain(&self.per_layer);
        lines.extend(all.map(|m| format!("{w}: {} = {} {}", m.name, fmt_value(m.value), m.unit)));
        lines.push(format!(
            "{w}: checks passed {}, failed {}; operations attempted {}, failed {}",
            self.checks_passed,
            self.check_failures.len(),
            self.attempted,
            self.failed
        ));
        lines.extend(
            self.check_failures
                .iter()
                .map(|f| format!("{w}: CHECK FAILED {f}")),
        );
        lines
    }

    /// The final result line: `correct`, `attempted`, `failed` and the
    /// contract metrics, as one JSON object.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .contract_metrics()
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn push(into: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    into.retain(|m| m.name != name);
    into.push(Metric {
        name: name.to_string(),
        value,
        unit,
    });
}

/// A finite number in JSON with every digit measured; non-finite values
/// (which no metric should produce) become 0 so the line stays parseable.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.6}")
    } else {
        format!("{v:.3}")
    }
}
