//! End-to-end replay benchmark for BatchLens.
//!
//! One command replays `batchlens_sim::scenario::paper_day(seed)` through
//! the public path a deployment runs — simulator → `BatchSequencer` epochs
//! → `StreamMonitor` with a write-ahead log → `BatchLens` frame cache →
//! `batchlens-serve` sessions over loopback — and restores from
//! `durability::dump`. Three workloads stress different layers:
//!
//! * [`live`]: `live_replay`, the writing path (ingest → alert → poll);
//! * [`scrub`]: `scrub_sessions`, the read-only analyst path (select →
//!   frame → layout → SVG);
//! * [`crash`]: `crash_restart`, the recovery path (restore → ready).
//!
//! Every layer is reached from outside: the benchmark times the calls it
//! makes into the public functions of `trace`, `core`, `analytics`,
//! `render` and `serve`, and records them as [`spans::Span`]s. See
//! `README.md` beside this crate for the metric map.

pub mod crash;
pub mod http;
pub mod inputs;
pub mod live;
pub mod probe;
pub mod report;
pub mod scrub;
pub mod spans;
pub mod stats;

use std::path::PathBuf;
use std::time::Instant;

use report::Report;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Flat-out epoch ingest with a WAL, polled live over HTTP.
    LiveReplay,
    /// Two lockstep analyst sessions scrubbing and rendering SVG.
    ScrubSessions,
    /// Restore from a dump until the server answers `/readyz` and `/frame`.
    CrashRestart,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::LiveReplay,
        Workload::ScrubSessions,
        Workload::CrashRestart,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LiveReplay => "live_replay",
            Workload::ScrubSessions => "scrub_sessions",
            Workload::CrashRestart => "crash_restart",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the simulated day; the same seed gives the same inputs.
    pub seed: u64,
    /// How long the timed iterations run, in total.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Cluster size of the simulated day (1300 is the paper scale).
    pub machines: u32,
    /// Scratch directory for stores, logs and dumps; removed at the end.
    pub work_dir: PathBuf,
    /// Where a traced run writes its spans.
    pub out_dir: PathBuf,
    /// The `replaybench` binary. The inputs are simulated by a child
    /// process running it with `--generate`, so the measured process's
    /// peak resident set is the workload's, not the simulator's.
    pub exe: PathBuf,
}

/// Runs one workload and returns its report.
///
/// # Errors
///
/// Set-up failures (the simulator, the store, binding a socket) are
/// returned as text; failed correctness checks are not errors but are
/// reported in [`Report::check_failures`].
pub fn run(opts: &Options) -> Result<Report, String> {
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("create {}: {e}", opts.work_dir.display()))?;
    let _cleanup = RemoveOnDrop(opts.work_dir.clone());

    let started = Instant::now();
    let store_dir = opts.work_dir.join("store");
    let simulated = generate(opts, &store_dir)?;
    let inputs = inputs::Inputs::load(
        store_dir,
        simulated,
        opts.workload != Workload::ScrubSessions,
    )?;
    let inputs_s = started.elapsed().as_secs_f64();
    let loaded_rss = probe::rss_mb().unwrap_or(0.0);

    let mut report = Report::new(opts.workload, opts.trace);
    report.note(format!(
        "inputs: paper day seed {} on {} machines, {} usage records in {} epochs, \
         {} structural events, generated in {inputs_s:.3} s; resident set once \
         loaded {loaded_rss:.0} MB",
        opts.seed,
        opts.machines,
        inputs.records,
        inputs.epochs.len(),
        inputs.structural_events(),
    ));
    match opts.workload {
        Workload::LiveReplay => live::run(&inputs, opts, inputs_s, &mut report)?,
        Workload::ScrubSessions => scrub::run(&inputs, opts, inputs_s, &mut report)?,
        Workload::CrashRestart => crash::run(&inputs, opts, inputs_s, &mut report)?,
    }

    if opts.trace {
        report.complete_per_layer();
        let path = opts.out_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        spans::write_jsonl(&path, &report.spans)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        report.note(format!(
            "wrote {} spans to {}",
            report.spans.len(),
            path.display()
        ));
    }
    Ok(report)
}

/// Simulates the day in a child process, which dumps the segment store to
/// `store_dir` and prints what [`inputs::Simulated`] holds.
fn generate(opts: &Options, store_dir: &std::path::Path) -> Result<inputs::Simulated, String> {
    let out = std::process::Command::new(&opts.exe)
        .arg("--generate")
        .arg(store_dir)
        .args(["--seed", &opts.seed.to_string()])
        .args(["--machines", &opts.machines.to_string()])
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("start {}: {e}", opts.exe.display()))?;
    if !out.status.success() {
        return Err(format!("input generation exited with {}", out.status));
    }
    inputs::Simulated::from_text(&String::from_utf8_lossy(&out.stdout))
        .ok_or_else(|| "input generation printed no inputs".to_string())
}

/// Removes a scratch directory when dropped, so a failed run leaves no
/// multi-megabyte logs behind.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
