//! Smoke mode: every workload, untraced and traced, on a 120-machine day.
//! Asserts that every metric is emitted with its unit and that every
//! correctness check passes.

use std::path::PathBuf;

use replaybench::report::{Report, END_TO_END, PER_LAYER};
use replaybench::{run, Options, Workload};

fn smoke(workload: Workload, trace: bool) -> Report {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    let opts = Options {
        workload,
        seed: 7,
        seconds: 0.5,
        trace,
        machines: 120,
        work_dir: root.join("work"),
        out_dir: root.join("out"),
        exe: PathBuf::from(env!("CARGO_BIN_EXE_replaybench")),
    };
    let report = run(&opts).expect("smoke run sets up");
    assert!(
        report.correct(),
        "{} checks failed: {:?}",
        workload.name(),
        report.check_failures
    );
    assert_eq!(
        report.failed,
        0,
        "{} had failed operations",
        workload.name()
    );
    assert!(report.attempted > 0);
    assert!(!opts.work_dir.exists(), "scratch directory removed");
    report
}

/// The workload's own metrics, under the names the documentation uses.
fn named(workload: Workload) -> &'static [(&'static str, &'static str)] {
    match workload {
        Workload::LiveReplay => &[
            ("ingest_rec_per_s", "rec/s"),
            ("alert_lag_p50_ms", "ms"),
            ("alert_lag_p99_ms", "ms"),
            ("live_frame_p50_us", "us"),
            ("live_frame_p99_us", "us"),
            ("alert_lag_ingest_p50_ms", "ms"),
            ("alert_lag_wait_p50_ms", "ms"),
            ("alert_lag_poll_p50_ms", "ms"),
            ("alerts_fired", "count"),
            ("anomalies_detected", "count"),
        ],
        Workload::ScrubSessions => &[
            ("scrub_step_p50_ms", "ms"),
            ("scrub_step_p99_ms", "ms"),
            ("scrub_steps_per_s", "steps/s"),
        ],
        Workload::CrashRestart => &[("restart_ready_s", "s"), ("first_frame_ms", "ms")],
    }
}

fn assert_emitted(report: &Report, expected: &[(&str, &str)], traced: bool) {
    let metrics = if traced {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    for (name, unit) in expected {
        if traced && report.absent.contains(name) {
            continue;
        }
        let m = metrics
            .iter()
            .find(|m| m.name == *name)
            .unwrap_or_else(|| panic!("{}: {name} not emitted", report.workload.name()));
        assert_eq!(m.unit, *unit, "{name} unit");
        assert!(m.value.is_finite(), "{name} is finite");
    }
    let json = report.json_line();
    for (name, unit) in expected.iter().filter(|(n, _)| !report.absent.contains(n)) {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": "))
                && json.contains(&format!("\"unit\": \"{unit}\"")),
            "{name} missing from the result line {json}"
        );
    }
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    for workload in Workload::ALL {
        let untraced = smoke(workload, false);
        assert_emitted(&untraced, &END_TO_END, false);
        for m in &untraced.end_to_end {
            assert!(m.value > 0.0, "{}: {} reads 0", workload.name(), m.name);
        }
        let named_metrics: Vec<(&str, &str)> = untraced
            .named
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .collect();
        for expected in named(workload) {
            assert!(named_metrics.contains(expected), "{expected:?} not named");
        }

        let traced = smoke(workload, true);
        assert_emitted(&traced, &PER_LAYER, true);
        assert!(!traced.spans.is_empty(), "traced run records spans");
        assert_eq!(
            traced.per_layer.len() + traced.absent.len(),
            PER_LAYER.len(),
            "exactly the per-layer set"
        );
    }
}

#[test]
fn scripts_wiggle_and_share_instants() {
    let a = replaybench::scrub::script(0);
    let b = replaybench::scrub::script(1);
    assert_eq!(a.len(), b.len());
    // Back-and-return: some instant is revisited within a few steps.
    assert!(a.windows(3).any(|w| w[2] == w[0]));
    // B runs one step ahead: A reaches B's instants one step later.
    assert_eq!(a[1], b[0]);
}
