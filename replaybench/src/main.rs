//! The replay benchmark's command line.
//!
//! ```text
//! replaybench --workload <live_replay|scrub_sessions|crash_restart>
//!             --seed <n> --seconds <s> --trace <0|1>
//! replaybench --generate <dir> --seed <n> --machines <m>
//! ```
//!
//! The second form is the input generator a run starts as a child
//! process: it simulates the day, dumps its segment store to `<dir>`, and
//! prints the record count and the injected anomalies.
//!
//! Prints the run's metrics by name and unit, then, as the last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). Scratch
//! files go under `.bench_work/`; traced spans and each result line are
//! kept under `.bench_out/`.

use std::path::PathBuf;
use std::process::ExitCode;

use replaybench::{Options, Workload};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: replaybench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(|| bad("workload"))?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        machines: 1300,
        work_dir: PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
        out_dir: PathBuf::from(".bench_out"),
        exe: std::env::current_exe().map_err(|e| format!("own executable: {e}"))?,
    })
}

/// `--generate <dir> --seed <n> --machines <m>`.
fn generate(args: &[String]) -> Result<String, String> {
    let [dir, seed_flag, seed, machines_flag, machines] = args else {
        return Err("--generate needs <dir> --seed <n> --machines <m>".to_string());
    };
    if seed_flag != "--seed" || machines_flag != "--machines" {
        return Err("--generate needs <dir> --seed <n> --machines <m>".to_string());
    }
    let seed = seed
        .parse::<u64>()
        .map_err(|_| format!("bad seed: {seed}"))?;
    let machines = machines
        .parse::<u32>()
        .map_err(|_| format!("bad machines: {machines}"))?;
    replaybench::inputs::simulate(seed, machines, std::path::Path::new(dir)).map(|s| s.to_text())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--generate") {
        return match generate(&args[1..]) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("replaybench --generate: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = match replaybench::run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("replaybench: {} failed: {e}", opts.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for line in report.human_lines() {
        println!("{line}");
    }
    let json = report.json_line();
    let result = opts.out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&result, format!("{json}\n")))
    {
        eprintln!("replaybench: could not keep {}: {e}", result.display());
    }
    println!("{json}");
    ExitCode::SUCCESS
}
