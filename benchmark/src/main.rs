//! The repository benchmark. See `README.md` in this directory.
//!
//! ```text
//! lcdb-benchmark [--seed N] [--seconds S]
//!     every workload, each in a child process of its own, untraced then
//!     traced; prints every metric and writes results/<commit>-<seed>-<time>.json
//! lcdb-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!     one run of one workload; the last line of output is the result object
//! lcdb-benchmark --list
//! lcdb-benchmark --compare A.json B.json
//! lcdb-benchmark --write-manifest
//! ```

mod calib;
mod cold;
mod engine;
mod gen;
mod json;
mod layers;
mod oracle;
mod report;
mod rng;
mod run;
mod served;
mod spec;
mod stats;
mod trace;

use json::Json;
use run::{Args, Report, Workload};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// A run must end within the contract's 180 s, and a stuck or exploding
/// engine call (the QE hazards in the README ignore the request deadline
/// and can allocate without bound) must not hang or starve the driver.
/// When the watchdog fires, everything not yet answered counts as failed.
const WATCHDOG: Duration = Duration::from_secs(170);
const MEMORY_LIMIT_MIB: f64 = 2048.0;

fn start_watchdog(workload: String) {
    std::thread::spawn(move || {
        let start = std::time::Instant::now();
        let why = loop {
            std::thread::sleep(Duration::from_millis(250));
            if start.elapsed() > WATCHDOG {
                break format!("did not finish in {WATCHDOG:?}");
            }
            let rss = run::rss_mib("VmRSS:");
            if rss > MEMORY_LIMIT_MIB {
                break format!("grew to {rss:.0} MiB");
            }
        };
        eprintln!("watchdog: {workload} {why}; counting the run as failed");
        println!("{{\"correct\":false,\"attempted\":1,\"failed\":1,\"metrics\":{{}}}}");
        std::process::exit(2);
    });
}

fn run_one(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "serve_mix" => run::run::<served::ServeMix>(args),
        "serve_churn" => run::run::<served::ServeChurn>(args),
        "fixpoint_batch" => run::run::<cold::FixpointBatch>(args),
        "geom_build" => run::run::<cold::GeomBuild>(args),
        "qe_alibi" => run::run::<cold::QeAlibi>(args),
        other => Err(format!("unknown workload '{other}' (see --list)")),
    }
}

/// The cold workloads' restart child: set up (generate, one batch, check).
fn setup_only(workload: &str, seed: u64) -> Result<(), String> {
    let scratch = run::home()
        .join("tmp")
        .join(format!("{}-{}", workload, std::process::id()));
    let r = match workload {
        "fixpoint_batch" => cold::FixpointBatch::setup(seed, &scratch).map(Workload::teardown),
        "geom_build" => cold::GeomBuild::setup(seed, &scratch).map(Workload::teardown),
        "qe_alibi" => cold::QeAlibi::setup(seed, &scratch).map(Workload::teardown),
        other => Err(format!("--setup-only does not apply to '{other}'")),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    r
}

fn print_report(args: &Args, r: &Report) {
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for &(name, unit, value) in &r.metrics {
        println!("  {name:<30} {value:>16.6} {unit}");
    }
    println!("  attempted {} failed {}", r.attempted, r.failed);
    for f in &r.failures {
        println!("  FAILED: {f}");
    }
    // Sample counts, quartiles and trace shares: kept in the result file.
    let samples = Json::Obj(
        r.samples
            .iter()
            .map(|&(k, v)| (k.to_string(), Json::Num(v)))
            .collect(),
    );
    println!("samples {}", samples.compact());
    println!("{}", r.result_line());
}

/// Run one workload in a child process; returns its result line and its
/// `samples` line, parsed.
fn child_run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    // Everything but the result line is for people.
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().ok_or("child printed nothing")?;
    let mut samples = Json::Null;
    for l in lines {
        println!("{l}");
        if let Some(doc) = l.strip_prefix("samples ") {
            samples = json::parse(doc).unwrap_or(Json::Null);
        }
    }
    let result = json::parse(last)
        .map_err(|e| format!("{workload}: child's last line is not a result ({e}): {last}"))?;
    Ok((result, samples))
}

fn full_run(seed: u64, seconds: f64) -> Result<bool, String> {
    let load_before = report::loadavg1();
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in &spec::WORKLOADS {
        let mut runs = Vec::new();
        let mut samples = Vec::new();
        for trace in [false, true] {
            let (doc, s) = child_run(w.name, seed, seconds, trace)?;
            all_correct &= doc.get("correct").and_then(Json::as_bool).unwrap_or(false);
            runs.push(doc);
            samples.push(s);
        }
        let pick = |doc: &Json, key: &str| doc.get(key).cloned().unwrap_or(Json::Null);
        let sum = |key: &str| {
            runs.iter()
                .filter_map(|d| d.get(key).and_then(Json::as_f64))
                .sum::<f64>()
        };
        workloads.push((
            w.name.to_string(),
            Json::obj(vec![
                ("attempted", Json::Num(sum("attempted"))),
                ("failed", Json::Num(sum("failed"))),
                ("end_to_end", pick(&runs[0], "metrics")),
                ("samples", samples[0].clone()),
                ("per_layer", pick(&runs[1], "metrics")),
                ("trace_samples", samples[1].clone()),
            ]),
        ));
    }
    let doc = Json::obj(vec![
        ("machine", report::machine(seed, load_before)),
        ("run_seconds", Json::Num(seconds)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = report::write_result(seed, &doc)?;
    println!("result written to {}", path.display());
    Ok(all_correct)
}

fn flag<'a>(argv: &'a [String], name: &str) -> Option<&'a str> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let number = |name: &str, default: f64| -> Result<f64, String> {
        match flag(&argv, name) {
            None => Ok(default),
            Some(v) => v
                .parse::<f64>()
                .map_err(|_| format!("{name} takes a number, got '{v}'")),
        }
    };
    let result = (|| -> Result<bool, String> {
        if argv.iter().any(|a| a == "--list") {
            print!("{}", spec::list());
            return Ok(true);
        }
        if argv.iter().any(|a| a == "--write-manifest") {
            let path = run::home().join("..").join("BENCHMARK.json");
            std::fs::write(&path, spec::manifest().pretty())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!("wrote {}", path.display());
            return Ok(true);
        }
        if let Some(i) = argv.iter().position(|a| a == "--compare") {
            let (Some(a), Some(b)) = (argv.get(i + 1), argv.get(i + 2)) else {
                return Err("--compare takes two result files".into());
            };
            let (text, regressed) = report::compare(Path::new(a), Path::new(b))?;
            print!("{text}");
            return Ok(!regressed);
        }
        let seed = number("--seed", 1.0)? as u64;
        let seconds = number("--seconds", spec::RUN_SECONDS as f64)?;
        if let Some(w) = flag(&argv, "--setup-only") {
            start_watchdog(w.to_string());
            return setup_only(w, seed).map(|()| true);
        }
        match flag(&argv, "--workload") {
            Some(w) => {
                start_watchdog(w.to_string());
                let args = Args {
                    workload: w.to_string(),
                    seed,
                    seconds,
                    trace: number("--trace", 0.0)? != 0.0,
                };
                let report = run_one(&args)?;
                print_report(&args, &report);
                // A wrong answer is reported in the result line, not by the
                // exit code: the run itself completed.
                Ok(true)
            }
            None => full_run(seed, seconds),
        }
    })();
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
