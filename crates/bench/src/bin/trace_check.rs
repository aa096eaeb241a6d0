//! `trace_check` — schema validator for the observability artifacts CI
//! gates on.
//!
//! Three modes, one exit discipline (`0` ok, `1` first violation, `2`
//! usage):
//!
//! * `trace_check FILE...` — JSONL trace files ([`read_trace`]): every
//!   line must parse as a schema-v1 trace event, every span enter must
//!   have a matching exit, and every event must carry a thread id.
//! * `trace_check --dump FILE...` — flight-recorder dump files: the
//!   stricter [`validate_dump`] contract (header mark with the dump
//!   reason, per-thread monotone timestamps, balanced spans).
//! * `trace_check --metrics FILE...` — Prometheus-style text expositions
//!   as scraped from the server's `Metrics` opcode: every sample belongs
//!   to a `# TYPE` family, names carry the `lcdb_` prefix, histogram
//!   buckets are cumulative and end at `+Inf`, and `_count` agrees with
//!   the `+Inf` bucket.

use lcdb_trace::recorder::{read_trace, validate_dump};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn check_file(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {}", e))?;
    let (events, summary) = read_trace(&text)?;
    if events.is_empty() {
        return Err("no events".into());
    }
    if summary.unbalanced != 0 {
        return Err(format!(
            "{} span enter(s) without a matching exit",
            summary.unbalanced
        ));
    }
    println!(
        "{}: ok ({} events, {} span names, {} counters)",
        path,
        events.len(),
        summary.rows.len(),
        summary.counters.len()
    );
    Ok(())
}

fn check_dump(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {}", e))?;
    let report = validate_dump(&text)?;
    println!(
        "{}: ok ({} events, {} thread(s), reason: {})",
        path, report.events, report.threads, report.reason
    );
    Ok(())
}

/// One histogram family under validation: its cumulative buckets in
/// exposition order, and the `_sum` / `_count` samples seen so far.
#[derive(Default)]
struct HistFamily {
    buckets: Vec<(String, f64)>,
    sum: Option<f64>,
    count: Option<f64>,
}

fn check_metrics(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {}", e))?;
    let mut kinds: BTreeMap<String, &'static str> = BTreeMap::new();
    let mut hists: BTreeMap<String, HistFamily> = BTreeMap::new();
    let mut counters = 0usize;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let at = |msg: String| format!("line {}: {}", i + 1, msg);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it
                .next()
                .ok_or_else(|| at("TYPE line without a name".into()))?;
            let kind = match it.next() {
                Some("counter") => "counter",
                Some("histogram") => "histogram",
                other => return Err(at(format!("unsupported TYPE {:?}", other))),
            };
            if !name.starts_with("lcdb_") {
                return Err(at(format!("family '{}' lacks the lcdb_ prefix", name)));
            }
            kinds.insert(name.to_string(), kind);
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or free-form comments
        }
        // A sample: `name value` or `name{labels} value`.
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| at(format!("sample without a value: {}", line)))?;
        let value: f64 = value
            .parse()
            .map_err(|_| at(format!("unparseable sample value '{}'", value)))?;
        let (name, labels) = match series.split_once('{') {
            Some((n, l)) => (
                n,
                Some(
                    l.strip_suffix('}')
                        .ok_or_else(|| at(format!("unterminated label set: {}", series)))?,
                ),
            ),
            None => (series.trim_end(), None),
        };
        if let Some(kind) = kinds.get(name) {
            if *kind != "counter" {
                return Err(at(format!("histogram family '{}' sampled directly", name)));
            }
            if value < 0.0 {
                return Err(at(format!("counter '{}' is negative", name)));
            }
            counters += 1;
            continue;
        }
        // Histogram series: `<family>_bucket{le="..."}`, `<family>_sum`,
        // `<family>_count`.
        let (family, part) = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|s| name.strip_suffix(s).map(|f| (f, *s)))
            .ok_or_else(|| at(format!("sample '{}' has no TYPE declaration", name)))?;
        if kinds.get(family).copied() != Some("histogram") {
            return Err(at(format!(
                "series '{}' does not belong to a declared histogram",
                name
            )));
        }
        let fam = hists.entry(family.to_string()).or_default();
        match part {
            "_bucket" => {
                let labels =
                    labels.ok_or_else(|| at(format!("bucket without labels: {}", series)))?;
                let le = labels
                    .strip_prefix("le=\"")
                    .and_then(|l| l.strip_suffix('"'))
                    .ok_or_else(|| at(format!("bucket without an le label: {}", series)))?;
                fam.buckets.push((le.to_string(), value));
            }
            "_sum" => fam.sum = Some(value),
            "_count" => fam.count = Some(value),
            _ => unreachable!(),
        }
    }
    if kinds.is_empty() {
        return Err("no metric families".into());
    }
    for (family, kind) in &kinds {
        if *kind != "histogram" {
            continue;
        }
        let fam = hists
            .get(family)
            .ok_or_else(|| format!("histogram '{}' declared but never sampled", family))?;
        let mut prev = f64::NEG_INFINITY;
        for (le, v) in &fam.buckets {
            if *v < prev {
                return Err(format!(
                    "histogram '{}' bucket le=\"{}\" is not cumulative ({} < {})",
                    family, le, v, prev
                ));
            }
            prev = *v;
        }
        match fam.buckets.last() {
            Some((le, top)) if le == "+Inf" => {
                if fam.count != Some(*top) {
                    return Err(format!(
                        "histogram '{}' _count {:?} disagrees with its +Inf bucket {}",
                        family, fam.count, top
                    ));
                }
            }
            other => {
                return Err(format!(
                    "histogram '{}' does not end at le=\"+Inf\" (last: {:?})",
                    family, other
                ))
            }
        }
        if fam.sum.is_none() {
            return Err(format!("histogram '{}' has no _sum sample", family));
        }
    }
    println!(
        "{}: ok ({} families, {} counter sample(s), {} histogram(s))",
        path,
        kinds.len(),
        counters,
        hists.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match args.first().map(String::as_str) {
        Some("--dump") => {
            args.remove(0);
            check_dump as fn(&str) -> Result<(), String>
        }
        Some("--metrics") => {
            args.remove(0);
            check_metrics as fn(&str) -> Result<(), String>
        }
        _ => check_file as fn(&str) -> Result<(), String>,
    };
    if args.is_empty() {
        eprintln!("usage: trace_check [--dump|--metrics] FILE...");
        return ExitCode::from(2);
    }
    for path in &args {
        if let Err(e) = mode(path) {
            eprintln!("{}: FAIL: {}", path, e);
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
