//! Result files and their comparison. A full run writes one file under
//! `results/`, named by commit, seed and time, and never overwrites one:
//! the directory is the trajectory.

use crate::json::{self, Json};
use crate::run::home;
use crate::spec::{Better, END_TO_END, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(home())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit the benchmark was built from, or `nogit` outside a
/// repository (the driver's checkouts are not repositories).
pub fn commit() -> String {
    command_line("git", &["rev-parse", "--short=12", "HEAD"])
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "nogit".into())
}

pub fn loadavg1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The machine a result was recorded on.
pub fn machine(seed: u64, load_before: f64) -> Json {
    let load_after = loadavg1();
    Json::obj(vec![
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("cpu", Json::str(cpu_model())),
        (
            "rustc",
            Json::str(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("commit", Json::str(commit())),
        ("seed", Json::Num(seed as f64)),
        ("loadavg1_before", Json::Num(load_before)),
        ("loadavg1_after", Json::Num(load_after)),
        // A run that started on a busy box is stamped, not silently kept.
        ("noisy", Json::Bool(load_before > 1.0)),
    ])
}

/// Write a result file under `results/`; refuses to overwrite.
pub fn write_result(seed: u64, doc: &Json) -> Result<PathBuf, String> {
    let dir = home().join("results");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let path = dir.join(format!("{}-{}-{}.json", commit(), seed, now));
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    std::io::Write::write_all(&mut file, doc.pretty().as_bytes()).map_err(|e| e.to_string())?;
    Ok(path)
}

/// The verdict on one (metric, workload) pair of two result files.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// Compare value `b` against base `a`. Within the bound either way is
/// unchanged; beyond it the direction decides. A pair that cannot be
/// compared (missing, zero base, a run stamped noisy) is unresolved.
pub fn verdict(
    a: Option<f64>,
    b: Option<f64>,
    better: Better,
    bound: f64,
    noisy: bool,
) -> (Verdict, f64) {
    let (Some(a), Some(b)) = (a, b) else {
        return (Verdict::Unresolved, f64::NAN);
    };
    if a <= 0.0 || !a.is_finite() || !b.is_finite() {
        return (Verdict::Unresolved, f64::NAN);
    }
    let ratio = b / a;
    let worse_by = match better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let v = if worse_by.abs() <= bound {
        Verdict::Unchanged
    } else if noisy {
        Verdict::Unresolved
    } else if worse_by > 0.0 {
        Verdict::Regressed
    } else {
        Verdict::Improved
    };
    (v, ratio)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `--compare A.json B.json`: every (end-to-end metric, workload) pair with
/// both values, the ratio with its base, the bound and the verdict.
/// Returns the report and whether anything regressed.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<(String, bool), String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let noisy = [&a, &b].iter().any(|doc| {
        doc.get("machine")
            .and_then(|m| m.get("noisy"))
            .and_then(Json::as_bool)
            .unwrap_or(false)
    });
    let value = |doc: &Json, workload: &str, metric: &str| {
        doc.get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get(metric)?
            .get("value")?
            .as_f64()
    };
    let failed = |doc: &Json, workload: &str| {
        doc.get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("failed"))
            .and_then(Json::as_f64)
    };
    let mut out = format!(
        "base A = {}\n     B = {}\n{:<16} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        a_path.display(),
        b_path.display(),
        "workload",
        "metric",
        "A",
        "B",
        "B/A",
        "bound"
    );
    let mut regressed = false;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (value(&a, w.name, m.name), value(&b, w.name, m.name));
            let (v, ratio) = verdict(va, vb, m.better, m.bound, noisy);
            regressed |= v == Verdict::Regressed;
            let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
            out.push_str(&format!(
                "{:<16} {:<24} {:>14} {:>14} {:>9.4} {:>6.0}%  {}\n",
                w.name,
                m.name,
                show(va),
                show(vb),
                ratio,
                m.bound * 100.0,
                format!("{v:?}").to_lowercase()
            ));
        }
        // fail_ratio has an absolute bound of zero.
        let (fa, fb) = (failed(&a, w.name), failed(&b, w.name));
        let v = match (fa, fb) {
            (Some(_), Some(fb)) if fb > 0.0 => Verdict::Regressed,
            (Some(_), Some(_)) => Verdict::Unchanged,
            _ => Verdict::Unresolved,
        };
        regressed |= v == Verdict::Regressed;
        out.push_str(&format!(
            "{:<16} {:<24} {:>14} {:>14} {:>9} {:>6}   {}\n",
            w.name,
            "failed (of attempted)",
            fa.map_or("-".into(), |v| v.to_string()),
            fb.map_or("-".into(), |v| v.to_string()),
            "",
            "0",
            format!("{v:?}").to_lowercase()
        ));
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        use Verdict::*;
        assert_eq!(
            verdict(Some(10.0), Some(10.9), Better::Lower, 0.1, false).0,
            Unchanged
        );
        assert_eq!(
            verdict(Some(10.0), Some(11.5), Better::Lower, 0.1, false).0,
            Regressed
        );
        assert_eq!(
            verdict(Some(10.0), Some(8.0), Better::Lower, 0.1, false).0,
            Improved
        );
        assert_eq!(
            verdict(Some(100.0), Some(85.0), Better::Higher, 0.1, false).0,
            Regressed
        );
        assert_eq!(
            verdict(Some(100.0), Some(120.0), Better::Higher, 0.1, false).0,
            Improved
        );
        assert_eq!(
            verdict(Some(10.0), Some(11.5), Better::Lower, 0.1, true).0,
            Unresolved
        );
        assert_eq!(
            verdict(None, Some(1.0), Better::Lower, 0.1, false).0,
            Unresolved
        );
        assert_eq!(
            verdict(Some(0.0), Some(1.0), Better::Lower, 0.1, false).0,
            Unresolved
        );
    }
}
