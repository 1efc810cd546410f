//! Compare mode: run a workload N times and summarise each metric, and
//! check two sets of results against the bounds in `BENCHMARK.json`.
//!
//! ```text
//! llva-perfbench compare run --workload W --runs N --out FILE
//!         [--first-seed S] [--seconds T] [--trace 0|1]
//! llva-perfbench compare check A B [--benchmark BENCHMARK.json]
//! ```
//!
//! `run` appends one line per run to FILE:
//! `{"workload": W, "seed": S, "exit": CODE, "result": {...}}`, then prints
//! each metric's median, quartiles and quartile spread. `check` reads two
//! such files and prints, per workload, whether each end-to-end metric
//! stayed within its bound (both spreads within it, and the second set's
//! median no worse than the first's by more than it) or is unresolved.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};

use crate::json::{self, Json};
use crate::stats::{median, quartiles, relative_spread};

const USAGE: &str = "usage:
  llva-perfbench compare run --workload W --runs N --out FILE [--first-seed S] [--seconds T] [--trace 0|1]
  llva-perfbench compare check A B [--benchmark BENCHMARK.json]";

/// Entry point of `llva-perfbench compare ...`.
pub fn main(args: &[String]) -> ExitCode {
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_set(&args[1..]),
        Some("check") => check(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("llva-perfbench compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn flags(args: &[String]) -> Result<(Vec<String>, BTreeMap<String, String>), String> {
    let mut positional = Vec::new();
    let mut named = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(flag) = a.strip_prefix("--") {
            let v = it
                .next()
                .ok_or_else(|| format!("--{flag} needs a value\n{USAGE}"))?;
            named.insert(flag.to_string(), v.clone());
        } else {
            positional.push(a.clone());
        }
    }
    Ok((positional, named))
}

/// One stored run.
struct Stored {
    workload: String,
    exit: i64,
    result: Json,
}

fn run_set(args: &[String]) -> Result<String, String> {
    let (_, named) = flags(args)?;
    let workload = named.get("workload").ok_or(USAGE)?.clone();
    let runs: u64 = named
        .get("runs")
        .ok_or(USAGE)?
        .parse()
        .map_err(|e| format!("--runs: {e}"))?;
    let out_path = named.get("out").ok_or(USAGE)?.clone();
    let first: u64 = named
        .get("first-seed")
        .map_or(Ok(1), |s| s.parse())
        .map_err(|e| format!("--first-seed: {e}"))?;
    let seconds = named
        .get("seconds")
        .cloned()
        .unwrap_or_else(|| "10".to_string());
    let trace = named
        .get("trace")
        .cloned()
        .unwrap_or_else(|| "0".to_string());
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut out = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out_path)
        .map_err(|e| format!("{out_path}: {e}"))?;
    let mut stored = Vec::new();
    for seed in first..first + runs {
        let child = Command::new(&exe)
            .args(["--workload", &workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds, "--trace", &trace])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let last = stdout.lines().last().unwrap_or("").to_string();
        let exit = i64::from(child.status.code().unwrap_or(-1));
        let result = json::parse(&last).unwrap_or(Json::Null);
        let line = format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"exit\": {exit}, \"result\": {}}}",
            json::quote(&workload),
            if result == Json::Null {
                "null".to_string()
            } else {
                last.clone()
            }
        );
        writeln!(out, "{line}").map_err(|e| format!("{out_path}: {e}"))?;
        eprintln!("seed {seed}: exit {exit}");
        stored.push(Stored {
            workload: workload.clone(),
            exit,
            result,
        });
    }
    Ok(summary(&stored))
}

fn load(path: &str) -> Result<Vec<Stored>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        runs.push(Stored {
            workload: v
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            exit: v.get("exit").and_then(Json::as_f64).unwrap_or(-1.0) as i64,
            result: v.get("result").cloned().unwrap_or(Json::Null),
        });
    }
    Ok(runs)
}

/// Metric values of a set of runs, by name.
fn values(runs: &[&Stored]) -> BTreeMap<String, (Vec<f64>, String)> {
    let mut by_name: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
    for r in runs {
        let Some(metrics) = r.result.get("metrics").and_then(Json::as_obj) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                let unit = m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                let entry = by_name
                    .entry(name.clone())
                    .or_insert_with(|| (Vec::new(), unit));
                entry.0.push(v);
            }
        }
    }
    by_name
}

/// `(failed, attempted)` summed over the runs.
fn failures(runs: &[&Stored]) -> (f64, f64) {
    runs.iter().fold((0.0, 0.0), |(f, a), r| {
        (
            f + r.result.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
            a + r
                .result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        )
    })
}

fn summary(runs: &[Stored]) -> String {
    let mut out = String::new();
    let mut workloads: Vec<&str> = runs.iter().map(|r| r.workload.as_str()).collect();
    workloads.dedup();
    for w in workloads {
        let set: Vec<&Stored> = runs.iter().filter(|r| r.workload == w).collect();
        let bad = set
            .iter()
            .filter(|r| r.exit != 0 || r.result.get("correct") != Some(&Json::Bool(true)))
            .count();
        let (failed, attempted) = failures(&set);
        let _ = writeln!(
            out,
            "{w}: {} runs, {bad} not correct or non-zero exit; failed {failed} of {attempted} operations",
            set.len()
        );
        let _ = writeln!(
            out,
            "  {:<36} {:>14} {:>14} {:>14} {:>9}",
            "metric", "q1", "median", "q3", "spread"
        );
        for (name, (v, unit)) in values(&set) {
            let mid = median(&v).unwrap_or(0.0);
            let (q1, q3) = quartiles(&v).unwrap_or((mid, mid));
            let spread =
                relative_spread(&v).map_or("-".to_string(), |s| format!("{:.2}%", 100.0 * s));
            let _ = writeln!(
                out,
                "  {name:<36} {q1:>14.6} {mid:>14.6} {q3:>14.6} {spread:>9} {unit}"
            );
        }
    }
    out
}

/// One end-to-end metric's entry in `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds(path: &str) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

fn check(args: &[String]) -> Result<String, String> {
    let (positional, named) = flags(args)?;
    let [a_path, b_path] = positional.as_slice() else {
        return Err(USAGE.to_string());
    };
    let bench = named
        .get("benchmark")
        .map_or("BENCHMARK.json", String::as_str);
    let bounds = bounds(bench)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut workloads: Vec<String> = a.iter().map(|r| r.workload.clone()).collect();
    workloads.sort();
    workloads.dedup();
    let mut out = String::new();
    let mut all_ok = true;
    for w in &workloads {
        let sa: Vec<&Stored> = a.iter().filter(|r| &r.workload == w).collect();
        let sb: Vec<&Stored> = b.iter().filter(|r| &r.workload == w).collect();
        let (va, vb) = (values(&sa), values(&sb));
        let (fa, aa) = failures(&sa);
        let (fb, ab) = failures(&sb);
        let share = |f: f64, n: f64| if n > 0.0 { f / n } else { 0.0 };
        let same_share = share(fa, aa) == share(fb, ab);
        all_ok &= same_share;
        let mut cells = Vec::new();
        for bound in &bounds {
            let (Some((x, _)), Some((y, _))) = (va.get(&bound.name), vb.get(&bound.name)) else {
                // every run prints every end-to-end metric
                all_ok = false;
                cells.push(format!("{} missing", bound.name));
                continue;
            };
            let (sx, sy) = (
                relative_spread(x).unwrap_or(0.0),
                relative_spread(y).unwrap_or(0.0),
            );
            let (mx, my) = (median(x).unwrap_or(0.0), median(y).unwrap_or(0.0));
            let worse = if bound.lower_is_better {
                my - mx
            } else {
                mx - my
            };
            let shift = if mx == 0.0 { 0.0 } else { worse / mx.abs() };
            let spread_ok = bound.name == "setup_s" || (sx <= bound.bound && sy <= bound.bound);
            let ok = spread_ok && shift <= bound.bound;
            all_ok &= ok;
            cells.push(format!(
                "{} {} (spread {:.1}%/{:.1}%, worse by {:.1}%, bound {:.0}%)",
                bound.name,
                if ok { "within bound" } else { "unresolved" },
                100.0 * sx,
                100.0 * sy,
                100.0 * shift,
                100.0 * bound.bound
            ));
        }
        let _ = writeln!(
            out,
            "{w}: failed share {}/{} vs {}/{} {}; {}",
            fa,
            aa,
            fb,
            ab,
            if same_share { "equal" } else { "DIFFERENT" },
            cells.join("; ")
        );
    }
    let _ = writeln!(
        out,
        "{}",
        if all_ok {
            "all within bound"
        } else {
            "some metrics unresolved"
        }
    );
    Ok(out)
}
