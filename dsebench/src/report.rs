//! `run`/`trace`: every workload in its own child process, one at a
//! time, collected into one report with a machine fingerprint; and
//! `compare`: two reports side by side against `BENCHMARK.json`.

use crate::answers::Workload;
use crate::stats::{self, Better};
use crate::{Args, OUT_DIR};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const SCHEMA: &str = "dsebench-run/v1";

/// Run every workload `args.repeat` times, sequentially, each in a
/// child process; returns the exit code.
pub fn run(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("dsebench: cannot find own executable: {e}");
            return 1;
        }
    };
    let mut runs = Vec::new();
    let mut ok = true;
    for repeat in 0..args.repeat {
        for w in Workload::ALL {
            let child = Command::new(&exe)
                .args(["--workload", w.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output();
            let (code, stdout) = match child {
                Ok(o) => (
                    o.status.code().unwrap_or(-1),
                    String::from_utf8_lossy(&o.stdout).into_owned(),
                ),
                Err(e) => {
                    eprintln!("dsebench: cannot start {}: {e}", w.name());
                    (-1, String::new())
                }
            };
            print!("{stdout}");
            let result = stdout
                .lines()
                .last()
                .and_then(|l| serde_json::parse(l).ok())
                .unwrap_or(Value::Null);
            ok &= code == 0 && result["correct"].as_bool() == Some(true);
            runs.push(json!({
                "workload": w.name(),
                "repeat": repeat,
                "exit": code,
                "result": result,
            }));
        }
    }
    let report = json!({
        "schema": SCHEMA,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        "runs": Value::Array(runs),
    });
    let path = args.out.clone().unwrap_or_else(|| {
        let kind = if args.trace { "trace" } else { "run" };
        Path::new(OUT_DIR).join(format!("{kind}-seed{}.json", args.seed))
    });
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let text = serde_json::to_string_pretty(&report).expect("report serializes") + "\n";
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("dsebench: {}: {e}", path.display());
        return 1;
    }
    summarize(&report);
    println!("# report written to {}", path.display());
    if ok {
        0
    } else {
        1
    }
}

/// Every metric of a report, per workload, across its runs.
fn samples(report: &Value) -> BTreeMap<(String, String), (String, Vec<f64>)> {
    let mut out: BTreeMap<(String, String), (String, Vec<f64>)> = BTreeMap::new();
    if let Value::Array(runs) = &report["runs"] {
        for r in runs {
            let w = r["workload"].as_str().unwrap_or("?").to_string();
            if let Value::Object(metrics) = &r["result"]["metrics"] {
                for (name, m) in metrics {
                    let Some(v) = m["value"].as_f64() else {
                        continue;
                    };
                    let unit = m["unit"].as_str().unwrap_or("").to_string();
                    let e = out
                        .entry((w.clone(), name.clone()))
                        .or_insert((unit, Vec::new()));
                    e.1.push(v);
                }
            }
        }
    }
    out
}

fn summarize(report: &Value) {
    for ((w, name), (unit, values)) in samples(report) {
        let [q1, q2, q3] = stats::quartiles(&values);
        println!(
            "{w} {name} {q2} {unit} (q1 {q1:.4}, q3 {q3:.4}, runs {})",
            values.len()
        );
    }
}

/// What the machine and build looked like.
fn fingerprint() -> Value {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpuinfo = read("/proc/cpuinfo");
    let meminfo = read("/proc/meminfo");
    let field = |text: &str, key: &str| {
        text.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split(':').nth(1))
            .map(|v| v.trim().to_string())
            .unwrap_or_default()
    };
    let rustc = Command::new("rustc")
        .arg("--version")
        .stderr(Stdio::null())
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    json!({
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "cpu_model": field(&cpuinfo, "model name"),
        "mem_total": field(&meminfo, "MemTotal"),
        "loadavg": read("/proc/loadavg").split_whitespace().take(3).collect::<Vec<_>>().join(" "),
        "rustc": rustc,
        "git_head": git_head().unwrap_or_default(),
    })
}

/// The checked-out commit, read from `.git` without running git.
fn git_head() -> Option<String> {
    let git = PathBuf::from(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// Direction and bound of every end-to-end metric, from `BENCHMARK.json`
/// in the working directory.
fn bounds() -> Result<BTreeMap<String, (Better, f64)>, String> {
    let bad = |e: &dyn std::fmt::Display| format!("BENCHMARK.json: {e}");
    let text = std::fs::read_to_string("BENCHMARK.json").map_err(|e| bad(&e))?;
    let spec = serde_json::parse(&text).map_err(|e| bad(&e))?;
    let Value::Array(metrics) = &spec["end_to_end"] else {
        return Err(bad(&"no end_to_end metrics"));
    };
    metrics
        .iter()
        .map(|m| {
            let name = m["name"].as_str().ok_or(bad(&"metric without a name"))?;
            let better = Better::parse(m["better"].as_str().unwrap_or(""));
            match (better, m["bound"].as_f64()) {
                (Some(better), Some(bound)) => Ok((name.to_string(), (better, bound))),
                _ => Err(bad(&format!("{name} needs a direction and a bound"))),
            }
        })
        .collect()
}

/// Print each metric's medians and quartiles in report `a` (the
/// baseline) and `b`, with a verdict against its bound; exit code 1
/// when any bounded metric regressed.
pub fn compare(a: &Path, b: &Path) -> i32 {
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        serde_json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (old, new, bounds) = match (load(a), load(b), bounds()) {
        (Ok(o), Ok(n), Ok(b)) => (samples(&o), samples(&n), b),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("dsebench: {e}");
            return 2;
        }
    };
    let mut regressed = 0;
    for ((w, name), (unit, before)) in &old {
        let Some((_, after)) = new.get(&(w.clone(), name.clone())) else {
            continue;
        };
        let [a1, a2, a3] = stats::quartiles(before);
        let [b1, b2, b3] = stats::quartiles(after);
        let verdict = match bounds.get(name) {
            Some(&(better, bound)) => {
                let v = stats::verdict(before, after, better, bound);
                regressed += usize::from(v == stats::Verdict::Regressed);
                format!("{} (bound {:.0}%)", v.label(), bound * 100.0)
            }
            None => "-".to_string(),
        };
        let change = if a2 != 0.0 {
            format!("{:+.1}%", (b2 - a2) / a2.abs() * 100.0)
        } else {
            "n/a".into()
        };
        println!(
            "{w:<10} {name:<30} {unit:<6} A {a2:.4} [{a1:.4}, {a3:.4}] n{}  B {b2:.4} [{b1:.4}, {b3:.4}] n{}  {change:>7}  {verdict}",
            before.len(),
            after.len()
        );
    }
    i32::from(regressed > 0)
}
