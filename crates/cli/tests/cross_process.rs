//! Cross-process determinism of the persistent cache.
//!
//! Two *separate* `defacto` processes explore the same kernel against
//! one cache directory. The second, cold process must (1) serve at
//! least 90% of its estimates from the store the first process wrote,
//! and (2) report byte-identical selections and search traces — the
//! cache is a pure accelerator, never an input to the answer. Runs over
//! all five paper kernels at 1 and 8 workers.
//!
//! A kernel that is no perfect loop nest makes every design command exit
//! non-zero with one line: the preparation error.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("defacto-xproc-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn explore(file: &Path, cache: &Path, trace: &Path, workers: usize) -> serde_json::Value {
    let out = Command::new(env!("CARGO_BIN_EXE_defacto"))
        .arg("explore")
        .arg(file)
        .arg("--json")
        .arg("--cache-dir")
        .arg(cache)
        .arg("--trace")
        .arg(trace)
        .arg("--threads")
        .arg(workers.to_string())
        .output()
        .expect("spawn defacto");
    assert!(
        out.status.success(),
        "explore failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).expect("valid JSON")
}

#[test]
fn second_process_hits_warm_cache_with_identical_answers() {
    let dir = scratch("warm");
    for (name, source) in defacto_kernels::paper_kernel_sources() {
        let file = dir.join(format!("{name}.kernel"));
        std::fs::write(&file, &source).unwrap();
        for workers in [1usize, 8] {
            let cache = dir.join(format!("cache-{name}-{workers}"));
            let t1 = dir.join(format!("{name}-{workers}-cold.jsonl"));
            let t2 = dir.join(format!("{name}-{workers}-warm.jsonl"));

            let cold = explore(&file, &cache, &t1, workers);
            let warm = explore(&file, &cache, &t2, workers);

            // The first process starts from an empty store...
            assert_eq!(
                cold["stats"]["persist_hits"].as_u64(),
                Some(0),
                "{name}@{workers}: cold run should miss"
            );
            // ...and the second must be served almost entirely from it.
            let rate = warm["stats"]["persist_hit_rate"].as_f64().unwrap();
            assert!(
                rate >= 0.9,
                "{name}@{workers}: warm hit rate {rate} below 0.9: {warm:?}"
            );
            assert_eq!(
                warm["stats"]["evaluated"].as_u64(),
                Some(0),
                "{name}@{workers}: warm run re-evaluated designs"
            );

            // Selections and estimates are bit-identical...
            assert_eq!(
                cold["selected"], warm["selected"],
                "{name}@{workers}: selection changed across processes"
            );
            // ...and so is the search trace, byte for byte.
            let cold_trace = std::fs::read(&t1).unwrap();
            let warm_trace = std::fs::read(&t2).unwrap();
            assert!(!cold_trace.is_empty(), "{name}@{workers}: empty trace");
            assert_eq!(
                cold_trace, warm_trace,
                "{name}@{workers}: trace changed across processes"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_imperfect_nest_fails_every_design_command_with_one_message() {
    let dir = scratch("imperfect");
    let file = dir.join("sib.kernel");
    std::fs::write(
        &file,
        "kernel sib { in A: i32[8]; out B: i32[8]; out C: i32[8];
           for i in 0..8 { B[i] = A[i] + 1; }
           for j in 0..8 { C[j] = A[j] * 2; } }",
    )
    .unwrap();
    let cache = dir.join("cache").to_string_lossy().into_owned();
    let commands: [&[&str]; 10] = [
        &["explore"],
        &["explore", "--axes", "all"],
        &["explore", "--axes", "all", "--fidelity", "analytic"],
        &["sweep"],
        &["analyze"],
        &["audit"],
        &["vhdl"],
        &["vhdl", "--unroll", "1"],
        &["schedule"],
        &["watch", "--cache-dir", &cache, "--max-runs", "1"],
    ];
    for args in commands {
        let out = Command::new(env!("CARGO_BIN_EXE_defacto"))
            .arg(args[0])
            .arg(&file)
            .args(&args[1..])
            .output()
            .expect("spawn defacto");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            "error: transformation failed: kernel body is not a perfect loop nest\n",
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
