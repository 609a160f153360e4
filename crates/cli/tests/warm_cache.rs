//! Warm runs of `defacto explore --cache-dir` hit the store and answer
//! identically, in-process.
//!
//! Every kernel file under `examples/kernels` is explored four times
//! against one cache directory, in the order a user would: cold and warm
//! at one worker, then cold and warm at eight. Each run goes through the
//! same `parse_args`/`run` path as the binary, with `--json` and a
//! `--trace` file. The selection never changes, across passes or worker
//! counts; a warm run is served from the store (hit rate at least 0.9, no
//! design re-evaluated); and its trace is byte-identical to the cold
//! run's at the same worker count.

use std::path::{Path, PathBuf};

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("defacto-warm-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The kernel files under `examples/kernels`, by stem.
fn example_kernels() -> Vec<(String, PathBuf)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/kernels");
    let mut files: Vec<(String, PathBuf)> = std::fs::read_dir(&dir)
        .expect("examples/kernels is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "kernel"))
        .map(|path| {
            let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
            (stem, path)
        })
        .collect();
    files.sort();
    files
}

/// `defacto explore FILE --threads N --cache-dir CACHE --json --trace TRACE`.
fn explore(file: &Path, workers: usize, cache: &Path, trace: &Path) -> serde_json::Value {
    let args: Vec<String> = [
        "explore",
        &file.to_string_lossy(),
        "--threads",
        &workers.to_string(),
        "--cache-dir",
        &cache.to_string_lossy(),
        "--json",
        "--trace",
        &trace.to_string_lossy(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let cli = defacto_cli::parse_args(&args).expect("valid arguments");
    let source = std::fs::read_to_string(file).expect("kernel file is readable");
    let out = defacto_cli::run(&cli, &source).expect("explore succeeds");
    serde_json::from_str(&out).expect("valid JSON")
}

#[test]
fn warm_runs_hit_the_cache_and_answer_identically() {
    let dir = scratch();
    let cache = dir.join("cache");
    let kernels = example_kernels();
    assert_eq!(kernels.len(), 5, "{kernels:?}");
    for (name, file) in &kernels {
        let mut first_selection = None;
        for workers in [1usize, 8] {
            let trace = |pass: &str| dir.join(format!("{name}-{workers}-{pass}.jsonl"));
            let cold = explore(file, workers, &cache, &trace("cold"));
            let warm = explore(file, workers, &cache, &trace("warm"));
            // Selection identity: the cache never changes the answer,
            // across passes or worker counts.
            assert_eq!(warm["selected"], cold["selected"], "{name}@{workers}");
            let first = first_selection.get_or_insert_with(|| cold["selected"].clone());
            assert_eq!(cold["selected"], *first, "{name}@{workers}");
            // The warm pass is served from the store.
            let rate = warm["stats"]["persist_hit_rate"]
                .as_f64()
                .expect("a hit rate");
            assert!(rate >= 0.9, "{name}@{workers}: warm hit rate {rate}");
            assert_eq!(
                warm["stats"]["evaluated"].as_u64(),
                Some(0),
                "{name}@{workers}: the warm run re-evaluated designs"
            );
            // Traces are byte-identical cold vs warm.
            let cold_trace = std::fs::read(trace("cold")).unwrap();
            let warm_trace = std::fs::read(trace("warm")).unwrap();
            assert!(!cold_trace.is_empty(), "{name}@{workers}: empty trace");
            assert!(
                cold_trace == warm_trace,
                "{name}@{workers}: the warm trace differs from the cold one"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
