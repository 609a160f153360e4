//! `defacto lint` and `explore --verify` on the committed kernel files,
//! in-process.
//!
//! Each run goes through the same `parse_args`/`run` path as the binary,
//! which prints `run`'s output and exits zero on `Ok`, and prints the
//! error and exits non-zero on `Err`:
//!
//! - every paper kernel under `examples/kernels` lints clean;
//! - every bad-corpus kernel under `tests/lint_corpus/bad` except the
//!   capacity case fails lint with the code its file name pins
//!   (`df005_out_of_bounds.kernel` reports `[DF005]`);
//! - the capacity case reports `[DF009]` on a small device with sixteen
//!   memories;
//! - `explore --verify` finds every pass of every visited design of each
//!   paper kernel verifier-clean.

use std::path::{Path, PathBuf};

fn repo_dir(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// The `.kernel` files of `dir`, by name.
fn kernel_files(dir: &str) -> Vec<(String, PathBuf)> {
    let mut files: Vec<(String, PathBuf)> = std::fs::read_dir(repo_dir(dir))
        .unwrap_or_else(|e| panic!("{dir} is readable: {e}"))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "kernel"))
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, path)
        })
        .collect();
    files.sort();
    files
}

/// `defacto ARGS...` on `file`: the output on success, the error text
/// on failure.
fn defacto(args: &[&str], file: &Path) -> Result<String, String> {
    let args: Vec<String> = [args[0], &file.to_string_lossy()]
        .into_iter()
        .chain(args[1..].iter().copied())
        .map(str::to_string)
        .collect();
    let cli = defacto_cli::parse_args(&args).expect("valid arguments");
    let source = std::fs::read_to_string(file).expect("kernel file is readable");
    defacto_cli::run(&cli, &source).map_err(|e| e.to_string())
}

#[test]
fn paper_kernels_lint_clean() {
    let kernels = kernel_files("examples/kernels");
    assert_eq!(kernels.len(), 5, "{kernels:?}");
    for (name, file) in &kernels {
        if let Err(e) = defacto(&["lint"], file) {
            panic!("{name}: lint failed:\n{e}");
        }
    }
}

/// The code a bad-corpus file name pins: `df005_out_of_bounds.kernel`
/// pins `DF005`.
fn pinned_code(name: &str) -> String {
    let digits = name
        .strip_prefix("df")
        .and_then(|rest| rest.split('_').next())
        .unwrap_or_else(|| panic!("{name}: not a `dfNNN_` corpus file"));
    format!("DF{digits}")
}

#[test]
fn bad_corpus_reports_its_pinned_codes() {
    let corpus: Vec<(String, PathBuf)> = kernel_files("tests/lint_corpus/bad")
        .into_iter()
        .filter(|(name, _)| pinned_code(name) != "DF009")
        .collect();
    // DF001 through DF013, the capacity case (DF009) apart.
    assert_eq!(corpus.len(), 12, "{corpus:?}");
    for (name, file) in &corpus {
        let code = pinned_code(name);
        match defacto(&["lint"], file) {
            Ok(out) => panic!("{name}: lint unexpectedly succeeded:\n{out}"),
            Err(e) => assert!(
                e.contains(&format!("[{code}]")),
                "{name}: expected {code} in:\n{e}"
            ),
        }
    }
}

#[test]
fn capacity_rule_trips_on_a_constrained_platform() {
    let file = repo_dir("tests/lint_corpus/bad/df009_capacity.kernel");
    match defacto(&["lint", "--device", "xcv300", "--memories", "16"], &file) {
        Ok(out) => panic!("DF009 case unexpectedly succeeded:\n{out}"),
        Err(e) => assert!(e.contains("[DF009]"), "expected DF009 in:\n{e}"),
    }
}

#[test]
fn verifier_is_clean_across_the_paper_suite() {
    for (name, file) in &kernel_files("examples/kernels") {
        let out = defacto(&["explore", "--verify"], file)
            .unwrap_or_else(|e| panic!("{name}: explore --verify failed:\n{e}"));
        assert!(out.contains("verifier: clean"), "{name}:\n{out}");
    }
}
