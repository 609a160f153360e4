//! Corpus replay: every reproducer in `tests/fuzz_corpus/` runs through
//! all six oracle dimensions on both standard profiles.
//!
//! File-name convention pins the expected classification:
//!
//! - `reject_*.kernel` — degenerate inputs that must be refused with a
//!   *typed* diagnostic (never a crash) on every profile;
//! - `pass_*.kernel` — kernels that must survive every oracle (semantics,
//!   per-pass verification, fidelity agreement + band containment, trace
//!   audits at 1 and 8 workers, joint-space legality both ways) on every
//!   profile.
//!
//! A `Violation` outcome for any file is a regression of a previously
//! fixed bug.

use std::fs;
use std::path::{Path, PathBuf};

use defacto_fuzz::{replay_source, CaseOutcome};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fuzz_corpus")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("tests/fuzz_corpus must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "kernel"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "fuzz corpus must not be empty");
    files
}

#[test]
fn corpus_files_follow_the_naming_convention() {
    for path in corpus_files() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(
            name.starts_with("reject_") || name.starts_with("pass_"),
            "corpus file `{name}` must be prefixed reject_ or pass_ to pin its expectation"
        );
    }
}

#[test]
fn corpus_replays_clean_through_all_six_oracles() {
    for path in corpus_files() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let source = fs::read_to_string(&path).expect("readable corpus file");
        for (profile, outcome) in replay_source(&source) {
            match &outcome {
                CaseOutcome::Violation(v) => panic!(
                    "{name} on {profile}: REGRESSION — oracle `{}` tripped at {}: {}",
                    v.oracle.label(),
                    v.stage,
                    v.detail
                ),
                CaseOutcome::Rejected { stage, detail } => assert!(
                    name.starts_with("reject_"),
                    "{name} on {profile}: expected to pass, was rejected at `{stage}`: {detail}"
                ),
                CaseOutcome::Passed { .. } => assert!(
                    name.starts_with("pass_"),
                    "{name} on {profile}: expected a typed rejection, but it passed"
                ),
            }
        }
    }
}

/// The reproducer for the parser recursion hardening: deep expression
/// nesting must produce a typed syntax error, not exhaust the stack.
#[test]
fn deep_nesting_reproducer_is_a_typed_parse_error() {
    let source = fs::read_to_string(corpus_dir().join("reject_deep_nesting.kernel")).unwrap();
    let err = defacto_ir::parse_kernel(&source).unwrap_err();
    assert!(
        err.to_string().contains("nesting"),
        "expected the nesting-depth diagnostic, got: {err}"
    );
}

/// Multiplying by an `i64::MIN` literal (which the simplifier folds out
/// of `0 - 9223372036854775807 - 1`) once overflowed the power-of-two
/// strength-reduction test in debug builds. Both fidelities of the
/// classic search and of the joint sweep must price it without a panic.
#[test]
fn i64_min_multiplier_estimates_without_overflow() {
    use defacto::prelude::*;

    let source = "kernel minmul { in A: i32[16]; out B: i32[16];
        for i in 0..16 { B[i] = A[i] * (0 - 9223372036854775807 - 1); } }";
    assert!(!defacto::lint_source(source).has_errors());
    let kernel = defacto_ir::parse_kernel(source).expect("parses");
    for fidelity in [Fidelity::Full, Fidelity::Analytic] {
        let explorer = Explorer::new(&kernel).fidelity(fidelity);
        explorer.explore().expect("explore succeeds");
        let sweep = explorer
            .axes(&Axis::ALL)
            .joint_sweep()
            .expect("joint sweep succeeds");
        assert!(!sweep.is_empty());
    }
}
