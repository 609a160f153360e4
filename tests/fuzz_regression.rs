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

/// A `range` annotation narrows fetched values below the declared
/// element type, so a register filled from an annotated array narrows
/// too. The tier-0 band once floored such registers at the declared
/// width: seed-7 kernel 2 declares `in C: i32[5] range -8..7`, and at
/// unroll `[1, 1]` with pipelined memory, narrowing and packing its
/// exact estimate of 419 slices sat below a band starting at 451.
#[test]
fn annotated_load_registers_keep_the_band_below_the_estimate() {
    use defacto_synth::{estimate_opts, AnalyticModel, FpgaDevice, MemoryModel, SynthesisOptions};
    use defacto_xform::{PreparedKernel, TransformOptions, UnrollVector};
    use std::sync::Arc;

    let source = defacto_fuzz::generate_kernel(7, 2);
    assert!(source.contains("in C: i32[5] range -8..7"), "{source}");
    let kernel = defacto_ir::parse_kernel(&source).expect("parses");
    let prepared = Arc::new(PreparedKernel::prepare(&kernel).expect("prepares"));
    let mem = MemoryModel::pipelined(4);
    let dev = FpgaDevice::virtex1000();
    let topts = TransformOptions::default();
    let sopts = SynthesisOptions {
        bitwidth_narrowing: true,
        pack_small_types: true,
        ..SynthesisOptions::default()
    };
    let model = AnalyticModel::new(
        prepared.clone(),
        mem.clone(),
        dev.clone(),
        topts.clone(),
        sopts.clone(),
    )
    .expect("unconstrained");
    let unroll = UnrollVector(vec![1, 1]);
    let band = model.evaluate(&unroll).expect("prices");
    let design = prepared.transform(&unroll, &topts).expect("transforms");
    let estimate = estimate_opts(&design, &mem, &dev, &sopts);
    assert_eq!(estimate.slices, 419);
    assert!(
        band.slices_lo <= estimate.slices,
        "band [{}, {}] misses {}",
        band.slices_lo,
        band.slices_hi,
        estimate.slices
    );
    assert!(band.contains(&estimate), "{band:?} misses {estimate:?}");
}

/// An unannotated `out` array's range starts at zero and grows only by
/// the values stored into it, so a register filled from loads of such an
/// array narrows with them. The tier-0 band once floored every register
/// filled from memory at the declared width: here `T` is never stored,
/// so it holds only zeros, and at unroll `[1, 1]` with pipelined memory
/// and narrowing the exact estimate of 410 slices sat below a band
/// starting at 497.
#[test]
fn out_array_load_registers_keep_the_band_below_the_estimate() {
    use defacto_synth::{estimate_opts, AnalyticModel, FpgaDevice, MemoryModel, SynthesisOptions};
    use defacto_xform::{PreparedKernel, TransformOptions, UnrollVector};
    use std::sync::Arc;

    let source = "kernel outreg {
        in A: i32[8];
        out T: i32[8];
        out B: i32[8][8];
        for i in 0..8 { for j in 0..8 { B[i][j] = T[j] + A[i]; } }
    }";
    let kernel = defacto_ir::parse_kernel(source).expect("parses");
    let prepared = Arc::new(PreparedKernel::prepare(&kernel).expect("prepares"));
    let mem = MemoryModel::pipelined(4);
    let dev = FpgaDevice::virtex1000();
    let topts = TransformOptions::default();
    let sopts = SynthesisOptions {
        bitwidth_narrowing: true,
        ..SynthesisOptions::default()
    };
    let model = AnalyticModel::new(
        prepared.clone(),
        mem.clone(),
        dev.clone(),
        topts.clone(),
        sopts.clone(),
    )
    .expect("unconstrained");
    for (factors, exact) in [([1, 1], 410), ([8, 1], 605)] {
        let unroll = UnrollVector(factors.to_vec());
        let band = model.evaluate(&unroll).expect("prices");
        let design = prepared.transform(&unroll, &topts).expect("transforms");
        let estimate = estimate_opts(&design, &mem, &dev, &sopts);
        assert_eq!(estimate.slices, exact, "{factors:?}");
        assert!(
            band.contains(&estimate),
            "{factors:?}: {band:?} misses {estimate:?}"
        );
    }
}
