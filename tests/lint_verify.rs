//! Lint corpus and verifier regression suite.
//!
//! Pins the `DF0xx` code each bad-corpus kernel reports (so CI catches
//! silent rule regressions), confirms the paper suite is lint-clean, and
//! property-checks the pass-by-pass IR verifier: any kernel the linter
//! accepts must flow through the whole pipeline with `ir::verify` clean
//! after every stage.

use defacto::prelude::*;
use defacto_kernels::fir;
use defacto_xform::transform;
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/lint_corpus/bad")
}

fn read_corpus(name: &str) -> String {
    let path = corpus_dir().join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Every bad-corpus kernel reports exactly the code its filename pins,
/// with a source span pointing at the offending text.
#[test]
fn bad_corpus_kernels_report_their_pinned_codes() {
    // `df009_capacity.kernel` is absent: it needs a device, so the CLI
    // suite pins it (`lint fir.kernel --device xcv300 --memories 16`).
    let pinned = [
        ("df001_syntax.kernel", "DF001"),
        ("df002_non_affine.kernel", "DF002"),
        ("df003_symbolic_bound.kernel", "DF003"),
        ("df004_control_flow.kernel", "DF004"),
        ("df005_out_of_bounds.kernel", "DF005"),
        ("df006_unused_decl.kernel", "DF006"),
        ("df007_jam_blocked.kernel", "DF007"),
        ("df008_write_conflict.kernel", "DF008"),
        ("df010_degenerate_loop.kernel", "DF010"),
        ("df011_interchange_pinned.kernel", "DF011"),
        ("df012_packing_inert.kernel", "DF012"),
        ("df013_rotate_mixed_types.kernel", "DF013"),
    ];
    for (file, code) in pinned {
        let report = lint_source(&read_corpus(file));
        assert!(
            !report.diagnostics.is_empty(),
            "{file}: expected a diagnostic"
        );
        let hit = report.diagnostics.iter().find(|d| d.code == code);
        let hit =
            hit.unwrap_or_else(|| panic!("{file}: expected {code}, got {:?}", report.rule_hits));
        assert!(
            hit.primary.is_some(),
            "{file}: {code} diagnostic has no source span"
        );
    }
}

/// No corpus kernel is unaccounted for: each file is either pinned above
/// or the device-dependent DF009 case.
#[test]
fn corpus_has_no_stray_kernels() {
    let mut names: Vec<String> = fs::read_dir(corpus_dir())
        .expect("corpus dir")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "df001_syntax.kernel",
            "df002_non_affine.kernel",
            "df003_symbolic_bound.kernel",
            "df004_control_flow.kernel",
            "df005_out_of_bounds.kernel",
            "df006_unused_decl.kernel",
            "df007_jam_blocked.kernel",
            "df008_write_conflict.kernel",
            "df009_capacity.kernel",
            "df010_degenerate_loop.kernel",
            "df011_interchange_pinned.kernel",
            "df012_packing_inert.kernel",
            "df013_rotate_mixed_types.kernel",
        ]
    );
}

/// The DF009 corpus kernel is the paper's FIR: clean by itself (it only
/// trips on a constrained platform, which the CLI suite covers).
#[test]
fn df009_corpus_kernel_is_clean_without_a_device() {
    let report = lint_source(&read_corpus("df009_capacity.kernel"));
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

/// All five paper kernels under `examples/kernels/` lint clean.
#[test]
fn paper_example_kernels_are_lint_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/kernels");
    let mut seen = 0;
    for entry in fs::read_dir(&dir).expect("examples dir") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "kernel") {
            continue;
        }
        seen += 1;
        let src = fs::read_to_string(&path).unwrap();
        let report = lint_source(&src);
        assert!(
            report.diagnostics.is_empty(),
            "{}: {:?}",
            path.display(),
            report.diagnostics
        );
    }
    assert_eq!(seen, 5, "expected the five paper kernels");
}

/// Warning-only rules never flip to errors: severities are part of the
/// stable diagnostic contract.
#[test]
fn warning_rules_stay_warnings() {
    for file in [
        "df006_unused_decl.kernel",
        "df007_jam_blocked.kernel",
        "df008_write_conflict.kernel",
        "df011_interchange_pinned.kernel",
        "df012_packing_inert.kernel",
    ] {
        let report = lint_source(&read_corpus(file));
        assert!(!report.has_errors(), "{file}: {:?}", report.diagnostics);
        assert!(report.warning_count() > 0, "{file}: no warnings");
    }
}

/// The pipeline, with the verifier armed after every pass, is clean on
/// representative unrolls of every paper kernel.
#[test]
fn verifier_is_clean_at_each_pass_on_the_paper_suite() {
    use defacto_kernels::{jacobi, matmul, pattern, sobel};
    let cases: Vec<(Kernel, Vec<Vec<i64>>)> = vec![
        (fir::kernel(), vec![vec![1, 1], vec![8, 4], vec![64, 32]]),
        (matmul::kernel(), vec![vec![1, 1, 1], vec![8, 4, 1]]),
        (pattern::kernel(), vec![vec![2, 2], vec![12, 8]]),
        (jacobi::kernel(), vec![vec![2, 2], vec![16, 4]]),
        (sobel::kernel(), vec![vec![4, 4]]),
    ];
    let opts = TransformOptions {
        verify_each_pass: true,
        ..TransformOptions::default()
    };
    for (kernel, vectors) in cases {
        for factors in vectors {
            transform(&kernel, &UnrollVector(factors.clone()), &opts)
                .unwrap_or_else(|e| panic!("{} at {factors:?}: {e}", kernel.name()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property: a lint-clean kernel survives the full pipeline with the
    /// IR verifier clean after every pass — the linter's "accepted" and
    /// the verifier's "sound" agree across random shapes and unrolls.
    #[test]
    fn prop_lint_clean_kernels_verify_at_every_pass(
        n_out_pow in 2u32..6,
        n_taps_pow in 1u32..5,
        uj_pow in 0u32..6,
        ui_pow in 0u32..5,
        scalar_replacement in any::<bool>(),
        peel in any::<bool>(),
    ) {
        let n_out = 1usize << n_out_pow;
        let n_taps = 1usize << n_taps_pow;
        let kernel = fir::kernel_sized(n_out, n_taps);
        let report = lint_kernel(&kernel);
        prop_assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);

        let uj = 1i64 << uj_pow.min(n_out_pow);
        let ui = 1i64 << ui_pow.min(n_taps_pow);
        let opts = TransformOptions {
            scalar_replacement,
            peel,
            verify_each_pass: true,
            ..TransformOptions::default()
        };
        // `transform` fails with `XformError::Verify` if any checkpoint
        // trips; succeeding IS the property.
        let design = transform(&kernel, &UnrollVector(vec![uj, ui]), &opts);
        prop_assert!(design.is_ok(), "{:?}", design.err());
        // And the final kernel is verifier-clean too.
        let violations = defacto_ir::verify(&design.unwrap().kernel);
        prop_assert!(violations.is_empty(), "{violations:?}");
    }
}
