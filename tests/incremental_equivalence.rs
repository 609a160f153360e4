//! Incremental evaluation must be bit-identical to from-scratch.
//!
//! The prepared path (`PreparedKernel::transform` plus the doubling-chain
//! copy cache) exists purely for throughput: its contract is that every
//! design point yields the *same* `TransformedDesign` — kernel IR,
//! scalar-replacement info and memory binding — as the monolithic
//! [`defacto_xform::transform`] pipeline, and therefore the same
//! behavioral estimate. These tests pin that contract across the full
//! design spaces of the five paper kernels, under every pipeline option
//! the `TransformOptions` struct exposes, and against the reference
//! interpreter for end-to-end semantics.

use defacto::prelude::*;
use defacto_ir::run_with_inputs;
use defacto_kernels::{fir, jacobi, matmul, pattern, sobel, workload};
use defacto_synth::{estimate_opts, SynthesisOptions};
use defacto_xform::{transform, PointCensus, PreparedKernel, TransformedDesign};
use proptest::prelude::*;

struct Case {
    name: &'static str,
    kernel: Kernel,
    inputs: Vec<(&'static str, Vec<i64>)>,
    output: &'static str,
}

fn paper_cases() -> Vec<Case> {
    vec![
        Case {
            name: "FIR",
            kernel: fir::kernel(),
            inputs: vec![
                ("S", workload::signal(96, 10)),
                ("C", workload::signal(32, 11)),
            ],
            output: "D",
        },
        Case {
            name: "MM",
            kernel: matmul::kernel(),
            inputs: vec![
                ("A", workload::signal(512, 20)),
                ("B", workload::signal(64, 21)),
            ],
            output: "C",
        },
        Case {
            name: "PAT",
            kernel: pattern::kernel(),
            inputs: vec![("S", workload::text(64, 30)), ("P", workload::text(16, 31))],
            output: "M",
        },
        Case {
            name: "JAC",
            kernel: jacobi::kernel(),
            inputs: vec![("A", workload::image(34, 40))],
            output: "B",
        },
        Case {
            name: "SOBEL",
            kernel: sobel::kernel(),
            inputs: vec![("I", workload::image(34, 50))],
            output: "E",
        },
    ]
}

/// The full design space of a kernel, in the explorer's (doubling-chain)
/// iteration order.
fn full_space(kernel: &Kernel) -> Vec<UnrollVector> {
    let (_, space) = Explorer::new(kernel).analyze().expect("analyzable");
    space.iter().collect()
}

fn assert_same_design(
    name: &str,
    u: &UnrollVector,
    prepared: &TransformedDesign,
    scratch: &TransformedDesign,
) {
    assert_eq!(
        prepared.kernel, scratch.kernel,
        "{name} {u}: prepared kernel IR diverges from scratch"
    );
    assert_eq!(prepared.info, scratch.info, "{name} {u}: scalar info");
    assert_eq!(prepared.binding, scratch.binding, "{name} {u}: binding");
    assert_eq!(prepared, scratch, "{name} {u}: design");
}

/// The tier-0 census of a point predicts the scalar-replacement counts of
/// the materialized design exactly, and its register classes account for
/// every introduced register.
fn assert_census_matches(
    name: &str,
    u: &UnrollVector,
    census: &PointCensus,
    design: &TransformedDesign,
) {
    let info = &design.info;
    assert_eq!(
        (
            census.reuse_registers,
            census.temp_registers,
            census.chains,
            census.dropped_by_budget
        ),
        (
            info.reuse_registers,
            info.temp_registers,
            info.chains,
            info.dropped_by_budget
        ),
        "{name} {u}: census counts diverge from the transform's info"
    );
    let classes: usize = census.registers.iter().map(|r| r.count).sum();
    assert_eq!(
        classes,
        census.total_registers(),
        "{name} {u}: register classes do not sum to the census total"
    );
}

/// Every point of every paper kernel's full space: prepared and scratch
/// designs are equal as IR and produce the identical estimate.
#[test]
fn full_space_designs_and_estimates_are_bit_identical() {
    let opts = TransformOptions::default();
    let mem = MemoryModel::wildstar_pipelined();
    let device = FpgaDevice::virtex1000();
    let synthesis = SynthesisOptions::default();
    for case in paper_cases() {
        let prep = PreparedKernel::prepare(&case.kernel).expect("prepare");
        let points = full_space(&case.kernel);
        assert!(!points.is_empty(), "{}: empty space", case.name);
        for u in &points {
            let scratch = transform(&case.kernel, u, &opts).expect("scratch");
            let prepared = prep.transform(u, &opts).expect("prepared");
            assert_same_design(case.name, u, &prepared, &scratch);
            let e_scratch = estimate_opts(&scratch, &mem, &device, &synthesis);
            let e_prepared = estimate_opts(&prepared, &mem, &device, &synthesis);
            assert_eq!(
                e_prepared, e_scratch,
                "{} {u}: estimates diverge",
                case.name
            );
        }
    }
}

fn option_variants() -> Vec<(&'static str, TransformOptions)> {
    let base = TransformOptions::default;
    vec![
        ("default", base()),
        (
            "no-scalar-replacement",
            TransformOptions {
                scalar_replacement: false,
                ..base()
            },
        ),
        (
            "no-peel",
            TransformOptions {
                peel: false,
                ..base()
            },
        ),
        (
            "no-redundant-write-elim",
            TransformOptions {
                redundant_write_elim: false,
                ..base()
            },
        ),
        (
            "shared-memory-layout",
            TransformOptions {
                custom_layout: false,
                ..base()
            },
        ),
        (
            "register-budget-8",
            TransformOptions {
                register_budget: Some(8),
                ..base()
            },
        ),
        (
            "register-budget-2",
            TransformOptions {
                register_budget: Some(2),
                ..base()
            },
        ),
        (
            "verify-each-pass",
            TransformOptions {
                verify_each_pass: true,
                ..base()
            },
        ),
    ]
}

/// Representative points under every pipeline option: the prepared path
/// takes different shortcuts per option (e.g. it never materializes the
/// jammed body unless scalar replacement is off or per-pass verification
/// is on), and each shortcut must stay invisible in the output. The
/// tier-0 census of each point must match the materialized design too.
#[test]
fn option_variants_are_bit_identical() {
    for case in paper_cases() {
        let prep = PreparedKernel::prepare(&case.kernel).expect("prepare");
        let points = full_space(&case.kernel);
        // First, middle and last points of the walk: unit factors, a
        // mixed interior point, and the maximal-unroll corner.
        let picks = [0, points.len() / 2, points.len() - 1];
        for (label, opts) in option_variants() {
            for &i in &picks {
                let u = &points[i];
                let scratch = transform(&case.kernel, u, &opts)
                    .unwrap_or_else(|e| panic!("{} {u} [{label}]: scratch: {e}", case.name));
                let prepared = prep
                    .transform(u, &opts)
                    .unwrap_or_else(|e| panic!("{} {u} [{label}]: prepared: {e}", case.name));
                let name = format!("{} [{label}]", case.name);
                assert_same_design(&name, u, &prepared, &scratch);
                let census = prep
                    .census(u, &opts)
                    .unwrap_or_else(|e| panic!("{name} {u}: census: {e}"));
                assert_census_matches(&name, u, &census, &prepared);
            }
        }
    }
}

/// End-to-end semantics: designs from the prepared path compute the same
/// outputs as the untransformed kernel on concrete inputs.
#[test]
fn prepared_designs_preserve_interpreter_semantics() {
    let opts = TransformOptions::default();
    for case in paper_cases() {
        let inputs: Vec<(&str, Vec<i64>)> =
            case.inputs.iter().map(|(n, v)| (*n, v.clone())).collect();
        let (w0, _) = run_with_inputs(&case.kernel, &inputs).expect("original runs");
        let prep = PreparedKernel::prepare(&case.kernel).expect("prepare");
        let points = full_space(&case.kernel);
        for &i in &[0, points.len() / 2, points.len() - 1] {
            let u = &points[i];
            let design = prep.transform(u, &opts).expect("prepared");
            let (w1, _) = run_with_inputs(&design.kernel, &inputs).expect("design runs");
            assert_eq!(
                w0.array(case.output),
                w1.array(case.output),
                "{} {u}: output `{}` diverges after prepared transform",
                case.name,
                case.output
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random (kernel, point, option) triples: the prepared design is
    /// the scratch design.
    #[test]
    fn prop_prepared_matches_scratch(
        kernel_idx in 0usize..5,
        point_sel in 0usize..1usize << 16,
        variant_idx in 0usize..8,
    ) {
        let case = &paper_cases()[kernel_idx];
        let (label, opts) = &option_variants()[variant_idx];
        let points = full_space(&case.kernel);
        let u = &points[point_sel % points.len()];
        let prep = PreparedKernel::prepare(&case.kernel).expect("prepare");
        let scratch = transform(&case.kernel, u, opts).expect("scratch");
        let prepared = prep.transform(u, opts).expect("prepared");
        prop_assert_eq!(
            &prepared,
            &scratch,
            "{} {} [{}]: prepared != scratch",
            case.name,
            u,
            label
        );
    }
}
