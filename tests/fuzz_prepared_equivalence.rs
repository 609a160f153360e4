//! Prepared equals scratch on generated kernels and the paper kernels.
//!
//! `tests/incremental_equivalence.rs` pins `PreparedKernel::transform`
//! against the scratch pipeline on the paper kernels' whole spaces.
//! Generated kernels reach shapes those never send into the peel and
//! load-hoist tails: boundary `if` guards, `rotate` chains, `abs`,
//! accumulators and mixed widths. For each kernel the front end accepts,
//! this test transforms the smallest, the largest and one middle point of
//! its unroll space both ways under default options and requires the
//! results (designs or errors) to be equal. The tier-0 census of each
//! point must fail exactly when the transform fails and otherwise predict
//! its scalar-replacement counts.
//!
//! It is also why the library has no scratch fallback. The library
//! reaches every design through one preparation per kernel or variant,
//! and reports a preparation error as the kernel's. That is sound when:
//!
//! - a kernel that does not prepare fails the scratch transform too, at
//!   the all-ones vector, with the same error;
//! - every `(permutation, tile)` of a prepared kernel's all-axes joint
//!   space yields a prepared variant.

use defacto::{lint_source, Axis, Explorer};
use defacto_fuzz::generate_kernel;
use defacto_ir::{parse_kernel, Kernel};
use defacto_xform::{transform, PreparedKernel, TransformOptions, UnrollVector, VariantCache};
use std::collections::BTreeSet;

/// Campaign seed and kernel indices: the same kernels the CI fuzz smoke
/// run starts from.
const SEED: u64 = 7;
const KERNELS: std::ops::Range<u64> = 0..300;

/// Kernels that parse and lint clean but are no perfect nest.
const UNPREPARED: [(&str, &str); 3] = [
    (
        "siblings",
        "kernel sib { in A: i32[8]; out B: i32[8]; out C: i32[8];
           for i in 0..8 { B[i] = A[i] + 1; }
           for j in 0..8 { C[j] = A[j] * 2; } }",
    ),
    (
        "inner-siblings",
        "kernel isib { in A: i32[4][8]; out B: i32[4][8]; out C: i32[4][8];
           for i in 0..4 {
             for j in 0..8 { B[i][j] = A[i][j] + 1; }
             for j in 0..8 { C[i][j] = A[i][j] * 2; } } }",
    ),
    (
        "loop-then-store",
        "kernel tail { in A: i32[8]; out B: i32[9];
           for i in 0..8 { B[i] = A[i]; }
           B[8] = 0; }",
    ),
];

/// Every kernel the test checks, with a label and its source: the five
/// paper kernels, the hand-written unprepared ones, and every seed-7
/// generated kernel that parses and lints with no error.
fn kernels() -> Vec<(String, String, Kernel)> {
    let paper = defacto_kernels::paper_kernel_sources()
        .into_iter()
        .map(|(name, source)| (name.to_string(), source));
    let unprepared = UNPREPARED
        .iter()
        .map(|(name, source)| (name.to_string(), source.to_string()));
    let generated = KERNELS.map(|index| (format!("{SEED}/{index}"), generate_kernel(SEED, index)));
    paper
        .chain(unprepared)
        .chain(generated)
        .filter_map(|(label, source)| {
            let kernel = parse_kernel(&source).ok()?;
            (!lint_source(&source).has_errors()).then_some((label, source, kernel))
        })
        .collect()
}

#[test]
fn prepared_transform_matches_scratch_on_generated_kernels() {
    let opts = TransformOptions::default();
    let (mut compared, mut unprepared, mut variants_checked) = (0usize, 0usize, 0usize);
    for (label, source, kernel) in kernels() {
        let prepared = match PreparedKernel::prepare(&kernel) {
            Ok(prepared) => prepared,
            Err(e) => {
                let ones = UnrollVector::ones(kernel.loop_vars().len());
                assert_eq!(
                    transform(&kernel, &ones, &opts),
                    Err(e),
                    "kernel {label}: the scratch transform at all-ones and prepare disagree\n{source}"
                );
                unprepared += 1;
                continue;
            }
        };
        let (_, space) = Explorer::new(&kernel)
            .analyze()
            .unwrap_or_else(|e| panic!("kernel {label} prepares but does not analyze: {e}"));
        let middle = space.iter().nth((space.size() / 2) as usize);
        let points: Vec<UnrollVector> =
            [Some(space.base_vector()), middle, Some(space.max_vector())]
                .into_iter()
                .flatten()
                .collect();
        for u in &points {
            let scratch = transform(&kernel, u, &opts);
            let incremental = prepared.transform(u, &opts);
            assert_eq!(
                incremental, scratch,
                "kernel {label} at {u}: prepared and scratch transforms differ\n{source}"
            );
            let census = prepared.census(u, &opts);
            match (&census, &incremental) {
                (Ok(c), Ok(d)) => {
                    assert_eq!(
                        (
                            c.reuse_registers,
                            c.temp_registers,
                            c.chains,
                            c.dropped_by_budget
                        ),
                        (
                            d.info.reuse_registers,
                            d.info.temp_registers,
                            d.info.chains,
                            d.info.dropped_by_budget
                        ),
                        "kernel {label} at {u}: census counts diverge\n{source}"
                    );
                    let classes: usize = c.registers.iter().map(|r| r.count).sum();
                    assert_eq!(
                        classes,
                        c.total_registers(),
                        "kernel {label} at {u}: register classes\n{source}"
                    );
                }
                (Err(_), Err(_)) => {}
                _ => panic!(
                    "kernel {label} at {u}: census is {} but transform is {}\n{source}",
                    if census.is_ok() { "Ok" } else { "Err" },
                    if incremental.is_ok() { "Ok" } else { "Err" },
                ),
            }
            compared += 1;
        }

        let joint = Explorer::new(&kernel)
            .axes(&Axis::ALL)
            .joint_space()
            .unwrap_or_else(|e| panic!("kernel {label} prepares but has no joint space: {e}"));
        let keys: BTreeSet<_> = joint
            .joint_points()
            .iter()
            .map(|p| (p.permutation.clone(), p.tile))
            .collect();
        let cache = VariantCache::new(&kernel).expect("a prepared kernel builds its variants");
        for (permutation, tile) in keys {
            let variant = cache.get(&permutation, tile).unwrap_or_else(|e| {
                panic!("kernel {label}: variant {permutation:?} {tile:?} does not prepare: {e}")
            });
            assert!(variant.prepared.is_some());
            variants_checked += 1;
        }
    }
    eprintln!(
        "{compared} points compared, {unprepared} kernels do not prepare, \
         {variants_checked} joint variants prepared"
    );
    // Most generated kernels pass the front end; a generator change that
    // rejects them all would make this test vacuous, and so would a
    // front end that rejected the unprepared kernels.
    assert!(compared >= 300, "only {compared} points compared");
    assert!(
        unprepared >= UNPREPARED.len(),
        "only {unprepared} unprepared kernels"
    );
    assert!(
        variants_checked >= 300,
        "only {variants_checked} variants checked"
    );
}
