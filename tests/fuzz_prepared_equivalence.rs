//! Prepared equals scratch on generated kernels.
//!
//! `tests/incremental_equivalence.rs` pins `PreparedKernel::transform`
//! against the scratch pipeline on the paper kernels. Generated kernels
//! reach shapes those never send into the peel and load-hoist tails:
//! boundary `if` guards, `rotate` chains, `abs`, accumulators and mixed
//! widths. For each generated kernel the front end accepts, this test
//! transforms the smallest, the largest and one middle point of its
//! unroll space both ways under default options and requires the results
//! (designs or errors) to be equal. The tier-0 census of each point must
//! fail exactly when the transform fails and otherwise predict its
//! scalar-replacement counts.

use defacto::{lint_source, Explorer};
use defacto_fuzz::generate_kernel;
use defacto_ir::parse_kernel;
use defacto_xform::{transform, PreparedKernel, TransformOptions, UnrollVector};

/// Campaign seed and kernel indices: the same kernels the CI fuzz smoke
/// run starts from.
const SEED: u64 = 7;
const KERNELS: std::ops::Range<u64> = 0..300;

#[test]
fn prepared_transform_matches_scratch_on_generated_kernels() {
    let opts = TransformOptions::default();
    let mut compared = 0usize;
    for index in KERNELS {
        let source = generate_kernel(SEED, index);
        let Ok(kernel) = parse_kernel(&source) else {
            continue;
        };
        if lint_source(&source).has_errors() {
            continue;
        }
        let Ok(prepared) = PreparedKernel::prepare(&kernel) else {
            continue;
        };
        let Ok((_, space)) = Explorer::new(&kernel).analyze() else {
            continue;
        };
        let size = space.size();
        if size == 0 {
            continue;
        }
        let middle = space.iter().nth((size / 2) as usize);
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
                "kernel {SEED}/{index} at {u}: prepared and scratch transforms differ\n{source}"
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
                        "kernel {SEED}/{index} at {u}: census counts diverge\n{source}"
                    );
                    let classes: usize = c.registers.iter().map(|r| r.count).sum();
                    assert_eq!(
                        classes,
                        c.total_registers(),
                        "kernel {SEED}/{index} at {u}: register classes\n{source}"
                    );
                }
                (Err(_), Err(_)) => {}
                _ => panic!(
                    "kernel {SEED}/{index} at {u}: census is {} but transform is {}\n{source}",
                    if census.is_ok() { "Ok" } else { "Err" },
                    if incremental.is_ok() { "Ok" } else { "Err" },
                ),
            }
            compared += 1;
        }
    }
    // Most generated kernels pass the front end; a generator change that
    // rejects them all would make this test vacuous.
    assert!(compared >= 300, "only {compared} points compared");
}
