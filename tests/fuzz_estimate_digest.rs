//! Golden digest of tier-1 estimates on generated kernels.
//!
//! `tests/estimate_digest.rs` pins every joint estimate of the paper
//! kernels, which have no `if`, no designer operator bounds and never run
//! the slack-priority list scheduler. Generated kernels reach those
//! shapes: boundary guards that lower to predicated multiplexers,
//! `rotate` chains, accumulators and mixed widths. For each generated
//! kernel that lints with no error but a mixed-type rotate (`DF013`, an
//! error only since the digest was recorded), this test transforms the
//! smallest, the largest and one middle point of its unroll space, plans
//! one estimate with narrowed annotations, and estimates all four
//! narrowing/packing flag pairs under two configurations: the pipelined
//! memory with default options, and the non-pipelined memory with at
//! most one multiplier, at most two adders and least-slack-first
//! priority. The `Debug` text of
//! every estimate feeds one FNV-1a digest, recorded before the estimator's
//! allocation sweep, fetch sharing, range fixpoint and DFG builder were
//! reworked, and re-recorded when the grammar gained a delay-line
//! statement group, which changed 17 of the 300 generated kernels.

mod common;

use common::{generated_kernels, sample_points, Digest};
use defacto_fuzz::generate_kernel;
use defacto_synth::{
    EstimatePlan, FpgaDevice, HwOp, ListPriority, MemoryModel, ResourceConstraints,
    SynthesisOptions,
};
use defacto_xform::{transform, TransformOptions};

/// Every `(narrow, pack)` flag pair.
const FLAGS: [(bool, bool); 4] = [(false, false), (false, true), (true, false), (true, true)];

#[test]
fn generated_kernel_estimates_are_pinned() {
    let configs = [
        (
            MemoryModel::wildstar_pipelined(),
            SynthesisOptions::default(),
        ),
        (
            MemoryModel::wildstar_non_pipelined(),
            SynthesisOptions {
                constraints: ResourceConstraints::new()
                    .with_limit(HwOp::Mul, 1)
                    .with_limit(HwOp::AddSub, 2),
                priority: ListPriority::Slack,
                ..SynthesisOptions::default()
            },
        ),
    ];
    let dev = FpgaDevice::default();
    let opts = TransformOptions::default();
    let mut digest = Digest::new();
    let mut kernels_with_if = 0usize;
    for (source, kernel) in generated_kernels(generate_kernel) {
        let Some(points) = sample_points(&kernel) else {
            continue;
        };
        kernels_with_if += usize::from(source.contains("if "));
        for u in &points {
            let Ok(design) = transform(&kernel, u, &opts) else {
                continue;
            };
            for (mem, synth) in &configs {
                for e in EstimatePlan::new(&design, mem, &dev, synth, true).estimates(&FLAGS) {
                    digest.add(&format!("{e:?}"));
                }
            }
        }
    }
    assert_eq!(
        (digest.count, kernels_with_if, digest.hash),
        (5760, 62, 0x937b_eef0_4b3f_f574),
        "generated-kernel estimates moved: {} estimates, \
         {kernels_with_if} kernels with `if`, digest {:#018x}",
        digest.count,
        digest.hash
    );
}
