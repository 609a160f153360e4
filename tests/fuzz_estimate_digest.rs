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

use defacto::{lint_source, Explorer};
use defacto_fuzz::generate_kernel;
use defacto_ir::diag::codes;
use defacto_ir::parse_kernel;
use defacto_synth::{
    EstimatePlan, FpgaDevice, HwOp, ListPriority, MemoryModel, ResourceConstraints,
    SynthesisOptions,
};
use defacto_xform::{transform, TransformOptions, UnrollVector};

/// Campaign seed and kernel indices: the same kernels the CI fuzz smoke
/// run starts from.
const SEED: u64 = 7;
const KERNELS: std::ops::Range<u64> = 0..300;

/// Every `(narrow, pack)` flag pair.
const FLAGS: [(bool, bool); 4] = [(false, false), (false, true), (true, false), (true, true)];

/// 64-bit FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

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
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut estimates = 0usize;
    let mut kernels_with_if = 0usize;
    for index in KERNELS {
        let source = generate_kernel(SEED, index);
        let Ok(kernel) = parse_kernel(&source) else {
            continue;
        };
        // Mixed-type rotates became a lint error (DF013) after this
        // digest was recorded; they still transform, so they stay in.
        if lint_source(&source)
            .diagnostics
            .iter()
            .any(|d| d.is_error() && d.code != codes::ROTATE_MIXED_TYPES)
        {
            continue;
        }
        let Ok((_, space)) = Explorer::new(&kernel).analyze() else {
            continue;
        };
        let size = space.size();
        if size == 0 {
            continue;
        }
        kernels_with_if += usize::from(source.contains("if "));
        let middle = space.iter().nth((size / 2) as usize);
        let points: Vec<UnrollVector> =
            [Some(space.base_vector()), middle, Some(space.max_vector())]
                .into_iter()
                .flatten()
                .collect();
        for u in &points {
            let Ok(design) = transform(&kernel, u, &opts) else {
                continue;
            };
            for (mem, synth) in &configs {
                for e in EstimatePlan::new(&design, mem, &dev, synth, true).estimates(&FLAGS) {
                    hash = fnv1a(fnv1a(hash, format!("{e:?}").as_bytes()), b"\n");
                    estimates += 1;
                }
            }
        }
    }
    assert_eq!(
        (estimates, kernels_with_if, hash),
        (5760, 62, 0xe23a_11ab_38d6_5b12),
        "generated-kernel estimates moved: {estimates} estimates, \
         {kernels_with_if} kernels with `if`, digest {hash:#018x}"
    );
}
