//! Golden digests of the transformed designs themselves.
//!
//! `tests/estimate_digest.rs` and `tests/tier0_digest.rs` pin what the
//! estimators make of a design. This test pins the design: the printed
//! kernel of every [`PreparedKernel::transform`] (register names and
//! declarations, hoisted temporaries, statement order) together with its
//! [`ScalarReplacementInfo`](defacto_xform::ScalarReplacementInfo), one
//! design per sibling group of the joint spaces (all axes) of the five
//! paper kernels and of the generated kernels the fuzz smoke starts
//! from, under the option sets `tier0_digest.rs` takes its censuses
//! under. A renamed or reordered register fails here even when every
//! estimate stays the same.
//!
//! Each digest is FNV-1a over the text of the results in enumeration
//! order, errors included. The generated digest was re-recorded when the
//! grammar gained a delay-line statement group, which changed 17 of the
//! 300 generated kernels.

mod common;

use common::{design, generated_kernels, option_sets, sibling_groups, Digest};
use defacto_fuzz::generate_kernel;
use defacto_ir::Kernel;

/// Add the design of every sibling group of `kernel`'s joint space under
/// each option set. Kernels whose joint space does not build add
/// nothing.
fn add_joint_designs(digest: &mut Digest, kernel: &Kernel) {
    let Some((variants, groups)) = sibling_groups(kernel) else {
        return;
    };
    for (p, unroll) in &groups {
        for opts in &option_sets() {
            let text = match design(&variants, p, unroll, opts) {
                Ok(d) => format!("{}{:?}", d.kernel, d.info),
                Err(e) => format!("{e:?}"),
            };
            digest.add(&text);
        }
    }
}

#[test]
fn paper_joint_space_designs_are_pinned() {
    let mut digest = Digest::new();
    for (_, kernel) in defacto_kernels::paper_kernels() {
        add_joint_designs(&mut digest, &kernel);
    }
    assert_eq!(
        (digest.count, digest.hash),
        (1920, 0x28c0_395d_edb3_289d),
        "paper-kernel designs moved: {} designs, digest {:#018x}",
        digest.count,
        digest.hash
    );
}

#[test]
fn generated_joint_space_designs_are_pinned() {
    let mut digest = Digest::new();
    for (_, kernel) in generated_kernels(generate_kernel) {
        add_joint_designs(&mut digest, &kernel);
    }
    assert_eq!(
        (digest.count, digest.hash),
        (31496, 0x69ab_9b35_0c46_ad14),
        "generated designs moved: {} designs, digest {:#018x}",
        digest.count,
        digest.hash
    );
}
