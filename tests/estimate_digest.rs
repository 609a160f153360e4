//! Golden digest of every joint estimate.
//!
//! The committed winners (`expected.json`, `BENCH_joint.json`) pin only
//! the selected design of each kernel. This test pins *every* estimate
//! of the full-fidelity joint sweep over all axes: it hashes the `Debug`
//! text of each [`EvaluatedJointDesign`] in sweep order and compares the
//! digest with one recorded before the estimator's value representation
//! was reworked. A change that moves any estimate of any point — cycles,
//! slices, busy times, balance, provenance — changes the digest.

use defacto::prelude::*;

/// 64-bit FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Digest of the sweep, point by point, plus its length.
fn sweep_digest(kernel: &Kernel) -> (usize, u64) {
    let sweep = Explorer::new(kernel)
        .axes(&Axis::ALL)
        .fidelity(Fidelity::Full)
        .joint_sweep()
        .expect("joint sweep succeeds");
    let hash = sweep.iter().fold(0xcbf2_9ce4_8422_2325, |h, d| {
        fnv1a(fnv1a(h, format!("{d:?}").as_bytes()), b"\n")
    });
    (sweep.len(), hash)
}

fn check(kernel: &Kernel, expected: (usize, u64)) {
    let (points, hash) = sweep_digest(kernel);
    assert_eq!(
        (points, hash),
        expected,
        "joint estimates moved: {points} points, digest {hash:#018x}"
    );
}

#[test]
fn fir_joint_estimates_are_pinned() {
    check(&defacto_kernels::fir::kernel(), (93, 0x3b3c_a759_5170_b604));
}

#[test]
fn mm_joint_estimates_are_pinned() {
    check(
        &defacto_kernels::matmul::kernel(),
        (116, 0x0475_7914_df25_00b6),
    );
}

#[test]
fn pat_joint_estimates_are_pinned() {
    check(
        &defacto_kernels::pattern::kernel(),
        (222, 0xce66_4932_c135_4641),
    );
}

#[test]
fn jac_joint_estimates_are_pinned() {
    check(
        &defacto_kernels::jacobi::kernel(),
        (160, 0xc4d1_a528_e10f_5344),
    );
}

#[test]
fn sobel_joint_estimates_are_pinned() {
    check(
        &defacto_kernels::sobel::kernel_sized(10),
        (144, 0x79df_4357_c510_cb90),
    );
}
