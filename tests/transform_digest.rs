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

use defacto::{lint_source, Axis, Explorer, JointPoint};
use defacto_fuzz::generate_kernel;
use defacto_ir::diag::codes;
use defacto_ir::{parse_kernel, Kernel};
use defacto_xform::{transform, TransformOptions, UnrollVector, VariantCache};

/// Campaign seed and kernel indices: the same kernels the fuzz smoke
/// starts from.
const SEED: u64 = 7;
const KERNELS: std::ops::Range<u64> = 0..300;

/// 64-bit FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A running digest: design count and hash.
struct Digest {
    count: usize,
    hash: u64,
}

impl Digest {
    fn new() -> Self {
        Digest {
            count: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn add(&mut self, text: &str) {
        self.hash = fnv1a(fnv1a(self.hash, text.as_bytes()), b"\n");
        self.count += 1;
    }
}

/// Default options, peeling off, an eight-register budget, and scalar
/// replacement off.
fn options() -> [TransformOptions; 4] {
    [
        TransformOptions::default(),
        TransformOptions {
            peel: false,
            ..TransformOptions::default()
        },
        TransformOptions {
            register_budget: Some(8),
            ..TransformOptions::default()
        },
        TransformOptions {
            scalar_replacement: false,
            ..TransformOptions::default()
        },
    ]
}

/// Add the design of every sibling group of `kernel`'s joint space under
/// each option set. Kernels whose joint space does not build add
/// nothing; a variant that does not prepare takes the scratch pipeline,
/// as the explorer does.
fn add_joint_designs(digest: &mut Digest, kernel: &Kernel) {
    let Ok(space) = Explorer::new(kernel).axes(&Axis::ALL).joint_space() else {
        return;
    };
    let Ok(variants) = VariantCache::new(kernel) else {
        return;
    };
    let same_code = |a: &JointPoint, b: &JointPoint| {
        a.unroll == b.unroll && a.permutation == b.permutation && a.tile == b.tile
    };
    for group in space.joint_points().chunk_by(same_code) {
        let p = &group[0];
        // Tiling deepens the nest by one; tiled points sit at all-ones.
        let unroll = match p.tile {
            Some(_) => UnrollVector::ones(p.unroll.len() + 1),
            None => p.unroll_vector(),
        };
        for opts in &options() {
            let design = variants
                .get(&p.permutation, p.tile)
                .and_then(|v| match &v.prepared {
                    Some(prepared) => prepared.transform(&unroll, opts),
                    None => transform(&v.kernel, &unroll, opts),
                });
            let text = match design {
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
        add_joint_designs(&mut digest, &kernel);
    }
    assert_eq!(
        (digest.count, digest.hash),
        (31496, 0x1cfe_1a61_de4b_938c),
        "generated designs moved: {} designs, digest {:#018x}",
        digest.count,
        digest.hash
    );
}
