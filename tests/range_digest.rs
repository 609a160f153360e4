//! Golden digest of inferred value ranges.
//!
//! Bit-width narrowing sizes every register, operator and packed load
//! from [`RangeInfo`]. The estimate digests pin what the estimator makes
//! of those ranges; this test pins the ranges themselves: every entry of
//! every table (values and accumulation bases, scalars and arrays),
//! sorted by name, of
//!
//! - each paper kernel and the design of every sibling group of its
//!   joint space over all axes (default transform options; the narrowing
//!   and packing axes do not change the code);
//! - each generated kernel `tests/fuzz_estimate_digest.rs` estimates, and
//!   the designs at the smallest, a middle and the largest point of its
//!   unroll space.
//!
//! Each digest is FNV-1a over the text of the ranges in enumeration
//! order. The generated digest was re-recorded when the grammar gained a
//! delay-line statement group, which changed 17 of the 300 generated
//! kernels.

use defacto::{lint_source, Axis, Explorer, JointPoint};
use defacto_analysis::{infer_ranges, RangeInfo};
use defacto_fuzz::generate_kernel;
use defacto_ir::diag::codes;
use defacto_ir::{parse_kernel, Kernel};
use defacto_xform::{transform, TransformOptions, UnrollVector, VariantCache};
use std::fmt::Write as _;

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

/// A running digest: kernel count and hash.
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

    /// Add the ranges inferred for `kernel`.
    fn add(&mut self, kernel: &Kernel) {
        let text = ranges_text(&infer_ranges(kernel));
        self.hash = fnv1a(fnv1a(self.hash, text.as_bytes()), b"\n");
        self.count += 1;
    }
}

/// One line per table, `name=lo..hi` entries in name order.
fn ranges_text(info: &RangeInfo) -> String {
    let mut text = String::new();
    for (table, entries) in ["vars", "var_base", "arrays", "array_base"]
        .iter()
        .zip(info.sorted_entries())
    {
        let _ = write!(text, "{table}:");
        for (name, v) in entries {
            let _ = write!(text, " {name}={}..{}", v.lo, v.hi);
        }
        text.push('\n');
    }
    text
}

#[test]
fn paper_kernel_ranges_are_pinned() {
    let mut digest = Digest::new();
    let opts = TransformOptions::default();
    for (_, kernel) in defacto_kernels::paper_kernels() {
        digest.add(&kernel);
        let space = Explorer::new(&kernel)
            .axes(&Axis::ALL)
            .joint_space()
            .expect("paper joint space builds");
        let variants = VariantCache::new(&kernel).expect("paper variants build");
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
            let design = variants
                .get(&p.permutation, p.tile)
                .and_then(|v| match &v.prepared {
                    Some(prepared) => prepared.transform(&unroll, &opts),
                    None => transform(&v.kernel, &unroll, &opts),
                })
                .expect("paper design transforms");
            digest.add(&design.kernel);
        }
    }
    assert_eq!(
        (digest.count, digest.hash),
        (485, 0x6435_f6d6_a41c_627e),
        "paper-kernel ranges moved: {} kernels, digest {:#018x}",
        digest.count,
        digest.hash
    );
}

#[test]
fn generated_kernel_ranges_are_pinned() {
    let mut digest = Digest::new();
    let opts = TransformOptions::default();
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
        digest.add(&kernel);
        let middle = space.iter().nth((size / 2) as usize);
        for u in [Some(space.base_vector()), middle, Some(space.max_vector())]
            .into_iter()
            .flatten()
        {
            if let Ok(design) = transform(&kernel, &u, &opts) {
                digest.add(&design.kernel);
            }
        }
    }
    assert_eq!(
        (digest.count, digest.hash),
        (960, 0x1240_1e61_b1df_8bd4),
        "generated-kernel ranges moved: {} kernels, digest {:#018x}",
        digest.count,
        digest.hash
    );
}
