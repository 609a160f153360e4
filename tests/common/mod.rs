//! What the digest pins share: one FNV-1a digest, the seed-7 generated
//! kernels, and the designs of a joint space's sibling groups.
//!
//! Each pin includes this module with `mod common;` and uses what it
//! needs, so some helpers are unused in any one test binary.
#![allow(dead_code)]

use defacto::{lint_source, Axis, Explorer, JointPoint};
use defacto_ir::{parse_kernel, Kernel};
use defacto_xform::{Result, TransformOptions, TransformedDesign, UnrollVector, VariantCache};

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

/// A running digest: result count and FNV-1a hash over each result's
/// text followed by a newline.
pub struct Digest {
    pub count: usize,
    pub hash: u64,
}

impl Digest {
    pub fn new() -> Self {
        Digest {
            count: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    pub fn add(&mut self, text: &str) {
        self.hash = fnv1a(fnv1a(self.hash, text.as_bytes()), b"\n");
        self.count += 1;
    }
}

/// The generated kernels the pins digest, with their sources: every
/// kernel `generate(SEED, index)` makes that parses and lints with no
/// error.
pub fn generated_kernels(
    generate: fn(u64, u64) -> String,
) -> impl Iterator<Item = (String, Kernel)> {
    KERNELS.filter_map(move |index| {
        let source = generate(SEED, index);
        let kernel = parse_kernel(&source).ok()?;
        (!lint_source(&source).has_errors()).then_some((source, kernel))
    })
}

/// Default options, peeling off, an eight-register budget, and scalar
/// replacement off.
pub fn option_sets() -> [TransformOptions; 4] {
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

/// The first point of every sibling group of `kernel`'s joint space
/// (all axes), with the unroll vector its code is built at, and the
/// variants that build it; `None` when the space or the variants do
/// not build.
pub fn sibling_groups(kernel: &Kernel) -> Option<(VariantCache, Vec<(JointPoint, UnrollVector)>)> {
    let space = Explorer::new(kernel).axes(&Axis::ALL).joint_space().ok()?;
    let variants = VariantCache::new(kernel).ok()?;
    let same_code = |a: &JointPoint, b: &JointPoint| {
        a.unroll == b.unroll && a.permutation == b.permutation && a.tile == b.tile
    };
    let groups = space
        .joint_points()
        .chunk_by(same_code)
        .map(|group| {
            let p = group[0].clone();
            // Tiling deepens the nest by one; tiled points sit at all-ones.
            let unroll = match p.tile {
                Some(_) => UnrollVector::ones(p.unroll.len() + 1),
                None => p.unroll_vector(),
            };
            (p, unroll)
        })
        .collect();
    Some((variants, groups))
}

/// The design of `p`'s variant at `unroll`, as the explorer builds it.
pub fn design(
    variants: &VariantCache,
    p: &JointPoint,
    unroll: &UnrollVector,
    opts: &TransformOptions,
) -> Result<TransformedDesign> {
    variants
        .prepared(&p.permutation, p.tile)
        .and_then(|prepared| prepared.transform(unroll, opts))
}

/// The smallest, a middle and the largest point of `kernel`'s unroll
/// space; `None` when the kernel does not analyze or its space is empty.
pub fn sample_points(kernel: &Kernel) -> Option<Vec<UnrollVector>> {
    let (_, space) = Explorer::new(kernel).analyze().ok()?;
    let size = space.size();
    if size == 0 {
        return None;
    }
    let middle = space.iter().nth((size / 2) as usize);
    Some(
        [Some(space.base_vector()), middle, Some(space.max_vector())]
            .into_iter()
            .flatten()
            .collect(),
    )
}
