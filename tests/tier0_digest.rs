//! Golden digests of tier 0: every census and every paper-kernel band.
//!
//! `tests/estimate_digest.rs` pins tier 1. These digests pin what the
//! tier-0 filter prices from:
//!
//! - every [`PointCensus`] of the joint spaces (all axes) of the five
//!   paper kernels and of the generated kernels the CI fuzz smoke starts
//!   from, under four transform option sets, one census per sibling
//!   group (the census ignores the narrow/pack flags);
//! - every [`AnalyticBand`] of the paper kernels over their unroll
//!   spaces, under both memory models and four synthesis option sets.
//!
//! Each digest is FNV-1a over the `Debug` text of the results in
//! enumeration order, errors included. The band digest was recorded
//! before the census's offset storage was reworked; the census digest
//! was re-recorded when the census began to count user `rotate`s, which
//! moved `rotates_per_body` of the 320 censuses of the 24 generated
//! kernels that rotate and nothing else, and re-recorded again when the
//! grammar gained a delay-line statement group, which changed 17 of the
//! 300 generated kernels. A change that moves any count
//! of any census, or any bound of any band, changes a digest.

use defacto::{lint_source, Axis, Explorer, JointPoint};
use defacto_fuzz::generate_kernel;
use defacto_ir::diag::codes;
use defacto_ir::{parse_kernel, Kernel};
use defacto_synth::{AnalyticModel, FpgaDevice, ListPriority, MemoryModel, SynthesisOptions};
use defacto_xform::{PreparedKernel, TransformOptions, UnrollVector, VariantCache};
use std::sync::Arc;

/// Campaign seed and kernel indices: the same kernels the CI fuzz smoke
/// run starts from.
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

/// A running digest: result count and hash.
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

    fn add(&mut self, value: &impl std::fmt::Debug) {
        self.hash = fnv1a(fnv1a(self.hash, format!("{value:?}").as_bytes()), b"\n");
        self.count += 1;
    }
}

/// Default options, peeling off, an eight-register budget, and scalar
/// replacement off.
fn census_options() -> [TransformOptions; 4] {
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

/// Add the census of every sibling group of `kernel`'s joint space under
/// each option set. Kernels whose joint space does not build add nothing.
fn add_joint_censuses(digest: &mut Digest, kernel: &Kernel, options: &[TransformOptions]) {
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
        for opts in options {
            digest.add(&variants.census(&p.permutation, p.tile, &unroll, opts));
        }
    }
}

#[test]
fn joint_space_censuses_are_pinned() {
    let options = census_options();
    let mut digest = Digest::new();
    for (_, kernel) in defacto_kernels::paper_kernels() {
        add_joint_censuses(&mut digest, &kernel, &options);
    }
    let paper = digest.count;
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
        add_joint_censuses(&mut digest, &kernel, &options);
    }
    assert_eq!(
        (paper, digest.count, digest.hash),
        (1920, 33416, 0x86a8_c9e8_2be1_d412),
        "tier-0 censuses moved: {paper} paper-kernel censuses, {} in all, digest {:#018x}",
        digest.count,
        digest.hash
    );
}

#[test]
fn paper_kernel_bands_are_pinned() {
    let memories = [
        MemoryModel::wildstar_pipelined(),
        MemoryModel::wildstar_non_pipelined(),
    ];
    let narrow = |priority| SynthesisOptions {
        bitwidth_narrowing: true,
        priority,
        ..SynthesisOptions::default()
    };
    let synth_options = [
        SynthesisOptions::default(),
        SynthesisOptions {
            pack_small_types: true,
            ..narrow(ListPriority::Asap)
        },
        SynthesisOptions {
            priority: ListPriority::Slack,
            ..SynthesisOptions::default()
        },
        narrow(ListPriority::Slack),
    ];
    let mut digest = Digest::new();
    for (_, kernel) in defacto_kernels::paper_kernels() {
        let (_, space) = Explorer::new(&kernel)
            .analyze()
            .expect("paper kernel analyzes");
        let prepared = Arc::new(PreparedKernel::prepare(&kernel).expect("paper kernel prepares"));
        for mem in &memories {
            for sopts in &synth_options {
                let model = AnalyticModel::new(
                    Arc::clone(&prepared),
                    mem.clone(),
                    FpgaDevice::default(),
                    TransformOptions::default(),
                    sopts.clone(),
                )
                .expect("no operator limits, so the model builds");
                for u in space.iter() {
                    digest.add(&model.evaluate(&u));
                }
            }
        }
    }
    assert_eq!(
        (digest.count, digest.hash),
        (1456, 0x001e_de37_a359_bb99),
        "paper-kernel bands moved: {} bands, digest {:#018x}",
        digest.count,
        digest.hash
    );
}
