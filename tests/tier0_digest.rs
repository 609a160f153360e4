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

mod common;

use common::{generated_kernels, option_sets, sibling_groups, Digest};
use defacto::Explorer;
use defacto_fuzz::generate_kernel;
use defacto_ir::Kernel;
use defacto_synth::{AnalyticModel, FpgaDevice, ListPriority, MemoryModel, SynthesisOptions};
use defacto_xform::{PreparedKernel, TransformOptions};
use std::sync::Arc;

/// Add the census of every sibling group of `kernel`'s joint space under
/// each option set. Kernels whose joint space does not build add nothing.
fn add_joint_censuses(digest: &mut Digest, kernel: &Kernel, options: &[TransformOptions]) {
    let Some((variants, groups)) = sibling_groups(kernel) else {
        return;
    };
    for (p, unroll) in &groups {
        for opts in options {
            let census = variants.census(&p.permutation, p.tile, unroll, opts);
            digest.add(&format!("{census:?}"));
        }
    }
}

#[test]
fn joint_space_censuses_are_pinned() {
    let options = option_sets();
    let mut digest = Digest::new();
    for (_, kernel) in defacto_kernels::paper_kernels() {
        add_joint_censuses(&mut digest, &kernel, &options);
    }
    let paper = digest.count;
    for (_, kernel) in generated_kernels(generate_kernel) {
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
                    digest.add(&format!("{:?}", model.evaluate(&u)));
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
