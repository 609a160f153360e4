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

mod common;

use common::{design, generated_kernels, sample_points, sibling_groups, Digest};
use defacto_analysis::{infer_ranges, RangeInfo};
use defacto_fuzz::generate_kernel;
use defacto_ir::Kernel;
use defacto_xform::{transform, TransformOptions};
use std::fmt::Write as _;

/// Add the ranges inferred for `kernel`.
fn add_ranges(digest: &mut Digest, kernel: &Kernel) {
    digest.add(&ranges_text(&infer_ranges(kernel)));
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
        add_ranges(&mut digest, &kernel);
        let (variants, groups) = sibling_groups(&kernel).expect("paper joint space builds");
        for (p, unroll) in &groups {
            let d = design(&variants, p, unroll, &opts).expect("paper design transforms");
            add_ranges(&mut digest, &d.kernel);
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
    for (_, kernel) in generated_kernels(generate_kernel) {
        let Some(points) = sample_points(&kernel) else {
            continue;
        };
        add_ranges(&mut digest, &kernel);
        for u in &points {
            if let Ok(design) = transform(&kernel, u, &opts) {
                add_ranges(&mut digest, &design.kernel);
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
