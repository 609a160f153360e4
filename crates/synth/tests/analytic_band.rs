//! Property test: the tier-0 analytic band brackets the full tier-1
//! estimate for randomly generated kernel/point/option combinations.
//!
//! Kernels are drawn from parameterized variants of the paper suite's
//! shapes (FIR accumulation, stencil windows, matrix product, shifted
//! copies with a conditional clamp), with random sizes, element types,
//! constants, and unroll factors, under random transformation and
//! synthesis options. This is the soundness property branch-and-bound's
//! pruning rule depends on (see `defacto-core`).

use defacto_ir::parse_kernel;
use defacto_synth::analytic::AnalyticModel;
use defacto_synth::estimate::{estimate_opts, SynthesisOptions};
use defacto_synth::schedule::ListPriority;
use defacto_synth::{FpgaDevice, MemoryModel};
use defacto_xform::{PreparedKernel, TransformOptions, UnrollVector};
use proptest::prelude::*;
use std::sync::Arc;

/// Divisors of `n`, for legal unroll factors.
fn divisors(n: i64) -> Vec<i64> {
    (1..=n).filter(|d| n % d == 0).collect()
}

fn pick<T: Copy>(options: &[T], idx: usize) -> T {
    options[idx % options.len()]
}

/// Build one of the template kernels. Returns the source and the loop
/// trip counts (outermost first).
fn template_kernel(template: usize, p0: usize, p1: usize, p2: usize) -> (String, Vec<i64>) {
    let ty = pick(&["i8", "i16", "i32", "u8", "u16"], p2);
    match template % 4 {
        // FIR accumulation, optionally with an added constant.
        0 => {
            let n = pick(&[4i64, 8, 12, 16], p0);
            let taps = pick(&[4i64, 6, 8], p1);
            let rhs = match p2 % 3 {
                0 => "S[i + j] * C[i]".to_string(),
                s => format!("S[i + j] * C[i] + {s}"),
            };
            (
                format!(
                    "kernel fir {{ in S: {ty}[{}]; in C: {ty}[{taps}]; inout D: i32[{n}];
                       for j in 0..{n} {{ for i in 0..{taps} {{
                         D[j] = D[j] + {rhs}; }} }} }}",
                    n + taps
                ),
                vec![n, taps],
            )
        }
        // Three-point stencil window with division constants.
        1 => {
            let n = pick(&[8i64, 12, 16, 24], p0);
            let c0 = pick(&[2i64, 3, 4], p1);
            let c1 = pick(&[2i64, 4, 5], p1 / 3);
            (
                format!(
                    "kernel st {{ in A: {ty}[{}]; out B: {ty}[{n}];
                       for i in 0..{n} {{
                         B[i] = A[i] / {c0} + A[i + 1] / {c1} + A[i + 2] / {c0}; }} }}",
                    n + 2
                ),
                vec![n],
            )
        }
        // Matrix product with small random dimensions.
        2 => {
            let n = pick(&[2i64, 4, 6], p0);
            let m = pick(&[2i64, 3, 4], p1);
            let p = pick(&[2i64, 4, 8], p0 / 3 + p1 / 2);
            (
                format!(
                    "kernel mm {{ in A: {ty}[{n}][{p}]; in B: {ty}[{p}][{m}]; inout C: i32[{n}][{m}];
                       for i in 0..{n} {{ for j in 0..{m} {{ for k in 0..{p} {{
                         C[i][j] = C[i][j] + A[i][k] * B[k][j]; }} }} }} }}"
                ),
                vec![n, m, p],
            )
        }
        // Shifted copy with a conditional clamp: exercises `if`
        // predication, comparisons, and scalar merges.
        _ => {
            let n = pick(&[8i64, 12, 16], p0);
            let sh = pick(&[1i64, 2, 3], p1);
            let cap = pick(&[31i64, 63, 100], p1 / 3);
            (
                format!(
                    "kernel cl {{ in A: {ty}[{n}]; out B: i16[{n}];
                       for i in 0..{n} {{
                         B[i] = A[i] << {sh};
                         if (B[i] > {cap}) {{ B[i] = {cap}; }} }} }}"
                ),
                vec![n],
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn analytic_band_brackets_full_estimate(
        template in 0usize..4,
        p0 in 0usize..64,
        p1 in 0usize..64,
        p2 in 0usize..64,
        factor_seed in 0usize..1024,
        opts_bits in 0usize..256,
        budget_sel in 0usize..3,
    ) {
        let bit = |i: usize| opts_bits >> i & 1 == 1;
        let (peel, sr, rwe, layout) = (bit(0), bit(1), bit(2), bit(3));
        let (narrow, pack, pipelined, slack) = (bit(4), bit(5), bit(6), bit(7));
        let (src, trips) = template_kernel(template, p0, p1, p2);
        let factors: Vec<i64> = trips
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let ds = divisors(t);
                pick(&ds, factor_seed >> (3 * i))
            })
            .collect();
        let topts = TransformOptions {
            peel,
            scalar_replacement: sr,
            redundant_write_elim: rwe,
            custom_layout: layout,
            register_budget: [None, Some(4usize), Some(16)][budget_sel],
            ..TransformOptions::default()
        };
        let sopts = SynthesisOptions {
            bitwidth_narrowing: narrow,
            pack_small_types: pack,
            priority: if slack { ListPriority::Slack } else { ListPriority::Asap },
            ..SynthesisOptions::default()
        };
        let mem = if pipelined {
            MemoryModel::wildstar_pipelined()
        } else {
            MemoryModel::wildstar_non_pipelined()
        };
        let dev = FpgaDevice::virtex1000();

        let kernel = parse_kernel(&src).expect("template kernels parse");
        let prepared = Arc::new(PreparedKernel::prepare(&kernel).expect("templates prepare"));
        let model = AnalyticModel::new(
            prepared.clone(),
            mem.clone(),
            dev.clone(),
            topts.clone(),
            sopts.clone(),
        )
        .expect("unconstrained options admit the analytic model");

        let unroll = UnrollVector(factors.clone());
        let band = model.evaluate(&unroll).expect("divisor factors are legal");
        let design = prepared
            .transform(&unroll, &topts)
            .expect("divisor factors are legal");
        let estimate = estimate_opts(&design, &mem, &dev, &sopts);

        prop_assert!(band.cycles_lo <= band.cycles_hi);
        prop_assert!(band.slices_lo <= band.slices_hi);
        prop_assert!(band.mem_busy_lo <= band.mem_busy_hi);
        prop_assert!(band.comp_busy_lo <= band.comp_busy_hi);
        prop_assert!(band.bits_lo <= band.bits_hi);
        prop_assert!(
            band.contains(&estimate),
            "band does not bracket the estimate\nkernel: {}\nfactors: {:?} topts: {:?} sopts: {:?}\nband: {:#?}\nestimate: {:#?}",
            src, factors, topts, sopts, band, estimate,
        );
    }
}
