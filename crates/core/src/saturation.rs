//! Saturation-point analysis (paper §5.1).
//!
//! The *saturation point* is the unroll product at which the transformed
//! loop body's memory parallelism reaches the board's bandwidth: with `R`
//! uniformly generated read sets and `W` write sets remaining after
//! scalar replacement and redundant-write elimination,
//! `Psat = lcm(gcd(R, W), NumMemories)`. The *saturation set* holds the
//! unroll vectors whose product is `Psat` over the loops that actually
//! vary memory addresses; the search starts from the most promising
//! member (`U_init`), chosen from the dependence structure: a loop that
//! carries no dependence unrolls into fully parallel copies, otherwise
//! loops with larger minimum dependence distances are preferred.

use crate::error::Result;
use crate::space::DesignSpace;
use defacto_analysis::AccessTable;
use defacto_ir::{Kernel, Loop, Name};
use defacto_xform::{PreparedKernel, TransformOptions, UnrollVector};
use std::collections::HashMap;

/// The result of saturation analysis for one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaturationInfo {
    /// `R`: uniformly generated read sets with steady memory accesses.
    pub read_sets: usize,
    /// `W`: uniformly generated write sets with steady memory accesses.
    pub write_sets: usize,
    /// The saturation product `Psat = lcm(gcd(R,W), NumMemories)`.
    pub psat: i64,
    /// Per loop level: does unrolling it add memory parallelism?
    pub unrollable: Vec<bool>,
    /// The saturation set: members of the space with product `Psat`
    /// (or the nearest achievable product for tiny kernels).
    pub sat_set: Vec<UnrollVector>,
    /// The search's starting point.
    pub u_init: UnrollVector,
    /// Loop levels in unroll-preference order (dependence-free loops
    /// first, then larger minimum dependence distances, then outermost).
    pub preference: Vec<usize>,
}

impl SaturationInfo {
    /// Choose the preferred member of `candidates` for a given unroll
    /// product.
    ///
    /// Following §5.3, the search "unrolls all loops in the nest, with
    /// larger unroll factors for the loops carrying larger minimum
    /// nonzero dependence distances" (dependence-free loops count as
    /// unbounded distance). Concretely, each loop gets a weight from its
    /// preference rank and the candidate minimizing
    /// `Σ (ln(uₗ) / wₗ)²` wins: factor mass is spread across loops,
    /// biased toward preferred ones. At the saturation product this
    /// degenerates to unrolling only the most-preferred loop (`Sat_i` for
    /// a dependence-free loop `i`, as the paper prescribes); at larger
    /// products it grows several loops together.
    pub fn pick_preferred(&self, candidates: &[UnrollVector]) -> Option<UnrollVector> {
        let weight = |level: usize| -> f64 {
            let rank = self
                .preference
                .iter()
                .position(|&l| l == level)
                .unwrap_or(self.preference.len());
            2.0 / (1.0 + rank as f64)
        };
        candidates
            .iter()
            .min_by(|a, b| {
                let score = |u: &UnrollVector| -> f64 {
                    u.factors()
                        .iter()
                        .enumerate()
                        .map(|(l, &f)| {
                            let t = (f.max(1) as f64).ln() / weight(l);
                            t * t
                        })
                        .sum()
                };
                score(a)
                    .partial_cmp(&score(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    // Deterministic tie-break: larger factors on preferred
                    // loops, then the lexicographically smaller vector.
                    .then_with(|| {
                        // Compare without materializing the permuted
                        // factor vectors (this runs per candidate pair).
                        let bk = self.preference.iter().map(|&l| b.factors()[l]);
                        let ak = self.preference.iter().map(|&l| a.factors()[l]);
                        bk.cmp(ak)
                    })
                    .then_with(|| a.factors().cmp(b.factors()))
            })
            .cloned()
    }

    /// Choose the growth candidate for `Increase`/`SelectBetween`: factor
    /// mass spread evenly across loops (minimize `Σ ln(uₗ)²`), with ties
    /// broken toward preferred loops. Even spreading keeps growing
    /// operator parallelism *and* reuse together — the trajectory the
    /// paper's compute-bound designs follow until the memory or capacity
    /// wall.
    pub fn pick_growth(&self, candidates: &[UnrollVector]) -> Option<UnrollVector> {
        candidates
            .iter()
            .min_by(|a, b| {
                let score = |u: &UnrollVector| -> f64 {
                    u.factors()
                        .iter()
                        .map(|&f| {
                            let t = (f.max(1) as f64).ln();
                            t * t
                        })
                        .sum()
                };
                score(a)
                    .partial_cmp(&score(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| {
                        // Compare without materializing the permuted
                        // factor vectors (this runs per candidate pair).
                        let bk = self.preference.iter().map(|&l| b.factors()[l]);
                        let ak = self.preference.iter().map(|&l| a.factors()[l]);
                        bk.cmp(ak)
                    })
                    .then_with(|| a.factors().cmp(b.factors()))
            })
            .cloned()
    }
}

/// Run saturation analysis and build the design space.
///
/// `explore_override` forces the per-loop explore flags (e.g. to widen a
/// figure sweep beyond the memory-varying loops); by default the space
/// explores exactly the loops that vary steady memory addresses.
///
/// # Errors
///
/// Fails when the kernel does not prepare (it does not normalize or is
/// not a perfect loop nest) or the baseline transformation fails.
pub fn saturation_analysis(
    kernel: &Kernel,
    opts: &TransformOptions,
    explore_override: Option<&[bool]>,
) -> Result<(SaturationInfo, DesignSpace)> {
    saturation_of(&PreparedKernel::prepare(kernel)?, opts, explore_override)
}

/// [`saturation_analysis`] of a prepared kernel: the nest, its
/// dependences and carried scalars, and the peel-free baseline all come
/// from the one preparation.
pub(crate) fn saturation_of(
    prepared: &PreparedKernel,
    opts: &TransformOptions,
    explore_override: Option<&[bool]>,
) -> Result<(SaturationInfo, DesignSpace)> {
    let depth = prepared.depth();
    let trips: Vec<i64> = prepared.loops().iter().map(Loop::trip_count).collect();
    let var_refs: Vec<&str> = prepared.var_names().iter().map(Name::as_str).collect();

    // Baseline transformation *without peeling*: first-iteration register
    // loads stay guarded, so guarded accesses (one-time chain fills) are
    // distinguishable from steady traffic.
    let baseline_opts = TransformOptions {
        peel: false,
        ..opts.clone()
    };
    let baseline = prepared.transform(&UnrollVector::ones(depth), &baseline_opts)?;
    let all = AccessTable::from_stmts(baseline.kernel.body());

    // Uniformly generated sets over the steady (non-guarded) accesses,
    // keyed by (array, is_write, signature).
    type SetKey = (Name, bool, Vec<Vec<i64>>);
    let mut sets: HashMap<SetKey, Vec<usize>> = HashMap::new();
    let mut varying = vec![false; depth];
    for acc in all.accesses().iter().filter(|a| !a.conditional) {
        let sig = acc.access.coeff_signature(&var_refs);
        let is_varying: Vec<usize> = (0..depth)
            .filter(|&l| sig.iter().any(|row| row[l] != 0))
            .collect();
        if is_varying.is_empty() {
            continue;
        }
        for &l in &is_varying {
            varying[l] = true;
        }
        sets.entry((acc.access.array.clone(), acc.is_write, sig))
            .or_default()
            .push(acc.id.0);
    }
    let read_sets = sets.keys().filter(|(_, w, _)| !w).count();
    let write_sets = sets.keys().filter(|(_, w, _)| *w).count();

    let num_memories = opts.num_memories.max(1) as i64;
    let g = gcd(read_sets as i64, write_sets as i64).max(1);
    let psat = lcm(g, num_memories);

    // Exploration flags and the design space.
    let mut explore: Vec<bool> = match explore_override {
        Some(flags) => flags.to_vec(),
        None => {
            // Explore memory-varying loops; if none (degenerate), explore
            // everything.
            if varying.iter().any(|&v| v) {
                varying.clone()
            } else {
                vec![true; depth]
            }
        }
    };
    // A body carrying scalar state across iterations (rotate register
    // chains, scalars read before written) only admits innermost unroll
    // factors: jamming any outer level would interleave iterations and
    // reorder the chain. Pin those levels so the space holds only legal
    // points and the search never trips the jam legality check mid-sweep.
    // The scalars are the preparation's — the ones its
    // `validate_factors` gate enforces, so the space and the transform
    // gate can never disagree.
    if depth >= 2 && !prepared.carried_scalars().is_empty() {
        for flag in explore.iter_mut().take(depth - 1) {
            *flag = false;
        }
    }
    let space = DesignSpace::new(&trips, &explore);

    // Preference order.
    let deps = prepared.dependences();
    let mut levels: Vec<usize> = (0..depth).collect();
    levels.sort_by_key(|&l| {
        let carries = deps.loop_carries_dependence(l);
        let min_dist = deps.min_positive_distance(l).unwrap_or(1);
        // Dependence-free loops first; then larger minimum distances;
        // then outermost.
        (carries, std::cmp::Reverse(min_dist), l)
    });
    let preference = levels;

    // Saturation set: product Psat over the explored loops; fall back to
    // the largest achievable product below Psat for tiny spaces.
    let base = space.base_vector();
    let max = space.max_vector();
    let mut sat_set = space.members_with_product(psat, &base, &max);
    if sat_set.is_empty() {
        let mut p = psat - 1;
        while p >= 1 && sat_set.is_empty() {
            sat_set = space.members_with_product(p, &base, &max);
            p -= 1;
        }
    }

    let info_partial = SaturationInfo {
        read_sets,
        write_sets,
        psat,
        unrollable: explore,
        sat_set: sat_set.clone(),
        u_init: base.clone(),
        preference,
    };
    let u_init = info_partial.pick_preferred(&sat_set).unwrap_or(base);
    let info = SaturationInfo {
        u_init,
        ..info_partial
    };
    Ok((info, space))
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

fn lcm(a: i64, b: i64) -> i64 {
    if a == 0 || b == 0 {
        return a.max(b).max(1);
    }
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;
    use defacto_ir::parse_kernel;

    const FIR: &str = "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
       for j in 0..64 { for i in 0..32 {
         D[j] = D[j] + S[i + j] * C[i]; } } }";

    const MM: &str = "kernel mm { in A: i32[32][16]; in B: i32[16][4]; inout C: i32[32][4];
       for i in 0..32 { for j in 0..4 { for k in 0..16 {
         C[i][j] = C[i][j] + A[i][k] * B[k][j]; } } } }";

    fn analyze(src: &str) -> (SaturationInfo, DesignSpace) {
        let k = parse_kernel(src).unwrap();
        saturation_analysis(&k, &TransformOptions::default(), None).unwrap()
    }

    #[test]
    fn fir_saturation() {
        let (info, space) = analyze(FIR);
        // Steady sets: D reads, D writes, S reads (C is fully guarded).
        assert_eq!(info.read_sets, 2);
        assert_eq!(info.write_sets, 1);
        assert_eq!(info.psat, 4);
        assert_eq!(info.unrollable, vec![true, true]);
        assert_eq!(space.size(), 42);
        // Sat set: products of 4: (1,4), (2,2), (4,1).
        assert_eq!(info.sat_set.len(), 3);
        // The outer loop j carries no dependence: U_init unrolls it.
        assert_eq!(info.u_init, UnrollVector(vec![4, 1]));
        assert_eq!(info.preference[0], 0);
    }

    #[test]
    fn mm_excludes_innermost_loop() {
        let (info, space) = analyze(MM);
        // The paper: "we only consider unroll factors for the two
        // outermost loops, since through loop-invariant code motion the
        // compiler has eliminated all memory accesses in the innermost
        // loop."
        assert_eq!(info.unrollable, vec![true, true, false]);
        // Space: divisors(32)=6 × divisors(4)=3 × {1}.
        assert_eq!(space.size(), 18);
        // Steady sets: C reads + C writes (A and B loads are guarded).
        assert_eq!(info.read_sets, 1);
        assert_eq!(info.write_sets, 1);
        assert_eq!(info.psat, 4);
        // i and j are both dependence-free: unroll preference favors an
        // outer loop; U_init has product 4 on (i, j).
        assert_eq!(info.u_init.factors()[2], 1);
        assert_eq!(info.u_init.product(), 4);
        assert_eq!(info.u_init, UnrollVector(vec![4, 1, 1]));
    }

    #[test]
    fn explore_override() {
        let k = parse_kernel(MM).unwrap();
        let (info, space) =
            saturation_analysis(&k, &TransformOptions::default(), Some(&[true, true, true]))
                .unwrap();
        assert_eq!(space.size(), 18 * 5); // divisors(16) = 5
        assert!(info.unrollable[2]);
    }

    #[test]
    fn wavefront_prefers_larger_distance_loop() {
        // Both loops carry dependences; the i loop at distance 4, the j
        // loop at distance 1 → prefer i.
        let k = parse_kernel(
            "kernel wf { inout A: i32[36][36]; inout E: i32[36][36];
               for i in 0..32 { for j in 0..32 {
                 A[i + 4][j] = A[i][j] + 1;
                 E[i][j + 1] = E[i][j] + 1;
               } } }",
        )
        .unwrap();
        let (info, _) = saturation_analysis(&k, &TransformOptions::default(), None).unwrap();
        assert_eq!(info.preference[0], 0);
    }

    #[test]
    fn carried_scalar_pins_outer_levels() {
        // A rotate chain only admits innermost unroll factors; the space
        // must exclude outer-level factors so the search never trips the
        // jam legality check mid-sweep.
        let src = "kernel rc { in A: i32[4][8]; out B: i32[4][8]; var r0: i32; var r1: i32;
           for i in 0..4 { for j in 0..8 {
             r0 = A[i][j]; rotate(r0, r1); B[i][j] = r0; } } }";
        let k = parse_kernel(src).unwrap();
        let (info, space) = saturation_analysis(&k, &TransformOptions::default(), None).unwrap();
        assert!(!info.unrollable[0]);
        assert_eq!(space.size(), 4); // divisors(8), outer pinned to 1
                                     // The pin also overrides an explicit explore request.
        let (_, space) =
            saturation_analysis(&k, &TransformOptions::default(), Some(&[true, true])).unwrap();
        assert_eq!(space.size(), 4);
    }

    #[test]
    fn carried_scalar_pinning_routes_through_the_legality_summary() {
        // Regression for the predicate dedup: saturation's flag pinning,
        // `PreparedKernel::validate_factors`, and `unroll_and_jam` all
        // consult the same `LegalitySummary` carried-scalar fact. The pin
        // must therefore exactly track the summary, and everything left in
        // the pinned space must pass the transform-side gate.
        use defacto_xform::PreparedKernel;
        let src = "kernel rc { in A: i32[4][8]; out B: i32[4][8]; var r0: i32; var r1: i32;
           for i in 0..4 { for j in 0..8 {
             r0 = A[i][j]; rotate(r0, r1); B[i][j] = r0; } } }";
        let k = parse_kernel(src).unwrap();
        let prepared = PreparedKernel::prepare(&k).unwrap();
        // r0 is written before it is read; only r1's value crosses
        // iterations.
        assert_eq!(prepared.legality().carried_scalars(), ["r1"]);
        let (_, space) = saturation_analysis(&k, &TransformOptions::default(), None).unwrap();
        for u in space.iter() {
            assert!(
                prepared.validate_factors(u.factors()).is_ok(),
                "pinned space admitted {u:?} but the transform gate rejects it"
            );
        }
        // A kernel whose summary records no carried scalar must not pin.
        let fir = parse_kernel(FIR).unwrap();
        let fir_prepared = PreparedKernel::prepare(&fir).unwrap();
        assert!(fir_prepared.legality().carried_scalars().is_empty());
        let (info, _) = saturation_analysis(&fir, &TransformOptions::default(), None).unwrap();
        assert!(info.unrollable.iter().all(|&b| b));
    }

    #[test]
    fn single_memory_board_lowers_psat() {
        let k = parse_kernel(FIR).unwrap();
        let opts = TransformOptions {
            num_memories: 1,
            custom_layout: false,
            ..TransformOptions::default()
        };
        let (info, _) = saturation_analysis(&k, &opts, None).unwrap();
        assert_eq!(info.psat, 1);
        assert_eq!(info.u_init.product(), 1);
    }
}
