//! Tier-0 analytic bands for *joint* design points.
//!
//! A joint point = (unroll, permutation, tile, narrow, pack). The
//! permutation/tile pair selects a kernel variant; the narrow/pack flags
//! override the synthesis options per point. [`JointAnalyticModel`]
//! therefore keys a family of [`AnalyticModel`]s by
//! `(permutation, tile, narrow, pack)` — each one built over the
//! variant's [`PreparedKernel`](defacto_xform::PreparedKernel) (served
//! by a shared [`VariantCache`]) with the flag-adjusted options — and
//! prices joint points through the matching members, one sibling group
//! (same variant and unroll, any flags) per census.
//!
//! Soundness is inherited wholesale: each member model's band provably
//! brackets `estimate_opts` of the fully transformed variant design
//! (the [`AnalyticBand`] containment invariant), and evaluating a joint
//! point *is* running the classic unroll pipeline on that variant with
//! those options. This is what makes bound-based pruning of joint
//! subtrees sound — see `defacto-core`'s `BranchAndBound` strategy and
//! DESIGN.md §14.

use crate::analytic::{AnalyticBand, AnalyticModel};
use crate::constraints::ResourceConstraints;
use crate::device::FpgaDevice;
use crate::estimate::SynthesisOptions;
use crate::memory::MemoryModel;
use defacto_xform::{TransformOptions, UnrollVector, VariantCache};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// The coordinates selecting one member model: `(permutation, tile,
/// narrow, pack)`.
pub type JointModelKey = (Vec<usize>, Option<(usize, i64)>, bool, bool);

/// A lazily-built family of tier-0 models covering a joint space. Share
/// behind an `Arc`; internally synchronized.
#[derive(Debug)]
pub struct JointAnalyticModel {
    variants: Arc<VariantCache>,
    mem: MemoryModel,
    dev: FpgaDevice,
    topts: TransformOptions,
    sopts: SynthesisOptions,
    /// `None` inside means the member declined (the variant does not
    /// prepare) — such points must take the full tier-1 path. Entries
    /// are pure values inserted whole, so a poisoned lock still guards
    /// valid data and is recovered.
    models: Mutex<HashMap<JointModelKey, Option<Arc<AnalyticModel>>>>,
}

impl JointAnalyticModel {
    /// Build the family, or `None` when designer operator constraints
    /// are in effect (every member [`AnalyticModel`] would decline — see
    /// [`AnalyticModel::new`]).
    pub fn new(
        variants: Arc<VariantCache>,
        mem: MemoryModel,
        dev: FpgaDevice,
        topts: TransformOptions,
        sopts: SynthesisOptions,
    ) -> Option<Self> {
        if sopts.constraints != ResourceConstraints::default() {
            return None;
        }
        Some(JointAnalyticModel {
            variants,
            mem,
            dev,
            topts,
            sopts,
            models: Mutex::new(HashMap::new()),
        })
    }

    /// The synthesis options a point with these flags is estimated
    /// under: the base options with each flag forced *on* when the point
    /// selects it (never forced off — mirroring the joint evaluator).
    fn flagged_options(&self, narrow: bool, pack: bool) -> SynthesisOptions {
        let mut sopts = self.sopts.clone();
        if narrow {
            sopts.bitwidth_narrowing = true;
        }
        if pack {
            sopts.pack_small_types = true;
        }
        sopts
    }

    /// The member model for one variant/flag combination, built and
    /// cached on first use. `None` when the variant does not prepare.
    fn member(
        &self,
        permutation: &[usize],
        tile: Option<(usize, i64)>,
        narrow: bool,
        pack: bool,
    ) -> Option<Arc<AnalyticModel>> {
        let key: JointModelKey = (permutation.to_vec(), tile, narrow, pack);
        if let Some(m) = self
            .models
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return m.clone();
        }
        let built = self
            .variants
            .prepared(permutation, tile)
            .ok()
            .and_then(|prepared| {
                AnalyticModel::new(
                    prepared,
                    self.mem.clone(),
                    self.dev.clone(),
                    self.topts.clone(),
                    self.flagged_options(narrow, pack),
                )
            })
            .map(Arc::new);
        let mut cache = self.models.lock().unwrap_or_else(PoisonError::into_inner);
        cache.entry(key).or_insert(built).clone()
    }

    /// Price one sibling group: the joint points that share a variant
    /// and an unroll vector and differ only in their `(narrow, pack)`
    /// flags, one band per entry of `flags`. The census counts the
    /// transformed code, which the flags never change, so it is taken
    /// once and priced by each flag pair's member model. `unroll` must
    /// already be the vector the joint evaluator transforms with (all-ones
    /// one level deeper for tiled points). An entry is `None` when its
    /// member model declined or the census errored — callers must fall
    /// back to tier 1 for that point.
    pub fn bands(
        &self,
        permutation: &[usize],
        tile: Option<(usize, i64)>,
        unroll: &UnrollVector,
        flags: &[(bool, bool)],
    ) -> Vec<Option<AnalyticBand>> {
        let members: Vec<Option<Arc<AnalyticModel>>> = flags
            .iter()
            .map(|&(narrow, pack)| self.member(permutation, tile, narrow, pack))
            .collect();
        // Every member of one variant prices the same prepared kernel.
        let census = members
            .iter()
            .flatten()
            .next()
            .and_then(|m| m.prepared().census(unroll, &self.topts).ok());
        members
            .iter()
            .map(|m| Some(m.as_ref()?.price(census.as_ref()?)))
            .collect()
    }

    /// The member model's synthetic band-midpoint estimate (see
    /// [`AnalyticModel::synthetic_estimate`]).
    pub fn synthetic_estimate(
        &self,
        permutation: &[usize],
        tile: Option<(usize, i64)>,
        narrow: bool,
        pack: bool,
        band: &AnalyticBand,
    ) -> Option<crate::estimate::Estimate> {
        let model = self.member(permutation, tile, narrow, pack)?;
        Some(model.synthetic_estimate(band))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::estimate_opts;
    use crate::oplib::HwOp;
    use defacto_ir::parse_kernel;
    use defacto_xform::transform;

    const FIR: &str = "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
       for j in 0..64 { for i in 0..32 {
         D[j] = D[j] + S[i + j] * C[i]; } } }";

    const PACKABLE: &str = "kernel p { in A: u8[64]; out B: i32[64] range 0..100;
       for i in 0..64 { B[i] = A[i] + 1; } }";

    fn model(src: &str) -> JointAnalyticModel {
        let k = parse_kernel(src).unwrap();
        let variants = Arc::new(VariantCache::new(&k).unwrap());
        JointAnalyticModel::new(
            variants,
            MemoryModel::wildstar_pipelined(),
            FpgaDevice::virtex1000(),
            TransformOptions::default(),
            SynthesisOptions::default(),
        )
        .unwrap()
    }

    /// The containment invariant, joint edition: the band brackets what
    /// the joint evaluator's exact pipeline (variant transform +
    /// flag-adjusted estimate) reports.
    fn check_joint_point(
        m: &JointAnalyticModel,
        src: &str,
        perm: &[usize],
        tile: Option<(usize, i64)>,
        narrow: bool,
        pack: bool,
        unroll: Vec<i64>,
    ) {
        let k = parse_kernel(src).unwrap();
        let mut variant = defacto_xform::normalize_loops(&k).unwrap();
        if perm.iter().enumerate().any(|(i, &l)| i != l) {
            variant = defacto_xform::interchange(&variant, perm).unwrap();
        }
        if let Some((level, t)) = tile {
            variant = defacto_xform::tiling::tile_for_registers(&variant, level, t).unwrap();
        }
        let u = UnrollVector(unroll);
        let band = m.bands(perm, tile, &u, &[(narrow, pack)])[0]
            .clone()
            .expect("band");
        let design = transform(&variant, &u, &TransformOptions::default()).unwrap();
        let sopts = m.flagged_options(narrow, pack);
        let e = estimate_opts(
            &design,
            &MemoryModel::wildstar_pipelined(),
            &FpgaDevice::virtex1000(),
            &sopts,
        );
        assert!(
            band.contains(&e),
            "joint band does not bracket estimate at perm {perm:?} tile {tile:?} \
             narrow {narrow} pack {pack} unroll {:?}:\nband {band:#?}\nestimate {e:#?}",
            u.factors()
        );
    }

    #[test]
    fn joint_bands_bracket_interchanged_points() {
        let m = model(FIR);
        for perm in [[0usize, 1], [1, 0]] {
            for unroll in [vec![1, 1], vec![4, 2], vec![8, 8]] {
                check_joint_point(&m, FIR, &perm, None, false, false, unroll);
            }
        }
    }

    #[test]
    fn joint_bands_bracket_tiled_points() {
        let m = model(FIR);
        for tile in [(0usize, 8i64), (1, 4)] {
            check_joint_point(&m, FIR, &[0, 1], Some(tile), false, false, vec![1, 1, 1]);
        }
    }

    #[test]
    fn joint_bands_bracket_flagged_points() {
        let m = model(PACKABLE);
        for (narrow, pack) in [(true, false), (false, true), (true, true)] {
            for unroll in [vec![1], vec![4]] {
                check_joint_point(&m, PACKABLE, &[0], None, narrow, pack, unroll);
            }
        }
    }

    #[test]
    fn a_group_prices_like_its_points_one_at_a_time() {
        let m = model(PACKABLE);
        let flags = [(false, false), (false, true), (true, false), (true, true)];
        for unroll in [vec![1], vec![4]] {
            let u = UnrollVector(unroll);
            let group = m.bands(&[0], None, &u, &flags);
            assert_eq!(group.len(), flags.len());
            for (band, &flag) in group.iter().zip(&flags) {
                assert!(band.is_some());
                assert_eq!(*band, m.bands(&[0], None, &u, &[flag])[0], "{flag:?}");
            }
        }
    }

    #[test]
    fn members_are_cached_per_key() {
        let m = model(FIR);
        let u = UnrollVector(vec![2, 2]);
        assert!(m.bands(&[1, 0], None, &u, &[(false, false)])[0].is_some());
        assert!(m.bands(&[1, 0], None, &u, &[(false, false)])[0].is_some());
        assert_eq!(
            m.models.lock().unwrap().len(),
            1,
            "repeat pricing must reuse the member model"
        );
    }

    #[test]
    fn constrained_options_decline_the_family() {
        let k = parse_kernel(FIR).unwrap();
        let variants = Arc::new(VariantCache::new(&k).unwrap());
        let sopts = SynthesisOptions {
            constraints: ResourceConstraints::new().with_limit(HwOp::Mul, 2),
            ..SynthesisOptions::default()
        };
        assert!(JointAnalyticModel::new(
            variants,
            MemoryModel::wildstar_pipelined(),
            FpgaDevice::virtex1000(),
            TransformOptions::default(),
            sopts,
        )
        .is_none());
    }
}
