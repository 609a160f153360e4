//! Prepared kernel variants for joint-space exploration.
//!
//! A joint design point pairs an unroll vector with the non-unroll loop
//! axes — a nest permutation and an optional register tile. The
//! permutation/tile pair selects a *kernel variant*; the unroll vector
//! is then a classic design point of that variant. Exploring the joint
//! space from scratch re-derives the variant (normalize → interchange →
//! tile) and all of its point-invariant analyses for every point, even
//! though a space of thousands of points touches only a handful of
//! variants.
//!
//! [`VariantCache`] hoists that work: each `(permutation, tile)` key is
//! materialized once into a [`PreparedVariant`] — the transformed kernel
//! plus its [`PreparedKernel`] — and shared across evaluation workers; a
//! variant that does not prepare is an error. [`VariantCache::census`]
//! then prices any joint point's structural counts ([`PointCensus`])
//! without copying a body or building a DFG: this is the joint-point
//! census the tier-0 joint analytic bands are built on (see
//! `defacto-synth`).

use crate::census::PointCensus;
use crate::error::Result;
use crate::interchange::interchange;
use crate::normalize::normalize_loops;
use crate::pipeline::{TransformOptions, UnrollVector};
use crate::prepared::PreparedKernel;
use crate::tiling::tile_for_registers;
use defacto_ir::Kernel;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// The non-unroll loop coordinates selecting one kernel variant: the
/// nest permutation and the optional `(level, tile-size)` register tile.
pub type VariantKey = (Vec<usize>, Option<(usize, i64)>);

/// One materialized kernel variant.
#[derive(Debug)]
pub struct PreparedVariant {
    /// The interchanged/tiled kernel the variant's unroll pipeline runs
    /// on.
    pub kernel: Kernel,
    /// Its point-invariant preparation, always `Some` (read it through
    /// [`VariantCache::prepared`]). It becomes `Arc<PreparedKernel>`
    /// when the benchmark's replay, which matches on it, is retired.
    pub prepared: Option<Arc<PreparedKernel>>,
}

/// A cache of [`PreparedVariant`]s over one source kernel, keyed by
/// `(permutation, tile)`. Internally synchronized; share behind an
/// `Arc` across workers.
#[derive(Debug)]
pub struct VariantCache {
    normalized: Kernel,
    depth: usize,
    /// Entries are pure values inserted whole, so a poisoned lock still
    /// guards valid data and is recovered.
    variants: Mutex<HashMap<VariantKey, Arc<PreparedVariant>>>,
}

impl VariantCache {
    /// Normalize `kernel` once; variants are derived from the normalized
    /// form exactly like the per-point pipeline derives them.
    ///
    /// # Errors
    ///
    /// Fails when the kernel does not normalize or is not a perfect
    /// nest.
    pub fn new(kernel: &Kernel) -> Result<VariantCache> {
        let normalized = normalize_loops(kernel)?;
        let depth = normalized
            .perfect_nest()
            .ok_or(crate::error::XformError::NotPerfectNest)?
            .depth();
        Ok(VariantCache {
            normalized,
            depth,
            variants: Mutex::new(HashMap::new()),
        })
    }

    /// Nest depth of the normalized source kernel (a tiled variant is
    /// one deeper).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The variant selected by `permutation`/`tile`, materializing (and
    /// caching) it on first use. The identity permutation with no tile
    /// returns the normalized source kernel itself.
    ///
    /// # Errors
    ///
    /// Propagates interchange/tiling failures (illegal order, bad tile)
    /// and the variant's preparation error.
    pub fn get(
        &self,
        permutation: &[usize],
        tile: Option<(usize, i64)>,
    ) -> Result<Arc<PreparedVariant>> {
        let key: VariantKey = (permutation.to_vec(), tile);
        if let Some(v) = self
            .variants
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return Ok(Arc::clone(v));
        }
        // Build outside the lock: variants are pure functions of the
        // key, so a racing duplicate build is wasted work, not a
        // correctness problem — first insert wins.
        let identity = permutation.iter().enumerate().all(|(k, &l)| k == l);
        let mut kernel = self.normalized.clone();
        if !identity {
            kernel = interchange(&kernel, permutation)?;
        }
        if let Some((level, size)) = tile {
            kernel = tile_for_registers(&kernel, level, size)?;
        }
        let prepared = Some(Arc::new(PreparedKernel::prepare(&kernel)?));
        let variant = Arc::new(PreparedVariant { kernel, prepared });
        let mut cache = self.variants.lock().unwrap_or_else(PoisonError::into_inner);
        Ok(Arc::clone(
            cache.entry(key).or_insert_with(|| Arc::clone(&variant)),
        ))
    }

    /// The preparation of the variant [`Self::get`] selects, or its
    /// error.
    pub fn prepared(
        &self,
        permutation: &[usize],
        tile: Option<(usize, i64)>,
    ) -> Result<Arc<PreparedKernel>> {
        let prepared = self.get(permutation, tile)?.prepared.clone();
        Ok(prepared.expect("`get` returns only prepared variants"))
    }

    /// The joint-point census: exact structural counts of the
    /// interchanged/tiled nest at `unroll`, without materializing any
    /// body copy. Bit-compatible with preparing the variant and calling
    /// [`PreparedKernel::census`] directly.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Self::get`] and the census' own
    /// per-point errors (illegal factors, broken jam).
    pub fn census(
        &self,
        permutation: &[usize],
        tile: Option<(usize, i64)>,
        unroll: &UnrollVector,
        opts: &TransformOptions,
    ) -> Result<PointCensus> {
        self.prepared(permutation, tile)?.census(unroll, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defacto_ir::parse_kernel;

    const FIR: &str = "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
       for j in 0..64 { for i in 0..32 {
         D[j] = D[j] + S[i + j] * C[i]; } } }";

    #[test]
    fn identity_variant_is_the_normalized_kernel() {
        let k = parse_kernel(FIR).unwrap();
        let cache = VariantCache::new(&k).unwrap();
        assert_eq!(cache.depth(), 2);
        let v = cache.get(&[0, 1], None).unwrap();
        assert_eq!(v.kernel, normalize_loops(&k).unwrap());
        assert!(v.prepared.is_some());
    }

    #[test]
    fn variants_are_cached_and_shared() {
        let k = parse_kernel(FIR).unwrap();
        let cache = VariantCache::new(&k).unwrap();
        let a = cache.get(&[1, 0], None).unwrap();
        let b = cache.get(&[1, 0], None).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            a.kernel,
            interchange(&normalize_loops(&k).unwrap(), &[1, 0]).unwrap()
        );
    }

    #[test]
    fn poisoned_lock_still_answers() {
        let k = parse_kernel(FIR).unwrap();
        let cache = VariantCache::new(&k).unwrap();
        let before = cache.get(&[1, 0], None).unwrap();
        // A worker that panics while holding the lock poisons it; the
        // cache holds only pure derived values, so it stays usable.
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _guard = cache.variants.lock().unwrap();
                panic!("worker panics while holding the variant lock");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(cache.variants.is_poisoned());
        let after = cache.get(&[1, 0], None).unwrap();
        assert!(Arc::ptr_eq(&before, &after));
        let fresh = cache.get(&[0, 1], None).unwrap();
        assert_eq!(fresh.kernel, normalize_loops(&k).unwrap());
    }

    #[test]
    fn census_matches_direct_preparation() {
        let k = parse_kernel(FIR).unwrap();
        let cache = VariantCache::new(&k).unwrap();
        let opts = TransformOptions::default();
        // Interchanged variant at a real unroll point.
        let u = UnrollVector(vec![4, 2]);
        let via_cache = cache.census(&[1, 0], None, &u, &opts).unwrap();
        let direct_kernel = interchange(&normalize_loops(&k).unwrap(), &[1, 0]).unwrap();
        let direct = PreparedKernel::prepare(&direct_kernel)
            .unwrap()
            .census(&u, &opts)
            .unwrap();
        assert_eq!(via_cache, direct);
        // Tiled variant is one level deeper; census at all-ones unroll.
        let ones = UnrollVector::ones(3);
        let tiled = cache.census(&[0, 1], Some((1, 8)), &ones, &opts).unwrap();
        assert_eq!(tiled.trips.len(), 3);
    }

    #[test]
    fn illegal_interchange_propagates() {
        let k = parse_kernel(
            "kernel wf { inout A: i32[9][10];
               for i in 1..9 { for j in 0..8 {
                 A[i][j] = A[i - 1][j + 1] + 1; } } }",
        )
        .unwrap();
        let cache = VariantCache::new(&k).unwrap();
        assert!(cache.get(&[1, 0], None).is_err());
    }
}
