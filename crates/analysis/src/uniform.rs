//! Uniformly generated reference sets.
//!
//! Two affine references to the same array are *uniformly generated* when
//! their subscript expressions have identical coefficients on every loop
//! index variable — they differ only by constant offsets (So et al. §4,
//! following Gannon/Jalby/Gallivan). Uniformly generated sets are the unit
//! at which the system operates:
//!
//! - scalar replacement keeps one memory access per set and serves the
//!   rest from registers;
//! - array renaming (custom data layout) assigns virtual memory ids per
//!   set;
//! - the saturation point is computed from the number of read and write
//!   sets (`R` and `W` in the paper).

use crate::access::{AccessId, AccessTable};
use defacto_ir::Name;

/// A maximal group of same-array, same-direction accesses with identical
/// affine coefficient vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniformSet {
    /// Array the set refers to.
    pub array: Name,
    /// True for a write set, false for a read set.
    pub is_write: bool,
    /// Per-dimension coefficient vectors over the nest's loop variables
    /// (outermost first) — the set's signature.
    pub signature: Vec<Vec<i64>>,
    /// Members, in program order.
    pub members: Vec<AccessId>,
    /// Per-member constant offsets as one row-major matrix: row `m` holds
    /// member `m`'s offsets, one entry per array dimension, so rows are
    /// `signature.len()` entries long and aligned with `members`. Read
    /// rows through [`Self::offset_row`] and [`Self::offset_rows`].
    pub offsets: Vec<i64>,
}

impl UniformSet {
    /// Number of member accesses.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the set has no members (never produced by
    /// [`uniform_sets`]).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Array dimensions: the length of every offset row.
    pub fn dims(&self) -> usize {
        self.signature.len()
    }

    /// Constant offsets of member `m` (one entry per array dimension).
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a member position.
    pub fn offset_row(&self, m: usize) -> &[i64] {
        let dims = self.dims();
        &self.offsets[m * dims..(m + 1) * dims]
    }

    /// Constant offsets of every member, in member order.
    pub fn offset_rows(&self) -> impl ExactSizeIterator<Item = &[i64]> + '_ {
        (0..self.members.len()).map(|m| self.offset_row(m))
    }

    /// Distinct constant-offset rows, sorted lexicographically.
    /// Multiple syntactic references with identical offsets collapse here —
    /// they are the *loop-independent* reuse within one iteration.
    pub fn distinct_offsets(&self) -> Vec<&[i64]> {
        let mut v: Vec<&[i64]> = self.offset_rows().collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// True when the set's subscripts vary with loop `level` (0-based index
    /// into the `vars` ordering the signature was built with).
    pub fn varies_with(&self, level: usize) -> bool {
        self.signature.iter().any(|dim| dim[level] != 0)
    }

    /// Indices of loops the set varies with.
    pub fn varying_levels(&self) -> Vec<usize> {
        let n = self.signature.first().map(|d| d.len()).unwrap_or(0);
        (0..n).filter(|&l| self.varies_with(l)).collect()
    }

    /// True when the set is invariant in every loop (constant subscripts).
    pub fn is_fully_invariant(&self) -> bool {
        self.varying_levels().is_empty()
    }
}

/// Partition the accesses of `table` into uniformly generated sets.
///
/// Reads and writes are partitioned separately (they are scheduled
/// separately by behavioral synthesis and counted separately in the
/// saturation-point formula). `vars` orders the coefficient vectors,
/// outermost loop first. Sets preserve first-member program order.
pub fn uniform_sets(table: &AccessTable, vars: &[&str]) -> Vec<UniformSet> {
    let mut sets: Vec<UniformSet> = Vec::new();
    for acc in table.accesses() {
        let signature = acc.access.coeff_signature(vars);
        let offsets = acc.access.indices.iter().map(|e| e.constant_term());
        match sets.iter_mut().find(|s| {
            s.array == acc.access.array && s.is_write == acc.is_write && s.signature == signature
        }) {
            Some(s) => {
                s.members.push(acc.id);
                s.offsets.extend(offsets);
            }
            None => sets.push(UniformSet {
                array: acc.access.array.clone(),
                is_write: acc.is_write,
                signature,
                members: vec![acc.id],
                offsets: offsets.collect(),
            }),
        }
    }
    sets
}

/// Count the read sets (`R`) and write sets (`W`) of the paper's
/// saturation-point formula — only sets that vary with at least one loop
/// are counted, because invariant accesses are removed from the main loop
/// body by loop-invariant code motion.
pub fn count_varying_sets(sets: &[UniformSet]) -> (usize, usize) {
    let r = sets
        .iter()
        .filter(|s| !s.is_write && !s.is_fully_invariant())
        .count();
    let w = sets
        .iter()
        .filter(|s| s.is_write && !s.is_fully_invariant())
        .count();
    (r, w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use defacto_ir::parse_kernel;

    fn sets_for(src: &str) -> Vec<UniformSet> {
        let k = parse_kernel(src).unwrap();
        let nest = k.perfect_nest().unwrap();
        let table = AccessTable::from_stmts(nest.innermost_body());
        let vars = nest.vars();
        uniform_sets(&table, &vars)
    }

    #[test]
    fn fir_has_four_sets() {
        let sets = sets_for(
            "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
               for j in 0..64 { for i in 0..32 {
                 D[j] = D[j] + S[i + j] * C[i]; } } }",
        );
        // Read sets: D[j], S[i+j], C[i]; write set: D[j].
        assert_eq!(sets.len(), 4);
        let d_read = sets.iter().find(|s| s.array == "D" && !s.is_write).unwrap();
        assert_eq!(d_read.signature, vec![vec![1, 0]]);
        let s_read = sets.iter().find(|s| s.array == "S").unwrap();
        assert_eq!(s_read.signature, vec![vec![1, 1]]);
        let (r, w) = count_varying_sets(&sets);
        assert_eq!((r, w), (3, 1));
    }

    #[test]
    fn offset_shifted_references_group_together() {
        let sets = sets_for(
            "kernel st { in A: i32[66]; out B: i32[64];
               for i in 0..64 {
                 B[i] = A[i] + A[i + 1] + A[i + 2];
               } }",
        );
        let a = sets.iter().find(|s| s.array == "A").unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.distinct_offsets(), [[0], [1], [2]]);
    }

    #[test]
    fn different_coefficients_split_sets() {
        let sets = sets_for(
            "kernel sp { in A: i32[130]; out B: i32[64];
               for i in 0..64 {
                 B[i] = A[i] + A[2*i];
               } }",
        );
        let a_sets: Vec<_> = sets.iter().filter(|s| s.array == "A").collect();
        assert_eq!(a_sets.len(), 2);
    }

    #[test]
    fn duplicate_offsets_collapse_in_distinct() {
        let sets = sets_for(
            "kernel dup { in A: i32[8]; out B: i32[8];
               for i in 0..8 { B[i] = A[i] * A[i]; } }",
        );
        let a = sets.iter().find(|s| s.array == "A").unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a.distinct_offsets().len(), 1);
    }

    #[test]
    fn two_dimensional_signatures() {
        let sets = sets_for(
            "kernel mm { in A: i32[32][16]; in B: i32[16][4]; inout C: i32[32][4];
               for i in 0..32 { for j in 0..4 { for k in 0..16 {
                 C[i][j] = C[i][j] + A[i][k] * B[k][j]; } } } }",
        );
        // Read sets: C, A, B; write set: C.
        assert_eq!(sets.len(), 4);
        let a = sets.iter().find(|s| s.array == "A").unwrap();
        // Over (i, j, k): row subscript i -> [1,0,0], col subscript k -> [0,0,1].
        assert_eq!(a.signature, vec![vec![1, 0, 0], vec![0, 0, 1]]);
        assert_eq!(a.varying_levels(), vec![0, 2]);
        assert!(!a.varies_with(1));
        let (r, w) = count_varying_sets(&sets);
        assert_eq!((r, w), (3, 1));
    }

    #[test]
    fn fully_invariant_set_detected() {
        let sets = sets_for(
            "kernel inv { in A: i32[4]; out B: i32[8];
               for i in 0..8 { B[i] = A[0]; } }",
        );
        let a = sets.iter().find(|s| s.array == "A").unwrap();
        assert!(a.is_fully_invariant());
        let (r, _) = count_varying_sets(&sets);
        assert_eq!(r, 0);
    }
}
