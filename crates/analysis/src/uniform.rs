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
    /// rows through [`Self::offset_row`] and [`Self::offset_rows`]; the
    /// matrix is fixed when the set is made, so the keys made from it
    /// stay aligned with it.
    offsets: Vec<i64>,
    /// Order-preserving key of each row, made from `offsets` when the set
    /// is made (see [`Self::key`]).
    keys: RowKeys,
}

/// One offset row of a set with its key (see [`UniformSet::key`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffsetRow<'a> {
    /// The row's key within its set.
    pub key: u64,
    /// The row's constant offsets, one per array dimension.
    pub offsets: &'a [i64],
}

/// The largest key range [`UniformSet::distinct_offsets`] deduplicates
/// with a bitmap on the stack (2 KiB, and 1 KiB of rank counts). Every
/// paper-kernel set fits: the largest key range of their joint spaces is
/// 1,156 (JAC's and SOBEL's 34×34 window boxes).
const DENSE_KEYS: usize = 1 << 14;

/// The order-preserving `u64` key of every offset row of one set.
///
/// A row's key is its position in the set's bounding box, read as a
/// mixed-radix number: the digit of dimension `d` is `row[d] - lo[d]`
/// and its place value is the product of the spans `hi - lo + 1` of the
/// dimensions after `d`, where `[lo[d], hi[d]]` bounds the set's offsets
/// in dimension `d`. Every digit is smaller than its span, so a digit
/// outweighs all the digits after it together: comparing two keys
/// compares the rows lexicographically, and equal keys mean equal rows.
/// Every key is smaller than the box's size, the product of all spans.
///
/// When the box's size does not fit in a `u64` (offsets spread over
/// more than 2^64 positions), the keys are the rows' ranks among the
/// set's distinct rows instead, found by sorting the rows once. Such a set's rows are the only ones ever
/// sorted as slices: once to rank them, and again when
/// [`UniformSet::lanes`] groups them.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RowKeys {
    radix: Radix,
    /// Every key is smaller than this.
    range: u64,
    keys: Vec<u64>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Radix {
    /// Per dimension, the lower bound of the box and the place value.
    Box { lo: Vec<i64>, place: Vec<u64> },
    /// The box does not fit in a `u64`: keys are dense ranks.
    Ranked,
}

impl RowKeys {
    /// Keys of the `len` rows of `dims` entries each in `offsets`.
    fn new(offsets: &[i64], dims: usize, len: usize) -> RowKeys {
        let rows = &offsets[..len * dims];
        let (mut lo, mut hi) = (vec![i64::MAX; dims], vec![i64::MIN; dims]);
        if dims > 0 {
            for row in rows.chunks_exact(dims) {
                for ((l, h), &o) in lo.iter_mut().zip(&mut hi).zip(row) {
                    *l = (*l).min(o);
                    *h = (*h).max(o);
                }
            }
        }
        match places(&lo, &hi) {
            Some((place, range)) => RowKeys {
                keys: (0..len)
                    .map(|m| digits(&rows[m * dims..(m + 1) * dims], &lo, &place))
                    .collect(),
                radix: Radix::Box { lo, place },
                range,
            },
            None => RowKeys::ranked(rows, dims, len),
        }
    }

    /// The keys of a box that overflows `u64`: each row's rank among the
    /// distinct rows.
    fn ranked(offsets: &[i64], dims: usize, len: usize) -> RowKeys {
        let row = |m: usize| &offsets[m * dims..(m + 1) * dims];
        let mut order: Vec<usize> = (0..len).collect();
        order.sort_unstable_by_key(|&m| row(m));
        let mut keys = vec![0u64; len];
        let mut rank = 0;
        for (i, &m) in order.iter().enumerate() {
            if i > 0 && row(order[i - 1]) != row(m) {
                rank += 1;
            }
            keys[m] = rank;
        }
        RowKeys {
            radix: Radix::Ranked,
            range: if len == 0 { 0 } else { rank + 1 },
            keys,
        }
    }
}

/// The place value of each dimension of the box `[lo, hi]` and the box's
/// size, or `None` when the size does not fit in a `u64`.
fn places(lo: &[i64], hi: &[i64]) -> Option<(Vec<u64>, u64)> {
    let mut place = vec![0u64; lo.len()];
    let mut size = 1u64;
    for d in (0..lo.len()).rev() {
        place[d] = size;
        let span = u64::try_from(i128::from(hi[d]) - i128::from(lo[d]) + 1).ok()?;
        size = size.checked_mul(span)?;
    }
    Some((place, size))
}

/// `Σ (row[d] − lo[d])·place[d]`. Inside the box every difference lies in
/// `0..span`, so it fits a `u64` even where it overflows an `i64`.
fn digits(row: &[i64], lo: &[i64], place: &[u64]) -> u64 {
    row.iter()
        .zip(lo)
        .zip(place)
        .map(|((&o, &l), &p)| o.wrapping_sub(l) as u64 * p)
        .sum()
}

impl UniformSet {
    /// The set of `members` with row-major `offsets`, one row of
    /// `signature.len()` entries per member; keys its rows.
    pub(crate) fn new(
        array: Name,
        is_write: bool,
        signature: Vec<Vec<i64>>,
        members: Vec<AccessId>,
        offsets: Vec<i64>,
    ) -> UniformSet {
        let keys = RowKeys::new(&offsets, signature.len(), members.len());
        UniformSet {
            array,
            is_write,
            signature,
            members,
            offsets,
            keys,
        }
    }

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

    /// The order-preserving key of member `m`'s offset row: keys of one
    /// set compare as their rows compare lexicographically, and are
    /// equal exactly when the rows are. Keys of different sets are not
    /// comparable.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a member position.
    pub fn key(&self, m: usize) -> u64 {
        self.keys.keys[m]
    }

    /// Distinct constant-offset rows, sorted lexicographically, with
    /// their keys. Multiple syntactic references with identical offsets
    /// collapse here — they are the *loop-independent* reuse within one
    /// iteration.
    ///
    /// Works on keys alone, which order and merge the rows exactly as
    /// comparing the rows would. When the key range is no larger than the
    /// member count (and at most 2^14), one counting pass marks
    /// each key in a bitmap on the stack and puts each first occurrence
    /// at its rank, the number of marked keys below it; otherwise the
    /// keys are sorted and deduplicated. Either way the only allocation
    /// is the result. The counting pass pays for its bitmap only when
    /// rows repeat: measured on one core, it is up to 4× faster than the
    /// sort at a range of half the member count and 3–14× at a sixteenth,
    /// but up to 3× slower on sets whose range is several times their
    /// size.
    pub fn distinct_offsets(&self) -> Vec<OffsetRow<'_>> {
        let keys = &self.keys.keys;
        let range = self.keys.range;
        let mut out: Vec<OffsetRow<'_>> = Vec::with_capacity(keys.len());
        if range <= keys.len().min(DENSE_KEYS) as u64 {
            let mut seen = [0u64; DENSE_KEYS / 64];
            for (m, &key) in keys.iter().enumerate() {
                debug_assert!(key < range, "row key {key} outside 0..{range}");
                let (word, bit) = (key as usize / 64, 1u64 << (key % 64));
                if seen[word] & bit == 0 {
                    seen[word] |= bit;
                    out.push(self.row(m));
                }
            }
            let mut below = [0u32; DENSE_KEYS / 64];
            let mut total = 0;
            for (b, &word) in below.iter_mut().zip(&seen[..range.div_ceil(64) as usize]) {
                *b = total;
                total += word.count_ones();
            }
            let rank = |key: u64| {
                let (word, bit) = (key as usize / 64, key % 64);
                (below[word] + (seen[word] & ((1u64 << bit) - 1)).count_ones()) as usize
            };
            // Every swap puts one row at its rank for good.
            for i in 0..out.len() {
                let mut r = rank(out[i].key);
                while r != i {
                    out.swap(i, r);
                    r = rank(out[i].key);
                }
            }
        } else {
            out.extend((0..keys.len()).map(|m| self.row(m)));
            out.sort_unstable_by_key(|r| r.key);
            out.dedup_by_key(|r| r.key);
        }
        out
    }

    /// The distinct offset rows grouped into lanes along dimension `dim`:
    /// rows that agree in every other dimension share a lane. A lane
    /// lists its rows by key, which is by their `dim` coordinate, and
    /// lanes go in the order of their first rows.
    ///
    /// A row's lane key is its key with the `dim` digit taken out, so
    /// sorting by lane key, then key, makes each lane one run. A ranked
    /// set (see [`UniformSet::key`]) has no digits and compares the other
    /// dimensions' offsets instead.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not an array dimension of the set.
    pub fn lanes<'s>(&'s self, dim: usize) -> Vec<Vec<OffsetRow<'s>>> {
        let mut rows = self.distinct_offsets();
        let mut lanes = match &self.keys.radix {
            Radix::Box { lo, place } => {
                let lane = |r: &OffsetRow<'_>| {
                    r.key - r.offsets[dim].wrapping_sub(lo[dim]) as u64 * place[dim]
                };
                rows.sort_unstable_by_key(|r| (lane(r), r.key));
                runs(&rows, |a, b| lane(a) == lane(b))
            }
            Radix::Ranked => {
                let lane = |r: &OffsetRow<'s>| -> (&'s [i64], &'s [i64]) {
                    (&r.offsets[..dim], &r.offsets[dim + 1..])
                };
                rows.sort_unstable_by(|a, b| lane(a).cmp(&lane(b)).then(a.key.cmp(&b.key)));
                runs(&rows, |a, b| lane(a) == lane(b))
            }
        };
        lanes.sort_unstable_by_key(|lane| lane[0].key);
        lanes
    }

    /// The largest number of members sharing one offset row.
    pub fn max_multiplicity(&self) -> usize {
        let mut keys = self.keys.keys.clone();
        keys.sort_unstable();
        keys.chunk_by(|a, b| a == b)
            .map(<[u64]>::len)
            .max()
            .unwrap_or(0)
    }

    fn row(&self, m: usize) -> OffsetRow<'_> {
        OffsetRow {
            key: self.keys.keys[m],
            offsets: self.offset_row(m),
        }
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

/// The runs of `rows` whose neighbours are `same`, each as its own list.
fn runs<'a>(
    rows: &[OffsetRow<'a>],
    same: impl Fn(&OffsetRow<'a>, &OffsetRow<'a>) -> bool,
) -> Vec<Vec<OffsetRow<'a>>> {
    rows.chunk_by(|a, b| same(a, b))
        .map(<[_]>::to_vec)
        .collect()
}

/// Partition the accesses of `table` into uniformly generated sets.
///
/// Reads and writes are partitioned separately (they are scheduled
/// separately by behavioral synthesis and counted separately in the
/// saturation-point formula). `vars` orders the coefficient vectors,
/// outermost loop first. Sets preserve first-member program order.
pub fn uniform_sets(table: &AccessTable, vars: &[&str]) -> Vec<UniformSet> {
    // (array, is_write, signature, members, offsets) of each set so far.
    type Parts = (Name, bool, Vec<Vec<i64>>, Vec<AccessId>, Vec<i64>);
    let mut sets: Vec<Parts> = Vec::new();
    for acc in table.accesses() {
        let signature = acc.access.coeff_signature(vars);
        let offsets = acc.access.indices.iter().map(|e| e.constant_term());
        match sets.iter_mut().find(|(array, is_write, sig, _, _)| {
            *array == acc.access.array && *is_write == acc.is_write && *sig == signature
        }) {
            Some((_, _, _, members, rows)) => {
                members.push(acc.id);
                rows.extend(offsets);
            }
            None => sets.push((
                acc.access.array.clone(),
                acc.is_write,
                signature,
                vec![acc.id],
                offsets.collect(),
            )),
        }
    }
    sets.into_iter()
        .map(|(array, is_write, signature, members, offsets)| {
            UniformSet::new(array, is_write, signature, members, offsets)
        })
        .collect()
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
        let rows: Vec<&[i64]> = a.distinct_offsets().iter().map(|r| r.offsets).collect();
        assert_eq!(rows, [[0], [1], [2]]);
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

    /// A read set of `dims`-dimensional rows, one member per row.
    fn set_of(dims: usize, offsets: Vec<i64>) -> UniformSet {
        let members = (0..offsets.len() / dims).map(AccessId).collect();
        UniformSet::new(
            Name::from("A"),
            false,
            vec![vec![1]; dims],
            members,
            offsets,
        )
    }

    /// The distinct rows as they were found before rows had keys: a
    /// slice sort and dedup.
    fn reference_distinct(set: &UniformSet) -> Vec<&[i64]> {
        let mut v: Vec<&[i64]> = set.offset_rows().collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The lanes along `dim` as the window planner grouped them before
    /// rows had keys.
    fn reference_lanes(set: &UniformSet, dim: usize) -> Vec<Vec<&[i64]>> {
        let lane = |row: &[i64]| (row[..dim].to_vec(), row[dim + 1..].to_vec());
        let mut rows = reference_distinct(set);
        rows.sort_by_key(|&row| lane(row));
        let mut lanes: Vec<Vec<&[i64]>> = rows
            .chunk_by(|&a, &b| lane(a) == lane(b))
            .map(<[_]>::to_vec)
            .collect();
        lanes.sort_unstable_by_key(|lane| lane[0]);
        lanes
    }

    fn reference_max_multiplicity(set: &UniformSet) -> usize {
        let mut rows: Vec<&[i64]> = set.offset_rows().collect();
        rows.sort_unstable();
        rows.chunk_by(|a, b| a == b)
            .map(<[_]>::len)
            .max()
            .unwrap_or(0)
    }

    /// Rows of 1–3 dimensions drawn from `seed`: offsets dense around
    /// zero, sparse over thousands, or at the ends of `i64` (a box that
    /// overflows `u64`), with rows repeated.
    fn random_set(seed: u64) -> UniformSet {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let dims = 1 + (next() % 3) as usize;
        let spread = next() % 4;
        let rows = 1 + (next() % 150) as usize;
        let mut offsets: Vec<i64> = Vec::with_capacity(rows * dims);
        for r in 0..rows {
            if r > 0 && next() % 4 == 0 {
                // Repeat an earlier row.
                let from = (next() % r as u64) as usize * dims;
                offsets.extend_from_within(from..from + dims);
                continue;
            }
            for _ in 0..dims {
                let v = next();
                offsets.push(match spread {
                    0 => (v % 9) as i64 - 4,
                    1 => (v % 6001) as i64 - 3000,
                    2 => [i64::MIN, i64::MAX, -1, 0, 1][(v % 5) as usize],
                    _ => (v % 40) as i64 - 20,
                });
            }
        }
        set_of(dims, offsets)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]
        #[test]
        fn keyed_rows_match_the_slice_sort(seed in 0u64..u64::MAX) {
            let set = random_set(seed);
            let rows: Vec<&[i64]> = set.offset_rows().collect();
            for (a, row_a) in rows.iter().enumerate() {
                for (b, row_b) in rows.iter().enumerate() {
                    proptest::prop_assert_eq!(set.key(a).cmp(&set.key(b)), row_a.cmp(row_b));
                }
            }
            let distinct = set.distinct_offsets();
            let offsets: Vec<&[i64]> = distinct.iter().map(|r| r.offsets).collect();
            proptest::prop_assert_eq!(offsets, reference_distinct(&set));
            for r in &distinct {
                let m = rows.iter().position(|&row| row == r.offsets).unwrap();
                proptest::prop_assert_eq!(r.key, set.key(m));
            }
            for dim in 0..set.dims() {
                let lanes: Vec<Vec<&[i64]>> = set
                    .lanes(dim)
                    .iter()
                    .map(|lane| lane.iter().map(|r| r.offsets).collect())
                    .collect();
                proptest::prop_assert_eq!(lanes, reference_lanes(&set, dim));
            }
            proptest::prop_assert_eq!(set.max_multiplicity(), reference_max_multiplicity(&set));
        }
    }

    #[test]
    fn a_box_past_u64_ranks_its_rows() {
        // Spans of 2^64 + 1 and 3: the box has more positions than a
        // `u64` counts, so the keys are ranks.
        let set = set_of(2, vec![i64::MAX, 1, i64::MIN, 0, i64::MAX, 1, 0, -1]);
        assert_eq!(set.keys.radix, Radix::Ranked);
        assert_eq!((0..4).map(|m| set.key(m)).collect::<Vec<_>>(), [2, 0, 2, 1]);
        assert_eq!(set.distinct_offsets().len(), 3);
        let lanes = set.lanes(0);
        assert_eq!(lanes.len(), 3);
        assert_eq!(set.max_multiplicity(), 2);
        // A box of 2^32 positions keys its rows by digits.
        let fits = set_of(1, vec![u32::MAX.into(), 0]);
        assert!(matches!(fits.keys.radix, Radix::Box { .. }));
        assert_eq!((fits.key(0), fits.key(1)), (u64::from(u32::MAX), 0));
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
