//! The design space: divisor unroll-factor vectors, optionally extended
//! into a typed multi-axis product space.
//!
//! Behavioral synthesis needs constant loop bounds, so the system
//! explores unroll factors that evenly divide each loop's trip count —
//! no cleanup code, every candidate synthesizable. Loops that do not
//! contribute memory parallelism (e.g. the innermost MM loop after
//! loop-invariant code motion removed its accesses) can be pinned to a
//! factor of 1.
//!
//! [`DesignSpace::with_axes`] generalizes the unroll-vector set into a
//! product over typed [`Axis`] domains — unroll × interchange
//! permutation × tile size × narrowing × packing — whose domains are
//! constructed *from* a kernel's
//! [`LegalitySummary`]. Every
//! enumerated [`JointPoint`] is therefore statically proven legal before
//! the engine evaluates anything: the membership filter and the
//! transforms' own gates are literally the same predicates
//! (`defacto_analysis::legality`), so membership implies transform
//! success. Points excluded by legality are counted in
//! [`PrunedCounts`] — the static pruning that keeps joint sweeps
//! tractable.

use defacto_analysis::LegalitySummary;
use defacto_xform::UnrollVector;
use std::fmt;

/// One axis of the joint transformation space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Axis {
    /// Unroll-and-jam factor vectors (the classic space).
    Unroll,
    /// Loop-nest permutations from the summary's legal set.
    Interchange,
    /// Register-tiling `(level, tile-size)` choices on tilable levels.
    Tile,
    /// Bit-width narrowing on/off (only offered when the summary proves
    /// some array actually narrows).
    Narrow,
    /// Data packing on/off (only offered when the summary proves packing
    /// can share a memory word).
    Pack,
}

impl Axis {
    /// Every axis, in canonical order.
    pub const ALL: [Axis; 5] = [
        Axis::Unroll,
        Axis::Interchange,
        Axis::Tile,
        Axis::Narrow,
        Axis::Pack,
    ];

    /// Stable lower-case label, for JSON output and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            Axis::Unroll => "unroll",
            Axis::Interchange => "interchange",
            Axis::Tile => "tile",
            Axis::Narrow => "narrow",
            Axis::Pack => "pack",
        }
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Axis {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "unroll" => Ok(Axis::Unroll),
            "interchange" => Ok(Axis::Interchange),
            "tile" => Ok(Axis::Tile),
            "narrow" => Ok(Axis::Narrow),
            "pack" => Ok(Axis::Pack),
            other => Err(format!(
                "unknown axis `{other}` (expected unroll|interchange|tile|narrow|pack)"
            )),
        }
    }
}

/// One point of the joint space: a coordinate per axis. Axes not
/// selected (or pruned to a single choice) sit at their baseline — the
/// identity permutation, no tile, flags off.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JointPoint {
    /// Unroll factors, applied to the *permuted* nest (outermost first).
    pub unroll: Vec<i64>,
    /// Nest permutation: `permutation[k]` is the original level placed at
    /// position `k`.
    pub permutation: Vec<usize>,
    /// Register tiling: `(level, tile_size)` on the original nest, or
    /// `None`.
    pub tile: Option<(usize, i64)>,
    /// Bit-width narrowing enabled for this point.
    pub narrow: bool,
    /// Data packing enabled for this point.
    pub pack: bool,
}

impl JointPoint {
    /// The baseline point of a `depth`-deep nest: all-ones unroll,
    /// identity permutation, no tile, flags off.
    pub fn baseline(depth: usize) -> JointPoint {
        JointPoint {
            unroll: vec![1; depth],
            permutation: (0..depth).collect(),
            tile: None,
            narrow: false,
            pack: false,
        }
    }

    /// The unroll coordinate as an [`UnrollVector`].
    pub fn unroll_vector(&self) -> UnrollVector {
        UnrollVector(self.unroll.clone())
    }

    /// Is the permutation the identity?
    pub fn identity_permutation(&self) -> bool {
        self.permutation.iter().enumerate().all(|(k, &l)| k == l)
    }

    /// True when every non-unroll coordinate sits at its baseline — the
    /// point projects onto the legacy unroll-only space.
    pub fn is_unroll_only(&self) -> bool {
        self.identity_permutation() && self.tile.is_none() && !self.narrow && !self.pack
    }
}

/// Split `points` into sibling groups: maximal runs that share
/// permutation, tile and unroll, and so the transformed code, and differ
/// only in the narrow/pack flags, which are synthesis options.
/// [`DesignSpace::with_axes`] enumerates the flags innermost, so over
/// [`DesignSpace::joint_points`] every group is a single run.
pub(crate) fn sibling_groups(points: &[JointPoint]) -> impl Iterator<Item = &[JointPoint]> {
    points
        .chunk_by(|a, b| a.unroll == b.unroll && a.permutation == b.permutation && a.tile == b.tile)
}

/// How many candidate coordinates legality analysis excluded while the
/// joint space was built — the static pruning that keeps joint sweeps
/// tractable (each count is work the engine never has to evaluate *or*
/// reject at transform time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrunedCounts {
    /// Nest permutations that would reorder a dependence.
    pub permutations: u64,
    /// (permutation, unroll) combinations whose jam would be illegal
    /// under the permuted nest.
    pub unroll_perm: u64,
    /// Tile candidates on levels whose hoist would reorder a dependence.
    pub tiles: u64,
}

impl PrunedCounts {
    /// Total coordinates pruned by legality.
    pub fn total(&self) -> u64 {
        self.permutations + self.unroll_perm + self.tiles
    }
}

/// The multi-axis half of a [`DesignSpace`] (absent on legacy
/// unroll-only spaces built with [`DesignSpace::new`]).
#[derive(Debug, Clone, PartialEq, Eq)]
struct JointExtension {
    axes: Vec<Axis>,
    points: Vec<JointPoint>,
    pruned: PrunedCounts,
}

/// The set of candidate unroll vectors for one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignSpace {
    /// Allowed factors per loop level, ascending, always containing 1.
    factors_per_level: Vec<Vec<i64>>,
    /// The joint extension, when built with [`DesignSpace::with_axes`].
    joint: Option<JointExtension>,
}

impl DesignSpace {
    /// Build the space from per-loop trip counts; `explore[l] == false`
    /// pins loop `l` to factor 1.
    pub fn new(trip_counts: &[i64], explore: &[bool]) -> Self {
        let factors_per_level = trip_counts
            .iter()
            .zip(explore)
            .map(|(&n, &on)| if on { divisors(n) } else { vec![1] })
            .collect();
        DesignSpace {
            factors_per_level,
            joint: None,
        }
    }

    /// Build a joint multi-axis space whose axis domains are constructed
    /// from `summary` — see the module docs. `trip_counts`/`explore`
    /// seed the unroll axis exactly like [`DesignSpace::new`] (identical
    /// factor domains, so the unroll-only configuration reproduces the
    /// legacy space bit for bit); `word_bits` is the memory word width
    /// the packing axis is judged against.
    ///
    /// Every enumerated [`JointPoint`] is statically legal:
    ///
    /// - permutations come from [`LegalitySummary::legal_permutations`];
    /// - each (permutation, unroll) pair passes
    ///   [`LegalitySummary::jam_violation_under`] — the exact predicate
    ///   `unroll_and_jam` and `PreparedKernel::validate_factors` gate on;
    /// - tiles sit on [`LegalitySummary::tilable`] levels with dividing
    ///   sizes, attached to the baseline unroll/permutation (register
    ///   tiling is checked against the original nest);
    /// - the narrowing/packing flags are only offered when the summary
    ///   proves they change anything.
    pub fn with_axes(
        trip_counts: &[i64],
        explore: &[bool],
        summary: &LegalitySummary,
        axes: &[Axis],
        word_bits: u32,
    ) -> Self {
        let depth = trip_counts.len();
        let unroll_on = axes.contains(&Axis::Unroll);
        let factors_per_level: Vec<Vec<i64>> = trip_counts
            .iter()
            .zip(explore)
            .map(|(&n, &on)| {
                if unroll_on && on {
                    divisors(n)
                } else {
                    vec![1]
                }
            })
            .collect();
        let base = DesignSpace {
            factors_per_level,
            joint: None,
        };
        let mut pruned = PrunedCounts::default();

        let identity: Vec<usize> = (0..depth).collect();
        let permutations: Vec<Vec<usize>> = if axes.contains(&Axis::Interchange) {
            let legal = summary.legal_permutations().to_vec();
            pruned.permutations = factorial(depth).saturating_sub(legal.len() as u64);
            legal
        } else {
            vec![identity.clone()]
        };

        let narrow_options: &[bool] =
            if axes.contains(&Axis::Narrow) && summary.narrowing_applicable() {
                &[false, true]
            } else {
                &[false]
            };
        let pack_options: &[bool] =
            if axes.contains(&Axis::Pack) && summary.packing_effective(word_bits) {
                &[false, true]
            } else {
                &[false]
            };

        let mut points = Vec::new();
        // The candidate tuple lives in a reused scratch buffer borrowed
        // against the axis domains; a vector is allocated only for the
        // candidates the jam check promotes into the space.
        let mut permuted = vec![0i64; depth];
        for perm in &permutations {
            base.for_each_member(|u| {
                // `u` assigns a factor to each *original* level; the
                // factor follows its loop through the permutation, so
                // position `k` of the permuted nest keeps a divisor of
                // its own trip count. The summary then checks the
                // permuted distance vectors plus the carried-scalar rule
                // — identical to what the transforms would reject, so
                // nothing survives that could fail.
                for (k, &l) in perm.iter().enumerate() {
                    permuted[k] = u[l];
                }
                if summary.jam_violation_under(perm, &permuted).is_some() {
                    pruned.unroll_perm += 1;
                    return;
                }
                for &narrow in narrow_options {
                    for &pack in pack_options {
                        points.push(JointPoint {
                            unroll: permuted.clone(),
                            permutation: perm.clone(),
                            tile: None,
                            narrow,
                            pack,
                        });
                    }
                }
            });
        }
        if axes.contains(&Axis::Tile) {
            for (level, &trip) in trip_counts.iter().enumerate() {
                let candidates: Vec<i64> = divisors(trip)
                    .into_iter()
                    .filter(|&t| t > 1 && t < trip)
                    .collect();
                if !summary.tilable(level) {
                    pruned.tiles += candidates.len() as u64;
                    continue;
                }
                for t in candidates {
                    for &narrow in narrow_options {
                        for &pack in pack_options {
                            points.push(JointPoint {
                                unroll: vec![1; depth],
                                permutation: identity.clone(),
                                tile: Some((level, t)),
                                narrow,
                                pack,
                            });
                        }
                    }
                }
            }
        }

        DesignSpace {
            factors_per_level: base.factors_per_level,
            joint: Some(JointExtension {
                axes: axes.to_vec(),
                points,
                pruned,
            }),
        }
    }

    /// The axes of a joint space (`None` on legacy unroll-only spaces).
    pub fn axes(&self) -> Option<&[Axis]> {
        self.joint.as_ref().map(|j| j.axes.as_slice())
    }

    /// Is this a joint multi-axis space?
    pub fn is_joint(&self) -> bool {
        self.joint.is_some()
    }

    /// The statically-legal joint points, in enumeration order (empty on
    /// legacy spaces).
    pub fn joint_points(&self) -> &[JointPoint] {
        self.joint.as_ref().map_or(&[], |j| j.points.as_slice())
    }

    /// Number of joint points.
    pub fn joint_size(&self) -> u64 {
        self.joint.as_ref().map_or(0, |j| j.points.len() as u64)
    }

    /// Is `p` a member of the joint space? Always false on legacy
    /// spaces. Membership is static proof of legality: the constructor
    /// only admits points the transforms provably accept.
    pub fn contains_joint(&self, p: &JointPoint) -> bool {
        self.joint.as_ref().is_some_and(|j| j.points.contains(p))
    }

    /// How many candidate coordinates legality pruned during
    /// construction (`None` on legacy spaces).
    pub fn pruned_counts(&self) -> Option<PrunedCounts> {
        self.joint.as_ref().map(|j| j.pruned)
    }

    /// Number of loop levels.
    pub fn levels(&self) -> usize {
        self.factors_per_level.len()
    }

    /// Allowed factors at `level`, ascending.
    pub fn factors_at(&self, level: usize) -> &[i64] {
        &self.factors_per_level[level]
    }

    /// Total number of candidate vectors.
    pub fn size(&self) -> u64 {
        self.factors_per_level
            .iter()
            .map(|f| f.len() as u64)
            .product()
    }

    /// Is `u` a member of the space?
    pub fn contains(&self, u: &UnrollVector) -> bool {
        u.factors().len() == self.levels()
            && u.factors()
                .iter()
                .zip(&self.factors_per_level)
                .all(|(f, allowed)| allowed.contains(f))
    }

    /// The maximal vector (full unrolling of explored loops).
    pub fn max_vector(&self) -> UnrollVector {
        UnrollVector(
            self.factors_per_level
                .iter()
                .map(|f| *f.last().expect("divisors nonempty"))
                .collect(),
        )
    }

    /// The baseline vector (no unrolling).
    pub fn base_vector(&self) -> UnrollVector {
        UnrollVector(vec![1; self.levels()])
    }

    /// Iterate over every vector in the space (outer levels vary
    /// slowest).
    pub fn iter(&self) -> impl Iterator<Item = UnrollVector> + '_ {
        let mut idx = vec![0usize; self.levels()];
        let mut done = self.size() == 0;
        std::iter::from_fn(move || {
            if done {
                return None;
            }
            let v = UnrollVector(
                idx.iter()
                    .zip(&self.factors_per_level)
                    .map(|(&i, f)| f[i])
                    .collect(),
            );
            // Advance, innermost fastest.
            let mut l = self.levels();
            loop {
                if l == 0 {
                    done = true;
                    break;
                }
                l -= 1;
                idx[l] += 1;
                if idx[l] < self.factors_per_level[l].len() {
                    break;
                }
                idx[l] = 0;
            }
            Some(v)
        })
    }

    /// Visit every vector in the space (outer levels vary slowest,
    /// identical order to [`Self::iter`]), passing each as a slice
    /// borrowed from a reused buffer — the allocation-free counterpart
    /// of [`Self::iter`] for hot enumeration loops.
    pub fn for_each_member(&self, mut f: impl FnMut(&[i64])) {
        if self.size() == 0 {
            return;
        }
        let levels = self.levels();
        let mut idx = vec![0usize; levels];
        let mut cur: Vec<i64> = self.factors_per_level.iter().map(|f| f[0]).collect();
        loop {
            f(&cur);
            // Advance, innermost fastest.
            let mut l = levels;
            loop {
                if l == 0 {
                    return;
                }
                l -= 1;
                idx[l] += 1;
                if idx[l] < self.factors_per_level[l].len() {
                    cur[l] = self.factors_per_level[l][idx[l]];
                    break;
                }
                idx[l] = 0;
                cur[l] = self.factors_per_level[l][0];
            }
        }
    }

    /// All members with the given product whose factors lie between `lo`
    /// and `hi` (component-wise, inclusive). Used by the search's
    /// `Increase`/`SelectBetween` steps.
    pub fn members_with_product(
        &self,
        product: i64,
        lo: &UnrollVector,
        hi: &UnrollVector,
    ) -> Vec<UnrollVector> {
        let mut out = Vec::new();
        let mut cur = Vec::with_capacity(self.levels());
        self.enumerate_product(0, product, lo, hi, &mut cur, &mut out);
        out
    }

    fn enumerate_product(
        &self,
        level: usize,
        remaining: i64,
        lo: &UnrollVector,
        hi: &UnrollVector,
        cur: &mut Vec<i64>,
        out: &mut Vec<UnrollVector>,
    ) {
        if level == self.levels() {
            if remaining == 1 {
                out.push(UnrollVector(cur.clone()));
            }
            return;
        }
        for &f in &self.factors_per_level[level] {
            if f < lo.factors()[level] || f > hi.factors()[level] || remaining % f != 0 {
                continue;
            }
            cur.push(f);
            self.enumerate_product(level + 1, remaining / f, lo, hi, cur, out);
            cur.pop();
        }
    }

    /// Every product actually representable by a member of the space,
    /// restricted to `lo..=hi`, ascending. These are exactly the
    /// products for which [`Self::members_with_product`] (with full
    /// bounds) is non-empty, so candidate scans can iterate this set
    /// instead of every integer in a range.
    pub fn products_between(&self, lo: i64, hi: i64) -> Vec<i64> {
        use std::collections::BTreeSet;
        if hi < lo || hi < 1 {
            return Vec::new();
        }
        let mut products: BTreeSet<i64> = BTreeSet::new();
        products.insert(1);
        for factors in &self.factors_per_level {
            let mut next = BTreeSet::new();
            for &p in &products {
                for &f in factors {
                    match p.checked_mul(f) {
                        Some(q) if q <= hi => {
                            next.insert(q);
                        }
                        // Factors are ascending, so every later factor
                        // also overflows the bound.
                        _ => break,
                    }
                }
            }
            products = next;
        }
        products.into_iter().filter(|&p| p >= lo).collect()
    }
}

/// Positive divisors of `n`, ascending (divisors of 1 when `n < 1`).
/// Enumerated in O(√n) by pairing each divisor `d ≤ √n` with `n / d`.
pub fn divisors(n: i64) -> Vec<i64> {
    let n = n.max(1);
    let mut low = Vec::new();
    let mut high = Vec::new();
    let mut d = 1;
    while d * d <= n {
        if n % d == 0 {
            low.push(d);
            if d != n / d {
                high.push(n / d);
            }
        }
        d += 1;
    }
    high.reverse();
    low.extend(high);
    low
}

/// `n!` as a `u64` (nest depths are tiny; saturates defensively).
fn factorial(n: usize) -> u64 {
    (1..=n as u64).fold(1u64, |acc, k| acc.saturating_mul(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divisor_lists() {
        assert_eq!(divisors(32), vec![1, 2, 4, 8, 16, 32]);
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors(36), vec![1, 2, 3, 4, 6, 9, 12, 18, 36]);
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(0), vec![1]);
    }

    #[test]
    fn divisors_match_naive_enumeration() {
        for n in 1..=200 {
            let naive: Vec<i64> = (1..=n).filter(|d| n % d == 0).collect();
            assert_eq!(divisors(n), naive, "n = {n}");
        }
    }

    #[test]
    fn products_between_lists_representable_products() {
        let s = DesignSpace::new(&[64, 32], &[true, true]);
        let products = s.products_between(1, 2048);
        // Exactly the powers of two 1..=2048 (products of two powers of
        // two bounded by 64·32).
        let expect: Vec<i64> = (0..=11).map(|k| 1i64 << k).collect();
        assert_eq!(products, expect);
        // Agreement with members_with_product over the whole range.
        let (lo, hi) = (s.base_vector(), s.max_vector());
        for p in 1..=2048 {
            let has_member = !s.members_with_product(p, &lo, &hi).is_empty();
            assert_eq!(products.contains(&p), has_member, "product {p}");
        }
        assert_eq!(s.products_between(3, 7), vec![4]);
        assert_eq!(s.products_between(9, 3), Vec::<i64>::new());
    }

    #[test]
    fn products_between_respects_pinned_levels() {
        let s = DesignSpace::new(&[12, 5, 8], &[true, false, true]);
        let products = s.products_between(1, 96);
        assert!(products.contains(&1));
        assert!(products.contains(&96)); // 12 · 1 · 8
        assert!(!products.contains(&5)); // pinned level contributes only 1
        for &p in &products {
            let m = s.members_with_product(p, &s.base_vector(), &s.max_vector());
            assert!(!m.is_empty(), "product {p} has no member");
        }
    }

    #[test]
    fn fir_space_size() {
        // 64 has 7 divisors, 32 has 6: 42 candidate designs.
        let s = DesignSpace::new(&[64, 32], &[true, true]);
        assert_eq!(s.size(), 42);
        assert_eq!(s.iter().count(), 42);
        assert_eq!(s.max_vector(), UnrollVector(vec![64, 32]));
        assert_eq!(s.base_vector(), UnrollVector(vec![1, 1]));
    }

    #[test]
    fn pinned_levels() {
        let s = DesignSpace::new(&[32, 4, 16], &[true, true, false]);
        assert_eq!(s.size(), 6 * 3);
        assert!(s.contains(&UnrollVector(vec![8, 2, 1])));
        assert!(!s.contains(&UnrollVector(vec![8, 2, 2])));
        assert!(!s.contains(&UnrollVector(vec![5, 1, 1])));
    }

    #[test]
    fn members_with_product() {
        let s = DesignSpace::new(&[64, 32], &[true, true]);
        let lo = s.base_vector();
        let hi = s.max_vector();
        let m4 = s.members_with_product(4, &lo, &hi);
        // (1,4), (2,2), (4,1)
        assert_eq!(m4.len(), 3);
        assert!(m4.contains(&UnrollVector(vec![2, 2])));
        // Bounded below by (2,1): only (2,2) and (4,1).
        let bounded = s.members_with_product(4, &UnrollVector(vec![2, 1]), &hi);
        assert_eq!(bounded.len(), 2);
        // Product not representable by divisors.
        assert!(s.members_with_product(3, &lo, &hi).is_empty());
    }

    #[test]
    fn iteration_covers_space_without_duplicates() {
        let s = DesignSpace::new(&[4, 4], &[true, true]);
        let mut all: Vec<UnrollVector> = s.iter().collect();
        assert_eq!(all.len(), 9);
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 9);
    }

    #[test]
    fn for_each_member_matches_iter_order_exactly() {
        for space in [
            DesignSpace::new(&[4, 4], &[true, true]),
            DesignSpace::new(&[12, 5, 8], &[true, false, true]),
            DesignSpace::new(&[7], &[true]),
        ] {
            let collected: Vec<UnrollVector> = space.iter().collect();
            let mut visited = Vec::new();
            space.for_each_member(|u| visited.push(UnrollVector(u.to_vec())));
            assert_eq!(visited, collected);
        }
    }

    const FIR: &str = "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
       for j in 0..64 { for i in 0..32 {
         D[j] = D[j] + S[i + j] * C[i]; } } }";

    fn fir_summary() -> LegalitySummary {
        let k = defacto_ir::parse_kernel(FIR).unwrap();
        LegalitySummary::analyze(&k).unwrap()
    }

    #[test]
    fn axis_labels_round_trip() {
        for axis in Axis::ALL {
            assert_eq!(axis.label().parse::<Axis>().unwrap(), axis);
        }
        assert!("unrol".parse::<Axis>().is_err());
        assert!("".parse::<Axis>().is_err());
    }

    #[test]
    fn unroll_only_joint_space_projects_to_the_legacy_space() {
        let summary = fir_summary();
        let legacy = DesignSpace::new(&[64, 32], &[true, true]);
        let joint = DesignSpace::with_axes(&[64, 32], &[true, true], &summary, &[Axis::Unroll], 32);
        assert!(joint.is_joint() && !legacy.is_joint());
        // Same unroll factor domains bit for bit.
        assert_eq!(joint.size(), legacy.size());
        let legacy_vectors: Vec<UnrollVector> = legacy.iter().collect();
        let joint_vectors: Vec<UnrollVector> = joint
            .joint_points()
            .iter()
            .map(|p| {
                assert!(p.is_unroll_only());
                p.unroll_vector()
            })
            .collect();
        assert_eq!(joint_vectors, legacy_vectors);
        assert_eq!(joint.pruned_counts().unwrap().total(), 0);
    }

    #[test]
    fn fir_all_axes_space_shape() {
        let summary = fir_summary();
        let joint = DesignSpace::with_axes(&[64, 32], &[true, true], &summary, &Axis::ALL, 32);
        // FIR: both orders legal, no narrowing/packing applies (i32 at a
        // 32-bit word), every level tilable. 2 perms × 42 unroll vectors
        // + proper-divisor tiles (5 on the 64 loop, 4 on the 32 loop).
        assert_eq!(joint.joint_size(), 2 * 42 + 5 + 4);
        assert_eq!(joint.pruned_counts().unwrap().total(), 0);
        // Membership is exact.
        let member = &joint.joint_points()[0];
        assert!(joint.contains_joint(member));
        let mut outsider = member.clone();
        outsider.unroll = vec![3, 1];
        assert!(!joint.contains_joint(&outsider));
        // Legacy spaces have no joint members.
        assert!(!DesignSpace::new(&[64, 32], &[true, true]).contains_joint(member));
    }

    #[test]
    fn wavefront_legality_prunes_the_joint_space() {
        // A[i][j] = A[i-1][j+1]: distance (1, -1) pins the identity order,
        // blocks outer jam, and makes no level tilable (hoisting any tile
        // loop would cross the carrying level... level 0 carries it, so
        // level 0 itself stays hoistable but level 1 does not).
        let k = defacto_ir::parse_kernel(
            "kernel wf { inout A: i32[9][10];
               for i in 1..9 { for j in 0..8 {
                 A[i][j] = A[i - 1][j + 1] + 1; } } }",
        )
        .unwrap();
        let k = defacto_xform::normalize_loops(&k).unwrap();
        let summary = LegalitySummary::analyze(&k).unwrap();
        let trips: Vec<i64> = k.perfect_nest().unwrap().trip_counts();
        let joint = DesignSpace::with_axes(&trips, &[true, true], &summary, &Axis::ALL, 32);
        let pruned = joint.pruned_counts().unwrap();
        assert_eq!(pruned.permutations, 1, "swap must be pruned");
        assert!(pruned.unroll_perm > 0, "outer jams must be pruned");
        assert!(pruned.tiles > 0, "j-tiles must be pruned");
        // Everything that survives is statically legal: the identity
        // permutation only, and no unroll vector with an outer factor > 1.
        for p in joint.joint_points() {
            assert!(p.identity_permutation());
            assert!(summary
                .jam_violation_under(&p.permutation, &p.unroll)
                .is_none());
            if let Some((level, _)) = p.tile {
                assert!(summary.tilable(level));
            }
        }
    }

    #[test]
    fn flag_axes_only_appear_when_the_summary_proves_them() {
        // u8 input feeding an i32 accumulator with a declared range:
        // packing and narrowing both apply.
        let k = defacto_ir::parse_kernel(
            "kernel p { in A: u8[64]; out B: i32[64] range 0..100;
               for i in 0..64 { B[i] = A[i] + 1; } }",
        )
        .unwrap();
        let summary = LegalitySummary::analyze(&k).unwrap();
        assert!(summary.packing_effective(32));
        assert!(summary.narrowing_applicable());
        let joint = DesignSpace::with_axes(&[64], &[true], &summary, &Axis::ALL, 32);
        // 7 unroll vectors × {narrow off/on} × {pack off/on} + 5 tiles × 4.
        assert_eq!(joint.joint_size(), 7 * 4 + 5 * 4);
        assert!(joint.joint_points().iter().any(|p| p.narrow && p.pack));
        // At a word width the elements already fill, the pack flag
        // collapses back to off.
        let narrow_only = DesignSpace::with_axes(&[64], &[true], &summary, &Axis::ALL, 8);
        assert!(narrow_only.joint_points().iter().all(|p| !p.pack));
    }

    #[test]
    fn sibling_groups_are_contiguous_in_enumeration_order() {
        let k = defacto_ir::parse_kernel(
            "kernel p { in A: u8[8][64]; out B: i32[8][64] range 0..100;
               for r in 0..8 { for i in 0..64 { B[r][i] = A[r][i] + 1; } } }",
        )
        .unwrap();
        let summary = LegalitySummary::analyze(&k).unwrap();
        let joint = DesignSpace::with_axes(&[8, 64], &[true, true], &summary, &Axis::ALL, 32);
        let points = joint.joint_points();
        let groups: Vec<&[JointPoint]> = sibling_groups(points).collect();
        // Both flags apply, so every group holds all four flag pairs...
        assert!(groups.iter().all(|g| g.len() == 4), "{groups:?}");
        assert_eq!(groups.iter().map(|g| g.len()).sum::<usize>(), points.len());
        // ...and no group's code shows up in a second run.
        let keys: std::collections::HashSet<_> = groups
            .iter()
            .map(|g| (&g[0].unroll, &g[0].permutation, g[0].tile))
            .collect();
        assert_eq!(keys.len(), groups.len());
    }
}
