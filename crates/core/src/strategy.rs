//! Pluggable search strategies over the joint multi-axis design space.
//!
//! [`Explorer::joint_sweep`](crate::Explorer::joint_sweep) enumerates
//! and evaluates *every* statically-legal joint point — fine for the
//! 42-point unroll space, wasteful for a joint space that multiplies
//! interchange, tiling and flag axes in. A [`SearchStrategy`] instead
//! decides which points deserve a tier-1 (transform + behavioral
//! estimate) evaluation, using the tier-0 joint analytic bands
//! ([`defacto_synth::JointAnalyticModel`]) to rule subtrees out:
//!
//! - [`Exhaustive`] — evaluates everything; the ground-truth baseline;
//! - [`BranchAndBound`] — seeds at the Figure-2 saturation point,
//!   orders the remaining candidates by their tier-0 cycle lower bound
//!   and prunes every point whose band *proves* it cannot beat the
//!   incumbent. Selections are **bit-identical** to the exhaustive
//!   sweep (see the soundness argument on [`BranchAndBound`]);
//! - [`CoordinateDescent`] — walks one axis at a time from the
//!   saturation seed, moving on strict improvement, and reports a
//!   measured optimality-gap bound instead of an exactness proof.
//!
//! Strategies are pure decision procedures: all evaluation, bounding
//! and trace recording goes through a [`StrategyContext`] provided by
//! the explorer, so the decision sequence — and therefore the trace and
//! the selection — is deterministic at any worker count.

use crate::error::Result;
use crate::exhaustive::best_joint_performance;
use crate::explorer::EvaluatedJointDesign;
use crate::space::{Axis, JointPoint};
use defacto_synth::AnalyticBand;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// Which search strategy drives a guided joint exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StrategyKind {
    /// Evaluate every point of the space (the ground-truth baseline).
    Exhaustive,
    /// Per-axis local descent from the saturation seed; reports an
    /// optimality-gap bound.
    CoordinateDescent,
    /// Bound-and-prune with tier-0 bands; selections bit-identical to
    /// [`StrategyKind::Exhaustive`] (the default).
    #[default]
    BranchAndBound,
}

impl StrategyKind {
    /// Every strategy, in documentation order.
    pub const ALL: [StrategyKind; 3] = [
        StrategyKind::Exhaustive,
        StrategyKind::CoordinateDescent,
        StrategyKind::BranchAndBound,
    ];

    /// Stable kebab-case label, for JSON output and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::Exhaustive => "exhaustive",
            StrategyKind::CoordinateDescent => "coordinate-descent",
            StrategyKind::BranchAndBound => "branch-and-bound",
        }
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for StrategyKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "exhaustive" => Ok(StrategyKind::Exhaustive),
            "coordinate-descent" => Ok(StrategyKind::CoordinateDescent),
            "branch-and-bound" => Ok(StrategyKind::BranchAndBound),
            other => Err(format!(
                "unknown strategy `{other}` (expected exhaustive|coordinate-descent|branch-and-bound)"
            )),
        }
    }
}

/// The evaluation services a strategy runs against. Implemented by the
/// explorer (tier-1 evaluations fan out across its engine's workers;
/// tier-0 bands come from the joint analytic model; recording goes to
/// the trace sink) and by lightweight mocks in tests.
pub trait StrategyContext {
    /// Every point of the space, in enumeration order.
    fn points(&self) -> &[JointPoint];

    /// The Figure-2 saturation seed as a joint point, when it is a
    /// member of the space.
    fn seed(&self) -> Option<JointPoint>;

    /// Tier-1 evaluate a batch, order-preserving (workers may fan out;
    /// results come back in argument order).
    ///
    /// # Errors
    ///
    /// Propagates the earliest (in argument order) evaluation failure.
    fn evaluate_batch(&self, points: &[JointPoint]) -> Result<Vec<EvaluatedJointDesign>>;

    /// Tier-0 bands for a batch, order-preserving. `None` per point
    /// when no analytic model admits it — such points can never be
    /// pruned.
    fn bound_batch(&self, points: &[JointPoint]) -> Vec<Option<AnalyticBand>>;

    /// Record one tier-1 step (a
    /// [`TraceEvent::StrategyStep`](crate::TraceEvent::StrategyStep));
    /// `incumbent` is the best fitting cycle count *before* this step.
    fn record_step(&self, design: &EvaluatedJointDesign, incumbent: Option<u64>);

    /// Record one bound-based prune (a
    /// [`TraceEvent::BoundPrune`](crate::TraceEvent::BoundPrune));
    /// `threshold` is the cycle bound `band.cycles_lo` exceeded, `None`
    /// for a capacity prune.
    fn record_prune(&self, point: &JointPoint, band: &AnalyticBand, threshold: Option<u64>);
}

/// What a strategy run did and found.
#[derive(Debug, Clone)]
pub struct GuidedOutcome {
    /// Every tier-1-evaluated design, in decision order. The selection
    /// is [`best_joint_performance`] over this set.
    pub evaluated: Vec<EvaluatedJointDesign>,
    /// Points excluded by a tier-0 bound without a tier-1 evaluation.
    pub pruned: u64,
    /// Upper bound on how many cycles the selection may be worse than
    /// the true optimum. `Some(0)` for strategies whose selection is
    /// proven exact ([`Exhaustive`], [`BranchAndBound`]); a measured
    /// bound for [`CoordinateDescent`]; `None` when no bound exists
    /// (the strategy selected nothing that fits).
    pub gap_cycles: Option<u64>,
}

/// A search strategy over the joint space (see the module docs).
pub trait SearchStrategy: std::fmt::Debug {
    /// Which strategy this is.
    fn kind(&self) -> StrategyKind;

    /// Run the search to completion against `cx`.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures (a transform failure on an
    /// enumerated point is a membership-soundness bug, never skipped).
    fn run(&self, cx: &dyn StrategyContext) -> Result<GuidedOutcome>;
}

/// The strategy implementation for `kind`.
pub fn strategy_for(kind: StrategyKind) -> Box<dyn SearchStrategy> {
    match kind {
        StrategyKind::Exhaustive => Box::new(Exhaustive),
        StrategyKind::CoordinateDescent => Box::new(CoordinateDescent),
        StrategyKind::BranchAndBound => Box::new(BranchAndBound),
    }
}

/// Running best-fitting-cycles tracker; commits steps to the trace in
/// decision order.
#[derive(Debug, Default)]
struct Incumbent(Option<u64>);

impl Incumbent {
    fn commit(&mut self, cx: &dyn StrategyContext, d: &EvaluatedJointDesign) {
        cx.record_step(d, self.0);
        if d.estimate.fits {
            self.0 = Some(
                self.0
                    .map_or(d.estimate.cycles, |c| c.min(d.estimate.cycles)),
            );
        }
    }
}

/// Evaluate every point of the space, in enumeration order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exhaustive;

impl SearchStrategy for Exhaustive {
    fn kind(&self) -> StrategyKind {
        StrategyKind::Exhaustive
    }

    fn run(&self, cx: &dyn StrategyContext) -> Result<GuidedOutcome> {
        let evaluated = cx.evaluate_batch(cx.points())?;
        let mut incumbent = Incumbent::default();
        for d in &evaluated {
            incumbent.commit(cx, d);
        }
        Ok(GuidedOutcome {
            evaluated,
            pruned: 0,
            gap_cycles: Some(0),
        })
    }
}

/// Best-first branch-and-bound over the joint space.
///
/// One parallel tier-0 pass prices every point, then:
///
/// 1. points whose band proves `slices_lo > capacity`
///    (`!fits_possible`) are pruned — their true estimate has
///    `fits == false`, so [`best_joint_performance`] would filter them
///    anyway;
/// 2. the saturation seed and every point the model declined are
///    evaluated unconditionally;
/// 3. the rest are visited in `(cycles_lo, enumeration index)` order;
///    a point is pruned when `cycles_lo > T`, where `T` is the minimum
///    of the exact cycles of the best fitting design evaluated so far
///    and the smallest `cycles_hi` among certainly-fitting bands. Once
///    one sorted candidate prunes, every later one does too.
///
/// **Soundness (bit-identity):** suppose the exhaustive winner `w` were
/// pruned. A capacity prune contradicts `w.fits`. A cycle prune gives
/// `w.cycles ≥ w.cycles_lo > T` (the band brackets the true estimate);
/// but `T` is either the exact cycle count of some fitting design, or a
/// certainly-fitting band's `cycles_hi` ≥ that point's true cycles — in
/// both cases some fitting design has cycles ≤ `T` < `w.cycles`,
/// contradicting `w`'s optimality (strictly, so ties are impossible).
/// Hence the winner is always evaluated, and
/// [`best_joint_performance`] — a pure minimum over the evaluated set —
/// returns exactly the exhaustive selection.
#[derive(Debug, Clone, Copy, Default)]
pub struct BranchAndBound;

impl SearchStrategy for BranchAndBound {
    fn kind(&self) -> StrategyKind {
        StrategyKind::BranchAndBound
    }

    fn run(&self, cx: &dyn StrategyContext) -> Result<GuidedOutcome> {
        let points = cx.points();
        let bands = cx.bound_batch(points);
        debug_assert_eq!(bands.len(), points.len());

        // Capacity prunes first, in enumeration order.
        let mut pruned: u64 = 0;
        let mut capacity_pruned = vec![false; points.len()];
        for (i, band) in bands.iter().enumerate() {
            if let Some(b) = band {
                if !b.fits_possible {
                    cx.record_prune(&points[i], b, None);
                    capacity_pruned[i] = true;
                    pruned += 1;
                }
            }
        }

        let seed_idx = cx
            .seed()
            .and_then(|s| points.iter().position(|p| *p == s))
            .filter(|&i| !capacity_pruned[i]);

        // Unconditional head: the seed, then every surviving point the
        // model declined (no band ⇒ no bound ⇒ must evaluate).
        let mut head: Vec<usize> = seed_idx.into_iter().collect();
        head.extend(
            (0..points.len())
                .filter(|&i| bands[i].is_none() && !capacity_pruned[i] && Some(i) != seed_idx),
        );

        // The bounded candidates, cheapest lower bound first; ties go to
        // enumeration order. Sorting makes the prune condition monotone
        // along the walk: once one candidate's bound exceeds the
        // threshold, every later one's does too.
        let mut ranked: Vec<usize> = (0..points.len())
            .filter(|&i| bands[i].is_some() && !capacity_pruned[i] && Some(i) != seed_idx)
            .collect();
        ranked.sort_by_key(|&i| (bands[i].as_ref().expect("ranked have bands").cycles_lo, i));

        // Threshold seed: any certainly-fitting band's upper cycle bound
        // already upper-bounds the winner's cycles, before any tier-1
        // evaluation has run.
        let certain_hi: Option<u64> = bands
            .iter()
            .flatten()
            .filter(|b| b.fits_certain)
            .map(|b| b.cycles_hi)
            .min();

        let mut evaluated = Vec::new();
        let mut incumbent = Incumbent::default();
        let head_points: Vec<JointPoint> = head.iter().map(|&i| points[i].clone()).collect();
        for d in cx.evaluate_batch(&head_points)? {
            incumbent.commit(cx, &d);
            evaluated.push(d);
        }

        for (pos, &i) in ranked.iter().enumerate() {
            let threshold = match (certain_hi, incumbent.0) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let b = bands[i].as_ref().expect("ranked have bands");
            if let Some(t) = threshold {
                if b.cycles_lo > t {
                    for &j in &ranked[pos..] {
                        cx.record_prune(
                            &points[j],
                            bands[j].as_ref().expect("ranked have bands"),
                            Some(t),
                        );
                        pruned += 1;
                    }
                    break;
                }
            }
            let mut batch = cx.evaluate_batch(std::slice::from_ref(&points[i]))?;
            let d = batch.pop().expect("one result per point");
            incumbent.commit(cx, &d);
            evaluated.push(d);
        }

        Ok(GuidedOutcome {
            evaluated,
            pruned,
            gap_cycles: Some(0),
        })
    }
}

/// Per-axis local descent from the saturation seed.
///
/// Each pass visits the axes in a fixed order (unroll, interchange,
/// tile, narrow, pack); for each axis the current point's neighbors —
/// the space members differing from it along that axis only — are
/// band-pruned against the current design, batch-evaluated, and the
/// walk moves on strict improvement under the selection order (fitting
/// first, then cycles, slices, coordinate). The walk is strictly
/// decreasing in a total order over a finite set, so it terminates; it
/// stops after the first full pass with no move.
///
/// The reported [`GuidedOutcome::gap_cycles`] is
/// `selected.cycles − min(cycles_lo)` over the whole space's bands —
/// the true optimum's cycles are at least that minimum (every band
/// brackets its point's true estimate), so the selection is provably
/// within `gap_cycles` of optimal. A point the model declines drops the
/// floor to zero (its true cycles are unbounded below).
#[derive(Debug, Clone, Copy, Default)]
pub struct CoordinateDescent;

/// Total selection order: fitting designs first, then (cycles, slices),
/// then the joint coordinate — the [`best_joint_performance`] order
/// extended to non-fitting designs so a not-yet-fitting walk can still
/// make progress.
fn descent_rank(a: &EvaluatedJointDesign, b: &EvaluatedJointDesign) -> Ordering {
    (!a.estimate.fits, a.estimate.cycles, a.estimate.slices)
        .cmp(&(!b.estimate.fits, b.estimate.cycles, b.estimate.slices))
        .then_with(|| a.point.cmp(&b.point))
}

/// The unroll factor applied to each *original* loop level:
/// `p.unroll[k]` unrolls original level `p.permutation[k]`.
fn original_factors(p: &JointPoint) -> Vec<i64> {
    let mut orig = vec![1; p.unroll.len()];
    for (k, &l) in p.permutation.iter().enumerate() {
        if let Some(slot) = orig.get_mut(l) {
            *slot = p.unroll[k];
        }
    }
    orig
}

/// Indices of `cur`'s neighbors along `axis`, in enumeration order.
fn axis_neighbors(points: &[JointPoint], cur: &JointPoint, axis: Axis) -> Vec<usize> {
    points
        .iter()
        .enumerate()
        .filter(|(_, q)| {
            *q != cur
                && match axis {
                    Axis::Unroll => {
                        q.permutation == cur.permutation
                            && q.tile == cur.tile
                            && q.narrow == cur.narrow
                            && q.pack == cur.pack
                    }
                    Axis::Interchange => {
                        q.permutation != cur.permutation
                            && q.tile == cur.tile
                            && q.narrow == cur.narrow
                            && q.pack == cur.pack
                            && original_factors(q) == original_factors(cur)
                    }
                    // Tiled points live at all-ones unroll under the
                    // identity order, so the tile axis hops between tile
                    // choices (and back out to the untiled baseline).
                    Axis::Tile => {
                        q.tile != cur.tile
                            && q.narrow == cur.narrow
                            && q.pack == cur.pack
                            && (q.tile.is_some()
                                || (q.is_unroll_only() && q.unroll.iter().all(|&f| f == 1)))
                    }
                    Axis::Narrow => {
                        q.narrow != cur.narrow
                            && q.unroll == cur.unroll
                            && q.permutation == cur.permutation
                            && q.tile == cur.tile
                            && q.pack == cur.pack
                    }
                    Axis::Pack => {
                        q.pack != cur.pack
                            && q.unroll == cur.unroll
                            && q.permutation == cur.permutation
                            && q.tile == cur.tile
                            && q.narrow == cur.narrow
                    }
                }
        })
        .map(|(i, _)| i)
        .collect()
}

impl SearchStrategy for CoordinateDescent {
    fn kind(&self) -> StrategyKind {
        StrategyKind::CoordinateDescent
    }

    fn run(&self, cx: &dyn StrategyContext) -> Result<GuidedOutcome> {
        let points = cx.points();
        if points.is_empty() {
            return Ok(GuidedOutcome {
                evaluated: Vec::new(),
                pruned: 0,
                gap_cycles: None,
            });
        }
        let bands = cx.bound_batch(points);

        // With no model at all the descent cannot bound a gap; fall
        // back to the exhaustive baseline, which is exact.
        if bands.iter().all(Option::is_none) {
            return Exhaustive.run(cx);
        }

        // The first enumerated point is the all-ones identity baseline.
        let seed_idx = cx
            .seed()
            .and_then(|s| points.iter().position(|p| *p == s))
            .unwrap_or(0);

        let mut designs: HashMap<usize, EvaluatedJointDesign> = HashMap::new();
        let mut order: Vec<usize> = Vec::new();
        let mut pruned_set: HashSet<usize> = HashSet::new();
        let mut incumbent = Incumbent::default();

        let eval_indices = |idxs: &[usize],
                            designs: &mut HashMap<usize, EvaluatedJointDesign>,
                            order: &mut Vec<usize>,
                            incumbent: &mut Incumbent|
         -> Result<()> {
            let fresh: Vec<usize> = idxs
                .iter()
                .copied()
                .filter(|i| !designs.contains_key(i))
                .collect();
            let batch: Vec<JointPoint> = fresh.iter().map(|&i| points[i].clone()).collect();
            for (i, d) in fresh.iter().zip(cx.evaluate_batch(&batch)?) {
                incumbent.commit(cx, &d);
                designs.insert(*i, d);
                order.push(*i);
            }
            Ok(())
        };

        eval_indices(&[seed_idx], &mut designs, &mut order, &mut incumbent)?;
        let mut cur = seed_idx;

        loop {
            let mut moved = false;
            for axis in Axis::ALL {
                let nbrs = axis_neighbors(points, &points[cur], axis);
                if nbrs.is_empty() {
                    continue;
                }
                let cur_d = designs[&cur].clone();
                let mut candidates = Vec::new();
                for i in nbrs {
                    if designs.contains_key(&i) {
                        candidates.push(i);
                        continue;
                    }
                    match &bands[i] {
                        Some(b) if !b.fits_possible => {
                            if pruned_set.insert(i) {
                                cx.record_prune(&points[i], b, None);
                            }
                        }
                        Some(b) if cur_d.estimate.fits && b.cycles_lo > cur_d.estimate.cycles => {
                            if pruned_set.insert(i) {
                                cx.record_prune(&points[i], b, Some(cur_d.estimate.cycles));
                            }
                        }
                        _ => candidates.push(i),
                    }
                }
                eval_indices(&candidates, &mut designs, &mut order, &mut incumbent)?;
                let best = candidates
                    .iter()
                    .copied()
                    .chain(std::iter::once(cur))
                    .min_by(|&a, &b| descent_rank(&designs[&a], &designs[&b]))
                    .expect("candidate set includes the current point");
                if best != cur {
                    cur = best;
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }

        let evaluated: Vec<EvaluatedJointDesign> =
            order.iter().map(|i| designs[i].clone()).collect();
        let gap_cycles = best_joint_performance(&evaluated).map(|sel| {
            let floor = bands
                .iter()
                .map(|b| match b {
                    Some(b) if b.fits_possible => b.cycles_lo,
                    // A missing or capacity-pruned band cannot lower-
                    // bound the optimum... a capacity-pruned point can
                    // never be the optimum, so only a missing band
                    // forces the floor to zero.
                    Some(_) => u64::MAX,
                    None => 0,
                })
                .min()
                .unwrap_or(0);
            sel.estimate.cycles.saturating_sub(floor)
        });
        Ok(GuidedOutcome {
            evaluated,
            pruned: pruned_set.len() as u64,
            gap_cycles,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defacto_synth::Estimate;
    use std::cell::RefCell;

    fn point(u: i64, narrow: bool) -> JointPoint {
        JointPoint {
            unroll: vec![u],
            permutation: vec![0],
            tile: None,
            narrow,
            pack: false,
        }
    }

    fn estimate(cycles: u64, slices: u32, fits: bool) -> Estimate {
        Estimate {
            cycles,
            slices,
            memory_busy_cycles: 0,
            compute_busy_cycles: 0,
            bits_from_memory: 0,
            registers: 0,
            balance: 1.0,
            clock_ns: 40,
            fits,
            provenance: Default::default(),
        }
    }

    fn band(lo: u64, hi: u64, fits_possible: bool, fits_certain: bool) -> AnalyticBand {
        AnalyticBand {
            cycles_lo: lo,
            cycles_hi: hi,
            slices_lo: 1,
            slices_hi: 1,
            mem_busy_lo: 0,
            mem_busy_hi: u64::MAX,
            comp_busy_lo: 0,
            comp_busy_hi: u64::MAX,
            bits_lo: 0,
            bits_hi: u64::MAX,
            registers: 0,
            balance_lo: 0.0,
            balance_hi: f64::INFINITY,
            fits_possible,
            fits_certain,
            clock_ns: 40,
        }
    }

    /// A scripted space: per-point exact estimates and optional bands.
    struct MockCx {
        points: Vec<JointPoint>,
        estimates: Vec<Estimate>,
        bands: Vec<Option<AnalyticBand>>,
        seed: Option<JointPoint>,
        evaluations: RefCell<u64>,
        incumbents: RefCell<Vec<Option<u64>>>,
        prunes: RefCell<Vec<JointPoint>>,
    }

    impl MockCx {
        fn new(
            rows: Vec<(JointPoint, Estimate, Option<AnalyticBand>)>,
            seed: Option<JointPoint>,
        ) -> MockCx {
            let (points, rest): (Vec<_>, Vec<_>) =
                rows.into_iter().map(|(p, e, b)| (p, (e, b))).unzip();
            let (estimates, bands) = rest.into_iter().unzip();
            MockCx {
                points,
                estimates,
                bands,
                seed,
                evaluations: RefCell::new(0),
                incumbents: RefCell::new(Vec::new()),
                prunes: RefCell::new(Vec::new()),
            }
        }

        fn exhaustive_winner(&self) -> EvaluatedJointDesign {
            let all: Vec<EvaluatedJointDesign> = self
                .points
                .iter()
                .zip(&self.estimates)
                .map(|(p, e)| EvaluatedJointDesign {
                    point: p.clone(),
                    estimate: e.clone(),
                })
                .collect();
            best_joint_performance(&all)
                .expect("a fitting point")
                .clone()
        }
    }

    impl StrategyContext for MockCx {
        fn points(&self) -> &[JointPoint] {
            &self.points
        }

        fn seed(&self) -> Option<JointPoint> {
            self.seed.clone()
        }

        fn evaluate_batch(&self, points: &[JointPoint]) -> Result<Vec<EvaluatedJointDesign>> {
            *self.evaluations.borrow_mut() += points.len() as u64;
            Ok(points
                .iter()
                .map(|p| {
                    let i = self.points.iter().position(|q| q == p).expect("member");
                    EvaluatedJointDesign {
                        point: p.clone(),
                        estimate: self.estimates[i].clone(),
                    }
                })
                .collect())
        }

        fn bound_batch(&self, points: &[JointPoint]) -> Vec<Option<AnalyticBand>> {
            points
                .iter()
                .map(|p| {
                    let i = self.points.iter().position(|q| q == p).expect("member");
                    self.bands[i].clone()
                })
                .collect()
        }

        fn record_step(&self, _design: &EvaluatedJointDesign, incumbent: Option<u64>) {
            self.incumbents.borrow_mut().push(incumbent);
        }

        fn record_prune(&self, point: &JointPoint, _band: &AnalyticBand, _threshold: Option<u64>) {
            self.prunes.borrow_mut().push(point.clone());
        }
    }

    #[test]
    fn strategy_kind_labels_round_trip() {
        for kind in StrategyKind::ALL {
            assert_eq!(kind.label().parse::<StrategyKind>().unwrap(), kind);
            assert_eq!(strategy_for(kind).kind(), kind);
        }
        let err = "sideways".parse::<StrategyKind>().unwrap_err();
        assert_eq!(
            err,
            "unknown strategy `sideways` (expected exhaustive|coordinate-descent|branch-and-bound)"
        );
        assert_eq!(StrategyKind::default(), StrategyKind::BranchAndBound);
    }

    #[test]
    fn exhaustive_evaluates_every_point_with_monotone_incumbent() {
        let cx = MockCx::new(
            vec![
                (point(1, false), estimate(500, 10, true), None),
                (point(2, false), estimate(300, 20, true), None),
                (point(4, false), estimate(400, 30, true), None),
            ],
            None,
        );
        let out = Exhaustive.run(&cx).unwrap();
        assert_eq!(out.evaluated.len(), 3);
        assert_eq!(out.pruned, 0);
        assert_eq!(out.gap_cycles, Some(0));
        assert_eq!(*cx.incumbents.borrow(), vec![None, Some(500), Some(300)]);
    }

    #[test]
    fn branch_and_bound_prunes_and_matches_exhaustive() {
        // The seed (u=2) is good; u=8's lower bound (450) exceeds both
        // the seed's exact 300 and u=4's certain upper bound 420.
        let cx = MockCx::new(
            vec![
                (
                    point(1, false),
                    estimate(500, 10, true),
                    Some(band(480, 520, true, true)),
                ),
                (
                    point(2, false),
                    estimate(300, 20, true),
                    Some(band(280, 330, true, true)),
                ),
                (
                    point(4, false),
                    estimate(400, 30, true),
                    Some(band(380, 420, true, true)),
                ),
                (
                    point(8, false),
                    estimate(470, 40, true),
                    Some(band(450, 490, true, true)),
                ),
            ],
            Some(point(2, false)),
        );
        let out = BranchAndBound.run(&cx).unwrap();
        let selected = best_joint_performance(&out.evaluated).unwrap();
        assert_eq!(selected.point, cx.exhaustive_winner().point);
        assert_eq!(selected.estimate, cx.exhaustive_winner().estimate);
        assert_eq!(out.gap_cycles, Some(0));
        // u=1 (lo 480 > 300) and u=8 (lo 450 > 300) prune; only the
        // seed and u=4 (lo 380, but 380 > 330? no: threshold is
        // min(exact 300, certain_hi 330) = 300, and 380 > 300) — so
        // u=4 prunes too: one evaluation total.
        assert_eq!(out.evaluated.len(), 1);
        assert_eq!(out.pruned, 3);
        assert_eq!(*cx.evaluations.borrow(), 1);
        // The pruned set never contains the selection.
        assert!(cx.prunes.borrow().iter().all(|p| *p != selected.point));
    }

    #[test]
    fn branch_and_bound_capacity_prune_is_sound() {
        // The fastest band belongs to a point that cannot fit; it must
        // be pruned on capacity and the fitting point selected.
        let cx = MockCx::new(
            vec![
                (
                    point(1, false),
                    estimate(100, 99999, false),
                    Some(band(90, 110, false, false)),
                ),
                (
                    point(2, false),
                    estimate(300, 20, true),
                    Some(band(280, 330, true, true)),
                ),
            ],
            None,
        );
        let out = BranchAndBound.run(&cx).unwrap();
        let selected = best_joint_performance(&out.evaluated).unwrap();
        assert_eq!(selected.point, point(2, false));
        assert_eq!(out.pruned, 1);
    }

    #[test]
    fn branch_and_bound_without_model_degrades_to_exhaustive() {
        let cx = MockCx::new(
            vec![
                (point(1, false), estimate(500, 10, true), None),
                (point(2, false), estimate(300, 20, true), None),
            ],
            None,
        );
        let out = BranchAndBound.run(&cx).unwrap();
        assert_eq!(out.evaluated.len(), 2);
        assert_eq!(out.pruned, 0);
        assert_eq!(
            best_joint_performance(&out.evaluated).unwrap().point,
            point(2, false)
        );
    }

    #[test]
    fn coordinate_descent_walks_axes_and_bounds_the_gap() {
        // Optimum (u=4, narrow) is two moves from the seed: unroll
        // descent to u=4, then the narrow flip.
        let rows = vec![
            (
                point(1, false),
                estimate(500, 10, true),
                Some(band(480, 520, true, true)),
            ),
            (
                point(2, false),
                estimate(400, 20, true),
                Some(band(380, 430, true, true)),
            ),
            (
                point(4, false),
                estimate(300, 30, true),
                Some(band(280, 330, true, true)),
            ),
            (
                point(1, true),
                estimate(450, 10, true),
                Some(band(430, 470, true, true)),
            ),
            (
                point(2, true),
                estimate(350, 20, true),
                Some(band(330, 380, true, true)),
            ),
            (
                point(4, true),
                estimate(250, 30, true),
                Some(band(230, 280, true, true)),
            ),
        ];
        let cx = MockCx::new(rows, Some(point(1, false)));
        let out = CoordinateDescent.run(&cx).unwrap();
        let selected = best_joint_performance(&out.evaluated).unwrap();
        assert_eq!(selected.point, point(4, true));
        // Gap bound: selected 250 − floor 230 = 20, and the true gap
        // (0) is within it.
        assert_eq!(out.gap_cycles, Some(20));
        // Incumbents were monotone non-increasing.
        let incs: Vec<Option<u64>> = cx.incumbents.borrow().clone();
        for w in incs.windows(2) {
            if let (Some(a), Some(b)) = (w[0], w[1]) {
                assert!(b <= a, "incumbent went up: {incs:?}");
            }
        }
    }

    #[test]
    fn coordinate_descent_gap_floors_at_zero_without_full_coverage() {
        // One point has no band: the floor drops to zero and the gap
        // equals the selection's own cycles.
        let cx = MockCx::new(
            vec![
                (
                    point(1, false),
                    estimate(500, 10, true),
                    Some(band(480, 520, true, true)),
                ),
                (point(2, false), estimate(300, 20, true), None),
            ],
            None,
        );
        let out = CoordinateDescent.run(&cx).unwrap();
        let selected = best_joint_performance(&out.evaluated).unwrap();
        assert_eq!(out.gap_cycles, Some(selected.estimate.cycles));
    }
}
