//! Guided-strategy contract over the paper suite plus a constrained
//! wavefront.
//!
//! Branch-and-bound must select **bit-identically** (point and
//! estimate) to the exhaustive joint sweep while accounting for every
//! point it skipped, coordinate descent must land within its own
//! reported optimality gap, and both must make the same decisions at
//! any worker count. The wavefront kernel rides along because its
//! (1, -1) dependence pins the permutation and tile axes — the guided
//! strategies must agree with the sweep on a legality-pruned space too.

use defacto::exhaustive::best_joint_performance;
use defacto::prelude::*;
use defacto::synth::{estimate_opts, AnalyticBand, AnalyticModel, SynthesisOptions};
use defacto::xform::{transform, VariantCache};
use defacto::{strategy_for, StrategyContext};

const WORKER_COUNTS: [usize; 2] = [1, 8];

/// The paper kernels restricted to outermost-level unrolling (the
/// bench harness's smoke spaces — full multi-axis cross products stay
/// affordable in debug builds), plus the dependence-constrained
/// wavefront on its inner level.
fn suite() -> Vec<(String, Kernel, Vec<bool>)> {
    let mut cases: Vec<(String, Kernel, Vec<bool>)> = defacto_kernels::paper_kernels()
        .into_iter()
        .map(|(name, kernel)| {
            let depth = kernel
                .perfect_nest()
                .unwrap_or_else(|| panic!("{name} is not a perfect nest"))
                .depth();
            let mut levels = vec![false; depth];
            levels[0] = true;
            (name.to_string(), kernel, levels)
        })
        .collect();
    let wavefront = parse_kernel(
        "kernel wf { inout A: i32[17][16];
           for i in 0..16 { for j in 0..16 {
             A[i + 1][j] = A[i][j + 1] + 1; } } }",
    )
    .expect("wavefront parses");
    cases.push(("WF".to_string(), wavefront, vec![false, true]));
    cases
}

fn explorer<'k>(kernel: &'k Kernel, levels: &[bool], workers: usize) -> Explorer<'k> {
    Explorer::new(kernel)
        .axes(&Axis::ALL)
        .explore_levels(levels)
        .threads(workers)
}

/// What a strategy decided, reduced to the comparable parts.
#[derive(Debug, Clone, PartialEq)]
struct Decisions {
    selected: Option<EvaluatedJointDesign>,
    evaluated: Vec<JointPoint>,
    pruned: u64,
    gap_cycles: Option<u64>,
    space_points: u64,
}

fn decisions(r: &JointSearchResult) -> Decisions {
    Decisions {
        selected: r.selected.clone(),
        evaluated: r.evaluated.iter().map(|d| d.point.clone()).collect(),
        pruned: r.pruned,
        gap_cycles: r.gap_cycles,
        space_points: r.space_points,
    }
}

#[test]
fn branch_and_bound_is_bit_identical_to_the_exhaustive_joint_sweep() {
    for (name, kernel, levels) in suite() {
        for workers in WORKER_COUNTS {
            let ex = explorer(&kernel, &levels, workers);
            let sweep = ex.joint_sweep().expect("joint sweep succeeds");
            let truth = best_joint_performance(&sweep).expect("a design fits");
            let r = ex
                .joint_explore(StrategyKind::BranchAndBound)
                .expect("guided search succeeds");
            let got = r
                .selected
                .as_ref()
                .unwrap_or_else(|| panic!("{name} at {workers} workers: nothing selected"));
            assert_eq!(got.point, truth.point, "{name} at {workers} workers");
            assert_eq!(got.estimate, truth.estimate, "{name} at {workers} workers");
            // Every point is either paid for at tier 1 or provably
            // excluded by a tier-0 bound — none silently dropped.
            assert_eq!(r.space_points, sweep.len() as u64, "{name}");
            assert_eq!(
                r.stats.strategy_visited + r.stats.bounded_pruned,
                r.space_points,
                "{name} at {workers} workers"
            );
            assert!(
                r.stats.strategy_visited <= r.space_points,
                "{name} at {workers} workers"
            );
        }
    }
}

#[test]
fn coordinate_descent_lands_within_its_reported_gap() {
    for (name, kernel, levels) in suite() {
        for workers in WORKER_COUNTS {
            let ex = explorer(&kernel, &levels, workers);
            let sweep = ex.joint_sweep().expect("joint sweep succeeds");
            let truth = best_joint_performance(&sweep).expect("a design fits");
            let r = ex
                .joint_explore(StrategyKind::CoordinateDescent)
                .expect("guided search succeeds");
            let got = r
                .selected
                .as_ref()
                .unwrap_or_else(|| panic!("{name} at {workers} workers: nothing selected"));
            let gap = r
                .gap_cycles
                .unwrap_or_else(|| panic!("{name}: coordinate descent reports no gap"));
            assert!(
                got.estimate.cycles.saturating_sub(truth.estimate.cycles) <= gap,
                "{name} at {workers} workers: selected {} cycles, optimal {}, claimed gap {}",
                got.estimate.cycles,
                truth.estimate.cycles,
                gap
            );
        }
    }
}

#[test]
fn guided_decisions_are_identical_at_every_worker_count() {
    for (name, kernel, levels) in suite() {
        for kind in [
            StrategyKind::BranchAndBound,
            StrategyKind::CoordinateDescent,
        ] {
            let serial = decisions(
                &explorer(&kernel, &levels, 1)
                    .joint_explore(kind)
                    .expect("serial guided search succeeds"),
            );
            for workers in WORKER_COUNTS {
                let par = decisions(
                    &explorer(&kernel, &levels, workers)
                        .joint_explore(kind)
                        .expect("parallel guided search succeeds"),
                );
                assert_eq!(
                    par, serial,
                    "{name} {kind}: decisions differ at {workers} workers"
                );
            }
        }
    }
}

/// The per-point reference the explorer's grouped evaluation must match:
/// every point pays its own variant lookup, transform and estimate, and
/// its own member model, census and pricing for a band, through the
/// layers' public calls only. It groups nothing.
struct PerPoint<'a> {
    explorer: &'a Explorer<'a>,
    variants: VariantCache,
    points: Vec<JointPoint>,
    seed: Option<JointPoint>,
}

impl<'a> PerPoint<'a> {
    fn new(explorer: &'a Explorer<'a>) -> PerPoint<'a> {
        let space = explorer.joint_space().expect("joint space");
        let u_init = explorer.analyze().expect("analysis").0.u_init;
        let seed = JointPoint {
            unroll: u_init.factors().to_vec(),
            ..JointPoint::baseline(u_init.factors().len())
        };
        PerPoint {
            explorer,
            variants: VariantCache::new(explorer.kernel_ref()).expect("variants"),
            points: space.joint_points().to_vec(),
            seed: space.contains_joint(&seed).then_some(seed),
        }
    }

    fn unroll(p: &JointPoint) -> UnrollVector {
        match p.tile {
            Some(_) => UnrollVector::ones(p.unroll.len() + 1),
            None => p.unroll_vector(),
        }
    }

    fn synthesis(p: &JointPoint) -> SynthesisOptions {
        SynthesisOptions {
            bitwidth_narrowing: p.narrow,
            pack_small_types: p.pack,
            ..SynthesisOptions::default()
        }
    }

    fn estimate(&self, p: &JointPoint) -> EvaluatedJointDesign {
        let topts = self.explorer.transform_options();
        let variant = self.variants.get(&p.permutation, p.tile).expect("variant");
        let design = match &variant.prepared {
            Some(prepared) => prepared.transform(&Self::unroll(p), topts),
            None => transform(&variant.kernel, &Self::unroll(p), topts),
        }
        .expect("members transform");
        EvaluatedJointDesign {
            point: p.clone(),
            estimate: estimate_opts(
                &design,
                &MemoryModel::wildstar_pipelined(),
                self.explorer.device_ref(),
                &Self::synthesis(p),
            ),
        }
    }

    /// The point's own member model and its band.
    fn band(&self, p: &JointPoint) -> Option<(AnalyticModel, AnalyticBand)> {
        let prepared = self
            .variants
            .get(&p.permutation, p.tile)
            .ok()?
            .prepared
            .clone()?;
        let topts = self.explorer.transform_options();
        let model = AnalyticModel::new(
            prepared,
            MemoryModel::wildstar_pipelined(),
            self.explorer.device_ref().clone(),
            topts.clone(),
            Self::synthesis(p),
        )?;
        let census = model.prepared().census(&Self::unroll(p), topts).ok()?;
        let band = model.price(&census);
        Some((model, band))
    }

    /// What a [`Fidelity::Analytic`] sweep reports for the point: its
    /// band midpoint, or the tier-1 estimate where no band prices it.
    fn analytic(&self, p: &JointPoint) -> EvaluatedJointDesign {
        match self.band(p) {
            Some((model, band)) => EvaluatedJointDesign {
                point: p.clone(),
                estimate: model.synthetic_estimate(&band),
            },
            None => self.estimate(p),
        }
    }
}

impl StrategyContext for PerPoint<'_> {
    fn points(&self) -> &[JointPoint] {
        &self.points
    }

    fn seed(&self) -> Option<JointPoint> {
        self.seed.clone()
    }

    fn evaluate_batch(&self, points: &[JointPoint]) -> defacto::Result<Vec<EvaluatedJointDesign>> {
        Ok(points.iter().map(|p| self.estimate(p)).collect())
    }

    fn bound_batch(&self, points: &[JointPoint]) -> Vec<Option<AnalyticBand>> {
        points.iter().map(|p| Some(self.band(p)?.1)).collect()
    }

    fn record_step(&self, _: &EvaluatedJointDesign, _: Option<u64>) {}

    fn record_prune(&self, _: &JointPoint, _: &AnalyticBand, _: Option<u64>) {}
}

#[test]
fn grouped_evaluation_matches_a_per_point_reference_bit_for_bit() {
    for (name, kernel, levels) in suite() {
        for workers in WORKER_COUNTS {
            let ex = explorer(&kernel, &levels, workers);
            let reference = PerPoint::new(&ex);
            let all: Vec<EvaluatedJointDesign> = reference
                .points
                .iter()
                .map(|p| reference.estimate(p))
                .collect();
            assert_eq!(
                ex.joint_sweep().unwrap(),
                all,
                "{name} at {workers} workers"
            );
            let guided = strategy_for(StrategyKind::BranchAndBound)
                .run(&reference)
                .expect("reference search");
            let r = ex.joint_explore(StrategyKind::BranchAndBound).unwrap();
            assert_eq!(r.evaluated, guided.evaluated, "{name} at {workers} workers");
            assert_eq!(r.pruned, guided.pruned, "{name} at {workers} workers");
            let analytic: Vec<EvaluatedJointDesign> = reference
                .points
                .iter()
                .map(|p| reference.analytic(p))
                .collect();
            let tier0 = ex
                .clone()
                .fidelity(Fidelity::Analytic)
                .joint_sweep()
                .unwrap();
            assert_eq!(tier0, analytic, "{name} at {workers} workers");
        }
    }
}
