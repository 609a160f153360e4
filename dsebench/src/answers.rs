//! The four workloads, their answers through the library's top-level
//! entry points, and the checks every answer must pass.

use crate::inputs::{self, KERNELS};
use defacto::cache::PersistentCache;
use defacto::ir::{parse_kernel, Kernel};
use defacto::prelude::*;
use defacto::{best_joint_performance, EvaluatedJointDesign, JointPoint};
use serde_json::Value;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// One kind of design question, asked over and over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `explore --axes all`: tier-0 bands and tier-1 estimates together.
    Guided,
    /// Every joint point at tier 1, fanned out over two workers.
    Exhaustive,
    /// Every joint point at tier 0 only.
    Analytic,
    /// Edit-to-answer through an incremental session and its store.
    Watch,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Guided,
        Workload::Exhaustive,
        Workload::Analytic,
        Workload::Watch,
    ];

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Guided => "guided",
            Workload::Exhaustive => "exhaustive",
            Workload::Analytic => "analytic",
            Workload::Watch => "watch",
        }
    }

    /// Evaluation workers per answer; only `exhaustive` fans out.
    pub fn workers(self) -> usize {
        match self {
            Workload::Exhaustive => 2,
            _ => 1,
        }
    }

    /// The pooled percentile reported as `answer_ms_tail`, fixed so that
    /// runs stay comparable when answer counts move; a run keeps
    /// answering until ten answers lie beyond it. For the joint
    /// workloads the pooled tail is the slow kernels' latency: p90 is
    /// the middle of SOBEL's answers, where `analytic`'s p97.5 (the
    /// highest with ten beyond) moved by 40% between runs on a noisy
    /// host. `exhaustive` runs too few answers for more than p75, and
    /// p70 is the middle of JAC's: whole rounds fill the pooled order
    /// kernel by kernel, so only a block's middle stays put when a run
    /// ends after 8, 9 or 10 rounds.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::Guided | Workload::Analytic => 90.0,
            Workload::Exhaustive => 70.0,
            Workload::Watch => 99.0,
        }
    }
}

/// What a joint-space answer produced: enough to compare a replay bit
/// for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct JointOutcome {
    pub selected: Option<EvaluatedJointDesign>,
    /// Every estimate the answer made, in the library's order.
    pub designs: Vec<EvaluatedJointDesign>,
    /// Points a tier-0 bound excluded.
    pub pruned: u64,
    /// Size of the joint space.
    pub points: u64,
    /// Tier-1 evaluations.
    pub tier1: u64,
}

impl JointOutcome {
    pub fn from_sweep(designs: Vec<EvaluatedJointDesign>) -> JointOutcome {
        JointOutcome {
            selected: best_joint_performance(&designs).cloned(),
            pruned: 0,
            points: designs.len() as u64,
            tier1: designs
                .iter()
                .filter(|d| d.estimate.provenance.segments > 0)
                .count() as u64,
            designs,
        }
    }
}

/// What one `watch` revision produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchOutcome {
    pub selected: EvaluatedDesign,
    pub visited: Vec<EvaluatedDesign>,
    /// Tier-1 evaluations (store and memo misses).
    pub evaluated: u64,
}

/// Answer a joint-space question about `kernel`, cold.
pub fn joint(w: Workload, kernel: &Kernel) -> Result<JointOutcome, String> {
    let ex = Explorer::new(kernel).threads(w.workers()).axes(&Axis::ALL);
    match w {
        Workload::Guided => {
            let r = ex
                .joint_explore(StrategyKind::BranchAndBound)
                .map_err(|e| e.to_string())?;
            Ok(JointOutcome {
                selected: r.selected,
                designs: r.evaluated,
                pruned: r.pruned,
                points: r.space_points,
                tier1: r.stats.strategy_visited,
            })
        }
        Workload::Exhaustive => Ok(JointOutcome::from_sweep(
            ex.joint_sweep().map_err(|e| e.to_string())?,
        )),
        Workload::Analytic => Ok(JointOutcome::from_sweep(
            ex.fidelity(Fidelity::Analytic)
                .joint_sweep()
                .map_err(|e| e.to_string())?,
        )),
        Workload::Watch => unreachable!("watch answers through a session"),
    }
}

/// A `watch` session over an empty store in `dir`, with one worker like
/// the joint workloads.
pub fn open_session(dir: &Path) -> Result<IncrementalSession, String> {
    let store = PersistentCache::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(IncrementalSession::new(Arc::new(store)).engine(Arc::new(EvalEngine::new(1))))
}

/// Answer one saved revision: parse it, re-explore incrementally.
pub fn watch(session: &mut IncrementalSession, text: &str) -> Result<WatchOutcome, String> {
    let kernel = parse_kernel(text).map_err(|e| e.to_string())?;
    let out = session.explore(&kernel).map_err(|e| e.to_string())?;
    Ok(WatchOutcome {
        selected: out.result.selected,
        visited: out.result.visited,
        evaluated: out.result.stats.evaluated,
    })
}

/// A pinned joint-space answer from `expected.json`.
#[derive(Debug, Clone)]
pub struct JointPin {
    pub point: JointPoint,
    pub cycles: u64,
    pub points: u64,
    pub tier1: u64,
}

/// The pinned answers, per kernel in [`KERNELS`] order.
#[derive(Debug, Clone)]
pub struct Pins {
    pub guided: Vec<JointPin>,
    pub exhaustive: Vec<JointPin>,
    pub analytic: Vec<JointPin>,
    /// Paper-size `watch` selections: unroll factors and cycles.
    pub watch: Vec<(Vec<i64>, u64)>,
}

impl Pins {
    pub fn load() -> Result<Pins, String> {
        Pins::parse(include_str!("../expected.json"))
    }

    fn parse(text: &str) -> Result<Pins, String> {
        let v = serde_json::parse(text).map_err(|e| format!("expected.json: {e}"))?;
        // Each section pins the selection; the tier-1 count is the
        // guided strategy's pinned count, every point for a tier-1
        // sweep, and none for a tier-0 sweep.
        let section = |name: &str, tier1: &dyn Fn(&Value) -> Option<u64>| {
            KERNELS
                .iter()
                .map(|k| {
                    let p = &v[name][*k];
                    joint_pin(p, tier1(p)).ok_or(format!("expected.json: bad {name}.{k}"))
                })
                .collect::<Result<Vec<_>, String>>()
        };
        Ok(Pins {
            guided: section("joint", &|p| p["guided_tier1"].as_u64())?,
            exhaustive: section("joint", &|p| p["points"].as_u64())?,
            analytic: section("analytic", &|_| Some(0))?,
            watch: KERNELS
                .iter()
                .map(|k| {
                    let p = &v["watch"][*k];
                    ints(&p["unroll"])
                        .zip(p["cycles"].as_u64())
                        .ok_or(format!("expected.json: bad watch.{k}"))
                })
                .collect::<Result<_, String>>()?,
        })
    }

    pub fn joint(&self, w: Workload) -> &[JointPin] {
        match w {
            Workload::Guided => &self.guided,
            Workload::Exhaustive => &self.exhaustive,
            Workload::Analytic => &self.analytic,
            Workload::Watch => unreachable!("watch pins are unroll-only"),
        }
    }
}

fn joint_pin(p: &Value, tier1: Option<u64>) -> Option<JointPin> {
    Some(JointPin {
        point: JointPoint {
            unroll: ints(&p["unroll"])?,
            permutation: ints(&p["permutation"])?
                .into_iter()
                .map(|i| usize::try_from(i).ok())
                .collect::<Option<_>>()?,
            tile: match &p["tile"] {
                Value::Null => None,
                t => Some((usize::try_from(t[0].as_u64()?).ok()?, t[1].as_i64()?)),
            },
            narrow: p["narrow"].as_bool()?,
            pack: p["pack"].as_bool()?,
        },
        cycles: p["cycles"].as_u64()?,
        points: p["points"].as_u64()?,
        tier1: tier1?,
    })
}

fn ints(v: &Value) -> Option<Vec<i64>> {
    match v {
        Value::Array(items) => items.iter().map(Value::as_i64).collect(),
        _ => None,
    }
}

/// Check a joint answer against its pin and, when given, bit for bit
/// against the same question's earlier answer.
pub fn check_joint(
    pin: &JointPin,
    got: &JointOutcome,
    earlier: Option<&JointOutcome>,
) -> Result<(), String> {
    let sel = got.selected.as_ref().ok_or("no design fits")?;
    if sel.point != pin.point || sel.estimate.cycles != pin.cycles {
        return Err(format!(
            "selected {:?} at {} cycles, pinned {:?} at {}",
            sel.point, sel.estimate.cycles, pin.point, pin.cycles
        ));
    }
    if (got.points, got.tier1) != (pin.points, pin.tier1) {
        return Err(format!(
            "{} points / {} tier-1 evaluations, pinned {} / {}",
            got.points, got.tier1, pin.points, pin.tier1
        ));
    }
    match earlier {
        Some(e) if e.selected != got.selected => {
            Err("selection differs from the set-up answer".into())
        }
        _ => Ok(()),
    }
}

/// Cold unroll-only selections of every size a `watch` revision can
/// take, keyed by kernel and generator parameters; the paper sizes are
/// checked against their pins on the way.
pub fn watch_references(
    pins: &Pins,
) -> Result<HashMap<(usize, Vec<usize>), EvaluatedDesign>, String> {
    let mut refs = HashMap::new();
    for (kernel, name) in KERNELS.iter().enumerate() {
        for dims in inputs::all_dims(kernel) {
            let k = parse_kernel(&inputs::source(kernel, &dims)).map_err(|e| e.to_string())?;
            let r = Explorer::new(&k)
                .threads(1)
                .explore()
                .map_err(|e| e.to_string())?;
            if dims == inputs::paper_dims(kernel) {
                let (unroll, cycles) = &pins.watch[kernel];
                if r.selected.unroll.factors() != unroll.as_slice()
                    || r.selected.estimate.cycles != *cycles
                {
                    return Err(format!(
                        "{name} paper size selects {} at {} cycles, pinned {unroll:?} at {cycles}",
                        r.selected.unroll, r.selected.estimate.cycles
                    ));
                }
            }
            refs.insert((kernel, dims), r.selected);
        }
    }
    Ok(refs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_load_for_every_kernel() {
        let pins = Pins::load().unwrap();
        assert_eq!(pins.guided[0].tier1, 20);
        assert_eq!(pins.exhaustive[4].tier1, 320);
        assert_eq!(pins.analytic[2].tier1, 0);
        assert_eq!(pins.watch[0], (vec![8, 8], 524));
        assert_eq!(pins.guided[4].point.tile, None);
        assert!(pins.guided[4].point.narrow && pins.guided[4].point.pack);
    }
}
