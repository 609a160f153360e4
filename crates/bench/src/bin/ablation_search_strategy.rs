//! Ablation: the balance-guided search against three baselines —
//! exhaustive enumeration, budget-matched random search, and divisor
//! hill climbing.
//!
//! Reports, per kernel and memory model, evaluations spent and how far
//! each strategy's pick is from the true best-performing design.
//!
//! The paper argues that balance monotonicity makes a tiny guided search
//! competitive with much more expensive exploration. The two baselines
//! defined here quantify the claim: a budgeted uniform **random search**
//! and a divisor-neighbourhood **hill climb**, both optimizing the
//! paper's criteria directly (min cycles among fitting designs; ties to
//! the smaller design).

use defacto::exhaustive::best_performance;
use defacto::prelude::*;
use defacto::{DseError, Result};
use defacto_bench::report::{fnum, render_table};
use std::cmp::Ordering;
use std::collections::HashSet;

fn main() {
    let mut rows = Vec::new();
    for bk in defacto_bench::kernels() {
        for (label, mem) in defacto_bench::memory_models() {
            let ex = Explorer::new(&bk.kernel).memory(mem);
            let (_, space) = ex.analyze().expect("analysis succeeds");
            let guided = ex.explore().expect("search succeeds");
            let sweep = ex.sweep().expect("sweep succeeds");
            let best = best_performance(&sweep).expect("space has fitting designs");

            // Random search gets the same evaluation budget the guided
            // search used; the hill climb starts at the baseline.
            let budget = guided.visited.len().max(1);
            let rand = random_search(&space, 2002, budget, |u| Ok(ex.evaluate(u)?.estimate))
                .expect("random search succeeds");
            let climb = hill_climb(&space, &space.base_vector(), 64, |u| {
                Ok(ex.evaluate(u)?.estimate)
            })
            .expect("hill climb succeeds");

            for (strategy, unroll, cycles, evals) in [
                (
                    "balance-guided",
                    guided.selected.unroll.to_string(),
                    guided.selected.estimate.cycles,
                    guided.visited.len(),
                ),
                (
                    "random (same budget)",
                    rand.selected.unroll.to_string(),
                    rand.selected.estimate.cycles,
                    rand.evaluated.len(),
                ),
                (
                    "hill climb",
                    climb.selected.unroll.to_string(),
                    climb.selected.estimate.cycles,
                    climb.evaluated.len(),
                ),
                (
                    "exhaustive",
                    best.unroll.to_string(),
                    best.estimate.cycles,
                    sweep.len(),
                ),
            ] {
                rows.push(vec![
                    bk.name.to_string(),
                    label.to_string(),
                    strategy.to_string(),
                    unroll,
                    cycles.to_string(),
                    evals.to_string(),
                    fnum(cycles as f64 / best.estimate.cycles as f64, 2),
                ]);
            }
        }
    }
    println!("== Ablation: search strategies ==");
    println!(
        "{}",
        render_table(
            &["kernel", "memory", "strategy", "selected", "cycles", "evals", "vs best"],
            &rows
        )
    );
    println!(
        "The balance-guided search needs no tuning and no luck: it lands within a\n\
         small factor of the exhaustive best with the fewest evaluations, while\n\
         random search at the same budget is seed-dependent and hill climbing\n\
         spends many more evaluations walking the divisor lattice."
    );
}

/// Outcome of one baseline strategy run.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyOutcome {
    /// The best design found (by the paper's criteria).
    pub selected: EvaluatedDesign,
    /// Every design evaluated, in visit order (unique).
    pub evaluated: Vec<EvaluatedDesign>,
}

/// Ranking order implementing the paper's optimization criteria: fitting
/// designs first, then fewer cycles, then fewer slices, then the
/// lexicographically smaller vector (for determinism). Compares factor
/// slices in place rather than cloning a key vector per comparison.
fn criteria_cmp(a: &EvaluatedDesign, b: &EvaluatedDesign) -> Ordering {
    (!a.estimate.fits, a.estimate.cycles, a.estimate.slices)
        .cmp(&(!b.estimate.fits, b.estimate.cycles, b.estimate.slices))
        .then_with(|| a.unroll.factors().cmp(b.unroll.factors()))
}

fn best_of(evaluated: &[EvaluatedDesign]) -> EvaluatedDesign {
    evaluated
        .iter()
        .min_by(|a, b| criteria_cmp(a, b))
        .expect("at least one design evaluated")
        .clone()
}

/// Uniform random search: evaluate `budget` distinct designs drawn with
/// a deterministic xorshift stream from `seed`.
///
/// # Errors
///
/// [`DseError::EmptySpace`] when there is nothing to draw (an empty space
/// or a zero budget); otherwise propagates evaluation failures.
pub fn random_search<E>(
    space: &DesignSpace,
    seed: u64,
    budget: usize,
    mut eval: E,
) -> Result<StrategyOutcome>
where
    E: FnMut(&UnrollVector) -> Result<Estimate>,
{
    let budget = budget.min(space.size() as usize);
    if budget == 0 {
        return Err(DseError::EmptySpace);
    }
    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    let mut next = move || {
        // xorshift64*
        rng ^= rng >> 12;
        rng ^= rng << 25;
        rng ^= rng >> 27;
        rng.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let mut seen: HashSet<UnrollVector> = HashSet::new();
    let mut evaluated = Vec::new();
    let mut guard = 0usize;
    while evaluated.len() < budget && guard < budget * 64 {
        guard += 1;
        let u = UnrollVector(
            (0..space.levels())
                .map(|l| {
                    let f = space.factors_at(l);
                    f[(next() % f.len() as u64) as usize]
                })
                .collect(),
        );
        if !seen.insert(u.clone()) {
            continue;
        }
        let est = eval(&u)?;
        evaluated.push(EvaluatedDesign {
            unroll: u,
            estimate: est,
        });
    }
    Ok(StrategyOutcome {
        selected: best_of(&evaluated),
        evaluated,
    })
}

/// Hill climbing over the divisor lattice: from `start`, repeatedly move
/// to the best improving neighbour (one loop's factor stepped to the
/// next or previous divisor), until no neighbour improves or `max_steps`
/// moves were taken.
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn hill_climb<E>(
    space: &DesignSpace,
    start: &UnrollVector,
    max_steps: usize,
    mut eval: E,
) -> Result<StrategyOutcome>
where
    E: FnMut(&UnrollVector) -> Result<Estimate>,
{
    let mut evaluated: Vec<EvaluatedDesign> = Vec::new();
    let mut seen: HashSet<UnrollVector> = HashSet::new();
    let visit = |u: &UnrollVector,
                 evaluated: &mut Vec<EvaluatedDesign>,
                 seen: &mut HashSet<UnrollVector>,
                 eval: &mut E|
     -> Result<Option<EvaluatedDesign>> {
        if !seen.insert(u.clone()) {
            return Ok(evaluated.iter().find(|d| &d.unroll == u).cloned());
        }
        let est = eval(u)?;
        let d = EvaluatedDesign {
            unroll: u.clone(),
            estimate: est,
        };
        evaluated.push(d.clone());
        Ok(Some(d))
    };

    let mut current = visit(start, &mut evaluated, &mut seen, &mut eval)?.expect("start evaluates");
    for _ in 0..max_steps {
        let mut best_neighbor: Option<EvaluatedDesign> = None;
        for l in 0..space.levels() {
            let factors = space.factors_at(l);
            let pos = factors
                .iter()
                .position(|&f| f == current.unroll.factors()[l])
                .expect("current is in the space");
            for delta in [-1i64, 1] {
                let np = pos as i64 + delta;
                if np < 0 || np as usize >= factors.len() {
                    continue;
                }
                let mut f = current.unroll.factors().to_vec();
                f[l] = factors[np as usize];
                let u = UnrollVector(f);
                if let Some(d) = visit(&u, &mut evaluated, &mut seen, &mut eval)? {
                    if best_neighbor
                        .as_ref()
                        .map(|b| criteria_cmp(&d, b) == Ordering::Less)
                        .unwrap_or(true)
                    {
                        best_neighbor = Some(d);
                    }
                }
            }
        }
        match best_neighbor {
            Some(n) if criteria_cmp(&n, &current) == Ordering::Less => current = n,
            _ => break,
        }
    }
    Ok(StrategyOutcome {
        selected: best_of(&evaluated),
        evaluated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fir() -> Kernel {
        parse_kernel(
            "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
               for j in 0..64 { for i in 0..32 {
                 D[j] = D[j] + S[i + j] * C[i]; } } }",
        )
        .unwrap()
    }

    #[test]
    fn random_search_respects_budget_and_is_deterministic() {
        let k = fir();
        let ex = Explorer::new(&k);
        let (_, space) = ex.analyze().unwrap();
        let run = |seed| random_search(&space, seed, 8, |u| Ok(ex.evaluate(u)?.estimate)).unwrap();
        let a = run(7);
        let b = run(7);
        assert_eq!(a.selected.unroll, b.selected.unroll);
        assert!(a.evaluated.len() <= 8);
        assert!(a.selected.estimate.fits);
        let c = run(8);
        // A different seed explores a different sample (almost surely).
        assert_ne!(
            a.evaluated
                .iter()
                .map(|d| d.unroll.clone())
                .collect::<Vec<_>>(),
            c.evaluated
                .iter()
                .map(|d| d.unroll.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn random_search_over_nothing_is_a_typed_error() {
        // No public constructor builds an empty space, so a zero budget
        // is the way to leave nothing to select from.
        let never = |_: &UnrollVector| -> Result<Estimate> { unreachable!("nothing to draw") };
        let k = fir();
        let (_, space) = Explorer::new(&k).analyze().unwrap();
        let err = random_search(&space, 1, 0, never).unwrap_err();
        assert_eq!(err, DseError::EmptySpace);
    }

    #[test]
    fn hill_climb_improves_on_its_start() {
        let k = fir();
        let ex = Explorer::new(&k);
        let (_, space) = ex.analyze().unwrap();
        let start = space.base_vector();
        let out = hill_climb(&space, &start, 32, |u| Ok(ex.evaluate(u)?.estimate)).unwrap();
        let base = ex.evaluate(&start).unwrap();
        assert!(out.selected.estimate.cycles < base.estimate.cycles);
        assert!(out.selected.estimate.fits);
        // Every evaluated point is inside the space.
        for d in &out.evaluated {
            assert!(space.contains(&d.unroll), "{}", d.unroll);
        }
    }

    #[test]
    fn hill_climb_stops_at_local_optimum() {
        let k = fir();
        let ex = Explorer::new(&k);
        let (_, space) = ex.analyze().unwrap();
        let out = hill_climb(&space, &space.base_vector(), 1000, |u| {
            Ok(ex.evaluate(u)?.estimate)
        })
        .unwrap();
        // Terminates well before exhausting the space.
        assert!(out.evaluated.len() < space.size() as usize);
    }

    #[test]
    fn strategies_never_select_unfitting_designs_when_fitting_exist() {
        let k = fir();
        let ex = Explorer::new(&k);
        let (_, space) = ex.analyze().unwrap();
        let out = random_search(&space, 3, 12, |u| Ok(ex.evaluate(u)?.estimate)).unwrap();
        if out.evaluated.iter().any(|d| d.estimate.fits) {
            assert!(out.selected.estimate.fits);
        }
    }
}
