//! The invariant auditor: replay a search trace against the paper's
//! Observations 1–3.
//!
//! A [trace](crate::trace) is only useful if something checks it. The
//! auditor replays the event stream of one search against the structural
//! invariants the paper's argument rests on, and reports each violation
//! with the offending event:
//!
//! - **visit-unique** — the visited list is duplicate-free: no design
//!   point is first-visited twice, and every revisit refers to an
//!   earlier first visit;
//! - **member-of-space** — every visited point (and every frontier and
//!   `SelectBetween` pick) is a member of the design space;
//! - **increase-doubles** — each `Increase` step exactly doubles the
//!   unroll product;
//! - **balance-monotone** — Observation 3: along the doubling chain at
//!   or past the saturation product `Psat`, the compute-bound →
//!   memory-bound crossover is one-way — a doubling step never leads
//!   from a memory-bound design (`B < 1`) back to a compute-bound one
//!   (`B > 1`). Raw balance values are *not* required to be
//!   non-increasing: integer cycle counts and shape-dependent
//!   scheduling make them wobble within the compute-bound region, and
//!   the Figure-2 search's soundness only needs the crossover itself to
//!   be monotone;
//! - **select-between-bounds** — a `SelectBetween` pick's product lies
//!   strictly between its bracket's products and is a multiple of
//!   `P(U_init)`;
//! - **frontier-chain** — the prefetch frontier starts at `U_init` and
//!   doubles its product at every step;
//! - **terminate-final** — exactly one `Terminate` event, last in the
//!   stream;
//! - **selected-valid** — the selected design was visited, fits the
//!   device, and is a member of the space.
//!
//! Tier-0 pruning is audited on guided-strategy traces by
//! [`audit_strategy_trace`]: no bound-pruned point is ever paid a
//! tier-1 evaluation.

use crate::saturation::SaturationInfo;
use crate::space::DesignSpace;
use crate::trace::TraceEvent;
use defacto_xform::UnrollVector;
use std::collections::HashMap;

/// Slack around the `B = 1` crossover: estimates are exact rational
/// arithmetic rendered into f64, so only representation noise is
/// tolerated — a design within `BALANCE_EPS` of 1 counts as neither
/// strictly memory- nor strictly compute-bound.
const BALANCE_EPS: f64 = 1e-9;

/// The invariant a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// A design point was first-visited more than once, or a revisit
    /// refers to a point never visited. In a guided-strategy trace: a
    /// point was both stepped and bound-pruned, or pruned twice.
    VisitUnique,
    /// A traced point is not a member of the design space.
    MemberOfSpace,
    /// An `Increase` step did not double the unroll product.
    IncreaseDoubles,
    /// A doubling step past `Psat` crossed back from memory-bound to
    /// compute-bound.
    BalanceMonotone,
    /// A `SelectBetween` pick violates its bracket or the `P(U_init)`
    /// multiplicity requirement.
    SelectBetweenBounds,
    /// The frontier is not a doubling chain from `U_init`.
    FrontierChain,
    /// `Terminate` is missing, duplicated, or not the final event.
    TerminateFinal,
    /// The selected design is unvisited, does not fit, or is outside the
    /// space.
    SelectedValid,
    /// In a joint-sweep trace, an `AxisVisit` point is outside the joint
    /// space, a member was visited twice, or a member was never visited.
    /// Because an `AxisVisit` is only emitted after its point
    /// transformed and estimated successfully, a clean report certifies
    /// the membership-soundness contract: every statically-enumerated
    /// point succeeded at transform time.
    JointMembership,
    /// In a guided-strategy trace, a `StrategyStep`'s recorded incumbent
    /// moved backwards: the incumbent is the best fitting cycle count
    /// seen so far, so the sequence of `incumbent` values across steps
    /// must be monotone non-increasing (with `None` only before the
    /// first fitting evaluation), and each step's own result must be
    /// consistent with the incumbent recorded by the *next* step.
    StrategyMonotone,
    /// A `BoundPrune` event discarded the design the strategy ultimately
    /// selected. The branch-and-bound soundness argument (prune only
    /// when the band's `cycles_lo` exceeds the incumbent, or the band
    /// proves the point cannot fit) guarantees the winner survives; a
    /// pruned selected design means a bound was unsound.
    PruneExcludesSelected,
}

impl Invariant {
    /// Stable kebab-case name, for reports.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::VisitUnique => "visit-unique",
            Invariant::MemberOfSpace => "member-of-space",
            Invariant::IncreaseDoubles => "increase-doubles",
            Invariant::BalanceMonotone => "balance-monotone",
            Invariant::SelectBetweenBounds => "select-between-bounds",
            Invariant::FrontierChain => "frontier-chain",
            Invariant::TerminateFinal => "terminate-final",
            Invariant::SelectedValid => "selected-valid",
            Invariant::JointMembership => "joint-membership",
            Invariant::StrategyMonotone => "strategy-monotone",
            Invariant::PruneExcludesSelected => "prune-excludes-selected",
        }
    }
}

impl std::fmt::Display for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One broken invariant, pinned to the offending event.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditViolation {
    /// Which invariant broke.
    pub invariant: Invariant,
    /// Index of the offending event in the trace (`None` when the trace
    /// as a whole is malformed, e.g. a missing `Terminate`).
    pub event_index: Option<usize>,
    /// The offending event, cloned for standalone reporting.
    pub event: Option<TraceEvent>,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.event_index {
            Some(i) => write!(f, "[{}] at event {}: {}", self.invariant, i, self.detail),
            None => write!(f, "[{}]: {}", self.invariant, self.detail),
        }
    }
}

/// The auditor's verdict over one trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AuditReport {
    /// Number of events replayed.
    pub events: usize,
    /// Number of individual invariant checks performed.
    pub checks: usize,
    /// Every violation found, in trace order.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// True when every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "audit: {} events, {} checks, {} violation{}",
            self.events,
            self.checks,
            self.violations.len(),
            if self.violations.len() == 1 { "" } else { "s" },
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Replay `events` (one search's trace) against the invariants above.
/// Warm-start markers (`WarmStart`) are ignored: the search events that
/// follow them are complete and must justify the selection without
/// reference to the previous run.
pub fn audit_search_trace(
    events: &[TraceEvent],
    space: &DesignSpace,
    sat: &SaturationInfo,
) -> AuditReport {
    let mut report = AuditReport {
        events: events.len(),
        ..AuditReport::default()
    };
    // First-visit index per point, with the estimate facts the checks
    // need (balance, fits).
    let mut first_visit: HashMap<UnrollVector, (usize, f64, bool)> = HashMap::new();
    let mut increases: Vec<(usize, UnrollVector, UnrollVector)> = Vec::new();
    let mut terminate_at: Option<usize> = None;
    let u_init_product = sat.u_init.product().max(1);

    let fail = |report: &mut AuditReport,
                invariant: Invariant,
                index: usize,
                event: &TraceEvent,
                detail: String| {
        report.violations.push(AuditViolation {
            invariant,
            event_index: Some(index),
            event: Some(event.clone()),
            detail,
        });
    };

    for (i, e) in events.iter().enumerate() {
        match e {
            TraceEvent::Visit {
                unroll,
                balance,
                fits,
                cache_hit,
                ..
            } => {
                report.checks += 2;
                if *cache_hit {
                    if !first_visit.contains_key(unroll) {
                        fail(
                            &mut report,
                            Invariant::VisitUnique,
                            i,
                            e,
                            format!("revisit of {unroll} which was never first-visited"),
                        );
                    }
                } else if first_visit.contains_key(unroll) {
                    fail(
                        &mut report,
                        Invariant::VisitUnique,
                        i,
                        e,
                        format!("{unroll} first-visited twice"),
                    );
                } else {
                    first_visit.insert(unroll.clone(), (i, *balance, *fits));
                }
                if !space.contains(unroll) {
                    fail(
                        &mut report,
                        Invariant::MemberOfSpace,
                        i,
                        e,
                        format!("visited {unroll} is not in the design space"),
                    );
                }
            }
            TraceEvent::Increase { from, to } => {
                report.checks += 1;
                let (pf, pt) = (from.product(), to.product());
                if pt != 2 * pf {
                    fail(
                        &mut report,
                        Invariant::IncreaseDoubles,
                        i,
                        e,
                        format!("P({to}) = {pt} is not 2·P({from}) = {}", 2 * pf),
                    );
                }
                // Balance is checked after the pass: the search emits
                // Increase before visiting `to`.
                increases.push((i, from.clone(), to.clone()));
            }
            TraceEvent::SelectBetween { lo, hi, chosen } => {
                report.checks += 1;
                if let Some(c) = chosen {
                    let (ps, pl, pc) = (lo.product(), hi.product(), c.product());
                    if !(ps < pc && pc < pl) {
                        fail(
                            &mut report,
                            Invariant::SelectBetweenBounds,
                            i,
                            e,
                            format!("P({c}) = {pc} is not strictly between {ps} and {pl}"),
                        );
                    }
                    if pc % u_init_product != 0 {
                        fail(
                            &mut report,
                            Invariant::SelectBetweenBounds,
                            i,
                            e,
                            format!(
                                "P({c}) = {pc} is not a multiple of P(U_init) = {u_init_product}"
                            ),
                        );
                    }
                    if !space.contains(c) {
                        fail(
                            &mut report,
                            Invariant::MemberOfSpace,
                            i,
                            e,
                            format!("pick {c} is not in the design space"),
                        );
                    }
                }
            }
            TraceEvent::FindLargestFit { base, init, chosen } => {
                report.checks += 1;
                if chosen.product() > init.product() || chosen.product() < base.product() {
                    fail(
                        &mut report,
                        Invariant::SelectBetweenBounds,
                        i,
                        e,
                        format!(
                            "largest-fit pick {chosen} is outside [{}, {}]",
                            base.product(),
                            init.product()
                        ),
                    );
                }
            }
            TraceEvent::Frontier { points } => {
                report.checks += 1;
                if points.first() != Some(&sat.u_init) {
                    fail(
                        &mut report,
                        Invariant::FrontierChain,
                        i,
                        e,
                        format!("frontier does not start at U_init = {}", sat.u_init),
                    );
                }
                for w in points.windows(2) {
                    if w[1].product() != 2 * w[0].product() {
                        fail(
                            &mut report,
                            Invariant::FrontierChain,
                            i,
                            e,
                            format!("frontier step {} -> {} does not double", w[0], w[1]),
                        );
                    }
                }
                for p in points {
                    if !space.contains(p) {
                        fail(
                            &mut report,
                            Invariant::MemberOfSpace,
                            i,
                            e,
                            format!("frontier point {p} is not in the design space"),
                        );
                    }
                }
            }
            TraceEvent::Terminate { selected, .. } => {
                report.checks += 3;
                if terminate_at.is_some() {
                    fail(
                        &mut report,
                        Invariant::TerminateFinal,
                        i,
                        e,
                        "second Terminate event".into(),
                    );
                }
                terminate_at = Some(i);
                match first_visit.get(selected) {
                    Some(&(_, _, fits)) if fits => {}
                    Some(_) => fail(
                        &mut report,
                        Invariant::SelectedValid,
                        i,
                        e,
                        format!("selected {selected} does not fit the device"),
                    ),
                    None => fail(
                        &mut report,
                        Invariant::SelectedValid,
                        i,
                        e,
                        format!("selected {selected} was never visited"),
                    ),
                }
                if !space.contains(selected) {
                    fail(
                        &mut report,
                        Invariant::SelectedValid,
                        i,
                        e,
                        format!("selected {selected} is not in the design space"),
                    );
                }
            }
            // Warm-start markers precede the search proper and carry no
            // obligations: the events after them are a complete search
            // that must (and does) justify its selection on its own.
            TraceEvent::WarmStart { .. } => {}
            // Joint-sweep events describe a different artifact; they are
            // audited by [`audit_joint_trace`].
            TraceEvent::AxisVisit { .. } => {}
            // Guided-strategy events are audited by
            // [`audit_strategy_trace`].
            TraceEvent::StrategyStep { .. } | TraceEvent::BoundPrune { .. } => {}
        }
    }

    // Observation 3: past Psat the compute-bound → memory-bound
    // crossover is one-way, so no doubling step from a point at or past
    // Psat may lead from `B < 1` back to `B > 1`. (Raw balance is NOT
    // required to fall at every step — integer cycle counts and
    // shape-dependent scheduling make it wobble within the
    // compute-bound region.) Checked after the pass because Increase
    // precedes the visit of its endpoint in a trace.
    for (i, from, to) in &increases {
        report.checks += 1;
        if from.product() < sat.psat {
            continue;
        }
        match (first_visit.get(from), first_visit.get(to)) {
            (Some(&(_, bf, _)), Some(&(_, bt, _))) => {
                if bf < 1.0 - BALANCE_EPS && bt > 1.0 + BALANCE_EPS {
                    fail(
                        &mut report,
                        Invariant::BalanceMonotone,
                        *i,
                        &events[*i],
                        format!(
                            "doubling from memory-bound {from} (B = {bf}) reached \
                             compute-bound {to} (B = {bt}) past Psat = {}",
                            sat.psat
                        ),
                    );
                }
            }
            _ => fail(
                &mut report,
                Invariant::BalanceMonotone,
                *i,
                &events[*i],
                format!("increase endpoints {from} -> {to} not both visited"),
            ),
        }
    }

    report.checks += 1;
    match terminate_at {
        None => report.violations.push(AuditViolation {
            invariant: Invariant::TerminateFinal,
            event_index: None,
            event: None,
            detail: "trace has no Terminate event".into(),
        }),
        Some(i) if i + 1 != events.len() => report.violations.push(AuditViolation {
            invariant: Invariant::TerminateFinal,
            event_index: Some(i),
            event: Some(events[i].clone()),
            detail: format!("Terminate at event {i} is not the final event"),
        }),
        Some(_) => {}
    }

    // Deferred checks report out of order; restore trace order.
    report
        .violations
        .sort_by_key(|v| v.event_index.unwrap_or(usize::MAX));
    report
}

/// Replay a joint-sweep trace (the `AxisVisit` events of one
/// [`Explorer::joint_sweep`](crate::Explorer::joint_sweep)) against the
/// membership-soundness invariant: every visited point is a member of
/// the joint `space`, every member is visited exactly once, and nothing
/// outside the space was ever touched. Since an `AxisVisit` is emitted
/// only after its point transformed and estimated without error, a clean
/// report over a complete sweep certifies "space membership implies
/// transform success" end to end. Non-`AxisVisit` events are ignored, so
/// a combined trace can hold a search and a joint sweep side by side.
pub fn audit_joint_trace(events: &[TraceEvent], space: &DesignSpace) -> AuditReport {
    let mut report = AuditReport {
        events: events.len(),
        ..AuditReport::default()
    };
    let mut seen: Vec<&crate::space::JointPoint> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let TraceEvent::AxisVisit { point, .. } = e else {
            continue;
        };
        report.checks += 2;
        if !space.contains_joint(point) {
            report.violations.push(AuditViolation {
                invariant: Invariant::JointMembership,
                event_index: Some(i),
                event: Some(e.clone()),
                detail: format!("visited point {point:?} is not in the joint space"),
            });
        }
        if seen.contains(&point) {
            report.violations.push(AuditViolation {
                invariant: Invariant::JointMembership,
                event_index: Some(i),
                event: Some(e.clone()),
                detail: format!("point {point:?} visited twice"),
            });
        }
        seen.push(point);
    }
    report.checks += 1;
    for member in space.joint_points() {
        if !seen.contains(&member) {
            report.violations.push(AuditViolation {
                invariant: Invariant::JointMembership,
                event_index: None,
                event: None,
                detail: format!("member {member:?} was never visited"),
            });
        }
    }
    report
}

/// Replay a guided-strategy trace (the `StrategyStep`/`BoundPrune`
/// events of one [`Explorer::joint_explore`](crate::Explorer::joint_explore))
/// against the strategy-soundness invariants:
///
/// - **strategy-monotone** — each step's recorded incumbent equals the
///   minimum fitting cycle count among all *prior* steps (so the
///   incumbent sequence is monotone non-increasing, and `None` appears
///   only before the first fitting evaluation), and no point is stepped
///   twice;
/// - **visit-unique** — no point is both stepped and bound-pruned (in
///   either order) or pruned twice: a bound-pruned point is never paid
///   a tier-1 evaluation;
/// - **prune-excludes-selected** — no `BoundPrune` discarded the design
///   the strategy ultimately selected, and every prune with a recorded
///   cycle threshold is justified by it (`cycles_lo > threshold`);
/// - **joint-membership** — every stepped and pruned point is a member
///   of the joint `space`.
///
/// Non-strategy events are ignored, so a combined trace can hold a
/// classic search and a guided run side by side. Pass `selected: None`
/// when the run selected nothing (no fitting design).
pub fn audit_strategy_trace(
    events: &[TraceEvent],
    space: &DesignSpace,
    selected: Option<&crate::space::JointPoint>,
) -> AuditReport {
    let mut report = AuditReport {
        events: events.len(),
        ..AuditReport::default()
    };
    // Replayed incumbent: min fitting cycles over the steps seen so far.
    let mut replayed: Option<u64> = None;
    let mut stepped: Vec<&crate::space::JointPoint> = Vec::new();
    let mut pruned: Vec<&crate::space::JointPoint> = Vec::new();
    let mut selected_stepped = false;
    for (i, e) in events.iter().enumerate() {
        match e {
            TraceEvent::StrategyStep {
                point,
                cycles,
                fits,
                incumbent,
                ..
            } => {
                report.checks += 4;
                if *incumbent != replayed {
                    report.violations.push(AuditViolation {
                        invariant: Invariant::StrategyMonotone,
                        event_index: Some(i),
                        event: Some(e.clone()),
                        detail: format!(
                            "step records incumbent {incumbent:?} but the best fitting \
                             cycles among prior steps is {replayed:?}"
                        ),
                    });
                }
                if *fits {
                    replayed = Some(replayed.map_or(*cycles, |r| r.min(*cycles)));
                }
                if stepped.contains(&point) {
                    report.violations.push(AuditViolation {
                        invariant: Invariant::StrategyMonotone,
                        event_index: Some(i),
                        event: Some(e.clone()),
                        detail: format!("point {point:?} stepped twice"),
                    });
                }
                if pruned.contains(&point) {
                    report.violations.push(AuditViolation {
                        invariant: Invariant::VisitUnique,
                        event_index: Some(i),
                        event: Some(e.clone()),
                        detail: format!("point {point:?} stepped after it was bound-pruned"),
                    });
                }
                stepped.push(point);
                if !space.contains_joint(point) {
                    report.violations.push(AuditViolation {
                        invariant: Invariant::JointMembership,
                        event_index: Some(i),
                        event: Some(e.clone()),
                        detail: format!("stepped point {point:?} is not in the joint space"),
                    });
                }
                if selected == Some(point) {
                    selected_stepped = true;
                }
            }
            TraceEvent::BoundPrune {
                point,
                cycles_lo,
                threshold,
                ..
            } => {
                report.checks += 4;
                let earlier = if stepped.contains(&point) {
                    Some("stepped")
                } else if pruned.contains(&point) {
                    Some("pruned")
                } else {
                    None
                };
                if let Some(earlier) = earlier {
                    report.violations.push(AuditViolation {
                        invariant: Invariant::VisitUnique,
                        event_index: Some(i),
                        event: Some(e.clone()),
                        detail: format!("point {point:?} bound-pruned after it was {earlier}"),
                    });
                }
                pruned.push(point);
                if selected == Some(point) {
                    report.violations.push(AuditViolation {
                        invariant: Invariant::PruneExcludesSelected,
                        event_index: Some(i),
                        event: Some(e.clone()),
                        detail: format!("selected design {point:?} was bound-pruned"),
                    });
                }
                if let Some(t) = threshold {
                    if cycles_lo <= t {
                        report.violations.push(AuditViolation {
                            invariant: Invariant::PruneExcludesSelected,
                            event_index: Some(i),
                            event: Some(e.clone()),
                            detail: format!(
                                "prune of {point:?} is unjustified: cycles_lo {cycles_lo} \
                                 does not exceed the threshold {t}"
                            ),
                        });
                    }
                }
                if !space.contains_joint(point) {
                    report.violations.push(AuditViolation {
                        invariant: Invariant::JointMembership,
                        event_index: Some(i),
                        event: Some(e.clone()),
                        detail: format!("pruned point {point:?} is not in the joint space"),
                    });
                }
            }
            _ => {}
        }
    }
    report.checks += 1;
    if let Some(sel) = selected {
        if !selected_stepped {
            report.violations.push(AuditViolation {
                invariant: Invariant::SelectedValid,
                event_index: None,
                event: None,
                detail: format!("selected design {sel:?} was never evaluated by a StrategyStep"),
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::Termination;

    fn synthetic() -> (DesignSpace, SaturationInfo) {
        let space = DesignSpace::new(&[64, 32], &[true, true]);
        let base = space.base_vector();
        let sat_set = space.members_with_product(4, &base, &space.max_vector());
        let info = SaturationInfo {
            read_sets: 2,
            write_sets: 1,
            psat: 4,
            unrollable: vec![true, true],
            sat_set,
            u_init: UnrollVector(vec![4, 1]),
            preference: vec![0, 1],
        };
        (space, info)
    }

    fn visit(factors: &[i64], balance: f64, fits: bool) -> TraceEvent {
        TraceEvent::Visit {
            unroll: UnrollVector(factors.to_vec()),
            balance,
            cycles: 100,
            slices: 10,
            fits,
            cache_hit: false,
        }
    }

    fn terminate(factors: &[i64]) -> TraceEvent {
        TraceEvent::Terminate {
            reason: Termination::Balanced,
            selected: UnrollVector(factors.to_vec()),
        }
    }

    #[test]
    fn clean_trace_passes() {
        let (space, sat) = synthetic();
        let events = vec![
            visit(&[4, 1], 2.0, true),
            TraceEvent::Increase {
                from: UnrollVector(vec![4, 1]),
                to: UnrollVector(vec![4, 2]),
            },
            visit(&[4, 2], 1.0, true),
            terminate(&[4, 2]),
        ];
        let report = audit_search_trace(&events, &space, &sat);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.events, 4);
        assert!(report.checks > 0);
    }

    #[test]
    fn duplicate_first_visit_is_flagged() {
        let (space, sat) = synthetic();
        let events = vec![
            visit(&[4, 1], 2.0, true),
            visit(&[4, 1], 2.0, true),
            terminate(&[4, 1]),
        ];
        let report = audit_search_trace(&events, &space, &sat);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].invariant, Invariant::VisitUnique);
        assert_eq!(report.violations[0].event_index, Some(1));
    }

    #[test]
    fn crossover_reversal_past_psat_is_flagged() {
        let (space, sat) = synthetic();
        let events = vec![
            visit(&[4, 1], 0.5, true),
            visit(&[4, 2], 1.5, true),
            TraceEvent::Increase {
                from: UnrollVector(vec![4, 1]),
                to: UnrollVector(vec![4, 2]),
            },
            terminate(&[4, 2]),
        ];
        let report = audit_search_trace(&events, &space, &sat);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::BalanceMonotone));
    }

    #[test]
    fn balance_wobble_within_compute_bound_region_is_allowed() {
        // Raw balance rises 1.88 -> 2.59 but both ends stay compute
        // bound: real estimates do this (integer cycles, shape effects)
        // and the search's soundness does not depend on it.
        let (space, sat) = synthetic();
        let events = vec![
            visit(&[4, 1], 1.88, true),
            visit(&[4, 2], 2.59, true),
            TraceEvent::Increase {
                from: UnrollVector(vec![4, 1]),
                to: UnrollVector(vec![4, 2]),
            },
            terminate(&[4, 2]),
        ];
        let report = audit_search_trace(&events, &space, &sat);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn select_between_outside_bracket_is_flagged() {
        let (space, sat) = synthetic();
        let events = vec![
            visit(&[4, 1], 2.0, true),
            TraceEvent::SelectBetween {
                lo: UnrollVector(vec![4, 1]),
                hi: UnrollVector(vec![8, 2]),
                chosen: Some(UnrollVector(vec![16, 2])),
            },
            terminate(&[4, 1]),
        ];
        let report = audit_search_trace(&events, &space, &sat);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::SelectBetweenBounds));
    }

    #[test]
    fn select_between_non_multiple_is_flagged() {
        let (space, sat) = synthetic();
        let events = vec![
            visit(&[4, 1], 2.0, true),
            TraceEvent::SelectBetween {
                lo: UnrollVector(vec![1, 1]),
                hi: UnrollVector(vec![8, 2]),
                // Product 2: inside the bracket but not a multiple of 4.
                chosen: Some(UnrollVector(vec![2, 1])),
            },
            terminate(&[4, 1]),
        ];
        let report = audit_search_trace(&events, &space, &sat);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::SelectBetweenBounds));
    }

    #[test]
    fn unfit_selection_is_flagged() {
        let (space, sat) = synthetic();
        let events = vec![visit(&[4, 1], 2.0, false), terminate(&[4, 1])];
        let report = audit_search_trace(&events, &space, &sat);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::SelectedValid));
    }

    #[test]
    fn missing_terminate_is_flagged() {
        let (space, sat) = synthetic();
        let report = audit_search_trace(&[visit(&[4, 1], 2.0, true)], &space, &sat);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::TerminateFinal && v.event_index.is_none()));
    }

    #[test]
    fn non_member_visit_is_flagged() {
        let (space, sat) = synthetic();
        let events = vec![visit(&[5, 1], 2.0, true), terminate(&[5, 1])];
        let report = audit_search_trace(&events, &space, &sat);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::MemberOfSpace));
    }

    #[test]
    fn joint_trace_membership_is_audited() {
        use crate::space::{Axis, JointPoint};
        let k = defacto_ir::parse_kernel(
            "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
               for j in 0..64 { for i in 0..32 {
                 D[j] = D[j] + S[i + j] * C[i]; } } }",
        )
        .unwrap();
        let summary = defacto_analysis::LegalitySummary::analyze(&k).unwrap();
        let space = DesignSpace::with_axes(&[64, 32], &[true, true], &summary, &[Axis::Unroll], 32);
        let axis_visit = |p: &JointPoint| TraceEvent::AxisVisit {
            point: p.clone(),
            balance: 1.0,
            cycles: 100,
            slices: 10,
            fits: true,
        };
        let complete: Vec<TraceEvent> = space.joint_points().iter().map(axis_visit).collect();
        assert!(audit_joint_trace(&complete, &space).is_clean());
        // Dropping a member breaks completeness.
        let partial = &complete[1..];
        let report = audit_joint_trace(partial, &space);
        assert!(report.violations.iter().any(
            |v| v.invariant == Invariant::JointMembership && v.detail.contains("never visited")
        ));
        // Visiting a non-member breaks membership.
        let mut with_alien = complete.clone();
        with_alien.push(axis_visit(&JointPoint {
            unroll: vec![3, 1],
            ..JointPoint::baseline(2)
        }));
        let report = audit_joint_trace(&with_alien, &space);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::JointMembership
                && v.detail.contains("not in the joint space")));
        // Duplicates are flagged.
        let mut doubled = complete.clone();
        doubled.push(complete[0].clone());
        let report = audit_joint_trace(&doubled, &space);
        assert!(report
            .violations
            .iter()
            .any(|v| v.detail.contains("visited twice")));
        // Search auditing ignores AxisVisit events entirely.
        let (search_space, sat) = synthetic();
        let mut mixed = vec![visit(&[4, 1], 2.0, true)];
        mixed.extend(complete.iter().cloned());
        mixed.push(terminate(&[4, 1]));
        assert!(audit_search_trace(&mixed, &search_space, &sat).is_clean());
    }

    fn strategy_space() -> DesignSpace {
        use crate::space::Axis;
        let k = defacto_ir::parse_kernel(
            "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
               for j in 0..64 { for i in 0..32 {
                 D[j] = D[j] + S[i + j] * C[i]; } } }",
        )
        .unwrap();
        let summary = defacto_analysis::LegalitySummary::analyze(&k).unwrap();
        DesignSpace::with_axes(&[64, 32], &[true, true], &summary, &[Axis::Unroll], 32)
    }

    fn joint(factors: &[i64]) -> crate::space::JointPoint {
        crate::space::JointPoint {
            unroll: factors.to_vec(),
            ..crate::space::JointPoint::baseline(factors.len())
        }
    }

    fn step(factors: &[i64], cycles: u64, fits: bool, incumbent: Option<u64>) -> TraceEvent {
        TraceEvent::StrategyStep {
            point: joint(factors),
            cycles,
            slices: 10,
            fits,
            incumbent,
        }
    }

    fn prune(factors: &[i64], cycles_lo: u64, threshold: Option<u64>) -> TraceEvent {
        TraceEvent::BoundPrune {
            point: joint(factors),
            cycles_lo,
            slices_lo: 10,
            threshold,
        }
    }

    #[test]
    fn clean_strategy_trace_passes() {
        let space = strategy_space();
        let events = vec![
            step(&[1, 1], 500, true, None),
            step(&[2, 1], 300, true, Some(500)),
            prune(&[4, 1], 400, Some(300)),
            prune(&[8, 1], 9000, None),
        ];
        let selected = joint(&[2, 1]);
        let report = audit_strategy_trace(&events, &space, Some(&selected));
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.events, 4);
        assert!(report.checks > 0);
    }

    #[test]
    fn backwards_incumbent_is_flagged() {
        let space = strategy_space();
        // Second step claims the incumbent is 400, but the first fitting
        // step already established 300.
        let events = vec![
            step(&[1, 1], 300, true, None),
            step(&[2, 1], 400, true, Some(400)),
        ];
        let report = audit_strategy_trace(&events, &space, None);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].invariant, Invariant::StrategyMonotone);
        assert_eq!(report.violations[0].event_index, Some(1));
    }

    #[test]
    fn unfit_steps_leave_the_incumbent_alone() {
        let space = strategy_space();
        let events = vec![
            step(&[1, 1], 100, false, None),
            step(&[2, 1], 500, true, None),
            step(&[4, 1], 200, true, Some(500)),
        ];
        assert!(audit_strategy_trace(&events, &space, None).is_clean());
    }

    #[test]
    fn pruned_selected_design_is_flagged() {
        let space = strategy_space();
        let events = vec![
            step(&[1, 1], 500, true, None),
            prune(&[2, 1], 600, Some(500)),
        ];
        let selected = joint(&[2, 1]);
        let report = audit_strategy_trace(&events, &space, Some(&selected));
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::PruneExcludesSelected
                && v.detail.contains("bound-pruned")));
        // The pruned winner was also never stepped.
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::SelectedValid));
    }

    #[test]
    fn unjustified_prune_threshold_is_flagged() {
        let space = strategy_space();
        // cycles_lo 300 does not exceed the recorded threshold 300.
        let events = vec![
            step(&[1, 1], 300, true, None),
            prune(&[2, 1], 300, Some(300)),
        ];
        let report = audit_strategy_trace(&events, &space, None);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(
            report.violations[0].invariant,
            Invariant::PruneExcludesSelected
        );
        assert!(report.violations[0].detail.contains("unjustified"));
    }

    #[test]
    fn non_member_strategy_points_are_flagged() {
        let space = strategy_space();
        let events = vec![
            step(&[3, 1], 500, true, None),
            prune(&[5, 1], 600, Some(500)),
        ];
        let report = audit_strategy_trace(&events, &space, None);
        let joint_violations: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.invariant == Invariant::JointMembership)
            .collect();
        assert_eq!(joint_violations.len(), 2);
    }

    #[test]
    fn duplicate_step_is_flagged() {
        let space = strategy_space();
        let events = vec![
            step(&[1, 1], 500, true, None),
            step(&[1, 1], 500, true, Some(500)),
        ];
        let report = audit_strategy_trace(&events, &space, None);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::StrategyMonotone
                && v.detail.contains("stepped twice")));
    }

    #[test]
    fn strategy_audit_ignores_foreign_events() {
        let space = strategy_space();
        let events = vec![
            visit(&[4, 1], 2.0, true),
            step(&[1, 1], 500, true, None),
            terminate(&[4, 1]),
        ];
        let selected = joint(&[1, 1]);
        assert!(audit_strategy_trace(&events, &space, Some(&selected)).is_clean());
    }

    #[test]
    fn tier_promoted_visits_are_clean() {
        // Every point is decided once: stepped at tier 1 or pruned at
        // tier 0, never both.
        let space = strategy_space();
        let events = vec![
            step(&[1, 1], 500, true, None),
            prune(&[8, 1], 9000, Some(500)),
            step(&[2, 1], 300, true, Some(500)),
            prune(&[4, 1], 400, Some(300)),
        ];
        let selected = joint(&[2, 1]);
        let report = audit_strategy_trace(&events, &space, Some(&selected));
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn visit_without_promotion_is_flagged() {
        // Step then prune: the prune comes too late to spare tier 1.
        let space = strategy_space();
        let events = vec![
            step(&[1, 1], 300, true, None),
            step(&[2, 1], 500, true, Some(300)),
            prune(&[2, 1], 600, Some(300)),
        ];
        let report = audit_strategy_trace(&events, &space, None);
        assert_eq!(report.violations.len(), 1, "{report}");
        assert_eq!(report.violations[0].invariant, Invariant::VisitUnique);
        assert_eq!(report.violations[0].event_index, Some(2));
        assert!(report.violations[0]
            .detail
            .contains("bound-pruned after it was stepped"));
        // Pruning one point twice is flagged the same way.
        let events = vec![
            step(&[1, 1], 300, true, None),
            prune(&[2, 1], 600, Some(300)),
            prune(&[2, 1], 600, Some(300)),
        ];
        let report = audit_strategy_trace(&events, &space, None);
        assert_eq!(report.violations.len(), 1, "{report}");
        assert_eq!(report.violations[0].invariant, Invariant::VisitUnique);
        assert!(report.violations[0]
            .detail
            .contains("bound-pruned after it was pruned"));
    }

    #[test]
    fn visit_of_pruned_point_is_flagged() {
        // Prune then step: a tier-0-pruned point was paid tier 1.
        let space = strategy_space();
        let events = vec![
            step(&[1, 1], 300, true, None),
            prune(&[2, 1], 600, Some(300)),
            step(&[2, 1], 500, true, Some(300)),
        ];
        let report = audit_strategy_trace(&events, &space, None);
        assert_eq!(report.violations.len(), 1, "{report}");
        assert_eq!(report.violations[0].invariant, Invariant::VisitUnique);
        assert_eq!(report.violations[0].event_index, Some(2));
        assert!(report.violations[0]
            .detail
            .contains("stepped after it was bound-pruned"));
    }

    #[test]
    fn tier_free_traces_are_exempt_from_promotion_checks() {
        // Classic search events are ignored by the strategy auditor, so
        // a point a classic search visited (twice, even) and a guided
        // run pruned side by side is no conflict.
        let space = strategy_space();
        let events = vec![
            visit(&[4, 1], 2.0, true),
            visit(&[4, 1], 2.0, true),
            terminate(&[4, 1]),
            prune(&[4, 1], 900, Some(500)),
            step(&[1, 1], 500, true, None),
        ];
        let selected = joint(&[1, 1]);
        let report = audit_strategy_trace(&events, &space, Some(&selected));
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.events, 5);
    }

    #[test]
    fn report_renders_violations() {
        let (space, sat) = synthetic();
        let events = vec![visit(&[5, 1], 2.0, true)];
        let report = audit_search_trace(&events, &space, &sat);
        let text = report.to_string();
        assert!(text.contains("member-of-space"), "{text}");
        assert!(text.contains("terminate-final"), "{text}");
    }
}
