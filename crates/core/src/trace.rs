//! Structured search traces.
//!
//! The paper's argument rests on the Figure-2 search visiting only a
//! handful of points while provably landing near the best design
//! (Observations 1–3 on balance monotonicity around `Psat`). A
//! [`SearchResult`](crate::SearchResult) alone cannot show *why* a step
//! doubled, halved or converged; this module turns every run into a
//! checkable artifact. The search emits one typed [`TraceEvent`] per
//! decision into a pluggable [`TraceSink`]:
//!
//! - [`NullSink`] — the default; records nothing at zero cost;
//! - [`MemorySink`] — collects every event, for the
//!   [auditor](crate::audit) and tests;
//! - [`JsonlSink`] — streams events as JSON Lines to any writer (the
//!   CLI's `--trace out.jsonl`).
//!
//! Events are **deterministic by construction**: they describe the
//! search's decisions (which are bit-identical at any worker count), not
//! the engine's runtime behaviour. Nondeterministic observability —
//! wall-clock per evaluation, per-shard cache hit/miss counters — lives
//! in [`EvalStats`](crate::EvalStats) and
//! [`CacheShardStats`](crate::engine::CacheShardStats) instead, so a
//! trace taken at 8 workers is byte-identical to one taken at 1.

use crate::search::Termination;
use crate::space::JointPoint;
use defacto_xform::UnrollVector;
use std::io::Write;
use std::sync::Mutex;

/// One step of a search, in emission order.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The search asked for one design point's estimate. `cache_hit` is
    /// the *search-level* revisit flag — true when this exact point was
    /// already visited earlier in the same search — so it is identical
    /// at any worker count (an engine-level prefetch hit is not a
    /// revisit).
    Visit {
        /// The design point.
        unroll: UnrollVector,
        /// Its balance `B = F/C`.
        balance: f64,
        /// Estimated execution cycles.
        cycles: u64,
        /// Estimated area in slices.
        slices: u32,
        /// Whether the design fits the device.
        fits: bool,
        /// True when this point was already visited in this search.
        cache_hit: bool,
    },
    /// `Increase(U)`: the unroll product doubled while every design was
    /// still compute bound.
    Increase {
        /// The point doubled from.
        from: UnrollVector,
        /// The point doubled to (`P(to) = 2·P(from)`).
        to: UnrollVector,
    },
    /// `SelectBetween(Usmall, Ularge)`: the binary-search midpoint pick.
    /// `chosen` is `None` when no candidate product remains (the search
    /// has converged).
    SelectBetween {
        /// Lower bound of the bracket.
        lo: UnrollVector,
        /// Upper bound of the bracket.
        hi: UnrollVector,
        /// The member picked strictly between the two products, if any.
        chosen: Option<UnrollVector>,
    },
    /// `FindLargestFit(Ubase, Uinit)`: the fallback scan below the
    /// saturation point when the initial design exceeds capacity.
    FindLargestFit {
        /// The scan's lower bound (the unroll-free baseline).
        base: UnrollVector,
        /// The scan's upper bound (the saturation point).
        init: UnrollVector,
        /// The largest fitting member found (the base vector if none).
        chosen: UnrollVector,
    },
    /// The doubling frontier — the chain of points the search visits
    /// while compute bound, which the parallel engine speculatively
    /// prefetches. Emitted before the search replays serially; the
    /// chain is a pure function of the space, so it is identical
    /// whether or not a prefetch actually ran.
    Frontier {
        /// The chain, saturation point first, products doubling.
        points: Vec<UnrollVector>,
    },
    /// The search stopped; `selected` is the design it returns.
    Terminate {
        /// Why the search stopped.
        reason: Termination,
        /// The selected design point.
        selected: UnrollVector,
    },
    /// Incremental re-exploration: the search was warm-started from a
    /// previous run's persistent state. Emitted by
    /// [`crate::incremental::IncrementalSession`] *before* the search's
    /// own events — plain [`crate::Explorer::explore`] runs never emit
    /// it, so cold/warm traces of the same exploration stay
    /// byte-identical. The auditor ignores it; its role is to let
    /// auditors and tests verify that a warm-started search still
    /// selected independently (the events after it are a complete,
    /// self-justifying search).
    WarmStart {
        /// The previous run's selected design the warm start seeded
        /// from.
        previous: UnrollVector,
        /// Estimates preloaded from the persistent store for this
        /// context before the search ran.
        preloaded: u64,
        /// Canonical subtree paths whose hashes changed since the
        /// previous run (empty when only the platform context changed).
        changed: Vec<String>,
    },
    /// Joint multi-axis sweep: one statically-legal [`JointPoint`] was
    /// transformed and estimated. Emitted only by
    /// [`Explorer::joint_sweep`](crate::Explorer::joint_sweep), in the
    /// space's enumeration order, so the auditor can check every visited
    /// point against [`DesignSpace::contains_joint`]
    /// (crate::DesignSpace::contains_joint) — space membership must imply
    /// transform success.
    AxisVisit {
        /// The multi-axis coordinate.
        point: JointPoint,
        /// Its balance `B = F/C`.
        balance: f64,
        /// Estimated execution cycles.
        cycles: u64,
        /// Estimated area in slices.
        slices: u32,
        /// Whether the design fits the device.
        fits: bool,
    },
    /// Guided joint search: a [`SearchStrategy`](crate::SearchStrategy)
    /// spent one tier-1 evaluation on a joint point. Emitted in decision
    /// order (which is deterministic at any worker count — strategies
    /// batch evaluations but commit them serially). `incumbent` is the
    /// best fitting cycle count *before* this step, `None` until the
    /// first fitting design is seen; the auditor checks it is monotone
    /// non-increasing.
    StrategyStep {
        /// The evaluated joint point.
        point: JointPoint,
        /// Its exact tier-1 cycles.
        cycles: u64,
        /// Its exact tier-1 slices.
        slices: u32,
        /// Whether the design fits the device.
        fits: bool,
        /// Best fitting cycles before this step.
        incumbent: Option<u64>,
    },
    /// Guided joint search: a tier-0 joint band proved a point cannot
    /// beat the incumbent, so it never reaches tier 1. The recorded
    /// bounds are the proof obligations: `slices_lo` exceeds device
    /// capacity, or `cycles_lo` exceeds `threshold` (the incumbent-side
    /// cycle bound in force; `None` when the point was pruned on
    /// capacity alone).
    BoundPrune {
        /// The pruned joint point.
        point: JointPoint,
        /// Tier-0 lower bound on cycles.
        cycles_lo: u64,
        /// Tier-0 lower bound on slices.
        slices_lo: u32,
        /// The cycle threshold the lower bound exceeded, if any.
        threshold: Option<u64>,
    },
}

fn json_factors(u: &UnrollVector) -> String {
    let inner: Vec<String> = u.factors().iter().map(i64::to_string).collect();
    format!("[{}]", inner.join(","))
}

fn json_usizes(xs: &[usize]) -> String {
    let inner: Vec<String> = xs.iter().map(usize::to_string).collect();
    format!("[{}]", inner.join(","))
}

/// The shared joint-point field group used by `axis_visit`,
/// `strategy_step` and `bound_prune` renderings.
fn json_joint_fields(point: &JointPoint) -> String {
    format!(
        "\"unroll\":{},\"permutation\":{},\"tile\":{},\"narrow\":{},\"pack\":{}",
        json_factors(&point.unroll_vector()),
        json_usizes(&point.permutation),
        point
            .tile
            .map_or_else(|| "null".into(), |(l, t)| format!("[{l},{t}]")),
        point.narrow,
        point.pack,
    )
}

fn json_opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |x| x.to_string())
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v > 0.0 {
        "\"inf\"".into()
    } else {
        "\"-inf\"".into()
    }
}

/// Kebab-case label of a termination reason, stable for JSON traces.
pub fn termination_label(t: Termination) -> &'static str {
    match t {
        Termination::Balanced => "balanced",
        Termination::MemoryBoundAtInit => "memory-bound-at-init",
        Termination::SpaceConstrained => "space-constrained",
        Termination::Converged => "converged",
        Termination::ExhaustedCompute => "exhausted-compute",
    }
}

impl TraceEvent {
    /// One-line JSON rendering (the JSONL schema documented in
    /// DESIGN.md). Deterministic: equal events render to equal bytes.
    pub fn to_json(&self) -> String {
        match self {
            TraceEvent::Visit {
                unroll,
                balance,
                cycles,
                slices,
                fits,
                cache_hit,
            } => format!(
                "{{\"event\":\"visit\",\"unroll\":{},\"product\":{},\"balance\":{},\
                 \"cycles\":{cycles},\"slices\":{slices},\"fits\":{fits},\"cache_hit\":{cache_hit}}}",
                json_factors(unroll),
                unroll.product(),
                json_f64(*balance),
            ),
            TraceEvent::Increase { from, to } => format!(
                "{{\"event\":\"increase\",\"from\":{},\"to\":{}}}",
                json_factors(from),
                json_factors(to),
            ),
            TraceEvent::SelectBetween { lo, hi, chosen } => format!(
                "{{\"event\":\"select_between\",\"lo\":{},\"hi\":{},\"chosen\":{}}}",
                json_factors(lo),
                json_factors(hi),
                chosen
                    .as_ref()
                    .map_or_else(|| "null".into(), json_factors),
            ),
            TraceEvent::FindLargestFit { base, init, chosen } => format!(
                "{{\"event\":\"find_largest_fit\",\"base\":{},\"init\":{},\"chosen\":{}}}",
                json_factors(base),
                json_factors(init),
                json_factors(chosen),
            ),
            TraceEvent::Frontier { points } => {
                let inner: Vec<String> = points.iter().map(json_factors).collect();
                format!(
                    "{{\"event\":\"frontier\",\"points\":[{}]}}",
                    inner.join(",")
                )
            }
            TraceEvent::Terminate { reason, selected } => format!(
                "{{\"event\":\"terminate\",\"reason\":\"{}\",\"selected\":{}}}",
                termination_label(*reason),
                json_factors(selected),
            ),
            TraceEvent::WarmStart {
                previous,
                preloaded,
                changed,
            } => {
                let inner: Vec<String> = changed.iter().map(|p| format!("\"{p}\"")).collect();
                format!(
                    "{{\"event\":\"warm_start\",\"previous\":{},\"preloaded\":{preloaded},\
                     \"changed\":[{}]}}",
                    json_factors(previous),
                    inner.join(","),
                )
            }
            TraceEvent::AxisVisit {
                point,
                balance,
                cycles,
                slices,
                fits,
            } => format!(
                "{{\"event\":\"axis_visit\",{},\"balance\":{},\"cycles\":{cycles},\
                 \"slices\":{slices},\"fits\":{fits}}}",
                json_joint_fields(point),
                json_f64(*balance),
            ),
            TraceEvent::StrategyStep {
                point,
                cycles,
                slices,
                fits,
                incumbent,
            } => format!(
                "{{\"event\":\"strategy_step\",{},\"cycles\":{cycles},\"slices\":{slices},\
                 \"fits\":{fits},\"incumbent\":{}}}",
                json_joint_fields(point),
                json_opt_u64(*incumbent),
            ),
            TraceEvent::BoundPrune {
                point,
                cycles_lo,
                slices_lo,
                threshold,
            } => format!(
                "{{\"event\":\"bound_prune\",{},\"cycles_lo\":{cycles_lo},\
                 \"slices_lo\":{slices_lo},\"threshold\":{}}}",
                json_joint_fields(point),
                json_opt_u64(*threshold),
            ),
        }
    }
}

/// Render a slice of events as a JSONL document (one event per line,
/// trailing newline). Byte-identical for identical event sequences.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json());
        out.push('\n');
    }
    out
}

/// Receiver of trace events. Sinks are shared between the search and the
/// engine's worker threads, so they take `&self` and must be `Sync`;
/// implementations serialize internally where needed.
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// Record one event.
    fn record(&self, event: &TraceEvent);

    /// Whether recording has any effect. The explorer skips computing
    /// trace-only artifacts (e.g. the frontier event at one worker) when
    /// the sink is disabled.
    fn enabled(&self) -> bool {
        true
    }
}

/// The default sink: records nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _event: &TraceEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Collects every event in memory, in emission order.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the events recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace sink lock").clone()
    }

    /// The recorded events as a JSONL document.
    pub fn to_jsonl(&self) -> String {
        to_jsonl(&self.events())
    }

    /// Drop all recorded events.
    pub fn clear(&self) {
        self.events.lock().expect("trace sink lock").clear();
    }
}

impl TraceSink for MemorySink {
    fn record(&self, event: &TraceEvent) {
        self.events
            .lock()
            .expect("trace sink lock")
            .push(event.clone());
    }
}

/// Streams events as JSON Lines to a writer (a file for the CLI's
/// `--trace out.jsonl`). Write errors are swallowed — tracing is
/// best-effort observability and must never fail the search; callers
/// that need certainty call [`JsonlSink::flush`] and check it.
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Stream events to `writer`.
    pub fn new(writer: impl Write + Send + 'static) -> Self {
        JsonlSink {
            out: Mutex::new(Box::new(writer)),
        }
    }

    /// Create (truncate) `path` and stream events to it.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation failure.
    pub fn create(path: &str) -> std::io::Result<Self> {
        Ok(Self::new(std::io::BufWriter::new(std::fs::File::create(
            path,
        )?)))
    }

    /// Flush the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the I/O failure.
    pub fn flush(&self) -> std::io::Result<()> {
        self.out.lock().expect("trace sink lock").flush()
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: &TraceEvent) {
        let mut out = self.out.lock().expect("trace sink lock");
        let _ = writeln!(out, "{}", event.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn visit(p: i64) -> TraceEvent {
        TraceEvent::Visit {
            unroll: UnrollVector(vec![p, 1]),
            balance: 2.0,
            cycles: 100,
            slices: 10,
            fits: true,
            cache_hit: false,
        }
    }

    #[test]
    fn jsonl_schema_is_stable() {
        let json = visit(4).to_json();
        assert_eq!(
            json,
            "{\"event\":\"visit\",\"unroll\":[4,1],\"product\":4,\"balance\":2,\
             \"cycles\":100,\"slices\":10,\"fits\":true,\"cache_hit\":false}"
        );
        let t = TraceEvent::Terminate {
            reason: Termination::Balanced,
            selected: UnrollVector(vec![4, 1]),
        };
        assert_eq!(
            t.to_json(),
            "{\"event\":\"terminate\",\"reason\":\"balanced\",\"selected\":[4,1]}"
        );
        let s = TraceEvent::SelectBetween {
            lo: UnrollVector(vec![1, 1]),
            hi: UnrollVector(vec![4, 1]),
            chosen: None,
        };
        assert!(s.to_json().ends_with("\"chosen\":null}"));
        let picked = TraceEvent::SelectBetween {
            lo: UnrollVector(vec![1, 1]),
            hi: UnrollVector(vec![4, 1]),
            chosen: Some(UnrollVector(vec![2, 1])),
        };
        assert_eq!(
            picked.to_json(),
            "{\"event\":\"select_between\",\"lo\":[1,1],\"hi\":[4,1],\"chosen\":[2,1]}"
        );
        let up = TraceEvent::Increase {
            from: UnrollVector(vec![2, 1]),
            to: UnrollVector(vec![4, 1]),
        };
        assert_eq!(
            up.to_json(),
            "{\"event\":\"increase\",\"from\":[2,1],\"to\":[4,1]}"
        );
        let fit = TraceEvent::FindLargestFit {
            base: UnrollVector(vec![1, 1]),
            init: UnrollVector(vec![8, 4]),
            chosen: UnrollVector(vec![4, 2]),
        };
        assert_eq!(
            fit.to_json(),
            "{\"event\":\"find_largest_fit\",\"base\":[1,1],\"init\":[8,4],\"chosen\":[4,2]}"
        );
    }

    #[test]
    fn tier_event_schema_is_stable() {
        let warm = TraceEvent::WarmStart {
            previous: UnrollVector(vec![8, 8]),
            preloaded: 6,
            changed: vec!["innermost".into(), "decls".into()],
        };
        assert_eq!(
            warm.to_json(),
            "{\"event\":\"warm_start\",\"previous\":[8,8],\"preloaded\":6,\
             \"changed\":[\"innermost\",\"decls\"]}"
        );
        let cold = TraceEvent::WarmStart {
            previous: UnrollVector(vec![4, 2]),
            preloaded: 0,
            changed: vec![],
        };
        assert!(cold.to_json().ends_with("\"preloaded\":0,\"changed\":[]}"));
        let frontier = TraceEvent::Frontier {
            points: vec![UnrollVector(vec![1, 1]), UnrollVector(vec![2, 1])],
        };
        assert_eq!(
            frontier.to_json(),
            "{\"event\":\"frontier\",\"points\":[[1,1],[2,1]]}"
        );
    }

    #[test]
    fn axis_visit_schema_is_stable() {
        let e = TraceEvent::AxisVisit {
            point: JointPoint {
                unroll: vec![4, 1],
                permutation: vec![1, 0],
                tile: None,
                narrow: true,
                pack: false,
            },
            balance: 1.5,
            cycles: 200,
            slices: 40,
            fits: true,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"axis_visit\",\"unroll\":[4,1],\"permutation\":[1,0],\"tile\":null,\
             \"narrow\":true,\"pack\":false,\"balance\":1.5,\"cycles\":200,\"slices\":40,\
             \"fits\":true}"
        );
        let tiled = TraceEvent::AxisVisit {
            point: JointPoint {
                tile: Some((1, 8)),
                ..JointPoint::baseline(2)
            },
            balance: 2.0,
            cycles: 100,
            slices: 10,
            fits: false,
        };
        assert!(tiled.to_json().contains("\"tile\":[1,8]"));
    }

    #[test]
    fn strategy_event_schema_is_stable() {
        let step = TraceEvent::StrategyStep {
            point: JointPoint {
                unroll: vec![4, 1],
                permutation: vec![1, 0],
                tile: None,
                narrow: false,
                pack: true,
            },
            cycles: 300,
            slices: 50,
            fits: true,
            incumbent: Some(420),
        };
        assert_eq!(
            step.to_json(),
            "{\"event\":\"strategy_step\",\"unroll\":[4,1],\"permutation\":[1,0],\
             \"tile\":null,\"narrow\":false,\"pack\":true,\"cycles\":300,\"slices\":50,\
             \"fits\":true,\"incumbent\":420}"
        );
        let first = TraceEvent::StrategyStep {
            point: JointPoint::baseline(2),
            cycles: 500,
            slices: 10,
            fits: true,
            incumbent: None,
        };
        assert!(first.to_json().ends_with("\"incumbent\":null}"));
        let prune = TraceEvent::BoundPrune {
            point: JointPoint {
                tile: Some((1, 8)),
                ..JointPoint::baseline(2)
            },
            cycles_lo: 480,
            slices_lo: 90,
            threshold: Some(450),
        };
        assert_eq!(
            prune.to_json(),
            "{\"event\":\"bound_prune\",\"unroll\":[1,1],\"permutation\":[0,1],\
             \"tile\":[1,8],\"narrow\":false,\"pack\":false,\"cycles_lo\":480,\
             \"slices_lo\":90,\"threshold\":450}"
        );
        let capacity = TraceEvent::BoundPrune {
            point: JointPoint::baseline(2),
            cycles_lo: 1,
            slices_lo: 99999,
            threshold: None,
        };
        assert!(capacity.to_json().ends_with("\"threshold\":null}"));
    }

    #[test]
    fn non_finite_balance_renders_as_string() {
        let e = TraceEvent::Visit {
            unroll: UnrollVector(vec![1]),
            balance: f64::INFINITY,
            cycles: 1,
            slices: 1,
            fits: true,
            cache_hit: false,
        };
        assert!(e.to_json().contains("\"balance\":\"inf\""));
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let sink = MemorySink::new();
        sink.record(&visit(1));
        sink.record(&visit(2));
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], visit(1));
        assert_eq!(sink.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        #[derive(Clone, Default)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let shared = Shared::default();
        let sink = JsonlSink::new(shared.clone());
        sink.record(&visit(1));
        sink.record(&visit(2));
        sink.flush().unwrap();
        let text = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text, to_jsonl(&[visit(1), visit(2)]));
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
        assert!(MemorySink::new().enabled());
    }
}
