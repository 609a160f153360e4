//! Parallel evaluation must be indistinguishable from serial evaluation.
//!
//! The engine's contract (see `defacto::engine`) is that worker count is
//! a pure throughput knob: sweeps come back in the space's iteration
//! order, and the Figure-2 search visits the same sequence, selects the
//! same design and terminates for the same reason at any thread count.
//! These tests pin that contract on FIR and MM at 1, 2 and 8 workers,
//! comparing against an explicitly single-threaded reference run, and
//! pin the joint sweep the same way on all five paper kernels.

use defacto::prelude::*;
use defacto::to_jsonl;
use defacto_ir::Kernel;
use defacto_kernels::{fir, jacobi, matmul, pattern, sobel};
use std::sync::Arc;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn suite() -> Vec<(&'static str, Kernel)> {
    vec![("FIR", fir::kernel()), ("MM", matmul::kernel())]
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    for (name, k) in suite() {
        let serial = Explorer::new(&k).threads(1).sweep().unwrap();
        let serial_bytes = format!("{serial:?}");
        for workers in WORKER_COUNTS {
            let parallel = Explorer::new(&k).threads(workers).sweep().unwrap();
            assert_eq!(
                parallel, serial,
                "{name} sweep differs at {workers} workers"
            );
            assert_eq!(
                format!("{parallel:?}"),
                serial_bytes,
                "{name} sweep bytes differ at {workers} workers"
            );
        }
    }
}

/// The joint sweep over all axes, with its `AxisVisit` trace as JSON
/// lines.
fn joint_sweep_traced(k: &Kernel, workers: usize) -> (Vec<EvaluatedJointDesign>, String) {
    let sink = Arc::new(MemorySink::new());
    let sweep = Explorer::new(k)
        .threads(workers)
        .axes(&Axis::ALL)
        .fidelity(Fidelity::Full)
        .trace(sink.clone())
        .joint_sweep()
        .unwrap();
    let visits: Vec<TraceEvent> = sink
        .events()
        .into_iter()
        .filter(|e| matches!(e, TraceEvent::AxisVisit { .. }))
        .collect();
    assert_eq!(visits.len(), sweep.len());
    (sweep, to_jsonl(&visits))
}

/// Workers claim the joint sweep's sibling groups from a shared counter
/// and finish them in any order; that order must never reach the
/// points, their estimates or the trace.
#[test]
fn parallel_joint_sweep_is_byte_identical_to_serial() {
    let kernels = [
        ("FIR", fir::kernel()),
        ("MM", matmul::kernel()),
        ("PAT", pattern::kernel()),
        ("JAC", jacobi::kernel()),
        ("SOBEL", sobel::kernel()),
    ];
    for (name, k) in &kernels {
        // The reference run is the one-worker run.
        let (serial, serial_trace) = joint_sweep_traced(k, 1);
        let serial_bytes = format!("{serial:?}");
        for workers in WORKER_COUNTS.into_iter().filter(|&w| w > 1) {
            let (parallel, trace) = joint_sweep_traced(k, workers);
            assert_eq!(
                parallel, serial,
                "{name} joint sweep differs at {workers} workers"
            );
            assert_eq!(
                format!("{parallel:?}"),
                serial_bytes,
                "{name} joint sweep bytes differ at {workers} workers"
            );
            assert!(
                trace == serial_trace,
                "{name} AxisVisit trace differs at {workers} workers"
            );
        }
    }
}

#[test]
fn parallel_search_selects_identically_to_serial() {
    for (name, k) in suite() {
        let serial = Explorer::new(&k).threads(1).explore().unwrap();
        for workers in WORKER_COUNTS {
            let parallel = Explorer::new(&k).threads(workers).explore().unwrap();
            assert_eq!(
                parallel.selected, serial.selected,
                "{name} selected design differs at {workers} workers"
            );
            assert_eq!(
                parallel.visited, serial.visited,
                "{name} visited sequence differs at {workers} workers"
            );
            assert_eq!(
                parallel.termination, serial.termination,
                "{name} termination differs at {workers} workers"
            );
            assert_eq!(parallel.space_size, serial.space_size, "{name}");
            assert_eq!(parallel.stats.workers, workers, "{name}");
        }
    }
}

#[test]
fn reexploration_is_served_from_the_memo_cache() {
    for (name, k) in suite() {
        let ex = Explorer::new(&k).threads(2);
        let first = ex.explore().unwrap();
        assert!(first.stats.evaluated > 0, "{name} first run evaluates");
        let second = ex.explore().unwrap();
        assert_eq!(second.selected, first.selected, "{name}");
        assert!(
            second.stats.cache_hits >= 1,
            "{name} re-exploration should hit the cache (stats: {:?})",
            second.stats
        );
        assert_eq!(
            second.stats.evaluated, 0,
            "{name} re-exploration should evaluate nothing new"
        );
    }
}

/// The pool genuinely overlaps evaluations: eight blocking items on
/// eight workers finish in a fraction of the serial time. (Sleeping is
/// used instead of compute so the test also demonstrates overlap on
/// single-core CI hosts, where CPU-bound speedup is physically capped.)
#[test]
fn worker_pool_overlaps_blocking_evaluations() {
    use std::time::{Duration, Instant};
    let items: Vec<u32> = (0..8).collect();
    let nap = Duration::from_millis(25);
    let time = |engine: &EvalEngine| {
        let t = Instant::now();
        let results = engine.parallel_map(&items, |_| {
            std::thread::sleep(nap);
            Ok(())
        });
        assert!(results.iter().all(Result::is_ok));
        t.elapsed()
    };
    let serial = time(&EvalEngine::new(1));
    let parallel = time(&EvalEngine::new(8));
    assert!(
        parallel * 3 < serial,
        "8 workers should overlap blocking work >=3x (serial {serial:?}, parallel {parallel:?})"
    );
}

#[test]
fn sweep_stats_report_work_and_workers() {
    let (_, k) = suite().remove(0);
    let ex = Explorer::new(&k).threads(2);
    let (sweep, stats) = ex.sweep_with_stats().unwrap();
    assert_eq!(stats.evaluated, sweep.len() as u64);
    assert_eq!(stats.workers, 2);
    // A second sweep over the same explorer is answered by the cache.
    let (again, stats2) = ex.sweep_with_stats().unwrap();
    assert_eq!(again, sweep);
    assert_eq!(stats2.evaluated, 0);
    assert_eq!(stats2.cache_hits, sweep.len() as u64);
}
