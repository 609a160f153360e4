//! Trace and auditor contract over the whole paper suite.
//!
//! Every search on every paper kernel must produce a trace that (a) the
//! invariant auditor accepts with zero violations, (b) is byte-identical
//! at any worker count (tracing is an observability feature, not a
//! scheduling one), and (c) agrees with the un-traced run. The plain
//! [`run_search`] entry point and [`Explorer::explore`] must also agree
//! on cache accounting for the same serial run, since both sit on a
//! single cache layer. The same audit runs on every example kernel file
//! at both fidelities, as `defacto audit` does.

use defacto::prelude::*;
use defacto::{run_search, to_jsonl, SearchConfig};
use std::sync::Arc;

const WORKER_COUNTS: [usize; 2] = [1, 8];

fn traced_run(
    kernel: &defacto_ir::Kernel,
    workers: usize,
) -> (SearchResult, Vec<TraceEvent>, SaturationInfo, DesignSpace) {
    let sink = Arc::new(MemorySink::new());
    let ex = Explorer::new(kernel).threads(workers).trace(sink.clone());
    let (sat, space) = ex.analyze().expect("analysis succeeds");
    let r = ex.explore().expect("search succeeds");
    (r, sink.events(), sat, space)
}

#[test]
fn audit_is_clean_on_every_paper_kernel_at_every_worker_count() {
    for (name, kernel) in defacto_kernels::paper_kernels() {
        for workers in WORKER_COUNTS {
            let (r, events, sat, space) = traced_run(&kernel, workers);
            let report = audit_search_trace(&events, &space, &sat);
            assert!(report.is_clean(), "{name} at {workers} workers: {report}");
            assert!(report.checks > 0, "{name}");
            // The trace ends by selecting exactly what the result says.
            match events.last() {
                Some(TraceEvent::Terminate { selected, .. }) => {
                    assert_eq!(selected, &r.selected.unroll, "{name}");
                }
                other => panic!("{name}: trace does not end in Terminate: {other:?}"),
            }
        }
    }
}

/// The kernel files under `examples/kernels`, by file name.
fn example_kernels() -> Vec<(String, defacto_ir::Kernel)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/kernels");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/kernels is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "kernel"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let source = std::fs::read_to_string(&path).expect("kernel file is readable");
            let kernel = defacto_ir::parse_kernel(&source)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (path.display().to_string(), kernel)
        })
        .collect()
}

/// `defacto audit FILE --threads W --fidelity F` on every example kernel
/// file: the trace audits clean and ends by selecting the result.
#[test]
fn audit_is_clean_on_every_example_kernel_file_at_both_fidelities() {
    let kernels = example_kernels();
    let files: Vec<&str> = kernels.iter().map(|(file, _)| file.as_str()).collect();
    assert_eq!(files.len(), 5, "example kernels: {files:?}");
    for (file, kernel) in &kernels {
        for workers in WORKER_COUNTS {
            for fidelity in [Fidelity::Full, Fidelity::Analytic] {
                let sink = Arc::new(MemorySink::new());
                let ex = Explorer::new(kernel)
                    .threads(workers)
                    .fidelity(fidelity)
                    .trace(sink.clone());
                let r = ex.explore().expect("search succeeds");
                let (sat, space) = ex.analyze().expect("analysis succeeds");
                let events = sink.events();
                let report = audit_search_trace(&events, &space, &sat);
                let at = format!("{file} at {workers} workers, {fidelity:?}");
                assert!(report.is_clean(), "{at}: {report}");
                assert!(report.checks > 0, "{at}");
                match events.last() {
                    Some(TraceEvent::Terminate { selected, .. }) => {
                        assert_eq!(selected, &r.selected.unroll, "{at}");
                    }
                    other => panic!("{at}: trace does not end in Terminate: {other:?}"),
                }
            }
        }
    }
}

#[test]
fn traces_are_byte_identical_across_worker_counts() {
    for (name, kernel) in defacto_kernels::paper_kernels() {
        let (_, serial_events, _, _) = traced_run(&kernel, 1);
        let serial = to_jsonl(&serial_events);
        for workers in WORKER_COUNTS {
            let (_, events, _, _) = traced_run(&kernel, workers);
            assert_eq!(
                to_jsonl(&events),
                serial,
                "{name}: trace bytes differ at {workers} workers"
            );
        }
    }
}

#[test]
fn tracing_does_not_change_the_search_result() {
    for (name, kernel) in defacto_kernels::paper_kernels() {
        let plain = Explorer::new(&kernel).threads(1).explore().unwrap();
        let (traced, _, _, _) = traced_run(&kernel, 1);
        assert_eq!(traced.selected, plain.selected, "{name}");
        assert_eq!(traced.visited, plain.visited, "{name}");
        assert_eq!(traced.termination, plain.termination, "{name}");
    }
}

#[test]
fn visit_events_mirror_the_visited_list() {
    for (name, kernel) in defacto_kernels::paper_kernels() {
        let (r, events, _, _) = traced_run(&kernel, 1);
        let first_visits: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Visit {
                    unroll,
                    cache_hit: false,
                    ..
                } => Some(unroll.clone()),
                _ => None,
            })
            .collect();
        let visited: Vec<_> = r.visited.iter().map(|d| d.unroll.clone()).collect();
        assert_eq!(first_visits, visited, "{name}");
    }
}

#[test]
fn run_search_and_explorer_agree_on_cache_accounting() {
    for (name, kernel) in defacto_kernels::paper_kernels() {
        let ex = Explorer::new(&kernel).threads(1);
        let (sat, space) = ex.analyze().unwrap();
        let from_explorer = ex.explore().unwrap();

        // A fresh evaluator for the plain entry point: run_search's own
        // memo layer is the only cache in this run, so hits counted
        // there must match the engine-backed run above.
        let eval_ex = Explorer::new(&kernel).threads(1);
        let r = run_search(&space, &sat, &SearchConfig::default(), |u| {
            eval_ex.evaluate(u).map(|d| d.estimate)
        })
        .unwrap();

        assert_eq!(
            r.stats.cache_hits, from_explorer.stats.cache_hits,
            "{name}: cache-hit accounting disagrees between run_search and Explorer"
        );
        assert_eq!(
            r.stats.evaluated, from_explorer.stats.evaluated,
            "{name}: evaluation counts disagree between run_search and Explorer"
        );
        assert_eq!(r.selected.unroll, from_explorer.selected.unroll, "{name}");
    }
}
