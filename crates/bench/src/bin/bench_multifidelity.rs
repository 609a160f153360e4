//! Wall-clock benchmark of tier-0 and tier-1 design-space exploration.
//!
//! Searches the five paper kernels' unroll spaces three times per
//! kernel, each through a fresh explorer (cold caches):
//!
//! 1. **full** — a sweep where every point pays the tier-1 transform +
//!    behavioral estimate pipeline (the exhaustive baseline);
//! 2. **guided** — branch-and-bound over the unroll-only joint space:
//!    tier-0 analytic bands prune the points that provably cannot win,
//!    and only the rest pay tier 1. The selected design must be
//!    bit-identical to the full sweep's;
//! 3. **analytic** — a tier-0-only sweep: the throughput ceiling of the
//!    closed-form model, which is what "effective full-space points/sec
//!    at tier 0" measures.
//!
//! Output: a human-readable table on stdout and a JSON report (schema
//! `defacto-bench-multifidelity/v2`) written to `--out` (default
//! `BENCH_multifidelity.json`).
//!
//! Flags:
//!
//! - `--smoke` — reduced spaces (outermost loop only) for CI;
//! - `--check` — exit 2 unless the guided selection matches the full
//!   selection bit for bit on every kernel;
//! - `--workers N` — evaluation worker threads (default 1);
//! - `--out PATH` — where to write the JSON report.

use defacto::exhaustive::best_performance;
use defacto::prelude::*;
use defacto::{Axis, Fidelity, StrategyKind};
use serde::Serialize;
use std::time::Instant;

const SCHEMA: &str = "defacto-bench-multifidelity/v2";

#[derive(Serialize)]
struct KernelRow {
    name: String,
    points: u64,
    full_ms: f64,
    guided_ms: f64,
    analytic_ms: f64,
    full_pts_per_sec: f64,
    tier0_pts_per_sec: f64,
    tier0_throughput_x: f64,
    tier0_evaluated: u64,
    guided_evaluations: u64,
    guided_pruned: u64,
    selected_unroll: Vec<i64>,
    selected_cycles: u64,
    selected_slices: u32,
    selected_agree: bool,
}

#[derive(Serialize)]
struct MultiFidelityReport {
    schema: String,
    mode: String,
    workers: usize,
    kernels: Vec<KernelRow>,
    geomean_tier0_throughput_x: f64,
    all_selected_agree: bool,
}

struct Args {
    smoke: bool,
    check: bool,
    workers: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        check: false,
        workers: 1,
        out: "BENCH_multifidelity.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            "--workers" => {
                let v = it.next().expect("--workers needs a value");
                args.workers = v.parse().expect("--workers needs an integer");
            }
            "--out" => args.out = it.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown flag `{other}`");
                eprintln!(
                    "usage: bench_multifidelity [--smoke] [--check] [--workers N] [--out PATH]"
                );
                std::process::exit(1);
            }
        }
    }
    args
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let args = parse_args();
    let mut rows: Vec<KernelRow> = Vec::new();
    let mut disagreements = 0usize;

    for bk in defacto_bench::kernels() {
        let depth = bk
            .kernel
            .perfect_nest()
            .unwrap_or_else(|| panic!("{} is not a perfect nest", bk.name))
            .depth();
        let smoke_levels = {
            let mut levels = vec![false; depth];
            levels[0] = true;
            levels
        };
        // A fresh explorer per fidelity: every pass starts cold, so the
        // timings compare pipelines, not cache states.
        let explorer = |fidelity: Fidelity| {
            let mut ex = Explorer::new(&bk.kernel)
                .threads(args.workers)
                .fidelity(fidelity);
            if args.smoke {
                ex = ex.explore_levels(&smoke_levels);
            }
            ex
        };

        let t0 = Instant::now();
        let (full, _) = explorer(Fidelity::Full)
            .sweep_with_stats()
            .expect("full sweep");
        let full_wall = t0.elapsed();

        let t1 = Instant::now();
        let guided = explorer(Fidelity::Full)
            .axes(&[Axis::Unroll])
            .joint_explore(StrategyKind::BranchAndBound)
            .expect("guided search");
        let guided_wall = t1.elapsed();

        let t2 = Instant::now();
        let (analytic, analytic_stats) = explorer(Fidelity::Analytic)
            .sweep_with_stats()
            .expect("analytic sweep");
        let analytic_wall = t2.elapsed();

        let points = full.len();
        assert_eq!(
            points as u64, guided.space_points,
            "{}: guided space",
            bk.name
        );
        assert_eq!(points, analytic.len(), "{}: analytic point count", bk.name);

        let full_best = best_performance(&full).expect("full winner");
        let guided_best = guided.selected.as_ref().expect("guided winner");
        let agree = full_best.unroll.factors() == guided_best.point.unroll
            && full_best.estimate == guided_best.estimate;
        if !agree {
            eprintln!(
                "{}: selection diverged: full {} ({} cycles) vs guided {:?} ({} cycles)",
                bk.name,
                full_best.unroll,
                full_best.estimate.cycles,
                guided_best.point.unroll,
                guided_best.estimate.cycles
            );
            disagreements += 1;
        }

        let full_pts = points as f64 / full_wall.as_secs_f64().max(1e-12);
        let tier0_pts = points as f64 / analytic_wall.as_secs_f64().max(1e-12);
        rows.push(KernelRow {
            name: bk.name.to_string(),
            points: points as u64,
            full_ms: ms(full_wall),
            guided_ms: ms(guided_wall),
            analytic_ms: ms(analytic_wall),
            full_pts_per_sec: full_pts,
            tier0_pts_per_sec: tier0_pts,
            tier0_throughput_x: tier0_pts / full_pts.max(1e-12),
            tier0_evaluated: analytic_stats.tier0_evaluated,
            guided_evaluations: guided.stats.strategy_visited,
            guided_pruned: guided.pruned,
            selected_unroll: full_best.unroll.factors().to_vec(),
            selected_cycles: full_best.estimate.cycles,
            selected_slices: full_best.estimate.slices,
            selected_agree: agree,
        });
    }

    let geomean = |f: &dyn Fn(&KernelRow) -> f64| {
        let n = rows.len();
        if n == 0 {
            return 0.0;
        }
        (rows.iter().map(|r| f(r).max(1e-12).ln()).sum::<f64>() / n as f64).exp()
    };
    let report = MultiFidelityReport {
        schema: SCHEMA.to_string(),
        mode: if args.smoke { "smoke" } else { "full" }.to_string(),
        workers: args.workers,
        geomean_tier0_throughput_x: geomean(&|r| r.tier0_throughput_x),
        all_selected_agree: disagreements == 0,
        kernels: rows,
    };

    let table_rows: Vec<Vec<String>> = report
        .kernels
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.points.to_string(),
                defacto_bench::report::fnum(r.full_ms, 1),
                defacto_bench::report::fnum(r.guided_ms, 1),
                defacto_bench::report::fnum(r.analytic_ms, 2),
                defacto_bench::report::fnum(r.tier0_pts_per_sec, 0),
                defacto_bench::report::fnum(r.tier0_throughput_x, 1),
                format!("{}/{}", r.guided_pruned, r.points),
                if r.selected_agree { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        defacto_bench::report::render_table(
            &[
                "kernel",
                "points",
                "full ms",
                "guided ms",
                "tier0 ms",
                "tier0 pts/s",
                "tier0 x",
                "pruned",
                "agree",
            ],
            &table_rows
        )
    );
    println!(
        "geomean tier-0 throughput: {}x ({} mode, {} workers)",
        defacto_bench::report::fnum(report.geomean_tier0_throughput_x, 1),
        report.mode,
        report.workers
    );

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&args.out, json + "\n").expect("write report");
    println!("wrote {}", args.out);

    if args.check && disagreements > 0 {
        eprintln!("--check failed: {disagreements} kernel(s) selected a different design");
        std::process::exit(2);
    }
}
