//! Wall-clock benchmark of incremental design-point evaluation.
//!
//! Sweeps the five paper kernels' design spaces twice per kernel:
//!
//! 1. **from scratch** — every point runs the full transformation
//!    pipeline ([`defacto_xform::transform`]) plus the behavioral
//!    estimator, with no shared state between points;
//! 2. **prepared** — the [`Explorer`] path, where a `PreparedKernel`
//!    hoists point-invariant analysis. `unroll_reuse_rate` is kept in
//!    the schema but reads 0: the prepared path no longer caches
//!    unrolled bodies across points.
//!
//! Both paths see the identical point list (the space's iteration
//! order) and the identical platform model, so the wall-clock ratio is
//! the cost of re-deriving point-invariant work per point — the quantity
//! the incremental evaluation path exists to eliminate.
//!
//! A third, *memoized* pass re-runs the prepared sweep on the same
//! explorer: every point answers from the engine's memo cache, which is
//! where `eval_cache_hit_rate` comes from (a cold exhaustive sweep
//! legitimately reports 0 — every point is distinct — so the cold rate
//! said nothing about the cache).
//!
//! Output: a human-readable table on stdout and a JSON report
//! (schema `defacto-bench-sweep/v2`) written to `--out` (default
//! `BENCH_sweep.json`).
//!
//! Flags:
//!
//! - `--smoke`  — reduced spaces (outermost loop only) for CI;
//! - `--check`  — assert the prepared sweep reproduces the from-scratch
//!   estimates bit for bit (exit 2 on any divergence);
//! - `--workers N` — evaluation worker threads for the prepared sweep
//!   (the from-scratch baseline is always serial, matching the
//!   pre-incremental evaluator);
//! - `--out PATH` — where to write the JSON report.

use defacto::prelude::*;
use defacto_synth::{estimate_opts, SynthesisOptions};
use defacto_xform::transform;
use serde::Serialize;
use std::time::Instant;

const SCHEMA: &str = "defacto-bench-sweep/v2";

#[derive(Serialize)]
struct KernelRow {
    name: String,
    points: u64,
    from_scratch_ms: f64,
    prepared_ms: f64,
    memoized_ms: f64,
    points_per_sec: f64,
    eval_cache_hit_rate: f64,
    unroll_reuse_rate: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct SweepReport {
    schema: String,
    mode: String,
    workers: usize,
    kernels: Vec<KernelRow>,
    geomean_speedup: f64,
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
        out: "BENCH_sweep.json".to_string(),
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
                eprintln!("usage: bench_sweep [--smoke] [--check] [--workers N] [--out PATH]");
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
    let mem = MemoryModel::wildstar_pipelined();
    let device = FpgaDevice::virtex1000();
    let opts = TransformOptions::default();
    let synthesis = SynthesisOptions::default();

    let mut rows: Vec<KernelRow> = Vec::new();
    let mut mismatches = 0usize;

    for bk in defacto_bench::kernels() {
        let depth = bk
            .kernel
            .perfect_nest()
            .unwrap_or_else(|| panic!("{} is not a perfect nest", bk.name))
            .depth();
        let mut ex = Explorer::new(&bk.kernel).threads(args.workers);
        if args.smoke {
            // Reduced space: explore the outermost loop only.
            let mut levels = vec![false; depth];
            levels[0] = true;
            ex = ex.explore_levels(&levels);
        }
        let (_, space) = ex.analyze().expect("design space");
        let points: Vec<UnrollVector> = space.iter().collect();

        // From-scratch baseline: full pipeline + estimate per point,
        // serial, nothing shared between points.
        let t0 = Instant::now();
        let scratch: Vec<Estimate> = points
            .iter()
            .map(|u| {
                let design = transform(&bk.kernel, u, &opts).expect("scratch transform");
                estimate_opts(&design, &mem, &device, &synthesis)
            })
            .collect();
        let scratch_wall = t0.elapsed();

        // Prepared path: the Explorer's exhaustive sweep.
        let t1 = Instant::now();
        let (sweep, _cold_stats) = ex.sweep_with_stats().expect("prepared sweep");
        let prepared_wall = t1.elapsed();

        // Memoized pass: the same sweep again through the same explorer;
        // every point is a memo-cache hit, so the measured hit rate is
        // the cache's, not an artifact of a duplicate-free point list.
        let t2 = Instant::now();
        let (_, warm_stats) = ex.sweep_with_stats().expect("memoized sweep");
        let memoized_wall = t2.elapsed();

        if args.check {
            assert_eq!(sweep.len(), points.len(), "{}: point count", bk.name);
            for (i, d) in sweep.iter().enumerate() {
                if d.unroll != points[i] || d.estimate != scratch[i] {
                    eprintln!(
                        "{}: divergence at {:?}: prepared {:?} vs from-scratch {:?}",
                        bk.name, points[i], d.estimate, scratch[i]
                    );
                    mismatches += 1;
                }
            }
        }

        let speedup = scratch_wall.as_secs_f64() / prepared_wall.as_secs_f64().max(1e-12);
        rows.push(KernelRow {
            name: bk.name.to_string(),
            points: points.len() as u64,
            from_scratch_ms: ms(scratch_wall),
            prepared_ms: ms(prepared_wall),
            memoized_ms: ms(memoized_wall),
            points_per_sec: points.len() as f64 / prepared_wall.as_secs_f64().max(1e-12),
            eval_cache_hit_rate: warm_stats.cache_hit_rate(),
            // No unrolled body is cached across points any more.
            unroll_reuse_rate: 0.0,
            speedup,
        });
    }

    let geomean = rows
        .iter()
        .map(|r| r.speedup.ln())
        .sum::<f64>()
        .exp_div(rows.len());

    let report = SweepReport {
        schema: SCHEMA.to_string(),
        mode: if args.smoke { "smoke" } else { "full" }.to_string(),
        workers: args.workers,
        kernels: rows,
        geomean_speedup: geomean,
    };

    let table_rows: Vec<Vec<String>> = report
        .kernels
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.points.to_string(),
                defacto_bench::report::fnum(r.from_scratch_ms, 1),
                defacto_bench::report::fnum(r.prepared_ms, 1),
                defacto_bench::report::fnum(r.memoized_ms, 2),
                defacto_bench::report::fnum(r.points_per_sec, 1),
                defacto_bench::report::fnum(r.eval_cache_hit_rate, 3),
                defacto_bench::report::fnum(r.unroll_reuse_rate, 3),
                defacto_bench::report::fnum(r.speedup, 2),
            ]
        })
        .collect();
    println!(
        "{}",
        defacto_bench::report::render_table(
            &[
                "kernel",
                "points",
                "scratch ms",
                "prepared ms",
                "memo ms",
                "pts/s",
                "eval hit",
                "reuse",
                "speedup",
            ],
            &table_rows
        )
    );
    println!(
        "geomean speedup: {} ({} mode, {} workers)",
        defacto_bench::report::fnum(report.geomean_speedup, 2),
        report.mode,
        report.workers
    );

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&args.out, json + "\n").expect("write report");
    println!("wrote {}", args.out);

    if mismatches > 0 {
        eprintln!("--check failed: {mismatches} divergent point(s)");
        std::process::exit(2);
    }
}

/// Geometric-mean helper: `exp(sum_of_lns / n)`.
trait ExpDiv {
    fn exp_div(self, n: usize) -> f64;
}
impl ExpDiv for f64 {
    fn exp_div(self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            (self / n as f64).exp()
        }
    }
}
