//! Joint multi-axis design-space benchmark.
//!
//! For each of the five paper kernels this harness runs two sweeps per
//! kernel, each through a fresh explorer (cold caches):
//!
//! 1. **classic** — the legacy unroll-only sweep, plus a joint sweep
//!    restricted to the unroll axis. The two must agree bit for bit
//!    (points, order, estimates, winner): the typed multi-axis space is
//!    a strict generalization of the legacy `DesignSpace`;
//! 2. **joint** — the full unroll × interchange × tile × narrowing ×
//!    packing product space. Membership is proven statically from the
//!    kernel's `LegalitySummary`, so the sweep must see **zero**
//!    transform-time legality rejections; the counts of candidates the
//!    summary excluded (`pruned_*`) are what keep the joint sweep
//!    tractable. The sweep is traced and the trace audited against the
//!    space (`audit_joint_trace`): every enumerated point visited
//!    exactly once, nothing outside the space.
//!
//! A third, **guided** pass then searches the same all-axes space with
//! the branch-and-bound and coordinate-descent strategies (fresh
//! explorers, cold caches) and compares them against the exhaustive
//! ground truth: branch-and-bound must select the bit-identical design
//! at a fraction of the tier-1 evaluations; coordinate descent must
//! land within its own reported optimality gap.
//!
//! Output: a human-readable table on stdout and a JSON report (schema
//! `defacto-bench-joint/v2`) written to `--out` (default
//! `BENCH_joint.json`).
//!
//! Flags:
//!
//! - `--smoke` — reduced unroll spaces (outermost loop only) for CI;
//! - `--check` — exit 2 unless, on every kernel, the unroll-only joint
//!   sweep is bit-identical to the classic sweep, the all-axes sweep
//!   had zero transform-time legality rejections, its trace audit is
//!   clean, branch-and-bound selected the exhaustive winner, and
//!   coordinate descent landed within its reported gap; in full mode
//!   the paper-suite aggregate evaluation reduction must also clear the
//!   ≥5× headline;
//! - `--workers N` — evaluation worker threads (default 1);
//! - `--out PATH` — where to write the JSON report.

use defacto::exhaustive::{best_joint_performance, best_performance};
use defacto::prelude::*;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

const SCHEMA: &str = "defacto-bench-joint/v2";

/// The ≥5× tier-1 evaluation-reduction headline, gated by `--check` on
/// the paper-suite aggregate of full-space runs.
const REDUCTION_GATE: f64 = 5.0;

#[derive(Serialize)]
struct KernelRow {
    name: String,
    classic_points: u64,
    joint_points: u64,
    pruned_permutations: u64,
    pruned_unroll_perm: u64,
    pruned_tiles: u64,
    pruned_total: u64,
    pruned_fraction: f64,
    classic_ms: f64,
    joint_ms: f64,
    joint_pts_per_sec: f64,
    unroll_only_identical: bool,
    transform_rejections: u64,
    audit_clean: bool,
    classic_best_cycles: u64,
    joint_best_cycles: u64,
    joint_gain_x: f64,
    joint_best_unroll: Vec<i64>,
    joint_best_permutation: Vec<usize>,
    joint_best_tile: Option<(usize, i64)>,
    joint_best_narrow: bool,
    joint_best_pack: bool,
    exhaustive_evaluations: u64,
    guided_evaluations: u64,
    guided_pruned: u64,
    guided_ms: f64,
    guided_identical: bool,
    eval_reduction_x: f64,
    cd_evaluations: u64,
    cd_gap_cycles: Option<u64>,
    cd_within_gap: bool,
}

#[derive(Serialize)]
struct JointReport {
    schema: String,
    mode: String,
    fidelity: String,
    workers: usize,
    kernels: Vec<KernelRow>,
    total_joint_points: u64,
    total_pruned: u64,
    total_transform_rejections: u64,
    all_unroll_only_identical: bool,
    all_audits_clean: bool,
    all_guided_identical: bool,
    all_cd_within_gap: bool,
    paper_exhaustive_evaluations: u64,
    paper_guided_evaluations: u64,
    evaluation_reduction_x: f64,
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
        out: "BENCH_joint.json".to_string(),
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
                eprintln!("usage: bench_joint [--smoke] [--check] [--workers N] [--out PATH]");
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
    let mut failures = 0usize;

    // The five paper kernels are fully permutable and tilable, so a
    // sixth, dependence-constrained wavefront rides along to exercise
    // the legality pruning the joint space exists to prove: its (1, -1)
    // distance pins the nest to the identity permutation and forbids
    // hoisting an inner tile loop.
    let wavefront = parse_kernel(
        "kernel wf { inout A: i32[17][16];
           for i in 0..16 { for j in 0..16 {
             A[i + 1][j] = A[i][j + 1] + 1; } } }",
    )
    .expect("wavefront parses");
    // The wavefront's (1, -1) distance also makes the *outer* jam
    // illegal, so its unroll axis is pinned to the innermost loop in
    // every mode; the interchange and tile axes are what it is here to
    // constrain.
    let cases: Vec<(String, Kernel, Option<Vec<bool>>)> = defacto_bench::kernels()
        .into_iter()
        .map(|b| (b.name.to_string(), b.kernel, None))
        .chain(std::iter::once((
            "WF".to_string(),
            wavefront,
            Some(vec![false, true]),
        )))
        .collect();

    for (name, kernel, levels_override) in &cases {
        let depth = kernel
            .perfect_nest()
            .unwrap_or_else(|| panic!("{name} is not a perfect nest"))
            .depth();
        let smoke_levels = {
            let mut levels = vec![false; depth];
            levels[0] = true;
            levels
        };
        let explorer = || {
            let mut ex = Explorer::new(kernel).threads(args.workers);
            if let Some(levels) = levels_override {
                ex = ex.explore_levels(levels);
            } else if args.smoke {
                ex = ex.explore_levels(&smoke_levels);
            }
            ex
        };

        // Pass 1: the legacy sweep and its degenerate joint twin must be
        // bit-identical — same points, same order, same estimates, same
        // winner.
        let t0 = Instant::now();
        let classic = explorer().sweep().expect("classic sweep");
        let classic_wall = t0.elapsed();
        let unroll_only = explorer()
            .axes(&[Axis::Unroll])
            .joint_sweep()
            .expect("unroll-only joint sweep");
        let mut identical = classic.len() == unroll_only.len();
        if identical {
            for (j, c) in unroll_only.iter().zip(&classic) {
                if !j.point.is_unroll_only()
                    || j.point.unroll_vector() != c.unroll
                    || j.estimate != c.estimate
                {
                    identical = false;
                    break;
                }
            }
        }
        let classic_best = best_performance(&classic).expect("classic winner");
        if identical {
            let uo_best = best_joint_performance(&unroll_only).expect("unroll-only winner");
            identical = uo_best.point.unroll_vector() == classic_best.unroll
                && uo_best.estimate == classic_best.estimate;
        }
        if !identical {
            eprintln!(
                "{}: unroll-only joint sweep diverged from the classic sweep",
                name
            );
            failures += 1;
        }

        // Pass 2: the full product space. Membership must imply transform
        // success (joint_sweep errors instead of skipping), and the trace
        // must audit clean against the space.
        let sink = Arc::new(MemorySink::new());
        let joint_ex = explorer().axes(&Axis::ALL).trace(sink.clone());
        let space = joint_ex.joint_space().expect("joint space");
        let pruned = space.pruned_counts().unwrap_or_default();
        let t1 = Instant::now();
        let (joint, rejections) = match joint_ex.joint_sweep() {
            Ok(sweep) => (sweep, 0u64),
            Err(e) => {
                eprintln!("{}: transform-time legality rejection: {e}", name);
                failures += 1;
                (Vec::new(), 1)
            }
        };
        let joint_wall = t1.elapsed();
        let audit = defacto::audit::audit_joint_trace(&sink.events(), &space);
        if !audit.is_clean() {
            eprintln!("{}: joint trace audit failed:\n{audit}", name);
            failures += 1;
        }

        let joint_best = best_joint_performance(&joint);
        let (best_cycles, best_point) = match joint_best {
            Some(b) => (b.estimate.cycles, b.point.clone()),
            None => (0, defacto::JointPoint::baseline(depth)),
        };
        let pruned_total = pruned.permutations + pruned.unroll_perm + pruned.tiles;
        let universe = space.joint_size() + pruned_total;

        // Pass 3: the guided strategies against the exhaustive ground
        // truth, each through a fresh cold explorer so the wall clocks
        // are comparable.
        let t2 = Instant::now();
        let bnb = explorer()
            .axes(&Axis::ALL)
            .joint_explore(StrategyKind::BranchAndBound)
            .expect("branch-and-bound explore");
        let guided_wall = t2.elapsed();
        let guided_identical = match (joint_best, &bnb.selected) {
            (Some(e), Some(g)) => e.point == g.point && e.estimate == g.estimate,
            (None, None) => true,
            _ => false,
        };
        if !guided_identical {
            eprintln!(
                "{}: branch-and-bound selection diverged from the exhaustive winner",
                name
            );
            failures += 1;
        }
        let cd = explorer()
            .axes(&Axis::ALL)
            .joint_explore(StrategyKind::CoordinateDescent)
            .expect("coordinate-descent explore");
        let cd_within_gap = match (joint_best, &cd.selected, cd.gap_cycles) {
            (Some(e), Some(g), Some(gap)) => {
                g.estimate.cycles.saturating_sub(e.estimate.cycles) <= gap
            }
            (None, None, _) => true,
            _ => false,
        };
        if !cd_within_gap {
            eprintln!(
                "{}: coordinate descent landed outside its reported optimality gap",
                name
            );
            failures += 1;
        }
        rows.push(KernelRow {
            name: name.to_string(),
            classic_points: classic.len() as u64,
            joint_points: space.joint_size(),
            pruned_permutations: pruned.permutations,
            pruned_unroll_perm: pruned.unroll_perm,
            pruned_tiles: pruned.tiles,
            pruned_total,
            pruned_fraction: pruned_total as f64 / (universe as f64).max(1.0),
            classic_ms: ms(classic_wall),
            joint_ms: ms(joint_wall),
            joint_pts_per_sec: joint.len() as f64 / joint_wall.as_secs_f64().max(1e-12),
            unroll_only_identical: identical,
            transform_rejections: rejections,
            audit_clean: audit.is_clean(),
            classic_best_cycles: classic_best.estimate.cycles,
            joint_best_cycles: best_cycles,
            joint_gain_x: classic_best.estimate.cycles as f64 / (best_cycles as f64).max(1.0),
            joint_best_unroll: best_point.unroll.clone(),
            joint_best_permutation: best_point.permutation.clone(),
            joint_best_tile: best_point.tile,
            joint_best_narrow: best_point.narrow,
            joint_best_pack: best_point.pack,
            exhaustive_evaluations: joint.len() as u64,
            guided_evaluations: bnb.stats.strategy_visited,
            guided_pruned: bnb.pruned,
            guided_ms: ms(guided_wall),
            guided_identical,
            eval_reduction_x: joint.len() as f64 / (bnb.stats.strategy_visited as f64).max(1.0),
            cd_evaluations: cd.stats.strategy_visited,
            cd_gap_cycles: cd.gap_cycles,
            cd_within_gap,
        });
    }

    // The headline aggregate is over the five paper kernels; the
    // constrained wavefront rides along for the legality axes but is
    // not part of the paper suite.
    let paper = |r: &&KernelRow| r.name != "WF";
    let paper_exhaustive: u64 = rows
        .iter()
        .filter(paper)
        .map(|r| r.exhaustive_evaluations)
        .sum();
    let paper_guided: u64 = rows
        .iter()
        .filter(paper)
        .map(|r| r.guided_evaluations)
        .sum();
    let report = JointReport {
        schema: SCHEMA.to_string(),
        mode: if args.smoke { "smoke" } else { "full" }.to_string(),
        fidelity: Fidelity::Full.label().to_string(),
        workers: args.workers,
        total_joint_points: rows.iter().map(|r| r.joint_points).sum(),
        total_pruned: rows.iter().map(|r| r.pruned_total).sum(),
        total_transform_rejections: rows.iter().map(|r| r.transform_rejections).sum(),
        all_unroll_only_identical: rows.iter().all(|r| r.unroll_only_identical),
        all_audits_clean: rows.iter().all(|r| r.audit_clean),
        all_guided_identical: rows.iter().all(|r| r.guided_identical),
        all_cd_within_gap: rows.iter().all(|r| r.cd_within_gap),
        paper_exhaustive_evaluations: paper_exhaustive,
        paper_guided_evaluations: paper_guided,
        evaluation_reduction_x: paper_exhaustive as f64 / (paper_guided as f64).max(1.0),
        kernels: rows,
    };

    let table_rows: Vec<Vec<String>> = report
        .kernels
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.classic_points.to_string(),
                r.joint_points.to_string(),
                format!(
                    "{}p+{}u+{}t",
                    r.pruned_permutations, r.pruned_unroll_perm, r.pruned_tiles
                ),
                defacto_bench::report::fnum(r.joint_ms, 1),
                defacto_bench::report::fnum(r.joint_pts_per_sec, 0),
                defacto_bench::report::fnum(r.joint_gain_x, 2),
                format!("{}/{}", r.guided_evaluations, r.exhaustive_evaluations),
                defacto_bench::report::fnum(r.eval_reduction_x, 2),
                defacto_bench::report::fnum(r.guided_ms, 1),
                if r.unroll_only_identical && r.guided_identical {
                    "yes"
                } else {
                    "NO"
                }
                .to_string(),
                if r.audit_clean { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        defacto_bench::report::render_table(
            &[
                "kernel",
                "classic",
                "joint",
                "pruned",
                "joint ms",
                "pts/s",
                "gain x",
                "bnb/exh",
                "red. x",
                "bnb ms",
                "identical",
                "audit",
            ],
            &table_rows
        )
    );
    println!(
        "{} joint points enumerated, {} candidates statically pruned, {} transform rejections ({} mode, {} fidelity, {} workers)",
        report.total_joint_points,
        report.total_pruned,
        report.total_transform_rejections,
        report.mode,
        report.fidelity,
        report.workers
    );
    println!(
        "guided branch-and-bound: {} of {} paper-suite tier-1 evaluations ({:.2}x reduction), identical {}",
        report.paper_guided_evaluations,
        report.paper_exhaustive_evaluations,
        report.evaluation_reduction_x,
        report.all_guided_identical
    );

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&args.out, json + "\n").expect("write report");
    println!("wrote {}", args.out);

    // The ≥5× headline only makes sense over the full spaces: smoke
    // mode shrinks the unroll axis until there is little left to prune.
    let mut check_failures = failures;
    if !args.smoke && report.evaluation_reduction_x < REDUCTION_GATE {
        eprintln!(
            "paper-suite evaluation reduction {:.2}x is below the {REDUCTION_GATE}x headline",
            report.evaluation_reduction_x
        );
        check_failures += 1;
    }
    if args.check && check_failures > 0 {
        eprintln!("--check failed: {check_failures} invariant violation(s)");
        std::process::exit(2);
    }
}
