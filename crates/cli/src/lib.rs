//! Implementation of the `defacto` command-line tool.
//!
//! ```text
//! defacto explore <file> [options]   run the balance-guided search
//! defacto lint    <file> [options]   report DF0xx diagnostics for the kernel
//! defacto audit   <file> [options]   trace the search and verify invariants
//! defacto sweep   <file> [options]   evaluate every design in the space
//! defacto analyze <file> [options]   saturation & dependence analysis
//! defacto vhdl    <file> [options]   emit behavioral VHDL
//! defacto schedule <file> [options]  Gantt chart of the steady-state body
//! defacto watch   <file> [options]   re-explore on every file change
//! defacto fuzz [options]             differential fuzz campaign (no file)
//!
//! options:
//!   --memory pipelined|non-pipelined   memory model   (default pipelined)
//!   --memories N                       external memories (default 4)
//!   --device xcv300|xcv1000|xc2v6000   target device  (default xcv1000)
//!   --unroll a,b,...                   fixed unroll vector (vhdl; default: explore)
//!   --axes a,b,... | all               joint-space axes for explore/sweep/analyze:
//!                                      unroll|interchange|tile|narrow|pack
//!                                      (default: classic unroll-only space)
//!   --strategy S                       joint-search strategy for `explore --axes`:
//!                                      exhaustive|coordinate-descent|branch-and-bound
//!                                      (default branch-and-bound — guided)
//!   --threads N                        evaluation worker threads
//!                                      (default: DEFACTO_THREADS or all cores)
//!   --trace FILE                       write the search trace as JSONL
//!   --verify                           re-verify IR invariants after every pass
//!   --fidelity full|analytic           evaluation fidelity (default full)
//!   --cache-dir DIR                    persistent content-addressed estimate
//!                                      cache (default: DEFACTO_CACHE_DIR)
//!   --json                             machine-readable output
//!
//! watch options:
//!   --poll-ms N                        file poll interval (default 200)
//!   --max-runs N                       exit after N explorations (default: forever)
//!
//! fuzz options:
//!   --seed N                           campaign seed     (default 7)
//!   --count M                          kernels to generate (default 300)
//!   --smoke                            faster per-case oracle budget for CI
//! ```
//!
//! Environment: `DEFACTO_THREADS` and `DEFACTO_CACHE_DIR` act as defaults
//! for `--threads` and `--cache-dir`. Malformed values (zero, garbage,
//! blank) are *errors*, not silent fallbacks.
//!
//! `lint` exits non-zero when it reports anything; `explore` runs the
//! linter first and refuses kernels with lint *errors*.
//!
//! The binary is a thin wrapper over [`run`], which is fully testable.

use defacto::cache::PersistentCache;
use defacto::engine::EvalEngine;
use defacto::trace::{termination_label, JsonlSink};
use defacto::{audit_search_trace, prelude::*, to_jsonl, Axis, Fidelity};
use defacto_synth::{describe_schedule, emit_vhdl, main_body_schedule};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Which subcommand to run.
    pub command: Command,
    /// Path of the kernel file.
    pub file: String,
    /// Memory model.
    pub memory: MemoryModel,
    /// Target device.
    pub device: FpgaDevice,
    /// Fixed unroll vector, when given.
    pub unroll: Option<UnrollVector>,
    /// Joint-space axes (`explore`/`sweep`/`analyze`; `None`: the
    /// classic unroll-only space).
    pub axes: Option<Vec<Axis>>,
    /// Joint-search strategy (`explore --axes` only; `None`: the guided
    /// default, [`StrategyKind::BranchAndBound`]).
    pub strategy: Option<StrategyKind>,
    /// Evaluation worker threads (`None`: `DEFACTO_THREADS` or all cores).
    pub threads: Option<usize>,
    /// Write the search trace to this JSONL file.
    pub trace: Option<String>,
    /// Run the IR verifier after every transformation pass.
    pub verify: bool,
    /// Evaluation fidelity (tier-0 analytic / full).
    pub fidelity: Fidelity,
    /// Persistent estimate-cache directory (`None`: `DEFACTO_CACHE_DIR`
    /// or no persistence).
    pub cache_dir: Option<String>,
    /// File poll interval in milliseconds (`watch` only).
    pub poll_ms: u64,
    /// Exit after this many explorations (`watch` only; `None`: forever).
    pub max_runs: Option<u64>,
    /// Snapshot of `DEFACTO_THREADS` taken at parse time (strictly
    /// validated by [`effective_threads`]).
    pub threads_env: Option<String>,
    /// Snapshot of `DEFACTO_CACHE_DIR` taken at parse time (strictly
    /// validated by [`effective_cache_dir`]).
    pub cache_dir_env: Option<String>,
    /// Emit JSON instead of tables.
    pub json: bool,
    /// Campaign seed (`fuzz` only).
    pub seed: u64,
    /// Kernels to generate (`fuzz` only).
    pub count: usize,
    /// Reduced per-case oracle budget for CI smoke runs (`fuzz` only).
    pub smoke: bool,
}

/// The tool's subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Balance-guided search.
    Explore,
    /// Kernel lint: structured `DF0xx` diagnostics.
    Lint,
    /// Trace the search and replay the trace against the paper's
    /// invariants.
    Audit,
    /// Exhaustive sweep.
    Sweep,
    /// Saturation/dependence analysis only.
    Analyze,
    /// Behavioral VHDL emission.
    Vhdl,
    /// ASCII Gantt chart of the steady-state innermost body's schedule.
    Schedule,
    /// Re-explore the kernel on every file change, streaming per-edit
    /// stats (requires a persistent cache directory).
    Watch,
    /// Differential fuzz campaign over generated kernels (takes no file).
    Fuzz,
}

/// Errors surfaced to the user with exit code 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

/// `lint` found something: the rendered diagnostics plus a summary. The
/// binary surfaces this with a non-zero exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFailure {
    /// Number of error-severity diagnostics.
    pub errors: usize,
    /// Number of warning-severity diagnostics.
    pub warnings: usize,
    /// The diagnostics, already rendered (human or JSON per `--json`).
    pub rendered: String,
}

impl std::fmt::Display for LintFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "lint reported {} error(s), {} warning(s)",
            self.errors, self.warnings
        )?;
        write!(f, "{}", self.rendered)
    }
}

impl std::error::Error for LintFailure {}

/// The usage string printed on bad invocations.
pub const USAGE: &str = "usage: defacto <explore|lint|audit|sweep|analyze|vhdl|schedule|watch> \
<file.kernel> [--memory pipelined|non-pipelined] [--memories N] \
[--device xcv300|xcv1000|xc2v6000] [--unroll a,b,...] [--axes a,b,...|all] \
[--strategy exhaustive|coordinate-descent|branch-and-bound] [--threads N] \
[--trace FILE] [--verify] [--fidelity full|analytic] [--cache-dir DIR] [--json]\n\
       defacto watch <file.kernel> [--cache-dir DIR] [--poll-ms N] [--max-runs N] [--json]\n\
       defacto fuzz [--seed N] [--count M] [--smoke] [--json]";

/// Parse command-line arguments (without the program name).
///
/// # Errors
///
/// Returns [`UsageError`] for unknown commands, flags or malformed
/// values.
pub fn parse_args(args: &[String]) -> Result<Cli, UsageError> {
    let mut it = args.iter();
    let command = match it.next().map(String::as_str) {
        Some("explore") => Command::Explore,
        Some("lint") => Command::Lint,
        Some("audit") => Command::Audit,
        Some("sweep") => Command::Sweep,
        Some("analyze") => Command::Analyze,
        Some("vhdl") => Command::Vhdl,
        Some("schedule") => Command::Schedule,
        Some("watch") => Command::Watch,
        Some("fuzz") => Command::Fuzz,
        Some(other) => return Err(UsageError(format!("unknown command `{other}`\n{USAGE}"))),
        None => return Err(UsageError(USAGE.to_string())),
    };
    // `fuzz` generates its own kernels; every other command reads one.
    let file = if command == Command::Fuzz {
        String::new()
    } else {
        it.next()
            .ok_or_else(|| UsageError(format!("missing kernel file\n{USAGE}")))?
            .clone()
    };

    let mut memories = 4usize;
    let mut pipelined = true;
    let mut device = FpgaDevice::virtex1000();
    let mut unroll = None;
    let mut axes = None;
    let mut strategy = None;
    let mut threads = None;
    let mut trace = None;
    let mut verify = false;
    let mut fidelity = Fidelity::Full;
    let mut cache_dir = None;
    let mut poll_ms = 200u64;
    let mut max_runs = None;
    let mut json = false;
    let mut seed = 7u64;
    let mut count = 300usize;
    let mut smoke = false;

    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--memory" => match it.next().map(String::as_str) {
                Some("pipelined") => pipelined = true,
                Some("non-pipelined") => pipelined = false,
                other => {
                    return Err(UsageError(format!(
                        "--memory expects pipelined|non-pipelined, got {other:?}"
                    )))
                }
            },
            "--memories" => {
                let v = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| UsageError("--memories expects a positive integer".into()))?;
                memories = v;
            }
            "--device" => {
                device = match it.next().map(String::as_str) {
                    Some("xcv300") => FpgaDevice::virtex300(),
                    Some("xcv1000") => FpgaDevice::virtex1000(),
                    Some("xc2v6000") => FpgaDevice::virtex2_6000(),
                    other => {
                        return Err(UsageError(format!(
                            "--device expects xcv300|xcv1000|xc2v6000, got {other:?}"
                        )))
                    }
                };
            }
            "--unroll" => {
                let text = it
                    .next()
                    .ok_or_else(|| UsageError("--unroll expects a,b,...".into()))?;
                let factors: Result<Vec<i64>, _> =
                    text.split(',').map(|t| t.trim().parse::<i64>()).collect();
                let factors =
                    factors.map_err(|_| UsageError(format!("bad unroll vector `{text}`")))?;
                if factors.iter().any(|&f| f < 1) {
                    return Err(UsageError(format!("bad unroll vector `{text}`")));
                }
                unroll = Some(UnrollVector(factors));
            }
            "--axes"
                if matches!(
                    command,
                    Command::Explore | Command::Sweep | Command::Analyze
                ) =>
            {
                let text = it.next().ok_or_else(|| {
                    UsageError(
                        "--axes expects a comma-separated list of \
                         unroll|interchange|tile|narrow|pack, or `all`"
                            .into(),
                    )
                })?;
                axes = Some(parse_axes(text)?);
            }
            "--strategy" if command == Command::Explore => {
                // Strictly validated, like --threads/--cache-dir: a
                // missing, blank or unknown value is a typed error,
                // never a silent fall-back to the guided default.
                let text = it.next().filter(|s| !s.trim().is_empty()).ok_or_else(|| {
                    UsageError(
                        "--strategy expects exhaustive|coordinate-descent|branch-and-bound".into(),
                    )
                })?;
                strategy = Some(text.trim().parse::<StrategyKind>().map_err(UsageError)?);
            }
            "--threads" => {
                let v = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| UsageError("--threads expects a positive integer".into()))?;
                threads = Some(v);
            }
            "--trace" => {
                let path = it
                    .next()
                    .ok_or_else(|| UsageError("--trace expects a file path".into()))?;
                trace = Some(path.clone());
            }
            "--verify" => verify = true,
            "--fidelity" => {
                let v = it
                    .next()
                    .ok_or_else(|| UsageError("--fidelity expects full|analytic".into()))?;
                fidelity = v.parse::<Fidelity>().map_err(UsageError)?;
            }
            "--cache-dir" => {
                let dir = it
                    .next()
                    .filter(|s| !s.trim().is_empty())
                    .ok_or_else(|| UsageError("--cache-dir expects a directory path".into()))?;
                cache_dir = Some(dir.clone());
            }
            "--poll-ms" if command == Command::Watch => {
                poll_ms = it
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| UsageError("--poll-ms expects a positive integer".into()))?;
            }
            "--max-runs" if command == Command::Watch => {
                let v = it
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| UsageError("--max-runs expects a positive integer".into()))?;
                max_runs = Some(v);
            }
            "--json" => json = true,
            "--seed" if command == Command::Fuzz => {
                seed = it
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| UsageError("--seed expects an unsigned integer".into()))?;
            }
            "--count" if command == Command::Fuzz => {
                count = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| UsageError("--count expects a positive integer".into()))?;
            }
            "--smoke" if command == Command::Fuzz => smoke = true,
            other => return Err(UsageError(format!("unknown flag `{other}`\n{USAGE}"))),
        }
    }

    if strategy.is_some() && axes.is_none() {
        return Err(UsageError(
            "--strategy requires --axes (a joint space to search)".into(),
        ));
    }
    let memory = if pipelined {
        MemoryModel::pipelined(memories)
    } else {
        MemoryModel::non_pipelined(memories)
    };
    Ok(Cli {
        command,
        file,
        memory,
        device,
        unroll,
        axes,
        strategy,
        threads,
        trace,
        verify,
        fidelity,
        cache_dir,
        poll_ms,
        max_runs,
        threads_env: std::env::var("DEFACTO_THREADS").ok(),
        cache_dir_env: std::env::var("DEFACTO_CACHE_DIR").ok(),
        json,
        seed,
        count,
        smoke,
    })
}

/// Parse a `--axes` value: a comma-separated subset of
/// `unroll|interchange|tile|narrow|pack` (no duplicates), or the
/// shorthand `all`. Strictly validated — garbage, an unknown axis, or
/// an empty list is a typed [`UsageError`], never a panic or a silent
/// default.
fn parse_axes(text: &str) -> Result<Vec<Axis>, UsageError> {
    if text.trim() == "all" {
        return Ok(Axis::ALL.to_vec());
    }
    if text.trim().is_empty() {
        return Err(UsageError(
            "--axes expects a comma-separated list of \
             unroll|interchange|tile|narrow|pack, or `all`"
                .into(),
        ));
    }
    let mut axes = Vec::new();
    for part in text.split(',') {
        let axis = part.trim().parse::<Axis>().map_err(UsageError)?;
        if axes.contains(&axis) {
            return Err(UsageError(format!("duplicate axis `{axis}` in --axes")));
        }
        axes.push(axis);
    }
    Ok(axes)
}

/// The worker-thread request in effect: the `--threads` flag, else a
/// *strictly validated* `DEFACTO_THREADS` environment variable. Unlike
/// the library's lenient resolution (which treats garbage as absent),
/// the CLI rejects malformed values — a typo must not silently change
/// the worker count.
///
/// # Errors
///
/// [`UsageError`] when `DEFACTO_THREADS` is set but not a positive
/// integer.
pub fn effective_threads(cli: &Cli) -> Result<Option<usize>, UsageError> {
    if cli.threads.is_some() {
        return Ok(cli.threads);
    }
    match &cli.threads_env {
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(UsageError(format!(
                "DEFACTO_THREADS must be a positive integer, got `{raw}`"
            ))),
        },
        None => Ok(None),
    }
}

/// The persistent-cache directory in effect: the `--cache-dir` flag,
/// else the `DEFACTO_CACHE_DIR` environment variable. Blank values are
/// rejected, not treated as "no cache".
///
/// # Errors
///
/// [`UsageError`] when `DEFACTO_CACHE_DIR` is set but blank.
pub fn effective_cache_dir(cli: &Cli) -> Result<Option<PathBuf>, UsageError> {
    if let Some(dir) = &cli.cache_dir {
        return Ok(Some(PathBuf::from(dir)));
    }
    match &cli.cache_dir_env {
        Some(raw) if raw.trim().is_empty() => Err(UsageError(
            "DEFACTO_CACHE_DIR must name a directory, got a blank value".into(),
        )),
        Some(raw) => Ok(Some(PathBuf::from(raw))),
        None => Ok(None),
    }
}

/// Open the persistent cache for `cli`, if one is configured.
///
/// # Errors
///
/// [`UsageError`] for malformed configuration, or the I/O error when the
/// directory cannot be created.
fn open_store(cli: &Cli) -> Result<Option<Arc<PersistentCache>>, Box<dyn std::error::Error>> {
    match effective_cache_dir(cli)? {
        None => Ok(None),
        Some(dir) => Ok(Some(Arc::new(PersistentCache::open(&dir).map_err(
            |e| UsageError(format!("cannot open cache dir `{}`: {e}", dir.display())),
        )?))),
    }
}

/// Run a parsed command against kernel source text, producing the output
/// string (the binary prints it).
///
/// # Errors
///
/// Propagates parse/exploration failures as boxed errors.
pub fn run(cli: &Cli, source: &str) -> Result<String, Box<dyn std::error::Error>> {
    if cli.command == Command::Lint {
        return run_lint(cli, source);
    }
    if cli.command == Command::Fuzz {
        return run_fuzz(cli);
    }
    if cli.command == Command::Watch {
        let mut streamed = Vec::new();
        run_watch(cli, &mut streamed)?;
        return Ok(String::from_utf8_lossy(&streamed).into_owned());
    }
    let threads = effective_threads(cli)?;
    let store = open_store(cli)?;
    let kernel = parse_kernel(source)?;
    let mut explorer = Explorer::new(&kernel)
        .memory(cli.memory.clone())
        .device(cli.device.clone())
        .verify_each_pass(cli.verify)
        .fidelity(cli.fidelity);
    if let Some(n) = threads {
        explorer = explorer.threads(n);
    }
    if let Some(store) = &store {
        explorer = explorer.persistent(store.clone());
    }
    if let Some(axes) = &cli.axes {
        explorer = explorer.axes(axes);
    }
    let mut out = String::new();

    match cli.command {
        Command::Lint | Command::Fuzz | Command::Watch => unreachable!("handled above"),
        Command::Explore if cli.axes.is_some() => {
            // Joint exploration: the same lint gate as the classic
            // search, then the selected strategy over the joint space —
            // guided (branch-and-bound) unless --strategy says otherwise.
            let lint = full_lint(&explorer, source);
            if lint.has_errors() {
                return Err(Box::new(LintFailure {
                    errors: lint.error_count(),
                    warnings: lint.warning_count(),
                    rendered: defacto::ir::diag::render_all_human(&lint.diagnostics, Some(source)),
                }));
            }
            let jsonl = match &cli.trace {
                Some(path) => {
                    let sink = Arc::new(JsonlSink::create(path)?);
                    explorer = explorer.trace(sink.clone());
                    Some(sink)
                }
                None => None,
            };
            let kind = cli.strategy.unwrap_or_default();
            let r = explorer.joint_explore(kind)?;
            if let Some(sink) = jsonl {
                sink.flush()?;
            }
            if cli.json {
                let selected = r.selected.as_ref().map(|d| {
                    serde_json::json!({
                        "unroll": d.point.unroll,
                        "permutation": d.point.permutation,
                        "tile": d.point.tile,
                        "narrow": d.point.narrow,
                        "pack": d.point.pack,
                        "cycles": d.estimate.cycles,
                        "slices": d.estimate.slices,
                        "fits": d.estimate.fits,
                    })
                });
                out.push_str(&serde_json::to_string_pretty(&serde_json::json!({
                    "kernel": kernel.name(),
                    "strategy": r.strategy.label(),
                    "selected": selected,
                    "visited": r.stats.strategy_visited,
                    "pruned": r.pruned,
                    "space_points": r.space_points,
                    "gap_cycles": r.gap_cycles,
                    "fidelity": cli.fidelity.label(),
                    "stats": serde_json::json!({
                        "evaluated": r.stats.evaluated,
                        "cache_hits": r.stats.cache_hits,
                        "workers": r.stats.workers,
                        "wall_ms": r.stats.wall.as_secs_f64() * 1e3,
                    }),
                }))?);
            } else {
                writeln!(out, "kernel `{}` on {}", kernel.name(), cli.device)?;
                match r.selected.as_ref() {
                    Some(d) => {
                        let perm: Vec<String> =
                            d.point.permutation.iter().map(usize::to_string).collect();
                        writeln!(
                            out,
                            "strategy {} selected unroll {} perm [{}] tile {} narrow {} \
                             pack {} -> {} cycles, {} slices",
                            r.strategy,
                            d.point.unroll_vector(),
                            perm.join(","),
                            d.point
                                .tile
                                .map_or_else(|| "-".into(), |(l, t)| format!("L{l}x{t}")),
                            d.point.narrow,
                            d.point.pack,
                            d.estimate.cycles,
                            d.estimate.slices
                        )?;
                    }
                    None => {
                        writeln!(out, "strategy {}: no evaluated design fits", r.strategy)?;
                    }
                }
                writeln!(
                    out,
                    "visited {} of {} joint points ({} pruned by tier-0 bounds){}",
                    r.stats.strategy_visited,
                    r.space_points,
                    r.pruned,
                    match r.gap_cycles {
                        Some(g) => format!(", optimality gap <= {g} cycles"),
                        None => String::new(),
                    }
                )?;
            }
        }
        Command::Explore => {
            // Gate the search on the linter: a kernel with lint errors
            // would fail (or mislead) mid-search anyway; report the
            // diagnostics up front instead. Warnings do not block.
            let lint = full_lint(&explorer, source);
            if lint.has_errors() {
                return Err(Box::new(LintFailure {
                    errors: lint.error_count(),
                    warnings: lint.warning_count(),
                    rendered: defacto::ir::diag::render_all_human(&lint.diagnostics, Some(source)),
                }));
            }
            let jsonl = match &cli.trace {
                Some(path) => {
                    let sink = Arc::new(JsonlSink::create(path)?);
                    explorer = explorer.trace(sink.clone());
                    Some(sink)
                }
                None => None,
            };
            let r = explorer.explore()?;
            if let Some(sink) = jsonl {
                sink.flush()?;
            }
            if cli.json {
                out.push_str(&serde_json::to_string_pretty(&serde_json::json!({
                    "kernel": kernel.name(),
                    "selected": r.selected,
                    "visited": r.visited.len(),
                    "space_size": r.space_size,
                    "termination": termination_label(r.termination),
                    "verified_each_pass": cli.verify,
                    "fidelity": cli.fidelity.label(),
                    "stats": serde_json::json!({
                        "evaluated": r.stats.evaluated,
                        "cache_hits": r.stats.cache_hits,
                        "persist_hits": r.stats.persist_hits,
                        "persist_misses": r.stats.persist_misses,
                        "persist_hit_rate": r.stats.persist_hit_rate(),
                        "persist_flush_failed": r.stats.persist_flush_failed,
                        "tier0_evaluated": r.stats.tier0_evaluated,
                        "workers": r.stats.workers,
                        "wall_ms": r.stats.wall.as_secs_f64() * 1e3,
                    }),
                }))?);
            } else {
                writeln!(out, "kernel `{}` on {}", kernel.name(), cli.device)?;
                writeln!(
                    out,
                    "selected unroll {} -> {} cycles ({:.1} us), {} slices, balance {:.3}",
                    r.selected.unroll,
                    r.selected.estimate.cycles,
                    r.selected.estimate.exec_time_us(),
                    r.selected.estimate.slices,
                    r.selected.estimate.balance
                )?;
                writeln!(
                    out,
                    "visited {} of {} designs ({:?})",
                    r.visited.len(),
                    r.space_size,
                    r.termination
                )?;
                writeln!(
                    out,
                    "evaluated {} points ({} cache hits) on {} worker{} in {:.1} ms",
                    r.stats.evaluated,
                    r.stats.cache_hits,
                    r.stats.workers,
                    if r.stats.workers == 1 { "" } else { "s" },
                    r.stats.wall.as_secs_f64() * 1e3
                )?;
                if cli.fidelity != Fidelity::Full {
                    writeln!(
                        out,
                        "tier 0 ({}): {} banded",
                        cli.fidelity, r.stats.tier0_evaluated
                    )?;
                }
                if let Some(store) = &store {
                    writeln!(
                        out,
                        "persistent cache: {} hits, {} misses (rate {:.2}) at {}",
                        r.stats.persist_hits,
                        r.stats.persist_misses,
                        r.stats.persist_hit_rate(),
                        store.path().display()
                    )?;
                }
                if cli.verify {
                    // Reaching here means no evaluation raised
                    // `XformError::Verify`: every pass of every visited
                    // design produced structurally sound IR.
                    writeln!(
                        out,
                        "verifier: clean after every pass of every visited design"
                    )?;
                }
            }
        }
        Command::Audit => {
            let sink = Arc::new(MemorySink::new());
            explorer = explorer.trace(sink.clone());
            let r = explorer.explore()?;
            let (sat, space) = explorer.analyze()?;
            let events = sink.events();
            let report = audit_search_trace(&events, &space, &sat);
            if let Some(path) = &cli.trace {
                std::fs::write(path, to_jsonl(&events))?;
            }
            if cli.json {
                out.push_str(&serde_json::to_string_pretty(&serde_json::json!({
                    "kernel": kernel.name(),
                    "events": report.events,
                    "checks": report.checks,
                    "violations": report
                        .violations
                        .iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>(),
                    "termination": termination_label(r.termination),
                    "selected": r.selected.unroll,
                }))?);
            } else {
                writeln!(
                    out,
                    "kernel `{}`: {} trace events, {} checks, {} invariant violations \
                     (terminated {:?}, selected {})",
                    kernel.name(),
                    report.events,
                    report.checks,
                    report.violations.len(),
                    r.termination,
                    r.selected.unroll
                )?;
                for v in &report.violations {
                    writeln!(out, "  {v}")?;
                }
            }
            if !report.is_clean() {
                return Err(Box::new(UsageError(format!(
                    "audit found {} invariant violation(s):\n{out}",
                    report.violations.len()
                ))));
            }
        }
        Command::Sweep if cli.axes.is_some() => {
            let space = explorer.joint_space()?;
            let sweep = explorer.joint_sweep()?;
            let pruned = space.pruned_counts().unwrap_or_default();
            let axes_label: Vec<&str> = space
                .axes()
                .unwrap_or_default()
                .iter()
                .map(|a| a.label())
                .collect();
            if cli.json {
                let rows: Vec<serde_json::Value> = sweep
                    .iter()
                    .map(|d| {
                        serde_json::json!({
                            "unroll": d.point.unroll,
                            "permutation": d.point.permutation,
                            "tile": d.point.tile,
                            "narrow": d.point.narrow,
                            "pack": d.point.pack,
                            "balance": d.estimate.balance,
                            "cycles": d.estimate.cycles,
                            "slices": d.estimate.slices,
                            "fits": d.estimate.fits,
                        })
                    })
                    .collect();
                let pruned_doc = serde_json::json!({
                    "permutations": pruned.permutations,
                    "unroll_perm": pruned.unroll_perm,
                    "tiles": pruned.tiles,
                });
                out.push_str(&serde_json::to_string_pretty(&serde_json::json!({
                    "axes": axes_label,
                    "points": rows,
                    "pruned_by_legality": pruned_doc,
                }))?);
            } else {
                writeln!(
                    out,
                    "{:>12} {:>9} {:>9} {:>6} {:>5} {:>9} {:>9} {:>8} {:>5}",
                    "unroll",
                    "perm",
                    "tile",
                    "narrow",
                    "pack",
                    "balance",
                    "cycles",
                    "slices",
                    "fits"
                )?;
                for d in &sweep {
                    let perm: Vec<String> =
                        d.point.permutation.iter().map(usize::to_string).collect();
                    writeln!(
                        out,
                        "{:>12} {:>9} {:>9} {:>6} {:>5} {:>9.3} {:>9} {:>8} {:>5}",
                        d.point.unroll_vector().to_string(),
                        format!("[{}]", perm.join(",")),
                        d.point
                            .tile
                            .map_or_else(|| "-".into(), |(l, t)| format!("L{l}x{t}")),
                        d.point.narrow,
                        d.point.pack,
                        d.estimate.balance,
                        d.estimate.cycles,
                        d.estimate.slices,
                        if d.estimate.fits { "yes" } else { "NO" }
                    )?;
                }
                writeln!(
                    out,
                    "joint space over [{}]: {} statically-legal points; pruned by legality: \
                     {} permutations, {} unroll x perm combos, {} tiles",
                    axes_label.join(","),
                    space.joint_size(),
                    pruned.permutations,
                    pruned.unroll_perm,
                    pruned.tiles
                )?;
            }
        }
        Command::Sweep => {
            let sweep = explorer.sweep()?;
            if cli.json {
                out.push_str(&serde_json::to_string_pretty(&sweep)?);
            } else {
                writeln!(
                    out,
                    "{:>12} {:>9} {:>9} {:>8} {:>5}",
                    "unroll", "balance", "cycles", "slices", "fits"
                )?;
                for d in &sweep {
                    writeln!(
                        out,
                        "{:>12} {:>9.3} {:>9} {:>8} {:>5}",
                        d.unroll.to_string(),
                        d.estimate.balance,
                        d.estimate.cycles,
                        d.estimate.slices,
                        if d.estimate.fits { "yes" } else { "NO" }
                    )?;
                }
            }
        }
        Command::Analyze => {
            let (sat, space) = explorer.analyze()?;
            let joint = cli
                .axes
                .as_ref()
                .map(|_| explorer.joint_space())
                .transpose()?;
            if cli.json {
                let mut doc = serde_json::json!({
                    "kernel": kernel.name(),
                    "read_sets": sat.read_sets,
                    "write_sets": sat.write_sets,
                    "psat": sat.psat,
                    "unrollable": sat.unrollable,
                    "u_init": sat.u_init,
                    "space_size": space.size(),
                });
                if let Some(j) = &joint {
                    let pruned = j.pruned_counts().unwrap_or_default();
                    let pruned_doc = serde_json::json!({
                        "permutations": pruned.permutations,
                        "unroll_perm": pruned.unroll_perm,
                        "tiles": pruned.tiles,
                    });
                    let joint_doc = serde_json::json!({
                        "axes": j.axes().unwrap_or_default().iter()
                            .map(|a| a.label()).collect::<Vec<_>>(),
                        "points": j.joint_size(),
                        "pruned_by_legality": pruned_doc,
                    });
                    if let serde_json::Value::Object(entries) = &mut doc {
                        entries.push(("joint".to_string(), joint_doc));
                    }
                }
                out.push_str(&serde_json::to_string_pretty(&doc)?);
            } else {
                writeln!(out, "kernel `{}`", kernel.name())?;
                writeln!(
                    out,
                    "steady uniformly generated sets: R={} W={}",
                    sat.read_sets, sat.write_sets
                )?;
                writeln!(out, "saturation product Psat = {}", sat.psat)?;
                writeln!(out, "explored loops: {:?}", sat.unrollable)?;
                writeln!(out, "initial point U_init = {}", sat.u_init)?;
                writeln!(out, "design space: {} candidates", space.size())?;
                if let Some(j) = &joint {
                    let pruned = j.pruned_counts().unwrap_or_default();
                    let labels: Vec<&str> = j
                        .axes()
                        .unwrap_or_default()
                        .iter()
                        .map(|a| a.label())
                        .collect();
                    writeln!(
                        out,
                        "joint space over [{}]: {} statically-legal points; pruned by \
                         legality: {} permutations, {} unroll x perm combos, {} tiles",
                        labels.join(","),
                        j.joint_size(),
                        pruned.permutations,
                        pruned.unroll_perm,
                        pruned.tiles
                    )?;
                }
            }
        }
        Command::Vhdl => {
            let unroll = match &cli.unroll {
                Some(u) => u.clone(),
                None => explorer.explore()?.selected.unroll,
            };
            let design = explorer.design(&unroll)?;
            out.push_str(&emit_vhdl(&design));
        }
        Command::Schedule => {
            let unroll = match &cli.unroll {
                Some(u) => u.clone(),
                None => explorer.explore()?.selected.unroll,
            };
            let design = explorer.design(&unroll)?;
            let (dfg, sched) = main_body_schedule(&design, &cli.memory);
            writeln!(
                out,
                "steady-state innermost body of `{}` at unroll {} ({}):",
                kernel.name(),
                unroll,
                cli.memory
            )?;
            out.push_str(&describe_schedule(&dfg, &sched));
        }
    }
    if let Some(store) = &store {
        store
            .flush()
            .map_err(|e| UsageError(format!("cannot write cache: {e}")))?;
    }
    Ok(out)
}

/// The `watch` subcommand: poll `cli.file` every `--poll-ms`, feed each
/// read to a [`WatchLoop`], and stream the line it reports for every new
/// revision to `out`. Exits after `--max-runs` explorations (runs
/// forever without it).
///
/// # Errors
///
/// Propagates configuration and exploration failures; requires a cache
/// directory (`--cache-dir` or `DEFACTO_CACHE_DIR`).
pub fn run_watch(
    cli: &Cli,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut watch = WatchLoop::new(cli)?;
    let mut read_once = false;
    loop {
        let line = match std::fs::read_to_string(&cli.file) {
            Ok(text) => {
                read_once = true;
                watch.step(&text)?.map(|r| r.line)
            }
            // Transient: editors replace files non-atomically.
            Err(e) if read_once => Some(format!("watch: cannot read `{}`: {e}", cli.file)),
            Err(e) => {
                return Err(Box::new(UsageError(format!(
                    "cannot read `{}`: {e}",
                    cli.file
                ))))
            }
        };
        if let Some(line) = line {
            writeln!(out, "{line}")?;
            out.flush()?;
        }
        if cli.max_runs.is_some_and(|max| watch.runs() >= max) {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(cli.poll_ms));
    }
}

/// What `watch` reports for one new revision of the watched file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevisionReport {
    /// 1-based count of distinct texts seen so far.
    pub revision: u64,
    /// The rendered report line: JSON under `--json`, else human text.
    pub line: String,
}

/// The pure half of `watch`: an [`IncrementalSession`] fed one file text
/// at a time. A text equal to the previous one is no revision; a text
/// that fails to parse (a save mid-edit) is reported and skipped, and the
/// session keeps its warm state.
pub struct WatchLoop {
    session: IncrementalSession,
    json: bool,
    last: Option<String>,
    revision: u64,
    runs: u64,
}

impl WatchLoop {
    /// A loop over a session configured from `cli`.
    ///
    /// # Errors
    ///
    /// Malformed thread or cache-directory settings, an unopenable store,
    /// or no cache directory at all.
    pub fn new(cli: &Cli) -> Result<WatchLoop, Box<dyn std::error::Error>> {
        let threads = effective_threads(cli)?;
        let store = open_store(cli)?.ok_or_else(|| {
            UsageError("watch requires a cache directory (--cache-dir or DEFACTO_CACHE_DIR)".into())
        })?;
        let mut session = IncrementalSession::new(store)
            .memory(cli.memory.clone())
            .device(cli.device.clone())
            .fidelity(cli.fidelity);
        if let Some(n) = threads {
            session = session.engine(Arc::new(EvalEngine::new(n)));
        }
        Ok(WatchLoop {
            session,
            json: cli.json,
            last: None,
            revision: 0,
            runs: 0,
        })
    }

    /// Explorations run so far.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Consume one read of the file: `None` when the text has not
    /// changed, else the report of the new revision.
    ///
    /// # Errors
    ///
    /// Propagates exploration failures.
    pub fn step(
        &mut self,
        text: &str,
    ) -> Result<Option<RevisionReport>, Box<dyn std::error::Error>> {
        if self.last.as_deref() == Some(text) {
            return Ok(None);
        }
        self.last = Some(text.to_string());
        self.revision += 1;
        let revision = self.revision;
        let kernel = match parse_kernel(text) {
            Ok(kernel) => kernel,
            Err(e) => {
                return Ok(Some(RevisionReport {
                    revision,
                    line: format!("rev {revision}: parse error: {e}"),
                }))
            }
        };
        let o = self.session.explore(&kernel)?;
        self.runs += 1;
        let r = &o.result;
        let line = if self.json {
            serde_json::to_string(&serde_json::json!({
                "revision": revision,
                "kernel": kernel.name(),
                "selected": r.selected.unroll.factors(),
                "cycles": r.selected.estimate.cycles,
                "slices": r.selected.estimate.slices,
                "termination": termination_label(r.termination),
                "warm": o.warm,
                "reused_analyses": o.reused_analyses,
                "changed": o.changed,
                "preloaded": o.preloaded,
                "evaluated": r.stats.evaluated,
                "cache_hits": r.stats.cache_hits,
                "persist_hits": r.stats.persist_hits,
                "persist_misses": r.stats.persist_misses,
                "persist_hit_rate": r.stats.persist_hit_rate(),
                "wall_ms": o.wall.as_secs_f64() * 1e3,
            }))?
        } else {
            format!(
                "rev {revision} ({}): selected {} -> {} cycles, {} slices; \
                 evaluated {}, persist {}/{}, {:.1} ms{}",
                if o.warm { "warm" } else { "cold" },
                r.selected.unroll,
                r.selected.estimate.cycles,
                r.selected.estimate.slices,
                r.stats.evaluated,
                r.stats.persist_hits,
                r.stats.persist_hits + r.stats.persist_misses,
                o.wall.as_secs_f64() * 1e3,
                if o.changed.is_empty() {
                    String::new()
                } else {
                    format!("; changed: {}", o.changed.join(","))
                }
            )
        };
        Ok(Some(RevisionReport { revision, line }))
    }
}

/// Front-end lint over the source text plus the platform capacity rule.
///
/// The `DF009` check only runs on kernels that are otherwise error-free:
/// a kernel that does not parse has no saturation point to test.
fn full_lint(explorer: &Explorer<'_>, source: &str) -> LintReport {
    let mut report = lint_source(source);
    if !report.has_errors() {
        for d in explorer.capacity_diagnostics() {
            report.push(d);
        }
    }
    report
}

/// The `lint` subcommand: render every diagnostic; any finding at all
/// (errors *or* warnings) is a non-zero exit, so CI can gate on a clean
/// corpus.
fn run_lint(cli: &Cli, source: &str) -> Result<String, Box<dyn std::error::Error>> {
    let mut report = lint_source(source);
    let parsed = if report.has_errors() {
        None
    } else {
        parse_kernel(source).ok()
    };
    if let Some(kernel) = &parsed {
        let mut explorer = Explorer::new(kernel)
            .memory(cli.memory.clone())
            .device(cli.device.clone());
        if let Some(n) = cli.threads {
            explorer = explorer.threads(n);
        }
        for d in explorer.capacity_diagnostics() {
            report.push(d);
        }
    }
    let rendered = if cli.json {
        defacto::ir::diag::render_all_json(&report.diagnostics)
    } else {
        defacto::ir::diag::render_all_human(&report.diagnostics, Some(source))
    };
    if report.diagnostics.is_empty() {
        return Ok(if cli.json {
            rendered
        } else {
            let name = parsed
                .as_ref()
                .map_or_else(|| cli.file.clone(), |k| format!("`{}`", k.name()));
            format!("{name}: no diagnostics\n")
        });
    }
    Err(Box::new(LintFailure {
        errors: report.error_count(),
        warnings: report.warning_count(),
        rendered,
    }))
}

/// The `fuzz` subcommand: a seeded differential campaign. Any oracle
/// violation is a non-zero exit carrying the minimized reproducers, so CI
/// can gate on a clean run.
fn run_fuzz(cli: &Cli) -> Result<String, Box<dyn std::error::Error>> {
    let config = defacto_fuzz::CampaignConfig {
        seed: cli.seed,
        count: cli.count,
        // Smoke runs trade per-point coverage for wall clock: the CI
        // budget still crosses every oracle dimension on every case.
        max_points: if cli.smoke { 2 } else { 3 },
        ..defacto_fuzz::CampaignConfig::default()
    };
    let report = defacto_fuzz::run_campaign(&config);
    let rejected = serde_json::Value::Object(
        report
            .rejected
            .iter()
            .map(|(stage, n)| (stage.clone(), serde_json::json!(*n)))
            .collect(),
    );
    let rendered = if cli.json {
        serde_json::to_string_pretty(&serde_json::json!({
            "seed": cli.seed,
            "generated": report.generated,
            "runs": report.runs,
            "passed": report.passed,
            "checks": report.checks,
            "rejected": rejected,
            "violations": report
                .bugs
                .iter()
                .map(|b| serde_json::json!({
                    "index": b.index,
                    "profile": b.profile,
                    "oracle": b.oracle.label(),
                    "stage": b.stage,
                    "detail": b.detail,
                    "minimized": b.minimized,
                }))
                .collect::<Vec<_>>(),
        }))?
    } else {
        report.render()
    };
    if report.is_clean() {
        Ok(rendered)
    } else {
        Err(Box::new(UsageError(format!(
            "fuzz campaign found {} oracle violation(s):\n{rendered}",
            report.bugs.len()
        ))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIR: &str = "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
       for j in 0..64 { for i in 0..32 {
         D[j] = D[j] + S[i + j] * C[i]; } } }";

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_full_command_line() {
        let cli = parse_args(&argv(
            "explore fir.kernel --memory non-pipelined --memories 2 --device xcv300 \
             --fidelity analytic --json",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Explore);
        assert_eq!(cli.file, "fir.kernel");
        assert!(!cli.memory.pipelined);
        assert_eq!(cli.memory.num_memories, 2);
        assert_eq!(cli.device.name, "XCV300");
        assert_eq!(cli.fidelity, Fidelity::Analytic);
        assert!(cli.json);
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(parse_args(&argv("")).is_err());
        assert!(parse_args(&argv("frobnicate x")).is_err());
        assert!(parse_args(&argv("explore")).is_err());
        assert!(parse_args(&argv("explore f --memory sideways")).is_err());
        assert!(parse_args(&argv("explore f --memories 0")).is_err());
        assert!(parse_args(&argv("explore f --unroll 2,x")).is_err());
        assert!(parse_args(&argv("explore f --unroll 0,1")).is_err());
        assert!(parse_args(&argv("explore f --threads 0")).is_err());
        assert!(parse_args(&argv("explore f --threads two")).is_err());
        assert!(parse_args(&argv("explore f --trace")).is_err());
        assert!(parse_args(&argv("explore f --fidelity sideways")).is_err());
        let multi = parse_args(&argv("explore f --fidelity multi")).unwrap_err();
        assert!(
            multi.to_string().contains("expected full|analytic"),
            "{multi}"
        );
        assert!(parse_args(&argv("explore f --fidelity")).is_err());
        assert!(parse_args(&argv("explore f --what")).is_err());
    }

    #[test]
    fn axes_flag_parses_valid_lists() {
        let cli = parse_args(&argv("sweep fir.kernel --axes unroll,tile")).unwrap();
        assert_eq!(cli.axes, Some(vec![Axis::Unroll, Axis::Tile]));
        let cli = parse_args(&argv("analyze fir.kernel --axes all")).unwrap();
        assert_eq!(cli.axes.as_deref(), Some(&Axis::ALL[..]));
        // Whitespace around commas is tolerated; order is caller's choice.
        let cli = parse_args(&[
            "sweep".into(),
            "f".into(),
            "--axes".into(),
            "pack, narrow".into(),
        ])
        .unwrap();
        assert_eq!(cli.axes, Some(vec![Axis::Pack, Axis::Narrow]));
    }

    #[test]
    fn axes_flag_rejects_garbage_with_typed_error() {
        // Every rejection is a typed UsageError, never a panic.
        let err = parse_args(&argv("sweep f --axes lol")).unwrap_err();
        assert!(err.0.contains("unknown axis `lol`"), "{}", err.0);
        let err = parse_args(&argv("sweep f --axes unroll,unroll")).unwrap_err();
        assert!(err.0.contains("duplicate axis `unroll`"), "{}", err.0);
        let err = parse_args(&argv("sweep f --axes")).unwrap_err();
        assert!(err.0.contains("--axes expects"), "{}", err.0);
        let err =
            parse_args(&["sweep".into(), "f".into(), "--axes".into(), String::new()]).unwrap_err();
        assert!(err.0.contains("--axes expects"), "{}", err.0);
        let err = parse_args(&[
            "sweep".into(),
            "f".into(),
            "--axes".into(),
            "unroll,,tile".into(),
        ])
        .unwrap_err();
        assert!(err.0.contains("unknown axis"), "{}", err.0);
        // --axes only applies to explore/sweep/analyze; elsewhere it is
        // an unknown flag, reported as such.
        assert!(parse_args(&argv("vhdl f --axes unroll")).is_err());
        assert!(parse_args(&argv("lint f --axes all")).is_err());
    }

    #[test]
    fn strategy_flag_parses_every_kind() {
        // Default: no flag means the guided branch-and-bound strategy.
        let cli = parse_args(&argv("explore f --axes all")).unwrap();
        assert_eq!(cli.strategy, None);
        for kind in StrategyKind::ALL {
            let cli =
                parse_args(&argv(&format!("explore f --axes all --strategy {kind}"))).unwrap();
            assert_eq!(cli.strategy, Some(kind));
        }
    }

    #[test]
    fn strategy_flag_rejects_garbage_with_typed_error() {
        // Every rejection is a typed UsageError, never a panic or a
        // silent fall-back to the default strategy.
        let err = parse_args(&argv("explore f --axes all --strategy lol")).unwrap_err();
        assert!(err.0.contains("unknown strategy `lol`"), "{}", err.0);
        let err = parse_args(&argv("explore f --axes all --strategy")).unwrap_err();
        assert!(err.0.contains("--strategy expects"), "{}", err.0);
        let err = parse_args(&[
            "explore".into(),
            "f".into(),
            "--axes".into(),
            "all".into(),
            "--strategy".into(),
            "   ".into(),
        ])
        .unwrap_err();
        assert!(err.0.contains("--strategy expects"), "{}", err.0);
        // A strategy needs a joint space to search.
        let err = parse_args(&argv("explore f --strategy branch-and-bound")).unwrap_err();
        assert!(err.0.contains("--strategy requires --axes"), "{}", err.0);
        // --strategy is explore-only; elsewhere it is an unknown flag.
        assert!(parse_args(&argv("sweep f --axes all --strategy exhaustive")).is_err());
        assert!(parse_args(&argv("lint f --strategy exhaustive")).is_err());
    }

    #[test]
    fn explore_axes_defaults_to_guided_and_matches_exhaustive() {
        let guided = run(
            &parse_args(&argv("explore fir.kernel --axes all --json")).unwrap(),
            FIR,
        )
        .unwrap();
        let exhaustive = run(
            &parse_args(&argv(
                "explore fir.kernel --axes all --strategy exhaustive --json",
            ))
            .unwrap(),
            FIR,
        )
        .unwrap();
        let g: serde_json::Value = serde_json::from_str(&guided).unwrap();
        let e: serde_json::Value = serde_json::from_str(&exhaustive).unwrap();
        assert_eq!(g["strategy"], "branch-and-bound");
        assert_eq!(e["strategy"], "exhaustive");
        // Bound-pruning is sound: the guided selection is bit-identical.
        assert_eq!(g["selected"], e["selected"]);
        assert_eq!(g["gap_cycles"].as_u64(), Some(0));
        // ...at a fraction of the tier-1 evaluations.
        let space = g["space_points"].as_u64().unwrap();
        assert_eq!(e["visited"].as_u64(), Some(space));
        assert!(g["visited"].as_u64().unwrap() * 4 <= space, "{guided}");
    }

    #[test]
    fn explore_axes_human_output_reports_strategy() {
        let cli = parse_args(&argv(
            "explore fir.kernel --axes all --strategy coordinate-descent",
        ))
        .unwrap();
        let out = run(&cli, FIR).unwrap();
        assert!(
            out.contains("strategy coordinate-descent selected"),
            "{out}"
        );
        assert!(out.contains("pruned by tier-0 bounds"), "{out}");
        assert!(out.contains("optimality gap <="), "{out}");
    }

    #[test]
    fn sweep_with_unroll_axis_matches_classic_table() {
        let classic = run(&parse_args(&argv("sweep fir.kernel")).unwrap(), FIR).unwrap();
        let joint = run(
            &parse_args(&argv("sweep fir.kernel --axes unroll")).unwrap(),
            FIR,
        )
        .unwrap();
        // Same candidate count, same cycle column, plus the legality footer.
        assert_eq!(
            classic.lines().count() - 1, // classic: header + rows
            joint.lines().count() - 2,   // joint: header + rows + footer
        );
        assert!(
            joint.contains("pruned by legality: 0 permutations"),
            "{joint}"
        );
        for line in classic.lines().skip(1) {
            let cycles = line.split_whitespace().nth(2).unwrap();
            assert!(joint.contains(cycles), "missing cycles {cycles} in {joint}");
        }
    }

    #[test]
    fn sweep_all_axes_json_reports_points_and_prunes() {
        let cli = parse_args(&argv("sweep fir.kernel --axes all --json")).unwrap();
        let out = run(&cli, FIR).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["axes"][0], "unroll");
        assert!(v["points"][0]["cycles"].as_u64().unwrap() > 0);
        assert!(v["points"][0]["permutation"][0].as_u64().is_some());
        assert!(v["pruned_by_legality"]["permutations"].as_u64().is_some());
    }

    #[test]
    fn analyze_with_axes_reports_joint_space() {
        let cli = parse_args(&argv("analyze fir.kernel --axes all")).unwrap();
        let out = run(&cli, FIR).unwrap();
        assert!(
            out.contains("joint space over [unroll,interchange,tile,narrow,pack]"),
            "{out}"
        );
        let cli = parse_args(&argv("analyze fir.kernel --axes all --json")).unwrap();
        let out = run(&cli, FIR).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(v["joint"]["points"].as_u64().unwrap() > 0);
        // Without --axes the classic report is untouched.
        let plain = run(&parse_args(&argv("analyze fir.kernel")).unwrap(), FIR).unwrap();
        assert!(!plain.contains("joint space"), "{plain}");
    }

    #[test]
    fn parses_audit_and_trace() {
        let cli = parse_args(&argv("audit fir.kernel --trace /tmp/t.jsonl")).unwrap();
        assert_eq!(cli.command, Command::Audit);
        assert_eq!(cli.trace.as_deref(), Some("/tmp/t.jsonl"));
    }

    #[test]
    fn audit_runs_clean_on_fir() {
        let cli = parse_args(&argv("audit fir.kernel")).unwrap();
        let out = run(&cli, FIR).unwrap();
        assert!(out.contains("0 invariant violations"), "{out}");
        assert!(out.contains("trace events"), "{out}");
    }

    #[test]
    fn audit_multi_fidelity_trace_is_clean() {
        let cli = parse_args(&argv("audit fir.kernel --fidelity analytic")).unwrap();
        let out = run(&cli, FIR).unwrap();
        assert!(out.contains("0 invariant violations"), "{out}");
    }

    #[test]
    fn explore_trace_writes_jsonl() {
        let dir = std::env::temp_dir().join("defacto-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fir.jsonl");
        let cli = parse_args(&argv(&format!(
            "explore fir.kernel --trace {}",
            path.display()
        )))
        .unwrap();
        run(&cli, FIR).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().count() > 2, "{text}");
        assert!(text.lines().all(|l| {
            let v: serde_json::Value = serde_json::from_str(l).unwrap();
            v["event"].as_str().is_some()
        }));
        assert!(text.contains("\"terminate\""), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threads_flag_is_parsed_and_respected() {
        let cli = parse_args(&argv("explore fir.kernel --threads 2")).unwrap();
        assert_eq!(cli.threads, Some(2));
        let out = run(&cli, FIR).unwrap();
        assert!(out.contains("on 2 workers"), "{out}");
    }

    #[test]
    fn explore_runs_end_to_end() {
        let cli = parse_args(&argv("explore fir.kernel")).unwrap();
        let out = run(&cli, FIR).unwrap();
        assert!(out.contains("selected unroll"));
        assert!(out.contains("visited"));
    }

    #[test]
    fn explore_json_is_valid() {
        let cli = parse_args(&argv("explore fir.kernel --json")).unwrap();
        let out = run(&cli, FIR).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["kernel"], "fir");
        assert!(v["selected"]["estimate"]["cycles"].as_u64().unwrap() > 0);
    }

    #[test]
    fn explore_multi_fidelity_agrees_with_full_and_reports_tiers() {
        // Unroll-only branch-and-bound: the exhaustive answer, paying
        // tier 1 only for the points tier 0 cannot rule out.
        let json = |args: &str| -> serde_json::Value {
            let out = run(&parse_args(&argv(args)).unwrap(), FIR).unwrap();
            serde_json::from_str(&out).unwrap()
        };
        let guided = json("explore fir.kernel --axes unroll --json");
        let exhaustive = json("explore fir.kernel --axes unroll --strategy exhaustive --json");
        assert_eq!(guided["selected"], exhaustive["selected"]);
        assert_eq!(guided["strategy"], "branch-and-bound");
        assert_eq!(guided["fidelity"], "full");
        assert!(guided["pruned"].as_u64().unwrap() > 0, "{guided:?}");
        assert_eq!(exhaustive["pruned"].as_u64(), Some(0));
        assert_eq!(
            guided["visited"].as_u64().unwrap() + guided["pruned"].as_u64().unwrap(),
            exhaustive["visited"].as_u64().unwrap()
        );
    }

    #[test]
    fn explore_analytic_reports_tier0_work() {
        let cli = parse_args(&argv("explore fir.kernel --fidelity analytic")).unwrap();
        let out = run(&cli, FIR).unwrap();
        assert!(out.contains("tier 0 (analytic):"), "{out}");
        assert!(out.contains("selected unroll"), "{out}");
    }

    #[test]
    fn analyze_reports_saturation() {
        let cli = parse_args(&argv("analyze fir.kernel")).unwrap();
        let out = run(&cli, FIR).unwrap();
        assert!(out.contains("Psat = 4"), "{out}");
        assert!(out.contains("42 candidates"), "{out}");
    }

    #[test]
    fn sweep_lists_every_design() {
        let cli = parse_args(&argv("sweep fir.kernel")).unwrap();
        let out = run(&cli, FIR).unwrap();
        // Header plus 42 designs.
        assert_eq!(out.lines().count(), 43, "{out}");
    }

    #[test]
    fn vhdl_with_fixed_unroll() {
        let cli = parse_args(&argv("vhdl fir.kernel --unroll 2,2")).unwrap();
        let out = run(&cli, FIR).unwrap();
        assert!(out.contains("entity fir is"));
        assert!(out.contains("unroll: (2,2)"));
    }

    #[test]
    fn schedule_prints_gantt() {
        let cli = parse_args(&argv("schedule fir.kernel --unroll 2,2")).unwrap();
        let out = run(&cli, FIR).unwrap();
        assert!(out.contains("steady-state innermost body"), "{out}");
        assert!(out.contains("load S"), "{out}");
        assert!(out.contains('#'), "{out}");
    }

    #[test]
    fn bad_kernel_source_errors() {
        let cli = parse_args(&argv("explore x.kernel")).unwrap();
        assert!(run(&cli, "kernel broken {").is_err());
    }

    #[test]
    fn lint_clean_kernel_exits_zero() {
        let cli = parse_args(&argv("lint fir.kernel")).unwrap();
        let out = run(&cli, FIR).unwrap();
        assert!(out.contains("no diagnostics"), "{out}");
    }

    #[test]
    fn lint_bad_kernel_is_an_error_with_code_and_span() {
        let cli = parse_args(&argv("lint x.kernel")).unwrap();
        let src = "kernel x { in A: i32[16]; out B: i32[4];
               for i in 0..4 { B[i] = A[i * i]; } }";
        let err = run(&cli, src).unwrap_err().to_string();
        assert!(err.contains("error[DF002]"), "{err}");
        assert!(err.contains("i * i"), "{err}");
        assert!(err.contains("-->"), "{err}"); // span rendered
    }

    #[test]
    fn lint_warnings_also_exit_nonzero() {
        let cli = parse_args(&argv("lint x.kernel")).unwrap();
        let src = "kernel x { in A: i32[4]; in U: i32[4]; out B: i32[4];
               for i in 0..4 { B[i] = A[i]; } }";
        let err = run(&cli, src).unwrap_err().to_string();
        assert!(err.contains("warning[DF006]"), "{err}");
        assert!(err.contains("0 error(s), 1 warning(s)"), "{err}");
    }

    #[test]
    fn lint_json_is_machine_readable() {
        let cli = parse_args(&argv("lint x.kernel --json")).unwrap();
        let src = "kernel x { in A: i32[4]; for i in 0..n { A[i] = A[i]; } }";
        let err = run(&cli, src).unwrap_err();
        let lint = err.downcast_ref::<LintFailure>().unwrap();
        let v: serde_json::Value = serde_json::from_str(&lint.rendered).unwrap();
        assert_eq!(v[0]["code"], "DF003");
        assert_eq!(v[0]["severity"], "error");
    }

    #[test]
    fn lint_small_device_reports_capacity() {
        // 16 memories push Psat to 16; no P(U)=16 design fits an XCV300.
        let cli = parse_args(&argv("lint fir.kernel --device xcv300 --memories 16")).unwrap();
        match run(&cli, FIR) {
            Ok(out) => panic!("expected DF009, got clean: {out}"),
            Err(e) => assert!(e.to_string().contains("DF009"), "{e}"),
        }
    }

    #[test]
    fn explore_refuses_kernels_with_lint_errors() {
        let cli = parse_args(&argv("explore x.kernel")).unwrap();
        // Parses fine but indexes A out of bounds (DF005).
        let src = "kernel x { in A: i32[4]; out B: i32[8];
               for i in 0..8 { B[i] = A[i]; } }";
        let err = run(&cli, src).unwrap_err().to_string();
        assert!(err.contains("DF005"), "{err}");
    }

    #[test]
    fn fuzz_parses_without_a_file_and_with_its_flags() {
        let cli = parse_args(&argv("fuzz --seed 11 --count 5 --smoke --json")).unwrap();
        assert_eq!(cli.command, Command::Fuzz);
        assert!(cli.file.is_empty());
        assert_eq!(cli.seed, 11);
        assert_eq!(cli.count, 5);
        assert!(cli.smoke && cli.json);
        // Defaults.
        let cli = parse_args(&argv("fuzz")).unwrap();
        assert_eq!((cli.seed, cli.count, cli.smoke), (7, 300, false));
        // Fuzz-only flags stay fuzz-only.
        assert!(parse_args(&argv("explore f --seed 3")).is_err());
        assert!(parse_args(&argv("fuzz --count 0")).is_err());
        assert!(parse_args(&argv("fuzz --seed banana")).is_err());
    }

    #[test]
    fn fuzz_smoke_campaign_runs_clean() {
        let cli = parse_args(&argv("fuzz --seed 5 --count 4 --smoke --json")).unwrap();
        let out = run(&cli, "").unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["generated"].as_u64(), Some(4));
        assert_eq!(v["runs"].as_u64(), Some(8));
        assert!(
            matches!(&v["violations"], serde_json::Value::Array(a) if a.is_empty()),
            "{out}"
        );
        let human = run(
            &parse_args(&argv("fuzz --seed 5 --count 4 --smoke")).unwrap(),
            "",
        )
        .unwrap();
        assert!(human.contains("violations: none"), "{human}");
    }

    #[test]
    fn explore_with_verify_reports_clean_verifier() {
        let cli = parse_args(&argv("explore fir.kernel --verify")).unwrap();
        let out = run(&cli, FIR).unwrap();
        assert!(out.contains("verifier: clean"), "{out}");
        assert!(out.contains("selected unroll"), "{out}");
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("defacto-cli-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parses_watch_command_and_its_flags() {
        let cli = parse_args(&argv(
            "watch fir.kernel --cache-dir /tmp/c --poll-ms 50 --max-runs 3 --json",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Watch);
        assert_eq!(cli.cache_dir.as_deref(), Some("/tmp/c"));
        assert_eq!(cli.poll_ms, 50);
        assert_eq!(cli.max_runs, Some(3));
        // Watch-only flags stay watch-only; bad values are typed errors.
        assert!(parse_args(&argv("explore f --poll-ms 10")).is_err());
        assert!(parse_args(&argv("explore f --max-runs 1")).is_err());
        assert!(parse_args(&argv("watch f --cache-dir /c --poll-ms 0")).is_err());
        assert!(parse_args(&argv("watch f --cache-dir /c --max-runs 0")).is_err());
        assert!(parse_args(&argv("watch f --cache-dir")).is_err());
    }

    #[test]
    fn threads_env_rejects_garbage_with_typed_error() {
        let cli = parse_args(&argv("explore fir.kernel")).unwrap();
        for bad in ["0", "-3", "two", ""] {
            let mut cli = cli.clone();
            cli.threads_env = Some(bad.to_string());
            let err = effective_threads(&cli).unwrap_err();
            assert!(err.0.contains("DEFACTO_THREADS"), "{bad:?}: {err}");
        }
        // The flag always wins over the environment.
        let mut flagged = cli.clone();
        flagged.threads = Some(2);
        flagged.threads_env = Some("garbage".to_string());
        assert_eq!(effective_threads(&flagged).unwrap(), Some(2));
        let mut ok = cli.clone();
        ok.threads_env = Some("4".to_string());
        assert_eq!(effective_threads(&ok).unwrap(), Some(4));
    }

    #[test]
    fn cache_dir_env_rejects_blank_with_typed_error() {
        let cli = parse_args(&argv("explore fir.kernel")).unwrap();
        for bad in ["", "   "] {
            let mut cli = cli.clone();
            cli.cache_dir_env = Some(bad.to_string());
            let err = effective_cache_dir(&cli).unwrap_err();
            assert!(err.0.contains("DEFACTO_CACHE_DIR"), "{bad:?}: {err}");
        }
        let mut flagged = cli.clone();
        flagged.cache_dir = Some("/tmp/flag".to_string());
        flagged.cache_dir_env = Some("/tmp/env".to_string());
        assert_eq!(
            effective_cache_dir(&flagged).unwrap(),
            Some(PathBuf::from("/tmp/flag"))
        );
        let mut env_only = cli.clone();
        env_only.cache_dir_env = Some("/tmp/env".to_string());
        assert_eq!(
            effective_cache_dir(&env_only).unwrap(),
            Some(PathBuf::from("/tmp/env"))
        );
    }

    #[test]
    fn explore_cache_dir_round_trip_hits_on_second_run() {
        let dir = tmpdir("explore-cache");
        let args = format!("explore fir.kernel --json --cache-dir {}", dir.display());
        let cli = parse_args(&argv(&args)).unwrap();
        let cold = run(&cli, FIR).unwrap();
        let warm = run(&cli, FIR).unwrap();
        let c: serde_json::Value = serde_json::from_str(&cold).unwrap();
        let w: serde_json::Value = serde_json::from_str(&warm).unwrap();
        assert_eq!(c["selected"], w["selected"]);
        assert_eq!(c["stats"]["persist_hits"].as_u64(), Some(0));
        assert!(
            w["stats"]["persist_hits"].as_u64().unwrap() > 0,
            "warm run should hit the persistent cache: {warm}"
        );
        assert_eq!(w["stats"]["persist_misses"].as_u64(), Some(0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watch_single_shot_streams_a_result_line() {
        let dir = tmpdir("watch-one");
        let file = dir.join("fir.kernel");
        std::fs::write(&file, FIR).unwrap();
        let args = format!(
            "watch {} --cache-dir {} --poll-ms 1 --max-runs 1 --json",
            file.display(),
            dir.display()
        );
        let cli = parse_args(&argv(&args)).unwrap();
        let mut buf = Vec::new();
        run_watch(&cli, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let line = text.lines().next().expect("one streamed line");
        let v: serde_json::Value = serde_json::from_str(line).unwrap();
        assert_eq!(v["revision"].as_u64(), Some(1));
        assert_eq!(v["kernel"], "fir");
        assert_eq!(v["warm"], serde_json::Value::Bool(false));
        assert!(v["cycles"].as_u64().unwrap() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watch_requires_a_cache_dir() {
        let dir = tmpdir("watch-nocache");
        let file = dir.join("fir.kernel");
        std::fs::write(&file, FIR).unwrap();
        let cli = parse_args(&argv(&format!("watch {} --max-runs 1", file.display()))).unwrap();
        let err = run_watch(&cli, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("cache"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watch_second_edit_is_warm_and_parse_errors_are_skipped() {
        let dir = tmpdir("watch-edit");
        let args = format!("watch fir.kernel --cache-dir {} --json", dir.display());
        let mut watch = WatchLoop::new(&parse_args(&argv(&args)).unwrap()).unwrap();
        let renamed = FIR
            .replace(" i ", " q ")
            .replace("C[i]", "C[q]")
            .replace("S[i + j]", "S[q + j]");
        // The saved kernel, an unchanged re-read, a torn mid-save write,
        // then an alpha-renamed kernel.
        let reports: Vec<Option<RevisionReport>> = [FIR, FIR, "kernel fir {", renamed.as_str()]
            .into_iter()
            .map(|text| watch.step(text).unwrap())
            .collect();
        assert_eq!(reports[1], None, "an unchanged text is no revision");
        let torn = reports[2].as_ref().unwrap();
        assert_eq!(torn.revision, 2);
        assert!(torn.line.contains("parse error"), "{}", torn.line);
        assert_eq!(watch.runs(), 2);
        let json = |r: &Option<RevisionReport>| -> serde_json::Value {
            serde_json::from_str(&r.as_ref().unwrap().line).unwrap()
        };
        let (cold, warm) = (json(&reports[0]), json(&reports[3]));
        assert_eq!(cold["revision"].as_u64(), Some(1));
        assert_eq!(warm["revision"].as_u64(), Some(3));
        assert_eq!(cold["warm"], serde_json::Value::Bool(false));
        assert_eq!(warm["warm"], serde_json::Value::Bool(true));
        // The alpha-rename is canonically identical: fully served from cache.
        assert_eq!(warm["evaluated"].as_u64(), Some(0), "{warm:?}");
        assert_eq!(cold["selected"], warm["selected"]);
        assert_eq!(cold["termination"], "space-constrained");
        assert_eq!(warm["termination"], "space-constrained");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_outputs_carry_the_stable_termination_label() {
        let explore = run(
            &parse_args(&argv("explore fir.kernel --json")).unwrap(),
            FIR,
        )
        .unwrap();
        let audit = run(&parse_args(&argv("audit fir.kernel --json")).unwrap(), FIR).unwrap();
        for out in [explore, audit] {
            let v: serde_json::Value = serde_json::from_str(&out).unwrap();
            assert_eq!(v["termination"], "space-constrained", "{out}");
        }
    }
}
