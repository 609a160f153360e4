//! `dsebench`: how fast DEFACTO answers "which design?".
//!
//! ```text
//! dsebench --workload W --seed N --seconds S --trace 0|1   one workload, this process
//! dsebench run   [--seed N] [--seconds S] [--repeat R] [--out FILE]
//! dsebench trace [--seed N] [--seconds S] [--repeat R] [--out FILE]
//! dsebench compare A.json B.json
//! ```
//!
//! A single-workload run is a closed loop with one client: the next
//! question is asked only when the previous answer is back. It sets up
//! at least three times (reporting the median as `setup_s`), then
//! answers rounds of all five paper kernels in a seeded order until
//! `--seconds` have passed, checking every answer. Times are reported
//! at reference speed (see [`reference`]). `--trace 1` answers each question
//! twice, once through the library's entry point and once through the
//! traced replay of its layers, and reports per-layer metrics instead.
//! The last line of standard output is the JSON result.
//!
//! `run` and `trace` run every workload in its own child process, one
//! at a time, and write a report with a machine fingerprint; `compare`
//! puts two reports side by side against the bounds in `BENCHMARK.json`.

mod answers;
mod inputs;
mod reference;
mod replay;
mod report;
mod stats;
mod trace;

use answers::{JointOutcome, Pins, WatchOutcome, Workload};
use defacto::ir::Kernel;
use defacto::prelude::EvaluatedDesign;
use inputs::KERNELS;
use replay::Counters;
use serde_json::Value;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{Breakdown, Span, SpanId, Tracer, LAYERS, ROOT};

/// Set-up passes per run, at least; `setup_s` is their median. Cheap
/// set-ups repeat until they have taken [`SETUP_TIME`] in all.
const SETUP_PASSES: usize = 3;
const SETUP_TIME: Duration = Duration::from_secs(1);
/// How far around a timed interval reference samples count towards its
/// speed. A shared host can switch between a fast and a slow state many
/// times a run, for tenths of a second to seconds at a time, so one
/// median over a whole run mixes the two in a different proportion each
/// run.
const SPEED_WINDOW: Duration = Duration::from_millis(250);
/// Revisions per `watch` session: the file as opened plus 39 edits.
const SESSION_REVISIONS: usize = 40;
/// Traced answers per kernel whose spans are written out.
const KEPT_ANSWERS: u64 = 2;
/// Largest share of an answer's wall time the replay's own code may take.
const GLUE_LIMIT: f64 = 0.05;
/// Where reports, traces and `watch` stores go, under the working
/// directory.
pub const OUT_DIR: &str = ".bench_out";

const USAGE: &str =
    "usage: dsebench --workload guided|exhaustive|analytic|watch --seed N --seconds S --trace 0|1
       dsebench run|trace [--seed N] [--seconds S] [--repeat R] [--out FILE]
       dsebench compare A.json B.json";

/// Parsed flags of every mode.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub repeat: usize,
    pub out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
        repeat: 1,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs an integer")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|_| "--repeat needs an integer")?
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match argv.first().map(String::as_str) {
        Some("compare") => std::process::exit(match argv.as_slice() {
            [_, a, b] => report::compare(Path::new(a), Path::new(b)),
            _ => usage_error("compare needs two report files".into()),
        }),
        Some(mode @ ("run" | "trace")) => parse_args(&argv[1..]).map(|mut a| {
            a.trace = mode == "trace";
            (a, true)
        }),
        _ => parse_args(&argv).map(|a| (a, false)),
    };
    let code = match parsed {
        Err(e) => usage_error(e),
        Ok((args, true)) if args.workload.is_some() => {
            usage_error("run and trace cover every workload".into())
        }
        Ok((args, true)) => report::run(&args),
        Ok((Args { workload: None, .. }, false)) => usage_error("--workload is required".into()),
        Ok((args, false)) => match single(&args) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("dsebench: {e}");
                1
            }
        },
    };
    std::process::exit(code);
}

fn usage_error(msg: String) -> i32 {
    eprintln!("dsebench: {msg}\n{USAGE}");
    2
}

/// Everything a run needs before its first timed answer.
struct Setup {
    pins: Pins,
    kernels: Vec<Kernel>,
    /// Joint workloads: the set-up answer of each kernel.
    first: Vec<JointOutcome>,
    /// `watch`: the cold selection of every kernel size.
    refs: HashMap<(usize, Vec<usize>), EvaluatedDesign>,
}

/// One set-up pass: pinned answers, inputs, references, and one cold
/// answer per kernel (for `watch`, the first revision of a session per
/// kernel), each checked.
fn setup(w: Workload, scratch: &Path) -> Result<Setup, String> {
    let mut s = Setup {
        pins: Pins::load()?,
        kernels: inputs::paper_kernels(),
        first: Vec::new(),
        refs: HashMap::new(),
    };
    if w == Workload::Watch {
        s.refs = answers::watch_references(&s.pins)?;
        for (kernel, name) in KERNELS.iter().enumerate() {
            let dir = scratch.join(format!("setup-{kernel}"));
            let dims = inputs::paper_dims(kernel);
            let mut session = answers::open_session(&dir)?;
            let got = answers::watch(&mut session, &inputs::source(kernel, &dims))?;
            if got.selected != s.refs[&(kernel, dims)] {
                return Err(format!("{name}: first revision disagrees"));
            }
            remove_dir(&dir)?;
        }
    } else {
        for (i, k) in s.kernels.iter().enumerate() {
            let got = answers::joint(w, k).map_err(|e| format!("{}: {e}", KERNELS[i]))?;
            answers::check_joint(&s.pins.joint(w)[i], &got, None)
                .map_err(|e| format!("{}: {e}", KERNELS[i]))?;
            s.first.push(got);
        }
    }
    Ok(s)
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// One timed answer.
#[derive(Debug, Clone, Copy)]
struct Sample {
    kernel: usize,
    start: Instant,
    ms: f64,
    tier1: u64,
}

impl Sample {
    fn end(&self) -> Instant {
        self.start + Duration::from_secs_f64(self.ms / 1e3)
    }
}

/// Per-kernel accumulation of the traced replay.
#[derive(Debug, Default)]
struct KernelTrace {
    library_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    breakdown: Breakdown,
    counters: Counters,
}

/// The traced side of a run.
#[derive(Default)]
struct TraceState {
    tracer: Tracer,
    kernels: Vec<KernelTrace>,
    kept: Vec<(usize, Span)>,
    next_answer: u32,
}

/// One traced replay whose span tree checked out.
struct Replayed<T> {
    outcome: T,
    ms: f64,
    breakdown: Breakdown,
    counters: Counters,
    spans: Vec<Span>,
}

impl TraceState {
    /// Replay one answer under a fresh root span.
    fn replay<T>(
        &mut self,
        f: impl FnOnce(&Tracer, SpanId, &mut Counters) -> Result<T, String>,
    ) -> Result<Replayed<T>, String> {
        self.next_answer += 1;
        self.tracer.begin(self.next_answer);
        let mut counters = Counters::default();
        let started = Instant::now();
        let out = self
            .tracer
            .span(0, ROOT, |root| f(&self.tracer, root, &mut counters));
        let ms = elapsed_ms(started);
        let spans = self.tracer.drain();
        Ok(Replayed {
            breakdown: Breakdown::of(&spans)?,
            outcome: out?,
            ms,
            counters,
            spans,
        })
    }

    fn record<T>(&mut self, kernel: usize, library_ms: f64, r: Replayed<T>) {
        let k = &mut self.kernels[kernel];
        if (k.traced_ms.len() as u64) < KEPT_ANSWERS {
            self.kept.extend(r.spans.into_iter().map(|s| (kernel, s)));
        }
        k.library_ms.push(library_ms);
        k.traced_ms.push(r.ms);
        k.breakdown.add(&r.breakdown);
        k.counters.add(&r.counters);
    }
}

fn elapsed_ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Ask one question: time the library's answer and `check` it (which
/// returns its tier-1 evaluation count). When tracing, also replay it
/// and require the same outcome, alternating which of the two runs
/// first so neither always finds the processor caches warm.
fn ask<T: PartialEq>(
    kernel: usize,
    tracing: Option<&mut TraceState>,
    library: impl FnOnce() -> Result<T, String>,
    check: impl FnOnce(&T) -> Result<u64, String>,
    replay: impl FnOnce(&Tracer, SpanId, &mut Counters) -> Result<T, String>,
) -> Result<Sample, String> {
    let timed = || {
        let started = Instant::now();
        let out = library();
        (out, started, elapsed_ms(started))
    };
    let ((out, start, ms), replayed) = match tracing {
        None => (timed(), None),
        Some(t) if t.next_answer % 2 == 1 => {
            let r = t.replay(replay);
            (timed(), Some((t, r)))
        }
        Some(t) => {
            let out = timed();
            let r = t.replay(replay);
            (out, Some((t, r)))
        }
    };
    let out = out?;
    let tier1 = check(&out)?;
    if let Some((t, r)) = replayed {
        let r = r.map_err(|e| format!("replay: {e}"))?;
        if r.outcome != out {
            return Err("the replay's answer differs from the library's".into());
        }
        t.record(kernel, ms, r);
    }
    Ok(Sample {
        kernel,
        start,
        ms,
        tier1,
    })
}

/// Reference samples taken through a run (see [`reference`]), each with
/// the moment it was taken.
#[derive(Default)]
struct Speed {
    samples: Vec<(Instant, f64)>,
    last: Option<Instant>,
}

impl Speed {
    /// Sample the reference unless one was taken in the last 25 ms.
    fn tick(&mut self) {
        if self
            .last
            .is_none_or(|t| t.elapsed() >= Duration::from_millis(25))
        {
            self.samples.push((Instant::now(), reference::sample()));
            self.last = Some(Instant::now());
        }
    }

    /// The factor turning a raw time measured from `start` to `end` into
    /// a time at reference speed: [`reference::NOMINAL_MS`] over the
    /// median of the samples taken within [`SPEED_WINDOW`] of that
    /// interval, or over the last sample before it when none was.
    fn scale(&self, start: Instant, end: Instant) -> f64 {
        let s = &self.samples;
        let hi = s.partition_point(|&(t, _)| t <= end + SPEED_WINDOW).max(1);
        let lo = s
            .partition_point(|&(t, _)| t + SPEED_WINDOW < start)
            .min(hi - 1);
        let window: Vec<f64> = s[lo..hi].iter().map(|&(_, ms)| ms).collect();
        reference::NOMINAL_MS / stats::median(&window)
    }
}

/// Guard removing the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run one workload; `Ok(false)` when any answer or check failed.
fn single(args: &Args) -> Result<bool, String> {
    let w = args.workload.expect("checked by the caller");
    let scratch = Scratch(Path::new(OUT_DIR).join(format!("scratch-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let mut speed = Speed::default();
    // Start and duration of every set-up pass.
    let mut setups: Vec<(Instant, Duration)> = Vec::new();
    let s = loop {
        speed.tick();
        let started = Instant::now();
        let state = setup(w, &scratch.0)?;
        setups.push((started, started.elapsed()));
        let enough = setups.len() >= SETUP_PASSES
            && setups.iter().map(|&(_, d)| d).sum::<Duration>() >= SETUP_TIME;
        if args.trace || enough {
            break state;
        }
    };

    let mut tracing = args.trace.then(|| TraceState {
        kernels: (0..KERNELS.len()).map(|_| KernelTrace::default()).collect(),
        ..TraceState::default()
    });
    let mut samples: Vec<Sample> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut round, mut session_no) = (0u64, 0u64);
    // Whole rounds only, so every kernel is asked equally often; past
    // the deadline only until the tail percentile has ten answers
    // beyond it.
    while Instant::now() < deadline
        || stats::beyond(samples.len() + failures.len(), w.tail_percentile()) < 10
    {
        for kernel in inputs::round_order(args.seed, round) {
            let name = KERNELS[kernel];
            if w == Workload::Watch {
                let revisions = inputs::session(kernel, args.seed, session_no, SESSION_REVISIONS);
                let dir = scratch.0.join(format!("session-{session_no}"));
                session_no += 1;
                let mut session = answers::open_session(&dir.join("library"))?;
                let mut replay = match &tracing {
                    Some(_) => Some(replay::WatchReplay::open(
                        &dir.join("replay"),
                        &s.kernels[0],
                    )?),
                    None => None,
                };
                for (i, rev) in revisions.iter().enumerate() {
                    speed.tick();
                    let expected = &s.refs[&(kernel, rev.dims.clone())];
                    let asked = ask(
                        kernel,
                        tracing.as_mut(),
                        || answers::watch(&mut session, &rev.text),
                        |o: &WatchOutcome| {
                            if o.selected == *expected {
                                Ok(o.evaluated)
                            } else {
                                Err(format!(
                                    "selected {} at {} cycles",
                                    o.selected.unroll, o.selected.estimate.cycles
                                ))
                            }
                        },
                        |t, root, c| {
                            replay
                                .as_mut()
                                .expect("tracing opens a replay")
                                .answer(&rev.text, t, root, c)
                        },
                    );
                    match asked {
                        Ok(sample) => samples.push(sample),
                        Err(e) => failures.push(format!(
                            "{name} session {} revision {i}: {e}",
                            session_no - 1
                        )),
                    }
                }
                drop((session, replay));
                remove_dir(&dir)?;
            } else {
                speed.tick();
                let k = &s.kernels[kernel];
                let asked = ask(
                    kernel,
                    tracing.as_mut(),
                    || answers::joint(w, k),
                    |o| {
                        answers::check_joint(&s.pins.joint(w)[kernel], o, Some(&s.first[kernel]))
                            .map(|()| o.tier1)
                    },
                    |t, root, c| replay::joint(w, k, t, root, c),
                );
                match asked {
                    Ok(sample) => samples.push(sample),
                    Err(e) => failures.push(format!("{name}: {e}")),
                }
            }
        }
        round += 1;
    }

    for f in failures.iter().take(10) {
        eprintln!("dsebench: {} failed: {f}", w.name());
    }
    let mut correct = failures.is_empty();
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    match &tracing {
        None => end_to_end(w, &samples, &setups, &speed, &mut metrics),
        Some(t) => {
            if let Err(e) = per_layer(w, args.seed, t, &samples, &mut metrics) {
                eprintln!("dsebench: {} trace check failed: {e}", w.name());
                correct = false;
            }
        }
    }
    for (name, value, unit) in &metrics {
        println!("{} {name} {value} {unit}", w.name());
    }
    let result = serde_json::json!({
        "correct": correct,
        "attempted": samples.len() + failures.len(),
        "failed": failures.len(),
        "metrics": Value::Object(
            metrics
                .iter()
                .map(|(n, v, u)| (n.clone(), serde_json::json!({"value": *v, "unit": *u})))
                .collect()
        ),
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    Ok(correct)
}

fn ms_of(samples: &[Sample], kernel: usize) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.kernel == kernel)
        .map(|s| s.ms)
        .collect()
}

/// `answers_per_s`, `answer_ms_gm50`, `answer_ms_tail` and `setup_s` of
/// answers taking `ms` (of the kernels in `kernels`) and set-up passes
/// taking `setup_s`.
fn headline(w: Workload, kernels: &[usize], ms: &[f64], setup_s: &[f64]) -> [f64; 4] {
    let medians: Vec<f64> = (0..KERNELS.len())
        .map(|k| {
            let of_k: Vec<f64> = kernels
                .iter()
                .zip(ms)
                .filter(|&(&kk, _)| kk == k)
                .map(|(_, &m)| m)
                .collect();
            stats::median(&of_k)
        })
        .collect();
    [
        ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3),
        stats::geomean(&medians),
        stats::percentile(&stats::sorted(ms), w.tail_percentile()),
        stats::median(setup_s),
    ]
}

/// The untraced metrics, at reference speed: every answer and set-up
/// pass is scaled by the reference samples taken around it. The raw
/// metrics, the raw times' quartiles and sample counts are printed
/// alongside.
fn end_to_end(
    w: Workload,
    samples: &[Sample],
    setups: &[(Instant, Duration)],
    speed: &Speed,
    out: &mut Vec<(String, f64, &str)>,
) {
    let all: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let setup_s: Vec<f64> = setups.iter().map(|(_, d)| d.as_secs_f64()).collect();
    let sorted = stats::sorted(&all);
    let p = w.tail_percentile();
    for (k, name) in KERNELS.iter().enumerate() {
        let [q1, q2, q3] = stats::quartiles(&ms_of(samples, k));
        println!(
            "# {} {name} answer_ms median {q2:.3} q1 {q1:.3} q3 {q3:.3} n {}",
            w.name(),
            ms_of(samples, k).len()
        );
    }
    let highest = stats::tail_rule(all.len()).unwrap_or(f64::NAN);
    println!(
        "# {} answer_ms_tail p{p} with {} of {} answers beyond; highest with ten beyond p{highest} {:.3}; p99.96 {:.3}",
        w.name(),
        stats::beyond(all.len(), p),
        all.len(),
        stats::percentile(&sorted, highest),
        stats::percentile(&sorted, 99.96),
    );
    println!(
        "# {} setup_s passes {setup_s:?}, tier1 evaluations per answer {:.3}",
        w.name(),
        samples.iter().map(|s| s.tier1).sum::<u64>() as f64 / all.len().max(1) as f64
    );
    let kernels: Vec<usize> = samples.iter().map(|s| s.kernel).collect();
    let reference_ms: Vec<f64> = speed.samples.iter().map(|&(_, ms)| ms).collect();
    let [r1, r2, r3] = stats::quartiles(&reference_ms);
    let raw = headline(w, &kernels, &all, &setup_s);
    println!(
        "# {} reference_ms median {r2:.4} q1 {r1:.4} q3 {r3:.4} n {}; raw answers_per_s {:.4} answer_ms_gm50 {:.4} answer_ms_tail {:.4} setup_s {:.4}",
        w.name(),
        speed.samples.len(),
        raw[0],
        raw[1],
        raw[2],
        raw[3],
    );
    let scaled_ms: Vec<f64> = samples
        .iter()
        .map(|s| s.ms * speed.scale(s.start, s.end()))
        .collect();
    let scaled_setup_s: Vec<f64> = setups
        .iter()
        .map(|&(start, d)| d.as_secs_f64() * speed.scale(start, start + d))
        .collect();
    let [per_s, gm50, tail, setup] = headline(w, &kernels, &scaled_ms, &scaled_setup_s);
    out.push(("answers_per_s".into(), per_s, "1/s"));
    out.push(("answer_ms_gm50".into(), gm50, "ms"));
    out.push(("answer_ms_tail".into(), tail, "ms"));
    out.push(("setup_s".into(), setup, "s"));
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The traced metrics; fails when the replay spent more than
/// [`GLUE_LIMIT`] of any kernel's answer time in its own code. Prints a
/// per-kernel layer table and writes the kept spans as JSONL.
fn per_layer(
    w: Workload,
    seed: u64,
    t: &TraceState,
    samples: &[Sample],
    out: &mut Vec<(String, f64, &str)>,
) -> Result<(), String> {
    let mut total = Breakdown::default();
    let mut counters = Counters::default();
    let (mut library, mut traced) = (Vec::new(), Vec::new());
    for (k, kt) in t.kernels.iter().enumerate() {
        let n = kt.traced_ms.len().max(1) as f64;
        let b = &kt.breakdown;
        println!(
            "# {} {} answers {} library_ms {:.3} traced_ms {:.3} glue_ms {:.4}",
            w.name(),
            KERNELS[k],
            kt.traced_ms.len(),
            stats::median(&kt.library_ms),
            stats::median(&kt.traced_ms),
            b.glue_ns / n / 1e6
        );
        for (layer, l) in &b.layers {
            println!(
                "#   {layer:<16} self_ms_per_answer {:>10.4} calls_per_answer {:>9.2}",
                l.self_ns / n / 1e6,
                l.calls as f64 / n
            );
        }
        if b.glue_ns > GLUE_LIMIT * b.wall_ns {
            return Err(format!(
                "{}: glue is {:.1}% of answer time",
                KERNELS[k],
                100.0 * b.glue_ns / b.wall_ns
            ));
        }
        total.add(b);
        counters.add(&kt.counters);
        if !kt.traced_ms.is_empty() {
            library.push(stats::median(&kt.library_ms));
            traced.push(stats::median(&kt.traced_ms));
        }
    }
    write_spans(w, seed, &t.kept)?;

    let answers = t
        .kernels
        .iter()
        .map(|k| k.traced_ms.len())
        .sum::<usize>()
        .max(1) as f64;
    // A ratio with nothing to count reads 0: the workload never reaches
    // that layer.
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    for layer in LAYERS {
        let l = total.layers.get(layer).copied().unwrap_or_default();
        out.push((
            format!("{layer}.calls_per_answer"),
            l.calls as f64 / answers,
            "count",
        ));
        out.push((
            format!("{layer}.self_share"),
            l.self_ns / total.wall_ns,
            "ratio",
        ));
    }
    let c = counters;
    let count = |n: u64| n as f64;
    let tier1: u64 = samples.iter().map(|s| s.tier1).sum();
    out.extend(
        [
            (
                "xform.copy_reuse",
                ratio(count(c.copy_hits), count(c.copy_hits + c.copy_misses)),
                "ratio",
            ),
            (
                "core.memo.hit_rate",
                ratio(count(c.memo_hits), count(c.memo_lookups)),
                "ratio",
            ),
            (
                "cache.hit_rate",
                ratio(count(c.store_hits), count(c.store_lookups)),
                "ratio",
            ),
            (
                "core.prune_ratio",
                ratio(count(c.pruned), count(c.points)),
                "ratio",
            ),
            (
                "synth.tier0_yield",
                ratio(count(c.pruned), count(c.bands_priced)),
                "ratio",
            ),
            (
                "core.engine.utilization",
                ratio(total.engine_busy_ns, total.engine_capacity_ns),
                "ratio",
            ),
            (
                "synth.band_declined",
                count(c.bands_declined) / answers,
                "count",
            ),
            (
                "cache.flush_failed",
                count(c.flush_failed) / answers,
                "count",
            ),
            (
                "bench.glue_ms_per_answer",
                total.glue_ns / answers / 1e6,
                "ms",
            ),
            (
                "tier1_evals_per_answer",
                ratio(count(tier1), samples.len() as f64),
                "count",
            ),
            (
                "trace.overhead",
                stats::geomean(&traced) / stats::geomean(&library) - 1.0,
                "ratio",
            ),
        ]
        .map(|(name, value, unit)| (name.to_string(), value, unit)),
    );
    out.push(("peak_rss_mb".into(), peak_rss_mb(), "MB"));
    Ok(())
}

/// Write the kept answers' spans, one JSON object per line.
fn write_spans(w: Workload, seed: u64, kept: &[(usize, Span)]) -> Result<(), String> {
    let path = Path::new(OUT_DIR).join(format!("trace-{}-seed{seed}.jsonl", w.name()));
    let mut text = String::new();
    for (kernel, s) in kept {
        let line = serde_json::json!({
            "answer": s.answer,
            "kernel": KERNELS[*kernel],
            "span": s.id,
            "parent": s.parent,
            "name": s.name,
            "start_us": s.start as f64 / 1e3,
            "end_us": s.end as f64 / 1e3,
            "thread": s.thread,
            "workers": s.workers,
            "call": s.call,
        });
        text.push_str(&serde_json::to_string(&line).expect("span serializes"));
        text.push('\n');
    }
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "# {} spans of {} answers written to {}",
        kept.len(),
        w.name(),
        path.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_are_scaled_by_the_samples_around_them() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let speed = Speed {
            samples: vec![
                (at(0), 2.4),
                (at(100), 2.4),
                (at(2000), 1.2),
                (at(2100), 0.6),
            ],
            last: None,
        };
        // The host ran at half the nominal speed: times count half.
        assert_eq!(speed.scale(at(50), at(60)), 0.5);
        assert!((speed.scale(at(2050), at(2100)) - 1.2 / 0.9).abs() < 1e-12);
        // No sample within the window: the last one before it.
        assert_eq!(speed.scale(at(1000), at(1010)), 0.5);
    }

    /// One FIR answer per workload, through the library and through the
    /// traced replay, checked the way a run checks them.
    #[test]
    fn fir_smoke_one_answer_per_workload() {
        let pins = Pins::load().unwrap();
        let fir = &inputs::paper_kernels()[0];
        let mut t = TraceState::default();
        for w in [Workload::Guided, Workload::Exhaustive, Workload::Analytic] {
            let library = answers::joint(w, fir).unwrap();
            answers::check_joint(&pins.joint(w)[0], &library, None).unwrap();
            let r = t
                .replay(|tr, root, c| replay::joint(w, fir, tr, root, c))
                .unwrap();
            assert_eq!(r.outcome, library, "{}", w.name());
            let calls = |layer: &str| r.breakdown.layers.get(layer).map_or(0, |l| l.calls);
            assert_eq!(calls("synth.estimate"), library.tier1, "{}", w.name());
        }

        let dir = std::env::temp_dir().join(format!("dsebench-smoke-{}", std::process::id()));
        let revisions = inputs::session(0, 1, 0, 2);
        let mut session = answers::open_session(&dir.join("library")).unwrap();
        let mut replay = replay::WatchReplay::open(&dir.join("replay"), fir).unwrap();
        for rev in &revisions {
            let library = answers::watch(&mut session, &rev.text).unwrap();
            let r = t
                .replay(|tr, root, c| replay.answer(&rev.text, tr, root, c))
                .unwrap();
            assert_eq!(r.outcome, library);
        }
        let (unroll, cycles) = &pins.watch[0];
        let first = answers::watch(&mut session, &revisions[0].text).unwrap();
        assert_eq!(first.selected.unroll.factors(), unroll.as_slice());
        assert_eq!(first.selected.estimate.cycles, *cycles);
        assert_eq!(
            first.evaluated, 0,
            "a revisited revision is answered from the caches"
        );
        drop((session, replay));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
