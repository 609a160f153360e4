//! Campaign driver: generate → check → shrink → report.
//!
//! A campaign runs `count` generated kernels, each against every profile,
//! and classifies every case. Violations are minimized on the spot (the
//! shrinker re-runs the oracle, so a reported reproducer is *verified* to
//! still fail) and land in the report ready to be written to
//! `tests/fuzz_corpus/`.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::panic::PanicHookInfo;
use std::sync::{Arc, Mutex, PoisonError};

use crate::grammar::generate_kernel;
use crate::oracle::{check_case, CaseOutcome, Oracle, OracleConfig, Profile, Violation};
use crate::shrink::shrink;

/// Configuration for one fuzz campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Base seed; the whole campaign is a pure function of it.
    pub seed: u64,
    /// Number of kernels to generate.
    pub count: usize,
    /// Design points per kernel given the per-point oracles.
    pub max_points: usize,
    /// Worker counts for the trace-audit oracle.
    pub workers: Vec<usize>,
    /// Minimize failures before reporting.
    pub shrink: bool,
    /// Device/memory profiles to sweep.
    pub profiles: Vec<Profile>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 7,
            count: 100,
            max_points: 3,
            workers: vec![1, 8],
            shrink: true,
            profiles: Profile::standard(),
        }
    }
}

/// One confirmed, minimized bug.
#[derive(Debug, Clone)]
pub struct FoundBug {
    /// Generator index within the campaign.
    pub index: u64,
    /// Profile label the case ran under.
    pub profile: String,
    /// Violated oracle dimension.
    pub oracle: Oracle,
    /// Pipeline stage of the violation.
    pub stage: String,
    /// Evidence text.
    pub detail: String,
    /// The original generated source.
    pub source: String,
    /// The minimized reproducer (equals `source` when shrinking is off).
    pub minimized: String,
}

/// Aggregate campaign result.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Kernels generated.
    pub generated: usize,
    /// Kernel × profile cases run.
    pub runs: usize,
    /// Cases that passed every oracle.
    pub passed: usize,
    /// Total individual oracle assertions that held.
    pub checks: u64,
    /// Typed rejections, counted per gate.
    pub rejected: BTreeMap<String, usize>,
    /// Confirmed violations.
    pub bugs: Vec<FoundBug>,
}

impl FuzzReport {
    /// True when no oracle violation was found.
    pub fn is_clean(&self) -> bool {
        self.bugs.is_empty()
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fuzz: {} kernels, {} cases, {} passed, {} oracle checks held",
            self.generated, self.runs, self.passed, self.checks
        );
        if !self.rejected.is_empty() {
            let gates: Vec<String> = self
                .rejected
                .iter()
                .map(|(stage, n)| format!("{stage}:{n}"))
                .collect();
            let _ = writeln!(out, "rejected (typed): {}", gates.join(" "));
        }
        if self.bugs.is_empty() {
            let _ = writeln!(out, "violations: none");
        } else {
            let _ = writeln!(out, "violations: {}", self.bugs.len());
            for b in &self.bugs {
                let _ = writeln!(
                    out,
                    "  [{}] #{} on {} at {}: {}",
                    b.oracle.label(),
                    b.index,
                    b.profile,
                    b.stage,
                    b.detail
                );
                let _ = writeln!(out, "  --- minimized reproducer ---");
                for line in b.minimized.lines() {
                    let _ = writeln!(out, "  {line}");
                }
            }
        }
        out
    }
}

/// Run a campaign. Panics raised by buggy passes are captured by the
/// oracle's guards; the panic hook is silenced on the campaign's thread
/// for the duration so expected probe panics don't spam stderr.
pub fn run_campaign(cfg: &CampaignConfig) -> FuzzReport {
    run_kernels(cfg, 0..cfg.count as u64)
}

/// Run only the campaign's kernels `indices`, each exactly as the whole
/// campaign runs it, so the reports of disjoint ranges add up to the
/// campaign's report. `cfg.count` is not consulted.
pub fn run_kernels(cfg: &CampaignConfig, indices: Range<u64>) -> FuzzReport {
    let _quiet = QuietPanics::new();
    let mut report = FuzzReport::default();
    for index in indices {
        let source = generate_kernel(cfg.seed, index);
        report.generated += 1;
        for profile in &cfg.profiles {
            let ocfg = OracleConfig {
                max_points: cfg.max_points,
                workers: cfg.workers.clone(),
                // Smoke campaigns (max_points 2) cap the guided-strategy
                // oracle tighter: its exhaustive ground truth dominates
                // the per-case budget.
                max_strategy_points: 8 * cfg.max_points,
                input_seed: cfg.seed ^ index.rotate_left(32),
            };
            report.runs += 1;
            match check_case(&source, profile, &ocfg) {
                CaseOutcome::Passed { checks } => {
                    report.passed += 1;
                    report.checks += checks;
                }
                CaseOutcome::Rejected { stage, .. } => {
                    *report.rejected.entry(stage.to_string()).or_default() += 1;
                }
                CaseOutcome::Violation(v) => {
                    let minimized = if cfg.shrink {
                        minimize(&source, profile, &ocfg, &v)
                    } else {
                        source.clone()
                    };
                    report.bugs.push(FoundBug {
                        index,
                        profile: profile.name.to_string(),
                        oracle: v.oracle,
                        stage: v.stage,
                        detail: v.detail,
                        source: source.clone(),
                        minimized,
                    });
                }
            }
        }
    }
    report
}

/// Shrink a failing source, preserving the violated oracle dimension.
fn minimize(source: &str, profile: &Profile, cfg: &OracleConfig, v: &Violation) -> String {
    let oracle = v.oracle;
    shrink(
        source,
        |candidate| {
            matches!(
                check_case(candidate, profile, cfg),
                CaseOutcome::Violation(w) if w.oracle == oracle
            )
        },
        400,
    )
}

/// Replay one reproducer source through every standard profile — the
/// corpus regression entry point. Returns the per-profile outcomes.
pub fn replay_source(source: &str) -> Vec<(String, CaseOutcome)> {
    let _quiet = QuietPanics::new();
    Profile::standard()
        .into_iter()
        .map(|p| {
            let cfg = OracleConfig::default();
            let outcome = check_case(source, &p, &cfg);
            (p.name.to_string(), outcome)
        })
        .collect()
}

/// A panic hook.
type Hook = Box<dyn Fn(&PanicHookInfo<'_>) + Send + Sync>;

/// The guards alive, and the hook that was installed before the first of
/// them, which the installed hook forwards to while any guard lives.
/// Every update leaves the pair consistent, so a poisoned lock is
/// recovered.
static QUIET: Mutex<(usize, Option<Arc<Hook>>)> = Mutex::new((0, None));

thread_local! {
    /// Whether this thread holds a [`QuietPanics`].
    static THREAD_QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Silences panics on the thread holding it, for as long as it lives.
///
/// The first guard of the process replaces the panic hook with one that
/// drops panics of quiet threads and hands every other panic to the hook
/// it replaced; the last guard to drop puts that hook back. Campaigns on
/// several threads at once, and in nested calls, share the one
/// forwarding hook, so they cannot restore each other's hooks out of
/// order, and a panic on any other thread is still reported. A guard
/// dropped while its thread unwinds cannot change the hook (the standard
/// library forbids it); the forwarding hook then stays, and with no
/// quiet thread it behaves exactly like the hook it wraps. The next
/// first guard wraps whatever hook is installed then, so a hook set in
/// between is neither bypassed nor later overwritten by a stale one.
struct QuietPanics {
    /// This thread's flag before the guard, for nested guards.
    was_quiet: bool,
}

impl QuietPanics {
    fn new() -> Self {
        let mut quiet = QUIET.lock().unwrap_or_else(PoisonError::into_inner);
        if quiet.0 == 0 {
            // A hook left by a guard that ended while unwinding is stale.
            let prev: Arc<Hook> = Arc::new(std::panic::take_hook());
            let forward = Arc::clone(&prev);
            std::panic::set_hook(Box::new(move |info| {
                if !THREAD_QUIET.with(Cell::get) {
                    forward(info);
                }
            }));
            quiet.1 = Some(prev);
        }
        quiet.0 += 1;
        QuietPanics {
            was_quiet: THREAD_QUIET.with(|q| q.replace(true)),
        }
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        THREAD_QUIET.with(|q| q.set(self.was_quiet));
        let mut quiet = QUIET.lock().unwrap_or_else(PoisonError::into_inner);
        quiet.0 -= 1;
        if quiet.0 > 0 || std::thread::panicking() {
            return;
        }
        if let Some(prev) = quiet.1.take() {
            // Dropping the forwarding hook drops its share of `prev`.
            drop(std::panic::take_hook());
            match Arc::try_unwrap(prev) {
                Ok(hook) => std::panic::set_hook(hook),
                Err(prev) => std::panic::set_hook(Box::new(move |info| prev(info))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::panic::{self, PanicHookInfo};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    /// The panic hook is process-wide: the tests that install guards take
    /// turns.
    static HOOK: Mutex<()> = Mutex::new(());

    fn hook_turn() -> std::sync::MutexGuard<'static, ()> {
        HOOK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Panics carrying [`MESSAGE`] that reached the test's hook.
    static REPORTED: AtomicUsize = AtomicUsize::new(0);
    const MESSAGE: &str = "a panic the test's hook counts";

    fn is_marked(info: &PanicHookInfo<'_>) -> bool {
        info.payload().downcast_ref::<&str>() == Some(&MESSAGE)
    }

    /// Panic with [`MESSAGE`] on a new thread, and wait for it.
    fn panic_elsewhere() {
        let outcome = thread::spawn(|| panic::panic_any(MESSAGE)).join();
        assert!(outcome.is_err(), "the thread must panic");
    }

    #[test]
    fn a_guard_after_one_that_ended_unwinding_wraps_the_current_hook() {
        let _turn = hook_turn();
        // The only guard ends while its thread unwinds, so it leaves its
        // forwarding hook installed.
        let ended = thread::spawn(|| {
            let _quiet = QuietPanics::new();
            panic::panic_any(MESSAGE)
        })
        .join();
        assert!(ended.is_err(), "the guarded thread must panic");
        // Someone installs a hook of their own after it.
        let before: Arc<Hook> = Arc::new(panic::take_hook());
        let forward = Arc::clone(&before);
        panic::set_hook(Box::new(move |info| {
            if is_marked(info) {
                REPORTED.fetch_add(1, Ordering::SeqCst);
            } else {
                forward(info);
            }
        }));
        let quiet = QuietPanics::new();
        let silenced = panic::catch_unwind(|| panic::panic_any(MESSAGE));
        assert!(silenced.is_err());
        assert_eq!(
            REPORTED.load(Ordering::SeqCst),
            0,
            "a guarded thread's panic reached the hook"
        );
        panic_elsewhere();
        assert_eq!(REPORTED.load(Ordering::SeqCst), 1);
        drop(quiet);
        // The last guard put back the hook installed before it.
        panic_elsewhere();
        assert_eq!(
            REPORTED.load(Ordering::SeqCst),
            2,
            "the guard restored a stale hook"
        );
        drop(panic::take_hook());
        panic::set_hook(Box::new(move |info| before(info)));
    }

    #[test]
    fn a_tiny_campaign_runs_clean_and_deterministically() {
        let _turn = hook_turn();
        let cfg = CampaignConfig {
            seed: 3,
            count: 6,
            ..CampaignConfig::default()
        };
        let a = run_campaign(&cfg);
        assert_eq!(a.generated, 6);
        assert_eq!(a.runs, 12);
        assert!(
            a.is_clean(),
            "seed-3 smoke campaign found violations:\n{}",
            a.render()
        );
        assert!(a.passed + a.rejected.values().sum::<usize>() == a.runs);
        let b = run_campaign(&cfg);
        assert_eq!(a.passed, b.passed);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.checks, b.checks);
    }

    #[test]
    fn replay_classifies_known_sources() {
        let _turn = hook_turn();
        let outcomes = replay_source(
            "kernel k { in A: i32[4]; out B: i32[4]; for i in 4..0 { B[i] = A[i]; } }",
        );
        assert_eq!(outcomes.len(), 2);
        for (profile, outcome) in outcomes {
            assert!(
                matches!(outcome, CaseOutcome::Rejected { stage: "lint", .. }),
                "{profile}: {outcome:?}"
            );
        }
    }
}
