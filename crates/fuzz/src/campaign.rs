//! Campaign driver: generate → check → shrink → report.
//!
//! A campaign runs `count` generated kernels, each against every profile,
//! and classifies every case. Violations are minimized on the spot (the
//! shrinker re-runs the oracle, so a reported reproducer is *verified* to
//! still fail) and land in the report ready to be written to
//! `tests/fuzz_corpus/`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;

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
/// oracle's guards; the default panic hook is silenced for the duration
/// so expected probe panics don't spam stderr.
pub fn run_campaign(cfg: &CampaignConfig) -> FuzzReport {
    run_kernels(cfg, 0..cfg.count as u64)
}

/// Run only the campaign's kernels `indices`, each exactly as the whole
/// campaign runs it, so the reports of disjoint ranges add up to the
/// campaign's report. `cfg.count` is not consulted.
pub fn run_kernels(cfg: &CampaignConfig, indices: Range<u64>) -> FuzzReport {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = run_kernels_inner(cfg, indices);
    std::panic::set_hook(prev_hook);
    report
}

fn run_kernels_inner(cfg: &CampaignConfig, indices: Range<u64>) -> FuzzReport {
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
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = Profile::standard()
        .into_iter()
        .map(|p| {
            let cfg = OracleConfig::default();
            let outcome = check_case(source, &p, &cfg);
            (p.name.to_string(), outcome)
        })
        .collect();
    std::panic::set_hook(prev_hook);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tiny_campaign_runs_clean_and_deterministically() {
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
