//! The fixed-seed fuzz smoke campaign, as tier-1 tests.
//!
//! `defacto fuzz --seed 7 --count 300 --smoke` must print the two lines
//! in [`CAMPAIGN`]. The same 300 kernels run here in shards, one test
//! each, so the test harness spreads them over its threads. Each shard
//! pins its own counts, and [`shards_add_up_to_the_campaign_lines`]
//! checks that the shards cover the campaign and add up to its lines.

use std::ops::Range;

use defacto_fuzz::{run_kernels, CampaignConfig, FuzzReport};

/// The smoke campaign's summary and rejection lines.
const CAMPAIGN: [&str; 2] = [
    "fuzz: 300 kernels, 600 cases, 478 passed, 17294 oracle checks held",
    "rejected (typed): interp:2 lint:38 parse:70 structure:12",
];

/// One shard: its kernels, and the cases it passes, the oracle checks
/// that hold, and the typed rejections per stage.
struct Shard {
    kernels: Range<u64>,
    passed: usize,
    checks: u64,
    rejected: &'static [(&'static str, usize)],
}

const SHARDS: [Shard; 6] = [
    Shard {
        kernels: 0..50,
        passed: 72,
        checks: 2614,
        rejected: &[("lint", 8), ("parse", 16), ("structure", 4)],
    },
    Shard {
        kernels: 50..100,
        passed: 80,
        checks: 2896,
        rejected: &[("lint", 2), ("parse", 18)],
    },
    Shard {
        kernels: 100..150,
        passed: 84,
        checks: 3004,
        rejected: &[("lint", 6), ("parse", 10)],
    },
    Shard {
        kernels: 150..200,
        passed: 84,
        checks: 3046,
        rejected: &[("lint", 6), ("parse", 8), ("structure", 2)],
    },
    Shard {
        kernels: 200..250,
        passed: 74,
        checks: 2724,
        rejected: &[("lint", 10), ("parse", 10), ("structure", 6)],
    },
    Shard {
        kernels: 250..300,
        passed: 84,
        checks: 3010,
        rejected: &[("interp", 2), ("lint", 6), ("parse", 8)],
    },
];

/// The campaign `defacto fuzz --seed 7 --smoke` runs.
fn smoke_config() -> CampaignConfig {
    CampaignConfig {
        seed: 7,
        count: 300,
        max_points: 2,
        ..CampaignConfig::default()
    }
}

/// Run one shard and compare it with its pins; a mismatch is returned
/// with the shard's report.
fn run_shard(index: usize) -> Result<(), String> {
    let shard = &SHARDS[index];
    let report = run_kernels(&smoke_config(), shard.kernels.clone());
    if !report.is_clean() {
        return Err(report.render());
    }
    let rejected: Vec<(&str, usize)> = report
        .rejected
        .iter()
        .map(|(stage, &n)| (stage.as_str(), n))
        .collect();
    let got = (report.passed, report.checks, rejected.as_slice());
    let pinned = (shard.passed, shard.checks, shard.rejected);
    if got != pinned {
        return Err(format!(
            "kernels {:?} moved: {got:?}, pinned {pinned:?}",
            shard.kernels
        ));
    }
    Ok(())
}

#[test]
fn shard_0() -> Result<(), String> {
    run_shard(0)
}

#[test]
fn shard_1() -> Result<(), String> {
    run_shard(1)
}

#[test]
fn shard_2() -> Result<(), String> {
    run_shard(2)
}

#[test]
fn shard_3() -> Result<(), String> {
    run_shard(3)
}

#[test]
fn shard_4() -> Result<(), String> {
    run_shard(4)
}

#[test]
fn shard_5() -> Result<(), String> {
    run_shard(5)
}

#[test]
fn shards_add_up_to_the_campaign_lines() -> Result<(), String> {
    let config = smoke_config();
    let mut next = 0;
    let mut total = FuzzReport::default();
    for shard in &SHARDS {
        if shard.kernels.start != next {
            return Err(format!(
                "shard {:?} does not start at {next}",
                shard.kernels
            ));
        }
        next = shard.kernels.end;
        let kernels = (shard.kernels.end - shard.kernels.start) as usize;
        total.generated += kernels;
        total.runs += kernels * config.profiles.len();
        total.passed += shard.passed;
        total.checks += shard.checks;
        for &(stage, n) in shard.rejected {
            *total.rejected.entry(stage.to_string()).or_default() += n;
        }
    }
    if next != config.count as u64 {
        return Err(format!("shards end at {next}, not at {}", config.count));
    }
    let rendered = total.render();
    let lines: Vec<&str> = rendered.lines().take(2).collect();
    if lines != CAMPAIGN {
        return Err(format!("shards add up to {lines:?}, not {CAMPAIGN:?}"));
    }
    Ok(())
}
