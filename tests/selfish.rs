//! Adversarial-mining integration: the selfish machine in the full
//! network simulation, honest-behavior golden identity, and the
//! Niu–Feng profitability-threshold monotonicity.

use ethmeter::experiments;
use ethmeter::mining::{PoolBehavior, PoolDirectory, SelfishConfig};
use ethmeter::prelude::*;

mod common;

fn tiny(seed: u64, mins: u64) -> ethmeter::ScenarioBuilder {
    Scenario::builder()
        .preset(Preset::Tiny)
        .seed(seed)
        .duration(SimDuration::from_mins(mins))
}

#[test]
fn explicit_honest_behavior_is_fingerprint_identical_to_goldens() {
    // Setting PoolBehavior::Honest on every pool must change nothing:
    // same digest as the default directory AND as the pinned golden.
    let mut pools = PoolDirectory::paper_dsn2020();
    for i in 0..pools.len() {
        let p = pools.pool_mut(ethmeter::types::PoolId(i as u16));
        assert_eq!(p.behavior, PoolBehavior::Honest, "default is honest");
        p.behavior = PoolBehavior::Honest;
    }
    let explicit = run_campaign(&tiny(101, 5).pools(pools).build())
        .campaign
        .fingerprint();
    let default = run_campaign(&tiny(101, 5).build()).campaign.fingerprint();
    assert_eq!(explicit, default);
    // The shared golden table (tests/common/mod.rs) is the source of
    // truth, so a blessed re-capture updates this assertion too.
    assert_eq!(
        explicit,
        common::digest("tiny-101"),
        "behavior layer broke the golden"
    );
}

#[test]
fn full_sim_attacker_withholds_and_releases() {
    let scenario = tiny(9, 12)
        .pools(PoolDirectory::attacker_vs_honest(
            0.40,
            6,
            SelfishConfig::classic(),
        ))
        .build();
    let outcome = run_campaign(&scenario);
    // The machine actually engaged: blocks were withheld at mint time and
    // published through fork-choice-time release events.
    assert!(
        outcome.stats.blocks_withheld > 0,
        "no withholding: {:?}",
        outcome.stats
    );
    assert!(
        outcome.stats.blocks_released > 0,
        "no releases: {:?}",
        outcome.stats
    );
    // Withholding at 40% hash power forks the chain visibly.
    let tree = &outcome.campaign.truth.tree;
    assert!(tree.len() as u64 > tree.head_number() + 1, "no fork blocks");
    // The revenue pipeline sees the attacker.
    let revenue = ethmeter::analysis::rewards::analyze(&outcome.campaign);
    let attacker = revenue
        .row(ethmeter::types::PoolId(0))
        .expect("attacker earned something");
    assert_eq!(attacker.name, "Attacker");
    assert!(attacker.blocks > 0);

    // Determinism: adversarial campaigns replay bit for bit.
    let again = run_campaign(&scenario);
    assert_eq!(outcome.stats, again.stats);
    assert_eq!(outcome.campaign.fingerprint(), again.campaign.fingerprint());
}

#[test]
fn stubborn_variant_runs_in_full_sim() {
    let scenario = tiny(5, 8)
        .pools(PoolDirectory::attacker_vs_honest(
            0.35,
            4,
            SelfishConfig::stubborn(0),
        ))
        .build();
    let outcome = run_campaign(&scenario);
    assert!(outcome.stats.blocks_withheld > 0);
    assert!(outcome.campaign.truth.tree.head_number() > 5);
}

#[test]
fn selfish_threshold_crosses_and_decreases_with_gamma() {
    // The acceptance grid: α × γ × seeds, chain-only for statistical
    // power. Deterministic per seed, so these assertions are exact
    // replays, not flaky statistics.
    let report = experiments::selfish_threshold(
        &[0.15, 0.20, 0.25, 0.30, 0.35],
        &[0.0, 0.5, 1.0],
        11,
        2,
        10_000,
    );
    // Every γ row crosses gain = 1 inside the α grid…
    let thresholds: Vec<f64> = (0..report.gammas.len())
        .map(|g| {
            report
                .threshold(g)
                .unwrap_or_else(|| panic!("gamma {} never crossed 1.0", report.gammas[g]))
        })
        .collect();
    // …the gain rises with α within each row at the profitable end…
    for row in &report.gain {
        assert!(
            row.last().expect("non-empty") > row.first().expect("non-empty"),
            "gain must grow with alpha: {row:?}"
        );
    }
    // …and the profitability threshold falls as γ rises (Niu–Feng's
    // headline shape): monotone non-increasing, strictly lower overall.
    for pair in thresholds.windows(2) {
        assert!(
            pair[1] <= pair[0] + 1e-9,
            "thresholds must not increase with gamma: {thresholds:?}"
        );
    }
    assert!(
        thresholds[2] < thresholds[0] - 0.02,
        "gamma must materially lower the threshold: {thresholds:?}"
    );
}

/// Uncle-GHOST can adopt a public head *below* the selfish pool's
/// private base (a heavier subtree at a lower height). The machine must
/// treat that as "nothing to match" instead of underflowing the height
/// difference — this campaign used to panic mid-run.
#[test]
fn uncle_ghost_head_below_the_private_base_does_not_panic() {
    let mut scenario = Scenario::builder()
        .preset(Preset::Small)
        .seed(2)
        .duration(SimDuration::from_mins(30))
        .pools(PoolDirectory::attacker_vs_honest(
            0.3,
            3,
            SelfishConfig::classic(),
        ))
        .consensus(ConsensusKind::UncleGhost)
        .interblock(SimDuration::from_secs(3))
        .build();
    scenario.set_tx_rate(0.05);
    let outcome = run_campaign(&scenario);
    assert!(outcome.stats.blocks_withheld > 0, "{:?}", outcome.stats);
    assert!(outcome.campaign.truth.tree.head_number() > 0);
}
