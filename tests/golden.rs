//! Golden determinism fingerprints.
//!
//! Each pinned constant is the [`CampaignData::fingerprint`] digest of one
//! fully specified campaign (preset + seed + duration), captured from the
//! seed implementation *before* the dense-state hot-path rewrite. Any
//! change to gossip decisions, RNG stream consumption, event ordering, or
//! observer recording shifts these digests — so a performance refactor
//! that is supposed to be behavior-preserving must leave every constant
//! untouched.
//!
//! If a change is *intended* to alter campaign behavior (a model fix, a
//! calibration change), re-capture with:
//!
//! ```text
//! ETHMETER_BLESS=1 cargo test --test golden -- --nocapture
//! ```
//!
//! and update the constants in `tests/common/mod.rs` (the one shared
//! golden table), explaining the behavioral change in the commit message.

use ethmeter::prelude::*;

mod common;
use common::{stats_pin, CONTRACT, GOLDENS};

fn scenario(preset: Preset, seed: u64, mins: u64) -> Scenario {
    Scenario::builder()
        .preset(preset)
        .seed(seed)
        .duration(SimDuration::from_mins(mins))
        .build()
}

#[test]
fn campaign_fingerprints_match_goldens() {
    let bless = std::env::var_os("ETHMETER_BLESS").is_some();
    let mut failures = Vec::new();
    for &(label, preset, seed, mins, expected) in &GOLDENS {
        let got = run_campaign(&scenario(preset, seed, mins))
            .campaign
            .fingerprint();
        if bless {
            println!("(\"{label}\", Preset::{preset:?}, {seed}, {mins}, {got:#018x}),");
        } else if got != expected {
            failures.push(format!(
                "{label}: fingerprint {got:#018x}, pinned {expected:#018x}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "campaign output diverged from the pinned goldens:\n  {}\n\
         (ETHMETER_BLESS=1 re-captures; only bless intentional behavior changes)",
        failures.join("\n  ")
    );
}

#[test]
fn sharded_campaigns_match_the_sequential_goldens() {
    // The parallel engine must land on the *same* pinned digests as the
    // sequential reference at every shard count — the goldens are
    // shard-count-invariant, not merely reproducible per count.
    for &(label, preset, seed, mins, expected) in &GOLDENS {
        for shards in [2, 4, 8] {
            let s = Scenario::builder()
                .preset(preset)
                .seed(seed)
                .duration(SimDuration::from_mins(mins))
                .shards(shards)
                .build();
            let got = run_campaign(&s).campaign.fingerprint();
            assert_eq!(
                got, expected,
                "{label} at {shards} shards: fingerprint {got:#018x}, pinned {expected:#018x}"
            );
        }
    }
}

#[test]
fn fingerprint_is_reproducible_and_seed_sensitive() {
    let s = scenario(Preset::Tiny, 101, 5);
    let a = run_campaign(&s).campaign.fingerprint();
    let b = run_campaign(&s).campaign.fingerprint();
    assert_eq!(a, b, "same scenario, same digest");
    let c = run_campaign(&scenario(Preset::Tiny, 102, 5))
        .campaign
        .fingerprint();
    assert_ne!(a, c, "different seeds must diverge");
}

/// The widened contract: every row's fingerprint *and* run counters are
/// pinned (plus the elided-delivery count and processed events),
/// sequentially and at 2/4/8 shards, and the sharded event count equals
/// the sequential one. The rows past the goldens reach the
/// known-set eviction regime, the √-fanout relay, and a partition script.
#[test]
fn contract_rows_match_their_pins() {
    let bless = std::env::var_os("ETHMETER_BLESS").is_some();
    let mut failures = Vec::new();
    for row in &CONTRACT {
        let sequential = run_campaign(&(row.scenario)(1));
        let (fp, stats) = (
            sequential.campaign.fingerprint(),
            stats_pin(&sequential.stats),
        );
        let elided = [sequential.stats.tx_elided, sequential.events];
        if bless {
            println!(
                "{}: fingerprint {fp:#018x}, stats {stats:?}, elided {elided:?}",
                row.label
            );
            continue;
        }
        if (fp, stats, elided) != (row.fingerprint, row.stats, row.elided) {
            failures.push(format!(
                "{}: ({fp:#018x}, {stats:?}, {elided:?}), pinned ({:#018x}, {:?}, {:?})",
                row.label, row.fingerprint, row.stats, row.elided
            ));
        }
        for shards in [2, 4, 8] {
            let sharded = run_campaign(&(row.scenario)(shards));
            if sharded.campaign.fingerprint() != fp
                || sharded.stats != sequential.stats
                || sharded.events != sequential.events
            {
                failures.push(format!(
                    "{} at {shards} shards: ({:#018x}, {:?}, {}), sequential ({fp:#018x}, {:?}, {})",
                    row.label,
                    sharded.campaign.fingerprint(),
                    sharded.stats,
                    sharded.events,
                    sequential.stats,
                    sequential.events
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "contract rows diverged:\n  {}",
        failures.join("\n  ")
    );
}
