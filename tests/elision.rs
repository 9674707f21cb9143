//! Elided transaction deliveries: redundant `Tx` deliveries resolved at
//! send time must leave every path through the simulator in agreement.
//! The pinned parent counters live in `tests/golden.rs`
//! (`contract_rows_match_their_pins`); this suite checks that fresh,
//! reused and sharded runs of random scenarios agree on the whole
//! contract tuple, in the regimes where elided deliveries must be
//! resurrected (known-set cap reached, links severed and re-dialed).

use std::cell::RefCell;

use ethmeter::experiments;
use ethmeter::net::{NetConfig, TxRelayPolicy};
use ethmeter::prelude::*;

/// `(fingerprint, RunStats, events)` of one run.
fn contract(o: &CampaignOutcome) -> (u64, ethmeter::RunStats, u64) {
    (o.campaign.fingerprint(), o.stats, o.events)
}

thread_local! {
    /// One runner reused across every case: each case's reused run
    /// follows a different scenario's campaign on the same world.
    static RUNNER: RefCell<CampaignRunner> = RefCell::new(CampaignRunner::new());
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random Tiny scenarios across the elision regimes: a fresh
        /// sequential run, a run on a reused runner, and a sharded run
        /// must produce the identical contract tuple.
        #[test]
        fn every_path_agrees_on_the_contract(
            seed in 0u64..1_000_000,
            cap_sel in 0u8..3,
            sqrt in 0u8..2,
            consensus_sel in 0u8..3,
            script_sel in 0u8..3,
            shards_sel in 0u8..2,
            secs in 60u64..150,
        ) {
            let net = NetConfig {
                known_txs_cap: [16, 64, 3000][cap_sel as usize],
                tx_relay: if sqrt == 1 { TxRelayPolicy::Sqrt } else { TxRelayPolicy::All },
                ..NetConfig::default()
            };
            let t = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
            let script = match script_sel {
                0 => DynamicsScript::new(),
                1 => {
                    let (east, west) = experiments::east_west_masks();
                    DynamicsScript::new().partition_window(t(secs / 4), SimDuration::from_secs(secs / 3), east, west)
                }
                _ => DynamicsScript::new().churn(
                    seed,
                    60,
                    0.2,
                    t(10),
                    SimDuration::from_secs(secs / 2),
                    SimDuration::from_secs(15),
                ),
            };
            let build = |shards: usize| {
                Scenario::builder()
                    .preset(Preset::Tiny)
                    .seed(seed)
                    .duration(SimDuration::from_secs(secs))
                    .net(net.clone())
                    .consensus(ConsensusKind::ALL[consensus_sel as usize])
                    .dynamics(script.clone())
                    .shards(shards)
                    .build()
            };
            let fresh = contract(&run_campaign(&build(1)));
            let reused = RUNNER.with(|r| contract(&r.borrow_mut().run(&build(1))));
            prop_assert_eq!(fresh, reused);
            let shards = [2usize, 4][shards_sel as usize];
            let sharded = contract(&run_campaign(&build(shards)));
            prop_assert_eq!(fresh, sharded);
        }
    }
}
