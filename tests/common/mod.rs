//! Shared across integration suites: the pinned golden campaign table.
//!
//! One source of truth — `tests/golden.rs` checks every row in both
//! build profiles, and `tests/selfish.rs` asserts the behavior layer
//! leaves the all-honest rows untouched. Re-capture after an
//! *intentional* behavior change with:
//!
//! ```text
//! ETHMETER_BLESS=1 cargo test --test golden -- --nocapture
//! ```
//!
//! and paste the printed rows over the constants below.

use ethmeter::prelude::*;
use ethmeter::{RunStats, ScenarioBuilder};

/// One pinned campaign: (label, preset, seed, simulated minutes, digest).
pub const GOLDENS: [(&str, Preset, u64, u64, u64); 3] = [
    ("tiny-101", Preset::Tiny, 101, 5, 0x5663e369735821a8),
    ("tiny-202", Preset::Tiny, 202, 5, 0xd7a88da55ded6017),
    ("small-707", Preset::Small, 707, 5, 0xbdfa4b2f6ca4c301),
];

/// The digest pinned for one golden label.
///
/// # Panics
///
/// Panics if the label is not in [`GOLDENS`].
#[allow(dead_code)] // each test crate uses a different subset
pub fn digest(label: &str) -> u64 {
    GOLDENS
        .iter()
        .find(|(l, ..)| *l == label)
        .unwrap_or_else(|| panic!("no golden named {label}"))
        .4
}

/// A pinned [`RunStats`] in field order: messages, bytes,
/// blocks_produced, duplicates_produced, txs_submitted, imports,
/// blocks_withheld, blocks_released.
pub type StatsPin = [u64; 8];

/// The pinnable view of a run's counters (see [`StatsPin`]). Elided
/// transaction deliveries count as messages: `messages + tx_elided` is
/// what the simulator delivered before elision existed.
#[allow(dead_code)] // each test crate uses a different subset
pub fn stats_pin(s: &RunStats) -> StatsPin {
    [
        s.messages + s.tx_elided,
        s.bytes,
        s.blocks_produced,
        s.duplicates_produced,
        s.txs_submitted,
        s.imports,
        s.blocks_withheld,
        s.blocks_released,
    ]
}

/// One pinned behavior contract: a campaign, its fingerprint, and its
/// run counters. The table covers the [`GOLDENS`] rows plus campaigns
/// that reach the known-set eviction regime (small `known_txs_cap`), the
/// √-fanout transaction relay, and a partition script (links severed and
/// re-dialed mid-run).
#[allow(dead_code)] // each test crate uses a different subset
pub struct ContractRow {
    /// Row name.
    pub label: &'static str,
    /// The campaign at a given shard count.
    pub scenario: fn(usize) -> Scenario,
    /// `CampaignData::fingerprint()`.
    pub fingerprint: u64,
    /// The run counters, captured before elision existed.
    pub stats: StatsPin,
    /// `[tx_elided, events]`: which deliveries are elided is itself
    /// deterministic, so the split of `stats`' message count and the
    /// processed-event count are pinned too.
    pub elided: [u64; 2],
}

fn base(preset: Preset, seed: u64, mins: u64, shards: usize) -> ScenarioBuilder {
    Scenario::builder()
        .preset(preset)
        .seed(seed)
        .duration(SimDuration::from_mins(mins))
        .shards(shards)
}

fn with_net(b: ScenarioBuilder, f: impl FnOnce(&mut net::NetConfig)) -> ScenarioBuilder {
    let mut cfg = net::NetConfig::default();
    f(&mut cfg);
    b.net(cfg)
}

/// The pinned contract table. The two `-busy` rows (tx_rate 3, caught
/// mid-gossip when the cap is reached or the partition starts and heals)
/// are the ones that actually resurrect elided deliveries; their
/// fingerprints and stats were captured by running the code from before
/// elision existed.
#[allow(dead_code)] // each test crate uses a different subset
pub const CONTRACT: [ContractRow; 9] = [
    ContractRow {
        label: "tiny-101",
        scenario: |n| base(Preset::Tiny, 101, 5, n).build(),
        fingerprint: GOLDENS[0].4,
        stats: [389562, 130901440, 18, 0, 145, 1656, 0, 0],
        elided: [162342, 229543],
    },
    ContractRow {
        label: "tiny-202",
        scenario: |n| base(Preset::Tiny, 202, 5, n).build(),
        fingerprint: GOLDENS[1].4,
        stats: [426695, 144406665, 20, 1, 158, 1840, 0, 0],
        elided: [177516, 251699],
    },
    ContractRow {
        label: "small-707",
        scenario: |n| base(Preset::Small, 707, 5, n).build(),
        fingerprint: GOLDENS[2].4,
        stats: [1129503, 383191820, 11, 0, 282, 2002, 0, 0],
        elided: [482582, 649707],
    },
    ContractRow {
        label: "tiny-cap64",
        scenario: |n| with_net(base(Preset::Tiny, 303, 5, n), |c| c.known_txs_cap = 64).build(),
        fingerprint: 0x6176f1b6c7890846,
        stats: [400924, 146247839, 25, 0, 146, 2300, 0, 0],
        elided: [69188, 334863],
    },
    ContractRow {
        label: "small-cap200",
        scenario: |n| with_net(base(Preset::Small, 404, 5, n), |c| c.known_txs_cap = 200).build(),
        fingerprint: 0xb72309a1a7aebdec,
        stats: [1243544, 441311208, 23, 0, 294, 4186, 0, 0],
        elided: [348724, 900251],
    },
    ContractRow {
        label: "tiny-sqrt",
        scenario: |n| {
            with_net(base(Preset::Tiny, 505, 5, n), |c| {
                c.tx_relay = net::TxRelayPolicy::Sqrt
            })
            .build()
        },
        fingerprint: 0x7a9640019c4a739e,
        stats: [113302, 44138299, 16, 0, 172, 1472, 0, 0],
        elided: [5550, 109864],
    },
    ContractRow {
        label: "tiny-partition",
        scenario: |n| {
            let (east, west) = ethmeter::experiments::east_west_masks();
            let script = DynamicsScript::new().partition_window(
                SimTime::ZERO + SimDuration::from_secs(60),
                SimDuration::from_secs(90),
                east,
                west,
            );
            base(Preset::Tiny, 606, 5, n).dynamics(script).build()
        },
        fingerprint: 0x1260f5b0cda6a4ef,
        stats: [299814, 104117431, 26, 0, 132, 2168, 0, 0],
        elided: [121588, 181002],
    },
    ContractRow {
        label: "tiny-cap16-busy",
        scenario: |n| {
            with_net(base(Preset::Tiny, 4, 1, n).tx_rate(3.0), |c| {
                c.known_txs_cap = 16
            })
            .build()
        },
        fingerprint: 0x9982e4de3b147128,
        stats: [376946, 129956786, 3, 0, 156, 275, 0, 0],
        elided: [12203, 365345],
    },
    ContractRow {
        label: "tiny-partition-busy",
        scenario: |n| {
            let (east, west) = ethmeter::experiments::east_west_masks();
            let script = DynamicsScript::new().partition_window(
                SimTime::ZERO + SimDuration::from_secs(20),
                SimDuration::from_secs(20),
                east,
                west,
            );
            base(Preset::Tiny, 4, 1, n)
                .tx_rate(3.0)
                .dynamics(script)
                .build()
        },
        fingerprint: 0xc0503beecff93e52,
        stats: [293531, 98132756, 3, 0, 156, 275, 0, 0],
        elided: [129102, 165010],
    },
];
