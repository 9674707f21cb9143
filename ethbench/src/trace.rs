//! The outside-in tracer: a [`World`] wrapper that times every
//! `SimWorld::handle` call by event kind and message kind, and counts
//! first receptions from the event payloads.
//!
//! Nothing inside the simulator changes. The wrapper forwards each event
//! to the wrapped world unchanged, so a traced campaign's contract tuple
//! (fingerprint, `RunStats`, event count) equals the untraced one's; the
//! benchmark asserts that on every traced campaign.

use std::time::Instant;

use ethmeter_core::measure::CampaignData;
use ethmeter_core::net::Message;
use ethmeter_core::sim::engine::Scheduler;
use ethmeter_core::sim::{Engine, World};
use ethmeter_core::types::{FxHashMap, NodeId, SimTime};
use ethmeter_core::world::Event;
use ethmeter_core::{CampaignOutcome, Scenario, SimWorld};

/// Metric prefix of each traced event kind, `<layer>.<kind>`. Index =
/// the value [`kind_of`] returns.
pub const KINDS: [&str; 16] = [
    "net.deliver_tx",
    "net.deliver_transactions",
    "net.deliver_announce",
    "net.deliver_newblock",
    "net.deliver_getblock",
    "net.deliver_blockbody",
    "chain.import_done",
    "chain.fetch_timeout",
    "mining.pool_solve",
    "mining.pool_retarget",
    "mining.inject_block",
    "mining.pool_release",
    "workload.next_submission",
    "workload.inject_tx",
    "dynamics.script",
    "dynamics.flood_tick",
];

const SLOTS: usize = KINDS.len();

/// The tracer slot of an event.
pub fn kind_of(event: &Event) -> usize {
    match event {
        Event::Deliver { msg, .. } => match msg {
            Message::Tx(_) => 0,
            Message::Transactions(_) => 1,
            Message::Announce(_) => 2,
            Message::NewBlock(_) => 3,
            Message::GetBlock(_) => 4,
            Message::BlockBody(_) => 5,
        },
        Event::ImportDone { .. } => 6,
        Event::FetchTimeout { .. } => 7,
        Event::PoolSolve { .. } => 8,
        Event::PoolRetarget { .. } => 9,
        Event::InjectBlock { .. } => 10,
        Event::PoolRelease { .. } => 11,
        Event::NextSubmission => 12,
        Event::InjectTx { .. } => 13,
        Event::Dynamics { .. } => 14,
        Event::FloodTick => 15,
    }
}

/// Per-kind handler counts and self times, plus the reception counts
/// behind the useful-delivery ratios. Tables add up across campaigns and
/// worker threads.
#[derive(Debug, Clone, Default)]
pub struct LayerTable {
    /// Handler calls per slot.
    pub events: [u64; SLOTS],
    /// Handler self time per slot, nanoseconds.
    pub nanos: [u64; SLOTS],
    /// Wall time inside `Engine::run_until`, nanoseconds.
    pub run_nanos: u64,
    /// Time the tracer spent on its own bookkeeping, nanoseconds.
    pub bookkeeping_nanos: u64,
    /// Transaction receptions (a `Transactions` batch counts per tx).
    pub tx_receptions: u64,
    /// Receptions of a tx the receiver had not received before.
    pub tx_first: u64,
    /// Block-bearing receptions (`NewBlock`, `BlockBody`).
    pub block_receptions: u64,
    /// Block-bearing receptions of a block new to the receiver.
    pub block_first: u64,
}

impl LayerTable {
    /// Adds another table's counts into this one.
    pub fn merge(&mut self, other: &LayerTable) {
        for k in 0..SLOTS {
            self.events[k] += other.events[k];
            self.nanos[k] += other.nanos[k];
        }
        self.run_nanos += other.run_nanos;
        self.bookkeeping_nanos += other.bookkeeping_nanos;
        self.tx_receptions += other.tx_receptions;
        self.tx_first += other.tx_first;
        self.block_receptions += other.block_receptions;
        self.block_first += other.block_first;
    }

    /// Handler calls over every slot.
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }

    /// Handler self time over every slot, nanoseconds.
    pub fn handler_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// `Deliver` events over every message kind.
    pub fn deliveries(&self) -> u64 {
        self.events[..6].iter().sum()
    }
}

/// Receptions buffered before they are matched against the seen sets.
const FLUSH_AT: usize = 1 << 16;

/// First-reception bookkeeping: per node, one bit per interned tx or
/// block.
#[derive(Default)]
struct Seen {
    slots: FxHashMap<u64, u32>,
    bits: Vec<Vec<u64>>,
}

impl Seen {
    /// Marks `id` as received by `node`; true if it was not yet.
    fn insert(&mut self, node: NodeId, id: u64) -> bool {
        let next = self.slots.len() as u32;
        let slot = *self.slots.entry(id).or_insert(next) as usize;
        if self.bits.len() <= node.index() {
            self.bits.resize_with(node.index() + 1, Vec::new);
        }
        let row = &mut self.bits[node.index()];
        if row.len() <= slot / 64 {
            row.resize(slot / 64 + 1, 0);
        }
        let (word, bit) = (&mut row[slot / 64], 1u64 << (slot % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.bits.iter_mut().for_each(Vec::clear);
    }
}

/// A [`SimWorld`] whose every `handle` call is timed and classified.
///
/// Per event the tracer reads the clock twice, around the wrapped
/// `handle`. Receptions are buffered and matched against the seen sets
/// in batches whose time is counted as bookkeeping, so neither handler
/// self time nor loop time absorbs it.
pub struct Traced {
    /// The wrapped world, driven exactly as the engine would drive it.
    pub world: SimWorld,
    table: LayerTable,
    /// Buffered `(receiver, is_block, tx id or block hash)` receptions.
    pending: Vec<(NodeId, bool, u64)>,
    seen_txs: Seen,
    seen_blocks: Seen,
}

impl Traced {
    /// Wraps a freshly built world.
    pub fn new(world: SimWorld) -> Self {
        Traced {
            world,
            table: LayerTable::default(),
            pending: Vec::with_capacity(FLUSH_AT),
            seen_txs: Seen::default(),
            seen_blocks: Seen::default(),
        }
    }

    /// Forgets the receptions seen so far (a new campaign starts).
    pub fn forget_receptions(&mut self) {
        self.pending.clear();
        self.seen_txs.clear();
        self.seen_blocks.clear();
    }

    /// Hands out the counters and starts a fresh table.
    pub fn take_table(&mut self) -> LayerTable {
        self.flush();
        std::mem::take(&mut self.table)
    }

    fn buffer_receptions(&mut self, event: &Event) {
        let Event::Deliver { to, msg, .. } = event else {
            return;
        };
        match msg {
            Message::Tx(id) => self.pending.push((*to, false, id.0)),
            Message::Transactions(ids) => {
                self.pending
                    .extend(ids.iter().map(|&id| (*to, false, id.0)));
            }
            Message::NewBlock(h) | Message::BlockBody(h) => self.pending.push((*to, true, h.0)),
            Message::Announce(_) | Message::GetBlock(_) => {}
        }
    }

    fn flush(&mut self) {
        let start = Instant::now();
        let t = &mut self.table;
        for &(to, is_block, id) in &self.pending {
            if is_block {
                t.block_receptions += 1;
                t.block_first += u64::from(self.seen_blocks.insert(to, id));
            } else {
                t.tx_receptions += 1;
                t.tx_first += u64::from(self.seen_txs.insert(to, id));
            }
        }
        self.pending.clear();
        t.bookkeeping_nanos += start.elapsed().as_nanos() as u64;
    }
}

impl World for Traced {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
        let kind = kind_of(&event);
        self.buffer_receptions(&event);
        if self.pending.len() >= FLUSH_AT {
            self.flush();
        }
        let start = Instant::now();
        self.world.handle(now, event, sched);
        self.table.nanos[kind] += start.elapsed().as_nanos() as u64;
        self.table.events[kind] += 1;
    }
}

/// Wall seconds of the public phases of one traced campaign.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// `SimWorld::new` (or `SimWorld::reset` on a reused world).
    pub build_s: f64,
    /// `SimWorld::initial_events` plus scheduling them.
    pub initial_s: f64,
    /// `Engine::run_until`.
    pub run_s: f64,
    /// `into_campaign` / `take_campaign`.
    pub extract_s: f64,
}

impl Phases {
    /// Build + prime + run + extract.
    pub fn total_s(&self) -> f64 {
        self.build_s + self.initial_s + self.run_s + self.extract_s
    }
}

/// One traced campaign: its outcome, phase times and layer counters.
pub struct TracedCampaign {
    /// What `run_campaign` would have returned.
    pub outcome: CampaignOutcome,
    /// Wall seconds per public phase.
    pub phases: Phases,
    /// The campaign's per-layer counters.
    pub table: LayerTable,
}

/// A reusable traced worker: one engine around one [`Traced`] world,
/// reset between campaigns — the traced mirror of `CampaignRunner`.
#[derive(Default)]
pub struct TracedRunner {
    engine: Option<Engine<Traced>>,
}

impl TracedRunner {
    /// A runner with no world yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs one campaign through the public phases, reusing the previous
    /// campaign's world when `reuse` is set (`reset` + `take_campaign`)
    /// and building a fresh one otherwise (`new` + `into_campaign`).
    ///
    /// # Errors
    ///
    /// Returns a message when the per-kind event counts do not sum to
    /// `Engine::processed`, or the `Deliver` events to `RunStats.messages`.
    pub fn run(&mut self, scenario: &Scenario, reuse: bool) -> Result<TracedCampaign, String> {
        let mut phases = Phases::default();
        let t = Instant::now();
        let engine = match (reuse, self.engine.as_mut()) {
            (true, Some(engine)) => {
                engine.reset();
                engine.world_mut().world.reset(scenario);
                engine
            }
            _ => self
                .engine
                .insert(Engine::new(Traced::new(SimWorld::new(scenario)))),
        };
        engine.world_mut().forget_receptions();
        phases.build_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        for (at, ev) in engine.world_mut().world.initial_events() {
            engine.schedule(at, ev);
        }
        phases.initial_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        engine.run_until(SimTime::ZERO + scenario.duration);
        let run = t.elapsed();
        phases.run_s = run.as_secs_f64();

        let mut table = engine.world_mut().take_table();
        table.run_nanos = run.as_nanos() as u64;
        let (stats, events) = (engine.world().world.stats, engine.processed());

        let t = Instant::now();
        let campaign: CampaignData = if reuse {
            engine.world_mut().world.take_campaign(scenario.duration)
        } else {
            let engine = self.engine.take().expect("engine built above");
            engine.into_world().world.into_campaign(scenario.duration)
        };
        phases.extract_s = t.elapsed().as_secs_f64();

        if table.total_events() != events {
            return Err(format!(
                "per-kind events sum to {} but the engine processed {events}",
                table.total_events()
            ));
        }
        if table.deliveries() != stats.messages {
            return Err(format!(
                "{} Deliver events but RunStats.messages = {}",
                table.deliveries(),
                stats.messages
            ));
        }
        Ok(TracedCampaign {
            outcome: CampaignOutcome {
                campaign,
                stats,
                events,
            },
            phases,
            table,
        })
    }
}
