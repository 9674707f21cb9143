//! The per-node protocol state machine.
//!
//! A [`Node`] makes Geth-1.8's gossip decisions: push full blocks to
//! √(peers) immediately on arrival (before import), announce to the rest
//! after import, fetch announced blocks with timeout fallback, and relay
//! fresh transactions. It returns the [`Send`]s it wants performed; the
//! simulation driver applies link latency and schedules delivery, keeping
//! this type synchronous and unit-testable.
//!
//! Hot-path layout: all per-peer and per-artifact state is dense. Blocks
//! and transactions arrive with their campaign-interned slots
//! ([`BlockIdx`]/[`TxIdx`], issued by the driver's registries at creation
//! time), peers are addressed by connection position, and the
//! known/seen/pending sets are `Vec`-indexed slabs and flat probe tables
//! ([`DenseKnownSet`]) — no `BlockHash`- or `NodeId`-keyed hash maps
//! anywhere on the per-message path. Wire messages still carry real
//! hashes; slots never leave the process.
//!
//! Handlers are allocation-free in steady state: every handler appends
//! its outgoing messages to a caller-owned `Vec<Send>` (the driver
//! recycles one buffer across all events), message payloads inline their
//! one-or-two ids
//! ([`crate::message::AnnounceList`]/[`crate::message::TxBatch`]), and
//! all intermediate candidate lists live in per-node scratch buffers.

use std::sync::Arc;

use ethmeter_chain::block::Block;
use ethmeter_chain::consensus::Consensus;
use ethmeter_chain::tx::Transaction;
use ethmeter_chain::uncles::UnclePolicy;
use ethmeter_geo::BandwidthClass;
use ethmeter_sim::Xoshiro256;
use ethmeter_types::{BlockHash, BlockIdx, NodeId, Region, TxId, TxIdx};

use crate::config::{NetConfig, TxRelayPolicy};
use crate::headerview::{HeaderInsert, HeaderView};
use crate::known::{DenseKnownSet, PeerKnownSet};
use crate::message::{AnnounceList, Message, TxBatch};
use ethmeter_txpool::Mempool;

/// An outgoing message the driver must deliver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Send {
    /// Destination peer.
    pub to: NodeId,
    /// Payload.
    pub msg: Message,
}

/// Whether the node wants an import scheduled after validation latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImportAction {
    /// Schedule `on_import_complete` for this block after validation time.
    Schedule(BlockIdx),
    /// Nothing to do (duplicate or unwanted).
    None,
}

#[derive(Debug, Clone)]
struct FetchState {
    announcers: Vec<NodeId>,
    tried: usize,
}

/// Sentinel in the `NodeId → peer position` table for non-peers.
const NO_PEER: u32 = u32::MAX;

/// Why a runtime link add was rejected (see [`Node::try_add_link`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkError {
    /// Both endpoints are the same node.
    SelfLink,
    /// The link already exists.
    Duplicate,
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::SelfLink => write!(f, "self-link"),
            LinkError::Duplicate => write!(f, "duplicate link"),
        }
    }
}

impl std::error::Error for LinkError {}

/// A network node: peer links, chain view, gossip state, and (for miner
/// gateways) a mempool.
#[derive(Debug)]
pub struct Node {
    id: NodeId,
    region: Region,
    bandwidth: BandwidthClass,
    peers: Vec<NodeId>,
    /// `peer_pos[node]` = position of `node` in `peers` (slab key for the
    /// per-peer state below), or [`NO_PEER`].
    peer_pos: Vec<u32>,
    /// Per-peer known-block sets, by peer position, keyed by [`BlockIdx`].
    peer_known_blocks: Vec<DenseKnownSet>,
    /// Per-peer known-tx sets, by peer position, keyed by [`TxIdx`] —
    /// one key-major bitmap family (see [`PeerKnownSet`]): transaction
    /// floods touch every peer's bit for the same recent key, so the
    /// shared rows keep those operations on hot cache lines.
    peer_known_txs: PeerKnownSet,
    chain: HeaderView,
    /// Transactions this node has seen, keyed by [`TxIdx`] — a
    /// single-member [`PeerKnownSet`], so membership bits of consecutive
    /// recent transactions share cache lines.
    seen_txs: PeerKnownSet,
    /// Blocks whose body this node holds (or is importing), keyed by
    /// [`BlockIdx`].
    have_body: DenseKnownSet,
    /// Blocks with a scheduled import: `(slot, provenance)`. In-flight
    /// imports are at most a handful, so a flat vector with linear probes
    /// beats any hashed structure.
    import_pending: Vec<(BlockIdx, Option<NodeId>)>,
    /// Blocks currently being fetched (same flat-vector reasoning).
    fetching: Vec<(BlockIdx, FetchState)>,
    mempool: Option<Mempool>,
    /// A cleared mempool parked here across [`Node::reset`] so a node
    /// that is a gateway again next campaign reuses the allocation.
    spare_mempool: Option<Mempool>,
    /// Reusable relay-candidate buffer of `(peer position, peer)` pairs
    /// (cleared per call; never observable). Carrying the position avoids
    /// a `peer_pos` lookup per send in the fan-out loops.
    scratch: Vec<(u32, NodeId)>,
    /// Second reusable buffer for fanout sampling (swapped with `scratch`).
    scratch_picks: Vec<(u32, NodeId)>,
    /// Reusable buffer for sampled fan-out indices.
    scratch_idx: Vec<usize>,
    /// Reusable `(slot, id)` buffer of fresh transactions per batch.
    scratch_fresh: Vec<(TxIdx, TxId)>,
}

impl Node {
    /// Creates a node rooted at `genesis`, with fork choice driven by
    /// `consensus`.
    pub fn new(
        id: NodeId,
        region: Region,
        bandwidth: BandwidthClass,
        genesis: BlockHash,
        cfg: &NetConfig,
        consensus: Arc<dyn Consensus>,
    ) -> Self {
        Node {
            id,
            region,
            bandwidth,
            peers: Vec::new(),
            peer_pos: Vec::new(),
            peer_known_blocks: Vec::new(),
            peer_known_txs: PeerKnownSet::new(),
            chain: HeaderView::with_consensus(genesis, cfg.header_window, consensus),
            seen_txs: {
                let mut seen = PeerKnownSet::new();
                seen.add_peer(cfg.known_txs_cap);
                seen
            },
            have_body: DenseKnownSet::with_capacity(4 * cfg.header_window as usize),
            import_pending: Vec::new(),
            fetching: Vec::new(),
            mempool: None,
            spare_mempool: None,
            scratch: Vec::new(),
            scratch_picks: Vec::new(),
            scratch_idx: Vec::new(),
            scratch_fresh: Vec::new(),
        }
    }

    /// Rewinds the node to the state `Node::new(id, region, bandwidth,
    /// genesis, cfg, consensus)` would build, keeping every allocation:
    /// peer slabs, per-peer known-set tables (reused by the next
    /// [`Node::try_add_link`] calls), the header view's maps, and the
    /// mempool (if re-enabled). Campaign-over-campaign behavior is
    /// identical to a fresh node.
    pub fn reset(
        &mut self,
        id: NodeId,
        region: Region,
        bandwidth: BandwidthClass,
        genesis: BlockHash,
        cfg: &NetConfig,
        consensus: Arc<dyn Consensus>,
    ) {
        self.id = id;
        self.region = region;
        self.bandwidth = bandwidth;
        self.peers.clear();
        self.peer_pos.clear();
        // peer_known_blocks intentionally keeps its (stale) sets;
        // `try_add_link` re-initializes slot `pos` before `peers` grows
        // past it, so stale state is never reachable.
        self.peer_known_txs.clear();
        self.chain.reset_with(genesis, cfg.header_window, consensus);
        self.seen_txs.clear();
        self.seen_txs.add_peer(cfg.known_txs_cap);
        self.have_body.reset(4 * cfg.header_window as usize);
        self.import_pending.clear();
        self.fetching.clear();
        if let Some(mut pool) = self.mempool.take() {
            pool.clear();
            self.spare_mempool = Some(pool);
        }
        self.scratch.clear();
        self.scratch_picks.clear();
        self.scratch_idx.clear();
        self.scratch_fresh.clear();
    }

    /// The node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's region.
    pub fn region(&self) -> Region {
        self.region
    }

    /// The node's access-link class.
    pub fn bandwidth(&self) -> BandwidthClass {
        self.bandwidth
    }

    /// The node's header view of the chain.
    pub fn chain(&self) -> &HeaderView {
        &self.chain
    }

    /// Connected peers, in connection order.
    pub fn peers(&self) -> &[NodeId] {
        &self.peers
    }

    /// Attaches a mempool (miner gateways and any node that should track
    /// executable transactions).
    pub fn enable_mempool(&mut self) {
        if self.mempool.is_none() {
            self.mempool = Some(self.spare_mempool.take().unwrap_or_default());
        }
    }

    /// The node's mempool, if enabled.
    pub fn mempool(&self) -> Option<&Mempool> {
        self.mempool.as_ref()
    }

    /// Registers a bidirectional link (the driver calls this on both
    /// ends). This is the only link-add path: a malformed link — self-link
    /// or duplicate — surfaces a structured [`LinkError`] instead of
    /// panicking, whether it comes from topology construction or from the
    /// runtime join/heal path inside a shard worker.
    pub fn try_add_link(&mut self, peer: NodeId, cfg: &NetConfig) -> Result<(), LinkError> {
        if peer == self.id {
            return Err(LinkError::SelfLink);
        }
        if self.pos_of(peer).is_some() {
            return Err(LinkError::Duplicate);
        }
        if self.peer_pos.len() <= peer.index() {
            self.peer_pos.resize(peer.index() + 1, NO_PEER);
        }
        let pos = self.peers.len();
        self.peer_pos[peer.index()] = pos as u32;
        self.peers.push(peer);
        // Reuse a known-set left behind by `reset`, if one exists at this
        // slab position; otherwise grow the slab.
        match self.peer_known_blocks.get_mut(pos) {
            Some(set) => set.reset(cfg.known_blocks_cap),
            None => self
                .peer_known_blocks
                .push(DenseKnownSet::with_capacity(cfg.known_blocks_cap)),
        }
        let tx_pos = self.peer_known_txs.add_peer(cfg.known_txs_cap);
        debug_assert_eq!(tx_pos, pos, "peer slabs advance in lockstep");
        Ok(())
    }

    /// True if `peer` is currently linked.
    #[inline]
    pub fn is_peer(&self, peer: NodeId) -> bool {
        self.pos_of(peer).is_some()
    }

    /// Tears down the link to `peer`, dropping its per-link gossip state
    /// (known-blocks set, known-txs bits) without disturbing any other
    /// link's state. Returns `false` if no such link exists.
    ///
    /// In-flight fetch/announce bookkeeping may still name the departed
    /// peer; the driver drops sends addressed to non-peers, and arrivals
    /// from non-peers are already tolerated as no-ops.
    pub fn disconnect(&mut self, peer: NodeId) -> bool {
        let Some(pos) = self.pos_of(peer) else {
            return false;
        };
        let last = self.peers.len() - 1;
        self.peer_pos[peer.index()] = NO_PEER;
        self.peers.swap_remove(pos);
        if pos != last {
            let moved = self.peers[pos];
            self.peer_pos[moved.index()] = pos as u32;
        }
        // Park the severed link's (now stale) block set at the slab tail
        // for reuse by a future `connect` — the same reuse contract
        // `reset` relies on; `connect` re-initializes slot `pos` before
        // `peers` grows past it.
        self.peer_known_blocks.swap(pos, last);
        self.peer_known_txs.remove_peer(pos);
        true
    }

    /// True if a `Tx(idx)` arriving from `peer` now would change
    /// nothing: this node has already seen the transaction and its
    /// known-tx row for `peer` already marks it (both inserts of
    /// [`Node::on_transactions`] would be no-ops). False when `peer` is
    /// not linked. Read-only; the simulation world uses it to resolve
    /// redundant deliveries at send time.
    #[inline]
    pub fn knows_tx_from(&self, peer: NodeId, idx: TxIdx) -> bool {
        self.seen_txs.contains(0, idx.raw())
            && self
                .pos_of(peer)
                .is_some_and(|p| self.peer_known_txs.contains(p, idx.raw()))
    }

    /// Degree of this node.
    pub fn degree(&self) -> usize {
        self.peers.len()
    }

    /// The slab position of `peer`, if connected.
    #[inline]
    fn pos_of(&self, peer: NodeId) -> Option<usize> {
        match self.peer_pos.get(peer.index()) {
            Some(&p) if p != NO_PEER => Some(p as usize),
            _ => None,
        }
    }

    #[inline]
    fn mark_peer_knows_block(&mut self, peer: NodeId, idx: BlockIdx) {
        if let Some(p) = self.pos_of(peer) {
            self.peer_known_blocks[p].insert(idx.raw());
        }
    }

    #[inline]
    fn peer_knows_block(&self, pos: usize, idx: BlockIdx) -> bool {
        self.peer_known_blocks[pos].contains(idx.raw())
    }

    #[inline]
    fn pending_provenance(&mut self, idx: BlockIdx) -> Option<Option<NodeId>> {
        self.import_pending
            .iter()
            .position(|&(i, _)| i == idx)
            .map(|at| self.import_pending.swap_remove(at).1)
    }

    #[inline]
    fn is_import_pending(&self, idx: BlockIdx) -> bool {
        self.import_pending.iter().any(|&(i, _)| i == idx)
    }

    /// Handles a full block arriving — by unsolicited push (`NewBlock`),
    /// fetch response (`BlockBody`), or local mining (`from = None`).
    ///
    /// `idx` is the block's campaign-interned slot (from the driver's
    /// registry). Appends the immediate relays (full-block pushes to
    /// √(peers)) to `out` and returns whether to schedule an import.
    pub fn on_block_arrival(
        &mut self,
        from: Option<NodeId>,
        block: &Block,
        idx: BlockIdx,
        cfg: &NetConfig,
        rng: &mut Xoshiro256,
        out: &mut Vec<Send>,
    ) -> ImportAction {
        let hash = block.hash();
        if let Some(p) = from {
            self.mark_peer_knows_block(p, idx);
        }
        if let Some(at) = self.fetching.iter().position(|(i, _)| *i == idx) {
            self.fetching.swap_remove(at);
        }
        if self.have_body.contains(idx.raw())
            || self.chain.contains(hash)
            || self.is_import_pending(idx)
        {
            return ImportAction::None;
        }
        self.have_body.insert(idx.raw());

        // Relay policy: push recent (head-candidate) blocks; optionally
        // also side blocks within the relay window.
        let head_number = self.chain.head_number();
        let improves = block.number() > head_number;
        let recent = block.number() + cfg.relay_window > head_number;
        let relay = improves || (cfg.relay_non_head && recent);

        if relay {
            self.scratch.clear();
            for pos in 0..self.peers.len() {
                let p = self.peers[pos];
                if Some(p) != from && !self.peer_knows_block(pos, idx) {
                    self.scratch.push((pos as u32, p));
                }
            }
            // Locally produced blocks (miner gateways) are pushed to every
            // peer: pool gateway software floods its own blocks to minimize
            // orphan risk, unlike vanilla Geth's sqrt relay.
            let fanout = if from.is_none() {
                self.scratch.len()
            } else {
                cfg.push_fanout(self.peers.len()).min(self.scratch.len())
            };
            let n_candidates = self.scratch.len();
            rng.sample_indices_into(n_candidates, fanout, &mut self.scratch_idx);
            out.reserve(self.scratch_idx.len());
            for t in 0..self.scratch_idx.len() {
                let (pos, peer) = self.scratch[self.scratch_idx[t]];
                self.peer_known_blocks[pos as usize].insert(idx.raw());
                out.push(Send {
                    to: peer,
                    msg: Message::NewBlock(hash),
                });
            }
        }
        self.import_pending.push((idx, from));
        ImportAction::Schedule(idx)
    }

    /// Handles a `NewBlockHashes` announcement: fetch unknown blocks from
    /// the announcer (Geth's fetcher). Entries pair each announced hash
    /// with its interned slot. Requests are appended to `out`.
    pub fn on_announce(
        &mut self,
        from: NodeId,
        hashes: &[(BlockHash, BlockIdx)],
        out: &mut Vec<Send>,
    ) {
        for &(hash, idx) in hashes {
            self.mark_peer_knows_block(from, idx);
            if self.have_body.contains(idx.raw())
                || self.chain.contains(hash)
                || self.is_import_pending(idx)
            {
                continue;
            }
            match self.fetching.iter_mut().find(|(i, _)| *i == idx) {
                Some((_, f)) => {
                    if !f.announcers.contains(&from) {
                        f.announcers.push(from);
                    }
                }
                None => {
                    self.fetching.push((
                        idx,
                        FetchState {
                            announcers: vec![from],
                            tried: 1,
                        },
                    ));
                    out.push(Send {
                        to: from,
                        msg: Message::GetBlock(hash),
                    });
                }
            }
        }
    }

    /// Fetch timeout: re-request from the next announcer, or give up.
    ///
    /// Appends the re-request (if any) to `out`; the driver should re-arm
    /// the timeout when a request goes out.
    pub fn on_fetch_timeout(&mut self, hash: BlockHash, idx: BlockIdx, out: &mut Vec<Send>) {
        if self.have_body.contains(idx.raw()) || self.chain.contains(hash) {
            if let Some(at) = self.fetching.iter().position(|(i, _)| *i == idx) {
                self.fetching.swap_remove(at);
            }
            return;
        }
        let Some(at) = self.fetching.iter().position(|(i, _)| *i == idx) else {
            return;
        };
        let f = &mut self.fetching[at].1;
        if f.tried < f.announcers.len() {
            let next = f.announcers[f.tried];
            f.tried += 1;
            out.push(Send {
                to: next,
                msg: Message::GetBlock(hash),
            });
        } else {
            // Out of announcers: give up; a push may still deliver it.
            self.fetching.swap_remove(at);
        }
    }

    /// Serves a fetch request if the body is available (appended to
    /// `out`).
    pub fn on_get_block(
        &mut self,
        from: NodeId,
        hash: BlockHash,
        idx: BlockIdx,
        out: &mut Vec<Send>,
    ) {
        if !self.have_body.contains(idx.raw()) {
            return;
        }
        self.mark_peer_knows_block(from, idx);
        out.push(Send {
            to: from,
            msg: Message::BlockBody(hash),
        });
    }

    /// Completes an import after validation latency: inserts into the
    /// chain view, prunes the mempool, and announces to unknowing peers
    /// (appended to `out`).
    ///
    /// `included` must be the block's transactions (resolved by the driver
    /// from its registry). Returns true if the block became the node's
    /// head.
    pub fn on_import_complete(
        &mut self,
        block: &Block,
        idx: BlockIdx,
        included: &[&Transaction],
        cfg: &NetConfig,
        out: &mut Vec<Send>,
    ) -> bool {
        let hash = block.hash();
        let provenance = self.pending_provenance(idx).flatten();
        let outcome = self.chain.insert(
            hash,
            block.parent(),
            block.number(),
            block.miner(),
            block.header().difficulty(),
            block.uncles(),
        );
        let new_head = matches!(outcome, HeaderInsert::NewHead { .. });

        if outcome == HeaderInsert::Orphaned {
            // Ask whoever gave us the block for its parent (Geth's fetcher
            // backfill). If it was locally mined there is no one to ask.
            if let Some(p) = provenance {
                out.push(Send {
                    to: p,
                    msg: Message::GetBlock(block.parent()),
                });
            }
            return new_head;
        }

        if let Some(pool) = self.mempool.as_mut() {
            if new_head {
                pool.on_block(included.iter().copied());
            }
        }

        // Post-import announcement to everyone not known to have it. The
        // single-hash payload lives inline in the message, so the per-peer
        // fan-out allocates nothing.
        let head_number = self.chain.head_number();
        let recent = block.number() + cfg.relay_window > head_number;
        if new_head || (cfg.relay_non_head && recent) {
            for pos in 0..self.peers.len() {
                if self.peer_knows_block(pos, idx) {
                    continue;
                }
                self.peer_known_blocks[pos].insert(idx.raw());
                out.push(Send {
                    to: self.peers[pos],
                    msg: Message::Announce(AnnounceList::one(hash)),
                });
            }
        }
        new_head
    }

    /// Handles a batch of transactions (`from = None` for local
    /// submissions injected by the workload). Entries pair each
    /// transaction with its interned slot.
    ///
    /// Appends the relays to `out`. Fresh transactions are added to the
    /// mempool if one is enabled. Returns how many of `txs` were fresh
    /// (first received by this node).
    pub fn on_transactions(
        &mut self,
        from: Option<NodeId>,
        txs: &[(TxIdx, &Transaction)],
        cfg: &NetConfig,
        rng: &mut Xoshiro256,
        out: &mut Vec<Send>,
    ) -> usize {
        let from_pos = from.and_then(|p| self.pos_of(p));
        // The fresh list lives in a node-owned buffer; take/restore keeps
        // the allocation across calls while the mempool borrow is live.
        let mut fresh = std::mem::take(&mut self.scratch_fresh);
        fresh.clear();
        for &(idx, tx) in txs {
            if let Some(p) = from_pos {
                self.peer_known_txs.insert(p, idx.raw());
            }
            if self.seen_txs.insert(0, idx.raw()) {
                fresh.push((idx, tx.id));
                if let Some(pool) = self.mempool.as_mut() {
                    pool.add(tx);
                }
            }
        }
        let n_fresh = fresh.len();
        if n_fresh == 0 {
            self.scratch_fresh = fresh;
            return 0;
        }
        // Choose relay targets (into the scratch buffer, so the common
        // all-peers case allocates nothing).
        self.scratch.clear();
        for pos in 0..self.peers.len() {
            let p = self.peers[pos];
            if Some(p) != from {
                self.scratch.push((pos as u32, p));
            }
        }
        if cfg.tx_relay == TxRelayPolicy::Sqrt {
            let fanout = cfg.push_fanout(self.peers.len()).min(self.scratch.len());
            let n_candidates = self.scratch.len();
            rng.sample_indices_into(n_candidates, fanout, &mut self.scratch_idx);
            // Gather into the second persistent buffer and swap, keeping
            // both allocations alive across calls (picks may reference
            // positions in any order, so in-place compaction is unsafe).
            self.scratch_picks.clear();
            for t in 0..self.scratch_idx.len() {
                self.scratch_picks.push(self.scratch[self.scratch_idx[t]]);
            }
            std::mem::swap(&mut self.scratch, &mut self.scratch_picks);
        }
        // `insert` returning true ⟺ the peer did not know the tx, so one
        // fused probe replaces the old contains-then-insert pair; the set
        // state afterwards is identical (duplicate inserts are no-ops).
        out.reserve(self.scratch.len());
        if let [(idx, id)] = fresh[..] {
            // Dominant case: a single fresh transaction — no list
            // materialization, no per-send heap payload.
            for ti in 0..self.scratch.len() {
                let (pos, peer) = self.scratch[ti];
                if self.peer_known_txs.insert(pos as usize, idx.raw()) {
                    out.push(Send {
                        to: peer,
                        msg: Message::Tx(id),
                    });
                }
            }
            self.scratch_fresh = fresh;
            return n_fresh;
        }
        for ti in 0..self.scratch.len() {
            let (pos, peer) = self.scratch[ti];
            // Small batches inline in the message; only outsized bursts
            // spill to the heap.
            let mut unknown = TxBatch::new();
            for &(idx, id) in fresh.iter() {
                if self.peer_known_txs.insert(pos as usize, idx.raw()) {
                    unknown.push(id);
                }
            }
            match unknown.len() {
                0 => {}
                1 => out.push(Send {
                    to: peer,
                    msg: Message::Tx(unknown[0]),
                }),
                _ => out.push(Send {
                    to: peer,
                    msg: Message::Transactions(unknown),
                }),
            }
        }
        self.scratch_fresh = fresh;
        n_fresh
    }

    /// Builds a mining template from this gateway's view: parent (current
    /// head), next height, uncle references, and packed transactions.
    ///
    /// Returns `(parent, number, uncles, txs)`.
    pub fn mine_template(
        &self,
        policy: UnclePolicy,
        gas_limit: u64,
    ) -> (BlockHash, u64, Vec<BlockHash>, Vec<TxId>) {
        let parent = self.chain.head();
        let number = self.chain.head_number() + 1;
        let uncles = self.chain.select_uncles(parent, policy);
        let txs = self
            .mempool
            .as_ref()
            .map(|m| m.pack(gas_limit))
            .unwrap_or_default();
        (parent, number, uncles, txs)
    }

    /// True if this block is currently being fetched (for driver timeout
    /// wiring).
    pub fn is_fetching(&self, idx: BlockIdx) -> bool {
        self.fetching.iter().any(|(i, _)| *i == idx)
    }

    /// True if the node holds (or is importing) this block's body.
    pub fn has_block_body(&self, idx: BlockIdx) -> bool {
        self.have_body.contains(idx.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethmeter_chain::block::BlockBuilder;
    use ethmeter_chain::consensus::ConsensusKind;
    use ethmeter_chain::BlockRegistry;
    use ethmeter_types::{AccountId, ByteSize, PoolId, SimTime};
    use std::collections::HashSet;

    fn cfg() -> NetConfig {
        NetConfig::default()
    }

    fn rng() -> Xoshiro256 {
        Xoshiro256::seed_from_u64(7)
    }

    fn genesis() -> BlockHash {
        BlockHash::mix(0)
    }

    fn node(id: u32, n_peers: u32) -> Node {
        let c = cfg();
        let mut n = Node::new(
            NodeId(id),
            Region::WesternEurope,
            BandwidthClass::Datacenter,
            genesis(),
            &c,
            ConsensusKind::Heaviest.build(),
        );
        for p in 0..n_peers {
            if p != id {
                n.try_add_link(NodeId(p), &c)
                    .expect("well-formed test link");
            }
        }
        n
    }

    fn block1() -> Block {
        BlockBuilder::new(genesis(), 1, PoolId(0))
            .mined_at(SimTime::from_secs(13))
            .build()
    }

    /// Interns `block` the way the driver does at creation time.
    fn intern(reg: &mut BlockRegistry, block: &Block) -> BlockIdx {
        reg.insert(block.clone())
    }

    fn tx(id: u64, origin: u32) -> Transaction {
        Transaction {
            id: TxId(id),
            sender: AccountId(1),
            nonce: 0,
            gas_price: 5,
            gas: 21_000,
            size: ByteSize::from_bytes(180),
            submitted_at: SimTime::ZERO,
            origin: NodeId(origin),
        }
    }

    /// Out-buffer wrappers so assertions read like the old value-returning
    /// API.
    fn arrive(
        n: &mut Node,
        from: Option<NodeId>,
        b: &Block,
        idx: BlockIdx,
        c: &NetConfig,
        rng: &mut Xoshiro256,
    ) -> (Vec<Send>, ImportAction) {
        let mut sends = Vec::new();
        let action = n.on_block_arrival(from, b, idx, c, rng, &mut sends);
        (sends, action)
    }

    fn import(
        n: &mut Node,
        b: &Block,
        idx: BlockIdx,
        included: &[&Transaction],
        c: &NetConfig,
    ) -> (Vec<Send>, bool) {
        let mut sends = Vec::new();
        let new_head = n.on_import_complete(b, idx, included, c, &mut sends);
        (sends, new_head)
    }

    fn announce(n: &mut Node, from: NodeId, entries: &[(BlockHash, BlockIdx)]) -> Vec<Send> {
        let mut sends = Vec::new();
        n.on_announce(from, entries, &mut sends);
        sends
    }

    fn timeout(n: &mut Node, hash: BlockHash, idx: BlockIdx) -> Vec<Send> {
        let mut sends = Vec::new();
        n.on_fetch_timeout(hash, idx, &mut sends);
        sends
    }

    fn get_block(n: &mut Node, from: NodeId, hash: BlockHash, idx: BlockIdx) -> Vec<Send> {
        let mut sends = Vec::new();
        n.on_get_block(from, hash, idx, &mut sends);
        sends
    }

    fn transactions(
        n: &mut Node,
        from: Option<NodeId>,
        txs: &[(TxIdx, &Transaction)],
        c: &NetConfig,
        rng: &mut Xoshiro256,
    ) -> Vec<Send> {
        let mut sends = Vec::new();
        n.on_transactions(from, txs, c, rng, &mut sends);
        sends
    }

    #[test]
    fn push_relays_to_sqrt_peers_and_schedules_import() {
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 25);
        let b = block1();
        let idx = intern(&mut reg, &b);
        let (sends, action) = arrive(&mut n, Some(NodeId(1)), &b, idx, &cfg(), &mut rng());
        assert_eq!(action, ImportAction::Schedule(idx));
        // sqrt(25) = 5 pushes, never back to the sender.
        assert_eq!(sends.len(), 5);
        assert!(sends.iter().all(|s| s.to != NodeId(1)));
        assert!(sends
            .iter()
            .all(|s| matches!(s.msg, Message::NewBlock(h) if h == b.hash())));
        // Distinct targets.
        let set: HashSet<NodeId> = sends.iter().map(|s| s.to).collect();
        assert_eq!(set.len(), 5);
    }

    #[test]
    fn handlers_append_to_the_out_buffer() {
        // The driver recycles one buffer across events; handlers must
        // append, never clear.
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 25);
        let b = block1();
        let idx = intern(&mut reg, &b);
        let mut sends = vec![Send {
            to: NodeId(7),
            msg: Message::GetBlock(BlockHash(1234)),
        }];
        n.on_block_arrival(Some(NodeId(1)), &b, idx, &cfg(), &mut rng(), &mut sends);
        assert_eq!(sends[0].to, NodeId(7), "pre-existing entry untouched");
        assert_eq!(sends.len(), 6);
    }

    #[test]
    fn duplicate_arrivals_do_nothing() {
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 25);
        let b = block1();
        let idx = intern(&mut reg, &b);
        let (_, first) = arrive(&mut n, Some(NodeId(1)), &b, idx, &cfg(), &mut rng());
        assert!(matches!(first, ImportAction::Schedule(_)));
        let (sends, second) = arrive(&mut n, Some(NodeId(2)), &b, idx, &cfg(), &mut rng());
        assert!(sends.is_empty());
        assert_eq!(second, ImportAction::None);
    }

    #[test]
    fn import_complete_announces_to_unknowing_peers() {
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 10);
        let b = block1();
        let idx = intern(&mut reg, &b);
        let c = cfg();
        let (pushes, _) = arrive(&mut n, Some(NodeId(1)), &b, idx, &c, &mut rng());
        let pushed_to: HashSet<NodeId> = pushes.iter().map(|s| s.to).collect();
        let (sends, new_head) = import(&mut n, &b, idx, &[], &c);
        assert!(new_head);
        // Announcements go to everyone who neither sent nor received it.
        let announced: HashSet<NodeId> = sends.iter().map(|s| s.to).collect();
        assert!(announced.is_disjoint(&pushed_to));
        assert!(!announced.contains(&NodeId(1)));
        assert_eq!(announced.len(), 9 - pushed_to.len());
        assert!(sends
            .iter()
            .all(|s| matches!(&s.msg, Message::Announce(v) if v[..] == [b.hash()])));
        // The inline payload never touches the heap.
        assert!(sends.iter().all(|s| match &s.msg {
            Message::Announce(v) => v.is_inline(),
            _ => false,
        }));
    }

    #[test]
    fn announce_triggers_single_fetch() {
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 5);
        let b = block1();
        let idx = intern(&mut reg, &b);
        let sends = announce(&mut n, NodeId(1), &[(b.hash(), idx)]);
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].to, NodeId(1));
        assert!(matches!(sends[0].msg, Message::GetBlock(h) if h == b.hash()));
        assert!(n.is_fetching(idx));
        // Second announcer recorded, no second request.
        let sends = announce(&mut n, NodeId(2), &[(b.hash(), idx)]);
        assert!(sends.is_empty());
        // Timeout falls over to the second announcer.
        let retry = timeout(&mut n, b.hash(), idx);
        assert_eq!(retry.len(), 1);
        assert_eq!(retry[0].to, NodeId(2));
        // Exhausted announcers: gives up.
        let give_up = timeout(&mut n, b.hash(), idx);
        assert!(give_up.is_empty());
        assert!(!n.is_fetching(idx));
    }

    #[test]
    fn fetch_resolves_on_arrival() {
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 5);
        let b = block1();
        let idx = intern(&mut reg, &b);
        announce(&mut n, NodeId(1), &[(b.hash(), idx)]);
        let (_, action) = arrive(&mut n, Some(NodeId(1)), &b, idx, &cfg(), &mut rng());
        assert!(matches!(action, ImportAction::Schedule(_)));
        assert!(!n.is_fetching(idx));
        assert!(timeout(&mut n, b.hash(), idx).is_empty());
    }

    #[test]
    fn get_block_served_only_when_held() {
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 5);
        let b = block1();
        let idx = intern(&mut reg, &b);
        assert!(get_block(&mut n, NodeId(1), b.hash(), idx).is_empty());
        arrive(&mut n, Some(NodeId(2)), &b, idx, &cfg(), &mut rng());
        assert!(n.has_block_body(idx));
        let resp = get_block(&mut n, NodeId(1), b.hash(), idx);
        assert_eq!(resp.len(), 1);
        assert!(matches!(resp[0].msg, Message::BlockBody(h) if h == b.hash()));
    }

    #[test]
    fn orphan_import_requests_parent() {
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 5);
        let c = cfg();
        // Block at height 2 whose parent (height 1) we never saw.
        let b1 = block1();
        let b2 = BlockBuilder::new(b1.hash(), 2, PoolId(0)).build();
        let i2 = intern(&mut reg, &b2);
        let (_, action) = arrive(&mut n, Some(NodeId(3)), &b2, i2, &c, &mut rng());
        assert!(matches!(action, ImportAction::Schedule(_)));
        let (sends, new_head) = import(&mut n, &b2, i2, &[], &c);
        assert!(!new_head);
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].to, NodeId(3));
        assert!(matches!(sends[0].msg, Message::GetBlock(h) if h == b1.hash()));
    }

    #[test]
    fn transactions_relay_to_all_unknowing_peers() {
        let mut n = node(99, 6);
        let c = cfg();
        let t1 = tx(1, 0);
        let sends = transactions(&mut n, Some(NodeId(1)), &[(TxIdx(0), &t1)], &c, &mut rng());
        // 5 peers other than the sender.
        assert_eq!(sends.len(), 5);
        // Replay: nothing fresh, nothing sent.
        assert!(
            transactions(&mut n, Some(NodeId(2)), &[(TxIdx(0), &t1)], &c, &mut rng()).is_empty()
        );
    }

    #[test]
    fn knows_tx_from_needs_the_tx_seen_and_the_sender_marked() {
        let mut n = node(99, 6);
        let c = cfg();
        let t1 = tx(1, 0);
        let ix = TxIdx(0);
        assert!(!n.knows_tx_from(NodeId(1), ix), "unseen");
        // First receipt from peer 1: relayed to (and so marked for) every
        // other peer; peer 1 is marked as the source.
        let fresh = n.on_transactions(
            Some(NodeId(1)),
            &[(ix, &t1)],
            &c,
            &mut rng(),
            &mut Vec::new(),
        );
        assert_eq!(fresh, 1);
        assert!((0..6).all(|p| n.knows_tx_from(NodeId(p), ix)));
        assert!(!n.knows_tx_from(NodeId(77), ix), "non-peers know nothing");
        // A redundant arrival is reported as not fresh and changes none
        // of the answers.
        let again = n.on_transactions(
            Some(NodeId(2)),
            &[(ix, &t1)],
            &c,
            &mut rng(),
            &mut Vec::new(),
        );
        assert_eq!(again, 0);
        assert!(n.knows_tx_from(NodeId(2), ix));
        // √-fanout relay leaves unpicked peers unmarked.
        let mut sq = node(98, 25);
        let mut cs = cfg();
        cs.tx_relay = TxRelayPolicy::Sqrt;
        sq.on_transactions(None, &[(ix, &t1)], &cs, &mut rng(), &mut Vec::new());
        let marked = (0..25).filter(|&p| sq.knows_tx_from(NodeId(p), ix)).count();
        assert_eq!(marked, 5);
    }

    #[test]
    fn sqrt_tx_relay_caps_fanout() {
        let mut n = node(99, 25);
        let mut c = cfg();
        c.tx_relay = TxRelayPolicy::Sqrt;
        let t2 = tx(2, 0);
        let sends = transactions(&mut n, None, &[(TxIdx(1), &t2)], &c, &mut rng());
        assert_eq!(sends.len(), 5); // sqrt(25) = 5
    }

    #[test]
    fn tx_batches_relay_inline() {
        let mut n = node(99, 4);
        let c = cfg();
        let (t1, t2) = (tx(1, 0), tx(2, 0));
        let sends = transactions(
            &mut n,
            Some(NodeId(1)),
            &[(TxIdx(0), &t1), (TxIdx(1), &t2)],
            &c,
            &mut rng(),
        );
        assert_eq!(sends.len(), 3);
        for s in &sends {
            match &s.msg {
                Message::Transactions(batch) => {
                    assert_eq!(batch[..], [TxId(1), TxId(2)]);
                    assert!(batch.is_inline(), "2-element batch must stay inline");
                }
                other => panic!("expected a batch, got {other:?}"),
            }
        }
    }

    #[test]
    fn mempool_integration_and_mining_template() {
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 3);
        n.enable_mempool();
        let c = cfg();
        let tx0 = tx(1, 99);
        transactions(&mut n, None, &[(TxIdx(0), &tx0)], &c, &mut rng());
        assert_eq!(n.mempool().expect("enabled").len(), 1);

        let (parent, number, uncles, txs) = n.mine_template(UnclePolicy::Standard, 8_000_000);
        assert_eq!(parent, genesis());
        assert_eq!(number, 1);
        assert!(uncles.is_empty());
        assert_eq!(txs, vec![TxId(1)]);

        // A block including tx0 prunes it from the mempool.
        let b = BlockBuilder::new(genesis(), 1, PoolId(0))
            .txs(vec![TxId(1)])
            .build();
        let idx = intern(&mut reg, &b);
        arrive(&mut n, None, &b, idx, &c, &mut rng());
        let (_, new_head) = import(&mut n, &b, idx, &[&tx0], &c);
        assert!(new_head);
        assert_eq!(n.mempool().expect("enabled").len(), 0);
    }

    #[test]
    fn locally_mined_block_pushes_to_all_peers() {
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 9);
        let b = block1();
        let idx = intern(&mut reg, &b);
        let (sends, action) = arrive(&mut n, None, &b, idx, &cfg(), &mut rng());
        assert!(matches!(action, ImportAction::Schedule(_)));
        // Gateway flood: every peer, not just sqrt.
        assert_eq!(sends.len(), 9);
    }

    #[test]
    fn stale_side_blocks_not_relayed_when_policy_off() {
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 9);
        let mut c = cfg();
        c.relay_non_head = false;
        // Advance the node's head far beyond 1 by importing a chain.
        let mut parent = genesis();
        for i in 1..=10u64 {
            let b = BlockBuilder::new(parent, i, PoolId(0)).salt(i).build();
            parent = b.hash();
            let idx = intern(&mut reg, &b);
            arrive(&mut n, Some(NodeId(1)), &b, idx, &c, &mut rng());
            import(&mut n, &b, idx, &[], &c);
        }
        assert_eq!(n.chain().head_number(), 10);
        // A late fork block at height 1 does not improve the head and is
        // outside the relay window: no pushes.
        let stale = BlockBuilder::new(genesis(), 1, PoolId(5)).salt(99).build();
        let si = intern(&mut reg, &stale);
        let (sends, action) = arrive(&mut n, Some(NodeId(2)), &stale, si, &c, &mut rng());
        assert!(sends.is_empty());
        // It is still imported (valid block), just not relayed.
        assert!(matches!(action, ImportAction::Schedule(_)));
    }

    #[test]
    fn messages_from_non_peers_are_tolerated() {
        // Provenance marking from an unconnected node (e.g. a link torn
        // down mid-flight in future scenarios) must be a silent no-op,
        // exactly like the old NodeId-keyed map's `get_mut` miss.
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 3);
        let b = block1();
        let idx = intern(&mut reg, &b);
        let (sends, action) = arrive(&mut n, Some(NodeId(1000)), &b, idx, &cfg(), &mut rng());
        assert!(matches!(action, ImportAction::Schedule(_)));
        // Relays still go to real peers (the stranger is not among them).
        assert!(sends.iter().all(|s| s.to != NodeId(1000)));
        assert!(!sends.is_empty());
    }

    #[test]
    fn reset_behaves_like_a_fresh_node() {
        let c = cfg();
        let mut rng_a = rng();
        // Drive a node through a full little lifecycle...
        let mut reg = BlockRegistry::new();
        let mut used = node(99, 8);
        used.enable_mempool();
        let b = block1();
        let idx = intern(&mut reg, &b);
        arrive(&mut used, Some(NodeId(1)), &b, idx, &c, &mut rng_a);
        import(&mut used, &b, idx, &[], &c);
        let t1 = tx(1, 0);
        transactions(
            &mut used,
            Some(NodeId(2)),
            &[(TxIdx(0), &t1)],
            &c,
            &mut rng_a,
        );

        // ...then reset it and wire the same topology as a fresh twin.
        used.reset(
            NodeId(99),
            Region::WesternEurope,
            BandwidthClass::Datacenter,
            genesis(),
            &c,
            ConsensusKind::Heaviest.build(),
        );
        for p in 0..8 {
            used.try_add_link(NodeId(p), &c)
                .expect("well-formed test link");
        }
        used.enable_mempool();
        let mut fresh = node(99, 8);
        fresh.enable_mempool();

        assert_eq!(used.chain().head(), fresh.chain().head());
        assert_eq!(used.degree(), fresh.degree());
        assert_eq!(used.mempool().expect("enabled").len(), 0);
        // Identical RNG stream + identical state must produce identical
        // sends for a fresh campaign's first block and transaction.
        let mut reg2 = BlockRegistry::new();
        let b2 = BlockBuilder::new(genesis(), 1, PoolId(2)).salt(7).build();
        let i2 = intern(&mut reg2, &b2);
        let mut r1 = Xoshiro256::seed_from_u64(5);
        let mut r2 = Xoshiro256::seed_from_u64(5);
        let (s_used, a_used) = arrive(&mut used, Some(NodeId(1)), &b2, i2, &c, &mut r1);
        let (s_fresh, a_fresh) = arrive(&mut fresh, Some(NodeId(1)), &b2, i2, &c, &mut r2);
        assert_eq!(s_used, s_fresh);
        assert_eq!(a_used, a_fresh);
        let t9 = tx(9, 0);
        assert_eq!(
            transactions(&mut used, Some(NodeId(3)), &[(TxIdx(5), &t9)], &c, &mut r1),
            transactions(&mut fresh, Some(NodeId(3)), &[(TxIdx(5), &t9)], &c, &mut r2),
        );
    }

    #[test]
    fn try_add_link_reports_structured_errors() {
        let c = cfg();
        let mut n = node(99, 3);
        assert_eq!(n.try_add_link(NodeId(99), &c), Err(LinkError::SelfLink));
        assert_eq!(n.try_add_link(NodeId(1), &c), Err(LinkError::Duplicate));
        assert_eq!(n.try_add_link(NodeId(50), &c), Ok(()));
        assert!(n.is_peer(NodeId(50)));
        assert_eq!(n.degree(), 4);
    }

    #[test]
    fn disconnect_removes_only_the_severed_link() {
        let c = cfg();
        let mut n = node(99, 5); // peers 0..=4
        assert!(n.is_peer(NodeId(2)));
        assert!(n.disconnect(NodeId(2)));
        assert!(!n.is_peer(NodeId(2)));
        assert!(!n.disconnect(NodeId(2)), "second disconnect is a no-op");
        assert_eq!(n.degree(), 4);
        for p in [0u32, 1, 3, 4] {
            assert!(n.is_peer(NodeId(p)), "peer {p} untouched");
        }
        // Re-dial reuses the vacated slab slot cleanly.
        assert_eq!(n.try_add_link(NodeId(2), &c), Ok(()));
        assert_eq!(n.degree(), 5);
    }

    #[test]
    fn disconnect_drops_per_link_gossip_state_without_disturbing_others() {
        let c = cfg();
        let mut rng_a = rng();
        let mut reg = BlockRegistry::new();

        // Drive a node with torn-and-redialed link 1 and a fresh twin
        // that never had link 1's history; after the re-dial both must
        // behave identically (per-link state fully forgotten).
        let mut churned = node(99, 8);
        let b = block1();
        let idx = intern(&mut reg, &b);
        arrive(&mut churned, Some(NodeId(1)), &b, idx, &c, &mut rng_a);
        import(&mut churned, &b, idx, &[], &c);
        let t1 = tx(1, 0);
        transactions(
            &mut churned,
            Some(NodeId(1)),
            &[(TxIdx(0), &t1)],
            &c,
            &mut rng_a,
        );
        assert!(churned.disconnect(NodeId(1)));
        assert_eq!(churned.try_add_link(NodeId(1), &c), Ok(()));

        // The re-dialed link no longer remembers what peer 1 knew: an
        // announce of the same block goes back out to peer 1 too.
        let mut sends = Vec::new();
        churned.on_announce(NodeId(3), &[(b.hash(), idx)], &mut sends);
        // (peer 3 announced; nothing for peer 1 here — the real probe is
        // the tx relay below, which consults the known-txs family.)
        let t2 = tx(2, 0);
        let relays = transactions(&mut churned, None, &[(TxIdx(1), &t2)], &c, &mut rng_a);
        assert!(
            relays.iter().any(|s| s.to == NodeId(1)),
            "re-dialed link must have forgotten nothing-known state"
        );
    }
}
