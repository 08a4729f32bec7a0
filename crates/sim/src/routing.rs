//! Lenzen-style all-to-all routing.
//!
//! The paper uses the routing theorem of [Lenzen, PODC'13] as a black box
//! (Lemma 2.14 and the clean-up step of §2.4): *if every node is the source
//! of at most `n` messages of `O(log n)` bits and the destination of at most
//! `n` messages, all messages can be delivered in `O(1)` rounds of the
//! congested clique.*
//!
//! This module provides a **constructive scheduler** with the same
//! interface. It computes an explicit round-by-round feasible schedule and
//! charges the engine's ledger for exactly the rounds, messages, and bits
//! the schedule uses — so experiment output reflects a real schedule, not an
//! asymptotic promise. Two schedules are considered and the cheaper one is
//! used:
//!
//! 1. **Direct**: every packet travels `src → dst`; the round count is the
//!    maximum, over ordered pairs, of the number of `B`-bit fragments that
//!    pair must carry.
//! 2. **Rotor relay**: packet `i` of source `s` first hops to relay
//!    `(s + i) mod n`, spreading each source's load evenly (one fragment per
//!    link), then relays forward to destinations. This is the textbook
//!    2-phase balanced-relay realization of Lenzen routing; the rotor offset
//!    makes the spread deterministic.
//!
//! Packets larger than the bandwidth `B` are fragmented and charged
//! `⌈bits/B⌉` round-slots per hop. When a node is the source (or
//! destination) of more than `n` packets, the batch is split so each batch
//! obeys Lenzen's capacity precondition; the split count multiplies the
//! round bill honestly.
//!
//! The split is first-fit, which fills only batch 0 exactly when no node
//! is the source or destination of more than `n` non-self packets. One
//! counting pass checks that, and in that common case the whole request is
//! scheduled as batch 0 without the per-packet first-fit scan; the relay
//! counts then come from the source counts alone, and hop 2 is priced by
//! scattering `(dst, slots)` legs into relay order.

use std::collections::VecDeque;

use cc_mis_graph::NodeId;

use crate::bits::idx_u32;
use crate::clique::CliqueEngine;

/// One routed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet<M> {
    /// Originating node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Encoded size in bits.
    pub bits: u64,
    /// The payload delivered to `dst`.
    pub payload: M,
}

/// Error for malformed routing requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingError {
    /// A packet endpoint is out of range for the engine.
    EndpointOutOfRange {
        /// The offending node index.
        node: u32,
        /// The network size.
        n: usize,
    },
}

impl std::fmt::Display for RoutingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoutingError::EndpointOutOfRange { node, n } => {
                write!(f, "packet endpoint v{node} out of range for {n} nodes")
            }
        }
    }
}

impl std::error::Error for RoutingError {}

/// Per-destination inboxes: `inboxes[d]` holds the packets delivered to
/// node `d`, sorted by source.
pub type Inboxes<M> = Vec<Vec<Packet<M>>>;

/// Result of a routing invocation.
#[derive(Debug, Clone)]
pub struct RoutingOutcome {
    /// Rounds the schedule consumed (also charged to the engine ledger).
    pub rounds: u64,
    /// Number of capacity batches the request was split into (1 whenever
    /// Lenzen's `≤ n` per-source/per-destination precondition held).
    pub batches: u64,
    /// Whether the relay schedule (vs. direct) was used in any batch.
    pub used_relay: bool,
}

/// Routes `packets` through the clique, delivering each payload to its
/// destination. Returns per-node inboxes (sorted by source) plus the
/// schedule's cost.
///
/// Self-addressed packets (`src == dst`) are delivered locally for free.
///
/// # Errors
///
/// Returns [`RoutingError`] if any endpoint is out of range.
///
/// # Example
///
/// ```
/// use cc_mis_sim::clique::CliqueEngine;
/// use cc_mis_sim::routing::{route, Packet};
/// use cc_mis_graph::NodeId;
///
/// let mut engine = CliqueEngine::strict(4, 32);
/// let packets = vec![
///     Packet { src: NodeId::new(0), dst: NodeId::new(3), bits: 20, payload: "a" },
///     Packet { src: NodeId::new(1), dst: NodeId::new(3), bits: 20, payload: "b" },
/// ];
/// let (inboxes, outcome) = route(&mut engine, packets)?;
/// assert_eq!(inboxes[3].len(), 2);
/// assert!(outcome.rounds >= 1);
/// # Ok::<(), cc_mis_sim::routing::RoutingError>(())
/// ```
pub fn route<M>(
    engine: &mut CliqueEngine,
    packets: Vec<Packet<M>>,
) -> Result<(Inboxes<M>, RoutingOutcome), RoutingError> {
    route_with(engine, packets, ScheduleChoice::Cheaper)
}

/// Which schedule [`route_with`] uses for every batch. `Cheaper` is the
/// production behavior; the forced variants exist so tests can compare the
/// two schedules on identical workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))] // forced variants are test-only
pub(crate) enum ScheduleChoice {
    /// Pick the cheaper schedule per batch (ties go to direct).
    Cheaper,
    /// Always the direct schedule.
    Direct,
    /// Always the rotor-relay schedule.
    Relay,
}

pub(crate) fn route_with<M>(
    engine: &mut CliqueEngine,
    packets: Vec<Packet<M>>,
    choice: ScheduleChoice,
) -> Result<(Inboxes<M>, RoutingOutcome), RoutingError> {
    let n = engine.node_count();
    let bandwidth = engine.bandwidth().max(1);
    let mut scratch = RouteScratch::new(n);

    // Counting pass: validate every endpoint and tally the non-self load
    // per source and per destination. First-fit fills only batch 0 exactly
    // when no total exceeds `n`, so `fits` decides the whole split.
    let mut fits = true;
    let mut pairs_ascending = true;
    let mut last_pair = None;
    for p in &packets {
        for node in [p.src, p.dst] {
            if node.index() >= n {
                return Err(RoutingError::EndpointOutOfRange {
                    node: node.raw(),
                    n,
                });
            }
        }
        if p.src != p.dst {
            let (s, d) = (p.src.index(), p.dst.index());
            pairs_ascending &= last_pair < Some((s, d));
            last_pair = Some((s, d));
            scratch.src_count[s] += 1;
            scratch.dst_count[d] += 1;
            fits &= scratch.src_count[s] as usize <= n && scratch.dst_count[d] as usize <= n;
        }
    }

    let mut total_rounds = 0u64;
    let mut used_relay = false;
    let batch_count;
    let mut inboxes: Vec<Vec<Packet<M>>>;
    if fits {
        // The common case: the whole request is batch 0 (or no batch at
        // all when every packet is self-addressed).
        let remote = scratch.src_count.iter().any(|&c| c > 0);
        if remote {
            (total_rounds, used_relay) = schedule_batch(
                n,
                bandwidth,
                &packets,
                pairs_ascending,
                engine,
                choice,
                &mut scratch,
            );
        }
        batch_count = u64::from(remote);
        inboxes = scratch
            .dst_count
            .iter()
            .map(|&c| Vec::with_capacity(c as usize))
            .collect();
        for p in packets {
            inboxes[p.dst.index()].push(p);
        }
    } else {
        // Over capacity: the first-fit split, one schedule per batch.
        inboxes = (0..n).map(|_| Vec::new()).collect();
        let batches = split_batches(n, packets, &mut inboxes);
        batch_count = batches.len() as u64;
        for batch in batches {
            let ascending = scratch.tally_sources(&batch);
            let (rounds, relay) = schedule_batch(
                n,
                bandwidth,
                &batch,
                ascending,
                engine,
                choice,
                &mut scratch,
            );
            total_rounds += rounds;
            used_relay |= relay;
            for p in batch {
                inboxes[p.dst.index()].push(p);
            }
        }
    }
    // Stable by source; within a source, packets keep request order (the
    // first-fit split never reorders an ordered pair's packets either).
    for inbox in &mut inboxes {
        if !inbox.is_sorted_by_key(|p| p.src) {
            inbox.sort_by_key(|p| p.src);
        }
    }
    Ok((
        inboxes,
        RoutingOutcome {
            rounds: total_rounds,
            batches: batch_count.max(1),
            used_relay,
        },
    ))
}

/// Splits packets into capacity-respecting batches (usually exactly one);
/// self-addressed packets are delivered immediately into `inboxes`.
fn split_batches<M>(
    n: usize,
    packets: Vec<Packet<M>>,
    inboxes: &mut [Vec<Packet<M>>],
) -> Vec<Vec<Packet<M>>> {
    let mut batches: Vec<Vec<Packet<M>>> = Vec::new();
    let mut src_counts: Vec<Vec<usize>> = Vec::new();
    let mut dst_counts: Vec<Vec<usize>> = Vec::new();
    for p in packets {
        if p.src == p.dst {
            inboxes[p.dst.index()].push(p);
            continue;
        }
        let slot = (0..batches.len())
            .find(|&b| src_counts[b][p.src.index()] < n && dst_counts[b][p.dst.index()] < n);
        if let Some(b) = slot {
            src_counts[b][p.src.index()] += 1;
            dst_counts[b][p.dst.index()] += 1;
            batches[b].push(p);
        } else {
            let mut sc = vec![0usize; n];
            let mut dc = vec![0usize; n];
            sc[p.src.index()] += 1;
            dc[p.dst.index()] += 1;
            src_counts.push(sc);
            dst_counts.push(dc);
            batches.push(vec![p]);
        }
    }
    batches
}

/// Routes `packets` by **executing** the direct schedule fragment by
/// fragment through real engine rounds — the validation counterpart of
/// [`route`]'s analytic accounting. Every fragment is a genuine
/// [`crate::clique::CliqueRound`] send subject to strict bandwidth
/// enforcement, so the returned round count is achievable by construction.
///
/// Returns the per-node inboxes (sorted by source) and the executed round
/// count, which for each batch equals the direct schedule's analytic bound
/// `max_{(s,d)} Σ ⌈bits/B⌉` (tested to agree).
///
/// Use [`route`] in algorithms (it is much faster and may pick the cheaper
/// relay schedule); use this in tests and validation harnesses.
///
/// # Errors
///
/// Returns [`RoutingError`] if any endpoint is out of range.
pub fn route_executed<M>(
    engine: &mut CliqueEngine,
    packets: Vec<Packet<M>>,
) -> Result<(Inboxes<M>, u64), RoutingError> {
    let n = engine.node_count();
    let bandwidth = engine.bandwidth().max(1);
    for p in &packets {
        for node in [p.src, p.dst] {
            if node.index() >= n {
                return Err(RoutingError::EndpointOutOfRange {
                    node: node.raw(),
                    n,
                });
            }
        }
    }
    let mut inboxes: Vec<Vec<Packet<M>>> = (0..n).map(|_| Vec::new()).collect();
    let batches = split_batches(n, packets, &mut inboxes);
    let mut total_rounds = 0u64;
    for batch in batches {
        // Per-ordered-pair FIFO of (packet, bits still to transmit),
        // grouped by packed (src, dst) key via a stable sort — the batch
        // order within a pair is the FIFO order, and the round loop visits
        // pairs in a fixed deterministic order (no hash map).
        let mut keyed: Vec<(u64, Packet<M>)> = batch
            .into_iter()
            .map(|p| ((u64::from(p.src.raw()) << 32) | u64::from(p.dst.raw()), p))
            .collect();
        keyed.sort_by_key(|&(key, _)| key);
        let mut queues: Vec<VecDeque<(Packet<M>, u64)>> = Vec::new();
        let mut last_key = None;
        for (key, p) in keyed {
            if last_key != Some(key) {
                queues.push(VecDeque::new());
                last_key = Some(key);
            }
            let bits_left = p.bits.max(1);
            queues
                .last_mut()
                .expect("just pushed")
                .push_back((p, bits_left));
        }
        while !queues.is_empty() {
            let mut round = engine.begin_round::<bool>();
            let mut completed: Vec<Packet<M>> = Vec::new();
            for q in queues.iter_mut() {
                if let Some((p, bits_left)) = q.front_mut() {
                    let bits_now = (*bits_left).min(bandwidth);
                    *bits_left -= bits_now;
                    let done = *bits_left == 0;
                    round
                        .send(p.src, p.dst, bits_now, done)
                        .expect("fragment fits the bandwidth");
                    if done {
                        let (p, _) = q.pop_front().expect("front exists");
                        completed.push(p);
                    }
                }
            }
            round.deliver();
            total_rounds += 1;
            for p in completed {
                inboxes[p.dst.index()].push(p);
            }
            queues.retain(|q| !q.is_empty());
        }
    }
    for inbox in &mut inboxes {
        inbox.sort_by_key(|p| p.src);
    }
    Ok((inboxes, total_rounds))
}

/// One hop of a packet as the schedule sees it: where it goes and how many
/// `B`-bit fragment slots it occupies. Eight bytes, so a scatter moves half
/// the memory a `(u32, u64)` pair would; a slot count that does not fit
/// below [`WIDE_SLOTS`] is stored as that marker and kept exactly in
/// [`RouteScratch::wide`].
#[derive(Debug, Clone, Copy, Default)]
struct Leg {
    dst: u32,
    slots: u32,
}

/// [`Leg::slots`] marker for a slot count of `u32::MAX` or more.
const WIDE_SLOTS: u32 = u32::MAX;

/// Node-indexed buffers for one [`route_with`] call: congestion maxima are
/// computed with counting scatters and a touched-list accumulator — no
/// hash map and no per-packet index permutation — and every buffer is
/// reused across the batches of an over-capacity request.
struct RouteScratch {
    /// Non-self packets per source in the current batch.
    src_count: Vec<u32>,
    /// Non-self packets per destination over the whole request.
    dst_count: Vec<u32>,
    /// Rotor counters: the relay of each source's next packet.
    next_relay: Vec<u32>,
    /// Counting-scatter bounds (`n + 1` entries). Group `g` fills
    /// `legs[bounds[g]..bounds[g + 1]]`; during a scatter `bounds[g + 1]`
    /// is group `g`'s write cursor.
    bounds: Vec<u32>,
    /// Legs scattered into relay (or source) order.
    legs: Vec<Leg>,
    /// `(position in legs, slots)` of every [`WIDE_SLOTS`] leg.
    wide: Vec<(u32, u64)>,
    /// Node-indexed slot accumulator. Zero means "untouched" — valid
    /// because every packet contributes at least one slot.
    loads: Vec<u64>,
    /// Indices of `loads` dirtied by the current group.
    touched: Vec<usize>,
}

impl RouteScratch {
    fn new(n: usize) -> Self {
        RouteScratch {
            src_count: vec![0; n],
            dst_count: vec![0; n],
            next_relay: vec![0; n],
            bounds: vec![0; n + 1],
            legs: Vec::new(),
            wide: Vec::new(),
            loads: vec![0; n],
            touched: Vec::new(),
        }
    }

    /// Recounts `src_count` for one batch; returns whether the batch's
    /// non-self packets come in strictly ascending `(src, dst)` order.
    fn tally_sources<M>(&mut self, batch: &[Packet<M>]) -> bool {
        self.src_count.fill(0);
        let mut ascending = true;
        let mut last_pair = None;
        for p in batch.iter().filter(|p| p.src != p.dst) {
            let (s, d) = (p.src.index(), p.dst.index());
            ascending &= last_pair < Some((s, d));
            last_pair = Some((s, d));
            self.src_count[s] += 1;
        }
        ascending
    }

    /// Adds `k` slots to node `d`'s load in the current group and returns
    /// the new load.
    fn add_load(&mut self, d: usize, k: u64) -> u64 {
        if self.loads[d] == 0 {
            self.touched.push(d);
        }
        self.loads[d] += k;
        self.loads[d]
    }

    /// Clears the current group's loads.
    fn end_group(&mut self) {
        for d in self.touched.drain(..) {
            self.loads[d] = 0;
        }
    }

    /// Turns group `g`'s leg count, held in `bounds[g + 1]`, into its
    /// start offset, and sizes `legs` for `total` legs.
    fn start_scatter(&mut self, total: usize) {
        let mut start = 0u32;
        for b in &mut self.bounds[1..] {
            let count = *b;
            *b = start;
            start += count;
        }
        self.bounds[0] = 0;
        self.legs.clear();
        self.legs.resize(total, Leg::default());
        self.wide.clear();
    }

    /// Appends a `k`-slot leg to `dst` to group `g`.
    fn scatter(&mut self, g: usize, dst: u32, k: u64) {
        let at = self.bounds[g + 1];
        self.bounds[g + 1] = at + 1;
        let slots = match u32::try_from(k) {
            Ok(slots) if slots != WIDE_SLOTS => slots,
            _ => {
                self.wide.push((at, k));
                WIDE_SLOTS
            }
        };
        self.legs[at as usize] = Leg { dst, slots };
    }

    /// After a scatter: the largest summed slot count over ordered pairs
    /// `(g, leg.dst)` with `leg.dst != g`.
    fn max_pair_load(&mut self) -> u64 {
        // Legs are read in position order, so the wide ones are consumed
        // in position order too.
        self.wide.sort_unstable();
        let mut next_wide = 0;
        let mut max = 0;
        for g in 0..self.bounds.len() - 1 {
            let (lo, hi) = (self.bounds[g] as usize, self.bounds[g + 1] as usize);
            for i in lo..hi {
                let leg = self.legs[i];
                let k = if leg.slots == WIDE_SLOTS {
                    next_wide += 1;
                    self.wide[next_wide - 1].1
                } else {
                    u64::from(leg.slots)
                };
                if leg.dst as usize != g {
                    max = max.max(self.add_load(leg.dst as usize, k));
                }
            }
            self.end_group();
        }
        max
    }
}

/// Computes the direct and rotor-relay schedules for one capacity-feasible
/// batch — the non-self packets of `batch`, whose per-source counts are in
/// `scratch.src_count` — charges the ledger for the selected one, and
/// returns `(rounds, used_relay)`. With [`ScheduleChoice::Cheaper`] the
/// cheaper schedule wins (ties to direct) — the production behavior.
///
/// `pairs_ascending` says the non-self packets come in strictly ascending
/// `(src, dst)` order, so no ordered pair carries two packets; the direct
/// pair loads are then single packets, otherwise they are summed after a
/// counting scatter by source.
fn schedule_batch<M>(
    n: usize,
    bandwidth: u64,
    batch: &[Packet<M>],
    pairs_ascending: bool,
    engine: &mut CliqueEngine,
    choice: ScheduleChoice,
    scratch: &mut RouteScratch,
) -> (u64, bool) {
    let slots = |bits: u64| bits.div_ceil(bandwidth).max(1);
    let total: usize = scratch.src_count.iter().map(|&c| c as usize).sum();

    // Rotor relay: the `i`-th packet of source `s` (batch order) hops to
    // relay `(s + i) mod n`. A batch holds at most `n` packets per source,
    // so source `s` covers the window `[s, s + count_s)` once — a
    // difference array over windows (shifted one slot, like the counts
    // `start_scatter` expects) gives every relay's packet count.
    scratch.bounds.fill(0);
    let mut bump = |at: usize, up: bool| {
        let b = &mut scratch.bounds[at + 1];
        *b = if up {
            b.wrapping_add(1)
        } else {
            b.wrapping_sub(1)
        };
    };
    for (s, &c) in scratch.src_count.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let end = s + c as usize;
        bump(s, true);
        if end < n {
            bump(end, false);
        } else if end > n {
            bump(0, true);
            bump(end - n, false);
        }
    }
    let mut run = 0u32;
    for b in &mut scratch.bounds[1..] {
        run = run.wrapping_add(*b);
        *b = run;
    }
    scratch.start_scatter(total);
    for (s, r) in scratch.next_relay.iter_mut().enumerate() {
        *r = idx_u32(s);
    }

    let mut direct_rounds = 0u64;
    let mut direct_msgs = 0u64;
    let mut direct_bits = 0u64;
    let mut hop1_rounds = 0u64;
    let mut relay_msgs = 0u64;
    let mut relay_bits = 0u64;
    for p in batch.iter().filter(|p| p.src != p.dst) {
        let (s, d) = (p.src.index(), p.dst.raw());
        let k = slots(p.bits);
        // Direct schedule: max over ordered pairs (src, dst) of summed
        // fragment slots.
        direct_rounds = direct_rounds.max(k);
        direct_msgs += k;
        direct_bits += p.bits;
        let relay = scratch.next_relay[s];
        scratch.next_relay[s] = if relay as usize + 1 == n {
            0
        } else {
            relay + 1
        };
        // Hop 1 carries one packet per (source, relay) pair, so its load
        // is the packet's own slot count.
        if relay as usize != s {
            hop1_rounds = hop1_rounds.max(k);
            relay_msgs += k;
            relay_bits += p.bits;
        }
        if d != relay {
            relay_msgs += k;
            relay_bits += p.bits;
        }
        scratch.scatter(relay as usize, d, k);
    }
    // Hop 2: relay -> dst pair loads over the relay-ordered legs.
    let hop2_rounds = scratch.max_pair_load();
    if !pairs_ascending {
        scratch.bounds[1..].copy_from_slice(&scratch.src_count);
        scratch.start_scatter(total);
        for p in batch.iter().filter(|p| p.src != p.dst) {
            scratch.scatter(p.src.index(), p.dst.raw(), slots(p.bits));
        }
        direct_rounds = scratch.max_pair_load();
    }
    let relay_rounds = hop1_rounds + hop2_rounds;

    let use_relay = match choice {
        ScheduleChoice::Cheaper => relay_rounds < direct_rounds,
        ScheduleChoice::Direct => false,
        ScheduleChoice::Relay => true,
    };
    let (rounds, msgs, bits) = if use_relay {
        (relay_rounds, relay_msgs, relay_bits)
    } else {
        (direct_rounds, direct_msgs, direct_bits)
    };
    // One ledger message per fragment keeps message counts honest.
    engine.core_mut().record_schedule(rounds, msgs, bits);
    (rounds, use_relay)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference scheduler: a first-fit split into batches for every
    /// request, then per-batch stable counting sorts over an index
    /// permutation. [`route_with`] must match it exactly.
    mod reference {
        use crate::bits::{idx_u32, idx_usize};
        use crate::clique::CliqueEngine;
        use crate::routing::{split_batches, Inboxes, Packet, RoutingOutcome, ScheduleChoice};
        /// The first-fit route this module shipped before the single-batch
        /// path: split, schedule every batch, push, stable-sort each inbox.
        pub(super) fn route<M>(
            engine: &mut CliqueEngine,
            packets: Vec<Packet<M>>,
            choice: ScheduleChoice,
        ) -> (Inboxes<M>, RoutingOutcome) {
            let n = engine.node_count();
            let bandwidth = engine.bandwidth().max(1);
            let mut inboxes: Vec<Vec<Packet<M>>> = (0..n).map(|_| Vec::new()).collect();
            let batches = split_batches(n, packets, &mut inboxes);
            let mut total_rounds = 0u64;
            let mut used_relay = false;
            let batch_count = batches.len() as u64;
            let mut scratch = ScheduleScratch::new(n);
            for batch in batches {
                let (rounds, relay) =
                    schedule_batch(n, bandwidth, &batch, engine, choice, &mut scratch);
                total_rounds += rounds;
                used_relay |= relay;
                for p in batch {
                    inboxes[p.dst.index()].push(p);
                }
            }
            for inbox in &mut inboxes {
                inbox.sort_by_key(|p| p.src);
            }
            let outcome = RoutingOutcome {
                rounds: total_rounds,
                batches: batch_count.max(1),
                used_relay,
            };
            (inboxes, outcome)
        }

        /// Reusable index-based buffers for [`schedule_batch`]: congestion maxima
        /// are computed with node-indexed scratch counters (reset via a touched
        /// list) and stable counting sorts — no hash map ever appears in the
        /// per-fragment loops, and nothing is reallocated between batches.
        struct ScheduleScratch {
            /// Node-indexed slot accumulator (second endpoint of the current
            /// group's ordered pairs). Zero means "untouched" — valid because
            /// every packet contributes at least one slot.
            loads: Vec<u64>,
            /// Indices of `loads` dirtied by the current group.
            touched: Vec<usize>,
            /// Counting-sort group boundaries (`n + 1` entries).
            group_start: Vec<u32>,
            /// Packet indices grouped by first endpoint, batch order preserved.
            order: Vec<u32>,
            /// Each packet's rotor relay, filled during hop 1.
            relay_of: Vec<u32>,
        }

        impl ScheduleScratch {
            fn new(n: usize) -> Self {
                ScheduleScratch {
                    loads: vec![0; n],
                    touched: Vec::new(),
                    group_start: vec![0; n + 1],
                    order: Vec::new(),
                    relay_of: Vec::new(),
                }
            }

            /// Stable counting sort of `0..len` by `key(i)` into `self.order`, with
            /// group `g` occupying `order[group_start[g]..group_start[g + 1]]`.
            fn group_by(&mut self, len: usize, key: impl Fn(usize) -> usize) {
                self.group_start.fill(0);
                for i in 0..len {
                    self.group_start[key(i) + 1] += 1;
                }
                for g in 0..self.group_start.len() - 1 {
                    self.group_start[g + 1] += self.group_start[g];
                }
                self.order.clear();
                self.order.resize(len, 0);
                let mut next: Vec<u32> = self.group_start.clone();
                for i in 0..len {
                    let k = key(i);
                    self.order[next[k] as usize] = idx_u32(i);
                    next[k] += 1;
                }
            }
        }

        /// Computes the direct and rotor-relay schedules for one capacity-feasible
        /// batch, charges the ledger for the selected one, and returns
        /// `(rounds, used_relay)`. With [`ScheduleChoice::Cheaper`] the cheaper
        /// schedule wins (ties to direct) — the production behavior.
        fn schedule_batch<M>(
            n: usize,
            bandwidth: u64,
            batch: &[Packet<M>],
            engine: &mut CliqueEngine,
            choice: ScheduleChoice,
            scratch: &mut ScheduleScratch,
        ) -> (u64, bool) {
            if batch.is_empty() {
                return (0, false);
            }
            let slots = |bits: u64| bits.div_ceil(bandwidth).max(1);

            // Group packets by source once; both schedules consume the grouping
            // (and the rotor index below is the packet's batch-order rank within
            // its source group, which the stable sort preserves).
            scratch.group_by(batch.len(), |i| batch[i].src.index());

            // Direct schedule: max over ordered pairs (src, dst) of summed
            // fragment slots — dst-indexed accumulator, reset per source group.
            let mut direct_rounds = 0u64;
            let mut direct_msgs = 0u64;
            let mut direct_bits = 0u64;
            for s in 0..n {
                let group = &scratch.order
                    [scratch.group_start[s] as usize..scratch.group_start[s + 1] as usize];
                for &idx in group {
                    let p = &batch[idx as usize];
                    let k = slots(p.bits);
                    let d = p.dst.index();
                    if scratch.loads[d] == 0 {
                        scratch.touched.push(d);
                    }
                    scratch.loads[d] += k;
                    direct_rounds = direct_rounds.max(scratch.loads[d]);
                    direct_msgs += k;
                    direct_bits += p.bits;
                }
                for d in scratch.touched.drain(..) {
                    scratch.loads[d] = 0;
                }
            }

            // Rotor-relay schedule: hop 1 src -> (src + i) mod n, hop 2 relay -> dst,
            // where `i` is the packet's rank within its source (batch order).
            let mut hop1_rounds = 0u64;
            let mut relay_msgs = 0u64;
            let mut relay_bits = 0u64;
            scratch.relay_of.clear();
            scratch.relay_of.resize(batch.len(), 0);
            for s in 0..n {
                let group = &scratch.order
                    [scratch.group_start[s] as usize..scratch.group_start[s + 1] as usize];
                for (i, &idx) in group.iter().enumerate() {
                    let p = &batch[idx as usize];
                    let relay = idx_usize((s as u64 + i as u64) % n as u64);
                    scratch.relay_of[idx as usize] = idx_u32(relay);
                    if relay != s {
                        let k = slots(p.bits);
                        if scratch.loads[relay] == 0 {
                            scratch.touched.push(relay);
                        }
                        scratch.loads[relay] += k;
                        hop1_rounds = hop1_rounds.max(scratch.loads[relay]);
                        relay_msgs += k;
                        relay_bits += p.bits;
                    }
                }
                for r in scratch.touched.drain(..) {
                    scratch.loads[r] = 0;
                }
            }
            let relay_of = std::mem::take(&mut scratch.relay_of);
            scratch.group_by(batch.len(), |i| relay_of[i] as usize);
            let mut hop2_rounds = 0u64;
            for r in 0..n {
                let group = &scratch.order
                    [scratch.group_start[r] as usize..scratch.group_start[r + 1] as usize];
                for &idx in group {
                    let p = &batch[idx as usize];
                    let d = p.dst.index();
                    if d != r {
                        let k = slots(p.bits);
                        if scratch.loads[d] == 0 {
                            scratch.touched.push(d);
                        }
                        scratch.loads[d] += k;
                        hop2_rounds = hop2_rounds.max(scratch.loads[d]);
                        relay_msgs += k;
                        relay_bits += p.bits;
                    }
                }
                for d in scratch.touched.drain(..) {
                    scratch.loads[d] = 0;
                }
            }
            scratch.relay_of = relay_of;
            let relay_rounds = hop1_rounds + hop2_rounds;

            let use_relay = match choice {
                ScheduleChoice::Cheaper => relay_rounds < direct_rounds,
                ScheduleChoice::Direct => false,
                ScheduleChoice::Relay => true,
            };
            let (rounds, msgs, bits) = if use_relay {
                (relay_rounds, relay_msgs, relay_bits)
            } else {
                (direct_rounds, direct_msgs, direct_bits)
            };
            // One ledger message per fragment keeps message counts honest.
            engine.core_mut().record_schedule(rounds, msgs, bits);
            (rounds, use_relay)
        }
    }

    fn pkt(src: u32, dst: u32, bits: u64, tag: u32) -> Packet<u32> {
        Packet {
            src: NodeId::new(src),
            dst: NodeId::new(dst),
            bits,
            payload: tag,
        }
    }

    #[test]
    fn empty_request_is_free() {
        let mut e = CliqueEngine::strict(4, 32);
        let (inboxes, out) =
            route::<u32>(&mut e, vec![]).expect("routing succeeds: endpoints are in range");
        assert!(inboxes.iter().all(|i| i.is_empty()));
        assert_eq!(out.rounds, 0);
        assert_eq!(e.ledger().rounds, 0);
    }

    #[test]
    fn single_packet_one_round() {
        let mut e = CliqueEngine::strict(4, 32);
        let (inboxes, out) = route(&mut e, vec![pkt(0, 2, 16, 7)])
            .expect("routing succeeds: endpoints are in range");
        assert_eq!(inboxes[2], vec![pkt(0, 2, 16, 7)]);
        assert_eq!(out.rounds, 1);
        assert_eq!(out.batches, 1);
    }

    #[test]
    fn self_delivery_is_free() {
        let mut e = CliqueEngine::strict(4, 32);
        let (inboxes, out) = route(&mut e, vec![pkt(1, 1, 1000, 9)])
            .expect("routing succeeds: endpoints are in range");
        assert_eq!(inboxes[1].len(), 1);
        assert_eq!(out.rounds, 0);
        assert_eq!(e.ledger().bits, 0);
    }

    #[test]
    fn fragmentation_charges_multiple_slots() {
        let mut e = CliqueEngine::strict(4, 32);
        // 100 bits over a 32-bit link = 4 fragments.
        let (_, out) = route(&mut e, vec![pkt(0, 1, 100, 0)])
            .expect("routing succeeds: endpoints are in range");
        assert_eq!(out.rounds, 4);
        assert_eq!(e.ledger().rounds, 4);
    }

    #[test]
    fn hotspot_pair_uses_relay() {
        let n = 16;
        let mut e = CliqueEngine::strict(n, 32);
        // Node 0 sends 16 packets, all to node 1: direct would need 16
        // rounds; the rotor spreads them across relays.
        let packets: Vec<Packet<u32>> = (0..16).map(|i| pkt(0, 1, 32, i)).collect();
        let (inboxes, out) =
            route(&mut e, packets).expect("routing succeeds: endpoints are in range");
        assert_eq!(inboxes[1].len(), 16);
        assert!(out.used_relay);
        assert!(
            out.rounds <= 3,
            "relay schedule should be O(1) rounds, got {}",
            out.rounds
        );
    }

    #[test]
    fn lenzen_precondition_load_is_constant_rounds() {
        // Every node sends n packets to uniformly-spread destinations:
        // the canonical Lenzen workload.
        let n = 32;
        let mut e = CliqueEngine::strict(n, 32);
        let mut packets = Vec::new();
        for s in 0..n as u32 {
            for k in 0..n as u32 {
                let d = (s + k) % n as u32;
                if d != s {
                    packets.push(pkt(s, d, 32, k));
                }
            }
        }
        let (_, out) = route(&mut e, packets).expect("routing succeeds: endpoints are in range");
        assert_eq!(out.batches, 1);
        assert!(out.rounds <= 4, "got {} rounds", out.rounds);
    }

    #[test]
    fn over_capacity_splits_into_batches() {
        let n = 4;
        let mut e = CliqueEngine::strict(n, 32);
        // Node 0 is the destination of 3n packets from node 1 alone is
        // impossible (per-source also binds); use 3 sources × n packets.
        let mut packets = Vec::new();
        for s in 1..4u32 {
            for k in 0..8u32 {
                packets.push(pkt(s, 0, 32, k));
            }
        }
        // dst 0 receives 24 > n = 4 packets ⇒ at least 6 batches by dst cap.
        let (inboxes, out) =
            route(&mut e, packets).expect("routing succeeds: endpoints are in range");
        assert_eq!(inboxes[0].len(), 24);
        assert!(out.batches >= 6, "got {} batches", out.batches);
    }

    #[test]
    fn endpoints_validated() {
        let mut e = CliqueEngine::strict(4, 32);
        let err = route(&mut e, vec![pkt(0, 9, 8, 0)]).unwrap_err();
        assert!(matches!(
            err,
            RoutingError::EndpointOutOfRange { node: 9, .. }
        ));
        assert!(err.to_string().contains("v9"));
    }

    #[test]
    fn inboxes_sorted_by_source() {
        let mut e = CliqueEngine::strict(8, 32);
        let packets = vec![pkt(5, 0, 8, 0), pkt(2, 0, 8, 0), pkt(7, 0, 8, 0)];
        let (inboxes, _) =
            route(&mut e, packets).expect("routing succeeds: endpoints are in range");
        let srcs: Vec<u32> = inboxes[0].iter().map(|p| p.src.raw()).collect();
        assert_eq!(srcs, vec![2, 5, 7]);
    }

    #[test]
    fn executed_schedule_delivers_everything_and_matches_direct_bound() {
        // route_executed realizes the direct schedule through real rounds:
        // executed rounds == max over ordered pairs of Σ⌈bits/B⌉ per batch.
        let n = 8;
        let b = 32u64;
        let packets = vec![
            pkt(0, 1, 100, 1), // 4 fragments
            pkt(0, 1, 10, 2),  // +1 ⇒ pair (0,1) carries 5
            pkt(2, 3, 32, 3),
            pkt(4, 4, 5, 4), // self: free
        ];
        let expected_rounds = 5;
        let mut e = CliqueEngine::strict(n, b);
        let (inboxes, rounds) =
            route_executed(&mut e, packets).expect("routing succeeds: endpoints are in range");
        assert_eq!(rounds, expected_rounds);
        assert_eq!(e.ledger().rounds, expected_rounds);
        assert_eq!(inboxes[1].len(), 2);
        assert_eq!(inboxes[3].len(), 1);
        assert_eq!(inboxes[4].len(), 1);
        assert_eq!(e.ledger().violations, 0);
    }

    /// Deterministic skewed workload for agreement tests; regenerated per
    /// call so no caller ever needs to clone a packet vector.
    fn spread_workload(n: usize) -> Vec<Packet<u32>> {
        let mut packets = Vec::new();
        for s in 0..n as u32 {
            for k in 1..4u32 {
                packets.push(pkt(s, (s + k) % n as u32, 17 * (k as u64 + 1), s * 10 + k));
            }
        }
        packets
    }

    #[test]
    fn executed_and_analytic_agree_on_delivery() {
        // Same packet multiset in, same inboxes out (payload-for-payload).
        let n = 10;
        let mut e1 = CliqueEngine::strict(n, 32);
        let (a, _) =
            route(&mut e1, spread_workload(n)).expect("routing succeeds: endpoints are in range");
        let mut e2 = CliqueEngine::strict(n, 32);
        let (b, _) = route_executed(&mut e2, spread_workload(n))
            .expect("routing succeeds: endpoints are in range");
        assert_eq!(a, b);
    }

    #[test]
    fn direct_and_relay_deliver_identical_multisets_with_exact_charges() {
        // Property test (seeded cases): forcing the direct schedule and
        // forcing the rotor-relay schedule must deliver the *same payload
        // multiset* to every inbox, and each run's ledger must reflect its
        // own schedule exactly (rounds charged == outcome rounds,
        // deterministic across repetition).
        use cc_mis_graph::rng::SplitMix64;
        for case in 0u64..32 {
            let mut rng = SplitMix64::new(0xD1CE_0000 + case);
            let n = 4 + rng.next_below(12) as usize;
            let m = 1 + rng.next_below(4 * n as u64) as usize;
            let mut packets = Vec::with_capacity(m);
            for tag in 0..m as u32 {
                let src = rng.next_below(n as u64) as u32;
                let dst = rng.next_below(n as u64) as u32;
                let bits = 1 + rng.next_below(80);
                packets.push(pkt(src, dst, bits, tag));
            }
            let run = |choice: ScheduleChoice, packets: Vec<Packet<u32>>| {
                let mut e = CliqueEngine::strict(n, 32);
                let (inboxes, out) = route_with(&mut e, packets, choice)
                    .expect("routing succeeds: endpoints are in range");
                assert_eq!(
                    e.ledger().rounds,
                    out.rounds,
                    "case {case}: ledger rounds must equal schedule rounds"
                );
                let payloads: Vec<Vec<u32>> = inboxes
                    .iter()
                    .map(|inbox| {
                        let mut tags: Vec<u32> = inbox.iter().map(|p| p.payload).collect();
                        tags.sort_unstable();
                        tags
                    })
                    .collect();
                (payloads, out.rounds, e.ledger().messages, e.ledger().bits)
            };
            let (direct, d_rounds, d_msgs, d_bits) = run(ScheduleChoice::Direct, packets.clone());
            let (relay, r_rounds, r_msgs, r_bits) = run(ScheduleChoice::Relay, packets.clone());
            assert_eq!(direct, relay, "case {case}: inbox payload multisets differ");
            // Determinism of the charges: re-running either schedule on the
            // same workload reproduces rounds, messages, and bits exactly.
            let (_, d_rounds2, d_msgs2, d_bits2) = run(ScheduleChoice::Direct, packets.clone());
            assert_eq!((d_rounds, d_msgs, d_bits), (d_rounds2, d_msgs2, d_bits2));
            let (_, r_rounds2, r_msgs2, r_bits2) = run(ScheduleChoice::Relay, packets.clone());
            assert_eq!((r_rounds, r_msgs, r_bits), (r_rounds2, r_msgs2, r_bits2));
            // And the production chooser is never worse than either forced
            // schedule (it picks per batch, so it can beat both totals).
            let (_, c_rounds, _, _) = run(ScheduleChoice::Cheaper, packets);
            assert!(c_rounds <= d_rounds.min(r_rounds), "case {case}");
        }
    }

    #[test]
    fn executed_preserves_strictness() {
        // The executed path goes through strict CliqueRound sends; a giant
        // packet must still be fragmented, never over-budget.
        let mut e = CliqueEngine::strict(4, 16);
        let (inboxes, rounds) = route_executed(&mut e, vec![pkt(0, 1, 1000, 0)])
            .expect("routing succeeds: endpoints are in range");
        assert_eq!(inboxes[1].len(), 1);
        assert_eq!(rounds, 63); // ceil(1000/16)
        assert_eq!(e.ledger().violations, 0);
    }

    /// A packet size for the oracle test: mostly a few slots, sometimes
    /// more slots than a `u32` counts.
    fn oracle_bits(rng: &mut cc_mis_graph::rng::SplitMix64) -> u64 {
        match rng.next_below(16) {
            0 => 1 << 40,
            _ => 1 + rng.next_below(80),
        }
    }

    /// Seeded request shapes for the oracle test.
    fn oracle_workload(
        shape: u64,
        rng: &mut cc_mis_graph::rng::SplitMix64,
        n: usize,
    ) -> Vec<Packet<u32>> {
        let n64 = n as u64;
        let mut packets = Vec::new();
        let mut push = |src: u64, dst: u64, bits: u64| {
            let tag = packets.len() as u32;
            packets.push(pkt(src as u32, dst as u32, bits, tag));
        };
        match shape {
            // Spread load in ascending (src, dst) order, with repeated
            // ordered pairs and the odd self-addressed packet.
            0 => {
                for s in 0..n64 {
                    let mut dsts: Vec<u64> = (0..rng.next_below(n64))
                        .map(|_| rng.next_below(n64))
                        .collect();
                    dsts.sort_unstable();
                    for d in dsts {
                        push(s, d, oracle_bits(rng));
                    }
                }
            }
            // Spread load in arbitrary source order.
            1 => {
                for _ in 0..rng.next_below(n64 * n64 / 2) {
                    push(rng.next_below(n64), rng.next_below(n64), oracle_bits(rng));
                }
            }
            // Hotspots over capacity: a few destinations (and one source)
            // see more than `n` packets, so first-fit needs several batches.
            2 => {
                let hot = rng.next_below(n64);
                for _ in 0..n64 + 1 + rng.next_below(2 * n64) {
                    push(rng.next_below(n64), hot, oracle_bits(rng));
                }
                let loud = rng.next_below(n64);
                for _ in 0..n64 + 1 + rng.next_below(n64) {
                    push(loud, rng.next_below(n64), oracle_bits(rng));
                }
                for _ in 0..rng.next_below(n64 * 4) {
                    push(rng.next_below(n64), rng.next_below(n64), oracle_bits(rng));
                }
            }
            // Self-addressed packets only.
            3 => {
                for _ in 0..1 + rng.next_below(3 * n64) {
                    let v = rng.next_below(n64);
                    push(v, v, oracle_bits(rng));
                }
            }
            // Empty request.
            4 => {}
            // All-to-all (the saturated gather shape: strictly ascending
            // pairs) with mixed `bits`: sub-slot, exactly one slot, just
            // over, many slots, and more slots than a `u32` counts.
            _ => {
                let sizes = [1u64, 32, 33, 5 * 32, 10_000, 1 << 40];
                for s in 0..n64 {
                    for d in 0..n64 {
                        if d != s {
                            push(s, d, sizes[rng.next_below(sizes.len() as u64) as usize]);
                        }
                    }
                }
            }
        }
        packets
    }

    #[test]
    fn route_matches_first_fit_reference_exactly() {
        // The counting-pass fast path, the rotor counters and the relay
        // scatter must reproduce the first-fit scheduler bit for bit:
        // outcome, ledger, trace events, and every inbox in order.
        use crate::runtime::{RoundEvent, RoundObserver};
        use cc_mis_graph::rng::SplitMix64;
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct BulkEvents(usize);
        impl RoundObserver for BulkEvents {
            fn on_event(&mut self, event: &RoundEvent) {
                self.0 += usize::from(event.kind == "bulk");
            }
        }

        type Routed = (Inboxes<u32>, RoutingOutcome);
        let observed = |n: usize, run: &dyn Fn(&mut CliqueEngine) -> Routed| {
            let events = Rc::new(RefCell::new(BulkEvents::default()));
            let mut e = CliqueEngine::strict(n, 32);
            e.attach_observer(events.clone());
            let (inboxes, out) = run(&mut e);
            let ledger = e.ledger();
            let bulk = events.borrow().0;
            (
                inboxes,
                (out.rounds, out.batches, out.used_relay),
                (ledger.rounds, ledger.messages, ledger.bits),
                bulk,
            )
        };
        let mut multi_batch_cases = 0;
        for case in 0u64..60 {
            let shape = case % 6;
            let mut rng = SplitMix64::new(0x0AC1_E000 + case);
            let n = 2 + rng.next_below(14) as usize;
            for choice in [
                ScheduleChoice::Cheaper,
                ScheduleChoice::Direct,
                ScheduleChoice::Relay,
            ] {
                let seed = rng.next_u64();
                let workload = || oracle_workload(shape, &mut SplitMix64::new(seed), n);
                let new = observed(n, &|e| {
                    route_with(e, workload(), choice).expect("endpoints are in range")
                });
                let old = observed(n, &|e| reference::route(e, workload(), choice));
                assert_eq!(new.1, old.1, "case {case} {choice:?}: outcome");
                assert_eq!(new.2, old.2, "case {case} {choice:?}: ledger");
                assert_eq!(new.3, old.3, "case {case} {choice:?}: bulk events");
                assert_eq!(new.0, old.0, "case {case} {choice:?}: inboxes");
                multi_batch_cases += usize::from(old.1 .1 > 1);
            }
        }
        assert!(
            multi_batch_cases > 0,
            "no workload exercised several batches"
        );
    }

    #[test]
    fn ledger_reflects_schedule() {
        let mut e = CliqueEngine::strict(4, 32);
        route(&mut e, vec![pkt(0, 1, 32, 0), pkt(2, 3, 32, 0)])
            .expect("routing succeeds: endpoints are in range");
        // Both packets fit in parallel: 1 round, 2 messages, 64 bits.
        assert_eq!(e.ledger().rounds, 1);
        assert_eq!(e.ledger().messages, 2);
        assert_eq!(e.ledger().bits, 64);
    }
}
