//! Graph exponentiation (Lemma 2.14): learning `r`-hop neighborhoods in
//! `O(log r)` congested-clique rounds.
//!
//! The doubling scheme of the paper's proof (re-proving [Lenzen &
//! Wattenhofer, PODC'10]): initially every node knows its incident edges
//! (radius-1 ball). In step `i`, every node ships its currently-known ball
//! to every node *inside* that ball; since the ball holds all nodes within
//! distance `2^i`, the union of received balls covers radius `2^{i+1}`.
//! After `⌈log₂ r⌉` steps each node knows its `r`-hop neighborhood. Each
//! step's packet exchange is delivered with Lenzen routing
//! ([`cc_mis_sim::routing`]), whose measured rounds are charged to the
//! engine — `O(1)` per step whenever the Lemma 2.14 capacity precondition
//! (ball size `≪ n^{δ}`) holds.
//!
//! Knowledge travels as *edge records*. A record's declared size
//! (`record_bits`) includes whatever decorations ride along — the caller
//! using decorated graphs `G*[S]` (§2.4) passes the decorated size, so the
//! bit accounting covers decorations even though the payload carries only
//! the edge (decorations being reconstructible from the shared randomness;
//! see DESIGN.md §2).
//!
//! ## Representation
//!
//! Balls are stored *flat*: each edge `(a, b)` with `a < b` is packed into
//! a single `u64` key (`a` in the high half), and a ball is a sorted,
//! deduplicated `Vec<u64>` of keys. Sorted-key order coincides with the
//! lexicographic pair order. Internally a gather works in two dense id
//! spaces: edge id `i` is the `i`-th participant edge in key order (so
//! id-sorted output is key-sorted output), and local node `j` is the
//! `j`-th endpoint of a participant edge in node order — the only nodes
//! that ever hold, send or receive a ball, so the gather's per-step
//! buffers are sized by them, not by `n`.
//!
//! Payloads ship *by reference*: a packet is a `Packet<()>` that names
//! its source, because its payload — the sender's ball as of the start of
//! the step — is exactly what the step's read-only ball table holds for
//! that source. The balls are double-buffered: every receiver unions the
//! start-of-step balls of its inbox's sources, and the grown balls replace
//! them only once every union is done. Target sets (deduplicated against
//! a bitmap over local nodes) and unions (test-and-set against a bitmap
//! over edge ids, with an early stop once a ball holds every participant
//! edge) run on [`par_map_nodes`] over contiguous node chunks, each chunk
//! owning its bitmaps; [`kway_union`] is the sorted-merge reference the
//! bitmap union must agree with. The round/bit accounting is unchanged:
//! payload bits (`ball edges × record_bits`), packet targets and packet
//! order are exactly those of a gather that copies every ball into its
//! packets.

use cc_mis_graph::{Graph, NodeId};
use cc_mis_sim::clique::CliqueEngine;
use cc_mis_sim::par_nodes::par_map_nodes;
use cc_mis_sim::routing::{route, Packet};

/// Packs an edge `(a, b)` into a single `u64` key (`a` in the high bits).
/// Sorting keys sorts the edges lexicographically by `(a, b)`.
#[inline]
pub fn pack_edge(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// Inverse of [`pack_edge`].
#[inline]
pub fn unpack_edge(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// A gathered ball: the set of known edges, as sorted packed-edge keys.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ball {
    keys: Vec<u64>,
}

impl Ball {
    /// Number of known edges.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the ball holds no edges.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Whether the edge `(a, b)` (as ordered by the gather graph, `a < b`)
    /// is known.
    pub fn contains(&self, a: u32, b: u32) -> bool {
        self.keys.binary_search(&pack_edge(a, b)).is_ok()
    }

    /// The sorted packed-edge keys.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Iterates the known edges in `(a, b)` lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.keys.iter().map(|&k| unpack_edge(k))
    }
}

/// Result of a [`gather_balls`] invocation.
#[derive(Debug, Clone)]
pub struct GatherResult {
    /// For each node: the set of known edges `(u, v)` with `u < v`
    /// (non-participants have empty balls).
    pub balls: Vec<Ball>,
    /// Doubling steps performed (`⌈log₂ radius⌉`).
    pub steps: u64,
    /// Clique rounds the routing consumed (also charged to the engine).
    pub rounds: u64,
    /// Largest ball, in edges, at the end.
    pub max_ball_edges: usize,
}

/// Union of sorted, deduplicated `u64` runs by divide-and-conquer k-way
/// merge: `O(M log k)` for `M` total keys across `k` runs. The reference
/// union for [`gather_balls`] (whose hot path uses an `O(M)` bitmap union
/// over dense edge ids instead).
pub fn kway_union(runs: &[&[u64]]) -> Vec<u64> {
    match runs.len() {
        0 => Vec::new(),
        1 => runs[0].to_vec(),
        2 => merge_union(runs[0], runs[1]),
        _ => {
            let mid = runs.len() / 2;
            merge_union(&kway_union(&runs[..mid]), &kway_union(&runs[mid..]))
        }
    }
}

/// Two-pointer union of two sorted deduplicated runs.
pub fn merge_union(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += (x <= y) as usize;
        j += (y <= x) as usize;
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Gathers, for every `participant` node, all edges of `gather` within
/// distance `radius` of it.
///
/// `gather` must have the same vertex numbering as the engine; its edges
/// are the knowledge being learned (for §2.4 this is `G[S]`; for §2.5 it is
/// `G` itself). Only participants hold and exchange knowledge; edges with a
/// non-participant endpoint are assumed absent from `gather` (and are
/// ignored if present).
///
/// # Panics
///
/// Panics if `radius == 0` or the mask length mismatches the graph.
///
/// # Example
///
/// ```
/// use cc_mis_core::exponentiation::gather_balls;
/// use cc_mis_sim::clique::CliqueEngine;
/// use cc_mis_graph::generators;
///
/// let g = generators::path(6);
/// let mut engine = CliqueEngine::strict(6, 64);
/// let res = gather_balls(&mut engine, &g, &vec![true; 6], 2, 20);
/// // Node 0 sees edges (0,1) and (1,2) — its 2-hop ball on a path.
/// assert!(res.balls[0].contains(0, 1));
/// assert!(res.balls[0].contains(1, 2));
/// assert!(!res.balls[0].contains(2, 3));
/// ```
pub fn gather_balls(
    engine: &mut CliqueEngine,
    gather: &Graph,
    participant: &[bool],
    radius: usize,
    record_bits: u64,
) -> GatherResult {
    assert!(radius >= 1, "radius must be at least 1");
    assert_eq!(
        participant.len(),
        gather.node_count(),
        "participant mask mismatch"
    );
    let n = gather.node_count();

    // Dense edge-id space over the participant-filtered edge set: id `i` is
    // the `i`-th edge in ascending packed-key order, so id-sorted vectors
    // are key-sorted vectors. `edges()` already iterates in ascending
    // `(u, v)` order.
    let mut edge_keys: Vec<u64> = Vec::new();
    for (u, v) in gather.edges() {
        if participant[u.index()] && participant[v.index()] {
            edge_keys.push(pack_edge(u.raw(), v.raw()));
        }
    }
    debug_assert!(edge_keys.is_sorted());
    let m_part = edge_keys.len();

    // Dense node space over the endpoints of those edges — the only nodes
    // that ever hold, send or receive a ball. Local ids ascend with node
    // ids, so local-sorted target lists are node-sorted.
    let mut local = vec![NO_BALL; n];
    for &key in &edge_keys {
        let (a, b) = unpack_edge(key);
        local[a as usize] = 0;
        local[b as usize] = 0;
    }
    let mut nodes: Vec<u32> = Vec::new();
    for (v, slot) in local.iter_mut().enumerate() {
        if *slot == 0 {
            *slot = nodes.len() as u32;
            nodes.push(v as u32);
        }
    }
    let k = nodes.len();
    let ends: Vec<(u32, u32)> = edge_keys
        .iter()
        .map(|&key| {
            let (a, b) = unpack_edge(key);
            (local[a as usize], local[b as usize])
        })
        .collect();
    // Radius-1 initialization: incident edges. Ids are appended in
    // ascending order, so every ball starts sorted.
    let mut balls: Vec<Vec<u32>> = vec![Vec::new(); k];
    for (id, &(a, b)) in ends.iter().enumerate() {
        balls[a as usize].push(id as u32);
        balls[b as usize].push(id as u32);
    }

    let steps = if radius <= 1 {
        0
    } else {
        (radius as f64).log2().ceil() as u64
    };
    let mut total_rounds = 0u64;
    let mut steps_run = 0u64;
    for _ in 0..steps {
        // Contiguous local-node chunks for the per-node phases, about one
        // per `CHUNK_IDS` ball ids, so a small gather stays on the calling
        // thread. Every node's result is a pure function of the step's
        // balls and its inbox, so any split gives the same output.
        let volume: usize = balls.iter().map(Vec::len).sum();
        let chunk = k.div_ceil((volume / CHUNK_IDS).clamp(1, MAX_CHUNKS)).max(1);
        let chunks = k.div_ceil(chunk);
        let chunk_range = |c: usize| c * chunk..((c + 1) * chunk).min(k);

        // Every node ships its ball to every other endpoint of its edges.
        // The payload is the sender's ball as of the start of the step and
        // `balls` does not change until the unions below are applied, so
        // a packet only needs to name its source: receivers read the ball
        // from `balls` directly.
        let plans = par_map_nodes(chunks, |c| {
            let mut mark = vec![0u64; k.div_ceil(64)];
            let mut targets = Vec::new();
            let mut counts = Vec::with_capacity(chunk);
            for i in chunk_range(c) {
                let start = targets.len();
                ball_targets(&balls[i], &ends, i as u32, &mut mark, &mut targets);
                counts.push((targets.len() - start) as u32);
            }
            (targets, counts)
        });
        let total: usize = plans.iter().map(|(targets, _)| targets.len()).sum();
        let mut packets: Vec<Packet<()>> = Vec::with_capacity(total);
        for (c, (targets, counts)) in plans.iter().enumerate() {
            let mut rest = targets.as_slice();
            for (i, &count) in chunk_range(c).zip(counts) {
                let (mine, tail) = rest.split_at(count as usize);
                rest = tail;
                let src = NodeId::new(nodes[i]);
                let bits = balls[i].len() as u64 * record_bits;
                packets.extend(mine.iter().map(|&t| Packet {
                    src,
                    dst: NodeId::new(nodes[t as usize]),
                    bits,
                    payload: (),
                }));
            }
        }
        drop(plans);
        let (inboxes, outcome) = route(engine, packets).expect("gather packets are well-formed");
        total_rounds += outcome.rounds;
        steps_run += 1;

        // A ball holding every edge of the gather graph can learn nothing
        // more — skip the union entirely (a large wall-clock saving in the
        // saturating step; the routing rounds were already charged, so
        // accounting is unchanged).
        let full = gather.edge_count();
        // Workers return each chunk's grown balls as one flat id run; the
        // per-node balls, which outlive the step, are allocated here on
        // the calling thread, so no worker's allocator arena is left
        // holding long-lived blocks (which raised peak RSS).
        let grown = par_map_nodes(chunks, |c| {
            let mut seen = vec![0u64; m_part.div_ceil(64)];
            let mut ids = Vec::new();
            let mut lens = Vec::new();
            for i in chunk_range(c) {
                let inbox = &inboxes[nodes[i] as usize];
                if balls[i].len() == full || inbox.is_empty() {
                    continue;
                }
                let sources = inbox.iter().map(|p| &balls[local[p.src.index()] as usize]);
                let start = ids.len();
                if union_into(&balls[i], sources, m_part, &mut seen, &mut ids) {
                    lens.push((i, ids.len() - start));
                }
            }
            (ids, lens)
        });
        drop(inboxes);
        let mut grew = false;
        for (ids, lens) in grown {
            let mut rest = ids.as_slice();
            for (i, len) in lens {
                let (ball, tail) = rest.split_at(len);
                balls[i] = ball.to_vec();
                rest = tail;
                grew = true;
            }
        }
        // Saturation: once no ball grew, further doubling steps are no-ops
        // (each node already knows its entire component) — skip them.
        if !grew {
            break;
        }
    }

    let max_ball_edges = balls.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = vec![Ball::default(); n];
    for (ids, &v) in balls.into_iter().zip(&nodes) {
        out[v as usize] = Ball {
            keys: ids.into_iter().map(|id| edge_keys[id as usize]).collect(),
        };
    }
    GatherResult {
        balls: out,
        steps: steps_run,
        rounds: total_rounds,
        max_ball_edges,
    }
}

/// `local` entry of a node that is no endpoint of a participant edge.
const NO_BALL: u32 = u32::MAX;

/// Upper bound on the chunks a per-node phase of [`gather_balls`] is split
/// into (each chunk allocates its own bitmaps once per step).
const MAX_CHUNKS: usize = 64;

/// Ball ids per chunk below which a step does not split further.
const CHUNK_IDS: usize = 1 << 15;

/// Appends to `out`, in ascending order, every endpoint of an edge of
/// `ball` other than `me` (all in local node ids). `mark` is an all-zero
/// bitmap over local nodes on entry and on return.
fn ball_targets(ball: &[u32], ends: &[(u32, u32)], me: u32, mark: &mut [u64], out: &mut Vec<u32>) {
    let start = out.len();
    for &id in ball {
        let (a, b) = ends[id as usize];
        for t in [a, b] {
            let word = &mut mark[(t >> 6) as usize];
            let bit = 1u64 << (t & 63);
            if t != me && *word & bit == 0 {
                *word |= bit;
                out.push(t);
            }
        }
    }
    let found = out.len() - start;
    if found >= mark.len() {
        // Dense: one sequential scan emits the targets sorted and clears
        // the bitmap.
        out.truncate(start);
        for (wi, word) in mark.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                out.push((wi as u32) << 6 | bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    } else {
        for &t in &out[start..] {
            mark[(t >> 6) as usize] = 0;
        }
        out[start..].sort_unstable();
    }
}

/// Appends to `out` the union of `ball` with every ball in `sources`, in
/// ascending id order, and returns `true` — or appends nothing and returns
/// `false` if the union adds nothing to `ball`. Runs in `O(total input
/// ids)` against `seen`, an all-zero membership bitmap over the `m_part`
/// edge ids on entry and on return, and stops reading sources once the
/// union holds every edge.
fn union_into<'a>(
    ball: &[u32],
    sources: impl Iterator<Item = &'a Vec<u32>>,
    m_part: usize,
    seen: &mut [u64],
    out: &mut Vec<u32>,
) -> bool {
    for &id in ball {
        seen[(id >> 6) as usize] |= 1 << (id & 63);
    }
    let mut count = ball.len();
    for source in sources {
        if count == m_part {
            break;
        }
        for &id in source {
            let word = &mut seen[(id >> 6) as usize];
            let bit = 1u64 << (id & 63);
            if *word & bit == 0 {
                *word |= bit;
                count += 1;
            }
        }
    }
    if count == ball.len() {
        for &id in ball {
            seen[(id >> 6) as usize] = 0;
        }
        return false;
    }
    // A sequential scan of the bitmap emits the new ball already id-sorted
    // (hence key-sorted) and clears it.
    out.reserve(count);
    for (wi, word) in seen.iter_mut().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            out.push((wi as u32) << 6 | bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_mis_graph::generators;
    use cc_mis_sim::bits::standard_bandwidth;
    use std::collections::{BTreeSet, VecDeque};

    fn engine_for(n: usize) -> CliqueEngine {
        CliqueEngine::strict(n.max(2), standard_bandwidth(n.max(2)))
    }

    fn as_set(ball: &Ball) -> BTreeSet<(u32, u32)> {
        ball.edges().collect()
    }

    /// Reference: edges within BFS distance `radius` of `s`.
    fn bfs_ball(g: &Graph, s: NodeId, radius: usize) -> BTreeSet<(u32, u32)> {
        let mut dist = vec![usize::MAX; g.node_count()];
        dist[s.index()] = 0;
        let mut q = VecDeque::from([s]);
        while let Some(v) = q.pop_front() {
            if dist[v.index()] >= radius {
                continue;
            }
            for &u in g.neighbors(v) {
                if dist[u.index()] == usize::MAX {
                    dist[u.index()] = dist[v.index()] + 1;
                    q.push_back(u);
                }
            }
        }
        // An edge is in the ball when it lies on a path within the radius:
        // min(dist(u), dist(v)) + 1 ≤ radius.
        g.edges()
            .filter(|&(u, v)| {
                let du = dist[u.index()];
                let dv = dist[v.index()];
                du.min(dv) < radius
            })
            .map(|(u, v)| (u.raw(), v.raw()))
            .collect()
    }

    #[test]
    fn edge_keys_pack_and_sort_like_pairs() {
        let pairs = [
            (0u32, 1u32),
            (0, 7),
            (1, 2),
            (3, 4),
            (u32::MAX - 1, u32::MAX),
        ];
        let mut keys: Vec<u64> = pairs.iter().map(|&(a, b)| pack_edge(a, b)).collect();
        for (k, &(a, b)) in keys.iter().zip(&pairs) {
            assert_eq!(unpack_edge(*k), (a, b));
        }
        let sorted = keys.clone();
        keys.sort_unstable();
        assert_eq!(
            keys, sorted,
            "key order must match lexicographic pair order"
        );
    }

    #[test]
    fn kway_union_merges_sorted_runs() {
        assert_eq!(kway_union(&[]), Vec::<u64>::new());
        assert_eq!(kway_union(&[&[1, 3, 5]]), vec![1, 3, 5]);
        assert_eq!(
            kway_union(&[&[1, 3, 5][..], &[2, 3, 4][..], &[5, 9][..], &[][..]]),
            vec![1, 2, 3, 4, 5, 9]
        );
    }

    #[test]
    fn balls_contain_bfs_balls() {
        // The gathered ball must contain every edge within the radius
        // (it may contain more — doubling overshoots to the next power of
        // two, exactly as in the paper).
        for (g, radius) in [
            (generators::cycle(16), 3),
            (generators::grid(4, 5), 2),
            (generators::erdos_renyi_gnp(40, 0.08, 1), 3),
            (generators::balanced_tree(2, 4), 4),
        ] {
            let n = g.node_count();
            let mut engine = engine_for(n);
            let res = gather_balls(&mut engine, &g, &vec![true; n], radius, 24);
            for v in g.nodes() {
                let expected = bfs_ball(&g, v, radius);
                assert!(
                    expected.is_subset(&as_set(&res.balls[v.index()])),
                    "node {v} radius {radius} missing edges"
                );
            }
        }
    }

    #[test]
    fn gathered_balls_are_exactly_power_of_two_bfs_balls() {
        // The doubling recursion gives exactly the radius-2^steps BFS ball
        // (edges whose closer endpoint is within 2^steps − 1). This pins
        // the bitmap union against the BFS reference set-for-set —
        // any over- or under-merge shows up here.
        for (g, radius) in [
            (generators::erdos_renyi_gnp(60, 0.06, 5), 4usize),
            (generators::grid(5, 6), 2),
            (generators::random_regular(48, 3, 9), 8),
        ] {
            let n = g.node_count();
            let mut engine = engine_for(n);
            let res = gather_balls(&mut engine, &g, &vec![true; n], radius, 24);
            let reach = 1usize << res.steps;
            for v in g.nodes() {
                assert_eq!(
                    as_set(&res.balls[v.index()]),
                    bfs_ball(&g, v, reach),
                    "node {v} radius {radius} (effective {reach})"
                );
            }
        }
    }

    #[test]
    fn marked_union_agrees_with_kway_reference() {
        // The gather's bitmap union and the k-way sorted merge are
        // two implementations of the same set union; cross-check them on
        // the raw key level with overlapping runs.
        let runs: Vec<Vec<u64>> = vec![
            (0..40).map(|i| pack_edge(i, i + 1)).collect(),
            (20..70).map(|i| pack_edge(i, i + 1)).collect(),
            vec![],
            (0..100).step_by(3).map(|i| pack_edge(i, i + 1)).collect(),
        ];
        let slices: Vec<&[u64]> = runs.iter().map(Vec::as_slice).collect();
        let merged = kway_union(&slices);
        let mut expected: Vec<u64> = runs.concat();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(merged, expected);
    }

    #[test]
    fn balls_do_not_exceed_doubled_radius() {
        let g = generators::path(20);
        let n = g.node_count();
        let mut engine = engine_for(n);
        // radius 3 → 2 steps → effective radius 4.
        let res = gather_balls(&mut engine, &g, &vec![true; n], 3, 24);
        assert_eq!(res.steps, 2);
        let ball0 = as_set(&res.balls[0]);
        let reach = bfs_ball(&g, NodeId::new(0), 4);
        assert!(ball0.is_subset(&reach), "ball exceeded doubled radius");
    }

    #[test]
    fn steps_are_logarithmic_in_radius() {
        let g = generators::cycle(64);
        for (radius, expected_steps) in [(1, 0), (2, 1), (3, 2), (4, 2), (8, 3), (9, 4)] {
            let mut engine = engine_for(64);
            let res = gather_balls(&mut engine, &g, &[true; 64], radius, 16);
            assert_eq!(res.steps, expected_steps, "radius {radius}");
        }
    }

    #[test]
    fn rounds_stay_constant_per_step_on_bounded_degree() {
        // Lemma 2.14's promise: O(1) rounds per doubling when balls are
        // small. A cycle has 2 edges per ball initially.
        let g = generators::cycle(128);
        let mut engine = engine_for(128);
        let res = gather_balls(&mut engine, &g, &[true; 128], 4, 16);
        assert!(
            res.rounds <= 8 * res.steps.max(1),
            "{} rounds over {} steps",
            res.rounds,
            res.steps
        );
    }

    #[test]
    fn non_participants_hold_nothing() {
        let g = generators::complete(6);
        let mut mask = vec![true; 6];
        mask[0] = false;
        // Edges incident to 0 are not in the gather graph from its side —
        // the caller promises this; emulate by filtering.
        let filtered = cc_mis_graph::ops::filter_vertices(&g, |v| v.raw() != 0);
        let mut engine = engine_for(6);
        let res = gather_balls(&mut engine, &filtered, &mask, 2, 16);
        assert!(res.balls[0].is_empty());
        assert!(res.balls[1].edges().all(|(a, b)| a != 0 && b != 0));
    }

    #[test]
    fn non_participant_endpoint_edges_are_dropped() {
        // Contract-violation tolerance: if the gather graph *does* contain
        // an edge with a non-participant endpoint, that edge must never
        // enter any ball (the initialization filters on both endpoints) and
        // the non-participant must hold nothing throughout.
        let g = generators::path(6); // 0-1-2-3-4-5
        let mut mask = vec![true; 6];
        mask[3] = false; // edges (2,3) and (3,4) have a non-participant end
        let mut engine = engine_for(6);
        let res = gather_balls(&mut engine, &g, &mask, 4, 16);
        assert!(res.balls[3].is_empty(), "non-participant gathered edges");
        for v in 0..6 {
            assert!(
                res.balls[v].edges().all(|(a, b)| a != 3 && b != 3),
                "node {v} learned an edge incident to the non-participant"
            );
        }
        // The participants on each side still learn their own side fully.
        assert!(res.balls[0].contains(0, 1));
        assert!(res.balls[0].contains(1, 2));
        assert!(res.balls[5].contains(4, 5));
    }

    #[test]
    fn saturation_stops_doubling_early() {
        // K4 has diameter 1: after one doubling step every ball holds all
        // 6 edges. The second step routes (and is charged) but grows
        // nothing, so the loop exits — steps 3 and 4 of the nominal
        // ⌈log₂ 16⌉ = 4 never run.
        let g = generators::complete(4);
        let mut engine = engine_for(4);
        let res = gather_balls(&mut engine, &g, &[true; 4], 16, 16);
        assert_eq!(res.steps, 2, "expected early exit after the no-growth step");
        let full = g.edge_count();
        assert!(res.balls.iter().all(|b| b.len() == full));
        assert_eq!(res.max_ball_edges, full);
        // The no-growth step's routing rounds are still charged.
        assert_eq!(engine.ledger().rounds, res.rounds);
        assert!(res.rounds > 0);
    }

    #[test]
    fn saturated_balls_equal_component_edge_sets() {
        // Two disjoint triangles: radius far beyond the diameter. Each
        // node's ball saturates at its own component's edge set — the
        // `len == full` skip only triggers when a ball holds *every* edge
        // of the gather graph, which never happens here, so the union path
        // still runs and must stabilize on the component.
        let g = generators::disjoint_cliques(2, 3);
        let n = g.node_count();
        let mut engine = engine_for(n);
        let res = gather_balls(&mut engine, &g, &vec![true; n], 8, 16);
        let (comp, _) = cc_mis_graph::ops::connected_components(&g);
        for v in 0..n {
            let expected: BTreeSet<(u32, u32)> = g
                .edges()
                .filter(|(u, _)| comp[u.index()] == comp[v])
                .map(|(u, w)| (u.raw(), w.raw()))
                .collect();
            assert_eq!(as_set(&res.balls[v]), expected, "node {v}");
        }
    }

    #[test]
    fn full_ball_skip_matches_plain_union() {
        // On a connected graph gathered past its diameter, every ball ends
        // at exactly the full edge set — the skip branch must not change
        // the result, only avoid redundant merging.
        let g = generators::grid(3, 3);
        let mut engine = engine_for(9);
        let res = gather_balls(&mut engine, &g, &[true; 9], 8, 16);
        let full: BTreeSet<(u32, u32)> = g.edges().map(|(u, v)| (u.raw(), v.raw())).collect();
        for v in 0..9 {
            assert_eq!(as_set(&res.balls[v]), full, "node {v}");
        }
    }

    #[test]
    fn radius_one_costs_no_rounds() {
        let g = generators::grid(3, 3);
        let mut engine = engine_for(9);
        let res = gather_balls(&mut engine, &g, &[true; 9], 1, 16);
        assert_eq!(res.rounds, 0);
        assert_eq!(engine.ledger().rounds, 0);
        // Radius-1 knowledge is the incident edges.
        assert_eq!(res.balls[0].len(), g.degree(NodeId::new(0)));
    }

    #[test]
    fn saturating_gather_charges_are_pinned() {
        // 4-regular, n = 256, radius 16: the balls saturate at the whole
        // graph, so the last step routes every node's ball to every other
        // node as one capacity-feasible batch (255 packets per source and
        // per destination). Pinned at the charges of a gather that copies
        // every ball into its packets and routes with first-fit batching.
        let g = generators::random_regular(256, 4, 1);
        let mut engine = engine_for(256);
        let res = gather_balls(&mut engine, &g, &[true; 256], 16, 24);
        let ledger = engine.ledger();
        assert_eq!(
            (ledger.rounds, ledger.messages, ledger.bits),
            (516, 28_608_899, 915_108_624)
        );
        assert_eq!((res.rounds, res.steps, res.max_ball_edges), (516, 4, 512));
        assert!(res.balls.iter().all(|b| b.len() == g.edge_count()));
    }

    #[test]
    fn empty_graph_gathers_nothing() {
        let g = cc_mis_graph::Graph::empty(5);
        let mut engine = engine_for(5);
        let res = gather_balls(&mut engine, &g, &[true; 5], 4, 16);
        assert!(res.balls.iter().all(Ball::is_empty));
        assert_eq!(res.rounds, 0);
        assert_eq!(res.max_ball_edges, 0);
    }
}
