//! Columnar graph arena: the single storage layer under every graph
//! consumer.
//!
//! Before this module, each analysis pass over a recorded
//! [`EventGraph`](crate::graph::EventGraph)
//! built its own boxed adjacency — `HashMap<NodeId, Vec<u64>>` clocks in
//! `hb`, `HashMap<NodeId, Vec<&Edge>>` incoming lists in `critical`, five
//! more node-keyed maps in `feasible`. At the 10k-rank scale the ROADMAP
//! targets, those maps dominate memory and their hashing dominates time.
//!
//! The arena stores the graph once, as flat columns (struct-of-arrays):
//! node identity and label columns indexed by a dense `NodeIdx`, edge
//! endpoint/weight columns indexed by edge position, plus an on-demand CSR
//! of incoming edges. Consumers address nodes by index into plain `Vec`s —
//! no hashing on the hot path, no per-node boxes, and the columns a pass
//! doesn't touch stay cold.
//!
//! # The interner
//!
//! Structural ids ([`NodeId`] = rank, seq, point, hub) map to dense
//! indices by offset arithmetic, not hashing: each rank owns a slot table
//! indexed by `seq × 3 + kind`, with one slot each for the start, end and
//! hub subevent of that seq. Recording, MPGA decode and every
//! [`GraphArena::node_index`] lookup are a bounds check and a load.
//!
//! A rank's table grows only to cover a seq within a fixed slack of twice
//! the nodes that rank already holds, and the rank list only to a rank
//! within a slack of twice all nodes held, so the table stays a small
//! multiple of the node count. An id outside that allowance — a seq gap in
//! a salvaged trace, a seq near `u64::MAX` in a hand-built or crafted
//! arena, the never-recorded start-point hub — goes to an ordered overflow
//! map instead. Recorded traces touch seqs in order, so their overflow
//! stays empty and lookups never reach it.
//!
//! Edge order is creation order, which the recorder guarantees is a valid
//! topological order; every traversal here leans on that.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use crate::graph::{Edge, NodeId, NodeLabel, Point};
use crate::perturb::DeltaClass;
use crate::{Cycles, Drift};

/// Dense node handle into the arena's node columns.
pub type NodeIdx = u32;

/// Sentinel for "no node".
pub const NO_NODE: NodeIdx = u32::MAX;

pub(crate) const FLAG_END: u8 = 1 << 0;
pub(crate) const FLAG_HUB: u8 = 1 << 1;
pub(crate) const FLAG_LABELED: u8 = 1 << 2;

/// Columnar storage for one recorded message-passing graph.
///
/// Nodes are interned on first touch (as an edge endpoint or a label
/// target) and keep their dense index forever; edges append to parallel
/// columns in creation order. All columns are flat `Vec`s.
#[derive(Debug, Default, Clone)]
pub struct GraphArena {
    pub(crate) ranks: usize,

    // ---- node columns, indexed by NodeIdx ----
    pub(crate) node_rank: Vec<u32>,
    pub(crate) node_seq: Vec<u64>,
    pub(crate) node_flags: Vec<u8>,
    /// Label columns; meaningful only when `FLAG_LABELED` is set.
    pub(crate) label_kind: Vec<&'static str>,
    pub(crate) label_t: Vec<Cycles>,
    pub(crate) labeled: usize,

    /// Interner: structural id → dense index.
    pub(crate) interner: Interner,

    // ---- edge columns, indexed by edge position (creation order) ----
    pub(crate) edge_src: Vec<NodeIdx>,
    pub(crate) edge_dst: Vec<NodeIdx>,
    pub(crate) edge_base: Vec<Cycles>,
    pub(crate) edge_class: Vec<DeltaClass>,
    pub(crate) edge_sampled: Vec<Drift>,
    pub(crate) edge_msg: Vec<bool>,
}

impl GraphArena {
    /// An empty arena over `ranks` ranks.
    pub fn new(ranks: usize) -> Self {
        Self {
            ranks,
            ..Self::default()
        }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.ranks
    }

    /// Number of interned nodes (labeled or not).
    pub fn num_nodes(&self) -> usize {
        self.node_rank.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edge_src.len()
    }

    /// Number of labeled nodes.
    pub fn num_labeled(&self) -> usize {
        self.labeled
    }

    /// Interns `node`, returning its dense index.
    pub fn intern(&mut self, node: NodeId) -> NodeIdx {
        let i = self.node_rank.len() as NodeIdx;
        if let Some(old) = self.interner.get_or_insert(node, i) {
            return old;
        }
        self.node_rank.push(node.rank);
        self.node_seq.push(node.seq);
        let mut flags = 0u8;
        if node.point == Point::End {
            flags |= FLAG_END;
        }
        if node.hub {
            flags |= FLAG_HUB;
        }
        self.node_flags.push(flags);
        self.label_kind.push("");
        self.label_t.push(0);
        i
    }

    /// Dense index of an already-interned node.
    pub fn node_index(&self, node: &NodeId) -> Option<NodeIdx> {
        self.interner.get(node)
    }

    /// Reconstructs the structural id of node `i`.
    pub fn node_id(&self, i: NodeIdx) -> NodeId {
        let flags = self.node_flags[i as usize];
        NodeId {
            rank: self.node_rank[i as usize],
            seq: self.node_seq[i as usize],
            point: if flags & FLAG_END != 0 {
                Point::End
            } else {
                Point::Start
            },
            hub: flags & FLAG_HUB != 0,
        }
    }

    /// True when node `i` is a collective hub.
    pub fn is_hub(&self, i: NodeIdx) -> bool {
        self.node_flags[i as usize] & FLAG_HUB != 0
    }

    /// Attaches a label to a node, interning it if needed. Idempotent: the
    /// first label wins, as recorder call sites rely on.
    pub fn label(&mut self, node: NodeId, kind: &'static str, t: Cycles) {
        let i = self.intern(node) as usize;
        if self.node_flags[i] & FLAG_LABELED == 0 {
            self.node_flags[i] |= FLAG_LABELED;
            self.label_kind[i] = kind;
            self.label_t[i] = t;
            self.labeled += 1;
        }
    }

    /// The label of node `i`, if any.
    pub fn label_of(&self, i: NodeIdx) -> Option<NodeLabel> {
        (self.node_flags[i as usize] & FLAG_LABELED != 0).then(|| NodeLabel {
            kind: self.label_kind[i as usize],
            t: self.label_t[i as usize],
        })
    }

    /// Appends an edge, interning both endpoints.
    pub fn push_edge(&mut self, edge: Edge) {
        let src = self.intern(edge.src);
        let dst = self.intern(edge.dst);
        self.edge_src.push(src);
        self.edge_dst.push(dst);
        self.edge_base.push(edge.base);
        self.edge_class.push(edge.class);
        self.edge_sampled.push(edge.sampled);
        self.edge_msg.push(edge.is_message);
    }

    /// Materializes edge `i` from the columns (cheap: one copy).
    pub fn edge(&self, i: usize) -> Edge {
        Edge {
            src: self.node_id(self.edge_src[i]),
            dst: self.node_id(self.edge_dst[i]),
            base: self.edge_base[i],
            class: self.edge_class[i],
            sampled: self.edge_sampled[i],
            is_message: self.edge_msg[i],
        }
    }

    /// Source node index of edge `i`.
    pub fn edge_src(&self, i: usize) -> NodeIdx {
        self.edge_src[i]
    }

    /// Sink node index of edge `i`.
    pub fn edge_dst(&self, i: usize) -> NodeIdx {
        self.edge_dst[i]
    }

    /// Base weight of edge `i`.
    pub fn edge_base(&self, i: usize) -> Cycles {
        self.edge_base[i]
    }

    /// Delta class of edge `i`.
    pub fn edge_class(&self, i: usize) -> DeltaClass {
        self.edge_class[i]
    }

    /// Sampled delta of edge `i`.
    pub fn edge_sampled(&self, i: usize) -> Drift {
        self.edge_sampled[i]
    }

    /// True when edge `i` is a message (cross-rank) edge.
    pub fn edge_is_message(&self, i: usize) -> bool {
        self.edge_msg[i]
    }

    /// Incoming-edge CSR: for each node, the positions of edges whose sink
    /// it is, in creation order. Built in two counting passes, O(V + E).
    pub fn incoming(&self) -> Csr {
        Csr::build(self.num_nodes(), &self.edge_dst)
    }

    /// Outgoing-edge CSR: for each node, the positions of edges whose
    /// source it is, in creation order.
    pub fn outgoing(&self) -> Csr {
        Csr::build(self.num_nodes(), &self.edge_src)
    }

    /// Dense perturbation propagation: `D(dst) = max(D(dst), D(src) +
    /// sampled)` over edges in creation (topological) order, drifts
    /// anchored at zero. Returns one drift per interned node.
    pub fn propagate_dense(&self) -> Vec<Drift> {
        let mut drift = vec![0i64; self.num_nodes()];
        for i in 0..self.num_edges() {
            let cand = drift[self.edge_src[i] as usize] + self.edge_sampled[i];
            let slot = &mut drift[self.edge_dst[i] as usize];
            if cand > *slot {
                *slot = cand;
            }
        }
        drift
    }

    /// Kahn's algorithm over the dense index space. `Ok` for a DAG;
    /// otherwise the structural ids of every node still blocked by a
    /// cycle, sorted for deterministic reporting.
    pub fn verify_acyclic(&self) -> Result<(), Vec<NodeId>> {
        let n = self.num_nodes();
        let mut indegree = vec![0u32; n];
        for &d in &self.edge_dst {
            indegree[d as usize] += 1;
        }
        let out = self.outgoing();
        let mut ready: Vec<NodeIdx> = (0..n as NodeIdx)
            .filter(|&i| indegree[i as usize] == 0)
            .collect();
        let mut remaining = n;
        while let Some(i) = ready.pop() {
            remaining -= 1;
            for &e in out.of(i) {
                let dst = self.edge_dst[e as usize];
                indegree[dst as usize] -= 1;
                if indegree[dst as usize] == 0 {
                    ready.push(dst);
                }
            }
        }
        if remaining == 0 {
            return Ok(());
        }
        let mut residue: Vec<NodeId> = (0..n)
            .filter(|&i| indegree[i] > 0)
            .map(|i| self.node_id(i as NodeIdx))
            .collect();
        residue.sort_unstable();
        Err(residue)
    }
}

/// Slack, in seqs, a rank's slot table may grow past twice the nodes the
/// rank already holds.
const SEQ_SLACK: u64 = 64;

/// Slack, in ranks, the rank list may grow past twice all nodes held.
const RANK_SLACK: u64 = 4096;

/// Slots per seq in a rank's table: start, end, hub.
const KINDS: usize = 3;

/// Slot of `node`'s kind within its seq; `None` for the start-point hub,
/// which the recorder never produces.
fn kind(node: &NodeId) -> Option<usize> {
    match (node.point, node.hub) {
        (Point::Start, false) => Some(0),
        (Point::End, false) => Some(1),
        (Point::End, true) => Some(2),
        (Point::Start, true) => None,
    }
}

/// One rank's dense slots.
#[derive(Debug, Default, Clone)]
struct RankSlots {
    /// `slots[seq * KINDS + kind]`; `NO_NODE` where nothing is interned.
    slots: Vec<NodeIdx>,
    /// Nodes of this rank interned so far, dense or overflow.
    nodes: u64,
}

/// Structural id → dense index by per-rank offset arithmetic, with an
/// ordered overflow map for ids outside the tables' growth allowance (see
/// the module docs).
#[derive(Debug, Default, Clone)]
pub(crate) struct Interner {
    ranks: Vec<RankSlots>,
    overflow: BTreeMap<NodeId, NodeIdx>,
    nodes: u64,
}

impl Interner {
    /// Index of `node`, if interned.
    pub(crate) fn get(&self, node: &NodeId) -> Option<NodeIdx> {
        let dense = kind(node).and_then(|k| {
            let slots = &self.ranks.get(node.rank as usize)?.slots;
            if node.seq >= (slots.len() / KINDS) as u64 {
                return None;
            }
            Some(slots[node.seq as usize * KINDS + k])
        });
        match dense {
            Some(i) if i != NO_NODE => Some(i),
            _ if self.overflow.is_empty() => None,
            _ => self.overflow.get(node).copied(),
        }
    }

    /// Maps `node` to `next` and returns `None`, or returns the index
    /// `node` already has.
    pub(crate) fn get_or_insert(&mut self, node: NodeId, next: NodeIdx) -> Option<NodeIdx> {
        match dense_slot(&mut self.ranks, self.nodes, &node) {
            Some(slot) if *slot != NO_NODE => return Some(*slot),
            // The id may have overflowed before the table grew to its seq.
            Some(slot) => match self.overflow.get(&node) {
                Some(&old) => return Some(old),
                None => *slot = next,
            },
            None => match self.overflow.entry(node) {
                Entry::Occupied(e) => return Some(*e.get()),
                Entry::Vacant(e) => {
                    e.insert(next);
                }
            },
        }
        self.nodes += 1;
        if let Some(r) = self.ranks.get_mut(node.rank as usize) {
            r.nodes += 1;
        }
        None
    }

    /// Dense table footprint in words: rank entries plus slots.
    #[cfg(test)]
    pub(crate) fn dense_words(&self) -> usize {
        self.ranks.len() + self.ranks.iter().map(|r| r.slots.len()).sum::<usize>()
    }
}

/// The dense slot for `node`, growing the tables when its rank and seq
/// are within the allowance; `None` sends the id to the overflow map.
fn dense_slot<'a>(
    ranks: &'a mut Vec<RankSlots>,
    held: u64,
    node: &NodeId,
) -> Option<&'a mut NodeIdx> {
    let k = kind(node)?;
    let r = node.rank as usize;
    if r >= ranks.len() {
        if u64::from(node.rank) > 2 * held + RANK_SLACK {
            return None;
        }
        ranks.resize_with(r + 1, RankSlots::default);
    }
    let rank = &mut ranks[r];
    if node.seq >= (rank.slots.len() / KINDS) as u64 {
        if node.seq > 2 * rank.nodes + SEQ_SLACK {
            return None;
        }
        rank.slots.resize((node.seq as usize + 1) * KINDS, NO_NODE);
    }
    Some(&mut rank.slots[node.seq as usize * KINDS + k])
}

/// Compressed sparse row adjacency: `items[offsets[v]..offsets[v+1]]` are
/// the edge positions adjacent to node `v`, in creation order.
#[derive(Debug, Clone)]
pub struct Csr {
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    fn build(nodes: usize, keys: &[NodeIdx]) -> Self {
        let mut offsets = vec![0u32; nodes + 1];
        for &k in keys {
            offsets[k as usize + 1] += 1;
        }
        for v in 0..nodes {
            offsets[v + 1] += offsets[v];
        }
        let mut items = vec![0u32; keys.len()];
        let mut cursor = offsets.clone();
        for (e, &k) in keys.iter().enumerate() {
            items[cursor[k as usize] as usize] = e as u32;
            cursor[k as usize] += 1;
        }
        Self { offsets, items }
    }

    /// Edge positions adjacent to node `v`.
    pub fn of(&self, v: NodeIdx) -> &[u32] {
        let a = self.offsets[v as usize] as usize;
        let b = self.offsets[v as usize + 1] as usize;
        &self.items[a..b]
    }
}

/// Node-indexed drift vector returned by propagation, answering the same
/// by-`NodeId` queries the old `HashMap<NodeId, Drift>` did — against a
/// flat column.
#[derive(Debug, Clone)]
pub struct NodeDrifts<'g> {
    arena: &'g GraphArena,
    drift: Vec<Drift>,
}

impl<'g> NodeDrifts<'g> {
    pub(crate) fn new(arena: &'g GraphArena, drift: Vec<Drift>) -> Self {
        Self { arena, drift }
    }

    /// Drift of `node`, or `None` when the graph never saw it.
    pub fn get(&self, node: &NodeId) -> Option<&Drift> {
        self.arena.node_index(node).map(|i| &self.drift[i as usize])
    }

    /// Drift by dense index.
    pub fn at(&self, i: NodeIdx) -> Drift {
        self.drift[i as usize]
    }

    /// The underlying drift column, indexed by `NodeIdx`.
    pub fn column(&self) -> &[Drift] {
        &self.drift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(src: NodeId, dst: NodeId, sampled: Drift) -> Edge {
        Edge {
            src,
            dst,
            base: 0,
            class: DeltaClass::None,
            sampled,
            is_message: false,
        }
    }

    #[test]
    fn intern_is_stable_and_roundtrips() {
        let mut a = GraphArena::new(2);
        let n1 = NodeId::start(0, 3);
        let n2 = NodeId::hub(1, 4);
        let i1 = a.intern(n1);
        let i2 = a.intern(n2);
        assert_ne!(i1, i2);
        assert_eq!(a.intern(n1), i1);
        assert_eq!(a.node_id(i1), n1);
        assert_eq!(a.node_id(i2), n2);
        assert!(a.is_hub(i2));
        assert!(!a.is_hub(i1));
    }

    #[test]
    fn interner_roundtrips_hubs_gaps_and_huge_seqs() {
        let mut a = GraphArena::new(3);
        let mut ids = Vec::new();
        for seq in [0, 1, 2, 500, 501, 1 << 40, u64::MAX - 1, u64::MAX] {
            for rank in 0..3 {
                ids.extend([
                    NodeId::start(rank, seq),
                    NodeId::end(rank, seq),
                    NodeId::hub(rank, seq),
                ]);
            }
        }
        // Never recorded, but a hand-built arena may carry them.
        ids.push(NodeId {
            point: Point::Start,
            ..NodeId::hub(1, 7)
        });
        ids.push(NodeId::end(u32::MAX, 3));
        // A salvage-style gap: seqs jump past the table's allowance, then
        // continue densely until the table grows over the overflowed ids.
        ids.extend(
            (0..10)
                .chain(1_000..3_000)
                .map(|seq| NodeId::end(2, seq + 10_000)),
        );
        for (k, &n) in ids.iter().enumerate() {
            assert_eq!(a.intern(n), k as NodeIdx, "{n:?} is fresh");
        }
        for (k, &n) in ids.iter().enumerate() {
            let i = k as NodeIdx;
            assert_eq!(a.node_id(i), n);
            assert_eq!(a.node_index(&n), Some(i));
            assert_eq!(a.intern(n), i, "{n:?} re-interns to its index");
        }
        assert_eq!(a.num_nodes(), ids.len());
        assert_eq!(a.node_index(&NodeId::end(0, 3)), None);
        assert_eq!(a.node_index(&NodeId::end(2, 1 << 41)), None);
        assert_eq!(a.node_index(&NodeId::start(2, 12_500)), None);
        // No seq or rank value sized a table: it stays a small multiple of
        // the node count.
        assert!(
            a.interner.dense_words() < 8 * ids.len(),
            "{} words for {} nodes",
            a.interner.dense_words(),
            ids.len()
        );
    }

    #[test]
    fn edge_columns_roundtrip() {
        let mut a = GraphArena::new(2);
        let e = Edge {
            src: NodeId::start(0, 1),
            dst: NodeId::end(1, 1),
            base: 44,
            class: DeltaClass::Transfer { bytes: 256 },
            sampled: -3,
            is_message: true,
        };
        a.push_edge(e);
        assert_eq!(a.edge(0), e);
        assert_eq!(a.edge_base(0), 44);
        assert!(a.edge_is_message(0));
        assert_eq!(a.edge_sampled(0), -3);
    }

    #[test]
    fn csr_groups_by_node() {
        let mut a = GraphArena::new(1);
        let x = NodeId::start(0, 0);
        let y = NodeId::end(0, 0);
        let z = NodeId::end(0, 1);
        a.push_edge(edge(x, y, 1));
        a.push_edge(edge(x, z, 2));
        a.push_edge(edge(y, z, 3));
        let inc = a.incoming();
        let iz = a.node_index(&z).unwrap();
        assert_eq!(inc.of(iz), &[1, 2]);
        let out = a.outgoing();
        let ix = a.node_index(&x).unwrap();
        assert_eq!(out.of(ix), &[0, 1]);
        assert!(inc.of(ix).is_empty());
    }

    #[test]
    fn dense_propagate_matches_expectation() {
        let mut a = GraphArena::new(1);
        let x = NodeId::start(0, 0);
        let y = NodeId::end(0, 0);
        let z = NodeId::end(0, 1);
        a.push_edge(edge(x, y, 10));
        a.push_edge(edge(y, z, 5));
        a.push_edge(edge(x, z, 100));
        let d = a.propagate_dense();
        assert_eq!(d[a.node_index(&z).unwrap() as usize], 100);
        assert_eq!(d[a.node_index(&y).unwrap() as usize], 10);
    }

    #[test]
    fn label_first_wins() {
        let mut a = GraphArena::new(1);
        let n = NodeId::start(0, 0);
        a.label(n, "send", 5);
        a.label(n, "recv", 9);
        let i = a.node_index(&n).unwrap();
        assert_eq!(a.label_of(i).unwrap().kind, "send");
        assert_eq!(a.num_labeled(), 1);
    }

    #[test]
    fn acyclic_check_finds_cycle_residue() {
        let mut a = GraphArena::new(2);
        let p = NodeId::end(0, 1);
        let q = NodeId::end(1, 1);
        let r = NodeId::end(1, 2);
        a.push_edge(edge(p, q, 1));
        a.push_edge(edge(q, p, 1));
        a.push_edge(edge(q, r, 1));
        let residue = a.verify_acyclic().unwrap_err();
        assert!(residue.contains(&p) && residue.contains(&q) && residue.contains(&r));
        let mut ok = GraphArena::new(2);
        ok.push_edge(edge(p, q, 1));
        ok.push_edge(edge(q, r, 1));
        assert!(ok.verify_acyclic().is_ok());
    }
}
