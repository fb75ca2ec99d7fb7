//! The control flow graph with `ENTRY`/`EXIT` augmentation.

use gis_ir::{BlockId, Function, Op};
use std::fmt;

/// A node of a [`Cfg`] (or of a region's forward graph): the synthetic
/// `ENTRY`, the synthetic `EXIT`, or a basic block.
///
/// Nodes are dense indices: `ENTRY` is 0, `EXIT` is 1, block `i` is `i+2`,
/// so analyses can use plain vectors as node-indexed tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The synthetic entry node.
    pub const ENTRY: NodeId = NodeId(0);
    /// The synthetic exit node.
    pub const EXIT: NodeId = NodeId(1);

    /// The node for a basic block.
    pub fn block(b: BlockId) -> NodeId {
        NodeId(b.index() as u32 + 2)
    }

    /// Constructs a node from its raw dense index.
    pub fn from_index(i: usize) -> NodeId {
        NodeId(i as u32)
    }

    /// The raw dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The basic block this node stands for, unless it is `ENTRY`/`EXIT`.
    pub fn as_block(self) -> Option<BlockId> {
        if self.0 >= 2 {
            Some(BlockId::new(self.0 - 2))
        } else {
            None
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_block() {
            Some(b) => write!(f, "{b}"),
            None if *self == NodeId::ENTRY => write!(f, "ENTRY"),
            None => write!(f, "EXIT"),
        }
    }
}

/// The condition under which a control flow edge is taken.
///
/// Labels are what turn the bare flow graph of Figure 3 into the annotated
/// edges the control dependence computation needs ("B executes when the
/// condition at the end of A is TRUE").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeLabel {
    /// The block ends in a conditional branch and the branch is taken.
    Taken,
    /// The block ends in a conditional branch and control falls through.
    NotTaken,
    /// Unconditional control transfer (fall-through, `B`, or synthetic).
    Always,
    /// The `k`-th distinct exit of a multi-exit supernode (an enclosed
    /// region): which exit fires is decided *inside* the supernode, so
    /// each target needs its own condition label — otherwise two targets
    /// of the same supernode would look "identically control dependent"
    /// without being equivalent.
    Exit(u32),
}

impl fmt::Display for EdgeLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeLabel::Taken => f.write_str("T"),
            EdgeLabel::NotTaken => f.write_str("F"),
            EdgeLabel::Always => Ok(()),
            EdgeLabel::Exit(k) => write!(f, "x{k}"),
        }
    }
}

/// A labelled directed edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Target node.
    pub to: NodeId,
    /// Condition label.
    pub label: EdgeLabel,
}

/// The control flow graph of a function, augmented with unique `ENTRY` and
/// `EXIT` nodes (paper Figure 3). `ENTRY` has a single edge to the entry
/// block; every block that leaves the function feeds `EXIT`.
///
/// Both edge directions live in flat arrays (compressed sparse rows):
/// node `i`'s successors are `succs[succ_off[i]..succ_off[i + 1]]`, so a
/// build costs four allocations whatever the block count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    succ_off: Vec<u32>,
    succs: Vec<Edge>,
    pred_off: Vec<u32>,
    preds: Vec<Edge>,
}

impl Cfg {
    /// Builds the CFG of `f`.
    pub fn new(f: &Function) -> Self {
        let n = f.num_blocks() + 2;
        let mut succ_off: Vec<u32> = Vec::with_capacity(n + 1);
        let mut succs: Vec<Edge> = Vec::with_capacity(2 * f.num_blocks() + 1);
        // Successor lists in node order: ENTRY, EXIT (none), then every
        // block in layout order.
        succ_off.push(0);
        succs.push(Edge {
            to: NodeId::block(f.entry()),
            label: EdgeLabel::Always,
        });
        succ_off.extend([1, 1]);
        let fall_through = |bid: BlockId| {
            let next = bid.index() + 1;
            (next < f.num_blocks()).then(|| NodeId::block(BlockId::new(next as u32)))
        };
        for (bid, block) in f.blocks() {
            let mut add = |to: NodeId, label: EdgeLabel| succs.push(Edge { to, label });
            match block.last().map(|i| &i.op) {
                Some(Op::BranchCond { target, .. }) => {
                    add(NodeId::block(*target), EdgeLabel::Taken);
                    match fall_through(bid) {
                        Some(ft) if ft == NodeId::block(*target) => {}
                        Some(ft) => add(ft, EdgeLabel::NotTaken),
                        None => add(NodeId::EXIT, EdgeLabel::NotTaken),
                    }
                }
                Some(Op::Branch { target }) => add(NodeId::block(*target), EdgeLabel::Always),
                Some(Op::Ret) => add(NodeId::EXIT, EdgeLabel::Always),
                // Plain fall-through (verify guarantees this is not the
                // last block).
                _ => add(fall_through(bid).unwrap_or(NodeId::EXIT), EdgeLabel::Always),
            }
            succ_off.push(succs.len() as u32);
        }
        // Predecessors in the order the edges were listed.
        let (mut pred_off, mut preds) = (Vec::new(), Vec::new());
        let off = &succ_off;
        let edges = (0..n).flat_map(|from| {
            succs[off[from] as usize..off[from + 1] as usize]
                .iter()
                .map(move |e| {
                    let to = NodeId::from_index(from);
                    (e.to.index(), Edge { to, label: e.label })
                })
        });
        group_into(n, edges, &mut pred_off, &mut preds);
        Cfg {
            succ_off,
            succs,
            pred_off,
            preds,
        }
    }

    /// Number of nodes including `ENTRY` and `EXIT`.
    pub fn num_nodes(&self) -> usize {
        self.succ_off.len() - 1
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.num_nodes() - 2
    }

    /// Successor edges of a node.
    pub fn succs(&self, n: NodeId) -> &[Edge] {
        &self.succs[self.succ_off[n.index()] as usize..self.succ_off[n.index() + 1] as usize]
    }

    /// Predecessor edges of a node (`Edge::to` is the predecessor).
    pub fn preds(&self, n: NodeId) -> &[Edge] {
        &self.preds[self.pred_off[n.index()] as usize..self.pred_off[n.index() + 1] as usize]
    }

    /// All nodes in dense order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + use<> {
        (0..self.num_nodes()).map(NodeId::from_index)
    }

    /// Predecessor *blocks* of `b`, with the pseudo `ENTRY` node filtered
    /// out. Convenience for dataflow over blocks only (verifiers,
    /// per-block analyses) where the augmented graph is noise.
    pub fn block_preds(&self, b: BlockId) -> Vec<BlockId> {
        self.preds(NodeId::block(b))
            .iter()
            .filter_map(|e| e.to.as_block())
            .collect()
    }

    /// Successor *blocks* of `b`, with the pseudo `EXIT` node filtered out.
    pub fn block_succs(&self, b: BlockId) -> Vec<BlockId> {
        self.succs(NodeId::block(b))
            .iter()
            .filter_map(|e| e.to.as_block())
            .collect()
    }

    /// Whether `to` is reachable from `from` along control flow edges.
    pub fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        let mut seen = vec![false; self.num_nodes()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            for e in self.succs(n) {
                if !seen[e.to.index()] {
                    seen[e.to.index()] = true;
                    stack.push(e.to);
                }
            }
        }
        false
    }

    /// Reverse postorder starting at `ENTRY`.
    pub fn reverse_postorder(&self) -> Vec<NodeId> {
        reverse_postorder_from(self.num_nodes(), NodeId::ENTRY, |n, i| {
            self.succs(n).get(i).map(|e| e.to)
        })
    }
}

/// A graph's successor lists in two flat arrays (compressed sparse
/// rows): node `i`'s successors are `targets[off[i]..off[i + 1]]`, in
/// the order they were supplied. Building one allocates two arrays, not
/// a list per node, and rebuilding one in place allocates nothing once
/// its arrays are large enough; the dominator machinery runs on it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Adjacency {
    off: Vec<u32>,
    targets: Vec<NodeId>,
}

impl Adjacency {
    /// Collects `succs(i)` for every node index `i < num_nodes`.
    pub fn new<I: IntoIterator<Item = NodeId>>(
        num_nodes: usize,
        succs: impl FnMut(usize) -> I,
    ) -> Self {
        let mut adj = Adjacency::default();
        adj.rebuild(num_nodes, succs);
        adj
    }

    /// [`Adjacency::new`] in place, keeping the arrays' capacity.
    pub fn rebuild<I: IntoIterator<Item = NodeId>>(
        &mut self,
        num_nodes: usize,
        mut succs: impl FnMut(usize) -> I,
    ) {
        self.off.clear();
        self.targets.clear();
        self.off.reserve(num_nodes + 1);
        self.targets.reserve(num_nodes);
        self.off.push(0);
        for i in 0..num_nodes {
            self.targets.extend(succs(i));
            self.off.push(self.targets.len() as u32);
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.off.len().saturating_sub(1)
    }

    /// The successors of `n`.
    pub fn succs(&self, n: NodeId) -> &[NodeId] {
        &self.targets[self.off[n.index()] as usize..self.off[n.index() + 1] as usize]
    }

    /// The reversed graph. Each node's list names its predecessors in
    /// ascending order, one entry per edge.
    pub fn reversed(&self) -> Adjacency {
        let mut out = Adjacency::default();
        self.reverse_into(&mut out);
        out
    }

    /// [`Adjacency::reversed`] into `out`, keeping its capacity.
    pub fn reverse_into(&self, out: &mut Adjacency) {
        let n = self.num_nodes();
        let edges = (0..n).flat_map(|from| {
            let to = self.succs(NodeId::from_index(from));
            to.iter()
                .map(move |t| (t.index(), NodeId::from_index(from)))
        });
        group_into(n, edges, &mut out.off, &mut out.targets);
    }
}

/// Groups `(key, item)` pairs by key into two flat arrays (compressed
/// sparse rows), each group in the order its pairs come: the items of
/// key `k < n` are `items[off[k]..off[k + 1]]`. Two passes over `pairs`:
/// one counts, one scatters. The arrays are the caller's, overwritten
/// and kept at their capacity: a caller that groups once per region
/// allocates only while its arrays grow.
pub fn group_into<T: Copy>(
    n: usize,
    pairs: impl Iterator<Item = (usize, T)> + Clone,
    off: &mut Vec<u32>,
    items: &mut Vec<T>,
) {
    off.clear();
    off.resize(n + 1, 0);
    items.clear();
    let mut fill = None;
    for (k, item) in pairs.clone() {
        off[k + 1] += 1;
        fill.get_or_insert(item);
    }
    let Some(fill) = fill else { return };
    // `off[k]` becomes key `k`'s start, then serves as its cursor while
    // scattering, which leaves it at `k`'s end: one shift restores it.
    for k in 0..n {
        off[k + 1] += off[k];
    }
    items.resize(off[n] as usize, fill);
    for (k, item) in pairs {
        items[off[k] as usize] = item;
        off[k] += 1;
    }
    off.copy_within(0..n, 1);
    off[0] = 0;
}

/// Reverse postorder of the nodes reachable from `start` in a graph
/// whose `i`-th successor of `n` is `succ(n, i)` (`None` past the
/// last).
pub(crate) fn reverse_postorder_from(
    num_nodes: usize,
    start: NodeId,
    succ: impl Fn(NodeId, usize) -> Option<NodeId>,
) -> Vec<NodeId> {
    let mut post = Vec::with_capacity(num_nodes);
    reverse_postorder_into(
        num_nodes,
        start,
        succ,
        &mut Vec::new(),
        &mut Vec::new(),
        &mut post,
    );
    post
}

/// [`reverse_postorder_from`] into `out`, with caller-owned `visited`
/// and DFS `stack` buffers (all three are overwritten).
pub(crate) fn reverse_postorder_into(
    num_nodes: usize,
    start: NodeId,
    succ: impl Fn(NodeId, usize) -> Option<NodeId>,
    visited: &mut Vec<bool>,
    stack: &mut Vec<(NodeId, usize)>,
    out: &mut Vec<NodeId>,
) {
    visited.clear();
    visited.resize(num_nodes, false);
    out.clear();
    out.reserve(num_nodes);
    // Iterative DFS with an explicit stack of (node, next-child-index).
    stack.clear();
    stack.push((start, 0));
    visited[start.index()] = true;
    while let Some(&(n, i)) = stack.last() {
        if let Some(c) = succ(n, i) {
            stack.last_mut().expect("nonempty").1 += 1;
            if !visited[c.index()] {
                visited[c.index()] = true;
                stack.push((c, 0));
            }
        } else {
            out.push(n);
            stack.pop();
        }
    }
    out.reverse();
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_ir::parse_function;

    /// The diamond of §5.3: A branches to C or falls into B; both join D.
    pub(crate) fn diamond() -> Function {
        parse_function(
            "func diamond\n\
             A:\n  C cr0=r1,r2\n  BT C,cr0,0x1/lt\n\
             B:\n  LI r3=5\n  B D\n\
             C:\n  LI r3=3\n\
             D:\n  PRINT r3\n  RET\n",
        )
        .expect("parses")
    }

    fn node(i: u32) -> NodeId {
        NodeId::block(BlockId::new(i))
    }

    #[test]
    fn entry_and_exit_wiring() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.num_blocks(), 4);
        assert_eq!(
            cfg.succs(NodeId::ENTRY),
            &[Edge {
                to: node(0),
                label: EdgeLabel::Always
            }]
        );
        // A -> C (taken), A -> B (fall-through).
        let a_succs = cfg.succs(node(0));
        assert_eq!(a_succs.len(), 2);
        assert_eq!(
            a_succs[0],
            Edge {
                to: node(2),
                label: EdgeLabel::Taken
            }
        );
        assert_eq!(
            a_succs[1],
            Edge {
                to: node(1),
                label: EdgeLabel::NotTaken
            }
        );
        // D -> EXIT.
        assert_eq!(
            cfg.succs(node(3)),
            &[Edge {
                to: NodeId::EXIT,
                label: EdgeLabel::Always
            }]
        );
        // Preds of D are B and C.
        let d_preds: Vec<NodeId> = cfg.preds(node(3)).iter().map(|e| e.to).collect();
        assert_eq!(d_preds, vec![node(1), node(2)]);
    }

    #[test]
    fn reachability() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        assert!(cfg.reachable(node(0), NodeId::EXIT));
        assert!(cfg.reachable(node(1), node(3)));
        assert!(!cfg.reachable(node(1), node(2)), "siblings of the diamond");
        assert!(!cfg.reachable(node(3), node(0)), "no back edges here");
    }

    #[test]
    fn reverse_postorder_starts_at_entry_ends_at_exit() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo.first(), Some(&NodeId::ENTRY));
        assert_eq!(rpo.last(), Some(&NodeId::EXIT));
        assert_eq!(rpo.len(), cfg.num_nodes());
        // A precedes B and C, which precede D.
        let pos = |n: NodeId| rpo.iter().position(|x| *x == n).unwrap();
        assert!(pos(node(0)) < pos(node(1)));
        assert!(pos(node(0)) < pos(node(2)));
        assert!(pos(node(1)) < pos(node(3)));
        assert!(pos(node(2)) < pos(node(3)));
    }

    #[test]
    fn block_preds_and_succs_filter_pseudo_nodes() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        // Entry block: ENTRY pred is filtered out.
        assert!(cfg.block_preds(BlockId::new(0)).is_empty());
        assert_eq!(
            cfg.block_preds(BlockId::new(3)),
            vec![BlockId::new(1), BlockId::new(2)]
        );
        // Last block: EXIT succ is filtered out.
        assert!(cfg.block_succs(BlockId::new(3)).is_empty());
        assert_eq!(cfg.block_succs(BlockId::new(1)), vec![BlockId::new(3)]);
    }

    #[test]
    fn node_display() {
        assert_eq!(NodeId::ENTRY.to_string(), "ENTRY");
        assert_eq!(NodeId::EXIT.to_string(), "EXIT");
        assert_eq!(node(0).to_string(), "BL0");
    }
}
