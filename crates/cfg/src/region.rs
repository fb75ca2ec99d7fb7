//! Regions and their forward (acyclic) control flow graphs.
//!
//! In the paper's terminology (§5.1) a *region* is either a strongly
//! connected component corresponding to a loop, or the body of a routine
//! without its enclosed loops. Instructions never move out of or into a
//! region, and enclosed loops are opaque to the enclosing region's
//! scheduling — here they appear as supernodes of the enclosing region's
//! graph.
//!
//! For each region we expose its *forward* control flow graph: the
//! region's own back edges end an iteration, so they are routed to the
//! synthetic `EXIT` node (following [CHH89], the paper computes control
//! dependences on this back-edge-free graph only), and the result is
//! acyclic with synthetic `ENTRY`/`EXIT` nodes. This graph is
//! exactly what the CSPDG construction in `gis-pdg` and the global
//! scheduler consume.

use crate::dom::DomTree;
use crate::graph::{group_into, Adjacency, Cfg, EdgeLabel, NodeId};
use crate::loops::{LoopForest, LoopId};
use gis_ir::BlockId;
use std::error::Error;
use std::fmt;

/// Identifies a region within a [`RegionTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(u32);

impl RegionId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// What a region is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// A loop body (has at least one back edge).
    Loop(LoopId),
    /// The routine body without the enclosed loops (no back edges at all).
    Body,
}

/// A region of the region tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Loop or routine body.
    pub kind: RegionKind,
    /// Blocks directly in this region (not inside any child region); sorted.
    pub blocks: Vec<BlockId>,
    /// Directly enclosed regions.
    pub children: Vec<RegionId>,
    /// The directly enclosing region (`None` for the routine body).
    pub parent: Option<RegionId>,
    /// The loop header for loop regions.
    pub header: Option<BlockId>,
    /// 0 for innermost regions; parents are one more than their highest
    /// child. The paper schedules heights 0 and 1 only ("two inner levels").
    pub height: usize,
}

impl Region {
    /// Total number of blocks, including those of nested regions.
    pub fn total_blocks(&self, tree: &RegionTree) -> usize {
        self.blocks.len()
            + self
                .children
                .iter()
                .map(|c| tree.region(*c).total_blocks(tree))
                .sum::<usize>()
    }
}

/// The tree of regions of a function: one region per natural loop plus the
/// routine body at the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionTree {
    regions: Vec<Region>,
    root: RegionId,
    /// Innermost region of each block.
    region_of: Vec<RegionId>,
}

impl RegionTree {
    /// Builds the region tree from the loop forest.
    pub fn new(cfg: &Cfg, loops: &LoopForest) -> Self {
        let n_loops = loops.num_loops();
        let root = RegionId(n_loops as u32);
        let mut regions: Vec<Region> = loops
            .loops()
            .map(|(id, l)| Region {
                kind: RegionKind::Loop(id),
                blocks: Vec::new(),
                children: l
                    .children
                    .iter()
                    .map(|c| RegionId(c.index() as u32))
                    .collect(),
                parent: Some(l.parent.map_or(root, |p| RegionId(p.index() as u32))),
                header: Some(l.header),
                height: 0,
            })
            .collect();
        regions.push(Region {
            kind: RegionKind::Body,
            blocks: Vec::new(),
            children: loops
                .loops()
                .filter(|(_, l)| l.parent.is_none())
                .map(|(id, _)| RegionId(id.index() as u32))
                .collect(),
            parent: None,
            header: None,
            height: 0,
        });

        // Assign each block to its innermost region.
        let mut region_of = vec![root; cfg.num_blocks()];
        for (i, slot) in region_of.iter_mut().enumerate() {
            let b = BlockId::new(i as u32);
            let r = loops
                .innermost(b)
                .map_or(root, |l| RegionId(l.index() as u32));
            *slot = r;
            regions[r.index()].blocks.push(b);
        }
        for r in &mut regions {
            r.blocks.sort();
        }

        // Heights bottom-up (children always have smaller indices than the
        // root, but loop indices are arbitrary; iterate to fixpoint —
        // region trees are tiny).
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..regions.len() {
                let h = regions[i]
                    .children
                    .iter()
                    .map(|c| regions[c.index()].height + 1)
                    .max()
                    .unwrap_or(0);
                if regions[i].height != h {
                    regions[i].height = h;
                    changed = true;
                }
            }
        }

        RegionTree {
            regions,
            root,
            region_of,
        }
    }

    /// The root (routine body) region.
    pub fn root(&self) -> RegionId {
        self.root
    }

    /// A region by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.index()]
    }

    /// All regions.
    pub fn regions(&self) -> impl Iterator<Item = (RegionId, &Region)> {
        self.regions
            .iter()
            .enumerate()
            .map(|(i, r)| (RegionId(i as u32), r))
    }

    /// The innermost region containing `b`.
    pub fn innermost(&self, b: BlockId) -> RegionId {
        self.region_of[b.index()]
    }

    /// Whether `b` lies anywhere inside `r` (directly or in a nested
    /// region).
    pub fn contains(&self, r: RegionId, b: BlockId) -> bool {
        let mut cur = Some(self.innermost(b));
        while let Some(c) = cur {
            if c == r {
                return true;
            }
            cur = self.regions[c.index()].parent;
        }
        false
    }

    /// Regions in scheduling order: innermost first (ascending height),
    /// ties by id.
    pub fn schedule_order(&self) -> Vec<RegionId> {
        let mut ids: Vec<RegionId> = (0..self.regions.len() as u32).map(RegionId).collect();
        ids.sort_by_key(|r| (self.regions[r.index()].height, r.index()));
        ids
    }
}

/// A node of a [`RegionGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionNode {
    /// Synthetic region entry.
    Entry,
    /// Synthetic region exit.
    Exit,
    /// A block directly in the region.
    Block(BlockId),
    /// An enclosed (child) region, opaque to scheduling.
    Inner(RegionId),
}

impl fmt::Display for RegionNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionNode::Entry => write!(f, "ENTRY"),
            RegionNode::Exit => write!(f, "EXIT"),
            RegionNode::Block(b) => write!(f, "{b}"),
            RegionNode::Inner(r) => write!(f, "[{r}]"),
        }
    }
}

/// The region's own graph was cyclic after removing its back edges —
/// i.e. the region is irreducible. The paper only schedules reducible
/// regions; callers skip regions that produce this error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrreducibleRegionError {
    /// The offending region.
    pub region: RegionId,
}

impl fmt::Display for IrreducibleRegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "region {} is irreducible (cyclic after back-edge removal)",
            self.region
        )
    }
}

impl Error for IrreducibleRegionError {}

/// The forward (acyclic) control flow graph of one region.
///
/// Node 0 is `ENTRY`, node 1 is `EXIT`; the remaining nodes are the
/// region's direct blocks followed by supernodes for its child regions.
/// Each of the region's own back edges becomes an edge to `EXIT`, so the
/// graph is acyclic and a topological order exists.
///
/// Every table is flat, and [`RegionGraph::rebuild`] refills them in
/// place: a scheduler that keeps one graph for a whole pass allocates
/// only while its tables grow.
#[derive(Debug, Clone)]
pub struct RegionGraph {
    region: RegionId,
    nodes: Vec<RegionNode>,
    /// Node `n`'s successors: `succs[succ_off[n]..succ_off[n + 1]]`.
    succ_off: Vec<u32>,
    succs: Vec<(NodeId, EdgeLabel)>,
    /// Node `n`'s predecessors, same layout.
    pred_off: Vec<u32>,
    preds: Vec<(NodeId, EdgeLabel)>,
    /// By block index: `(stamp, node)`, the node each block of the
    /// region's subtree lifts to (see [`RegionGraph::lift_block`]);
    /// entries from earlier builds carry an older stamp.
    lift: Vec<(u32, u32)>,
    stamp: u32,
    topo: Vec<NodeId>,
    /// Buffers of the construction, kept for the next rebuild.
    indeg: Vec<usize>,
    ready: Vec<usize>,
    walk: Vec<RegionId>,
}

/// An empty graph, for [`RegionGraph::rebuild`] to fill.
impl Default for RegionGraph {
    fn default() -> Self {
        RegionGraph {
            region: RegionId(0),
            nodes: Vec::new(),
            succ_off: Vec::new(),
            succs: Vec::new(),
            pred_off: Vec::new(),
            preds: Vec::new(),
            lift: Vec::new(),
            stamp: 0,
            topo: Vec::new(),
            indeg: Vec::new(),
            ready: Vec::new(),
            walk: Vec::new(),
        }
    }
}

impl RegionGraph {
    /// Builds the forward graph of region `rid`.
    ///
    /// # Errors
    ///
    /// Returns [`IrreducibleRegionError`] when the graph is cyclic after
    /// routing the region's back edges to `EXIT`.
    pub fn new(
        cfg: &Cfg,
        tree: &RegionTree,
        rid: RegionId,
    ) -> Result<Self, IrreducibleRegionError> {
        let mut g = RegionGraph::default();
        g.rebuild(cfg, tree, rid)?;
        Ok(g)
    }

    /// [`RegionGraph::new`] in place: this graph becomes region `rid`'s,
    /// reusing its tables.
    ///
    /// # Errors
    ///
    /// See [`RegionGraph::new`]; the graph's contents are unspecified
    /// after an error.
    pub fn rebuild(
        &mut self,
        cfg: &Cfg,
        tree: &RegionTree,
        rid: RegionId,
    ) -> Result<(), IrreducibleRegionError> {
        let region = tree.region(rid);
        self.region = rid;
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.lift.fill((0, 0));
            self.stamp = 1;
        }
        if self.lift.len() < cfg.num_blocks() {
            self.lift.resize(cfg.num_blocks(), (0, 0));
        }
        let stamp = self.stamp;

        // Node table: ENTRY, EXIT, direct blocks, child supernodes; and
        // every subtree block's lifted node.
        let (nodes, lift, walk) = (&mut self.nodes, &mut self.lift, &mut self.walk);
        let n = 2 + region.blocks.len() + region.children.len();
        nodes.clear();
        nodes.reserve(n);
        nodes.extend([RegionNode::Entry, RegionNode::Exit]);
        for &b in &region.blocks {
            lift[b.index()] = (stamp, nodes.len() as u32);
            nodes.push(RegionNode::Block(b));
        }
        for &c in &region.children {
            let node = nodes.len() as u32;
            nodes.push(RegionNode::Inner(c));
            walk.clear();
            walk.push(c);
            while let Some(r) = walk.pop() {
                let reg = tree.region(r);
                walk.extend(reg.children.iter().copied());
                for &b in &reg.blocks {
                    lift[b.index()] = (stamp, node);
                }
            }
        }

        // Maps any function block to a node of this graph, or EXIT when it
        // lies outside the region.
        let map_block = |b: BlockId| -> NodeId {
            match lift[b.index()] {
                (s, n) if s == stamp => NodeId::from_index(n as usize),
                _ => NodeId::EXIT,
            }
        };
        let header = region.header;
        // An edge to this region's header from inside the region is one of
        // the region's own back edges: it ends the iteration, so the
        // forward graph routes it to EXIT.
        let is_back_edge = |to: BlockId| Some(to) == header;

        // Successor lists in node order; a node's list names each target
        // once.
        let (succ_off, succs) = (&mut self.succ_off, &mut self.succs);
        succ_off.clear();
        succs.clear();
        succ_off.reserve(n + 1);
        succs.reserve(2 * n);
        succ_off.push(0);
        let add = |succs: &mut Vec<(NodeId, EdgeLabel)>, from: u32, to: NodeId, label| {
            if !succs[from as usize..].iter().any(|&(t, _)| t == to) {
                succs.push((to, label));
            }
        };

        // Region entry: the loop header (possibly a supernode for the root
        // body whose entry block sits inside a loop), or the function entry.
        let entry_target = map_block(header.unwrap_or(BlockId::new(0)));
        succs.push((entry_target, EdgeLabel::Always));
        succ_off.extend([1, 1]);

        // Edges from direct blocks. A back edge is added after the
        // forward edges, so a latch that also leaves the loop keeps that
        // exit's label on its one EXIT edge.
        for &b in &region.blocks {
            let from = succs.len() as u32;
            let mut back = None;
            for e in cfg.succs(NodeId::block(b)) {
                match e.to.as_block() {
                    Some(t) if is_back_edge(t) => back = Some(e.label),
                    Some(t) => add(succs, from, map_block(t), e.label),
                    None => add(succs, from, NodeId::EXIT, e.label),
                }
            }
            if let Some(label) = back {
                add(succs, from, NodeId::EXIT, label);
            }
            succ_off.push(succs.len() as u32);
        }

        // Edges leaving child regions (from any block inside the child to a
        // target outside it) attach to the supernode. Each distinct target
        // is a distinct *exit* of the supernode and gets its own label —
        // the supernode acts as a multi-way branch whose outcome is
        // decided inside it.
        for (k, &c) in region.children.iter().enumerate() {
            let from = succs.len() as u32;
            let child = NodeId::from_index(2 + region.blocks.len() + k);
            let mut exits = 0u32;
            walk.clear();
            walk.push(c);
            while let Some(r) = walk.pop() {
                let reg = tree.region(r);
                walk.extend(reg.children.iter().copied());
                for &b in &reg.blocks {
                    for e in cfg.succs(NodeId::block(b)) {
                        let to = match e.to.as_block() {
                            Some(t) if map_block(t) == child => continue, // internal
                            Some(t) if !is_back_edge(t) => map_block(t),
                            _ => NodeId::EXIT,
                        };
                        if !succs[from as usize..].iter().any(|&(t, _)| t == to) {
                            succs.push((to, EdgeLabel::Exit(exits)));
                            exits += 1;
                        }
                    }
                }
            }
            // A child loop that never exits still ends the region's flow,
            // so it keeps a place in the postdominator tree: without this
            // edge a sibling reached from the same branch would seem to
            // postdominate that branch.
            if exits == 0 {
                succs.push((NodeId::EXIT, EdgeLabel::Always));
            }
            succ_off.push(succs.len() as u32);
        }

        // Predecessors, in the order of their sources.
        let off = &*succ_off;
        let edges = (0..n).flat_map(|from| {
            succs[off[from] as usize..off[from + 1] as usize]
                .iter()
                .map(move |&(to, label)| (to.index(), (NodeId::from_index(from), label)))
        });
        group_into(n, edges, &mut self.pred_off, &mut self.preds);

        // Topological order (Kahn; ties by node index, which follows block
        // layout order). Cyclic graphs are irreducible regions.
        let (indeg, ready, topo) = (&mut self.indeg, &mut self.ready, &mut self.topo);
        indeg.clear();
        indeg.resize(n, 0);
        for &(to, _) in succs.iter() {
            indeg[to.index()] += 1;
        }
        topo.clear();
        topo.reserve(n);
        ready.clear();
        ready.reserve(n);
        ready.extend((0..n).filter(|&i| indeg[i] == 0));
        while !ready.is_empty() {
            ready.sort_unstable_by(|a, b| b.cmp(a)); // pop smallest index
            let i = ready.pop().expect("nonempty");
            topo.push(NodeId::from_index(i));
            for &(to, _) in &succs[off[i] as usize..off[i + 1] as usize] {
                indeg[to.index()] -= 1;
                if indeg[to.index()] == 0 {
                    ready.push(to.index());
                }
            }
        }
        if topo.len() != n {
            return Err(IrreducibleRegionError { region: rid });
        }
        Ok(())
    }

    /// The region this graph describes.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// Number of nodes (including `ENTRY` and `EXIT`).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// What a node is.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn node(&self, n: NodeId) -> RegionNode {
        self.nodes[n.index()]
    }

    /// The node for a block directly in this region.
    pub fn node_of_block(&self, b: BlockId) -> Option<NodeId> {
        self.lift_block(b)
            .filter(|n| self.nodes[n.index()] == RegionNode::Block(b))
    }

    /// The node a block of the region's subtree maps to: its own node
    /// when it lies directly in the region, otherwise the supernode of
    /// the child region enclosing it; `None` outside the subtree.
    pub fn lift_block(&self, b: BlockId) -> Option<NodeId> {
        match self.lift.get(b.index()) {
            Some(&(s, n)) if s == self.stamp => Some(NodeId::from_index(n as usize)),
            _ => None,
        }
    }

    /// Labelled successor edges.
    pub fn succs(&self, n: NodeId) -> &[(NodeId, EdgeLabel)] {
        &self.succs[self.succ_off[n.index()] as usize..self.succ_off[n.index() + 1] as usize]
    }

    /// Labelled predecessor edges (`.0` is the predecessor).
    pub fn preds(&self, n: NodeId) -> &[(NodeId, EdgeLabel)] {
        &self.preds[self.pred_off[n.index()] as usize..self.pred_off[n.index() + 1] as usize]
    }

    /// A topological order of all nodes (`ENTRY` first).
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// Successor lists without labels, for the dominator machinery.
    pub fn adjacency(&self) -> Adjacency {
        let mut adj = Adjacency::default();
        self.adjacency_into(&mut adj);
        adj
    }

    /// [`RegionGraph::adjacency`] into `out`, keeping its capacity.
    pub fn adjacency_into(&self, out: &mut Adjacency) {
        out.rebuild(self.num_nodes(), |i| {
            self.succs(NodeId::from_index(i)).iter().map(|&(t, _)| t)
        });
    }

    /// Dominators of this graph (rooted at region `ENTRY`).
    pub fn dominators(&self) -> DomTree {
        DomTree::new(&self.adjacency(), NodeId::ENTRY)
    }

    /// Postdominators of this graph (rooted at region `EXIT`).
    pub fn postdominators(&self) -> DomTree {
        DomTree::new(&self.adjacency().reversed(), NodeId::EXIT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_ir::parse_function;

    fn analyses(text: &str) -> (Cfg, RegionTree) {
        let f = parse_function(text).expect("parses");
        let cfg = Cfg::new(&f);
        let dom = DomTree::dominators(&cfg);
        let loops = LoopForest::new(&cfg, &dom);
        let tree = RegionTree::new(&cfg, &loops);
        (cfg, tree)
    }

    const NESTED: &str = "func n\n\
        A:\n LI r1=0\n\
        B:\n AI r1=r1,1\n\
        C:\n AI r2=r2,1\n C cr0=r2,r9\n BT C,cr0,0x1/lt\n\
        D:\n C cr1=r1,r9\n BT B,cr1,0x1/lt\n\
        E:\n RET\n";

    #[test]
    fn region_tree_shape() {
        let (_, tree) = analyses(NESTED);
        // Two loop regions plus the body.
        assert_eq!(tree.regions().count(), 3);
        let root = tree.root();
        assert_eq!(tree.region(root).kind, RegionKind::Body);
        assert_eq!(tree.region(root).height, 2);
        // Body directly owns A and E.
        assert_eq!(
            tree.region(root).blocks,
            vec![BlockId::new(0), BlockId::new(4)]
        );
        // Scheduling order: innermost loop, outer loop, body.
        let order = tree.schedule_order();
        let heights: Vec<usize> = order.iter().map(|r| tree.region(*r).height).collect();
        assert_eq!(heights, vec![0, 1, 2]);
        assert_eq!(tree.region(root).total_blocks(&tree), 5);
    }

    #[test]
    fn innermost_and_contains() {
        let (_, tree) = analyses(NESTED);
        let c = BlockId::new(2);
        let inner = tree.innermost(c);
        assert!(matches!(tree.region(inner).kind, RegionKind::Loop(_)));
        assert_eq!(tree.region(inner).header, Some(c));
        assert!(tree.contains(inner, c));
        assert!(tree.contains(tree.root(), c));
        let outer = tree.region(inner).parent.expect("nested");
        assert!(tree.contains(outer, c));
        assert!(!tree.contains(inner, BlockId::new(0)));
    }

    #[test]
    fn outer_loop_graph_has_inner_supernode() {
        let (cfg, tree) = analyses(NESTED);
        let b = BlockId::new(1);
        let outer = tree.innermost(b);
        let g = RegionGraph::new(&cfg, &tree, outer).expect("reducible");
        // Nodes: ENTRY, EXIT, B, D, [inner].
        assert_eq!(g.num_nodes(), 5);
        let bn = g.node_of_block(b).expect("B is direct");
        assert!(
            g.node_of_block(BlockId::new(2)).is_none(),
            "C is inside the supernode"
        );
        // B -> supernode -> D -> EXIT (back edge D->B routed to EXIT
        // too, behind the loop exit's label).
        let b_succs = g.succs(bn);
        assert_eq!(b_succs.len(), 1);
        assert!(matches!(g.node(b_succs[0].0), RegionNode::Inner(_)));
        let sup = b_succs[0].0;
        let sup_succs = g.succs(sup);
        assert_eq!(sup_succs.len(), 1);
        assert_eq!(g.node(sup_succs[0].0), RegionNode::Block(BlockId::new(3)));
        let d_succs = g.succs(g.node_of_block(BlockId::new(3)).unwrap());
        assert_eq!(d_succs, &[(NodeId::EXIT, EdgeLabel::NotTaken)]);
        // Topological order visits ENTRY first and EXIT last.
        let topo = g.topo_order();
        assert_eq!(topo.first().map(|n| g.node(*n)), Some(RegionNode::Entry));
        assert_eq!(topo.last().map(|n| g.node(*n)), Some(RegionNode::Exit));
    }

    #[test]
    fn inner_loop_graph_latch_flows_to_exit() {
        let (cfg, tree) = analyses(NESTED);
        let inner = tree.innermost(BlockId::new(2));
        let g = RegionGraph::new(&cfg, &tree, inner).expect("reducible");
        // Single block C: ENTRY -> C -> EXIT (the loop exit
        // fall-through to D leaves the region; the back edge ends the
        // iteration, merged into that EXIT edge).
        assert_eq!(g.num_nodes(), 3);
        let c = g.node_of_block(BlockId::new(2)).unwrap();
        assert_eq!(g.succs(c), &[(NodeId::EXIT, EdgeLabel::NotTaken)]);
    }

    #[test]
    fn a_header_branching_to_itself_ends_an_iteration() {
        // Two back edges: the header u0 also branches back to itself.
        // That edge reaches EXIT, so the latch u1 no longer
        // postdominates u0 and the two are not equivalent.
        let (cfg, tree) = analyses(
            "func u\n\
             init:\n LI r9=5\n LI r14=0\n LI r15=0\n\
             u0:\n AI r14=r14,1\n C cr5=r14,r15\n BT u0,cr5,0x1/lt\n\
             u1:\n AI r15=r15,2\n C cr6=r15,r9\n BT u0,cr6,0x1/lt\n\
             out:\n PRINT r14\n RET\n",
        );
        let (u0, u1) = (BlockId::new(1), BlockId::new(2));
        let g = RegionGraph::new(&cfg, &tree, tree.innermost(u0)).expect("reducible");
        let (n0, n1) = (g.node_of_block(u0).unwrap(), g.node_of_block(u1).unwrap());
        assert_eq!(
            g.succs(n0),
            &[(n1, EdgeLabel::NotTaken), (NodeId::EXIT, EdgeLabel::Taken)]
        );
        assert_eq!(g.succs(n1), &[(NodeId::EXIT, EdgeLabel::NotTaken)]);
        assert!(g.dominators().dominates(n0, n1));
        assert!(!g.postdominators().dominates(n1, n0), "u0 may skip u1");
    }

    /// A branch to a loop that never exits or to a block that returns.
    const EXITLESS: &str = "func x\n\
        A:\n LI r3=4096\n LI r5=7\n LI r7=1\n C cr0=r6,r7\n BT S,cr0,0x1/lt\n\
        B:\n ST r5=>a(r3,0)\n PRINT r5\n RET\n\
        S:\n L r4=a(r3,0)\n PRINT r4\n B S\n";

    #[test]
    fn a_child_loop_that_never_exits_still_reaches_exit() {
        let (cfg, tree) = analyses(EXITLESS);
        let g = RegionGraph::new(&cfg, &tree, tree.root()).expect("reducible");
        let a = g.node_of_block(BlockId::new(0)).unwrap();
        let b = g.node_of_block(BlockId::new(1)).unwrap();
        let s = g.succs(a)[0].0;
        assert!(matches!(g.node(s), RegionNode::Inner(_)));
        assert_eq!(g.succs(s), &[(NodeId::EXIT, EdgeLabel::Always)]);
        assert!(!g.postdominators().dominates(b, a), "A may go to S");
    }

    #[test]
    fn body_graph_of_loopless_function() {
        let (cfg, tree) = analyses("func s\nA:\n LI r1=1\nB:\n RET\n");
        let g = RegionGraph::new(&cfg, &tree, tree.root()).expect("reducible");
        assert_eq!(g.num_nodes(), 4);
        let a = g.node_of_block(BlockId::new(0)).unwrap();
        let b = g.node_of_block(BlockId::new(1)).unwrap();
        assert_eq!(g.succs(a), &[(b, EdgeLabel::Always)]);
        assert_eq!(g.succs(b), &[(NodeId::EXIT, EdgeLabel::Always)]);
        let dom = g.dominators();
        assert!(dom.dominates(a, b));
        let pdom = g.postdominators();
        assert!(pdom.dominates(b, a));
    }
}
