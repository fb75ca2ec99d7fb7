//! The control subgraph of the PDG (CSPDG, §4.1 and paper Figure 4).
//!
//! Control dependences are computed per region over the region's forward
//! control flow graph using the Ferrante–Ottenstein–Warren construction:
//! `B` is control dependent on `A` under label `l` when `A` has an
//! `l`-successor `S` such that `B` postdominates `S` but `B` does not
//! postdominate `A`. The graph is augmented with the usual `ENTRY → EXIT`
//! edge so that unconditionally executed blocks come out control dependent
//! on `ENTRY`.

use gis_cfg::{group_into, Adjacency, Cfg, DomTree, EdgeLabel, NodeId, RegionGraph, RegionNode};
use std::fmt::Write as _;

/// The control dependence subgraph of one region, with the dominance
/// machinery needed for Definitions 1–7 of the paper.
///
/// Both dependence directions live in flat arrays indexed by node, so a
/// region's CSPDG costs a fixed handful of allocations whatever its
/// size, and [`Cspdg::rebuild`] refills them in place.
#[derive(Debug, Clone, Default)]
pub struct Cspdg {
    /// Node `b`'s CD parents: `parents[parent_off[b]..parent_off[b + 1]]`.
    parent_off: Vec<u32>,
    parents: Vec<(NodeId, EdgeLabel)>,
    /// Node `a`'s CD children, same layout.
    child_off: Vec<u32>,
    children: Vec<(NodeId, EdgeLabel)>,
    dom: DomTree,
    pdom: DomTree,
    /// Which nodes are real basic blocks (not `ENTRY`/`EXIT`/supernodes).
    is_block: Vec<bool>,
    /// Buffers of the construction, kept for the next rebuild: the
    /// forward graph, its `ENTRY -> EXIT` augmentation reversed, and the
    /// dependences in emission order.
    fwd: Adjacency,
    augmented: Adjacency,
    reversed: Adjacency,
    deps: Vec<(NodeId, NodeId, EdgeLabel)>,
}

impl Cspdg {
    /// Computes the CSPDG of a region's forward graph.
    ///
    /// ```
    /// use gis_cfg::{Cfg, DomTree, LoopForest, RegionTree, RegionGraph};
    /// use gis_pdg::Cspdg;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let f = gis_ir::parse_function(
    ///     "func t\nA:\n C cr0=r1,r2\n BT C,cr0,0x1/lt\nB:\n LI r3=1\nC:\n RET\n",
    /// )?;
    /// let cfg = Cfg::new(&f);
    /// let dom = DomTree::dominators(&cfg);
    /// let loops = LoopForest::new(&cfg, &dom);
    /// let tree = RegionTree::new(&cfg, &loops);
    /// let g = RegionGraph::new(&cfg, &tree, tree.root())?;
    /// let cspdg = Cspdg::new(&g);
    /// // B executes only when A's branch falls through: one CD parent.
    /// let b = g.node_of_block(gis_ir::BlockId::new(1)).unwrap();
    /// assert_eq!(cspdg.cd_parents(b).len(), 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(g: &RegionGraph) -> Self {
        let mut cspdg = Cspdg::default();
        cspdg.rebuild(g);
        cspdg
    }

    /// [`Cspdg::new`] in place: this CSPDG becomes `g`'s, reusing its
    /// arrays and both trees'.
    pub fn rebuild(&mut self, g: &RegionGraph) {
        let n = g.num_nodes();
        let fwd = &mut self.fwd;
        g.adjacency_into(fwd);
        self.dom.rebuild(fwd, NodeId::ENTRY);
        // Postdominators of the graph augmented with ENTRY -> EXIT, the
        // FOW construction's edge that makes unconditionally executed
        // blocks control dependent on ENTRY. The edge itself is never a
        // dependence source: EXIT postdominates ENTRY through it.
        let has_exit = fwd.succs(NodeId::ENTRY).contains(&NodeId::EXIT);
        self.augmented.rebuild(n, |i| {
            let extra = (i == NodeId::ENTRY.index() && !has_exit).then_some(NodeId::EXIT);
            fwd.succs(NodeId::from_index(i))
                .iter()
                .copied()
                .chain(extra)
        });
        self.augmented.reverse_into(&mut self.reversed);
        self.pdom.rebuild(&self.reversed, NodeId::EXIT);
        let pdom = &self.pdom;

        // Every dependence `(a, b, label)` in emission order: source by
        // source, edge by edge, up the postdominator tree.
        let deps = &mut self.deps;
        deps.clear();
        deps.reserve(n);
        for i in 0..n {
            let a = NodeId::from_index(i);
            let first = deps.len();
            for &(s, l) in g.succs(a) {
                if pdom.dominates(s, a) {
                    continue; // not a control dependence source
                }
                // Walk the postdominator tree from S up to (excluding)
                // ipdom(A); every node on the way is control dependent on
                // A. Two edges of A with one label may reach a node twice.
                let stop = pdom.idom(a);
                let mut cur = Some(s);
                while let Some(b) = cur {
                    if Some(b) == stop {
                        break;
                    }
                    if !deps[first..].contains(&(a, b, l)) {
                        deps.push((a, b, l));
                    }
                    cur = pdom.idom(b);
                }
            }
        }
        let parents = deps.iter().map(|&(a, b, l)| (b.index(), (a, l)));
        group_into(n, parents, &mut self.parent_off, &mut self.parents);
        let children = deps.iter().map(|&(a, b, l)| (a.index(), (b, l)));
        group_into(n, children, &mut self.child_off, &mut self.children);

        self.is_block.clear();
        self.is_block
            .extend((0..n).map(|i| matches!(g.node(NodeId::from_index(i)), RegionNode::Block(_))));
    }

    /// Number of nodes (same numbering as the region graph).
    pub fn num_nodes(&self) -> usize {
        self.is_block.len()
    }

    /// The nodes `n` is control dependent on, with the branch label.
    pub fn cd_parents(&self, n: NodeId) -> &[(NodeId, EdgeLabel)] {
        &self.parents[self.parent_off[n.index()] as usize..self.parent_off[n.index() + 1] as usize]
    }

    /// The nodes control dependent on `n` — the "immediate successors of
    /// `n` in CSPDG" that 1-branch speculative scheduling draws from.
    pub fn cd_children(&self, n: NodeId) -> &[(NodeId, EdgeLabel)] {
        &self.children[self.child_off[n.index()] as usize..self.child_off[n.index() + 1] as usize]
    }

    /// The region's dominator tree (Definition 1).
    pub fn dom(&self) -> &DomTree {
        &self.dom
    }

    /// The region's postdominator tree (Definition 2).
    pub fn pdom(&self) -> &DomTree {
        &self.pdom
    }

    /// Definition 3: `a` and `b` are equivalent when one dominates the
    /// other and is postdominated by it (in either orientation; reflexive).
    pub fn equivalent(&self, a: NodeId, b: NodeId) -> bool {
        a == b
            || (self.dom.dominates(a, b) && self.pdom.dominates(b, a))
            || (self.dom.dominates(b, a) && self.pdom.dominates(a, b))
    }

    /// Whether `a` and `b` have identical control dependences (same
    /// parents under the same conditions) — the paper's practical way of
    /// finding equivalent nodes in the CSPDG. Agrees with
    /// [`Cspdg::equivalent`] on the graphs we schedule (a property the
    /// test suite checks on random programs).
    pub fn identically_control_dependent(&self, a: NodeId, b: NodeId) -> bool {
        let mut pa = self.cd_parents(a).to_vec();
        let mut pb = self.cd_parents(b).to_vec();
        pa.sort();
        pb.sort();
        pa == pb
    }

    /// Whether node `n` is a real basic block of the region (as opposed to
    /// `ENTRY`, `EXIT`, or an enclosed-region supernode).
    pub fn is_block(&self, n: NodeId) -> bool {
        self.is_block[n.index()]
    }

    /// `EQUIV(A)` as the scheduler uses it: *blocks* equivalent to `a` and
    /// dominated by `a` (excluding `a` itself), in dominance order.
    /// Synthetic nodes and supernodes are never members — they cannot
    /// contribute or receive instructions.
    pub fn equiv_dominated(&self, a: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.equiv_dominated_into(a, &mut out);
        out
    }

    /// [`Cspdg::equiv_dominated`] into `out`, which is overwritten.
    pub fn equiv_dominated_into(&self, a: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend((0..self.num_nodes()).map(NodeId::from_index).filter(|&b| {
            self.is_block[b.index()]
                && b != a
                && self.dom.strictly_dominates(a, b)
                && self.equivalent(a, b)
        }));
        // Dominance is total on an equivalence class; sort outermost first.
        out.sort_by(|&x, &y| {
            if self.dom.strictly_dominates(x, y) {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            }
        });
    }

    /// Definition 6's duplication clause, inverted: an instruction may
    /// move from `b` up into `a` *without* duplication only when `a`
    /// dominates `b` — otherwise the paths that reach `b` around `a`
    /// would lose the instruction unless a copy were left on each of
    /// them. True when `b` is a block `a` fails to strictly dominate,
    /// i.e. when motion from `b` into `a` is possible only by copying.
    pub fn needs_duplication(&self, a: NodeId, b: NodeId) -> bool {
        self.is_block(b) && a != b && !self.dom.strictly_dominates(a, b)
    }

    /// Definition 7: the minimum number of CSPDG edges crossed to get from
    /// `a` to `b` — the number of branches speculated on when moving an
    /// instruction from `b` up to `a`. Returns `Some(0)` when the blocks
    /// are equivalent and `None` when no CSPDG path exists.
    pub fn speculation_degree(&self, a: NodeId, b: NodeId) -> Option<usize> {
        if self.equivalent(a, b) {
            return Some(0);
        }
        // BFS over CD children, starting from a and everything equivalent
        // to it (crossing into an equivalent block gambles on nothing).
        let n = self.num_nodes();
        let mut dist: Vec<Option<usize>> = vec![None; n];
        let mut queue = std::collections::VecDeque::new();
        for (i, d) in dist.iter_mut().enumerate() {
            let node = NodeId::from_index(i);
            if self.equivalent(a, node) {
                *d = Some(0);
                queue.push_back(node);
            }
        }
        while let Some(x) = queue.pop_front() {
            let d = dist[x.index()].expect("enqueued with distance");
            for &(c, _) in self.cd_children(x) {
                if dist[c.index()].is_none() {
                    let nd = d + 1;
                    if c == b || self.equivalent(c, b) {
                        return Some(nd);
                    }
                    dist[c.index()] = Some(nd);
                    queue.push_back(c);
                }
            }
        }
        None
    }
}

/// The *safe target set* for duplicating instructions out of the join
/// block `join`: its region-graph predecessors, returned only when
/// copying an instruction to the end of every one of them is
/// execution-count preserving. `None` means no safe set exists and the
/// motion must be rejected (reason code `would-duplicate`).
///
/// The guards are structural, checked against the real [`Cfg`] rather
/// than the region graph so edges leaving the region (loop back edges,
/// region exits) cannot hide:
///
/// * `join` has at least two predecessors, and every one of them is a
///   plain block of the same region — supernodes (enclosed loops) and
///   the synthetic `ENTRY` disqualify the join, which is what keeps
///   duplication out of loops;
/// * every predecessor's *only* CFG successor is `join` (no conditional
///   exits: a copy at the end of such a predecessor executes exactly
///   when the original at the join's head would have);
/// * `join`'s CFG predecessors are exactly those same blocks (no edges
///   into the join from outside the region's view).
pub fn duplication_pred_set(cfg: &Cfg, g: &RegionGraph, join: NodeId) -> Option<Vec<NodeId>> {
    let RegionNode::Block(jb) = g.node(join) else {
        return None;
    };
    let mut preds: Vec<NodeId> = Vec::new();
    for &(p, _) in g.preds(join) {
        if !preds.contains(&p) {
            preds.push(p);
        }
    }
    if preds.len() < 2 {
        return None;
    }
    let mut pred_blocks = Vec::with_capacity(preds.len());
    for &p in &preds {
        match g.node(p) {
            RegionNode::Block(pb) => pred_blocks.push(pb),
            _ => return None,
        }
    }
    let cfg_preds = cfg.preds(gis_cfg::NodeId::block(jb));
    if cfg_preds.len() != pred_blocks.len() {
        return None;
    }
    for e in cfg_preds {
        match e.to.as_block() {
            Some(pb) if pred_blocks.contains(&pb) => {}
            _ => return None,
        }
    }
    for &pb in &pred_blocks {
        let succs = cfg.succs(gis_cfg::NodeId::block(pb));
        if succs.len() != 1 || succs[0].to.as_block() != Some(jb) {
            return None;
        }
    }
    Some(preds)
}

/// Renders the CSPDG in Graphviz DOT syntax: solid labelled control
/// dependence edges plus dashed equivalence edges in dominance direction —
/// the shape of the paper's Figure 4.
pub fn cspdg_to_dot(g: &RegionGraph, cspdg: &Cspdg) -> String {
    cspdg_to_dot_with(g, cspdg, &gis_cfg::NoOverlay)
}

/// [`cspdg_to_dot`] with decoration hooks (see [`gis_cfg::DotOverlay`]):
/// the overlay may inject prelude statements, rewrite block-node labels
/// and append annotated edges — how `gis-viz` draws scheduler motions
/// onto the control subgraph. Node ids are the region-graph node
/// renderings (`"BL3"`, `"[R1]"`, `ENTRY`, `EXIT`); the overlay's
/// label-keyed hooks receive the node rendering for block nodes.
pub fn cspdg_to_dot_with(
    g: &RegionGraph,
    cspdg: &Cspdg,
    overlay: &dyn gis_cfg::DotOverlay,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph cspdg {{");
    overlay.prelude(&mut out);
    let name = |n: NodeId| format!("\"{}\"", g.node(n));
    for i in 0..cspdg.num_nodes() {
        let n = NodeId::from_index(i);
        if let RegionNode::Block(_) = g.node(n) {
            let key = g.node(n).to_string();
            let mut attrs: Vec<String> = Vec::new();
            if let Some(text) = overlay.node_text(&key) {
                attrs.push(format!("label=\"{text}\""));
                attrs.push("shape=box".to_owned());
            }
            if let Some(extra) = overlay.node_attrs(&key) {
                attrs.push(extra);
            }
            if !attrs.is_empty() {
                let _ = writeln!(out, "  {} [{}];", name(n), attrs.join(", "));
            }
        }
    }
    for i in 0..cspdg.num_nodes() {
        let b = NodeId::from_index(i);
        for &(a, l) in cspdg.cd_parents(b) {
            match l {
                EdgeLabel::Always => {
                    let _ = writeln!(out, "  {} -> {};", name(a), name(b));
                }
                l => {
                    let _ = writeln!(out, "  {} -> {} [label=\"{l}\"];", name(a), name(b));
                }
            }
        }
    }
    // Dashed equivalence edges from each node to the equivalent nodes it
    // dominates directly (skip transitive members).
    for i in 0..cspdg.num_nodes() {
        let a = NodeId::from_index(i);
        if matches!(g.node(a), RegionNode::Entry | RegionNode::Exit) {
            continue;
        }
        if let Some(first) = cspdg.equiv_dominated(a).first() {
            let _ = writeln!(out, "  {} -> {} [style=dashed];", name(a), name(*first));
        }
    }
    overlay.epilogue(&mut out);
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_cfg::{Cfg, LoopForest, RegionKind, RegionTree};
    use gis_ir::BlockId;
    use gis_workloads::minmax;

    /// Builds the CSPDG of the minmax loop region (paper Figure 4).
    fn minmax_cspdg() -> (RegionGraph, Cspdg, Vec<NodeId>) {
        let f = minmax::figure2_function(9);
        let cfg = Cfg::new(&f);
        let dom = DomTree::dominators(&cfg);
        let loops = LoopForest::new(&cfg, &dom);
        let tree = RegionTree::new(&cfg, &loops);
        let (rid, _) = tree
            .regions()
            .find(|(_, r)| matches!(r.kind, RegionKind::Loop(_)))
            .expect("the loop region exists");
        let g = RegionGraph::new(&cfg, &tree, rid).expect("reducible");
        let cspdg = Cspdg::new(&g);
        // Paper block BLi (1-based) is function block i (init block is 0).
        let nodes: Vec<NodeId> = (0..=10)
            .map(|i| {
                if i == 0 {
                    NodeId::ENTRY
                } else {
                    g.node_of_block(BlockId::new(i)).expect("loop block")
                }
            })
            .collect();
        (g, cspdg, nodes)
    }

    #[test]
    fn figure4_control_dependences() {
        let (_, cspdg, bl) = minmax_cspdg();
        let parents =
            |i: usize| -> Vec<NodeId> { cspdg.cd_parents(bl[i]).iter().map(|&(p, _)| p).collect() };
        // BL1 and BL10 depend on nothing but ENTRY.
        assert_eq!(parents(1), vec![NodeId::ENTRY]);
        assert_eq!(parents(10), vec![NodeId::ENTRY]);
        // BL2 and BL4 depend on BL1 (under the same condition); BL6, BL8
        // depend on BL1 under the opposite condition.
        assert_eq!(parents(2), vec![bl[1]]);
        assert_eq!(parents(4), vec![bl[1]]);
        assert_eq!(parents(6), vec![bl[1]]);
        assert_eq!(parents(8), vec![bl[1]]);
        let label = |i: usize| cspdg.cd_parents(bl[i])[0].1;
        assert_eq!(label(2), label(4));
        assert_eq!(label(6), label(8));
        assert_ne!(label(2), label(6));
        // The update blocks depend on their guarding compares.
        assert_eq!(parents(3), vec![bl[2]]);
        assert_eq!(parents(5), vec![bl[4]]);
        assert_eq!(parents(7), vec![bl[6]]);
        assert_eq!(parents(9), vec![bl[8]]);
    }

    #[test]
    fn figure4_equivalences() {
        let (_, cspdg, bl) = minmax_cspdg();
        // The three dashed edges of Figure 4.
        assert!(cspdg.equivalent(bl[1], bl[10]));
        assert!(cspdg.equivalent(bl[2], bl[4]));
        assert!(cspdg.equivalent(bl[6], bl[8]));
        // Direction: the dominator comes first.
        assert_eq!(cspdg.equiv_dominated(bl[1]), vec![bl[10]]);
        assert_eq!(cspdg.equiv_dominated(bl[2]), vec![bl[4]]);
        assert_eq!(cspdg.equiv_dominated(bl[10]), vec![]);
        // Non-equivalences.
        assert!(!cspdg.equivalent(bl[2], bl[6]), "opposite arms");
        assert!(!cspdg.equivalent(bl[1], bl[2]), "conditional vs always");
        assert!(!cspdg.equivalent(bl[3], bl[5]), "different guards");
        // Identical control dependence agrees with Definition 3 here.
        for i in 1..=10 {
            for j in 1..=10 {
                assert_eq!(
                    cspdg.identically_control_dependent(bl[i], bl[j]),
                    cspdg.equivalent(bl[i], bl[j]),
                    "BL{i} vs BL{j}"
                );
            }
        }
    }

    #[test]
    fn figure4_speculation_degrees() {
        let (_, cspdg, bl) = minmax_cspdg();
        // §4.1: moving from BL8 to BL1 gambles on one branch...
        assert_eq!(cspdg.speculation_degree(bl[1], bl[8]), Some(1));
        // ...and from BL5 to BL1 on two.
        assert_eq!(cspdg.speculation_degree(bl[1], bl[5]), Some(2));
        // Useful motion is 0-branch speculative.
        assert_eq!(cspdg.speculation_degree(bl[1], bl[10]), Some(0));
        assert_eq!(cspdg.speculation_degree(bl[2], bl[4]), Some(0));
        // BL2's own children are one branch away.
        assert_eq!(cspdg.speculation_degree(bl[2], bl[3]), Some(1));
        // Equivalence extends the start set: BL5 hangs off BL4 ∈ EQUIV(BL2).
        assert_eq!(cspdg.speculation_degree(bl[2], bl[5]), Some(1));
    }

    #[test]
    fn cd_children_are_the_speculative_sources() {
        let (_, cspdg, bl) = minmax_cspdg();
        let mut kids: Vec<NodeId> = cspdg.cd_children(bl[1]).iter().map(|&(c, _)| c).collect();
        kids.sort();
        let mut want = vec![bl[2], bl[4], bl[6], bl[8]];
        want.sort();
        assert_eq!(kids, want);
    }

    #[test]
    fn dot_output_has_solid_and_dashed_edges() {
        let (g, cspdg, _) = minmax_cspdg();
        let dot = cspdg_to_dot(&g, &cspdg);
        assert!(dot.contains("style=dashed"), "{dot}");
        assert!(dot.contains("label="), "{dot}");
    }

    #[test]
    fn straight_line_region_all_on_entry() {
        let f = gis_ir::parse_function("func s\nA:\n LI r1=1\nB:\n RET\n").expect("parses");
        let cfg = Cfg::new(&f);
        let dom = DomTree::dominators(&cfg);
        let loops = LoopForest::new(&cfg, &dom);
        let tree = RegionTree::new(&cfg, &loops);
        let g = RegionGraph::new(&cfg, &tree, tree.root()).expect("reducible");
        let cspdg = Cspdg::new(&g);
        let a = g.node_of_block(BlockId::new(0)).unwrap();
        let b = g.node_of_block(BlockId::new(1)).unwrap();
        assert_eq!(cspdg.cd_parents(a), &[(NodeId::ENTRY, EdgeLabel::Always)]);
        assert_eq!(cspdg.cd_parents(b), &[(NodeId::ENTRY, EdgeLabel::Always)]);
        assert!(cspdg.equivalent(a, b));
        assert_eq!(cspdg.equiv_dominated(a), vec![b]);
    }

    fn root_graph(text: &str) -> (Cfg, RegionGraph, Cspdg) {
        let f = gis_ir::parse_function(text).expect("parses");
        let cfg = Cfg::new(&f);
        let dom = DomTree::dominators(&cfg);
        let loops = LoopForest::new(&cfg, &dom);
        let tree = RegionTree::new(&cfg, &loops);
        let g = RegionGraph::new(&cfg, &tree, tree.root()).expect("reducible");
        let cspdg = Cspdg::new(&g);
        (cfg, g, cspdg)
    }

    /// An if-then-else whose arms both fall into a join.
    const DIAMOND: &str = "func d\n\
        H:\n C cr0=r1,r2\n BT T,cr0,0x1/lt\n\
        E:\n AI r3=r3,1\n B J\n\
        T:\n AI r3=r3,2\n\
        J:\n A r4=r3,r3\n RET\n";

    #[test]
    fn diamond_join_needs_duplication_from_its_arms() {
        let (_, g, cspdg) = root_graph(DIAMOND);
        let h = g.node_of_block(BlockId::new(0)).unwrap();
        let e = g.node_of_block(BlockId::new(1)).unwrap();
        let t = g.node_of_block(BlockId::new(2)).unwrap();
        let j = g.node_of_block(BlockId::new(3)).unwrap();
        // Neither arm dominates the join: only a copy into each arm works.
        assert!(cspdg.needs_duplication(e, j));
        assert!(cspdg.needs_duplication(t, j));
        // The header dominates the join — Definition 6 motion suffices.
        assert!(!cspdg.needs_duplication(h, j));
        // And nothing needs duplication into itself.
        assert!(!cspdg.needs_duplication(j, j));
    }

    #[test]
    fn diamond_join_has_a_safe_pred_set() {
        let (cfg, g, _) = root_graph(DIAMOND);
        let e = g.node_of_block(BlockId::new(1)).unwrap();
        let t = g.node_of_block(BlockId::new(2)).unwrap();
        let j = g.node_of_block(BlockId::new(3)).unwrap();
        let preds = duplication_pred_set(&cfg, &g, j).expect("both arms are safe");
        assert_eq!(preds.len(), 2);
        assert!(preds.contains(&e) && preds.contains(&t));
        // The arms themselves are not joins.
        assert_eq!(duplication_pred_set(&cfg, &g, e), None);
        assert_eq!(duplication_pred_set(&cfg, &g, t), None);
    }

    #[test]
    fn if_then_join_has_no_safe_pred_set() {
        // The header conditionally *skips* the then-block: a copy at the
        // end of the header would execute on both paths.
        let (cfg, g, _) = root_graph(
            "func i\n\
             H:\n C cr0=r1,r2\n BT J,cr0,0x1/lt\n\
             T:\n AI r3=r3,1\n\
             J:\n A r4=r3,r3\n RET\n",
        );
        let j = g.node_of_block(BlockId::new(2)).unwrap();
        assert_eq!(duplication_pred_set(&cfg, &g, j), None);
    }

    #[test]
    fn loop_pred_disqualifies_a_join() {
        // One arm ends in a (self) loop: the loop is a supernode in the
        // outer region graph, and copies must never land inside it.
        let (cfg, g, _) = root_graph(
            "func l\n\
             H:\n C cr0=r1,r2\n BT T,cr0,0x1/lt\n\
             E:\n AI r3=r3,1\n B J\n\
             T:\n AI r1=r1,1\n C cr1=r1,r9\n BT T,cr1,0x1/lt\n\
             J:\n A r4=r3,r3\n RET\n",
        );
        let j = g.node_of_block(BlockId::new(3)).unwrap();
        assert_eq!(duplication_pred_set(&cfg, &g, j), None);
    }
}
