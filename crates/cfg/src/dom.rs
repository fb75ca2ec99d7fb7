//! Dominator and postdominator trees (Definitions 1 and 2 of the paper).
//!
//! Implemented with the Cooper–Harvey–Kennedy iterative algorithm over
//! reverse postorder, plus Euler-interval numbering of the resulting tree
//! so that `dominates` queries are O(1).

use crate::graph::{reverse_postorder_into, Adjacency, Cfg, NodeId};

/// A dominator tree over the nodes of a graph.
///
/// The same structure serves as a *post*dominator tree when built over the
/// reversed graph rooted at `EXIT` ([`DomTree::postdominators`]). Every
/// table is flat: building one costs a fixed handful of allocations
/// whatever the node count, and [`DomTree::rebuild`] reuses them, so a
/// tree rebuilt once per region allocates only while it grows.
#[derive(Debug, Clone)]
pub struct DomTree {
    root: NodeId,
    /// Immediate dominators (the root is its own; `None` for nodes
    /// unreachable from the root).
    idom: Vec<Option<NodeId>>,
    /// The tree's edges, parent to child, each node's children
    /// ascending.
    children: Adjacency,
    /// Euler tour entry/exit times on the dominator tree.
    pre: Vec<u32>,
    post: Vec<u32>,
    /// Buffers of the construction, kept for the next rebuild.
    scratch: DomScratch,
}

/// The working arrays of one [`DomTree`] construction.
#[derive(Debug, Clone, Default)]
struct DomScratch {
    rpo: Vec<NodeId>,
    rpo_index: Vec<usize>,
    preds: Adjacency,
    parents: Adjacency,
    visited: Vec<bool>,
    stack: Vec<(NodeId, usize)>,
}

/// An empty tree, for [`DomTree::rebuild`] to fill.
impl Default for DomTree {
    fn default() -> Self {
        DomTree {
            root: NodeId::ENTRY,
            idom: Vec::new(),
            children: Adjacency::default(),
            pre: Vec::new(),
            post: Vec::new(),
            scratch: DomScratch::default(),
        }
    }
}

impl DomTree {
    /// Dominators of `cfg`, rooted at `ENTRY`.
    pub fn dominators(cfg: &Cfg) -> Self {
        let succs = Adjacency::new(cfg.num_nodes(), |i| {
            cfg.succs(NodeId::from_index(i)).iter().map(|e| e.to)
        });
        Self::new(&succs, NodeId::ENTRY)
    }

    /// Postdominators of `cfg`: dominators of the reversed graph rooted at
    /// `EXIT`.
    pub fn postdominators(cfg: &Cfg) -> Self {
        let succs = Adjacency::new(cfg.num_nodes(), |i| {
            cfg.preds(NodeId::from_index(i)).iter().map(|e| e.to)
        });
        Self::new(&succs, NodeId::EXIT)
    }

    /// Builds the dominator tree of the graph `succs`, rooted at `root`.
    pub fn new(succs: &Adjacency, root: NodeId) -> Self {
        let mut tree = DomTree::default();
        tree.rebuild(succs, root);
        tree
    }

    /// [`DomTree::new`] in place: the tree of `succs` rooted at `root`,
    /// reusing this tree's arrays.
    pub fn rebuild(&mut self, succs: &Adjacency, root: NodeId) {
        let n = succs.num_nodes();
        let DomScratch {
            rpo,
            rpo_index,
            preds,
            parents,
            visited,
            stack,
        } = &mut self.scratch;
        reverse_postorder_into(
            n,
            root,
            |x, i| succs.succs(x).get(i).copied(),
            visited,
            stack,
            rpo,
        );
        rpo_index.clear();
        rpo_index.resize(n, usize::MAX);
        for (i, node) in rpo.iter().enumerate() {
            rpo_index[node.index()] = i;
        }
        succs.reverse_into(preds);

        let idom = &mut self.idom;
        idom.clear();
        idom.resize(n, None);
        idom[root.index()] = Some(root);

        let intersect = |idom: &[Option<NodeId>], mut a: NodeId, mut b: NodeId| -> NodeId {
            while a != b {
                while rpo_index[a.index()] > rpo_index[b.index()] {
                    a = idom[a.index()].expect("processed");
                }
                while rpo_index[b.index()] > rpo_index[a.index()] {
                    b = idom[b.index()].expect("processed");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<NodeId> = None;
                for &p in preds.succs(b) {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(idom, cur, p),
                    });
                }
                if new_idom.is_some() && idom[b.index()] != new_idom {
                    idom[b.index()] = new_idom;
                    changed = true;
                }
            }
        }

        // Children (root excluded from its own children), ascending: the
        // tree's edges, parent to child.
        parents.rebuild(n, |i| idom[i].filter(|p| p.index() != i));
        parents.reverse_into(&mut self.children);
        let children = &self.children;

        // Euler intervals for O(1) ancestor queries.
        let (pre, post) = (&mut self.pre, &mut self.post);
        pre.clear();
        pre.resize(n, 0);
        post.clear();
        post.resize(n, 0);
        let mut clock = 0u32;
        stack.clear();
        stack.push((root, 0));
        pre[root.index()] = clock;
        clock += 1;
        while let Some(&(node, i)) = stack.last() {
            if let Some(&c) = children.succs(node).get(i) {
                stack.last_mut().expect("nonempty").1 += 1;
                pre[c.index()] = clock;
                clock += 1;
                stack.push((c, 0));
            } else {
                post[node.index()] = clock;
                clock += 1;
                stack.pop();
            }
        }
        self.root = root;
    }

    /// The tree's root (`ENTRY` for dominators, `EXIT` for postdominators).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The immediate dominator of `n` (`None` for the root and for nodes
    /// unreachable from the root).
    pub fn idom(&self, n: NodeId) -> Option<NodeId> {
        match self.idom[n.index()] {
            Some(p) if p != n => Some(p),
            _ => None,
        }
    }

    /// Whether `n` is reachable from the root.
    pub fn is_reachable(&self, n: NodeId) -> bool {
        self.idom[n.index()].is_some()
    }

    /// Whether `a` dominates `b` (reflexively). Unreachable nodes dominate
    /// only themselves.
    pub fn dominates(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return true;
        }
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        self.pre[a.index()] < self.pre[b.index()] && self.post[b.index()] < self.post[a.index()]
    }

    /// Whether `a` dominates `b` and `a != b`.
    pub fn strictly_dominates(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// The children of `n` in the dominator tree.
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        self.children.succs(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_ir::{parse_function, BlockId};

    fn node(i: u32) -> NodeId {
        NodeId::block(BlockId::new(i))
    }

    /// A(0) -> B(1)/C(2) -> D(3); B -> D, C -> D.
    fn diamond_cfg() -> Cfg {
        let f = parse_function(
            "func d\nA:\n C cr0=r1,r2\n BT C,cr0,0x1/lt\nB:\n LI r3=5\n B D\nC:\n LI r3=3\nD:\n RET\n",
        )
        .expect("parses");
        Cfg::new(&f)
    }

    #[test]
    fn diamond_dominators() {
        let dom = DomTree::dominators(&diamond_cfg());
        assert_eq!(dom.idom(node(0)), Some(NodeId::ENTRY));
        assert_eq!(dom.idom(node(1)), Some(node(0)));
        assert_eq!(dom.idom(node(2)), Some(node(0)));
        assert_eq!(
            dom.idom(node(3)),
            Some(node(0)),
            "join is dominated by the fork only"
        );
        assert!(dom.dominates(node(0), node(3)));
        assert!(!dom.dominates(node(1), node(3)));
        assert!(dom.dominates(node(3), node(3)), "dominance is reflexive");
        assert!(!dom.strictly_dominates(node(3), node(3)));
    }

    #[test]
    fn diamond_postdominators() {
        let pdom = DomTree::postdominators(&diamond_cfg());
        assert_eq!(pdom.root(), NodeId::EXIT);
        assert_eq!(
            pdom.idom(node(0)),
            Some(node(3)),
            "the join postdominates the fork"
        );
        assert!(pdom.dominates(node(3), node(0)));
        assert!(!pdom.dominates(node(1), node(0)));
    }

    #[test]
    fn loop_dominators() {
        // A -> B; B -> B (latch) or C.
        let f = parse_function(
            "func l\nA:\n LI r1=0\nB:\n AI r1=r1,1\n C cr0=r1,r2\n BT B,cr0,0x1/lt\nC:\n RET\n",
        )
        .expect("parses");
        let cfg = Cfg::new(&f);
        let dom = DomTree::dominators(&cfg);
        assert_eq!(dom.idom(node(1)), Some(node(0)));
        assert_eq!(dom.idom(node(2)), Some(node(1)));
        assert!(dom.dominates(node(1), node(2)));
    }

    #[test]
    fn unreachable_nodes() {
        // B is unreachable (A jumps straight to C).
        let f = parse_function("func u\nA:\n B C\nB:\n LI r1=1\nC:\n RET\n").expect("parses");
        let cfg = Cfg::new(&f);
        let dom = DomTree::dominators(&cfg);
        assert!(!dom.is_reachable(node(1)));
        assert_eq!(dom.idom(node(1)), None);
        assert!(!dom.dominates(node(0), node(1)));
        assert!(dom.dominates(node(1), node(1)));
    }

    #[test]
    fn children_partition_the_tree() {
        let dom = DomTree::dominators(&diamond_cfg());
        let kids = dom.children(node(0));
        assert_eq!(kids.len(), 3, "B, C, D are all children of A: {kids:?}");
    }
}
