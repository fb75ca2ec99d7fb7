//! Back edges, natural loops, nesting and reducibility.
//!
//! The paper schedules *regions*: strongly connected components that
//! correspond to loops, found here as natural loops of dominance back
//! edges, under the standing assumption (§4.1) that the flow graph is
//! reducible — which this module also checks.

use crate::dom::DomTree;
use crate::graph::{Cfg, NodeId};
use gis_ir::BlockId;

/// Identifies a loop within a [`LoopForest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoopId(u32);

impl LoopId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A natural loop: the blocks that can reach a latch of a dominance back
/// edge without passing its header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// The loop header (the unique entry; dominates every block in the loop).
    pub header: BlockId,
    /// Sources of the back edges into the header.
    pub latches: Vec<BlockId>,
    /// Every block in the loop (sorted; includes the header and the blocks
    /// of any nested loops).
    pub blocks: Vec<BlockId>,
    /// The directly enclosing loop.
    pub parent: Option<LoopId>,
    /// Directly nested loops.
    pub children: Vec<LoopId>,
    /// Nesting depth: 0 for outermost loops.
    pub depth: usize,
}

impl NaturalLoop {
    /// Whether `b` belongs to this loop (including nested loops).
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.binary_search(&b).is_ok()
    }
}

/// The forest of natural loops of a function, with a reducibility verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopForest {
    loops: Vec<NaturalLoop>,
    innermost: Vec<Option<LoopId>>,
    reducible: bool,
}

impl LoopForest {
    /// Computes the loop forest of `cfg` (which must be the CFG the
    /// supplied analyses came from).
    pub fn new(cfg: &Cfg, dom: &DomTree) -> Self {
        // 1. Dominance back edges, grouped by header.
        let mut by_header: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
        for n in cfg.nodes() {
            let Some(a) = n.as_block() else { continue };
            for e in cfg.succs(n) {
                let Some(b) = e.to.as_block() else { continue };
                if dom.dominates(e.to, n) {
                    match by_header.iter_mut().find(|(h, _)| *h == b) {
                        Some((_, latches)) => latches.push(a),
                        None => by_header.push((b, vec![a])),
                    }
                }
            }
        }

        // 2. Natural loop bodies by backwards reachability from the latches.
        let mut loops: Vec<NaturalLoop> = Vec::new();
        for (header, latches) in by_header {
            let mut blocks = vec![header];
            let mut stack: Vec<BlockId> = Vec::new();
            for &l in &latches {
                if l != header && !blocks.contains(&l) {
                    blocks.push(l);
                    stack.push(l);
                }
            }
            while let Some(b) = stack.pop() {
                for e in cfg.preds(NodeId::block(b)) {
                    let Some(p) = e.to.as_block() else { continue };
                    if !blocks.contains(&p) {
                        blocks.push(p);
                        stack.push(p);
                    }
                }
            }
            blocks.sort();
            loops.push(NaturalLoop {
                header,
                latches,
                blocks,
                parent: None,
                children: Vec::new(),
                depth: 0,
            });
        }

        // 3. Nesting: order loops by body size; the parent of L is the
        //    smallest strictly larger loop whose body contains L's.
        let mut order: Vec<usize> = (0..loops.len()).collect();
        order.sort_by_key(|&i| loops[i].blocks.len());
        for (oi, &i) in order.iter().enumerate() {
            for &j in &order[oi + 1..] {
                let contains_all = loops[i].blocks.iter().all(|b| loops[j].contains(*b));
                if contains_all && loops[j].blocks.len() > loops[i].blocks.len() {
                    loops[i].parent = Some(LoopId(j as u32));
                    loops[j].children.push(LoopId(i as u32));
                    break;
                }
            }
        }
        // Depths from the parent chains.
        for i in 0..loops.len() {
            let mut d = 0;
            let mut cur = loops[i].parent;
            while let Some(p) = cur {
                d += 1;
                cur = loops[p.index()].parent;
            }
            loops[i].depth = d;
        }

        // 4. Innermost loop per block: assign from outermost to innermost.
        let mut innermost: Vec<Option<LoopId>> = vec![None; cfg.num_blocks()];
        let mut by_size_desc = order;
        by_size_desc.reverse();
        for &i in &by_size_desc {
            for &b in &loops[i].blocks {
                innermost[b.index()] = Some(LoopId(i as u32));
            }
        }

        // 5. Reducibility: with all dominance back edges removed, the
        //    remaining graph must be acyclic.
        let reducible = {
            let n = cfg.num_nodes();
            let forward = |from: NodeId| {
                cfg.succs(from)
                    .iter()
                    .map(|e| e.to)
                    .filter(move |&to| !dom.dominates(to, from))
            };
            let mut indeg = vec![0usize; n];
            for to in cfg.nodes().flat_map(forward) {
                indeg[to.index()] += 1;
            }
            let mut queue: Vec<NodeId> = cfg.nodes().filter(|x| indeg[x.index()] == 0).collect();
            let mut seen = 0;
            while let Some(x) = queue.pop() {
                seen += 1;
                for s in forward(x) {
                    indeg[s.index()] -= 1;
                    if indeg[s.index()] == 0 {
                        queue.push(s);
                    }
                }
            }
            seen == n
        };

        LoopForest {
            loops,
            innermost,
            reducible,
        }
    }

    /// All loops.
    pub fn loops(&self) -> impl Iterator<Item = (LoopId, &NaturalLoop)> {
        self.loops
            .iter()
            .enumerate()
            .map(|(i, l)| (LoopId(i as u32), l))
    }

    /// Number of loops.
    pub fn num_loops(&self) -> usize {
        self.loops.len()
    }

    /// A loop by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get(&self, id: LoopId) -> &NaturalLoop {
        &self.loops[id.index()]
    }

    /// The innermost loop containing `b`, if any.
    pub fn innermost(&self, b: BlockId) -> Option<LoopId> {
        self.innermost[b.index()]
    }

    /// Whether the whole CFG is reducible (every cycle is entered through
    /// its dominating header).
    pub fn is_reducible(&self) -> bool {
        self.reducible
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_ir::parse_function;

    fn forest(text: &str) -> LoopForest {
        let f = parse_function(text).expect("parses");
        let cfg = Cfg::new(&f);
        let dom = DomTree::dominators(&cfg);
        LoopForest::new(&cfg, &dom)
    }

    #[test]
    fn single_loop() {
        let lf = forest(
            "func l\nA:\n LI r1=0\nB:\n AI r1=r1,1\n C cr0=r1,r2\n BT B,cr0,0x1/lt\nC:\n RET\n",
        );
        assert_eq!(lf.num_loops(), 1);
        let (_, l) = lf.loops().next().unwrap();
        assert_eq!(l.header, BlockId::new(1));
        assert_eq!(l.latches, vec![BlockId::new(1)]);
        assert_eq!(l.blocks, vec![BlockId::new(1)]);
        assert!(lf.is_reducible());
        assert!(lf.innermost(BlockId::new(1)).is_some());
        assert!(lf.innermost(BlockId::new(0)).is_none());
    }

    #[test]
    fn nested_loops() {
        // outer: B..D with latch D; inner: C with self latch.
        let lf = forest(
            "func n\n\
             A:\n LI r1=0\n\
             B:\n AI r1=r1,1\n\
             C:\n AI r2=r2,1\n C cr0=r2,r9\n BT C,cr0,0x1/lt\n\
             D:\n C cr1=r1,r9\n BT B,cr1,0x1/lt\n\
             E:\n RET\n",
        );
        assert_eq!(lf.num_loops(), 2);
        let inner = lf.innermost(BlockId::new(2)).expect("C is in a loop");
        let outer = lf.innermost(BlockId::new(1)).expect("B is in a loop");
        assert_ne!(inner, outer);
        assert_eq!(lf.get(inner).parent, Some(outer));
        assert_eq!(lf.get(outer).children, vec![inner]);
        assert_eq!(lf.get(inner).depth, 1);
        assert_eq!(lf.get(outer).depth, 0);
        assert_eq!(
            lf.get(outer).blocks,
            vec![BlockId::new(1), BlockId::new(2), BlockId::new(3)]
        );
    }

    #[test]
    fn two_latches_one_header() {
        // B has two back edges: from C and from D.
        let lf = forest(
            "func t\n\
             A:\n LI r1=0\n\
             B:\n C cr0=r1,r2\n BT D,cr0,0x1/lt\n\
             C:\n C cr1=r1,r3\n BT B,cr1,0x2/gt\n\
             Cx:\n B E\n\
             D:\n C cr2=r1,r4\n BT B,cr2,0x2/gt\n\
             E:\n RET\n",
        );
        assert_eq!(lf.num_loops(), 1);
        let (_, l) = lf.loops().next().unwrap();
        assert_eq!(l.header, BlockId::new(1));
        assert_eq!(l.latches.len(), 2);
        assert!(lf.is_reducible());
    }

    #[test]
    fn irreducible_graph_detected() {
        // Two blocks jumping into each other with two entries.
        let lf = forest(
            "func i\n\
             A:\n C cr0=r1,r2\n BT C,cr0,0x1/lt\n\
             B:\n C cr1=r1,r3\n BT C,cr1,0x2/gt\n\
             Bx:\n B E\n\
             C:\n C cr2=r1,r4\n BT B,cr2,0x2/gt\n\
             Cx:\n B E\n\
             E:\n RET\n",
        );
        assert!(!lf.is_reducible(), "B<->C cycle has two entries");
    }

    #[test]
    fn acyclic_function_has_no_loops() {
        let lf = forest("func a\nA:\n LI r1=1\nB:\n RET\n");
        assert_eq!(lf.num_loops(), 0);
        assert!(lf.is_reducible());
    }
}
