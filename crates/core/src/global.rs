//! The global (inter-block) scheduler — §5.1–§5.3 of the paper.
//!
//! One region at a time, blocks in topological order. For each block `A`
//! the candidate blocks are `EQUIV(A)` (useful motion) plus, at the
//! speculative level, the immediate CSPDG successors of `A` and of
//! `EQUIV(A)` that `A` dominates (no duplication, Definition 6; 1-branch
//! speculation only, Definition 7). Candidate instructions are scheduled
//! cycle by cycle against the parametric machine description by the
//! ready-list scheduler of `list.rs`, which this module drives; when a
//! candidate from another block is picked it physically moves into `A`
//! (always upward). The heuristic ladder of §5.2 breaks ties: useful
//! before speculative, then the delay heuristic `D`, then the critical
//! path heuristic `CP`, then original program order. Under the armed
//! checks ([`TestHooks::armed`]: debug builds, or a plugged-in verifier),
//! every pick is also recomputed by a full rescan of the candidates, and
//! every region's sweep dependence graph is rebuilt by the all-pairs
//! [`DataDeps::build_reference`]; both must agree.
//!
//! Beyond the paper, [`SchedConfig::duplication`] lifts Definition 6's
//! no-duplication restriction for one shape: a join every one of whose
//! predecessors falls through into it unconditionally. The join's
//! movable instructions are scheduled into the topologically last
//! predecessor, with fresh-id copies minted at the end of each sibling —
//! execution counts are preserved exactly, so this is the first
//! transformation here that changes a function's instruction count (see
//! `docs/PAPER_MAP.md`).
//!
//! Speculative motions obey §5.3: an instruction defining a register that
//! is live on exit from `A` is rejected — or, when the definition's
//! du-chain is local to its home block, renamed to a fresh register (the
//! paper's `cr6`→`cr5` motion in Figure 6). Liveness is current across
//! motions ("this type of information has to be updated dynamically")
//! because it is never stored: the gate's one question, whether a
//! register is live on exit from a scope block, is answered on demand
//! by [`Liveness::walk_live_out`] over the region's current code, and a
//! path that leaves the region reads the one whole-function
//! [`Liveness`] solve its global pass makes. A motion therefore costs
//! nothing for liveness and a query O(region). This rests on the
//! region-boundary invariant stated in `gis_pdg`'s liveness module: a
//! legal motion never changes liveness outside the region that makes
//! it, so the pass-start live-ins of every exit successor stay exact.
//! The same invariant lets the region memo key on those live-ins and
//! the `--jobs` workers share the one solve. Under the armed checks,
//! every answer is compared with [`Liveness::compute_reference`] on the
//! current function and, after every commit, the exit successors'
//! pass-level live-ins with a fresh reference solve.

use crate::config::{Fault, SchedConfig, SchedLevel};
use crate::dcp::Heuristics;
use crate::list::{Commit, ListScheduler, PassHooks, Pick, Pred, UnitPool};
use crate::parallel::GlobalPass;
use crate::stats::SchedStats;
use gis_cfg::{NodeId, RegionGraph, RegionNode, RegionTree};
use gis_ir::{BlockId, DenseBitSet, Function, InstId, OpClass, Reg};
use gis_machine::MachineDescription;
use gis_pdg::{Cspdg, DataDeps, Liveness};
use gis_trace::{MotionKind, RejectReason, SchedObserver, TieBreak, TraceEvent};
use std::collections::HashMap;

/// Sentinel for "not placed in this block pass" in the dense
/// [`Scratch::place_time`] table.
const UNPLACED: u64 = u64::MAX;
/// Sentinel for "no node" in the dense instruction→node table.
const NO_NODE: u32 = u32::MAX;

impl GlobalPass<'_> {
    /// Schedules region `rid` of `f`, reporting every decision — candidate
    /// blocks, motions with their winning tie-break, §5.3 rejections,
    /// renames — to `obs`. Returns `false` when the region was skipped
    /// (irreducible or over the §6 size limits); statistics accumulate
    /// into `stats` either way.
    pub(crate) fn schedule<O: SchedObserver>(
        &self,
        f: &mut Function,
        rid: gis_cfg::RegionId,
        stats: &mut SchedStats,
        obs: &mut O,
    ) -> bool {
        let (machine, cfg, tree, config) = (self.machine, self.cfg, self.tree, self.config);
        if config.level == SchedLevel::BasicBlockOnly {
            return false;
        }
        let region = rid.index() as u32;
        let skip = |stats: &mut SchedStats, obs: &mut O, reason: RejectReason| -> bool {
            stats.regions_skipped += 1;
            if obs.enabled() {
                obs.event(TraceEvent::RegionSkipped { region, reason });
            }
            false
        };
        let scope_blocks = subtree_blocks(tree, rid);
        if let Some(reason) = size_gate(f, &scope_blocks, config) {
            return skip(stats, obs, reason);
        }
        let Ok(g) = RegionGraph::new(cfg, tree, rid) else {
            return skip(stats, obs, RejectReason::Irreducible);
        };
        if obs.enabled() {
            obs.event(TraceEvent::RegionBegin {
                region,
                blocks: scope_blocks
                    .iter()
                    .map(|&b| f.block(b).label().to_owned())
                    .collect(),
            });
        }
        let cspdg = Cspdg::new(&g);

        // Node-level forward reachability (small graphs; dense matrix).
        let reach = reachability(&g);

        // Map every scope block to its node: direct blocks to their own
        // node, blocks of enclosed regions to the supernode of the
        // enclosing child.
        let node_of: HashMap<BlockId, NodeId> = scope_blocks
            .iter()
            .map(|&b| (b, lift_block(&g, tree, rid, b)))
            .collect();

        let may_follow = |x: BlockId, y: BlockId| {
            let (nx, ny) = (node_of[&x], node_of[&y]);
            nx != ny && reach[nx.index()].contains(ny.index())
        };
        let mut deps = DataDeps::build(f, machine, &scope_blocks, may_follow);
        if self.hooks.armed() {
            assert!(
                deps == DataDeps::build_reference(f, machine, &scope_blocks, may_follow),
                "region {region}: the sweep dependence graph diverged from the all-pairs reference"
            );
        }
        stats.dep_edges += deps.num_edges();
        deps.reduce();
        stats.dep_edges_reduced += deps.num_edges();

        let bound = f.inst_id_bound();
        stats.scratch_allocs += 1;
        let mut pass = RegionPass {
            global: self,
            deps: &deps,
            reach: &reach,
            heur: Heuristics::new(&deps),
            placed: DenseBitSet::with_capacity(bound),
            inst_node: vec![NO_NODE; bound],
            scope: scope_blocks,
            reference: None,
            scratch: Scratch::new(machine, bound),
            stats,
            obs,
        };
        pass.check_boundary(f, || "at the region's start".to_owned());
        for &b in &pass.scope {
            for inst in f.block(b).insts() {
                pass.inst_node[inst.id.index()] = node_of[&b].index() as u32;
            }
        }

        for &node in g.topo_order() {
            if let RegionNode::Block(a) = g.node(node) {
                pass.schedule_block(f, &g, &cspdg, node, a);
            }
        }
        pass.stats.regions_scheduled += 1;
        true
    }
}

/// All blocks of a region's subtree (direct blocks plus nested regions').
pub(crate) fn subtree_blocks(tree: &RegionTree, rid: gis_cfg::RegionId) -> Vec<BlockId> {
    let mut out = Vec::new();
    let mut stack = vec![rid];
    while let Some(r) = stack.pop() {
        let reg = tree.region(r);
        out.extend(reg.blocks.iter().copied());
        stack.extend(reg.children.iter().copied());
    }
    out.sort();
    out
}

/// The §6 size gates, at most 64 blocks and 256 instructions per region
/// by default: `None` when a region with these scope blocks may be
/// scheduled, else why it is skipped. [`GlobalPass::schedule`] reads it
/// before building any analyses, and the region memo and the parallel
/// driver read it to predict — without mutating anything — which regions
/// will be skipped. A prediction made on the pre-pass function holds
/// because regions are disjoint and each is visited once per pass: the
/// only transformation that changes an instruction count — duplication —
/// mutates blocks of the region *currently being scheduled*, after its
/// own size gate was read, and never another region's.
pub(crate) fn size_gate(
    f: &Function,
    scope: &[BlockId],
    config: &SchedConfig,
) -> Option<RejectReason> {
    if scope.len() > config.max_region_blocks {
        return Some(RejectReason::RegionTooManyBlocks);
    }
    let insts: usize = scope.iter().map(|&b| f.block(b).len()).sum();
    (insts > config.max_region_insts).then_some(RejectReason::RegionTooManyInsts)
}

/// Dense forward reachability over a region graph (reflexive), one bit
/// set per start node.
fn reachability(g: &RegionGraph) -> Vec<DenseBitSet> {
    let n = g.num_nodes();
    let mut reach = vec![DenseBitSet::with_capacity(n); n];
    for (start, row) in reach.iter_mut().enumerate() {
        let mut stack = vec![NodeId::from_index(start)];
        row.insert(start);
        while let Some(x) = stack.pop() {
            for &(to, _) in g.succs(x) {
                if row.insert(to.index()) {
                    stack.push(to);
                }
            }
        }
    }
    reach
}

/// The node a block maps to in this region's graph: itself when direct,
/// otherwise the supernode of the direct child that encloses it.
fn lift_block(g: &RegionGraph, tree: &RegionTree, rid: gis_cfg::RegionId, b: BlockId) -> NodeId {
    if let Some(n) = g.node_of_block(b) {
        return n;
    }
    // Walk up the region tree to the direct child of `rid`.
    let mut cur = tree.innermost(b);
    loop {
        let parent = tree.region(cur).parent.expect("b is inside rid's subtree");
        if parent == rid {
            break;
        }
        cur = parent;
    }
    for i in 0..g.num_nodes() {
        if g.node(NodeId::from_index(i)) == RegionNode::Inner(cur) {
            return NodeId::from_index(i);
        }
    }
    unreachable!("supernode for child region exists");
}

struct RegionPass<'a, O: SchedObserver> {
    /// The pass's inputs. Its whole-function liveness is exact at the
    /// region's exits for the whole pass (the region-boundary invariant).
    global: &'a GlobalPass<'a>,
    deps: &'a DataDeps,
    reach: &'a [DenseBitSet],
    /// `D`/`CP` by scope position, computed per home block as each
    /// block pass collects its candidates.
    heur: Heuristics,
    /// Instructions placed by this region pass (any block), by id.
    placed: DenseBitSet,
    /// Current region-graph node index of every scope instruction
    /// (dense by inst id; [`NO_NODE`] outside the scope).
    inst_node: Vec<u32>,
    /// The region's subtree's blocks, ascending.
    scope: Vec<BlockId>,
    /// The reference solve [`RegionPass::check_boundary`] made at the
    /// last commit, which every query is checked against; `None` when
    /// the checks are off.
    reference: Option<Liveness>,
    scratch: Scratch,
    stats: &'a mut SchedStats,
    obs: &'a mut O,
}

/// Per-region scratch buffers for [`RegionPass::schedule_block`]'s inner
/// loops: allocated once per region, reset (capacity kept) per block, so
/// the cycle-by-cycle scheduling loop itself performs no heap
/// allocation. The `scratch_allocs` / `scratch_reuses` stats count
/// bundle creations vs block passes that reused one.
struct Scratch {
    /// The block pass's candidates; candidate `i` is list slot `i`.
    cands: Vec<Candidate>,
    /// The list scheduler, holding one slot per candidate and the unit
    /// pool.
    list: ListScheduler<PriorityKey>,
    new_order: Vec<InstId>,
    /// Issue cycle per candidate id ([`UNPLACED`] when not placed);
    /// reset via the candidate list, not a full sweep.
    place_time: Vec<u64>,
    /// Candidate-set membership by inst id.
    in_s: DenseBitSet,
    /// §5.3-rejected candidates by inst id.
    rejected: DenseBitSet,
    /// Final position per placed inst id, for the block reorder.
    rank: Vec<u32>,
    /// Ever used by a block pass already (drives `scratch_reuses`).
    used: bool,
}

impl Scratch {
    fn new(machine: &MachineDescription, inst_bound: usize) -> Self {
        Scratch {
            cands: Vec::new(),
            list: ListScheduler::new(machine),
            new_order: Vec::new(),
            place_time: vec![UNPLACED; inst_bound],
            in_s: DenseBitSet::with_capacity(inst_bound),
            rejected: DenseBitSet::with_capacity(inst_bound),
            rank: vec![0; inst_bound],
            used: false,
        }
    }

    /// Returns the buffers to their empty state, keeping capacity (the
    /// list scheduler is reset by its own `begin`).
    fn reset(&mut self) {
        for &c in &self.cands {
            self.place_time[c.id.index()] = UNPLACED;
        }
        self.cands.clear();
        self.new_order.clear();
        self.in_s.clear();
        self.rejected.clear();
    }
}

#[derive(Debug, Clone, Copy)]
struct Candidate {
    id: InstId,
    home: BlockId,
    useful: bool,
    /// Execution probability given the target block executes (1.0 for
    /// useful candidates and when no profile is supplied).
    prob: f64,
    /// Duplication-based candidate ([`SchedConfig::duplication`]): the
    /// home block is a join of which the target is the last predecessor;
    /// committing relocates the original and mints a copy in every
    /// sibling predecessor. Exempt from the §5.3 live-on-exit gate — the
    /// motion preserves execution counts, it is not speculative.
    dup: bool,
}

/// The scheduler's priority key for a candidate: useful-before-
/// speculative, probability, `D`, `CP`, original order (§5.2 ladder).
/// Original order is the dependence scope position, so keys are unique
/// within a region.
type PriorityKey = (bool, u32, u32, u32, std::cmp::Reverse<usize>);

/// Which rung of the §5.2 ladder separated the winner from the runner-up.
fn tie_break(best: PriorityKey, second: Option<PriorityKey>) -> TieBreak {
    let Some(s) = second else {
        return TieBreak::Sole;
    };
    if best.0 != s.0 {
        TieBreak::Usefulness
    } else if best.1 != s.1 {
        TieBreak::Probability
    } else if best.2 != s.2 {
        TieBreak::DelayHeuristic
    } else if best.3 != s.3 {
        TieBreak::CriticalPath
    } else {
        TieBreak::OriginalOrder
    }
}

/// How a CSPDG node fares as a speculative candidate block for `A`.
#[derive(PartialEq)]
enum SpecClass {
    /// Passes every gate: schedule from it.
    Eligible,
    /// Structurally fine but below the probability threshold.
    ProbGate,
    /// Not a block, already a candidate, or would duplicate (Definition 6).
    Ineligible,
}

/// How [`RegionPass::offer`] treats a block's movable instructions.
#[derive(Clone, Copy)]
enum Offer {
    /// As candidates: speculative ones with this probability, or
    /// duplication candidates out of an eligible join.
    Candidates { prob: f64, dup: bool },
    /// As `WouldDuplicate` rejections: the block is a join that fails
    /// the duplication guards.
    WouldDuplicate,
}

/// One block pass of a region as the list scheduler's [`PassHooks`]: the
/// terminator rule, the duplication fold, the §5.3 gate and renaming,
/// the motion commit and the trace events.
struct BlockPass<'p, 'a, O: SchedObserver> {
    pass: &'p mut RegionPass<'a, O>,
    f: &'p mut Function,
    a: BlockId,
    node_a: NodeId,
    dup_joins: &'p [(BlockId, Vec<BlockId>)],
    /// Slot of A's own branch.
    a_branch: Option<usize>,
    /// Instructions of A not yet placed.
    a_remaining: usize,
    enabled: bool,
}

impl<O: SchedObserver> PassHooks<PriorityKey> for BlockPass<'_, '_, O> {
    fn eligible(&self, slot: usize) -> bool {
        // The block's own branch waits for the rest of the block (branch
        // order preserved; blocks keep their terminator last).
        Some(slot) != self.a_branch || self.a_remaining <= 1
    }

    fn check(&self, t: u64, units: &UnitPool, pick: Option<&Pick<PriorityKey>>) {
        if !self.pass.global.hooks.armed() {
            return;
        }
        let a_branch = self.a_branch.map(|s| self.pass.scratch.cands[s].id);
        let (best, second) =
            self.pass
                .rescan_pick(self.f, self.node_a, a_branch, self.a_remaining, t, units);
        let got = pick.map(|p| ((p.id, p.key), p.second));
        let want = best.map(|b| (b, second));
        assert_eq!(
            got,
            want,
            "ready-list pick diverged from the rescan in {} at cycle {t}",
            self.f.block(self.a).label()
        );
    }

    fn commit(&mut self, pick: &Pick<PriorityKey>, t: u64) -> Commit {
        let (f, a, node_a, enabled) = (&mut *self.f, self.a, self.node_a, self.enabled);
        let pass = &mut *self.pass;
        let cand = pass.scratch.cands[pick.slot];

        // CSE at motion commit: when a sibling copy of an instruction
        // already placed into A comes up, it folds into the placed one
        // instead of moving — both compute the same value from the same
        // operand definitions. Checked before the §5.3 gate: a fold
        // deletes the candidate rather than moving it, so it cannot
        // clobber anything no matter what is live on exit.
        let may_fold = pass.global.config.duplication && cand.home != a;
        if may_fold && pass.try_fold_duplicate(f, a, &cand) {
            return Commit::Fold(pass.scratch.place_time[cand.id.index()]);
        }

        // §5.3: speculative motion may not clobber a register live on
        // exit from A — unless a local rename fixes it. Duplication
        // candidates are exempt: every predecessor's only successor is
        // the join, so live-on-exit from A is exactly live-on-entry to
        // the join, and any candidate whose definition an earlier join
        // instruction still needs is held back by the dependence test
        // instead.
        if cand.home != a && !cand.useful && !cand.dup && !pass.speculation_allowed(f, a, &cand) {
            pass.scratch.rejected.insert(cand.id.index());
            if enabled {
                pass.obs.event(TraceEvent::Rejected {
                    inst: cand.id.index() as u32,
                    home: f.block(cand.home).label().to_owned(),
                    target: f.block(a).label().to_owned(),
                    reason: RejectReason::LiveOnExit,
                });
            }
            return Commit::Reject;
        }

        // Issue (the list scheduler takes the unit).
        pass.scratch.place_time[cand.id.index()] = t;
        pass.placed.insert(cand.id.index());
        pass.scratch.new_order.push(cand.id);

        if cand.home == a {
            if enabled {
                pass.obs.event(TraceEvent::Placed {
                    inst: cand.id.index() as u32,
                    block: f.block(a).label().to_owned(),
                    cycle: t,
                    tie: tie_break(pick.key, pick.second),
                });
            }
            self.a_remaining -= 1;
        } else if cand.dup {
            // Duplication commit: the original keeps its id and moves
            // into A like any motion; a fresh-id copy lands at the end of
            // every sibling predecessor, before its terminator. Each
            // sibling is already scheduled and falls through into the
            // join unconditionally, so the copy observes exactly the
            // values the original would have seen along that path, and
            // each path into the join still executes the operation
            // exactly once.
            let copy_op = {
                let pos = f.block(cand.home).position(cand.id).expect("exists");
                f.block(cand.home).inst_at(pos).op.clone()
            };
            let block_a = f.block(a);
            let at = block_a.len() - usize::from(block_a.last().is_some_and(|i| i.op.is_branch()));
            f.relink_inst(cand.id, cand.home, a, at);
            pass.inst_node[cand.id.index()] = node_a.index() as u32;
            let sibs: &[BlockId] = self
                .dup_joins
                .iter()
                .find_map(|(b, s)| (*b == cand.home).then_some(s.as_slice()))
                .expect("dup candidate has a recorded join");
            let mut copies: Vec<(BlockId, InstId)> = Vec::with_capacity(sibs.len());
            for &p in sibs {
                let id = f.fresh_inst_id();
                f.record_dup_origin(id, cand.id);
                let bp = f.block(p);
                let ins = bp.len() - usize::from(bp.last().is_some_and(|i| i.op.is_branch()));
                f.block_mut(p)
                    .insert(ins, gis_ir::Inst::new(id, copy_op.clone()));
                copies.push((p, id));
            }
            pass.stats.moved_duplicated += 1;
            pass.stats.dup_copies_minted += copies.len();
            if enabled {
                pass.obs.event(TraceEvent::Duplicated {
                    inst: cand.id.index() as u32,
                    home: f.block(cand.home).label().to_owned(),
                    into: f.block(a).label().to_owned(),
                    cycle: t,
                    copies: copies
                        .iter()
                        .map(|&(b, id)| (f.block(b).label().to_owned(), id.index() as u32))
                        .collect(),
                });
            }
            pass.check_boundary(f, || format!("after duplicating {} into {a}", cand.id));
        } else {
            if enabled {
                pass.obs.event(TraceEvent::Moved {
                    inst: cand.id.index() as u32,
                    from: f.block(cand.home).label().to_owned(),
                    into: f.block(a).label().to_owned(),
                    cycle: t,
                    kind: if cand.useful {
                        MotionKind::Useful
                    } else {
                        MotionKind::Speculative
                    },
                    tie: tie_break(pick.key, pick.second),
                });
            }
            // Physical upward motion into A (kept before A's branch;
            // final order applied at end of pass).
            let block_a = f.block(a);
            let at = block_a.len() - usize::from(block_a.last().is_some_and(|i| i.op.is_branch()));
            f.relink_inst(cand.id, cand.home, a, at);
            pass.inst_node[cand.id.index()] = node_a.index() as u32;
            if cand.useful {
                pass.stats.moved_useful += 1;
            } else {
                pass.stats.moved_speculative += 1;
            }
            pass.check_boundary(f, || {
                format!("after moving {} from {} into {a}", cand.id, cand.home)
            });
        }
        Commit::Issue
    }

    fn done(&self) -> bool {
        self.a_remaining == 0
    }
}

impl<O: SchedObserver> RegionPass<'_, O> {
    fn schedule_block(
        &mut self,
        f: &mut Function,
        g: &RegionGraph,
        cspdg: &Cspdg,
        node_a: NodeId,
        a: BlockId,
    ) {
        let (config, enabled) = (self.global.config, self.obs.enabled());
        // ---- Candidate blocks. ----------------------------------------
        let equiv: Vec<NodeId> = cspdg.equiv_dominated(node_a);
        let mut useful_blocks: Vec<NodeId> = equiv.clone();
        let mut spec_blocks: Vec<(NodeId, f64)> = Vec::new();
        // Joins eligible for duplication-based motion out of `A`, with
        // their sibling predecessor blocks (ascending), and joins that
        // were identified but failed the structural guards (reported as
        // `WouldDuplicate` rejections). Both stay empty unless
        // [`SchedConfig::duplication`] is on.
        let mut dup_joins: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
        let mut dup_rejected: Vec<BlockId> = Vec::new();
        if config.level == SchedLevel::Speculative {
            // Probability that the child of a CD edge executes, from the
            // branch profile when one is supplied (§1's profile-guided
            // speculation); 1.0 when unknown.
            let prob_of = |parent: NodeId, label: gis_cfg::EdgeLabel| -> f64 {
                let Some(profile) = &config.profile else {
                    return 1.0;
                };
                let RegionNode::Block(pb) = g.node(parent) else {
                    return 1.0;
                };
                let Some(last) = f.block(pb).last() else {
                    return 1.0;
                };
                match (profile.taken_probability(last.id), label) {
                    (Some(p), gis_cfg::EdgeLabel::Taken) => p,
                    (Some(p), gis_cfg::EdgeLabel::NotTaken) => 1.0 - p,
                    _ => 1.0,
                }
            };
            let classify = |n: NodeId, prob: f64, spec: &Vec<(NodeId, f64)>| -> SpecClass {
                let structural = cspdg.is_block(n)
                    && n != node_a
                    && !useful_blocks.contains(&n)
                    && !spec.iter().any(|&(b, _)| b == n)
                    // No duplication (Definition 6): A must dominate B.
                    && cspdg.dom().strictly_dominates(node_a, n);
                if !structural {
                    SpecClass::Ineligible
                } else if prob < config.min_speculation_probability {
                    SpecClass::ProbGate
                } else {
                    SpecClass::Eligible
                }
            };
            // Breadth-first over CSPDG children: depth 1 reproduces the
            // paper's prototype; larger `max_speculation_branches` crosses
            // more branches, with path probabilities multiplying.
            let mut frontier: Vec<(NodeId, f64)> = std::iter::once((node_a, 1.0))
                .chain(equiv.iter().map(|&e| (e, 1.0)))
                .collect();
            for _ in 0..config.max_speculation_branches {
                let mut next = Vec::new();
                for &(n, p) in &frontier {
                    for &(c, l) in cspdg.cd_children(n) {
                        let prob = p * prob_of(n, l);
                        match classify(c, prob, &spec_blocks) {
                            SpecClass::Eligible => {
                                spec_blocks.push((c, prob));
                                next.push((c, prob));
                            }
                            SpecClass::ProbGate => {
                                if enabled {
                                    if let RegionNode::Block(cb) = g.node(c) {
                                        self.obs.event(TraceEvent::SpecBlockRejected {
                                            target: f.block(a).label().to_owned(),
                                            block: f.block(cb).label().to_owned(),
                                            prob,
                                            reason: RejectReason::ProbabilityGate,
                                        });
                                    }
                                }
                            }
                            SpecClass::Ineligible => {}
                        }
                    }
                }
                if next.is_empty() {
                    break;
                }
                frontier = next;
            }
            // Purely for the trace: blocks one branch past the speculation
            // bound that would otherwise have been candidates.
            if enabled {
                for &(n, p) in &frontier {
                    for &(c, l) in cspdg.cd_children(n) {
                        let prob = p * prob_of(n, l);
                        if classify(c, prob, &spec_blocks) == SpecClass::Eligible {
                            if let RegionNode::Block(cb) = g.node(c) {
                                self.obs.event(TraceEvent::SpecBlockRejected {
                                    target: f.block(a).label().to_owned(),
                                    block: f.block(cb).label().to_owned(),
                                    prob,
                                    reason: RejectReason::SpeculationDepth,
                                });
                            }
                        }
                    }
                }
            }
            // ---- Duplication-based motion (beyond the paper; §7's
            // "more aggressive" direction). A region-graph successor of
            // `A` that is a join — several predecessors, so `A` cannot
            // dominate it — is beyond both Definition 6 (useful motion
            // would duplicate) and Definition 7 (speculation requires
            // dominance). With the gate on, such a join still becomes a
            // candidate block when every predecessor's only successor is
            // the join itself: the instruction is then *copied* to the
            // end of each sibling predecessor while the original moves
            // into `A`, so each path into the join executes it exactly
            // once — the motion preserves execution counts rather than
            // gambling on a branch. `A` must additionally be the
            // topologically last predecessor, so every sibling's
            // schedule is already final when the copies are minted.
            if config.duplication {
                let topo = g.topo_order();
                let topo_pos = |n: NodeId| topo.iter().position(|&x| x == n).unwrap_or(usize::MAX);
                for &(s, _) in g.succs(node_a) {
                    // Supernode successors are loops: never duplicate
                    // into a loop body.
                    let RegionNode::Block(sb) = g.node(s) else {
                        continue;
                    };
                    if s == node_a
                        || useful_blocks.contains(&s)
                        || spec_blocks.iter().any(|&(b, _)| b == s)
                        || dup_joins.iter().any(|(b, _)| *b == sb)
                        || dup_rejected.contains(&sb)
                    {
                        continue; // reachable by single-target motion, or seen
                    }
                    let mut preds: Vec<NodeId> = Vec::new();
                    for &(p, _) in g.preds(s) {
                        if !preds.contains(&p) {
                            preds.push(p);
                        }
                    }
                    if preds.len() < 2 {
                        continue; // not a join: Definitions 6/7 cover it
                    }
                    let safe = match gis_pdg::duplication_pred_set(self.global.cfg, g, s) {
                        Some(set) => Some(set),
                        // Planted-miscompile hook for the gis-check
                        // self-test: pretend the fall-through guard
                        // passed, so copies land above conditional
                        // branches and run on paths that bypass the join
                        // (see Fault::SkipDupPredCheck).
                        None if self.global.hooks.fault == Some(Fault::SkipDupPredCheck)
                            && preds
                                .iter()
                                .all(|&p| matches!(g.node(p), RegionNode::Block(_))) =>
                        {
                            Some(preds.clone())
                        }
                        None => None,
                    };
                    match safe {
                        Some(set) => {
                            // Only the last predecessor duplicates; the
                            // earlier siblings stay silent — the motion
                            // is deferred to this pass's last visitor,
                            // not rejected.
                            let a_pos = topo_pos(node_a);
                            if set.iter().all(|&p| p == node_a || topo_pos(p) < a_pos) {
                                let mut sibs: Vec<BlockId> = set
                                    .iter()
                                    .filter(|&&p| p != node_a)
                                    .filter_map(|&p| match g.node(p) {
                                        RegionNode::Block(b) => Some(b),
                                        _ => None,
                                    })
                                    .collect();
                                sibs.sort();
                                dup_joins.push((sb, sibs));
                            }
                        }
                        None => dup_rejected.push(sb),
                    }
                }
            }
        }
        useful_blocks.insert(0, node_a);
        if enabled {
            let label = |n: &NodeId| match g.node(*n) {
                RegionNode::Block(b) => Some(f.block(b).label().to_owned()),
                _ => None,
            };
            self.obs.event(TraceEvent::CandidateBlocks {
                target: f.block(a).label().to_owned(),
                equivalent: equiv.iter().filter_map(&label).collect(),
                speculative: spec_blocks
                    .iter()
                    .filter_map(|(n, p)| label(n).map(|l| (l, *p)))
                    .collect(),
            });
        }

        // ---- Candidate instructions. ----------------------------------
        if self.scratch.used {
            self.stats.scratch_reuses += 1;
        }
        self.scratch.used = true;
        self.scratch.reset();
        let deps = self.deps;
        let mut list = std::mem::take(&mut self.scratch.list);
        list.begin(deps);
        let mut a_remaining = 0usize;
        let mut a_branch: Option<usize> = None;
        for inst in f.block(a).insts() {
            let slot = self.add_candidate(
                f,
                &mut list,
                Candidate {
                    id: inst.id,
                    home: a,
                    useful: true,
                    prob: 1.0,
                    dup: false,
                },
                inst.op.class(),
            );
            if inst.op.is_branch() {
                a_branch = Some(slot);
            }
            a_remaining += 1;
        }
        for &n in useful_blocks.iter().skip(1) {
            let RegionNode::Block(b) = g.node(n) else {
                continue;
            };
            for inst in f.block(b).insts() {
                if inst.op.may_cross_block() {
                    self.add_candidate(
                        f,
                        &mut list,
                        Candidate {
                            id: inst.id,
                            home: b,
                            useful: true,
                            prob: 1.0,
                            dup: false,
                        },
                        inst.op.class(),
                    );
                }
            }
        }
        for &(n, prob) in &spec_blocks {
            if let RegionNode::Block(b) = g.node(n) {
                self.offer(f, &mut list, a, b, Offer::Candidates { prob, dup: false });
            }
        }
        // Instructions of eligible duplication joins: the speculation
        // operand gates apply (no side effects cross a block boundary,
        // loads obey the config), but not the §5.3 register gate.
        for &(b, _) in &dup_joins {
            let offer = Offer::Candidates {
                prob: 1.0,
                dup: true,
            };
            self.offer(f, &mut list, a, b, offer);
        }
        // Joins whose shape fails the duplication guards (a predecessor
        // branches around the join, or the join heads a loop): their
        // movable instructions are reported as needing duplication.
        for &b in &dup_rejected {
            self.offer(f, &mut list, a, b, Offer::WouldDuplicate);
        }

        // Classify every predecessor once, with `ready`'s precedence:
        // placed in an earlier block of this region (the paper's
        // per-block restart; interlocks cover residual delays), then a
        // candidate to wait for, then — outside the candidate set —
        // blocked when it could still execute between A and the
        // candidate's home block. Nothing outside the set moves during a
        // block pass, so the last test holds for the whole pass.
        let (placed, reach_a, inst_node) =
            (&self.placed, &self.reach[node_a.index()], &self.inst_node);
        list.link(deps, |from, in_set| {
            if placed.contains(from.index()) {
                Pred::Satisfied
            } else if in_set {
                Pred::Waiting
            } else if reach_a.contains(inst_node[from.index()] as usize) {
                Pred::Blocks
            } else {
                Pred::Satisfied
            }
        });

        // ---- Cycle-by-cycle list scheduling. --------------------------
        let width = self.global.machine.dispatch_width();
        list.run(
            deps,
            width,
            &mut BlockPass {
                pass: self,
                f,
                a,
                node_a,
                dup_joins: &dup_joins,
                a_branch,
                a_remaining,
                enabled,
            },
        );
        self.scratch.list = list;

        // ---- Apply A's final order. ------------------------------------
        debug_assert_eq!(
            f.block(a).len(),
            self.scratch.new_order.len(),
            "every instruction of A was scheduled"
        );
        for (i, id) in self.scratch.new_order.iter().enumerate() {
            self.scratch.rank[id.index()] = i as u32;
        }
        let rank = &self.scratch.rank;
        f.block_mut(a).sort_by_key(|inst| rank[inst.id.index()]);
    }

    /// Adds a candidate to the block pass: its `D`/`CP` (computed for
    /// its home block when the block's first candidate arrives — each
    /// block's candidates are collected together), its membership, and
    /// its list slot. Returns the slot.
    fn add_candidate(
        &mut self,
        f: &Function,
        list: &mut ListScheduler<PriorityKey>,
        c: Candidate,
        class: OpClass,
    ) -> usize {
        if self
            .scratch
            .cands
            .last()
            .is_none_or(|last| last.home != c.home)
        {
            self.heur
                .compute_block(f, self.global.machine, self.deps, c.home);
        }
        self.scratch.cands.push(c);
        self.scratch.in_s.insert(c.id.index());
        list.push(
            self.deps,
            c.id,
            self.key(&c),
            self.global.machine.unit_of(class),
            self.global.machine.exec_time(class),
        )
    }

    /// Offers block `b`'s instructions to `A` beyond useful motion. An
    /// instruction is movable when it may cross a branch at all (no side
    /// effects) and is not a load with load speculation off. Movable
    /// instructions become non-useful candidates, or `WouldDuplicate`
    /// rejections for a join that fails the duplication guards; under
    /// [`Offer::Candidates`] the others, branches aside, are reported as
    /// rejected candidates.
    fn offer(
        &mut self,
        f: &Function,
        list: &mut ListScheduler<PriorityKey>,
        a: BlockId,
        b: BlockId,
        offer: Offer,
    ) {
        for inst in f.block(b).insts() {
            let (op, class) = (&inst.op, inst.op.class());
            let movable = op.may_speculate()
                && (self.global.config.speculative_loads || class != OpClass::Load);
            let reason = match offer {
                Offer::Candidates { prob, dup } if movable => {
                    let c = Candidate {
                        id: inst.id,
                        home: b,
                        useful: false,
                        prob,
                        dup,
                    };
                    self.add_candidate(f, list, c, class);
                    continue;
                }
                Offer::Candidates { .. } if op.is_branch() => continue,
                Offer::Candidates { .. } if op.may_speculate() => {
                    RejectReason::LoadSpeculationDisabled
                }
                Offer::Candidates { .. } => RejectReason::MayNotSpeculate,
                Offer::WouldDuplicate if movable => {
                    self.stats.rejected_would_duplicate += 1;
                    RejectReason::WouldDuplicate
                }
                Offer::WouldDuplicate => continue,
            };
            if self.obs.enabled() {
                self.obs.event(TraceEvent::CandidateRejected {
                    inst: inst.id.index() as u32,
                    home: f.block(b).label().to_owned(),
                    target: f.block(a).label().to_owned(),
                    reason,
                });
            }
        }
    }

    /// `c`'s §5.2 priority key, from the `D`/`CP` of its home block.
    fn key(&self, c: &Candidate) -> PriorityKey {
        let p = self.deps.position(c.id).expect("candidate in scope");
        (
            c.useful,
            (c.prob * 1000.0) as u32, // likelier gambles first
            self.heur.d(p),
            self.heur.cp(p),
            std::cmp::Reverse(p),
        )
    }

    /// The pick as it was made before the ready list: a rescan of every
    /// candidate through [`Self::ready`], kept as the oracle every
    /// ready-list pick is checked against under the armed checks. Returns
    /// the winner with its key, and the runner-up's key.
    fn rescan_pick(
        &self,
        f: &Function,
        node_a: NodeId,
        a_branch: Option<InstId>,
        a_remaining: usize,
        t: u64,
        units: &UnitPool,
    ) -> (Option<(InstId, PriorityKey)>, Option<PriorityKey>) {
        let mut best: Option<(InstId, PriorityKey)> = None;
        let mut second: Option<PriorityKey> = None;
        for c in &self.scratch.cands {
            if self.scratch.place_time[c.id.index()] != UNPLACED
                || self.scratch.rejected.contains(c.id.index())
            {
                continue;
            }
            if Some(c.id) == a_branch && a_remaining > 1 {
                continue;
            }
            if !self.ready(node_a, c.id, t) {
                continue;
            }
            let pos = f.block(c.home).position(c.id).expect("candidate exists");
            let op = &f.block(c.home).inst_at(pos).op;
            let kind = self.global.machine.unit_of(op.class());
            if !units.free(kind.index(), t) {
                continue;
            }
            let key = self.key(c);
            if best.is_none_or(|(_, bk)| key > bk) {
                second = best.map(|(_, bk)| bk);
                best = Some((c.id, key));
            } else if second.is_none_or(|sk| key > sk) {
                second = Some(key);
            }
        }
        (best, second)
    }

    /// Whether all data dependences into `id` are fulfilled at cycle `t`.
    fn ready(&self, node_a: NodeId, id: InstId, t: u64) -> bool {
        for e in self.deps.preds(id) {
            let tp = self.scratch.place_time[e.from.index()];
            if tp != UNPLACED {
                // Placed in this very block pass: timing applies.
                if tp + e.sep() as u64 > t {
                    return false;
                }
            } else if self.placed.contains(e.from.index()) {
                // Placed in an earlier block of this region: the paper's
                // per-block restart; interlocks cover residual delays.
            } else if self.scratch.in_s.contains(e.from.index()) {
                return false; // will be scheduled in this pass, wait for it
            } else {
                // Outside the candidate set: blocked when it could still
                // execute between A and the candidate's home block.
                let pn = self.inst_node[e.from.index()];
                if self.reach[node_a.index()].contains(pn as usize) {
                    return false;
                }
            }
        }
        true
    }

    /// CSE-style cleanup of redundant duplication copies, applied when a
    /// candidate is about to move into `a`: if an instruction sharing the
    /// candidate's duplication origin — its sibling copy, or the original
    /// itself — is already placed in `a` with an identical op, the
    /// candidate is deleted instead of moved and aliases the placed
    /// instruction's cycle. Sound because both read the same operand
    /// definitions: any definition this pass placed into `a` must sit
    /// before the placed twin (checked here), and any definition left
    /// unplaced is upstream of `a` — the dependence test never releases a
    /// candidate whose producer could still run between `a` and its home.
    fn try_fold_duplicate(&mut self, f: &mut Function, a: BlockId, cand: &Candidate) -> bool {
        let root = f.dup_root(cand.id);
        if root == cand.id && f.dup_origins().all(|(_, r)| r != root) {
            return false; // not part of any duplication family
        }
        let Some(jpos) = self
            .scratch
            .new_order
            .iter()
            .position(|&j| j != cand.id && f.dup_root(j) == root)
        else {
            return false;
        };
        let j = self.scratch.new_order[jpos];
        let cpos = f.block(cand.home).position(cand.id).expect("exists");
        let Some(japos) = f.block(a).position(j) else {
            return false; // twin not (or no longer) in a
        };
        if f.block(a).inst_at(japos).op != f.block(cand.home).inst_at(cpos).op {
            return false; // diverged (e.g. a speculative rename): keep both
        }
        for e in self.deps.preds(cand.id) {
            if self.scratch.place_time[e.from.index()] == UNPLACED {
                continue; // upstream of a on every path: same value
            }
            match self.scratch.new_order.iter().position(|&x| x == e.from) {
                Some(p) if p < jpos => {}
                _ => return false, // placed after the twin: values differ
            }
        }
        f.block_mut(cand.home).remove(cand.id);
        self.scratch.place_time[cand.id.index()] = self.scratch.place_time[j.index()];
        self.placed.insert(cand.id.index());
        self.stats.dup_copies_deduped += 1;
        self.check_boundary(f, || format!("after folding {} into {a}", cand.id));
        true
    }

    /// The differential behind the region-boundary invariant (stated in
    /// `gis_pdg`'s liveness module), at the region's start and after every
    /// commit under the armed checks: a fresh reference solve of the
    /// current function must agree with the pass solve on the live-ins of
    /// every exit successor, on every register the region names. That
    /// solve then checks every query until the next commit. Skipped under
    /// a planted [`Fault`], whose motions are illegal by design: the
    /// invariant does not hold for them, and the fault must surface as a
    /// wrong schedule for the differential fuzzer, not as an assertion.
    fn check_boundary(&mut self, f: &Function, when: impl FnOnce() -> String) {
        let (cfg, scope) = (self.global.cfg, &self.scope);
        if !self.global.hooks.armed() || self.global.hooks.fault.is_some() {
            return;
        }
        let fresh = Liveness::compute_reference(f, cfg);
        let mut named: Vec<Reg> = scope
            .iter()
            .flat_map(|&b| f.block(b).insts())
            .flat_map(|i| i.op.uses().into_iter().chain(i.op.defs()))
            .collect();
        named.sort();
        named.dedup();
        let exits = scope.iter().flat_map(|&b| cfg.block_succs(b));
        for s in exits.filter(|s| scope.binary_search(s).is_err()) {
            for &r in &named {
                assert_eq!(
                    self.global.live.live_in_contains(s, r),
                    fresh.live_in_contains(s, r),
                    "live-in of exit {s} on {r} went stale {}",
                    when()
                );
            }
        }
        self.reference = Some(fresh);
    }

    /// Whether `r` is live on exit from scope block `b` in `f`'s current
    /// code: §5.3's one question, asked of the target block (would a
    /// speculated definition clobber a live value?) and of the home block
    /// (does a renamable du-chain end there?). The walk
    /// ([`Liveness::walk_live_out`]) answers, checked against the kept
    /// reference solve when [`Self::check_boundary`] made one.
    fn live_out(&mut self, f: &Function, b: BlockId, r: Reg) -> bool {
        let cfg = self.global.cfg;
        self.stats.liveness_incremental += 1;
        let live = self.global.live.walk_live_out(f, cfg, &self.scope, b, r);
        if let Some(reference) = &self.reference {
            let want = reference.live_out_contains(cfg, b, r);
            assert_eq!(
                live, want,
                "live-out of {b} on {r} diverged from a full solve"
            );
        }
        live
    }

    /// §5.3 gate for a speculative candidate, with the renaming escape.
    fn speculation_allowed(&mut self, f: &mut Function, a: BlockId, cand: &Candidate) -> bool {
        let bid = cand.home;
        let pos = f.block(bid).position(cand.id).expect("exists");
        let op = &f.block(bid).inst_at(pos).op;
        let clobbered: Vec<Reg> = op
            .defs()
            .into_iter()
            .filter(|&r| self.live_out(f, a, r))
            .collect();
        if clobbered.is_empty() {
            return true;
        }
        // Planted-miscompile hook for the gis-check self-test: pretend the
        // live-on-exit guard passed, letting the speculated definition
        // clobber a live register (see Fault::SkipLiveOnExit).
        if self.global.hooks.fault == Some(Fault::SkipLiveOnExit) {
            return true;
        }
        if !self.global.config.speculative_renaming || op.has_tied_base() {
            self.stats.rejected_live_out += 1;
            return false;
        }
        // Rename each clobbered definition when its du-chain is local to
        // the home block: the uses between the definition and the next
        // redefinition (or block end, provided the register is dead on
        // exit from the home block) see exactly this definition.
        for r in &clobbered {
            if !self.chain_is_local(f, bid, pos, *r) {
                self.stats.rejected_live_out += 1;
                return false;
            }
        }
        for r in clobbered {
            let fresh = f.fresh_reg(r.class());
            let mut block = f.block_mut(bid);
            let len = block.len();
            for p in pos..len {
                let op = &mut block.inst_mut(p).op;
                if p > pos {
                    op.map_uses(|x| if x == r { fresh } else { x });
                    if op.defs().contains(&r) {
                        break;
                    }
                } else {
                    op.map_defs(|x| if x == r { fresh } else { x });
                }
            }
            self.stats.renamed_speculative += 1;
            if self.obs.enabled() {
                self.obs.event(TraceEvent::Renamed {
                    inst: cand.id.index() as u32,
                    home: f.block(bid).label().to_owned(),
                    old: r.to_string(),
                    new: fresh.to_string(),
                });
            }
        }
        true
    }

    /// Whether the du-chain of the definition of `r` at `(bid, pos)` is
    /// contained in `bid` (see [`RegionPass::speculation_allowed`]).
    fn chain_is_local(&mut self, f: &Function, bid: BlockId, pos: usize, r: Reg) -> bool {
        for inst in f.block(bid).insts().skip(pos + 1) {
            // An update-form base both uses and defines `r` in one field;
            // the chain cannot be renamed apart from its successor.
            if inst.op.has_tied_base() && inst.op.uses().contains(&r) {
                return false;
            }
            if inst.op.defs().contains(&r) {
                return true; // redefined before block end: chain is local
            }
        }
        !self.live_out(f, bid, r)
    }
}
