//! One region's scheduling outcome, and the one way it reaches a function.
//!
//! §4.1 confines every motion to the region being scheduled, and
//! candidates only ever live in the region's *direct* blocks — enclosed
//! child regions are frozen supernodes. So §5.3 renames only rewrite,
//! and duplication only inserts copies into or folds them out of, the
//! direct blocks, and scheduling a region yields a self-contained
//! [`RegionOutcome`]:
//!
//! * each direct block's final `(InstId, Op)` list;
//! * how many registers (per class) and instruction ids the run drew,
//!   relative to the allocator counters it started from;
//! * the root original of every copy duplication minted;
//! * the statistics delta and, when recorded traced, the trace events.
//!
//! [`RegionOutcome::apply`] replays it onto any function whose region
//! holds the instructions the run started from. It draws the same counts
//! from that function's allocators; relinks, reorders, inserts and
//! removes instructions; renumbers the drawn registers and ids in
//! operations, origins and event spellings; and reports the statistics
//! and events. Two callers apply outcomes this way, both in region
//! order: a region memo hit, and the `--jobs` merge, which replays the
//! outcomes its tasks recorded on their snapshots onto the master.

use crate::parallel::GlobalPass;
use crate::stats::SchedStats;
use gis_cfg::RegionId;
use gis_ir::{BlockId, Function, Inst, InstId, Op, Reg, RegClass};
use gis_trace::{NopObserver, Recorder, SchedObserver, TraceEvent};

/// What scheduling one region did (see the module docs).
pub(crate) struct RegionOutcome {
    /// Final content of the region's direct blocks; empty when the
    /// region was skipped.
    blocks: Vec<(BlockId, Vec<(InstId, Op)>)>,
    /// Register counters when the run started, per class slot.
    reg_base: [u32; 3],
    /// Registers the run drew, per class slot.
    regs: [u32; 3],
    /// The instruction-id counter when the run started.
    inst_base: u32,
    /// The root original of each id the run minted, in minting order.
    roots: Vec<InstId>,
    stats: SchedStats,
    events: Vec<TraceEvent>,
}

impl RegionOutcome {
    /// Schedules region `rid` of `f` and records what that did, leaving
    /// `f` scheduled. Events are recorded only when `tracing`.
    pub(crate) fn record(
        pass: &GlobalPass,
        f: &mut Function,
        rid: RegionId,
        tracing: bool,
    ) -> Self {
        let reg_base = f.reg_counters();
        let inst_base = f.inst_id_bound() as u32;
        let mut stats = SchedStats::default();
        let (scheduled, events) = if tracing {
            let mut rec = Recorder::new();
            (
                pass.schedule(f, rid, &mut stats, &mut rec),
                rec.into_events(),
            )
        } else {
            (
                pass.schedule(f, rid, &mut stats, &mut NopObserver),
                Vec::new(),
            )
        };
        let blocks = if scheduled {
            let content = |b: BlockId| f.block(b).insts().map(|i| (i.id, i.op.clone())).collect();
            let direct = &pass.tree.region(rid).blocks;
            direct.iter().map(|&b| (b, content(b))).collect()
        } else {
            Vec::new()
        };
        let reg_now = f.reg_counters();
        let roots = (inst_base..f.inst_id_bound() as u32)
            .map(|i| {
                let copy = InstId::new(i);
                f.dup_origin(copy)
                    .expect("every id a region mints is a duplication copy")
            })
            .collect();
        RegionOutcome {
            blocks,
            reg_base,
            regs: std::array::from_fn(|s| reg_now[s] - reg_base[s]),
            inst_base,
            roots,
            stats,
            events,
        }
    }

    /// How many direct blocks the outcome rewrites.
    pub(crate) fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Reports the recorded statistics and events as they are: the
    /// caller is the run that recorded them.
    pub(crate) fn report<O: SchedObserver>(&self, stats: &mut SchedStats, obs: &mut O) {
        stats.absorb(self.stats);
        if obs.enabled() {
            self.events.iter().for_each(|e| obs.event(e.clone()));
        }
    }

    /// Replays the outcome onto region `rid` of `f`, which must hold the
    /// instructions the recorded run started from, and reports its
    /// statistics and events. The cost grows with the region (at most the
    /// §6 size limit), never with the function.
    pub(crate) fn apply<O: SchedObserver>(
        &self,
        f: &mut Function,
        rid: RegionId,
        stats: &mut SchedStats,
        obs: &mut O,
    ) {
        let n = Renumber::draw(self, f);
        // Where each instruction of the direct blocks sits now, sorted by
        // id. Placing one takes its entry, so the entries left over were
        // folded away by the dedup.
        let mut at: Vec<(InstId, Option<BlockId>)> = Vec::new();
        for &(b, _) in &self.blocks {
            at.extend(f.block(b).insts().map(|i| (i.id, Some(b))));
        }
        at.sort_unstable();
        for (b, insts) in &self.blocks {
            for (id, op) in insts {
                if n.minted(*id) {
                    f.block_mut(*b).push(Inst::new(n.inst(*id), n.op(op)));
                    continue;
                }
                let k = at
                    .binary_search_by_key(id, |&(i, _)| i)
                    .expect("the region holds the recorded instructions");
                let from = at[k].1.take().expect("recorded once");
                if from != *b {
                    let end = f.block(*b).len();
                    f.relink_inst(*id, from, *b, end);
                }
            }
        }
        for (id, b) in at {
            if let Some(b) = b {
                f.block_mut(b).remove(id);
            }
        }
        for (b, insts) in &self.blocks {
            let order = insts.iter().map(|&(id, _)| n.inst(id));
            if !f.block(*b).insts().map(|i| i.id).eq(order.clone()) {
                f.block_mut(*b).set_order(&order.collect::<Vec<_>>());
            }
            if n.renames() {
                for (pos, (_, op)) in insts.iter().enumerate() {
                    let op = n.op(op);
                    if f.block(*b).inst_at(pos).op != op {
                        f.block_mut(*b).inst_mut(pos).op = op;
                    }
                }
            }
        }
        for (i, &root) in self.roots.iter().enumerate() {
            f.record_dup_origin(InstId::new(n.inst_to + i as u32), n.inst(root));
        }
        stats.absorb(self.stats);
        if obs.enabled() {
            for e in &self.events {
                obs.event(n.event(e.clone(), rid));
            }
        }
    }
}

/// The recorded run's allocator draws mapped onto the applying
/// function's: registers and ids in the recorded ranges shift to the
/// ranges just drawn, everything else stays.
struct Renumber {
    reg_from: [u32; 3],
    reg_to: [u32; 3],
    regs: [u32; 3],
    inst_from: u32,
    inst_to: u32,
    insts: u32,
}

impl Renumber {
    /// Draws the outcome's counts from `f`'s allocators.
    fn draw(out: &RegionOutcome, f: &mut Function) -> Self {
        let reg_to = f.reg_counters();
        for class in RegClass::ALL {
            for _ in 0..out.regs[class.slot()] {
                f.fresh_reg(class);
            }
        }
        let inst_to = f.inst_id_bound() as u32;
        for _ in &out.roots {
            f.fresh_inst_id();
        }
        Renumber {
            reg_from: out.reg_base,
            reg_to,
            regs: out.regs,
            inst_from: out.inst_base,
            inst_to,
            insts: out.roots.len() as u32,
        }
    }

    fn renames(&self) -> bool {
        self.regs != [0; 3]
    }

    fn reg(&self, r: Reg) -> Reg {
        let s = r.class().slot();
        let k = r.index().wrapping_sub(self.reg_from[s]);
        if k < self.regs[s] {
            Reg::new(r.class(), self.reg_to[s] + k)
        } else {
            r
        }
    }

    fn minted(&self, id: InstId) -> bool {
        (id.index() as u32).wrapping_sub(self.inst_from) < self.insts
    }

    fn inst(&self, id: InstId) -> InstId {
        if self.minted(id) {
            InstId::new(id.index() as u32 - self.inst_from + self.inst_to)
        } else {
            id
        }
    }

    fn op(&self, op: &Op) -> Op {
        let mut op = op.clone();
        op.map_defs(|r| self.reg(r));
        op.map_uses(|r| self.reg(r));
        op
    }

    /// Rewrites the spelling of a register the recorded run drew.
    fn respell(&self, spelling: &mut String) {
        for class in RegClass::ALL {
            let s = class.slot();
            for k in 0..self.regs[s] {
                if *spelling == Reg::new(class, self.reg_from[s] + k).to_string() {
                    *spelling = Reg::new(class, self.reg_to[s] + k).to_string();
                    return;
                }
            }
        }
    }

    /// One recorded event as the applying run would have emitted it. The
    /// region events name the applying region: a memoized outcome may
    /// have been recorded for another region (the memo key holds none).
    fn event(&self, mut e: TraceEvent, rid: RegionId) -> TraceEvent {
        match &mut e {
            TraceEvent::RegionBegin { region, .. } | TraceEvent::RegionSkipped { region, .. } => {
                *region = rid.index() as u32;
            }
            TraceEvent::Renamed { new, .. } => self.respell(new),
            TraceEvent::Duplicated { copies, .. } => {
                for (_, id) in copies {
                    *id = self.inst(InstId::new(*id)).index() as u32;
                }
            }
            _ => {}
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SchedConfig, SchedLevel, TestHooks};
    use gis_cfg::{Cfg, DomTree, LoopForest, RegionTree};
    use gis_machine::MachineDescription;
    use gis_pdg::Liveness;

    /// Applied onto a function whose allocator has moved on, an outcome
    /// draws its registers there and respells them in operations and
    /// events, and its region events name the region it is applied as
    /// (a memo hit may replay another region's outcome). Figure 2 renames
    /// one condition register during speculative scheduling.
    #[test]
    fn apply_renumbers_draws_and_names_the_applying_region() {
        let machine = MachineDescription::rs6k();
        let config = SchedConfig::paper_example(SchedLevel::Speculative);
        let f0 = gis_workloads::minmax::figure2_function(99);
        let cfg = Cfg::new(&f0);
        let tree = RegionTree::new(&cfg, &LoopForest::new(&cfg, &DomTree::dominators(&cfg)));
        let pass = GlobalPass {
            machine: &machine,
            cfg: &cfg,
            tree: &tree,
            config: &config,
            hooks: &TestHooks::default(),
            live: Liveness::compute(&f0, &cfg),
        };
        let (mut f, mut g) = (f0.clone(), f0);
        g.fresh_reg(RegClass::Cr); // g's allocator runs one ahead
        let order = tree.schedule_order();
        let mut renamed = Vec::new();
        for (i, &rid) in order.iter().enumerate() {
            let out = RegionOutcome::record(&pass, &mut f, rid, true);
            let other = order[(i + 1) % order.len()];
            let (mut stats, mut rec) = (SchedStats::default(), Recorder::new());
            out.apply(&mut g, other, &mut stats, &mut rec);
            for e in rec.into_events() {
                match e {
                    TraceEvent::RegionBegin { region, .. } => {
                        assert_eq!(region as usize, other.index())
                    }
                    TraceEvent::Renamed { new, .. } => renamed.push(new),
                    _ => {}
                }
            }
        }
        let cr = f.reg_counters()[RegClass::Cr.slot()];
        let (drawn, respelled) = (Reg::cr(cr - 1).to_string(), Reg::cr(cr).to_string());
        assert_eq!(renamed, vec![respelled.clone()], "the rename is respelled");
        assert_eq!(g.reg_counters()[RegClass::Cr.slot()], cr + 1);
        assert_eq!(g.to_string(), f.to_string().replace(&drawn, &respelled));
    }
}
