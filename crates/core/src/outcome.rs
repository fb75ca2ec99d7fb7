//! One region's scheduling outcome, and the one way it reaches a function.
//!
//! §4.1 confines every motion to the region being scheduled, and
//! candidates only ever live in the region's *direct* blocks — enclosed
//! child regions are frozen supernodes. So §5.3 renames only rewrite,
//! and duplication only inserts copies into or folds them out of, the
//! direct blocks, and scheduling a region yields a self-contained
//! [`RegionOutcome`]:
//!
//! * an exact-capacity copy ([`BlockSnapshot`]) of each direct block's
//!   instructions as the run left them;
//! * how many registers (per class) and instruction ids the run drew,
//!   relative to the allocator counters it started from;
//! * the root original of every copy duplication minted;
//! * the statistics delta and, when recorded traced, the trace events.
//!
//! [`RegionOutcome::apply`] installs the copies over the direct blocks
//! of a function whose region holds the content the run started from.
//! That is exact: the run wrote nothing else, and the direct blocks'
//! final content depends only on that starting content. Apply draws the
//! same counts from the function's allocators and, only when the draws
//! land on different numbers than the run's, renumbers the drawn
//! registers and minted ids in the installed blocks, origins and event
//! spellings. Two callers apply outcomes, both in region order: a region
//! memo hit, whose key pins every scope block's id, label, successors,
//! instruction ids and operations; and the `--jobs` merge, whose tasks
//! recorded their outcomes on worker snapshots that still held the
//! master's pre-pass content in each task's own (disjoint) unit.

use crate::global::Workspace;
use crate::parallel::GlobalPass;
use crate::stats::SchedStats;
use gis_cfg::RegionId;
use gis_ir::{BlockId, BlockSnapshot, Function, Inst, InstId, Reg, RegClass};
use gis_trace::{NopObserver, Recorder, SchedObserver, TraceEvent};

/// What scheduling one region did (see the module docs).
pub(crate) struct RegionOutcome {
    /// The instructions of the region's direct blocks as the run left
    /// them; empty when the region was skipped.
    blocks: Vec<(BlockId, BlockSnapshot)>,
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
    /// Schedules region `rid` of `f` in workspace `ws` and records what
    /// that did, leaving `f` scheduled. Events are recorded only when
    /// `tracing`.
    pub(crate) fn record(
        pass: &GlobalPass,
        f: &mut Function,
        rid: RegionId,
        tracing: bool,
        ws: &mut Workspace,
    ) -> Self {
        let reg_base = f.reg_counters();
        let inst_base = f.inst_id_bound() as u32;
        let mut stats = SchedStats::default();
        let (scheduled, events) = if tracing {
            let mut rec = Recorder::new();
            (
                pass.schedule(f, rid, ws, &mut stats, &mut rec),
                rec.into_events(),
            )
        } else {
            (
                pass.schedule(f, rid, ws, &mut stats, &mut NopObserver),
                Vec::new(),
            )
        };
        let blocks = if scheduled {
            let direct = &pass.tree.region(rid).blocks;
            direct.iter().map(|&b| (b, f.block_snapshot(b))).collect()
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

    /// Installs the outcome over region `rid` of `f`, which must hold the
    /// content the recorded run started from, and reports its statistics
    /// and events. The cost grows with the region (at most the §6 size
    /// limit), never with the function.
    pub(crate) fn apply<O: SchedObserver>(
        &self,
        f: &mut Function,
        rid: RegionId,
        stats: &mut SchedStats,
        obs: &mut O,
    ) {
        let n = Renumber::draw(self, f);
        for (b, block) in &self.blocks {
            f.install_block(*b, block);
            if n.shifts() {
                f.map_block_insts(*b, |inst| n.inst_in_place(inst));
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

    /// Whether some register or id the run drew lands on a different
    /// number here.
    fn shifts(&self) -> bool {
        (0..3).any(|s| self.regs[s] > 0 && self.reg_from[s] != self.reg_to[s])
            || (self.insts > 0 && self.inst_from != self.inst_to)
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

    fn inst(&self, id: InstId) -> InstId {
        let k = (id.index() as u32).wrapping_sub(self.inst_from);
        if k < self.insts {
            InstId::new(self.inst_to + k)
        } else {
            id
        }
    }

    /// Renumbers one installed instruction's id and registers.
    fn inst_in_place(&self, inst: &mut Inst) {
        inst.id = self.inst(inst.id);
        inst.op.map_defs(|r| self.reg(r));
        inst.op.map_uses(|r| self.reg(r));
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
    use crate::parallel::tests::pass;
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
        let hooks = TestHooks::default();
        let live = Liveness::compute(&f0, &cfg);
        let pass = pass(&f0, &machine, &cfg, &tree, &live, &config, &hooks);
        let mut ws = Workspace::new(&machine);
        let (mut f, mut g) = (f0.clone(), f0);
        g.fresh_reg(RegClass::Cr); // g's allocator runs one ahead
        let order = tree.schedule_order();
        let mut renamed = Vec::new();
        for (i, &rid) in order.iter().enumerate() {
            let out = RegionOutcome::record(&pass, &mut f, rid, true, &mut ws);
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

    /// The blocks an outcome installs are the blocks its run left,
    /// renumbered by how far the target's allocators run ahead, and no
    /// edit reaches a stored outcome: neither one to the recording
    /// function's blocks nor one to a target's installed blocks. One
    /// outcome renames (Figure 2, speculative), one mints duplication
    /// copies.
    #[test]
    fn applied_blocks_are_the_recorded_ones_renumbered() {
        let machine = MachineDescription::rs6k();
        let dup = SchedConfig {
            duplication: true,
            ..SchedConfig::speculative()
        };
        let cases = [
            (
                gis_workloads::minmax::figure2_function(99),
                SchedConfig::paper_example(SchedLevel::Speculative),
            ),
            (
                gis_ir::parse_function(crate::parallel::tests::TWO_DUP_LOOPS).expect("parses"),
                dup,
            ),
        ];
        let (mut renaming, mut minting) = (0, 0);
        for (f0, config) in cases {
            let cfg = Cfg::new(&f0);
            let tree = RegionTree::new(&cfg, &LoopForest::new(&cfg, &DomTree::dominators(&cfg)));
            let hooks = TestHooks::default();
            let live = Liveness::compute(&f0, &cfg);
            let pass = pass(&f0, &machine, &cfg, &tree, &live, &config, &hooks);
            let mut ws = Workspace::new(&machine);
            let mut f = f0;
            for rid in tree.schedule_order() {
                let start = f.snapshot();
                let mut recording = f.snapshot();
                let out = RegionOutcome::record(&pass, &mut recording, rid, false, &mut ws);
                f = recording.snapshot();
                if out.regs == [0; 3] && out.roots.is_empty() {
                    continue;
                }
                renaming += usize::from(out.regs != [0; 3]);
                minting += usize::from(!out.roots.is_empty());
                let direct = &tree.region(rid).blocks;
                let recorded: Vec<(String, Vec<Inst>)> = direct
                    .iter()
                    .map(|&b| {
                        let block = recording.block(b);
                        (block.label().to_owned(), block.insts().cloned().collect())
                    })
                    .collect();
                // Edit the recording function's region blocks (later
                // regions schedule on `f`, an unedited copy).
                for &b in direct {
                    recording.block_mut(b).truncate(0);
                }
                for ahead in [1, 3] {
                    // What the run drew lands `ahead` numbers higher.
                    let shift = |inst: &Inst| {
                        let mut inst = inst.clone();
                        if inst.id.index() as u32 >= out.inst_base {
                            inst.id = InstId::new(inst.id.index() as u32 + ahead);
                        }
                        let reg = |r: Reg| {
                            if r.index() >= out.reg_base[r.class().slot()] {
                                Reg::new(r.class(), r.index() + ahead)
                            } else {
                                r
                            }
                        };
                        inst.op.map_defs(reg);
                        inst.op.map_uses(reg);
                        inst
                    };
                    let target = || {
                        let mut g = start.snapshot();
                        for _ in 0..ahead {
                            for class in RegClass::ALL {
                                g.fresh_reg(class);
                            }
                            g.fresh_inst_id();
                        }
                        g
                    };
                    let mut g = target();
                    for _ in 0..2 {
                        let (mut stats, mut obs) = (SchedStats::default(), NopObserver);
                        out.apply(&mut g, rid, &mut stats, &mut obs);
                        for (&b, (label, insts)) in direct.iter().zip(&recorded) {
                            assert_eq!(g.block(b).label(), label);
                            let want: Vec<Inst> = insts.iter().map(shift).collect();
                            assert!(g.block(b).insts().eq(&want), "{label}, {ahead} ahead");
                        }
                        // Edit the installed blocks; the next apply goes
                        // to a fresh target.
                        for &b in direct {
                            g.map_block_insts(b, |i| i.op.map_uses(|r| Reg::new(r.class(), 0)));
                        }
                        g = target();
                    }
                }
            }
        }
        assert!(
            renaming > 0 && minting > 0,
            "{renaming} renaming, {minting} minting"
        );
    }
}
