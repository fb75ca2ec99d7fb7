//! The cycle-by-cycle list scheduler of §5.1–§5.2, shared by the global
//! pass and the final basic-block pass.
//!
//! A pass fills one slot per candidate instruction when it collects its
//! candidates: the candidate's priority key, its functional-unit kind and
//! execution time, how many of its dependence predecessors inside the
//! candidate set are still unplaced, the earliest cycle its placed
//! predecessors allow, and whether a predecessor outside the set blocks
//! it for the whole block pass. Placing a candidate, or folding it into
//! an already placed twin, releases its in-set successors through
//! [`DataDeps::succs`]; a candidate whose count reaches zero joins the
//! ready list, and a pick scans only that list. A block pass therefore
//! costs O(candidates + edges) to fill and release, plus one ready-list
//! scan per pick, instead of a rescan of every candidate's predecessors
//! per pick.
//!
//! The pick equals the rescan's because every key is unique: the global
//! key ends in the candidate's dependence scope position, the basic-block
//! key in its block position. The maximum over the ready list is then the
//! maximum over all candidates, whatever order either is scanned in, and
//! so is the runner-up key the trace attributes tie-breaks with.
//!
//! Pass-specific rules stay with the pass: its [`PassHooks`] says which
//! ready candidates it will consider (the global pass holds back the
//! target block's terminator), and commits each pick as an issue, a fold
//! or a rejection.

use gis_ir::InstId;
use gis_machine::{MachineDescription, UnitKind};
use gis_pdg::DataDeps;

/// Sentinel for "not a candidate" in the scope-position → slot table.
const NO_SLOT: u32 = u32::MAX;

/// Busy-until cycle of every functional unit of the machine.
#[derive(Debug, Clone, Default)]
pub(crate) struct UnitPool {
    busy: Vec<u64>,
    /// Unit kind `k` owns `busy[first[k]..first[k + 1]]`.
    first: Vec<u32>,
}

impl UnitPool {
    /// Every unit of `machine`, all free at cycle 0.
    pub(crate) fn new(machine: &MachineDescription) -> Self {
        let mut first = vec![0u32];
        for k in machine.unit_kinds() {
            first.push(first[first.len() - 1] + machine.unit_count(k));
        }
        UnitPool {
            busy: vec![0; first[first.len() - 1] as usize],
            first,
        }
    }

    fn units(&self, kind: usize) -> std::ops::Range<usize> {
        self.first[kind] as usize..self.first[kind + 1] as usize
    }

    /// Whether a unit of kind index `kind` is free at cycle `t`.
    pub(crate) fn free(&self, kind: usize, t: u64) -> bool {
        self.busy[self.units(kind)].iter().any(|&busy| busy <= t)
    }

    /// Occupies the first unit of `kind` free at `t` for `exec` cycles.
    fn take(&mut self, kind: usize, t: u64, exec: u64) {
        let range = self.units(kind);
        let unit = self.busy[range]
            .iter_mut()
            .find(|busy| **busy <= t)
            .expect("free unit checked at pick");
        *unit = t + exec;
    }

    fn reset(&mut self) {
        self.busy.fill(0);
    }
}

/// One candidate's scheduling state, filled when it is collected.
#[derive(Debug, Clone, Copy)]
struct Slot<K> {
    key: K,
    id: InstId,
    /// Dependence scope position (the [`ListScheduler::slot_of`] index).
    pos: u32,
    kind: u32,
    exec: u32,
    /// Predecessors inside the candidate set not yet placed.
    waiting: u32,
    /// Earliest cycle the placed predecessors allow.
    earliest: u64,
    /// A predecessor outside the set could still run first: never ready
    /// in this block pass.
    blocked: bool,
}

/// How a dependence predecessor constrains a candidate when the block
/// pass starts (see [`ListScheduler::link`]).
pub(crate) enum Pred {
    /// Already done: no constraint.
    Satisfied,
    /// A candidate of this pass: wait until it is placed, then for its
    /// separation. Only for predecessors inside the candidate set.
    Waiting,
    /// Outside the set and still able to run first: the candidate may
    /// not issue in this block pass.
    Blocks,
}

/// The ready list's choice at one cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pick<K> {
    /// The winner's slot, in the order candidates were pushed.
    pub slot: usize,
    pub id: InstId,
    pub key: K,
    /// The best key among the other candidates that could issue now.
    pub second: Option<K>,
    /// Index of the winner in the ready list.
    at: usize,
}

/// What a [`PassHooks`] made of a pick.
pub(crate) enum Commit {
    /// Issued at the current cycle: its unit is taken and its successors
    /// are released.
    Issue,
    /// Folded into a twin already placed at the given cycle: no unit is
    /// taken, and successors are released as if it issued then.
    Fold(u64),
    /// Refused for the rest of the block pass; its successors stay
    /// waiting.
    Reject,
}

/// The pass-specific side of a list-scheduling run.
pub(crate) trait PassHooks<K> {
    /// Whether the pass will consider the ready candidate in `slot` now.
    fn eligible(&self, _slot: usize) -> bool {
        true
    }
    /// Sees every pick, or its absence, before it is committed, with the
    /// unit pool it was made against (the oracle hook).
    fn check(&self, _t: u64, _units: &UnitPool, _pick: Option<&Pick<K>>) {}
    /// Commits a pick made at cycle `t`.
    fn commit(&mut self, pick: &Pick<K>, t: u64) -> Commit;
    /// Whether the block pass is complete.
    fn done(&self) -> bool;
}

/// A ready-list list scheduler over one candidate set at a time; reuse
/// it across block passes to keep its buffers.
#[derive(Debug, Clone)]
pub(crate) struct ListScheduler<K> {
    slots: Vec<Slot<K>>,
    /// Slots whose predecessors are all placed, not yet picked.
    ready: Vec<u32>,
    /// Dependence scope position → slot ([`NO_SLOT`] outside the
    /// candidate set); reset through `slots`, never swept.
    slot_of: Vec<u32>,
    units: UnitPool,
}

impl<K> Default for ListScheduler<K> {
    fn default() -> Self {
        ListScheduler {
            slots: Vec::new(),
            ready: Vec::new(),
            slot_of: Vec::new(),
            units: UnitPool::default(),
        }
    }
}

impl<K: Ord + Copy> ListScheduler<K> {
    /// An empty scheduler for `machine`'s units.
    pub(crate) fn new(machine: &MachineDescription) -> Self {
        ListScheduler {
            units: UnitPool::new(machine),
            ..ListScheduler::default()
        }
    }

    /// Starts a block pass over candidates drawn from `deps`'s scope:
    /// no slots, every unit free.
    pub(crate) fn begin(&mut self, deps: &DataDeps) {
        for s in &self.slots {
            self.slot_of[s.pos as usize] = NO_SLOT;
        }
        self.slots.clear();
        self.ready.clear();
        let n = deps.scope_order().len();
        if self.slot_of.len() < n {
            self.slot_of.resize(n, NO_SLOT);
        }
        self.units.reset();
    }

    /// Adds candidate `id` (which must be in `deps`'s scope) with its
    /// priority key, unit kind and execution time; returns its slot.
    pub(crate) fn push(
        &mut self,
        deps: &DataDeps,
        id: InstId,
        key: K,
        kind: UnitKind,
        exec: u32,
    ) -> usize {
        let pos = deps
            .position(id)
            .expect("candidate inside the dependence scope");
        let slot = self.slots.len();
        self.slot_of[pos] = slot as u32;
        self.slots.push(Slot {
            key,
            id,
            pos: pos as u32,
            kind: kind.index() as u32,
            exec,
            waiting: 0,
            earliest: 0,
            blocked: false,
        });
        slot
    }

    fn slot_of(&self, deps: &DataDeps, id: InstId) -> Option<usize> {
        let s = *self.slot_of.get(deps.position(id)?)?;
        (s != NO_SLOT).then_some(s as usize)
    }

    /// Once every candidate is pushed: classifies each candidate's
    /// predecessors with `classify(pred, in_set)` and seeds the ready
    /// list with the candidates nothing waits on or blocks.
    pub(crate) fn link(&mut self, deps: &DataDeps, mut classify: impl FnMut(InstId, bool) -> Pred) {
        for s in 0..self.slots.len() {
            let (mut waiting, mut blocked) = (0u32, false);
            for e in deps.preds(self.slots[s].id) {
                let in_set = self.slot_of(deps, e.from).is_some();
                match classify(e.from, in_set) {
                    Pred::Satisfied => {}
                    Pred::Waiting => waiting += 1,
                    Pred::Blocks => blocked = true,
                }
            }
            let slot = &mut self.slots[s];
            slot.waiting = waiting;
            slot.blocked = blocked;
            if waiting == 0 && !blocked {
                self.ready.push(s as u32);
            }
        }
    }

    /// The best ready candidate that can issue at `t`: its placed
    /// predecessors' separations have elapsed, a unit of its kind is
    /// free and `eligible` accepts it. Also reports the runner-up key.
    fn pick(&self, t: u64, eligible: impl Fn(usize) -> bool) -> Option<Pick<K>> {
        let mut best: Option<(usize, K)> = None;
        let mut second: Option<K> = None;
        for (at, &s) in self.ready.iter().enumerate() {
            let slot = &self.slots[s as usize];
            if slot.earliest > t || !self.units.free(slot.kind as usize, t) || !eligible(s as usize)
            {
                continue;
            }
            if best.is_none_or(|(_, bk)| slot.key > bk) {
                second = best.map(|(_, bk)| bk);
                best = Some((at, slot.key));
            } else if second.is_none_or(|sk| slot.key > sk) {
                second = Some(slot.key);
            }
        }
        best.map(|(at, key)| {
            let slot = self.ready[at] as usize;
            Pick {
                slot,
                id: self.slots[slot].id,
                key,
                second,
                at,
            }
        })
    }

    /// Takes `pick` off the ready list and, unless it was rejected,
    /// releases its successors as placed at cycle `at`.
    fn settle(&mut self, deps: &DataDeps, pick: &Pick<K>, at: Option<u64>) {
        self.ready.swap_remove(pick.at);
        let Some(at) = at else { return };
        for e in deps.succs(pick.id) {
            let Some(s) = self.slot_of(deps, e.to) else {
                continue;
            };
            let slot = &mut self.slots[s];
            slot.earliest = slot.earliest.max(at + u64::from(e.sep()));
            slot.waiting -= 1;
            if slot.waiting == 0 && !slot.blocked {
                self.ready.push(s as u32);
            }
        }
    }

    /// Runs the block pass: cycle by cycle, up to `width` issues per
    /// cycle, until `hooks` says the pass is done.
    pub(crate) fn run(&mut self, deps: &DataDeps, width: u32, hooks: &mut impl PassHooks<K>) {
        let mut t: u64 = 0;
        'cycles: while !hooks.done() {
            let mut issued = 0u32;
            loop {
                let pick = self.pick(t, |s| hooks.eligible(s));
                hooks.check(t, &self.units, pick.as_ref());
                let Some(pick) = pick else { break };
                match hooks.commit(&pick, t) {
                    Commit::Issue => {
                        let slot = self.slots[pick.slot];
                        self.units.take(slot.kind as usize, t, u64::from(slot.exec));
                        self.settle(deps, &pick, Some(t));
                        if hooks.done() {
                            break 'cycles;
                        }
                        issued += 1;
                        if issued >= width {
                            break;
                        }
                    }
                    Commit::Fold(at) => self.settle(deps, &pick, Some(at)),
                    Commit::Reject => self.settle(deps, &pick, None),
                }
            }
            t += 1;
        }
    }
}
