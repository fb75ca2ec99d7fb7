//! Functions: layout-ordered blocks that own their instructions, symbol
//! and id allocation.

use crate::block::{BlockData, BlockId, Inst, InstId};
use crate::op::Op;
use crate::reg::{Reg, RegClass};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifies a memory symbol (array / global) within a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymId(u32);

impl SymId {
    /// Creates a symbol id from a raw index.
    pub fn new(index: u32) -> Self {
        SymId(index)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SymId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym{}", self.0)
    }
}

/// A function: a name, a layout-ordered list of basic blocks (the entry is
/// the first block) that own their instructions, and the allocation state
/// for fresh instruction ids and symbolic registers.
///
/// Construct functions with [`FunctionBuilder`](crate::FunctionBuilder) or
/// [`parse_function`](crate::parse_function); transformation passes mutate
/// them in place and re-check [`Function::verify`].
///
/// Each block sits behind its own `Arc`, shared copy-on-write with
/// [`Function::snapshot`]s. Read a block through [`Function::block`] (a
/// [`BlockRef`] view), mutate it through [`Function::block_mut`] (a
/// [`BlockMut`]), and move instructions between blocks with
/// [`Function::relink_inst`].
#[derive(Debug, Clone)]
pub struct Function {
    name: String,
    blocks: Vec<Arc<BlockData>>,
    symbols: Vec<String>,
    next_inst: u32,
    next_reg: [u32; 3],
    /// Provenance of duplication-minted copies: copy id → root original
    /// id. Chains are flattened at insertion, so every value is a root.
    /// Excluded from the textual form and the canonical bytes — it is
    /// scheduling metadata, not program content; the structural verifier
    /// reads it to tell sibling copies from genuine duplicate-id bugs.
    dup_origins: std::collections::BTreeMap<InstId, InstId>,
}

/// A read-only view of one basic block.
///
/// ```
/// use gis_ir::parse_function;
///
/// let f = parse_function("func t\ne:\n LI r0=1\n AI r1=r0,2\n RET\n").unwrap();
/// for (bid, block) in f.blocks() {
///     for inst in block.insts() {
///         println!("{bid}: ({}) {}", inst.id, f.op_to_string(&inst.op));
///     }
/// }
/// assert_eq!(f.block(f.entry()).len(), 3);
/// ```
#[derive(Clone, Copy)]
pub struct BlockRef<'a> {
    data: &'a BlockData,
    id: BlockId,
}

impl<'a> BlockRef<'a> {
    /// The id of the viewed block.
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// The block's label (used by the printer and parser; unique within a
    /// function).
    pub fn label(&self) -> &'a str {
        &self.data.label
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.data.insts.len()
    }

    /// Whether the block holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.data.insts.is_empty()
    }

    /// The block's instructions in order.
    pub fn insts(&self) -> std::slice::Iter<'a, Inst> {
        self.data.insts.iter()
    }

    /// The instruction at list position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn inst_at(&self, pos: usize) -> &'a Inst {
        &self.data.insts[pos]
    }

    /// The final instruction, if any.
    pub fn last(&self) -> Option<&'a Inst> {
        self.data.insts.last()
    }

    /// Finds the position of an instruction by id.
    pub fn position(&self, id: InstId) -> Option<usize> {
        self.data.insts.iter().position(|i| i.id == id)
    }

    /// Whether control can fall through past the end of this block to the
    /// next block in layout order.
    pub fn falls_through(&self) -> bool {
        match self.last() {
            Some(inst) => !inst.op.is_block_end(),
            None => true,
        }
    }
}

/// A mutating view of one basic block (see [`Function::block_mut`]).
///
/// Every edit copies the block first when it is shared with a
/// [`Function::snapshot`], so mutating a block never disturbs a snapshot.
pub struct BlockMut<'a> {
    f: &'a mut Function,
    id: BlockId,
}

impl BlockMut<'_> {
    fn data(&mut self) -> &mut BlockData {
        Arc::make_mut(&mut self.f.blocks[self.id.index()])
    }

    fn insts(&self) -> &[Inst] {
        &self.f.blocks[self.id.index()].insts
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts().len()
    }

    /// Whether the block holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts().is_empty()
    }

    /// Finds the position of an instruction by id.
    pub fn position(&self, id: InstId) -> Option<usize> {
        self.insts().iter().position(|i| i.id == id)
    }

    /// Renames the block. Transformation passes that clone blocks (loop
    /// unrolling, rotation) use this to keep labels unique; callers must
    /// re-[`verify`](Function::verify) afterwards.
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.data().label = label.into();
    }

    /// Appends an instruction.
    pub fn push(&mut self, inst: Inst) {
        self.data().insts.push(inst);
    }

    /// Inserts an instruction at list position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos > len`.
    pub fn insert(&mut self, pos: usize, inst: Inst) {
        self.data().insts.insert(pos, inst);
    }

    /// Removes and returns the instruction with the given id, or `None`
    /// if it is not in this block.
    pub fn remove(&mut self, id: InstId) -> Option<Inst> {
        let pos = self.position(id)?;
        Some(self.remove_at(pos))
    }

    /// Removes and returns the instruction at list position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn remove_at(&mut self, pos: usize) -> Inst {
        self.data().insts.remove(pos)
    }

    /// Mutable access to the instruction at list position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn inst_mut(&mut self, pos: usize) -> &mut Inst {
        &mut self.data().insts[pos]
    }

    /// Keeps only the instructions for which `pred` returns `true`.
    /// Order is preserved.
    pub fn retain(&mut self, pred: impl FnMut(&Inst) -> bool) {
        self.data().insts.retain(pred);
    }

    /// Drops every instruction from list position `n` on.
    pub fn truncate(&mut self, n: usize) {
        self.data().insts.truncate(n);
    }

    /// Reorders the block's instructions by a sort key. The sort is
    /// stable.
    pub fn sort_by_key<K: Ord>(&mut self, key: impl FnMut(&Inst) -> K) {
        self.data().insts.sort_by_key(key);
    }

    /// Reorders the block to match `order`, which must list exactly the
    /// ids currently in the block.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the block's ids.
    pub fn set_order(&mut self, order: &[InstId]) {
        let data = self.data();
        assert_eq!(order.len(), data.insts.len(), "set_order length mismatch");
        let mut by_id: HashMap<InstId, Inst> = data.insts.drain(..).map(|i| (i.id, i)).collect();
        data.insts = order
            .iter()
            .map(|id| by_id.remove(id).expect("set_order: id not in block"))
            .collect();
    }
}

impl Function {
    /// Creates an empty function (no blocks yet).
    pub fn new(name: impl Into<String>) -> Self {
        Function {
            name: name.into(),
            blocks: Vec::new(),
            symbols: Vec::new(),
            next_inst: 0,
            next_reg: [0; 3],
            dup_origins: std::collections::BTreeMap::new(),
        }
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The entry block (always the first block in layout order).
    pub fn entry(&self) -> BlockId {
        BlockId::new(0)
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total number of instructions across all blocks.
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// An exclusive upper bound on instruction id indices, usable to size
    /// dense side tables.
    pub fn inst_id_bound(&self) -> usize {
        self.next_inst as usize
    }

    /// The blocks in layout order, as read-only views.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, BlockRef<'_>)> {
        self.blocks.iter().enumerate().map(|(i, data)| {
            let id = BlockId::new(i as u32);
            (id, BlockRef { data, id })
        })
    }

    /// All block ids in layout order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + use<> {
        (0..self.blocks.len() as u32).map(BlockId::new)
    }

    /// A read-only view of a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> BlockRef<'_> {
        BlockRef {
            data: &self.blocks[id.index()],
            id,
        }
    }

    /// A mutating view of a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> BlockMut<'_> {
        assert!(id.index() < self.blocks.len(), "block id out of range");
        BlockMut { f: self, id }
    }

    /// Applies `apply` to every instruction of block `b` in order.
    pub fn map_block_insts(&mut self, b: BlockId, apply: impl FnMut(&mut Inst)) {
        Arc::make_mut(&mut self.blocks[b.index()])
            .insts
            .iter_mut()
            .for_each(apply);
    }

    fn for_each_inst_mut(&mut self, mut apply: impl FnMut(&mut Inst)) {
        for b in &mut self.blocks {
            Arc::make_mut(b).insts.iter_mut().for_each(&mut apply);
        }
    }

    /// Moves the instruction `id` from block `from` to list position `at`
    /// of block `to`, preserving its id.
    ///
    /// This is the scheduler's motion primitive (§5.1's physical upward
    /// motion). It costs one instruction moved plus the shift of the two
    /// blocks' tails (≤ the §6 region size cap), and copies each block
    /// first if a snapshot shares it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in `from` or `at` is out of range for `to`.
    pub fn relink_inst(&mut self, id: InstId, from: BlockId, to: BlockId, at: usize) {
        let inst = self
            .block_mut(from)
            .remove(id)
            .expect("relink_inst: id not in source block");
        self.block_mut(to).insert(at, inst);
    }

    /// Appends a new empty block and returns its id.
    pub fn add_block(&mut self, label: impl Into<String>) -> BlockId {
        let id = BlockId::new(self.blocks.len() as u32);
        self.blocks.push(Arc::new(BlockData::new(label)));
        id
    }

    /// Inserts a new empty block at `at` in layout order, shifting later
    /// blocks. All existing branch targets are remapped to follow the
    /// shift, so the control flow graph is unchanged (apart from any
    /// fall-through path that now passes through the new, empty block).
    pub fn insert_block_at(&mut self, at: usize, label: impl Into<String>) -> BlockId {
        assert!(at <= self.blocks.len(), "insert position out of range");
        self.blocks.insert(at, Arc::new(BlockData::new(label)));
        let shift = |t: BlockId| {
            if t.index() >= at {
                BlockId::new(t.index() as u32 + 1)
            } else {
                t
            }
        };
        self.for_each_inst_mut(|inst| inst.op.map_targets(shift));
        BlockId::new(at as u32)
    }

    /// The control-flow successors of a block: the explicit branch target
    /// (if any) followed by the fall-through block.
    pub fn succs(&self, id: BlockId) -> Vec<BlockId> {
        let block = self.block(id);
        let mut out = Vec::with_capacity(2);
        if let Some(last) = block.last() {
            if let Some(t) = last.op.branch_target() {
                out.push(t);
            }
        }
        if block.falls_through() {
            let next = id.index() + 1;
            if next < self.blocks.len() {
                let next = BlockId::new(next as u32);
                if !out.contains(&next) {
                    out.push(next);
                }
            }
        }
        out
    }

    /// Registers a memory symbol (or returns the existing id for `name`).
    pub fn add_symbol(&mut self, name: impl Into<String>) -> SymId {
        let name = name.into();
        if let Some(i) = self.symbols.iter().position(|s| *s == name) {
            return SymId::new(i as u32);
        }
        let id = SymId::new(self.symbols.len() as u32);
        self.symbols.push(name);
        id
    }

    /// The name of a symbol.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn symbol_name(&self, id: SymId) -> &str {
        &self.symbols[id.index()]
    }

    /// Looks up a symbol by name.
    pub fn symbol(&self, name: &str) -> Option<SymId> {
        self.symbols
            .iter()
            .position(|s| s == name)
            .map(|i| SymId::new(i as u32))
    }

    /// All symbols.
    pub fn symbols(&self) -> impl Iterator<Item = (SymId, &str)> {
        self.symbols
            .iter()
            .enumerate()
            .map(|(i, s)| (SymId::new(i as u32), s.as_str()))
    }

    /// Allocates a fresh instruction id.
    pub fn fresh_inst_id(&mut self) -> InstId {
        let id = InstId::new(self.next_inst);
        self.next_inst += 1;
        id
    }

    /// The next index [`Function::fresh_reg`] will hand out for each
    /// class, in `[Gpr, Fpr, Cr]` order. Snapshotting these counters
    /// around a transformation identifies exactly the registers the
    /// transformation allocated — the scheduler records a region's draws
    /// this way and replays them onto another function's allocators.
    pub fn reg_counters(&self) -> [u32; 3] {
        self.next_reg
    }

    /// Allocates a fresh symbolic register of `class`.
    pub fn fresh_reg(&mut self, class: RegClass) -> Reg {
        let r = Reg::new(class, self.next_reg[class.slot()]);
        self.next_reg[class.slot()] += 1;
        r
    }

    /// Restores the allocator counters exactly — the canonical
    /// deserializer uses this so a decoded function hands out the same
    /// fresh ids the original would have (the counters can legitimately
    /// run ahead of the ids still present, e.g. after dead code removal).
    pub(crate) fn set_allocators(&mut self, next_inst: u32, next_reg: [u32; 3]) {
        self.next_inst = next_inst;
        self.next_reg = next_reg;
    }

    /// Ensures future [`Function::fresh_reg`] / [`Function::fresh_inst_id`]
    /// calls do not collide with ids already present. Used after parsing
    /// and after pasting instructions in by hand.
    pub fn recompute_allocators(&mut self) {
        let mut next_inst = 0u32;
        let mut next_reg = [0u32; 3];
        for (_, inst) in self.insts() {
            next_inst = next_inst.max(inst.id.index() as u32 + 1);
            for r in inst.op.defs().into_iter().chain(inst.op.uses()) {
                let slot = r.class().slot();
                next_reg[slot] = next_reg[slot].max(r.index() + 1);
            }
        }
        self.next_inst = self.next_inst.max(next_inst);
        for (slot, seen) in self.next_reg.iter_mut().zip(next_reg) {
            *slot = (*slot).max(seen);
        }
    }

    /// Iterates over every instruction with its containing block.
    pub fn insts(&self) -> impl Iterator<Item = (BlockId, &Inst)> {
        self.blocks.iter().enumerate().flat_map(|(i, data)| {
            data.insts
                .iter()
                .map(move |inst| (BlockId::new(i as u32), inst))
        })
    }

    /// Finds an instruction by id, returning its block and position.
    pub fn find_inst(&self, id: InstId) -> Option<(BlockId, usize)> {
        for (bid, b) in self.blocks() {
            if let Some(pos) = b.position(id) {
                return Some((bid, pos));
            }
        }
        None
    }

    /// Appends a clone of block `src`'s instructions (with fresh ids) into
    /// block `dst`, returning the mapping from original ids to clones.
    /// Branch targets are copied verbatim; callers performing unrolling or
    /// rotation remap them afterwards via [`Op::map_targets`].
    pub fn clone_insts_into(&mut self, src: BlockId, dst: BlockId) -> Vec<(InstId, InstId)> {
        let pairs: Vec<(InstId, Op)> = self
            .block(src)
            .insts()
            .map(|i| (i.id, i.op.clone()))
            .collect();
        let mut map = Vec::with_capacity(pairs.len());
        for (orig, op) in pairs {
            let id = self.fresh_inst_id();
            self.block_mut(dst).push(Inst::new(id, op));
            map.push((orig, id));
        }
        map
    }

    /// Deletes every block that is unreachable from the entry (following
    /// [`Function::succs`]) and remaps the surviving branch targets.
    /// Returns the number of blocks removed.
    ///
    /// Fall-through edges are preserved: a block only falls through into
    /// its layout successor, and a fall-through target is by definition
    /// reachable whenever its predecessor is, so deleting unreachable
    /// blocks never separates a block from its fall-through successor.
    /// Test-case minimizers use this to clean up after redirecting or
    /// deleting branches.
    pub fn remove_unreachable_blocks(&mut self) -> usize {
        if self.blocks.is_empty() {
            return 0;
        }
        let mut reachable = vec![false; self.blocks.len()];
        let mut work = vec![self.entry()];
        reachable[self.entry().index()] = true;
        while let Some(b) = work.pop() {
            for s in self.succs(b) {
                if !reachable[s.index()] {
                    reachable[s.index()] = true;
                    work.push(s);
                }
            }
        }
        let removed = reachable.iter().filter(|r| !**r).count();
        if removed == 0 {
            return 0;
        }
        let mut remap = vec![BlockId::new(0); self.blocks.len()];
        let mut next = 0u32;
        for (i, live) in reachable.iter().enumerate() {
            if *live {
                remap[i] = BlockId::new(next);
                next += 1;
            }
        }
        let mut live = reachable.iter();
        self.blocks
            .retain(|_| *live.next().expect("one flag per block"));
        self.for_each_inst_mut(|inst| inst.op.map_targets(|t| remap[t.index()]));
        removed
    }

    /// All registers mentioned anywhere in the function.
    pub fn all_regs(&self) -> Vec<Reg> {
        let mut regs: Vec<Reg> = self
            .insts()
            .flat_map(|(_, i)| i.op.defs().into_iter().chain(i.op.uses()))
            .collect();
        regs.sort();
        regs.dedup();
        regs
    }

    /// A cheap copy-on-write snapshot of this function.
    ///
    /// Snapshotting bumps one reference count per block instead of
    /// cloning instructions, so its cost is O(blocks) — this is what lets
    /// each `--jobs` worker take whole-function scratch without deep
    /// clones. The two functions then diverge copy-on-write: the first
    /// edit to a block on either side copies only that block.
    ///
    /// ```
    /// use gis_ir::parse_function;
    ///
    /// let f = parse_function("func t\ne:\n LI r0=1\n RET\n").unwrap();
    /// let mut scratch = f.snapshot();
    /// let b = scratch.entry();
    /// scratch.block_mut(b).remove_at(0);
    /// assert_eq!(scratch.num_insts(), 1);
    /// assert_eq!(f.num_insts(), 2, "the original is untouched");
    /// ```
    pub fn snapshot(&self) -> Function {
        self.clone()
    }

    /// Records that `copy` was minted by duplicating `origin`. Chains are
    /// flattened: if `origin` is itself a recorded copy, `copy` maps to
    /// `origin`'s root, so [`Function::dup_origin`] is always one hop.
    pub fn record_dup_origin(&mut self, copy: InstId, origin: InstId) {
        let root = self.dup_origin(origin).unwrap_or(origin);
        self.dup_origins.insert(copy, root);
    }

    /// The root original `id` was duplicated from, if `id` is a recorded
    /// duplication copy.
    pub fn dup_origin(&self, id: InstId) -> Option<InstId> {
        self.dup_origins.get(&id).copied()
    }

    /// The root identity of `id` for redundancy checks: its recorded
    /// duplication origin, or `id` itself when it is not a copy.
    pub fn dup_root(&self, id: InstId) -> InstId {
        self.dup_origin(id).unwrap_or(id)
    }

    /// Every recorded `(copy, root origin)` pair, ordered by copy id.
    pub fn dup_origins(&self) -> impl Iterator<Item = (InstId, InstId)> + '_ {
        self.dup_origins.iter().map(|(&c, &o)| (c, o))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{CondBit, Op};

    fn two_block_function() -> Function {
        let mut f = Function::new("t");
        let b0 = f.add_block("CL.0");
        let b1 = f.add_block("CL.1");
        let id0 = f.fresh_inst_id();
        f.block_mut(b0).push(Inst::new(
            id0,
            Op::BranchCond {
                target: b1,
                cr: Reg::cr(0),
                bit: CondBit::Lt,
                when: true,
            },
        ));
        let id1 = f.fresh_inst_id();
        f.block_mut(b1).push(Inst::new(id1, Op::Ret));
        f
    }

    #[test]
    fn succs_branch_and_fallthrough() {
        let f = two_block_function();
        // Conditional branch to BL1, fall-through also BL1: deduplicated.
        assert_eq!(f.succs(BlockId::new(0)), vec![BlockId::new(1)]);
        assert!(f.succs(BlockId::new(1)).is_empty());
    }

    #[test]
    fn fallthrough_rules() {
        let mut f = Function::new("t");
        let b = f.add_block("CL.0");
        assert!(f.block(b).falls_through(), "empty blocks fall through");
        let id = f.fresh_inst_id();
        f.block_mut(b).push(Inst::new(
            id,
            Op::LoadImm {
                rt: Reg::gpr(0),
                imm: 1,
            },
        ));
        assert!(f.block(b).falls_through());
        let id = f.fresh_inst_id();
        f.block_mut(b).push(Inst::new(id, Op::Ret));
        assert!(!f.block(b).falls_through());
    }

    #[test]
    fn remove_by_id() {
        let mut f = Function::new("t");
        let b = f.add_block("x");
        f.block_mut(b).push(Inst::new(
            InstId::new(4),
            Op::LoadImm {
                rt: Reg::gpr(0),
                imm: 1,
            },
        ));
        f.block_mut(b).push(Inst::new(InstId::new(9), Op::Ret));
        let removed = f.block_mut(b).remove(InstId::new(4)).expect("present");
        assert_eq!(removed.id, InstId::new(4));
        assert_eq!(f.block(b).len(), 1);
        assert!(f.block_mut(b).remove(InstId::new(4)).is_none());
    }

    #[test]
    fn relink_preserves_identity() {
        let mut f = two_block_function();
        let b0 = BlockId::new(0);
        let b1 = BlockId::new(1);
        let id = f.fresh_inst_id();
        f.block_mut(b1).insert(
            0,
            Inst::new(
                id,
                Op::LoadImm {
                    rt: Reg::gpr(0),
                    imm: 5,
                },
            ),
        );
        f.relink_inst(id, b1, b0, 0);
        assert_eq!(f.block(b0).inst_at(0).id, id);
        assert_eq!(f.block(b1).len(), 1);
    }

    #[test]
    fn snapshot_is_copy_on_write() {
        let mut f = two_block_function();
        let snap = f.snapshot();
        let b1 = BlockId::new(1);
        let id = f.fresh_inst_id();
        f.block_mut(b1).insert(
            0,
            Inst::new(
                id,
                Op::LoadImm {
                    rt: Reg::gpr(3),
                    imm: 1,
                },
            ),
        );
        assert_eq!(f.block(b1).len(), 2);
        assert_eq!(snap.block(b1).len(), 1, "snapshot unaffected");
        assert_eq!(snap.num_insts(), 2);
    }

    #[test]
    fn symbols_are_interned() {
        let mut f = Function::new("t");
        let a = f.add_symbol("a");
        let b = f.add_symbol("b");
        let a2 = f.add_symbol("a");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(f.symbol_name(a), "a");
        assert_eq!(f.symbol("b"), Some(b));
        assert_eq!(f.symbol("c"), None);
    }

    #[test]
    fn recompute_allocators_avoids_collisions() {
        let mut f = Function::new("t");
        let b0 = f.add_block("e");
        f.block_mut(b0).push(Inst::new(
            InstId::new(7),
            Op::LoadImm {
                rt: Reg::gpr(12),
                imm: 0,
            },
        ));
        f.recompute_allocators();
        assert_eq!(f.fresh_inst_id(), InstId::new(8));
        assert_eq!(f.fresh_reg(RegClass::Gpr), Reg::gpr(13));
        assert_eq!(f.fresh_reg(RegClass::Cr), Reg::cr(0));
    }

    #[test]
    fn insert_block_remaps_targets() {
        let mut f = two_block_function();
        let inserted = f.insert_block_at(1, "CL.mid");
        assert_eq!(inserted, BlockId::new(1));
        // The branch in block 0 originally targeted BL1 (now BL2).
        let tgt = f
            .block(BlockId::new(0))
            .inst_at(0)
            .op
            .branch_target()
            .unwrap();
        assert_eq!(tgt, BlockId::new(2));
        // Fall-through now passes through the empty inserted block.
        assert_eq!(f.succs(BlockId::new(1)), vec![BlockId::new(2)]);
    }

    #[test]
    fn remove_unreachable_blocks_remaps_targets() {
        // e -> B over `dead` to `tail`; `dead` is unreachable.
        let mut f = Function::new("t");
        let e = f.add_block("e");
        let dead = f.add_block("dead");
        let tail = f.add_block("tail");
        let id = f.fresh_inst_id();
        f.block_mut(e)
            .push(Inst::new(id, Op::Branch { target: tail }));
        let id = f.fresh_inst_id();
        f.block_mut(dead).push(Inst::new(id, Op::Ret));
        let id = f.fresh_inst_id();
        f.block_mut(tail).push(Inst::new(id, Op::Ret));
        assert_eq!(f.remove_unreachable_blocks(), 1);
        assert_eq!(f.num_blocks(), 2);
        assert_eq!(f.num_insts(), 2);
        let tgt = f.block(e).inst_at(0).op.branch_target().unwrap();
        assert_eq!(
            tgt,
            BlockId::new(1),
            "target shifted past the deleted block"
        );
        assert!(f.verify().is_ok());
        assert_eq!(f.remove_unreachable_blocks(), 0, "idempotent");
    }

    #[test]
    fn find_inst_and_clone() {
        let mut f = two_block_function();
        assert_eq!(f.find_inst(InstId::new(1)), Some((BlockId::new(1), 0)));
        let fresh = f.add_block("copy");
        let map = f.clone_insts_into(BlockId::new(1), fresh);
        assert_eq!(map.len(), 1);
        assert_ne!(map[0].0, map[0].1);
        assert_eq!(f.block(fresh).len(), 1);
    }

    #[test]
    fn set_order_and_sort_by_key_permute() {
        let mut f = Function::new("t");
        let b = f.add_block("e");
        for imm in 0..3 {
            let id = f.fresh_inst_id();
            f.block_mut(b).push(Inst::new(
                id,
                Op::LoadImm {
                    rt: Reg::gpr(imm as u32),
                    imm,
                },
            ));
        }
        f.block_mut(b)
            .set_order(&[InstId::new(2), InstId::new(0), InstId::new(1)]);
        let order: Vec<InstId> = f.block(b).insts().map(|i| i.id).collect();
        assert_eq!(order, vec![InstId::new(2), InstId::new(0), InstId::new(1)]);
        f.block_mut(b).sort_by_key(|i| i.id);
        let order: Vec<InstId> = f.block(b).insts().map(|i| i.id).collect();
        assert_eq!(order, vec![InstId::new(0), InstId::new(1), InstId::new(2)]);
    }
}
