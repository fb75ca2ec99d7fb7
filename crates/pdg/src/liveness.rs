//! Block-level register liveness.
//!
//! Speculative scheduling (§5.3) must know which symbolic registers are
//! *live on exit* from a block: an instruction may not be moved
//! speculatively into block `A` if it writes a register live on exit from
//! `A`. The paper adds that "this type of information has to be updated
//! dynamically" as instructions move. Two pieces serve that:
//!
//! * [`Liveness::compute`] solves the whole function (back edges
//!   included, so loop-carried uses keep registers alive) one register at
//!   a time: from every block that reads the register before writing it,
//!   walk backward over predecessors until a block that writes it. §4.2
//!   renaming gives webs "the effect of SSA", so most registers are live
//!   in a few blocks, and the cost is O(instructions + Σ live-range
//!   blocks) instead of blocks × registers. The result is one sorted
//!   live-in list per block. The global scheduler solves once per CFG
//!   version, and both of its passes read that solve unless rotate
//!   changed the CFG between them; dead-code elimination, web renaming
//!   and the pressure report read the same lists. [`Liveness::compute_reference`], the dense iterative
//!   fixed point, is its oracle: the two must be equal.
//! * [`Liveness::walk_live_out`] answers §5.3's question on demand, on the
//!   *current* code of one region: it walks forward from the block's
//!   successors and stops each path at the first use (live) or def (dead)
//!   of the register; a path that leaves the region reads the shared
//!   solve's live-ins. Nothing is kept between queries, so a motion costs
//!   nothing for liveness and a query costs O(region).
//!
//! # The region-boundary invariant
//!
//! *A legal motion never changes liveness outside the region that makes
//! it.* §4.1 keeps every motion inside one region, and within it:
//!
//! * a moved use was already live through its target block (the
//!   dependence test holds back any candidate whose operand could still
//!   be redefined between the target and its home);
//! * a moved definition cannot become live-in at the region head:
//!   useful motion stays between equivalent blocks, speculative motion
//!   may not clobber a register live on exit from its target (§5.3),
//!   and the dependence edges order it after every earlier use;
//! * a §5.3 rename replaces a du-chain local to its home block with a
//!   fresh register, which is therefore never live at the boundary;
//! * duplication copies a join's instruction into predecessors that
//!   only fall into that join, and the dedup fold deletes a copy whose
//!   twin computes the same value in the same region.
//!
//! So the live-ins of a region's exit successors, solved before the
//! first global pass, stay exact across every region and both passes,
//! even when the successor heads a region scheduled earlier: only a
//! transform that changes the CFG (unroll, rotate) calls for a new
//! solve. Four mechanisms rest on this: the query answering from one
//! solve per CFG version (`gis-core`'s `global.rs`), the second global
//! pass reusing the first pass's solve (`pipeline.rs`), the parallel
//! pass sharing it among its workers (`parallel.rs`), and the region
//! memo keying on it (`memo.rs`).
//!
//! It is checked, not assumed. Under `gis-core`'s armed checks (debug
//! builds, or a verifier plugged in through `TestHooks`), every answer
//! the §5.3 gate reads must equal [`Liveness::compute_reference`] on the
//! current function, and at every region's start and after every commit
//! each exit successor's live-ins in the shared solve must agree with a
//! fresh reference solve on every register the region names; the
//! differential fuzzer (`gisc fuzz`) plugs its verifier into every
//! configuration. A planted fault skips the boundary check, since its
//! illegal motions break the invariant by design, and each global pass
//! then solves anew. `crates/check/tests/hotpath_differential.rs` also compares
//! every query a region can ask with the reference solve directly, over
//! 200 generated functions.

use gis_cfg::{Cfg, NodeId};
use gis_ir::{BlockId, BlockRef, Function, Reg, RegClass, RegSet};

/// The live-in registers of every basic block of a whole function.
///
/// One flat list: block `b`'s live-ins are `regs[start[b]..start[b + 1]]`,
/// ascending in `(class, index)` order, the order [`RegSet`] iterates in.
/// A block's live-outs are its successors' live-ins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Liveness {
    start: Vec<u32>,
    regs: Vec<Reg>,
}

/// No block: the initial value of the per-block and per-register marks.
const NONE: u32 = u32::MAX;

/// Groups `items` by `key(item) < keys`, keeping their order within a
/// key: group `k` of the result is `items[start[k]..start[k + 1]]`.
fn group<T: Copy>(keys: usize, items: &[T], key: impl Fn(&T) -> usize) -> (Vec<u32>, Vec<T>) {
    let mut start = vec![0u32; keys + 1];
    for it in items {
        start[key(it) + 1] += 1;
    }
    for k in 0..keys {
        start[k + 1] += start[k];
    }
    let mut fill = start.clone();
    let mut out = items.to_vec();
    for &it in items {
        let k = key(&it);
        out[fill[k] as usize] = it;
        fill[k] += 1;
    }
    (start, out)
}

impl Liveness {
    /// Computes liveness for `f` (with `cfg` built from the same
    /// function), register by register (see the module docs).
    ///
    /// ```
    /// use gis_cfg::Cfg;
    /// use gis_ir::{BlockId, Reg};
    /// use gis_pdg::Liveness;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let f = gis_ir::parse_function(
    ///     "func t\nA:\n LI r1=1\nB:\n PRINT r1\n RET\n",
    /// )?;
    /// let cfg = Cfg::new(&f);
    /// let live = Liveness::compute(&f, &cfg);
    /// assert_eq!(live.live_in(BlockId::new(1)), [Reg::gpr(1)]);
    /// assert!(live.live_out_contains(&cfg, BlockId::new(0), Reg::gpr(1)));
    /// assert_eq!(live, Liveness::compute_reference(&f, &cfg));
    /// # Ok(())
    /// # }
    /// ```
    pub fn compute(f: &Function, cfg: &Cfg) -> Self {
        let n = f.num_blocks();
        // One event per (register, block) that reads the register before
        // writing it, and per (register, block) that writes it. `marks`
        // holds, per register, the last block that recorded each kind.
        let mut marks: [Vec<(u32, u32)>; 3] = Default::default();
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        let mut ops = Vec::new();
        for (bid, block) in f.blocks() {
            let b = bid.index() as u32;
            for inst in block.insts() {
                ops.clear();
                inst.op.uses_into(&mut ops);
                let split = ops.len();
                inst.op.defs_into(&mut ops);
                for (k, &r) in ops.iter().enumerate() {
                    let slots = &mut marks[r.class().slot()];
                    let i = r.index() as usize;
                    if i >= slots.len() {
                        slots.resize(i + 1, (NONE, NONE));
                    }
                    let (read, written) = &mut slots[i];
                    if k < split {
                        if *read != b && *written != b {
                            *read = b;
                            reads.push((r, b));
                        }
                    } else if *written != b {
                        *written = b;
                        writes.push((r, b));
                    }
                }
            }
        }
        // Dense register numbers, class by class.
        let lens = marks.each_ref().map(Vec::len);
        let base = [0, lens[0], lens[0] + lens[1]];
        let dense = |r: &(Reg, u32)| base[r.0.class().slot()] + r.0.index() as usize;
        let total = base[2] + lens[2];
        let (read_start, reads) = group(total, &reads, dense);
        let (write_start, writes) = group(total, &writes, dense);

        // Per register, ascending: walk back from its reading blocks.
        let mut live_at = vec![NONE; n];
        let mut written_at = vec![NONE; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut found: Vec<(u32, Reg)> = Vec::new();
        for (slot, class) in RegClass::ALL.into_iter().enumerate() {
            for index in 0..lens[slot] {
                let d = base[slot] + index;
                let (from, to) = (read_start[d] as usize, read_start[d + 1] as usize);
                if from == to {
                    continue;
                }
                let (r, mark) = (Reg::new(class, index as u32), d as u32);
                for &(_, b) in &writes[write_start[d] as usize..write_start[d + 1] as usize] {
                    written_at[b as usize] = mark;
                }
                for &(_, b) in &reads[from..to] {
                    live_at[b as usize] = mark;
                    found.push((b, r));
                    stack.push(b);
                }
                while let Some(b) = stack.pop() {
                    for e in cfg.preds(NodeId::block(BlockId::new(b))) {
                        let Some(p) = e.to.as_block() else {
                            continue;
                        };
                        let p = p.index();
                        if live_at[p] != mark && written_at[p] != mark {
                            live_at[p] = mark;
                            found.push((p as u32, r));
                            stack.push(p as u32);
                        }
                    }
                }
            }
        }
        let (start, found) = group(n, &found, |&(b, _)| b as usize);
        Liveness {
            start,
            regs: found.into_iter().map(|(_, r)| r).collect(),
        }
    }

    /// The dense iterative solve, the oracle [`compute`](Self::compute)
    /// must equal: per-block use/def summaries over every register, then
    /// a backward fixed point in descending block order, O(blocks ×
    /// registers) per sweep.
    pub fn compute_reference(f: &Function, cfg: &Cfg) -> Self {
        let n = f.num_blocks();
        let mut uses: Vec<RegSet> = vec![RegSet::new(); n];
        let mut defs: Vec<RegSet> = vec![RegSet::new(); n];
        for (bid, block) in f.blocks() {
            for inst in block.insts() {
                for u in inst.op.uses() {
                    if !defs[bid.index()].contains(u) {
                        uses[bid.index()].insert(u);
                    }
                }
                for d in inst.op.defs() {
                    defs[bid.index()].insert(d);
                }
            }
        }
        let mut live_in = uses;
        let mut live_out = vec![RegSet::new(); n];
        // Sets only grow, so the in-place unions converge to the least
        // fixed point.
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                for e in cfg.succs(NodeId::block(BlockId::new(i as u32))) {
                    if let Some(s) = e.to.as_block() {
                        changed |= live_out[i].union_with(&live_in[s.index()]);
                    }
                }
                changed |= live_in[i].union_with_except(&live_out[i], &defs[i]);
            }
        }
        let mut start = Vec::with_capacity(n + 1);
        let mut regs = Vec::new();
        for set in &live_in {
            start.push(regs.len() as u32);
            regs.extend(set.iter());
        }
        start.push(regs.len() as u32);
        Liveness { start, regs }
    }

    /// Registers live on entry to `b`, ascending.
    pub fn live_in(&self, b: BlockId) -> &[Reg] {
        &self.regs[self.start[b.index()] as usize..self.start[b.index() + 1] as usize]
    }

    /// Whether `r` is live on entry to `b`.
    pub fn live_in_contains(&self, b: BlockId, r: Reg) -> bool {
        self.live_in(b).binary_search(&r).is_ok()
    }

    /// Registers live on exit from `b`: its successors' live-ins (`cfg`
    /// is the one the solve was made with).
    pub fn live_out(&self, cfg: &Cfg, b: BlockId) -> RegSet {
        let mut out = RegSet::new();
        for s in block_succs(cfg, b) {
            for &r in self.live_in(s) {
                out.insert(r);
            }
        }
        out
    }

    /// Whether `r` is live on exit from `b` (§5.3's gate for speculation).
    pub fn live_out_contains(&self, cfg: &Cfg, b: BlockId, r: Reg) -> bool {
        block_succs(cfg, b).any(|s| self.live_in_contains(s, r))
    }

    /// Whether `r` is live on exit from `b`, a block of `scope`
    /// (ascending), in `f`'s *current* code: §5.3's question, asked
    /// between motions.
    ///
    /// Walks forward from `b`'s successors, stopping each path at the
    /// first instruction that reads `r` (live) or writes it (dead). A path
    /// that leaves the scope answers from `self`'s live-ins of the block
    /// it enters, which must still be exact for `f`: `self` is the pass
    /// solve and `scope` a region of that pass (the module docs say why
    /// that holds). O(scope) per query; nothing to repair after a motion.
    ///
    /// ```
    /// use gis_cfg::Cfg;
    /// use gis_ir::{BlockId, Reg};
    /// use gis_pdg::Liveness;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut f = gis_ir::parse_function(
    ///     "func t\nA:\n LI r1=1\nB:\n AI r2=r1,1\nC:\n PRINT r2\n RET\n",
    /// )?;
    /// let cfg = Cfg::new(&f);
    /// let pass = Liveness::compute(&f, &cfg);
    /// // A region of the first two blocks; C is its exit successor.
    /// let (a, b) = (BlockId::new(0), BlockId::new(1));
    /// let scope = [a, b];
    /// assert!(pass.walk_live_out(&f, &cfg, &scope, a, Reg::gpr(1)));
    /// // Move B's add into A: r1 no longer crosses into B.
    /// let moved = f.block_mut(b).remove_at(0);
    /// f.block_mut(a).push(moved);
    /// assert!(!pass.walk_live_out(&f, &cfg, &scope, a, Reg::gpr(1)));
    /// assert!(pass.walk_live_out(&f, &cfg, &scope, a, Reg::gpr(2)));
    /// # Ok(())
    /// # }
    /// ```
    pub fn walk_live_out(
        &self,
        f: &Function,
        cfg: &Cfg,
        scope: &[BlockId],
        b: BlockId,
        r: Reg,
    ) -> bool {
        self.walk_live_out_in(f, cfg, scope, b, r, &mut LiveOutWalk::default())
    }

    /// [`Liveness::walk_live_out`] with the walk's buffers in `walk`: a
    /// caller that asks many questions reuses one, and a query then
    /// allocates nothing once the buffers have grown to the scope.
    pub fn walk_live_out_in(
        &self,
        f: &Function,
        cfg: &Cfg,
        scope: &[BlockId],
        b: BlockId,
        r: Reg,
        walk: &mut LiveOutWalk,
    ) -> bool {
        debug_assert!(scope.windows(2).all(|w| w[0] < w[1]), "scope ascending");
        let LiveOutWalk { seen, stack, ops } = walk;
        seen.clear();
        seen.resize(scope.len(), false);
        stack.clear();
        stack.extend(block_succs(cfg, b));
        while let Some(x) = stack.pop() {
            let Ok(i) = scope.binary_search(&x) else {
                if self.live_in_contains(x, r) {
                    return true;
                }
                continue;
            };
            if std::mem::replace(&mut seen[i], true) {
                continue;
            }
            match first_access(f.block(x), r, ops) {
                Some(true) => return true,
                Some(false) => {}
                None => stack.extend(block_succs(cfg, x)),
            }
        }
        false
    }
}

/// The buffers of [`Liveness::walk_live_out_in`]: which scope blocks
/// the walk has entered, the blocks still to visit, and one
/// instruction's operands.
#[derive(Debug, Clone, Default)]
pub struct LiveOutWalk {
    seen: Vec<bool>,
    stack: Vec<BlockId>,
    ops: Vec<Reg>,
}

fn block_succs(cfg: &Cfg, b: BlockId) -> impl Iterator<Item = BlockId> + '_ {
    cfg.succs(NodeId::block(b))
        .iter()
        .filter_map(|e| e.to.as_block())
}

/// How the first instruction of `block` naming `r` does so: `Some(true)`
/// when it reads `r` (an instruction reads its operands before it
/// writes), `Some(false)` when it only writes it, `None` when no
/// instruction names `r`. `ops` is a reused operand buffer.
fn first_access(block: BlockRef<'_>, r: Reg, ops: &mut Vec<Reg>) -> Option<bool> {
    for inst in block.insts() {
        ops.clear();
        inst.op.uses_into(ops);
        if ops.contains(&r) {
            return Some(true);
        }
        ops.clear();
        inst.op.defs_into(ops);
        if ops.contains(&r) {
            return Some(false);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_ir::{parse_function, Reg};

    /// Parses `text` and solves it, holding the sparse solve to the dense
    /// one on the way.
    fn liveness(text: &str) -> (Function, Cfg, Liveness) {
        let f = parse_function(text).expect("parses");
        let cfg = Cfg::new(&f);
        let l = Liveness::compute(&f, &cfg);
        assert_eq!(l, Liveness::compute_reference(&f, &cfg));
        (f, cfg, l)
    }

    fn all_blocks(f: &Function) -> Vec<BlockId> {
        f.block_ids().collect()
    }

    /// Every query the region `scope` can ask of the pass solve `pass` —
    /// each scope block, each register the scope names — must agree with
    /// a fresh reference solve of `f` as it is now.
    fn assert_exact(pass: &Liveness, f: &Function, cfg: &Cfg, scope: &[BlockId]) {
        let full = Liveness::compute_reference(f, cfg);
        let mut named: Vec<Reg> = scope
            .iter()
            .flat_map(|&b| f.block(b).insts())
            .flat_map(|i| i.op.uses().into_iter().chain(i.op.defs()))
            .collect();
        named.sort();
        named.dedup();
        for &b in scope {
            for &r in &named {
                assert_eq!(
                    pass.walk_live_out(f, cfg, scope, b, r),
                    full.live_out_contains(cfg, b, r),
                    "live-out of {b} on {r}\n{f}"
                );
            }
        }
    }

    #[test]
    fn straight_line() {
        let (_, cfg, l) = liveness("func s\nA:\n LI r1=1\n AI r2=r1,1\nB:\n PRINT r2\n RET\n");
        let a = BlockId::new(0);
        let b = BlockId::new(1);
        assert!(l.live_out_contains(&cfg, a, Reg::gpr(2)));
        assert!(
            !l.live_out_contains(&cfg, a, Reg::gpr(1)),
            "r1 is consumed inside A"
        );
        assert!(l.live_in_contains(b, Reg::gpr(2)));
        assert!(l.live_out(&cfg, b).is_empty());
    }

    #[test]
    fn section_5_3_diamond() {
        // The x=5 / x=3 example: x (r3) is live on exit from the join's
        // predecessors but NOT defined before the branch.
        let (_, cfg, l) = liveness(
            "func d\n\
             A:\n C cr0=r1,r2\n BT C,cr0,0x1/lt\n\
             B:\n LI r3=5\n B D\n\
             C:\n LI r3=3\n\
             D:\n PRINT r3\n RET\n",
        );
        let a = BlockId::new(0);
        assert!(
            !l.live_out_contains(&cfg, a, Reg::gpr(3)),
            "x is dead on exit from A before any motion"
        );
        assert!(l.live_out_contains(&cfg, BlockId::new(1), Reg::gpr(3)));
        assert!(l.live_out_contains(&cfg, BlockId::new(2), Reg::gpr(3)));
        // The branch condition is consumed by A itself.
        assert_eq!(l.live_in(a), [Reg::gpr(1), Reg::gpr(2)]);
        assert!(!l.live_out_contains(&cfg, a, Reg::cr(0)));
    }

    #[test]
    fn loop_carried_liveness() {
        // r1 is incremented each iteration: live around the back edge.
        let (_, cfg, l) = liveness(
            "func l\nA:\n LI r1=0\nB:\n AI r1=r1,1\n C cr0=r1,r9\n BT B,cr0,0x1/lt\nC:\n PRINT r1\n RET\n",
        );
        let b = BlockId::new(1);
        assert!(
            l.live_out_contains(&cfg, b, Reg::gpr(1)),
            "live on the back edge and exit"
        );
        assert!(l.live_in_contains(b, Reg::gpr(1)));
        assert!(
            l.live_out_contains(&cfg, b, Reg::gpr(9)),
            "n stays live around the loop"
        );
    }

    #[test]
    fn update_form_keeps_base_alive() {
        let (_, cfg, l) = liveness("func u\nA:\n LU r1,r2=a(r2,8)\nB:\n PRINT r2\n RET\n");
        let a = BlockId::new(0);
        assert!(l.live_in_contains(a, Reg::gpr(2)), "base is read");
        assert!(
            l.live_out_contains(&cfg, a, Reg::gpr(2)),
            "updated base flows out"
        );
        assert!(
            !l.live_out_contains(&cfg, a, Reg::gpr(1)),
            "loaded value unused"
        );
    }

    #[test]
    fn lists_follow_register_set_order() {
        // Classes in `RegSet` order (gpr, fpr, cr), indices ascending
        // within each, whatever order the block reads them in.
        let (_, _, l) = liveness(
            "func o\nA:\n PRINT r9\n FA f1=f3,f2\n C cr1=r2,r9\n BT A,cr4,0x1/lt\nB:\n RET\n",
        );
        assert_eq!(
            l.live_in(BlockId::new(0)),
            [
                Reg::gpr(2),
                Reg::gpr(9),
                Reg::fpr(2),
                Reg::fpr(3),
                Reg::cr(4)
            ]
        );
    }

    #[test]
    fn diamond_hoist_is_answered_on_the_moved_code() {
        // Hoist `LI r3=5` from B into A (a useful motion target shape):
        // the query must read the moved code, with no repair.
        let (mut f, cfg, pass) = liveness(
            "func d\n\
             A:\n C cr0=r1,r2\n BT C,cr0,0x1/lt\n\
             B:\n LI r3=5\n PRINT r3\n B D\n\
             C:\n LI r3=3\n\
             D:\n PRINT r3\n RET\n",
        );
        let scope = all_blocks(&f);
        assert_exact(&pass, &f, &cfg, &scope);
        let a = BlockId::new(0);
        let b = BlockId::new(1);
        let moved = f.block_mut(b).remove_at(0);
        let at = f.block(a).len() - 2; // before the compare/branch pair
        f.block_mut(a).insert(at, moved);
        assert_exact(&pass, &f, &cfg, &scope);
        assert!(pass.walk_live_out(&f, &cfg, &scope, a, Reg::gpr(3)));
    }

    #[test]
    fn motion_that_empties_its_source_block() {
        // B holds a single instruction; moving it into A leaves B empty
        // (a pure fall-through) for the walk to cross.
        let (mut f, cfg, pass) =
            liveness("func e\nA:\n LI r1=1\nB:\n AI r2=r1,1\nC:\n PRINT r2\n RET\n");
        let scope = all_blocks(&f);
        let a = BlockId::new(0);
        let b = BlockId::new(1);
        let moved = f.block_mut(b).remove_at(0);
        f.block_mut(a).push(moved);
        assert_eq!(f.block(b).len(), 0, "source block is now empty");
        assert_exact(&pass, &f, &cfg, &scope);
        assert!(pass.walk_live_out(&f, &cfg, &scope, a, Reg::gpr(2)));
        assert!(
            pass.walk_live_out(&f, &cfg, &scope, b, Reg::gpr(2)),
            "r2 flows through empty B"
        );
    }

    #[test]
    fn shrinking_motion_around_a_back_edge() {
        // The only use of r5 moves from the self-looping block B up into
        // the preheader A; r5 must STOP being live around the back edge,
        // where the pass solve still has it live.
        let (mut f, cfg, pass) = liveness(
            "func s\n\
             A:\n LI r1=0\n\
             B:\n PRINT r5\n AI r1=r1,1\n C cr0=r1,r9\n BT B,cr0,0x1/lt\n\
             X:\n RET\n",
        );
        let a = BlockId::new(0);
        let b = BlockId::new(1);
        let scope = [a, b];
        assert!(
            pass.walk_live_out(&f, &cfg, &scope, b, Reg::gpr(5)),
            "loop-carried before"
        );
        let moved = f.block_mut(b).remove_at(0);
        f.block_mut(a).push(moved);
        assert_exact(&pass, &f, &cfg, &scope);
        assert!(
            !pass.walk_live_out(&f, &cfg, &scope, b, Reg::gpr(5)),
            "r5's last use now precedes the loop"
        );
    }

    #[test]
    fn loop_region_reads_its_exit_from_the_pass() {
        // A loop region {H, T} with a back edge T→H and an exit into X,
        // which reads r3. The walk never enters X's code: r3's liveness
        // around the loop comes from the pass solve's live-ins of X.
        let (mut f, cfg, pass) = liveness(
            "func l\n\
             P:\n LI r1=0\n LI r3=7\n\
             H:\n AI r1=r1,1\n\
             T:\n C cr0=r1,r9\n BT H,cr0,0x1/lt\n\
             X:\n PRINT r3\n RET\n",
        );
        let (h, t, x) = (BlockId::new(1), BlockId::new(2), BlockId::new(3));
        let scope = [h, t];
        assert_exact(&pass, &f, &cfg, &scope);
        assert!(
            pass.walk_live_out(&f, &cfg, &scope, t, Reg::gpr(1)),
            "carried by the back edge"
        );
        assert!(
            pass.walk_live_out(&f, &cfg, &scope, h, Reg::gpr(9)),
            "bound read every trip"
        );
        // Outside the scope only the pass solve speaks: with X's read
        // removed behind the region's back, the walk still answers from
        // the boundary.
        f.block_mut(x).remove_at(0);
        assert!(pass.walk_live_out(&f, &cfg, &scope, t, Reg::gpr(3)));
    }

    #[test]
    fn exit_into_a_sibling_loop_header() {
        // Two adjacent loops: L1 = {l1} falls straight into the header
        // of L2 = {l2, l2b}, so L1's exit is L2's header live-in. Schedule
        // L2 first — hoist `LI r4=3` from its latch into its header,
        // which changes liveness inside L2 — then query L1 against the
        // *pass-start* solve: it must still be exact, because the motion
        // left L2's header live-ins alone.
        let (mut f, cfg, pass) = liveness(
            "func two\n\
             init:\n LI r1=0\n LI r2=0\n LI r9=5\n\
             l1:\n AI r1=r1,1\n C cr0=r1,r9\n BT l1,cr0,0x1/lt\n\
             l2:\n AI r2=r2,2\n\
             l2b:\n LI r4=3\n C cr1=r2,r9\n BT l2,cr1,0x1/lt\n\
             out:\n PRINT r1\n PRINT r2\n PRINT r4\n RET\n",
        );
        let (l1, l2, l2b) = (BlockId::new(1), BlockId::new(2), BlockId::new(3));
        let second = [l2, l2b];
        assert!(!pass.walk_live_out(&f, &cfg, &second, l2, Reg::gpr(4)));
        let moved = f.block_mut(l2b).remove_at(0);
        f.block_mut(l2).push(moved);
        assert_exact(&pass, &f, &cfg, &second);
        assert!(
            pass.walk_live_out(&f, &cfg, &second, l2, Reg::gpr(4)),
            "r4 now crosses into l2b"
        );
        let first = [l1];
        assert_exact(&pass, &f, &cfg, &first);
        assert!(
            pass.walk_live_out(&f, &cfg, &first, l1, Reg::gpr(1)),
            "r1 flows to out"
        );
        assert!(
            pass.walk_live_out(&f, &cfg, &first, l1, Reg::gpr(9)),
            "L2 reads the bound"
        );
    }

    #[test]
    fn block_falling_through_to_exit() {
        // The last block returns: its only CFG successor is the exit
        // node, which contributes nothing live.
        let (f, cfg, pass) = liveness("func r\nA:\n LI r1=1\n LI r2=2\nB:\n PRINT r1\n RET\n");
        let (a, b) = (BlockId::new(0), BlockId::new(1));
        let scope = [a, b];
        assert_exact(&pass, &f, &cfg, &scope);
        assert!(pass.walk_live_out(&f, &cfg, &scope, a, Reg::gpr(1)));
        assert!(
            !pass.walk_live_out(&f, &cfg, &scope, a, Reg::gpr(2)),
            "r2 is never read"
        );
        assert!(!pass.walk_live_out(&f, &cfg, &scope, b, Reg::gpr(1)));
    }

    #[test]
    fn rename_to_a_register_the_pass_has_not_seen() {
        // §5.3's escape: B's `LI r3=5` clobbers r3, which is live on exit
        // from A (C reads A's value), so the definition and its local use
        // are renamed to a fresh r70, a register the pass solve has never
        // seen, and the definition moves into A.
        let (mut f, cfg, pass) = liveness(
            "func d\n\
             A:\n LI r3=1\n C cr0=r1,r2\n BT C,cr0,0x1/lt\n\
             B:\n LI r3=5\n PRINT r3\n B D\n\
             C:\n PRINT r3\n\
             D:\n RET\n",
        );
        let (a, b) = (BlockId::new(0), BlockId::new(1));
        let scope = all_blocks(&f);
        assert!(
            pass.walk_live_out(&f, &cfg, &scope, a, Reg::gpr(3)),
            "the clobber"
        );
        let fresh = Reg::gpr(70);
        let rename = |x: Reg| if x == Reg::gpr(3) { fresh } else { x };
        {
            let mut block = f.block_mut(b);
            block.inst_mut(0).op.map_defs(rename);
            block.inst_mut(1).op.map_uses(rename);
        }
        let moved = f.block_mut(b).remove_at(0);
        let at = f.block(a).len() - 2;
        f.block_mut(a).insert(at, moved);
        assert_exact(&pass, &f, &cfg, &scope);
        assert!(
            pass.walk_live_out(&f, &cfg, &scope, a, fresh),
            "the renamed value flows to B"
        );
        assert!(
            !pass.walk_live_out(&f, &cfg, &scope, b, fresh),
            "B consumes it"
        );
        assert!(
            pass.walk_live_out(&f, &cfg, &scope, a, Reg::gpr(3)),
            "A's r3 still reaches C"
        );
    }

    #[test]
    fn wide_region() {
        // 128 values defined in A and printed in its exit block, then the
        // last one renamed to a fresh register: every query stays exact.
        let mut text = String::from("func w\nA:\n");
        for r in 0..128 {
            text.push_str(&format!(" LI r{r}=1\n"));
        }
        text.push_str("B:\n");
        for r in 0..128 {
            text.push_str(&format!(" PRINT r{r}\n"));
        }
        text.push_str(" RET\n");
        let (mut f, cfg, pass) = liveness(&text);
        let (a, b) = (BlockId::new(0), BlockId::new(1));
        let scope = [a, b];
        assert_eq!(pass.live_in(b).len(), 128);
        assert_exact(&pass, &f, &cfg, &scope);
        let fresh = Reg::gpr(300);
        let rename = |x: Reg| if x == Reg::gpr(127) { fresh } else { x };
        f.block_mut(a).inst_mut(127).op.map_defs(rename);
        f.block_mut(b).inst_mut(127).op.map_uses(rename);
        assert_exact(&pass, &f, &cfg, &scope);
        assert!(pass.walk_live_out(&f, &cfg, &scope, a, fresh));
        assert!(pass.walk_live_out(&f, &cfg, &scope, a, Reg::gpr(64)));
    }
}
