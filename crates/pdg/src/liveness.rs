//! Block-level register liveness.
//!
//! Speculative scheduling (§5.3) must know which symbolic registers are
//! *live on exit* from a block: an instruction may not be moved
//! speculatively into block `A` if it writes a register live on exit from
//! `A`. The paper adds that "this type of information has to be updated
//! dynamically" as instructions move. Two views serve that:
//!
//! * [`Liveness`] solves the whole function (back edges included, so
//!   loop-carried uses keep registers alive). The global scheduler runs
//!   it once per pass; dead-code elimination, web renaming and the
//!   pressure report use it directly.
//! * [`RegionLiveness`] holds the sets of one region only: indexed by
//!   the region's own blocks and by a region-local numbering of the
//!   registers it names, seeded from the pass-level solve and repaired
//!   after every motion. Seeding and repair cost O(region), not
//!   O(function).
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
//! So the live-ins of a region's exit successors at pass start stay
//! exact for the whole pass, even when the successor heads a region
//! scheduled earlier in it. Three mechanisms rest on this: seeding every
//! region from one whole-function solve per pass (`gis-core`'s
//! `global.rs`), the parallel pass reading that solve from every worker
//! (`parallel.rs`), and the region memo keying on it (`memo.rs`).
//!
//! It is checked, not assumed. Under debug builds and `gis-core`'s
//! `SchedConfig::verify_each_pass`, the scheduler compares every region's
//! seeded and repaired sets with a full [`Liveness::compute`] on every
//! register the region names ([`RegionLiveness::mismatch_with`]); the
//! differential fuzzer (`gisc fuzz`) sets that gate on every
//! configuration. `SchedConfig::reference_hot_paths` takes the boundary
//! from a fresh whole-function solve at every seed and motion instead,
//! and `crates/check/tests/hotpath_differential.rs` holds the two paths
//! to bit-identical schedules over 200 generated functions (it also
//! compares every region's seeded and repaired sets with the
//! whole-function solve directly).

use crate::numbering::Numbering;
use gis_cfg::{Cfg, NodeId};
use gis_ir::{BlockId, BlockRef, Function, Reg, RegSet};

/// Live-in / live-out register sets per basic block of a whole function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Liveness {
    live_in: Vec<RegSet>,
    live_out: Vec<RegSet>,
}

fn summarize(block: BlockRef<'_>, uses: &mut RegSet, defs: &mut RegSet) {
    for inst in block.insts() {
        for u in inst.op.uses() {
            if !defs.contains(u) {
                uses.insert(u);
            }
        }
        for d in inst.op.defs() {
            defs.insert(d);
        }
    }
}

impl Liveness {
    /// Computes liveness for `f` (with `cfg` built from the same function).
    ///
    /// ```
    /// use gis_cfg::Cfg;
    /// use gis_pdg::Liveness;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let f = gis_ir::parse_function(
    ///     "func t\nA:\n LI r1=1\nB:\n PRINT r1\n RET\n",
    /// )?;
    /// let live = Liveness::compute(&f, &Cfg::new(&f));
    /// assert!(live.live_out(gis_ir::BlockId::new(0)).contains(gis_ir::Reg::gpr(1)));
    /// # Ok(())
    /// # }
    /// ```
    pub fn compute(f: &Function, cfg: &Cfg) -> Self {
        let n = f.num_blocks();
        let mut uses: Vec<RegSet> = vec![RegSet::new(); n];
        let mut defs: Vec<RegSet> = vec![RegSet::new(); n];
        for (bid, block) in f.blocks() {
            let i = bid.index();
            summarize(block, &mut uses[i], &mut defs[i]);
        }
        let mut live_in = uses;
        let mut live_out = vec![RegSet::new(); n];
        // Backward fixed point in descending block order. Sets only
        // grow, so the in-place unions converge to the least fixed point.
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
        Liveness { live_in, live_out }
    }

    /// Registers live on entry to `b`.
    pub fn live_in(&self, b: BlockId) -> &RegSet {
        &self.live_in[b.index()]
    }

    /// Registers live on exit from `b` (§5.3's gate for speculation).
    pub fn live_out(&self, b: BlockId) -> &RegSet {
        &self.live_out[b.index()]
    }
}

const WORD_BITS: usize = 64;

/// Scope-local liveness of one region: what the global scheduler reads
/// and repairs between motions.
///
/// Sets are bit rows indexed by the region's blocks (ascending, as
/// given to [`seed`](Self::seed)) and by a local numbering of the
/// registers the region's instructions name. The live-ins of the
/// region's exit successors are extra rows, read once from a pass-level
/// [`Liveness`] and never changed afterwards (the module docs say why
/// they cannot go stale). Each block's successor rows are resolved once
/// at seeding, so the fixed point never searches.
///
/// ```
/// use gis_cfg::Cfg;
/// use gis_ir::{BlockId, Reg};
/// use gis_pdg::{Liveness, RegionLiveness};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let f = gis_ir::parse_function(
///     "func t\nA:\n LI r1=1\nB:\n AI r2=r1,1\nC:\n PRINT r2\n RET\n",
/// )?;
/// let cfg = Cfg::new(&f);
/// let pass = Liveness::compute(&f, &cfg);
/// // A region of the first two blocks; C is its exit successor.
/// let scope = [BlockId::new(0), BlockId::new(1)];
/// let live = RegionLiveness::seed(&f, &cfg, &scope, &pass);
/// assert!(live.live_out_contains(BlockId::new(0), Reg::gpr(1)));
/// assert!(live.live_out_contains(BlockId::new(1), Reg::gpr(2)));
/// assert_eq!(live.mismatch_with(&pass), None);
/// # Ok(())
/// # }
/// ```
pub struct RegionLiveness {
    /// The scope's blocks, ascending: row `i` of every set is `blocks[i]`.
    blocks: Vec<BlockId>,
    /// Successor rows of block row `i`: `succ[succ_start[i]..succ_start[i + 1]]`,
    /// each a row of `live_in` (scope rows first, then exit rows).
    succ_start: Vec<u32>,
    succ: Vec<u32>,
    /// Local register `k` is `regs[k]`.
    regs: Vec<Reg>,
    numbering: Numbering,
    /// Words per bit row.
    words: usize,
    /// Per scope block: registers read before any write in the block.
    uses: Vec<u64>,
    /// Per scope block: registers written anywhere in the block.
    defs: Vec<u64>,
    /// Scope rows, then the fixed exit-successor rows.
    live_in: Vec<u64>,
    live_out: Vec<u64>,
    /// Reused operand buffer for summarizing.
    operands: Vec<Reg>,
}

impl RegionLiveness {
    /// Seeds the sets of the region whose blocks are `scope` (ascending):
    /// summarizes every scope block, reads the live-ins of the exit
    /// successors from `pass` (a whole-function solve whose boundary
    /// facts still hold — see the module docs), and solves the backward
    /// fixed point over the scope alone.
    pub fn seed(f: &Function, cfg: &Cfg, scope: &[BlockId], pass: &Liveness) -> Self {
        debug_assert!(scope.windows(2).all(|w| w[0] < w[1]), "scope ascending");
        let mut numbering = Numbering::take();
        numbering.begin();
        let n = scope.len();
        let mut succ_start = Vec::with_capacity(n + 1);
        let mut succ = Vec::new();
        let mut exits: Vec<BlockId> = Vec::new();
        succ_start.push(0);
        for &b in scope {
            for e in cfg.succs(NodeId::block(b)) {
                let Some(s) = e.to.as_block() else {
                    continue; // the exit node carries nothing live
                };
                let row = match scope.binary_search(&s) {
                    Ok(i) => i,
                    Err(_) => {
                        n + exits.iter().position(|&x| x == s).unwrap_or_else(|| {
                            exits.push(s);
                            exits.len() - 1
                        })
                    }
                };
                succ.push(row as u32);
            }
            succ_start.push(succ.len() as u32);
        }
        let mut live = RegionLiveness {
            blocks: scope.to_vec(),
            succ_start,
            succ,
            regs: Vec::new(),
            numbering,
            words: 1,
            uses: vec![0; n],
            defs: vec![0; n],
            live_in: vec![0; n + exits.len()],
            live_out: vec![0; n],
            operands: Vec::new(),
        };
        for i in 0..n {
            live.summarize(f, i);
        }
        let w = live.words;
        for (x, &s) in exits.iter().enumerate() {
            let boundary = pass.live_in(s);
            for (k, &r) in live.regs.iter().enumerate() {
                if boundary.contains(r) {
                    live.live_in[(n + x) * w + k / WORD_BITS] |= 1 << (k % WORD_BITS);
                }
            }
        }
        live.solve();
        live
    }

    /// Repairs the sets after one instruction moved from block `from`
    /// into block `to`, both in the scope (a §5.3 rename of the moved
    /// definition's chain, which touches only `from`, is covered too).
    ///
    /// Only `from` and `to` changed code, so only their summaries are
    /// re-derived; registers they name for the first time (fresh §5.3
    /// renames) join the numbering as dead at every exit. The scope is
    /// then re-seeded from the bottom and the fixed point re-solved.
    /// Solving from the stale sets would only ever grow them, and a use
    /// that moved *out* of a loop block can legitimately shrink liveness
    /// around the back edge.
    pub fn update_after_motion(&mut self, f: &Function, to: BlockId, from: BlockId) {
        let (t, s) = (self.row(to), self.row(from));
        self.summarize(f, t);
        if s != t {
            self.summarize(f, s);
        }
        self.solve();
    }

    /// Re-summarizes every scope block and re-solves: the repair for
    /// commits that change code in more than two blocks (duplication
    /// minting copies, the dedup fold deleting one).
    pub fn resummarize(&mut self, f: &Function) {
        for i in 0..self.blocks.len() {
            self.summarize(f, i);
        }
        self.solve();
    }

    /// Whether `r` is live on exit from scope block `b` (§5.3's gate).
    /// Only registers the region names may be asked about: the region
    /// cannot define any other, so no speculation query needs one.
    pub fn live_out_contains(&self, b: BlockId, r: Reg) -> bool {
        self.test(&self.live_out, b, r)
    }

    /// Whether `r` is live on entry to scope block `b` (same contract as
    /// [`live_out_contains`](Self::live_out_contains)).
    pub fn live_in_contains(&self, b: BlockId, r: Reg) -> bool {
        self.test(&self.live_in, b, r)
    }

    /// The scope's blocks, ascending.
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }

    /// Every register the region names, in local-number order.
    pub fn named(&self) -> &[Reg] {
        &self.regs
    }

    /// Compares every scope block's sets with a whole-function solve of
    /// the same function, on every register the region names. Returns
    /// the first disagreement, or `None` when the region's view is exact.
    pub fn mismatch_with(&self, full: &Liveness) -> Option<String> {
        let w = self.words;
        for (i, &b) in self.blocks.iter().enumerate() {
            for (k, &r) in self.regs.iter().enumerate() {
                let bit = |rows: &[u64]| (rows[i * w + k / WORD_BITS] >> (k % WORD_BITS)) & 1 != 0;
                let pairs = [
                    ("live-in", bit(&self.live_in), full.live_in(b).contains(r)),
                    (
                        "live-out",
                        bit(&self.live_out),
                        full.live_out(b).contains(r),
                    ),
                ];
                for (set, region, whole) in pairs {
                    if region != whole {
                        return Some(format!(
                            "{set} of {b} on {r}: region {region}, whole function {whole}"
                        ));
                    }
                }
            }
        }
        None
    }

    fn row(&self, b: BlockId) -> usize {
        self.blocks
            .binary_search(&b)
            .expect("block lies in the region's scope")
    }

    fn test(&self, rows: &[u64], b: BlockId, r: Reg) -> bool {
        let local = self.numbering.get(r);
        debug_assert!(local.is_some(), "{r} is not named by the region");
        let Some(k) = local else {
            return false;
        };
        (rows[self.row(b) * self.words + k / WORD_BITS] >> (k % WORD_BITS)) & 1 != 0
    }

    /// The local number of `r`, numbering it (and widening every row
    /// when the numbering outgrows them) on first sight.
    fn local(&mut self, r: Reg) -> usize {
        if let Some(k) = self.numbering.get(r) {
            return k;
        }
        let k = self.regs.len();
        self.regs.push(r);
        self.numbering.set(r, k);
        if k >= self.words * WORD_BITS {
            self.widen(self.words * 2);
        }
        k
    }

    fn widen(&mut self, words: usize) {
        let old = self.words;
        for rows in [
            &mut self.uses,
            &mut self.defs,
            &mut self.live_in,
            &mut self.live_out,
        ] {
            let mut wide = vec![0; rows.len() / old * words];
            for (dst, src) in wide.chunks_mut(words).zip(rows.chunks(old)) {
                dst[..old].copy_from_slice(src);
            }
            *rows = wide;
        }
        self.words = words;
    }

    /// Re-derives the `uses`/`defs` rows of scope row `i`.
    fn summarize(&mut self, f: &Function, i: usize) {
        let w = self.words;
        self.uses[i * w..(i + 1) * w].fill(0);
        self.defs[i * w..(i + 1) * w].fill(0);
        let mut ops = std::mem::take(&mut self.operands);
        for inst in f.block(self.blocks[i]).insts() {
            ops.clear();
            inst.op.uses_into(&mut ops);
            for &u in &ops {
                let k = self.local(u);
                let (at, bit) = (i * self.words + k / WORD_BITS, 1 << (k % WORD_BITS));
                if self.defs[at] & bit == 0 {
                    self.uses[at] |= bit;
                }
            }
            ops.clear();
            inst.op.defs_into(&mut ops);
            for &d in &ops {
                let k = self.local(d);
                self.defs[i * self.words + k / WORD_BITS] |= 1 << (k % WORD_BITS);
            }
        }
        self.operands = ops;
    }

    /// Re-seeds every scope row from its `uses` and runs the backward
    /// fixed point in descending row order, reading the exit rows as
    /// fixed boundary values.
    fn solve(&mut self) {
        let (n, w) = (self.blocks.len(), self.words);
        self.live_out.fill(0);
        self.live_in[..n * w].copy_from_slice(&self.uses);
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                let out = i * w..(i + 1) * w;
                for &s in &self.succ[self.succ_start[i] as usize..self.succ_start[i + 1] as usize] {
                    let s = s as usize * w;
                    for (dst, &src) in self.live_out[out.clone()]
                        .iter_mut()
                        .zip(&self.live_in[s..s + w])
                    {
                        changed |= src & !*dst != 0;
                        *dst |= src;
                    }
                }
                for x in out {
                    let add = self.live_out[x] & !self.defs[x];
                    changed |= add & !self.live_in[x] != 0;
                    self.live_in[x] |= add;
                }
            }
        }
    }
}

impl Drop for RegionLiveness {
    fn drop(&mut self) {
        // Hand the numbering table back for the thread's next region.
        std::mem::take(&mut self.numbering).give_back();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_ir::{parse_function, Reg};

    fn liveness(text: &str) -> (Function, Liveness) {
        let f = parse_function(text).expect("parses");
        let cfg = Cfg::new(&f);
        let l = Liveness::compute(&f, &cfg);
        (f, l)
    }

    fn all_blocks(f: &Function) -> Vec<BlockId> {
        f.block_ids().collect()
    }

    /// The region's view must agree with a fresh whole-function solve.
    fn assert_exact(live: &RegionLiveness, f: &Function) {
        let full = Liveness::compute(f, &Cfg::new(f));
        assert_eq!(live.mismatch_with(&full), None);
    }

    #[test]
    fn straight_line() {
        let (_, l) = liveness("func s\nA:\n LI r1=1\n AI r2=r1,1\nB:\n PRINT r2\n RET\n");
        let a = BlockId::new(0);
        let b = BlockId::new(1);
        assert!(l.live_out(a).contains(Reg::gpr(2)));
        assert!(
            !l.live_out(a).contains(Reg::gpr(1)),
            "r1 is consumed inside A"
        );
        assert!(l.live_in(b).contains(Reg::gpr(2)));
        assert!(l.live_out(b).is_empty());
    }

    #[test]
    fn section_5_3_diamond() {
        // The x=5 / x=3 example: x (r3) is live on exit from the join's
        // predecessors but NOT defined before the branch.
        let (_, l) = liveness(
            "func d\n\
             A:\n C cr0=r1,r2\n BT C,cr0,0x1/lt\n\
             B:\n LI r3=5\n B D\n\
             C:\n LI r3=3\n\
             D:\n PRINT r3\n RET\n",
        );
        let a = BlockId::new(0);
        assert!(
            !l.live_out(a).contains(Reg::gpr(3)),
            "x is dead on exit from A before any motion"
        );
        assert!(l.live_out(BlockId::new(1)).contains(Reg::gpr(3)));
        assert!(l.live_out(BlockId::new(2)).contains(Reg::gpr(3)));
        // The branch condition is consumed by A itself.
        assert!(l.live_in(a).contains(Reg::gpr(1)));
        assert!(!l.live_out(a).contains(Reg::cr(0)));
    }

    #[test]
    fn loop_carried_liveness() {
        // r1 is incremented each iteration: live around the back edge.
        let (_, l) = liveness(
            "func l\nA:\n LI r1=0\nB:\n AI r1=r1,1\n C cr0=r1,r9\n BT B,cr0,0x1/lt\nC:\n PRINT r1\n RET\n",
        );
        let b = BlockId::new(1);
        assert!(
            l.live_out(b).contains(Reg::gpr(1)),
            "live on the back edge and exit"
        );
        assert!(l.live_in(b).contains(Reg::gpr(1)));
        assert!(
            l.live_out(b).contains(Reg::gpr(9)),
            "n stays live around the loop"
        );
    }

    #[test]
    fn update_form_keeps_base_alive() {
        let (_, l) = liveness("func u\nA:\n LU r1,r2=a(r2,8)\nB:\n PRINT r2\n RET\n");
        let a = BlockId::new(0);
        assert!(l.live_in(a).contains(Reg::gpr(2)), "base is read");
        assert!(
            l.live_out(a).contains(Reg::gpr(2)),
            "updated base flows out"
        );
        assert!(!l.live_out(a).contains(Reg::gpr(1)), "loaded value unused");
    }

    #[test]
    fn incremental_update_matches_full_recompute() {
        // Hoist `LI r3=5` from B into A (a useful motion target shape)
        // and repair incrementally; the result must equal a fresh
        // whole-function computation.
        let mut f = parse_function(
            "func d\n\
             A:\n C cr0=r1,r2\n BT C,cr0,0x1/lt\n\
             B:\n LI r3=5\n PRINT r3\n B D\n\
             C:\n LI r3=3\n\
             D:\n PRINT r3\n RET\n",
        )
        .expect("parses");
        let cfg = Cfg::new(&f);
        let pass = Liveness::compute(&f, &cfg);
        let mut live = RegionLiveness::seed(&f, &cfg, &all_blocks(&f), &pass);
        assert_exact(&live, &f);
        let a = BlockId::new(0);
        let b = BlockId::new(1);
        let moved = f.block_mut(b).remove_at(0);
        let at = f.block(a).len() - 2; // before the compare/branch pair
        f.block_mut(a).insert(at, moved);
        live.update_after_motion(&f, a, b);
        assert_exact(&live, &f);
        assert!(live.live_out_contains(a, Reg::gpr(3)));
    }

    #[test]
    fn motion_that_empties_its_source_block() {
        // B holds a single instruction; moving it into A leaves B empty
        // (a pure fall-through). The incremental repair must cope with
        // the empty summary and still match a full recompute.
        let mut f = parse_function("func e\nA:\n LI r1=1\nB:\n AI r2=r1,1\nC:\n PRINT r2\n RET\n")
            .expect("parses");
        let cfg = Cfg::new(&f);
        let pass = Liveness::compute(&f, &cfg);
        let mut live = RegionLiveness::seed(&f, &cfg, &all_blocks(&f), &pass);
        let a = BlockId::new(0);
        let b = BlockId::new(1);
        let moved = f.block_mut(b).remove_at(0);
        f.block_mut(a).push(moved);
        assert_eq!(f.block(b).len(), 0, "source block is now empty");
        live.update_after_motion(&f, a, b);
        assert_exact(&live, &f);
        assert!(live.live_out_contains(a, Reg::gpr(2)));
        assert!(
            live.live_in_contains(b, Reg::gpr(2)),
            "r2 flows through empty B"
        );
    }

    #[test]
    fn shrinking_update_around_a_back_edge() {
        // The only use of r5 moves from the self-looping block B up
        // into the preheader A; r5 must STOP being live around the
        // back edge. A repair that solved from the stale sets would
        // keep the self-sustaining live-in/live-out cycle alive.
        let mut f = parse_function(
            "func s\n\
             A:\n LI r1=0\n\
             B:\n PRINT r5\n AI r1=r1,1\n C cr0=r1,r9\n BT B,cr0,0x1/lt\n\
             X:\n RET\n",
        )
        .expect("parses");
        let cfg = Cfg::new(&f);
        let pass = Liveness::compute(&f, &cfg);
        let a = BlockId::new(0);
        let b = BlockId::new(1);
        let mut live = RegionLiveness::seed(&f, &cfg, &[a, b], &pass);
        assert!(
            live.live_out_contains(b, Reg::gpr(5)),
            "loop-carried before"
        );
        let moved = f.block_mut(b).remove_at(0);
        f.block_mut(a).push(moved);
        live.update_after_motion(&f, a, b);
        assert_exact(&live, &f);
        assert!(
            !live.live_out_contains(b, Reg::gpr(5)),
            "r5's last use now precedes the loop"
        );
    }

    #[test]
    fn loop_region_reads_its_exit_from_the_pass() {
        // A loop region {H, T} with a back edge T→H and an exit into X,
        // which reads r3. The region never sees X's code: r3's liveness
        // around the loop comes from the pass-level boundary row alone.
        let f = parse_function(
            "func l\n\
             P:\n LI r1=0\n LI r3=7\n\
             H:\n AI r1=r1,1\n\
             T:\n C cr0=r1,r9\n BT H,cr0,0x1/lt\n\
             X:\n PRINT r3\n RET\n",
        )
        .expect("parses");
        let cfg = Cfg::new(&f);
        let pass = Liveness::compute(&f, &cfg);
        let (h, t) = (BlockId::new(1), BlockId::new(2));
        let live = RegionLiveness::seed(&f, &cfg, &[h, t], &pass);
        assert_exact(&live, &f);
        assert!(
            live.live_out_contains(t, Reg::gpr(1)),
            "carried by the back edge"
        );
        assert!(
            live.live_in_contains(h, Reg::gpr(9)),
            "bound read every trip"
        );
        assert!(
            !live.named().contains(&Reg::gpr(3)),
            "the region never names r3"
        );
    }

    #[test]
    fn exit_into_a_sibling_loop_header() {
        // Two adjacent loops: L1 = {l1} falls straight into the header
        // of L2 = {l2, l2b}, so L1's exit row is L2's header live-in.
        // Schedule L2 first — hoist `LI r4=3` from its latch into its
        // header, which changes liveness inside L2 — then seed L1 from
        // the *pass-start* solve: it must still be exact, because the
        // motion left L2's header live-ins alone.
        let mut f = parse_function(
            "func two\n\
             init:\n LI r1=0\n LI r2=0\n LI r9=5\n\
             l1:\n AI r1=r1,1\n C cr0=r1,r9\n BT l1,cr0,0x1/lt\n\
             l2:\n AI r2=r2,2\n\
             l2b:\n LI r4=3\n C cr1=r2,r9\n BT l2,cr1,0x1/lt\n\
             out:\n PRINT r1\n PRINT r2\n PRINT r4\n RET\n",
        )
        .expect("parses");
        let cfg = Cfg::new(&f);
        let pass = Liveness::compute(&f, &cfg);
        let (l1, l2, l2b) = (BlockId::new(1), BlockId::new(2), BlockId::new(3));
        let mut second = RegionLiveness::seed(&f, &cfg, &[l2, l2b], &pass);
        assert!(!second.live_out_contains(l2, Reg::gpr(4)));
        let moved = f.block_mut(l2b).remove_at(0);
        f.block_mut(l2).push(moved);
        second.update_after_motion(&f, l2, l2b);
        assert_exact(&second, &f);
        assert!(
            second.live_out_contains(l2, Reg::gpr(4)),
            "r4 now crosses into l2b"
        );
        let first = RegionLiveness::seed(&f, &cfg, &[l1], &pass);
        assert_exact(&first, &f);
        assert!(first.live_out_contains(l1, Reg::gpr(1)), "r1 flows to out");
        assert!(
            first.live_out_contains(l1, Reg::gpr(9)),
            "L2 reads the bound"
        );
    }

    #[test]
    fn block_falling_through_to_exit() {
        // The last block returns: its only CFG successor is the exit
        // node, which contributes nothing live.
        let f = parse_function("func r\nA:\n LI r1=1\n LI r2=2\nB:\n PRINT r1\n RET\n")
            .expect("parses");
        let cfg = Cfg::new(&f);
        let pass = Liveness::compute(&f, &cfg);
        let (a, b) = (BlockId::new(0), BlockId::new(1));
        let live = RegionLiveness::seed(&f, &cfg, &[a, b], &pass);
        assert_exact(&live, &f);
        assert!(live.live_out_contains(a, Reg::gpr(1)));
        assert!(!live.live_out_contains(a, Reg::gpr(2)), "r2 is never read");
        assert!(!live.live_out_contains(b, Reg::gpr(1)));
    }

    #[test]
    fn rename_introduces_a_register_the_numbering_has_not_seen() {
        // §5.3's escape: B's `LI r3=5` clobbers r3, which is live on
        // exit from A (C reads A's value), so the definition and its
        // local use are renamed to a fresh r70, an index the thread's
        // numbering table has never held, and the definition moves
        // into A.
        let mut f = parse_function(
            "func d\n\
             A:\n LI r3=1\n C cr0=r1,r2\n BT C,cr0,0x1/lt\n\
             B:\n LI r3=5\n PRINT r3\n B D\n\
             C:\n PRINT r3\n\
             D:\n RET\n",
        )
        .expect("parses");
        let cfg = Cfg::new(&f);
        let pass = Liveness::compute(&f, &cfg);
        let (a, b) = (BlockId::new(0), BlockId::new(1));
        let mut live = RegionLiveness::seed(&f, &cfg, &all_blocks(&f), &pass);
        assert!(live.live_out_contains(a, Reg::gpr(3)), "the clobber");
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
        live.update_after_motion(&f, a, b);
        assert!(live.named().contains(&fresh));
        assert_exact(&live, &f);
        assert!(
            live.live_out_contains(a, fresh),
            "the renamed value flows to B"
        );
        assert!(live.live_in_contains(b, fresh));
        assert!(
            !live.live_in_contains(a, fresh),
            "never live into the region"
        );
        assert!(
            live.live_out_contains(a, Reg::gpr(3)),
            "A's r3 still reaches C"
        );
    }

    #[test]
    fn wide_regions_grow_their_rows() {
        // 128 values defined in A and printed in its exit block: the
        // rows widen from one word to two while seeding. Renaming the
        // last one to a fresh register during a repair names a 129th,
        // and the rows widen again.
        let mut text = String::from("func w\nA:\n");
        for r in 0..128 {
            text.push_str(&format!(" LI r{r}=1\n"));
        }
        text.push_str("B:\n");
        for r in 0..128 {
            text.push_str(&format!(" PRINT r{r}\n"));
        }
        text.push_str(" RET\n");
        let mut f = parse_function(&text).expect("parses");
        let cfg = Cfg::new(&f);
        let pass = Liveness::compute(&f, &cfg);
        let (a, b) = (BlockId::new(0), BlockId::new(1));
        let mut live = RegionLiveness::seed(&f, &cfg, &[a, b], &pass);
        assert_eq!(live.named().len(), 128);
        assert_exact(&live, &f);
        let fresh = Reg::gpr(300);
        let rename = |x: Reg| if x == Reg::gpr(127) { fresh } else { x };
        f.block_mut(a).inst_mut(127).op.map_defs(rename);
        f.block_mut(b).inst_mut(127).op.map_uses(rename);
        live.update_after_motion(&f, a, b);
        assert_eq!(live.named().len(), 129);
        assert_exact(&live, &f);
        assert!(live.live_out_contains(a, fresh));
        assert!(live.live_out_contains(a, Reg::gpr(64)));
    }
}
