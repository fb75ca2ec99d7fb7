//! Du-chain webs and register renaming.
//!
//! §4.2: "to minimize the number of anti and output data dependences ...
//! the XL compiler does certain renaming of registers, which is similar to
//! the effect of the static single assignment form". This module
//! implements the classic web-based version of that renaming: definitions
//! that reach a common use are unioned into a *web*, and each web gets its
//! own fresh symbolic register. Distinct webs that happened to share a
//! register (like the two `cr6` webs of Figure 2, `I5`/`I6` vs
//! `I12`/`I13`) stop conflicting, which is what lets Figure 6 schedule
//! `I12` speculatively into BL1 (the paper shows it renamed to `cr5`).
//!
//! Constraints honoured:
//!
//! * update-form instructions (`LU`/`STU`) tie their base register's def
//!   to its use — both stay in one web;
//! * registers live on entry to the function (inputs set up by code
//!   outside the scope) anchor their webs to the original register, and
//!   such webs are not renamed.
//!
//! # Boundary nodes
//!
//! [`rename_webs`] never materializes reaching-definition sets. Every
//! (block, live-in register) pair gets one *boundary node*, unioned with
//! whatever reaches the end of each predecessor: that block's last def
//! of the register, or its own boundary node. One union-find over def
//! sites and boundary nodes then holds the webs; the entry block's
//! boundary nodes stand for the defs made before the function. They are
//! exactly the webs of the reaching-definition formulation
//! ([`rename_webs_reference`]). A boundary link joins two things that
//! reach the same block boundary, and a register live into a block
//! reaches a use through it, so the reference unions them too.
//! Conversely, every def reaching a use travels a def-free path whose
//! block boundaries are all live, and the links along that path chain
//! the def to the use's boundary node. One case needs a guard. In
//! unreachable code a live-in register may be reached by no def at all;
//! the reference lets such a use fall back to the entry def. Its
//! boundary node would otherwise link unrelated webs through an
//! unreachable block, so boundary nodes exist only for live-ins some
//! def reaches (all of them, in reachable blocks). Fresh registers are
//! drawn in order of each web's first def in layout order, so the
//! output and the allocator counters match the reference bit for bit.
//!
//! The cost is O(instructions + Σ over CFG edges of the successor's
//! live-in count), the same order as the liveness solve it reads.

use crate::numbering::Numbering;
use crate::Liveness;
use gis_cfg::{Cfg, NodeId};
use gis_ir::{BlockId, Function, Reg, RegSet};
use std::collections::{HashMap, HashSet};

/// Statistics from a [`rename_webs`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RenameStats {
    /// Webs discovered (including unrenamed input webs).
    pub webs: usize,
    /// Webs renamed to fresh registers.
    pub renamed: usize,
}

#[derive(Debug)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }
    fn len(&self) -> usize {
        self.parent.len()
    }
    /// Adds a singleton node and returns it.
    fn push(&mut self) -> usize {
        let x = self.parent.len();
        self.parent.push(x);
        x
    }
    fn find(&mut self, mut x: usize) -> usize {
        // Path halving: iterative, so long boundary chains cannot
        // overflow the stack.
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// A definition site: either a real instruction position or the virtual
/// "defined before the function" site for a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Site {
    Inst { block: BlockId, pos: usize },
    EntryDef,
}

/// Renames register webs to fresh symbolic registers, in place.
///
/// Returns how many webs were found and renamed. The function is left
/// verified-equivalent: every use still sees exactly the definitions it
/// saw before (a property the test suite checks by differential
/// simulation at the workspace level).
///
/// Linear in the function plus its liveness (see the module docs for
/// why boundary nodes give the reference's webs); output, allocator
/// counters and statistics are bit-identical to
/// [`rename_webs_reference`].
pub fn rename_webs(f: &mut Function, cfg: &Cfg) -> RenameStats {
    let live = Liveness::compute(f, cfg);
    let (bnd_start, bnd_regs) = boundaries(f, cfg, &live);
    let bnd = |b: BlockId| bnd_start[b.index()]..bnd_start[b.index() + 1];
    // Nodes: the boundary nodes first (block `b`'s `k`-th is
    // `bnd_start[b] + k`), then every def site in layout order.
    let first_site = bnd_regs.len();
    let mut uf = UnionFind::new(first_site);
    let mut site_reg: Vec<Reg> = Vec::new();
    let mut named = RegSet::new();
    let mut table = Numbering::take();
    let (mut uses, mut defs) = (Vec::new(), Vec::new());
    // Tied bases no def reaches (unreachable code only): their webs keep
    // the register, as the entry def's web does.
    let mut entry_ties: Vec<(Reg, usize)> = Vec::new();

    // --- 1. One walk per block: the table maps each register to the node
    // reaching the current point. Tied bases join the web they consume;
    // at the end, each successor's boundary nodes join what reaches here.
    for (bid, block) in f.blocks() {
        table.begin();
        for x in bnd(bid) {
            table.set(bnd_regs[x], x);
        }
        for inst in block.insts() {
            uses.clear();
            inst.op.uses_into(&mut uses);
            defs.clear();
            inst.op.defs_into(&mut defs);
            let site = uf.len();
            for &d in &defs {
                uf.push();
                site_reg.push(d);
            }
            if inst.op.has_tied_base() {
                for &u in &uses {
                    // A register defined twice by one instruction names
                    // its last def site, as later uses see it.
                    if let Some(j) = defs.iter().rposition(|&d| d == u) {
                        match table.get(u) {
                            Some(x) => uf.union(x, site + j),
                            None => entry_ties.push((u, site + j)),
                        }
                    }
                }
            }
            for (j, &d) in defs.iter().enumerate() {
                table.set(d, site + j);
            }
            for &r in uses.iter().chain(&defs) {
                named.insert(r);
            }
        }
        for e in cfg.succs(NodeId::block(bid)) {
            if let Some(s) = e.to.as_block() {
                for x in bnd(s) {
                    if let Some(y) = table.get(bnd_regs[x]) {
                        uf.union(x, y);
                    }
                }
            }
        }
    }

    // --- 2. Webs holding an entry def keep their register: those of the
    // entry block's boundary nodes, and those of tied bases no def
    // reaches (the reference unions the latter with their entry def).
    let mut web_reg: Vec<Option<Reg>> = vec![None; uf.len()];
    for x in bnd(f.entry()) {
        web_reg[uf.find(x)] = Some(bnd_regs[x]);
    }
    for (r, site) in entry_ties {
        web_reg[uf.find(site)] = Some(r);
    }

    // --- 3. A fresh register per remaining web, in order of first def.
    let mut stats = RenameStats::default();
    for x in first_site..uf.len() {
        let root = uf.find(x);
        if web_reg[root].is_none() {
            web_reg[root] = Some(f.fresh_reg(site_reg[x - first_site].class()));
            stats.renamed += 1;
        }
    }
    // Every named register has one entry web; the rest were just renamed.
    stats.webs = named.len() + stats.renamed;
    let reg_of: Vec<Reg> = (0..uf.len())
        .map(|x| web_reg[uf.find(x)].expect("every boundary node meets a def"))
        .collect();

    // --- 4. Rewrite: the same walk, mapping each operand through the
    // node that reaches it. A use no def reaches keeps its register.
    let mut site = first_site;
    for bid in f.block_ids() {
        table.begin();
        for x in bnd(bid) {
            table.set(bnd_regs[x], x);
        }
        let mut block = f.block_mut(bid);
        for pos in 0..block.len() {
            let op = &mut block.inst_mut(pos).op;
            defs.clear();
            op.defs_into(&mut defs);
            op.map_uses(|u| table.get(u).map_or(u, |x| reg_of[x]));
            // A tied base arrives here already mapped as a use, to its
            // web's register; as in the reference, only the instruction's
            // original def names are looked up.
            op.map_defs(|d| {
                defs.iter()
                    .rposition(|&x| x == d)
                    .map_or(d, |j| reg_of[site + j])
            });
            for (j, &d) in defs.iter().enumerate() {
                table.set(d, site + j);
            }
            site += defs.len();
        }
    }
    table.give_back();
    stats
}

/// The boundary registers of every block, as one flat list: block `b`'s
/// are `regs[start[b]..start[b + 1]]`, ascending. They are its live-ins
/// that some def (or the function entry) reaches: every live-in of a
/// reachable block, since a def-free path back from it ends at a def or
/// at the entry. Unreachable blocks are reached only from each other, so
/// a forward solve over them alone finds theirs.
fn boundaries(f: &Function, cfg: &Cfg, live: &Liveness) -> (Vec<usize>, Vec<Reg>) {
    let n = f.num_blocks();
    let mut reachable = vec![false; n];
    for b in cfg
        .reverse_postorder()
        .into_iter()
        .filter_map(NodeId::as_block)
    {
        reachable[b.index()] = true;
    }
    let unreachable: Vec<BlockId> = f.block_ids().filter(|b| !reachable[b.index()]).collect();
    let mut defined = vec![RegSet::new(); n];
    for &b in &unreachable {
        for inst in f.block(b).insts() {
            for d in inst.op.defs() {
                defined[b.index()].insert(d);
            }
        }
    }
    let mut reached = vec![RegSet::new(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &unreachable {
            for &r in live.live_in(b) {
                let reaches =
                    |p: BlockId| defined[p.index()].contains(r) || reached[p.index()].contains(r);
                if !reached[b.index()].contains(r)
                    && cfg
                        .preds(NodeId::block(b))
                        .iter()
                        .any(|e| e.to.as_block().is_some_and(reaches))
                {
                    reached[b.index()].insert(r);
                    changed = true;
                }
            }
        }
    }
    let mut start = Vec::with_capacity(n + 1);
    let mut regs = Vec::new();
    for b in f.block_ids() {
        start.push(regs.len());
        if reachable[b.index()] {
            regs.extend_from_slice(live.live_in(b));
        } else {
            regs.extend(reached[b.index()].iter());
        }
    }
    start.push(regs.len());
    (start, regs)
}

/// The reaching-definitions renamer this module started with, kept
/// verbatim as the differential oracle for [`rename_webs`]: same inputs,
/// same output, same allocator counters and statistics (checked by the
/// `gis-check` test suite and used by the benchmark harness to measure
/// the speedup). It solves per-block maps of reaching def sites to a
/// fixed point, cloning them at every block on every sweep — do not
/// call it from the scheduler.
pub fn rename_webs_reference(f: &mut Function, cfg: &Cfg) -> RenameStats {
    // --- 1. Enumerate definition sites per register. ------------------
    // site ids: for each (block, pos, reg-def) one id; plus one entry-def
    // id per register (allocated lazily below, but we pre-allocate for
    // simplicity: regs is small).
    let regs: Vec<Reg> = f.all_regs();
    let reg_ix: HashMap<Reg, usize> = regs
        .iter()
        .copied()
        .enumerate()
        .map(|(i, r)| (r, i))
        .collect();

    let mut sites: Vec<(Site, Reg)> = Vec::new();
    let mut site_of: HashMap<(BlockId, usize, Reg), usize> = HashMap::new();
    for (bid, block) in f.blocks() {
        for (pos, inst) in block.insts().enumerate() {
            for d in inst.op.defs() {
                let id = sites.len();
                sites.push((Site::Inst { block: bid, pos }, d));
                site_of.insert((bid, pos, d), id);
            }
        }
    }
    let entry_site_base = sites.len();
    for &r in &regs {
        sites.push((Site::EntryDef, r));
    }
    let entry_site = |r: Reg| entry_site_base + reg_ix[&r];

    // --- 2. Reaching definitions at block boundaries. -----------------
    // in/out: per block, per register, set of site ids — restricted to
    // registers *live* across the boundary. Most registers (expression
    // temporaries) die inside their block: a use either follows an
    // in-block def (resolved by the block walks below, no boundary data
    // needed) or its register is live-in by the very definition of
    // liveness, so restricting to live registers loses nothing while
    // shrinking the propagated maps from O(all registers) to O(live
    // locals) — the difference between quadratic and near-linear
    // renaming on large functions.
    let live = Liveness::compute(f, cfg);
    type RD = Vec<HashMap<Reg, HashSet<usize>>>;
    let n = f.num_blocks();
    let mut rd_in: RD = vec![HashMap::new(); n];
    let mut rd_out: RD = vec![HashMap::new(); n];

    // Entry block starts with the virtual entry defs (of live-in
    // registers: an entry def that ever reaches a use is live-in along
    // the whole def-free path from the entry, so nothing else is ever
    // looked up).
    let entry = BlockId::new(0);
    let mut entry_env: HashMap<Reg, HashSet<usize>> = HashMap::new();
    for &r in &regs {
        if live.live_in_contains(entry, r) {
            entry_env.insert(r, HashSet::from([entry_site(r)]));
        }
    }

    // Per block transfer: last def per register, else pass-through;
    // registers dead on exit are dropped.
    let transfer = |f: &Function, bid: BlockId, inn: &HashMap<Reg, HashSet<usize>>| {
        let mut env = inn.clone();
        for (pos, inst) in f.block(bid).insts().enumerate() {
            for d in inst.op.defs() {
                env.insert(d, HashSet::from([site_of[&(bid, pos, d)]]));
            }
        }
        let out_live = live.live_out(cfg, bid);
        env.retain(|&r, _| out_live.contains(r));
        env
    };

    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            let bid = BlockId::new(i as u32);
            let mut inn: HashMap<Reg, HashSet<usize>> = if i == 0 {
                entry_env.clone()
            } else {
                HashMap::new()
            };
            for e in cfg.preds(NodeId::block(bid)) {
                if let Some(p) = e.to.as_block() {
                    for (r, ss) in &rd_out[p.index()] {
                        if live.live_in_contains(bid, *r) {
                            inn.entry(*r).or_default().extend(ss.iter().copied());
                        }
                    }
                }
            }
            let out = transfer(f, bid, &inn);
            if inn != rd_in[i] || out != rd_out[i] {
                rd_in[i] = inn;
                rd_out[i] = out;
                changed = true;
            }
        }
    }

    // --- 3. Union defs that share a use (and tied def/use pairs). -----
    let mut uf = UnionFind::new(sites.len());
    for (bid, block) in f.blocks() {
        let mut env = rd_in[bid.index()].clone();
        for (pos, inst) in block.insts().enumerate() {
            for u in inst.op.uses() {
                let reaching = env
                    .entry(u)
                    .or_insert_with(|| HashSet::from([entry_site(u)]));
                let mut iter = reaching.iter().copied();
                let first = iter.next().expect("nonempty");
                for s in iter {
                    uf.union(first, s);
                }
                // Tied base: the def this instruction makes of `u` joins
                // the web of the value it consumed.
                if inst.op.has_tied_base() && inst.op.defs().contains(&u) {
                    uf.union(first, site_of[&(bid, pos, u)]);
                }
            }
            for d in inst.op.defs() {
                env.insert(d, HashSet::from([site_of[&(bid, pos, d)]]));
            }
        }
    }

    // --- 4. Pick a register per web. -----------------------------------
    // Webs containing an entry def keep their original register.
    let mut web_reg: HashMap<usize, Reg> = HashMap::new();
    for &r in &regs {
        let root = uf.find(entry_site(r));
        web_reg.insert(root, r);
    }
    let mut stats = RenameStats::default();
    let mut roots_seen: HashSet<usize> = HashSet::new();
    for (id, site) in sites.iter().enumerate() {
        let root = uf.find(id);
        if roots_seen.insert(root) {
            stats.webs += 1;
        }
        if let std::collections::hash_map::Entry::Vacant(e) = web_reg.entry(root) {
            let fresh = f.fresh_reg(site.1.class());
            e.insert(fresh);
            stats.renamed += 1;
        }
    }

    // --- 5. Rewrite instructions. --------------------------------------
    // For each instruction: defs map via their own site's web; uses map
    // via the web of (any of) their reaching defs — all in one web by
    // construction.
    let block_ids: Vec<BlockId> = f.block_ids().collect();
    for bid in block_ids {
        let mut env = rd_in[bid.index()].clone();
        for pos in 0..f.block(bid).len() {
            let op = &f.block(bid).inst_at(pos).op;
            let uses = op.uses();
            let defs = op.defs();
            let mut use_map: HashMap<Reg, Reg> = HashMap::new();
            for u in &uses {
                let site = env
                    .get(u)
                    .and_then(|s| s.iter().next().copied())
                    .unwrap_or_else(|| entry_site(*u));
                use_map.insert(*u, web_reg[&uf.find(site)]);
            }
            let mut def_map: HashMap<Reg, Reg> = HashMap::new();
            for d in &defs {
                let site = site_of[&(bid, pos, *d)];
                def_map.insert(*d, web_reg[&uf.find(site)]);
            }
            let mut bm = f.block_mut(bid);
            let op = &mut bm.inst_mut(pos).op;
            op.map_uses(|r| use_map.get(&r).copied().unwrap_or(r));
            op.map_defs(|r| def_map.get(&r).copied().unwrap_or(r));
            for d in defs {
                env.insert(d, HashSet::from([site_of[&(bid, pos, d)]]));
            }
        }
    }

    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_ir::{parse_function, Op};

    /// Renames `text` with [`rename_webs`], checking the result against
    /// [`rename_webs_reference`]: same statistics, and the same canonical
    /// bytes, which include the fresh-register counters.
    fn renamed(text: &str) -> (Function, RenameStats) {
        let mut f = parse_function(text).expect("parses");
        let cfg = Cfg::new(&f);
        let mut reference = f.clone();
        let reference_stats = rename_webs_reference(&mut reference, &cfg);
        let stats = rename_webs(&mut f, &cfg);
        f.verify().expect("still verifies");
        assert_eq!(stats, reference_stats, "statistics diverge");
        assert!(
            gis_ir::to_canonical_bytes(&f) == gis_ir::to_canonical_bytes(&reference),
            "renamers diverge\nlinear:\n{f}\nreference:\n{reference}"
        );
        (f, stats)
    }

    fn ops_of(f: &Function, id: u32) -> &Op {
        let (bid, pos) = f.find_inst(gis_ir::InstId::new(id)).expect("exists");
        &f.block(bid).inst_at(pos).op
    }

    fn def_of(f: &Function, id: u32) -> Reg {
        let (bid, pos) = f.find_inst(gis_ir::InstId::new(id)).expect("exists");
        f.block(bid).inst_at(pos).op.defs()[0]
    }

    #[test]
    fn disjoint_webs_get_distinct_registers() {
        // Two independent uses of r1.
        let (f, stats) = renamed(
            "func w\nA:\n\
             (I0) LI r1=1\n\
             (I1) PRINT r1\n\
             (I2) LI r1=2\n\
             (I3) PRINT r1\n\
             RET\n",
        );
        assert_eq!(stats.renamed, 2);
        let d0 = def_of(&f, 0);
        let d2 = def_of(&f, 2);
        assert_ne!(d0, d2, "separate webs renamed apart");
        // Uses follow their defs.
        let use_at = |id: u32| {
            let (bid, pos) = f.find_inst(gis_ir::InstId::new(id)).unwrap();
            f.block(bid).inst_at(pos).op.uses()[0]
        };
        assert_eq!(use_at(1), d0);
        assert_eq!(use_at(3), d2);
    }

    #[test]
    fn diamond_defs_sharing_a_use_stay_together() {
        // §5.3 shape: both defs of r3 reach the print; one web.
        let (f, _) = renamed(
            "func d\n\
             A:\n C cr0=r1,r2\n BT C,cr0,0x1/lt\n\
             B:\n (I10) LI r3=5\n B D\n\
             C:\n (I12) LI r3=3\n\
             D:\n (I13) PRINT r3\n RET\n",
        );
        let d10 = def_of(&f, 10);
        let d12 = def_of(&f, 12);
        assert_eq!(d10, d12, "defs joining at a use share a web");
    }

    #[test]
    fn figure2_cr6_webs_split() {
        // The two cr6 webs (I5/I6 and I12/I13) of the paper get distinct
        // condition registers, enabling Figure 6's speculative motion.
        let f = gis_workloads::minmax::figure2_function(9);
        let mut f2 = f.clone();
        let cfg = Cfg::new(&f2);
        let stats = rename_webs(&mut f2, &cfg);
        assert!(stats.renamed > 0);
        let cr_of = |f: &Function, id: u32| def_of(f, id);
        assert_eq!(cr_of(&f, 5), cr_of(&f, 12), "same register before");
        assert_ne!(cr_of(&f2, 5), cr_of(&f2, 12), "distinct webs after");
        // The branch using each compare follows its own web.
        let branch_use = |f: &Function, id: u32| {
            let (bid, pos) = f.find_inst(gis_ir::InstId::new(id)).unwrap();
            match &f.block(bid).inst_at(pos).op {
                Op::BranchCond { cr, .. } => *cr,
                other => panic!("expected branch, got {other:?}"),
            }
        };
        assert_eq!(branch_use(&f2, 6), cr_of(&f2, 5));
        assert_eq!(branch_use(&f2, 13), cr_of(&f2, 12));
    }

    #[test]
    fn function_inputs_keep_their_register() {
        // r9 is live on entry (no def): its web must not be renamed.
        let (f, _) = renamed("func i\nA:\n (I0) AI r1=r9,1\n PRINT r1\n RET\n");
        let (bid, pos) = f.find_inst(gis_ir::InstId::new(0)).unwrap();
        assert_eq!(f.block(bid).inst_at(pos).op.uses()[0], Reg::gpr(9));
    }

    #[test]
    fn loop_carried_web_stays_whole() {
        // r1 := 0; loop { r1 := r1 + 1 } — the def in the loop reaches its
        // own use around the back edge; with the init def they form one web.
        let (f, _) = renamed(
            "func l\n\
             A:\n (I0) LI r1=0\n\
             B:\n (I1) AI r1=r1,1\n C cr0=r1,r9\n BT B,cr0,0x1/lt\n\
             C:\n PRINT r1\n RET\n",
        );
        let d0 = def_of(&f, 0);
        let d1 = def_of(&f, 1);
        assert_eq!(d0, d1, "init and loop increment share the web");
    }

    #[test]
    fn tied_base_webs_union() {
        // LU defines r2 as a function of old r2: one web spanning both,
        // even though the pointer init would otherwise be a separate def.
        let (f, _) = renamed(
            "func t\nA:\n\
             (I0) LI r2=4096\n\
             (I1) LU r1,r2=a(r2,8)\n\
             (I2) L  r3=a(r2,4)\n\
             PRINT r3\n RET\n",
        );
        let d0 = def_of(&f, 0);
        let (bid, pos) = f.find_inst(gis_ir::InstId::new(1)).unwrap();
        let lu_defs = f.block(bid).inst_at(pos).op.defs();
        assert_eq!(lu_defs[1], d0, "base def tied into the base web");
        let (bid2, pos2) = f.find_inst(gis_ir::InstId::new(2)).unwrap();
        assert_eq!(f.block(bid2).inst_at(pos2).op.uses()[0], d0);
    }
    #[test]
    fn unreached_live_in_of_an_unreachable_block_links_nothing() {
        // U follows an unconditional branch, so nothing reaches it, yet
        // r1 and cr0 are live into it (it falls into D and branches to
        // E). No def reaches U, so its uses keep their registers, and it
        // must not join the webs of I0 (reaching D) and I3 (reaching E).
        let (f, _) = renamed(
            "func u\n\
             A:\n (I0) LI r1=1\n (I1) C cr0=r1,r9\n (I2) BT D,cr0,0x1/lt\n\
             B:\n (I3) LI r1=2\n (I4) B E\n\
             U:\n (I5) BT E,cr0,0x1/lt\n\
             D:\n (I6) PRINT r1\n RET\n\
             E:\n (I8) PRINT r1\n RET\n",
        );
        assert_ne!(def_of(&f, 0), def_of(&f, 3), "two webs, not one");
        assert_eq!(ops_of(&f, 6).uses(), vec![def_of(&f, 0)]);
        assert_eq!(ops_of(&f, 8).uses(), vec![def_of(&f, 3)]);
        assert_eq!(
            ops_of(&f, 5).uses(),
            vec![Reg::cr(0)],
            "unreached use keeps its register"
        );
    }

    #[test]
    fn unreached_tied_base_keeps_its_register() {
        // In unreachable code, an update-form load whose base no def
        // reaches ties its base def to the entry web: the base keeps r2,
        // and so does the later use it reaches.
        let (f, _) = renamed(
            "func t\n\
             A:\n (I0) LI r2=8\n (I1) PRINT r2\n RET\n\
             U:\n (I3) LU r1,r2=a(r2,8)\n (I4) PRINT r2\n (I5) PRINT r1\n RET\n",
        );
        assert_eq!(ops_of(&f, 3).defs()[1], Reg::gpr(2));
        assert_eq!(ops_of(&f, 4).uses(), vec![Reg::gpr(2)]);
        assert_ne!(def_of(&f, 0), Reg::gpr(2), "the reachable web is renamed");
    }

    #[test]
    fn unreachable_predecessor_defines_into_a_reachable_join() {
        // U is unreachable but falls into the join C: its def of r1
        // reaches C's use alongside I0's, so both share one web.
        let (f, _) = renamed(
            "func j\n\
             A:\n (I0) LI r1=1\n (I1) B C\n\
             U:\n (I2) LI r1=2\n\
             C:\n (I3) PRINT r1\n RET\n",
        );
        assert_eq!(def_of(&f, 0), def_of(&f, 2));
        assert_eq!(ops_of(&f, 3).uses(), vec![def_of(&f, 0)]);
    }

    #[test]
    fn entry_block_as_a_loop_header() {
        // r1 is a function input redefined around the entry block's own
        // back edge: the entry def and I0 reach I0's use together, so the
        // web keeps r1. The compare's web is renamed.
        let (f, _) = renamed(
            "func e\n\
             A:\n (I0) AI r1=r1,1\n (I1) C cr0=r1,r9\n (I2) BT A,cr0,0x1/lt\n\
             B:\n (I3) PRINT r1\n RET\n",
        );
        assert_eq!(def_of(&f, 0), Reg::gpr(1));
        assert_eq!(ops_of(&f, 3).uses(), vec![Reg::gpr(1)]);
        assert_ne!(def_of(&f, 1), Reg::cr(0));
        assert_eq!(ops_of(&f, 2).uses(), vec![def_of(&f, 1)]);
    }

    #[test]
    fn one_instruction_naming_a_register_twice_among_its_defs() {
        // Later uses see the last of the two def sites, so both names
        // follow its web. The first site still draws a fresh register
        // that nothing uses, as the reference does: 4 webs renamed (I0
        // with I1's base, I1's first def, and one per CALL def).
        let (f, stats) = renamed(
            "func dd\nA:\n\
             (I0) LI r2=4096\n\
             (I1) LU r2,r2=a(r2,8)\n\
             (I2) PRINT r2\n\
             (I3) CALL ext0()->(r1,r1)\n\
             (I4) PRINT r1\n\
             RET\n",
        );
        let base = def_of(&f, 0);
        assert_eq!(ops_of(&f, 1).defs(), vec![base, base]);
        assert_eq!(ops_of(&f, 1).uses(), vec![base]);
        assert_eq!(ops_of(&f, 2).uses(), vec![base]);
        let call = ops_of(&f, 3).defs();
        assert_eq!(call[0], call[1]);
        assert_eq!(ops_of(&f, 4).uses(), vec![call[0]]);
        assert_eq!(stats.renamed, 4);
        assert_eq!(stats.webs, 6, "plus the entry webs of r1 and r2");
    }
}
