//! Properties of the PDG analyses on random control flow graphs:
//!
//! * the paper's practical equivalence test (identical control
//!   dependences) agrees with Definition 3 (dominance + postdominance) on
//!   every reducible region;
//! * block liveness, sparse and dense, matches a per-register
//!   brute-force path search, unreachable blocks included;
//! * §4.2 renaming leaves every use reached by the same definitions,
//!   found by a brute-force backward path search;
//! * redundant-edge elimination preserves the pairwise longest
//!   separations of the dependence graph, and the block-local reduction
//!   drops exactly the in-block edges the whole-scope reduction drops
//!   while keeping every cross-block edge.

use gis_cfg::{Cfg, DomTree, LoopForest, NodeId, RegionGraph, RegionTree};
use gis_ir::{parse_function, BlockId, Function, InstId, Reg};
use gis_machine::MachineDescription;
use gis_pdg::webs::rename_webs;
use gis_pdg::{Cspdg, DataDeps, Liveness};
use gis_workloads::rng::XorShift64Star;
use std::collections::{BTreeSet, HashMap};

/// Random function whose blocks use/define a handful of registers and
/// branch arbitrarily (possibly irreducibly — those regions are skipped
/// where reducibility is required, as the scheduler does). Besides plain
/// reads and writes, the op mix has an update-form load (its base
/// register is both read and written, a tied pair renaming must keep
/// together) and a call defining two registers, sometimes the same one
/// twice. With `jumps`, some blocks end in an unconditional branch,
/// which often leaves the blocks after them unreachable.
fn arb_function(r: &mut XorShift64Star, jumps: bool) -> Function {
    let n = 2 + r.below(7);
    let mut text = String::from("func random\n");
    for i in 0..n {
        text.push_str(&format!("B{i}:\n"));
        for _ in 0..r.below(4) {
            let use_ = r.below(4);
            let def = r.below(4);
            match r.below(6) {
                0 | 1 => text.push_str(&format!("    PRINT r{use_}\n")),
                2 | 3 => text.push_str(&format!("    AI r{def}=r{use_},1\n")),
                4 => text.push_str(&format!("    LU r{def},r{use_}=a(r{use_},8)\n")),
                _ => {
                    let def2 = if r.chance(1, 2) { def } else { r.below(4) };
                    text.push_str(&format!("    CALL ext0(r{use_})->(r{def},r{def2})\n"));
                }
            }
        }
        if i + 1 == n {
            text.push_str("    RET\n");
        } else if r.chance(1, 2) {
            let target = r.below(n);
            text.push_str(&format!("    BT B{target},cr0,0x1/lt\n"));
        } else if jumps && r.chance(1, 3) {
            let target = r.below(n);
            text.push_str(&format!("    B B{target}\n"));
        }
    }
    parse_function(&text).expect("well formed")
}

/// Runs `check` on 128 random functions with stable seeds (the
/// replacement for the previous proptest harness).
fn for_random_functions(check: impl Fn(&Function)) {
    for seed in 0..128u64 {
        check(&arb_function(&mut XorShift64Star::new(seed), false));
    }
}

#[test]
fn identical_cd_agrees_with_definition_3() {
    for_random_functions(|f| {
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(&cfg);
        let loops = LoopForest::new(&cfg, &dom);
        let tree = RegionTree::new(&cfg, &loops);
        for (rid, _) in tree.regions() {
            let Ok(g) = RegionGraph::new(&cfg, &tree, rid) else {
                continue;
            };
            let cspdg = Cspdg::new(&g);
            let blocks: Vec<NodeId> = (0..g.num_nodes())
                .map(NodeId::from_index)
                .filter(|&n| cspdg.is_block(n))
                .collect();
            for &a in &blocks {
                for &b in &blocks {
                    assert_eq!(
                        cspdg.identically_control_dependent(a, b),
                        cspdg.equivalent(a, b),
                        "region {rid}: {a} vs {b}\n{f}"
                    );
                }
            }
        }
    });
}

#[test]
fn liveness_matches_per_register_search() {
    // Half the cases jump over blocks, leaving some unreachable: both
    // solves must cover those too.
    for (seed, jumps) in (0..128u64).flat_map(|s| [(s, false), (s, true)]) {
        let f = &arb_function(&mut XorShift64Star::new(seed), jumps);
        let cfg = Cfg::new(f);
        let live = Liveness::compute(f, &cfg);
        assert_eq!(
            live,
            Liveness::compute_reference(f, &cfg),
            "sparse vs dense\n{f}"
        );
        // Oracle: r is live out of b iff some successor path reaches a
        // use of r before any redefinition.
        let regs: Vec<Reg> = f.all_regs();
        for (bid, _) in f.blocks() {
            let out = live.live_out(&cfg, bid);
            for &r in &regs {
                let expected = live_out_brute(f, &cfg, bid, r);
                assert_eq!(out.contains(r), expected, "live_out({bid}) for {r}\n{f}");
                assert_eq!(
                    live.live_out_contains(&cfg, bid, r),
                    expected,
                    "live_out_contains({bid}) for {r}\n{f}"
                );
                assert_eq!(
                    live.live_in_contains(bid, r),
                    live_in_brute(f, &cfg, bid, r),
                    "live_in({bid}) for {r}\n{f}"
                );
            }
        }
    }
}

#[test]
fn renaming_preserves_reaching_definitions() {
    // Unreachable blocks are where renaming needs special care (a use no
    // def reaches keeps its register), so half the cases jump over some.
    for (seed, jumps) in (0..128u64).flat_map(|s| [(s, false), (s, true)]) {
        let f = &arb_function(&mut XorShift64Star::new(seed), jumps);
        let cfg = Cfg::new(f);
        let mut renamed = f.clone();
        rename_webs(&mut renamed, &cfg);
        for (bid, block) in f.blocks() {
            for (pos, inst) in block.insts().enumerate() {
                let after = renamed.block(bid).inst_at(pos).op.uses();
                for (&r, &r2) in inst.op.uses().iter().zip(&after) {
                    assert_eq!(
                        reaching_defs_brute(f, &cfg, bid, pos, r),
                        reaching_defs_brute(&renamed, &cfg, bid, pos, r2),
                        "use of {r} (now {r2}) by {}\n{f}\nrenamed:\n{renamed}",
                        inst.id
                    );
                }
            }
        }
    }
}

#[test]
fn reduction_preserves_longest_separations() {
    for_random_functions(|f| {
        let machine = MachineDescription::rs6k();
        let blocks: Vec<BlockId> = f.block_ids().collect();
        // Straight-line reachability: by layout order (an arbitrary but
        // consistent acyclic orientation for the purposes of this check).
        let full = DataDeps::build(f, &machine, &blocks, |x, y| x < y);
        let mut reduced = full.clone();
        reduced.reduce();
        assert!(reduced.num_edges() <= full.num_edges());

        let sep_full = all_pairs_longest(&full);
        let sep_reduced = all_pairs_longest(&reduced);
        assert_eq!(sep_full, sep_reduced, "separations changed\n{f}");
    });
}

/// A random strict order on `n` blocks: the transitive closure of random
/// forward edges `i -> j` (`i < j`), so some pairs of blocks are
/// mutually unreachable, as the arms of a diamond are.
fn arb_reachability(r: &mut XorShift64Star, n: usize) -> Vec<Vec<bool>> {
    let mut reach = vec![vec![false; n]; n];
    for i in (0..n).rev() {
        for j in i + 1..n {
            if r.chance(1, 2) {
                let (head, tail) = reach.split_at_mut(j);
                head[i][j] = true;
                for (to, &via) in head[i].iter_mut().zip(&tail[0]) {
                    *to |= via;
                }
            }
        }
    }
    reach
}

#[test]
fn block_local_reduction_matches_the_whole_scope_one_inside_blocks() {
    let machine = MachineDescription::rs6k();
    let (mut dropped_inside, mut dropped_across) = (0, 0);
    for seed in 0..128u64 {
        let mut r = XorShift64Star::new(seed);
        let f = arb_function(&mut r, false);
        let reach = arb_reachability(&mut r, f.num_blocks());
        let blocks: Vec<BlockId> = f.block_ids().collect();
        let full = DataDeps::build(&f, &machine, &blocks, |x, y| reach[x.index()][y.index()]);
        let mut local = full.clone();
        local.reduce();
        let mut reference = full.clone();
        reference.reduce_reference();
        let (inside, across) = local.split_edges();
        let (full_inside, full_across) = full.split_edges();
        let (ref_inside, ref_across) = reference.split_edges();
        assert_eq!(inside, ref_inside, "in-block edges differ\n{f}");
        assert_eq!(across, full_across, "a cross-block edge was dropped\n{f}");
        assert_eq!(
            all_pairs_longest(&local),
            all_pairs_longest(&full),
            "separations changed\n{f}"
        );
        dropped_inside += full_inside.len() - inside.len();
        dropped_across += full_across.len() - ref_across.len();
    }
    // Both kinds of redundancy occur, so the equalities above bite.
    assert!(dropped_inside > 0, "no in-block edge was redundant");
    assert!(dropped_across > 0, "no cross-block edge was redundant");
}

/// Brute-force live-in: `b` reads `r` before writing it, or writes it
/// nowhere and `r` is live out of `b`.
fn live_in_brute(f: &Function, cfg: &Cfg, b: BlockId, r: Reg) -> bool {
    for inst in f.block(b).insts() {
        if inst.op.uses().contains(&r) {
            return true;
        }
        if inst.op.defs().contains(&r) {
            return false;
        }
    }
    live_out_brute(f, cfg, b, r)
}

/// Brute-force live-out: BFS over paths from each successor of `b`.
fn live_out_brute(f: &Function, cfg: &Cfg, b: BlockId, r: Reg) -> bool {
    let mut stack: Vec<BlockId> = cfg
        .succs(NodeId::block(b))
        .iter()
        .filter_map(|e| e.to.as_block())
        .collect();
    let mut seen: Vec<bool> = vec![false; f.num_blocks()];
    while let Some(x) = stack.pop() {
        if seen[x.index()] {
            continue;
        }
        seen[x.index()] = true;
        let mut defined = false;
        for inst in f.block(x).insts() {
            if inst.op.uses().contains(&r) {
                return true;
            }
            if inst.op.defs().contains(&r) {
                defined = true;
                break;
            }
        }
        if !defined {
            for e in cfg.succs(NodeId::block(x)) {
                if let Some(s) = e.to.as_block() {
                    stack.push(s);
                }
            }
        }
    }
    false
}

/// Brute-force reaching definitions of `r` at position `pos` of block
/// `b`: the instructions whose def of `r` reaches it along a path with
/// no other def of `r`, plus `None` when such a path leads back to the
/// function entry. Searches backward over predecessor blocks.
fn reaching_defs_brute(
    f: &Function,
    cfg: &Cfg,
    b: BlockId,
    pos: usize,
    r: Reg,
) -> BTreeSet<Option<InstId>> {
    let last_def = |x: BlockId, end: usize| {
        let insts: Vec<_> = f.block(x).insts().take(end).collect();
        insts
            .into_iter()
            .rev()
            .find(|i| i.op.defs().contains(&r))
            .map(|i| i.id)
    };
    let mut out = BTreeSet::new();
    if let Some(id) = last_def(b, pos) {
        out.insert(Some(id));
        return out;
    }
    let mut stack = vec![b];
    let mut seen: Vec<bool> = vec![false; f.num_blocks()];
    while let Some(x) = stack.pop() {
        for e in cfg.preds(NodeId::block(x)) {
            let Some(p) = e.to.as_block() else {
                out.insert(None); // entered from the function entry
                continue;
            };
            match last_def(p, usize::MAX) {
                Some(id) => {
                    out.insert(Some(id));
                }
                None if !seen[p.index()] => {
                    seen[p.index()] = true;
                    stack.push(p);
                }
                None => {}
            }
        }
    }
    out
}

/// All-pairs longest separation over the dependence graph, keyed by
/// scope position pair, computed naively (DFS with memoization is
/// unnecessary at these sizes).
fn all_pairs_longest(deps: &DataDeps) -> HashMap<(u32, u32), u64> {
    let n = deps.scope_order().len() as u32;
    let mut out = HashMap::new();
    for a in 0..n {
        // Bellman-ish relaxation from a.
        let mut dist: HashMap<u32, u64> = HashMap::new();
        dist.insert(a, 0);
        // Iterate to fixpoint; graphs are tiny and acyclic.
        let mut changed = true;
        while changed {
            changed = false;
            for x in 0..n {
                let Some(&dx) = dist.get(&x) else { continue };
                for e in deps.succs(x as usize) {
                    let cand = dx + e.sep() as u64;
                    let entry = dist.entry(e.to).or_insert(0);
                    if cand > *entry {
                        *entry = cand;
                        changed = true;
                    }
                }
            }
        }
        for (&b, &d) in &dist {
            if b != a {
                out.insert((a, b), d);
            }
        }
    }
    out
}
