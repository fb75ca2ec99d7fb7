//! Structural invariants of the global scheduler (§5.1), checked on
//! random programs:
//!
//! * no duplication or loss: the instruction id multiset is unchanged;
//! * branches never move: same block, still terminating it, original
//!   branch order preserved;
//! * all motion is upward: the destination block dominates the source;
//! * motion never crosses a region boundary: source and destination are
//!   direct members of the same region;
//! * speculation is bounded by one branch (Definition 7), and stores only
//!   ever move usefully; calls and prints never move at all.

mod common;

use common::arb_program;
use gis_cfg::{Cfg, DomTree, LoopForest, NodeId, RegionGraph, RegionTree};
use gis_core::{compile, SchedConfig, SchedLevel};
use gis_ir::{BlockId, Function, InstId};
use gis_machine::MachineDescription;
use gis_pdg::Cspdg;
use gis_sim::{execute, ExecConfig, ExecError, OutputEvent};
use gis_tinyc::compile_ast;
use gis_workloads::rng::XorShift64Star;
use std::collections::HashMap;

/// Block of every instruction, plus per-block branch lists.
fn placement(f: &Function) -> HashMap<InstId, BlockId> {
    f.insts().map(|(b, i)| (i.id, b)).collect()
}

fn branch_ids(f: &Function) -> Vec<InstId> {
    f.insts()
        .filter(|(_, i)| i.op.is_branch())
        .map(|(_, i)| i.id)
        .collect()
}

fn check_invariants(original: &Function, scheduled: &Function, level: SchedLevel) {
    let before = placement(original);
    let after = placement(scheduled);

    // Same instruction set (ids are stable through scheduling).
    let mut b: Vec<InstId> = before.keys().copied().collect();
    let mut a: Vec<InstId> = after.keys().copied().collect();
    b.sort();
    a.sort();
    assert_eq!(b, a, "no instruction duplicated or dropped");

    // Branches stay put, stay terminal, and keep their order.
    assert_eq!(
        branch_ids(original),
        branch_ids(scheduled),
        "branch order preserved"
    );
    for (bid, block) in scheduled.blocks() {
        for (pos, inst) in block.insts().enumerate() {
            if inst.op.is_branch() {
                assert_eq!(pos + 1, block.len(), "branch last in {bid}");
                assert_eq!(before[&inst.id], bid, "branch did not move");
            }
        }
    }

    // Analyses over the ORIGINAL function; pure scheduling leaves the
    // CFG unchanged, so they are valid for the scheduled one too.
    let cfg = Cfg::new(original);
    let dom = DomTree::dominators(&cfg);
    let loops = LoopForest::new(&cfg, &dom);
    let tree = RegionTree::new(&cfg, &loops);
    let mut cspdg_cache: HashMap<gis_cfg::RegionId, (RegionGraph, Cspdg)> = HashMap::new();

    for (&id, &new_block) in &after {
        let old_block = before[&id];
        if new_block == old_block {
            continue;
        }
        let (_, pos) = scheduled.find_inst(id).expect("present");
        let op = &scheduled.block(new_block).inst_at(pos).op;

        assert!(
            level != SchedLevel::BasicBlockOnly,
            "{id} moved blocks at the basic-block-only level"
        );
        assert!(op.may_cross_block(), "{id} ({op:?}) may never cross blocks");

        // Upward motion: destination dominates source.
        assert!(
            dom.strictly_dominates(NodeId::block(new_block), NodeId::block(old_block)),
            "{id}: {new_block} must dominate {old_block}"
        );

        // Region discipline: both blocks directly in the same region.
        let r_new = tree.innermost(new_block);
        let r_old = tree.innermost(old_block);
        assert_eq!(r_new, r_old, "{id} crossed a region boundary");

        // Speculation bound (and store policy) via the region's CSPDG.
        let (g, cspdg) = cspdg_cache.entry(r_new).or_insert_with(|| {
            let g = RegionGraph::new(&cfg, &tree, r_new).expect("scheduled regions are reducible");
            let c = Cspdg::new(&g);
            (g, c)
        });
        let nn = g.node_of_block(new_block).expect("direct member");
        let no = g.node_of_block(old_block).expect("direct member");
        let degree = cspdg.speculation_degree(nn, no);
        assert!(
            matches!(degree, Some(0) | Some(1)),
            "{id}: speculation degree {degree:?} exceeds one branch"
        );
        if op.writes_memory() {
            assert_eq!(degree, Some(0), "{id}: stores move usefully only");
        }
        if level == SchedLevel::Useful {
            assert_eq!(degree, Some(0), "{id}: useful level never speculates");
        }
    }
}

#[test]
fn scheduler_respects_structural_invariants() {
    for seed in 0..64u64 {
        let (program, _a0, _a1) = arb_program(&mut XorShift64Star::new(seed));
        let compiled = compile_ast(&program).expect("generated programs compile");
        let machine = MachineDescription::rs6k();
        for level in [
            SchedLevel::BasicBlockOnly,
            SchedLevel::Useful,
            SchedLevel::Speculative,
        ] {
            // paper_example: no unroll/rotate, so the instruction set and
            // CFG are stable and the invariants are directly checkable.
            let mut config = SchedConfig::paper_example(level);
            config.final_bb_pass = true;
            let mut f = compiled.function.clone();
            compile(&mut f, &machine, &config)
                .unwrap_or_else(|e| panic!("seed {seed}/{level:?}: {e}"));
            check_invariants(&compiled.function, &f, level);
        }
    }
}

#[test]
fn invariants_hold_on_the_paper_example() {
    let original = gis_workloads::minmax::figure2_function(99);
    let machine = MachineDescription::rs6k();
    for level in [SchedLevel::Useful, SchedLevel::Speculative] {
        let mut f = original.clone();
        compile(&mut f, &machine, &SchedConfig::paper_example(level)).expect("compiles");
        check_invariants(&original, &f, level);
    }
}

/// A run's output, and whether it ended within the step limit.
fn run_bounded(f: &Function) -> (Vec<OutputEvent>, bool) {
    match execute(f, &[], &ExecConfig { max_steps: 10_000 }) {
        Ok(out) => (out.output, true),
        Err(ExecError::StepLimit { output, .. }) => (output, false),
        Err(e) => panic!("{e}\n{f}"),
    }
}

/// Schedules `text` at the useful and speculative levels, unroll and
/// rotate off, and checks that each schedule prints what the original
/// does. A run that never ends is compared as far as both runs got.
fn schedules_print_as_before(text: &str) {
    let original = gis_ir::parse_function(text).expect("parses");
    let (before, ends) = run_bounded(&original);
    assert!(!before.is_empty(), "the original prints");
    for level in [SchedLevel::Useful, SchedLevel::Speculative] {
        let mut config = SchedConfig::speculative();
        config.level = level;
        config.unroll = false;
        config.rotate = false;
        let mut f = original.clone();
        compile(&mut f, &MachineDescription::rs6k(), &config).expect("compiles");
        let (after, after_ends) = run_bounded(&f);
        assert_eq!(after_ends, ends, "{level:?}\n{f}");
        let n = if ends {
            before.len().max(after.len())
        } else {
            before.len().min(after.len())
        };
        let head = |v: &[OutputEvent]| v[..v.len().min(4)].to_vec();
        assert!(
            after.get(..n) == before.get(..n),
            "{level:?}: printed {:?}… where the original printed {:?}…\n{f}",
            head(&after),
            head(&before)
        );
    }
}

/// A loop whose header also branches back to itself: its back edge ends
/// an iteration, so the latch is not equivalent to the header and its
/// increment may not move up into the block that runs more often.
#[test]
fn a_header_branching_to_itself_keeps_the_latch_apart() {
    schedules_print_as_before(
        "func u\n\
         init:\n LI r9=5\n LI r14=0\n LI r15=0\n\
         u0:\n AI r14=r14,1\n C cr5=r14,r15\n BT u0,cr5,0x1/lt\n\
         u1:\n AI r15=r15,2\n C cr6=r15,r9\n BT u0,cr6,0x1/lt\n\
         out:\n PRINT r14\n RET\n",
    );
}

/// A branch either into a loop that never exits or to a block that
/// stores and returns: the loop still reaches the region's EXIT, so the
/// returning block does not postdominate the branch and its store may
/// not move above it into the loop's path.
#[test]
fn a_loop_that_never_exits_keeps_its_sibling_apart() {
    schedules_print_as_before(
        "func x\n\
         A:\n LI r3=4096\n LI r5=7\n LI r7=1\n C cr0=r6,r7\n BT S,cr0,0x1/lt\n\
         B:\n ST r5=>a(r3,0)\n PRINT r5\n RET\n\
         S:\n L r4=a(r3,0)\n PRINT r4\n B S\n",
    );
}
