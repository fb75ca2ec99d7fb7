//! Differential tests for the scheduler's hot-path rewrites, over the
//! same seeded random functions the fuzzer draws: the sweep dependence
//! builder must produce *exactly* the all-pairs reference builder's
//! graph. The sparse whole-function liveness solve must equal the dense
//! reference, and every §5.3 query a region can ask, walked against the
//! sparse solve, must match the reference. Running under the test
//! profile also arms the scheduler's own checks: every region's
//! dependence graph must equal the all-pairs builder's, every query it
//! makes must match a reference solve of the current function, and every
//! commit must leave the exits' pass-level live-ins exact, so every
//! region and every motion these compilations perform is a differential
//! check of its own. The linear §4.2 renamer must rename exactly as the
//! reaching-definitions reference does, down to the order it draws fresh
//! registers in. The ready-list list scheduler must pick exactly as the
//! full rescan does: the global passes check every pick against the
//! rescan under the test profile, and the basic-block scheduler must
//! reorder every block as the rescanning reference does.

use gis_cfg::{Cfg, DomTree, LoopForest, RegionId, RegionTree};
use gis_check::generate;
use gis_core::{compile, compile_observed, schedule_block, schedule_block_reference, SchedConfig};
use gis_ir::{to_canonical_bytes, BlockId, Function, Reg};
use gis_machine::MachineDescription;
use gis_pdg::webs::{rename_webs, rename_webs_reference};
use gis_pdg::{DataDeps, Liveness};
use gis_trace::Recorder;
use gis_workloads::rng::XorShift64Star;
use gis_workloads::{kernels, spec, synth};

const CASES: u64 = 200;

#[test]
fn sweep_dep_builder_matches_the_reference_builder() {
    let machine = MachineDescription::rs6k();
    for seed in 1..=CASES {
        let mut rng = XorShift64Star::new(seed);
        let case = generate(&mut rng);
        let f = &case.function;
        let blocks: Vec<BlockId> = f.blocks().map(|(id, _)| id).collect();
        // A whole-function scope under a total order exercises every
        // pair class (flow/anti/output/memory) the builders classify.
        let fast = DataDeps::build(f, &machine, &blocks, |x, y| x < y);
        let slow = DataDeps::build_reference(f, &machine, &blocks, |x, y| x < y);
        assert_eq!(fast, slow, "seed {seed}: builders disagree\n{}", case.text);
    }
}

/// Every block of `rid`'s subtree, ascending — a scheduling scope.
fn subtree_blocks(tree: &RegionTree, rid: RegionId) -> Vec<BlockId> {
    let mut out = Vec::new();
    let mut stack = vec![rid];
    while let Some(r) = stack.pop() {
        out.extend(tree.region(r).blocks.iter().copied());
        stack.extend(tree.region(r).children.iter().copied());
    }
    out.sort_unstable();
    out
}

#[test]
fn region_liveness_matches_the_whole_function_solve() {
    for seed in 1..=CASES {
        let mut rng = XorShift64Star::new(seed);
        let case = generate(&mut rng);
        let f = &case.function;
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(&cfg);
        let loops = LoopForest::new(&cfg, &dom);
        let tree = RegionTree::new(&cfg, &loops);
        let pass = Liveness::compute(f, &cfg);
        let reference = Liveness::compute_reference(f, &cfg);
        assert_eq!(
            pass, reference,
            "seed {seed}: the sparse solve diverged\n{}",
            case.text
        );
        // Every query a region can ask: each scope block, each register
        // the region names, walked against the pass solve.
        for rid in tree.schedule_order() {
            let scope = subtree_blocks(&tree, rid);
            let mut named: Vec<Reg> = scope
                .iter()
                .flat_map(|&b| f.block(b).insts())
                .flat_map(|i| i.op.uses().into_iter().chain(i.op.defs()))
                .collect();
            named.sort_unstable();
            named.dedup();
            for &b in &scope {
                for &r in &named {
                    assert_eq!(
                        pass.walk_live_out(f, &cfg, &scope, b, r),
                        reference.live_out_contains(&cfg, b, r),
                        "seed {seed}: {rid:?} live-out of {b} on {r} diverged\n{}",
                        case.text
                    );
                }
            }
        }
    }
}

/// Renames `f` with both renamers and compares canonical bytes, which
/// carry the fresh-register counters (so the draw order is checked
/// too), and the statistics.
fn assert_renamers_agree(what: &str, f: &Function) {
    let cfg = Cfg::new(f);
    let mut linear = f.clone();
    let linear_stats = rename_webs(&mut linear, &cfg);
    let mut reference = f.clone();
    let reference_stats = rename_webs_reference(&mut reference, &cfg);
    assert_eq!(
        linear_stats, reference_stats,
        "{what}: rename statistics diverge"
    );
    assert!(
        to_canonical_bytes(&linear) == to_canonical_bytes(&reference),
        "{what}: renamed functions diverge\nlinear:\n{linear}\nreference:\n{reference}"
    );
}

/// The non-fuzz inputs the hot-path differentials share: every
/// many-loops, skewed and dispatch preset, the §6 stand-ins and three
/// real kernels.
fn workloads() -> Vec<(&'static str, spec::Workload)> {
    let mut workloads: Vec<(&str, spec::Workload)> = Vec::new();
    for &(preset, loops, stmts, seed) in synth::MANY_LOOPS_PRESETS {
        workloads.push((preset, synth::many_loops_scaled(loops, stmts, seed)));
    }
    let (preset, loops, stmts, heavy, seed) = synth::MANY_LOOPS_SKEWED_PRESET;
    workloads.push((preset, synth::many_loops_skewed(loops, stmts, heavy, seed)));
    for &(preset, diamonds, seed) in synth::DISPATCH_DIAMONDS_PRESETS {
        workloads.push((preset, synth::dispatch_diamonds(diamonds, seed)));
    }
    for &(preset, ops, seed) in synth::DISPATCH_DECODE_PRESETS {
        workloads.push((preset, synth::dispatch_decode(ops, seed)));
    }
    for w in spec::all(64) {
        workloads.push((w.name, w));
    }
    for w in [
        kernels::idct8(6),
        kernels::fletcher(64),
        kernels::memwalk(64),
    ] {
        workloads.push((w.name, w));
    }
    workloads
}

#[test]
fn linear_rename_matches_the_reference() {
    for seed in 1..=CASES {
        let case = generate(&mut XorShift64Star::new(seed));
        assert_renamers_agree(&format!("seed {seed}\n{}", case.text), &case.function);
    }
    for (name, w) in &workloads() {
        assert_renamers_agree(name, &w.program.function);
    }
}

/// Compiles `f` without the final basic-block pass under four
/// configurations — every global pick is checked against the full
/// rescan along the way — then schedules every block of each result
/// with both basic-block schedulers and requires the same order.
fn assert_list_schedulers_agree(what: &str, f: &Function) {
    let machine = MachineDescription::rs6k();
    let mut speculative = SchedConfig::speculative();
    speculative.final_bb_pass = false;
    let mut dup = speculative.clone();
    dup.duplication = true;
    let mut branches = speculative.clone();
    branches.max_speculation_branches = 2;
    for (label, config, traced) in [
        ("speculative", &speculative, false),
        ("dup", &dup, false),
        ("2 branches", &branches, false),
        ("traced", &speculative, true),
    ] {
        let mut global = f.clone();
        if traced {
            compile_observed(&mut global, &machine, config, &mut Recorder::new())
        } else {
            compile(&mut global, &machine, config)
        }
        .unwrap_or_else(|e| panic!("{what} ({label}): {e}"));
        let mut ready = global.clone();
        let mut reference = global;
        for b in ready.block_ids().collect::<Vec<_>>() {
            let changed = schedule_block(&mut ready, &machine, b);
            let expected = schedule_block_reference(&mut reference, &machine, b);
            assert_eq!(changed, expected, "{what} ({label}): block {b} changed");
            assert!(
                ready.block(b).insts().map(|i| i.id).eq(reference.block(b).insts().map(|i| i.id)),
                "{what} ({label}): block {b} ordered differently\nready list:\n{ready}\nreference:\n{reference}"
            );
        }
    }
}

#[test]
fn ready_list_matches_the_rescan() {
    for seed in 1..=CASES {
        let case = generate(&mut XorShift64Star::new(seed));
        assert_list_schedulers_agree(&format!("seed {seed}\n{}", case.text), &case.function);
    }
    // many-loops-l would take minutes per compile here: the test
    // profile also checks every commit against a whole-function
    // liveness solve (45 ms each on -l in release builds). The hotpaths
    // bench's final-bb rows hold its basic-block scheduler to the
    // rescan; its global passes are held by the committed
    // `e2e/many-loops-l/fast` schedule hash, recorded while they agreed
    // with the reference paths.
    for (name, w) in workloads()
        .iter()
        .filter(|(name, _)| *name != "many-loops-l")
    {
        assert_list_schedulers_agree(name, &w.program.function);
    }
}
