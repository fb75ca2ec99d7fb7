//! Parallel execution of a global scheduling pass.
//!
//! §4.1 of the paper confines every motion to one region: "instructions
//! never move out of or into a region". Regions whose subtrees are
//! disjoint therefore cannot observe each other's scheduling, and a
//! global pass over them is embarrassingly parallel. This module fans a
//! pass out over a std-only worker pool (scoped threads, no external
//! crates) while keeping the result — schedules, statistics, fresh
//! register and instruction numbering, duplication origins and the
//! trace-event stream — bit-identical to the single-threaded pass.
//!
//! Every region runs through one path, the region memo's
//! `region_outcome`, which schedules the region and records its
//! [`RegionOutcome`] unless the memo holds one already: on the calling
//! thread when there is one job or one task, and otherwise on a pool
//! worker, whose outcome the merge installs on the master.
//!
//! # Work distribution
//!
//! The pass is partitioned into *units*: maximal region subtrees whose
//! roots pass the §6 size limits (regions over the limits own nothing;
//! they only emit a skip record). Each unit is one task, holding the
//! unit's regions in schedule order, so a task never waits for another.
//! The tasks are sorted heaviest first once (longest-processing-time
//! order), and the workers claim them in that order through one shared
//! index, so a dominant loop starts first instead of last and the small
//! units pack around it.
//!
//! # How determinism is kept
//!
//! Each task runs against a private copy-on-write [`Function::snapshot`]
//! of the pre-pass function — reference-count bumps, not a deep copy —
//! and yields one [`RegionOutcome`] per region. Within a task the
//! regions run innermost first, as in the sequential pass, so a parent's
//! analyses read its children's final content. The claim order never
//! reaches the output: the merge applies every outcome to the master
//! function in the fixed sequential region order
//! ([`RegionTree::schedule_order`]), installing its block copies and
//! drawing its registers and instruction ids from the master's
//! allocators exactly when the sequential pass would have, and runs the
//! regions no task owns (the skipped ones) on the master at their turn.
//! Installing is exact because a region rewrites only its direct blocks,
//! and a task's snapshot holds the master's pre-pass content of them.
//!
//! Every task reads the same pass-level liveness: the one whole-function
//! solve of the current CFG version, whose live-ins answer a region's
//! §5.3 queries wherever a path leaves the region. A *legal* motion in
//! another task can never change the facts a task consumes — the
//! region-boundary invariant stated (and checked) in `gis_pdg`'s
//! liveness module. The differential tests in
//! `tests/parallel_determinism.rs` verify the equivalence end-to-end on
//! every workload.

use crate::config::{SchedConfig, TestHooks};
use crate::fingerprint::{write_config_fingerprint, write_machine_fingerprint};
use crate::global::{size_gate, subtree_blocks, Workspace};
use crate::memo::region_outcome;
use crate::outcome::RegionOutcome;
use crate::stats::SchedStats;
use gis_cfg::{Cfg, RegionId, RegionTree};
use gis_ir::hash::Fnv64;
use gis_ir::Function;
use gis_machine::MachineDescription;
use gis_pdg::Liveness;
use gis_trace::{NopObserver, SchedObserver};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Resolves the configured job count: `0` means one worker per available
/// CPU (falling back to 1 when the count is unknown).
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// What every region of one global pass reads besides the function.
pub(crate) struct GlobalPass<'a> {
    pub(crate) machine: &'a MachineDescription,
    pub(crate) cfg: &'a Cfg,
    pub(crate) tree: &'a RegionTree,
    /// The whole-function liveness solve of the current CFG version,
    /// which the compile's global passes share until unroll or rotate
    /// changes the CFG. Every region's §5.3 queries read the live-ins of
    /// its exit successors here, and the memo keys on the same lists:
    /// legal motions never change them, in this pass or an earlier one
    /// (the region-boundary invariant in `gis_pdg`'s liveness module).
    pub(crate) live: &'a Liveness,
    pub(crate) config: &'a SchedConfig,
    pub(crate) hooks: &'a TestHooks,
    /// [`memo_fingerprint`], hashed once per compile for the region
    /// memo's keys.
    pub(crate) fingerprint: u64,
}

/// The machine and configuration fingerprints of a compile, hashed into
/// one digest that every region memo key chains in. A compile hashes it
/// once: `inst_bound`, the only input that changes between its passes,
/// is read only for a branch profile, and a profile bypasses the memo.
pub(crate) fn memo_fingerprint(
    machine: &MachineDescription,
    config: &SchedConfig,
    inst_bound: usize,
) -> u64 {
    let mut h = Fnv64::new();
    write_machine_fingerprint(&mut h, machine);
    write_config_fingerprint(&mut h, config, inst_bound);
    h.finish()
}

/// One work item: a unit's regions, in schedule order.
struct Task {
    regions: Vec<RegionId>,
    /// Pre-pass instruction count of the regions' direct blocks — the
    /// claim priority (heaviest first).
    weight: usize,
}

/// Runs one global scheduling pass over every region of height at most
/// `max_height`, using `config.jobs` workers. With one job (or one task)
/// this is exactly the sequential region loop, in the compile's
/// workspace `ws`; with more, tasks are scheduled concurrently and
/// merged deterministically — the output is bit-identical either way.
pub(crate) fn global_pass<O: SchedObserver>(
    pass: &GlobalPass,
    f: &mut Function,
    max_height: usize,
    ws: &mut Workspace,
    stats: &mut SchedStats,
    obs: &mut O,
) {
    let (tree, config) = (pass.tree, pass.config);
    let order: Vec<RegionId> = tree
        .schedule_order()
        .into_iter()
        .filter(|r| tree.region(*r).height <= max_height)
        .collect();
    let jobs = effective_jobs(config.jobs);
    let tasks = if jobs > 1 && order.len() > 1 {
        plan_tasks(f, tree, config, &order)
    } else {
        Vec::new()
    };
    let mut outcomes = if tasks.len() > 1 {
        run_tasks(pass, f, &tasks, jobs, obs.enabled())
    } else {
        HashMap::new()
    };
    // In sequential region order: the tasks' outcomes merge
    // deterministically, and every other region runs here.
    for &rid in &order {
        match outcomes.remove(&rid) {
            Some(out) => out.apply(f, rid, stats, obs),
            None => {
                region_outcome(pass, f, rid, obs.enabled(), ws, stats, obs);
            }
        }
    }
}

/// Fans the tasks out over the pool and returns every region's outcome.
/// Workers claim tasks through one shared index, in plan order, and each
/// worker runs its tasks on one snapshot of `master`, taken before its
/// first claim, in one workspace. The claim order cannot influence any
/// result: units are disjoint, and each outcome records its register
/// and id draws relative to the allocators it started from, so the
/// merge renumbers them wherever they landed. A panicking task fails
/// the pass: the other workers drain the list, and the scope re-raises
/// the panic.
fn run_tasks(
    pass: &GlobalPass,
    master: &Function,
    tasks: &[Task],
    jobs: usize,
    tracing: bool,
) -> HashMap<RegionId, Arc<RegionOutcome>> {
    // Relaxed suffices: the index publishes no data. Each `fetch_add`
    // hands out a distinct task, and outcomes come back through `join`.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut outs = Vec::new();
        let mut fu = master.snapshot();
        let mut ws = Workspace::new(pass.machine);
        while let Some(task) = tasks.get(next.fetch_add(1, Ordering::Relaxed)) {
            for &rid in &task.regions {
                // Statistics and events are the merge's to report.
                let mut dropped = SchedStats::default();
                let out = region_outcome(
                    pass,
                    &mut fu,
                    rid,
                    tracing,
                    &mut ws,
                    &mut dropped,
                    &mut NopObserver,
                );
                outs.push((rid, out));
            }
        }
        outs
    };
    // More runnable threads than hardware can run is pure scheduler
    // overhead for CPU-bound work: cap the pool at the machine's
    // parallelism. The task plan and the deterministic merge are
    // unaffected — a single worker draining every task produces the same
    // outcomes the widest pool would. With one worker, don't spawn at
    // all: a spawned thread allocates from a non-main malloc arena, which
    // returns freed memory to the kernel far more eagerly than the main
    // thread's heap and turns the pass's allocation traffic into syscall
    // churn.
    let workers = jobs.min(tasks.len()).min(effective_jobs(0));
    if workers <= 1 {
        return work().into_iter().collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// The roots of the pass's independent units: the regions passing the
/// §6 size gates whose parent is not an in-pass region that passes them
/// too. Both gates shrink monotonically towards the leaves, so
/// eligibility is downward-closed along any ancestor chain and each
/// eligible region lies in exactly one unit; a region failing the gates
/// owns nothing — the merge runs it on the master, where it records a
/// skip.
fn unit_roots(
    f: &Function,
    tree: &RegionTree,
    config: &SchedConfig,
    order: &[RegionId],
) -> Vec<RegionId> {
    let eligible: HashMap<RegionId, bool> = order
        .iter()
        .map(|&r| (r, size_gate(f, &subtree_blocks(tree, r), config).is_none()))
        .collect();
    let is_eligible = |r: &RegionId| eligible.get(r).copied().unwrap_or(false);
    order
        .iter()
        .copied()
        .filter(|r| is_eligible(r) && !tree.region(*r).parent.is_some_and(|p| is_eligible(&p)))
        .collect()
}

/// One task per unit, heaviest first; ties keep the units' schedule
/// order. A region joins the unit of its nearest root at or above it;
/// every ancestor of a region failing the gates fails them too, so a
/// skipped region finds none.
fn plan_tasks(
    f: &Function,
    tree: &RegionTree,
    config: &SchedConfig,
    order: &[RegionId],
) -> Vec<Task> {
    let roots = unit_roots(f, tree, config, order);
    let unit: HashMap<RegionId, usize> = roots.iter().enumerate().map(|(i, &r)| (r, i)).collect();
    let mut tasks: Vec<Task> = roots
        .iter()
        .map(|_| Task {
            regions: Vec::new(),
            weight: 0,
        })
        .collect();
    for &rid in order {
        let root =
            std::iter::successors(Some(rid), |&r| tree.region(r).parent).find_map(|r| unit.get(&r));
        if let Some(&i) = root {
            tasks[i].regions.push(rid);
            tasks[i].weight += tree
                .region(rid)
                .blocks
                .iter()
                .map(|&b| f.block(b).len())
                .sum::<usize>();
        }
    }
    tasks.sort_by_key(|t| std::cmp::Reverse(t.weight));
    tasks
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::{SchedLevel, MAX_REGION_HEIGHT};
    use gis_ir::BlockId;
    use gis_trace::{Recorder, TraceEvent};

    pub(crate) fn analyses(text: &str) -> (Function, Cfg, RegionTree) {
        let f = gis_ir::parse_function(text).expect("parses");
        let cfg = Cfg::new(&f);
        let dom = gis_cfg::DomTree::dominators(&cfg);
        let loops = gis_cfg::LoopForest::new(&cfg, &dom);
        let tree = RegionTree::new(&cfg, &loops);
        (f, cfg, tree)
    }

    /// Two sibling single-block loops inside a routine body.
    pub(crate) const TWO_LOOPS: &str = "func two\n\
        init:\n LI r1=0\n LI r2=0\n LI r9=5\n\
        l1:\n AI r1=r1,1\n C cr0=r1,r9\n BT l1,cr0,0x1/lt\n\
        l2:\n AI r2=r2,2\n C cr1=r2,r9\n BT l2,cr1,0x1/lt\n\
        out:\n PRINT r1\n PRINT r2\n RET\n";

    /// A global pass over `f` with these analyses, as a compile sets it
    /// up.
    pub(crate) fn pass<'a>(
        f: &Function,
        machine: &'a MachineDescription,
        cfg: &'a Cfg,
        tree: &'a RegionTree,
        live: &'a Liveness,
        config: &'a SchedConfig,
        hooks: &'a TestHooks,
    ) -> GlobalPass<'a> {
        GlobalPass {
            machine,
            cfg,
            tree,
            live,
            config,
            hooks,
            fingerprint: memo_fingerprint(machine, config, f.inst_id_bound()),
        }
    }

    /// Runs one global pass (at the §6 height limit) traced.
    fn traced_pass(
        f0: &Function,
        cfg: &Cfg,
        tree: &RegionTree,
        config: &SchedConfig,
    ) -> (Function, SchedStats, Vec<TraceEvent>) {
        let machine = MachineDescription::rs6k();
        let mut f = f0.clone();
        let mut st = SchedStats::default();
        let mut rec = Recorder::new();
        let hooks = TestHooks::default();
        let live = Liveness::compute(f0, cfg);
        let pass = pass(f0, &machine, cfg, tree, &live, config, &hooks);
        let mut ws = Workspace::new(&machine);
        global_pass(&pass, &mut f, MAX_REGION_HEIGHT, &mut ws, &mut st, &mut rec);
        (f, st, rec.into_events())
    }

    #[test]
    fn effective_jobs_resolves_auto() {
        assert_eq!(effective_jobs(3), 3);
        assert!(effective_jobs(0) >= 1);
    }

    #[test]
    fn partition_groups_subtrees_under_eligible_roots() {
        let (f, _, tree) = analyses(TWO_LOOPS);
        let config = SchedConfig::speculative();
        let order: Vec<RegionId> = tree.schedule_order();
        // Everything fits the §6 limits, so the routine body owns both
        // loops: one unit spanning all regions.
        let roots = unit_roots(&f, &tree, &config, &order);
        assert_eq!(roots, vec![tree.root()], "rooted at the body");
        assert_eq!(subtree_blocks(&tree, roots[0]).len(), f.num_blocks());
    }

    #[test]
    fn partition_splits_under_an_oversized_root() {
        let (f, _, tree) = analyses(TWO_LOOPS);
        let mut config = SchedConfig::speculative();
        // The body (5 blocks) fails the gate; each loop (1 block) passes.
        config.max_region_blocks = 2;
        let order: Vec<RegionId> = tree.schedule_order();
        let roots = unit_roots(&f, &tree, &config, &order);
        assert_eq!(roots.len(), 2, "one unit per loop");
        assert!(
            !roots.contains(&tree.root()),
            "the body only records a skip"
        );
        let (a, b) = (
            subtree_blocks(&tree, roots[0]),
            subtree_blocks(&tree, roots[1]),
        );
        assert_eq!((a.len(), b.len()), (1, 1));
        assert!(a.iter().all(|x| !b.contains(x)), "units are disjoint");
    }

    /// A function whose body passes the gates is one unit: one task
    /// holding every region, which the pass runs in place.
    #[test]
    fn plan_keeps_small_units_whole() {
        let (f, _, tree) = analyses(TWO_LOOPS);
        let config = SchedConfig::speculative();
        let order: Vec<RegionId> = tree.schedule_order();
        let tasks = plan_tasks(&f, &tree, &config, &order);
        assert_eq!(tasks.len(), 1, "the body owns both loops");
        assert_eq!(tasks[0].regions, order, "every region, in schedule order");
        assert_eq!(tasks[0].weight, f.num_insts());
    }

    /// The skewed preset's body fails the gates, so every loop is a unit
    /// of its own, and the heavy loop (placed last) is claimed first.
    #[test]
    fn plan_runs_each_loop_as_a_task_heaviest_first() {
        let name = gis_workloads::synth::MANY_LOOPS_SKEWED_PRESET.0;
        let w = gis_workloads::synth::many_loops_skewed_preset(name).expect("preset");
        let (f, _, tree) = analyses(&w.program.function.to_string());
        let order: Vec<RegionId> = tree.schedule_order();
        let tasks = plan_tasks(&f, &tree, &SchedConfig::speculative(), &order);
        let loops: Vec<RegionId> = order
            .iter()
            .copied()
            .filter(|&r| tree.region(r).parent == Some(tree.root()))
            .collect();
        assert_eq!(tasks.len(), loops.len(), "one task per loop");
        let position: HashMap<RegionId, usize> =
            order.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        let mut seen = std::collections::HashSet::new();
        for t in &tasks {
            assert!(
                t.regions.iter().all(|r| seen.insert(*r)),
                "tasks share a region"
            );
            assert!(
                t.regions
                    .windows(2)
                    .all(|w| position[&w[0]] < position[&w[1]]),
                "regions in schedule order"
            );
        }
        assert!(!seen.contains(&tree.root()), "the gated body owns nothing");
        assert!(tasks.windows(2).all(|w| w[0].weight >= w[1].weight));
        let last = *loops
            .iter()
            .max_by_key(|&&r| tree.region(r).blocks[0])
            .expect("loops");
        assert!(
            tasks[0].regions.contains(&last),
            "the heavy loop comes first"
        );
        assert!(tasks[0].weight > 5 * tasks[1].weight, "and it is heavy");
    }

    #[test]
    fn parallel_pass_matches_sequential_pass() {
        for level in [SchedLevel::Useful, SchedLevel::Speculative] {
            let mut seq_config = SchedConfig::speculative();
            seq_config.level = level;
            seq_config.max_region_blocks = 2; // force multiple units
            let mut par_config = seq_config.clone();
            par_config.jobs = 4;

            let (f0, cfg, tree) = analyses(TWO_LOOPS);
            let (f_seq, st_seq, ev_seq) = traced_pass(&f0, &cfg, &tree, &seq_config);
            let (f_par, st_par, ev_par) = traced_pass(&f0, &cfg, &tree, &par_config);
            assert_eq!(f_seq.to_string(), f_par.to_string(), "{level:?}");
            assert_eq!(st_seq, st_par, "{level:?}");
            assert_eq!(ev_seq, ev_par, "{level:?} trace");
        }
    }

    /// Unrolls every loop of `f` once, the pipeline's preparation step,
    /// last loop first so the block ranges of the earlier ones stay put.
    fn unrolled(mut f: Function) -> Function {
        let (_, _, tree) = analyses(&f.to_string());
        let mut loops: Vec<(BlockId, BlockId)> = tree
            .regions()
            .filter(|(_, r)| r.header.is_some())
            .map(|(_, r)| (r.blocks[0], *r.blocks.last().expect("nonempty")))
            .collect();
        loops.sort_unstable();
        for (lo, hi) in loops.into_iter().rev() {
            assert!(crate::unroll_loop(&mut f, lo, hi), "loop {lo} unrolls");
        }
        f
    }

    /// The pool must reproduce the sequential pass — text, statistics,
    /// allocators, origins and the renumbered trace — at the default
    /// gates, on functions whose bodies fail them: many-loops, and
    /// unrolled dispatch-diamonds under duplication, whose loop tasks
    /// mint copies on the workers. The memo is off, so every task
    /// schedules its regions instead of applying earlier outcomes.
    #[test]
    fn stealing_plan_matches_sequential_pass() {
        let many_loops = gis_workloads::synth::many_loops_scaled(6, 11, 11);
        let diamonds = gis_workloads::synth::dispatch_diamonds(12, 23);
        let inputs = [
            (many_loops.program.function, false),
            (unrolled(diamonds.program.function), true),
        ];
        for (f0, duplication) in inputs {
            let cfg = Cfg::new(&f0);
            let dom = gis_cfg::DomTree::dominators(&cfg);
            let loops = gis_cfg::LoopForest::new(&cfg, &dom);
            let tree = RegionTree::new(&cfg, &loops);
            let seq_config = SchedConfig {
                duplication,
                region_memo: false,
                jobs: 1,
                ..SchedConfig::speculative()
            };
            let steal_config = SchedConfig {
                jobs: 4,
                ..seq_config.clone()
            };

            // Sanity: this input really runs tasks on the pool.
            let order: Vec<RegionId> = tree.schedule_order();
            let tasks = plan_tasks(&f0, &tree, &steal_config, &order);
            assert!(tasks.len() >= 2, "the plan has independent units");

            let (seq, st_seq, ev_seq) = traced_pass(&f0, &cfg, &tree, &seq_config);
            let (steal, st_steal, ev_steal) = traced_pass(&f0, &cfg, &tree, &steal_config);
            assert_eq!(seq.to_string(), steal.to_string(), "steal text");
            assert_eq!(st_seq, st_steal, "steal stats");
            assert_eq!(ev_seq, ev_steal, "steal trace");
            assert_eq!(seq.reg_counters(), steal.reg_counters());
            assert_eq!(seq.inst_id_bound(), steal.inst_id_bound());
            let origins: Vec<_> = seq.dup_origins().collect();
            assert_eq!(origins, steal.dup_origins().collect::<Vec<_>>());
            if duplication {
                assert!(st_seq.dup_copies_minted > 0, "copies were minted");
            }
        }
    }

    /// Two sibling loops, each wrapping a diamond whose join load is
    /// pinned by may-alias stores in both arms — the shape duplication
    /// moves. Forced into two units, both mint fresh ids on their
    /// workers, so the merge must insert the copies and renumber the
    /// minted ids into the sequential order.
    pub(crate) const TWO_DUP_LOOPS: &str = "func two\n\
        init:\n LI r8=7\n LI r1=0\n LI r2=0\n\
        a0:\n AI r1=r1,1\n C cr0=r1,r3\n BT a2,cr0,0x1/lt\n\
        a1:\n ST r8=>u(r9,16)\n L r6=u(r10,16)\n AI r4=r6,1\n B a3\n\
        a2:\n ST r8=>u(r9,32)\n L r6=u(r10,24)\n AI r4=r6,2\n\
        a3:\n L r5=u(r10,32)\n MUL r4=r5,r4\n C cr1=r1,r7\n BT a0,cr1,0x1/lt\n\
        b0:\n AI r2=r2,1\n C cr2=r2,r3\n BT b2,cr2,0x1/lt\n\
        b1:\n ST r8=>v(r9,16)\n L r6=v(r10,16)\n AI r4=r6,1\n B b3\n\
        b2:\n ST r8=>v(r9,32)\n L r6=v(r10,24)\n AI r4=r6,2\n\
        b3:\n L r5=v(r10,32)\n MUL r4=r5,r4\n C cr3=r2,r7\n BT b0,cr3,0x1/lt\n\
        out:\n PRINT r4\n RET\n";

    #[test]
    fn parallel_duplication_matches_sequential() {
        let mut seq_config = SchedConfig::speculative();
        seq_config.duplication = true;
        seq_config.max_region_blocks = 4; // each loop is its own unit
        let mut par_config = seq_config.clone();
        par_config.jobs = 4;

        let (f0, cfg, tree) = analyses(TWO_DUP_LOOPS);
        let (f_seq, st_seq, ev_seq) = traced_pass(&f0, &cfg, &tree, &seq_config);
        let (f_par, st_par, ev_par) = traced_pass(&f0, &cfg, &tree, &par_config);
        assert!(
            st_seq.dup_copies_minted >= 2,
            "both units duplicate: {st_seq:?}"
        );
        assert_eq!(f_seq.to_string(), f_par.to_string());
        assert_eq!(st_seq, st_par);
        assert_eq!(ev_seq, ev_par, "trace");
        let seq_origins: Vec<_> = f_seq.dup_origins().collect();
        let par_origins: Vec<_> = f_par.dup_origins().collect();
        assert_eq!(
            seq_origins, par_origins,
            "provenance renumbered identically"
        );
        assert!(!seq_origins.is_empty());
    }
}
