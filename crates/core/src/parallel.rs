//! Parallel execution of a global scheduling pass.
//!
//! §4.1 of the paper confines every motion to one region: "instructions
//! never move out of or into a region". Regions whose subtrees are
//! disjoint therefore cannot observe each other's scheduling, and a
//! global pass over them is embarrassingly parallel. This module fans a
//! pass out over a std-only worker pool (scoped threads, no external
//! crates) while keeping the result — schedules, statistics, fresh
//! register numbering and the trace-event stream — bit-identical to the
//! single-threaded pass.
//!
//! # Work distribution
//!
//! The pass is first partitioned into *units*: maximal region subtrees
//! whose roots will actually be scheduled (regions over the §6 size
//! limits only emit a skip record and own nothing). A unit used to be
//! the unit of work, which serialized the pass whenever one subtree
//! dominated the function. Units are now *split* into a task DAG: any
//! child subtree whose instruction weight reaches a size-aware threshold
//! (the pass's total weight spread over twice the worker count, floored)
//! becomes its own task, and the task keeping the parent region depends
//! on it — the parent's analyses read the child's final content, exactly
//! as the sequential innermost-first order guarantees. Ready tasks are
//! claimed heaviest-first (longest-processing-time order: workers steal
//! from the heavy end of the queue), so a dominant loop starts first
//! instead of last and the small siblings pack around it.
//! [`SchedConfig::static_units`] restores the one-task-per-unit plan
//! with in-order claiming so the benchmark harness can measure the
//! difference; duplication-based motion also keeps units whole (minted
//! instruction ids would need the full renumbering machinery at every
//! dependency edge, not just at the final merge).
//!
//! # How determinism is kept
//!
//! Each task runs on a worker against a private copy-on-write
//! [`Function::snapshot`] of the pre-pass function — reference-count
//! bumps, not a deep copy. A task with dependencies first splices each
//! completed dependency into its snapshot: the dependency's covered
//! blocks are adopted ([`Function::adopt_block_from`]; tasks own
//! disjoint block sets, so adoption cannot conflict), and every register
//! the dependency chain allocated is renumbered onto the snapshot's own
//! counters first, so renames from *sibling* dependency chains — which
//! drew from identical counters and collide numerically — stay distinct
//! registers in the parent's dependence graph and liveness. The claim
//! order never reaches the output: the merge runs in the fixed
//! sequential region order ([`RegionTree::schedule_order`]):
//!
//! * each task's own block index lists are adopted from its snapshot
//!   into the master function; instruction payloads are copied back only
//!   when the task performed §5.3 renames (the sole payload mutation a
//!   scheduling pass makes — dependency splices rewrite only dependency
//!   blocks, which their own tasks adopt);
//! * registers allocated by §5.3 speculative renaming are renumbered
//!   into the order the sequential pass would have allocated them,
//!   region by region;
//! * per-region trace events are replayed and statistics accumulated in
//!   sequential region order;
//! * units in which duplication-based motion changed the instruction
//!   count (minting fresh-id copies, or deleting one in the dedup fold)
//!   are no longer slot-aligned with the master arena and cannot be
//!   adopted: their blocks are rebuilt on the master instruction by
//!   instruction, with worker-minted ids renumbered — exactly like the
//!   registers — into the sequence the sequential pass would have drawn
//!   from [`Function::fresh_inst_id`].
//!
//! Every task reads the same pass-level liveness: one whole-function
//! solve on the pre-pass function, from which each region seeds its own
//! scope-local sets. A *legal* motion in another task can never change
//! the facts a task consumes — the region-boundary invariant stated (and
//! checked) in `gis_pdg`'s liveness module. The differential tests in
//! `tests/parallel_determinism.rs` verify the equivalence end-to-end on
//! every workload.

use crate::config::SchedConfig;
use crate::global::{region_within_size_limits, schedule_region_in_pass, subtree_blocks};
use crate::memo::schedule_region_memoized;
use crate::stats::SchedStats;
use gis_cfg::{Cfg, RegionId, RegionTree};
use gis_ir::{BlockId, Function, Inst, InstId, Reg, RegClass};
use gis_machine::MachineDescription;
use gis_pdg::Liveness;
use gis_trace::{Recorder, SchedObserver, TraceEvent};
use std::collections::HashMap;
use std::sync::{Condvar, Mutex, OnceLock};

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

/// A records-only observer: buffers events when tracing is wanted,
/// otherwise stays disabled so the scheduler skips event construction.
struct MaybeRecorder(Option<Recorder>);

impl MaybeRecorder {
    fn new(tracing: bool) -> Self {
        MaybeRecorder(tracing.then(Recorder::new))
    }

    fn into_events(self) -> Vec<TraceEvent> {
        self.0.map(Recorder::into_events).unwrap_or_default()
    }
}

impl SchedObserver for MaybeRecorder {
    fn enabled(&self) -> bool {
        self.0.is_some()
    }

    fn event(&mut self, event: TraceEvent) {
        if let Some(r) = &mut self.0 {
            r.event(event);
        }
    }
}

/// One maximal scheduled subtree. `regions` lists the subtree's
/// scheduled regions in sequential order; `blocks` is the subtree's
/// block set; `root` is the subtree's topmost region.
struct Unit {
    root: RegionId,
    regions: Vec<RegionId>,
    blocks: Vec<BlockId>,
}

/// One work item of the task DAG: a connected slice of a unit's region
/// subtree.
struct Task {
    /// The task's own regions, in sequential (schedule-order) order.
    regions: Vec<RegionId>,
    /// Direct blocks of the own regions — what this task's scheduling
    /// may mutate, and what the final merge adopts from its snapshot.
    blocks: Vec<BlockId>,
    /// Tasks whose final content this task's analyses read: the split-off
    /// child subtrees. Always lower indices (children are built first).
    deps: Vec<usize>,
    /// `blocks` plus every dependency's `covered`, ascending: all blocks
    /// this task's snapshot holds final content for.
    covered: Vec<BlockId>,
    /// Pre-pass instruction count over `covered` — the claim priority
    /// (heaviest ready task first).
    weight: usize,
}

/// What scheduling one region produced on a worker.
struct RegionOutcome {
    stats: SchedStats,
    events: Vec<TraceEvent>,
    /// Task-snapshot register counters before/after this region, per
    /// class slot: the half-open ranges of snapshot-allocated registers.
    reg_from: [u32; 3],
    reg_to: [u32; 3],
    /// Task-snapshot instruction-id counter before/after this region:
    /// the half-open range of ids minted by duplication-based motion.
    inst_from: u32,
    inst_to: u32,
}

/// What running one task produced: per-region outcomes (in the task's
/// region order) plus the worker's scratch snapshot, from which
/// dependents splice and the merge adopts the task's blocks.
struct TaskOutcome {
    regions: Vec<(RegionId, RegionOutcome)>,
    scratch: Function,
    /// The scratch's final register counters. Everything in
    /// `[master base, reg_end)` was drawn on this task's snapshot —
    /// dependency renumberings first, then own renames — and must be
    /// renumbered again by any dependent splicing this task in.
    reg_end: [u32; 3],
}

const CLASSES: [RegClass; 3] = [RegClass::Gpr, RegClass::Fpr, RegClass::Cr];

fn class_slot(class: RegClass) -> usize {
    match class {
        RegClass::Gpr => 0,
        RegClass::Fpr => 1,
        RegClass::Cr => 2,
    }
}

/// Subtrees below this many instructions are never split off — the
/// snapshot and splice overhead would outweigh scheduling them inline.
const SPLIT_MIN_INSTS: usize = 48;

/// Runs one global scheduling pass over every region of height at most
/// `max_height`, using `config.jobs` workers. With one job (or one work
/// item) this is exactly the sequential region loop; with more, tasks
/// are scheduled concurrently and merged deterministically — the output
/// is bit-identical either way.
#[allow(clippy::too_many_arguments)]
pub(crate) fn global_pass<O: SchedObserver>(
    f: &mut Function,
    machine: &MachineDescription,
    cfg: &Cfg,
    tree: &RegionTree,
    config: &SchedConfig,
    max_height: usize,
    stats: &mut SchedStats,
    obs: &mut O,
) {
    let order: Vec<RegionId> = tree
        .schedule_order()
        .into_iter()
        .filter(|r| tree.region(*r).height <= max_height)
        .collect();
    if order.is_empty() {
        return;
    }
    let jobs = effective_jobs(config.jobs);
    // The pass's one whole-function liveness solve, on the pre-pass
    // function. Every region seeds its scope-local liveness from the
    // live-ins of its exit successors here, and the memo keys on the
    // same sets: legal motions never change them (the region-boundary
    // invariant in `gis_pdg`'s liveness module).
    let pass_live = Liveness::compute(f, cfg);
    stats.liveness_full += 1;
    let sequential = |f: &mut Function, stats: &mut SchedStats, obs: &mut O| {
        for &rid in &order {
            schedule_region_memoized(f, machine, cfg, tree, rid, config, stats, obs, &pass_live);
        }
    };
    if jobs <= 1 || order.len() <= 1 {
        sequential(f, stats, obs);
        return;
    }

    let (units, skip_only) = partition(f, tree, config, &order);
    let tasks = plan_tasks(f, tree, config, jobs, &order, units);
    if tasks.len() <= 1 && skip_only.is_empty() {
        sequential(f, stats, obs);
        return;
    }

    let tracing = obs.enabled();

    // Regions over the size limits never mutate the function (they fail
    // the very first gates of `schedule_region_observed`); evaluate them
    // here on the master — their skip records join the merge like any
    // other region's outcome.
    let mut outcomes: HashMap<RegionId, (usize, RegionOutcome)> = HashMap::new();
    for &rid in &skip_only {
        let before = f.reg_counters();
        let mut st = SchedStats::default();
        let mut rec = MaybeRecorder::new(tracing);
        schedule_region_in_pass(
            f, machine, cfg, tree, rid, config, &pass_live, &mut st, &mut rec,
        );
        debug_assert_eq!(f.reg_counters(), before, "skipped regions allocate nothing");
        let bound = f.inst_id_bound() as u32;
        let out = RegionOutcome {
            stats: st,
            events: rec.into_events(),
            reg_from: before,
            reg_to: before,
            inst_from: bound,
            inst_to: bound,
        };
        outcomes.insert(rid, (usize::MAX, out));
    }

    // Fan the tasks out over the pool. Ready tasks are claimed from a
    // shared queue — heaviest first unless the static plan is asked for —
    // but every task runs against its own snapshot spliced from its
    // dependencies' outcomes, so the claim order cannot influence any
    // result.
    let master: &Function = f;
    let master_regs = master.reg_counters();
    let results: Vec<OnceLock<TaskOutcome>> = tasks.iter().map(|_| OnceLock::new()).collect();
    let n = tasks.len();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indegree: Vec<usize> = vec![0; n];
    for (i, t) in tasks.iter().enumerate() {
        indegree[i] = t.deps.len();
        for &d in &t.deps {
            dependents[d].push(i);
        }
    }
    let ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let fifo = config.static_units || config.duplication;
    struct SchedState {
        ready: Vec<usize>,
        indegree: Vec<usize>,
        remaining: usize,
    }
    let state = Mutex::new(SchedState {
        ready,
        indegree,
        remaining: n,
    });
    let ready_cv = Condvar::new();
    let claim = |st: &mut SchedState| -> Option<usize> {
        if st.ready.is_empty() {
            return None;
        }
        let pos = if fifo {
            // In-order claiming: the lowest task index (units in
            // partition order, matching the pre-stealing pool).
            st.ready
                .iter()
                .enumerate()
                .min_by_key(|&(_, &t)| t)
                .map(|(p, _)| p)
                .expect("ready is non-empty")
        } else {
            // Steal from the heavy end: heaviest ready task, ties to the
            // lowest index.
            st.ready
                .iter()
                .enumerate()
                .max_by_key(|&(_, &t)| (tasks[t].weight, std::cmp::Reverse(t)))
                .map(|(p, _)| p)
                .expect("ready is non-empty")
        };
        Some(st.ready.swap_remove(pos))
    };
    let work = || loop {
        let t = {
            let mut st = state.lock().expect("no poisoned scheduler state");
            loop {
                if st.remaining == 0 {
                    return;
                }
                if let Some(t) = claim(&mut st) {
                    break t;
                }
                st = ready_cv.wait(st).expect("no poisoned scheduler state");
            }
        };
        let out = run_task(
            master,
            master_regs,
            machine,
            cfg,
            tree,
            config,
            &tasks,
            &results,
            t,
            tracing,
            &pass_live,
        );
        results[t]
            .set(out)
            .unwrap_or_else(|_| unreachable!("each task is claimed once"));
        {
            let mut st = state.lock().expect("no poisoned scheduler state");
            st.remaining -= 1;
            for &d in &dependents[t] {
                st.indegree[d] -= 1;
                if st.indegree[d] == 0 {
                    st.ready.push(d);
                }
            }
        }
        ready_cv.notify_all();
    };
    // More runnable threads than hardware can run is pure scheduler
    // overhead for CPU-bound work: cap the pool at the machine's
    // parallelism. The task plan and the deterministic merge are
    // unaffected — a single worker draining every task produces the same
    // outcome objects the widest pool would. With one worker, don't
    // spawn at all: a spawned thread allocates from a non-main malloc
    // arena, which returns freed memory to the kernel far more eagerly
    // than the main thread's heap and turns the pass's allocation
    // traffic into syscall churn.
    let workers = jobs.min(n).min(effective_jobs(0));
    if workers <= 1 {
        work();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(work);
            }
        });
    }

    // ---- Deterministic merge. -----------------------------------------
    // Adopt the tasks' own blocks back from their snapshots (disjoint
    // block sets). Payloads only changed if the task renamed (§5.3),
    // which is visible as its own regions' register ranges advancing.
    // Tasks that changed their instruction *count* (duplication minted
    // copies, or the dedup fold deleted one) broke slot alignment with
    // the master arena and cannot be adopted: they are rebuilt
    // instruction by instruction after the id replay below, so adoption
    // of the aligned tasks must come first (rebuilding grows the master
    // arena).
    let mut task_remaps: Vec<HashMap<Reg, Reg>> = (0..n).map(|_| HashMap::new()).collect();
    let mut inst_remaps: Vec<HashMap<u32, u32>> = (0..n).map(|_| HashMap::new()).collect();
    let mut rebuilds: Vec<Option<Function>> = (0..n).map(|_| None).collect();
    for (ti, slot) in results.into_iter().enumerate() {
        let mut out = slot
            .into_inner()
            .expect("every task was claimed and completed");
        let renamed = out.regions.iter().any(|(_, ro)| ro.reg_from != ro.reg_to);
        let resized = out
            .regions
            .iter()
            .any(|(_, ro)| ro.inst_from != ro.inst_to || ro.stats.dup_copies_deduped > 0);
        if !resized {
            for &b in &tasks[ti].blocks {
                f.adopt_block_from(&out.scratch, b, renamed);
            }
        }
        for (rid, ro) in out.regions.drain(..) {
            outcomes.insert(rid, (ti, ro));
        }
        if resized {
            rebuilds[ti] = Some(out.scratch);
        }
    }

    // Renumber worker-allocated registers and instruction ids into the
    // sequential allocation order: walking the regions in sequential
    // order and drawing from the master allocators reproduces exactly
    // the numbers a single-threaded pass would have handed out (tasks
    // allocate from identical snapshot counters, so their choices
    // collide across tasks and are remapped region by region).
    for &rid in &order {
        let (ti, ro) = &outcomes[&rid];
        for class in CLASSES {
            let s = class_slot(class);
            for idx in ro.reg_from[s]..ro.reg_to[s] {
                let renumbered = f.fresh_reg(class);
                if *ti != usize::MAX {
                    task_remaps[*ti].insert(Reg::new(class, idx), renumbered);
                }
            }
        }
        for idx in ro.inst_from..ro.inst_to {
            let renumbered = f.fresh_inst_id();
            if *ti != usize::MAX {
                inst_remaps[*ti].insert(idx, renumbered.index() as u32);
            }
        }
    }

    // Rebuild the tasks duplication resized: clear each block on the
    // master (freeing the old arena slots) and re-push the worker's
    // final instruction sequence with minted ids renumbered, then carry
    // the minted copies' provenance over through the same remap.
    for (ti, scratch) in rebuilds.iter().enumerate() {
        let Some(scratch) = scratch else { continue };
        let remap_id = |remap: &HashMap<u32, u32>, id: InstId| {
            remap
                .get(&(id.index() as u32))
                .map_or(id, |&n| InstId::new(n))
        };
        for &b in &tasks[ti].blocks {
            let insts: Vec<Inst> = scratch
                .block(b)
                .insts()
                .map(|i| Inst {
                    id: remap_id(&inst_remaps[ti], i.id),
                    op: i.op.clone(),
                })
                .collect();
            let mut bm = f.block_mut(b);
            bm.truncate(0);
            for inst in insts {
                bm.push(inst);
            }
        }
        for (copy, root) in scratch.dup_origins() {
            if inst_remaps[ti].contains_key(&(copy.index() as u32)) {
                f.record_dup_origin(
                    remap_id(&inst_remaps[ti], copy),
                    remap_id(&inst_remaps[ti], root),
                );
            }
        }
    }
    for (ti, remap) in task_remaps.iter().enumerate() {
        if remap.iter().all(|(from, to)| from == to) {
            continue;
        }
        for &b in &tasks[ti].blocks {
            f.map_block_insts(b, |inst| {
                inst.op.map_defs(|r| *remap.get(&r).unwrap_or(&r));
                inst.op.map_uses(|r| *remap.get(&r).unwrap_or(&r));
            });
        }
    }

    // Replay trace events and accumulate statistics in sequential region
    // order. `Renamed` events carry register spellings chosen on the
    // task snapshot, and `Duplicated` events carry copy ids minted on
    // it; rewrite both through the task's remaps first.
    let spelling: Vec<HashMap<String, String>> = task_remaps
        .iter()
        .map(|remap| {
            remap
                .iter()
                .filter(|(from, to)| from != to)
                .map(|(from, to)| (from.to_string(), to.to_string()))
                .collect()
        })
        .collect();
    for &rid in &order {
        let (ti, ro) = outcomes
            .remove(&rid)
            .expect("every scheduled region has an outcome");
        for mut e in ro.events {
            match &mut e {
                TraceEvent::Renamed { new, .. } if ti != usize::MAX => {
                    if let Some(renumbered) = spelling[ti].get(new) {
                        *new = renumbered.clone();
                    }
                }
                TraceEvent::Duplicated { copies, .. } if ti != usize::MAX => {
                    for (_, id) in copies.iter_mut() {
                        if let Some(&renumbered) = inst_remaps[ti].get(id) {
                            *id = renumbered;
                        }
                    }
                }
                _ => {}
            }
            obs.event(e);
        }
        stats.absorb(ro.stats);
    }
}

/// Splits the pass's regions into independent units plus the skip-only
/// leftovers.
///
/// A region owns its whole subtree while it passes the §6 size gates
/// (both gates shrink monotonically towards the leaves, so eligibility is
/// downward-closed along any ancestor chain). Each scheduled region is
/// assigned to its topmost size-eligible ancestor within the pass; a
/// region failing the gates itself owns nothing — `schedule_region`
/// will only record a skip for it.
fn partition(
    f: &Function,
    tree: &RegionTree,
    config: &SchedConfig,
    order: &[RegionId],
) -> (Vec<Unit>, Vec<RegionId>) {
    let eligible: HashMap<RegionId, bool> = order
        .iter()
        .map(|&r| (r, region_within_size_limits(f, tree, r, config)))
        .collect();
    let mut units: Vec<Unit> = Vec::new();
    let mut unit_of_root: HashMap<RegionId, usize> = HashMap::new();
    let mut skip_only = Vec::new();
    for &rid in order {
        if !eligible[&rid] {
            skip_only.push(rid);
            continue;
        }
        // Climb to the topmost eligible in-pass ancestor. Heights grow
        // strictly towards the root and eligibility is downward-closed,
        // so the climb cannot skip over an ineligible intermediate.
        let mut root = rid;
        while let Some(p) = tree.region(root).parent {
            if eligible.get(&p).copied().unwrap_or(false) {
                root = p;
            } else {
                break;
            }
        }
        let ui = *unit_of_root.entry(root).or_insert_with(|| {
            units.push(Unit {
                root,
                regions: Vec::new(),
                blocks: subtree_blocks(tree, root),
            });
            units.len() - 1
        });
        units[ui].regions.push(rid);
    }
    (units, skip_only)
}

/// Turns the units into the task DAG. Child subtrees at or above the
/// size-aware threshold become their own tasks (recursively), with the
/// enclosing task depending on them; everything else stays inline.
/// Duplication and [`SchedConfig::static_units`] keep units whole.
fn plan_tasks(
    f: &Function,
    tree: &RegionTree,
    config: &SchedConfig,
    jobs: usize,
    order: &[RegionId],
    units: Vec<Unit>,
) -> Vec<Task> {
    let insts_of = |blocks: &[BlockId]| -> usize { blocks.iter().map(|&b| f.block(b).len()).sum() };
    let mut tasks = Vec::new();
    if config.static_units || config.duplication {
        for u in units {
            let weight = insts_of(&u.blocks);
            tasks.push(Task {
                regions: u.regions,
                covered: u.blocks.clone(),
                blocks: u.blocks,
                deps: Vec::new(),
                weight,
            });
        }
        return tasks;
    }
    let position: HashMap<RegionId, usize> =
        order.iter().enumerate().map(|(i, &r)| (r, i)).collect();
    let total: usize = units.iter().map(|u| insts_of(&u.blocks)).sum();
    // Aim for a few tasks per worker so the heaviest-first claim can
    // pack them, without splintering small subtrees.
    let threshold = std::cmp::max(SPLIT_MIN_INSTS, total / (jobs * 2));
    for u in units {
        build_task(f, tree, &position, threshold, u.root, &mut tasks);
    }
    tasks
}

/// Builds the task for `rid`'s subtree (minus any split-off children),
/// appending it — after its dependencies — to `tasks`, and returns its
/// index.
fn build_task(
    f: &Function,
    tree: &RegionTree,
    position: &HashMap<RegionId, usize>,
    threshold: usize,
    rid: RegionId,
    tasks: &mut Vec<Task>,
) -> usize {
    let mut own = Vec::new();
    let mut deps = Vec::new();
    gather(
        f, tree, position, threshold, rid, true, &mut own, &mut deps, tasks,
    );
    own.sort_by_key(|r| position[r]);
    let mut blocks: Vec<BlockId> = own
        .iter()
        .flat_map(|&r| tree.region(r).blocks.iter().copied())
        .collect();
    blocks.sort_unstable();
    let mut covered = blocks.clone();
    for &d in &deps {
        covered.extend(tasks[d].covered.iter().copied());
    }
    covered.sort_unstable();
    let weight = covered.iter().map(|&b| f.block(b).len()).sum();
    tasks.push(Task {
        regions: own,
        blocks,
        deps,
        covered,
        weight,
    });
    tasks.len() - 1
}

/// Walks `rid`'s subtree for [`build_task`]: heavy child subtrees become
/// dependencies, the rest joins the current task's own regions.
#[allow(clippy::too_many_arguments)]
fn gather(
    f: &Function,
    tree: &RegionTree,
    position: &HashMap<RegionId, usize>,
    threshold: usize,
    rid: RegionId,
    is_root: bool,
    own: &mut Vec<RegionId>,
    deps: &mut Vec<usize>,
    tasks: &mut Vec<Task>,
) {
    if !is_root {
        let weight: usize = subtree_blocks(tree, rid)
            .iter()
            .map(|&b| f.block(b).len())
            .sum();
        if weight >= threshold {
            deps.push(build_task(f, tree, position, threshold, rid, tasks));
            return;
        }
    }
    own.push(rid);
    for &c in &tree.region(rid).children {
        gather(f, tree, position, threshold, c, false, own, deps, tasks);
    }
}

/// Runs one task: splices its completed dependencies into a private
/// copy-on-write snapshot of the pre-pass function, then schedules its
/// own regions in order.
#[allow(clippy::too_many_arguments)]
fn run_task(
    master: &Function,
    master_regs: [u32; 3],
    machine: &MachineDescription,
    cfg: &Cfg,
    tree: &RegionTree,
    config: &SchedConfig,
    tasks: &[Task],
    results: &[OnceLock<TaskOutcome>],
    t: usize,
    tracing: bool,
    pass_live: &Liveness,
) -> TaskOutcome {
    let task = &tasks[t];
    let mut fu = master.snapshot();
    for &d in &task.deps {
        let dep = &tasks[d];
        let out = results[d]
            .get()
            .expect("dependencies complete before a task becomes ready");
        // Renumber everything the dependency chain allocated onto this
        // snapshot's counters. Sibling dependencies drew from identical
        // counters, so without this their renames would collide into one
        // register name and fabricate dependences in this task's
        // analyses. The final merge never sees these numbers: they only
        // live in dependency blocks, which the dependency's own task
        // adopts from its own scratch.
        let mut remap: HashMap<Reg, Reg> = HashMap::new();
        for class in CLASSES {
            let s = class_slot(class);
            for idx in master_regs[s]..out.reg_end[s] {
                remap.insert(Reg::new(class, idx), fu.fresh_reg(class));
            }
        }
        let renamed = out.reg_end != master_regs;
        for &b in &dep.covered {
            fu.adopt_block_from(&out.scratch, b, renamed);
        }
        if remap.iter().any(|(from, to)| from != to) {
            for &b in &dep.covered {
                fu.map_block_insts(b, |inst| {
                    inst.op.map_defs(|r| *remap.get(&r).unwrap_or(&r));
                    inst.op.map_uses(|r| *remap.get(&r).unwrap_or(&r));
                });
            }
        }
    }
    let mut regions = Vec::with_capacity(task.regions.len());
    for &rid in &task.regions {
        let reg_from = fu.reg_counters();
        let inst_from = fu.inst_id_bound() as u32;
        let mut st = SchedStats::default();
        let mut rec = MaybeRecorder::new(tracing);
        schedule_region_memoized(
            &mut fu, machine, cfg, tree, rid, config, &mut st, &mut rec, pass_live,
        );
        let inst_to = fu.inst_id_bound() as u32;
        debug_assert!(
            task.deps.is_empty() || inst_from == inst_to,
            "split tasks never resize (duplication keeps units whole)"
        );
        regions.push((
            rid,
            RegionOutcome {
                stats: st,
                events: rec.into_events(),
                reg_from,
                reg_to: fu.reg_counters(),
                inst_from,
                inst_to,
            },
        ));
    }
    let reg_end = fu.reg_counters();
    TaskOutcome {
        regions,
        scratch: fu,
        reg_end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedLevel;

    fn analyses(text: &str) -> (Function, Cfg, RegionTree) {
        let f = gis_ir::parse_function(text).expect("parses");
        let cfg = Cfg::new(&f);
        let dom = gis_cfg::DomTree::dominators(&cfg);
        let loops = gis_cfg::LoopForest::new(&cfg, &dom);
        let tree = RegionTree::new(&cfg, &loops);
        (f, cfg, tree)
    }

    /// Two sibling single-block loops inside a routine body.
    const TWO_LOOPS: &str = "func two\n\
        init:\n LI r1=0\n LI r2=0\n LI r9=5\n\
        l1:\n AI r1=r1,1\n C cr0=r1,r9\n BT l1,cr0,0x1/lt\n\
        l2:\n AI r2=r2,2\n C cr1=r2,r9\n BT l2,cr1,0x1/lt\n\
        out:\n PRINT r1\n PRINT r2\n RET\n";

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
        let (units, skip_only) = partition(&f, &tree, &config, &order);
        // Everything fits the §6 limits, so the routine body owns both
        // loops: one unit spanning all regions.
        assert!(skip_only.is_empty());
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].regions.len(), 3);
        assert_eq!(units[0].blocks.len(), f.num_blocks());
        assert_eq!(
            tree.region(units[0].root).parent,
            None,
            "rooted at the body"
        );
    }

    #[test]
    fn partition_splits_under_an_oversized_root() {
        let (f, _, tree) = analyses(TWO_LOOPS);
        let mut config = SchedConfig::speculative();
        // The body (5 blocks) fails the gate; each loop (1 block) passes.
        config.max_region_blocks = 2;
        let order: Vec<RegionId> = tree.schedule_order();
        let (units, skip_only) = partition(&f, &tree, &config, &order);
        assert_eq!(units.len(), 2, "one unit per loop");
        assert_eq!(skip_only.len(), 1, "the body only records a skip");
        for u in &units {
            assert_eq!(u.regions.len(), 1);
            assert_eq!(u.blocks.len(), 1);
        }
        let (a, b) = (&units[0].blocks, &units[1].blocks);
        assert!(a.iter().all(|x| !b.contains(x)), "units are disjoint");
    }

    /// A threshold of one instruction splits every loop of TWO_LOOPS off
    /// the body task, which then depends on both.
    #[test]
    fn plan_splits_heavy_children_into_dependencies() {
        let (f, _, tree) = analyses(TWO_LOOPS);
        let config = SchedConfig::speculative();
        let order: Vec<RegionId> = tree.schedule_order();
        let (units, skip_only) = partition(&f, &tree, &config, &order);
        assert!(skip_only.is_empty());
        assert_eq!(units.len(), 1, "the body owns everything");
        let root = units[0].root;
        let mut tasks = Vec::new();
        let position: HashMap<RegionId, usize> =
            order.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        build_task(&f, &tree, &position, 1, root, &mut tasks);
        assert_eq!(tasks.len(), 3, "two loop tasks plus the body task");
        let body = tasks.last().expect("body task is built last");
        assert_eq!(body.deps.len(), 2, "the body depends on both loops");
        assert_eq!(body.regions.len(), 1);
        assert_eq!(body.covered.len(), f.num_blocks(), "covered spans the unit");
        for &d in &body.deps {
            assert_eq!(tasks[d].regions.len(), 1);
            assert!(tasks[d].deps.is_empty());
            assert!(tasks[d].weight <= body.weight, "parent covers more");
        }
        // Own block sets partition the unit's blocks.
        let mut all: Vec<BlockId> = tasks
            .iter()
            .flat_map(|t| t.blocks.iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), f.num_blocks());
    }

    /// An over-threshold plan keeps the unit whole: one task, no deps.
    #[test]
    fn plan_keeps_small_units_whole() {
        let (f, _, tree) = analyses(TWO_LOOPS);
        let config = SchedConfig::speculative();
        let order: Vec<RegionId> = tree.schedule_order();
        let (units, _) = partition(&f, &tree, &config, &order);
        let tasks = plan_tasks(&f, &tree, &config, 4, &order, units);
        assert_eq!(tasks.len(), 1, "{SPLIT_MIN_INSTS}-inst floor holds");
        assert!(tasks[0].deps.is_empty());
        assert_eq!(tasks[0].regions.len(), 3);
    }

    #[test]
    fn parallel_pass_matches_sequential_pass() {
        let machine = MachineDescription::rs6k();
        for level in [SchedLevel::Useful, SchedLevel::Speculative] {
            let mut seq_config = SchedConfig::speculative();
            seq_config.level = level;
            seq_config.max_region_blocks = 2; // force multiple units
            let mut par_config = seq_config.clone();
            par_config.jobs = 4;

            let (mut f_seq, cfg, tree) = analyses(TWO_LOOPS);
            let mut f_par = f_seq.clone();
            let mut st_seq = SchedStats::default();
            let mut st_par = SchedStats::default();
            let mut rec_seq = Recorder::new();
            let mut rec_par = Recorder::new();
            let max_h = seq_config.max_region_height;
            global_pass(
                &mut f_seq,
                &machine,
                &cfg,
                &tree,
                &seq_config,
                max_h,
                &mut st_seq,
                &mut rec_seq,
            );
            global_pass(
                &mut f_par,
                &machine,
                &cfg,
                &tree,
                &par_config,
                max_h,
                &mut st_par,
                &mut rec_par,
            );
            assert_eq!(f_seq.to_string(), f_par.to_string(), "{level:?}");
            assert_eq!(st_seq, st_par, "{level:?}");
            assert_eq!(
                rec_seq.into_events(),
                rec_par.into_events(),
                "{level:?} trace"
            );
        }
    }

    /// The split task DAG (a dependent body task over per-loop tasks) and
    /// the static plan must both reproduce the sequential pass — text,
    /// statistics and the renumbered trace — on a workload big enough to
    /// actually split.
    #[test]
    fn stealing_plan_matches_sequential_pass() {
        let machine = MachineDescription::rs6k();
        let f0 = gis_workloads::synth::many_loops_scaled(3, 11, 11)
            .program
            .function;
        let cfg = Cfg::new(&f0);
        let dom = gis_cfg::DomTree::dominators(&cfg);
        let loops = gis_cfg::LoopForest::new(&cfg, &dom);
        let tree = RegionTree::new(&cfg, &loops);
        let mut seq_config = SchedConfig::speculative();
        // Let the routine body own the whole function as one unit, so the
        // plan has a heavy subtree to split.
        seq_config.max_region_blocks = 512;
        seq_config.max_region_insts = 4096;
        seq_config.jobs = 1;
        let mut steal_config = seq_config.clone();
        steal_config.jobs = 4;
        let mut static_config = steal_config.clone();
        static_config.static_units = true;

        // Sanity: this input really exercises the split path.
        let order: Vec<RegionId> = tree.schedule_order();
        let (units, _) = partition(&f0, &tree, &seq_config, &order);
        let tasks = plan_tasks(&f0, &tree, &steal_config, 4, &order, units);
        assert!(tasks.len() > 1, "the plan splits this workload");
        assert!(
            tasks.iter().any(|t| !t.deps.is_empty()),
            "the body task depends on split-off loops"
        );

        let mut outs: Vec<(String, SchedStats, Vec<TraceEvent>)> = Vec::new();
        for config in [&seq_config, &steal_config, &static_config] {
            let mut f = f0.clone();
            let mut st = SchedStats::default();
            let mut rec = Recorder::new();
            let max_h = config.max_region_height;
            global_pass(
                &mut f, &machine, &cfg, &tree, config, max_h, &mut st, &mut rec,
            );
            outs.push((f.to_string(), st, rec.into_events()));
        }
        assert_eq!(outs[0].0, outs[1].0, "steal text");
        assert_eq!(outs[0].0, outs[2].0, "static text");
        assert_eq!(outs[0].1, outs[1].1, "steal stats");
        assert_eq!(outs[0].1, outs[2].1, "static stats");
        assert_eq!(outs[0].2, outs[1].2, "steal trace");
        assert_eq!(outs[0].2, outs[2].2, "static trace");
    }

    /// Two sibling loops, each wrapping a diamond whose join load is
    /// pinned by may-alias stores in both arms — the shape duplication
    /// moves. Forced into two units, both mint fresh ids on their
    /// workers, so the merge must rebuild (not adopt) and renumber the
    /// minted ids into the sequential order.
    const TWO_DUP_LOOPS: &str = "func two\n\
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
        let machine = MachineDescription::rs6k();
        let mut seq_config = SchedConfig::speculative();
        seq_config.duplication = true;
        seq_config.max_region_blocks = 4; // each loop is its own unit
        let mut par_config = seq_config.clone();
        par_config.jobs = 4;

        let (mut f_seq, cfg, tree) = analyses(TWO_DUP_LOOPS);
        let mut f_par = f_seq.clone();
        let mut st_seq = SchedStats::default();
        let mut st_par = SchedStats::default();
        let mut rec_seq = Recorder::new();
        let mut rec_par = Recorder::new();
        let max_h = seq_config.max_region_height;
        global_pass(
            &mut f_seq,
            &machine,
            &cfg,
            &tree,
            &seq_config,
            max_h,
            &mut st_seq,
            &mut rec_seq,
        );
        global_pass(
            &mut f_par,
            &machine,
            &cfg,
            &tree,
            &par_config,
            max_h,
            &mut st_par,
            &mut rec_par,
        );
        assert!(
            st_seq.dup_copies_minted >= 2,
            "both units duplicate: {st_seq:?}"
        );
        assert_eq!(f_seq.to_string(), f_par.to_string());
        assert_eq!(st_seq, st_par);
        assert_eq!(rec_seq.into_events(), rec_par.into_events(), "trace");
        let seq_origins: Vec<_> = f_seq.dup_origins().collect();
        let par_origins: Vec<_> = f_par.dup_origins().collect();
        assert_eq!(
            seq_origins, par_origins,
            "provenance renumbered identically"
        );
        assert!(!seq_origins.is_empty());
    }
}
