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
//! # Work distribution
//!
//! The pass is first partitioned into *units*: maximal region subtrees
//! whose roots pass the §6 size limits (regions over the limits own
//! nothing; they only emit a skip record). Units are *split* into a task
//! DAG: any child subtree whose instruction weight reaches a size-aware
//! threshold (the pass's total weight spread over twice the worker
//! count, floored) becomes its own task, and the task keeping the parent
//! region depends on it — the parent's analyses read the child's final
//! content, exactly as the sequential innermost-first order guarantees.
//! Ready tasks are claimed heaviest-first (longest-processing-time
//! order: workers steal from the heavy end of the queue), so a dominant
//! loop starts first instead of last and the small siblings pack around
//! it.
//!
//! # How determinism is kept
//!
//! Each task runs against a private copy-on-write [`Function::snapshot`]
//! of the pre-pass function — reference-count bumps, not a deep copy —
//! and yields one [`RegionOutcome`] per own region. A task with
//! dependencies first applies every outcome of its dependency subtrees
//! to its snapshot; apply draws their registers and instruction ids
//! from the snapshot's own allocators, so renames and copies from
//! sibling chains, which drew identical numbers, stay distinct. The
//! claim order never reaches the output: the merge applies every outcome
//! to the master function in the fixed sequential region order
//! ([`RegionTree::schedule_order`]), drawing each region's counts from
//! the master's allocators exactly when the sequential pass would have,
//! and runs the regions no task owns (the skipped ones) on the master at
//! their turn.
//!
//! Every task reads the same pass-level liveness: one whole-function
//! solve on the pre-pass function, whose live-ins answer a region's
//! §5.3 queries wherever a path leaves the region. A *legal* motion in
//! another task can never change the facts a task consumes — the
//! region-boundary invariant stated (and checked) in `gis_pdg`'s
//! liveness module. The differential tests in
//! `tests/parallel_determinism.rs` verify the equivalence end-to-end on
//! every workload.

use crate::config::{SchedConfig, TestHooks};
use crate::global::{size_gate, subtree_blocks};
use crate::memo::{memo_eligible, region_outcome};
use crate::outcome::RegionOutcome;
use crate::stats::SchedStats;
use gis_cfg::{Cfg, RegionId, RegionTree};
use gis_ir::{BlockId, Function};
use gis_machine::MachineDescription;
use gis_pdg::Liveness;
use gis_trace::{NopObserver, SchedObserver};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

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
    pub(crate) config: &'a SchedConfig,
    pub(crate) hooks: &'a TestHooks,
    /// The pass's one whole-function liveness solve, on the pre-pass
    /// function. Every region's §5.3 queries read the live-ins of its
    /// exit successors here, and the memo keys on the same lists: legal
    /// motions never change them (the region-boundary invariant in
    /// `gis_pdg`'s liveness module).
    pub(crate) live: Liveness,
}

impl GlobalPass<'_> {
    /// Schedules region `rid` of `f` on the calling thread, through the
    /// memo when the configuration allows. Nothing else reads an outcome
    /// here, so none is recorded without the memo.
    fn schedule_memoized<O: SchedObserver>(
        &self,
        f: &mut Function,
        rid: RegionId,
        stats: &mut SchedStats,
        obs: &mut O,
    ) {
        if memo_eligible(self.config, self.hooks) {
            region_outcome(self, f, rid, obs.enabled(), stats, obs);
        } else {
            self.schedule(f, rid, stats, obs);
        }
    }
}

/// One work item of the task DAG: a connected slice of a unit's region
/// subtree.
struct Task {
    /// The task's own regions, in sequential (schedule-order) order.
    regions: Vec<RegionId>,
    /// Tasks whose final content this task's analyses read: the split-off
    /// child subtrees. Always lower indices (children are built first).
    deps: Vec<usize>,
    /// Pre-pass instruction count of the own regions' direct blocks and
    /// every dependency's — the claim priority (heaviest ready first).
    weight: usize,
}

/// Subtrees below this many instructions are never split off — the
/// snapshot and splice overhead would outweigh scheduling them inline.
const SPLIT_MIN_INSTS: usize = 48;

fn insts_of<'b>(f: &Function, blocks: impl IntoIterator<Item = &'b BlockId>) -> usize {
    blocks.into_iter().map(|&b| f.block(b).len()).sum()
}

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
    hooks: &TestHooks,
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
    let live = Liveness::compute(f, cfg);
    stats.liveness_full += 1;
    let pass = GlobalPass {
        machine,
        cfg,
        tree,
        config,
        hooks,
        live,
    };
    let jobs = effective_jobs(config.jobs);
    let tasks = if jobs > 1 && order.len() > 1 {
        plan_tasks(f, tree, config, jobs, &order)
    } else {
        Vec::new()
    };
    if tasks.len() <= 1 {
        for &rid in &order {
            pass.schedule_memoized(f, rid, stats, obs);
        }
        return;
    }
    let done = run_tasks(&pass, f, &tasks, jobs, obs.enabled());
    // The deterministic merge: every outcome, in sequential region order.
    let mut outcomes: HashMap<RegionId, Arc<RegionOutcome>> = tasks
        .iter()
        .zip(done)
        .flat_map(|(task, outs)| task.regions.iter().copied().zip(outs))
        .collect();
    for &rid in &order {
        match outcomes.remove(&rid) {
            Some(out) => out.apply(f, rid, stats, obs),
            None => pass.schedule_memoized(f, rid, stats, obs),
        }
    }
}

/// The task queue the pool's workers share.
struct Queue {
    ready: Vec<usize>,
    indegree: Vec<usize>,
    /// Tasks not yet completed; zero ends the pool.
    remaining: usize,
}

/// Ends the pool when a worker's task panics (an armed check firing, for
/// one). The worker never completes its task, so without this the others
/// would wait for it on the ready condvar forever and the scope would
/// never join to re-raise the panic.
struct EndOnPanic<'q> {
    queue: &'q Mutex<Queue>,
    ready_cv: &'q Condvar,
}

impl Drop for EndOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
            q.remaining = 0;
            drop(q);
            self.ready_cv.notify_all();
        }
    }
}

/// Fans the tasks out over the pool and returns each task's outcomes,
/// parallel to its regions. Ready tasks are claimed from a shared queue,
/// heaviest first, but every task runs against its own snapshot of
/// `master` plus its dependencies' outcomes, so the claim order cannot
/// influence any result. A panicking task ends the pool, and the panic
/// propagates to the caller.
fn run_tasks(
    pass: &GlobalPass,
    master: &Function,
    tasks: &[Task],
    jobs: usize,
    tracing: bool,
) -> Vec<Vec<Arc<RegionOutcome>>> {
    let n = tasks.len();
    let results: Vec<OnceLock<Vec<Arc<RegionOutcome>>>> =
        tasks.iter().map(|_| OnceLock::new()).collect();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, t) in tasks.iter().enumerate() {
        for &d in &t.deps {
            dependents[d].push(i);
        }
    }
    let queue = Mutex::new(Queue {
        ready: (0..n).filter(|&i| tasks[i].deps.is_empty()).collect(),
        indegree: tasks.iter().map(|t| t.deps.len()).collect(),
        remaining: n,
    });
    let ready_cv = Condvar::new();
    let work = || {
        let _end_on_panic = EndOnPanic {
            queue: &queue,
            ready_cv: &ready_cv,
        };
        loop {
            let t = {
                let mut q = queue.lock().expect("no poisoned task queue");
                loop {
                    if q.remaining == 0 {
                        return;
                    }
                    // Steal from the heavy end: heaviest ready task, ties to
                    // the lowest index.
                    let heaviest = q
                        .ready
                        .iter()
                        .enumerate()
                        .max_by_key(|&(_, &t)| (tasks[t].weight, std::cmp::Reverse(t)))
                        .map(|(pos, _)| pos);
                    if let Some(pos) = heaviest {
                        break q.ready.swap_remove(pos);
                    }
                    q = ready_cv.wait(q).expect("no poisoned task queue");
                }
            };
            let mut fu = master.snapshot();
            apply_deps(&mut fu, tasks, &results, t);
            let outs = tasks[t]
                .regions
                .iter()
                .map(|&rid| {
                    let mut dropped = SchedStats::default();
                    region_outcome(pass, &mut fu, rid, tracing, &mut dropped, &mut NopObserver)
                })
                .collect();
            results[t]
                .set(outs)
                .unwrap_or_else(|_| unreachable!("each task is claimed once"));
            let mut q = queue.lock().expect("no poisoned task queue");
            // Saturating: a panicking worker may have ended the pool already.
            q.remaining = q.remaining.saturating_sub(1);
            for &d in &dependents[t] {
                q.indegree[d] -= 1;
                if q.indegree[d] == 0 {
                    q.ready.push(d);
                }
            }
            drop(q);
            ready_cv.notify_all();
        }
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
    results
        .into_iter()
        .map(|r| {
            r.into_inner()
                .expect("every task was claimed and completed")
        })
        .collect()
}

/// Applies every outcome of task `t`'s dependency subtrees to `f`, a
/// snapshot of the pre-pass function. Statistics and events are the
/// merge's to report, so they are dropped here.
fn apply_deps(
    f: &mut Function,
    tasks: &[Task],
    results: &[OnceLock<Vec<Arc<RegionOutcome>>>],
    t: usize,
) {
    for &d in &tasks[t].deps {
        apply_deps(f, tasks, results, d);
        let outs = results[d]
            .get()
            .expect("dependencies complete before a task becomes ready");
        for (&rid, out) in tasks[d].regions.iter().zip(outs) {
            out.apply(f, rid, &mut SchedStats::default(), &mut NopObserver);
        }
    }
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

/// The task DAG. Child subtrees at or above the size-aware threshold
/// become their own tasks (recursively), with the enclosing task
/// depending on them; everything else stays inline.
fn plan_tasks(
    f: &Function,
    tree: &RegionTree,
    config: &SchedConfig,
    jobs: usize,
    order: &[RegionId],
) -> Vec<Task> {
    let roots = unit_roots(f, tree, config, order);
    let position: HashMap<RegionId, usize> =
        order.iter().enumerate().map(|(i, &r)| (r, i)).collect();
    let total: usize = roots
        .iter()
        .map(|&r| insts_of(f, &subtree_blocks(tree, r)))
        .sum();
    // Aim for a few tasks per worker so the heaviest-first claim can
    // pack them, without splintering small subtrees.
    let threshold = std::cmp::max(SPLIT_MIN_INSTS, total / (jobs * 2));
    let mut tasks = Vec::new();
    for root in roots {
        build_task(f, tree, &position, threshold, root, &mut tasks);
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
    let weight = own
        .iter()
        .map(|&r| insts_of(f, &tree.region(r).blocks))
        .chain(deps.iter().map(|&d| tasks[d].weight))
        .sum();
    tasks.push(Task {
        regions: own,
        deps,
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
    if !is_root && insts_of(f, &subtree_blocks(tree, rid)) >= threshold {
        deps.push(build_task(f, tree, position, threshold, rid, tasks));
        return;
    }
    own.push(rid);
    for &c in &tree.region(rid).children {
        gather(f, tree, position, threshold, c, false, own, deps, tasks);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::{SchedLevel, MAX_REGION_HEIGHT};
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
        global_pass(
            &mut f,
            &machine,
            cfg,
            tree,
            config,
            &hooks,
            MAX_REGION_HEIGHT,
            &mut st,
            &mut rec,
        );
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

    /// A threshold of one instruction splits every loop of TWO_LOOPS off
    /// the body task, which then depends on both.
    #[test]
    fn plan_splits_heavy_children_into_dependencies() {
        let (f, _, tree) = analyses(TWO_LOOPS);
        let order: Vec<RegionId> = tree.schedule_order();
        let mut tasks = Vec::new();
        let position: HashMap<RegionId, usize> =
            order.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        build_task(&f, &tree, &position, 1, tree.root(), &mut tasks);
        assert_eq!(tasks.len(), 3, "two loop tasks plus the body task");
        let body = tasks.last().expect("body task is built last");
        assert_eq!(body.deps.len(), 2, "the body depends on both loops");
        assert_eq!(body.regions, vec![tree.root()]);
        assert_eq!(body.weight, f.num_insts(), "the body weighs the unit");
        for &d in &body.deps {
            assert_eq!(tasks[d].regions.len(), 1);
            assert!(tasks[d].deps.is_empty());
            assert!(tasks[d].weight <= body.weight, "parent covers more");
        }
        // Own regions' direct blocks partition the unit's blocks.
        let mut all: Vec<BlockId> = tasks
            .iter()
            .flat_map(|t| &t.regions)
            .flat_map(|&r| tree.region(r).blocks.iter().copied())
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
        let tasks = plan_tasks(&f, &tree, &config, 4, &order);
        assert_eq!(tasks.len(), 1, "{SPLIT_MIN_INSTS}-inst floor holds");
        assert!(tasks[0].deps.is_empty());
        assert_eq!(tasks[0].regions.len(), 3);
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

    /// The split task DAG (a dependent body task over per-loop tasks)
    /// must reproduce the sequential pass — text, statistics, allocators,
    /// origins and the renumbered trace — on workloads big enough to
    /// actually split: many-loops, and unrolled dispatch-diamonds under
    /// duplication, whose loop tasks mint copies the body task's
    /// snapshot must apply before scheduling.
    #[test]
    fn stealing_plan_matches_sequential_pass() {
        let many_loops = gis_workloads::synth::many_loops_scaled(3, 11, 11);
        let diamonds = gis_workloads::synth::dispatch_diamonds(3, 23);
        let inputs = [
            (many_loops.program.function, false),
            (unrolled(diamonds.program.function), true),
        ];
        for (f0, duplication) in inputs {
            let cfg = Cfg::new(&f0);
            let dom = gis_cfg::DomTree::dominators(&cfg);
            let loops = gis_cfg::LoopForest::new(&cfg, &dom);
            let tree = RegionTree::new(&cfg, &loops);
            // Let the routine body own the whole function as one unit, so
            // the plan has a heavy subtree to split.
            let seq_config = SchedConfig {
                max_region_blocks: 512,
                max_region_insts: 4096,
                duplication,
                jobs: 1,
                ..SchedConfig::speculative()
            };
            let steal_config = SchedConfig {
                jobs: 4,
                ..seq_config.clone()
            };

            // Sanity: this input really exercises the split path.
            let order: Vec<RegionId> = tree.schedule_order();
            let tasks = plan_tasks(&f0, &tree, &steal_config, 4, &order);
            assert!(tasks.len() > 1, "the plan splits this workload");
            assert!(
                tasks.iter().any(|t| !t.deps.is_empty()),
                "the body task depends on split-off loops"
            );

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
