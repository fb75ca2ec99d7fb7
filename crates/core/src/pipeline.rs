//! The full scheduling pipeline — the §6 "general flow":
//!
//! 1. register-web renaming (§4.2);
//! 2. certain inner loops are unrolled;
//! 3. global scheduling of the inner regions;
//! 4. certain inner loops are rotated;
//! 5. global scheduling a second time (rotated inner loops and the outer
//!    regions — we re-schedule every region up to the height limit, which
//!    subsumes both);
//! 6. the basic block scheduler runs over every block.

use crate::bb::{schedule_block_in, BbWorkspace};
use crate::config::{SchedConfig, SchedLevel, TestHooks, MAX_REGION_HEIGHT, SMALL_LOOP_BLOCKS};
use crate::global::Workspace;
use crate::parallel::{global_pass, memo_fingerprint, GlobalPass};
use crate::rotate::rotate_loop_observed;
use crate::stats::SchedStats;
use crate::unroll::unroll_loop_observed;
use gis_cfg::{Cfg, DomTree, LoopForest, RegionTree};
use gis_ir::{BlockId, Function, VerifyFunctionError};
use gis_machine::MachineDescription;
use gis_pdg::webs::rename_webs;
use gis_pdg::Liveness;
use gis_trace::{NopObserver, Pass, SchedObserver, TraceEvent};
use std::cell::OnceCell;
use std::error::Error;
use std::fmt;
use std::time::Instant;

/// A compilation failure. Seeing either variant after a successful
/// parse/build indicates a bug in a transformation pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The pipeline produced (or was handed) a function that fails
    /// [`Function::verify`].
    Malformed(VerifyFunctionError),
    /// The [`TestHooks::verifier`] rejected the function a pass just
    /// produced.
    PassCheck {
        /// The pass after which the verifier fired.
        pass: Pass,
        /// The verifier's diagnostic.
        detail: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Malformed(e) => {
                write!(f, "scheduling produced a malformed function: {e}")
            }
            CompileError::PassCheck { pass, detail } => {
                write!(f, "per-pass verifier failed after {pass:?}: {detail}")
            }
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::Malformed(e) => Some(e),
            CompileError::PassCheck { .. } => None,
        }
    }
}

/// The whole-function analyses of one CFG version, shared by every pass
/// until one changes the CFG: renaming and the global passes never do
/// (motions stay inside blocks' bodies, terminators stay put), so only
/// an unroll or rotate pass that transformed a loop calls for new ones.
/// The dominators are built once per version too; only the loops read
/// them. The region tree and the liveness solve are built when a global
/// pass first asks for them, so a version that only renaming and
/// unrolling see builds neither.
///
/// The liveness solve outlives the global pass that made it: the
/// scheduler reads it only at region boundaries (the exit live-ins of
/// the §5.3 walks and of the memo keys), which legal motions never
/// change (the region-boundary invariant in `gis_pdg`'s liveness
/// module), so global-2 reads global-1's solve unless rotate changed the
/// CFG. Inside regions motions do change liveness, so the kept solve is
/// not compared whole with a fresh one; the armed checks hold it to a
/// fresh reference solve at every region's boundary instead.
struct Analyses {
    cfg: Cfg,
    loops: LoopForest,
    tree: OnceCell<RegionTree>,
    live: OnceCell<Liveness>,
}

impl Analyses {
    fn new(f: &Function) -> Self {
        let cfg = Cfg::new(f);
        let loops = LoopForest::new(&cfg, &DomTree::dominators(&cfg));
        Analyses {
            cfg,
            loops,
            tree: OnceCell::new(),
            live: OnceCell::new(),
        }
    }

    fn tree(&self) -> &RegionTree {
        self.tree
            .get_or_init(|| RegionTree::new(&self.cfg, &self.loops))
    }

    /// The liveness solve of this CFG version, solving `f` (counted in
    /// `stats`) on first use.
    fn live(&self, f: &Function, stats: &mut SchedStats) -> &Liveness {
        self.live.get_or_init(|| {
            stats.liveness_full += 1;
            Liveness::compute(f, &self.cfg)
        })
    }

    /// The analyses of `f`'s current CFG: `kept` when a pass left it
    /// unchanged, else built afresh. Under the armed checks, analyses
    /// about to be reused are compared with a fresh build first. Under a
    /// planted fault the liveness solve is dropped before every pass, so
    /// each global pass solves anew: the fault's illegal motions break
    /// the region-boundary invariant a kept solve rests on (the region
    /// memo is bypassed for the same reason).
    fn current<'a>(
        kept: &'a mut Option<Analyses>,
        f: &Function,
        hooks: &TestHooks,
        pass: Pass,
    ) -> &'a Analyses {
        if let (Some(a), true) = (kept.as_ref(), hooks.armed()) {
            let fresh = Analyses::new(f);
            assert!(a.cfg == fresh.cfg, "{pass:?}: the kept CFG went stale");
            assert!(
                a.loops == fresh.loops,
                "{pass:?}: the kept loops went stale"
            );
            if let Some(tree) = a.tree.get() {
                assert!(
                    tree == fresh.tree(),
                    "{pass:?}: the kept region tree went stale"
                );
            }
        }
        if let (Some(a), Some(_)) = (kept.as_mut(), hooks.fault) {
            a.live.take();
        }
        kept.get_or_insert_with(|| Analyses::new(f))
    }
}

/// Applies `transform` once to each small inner loop of `f` — at most
/// [`SMALL_LOOP_BLOCKS`] blocks, layout-contiguous with the header first
/// — among `loops`, `f`'s loops, in ascending layout order, and returns
/// how many it changed. A transform inserts blocks only right after its
/// own loop, so each later loop's range shifts by the blocks inserted so
/// far, and the loops a transform re-forms are never revisited.
fn each_small_inner_loop(
    f: &mut Function,
    loops: &LoopForest,
    mut transform: impl FnMut(&mut Function, BlockId, BlockId) -> bool,
) -> usize {
    let mut ranges: Vec<(usize, usize)> = loops
        .loops()
        .filter_map(|(_, l)| {
            let (lo, hi) = (l.blocks[0].index(), l.blocks[l.blocks.len() - 1].index());
            let small = l.children.is_empty() && l.blocks.len() <= SMALL_LOOP_BLOCKS;
            let contiguous = hi - lo + 1 == l.blocks.len() && l.header.index() == lo;
            (small && contiguous).then_some((lo, hi))
        })
        .collect();
    ranges.sort_unstable();
    let (mut shift, mut changed) = (0, 0);
    for (lo, hi) in ranges {
        let before = f.num_blocks();
        let at = |b: usize| BlockId::new((b + shift) as u32);
        changed += usize::from(transform(f, at(lo), at(hi)));
        shift += f.num_blocks() - before;
    }
    changed
}

/// Runs the complete scheduling pipeline on `f` for `machine`, in place.
///
/// # Errors
///
/// Returns [`CompileError`] when `f` is malformed on entry or a pass
/// breaks an invariant (a bug — every pass is supposed to preserve
/// [`Function::verify`]).
pub fn compile(
    f: &mut Function,
    machine: &MachineDescription,
    config: &SchedConfig,
) -> Result<SchedStats, CompileError> {
    compile_with_hooks(f, machine, config, &TestHooks::default(), &mut NopObserver)
}

/// Marks a pass begin for the observer and starts its wall clock.
fn pass_begin<O: SchedObserver>(obs: &mut O, pass: Pass) -> Instant {
    if obs.enabled() {
        obs.event(TraceEvent::PassBegin { pass });
    }
    Instant::now()
}

/// Records a pass's wall time and emits its end event.
fn pass_end<O: SchedObserver>(obs: &mut O, pass: Pass, t0: Instant, stats: &mut SchedStats) {
    let nanos = t0.elapsed().as_nanos() as u64;
    stats.pass_nanos[pass.index()] += nanos;
    if obs.enabled() {
        obs.event(TraceEvent::PassEnd { pass, nanos });
    }
}

/// Runs the [`TestHooks::verifier`] (if any) against the pre-pass
/// snapshot and the current function state.
fn pass_checkpoint(
    hooks: &TestHooks,
    pass: Pass,
    before: Option<&Function>,
    after: &Function,
) -> Result<(), CompileError> {
    if let (Some(check), Some(before)) = (hooks.verifier, before) {
        check(pass, before, after).map_err(|detail| CompileError::PassCheck { pass, detail })?;
    }
    Ok(())
}

/// [`compile`], reporting every scheduling decision to `obs`.
///
/// With the no-op observer this is exactly `compile`: every emission site
/// is gated on [`SchedObserver::enabled`], so the schedule produced is
/// bit-identical whether or not anyone is listening.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_observed<O: SchedObserver>(
    f: &mut Function,
    machine: &MachineDescription,
    config: &SchedConfig,
    obs: &mut O,
) -> Result<SchedStats, CompileError> {
    compile_with_hooks(f, machine, config, &TestHooks::default(), obs)
}

/// [`compile_observed`] with test hooks plugged in: a per-pass verifier,
/// which also arms the scheduler's oracle checks in release builds, and
/// a planted fault (see [`TestHooks`]). With the default hooks this is
/// exactly `compile_observed`.
///
/// # Errors
///
/// See [`compile`]; [`CompileError::PassCheck`] when the verifier fires.
pub fn compile_with_hooks<O: SchedObserver>(
    f: &mut Function,
    machine: &MachineDescription,
    config: &SchedConfig,
    hooks: &TestHooks,
    obs: &mut O,
) -> Result<SchedStats, CompileError> {
    f.verify().map_err(CompileError::Malformed)?;
    let mut stats = SchedStats::default();
    // Snapshot before each pass only when a verifier is plugged in;
    // `None` keeps the normal path allocation-free.
    let snapshot = |f: &Function| hooks.verifier.map(|_| f.clone());

    // The whole-function analyses, built when a pass first needs them
    // and again only after a pass changed the CFG.
    let mut kept: Option<Analyses> = None;
    // One workspace for every pass: the global passes' region loop and
    // the final block pass clear and refill it. It is dropped when the
    // compile ends, so a daemon worker keeps no high-water buffers
    // between compiles.
    let mut ws = Workspace::new(machine);

    // 1. Register-web renaming.
    if config.rename {
        let snap = snapshot(f);
        let t0 = pass_begin(obs, Pass::Rename);
        let cfg = &Analyses::current(&mut kept, f, hooks, Pass::Rename).cfg;
        stats.webs_renamed = rename_webs(f, cfg).renamed;
        if obs.enabled() {
            obs.event(TraceEvent::WebsRenamed {
                count: stats.webs_renamed as u64,
            });
        }
        pass_end(obs, Pass::Rename, t0, &mut stats);
        pass_checkpoint(hooks, Pass::Rename, snap.as_ref(), f)?;
    }

    // 2. Unroll small inner loops (once, per §6).
    if config.unroll {
        let snap = snapshot(f);
        let t0 = pass_begin(obs, Pass::Unroll);
        let loops = &Analyses::current(&mut kept, f, hooks, Pass::Unroll).loops;
        let unrolled =
            each_small_inner_loop(f, loops, |f, lo, hi| unroll_loop_observed(f, lo, hi, obs));
        if unrolled > 0 {
            kept = None;
        }
        stats.loops_unrolled += unrolled;
        pass_end(obs, Pass::Unroll, t0, &mut stats);
        pass_checkpoint(hooks, Pass::Unroll, snap.as_ref(), f)?;
    }

    // 3. First global pass: inner regions (height 0). Both global passes
    //    fan independent region subtrees out over `config.jobs` workers;
    //    the merge keeps them bit-identical to a single-threaded pass.
    if config.level != SchedLevel::BasicBlockOnly {
        let snap = snapshot(f);
        let t0 = pass_begin(obs, Pass::Global1);
        // The memo fingerprint, hashed once for both global passes.
        let fingerprint = memo_fingerprint(machine, config, f.inst_id_bound());
        let a = Analyses::current(&mut kept, f, hooks, Pass::Global1);
        let pass = GlobalPass {
            machine,
            cfg: &a.cfg,
            tree: a.tree(),
            live: a.live(f, &mut stats),
            config,
            hooks,
            fingerprint,
        };
        global_pass(&pass, f, 0, &mut ws, &mut stats, obs);
        pass_end(obs, Pass::Global1, t0, &mut stats);
        pass_checkpoint(hooks, Pass::Global1, snap.as_ref(), f)?;

        // 4. Rotate small inner loops (once each: after rotation the loop
        //    re-forms, and the re-formed loop is not a fresh candidate).
        if config.rotate {
            let snap = snapshot(f);
            let t0 = pass_begin(obs, Pass::Rotate);
            let loops = &Analyses::current(&mut kept, f, hooks, Pass::Rotate).loops;
            let rotated =
                each_small_inner_loop(f, loops, |f, lo, hi| rotate_loop_observed(f, lo, hi, obs));
            if rotated > 0 {
                kept = None;
            }
            stats.loops_rotated += rotated;
            pass_end(obs, Pass::Rotate, t0, &mut stats);
            pass_checkpoint(hooks, Pass::Rotate, snap.as_ref(), f)?;
        }

        // 5. Second global pass: rotated inner loops and outer regions
        //    (every region up to the height limit).
        let snap = snapshot(f);
        let t0 = pass_begin(obs, Pass::Global2);
        let a = Analyses::current(&mut kept, f, hooks, Pass::Global2);
        let pass = GlobalPass {
            machine,
            cfg: &a.cfg,
            tree: a.tree(),
            live: a.live(f, &mut stats),
            config,
            hooks,
            fingerprint,
        };
        global_pass(&pass, f, MAX_REGION_HEIGHT, &mut ws, &mut stats, obs);
        pass_end(obs, Pass::Global2, t0, &mut stats);
        pass_checkpoint(hooks, Pass::Global2, snap.as_ref(), f)?;
    }

    // 6. Final basic block pass, on the compile workspace's dependence
    //    graph and heuristic tables.
    if config.final_bb_pass {
        let snap = snapshot(f);
        let t0 = pass_begin(obs, Pass::FinalBb);
        let mut bb = BbWorkspace::new(machine);
        let (deps, heur) = ws.block_tables();
        for b in 0..f.num_blocks() {
            let b = BlockId::new(b as u32);
            if schedule_block_in(&mut bb, deps, heur, f, machine, b, obs) {
                stats.blocks_bb_scheduled += 1;
            }
        }
        pass_end(obs, Pass::FinalBb, t0, &mut stats);
        pass_checkpoint(hooks, Pass::FinalBb, snap.as_ref(), f)?;
    }

    f.verify().map_err(CompileError::Malformed)?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_sim::{execute, ExecConfig, TimingSim};
    use gis_workloads::minmax;

    fn run_minmax(
        config: &SchedConfig,
        a: &[i64],
    ) -> (gis_ir::Function, SchedStats, gis_sim::ExecOutcome) {
        let mut f = minmax::figure2_function(a.len() as i64);
        let machine = MachineDescription::rs6k();
        let stats = compile(&mut f, &machine, config).expect("compiles");
        let out = execute(&f, &minmax::memory_image(a), &ExecConfig::default()).expect("runs");
        (f, stats, out)
    }

    #[test]
    fn all_levels_preserve_minmax_semantics() {
        let a: Vec<i64> = vec![4, 8, 2, 6, 9, 1, 5, 7, 3];
        let (min, max) = minmax::reference_minmax(&a);
        for config in [
            SchedConfig::base(),
            SchedConfig::useful(),
            SchedConfig::speculative(),
            SchedConfig::paper_example(SchedLevel::Useful),
            SchedConfig::paper_example(SchedLevel::Speculative),
        ] {
            let (_, _, out) = run_minmax(&config, &a);
            assert_eq!(out.printed(), vec![min, max], "config {config:?}");
        }
    }

    #[test]
    fn scheduling_ladder_improves_cycles() {
        let a: Vec<i64> = (0..201).map(|i| (i * 37) % 101).collect();
        let machine = MachineDescription::rs6k();
        let mut cycles = Vec::new();
        for config in [
            SchedConfig::base(),
            SchedConfig::useful(),
            SchedConfig::speculative(),
        ] {
            let mut f = minmax::figure2_function(a.len() as i64);
            compile(&mut f, &machine, &config).expect("compiles");
            let out = execute(&f, &minmax::memory_image(&a), &ExecConfig::default()).expect("runs");
            cycles.push(TimingSim::new(&f, &machine).run(&out.block_trace).cycles);
        }
        assert!(
            cycles[1] < cycles[0],
            "useful global scheduling beats base: {cycles:?}"
        );
        assert!(
            cycles[2] <= cycles[1],
            "speculation does not regress useful: {cycles:?}"
        );
    }

    #[test]
    fn base_level_moves_nothing() {
        let a: Vec<i64> = vec![3, 9, 1];
        let (_, stats, _) = run_minmax(&SchedConfig::base(), &a);
        assert_eq!(stats.moved_useful, 0);
        assert_eq!(stats.moved_speculative, 0);
        assert_eq!(stats.regions_scheduled, 0);
    }

    #[test]
    fn useful_level_never_speculates() {
        let a: Vec<i64> = vec![3, 9, 1];
        let (_, stats, _) = run_minmax(&SchedConfig::useful(), &a);
        assert!(stats.moved_useful > 0);
        assert_eq!(stats.moved_speculative, 0);
    }

    #[test]
    fn adjacent_single_block_loops_both_rotate() {
        // Regression: the rotation bookkeeping used to mark the raw layout
        // block `lo + 1` as handled. For a single-block loop that block is
        // whatever follows the loop — here the second loop's header — so
        // the second loop was never rotated.
        let text = "func two\n\
            init:\n LI r1=0\n LI r2=0\n LI r9=5\n\
            l1:\n AI r1=r1,1\n C cr0=r1,r9\n BT l1,cr0,0x1/lt\n\
            l2:\n AI r2=r2,2\n C cr1=r2,r9\n BT l2,cr1,0x1/lt\n\
            out:\n PRINT r1\n PRINT r2\n RET\n";
        let mut f = gis_ir::parse_function(text).expect("parses");
        let before = execute(&f, &[], &ExecConfig::default()).expect("runs");
        let mut config = SchedConfig::useful();
        config.unroll = false;
        let machine = MachineDescription::rs6k();
        let stats = compile(&mut f, &machine, &config).expect("compiles");
        assert_eq!(stats.loops_rotated, 2, "both adjacent loops rotate");
        let after = execute(&f, &[], &ExecConfig::default()).expect("runs");
        assert!(before.equivalent(&after));
        assert_eq!(after.printed(), vec![5, 6]);
    }

    #[test]
    fn rotated_loops_are_not_rotated_twice() {
        // After rotation the loop re-forms (multi-block: old second block
        // becomes the header); the pipeline must treat it as handled, not
        // as a fresh candidate.
        let text = "func once\n\
            init:\n LI r1=0\n LI r2=0\n LI r9=7\n\
            h:\n AI r2=r2,1\n\
            l:\n A r1=r1,r2\n C cr0=r2,r9\n BT h,cr0,0x1/lt\n\
            out:\n PRINT r1\n RET\n";
        let mut f = gis_ir::parse_function(text).expect("parses");
        let before = execute(&f, &[], &ExecConfig::default()).expect("runs");
        let mut config = SchedConfig::useful();
        config.unroll = false;
        let machine = MachineDescription::rs6k();
        let stats = compile(&mut f, &machine, &config).expect("compiles");
        assert_eq!(
            stats.loops_rotated, 1,
            "the re-formed loop is not re-rotated"
        );
        let after = execute(&f, &[], &ExecConfig::default()).expect("runs");
        assert!(before.equivalent(&after));
        assert_eq!(after.printed(), vec![28]);
    }

    /// One analysis per preparation pass: every small inner loop it
    /// finds is transformed once, in layout order, whatever the blocks
    /// the earlier transforms inserted. Loops of one to four blocks
    /// (`a`–`d`), a five-block loop (`e`, too big), one whose last block
    /// branches back into its middle (`w`: both transforms refuse it)
    /// and two adjacent loops (`p`, `q`).
    #[test]
    fn each_small_inner_loop_is_transformed_once_in_layout_order() {
        let text = "func prep\n\
            init:\n LI r1=0\n LI r2=0\n LI r3=0\n LI r4=0\n LI r5=0\n LI r6=0\n\
             LI r7=0\n LI r8=0\n LI r9=5\n LI r10=0\n LI r11=0\n LI r12=0\n LI r13=0\n\
             LI r16=0\n LI r17=0\n LI r18=0\n LI r19=0\n LI r20=0\n\
            a0:\n AI r1=r1,1\n C cr0=r1,r9\n BT a0,cr0,0x1/lt\n\
            b0:\n AI r2=r2,1\n b1:\n A r3=r3,r2\n C cr1=r2,r9\n BT b0,cr1,0x1/lt\n\
            c0:\n AI r4=r4,1\n c1:\n A r5=r5,r4\n c2:\n C cr2=r4,r9\n BT c0,cr2,0x1/lt\n\
            d0:\n AI r6=r6,1\n d1:\n A r7=r7,r6\n d2:\n A r8=r8,r7\n\
            d3:\n C cr3=r6,r9\n BT d0,cr3,0x1/lt\n\
            e0:\n AI r10=r10,1\n e1:\n A r11=r11,r10\n e2:\n A r12=r12,r11\n\
            e3:\n A r13=r13,r12\n e4:\n C cr4=r10,r9\n BT e0,cr4,0x1/lt\n\
            w0:\n AI r16=r16,1\n C cr7=r16,r17\n BT w2,cr7,0x1/lt\n\
            w1:\n AI r17=r17,3\n B w0\n\
            w2:\n A r18=r18,r16\n C cr8=r16,r9\n BT w1,cr8,0x1/lt\n\
            p0:\n AI r19=r19,1\n C cr9=r19,r9\n BT p0,cr9,0x1/lt\n\
            q0:\n AI r20=r20,2\n C cr10=r20,r9\n BT q0,cr10,0x1/lt\n\
            out:\n PRINT r1\n PRINT r3\n PRINT r5\n PRINT r8\n PRINT r13\n\
             PRINT r18\n PRINT r19\n PRINT r20\n RET\n";
        let f0 = gis_ir::parse_function(text).expect("parses");
        let before = execute(&f0, &[], &ExecConfig::default()).expect("runs");
        let machine = MachineDescription::rs6k();
        let headers = |unroll: bool, rotate: bool| {
            let config = SchedConfig {
                unroll,
                rotate,
                ..SchedConfig::speculative()
            };
            let mut f = f0.clone();
            let mut rec = gis_trace::Recorder::new();
            compile_observed(&mut f, &machine, &config, &mut rec).expect("compiles");
            let after = execute(&f, &[], &ExecConfig::default()).expect("runs");
            assert!(
                before.equivalent(&after),
                "unroll {unroll}, rotate {rotate}"
            );
            let (mut unrolled, mut rotated) = (Vec::new(), Vec::new());
            for e in rec.into_events() {
                match e {
                    TraceEvent::LoopUnrolled { header } => unrolled.push(header),
                    TraceEvent::LoopRotated { header } => rotated.push(header),
                    _ => {}
                }
            }
            (unrolled, rotated)
        };
        let (unrolled, none) = headers(true, false);
        assert_eq!(unrolled, ["a0", "b0", "c0", "d0", "p0", "q0"]);
        assert!(none.is_empty());
        let (none, rotated) = headers(false, true);
        assert_eq!(rotated, ["a0", "b0", "c0", "d0", "p0", "q0"]);
        assert!(none.is_empty());
        // Unrolled, `c` and `d` outgrow the small-loop limit.
        let (unrolled, rotated) = headers(true, true);
        assert_eq!(unrolled, ["a0", "b0", "c0", "d0", "p0", "q0"]);
        assert_eq!(rotated, ["a0", "b0", "p0", "q0"]);
    }

    #[test]
    fn oversized_regions_are_skipped() {
        let a: Vec<i64> = vec![3, 9, 1];
        let mut config = SchedConfig::speculative();
        config.max_region_insts = 4; // the loop has 20
        config.unroll = false;
        config.rotate = false;
        let (_, stats, out) = run_minmax(&config, &a);
        assert_eq!(stats.moved_useful + stats.moved_speculative, 0);
        assert!(stats.regions_skipped > 0);
        assert_eq!(out.printed(), vec![1, 9]);
    }
}
