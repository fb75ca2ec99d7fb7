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

use crate::bb::schedule_block_observed;
use crate::config::{SchedConfig, SchedLevel, TestHooks, MAX_REGION_HEIGHT, SMALL_LOOP_BLOCKS};
use crate::parallel::global_pass;
use crate::rotate::rotate_loop_observed;
use crate::stats::SchedStats;
use crate::unroll::unroll_loop_observed;
use gis_cfg::{Cfg, DomTree, LoopForest, RegionTree};
use gis_ir::{BlockId, Function, VerifyFunctionError};
use gis_machine::MachineDescription;
use gis_pdg::webs::rename_webs;
use gis_trace::{NopObserver, Pass, SchedObserver, TraceEvent};
use std::collections::HashSet;
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

struct Analyses {
    cfg: Cfg,
    loops: LoopForest,
    tree: RegionTree,
}

fn analyze(f: &Function) -> Analyses {
    let cfg = Cfg::new(f);
    let dom = DomTree::dominators(&cfg);
    let loops = LoopForest::new(&cfg, &dom);
    let tree = RegionTree::new(&cfg, &loops);
    Analyses { cfg, loops, tree }
}

/// A small inner loop eligible for unroll/rotate: `(header label,
/// lo, hi)`, layout-contiguous with the header first.
fn small_inner_loops(
    f: &Function,
    an: &Analyses,
    max_blocks: usize,
    done: &HashSet<String>,
) -> Option<(String, BlockId, BlockId)> {
    for (_, l) in an.loops.loops() {
        if !l.children.is_empty() || l.blocks.len() > max_blocks {
            continue;
        }
        let lo = *l.blocks.first().expect("loops are nonempty");
        let hi = *l.blocks.last().expect("loops are nonempty");
        let contiguous = hi.index() - lo.index() + 1 == l.blocks.len();
        if !contiguous || l.header != lo {
            continue;
        }
        let label = f.block(lo).label().to_owned();
        if done.contains(&label) {
            continue;
        }
        return Some((label, lo, hi));
    }
    None
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

    // 1. Register-web renaming.
    if config.rename {
        let snap = snapshot(f);
        let t0 = pass_begin(obs, Pass::Rename);
        let cfg = Cfg::new(f);
        stats.webs_renamed = rename_webs(f, &cfg).renamed;
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
        let mut done: HashSet<String> = HashSet::new();
        loop {
            let an = analyze(f);
            let Some((label, lo, hi)) = small_inner_loops(f, &an, SMALL_LOOP_BLOCKS, &done) else {
                break;
            };
            done.insert(label);
            if unroll_loop_observed(f, lo, hi, obs) {
                stats.loops_unrolled += 1;
            }
        }
        pass_end(obs, Pass::Unroll, t0, &mut stats);
        pass_checkpoint(hooks, Pass::Unroll, snap.as_ref(), f)?;
    }

    // 3. First global pass: inner regions (height 0). Both global passes
    //    fan independent region subtrees out over `config.jobs` workers;
    //    the merge keeps them bit-identical to a single-threaded pass.
    if config.level != SchedLevel::BasicBlockOnly {
        let snap = snapshot(f);
        let t0 = pass_begin(obs, Pass::Global1);
        let an = analyze(f);
        global_pass(
            f, machine, &an.cfg, &an.tree, config, hooks, 0, &mut stats, obs,
        );
        pass_end(obs, Pass::Global1, t0, &mut stats);
        pass_checkpoint(hooks, Pass::Global1, snap.as_ref(), f)?;

        // 4. Rotate small inner loops (once each: after rotation the loop
        //    re-forms and must not be treated as a fresh candidate).
        if config.rotate {
            let snap = snapshot(f);
            let t0 = pass_begin(obs, Pass::Rotate);
            let mut done: HashSet<String> = HashSet::new();
            loop {
                let an = analyze(f);
                let Some((label, lo, hi)) = small_inner_loops(f, &an, SMALL_LOOP_BLOCKS, &done)
                else {
                    break;
                };
                done.insert(label);
                if rotate_loop_observed(f, lo, hi, obs) {
                    stats.loops_rotated += 1;
                    // A rotated multi-block loop re-forms with its old
                    // second block as the new header; mark that label so
                    // the re-formed loop is not rotated again. (A rotated
                    // single-block loop keeps its original header label,
                    // which is already in `done`.) The label must be
                    // derived from the loop structure, not from whatever
                    // block happens to follow `lo` in the layout — that
                    // block can be an unrelated loop's header.
                    if lo < hi {
                        done.insert(
                            f.block(BlockId::new(lo.index() as u32 + 1))
                                .label()
                                .to_owned(),
                        );
                    }
                }
            }
            pass_end(obs, Pass::Rotate, t0, &mut stats);
            pass_checkpoint(hooks, Pass::Rotate, snap.as_ref(), f)?;
        }

        // 5. Second global pass: rotated inner loops and outer regions
        //    (every region up to the height limit).
        let snap = snapshot(f);
        let t0 = pass_begin(obs, Pass::Global2);
        let an = analyze(f);
        global_pass(
            f,
            machine,
            &an.cfg,
            &an.tree,
            config,
            hooks,
            MAX_REGION_HEIGHT,
            &mut stats,
            obs,
        );
        pass_end(obs, Pass::Global2, t0, &mut stats);
        pass_checkpoint(hooks, Pass::Global2, snap.as_ref(), f)?;
    }

    // 6. Final basic block pass.
    if config.final_bb_pass {
        let snap = snapshot(f);
        let t0 = pass_begin(obs, Pass::FinalBb);
        for b in f.block_ids().collect::<Vec<_>>() {
            if schedule_block_observed(f, machine, b, obs) {
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
