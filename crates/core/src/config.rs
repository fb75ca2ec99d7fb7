//! Scheduling configuration, and the test hooks that stay out of it.

use gis_ir::Function;
use gis_trace::Pass;

/// A per-pass debug verifier: invoked after every pipeline pass with the
/// pass just run, the function as it was *before* the pass and as it is
/// *after*. Returning `Err` aborts compilation with
/// [`CompileError::PassCheck`](crate::CompileError::PassCheck).
///
/// This is the plug point for `gis-check`'s structural verifier (CFG
/// well-formedness, use-before-def along dominators, §4.1 region
/// confinement): `gis-core` cannot depend on `gis-check` — the checker
/// drives the scheduler — so the verifier is injected as a plain function
/// pointer via [`TestHooks::verifier`].
pub type PassVerifier = fn(Pass, &Function, &Function) -> Result<(), String>;

/// A planted miscompile, for proving that the differential fuzzer
/// catches scheduler bugs (`gis-check`'s mutation self-test). Never
/// plant one outside tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Skip the §5.3 live-on-exit guard for speculative motion, so a
    /// speculated definition may clobber a live register.
    SkipLiveOnExit,
    /// Skip the duplication guard requiring every sibling predecessor to
    /// fall through into the join unconditionally, so copies land above
    /// conditional branches and clobber registers on the untaken path (a
    /// copy placed without its live range being isolated).
    SkipDupPredCheck,
}

/// What tests and the fuzzer plug into a compile, through
/// [`compile_with_hooks`](crate::compile_with_hooks); [`compile`](crate::compile)
/// and [`compile_observed`](crate::compile_observed) run with none.
///
/// Plugging in a verifier also arms the scheduler's oracle checks in
/// release builds (debug builds always arm them, see
/// [`TestHooks::armed`]). A planted fault makes the compile bypass the
/// region memo and skip the region-boundary liveness check, whose
/// invariant its illegal motions break: the fault must surface as a
/// wrong schedule, not as a failed assertion.
#[derive(Debug, Clone, Copy, Default)]
pub struct TestHooks {
    /// Run this verifier between every pipeline pass. The pipeline
    /// snapshots the function before each pass so the verifier can also
    /// check *relative* invariants such as region confinement.
    pub verifier: Option<PassVerifier>,
    /// Plant this miscompile.
    pub fault: Option<Fault>,
}

impl TestHooks {
    /// Whether every fast-path decision is checked against its quadratic
    /// oracle as it is made: each region's sweep dependence graph against
    /// the all-pairs builder, its block-local reduction against the
    /// whole-scope one, each ready-list pick against a full rescan,
    /// each §5.3 answer and the region boundary against a fresh reference
    /// liveness solve, and each region memo hit against a re-schedule.
    /// True in debug builds and whenever a verifier is plugged in.
    pub fn armed(&self) -> bool {
        cfg!(debug_assertions) || self.verifier.is_some()
    }
}

/// Loops of at most this many blocks are "small": unrolled once before
/// the first global pass and rotated after it (§6).
pub(crate) const SMALL_LOOP_BLOCKS: usize = 4;

/// Only regions of height at most this are scheduled (§6 schedules "two
/// inner levels": heights 0 and 1).
pub(crate) const MAX_REGION_HEIGHT: usize = 1;

/// How far instructions may move (§5.1's "levels of scheduling").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedLevel {
    /// No inter-block motion: only the final basic block scheduler runs.
    /// This is the paper's BASE compiler configuration.
    BasicBlockOnly,
    /// Useful instructions only: candidates come from `EQUIV(A)`.
    Useful,
    /// Useful plus 1-branch speculative instructions: candidates also come
    /// from the immediate CSPDG successors of `A` and of `EQUIV(A)`.
    Speculative,
}

/// Configuration of the whole scheduling pipeline.
///
/// The presets ([`SchedConfig::base`], [`SchedConfig::useful`],
/// [`SchedConfig::speculative`]) reproduce the three compiler
/// configurations compared in §6; [`SchedConfig::paper_example`] disables
/// the unroll/rotate preparation steps so Figures 5 and 6 come out
/// exactly as printed.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Inter-block motion level.
    pub level: SchedLevel,
    /// Run register-web renaming before scheduling (§4.2's SSA-like
    /// renaming; required for Figure 6's `cr6`→`cr5` motion).
    pub rename: bool,
    /// Unroll inner loops of at most four blocks once before scheduling
    /// (§6).
    pub unroll: bool,
    /// Rotate inner loops of at most four blocks between the two global
    /// passes (§6's partial software pipelining).
    pub rotate: bool,
    /// Regions larger than this many blocks are not scheduled (§6: 64).
    pub max_region_blocks: usize,
    /// Regions larger than this many instructions are not scheduled
    /// (§6: 256).
    pub max_region_insts: usize,
    /// Whether loads may be moved speculatively (they cannot fault in the
    /// machine model, so the default is true).
    pub speculative_loads: bool,
    /// Rename the target of a speculative candidate that clobbers a
    /// live-on-exit register (single-definition webs only) instead of
    /// rejecting the motion.
    pub speculative_renaming: bool,
    /// Run the final per-block list scheduling pass (§5.1's "basic block
    /// scheduler is applied ... after the global scheduling is completed").
    pub final_bb_pass: bool,
    /// Branch probabilities for profile-guided speculation (§1: "global
    /// scheduling is capable of taking advantage of the branch
    /// probabilities, whenever available").
    pub profile: Option<crate::BranchProfile>,
    /// Speculative candidates from blocks that execute with probability
    /// below this (per the profile) are skipped. 0.0 disables the gate;
    /// only meaningful when a profile is supplied.
    pub min_speculation_probability: f64,
    /// How many conditional branches an instruction may cross (Definition
    /// 7). The paper's prototype supports 1; higher values implement its
    /// announced "more aggressive speculative scheduling" extension.
    pub max_speculation_branches: usize,
    /// Duplication-based motion (the §7 future-work extension): when a
    /// join block's instruction could fill issue slots in *all* of the
    /// join's predecessors, copy it into each of them (fresh ids per
    /// copy) instead of leaving it behind. Off by default — the paper's
    /// policy ladder stops at single-target motion. Only fires at
    /// [`SchedLevel::Speculative`], and never into loops or past side
    /// effects (the guards are structural; see `docs/PAPER_MAP.md`).
    pub duplication: bool,
    /// Worker threads for the two global scheduling passes. Regions are
    /// disjoint (instructions never move across a region boundary, §4.1),
    /// so independent region subtrees are scheduled concurrently and
    /// merged back in a fixed order — the resulting schedules, statistics
    /// and trace streams are bit-identical to a single-threaded run. `1`
    /// (the default) keeps everything on the calling thread; `0` means
    /// one worker per available CPU.
    pub jobs: usize,
    /// Consult (and feed) the process-wide region memo during global
    /// passes: a region whose content address was scheduled before has
    /// its recorded outcome applied instead of re-running list
    /// scheduling. Output is bit-identical either way — a hit replays the
    /// recorded order, renames, duplication copies, statistics and trace
    /// events, renumbered onto the current allocators, and a differential
    /// gate re-schedules on hit under the armed checks
    /// ([`TestHooks::armed`]). On by default; the benchmark harness turns
    /// it off to measure cold paths honestly. Memoization self-disables
    /// for what it cannot prove bit-identical (branch profiles, and a
    /// planted [`Fault`]).
    pub region_memo: bool,
}

impl SchedConfig {
    /// The paper's BASE compiler: basic block scheduling only.
    pub fn base() -> Self {
        SchedConfig {
            level: SchedLevel::BasicBlockOnly,
            ..Self::speculative()
        }
    }

    /// Global scheduling restricted to useful motion.
    pub fn useful() -> Self {
        SchedConfig {
            level: SchedLevel::Useful,
            ..Self::speculative()
        }
    }

    /// The full configuration: useful plus 1-branch speculative motion.
    pub fn speculative() -> Self {
        SchedConfig {
            level: SchedLevel::Speculative,
            rename: true,
            unroll: true,
            rotate: true,
            max_region_blocks: 64,
            max_region_insts: 256,
            speculative_loads: true,
            speculative_renaming: true,
            final_bb_pass: true,
            profile: None,
            min_speculation_probability: 0.0,
            max_speculation_branches: 1,
            duplication: false,
            jobs: 1,
            region_memo: true,
        }
    }

    /// The §5.4 demonstration setup: global scheduling without the
    /// unroll/rotate preparation steps and without the final basic block
    /// pass, so the result is exactly Figure 5 (useful) / Figure 6
    /// (speculative).
    ///
    /// Upfront web renaming is also off: the paper's Figure 2 listing
    /// shares `cr6`/`cr7` between independent webs, and Figure 6 relies on
    /// the *on-demand* rename during speculation (`cr6`→`cr5`). With
    /// upfront renaming the scheduler finds strictly more motion (see the
    /// renaming ablation experiment).
    pub fn paper_example(level: SchedLevel) -> Self {
        SchedConfig {
            level,
            rename: false,
            unroll: false,
            rotate: false,
            final_bb_pass: false,
            ..Self::speculative()
        }
    }
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self::speculative()
    }
}
