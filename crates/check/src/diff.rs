//! The differential oracle: interpret a function before and after
//! scheduling under a matrix of configurations and compare observable
//! behaviour ([`ExecOutcome::equivalent`]: output trace + final memory;
//! registers are deliberately excluded — renaming and speculation
//! legitimately change dead ones).
//!
//! Every column compiles with [`check_pass`] plugged in as the per-pass
//! verifier, so structural violations surface even when the schedule
//! happens to behave. Plugging it in also arms the scheduler's oracle
//! checks in release builds ([`TestHooks::armed`]): every dependence
//! graph, ready-list pick, §5.3 liveness answer and region memo hit is
//! checked against its oracle as it is made.

use crate::verify::check_pass;
use gis_core::{compile_with_hooks, Fault, SchedConfig, TestHooks};
use gis_ir::Function;
use gis_machine::MachineDescription;
use gis_sim::{execute, ExecConfig, ExecOutcome};
use gis_trace::NopObserver;
use std::fmt;

/// One column of the differential matrix: a labelled scheduling
/// configuration and machine model.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Human-readable label, e.g. `spec/jobs=4`.
    pub label: String,
    /// The scheduling configuration.
    pub sched: SchedConfig,
    /// The machine model to schedule for.
    pub machine: MachineDescription,
    /// A miscompile to plant, for proving the oracle catches one
    /// (`None` in every standard matrix).
    pub fault: Option<Fault>,
}

impl DiffConfig {
    fn new(label: String, sched: SchedConfig, machine: MachineDescription) -> Self {
        DiffConfig {
            label,
            sched,
            machine,
            fault: None,
        }
    }
}

/// The standard matrix: full speculative scheduling across `jobs` 1, 4
/// and 0 (one worker per CPU) — the parallel determinism surface — plus a
/// useful-only column.
pub fn jobs_matrix() -> Vec<DiffConfig> {
    let mut out = Vec::new();
    for jobs in [1usize, 4, 0] {
        let mut sched = SchedConfig::speculative();
        sched.jobs = jobs;
        let label = format!("spec/jobs={jobs}");
        out.push(DiffConfig::new(label, sched, MachineDescription::rs6k()));
    }
    let useful = SchedConfig::useful();
    let label = "useful/jobs=1".to_owned();
    out.push(DiffConfig::new(label, useful, MachineDescription::rs6k()));
    out
}

/// The duplication surface: the gate on and off, crossed with `jobs`
/// {1, 4} (duplication mints fresh instruction ids, so the parallel
/// merge renumbering is part of the surface under test) and speculation
/// depth {1, 2} branches (Definition 7 interacts with which blocks are
/// already candidates and hence ineligible for duplication). All
/// columns run speculative scheduling; [`check_pass`] makes an
/// unrecorded copy or a lost twin fail structurally even when the
/// schedule happens to behave.
pub fn duplication_matrix() -> Vec<DiffConfig> {
    let mut out = Vec::new();
    for dup in [false, true] {
        for jobs in [1usize, 4] {
            for branches in [1usize, 2] {
                let mut sched = SchedConfig::speculative();
                sched.duplication = dup;
                sched.jobs = jobs;
                sched.max_speculation_branches = branches;
                let on = if dup { "on" } else { "off" };
                let label = format!("dup={on}/jobs={jobs}/branches={branches}");
                out.push(DiffConfig::new(label, sched, MachineDescription::rs6k()));
            }
        }
    }
    out
}

/// The wide-machine surface: full speculative scheduling (and the
/// duplication gate) on the 8-issue preset, across `jobs` {1, 4}. The
/// experiment matrix (docs/RESULTS.md) reports its headline numbers on
/// the wide presets, so the differential oracle must cover at least one
/// of them: a schedule that is only wrong when eight units expose more
/// reordering freedom would never surface on the single-fixed-point
/// RS/6000 columns.
pub fn wide_machine_matrix() -> Vec<DiffConfig> {
    let mut out = Vec::new();
    for dup in [false, true] {
        for jobs in [1usize, 4] {
            let mut sched = SchedConfig::speculative();
            sched.duplication = dup;
            sched.jobs = jobs;
            let label = format!("issue8/dup={}/jobs={jobs}", if dup { "on" } else { "off" });
            out.push(DiffConfig::new(label, sched, MachineDescription::issue8()));
        }
    }
    out
}

/// The region-memo surface: the process-wide region schedule memo on
/// and off, crossed with `jobs` {1, 4}. The memo must be a pure cache —
/// a hit splices the recorded block payloads instead of re-scheduling,
/// and a stale or mis-keyed entry shows up here as a divergence between
/// the memo-on and memo-off columns. The memo is process-global, so
/// within one fuzz run later iterations schedule against a cache warmed
/// by earlier ones — exactly the aliasing surface worth fuzzing. The
/// armed checks also re-schedule every hit and compare.
pub fn memo_matrix() -> Vec<DiffConfig> {
    let mut out = Vec::new();
    for memo in [false, true] {
        for jobs in [1usize, 4] {
            let mut sched = SchedConfig::speculative();
            sched.region_memo = memo;
            sched.jobs = jobs;
            let label = format!("memo={}/jobs={jobs}", if memo { "on" } else { "off" });
            out.push(DiffConfig::new(label, sched, MachineDescription::rs6k()));
        }
    }
    out
}

/// The default fuzzing surface: [`jobs_matrix`] plus
/// [`duplication_matrix`] plus [`wide_machine_matrix`] plus
/// [`memo_matrix`].
pub fn full_matrix() -> Vec<DiffConfig> {
    let mut out = jobs_matrix();
    out.extend(duplication_matrix());
    out.extend(wide_machine_matrix());
    out.extend(memo_matrix());
    out
}

/// A confirmed behavioural divergence under one configuration.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Label of the [`DiffConfig`] that diverged.
    pub config: String,
    /// What went wrong: a compile error, an execution error, or the first
    /// observable difference.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.config, self.detail)
    }
}

/// The oracle's verdict on one function.
#[derive(Debug, Clone)]
pub enum CaseResult {
    /// Every configuration agreed with the reference interpretation.
    Agree,
    /// The *reference* interpretation failed (step limit, unaligned
    /// access): the case is invalid, not a scheduler bug. Minimizers must
    /// reject candidate reductions that land here (e.g. deleting a loop
    /// increment makes the loop infinite).
    RefFailed(String),
    /// A configuration compiled or behaved differently from the
    /// reference.
    Diverged(Divergence),
}

impl CaseResult {
    /// Whether this is a genuine divergence (a scheduler bug witness).
    pub fn diverged(&self) -> bool {
        matches!(self, CaseResult::Diverged(_))
    }
}

/// Runs `f` through the oracle: interpret unscheduled as the reference,
/// then compile (with [`check_pass`] plugged in) and interpret under
/// every matrix column and compare.
pub fn run_case(
    f: &Function,
    memory: &[(i64, i64)],
    matrix: &[DiffConfig],
    exec: &ExecConfig,
) -> CaseResult {
    let reference: ExecOutcome = match execute(f, memory, exec) {
        Ok(out) => out,
        Err(e) => return CaseResult::RefFailed(e.to_string()),
    };
    for column in matrix {
        let mut scheduled = f.clone();
        let hooks = TestHooks {
            verifier: Some(check_pass),
            fault: column.fault,
        };
        let (machine, sched) = (&column.machine, &column.sched);
        if let Err(e) = compile_with_hooks(&mut scheduled, machine, sched, &hooks, &mut NopObserver)
        {
            return CaseResult::Diverged(Divergence {
                config: column.label.clone(),
                detail: format!("compile failed: {e}"),
            });
        }
        let out = match execute(&scheduled, memory, exec) {
            Ok(out) => out,
            Err(e) => {
                return CaseResult::Diverged(Divergence {
                    config: column.label.clone(),
                    detail: format!("scheduled program failed to execute: {e}"),
                })
            }
        };
        if let Some(why) = reference.explain_difference(&out) {
            return CaseResult::Diverged(Divergence {
                config: column.label.clone(),
                detail: why,
            });
        }
    }
    CaseResult::Agree
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_ir::parse_function;

    #[test]
    fn scheduler_agrees_on_a_simple_loop() {
        let f = parse_function(
            "func ok\ninit:\n LI r1=0\n LI r2=0\n LI r9=6\n\
             l:\n AI r1=r1,1\n A r2=r2,r1\n C cr0=r1,r9\n BT l,cr0,0x1/lt\n\
             out:\n PRINT r2\n RET\n",
        )
        .expect("parses");
        let result = run_case(&f, &[], &jobs_matrix(), &ExecConfig::default());
        assert!(matches!(result, CaseResult::Agree), "{result:?}");
    }

    #[test]
    fn reference_failure_is_not_a_divergence() {
        // An infinite loop: the reference interpreter hits the step limit.
        let f = parse_function("func inf\ne:\n LI r1=0\nl:\n AI r1=r1,1\n B l\n").expect("parses");
        let result = run_case(&f, &[], &jobs_matrix(), &ExecConfig { max_steps: 1000 });
        assert!(matches!(result, CaseResult::RefFailed(_)), "{result:?}");
    }

    #[test]
    fn planted_miscompile_is_caught() {
        // A diamond whose fall-through arm overwrites r2, which is live on
        // exit from the entry block. With the live-on-exit guard disabled
        // the scheduler hoists `LI r2=7` above the branch, clobbering the
        // taken path's value.
        let f = parse_function(
            "func bug\ne:\n LI r1=1\n LI r2=3\n CI cr0=r1,0\n BT out,cr0,0x2/gt\n\
             arm:\n LI r2=7\n\
             out:\n PRINT r2\n RET\n",
        )
        .expect("parses");
        let mut matrix = jobs_matrix();
        for c in &mut matrix {
            c.fault = Some(Fault::SkipLiveOnExit);
            c.sched.speculative_renaming = false;
        }
        let result = run_case(&f, &[], &matrix, &ExecConfig::default());
        assert!(result.diverged(), "{result:?}");
    }
}
