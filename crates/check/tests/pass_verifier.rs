//! gis-check's [`check_pass`], plugged in as the per-pass verifier
//! (`TestHooks::verifier`), must hold across every existing workload:
//! the verifier runs after each of the six pipeline passes and any
//! structural regression (lost instructions, cross-region motion, newly
//! introduced use-before-def) aborts compilation.

use gis_check::check_pass;
use gis_core::{compile_with_hooks, CompileError, SchedConfig, SchedStats, TestHooks};
use gis_ir::Function;
use gis_machine::MachineDescription;
use gis_trace::NopObserver;
use gis_workloads::{spec, synth};

fn checked(f: &mut Function, sched: &SchedConfig) -> Result<SchedStats, CompileError> {
    let hooks = TestHooks {
        verifier: Some(check_pass),
        fault: None,
    };
    let machine = MachineDescription::rs6k();
    compile_with_hooks(f, &machine, sched, &hooks, &mut NopObserver)
}

#[test]
fn per_pass_verifier_holds_on_spec_workloads() {
    for w in spec::all(64) {
        let mut f = w.program.function.clone();
        checked(&mut f, &SchedConfig::speculative())
            .unwrap_or_else(|e| panic!("{} (speculative): {e}", w.name));

        let mut f = w.program.function.clone();
        checked(&mut f, &SchedConfig::useful())
            .unwrap_or_else(|e| panic!("{} (useful): {e}", w.name));
    }
}

#[test]
fn per_pass_verifier_holds_on_many_loops_across_jobs() {
    let w = synth::many_loops(12, 7);
    for jobs in [1usize, 4, 0] {
        let mut sched = SchedConfig::speculative();
        sched.jobs = jobs;
        let mut f = w.program.function.clone();
        checked(&mut f, &sched).unwrap_or_else(|e| panic!("many_loops (jobs={jobs}): {e}"));
    }
}

#[test]
fn per_pass_verifier_holds_on_the_paper_figure() {
    let mut f = gis_workloads::minmax::figure2_function(64);
    checked(&mut f, &SchedConfig::speculative()).unwrap_or_else(|e| panic!("figure2: {e}"));
}
