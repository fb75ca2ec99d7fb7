//! Property-based differential testing: every scheduling configuration
//! must preserve the observable behaviour (output trace + final memory)
//! of randomly generated tinyc programs, on every machine model.
//!
//! This is the repository's strongest correctness check: it exercises the
//! whole pipeline — frontend, web renaming, unrolling, rotation, global
//! scheduling at both levels, speculative renaming and the final basic
//! block pass — against the architectural simulator as an oracle.

mod common;

use common::arb_program;
use gis_core::{compile, SchedConfig};
use gis_machine::MachineDescription;
use gis_sim::{execute, ExecConfig};
use gis_tinyc::compile_ast;
use gis_workloads::rng::XorShift64Star;

fn configs() -> Vec<(String, SchedConfig, MachineDescription)> {
    let rs6k = MachineDescription::rs6k();
    let wide = MachineDescription::wide(4);
    let scalar = MachineDescription::scalar_pipeline();
    let mut no_rename = SchedConfig::speculative();
    no_rename.rename = false;
    let mut no_spec_rename = SchedConfig::speculative();
    no_spec_rename.speculative_renaming = false;
    let mut deep = SchedConfig::speculative();
    deep.max_speculation_branches = 3;
    vec![
        ("base/rs6k".into(), SchedConfig::base(), rs6k.clone()),
        ("useful/rs6k".into(), SchedConfig::useful(), rs6k.clone()),
        (
            "speculative/rs6k".into(),
            SchedConfig::speculative(),
            rs6k.clone(),
        ),
        ("no-rename/rs6k".into(), no_rename, rs6k.clone()),
        ("no-spec-rename/rs6k".into(), no_spec_rename, rs6k.clone()),
        ("3-branch/rs6k".into(), deep, rs6k),
        ("speculative/wide4".into(), SchedConfig::speculative(), wide),
        (
            "speculative/scalar".into(),
            SchedConfig::speculative(),
            scalar,
        ),
    ]
}

#[test]
fn scheduling_preserves_observable_behaviour() {
    for seed in 0..96u64 {
        let (program, a0, a1) = arb_program(&mut XorShift64Star::new(seed));
        let compiled = compile_ast(&program).expect("generated programs compile");
        let memory = compiled
            .initial_memory(&[("a0", &a0), ("a1", &a1)])
            .expect("arrays fit");
        let config = ExecConfig {
            max_steps: 2_000_000,
        };
        let reference =
            execute(&compiled.function, &memory, &config).expect("generated programs terminate");

        for (label, sched, machine) in configs() {
            let mut f = compiled.function.clone();
            compile(&mut f, &machine, &sched)
                .unwrap_or_else(|e| panic!("seed {seed}/{label}: {e}\n{}", compiled.function));
            let got = execute(&f, &memory, &config)
                .unwrap_or_else(|e| panic!("seed {seed}/{label}: {e}\n{f}"));
            assert!(
                reference.equivalent(&got),
                "seed {seed}: {label} diverged\n--- original ---\n{}\n--- scheduled ---\n{f}",
                compiled.function,
            );
        }

        // The machine-independent optimizer must also preserve behaviour,
        // alone and composed with full scheduling.
        let mut optimized = compiled.function.clone();
        gis_opt::optimize(&mut optimized, &gis_opt::OptConfig::default());
        let got = execute(&optimized, &memory, &config)
            .unwrap_or_else(|e| panic!("seed {seed}: optimize: {e}\n{optimized}"));
        assert!(
            reference.equivalent(&got),
            "seed {seed}: optimizer diverged\n--- original ---\n{}\n--- optimized ---\n{optimized}",
            compiled.function,
        );
        let machine = MachineDescription::rs6k();
        compile(&mut optimized, &machine, &SchedConfig::speculative())
            .unwrap_or_else(|e| panic!("seed {seed}: optimize+schedule: {e}"));
        let got = execute(&optimized, &memory, &config)
            .unwrap_or_else(|e| panic!("seed {seed}: optimize+schedule: {e}\n{optimized}"));
        assert!(
            reference.equivalent(&got),
            "seed {seed}: optimize+schedule diverged\n--- original ---\n{}\n--- result ---\n{optimized}",
            compiled.function,
        );
    }
}
