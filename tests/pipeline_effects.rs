//! Effects of the §6 preparation passes: unrolling amortizes loop
//! control, rotation achieves the partial software pipelining the paper
//! describes ("some of the instructions of the next iteration of the loop
//! are executed within the body of the previous iteration").

use gis_core::{compile, SchedConfig};
use gis_machine::MachineDescription;
use gis_sim::{execute, ExecConfig, TimingSim};

fn cycles(
    program: &gis_tinyc::CompiledProgram,
    memory: &[(i64, i64)],
    config: &SchedConfig,
) -> (u64, gis_core::SchedStats) {
    let machine = MachineDescription::rs6k();
    let mut f = program.function.clone();
    let stats = compile(&mut f, &machine, config).expect("compiles");
    let out = execute(&f, memory, &ExecConfig::default()).expect("runs");
    (
        TimingSim::new(&f, &machine).run(&out.block_trace).cycles,
        stats,
    )
}

#[test]
fn rotation_overlaps_iterations_of_a_load_bound_loop() {
    let program = gis_tinyc::compile_program(
        "int a[64]; int n = 64;
         void sum() {
             int i = 0; int s = 0;
             while (i < n) { s = s + a[i]; i = i + 1; }
             print(s);
         }",
    )
    .expect("compiles");
    let data: Vec<i64> = (0..64).collect();
    let memory = program.initial_memory(&[("a", &data)]).expect("fits");

    let mut no_prep = SchedConfig::speculative();
    no_prep.unroll = false;
    no_prep.rotate = false;
    let mut no_rotate = SchedConfig::speculative();
    no_rotate.rotate = false;
    let full = SchedConfig::speculative();

    let (c_plain, _) = cycles(&program, &memory, &no_prep);
    let (c_unroll, s_unroll) = cycles(&program, &memory, &no_rotate);
    let (c_full, s_full) = cycles(&program, &memory, &full);

    assert_eq!(s_unroll.loops_rotated, 0);
    assert_eq!(s_full.loops_unrolled, 1);
    assert_eq!(s_full.loops_rotated, 1, "rotated exactly once");
    assert!(
        c_full < c_unroll && c_full < c_plain,
        "rotation pays off: plain {c_plain}, unrolled {c_unroll}, full {c_full}"
    );
}

#[test]
fn preparation_passes_preserve_minmax_semantics_at_scale() {
    let a: Vec<i64> = (0..999).map(|k| (k * 7919) % 1013 - 500).collect();
    let (min, max) = gis_workloads::minmax::reference_minmax(&a);
    let machine = MachineDescription::rs6k();
    let mut f = gis_workloads::minmax::figure2_function(a.len() as i64);
    compile(&mut f, &machine, &SchedConfig::speculative()).expect("compiles");
    let out = execute(
        &f,
        &gis_workloads::minmax::memory_image(&a),
        &ExecConfig::default(),
    )
    .expect("runs");
    assert_eq!(out.printed(), vec![min, max]);
}

#[test]
fn unrolling_respects_the_small_loop_limit() {
    // A 5-block loop must not be unrolled under the default limit (4).
    let program = gis_tinyc::compile_program(
        "int a[16]; int n = 16;
         void f() {
             int i = 0; int s = 0; int t = 0;
             while (i < n) {
                 int x = a[i];
                 if (x > 8) { s = s + x; }
                 else { if (x > 4) { t = t + x; } else { s = s - 1; } }
                 i = i + 1;
             }
             print(s); print(t);
         }",
    )
    .expect("compiles");
    let data: Vec<i64> = (0..16).collect();
    let memory = program.initial_memory(&[("a", &data)]).expect("fits");

    let (_, stats) = cycles(&program, &memory, &SchedConfig::speculative());
    assert_eq!(stats.loops_unrolled, 0, "loop exceeds the 4-block limit");
}

#[test]
fn speculation_raises_register_pressure() {
    // The §2/[BEH89] interplay: Figure 6's speculative motions (and the
    // cr5 rename) keep more values live at once than Figure 2 did.
    use gis_cfg::Cfg;
    use gis_core::SchedLevel;
    use gis_pdg::register_pressure;

    let original = gis_workloads::minmax::figure2_function(99);
    let machine = MachineDescription::rs6k();
    let mut spec = original.clone();
    gis_core::compile(
        &mut spec,
        &machine,
        &SchedConfig::paper_example(SchedLevel::Speculative),
    )
    .expect("compiles");

    let p_before = register_pressure(&original, &Cfg::new(&original));
    let p_after = register_pressure(&spec, &Cfg::new(&spec));
    assert!(
        p_after.cr > p_before.cr,
        "speculation lengthens condition-register ranges: {p_after} vs {p_before}"
    );
    assert!(p_after.gpr >= p_before.gpr);
}
