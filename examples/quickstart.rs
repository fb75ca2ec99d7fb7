//! Quickstart: parse a function, schedule it globally, and measure the
//! cycle win on the RS/6000 machine model.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use gis_core::{compile, SchedConfig};
use gis_ir::parse_function;
use gis_machine::MachineDescription;
use gis_sim::{execute, ExecConfig, TimingSim};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A little loop: sum the positive elements of an array.
    //   for (i = 0; i < 8; i++) if (a[i] > 0) sum += a[i];
    // r0 is the array cursor, r1 `i`, r2 `n`, r3 `sum`, r4 `a[i]`.
    let function = parse_function(
        "func sum_positive
         entry:
           LI r0=4096
           LI r1=0
           LI r2=8
           LI r3=0
         head:
           LU r4,r0=a(r0,4)
           CI cr0=r4,0
           BF latch,cr0,0x2/gt
         add:
           A  r5=r3,r4
           LR r3=r5
         latch:
           AI r1=r1,1
           C  cr1=r1,r2
           BT head,cr1,0x1/lt
         done:
           PRINT r3
           RET
        ",
    )?;

    // Initial memory: a[0..8] just past the base pointer (the loop uses
    // load-with-update, so the first element sits at base+4).
    let memory: Vec<(i64, i64)> = [3, -1, 4, -1, 5, -9, 2, 6]
        .iter()
        .enumerate()
        .map(|(k, &v)| (0x1004 + 4 * k as i64, v))
        .collect();

    let machine = MachineDescription::rs6k();

    // Before: basic block scheduling only (the paper's BASE compiler).
    let mut before = function.clone();
    compile(&mut before, &machine, &SchedConfig::base())?;
    let out_before = execute(&before, &memory, &ExecConfig::default())?;
    let cycles_before = TimingSim::new(&before, &machine)
        .run(&out_before.block_trace)
        .cycles;

    // After: full global scheduling (useful + 1-branch speculative).
    let mut after = function.clone();
    let stats = compile(&mut after, &machine, &SchedConfig::speculative())?;
    let out_after = execute(&after, &memory, &ExecConfig::default())?;
    let cycles_after = TimingSim::new(&after, &machine)
        .run(&out_after.block_trace)
        .cycles;

    assert!(
        out_before.equivalent(&out_after),
        "scheduling preserved behaviour"
    );

    println!("scheduled function:\n{after}");
    println!("printed: {:?}", out_after.printed());
    println!("scheduler: {stats}");
    println!("cycles: {cycles_before} (base) -> {cycles_after} (global)");
    Ok(())
}
