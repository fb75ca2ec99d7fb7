//! The tinyc frontend: compile a C-like program to IR, inspect the
//! generated code, schedule it, and run it.
//!
//! ```text
//! cargo run --example tinyc
//! ```

use gis_core::{compile, SchedConfig};
use gis_machine::MachineDescription;
use gis_sim::{execute, ExecConfig, TimingSim};
use gis_tinyc::compile_program;

const SOURCE: &str = "
// Sieve of sorts: count numbers in a[] that divide evenly into 360.
int a[32];
int n = 32;
void divisors() {
    int i = 0;
    int count = 0;
    int total = 360;
    while (i < n) {
        int x = a[i];
        if (x > 0) {
            int q = total / x;
            if (q * x == total) {
                count = count + 1;
            }
        }
        i = i + 1;
    }
    print(count);
}
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = compile_program(SOURCE)?;
    println!("--- generated IR (XL style) ---\n{}", program.function);

    let data: Vec<i64> = (1..=32).collect();
    let memory = program.initial_memory(&[("a", &data)])?;
    let machine = MachineDescription::rs6k();

    let mut scheduled = program.function.clone();
    let stats = compile(&mut scheduled, &machine, &SchedConfig::speculative())?;

    let before = execute(&program.function, &memory, &ExecConfig::default())?;
    let after = execute(&scheduled, &memory, &ExecConfig::default())?;
    assert!(before.equivalent(&after));

    let base = TimingSim::new(&program.function, &machine)
        .run(&before.block_trace)
        .cycles;
    let opt = TimingSim::new(&scheduled, &machine)
        .run(&after.block_trace)
        .cycles;

    // 360 = 2^3 * 3^2 * 5: divisors in 1..=32 are
    // 1,2,3,4,5,6,8,9,10,12,15,18,20,24,30 — fifteen of them.
    println!("divisors of 360 in 1..=32: {:?}", after.printed());
    println!("scheduler: {stats}");
    println!("cycles: {base} -> {opt}");
    Ok(())
}
