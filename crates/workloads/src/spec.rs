//! Synthetic stand-ins for the four SPEC benchmarks of §6.
//!
//! The paper evaluates on LI, EQNTOTT, ESPRESSO and GCC — full C programs
//! we cannot run on the reproduction's simulator. Each stand-in is a
//! tinyc kernel engineered to have the *scheduling-relevant* character
//! the paper attributes to its benchmark (see DESIGN.md):
//!
//! * [`li`] — an interpreter dispatch loop: many small blocks ending in
//!   unpredictable branches. Useful motion finds little; speculation
//!   fills the compare→branch delay slots (the paper: LI gains mostly
//!   from speculative scheduling, +2.0% useful vs +6.9% speculative).
//! * [`eqntott`] — a term-comparison loop over bit vectors with the same
//!   equivalent-blocks structure as the minmax example; useful motion
//!   already captures the win (+7.1% useful vs +7.3% speculative).
//! * [`espresso`] — dense cube operations: one big straight-line block
//!   per iteration that the basic block scheduler alone handles
//!   (≈0% improvement, slight useful-only degradation).
//! * [`gcc`] — a scanning loop punctuated by opaque calls, which anchor
//!   instructions and leave the global scheduler little to do (≈0%).
//!
//! All inputs come from a fixed linear-congruential generator, so runs
//! are deterministic.

use crate::minmax;
use gis_tinyc::{compile_program, CompiledProgram};

/// A named, input-ready benchmark.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display name (the paper's benchmark it stands in for).
    pub name: &'static str,
    /// The compiled kernel.
    pub program: CompiledProgram,
    /// Initial memory (array contents).
    pub memory: Vec<(i64, i64)>,
    /// The tinyc source (empty for hand-built kernels); compile-time
    /// experiments re-run the frontend from it so "compile time" covers
    /// the whole path, as the paper's Figure 7 does.
    pub source: String,
}

/// Deterministic LCG over `0..bound`.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: i64) -> i64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as i64).rem_euclid(bound)
    }
}

fn build(name: &'static str, src: &str, arrays: &[(&str, &[i64])]) -> Workload {
    let program =
        compile_program(src).unwrap_or_else(|e| panic!("workload {name} fails to compile: {e}"));
    let memory = program
        .initial_memory(arrays)
        .unwrap_or_else(|e| panic!("workload {name} memory: {e}"));
    Workload {
        name,
        program,
        memory,
        source: src.to_owned(),
    }
}

/// LI stand-in: a stack-machine interpreter loop (`size` opcodes).
pub fn li(size: usize) -> Workload {
    let mut lcg = Lcg(0x11);
    let prog: Vec<i64> = (0..size).map(|_| lcg.next(6)).collect();
    let src = format!(
        "int prog[{size}]; int stack[64]; int n = {size};
         void li() {{
             int pc = 0; int sp = 0; int acc = 0;
             while (pc < n) {{
                 int op = prog[pc];
                 if (op == 0) {{ acc = acc + 1; }}
                 else if (op == 1) {{ acc = acc - 1; }}
                 else if (op == 2) {{ stack[sp & 63] = acc; sp = sp + 1; }}
                 else if (op == 3) {{ sp = sp - 1; acc = acc + stack[sp & 63]; }}
                 else if (op == 4) {{ acc = acc * 3; }}
                 else {{ acc = acc ^ 21845; }}
                 pc = pc + 1;
             }}
             print(acc); print(sp);
         }}"
    );
    build("LI", &src, &[("prog", &prog)])
}

/// EQNTOTT stand-in: pairwise term comparison (`size` elements per vector).
pub fn eqntott(size: usize) -> Workload {
    let mut lcg = Lcg(0x22);
    let p1: Vec<i64> = (0..size).map(|_| lcg.next(4)).collect();
    let p2: Vec<i64> = (0..size).map(|_| lcg.next(4)).collect();
    let src = format!(
        "int p1[{size}]; int p2[{size}]; int n = {size};
         void eqntott() {{
             int i = 0; int res = 0; int eq = 0;
             while (i < n) {{
                 int a = p1[i];
                 int b = p2[i];
                 if (a != b) {{
                     if (a > b) {{ res = res + 1; }}
                     else {{ res = res - 1; }}
                 }} else {{
                     eq = eq + 1;
                 }}
                 i = i + 1;
             }}
             print(res); print(eq);
         }}"
    );
    build("EQNTOTT", &src, &[("p1", &p1), ("p2", &p2)])
}

/// ESPRESSO stand-in: dense cube intersection/union sweep.
pub fn espresso(size: usize) -> Workload {
    let mut lcg = Lcg(0x33);
    let a: Vec<i64> = (0..size).map(|_| lcg.next(1 << 16)).collect();
    let b: Vec<i64> = (0..size).map(|_| lcg.next(1 << 16)).collect();
    let src = format!(
        "int a[{size}]; int b[{size}]; int out[{size}]; int n = {size};
         void espresso() {{
             int i = 0; int pop = 0; int any = 0;
             while (i < n) {{
                 int x = a[i] & b[i];
                 int y = a[i] | b[i];
                 int z = x ^ y;
                 out[i] = z;
                 pop = pop + (z & 1) + ((z >> 1) & 1) + ((z >> 2) & 1);
                 any = any | z;
                 i = i + 1;
             }}
             print(pop); print(any);
         }}"
    );
    build("ESPRESSO", &src, &[("a", &a), ("b", &b)])
}

/// GCC stand-in: a hash-table-updating scanning loop with opaque calls —
/// stores through a computed index serialize the memory chain, and the
/// call anchors its block, leaving the global scheduler almost nothing to
/// move (the paper reports ≈0% for GCC, with a slight useful-only
/// degradation).
pub fn gcc(size: usize) -> Workload {
    let mut lcg = Lcg(0x44);
    let buf: Vec<i64> = (0..size).map(|_| lcg.next(96) + 32).collect();
    let src = format!(
        "int buf[{size}]; int table[128]; int n = {size};
         void gcc() {{
             int i = 0; int acc = 0;
             while (i < n) {{
                 int c = buf[i];
                 int k = c & 127;
                 int t = table[k];
                 table[k] = t + c;
                 acc = acc ^ (t + c);
                 if ((c & 255) == 77) {{ flush(); }}
                 i = i + 1;
             }}
             print(acc);
         }}"
    );
    build("GCC", &src, &[("buf", &buf)])
}

/// The minmax running example as a [`Workload`] (array of `size` odd
/// elements).
pub fn minmax_workload(size: usize) -> Workload {
    let size = if size.is_multiple_of(2) {
        size + 1
    } else {
        size
    };
    let mut lcg = Lcg(0x55);
    let a: Vec<i64> = (0..size).map(|_| lcg.next(10_000) - 5_000).collect();
    let program = CompiledProgram {
        function: minmax::figure2_function(size as i64),
        arrays: vec![gis_tinyc::ArraySlot {
            name: "a".into(),
            base: minmax::ARRAY_BASE,
            len: size,
        }],
    };
    Workload {
        name: "MINMAX",
        program,
        memory: minmax::memory_image(&a),
        source: String::new(),
    }
}

/// The four §6 benchmarks at the given input size.
pub fn all(size: usize) -> Vec<Workload> {
    vec![li(size), eqntott(size), espresso(size), gcc(size)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_compile_and_carry_memory() {
        for w in all(64) {
            assert!(w.program.function.num_blocks() > 1, "{}", w.name);
            assert!(!w.memory.is_empty(), "{}", w.name);
        }
    }

    #[test]
    fn deterministic_inputs() {
        let a = li(32);
        let b = li(32);
        assert_eq!(a.memory, b.memory);
    }

    #[test]
    fn li_has_many_small_blocks() {
        let w = li(16);
        let f = &w.program.function;
        let avg = f.num_insts() as f64 / f.num_blocks() as f64;
        assert!(avg < 4.0, "interpreter blocks are small (avg {avg:.1})");
    }

    #[test]
    fn espresso_has_a_dense_body() {
        let w = espresso(16);
        let f = &w.program.function;
        let biggest = f.blocks().map(|(_, b)| b.len()).max().unwrap_or(0);
        assert!(biggest >= 15, "dense straight-line body (max {biggest})");
    }
}
