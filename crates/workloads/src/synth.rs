//! Scaled synthetic workloads: many-region functions for throughput work.
//!
//! The paper's kernels have a handful of regions each — perfect for
//! fidelity, useless for measuring scheduling *throughput*. This module
//! generates functions with hundreds of independent inner loops, each a
//! region of its own, so the per-region global passes have enough
//! disjoint work to fan out over the `jobs` worker pool (regions never
//! exchange instructions, §4.1). Generation is deterministic: every
//! shape decision draws from a seeded [`XorShift64Star`], so the same
//! `(loops, seed)` pair always yields byte-identical source, IR and
//! memory.
//!
//! Loop bodies are drawn from a small set of templates chosen to exercise
//! the scheduler's motion kinds: straight-line arithmetic (basic-block
//! fodder), compare/branch diamonds (speculative candidates), and
//! guarded accumulations (useful motion between equivalent blocks).

use crate::rng::XorShift64Star;
use crate::spec::Workload;
use gis_tinyc::compile_program;
use std::fmt::Write as _;

/// Length of the shared input array every loop reads from.
const ARRAY: usize = 64;

/// The `many_loops_scaled` sizes the benchmark harness measures and the
/// CI smoke step re-checks: `(name, loops, stmts, seed)` rows, smallest
/// first. Keyed by name so `BENCH_sched.json` entries stay comparable
/// across runs; the last row is "the largest preset" the performance
/// acceptance numbers are quoted on.
pub const MANY_LOOPS_PRESETS: &[(&str, usize, usize, u64)] = &[
    ("many-loops-s", 16, 2, 11),
    ("many-loops-m", 48, 4, 11),
    ("many-loops-l", 96, 10, 11),
];

/// Builds one of [`MANY_LOOPS_PRESETS`] by name (`None` for an unknown
/// name).
pub fn many_loops_preset(name: &str) -> Option<Workload> {
    MANY_LOOPS_PRESETS
        .iter()
        .find(|&&(n, ..)| n == name)
        .map(|&(_, loops, stmts, seed)| many_loops_scaled(loops, stmts, seed))
}

/// Generates a function with `loops` independent single-entry inner
/// loops (each one region) and compiles it to IR, ready to schedule and
/// execute. Deterministic in `(loops, seed)`.
///
/// # Panics
///
/// Panics if `loops` is zero (the workload would have no regions) or if
/// the generated program fails to compile — a bug in the generator, not
/// an input condition.
pub fn many_loops(loops: usize, seed: u64) -> Workload {
    many_loops_scaled(loops, 1, seed)
}

/// Like [`many_loops`], but with `stmts` template statements in every
/// loop body. Larger bodies mean more instructions per *region* — the
/// regime where the dependence builder's and liveness solver's costs
/// dominate — while `loops` only adds more (independent) regions.
/// `many_loops(n, s)` is exactly `many_loops_scaled(n, 1, s)`, draw for
/// draw.
///
/// # Panics
///
/// As [`many_loops`]; additionally if `stmts` is zero.
pub fn many_loops_scaled(loops: usize, stmts: usize, seed: u64) -> Workload {
    let mut rng = XorShift64Star::new(seed);
    let a: Vec<i64> = (0..ARRAY).map(|_| rng.range_i64(-500, 500)).collect();
    let src = many_loops_source_with(&mut rng, loops, stmts);

    let program = compile_program(&src)
        .unwrap_or_else(|e| panic!("synthetic workload fails to compile: {e}"));
    let memory = program
        .initial_memory(&[("a", &a)])
        .unwrap_or_else(|e| panic!("synthetic workload memory: {e}"));
    Workload {
        name: "MANY-LOOPS",
        program,
        memory,
        source: src,
    }
}

/// Generates only the tiny-C *source* of a scaled many-loops function —
/// the input side of [`many_loops_scaled`], without running the front
/// end. The load generator uses this to build large request corpora
/// cheaply (the daemon under test runs the front end, not the client).
/// Deterministic in `(loops, stmts, seed)`.
///
/// # Panics
///
/// As [`many_loops_scaled`].
pub fn many_loops_source(loops: usize, stmts: usize, seed: u64) -> String {
    let mut rng = XorShift64Star::new(seed);
    // Burn the array draws so the source comes out byte-identical to
    // `many_loops_scaled(loops, stmts, seed).source`.
    for _ in 0..ARRAY {
        let _ = rng.range_i64(-500, 500);
    }
    many_loops_source_with(&mut rng, loops, stmts)
}

/// The skewed many-loops preset the work-stealing benchmark measures:
/// `(name, loops, stmts, heavy_factor, seed)`. All loops carry `stmts`
/// template statements except the *last*, which carries
/// `stmts * heavy_factor` — one region roughly an order of magnitude
/// heavier than its siblings, placed where in-order unit claiming starts
/// it last (the worst case a heaviest-first claim order fixes).
pub const MANY_LOOPS_SKEWED_PRESET: (&str, usize, usize, usize, u64) =
    ("many-loops-skewed", 24, 1, 10, 11);

/// Builds [`MANY_LOOPS_SKEWED_PRESET`] by name (`None` for an unknown
/// name).
pub fn many_loops_skewed_preset(name: &str) -> Option<Workload> {
    let (n, loops, stmts, heavy, seed) = MANY_LOOPS_SKEWED_PRESET;
    (n == name).then(|| many_loops_skewed(loops, stmts, heavy, seed))
}

/// Like [`many_loops_scaled`], but the last loop's body carries
/// `stmts * heavy_factor` statements instead of `stmts`: a deliberately
/// skewed region-weight distribution for measuring work distribution
/// policies. Deterministic in all four parameters.
///
/// # Panics
///
/// As [`many_loops_scaled`]; additionally if `heavy_factor` is zero.
pub fn many_loops_skewed(loops: usize, stmts: usize, heavy_factor: usize, seed: u64) -> Workload {
    let mut rng = XorShift64Star::new(seed);
    let a: Vec<i64> = (0..ARRAY).map(|_| rng.range_i64(-500, 500)).collect();
    let src = many_loops_source_counts(&mut rng, &skewed_counts(loops, stmts, heavy_factor));

    let program = compile_program(&src)
        .unwrap_or_else(|e| panic!("synthetic workload fails to compile: {e}"));
    let memory = program
        .initial_memory(&[("a", &a)])
        .unwrap_or_else(|e| panic!("synthetic workload memory: {e}"));
    Workload {
        name: "MANY-LOOPS-SKEWED",
        program,
        memory,
        source: src,
    }
}

/// Generates only the tiny-C *source* of a skewed many-loops function —
/// the input side of [`many_loops_skewed`], without running the front
/// end. Deterministic in all four parameters.
///
/// # Panics
///
/// As [`many_loops_skewed`].
pub fn many_loops_skewed_source(
    loops: usize,
    stmts: usize,
    heavy_factor: usize,
    seed: u64,
) -> String {
    let mut rng = XorShift64Star::new(seed);
    // Burn the array draws so the source comes out byte-identical to
    // `many_loops_skewed(loops, stmts, heavy_factor, seed).source`.
    for _ in 0..ARRAY {
        let _ = rng.range_i64(-500, 500);
    }
    many_loops_source_counts(&mut rng, &skewed_counts(loops, stmts, heavy_factor))
}

/// The per-loop statement counts of a skewed workload: `stmts`
/// everywhere, `stmts * heavy_factor` for the last loop.
fn skewed_counts(loops: usize, stmts: usize, heavy_factor: usize) -> Vec<usize> {
    assert!(heavy_factor > 0, "a skew factor of zero has no heavy loop");
    let mut counts = vec![stmts; loops];
    if let Some(last) = counts.last_mut() {
        *last = stmts * heavy_factor;
    }
    counts
}

/// Source generation over an already-seeded generator.
///
/// [`many_loops_scaled`] draws the input array from the same generator
/// *before* the source, so this must stay draw-for-draw compatible with
/// the historical inline code: array first, then shapes.
fn many_loops_source_with(rng: &mut XorShift64Star, loops: usize, stmts: usize) -> String {
    many_loops_source_counts(rng, &vec![stmts; loops])
}

/// Source generation with a per-loop statement count. With a uniform
/// count this is draw-for-draw (and byte-for-byte) the historical
/// [`many_loops_source_with`] output — the skewed variant only changes
/// how many statements the heavy loop draws.
fn many_loops_source_counts(rng: &mut XorShift64Star, counts: &[usize]) -> String {
    assert!(!counts.is_empty(), "a workload needs at least one loop");
    assert!(
        counts.iter().all(|&c| c > 0),
        "a loop body needs at least one statement"
    );
    let max_stmts = *counts.iter().max().expect("counts is non-empty");

    let mut src = String::new();
    let _ = write!(src, "int a[{ARRAY}];\nvoid synth() {{\n");
    src.push_str("  int acc = 0; int j = 0;\n");
    // Each statement slot gets its own temporaries *and* its own
    // accumulator: bodies then look like post-§4.2-renaming code
    // (independent sub-chains), the regime the dependence graph is
    // sparse in. Funnelling everything through one shared `x`/`y`/`acc`
    // instead makes every statement depend on every other — a dense
    // graph nothing can build in sub-quadratic time, and not what
    // renamed, scheduled code looks like. The slot accumulators fold
    // into `acc` between loops (outside the regions), which keeps every
    // slot observable and live across the back edge.
    for k in 0..max_stmts {
        let _ = writeln!(src, "  int x{k} = 0; int y{k} = 0; int acc{k} = 0;");
    }
    let fold: String = (0..max_stmts).fold(String::from("acc"), |mut s, k| {
        let _ = write!(s, " + acc{k}");
        s
    });
    for (i, &stmts) in counts.iter().enumerate() {
        let trips = rng.range_i64(3, 7);
        let mut body = String::new();
        for k in 0..stmts {
            body.push_str(&body_stmt(rng, k));
        }
        let _ = write!(
            src,
            "  j = 0;\n  while (j < {trips}) {{\n{body}    j = j + 1;\n  }}\n  acc = {fold};\n"
        );
        if i % 16 == 15 {
            // Occasional observable checkpoints keep the accumulator (and
            // thus every loop) live without flooding the output.
            src.push_str("  print(acc);\n");
        }
    }
    src.push_str("  print(acc);\n}\n");
    src
}

/// The `dispatch_diamonds` sizes the benchmark harness measures for
/// *schedule quality* (simulated cycles, duplication off vs on):
/// `(name, diamonds, seed)` rows, smallest first. Keyed by name so the
/// `BENCH_sched.json` quality entries stay comparable across runs.
pub const DISPATCH_DIAMONDS_PRESETS: &[(&str, usize, u64)] = &[
    ("dispatch-diamonds-s", 12, 23),
    ("dispatch-diamonds-m", 48, 23),
];

/// Builds one of [`DISPATCH_DIAMONDS_PRESETS`] by name (`None` for an
/// unknown name).
pub fn dispatch_diamonds_preset(name: &str) -> Option<Workload> {
    DISPATCH_DIAMONDS_PRESETS
        .iter()
        .find(|&&(n, ..)| n == name)
        .map(|&(_, diamonds, seed)| dispatch_diamonds(diamonds, seed))
}

/// Generates a function of `diamonds` independent store-pinned diamond
/// loops and compiles it to IR. Deterministic in `(diamonds, seed)`.
///
/// Each loop body is an if/else diamond whose arms *store* through a
/// data-dependent index, followed by a join that *loads* from the same
/// array. The join load may-alias both arm stores, so no single hoist
/// target is safe — upward motion into the header is blocked by the
/// dependence, never by control flow alone. The only way to overlap the
/// load with the arms' branch-delay stalls is to copy it into *both*
/// arms: exactly the duplication-based motion the `duplication` gate
/// enables, and nothing the useful/speculative engine can do on its
/// own. The join is a plain two-predecessor merge (not a loop header),
/// so the no-loop duplication guard accepts it.
///
/// # Panics
///
/// Panics if `diamonds` is zero or the generated program fails to
/// compile — a bug in the generator, not an input condition.
pub fn dispatch_diamonds(diamonds: usize, seed: u64) -> Workload {
    let mut rng = XorShift64Star::new(seed);
    let a: Vec<i64> = (0..ARRAY).map(|_| rng.range_i64(-500, 500)).collect();
    let src = dispatch_diamonds_source_with(&mut rng, diamonds);

    let program = compile_program(&src)
        .unwrap_or_else(|e| panic!("synthetic workload fails to compile: {e}"));
    let memory = program
        .initial_memory(&[("a", &a)])
        .unwrap_or_else(|e| panic!("synthetic workload memory: {e}"));
    Workload {
        name: "DISPATCH-DIAMONDS",
        program,
        memory,
        source: src,
    }
}

/// Generates only the tiny-C *source* of a dispatch-diamonds function —
/// the input side of [`dispatch_diamonds`], without running the front
/// end. Deterministic in `(diamonds, seed)`.
///
/// # Panics
///
/// As [`dispatch_diamonds`].
pub fn dispatch_diamonds_source(diamonds: usize, seed: u64) -> String {
    let mut rng = XorShift64Star::new(seed);
    // Burn the array draws so the source comes out byte-identical to
    // `dispatch_diamonds(diamonds, seed).source`.
    for _ in 0..ARRAY {
        let _ = rng.range_i64(-500, 500);
    }
    dispatch_diamonds_source_with(&mut rng, diamonds)
}

/// Source generation over an already-seeded generator; the array draws
/// come first, exactly as in [`many_loops_source_with`]'s contract.
fn dispatch_diamonds_source_with(rng: &mut XorShift64Star, diamonds: usize) -> String {
    assert!(diamonds > 0, "a workload needs at least one diamond");

    let mut src = String::new();
    let _ = write!(src, "int a[{ARRAY}];\nvoid synth() {{\n");
    src.push_str("  int acc = 0; int j = 0; int x = 0;\n");
    for i in 0..diamonds {
        let trips = rng.range_i64(3, 7);
        let header_off = rng.below(ARRAY);
        let threshold = rng.range_i64(-200, 200);
        let scale = rng.range_i64(2, 9);
        let join_off = rng.below(ARRAY);
        // Each arm stores through a data-dependent index and then loads
        // back (may-alias: the load waits for the store); the load's
        // consumer sits in the load interlock, leaving the fixed-point
        // unit an idle cycle — the slot the duplicated join load fills.
        let _ = write!(
            src,
            "  j = 0;\n  while (j < {trips}) {{\n\
             \x20   x = a[(j + {header_off}) & {mask}];\n\
             \x20   if (x > {threshold}) {{ a[x & {mask}] = x + {scale}; acc = acc + a[(x + 1) & {mask}]; }}\n\
             \x20   else {{ a[(x + 7) & {mask}] = x - {scale}; acc = acc + a[(x + 2) & {mask}]; }}\n\
             \x20   acc = acc + a[{join_off}] + x;\n\
             \x20   j = j + 1;\n  }}\n",
            mask = ARRAY - 1
        );
        if i % 16 == 15 {
            src.push_str("  print(acc);\n");
        }
    }
    src.push_str("  print(acc);\n}\n");
    src
}

/// The `dispatch_decode` sizes the experiment matrix measures:
/// `(name, ops, seed)` rows, smallest first. Keyed by name so
/// `BENCH_matrix.json` entries stay comparable across runs.
pub const DISPATCH_DECODE_PRESETS: &[(&str, usize, u64)] = &[
    ("dispatch-decode-s", 48, 29),
    ("dispatch-decode-m", 192, 29),
];

/// Builds one of [`DISPATCH_DECODE_PRESETS`] by name (`None` for an
/// unknown name).
pub fn dispatch_decode_preset(name: &str) -> Option<Workload> {
    DISPATCH_DECODE_PRESETS
        .iter()
        .find(|&&(n, ..)| n == name)
        .map(|&(_, ops, seed)| dispatch_decode(ops, seed))
}

/// Generates a decoder/interpreter-shaped workload: a fetch–decode–
/// execute loop over `ops` packed instruction words. Deterministic in
/// `(ops, seed)`.
///
/// Each iteration loads a word, extracts opcode/register/immediate
/// fields with shifts and masks (a burst of straight-line ILP), reads
/// two registers through data-dependent addresses, and dispatches
/// through an if/else opcode chain — many small blocks ending in
/// unpredictable branches, the LI/interpreter regime where basic-block
/// scheduling finds nothing and speculative motion must hoist the field
/// extraction and register reads of the *next* decision past the
/// current one.
///
/// # Panics
///
/// Panics if `ops` is zero or the generated program fails to compile —
/// a bug in the generator, not an input condition.
pub fn dispatch_decode(ops: usize, seed: u64) -> Workload {
    let mut rng = XorShift64Star::new(seed);
    let code: Vec<i64> = (0..ops).map(|_| rng.range_i64(0, 1 << 15)).collect();
    let src = dispatch_decode_source_with(&mut rng, ops);

    let program = compile_program(&src)
        .unwrap_or_else(|e| panic!("synthetic workload fails to compile: {e}"));
    let memory = program
        .initial_memory(&[("code", &code)])
        .unwrap_or_else(|e| panic!("synthetic workload memory: {e}"));
    Workload {
        name: "DISPATCH-DECODE",
        program,
        memory,
        source: src,
    }
}

/// Generates only the tiny-C *source* of a dispatch-decode function —
/// the input side of [`dispatch_decode`], without running the front
/// end. Deterministic in `(ops, seed)`.
///
/// # Panics
///
/// As [`dispatch_decode`].
pub fn dispatch_decode_source(ops: usize, seed: u64) -> String {
    let mut rng = XorShift64Star::new(seed);
    // Burn the code-stream draws so the source comes out byte-identical
    // to `dispatch_decode(ops, seed).source`.
    for _ in 0..ops {
        let _ = rng.range_i64(0, 1 << 15);
    }
    dispatch_decode_source_with(&mut rng, ops)
}

/// Source generation over an already-seeded generator; the code-stream
/// draws come first, exactly as in [`many_loops_source_with`]'s
/// contract. The seed also shapes the source itself (the ALU constants
/// of two opcode arms), so distinct seeds yield distinct programs, not
/// just distinct inputs.
fn dispatch_decode_source_with(rng: &mut XorShift64Star, ops: usize) -> String {
    assert!(ops > 0, "a decoder needs at least one instruction word");
    let xor_k = rng.range_i64(1, 4096);
    let add_k = rng.range_i64(1, 64);
    format!(
        "int code[{ops}]; int regs[16]; int n = {ops};\n\
         void decode() {{\n\
         \x20 int pc = 0; int steps = 0;\n\
         \x20 while (pc < n) {{\n\
         \x20   int w = code[pc];\n\
         \x20   int op = (w >> 12) & 7;\n\
         \x20   int ra = (w >> 8) & 15;\n\
         \x20   int rb = (w >> 4) & 15;\n\
         \x20   int imm = w & 15;\n\
         \x20   int va = regs[ra];\n\
         \x20   int vb = regs[rb];\n\
         \x20   if (op == 0) {{ regs[ra] = va + vb; }}\n\
         \x20   else if (op == 1) {{ regs[ra] = va - vb; }}\n\
         \x20   else if (op == 2) {{ regs[ra] = va ^ {xor_k}; }}\n\
         \x20   else if (op == 3) {{ regs[ra] = (va << 1) | (vb & 1); }}\n\
         \x20   else if (op == 4) {{ regs[ra] = vb + {add_k}; }}\n\
         \x20   else if (op == 5) {{ steps = steps + va; }}\n\
         \x20   else if (op == 6) {{ regs[rb] = va & vb; }}\n\
         \x20   else {{ regs[ra] = imm; }}\n\
         \x20   pc = pc + 1;\n\
         \x20 }}\n\
         \x20 int i = 0;\n\
         \x20 while (i < 16) {{ steps = steps ^ regs[i]; i = i + 1; }}\n\
         \x20 print(steps);\n\
         }}\n"
    )
}

/// One template statement group for a loop body, drawn from the seeded
/// generator. `k` is the statement slot, choosing which `x{k}`/`y{k}`
/// temporaries the group works in.
fn body_stmt(rng: &mut XorShift64Star, k: usize) -> String {
    let offset = rng.below(ARRAY);
    let scale = rng.range_i64(2, 9);
    let threshold = rng.range_i64(-200, 200);
    match rng.below(4) {
        // Straight-line arithmetic: the basic-block scheduler's diet.
        0 => format!(
            "    x{k} = a[(j + {offset}) & {mask}];\n\
                 \x20   y{k} = x{k} * {scale};\n\
                 \x20   acc = acc + y{k} + (x{k} & {scale});\n",
            mask = ARRAY - 1
        ),
        // Diamond: one branch each way — speculative candidates.
        1 => format!(
            "    x{k} = a[(j + {offset}) & {mask}];\n\
                 \x20   if (x{k} > {threshold}) {{ acc{k} = acc{k} + x{k}; }}\n\
                 \x20   else {{ acc{k} = acc{k} - {scale}; }}\n",
            mask = ARRAY - 1
        ),
        // Guarded accumulation: equivalent head/tail blocks around a
        // conditional — useful-motion fodder.
        2 => format!(
            "    x{k} = a[(j + {offset}) & {mask}];\n\
                 \x20   y{k} = a[(j + {off2}) & {mask}];\n\
                 \x20   if (x{k} != y{k}) {{ acc{k} = acc{k} ^ (x{k} + y{k}); }}\n\
                 \x20   acc = acc + (y{k} & 7);\n",
            mask = ARRAY - 1,
            off2 = (offset + 1) % ARRAY
        ),
        // Three-way compare chain (the EQNTOTT shape).
        _ => format!(
            "    x{k} = a[(j + {offset}) & {mask}];\n\
                 \x20   y{k} = a[(j + {off2}) & {mask}];\n\
                 \x20   if (x{k} > y{k}) {{ acc{k} = acc{k} + 1; }}\n\
                 \x20   else if (x{k} < y{k}) {{ acc{k} = acc{k} - 1; }}\n\
                 \x20   else {{ acc{k} = acc{k} ^ {scale}; }}\n",
            mask = ARRAY - 1,
            off2 = (offset + 3) % ARRAY
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_loops_and_seed() {
        let a = many_loops(24, 7);
        let b = many_loops(24, 7);
        assert_eq!(a.source, b.source);
        assert_eq!(a.memory, b.memory);
        let c = many_loops(24, 8);
        assert_ne!(a.source, c.source, "seed changes the shapes");
    }

    #[test]
    fn scales_to_many_small_regions() {
        let w = many_loops(100, 1);
        let f = &w.program.function;
        // Every loop contributes at least a header block; the function is
        // overwhelmingly many small blocks, not one big one.
        assert!(f.num_blocks() > 100, "{} blocks", f.num_blocks());
        let biggest = f.blocks().map(|(_, b)| b.len()).max().unwrap_or(0);
        assert!(biggest < 40, "no monolithic block (max {biggest})");
    }

    #[test]
    #[should_panic(expected = "at least one loop")]
    fn zero_loops_is_rejected() {
        let _ = many_loops(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one statement")]
    fn zero_stmts_is_rejected() {
        let _ = many_loops_scaled(1, 0, 1);
    }

    #[test]
    fn scaled_form_with_one_stmt_is_the_plain_form() {
        let plain = many_loops(24, 7);
        let scaled = many_loops_scaled(24, 1, 7);
        assert_eq!(plain.source, scaled.source);
        assert_eq!(plain.memory, scaled.memory);
    }

    #[test]
    fn stmts_grow_the_bodies_not_the_loop_count() {
        let thin = many_loops_scaled(16, 1, 3);
        let fat = many_loops_scaled(16, 8, 3);
        let insts = |w: &Workload| w.program.function.num_insts();
        assert!(
            insts(&fat) > 3 * insts(&thin),
            "{} vs {} instructions",
            insts(&fat),
            insts(&thin)
        );
    }

    #[test]
    fn source_only_generator_matches_the_workload() {
        let w = many_loops_scaled(20, 3, 5);
        assert_eq!(many_loops_source(20, 3, 5), w.source);
    }

    #[test]
    fn presets_resolve_by_name() {
        for &(name, ..) in MANY_LOOPS_PRESETS {
            assert!(many_loops_preset(name).is_some(), "{name}");
        }
        assert!(many_loops_preset("many-loops-xxl").is_none());
        let (skewed, ..) = MANY_LOOPS_SKEWED_PRESET;
        assert!(many_loops_skewed_preset(skewed).is_some());
        assert!(many_loops_skewed_preset("many-loops-m").is_none());
    }

    #[test]
    fn skewed_source_is_pinned() {
        // The work-stealing benchmark rows are only comparable across
        // runs while the preset's input stays byte-identical; pin it.
        let (_, loops, stmts, heavy, seed) = MANY_LOOPS_SKEWED_PRESET;
        let w = many_loops_skewed(loops, stmts, heavy, seed);
        assert_eq!(
            many_loops_skewed_source(loops, stmts, heavy, seed),
            w.source
        );
        assert_eq!(
            gis_ir::hash::fnv64(w.source.as_bytes()),
            0x3f74_f6d2_2386_cd7d,
            "preset source changed — regenerate BENCH_sched.json"
        );
    }

    #[test]
    fn skewed_with_factor_one_is_the_uniform_workload() {
        let uniform = many_loops_scaled(12, 2, 7);
        let skewed = many_loops_skewed(12, 2, 1, 7);
        assert_eq!(uniform.source, skewed.source, "draw-for-draw compatible");
        assert_eq!(uniform.memory, skewed.memory);
    }

    #[test]
    fn skewed_preset_has_one_dominant_region() {
        use gis_cfg::{Cfg, DomTree, LoopForest, RegionKind, RegionTree};
        let (name, ..) = MANY_LOOPS_SKEWED_PRESET;
        let w = many_loops_skewed_preset(name).expect("preset exists");
        let f = &w.program.function;
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(&cfg);
        let loops = LoopForest::new(&cfg, &dom);
        let tree = RegionTree::new(&cfg, &loops);
        let mut weights: Vec<usize> = tree
            .schedule_order()
            .into_iter()
            .filter(|&r| matches!(tree.region(r).kind, RegionKind::Loop(_)))
            .map(|r| {
                tree.region(r)
                    .blocks
                    .iter()
                    .map(|&b| f.block(b).len())
                    .sum()
            })
            .collect();
        weights.sort_unstable();
        let heaviest = *weights.last().expect("preset has loops");
        let runner_up = weights[weights.len() - 2];
        assert_eq!(weights.len(), 24, "one region per loop");
        assert!(
            heaviest >= 6 * runner_up,
            "skew collapsed: {heaviest} vs {runner_up}"
        );
    }

    #[test]
    #[should_panic(expected = "skew factor of zero")]
    fn zero_heavy_factor_is_rejected() {
        let _ = many_loops_skewed(2, 1, 0, 1);
    }

    #[test]
    fn dispatch_diamonds_is_deterministic() {
        let a = dispatch_diamonds(8, 23);
        let b = dispatch_diamonds(8, 23);
        assert_eq!(a.source, b.source);
        assert_eq!(a.memory, b.memory);
        let c = dispatch_diamonds(8, 24);
        assert_ne!(a.source, c.source, "seed changes the shapes");
    }

    #[test]
    fn dispatch_diamonds_source_matches_the_workload() {
        let w = dispatch_diamonds(8, 23);
        assert_eq!(dispatch_diamonds_source(8, 23), w.source);
    }

    #[test]
    fn dispatch_diamonds_presets_resolve_by_name() {
        for &(name, ..) in DISPATCH_DIAMONDS_PRESETS {
            assert!(dispatch_diamonds_preset(name).is_some(), "{name}");
        }
        assert!(dispatch_diamonds_preset("dispatch-diamonds-xxl").is_none());
    }

    #[test]
    #[should_panic(expected = "at least one diamond")]
    fn zero_diamonds_is_rejected() {
        let _ = dispatch_diamonds(0, 1);
    }

    #[test]
    fn dispatch_decode_is_deterministic() {
        let a = dispatch_decode(32, 29);
        let b = dispatch_decode(32, 29);
        assert_eq!(a.source, b.source);
        assert_eq!(a.memory, b.memory);
        let c = dispatch_decode(32, 30);
        assert_ne!(a.source, c.source, "seed changes the ALU constants");
        assert_ne!(a.memory, c.memory, "seed changes the code stream");
    }

    #[test]
    fn dispatch_decode_source_matches_the_workload() {
        let w = dispatch_decode(32, 29);
        assert_eq!(dispatch_decode_source(32, 29), w.source);
    }

    #[test]
    fn dispatch_decode_presets_resolve_by_name() {
        for &(name, ..) in DISPATCH_DECODE_PRESETS {
            assert!(dispatch_decode_preset(name).is_some(), "{name}");
        }
        assert!(dispatch_decode_preset("dispatch-decode-xxl").is_none());
    }

    #[test]
    fn dispatch_decode_has_interpreter_shaped_blocks() {
        let w = dispatch_decode(16, 29);
        let f = &w.program.function;
        let avg = f.num_insts() as f64 / f.num_blocks() as f64;
        assert!(avg < 6.0, "dispatch blocks are small (avg {avg:.1})");
    }

    #[test]
    #[should_panic(expected = "at least one instruction word")]
    fn zero_ops_is_rejected() {
        let _ = dispatch_decode(0, 1);
    }
}
