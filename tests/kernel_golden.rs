//! tinyc→IR golden tests for the ported real kernels.
//!
//! Each kernel of the experiment corpus (docs/RESULTS.md) is compiled
//! through the `tinyc` frontend at a small fixed size and pinned three
//! ways: the printed IR must match its golden byte for byte, the
//! canonical encoding's FNV-64 (recorded on the golden's first line)
//! must match, and the structural verifier must pass. A frontend or
//! canon-encoding change that alters what the matrix actually measures
//! shows up here as a diff, not as silently different cycle counts.
//!
//! Regenerate after intentional changes:
//!
//! ```text
//! GIS_UPDATE_GOLDEN=1 cargo test --test kernel_golden
//! ```
//!
//! `frontend_corpus_is_pinned` holds the rest of what the frontend
//! compiles — the SPEC stand-ins, every kernel size the matrix and the
//! benchmarks use, the many-loops and dispatch generators and 500
//! random programs — to one FNV-64 per family, with no golden to
//! regenerate: a change to what the frontend emits for any of them must
//! update the constant on purpose.

mod common;

use gis_ir::hash::{fnv64, Fnv64};
use gis_ir::to_canonical_bytes;
use gis_tinyc::{compile_ast, compile_program, CompiledProgram};
use gis_workloads::rng::XorShift64Star;
use gis_workloads::spec::{self, Workload};
use gis_workloads::{kernels, synth};

/// Compares against the pinned golden, or rewrites it when
/// `GIS_UPDATE_GOLDEN` is set (same contract as `viz_golden.rs`).
fn assert_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("GIS_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nrun GIS_UPDATE_GOLDEN=1 cargo test --test kernel_golden",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden; if intentional, regenerate with \
         GIS_UPDATE_GOLDEN=1 cargo test --test kernel_golden"
    );
}

/// The golden document: the canonical-bytes hash on the first line,
/// then the printed IR the frontend emitted.
fn pin(w: &Workload, golden: &str) {
    let f = &w.program.function;
    if let Err(errs) = gis_check::verify_function(f) {
        panic!("{}: verifier rejects the frontend's IR: {errs:?}", w.name);
    }
    let doc = format!("; canon-fnv64: {:016x}\n{f}", fnv64(&to_canonical_bytes(f)));
    assert_golden(golden, &doc);
}

#[test]
fn idct8_ir_is_pinned() {
    pin(&kernels::idct8(2), "kernel_idct8.ir");
}

#[test]
fn fletcher_ir_is_pinned() {
    pin(&kernels::fletcher(8), "kernel_fletcher.ir");
}

#[test]
fn memwalk_ir_is_pinned() {
    pin(&kernels::memwalk(8), "kernel_memwalk.ir");
}

#[test]
fn dispatch_decode_ir_is_pinned() {
    pin(&synth::dispatch_decode(16, 29), "kernel_dispatch_decode.ir");
}

/// FNV-64 over the canonical bytes of each program in order, each
/// prefixed by its length.
fn family_hash(programs: impl IntoIterator<Item = CompiledProgram>) -> u64 {
    let mut h = Fnv64::new();
    for p in programs {
        let bytes = to_canonical_bytes(&p.function);
        h.write_u64(bytes.len() as u64);
        h.write(&bytes);
    }
    h.finish()
}

fn compiled(src: &str) -> CompiledProgram {
    compile_program(src).unwrap_or_else(|e| panic!("{e}\n{src}"))
}

/// The many-loops inputs of the perfbench workloads
/// (`perfbench/src/inputs.rs`): every `large-fn` ladder rung
/// `(loops, stmts, variants)`, its skewed variants, and the 24-function
/// `serve-edit` corpus dealt round-robin over the serve size classes.
/// Generator seeds are perfbench's `shape_seed`.
fn perfbench_many_loops() -> Vec<Workload> {
    const LADDER: [(usize, usize, usize); 5] =
        [(16, 2, 1), (32, 3, 3), (48, 4, 3), (64, 4, 3), (80, 5, 3)];
    const SKEWED_VARIANTS: usize = 2;
    const SERVE_SIZES: [(usize, usize); 6] = [(4, 1), (6, 2), (8, 2), (12, 2), (16, 2), (8, 4)];
    const SERVE_FUNCS: usize = 24;
    let shape_seed = |shape: usize, variant: usize| 11 + 1000 * shape as u64 + variant as u64;
    let mut out = Vec::new();
    for (k, &(loops, stmts, variants)) in LADDER.iter().enumerate() {
        for v in 0..variants {
            out.push(synth::many_loops_scaled(loops, stmts, shape_seed(k, v)));
        }
    }
    let (_, loops, stmts, heavy, _) = synth::MANY_LOOPS_SKEWED_PRESET;
    for v in 0..SKEWED_VARIANTS {
        out.push(synth::many_loops_skewed(
            loops,
            stmts,
            heavy,
            shape_seed(LADDER.len(), v),
        ));
    }
    for i in 0..SERVE_FUNCS {
        let (loops, stmts) = SERVE_SIZES[i % SERVE_SIZES.len()];
        out.push(synth::many_loops_scaled(loops, stmts, shape_seed(i, 0)));
    }
    out
}

#[test]
fn frontend_corpus_is_pinned() {
    let programs = |ws: Vec<Workload>| ws.into_iter().map(|w| w.program);
    let mut examples: Vec<_> =
        std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/kernels"))
            .expect("examples/kernels")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "c"))
            .collect();
    examples.sort();
    let kernel_family = [2, 4, 32]
        .map(kernels::idct8)
        .into_iter()
        .chain([8, 32, 256].map(kernels::fletcher))
        .chain([8, 32, 256].map(kernels::memwalk))
        .map(|w| w.program)
        .chain(
            examples
                .iter()
                .map(|p| compiled(&std::fs::read_to_string(p).expect("example kernel source"))),
        );
    let dispatch = synth::DISPATCH_DIAMONDS_PRESETS
        .iter()
        .map(|&(_, diamonds, seed)| synth::dispatch_diamonds(diamonds, seed))
        .chain(
            synth::DISPATCH_DECODE_PRESETS
                .iter()
                .map(|&(_, ops, seed)| synth::dispatch_decode(ops, seed)),
        )
        .chain([synth::dispatch_decode(16, 29)]);
    let many_loops = synth::MANY_LOOPS_PRESETS
        .iter()
        .map(|&(_, loops, stmts, seed)| synth::many_loops_scaled(loops, stmts, seed))
        .chain(perfbench_many_loops());
    let random = (0..500u64).map(|seed| {
        let (program, _, _) = common::arb_program(&mut XorShift64Star::new(seed));
        compile_ast(&program).expect("generated programs compile")
    });

    let actual = [
        ("spec::all(64)", family_hash(programs(spec::all(64)))),
        ("kernels", family_hash(kernel_family)),
        ("dispatch", family_hash(dispatch.map(|w| w.program))),
        ("many-loops", family_hash(many_loops.map(|w| w.program))),
        ("arb_program 0..500", family_hash(random)),
    ];
    let pinned: [u64; 5] = [
        0x30e7_7aa0_da74_be62,
        0x91d7_29d9_4478_0a49,
        0x02ad_1aea_39f2_b93b,
        0x78e0_da30_d7c0_5d74,
        0x1c2c_44d8_91a2_b162,
    ];
    let drifted: Vec<String> = actual
        .iter()
        .zip(pinned)
        .filter(|((_, got), want)| got != want)
        .map(|((family, got), want)| format!("{family}: {got:#018x}, pinned {want:#018x}"))
        .collect();
    assert!(
        drifted.is_empty(),
        "the frontend's output drifted:\n{}",
        drifted.join("\n")
    );
}
