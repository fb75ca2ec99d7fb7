//! tinyc source is outside input: the daemon compiles whatever text a
//! client sends. These tests hold the front end to that.
//!
//! * Constants too large to address — a constant index whose byte
//!   displacement overflows, an array whose extent overflows the address
//!   space — are errors, not wrapped displacements or a debug-build
//!   overflow panic.
//! * A byte-mutation fuzzer (std-only, seeded, fixed iteration count)
//!   mutates real sources and requires that `compile_program` never
//!   panics, and that every program it accepts passes the structural and
//!   dataflow verifier and round-trips through the printer and
//!   `parse_function` to identical canonical bytes.

use gis_ir::{parse_function, to_canonical_bytes};
use gis_tinyc::{compile_ast, compile_program, FrontendError, Global, Program, Stmt};
use gis_workloads::rng::XorShift64Star;
use gis_workloads::{kernels, spec, synth};

#[test]
fn oversized_indices_and_arrays_are_errors() {
    let index = "index 3000000000000000000 of array \"a\"";
    for (src, want) in [
        (
            "int a[8]; void f() { print(a[3000000000000000000]); }",
            index,
        ),
        ("int a[8]; void f() { a[3000000000000000000] = 1; }", index),
        (
            "int a[3000000000000000000]; int b[4]; void f() { b[0] = 1; }",
            "array \"a\"",
        ),
    ] {
        match compile_program(src) {
            Err(FrontendError::Codegen(msg)) => assert!(msg.contains(want), "{src}: {msg}"),
            other => panic!("{src}: expected a codegen error, got {other:?}"),
        }
    }
    // Through the AST, an array length need not even fit an `i64`.
    let program = Program {
        globals: vec![Global::array("a", usize::MAX)],
        name: "f".into(),
        body: vec![Stmt::Call("g".into())],
    };
    match compile_ast(&program) {
        Err(FrontendError::Codegen(msg)) => assert!(msg.contains("array \"a\""), "{msg}"),
        other => panic!("expected a codegen error, got {other:?}"),
    }
    // The largest addresses that fit still compile.
    let fits = "int a[8]; void f() { print(a[2305843009213693951]); }";
    assert!(compile_program(fits).is_ok(), "{fits}");
}

/// The fuzzer's seed sources: the example kernels, the SPEC stand-ins,
/// the real kernels and a small many-loops function.
fn seeds() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/kernels");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/kernels")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    paths.sort();
    let mut out: Vec<(String, String)> = paths
        .iter()
        .map(|p| {
            let src = std::fs::read_to_string(p).expect("example kernel source");
            (p.display().to_string(), src)
        })
        .collect();
    let workloads = spec::all(16).into_iter().chain([
        kernels::idct8(1),
        kernels::fletcher(8),
        kernels::memwalk(8),
    ]);
    out.extend(workloads.map(|w| (w.name.to_owned(), w.source)));
    out.push((
        "many-loops 4x1".to_owned(),
        synth::many_loops_source(4, 1, 11),
    ));
    out
}

/// Bytes a replacement or insertion draws from: the language's own
/// punctuation and a few letters and digits, most of the time, or any
/// ASCII byte.
fn arb_byte(r: &mut XorShift64Star) -> u8 {
    const SOURCE_BYTES: &[u8] = b"(){}[];=+-*/%&|^<>!, \n\tiaxn019";
    if r.chance(3, 4) {
        *r.pick(SOURCE_BYTES)
    } else {
        r.below(128) as u8
    }
}

/// Applies one random edit: replace, insert or delete a byte, or inflate
/// a run of digits (towards the limits of `i64` and of addressing).
fn mutate(r: &mut XorShift64Star, src: &mut Vec<u8>) {
    const BIG: [&str; 4] = [
        "2305843009213693952",
        "3000000000000000000",
        "9223372036854775807",
        "9223372036854775808",
    ];
    let at = r.below(src.len() + 1);
    match r.below(4) {
        0 if at < src.len() => src[at] = arb_byte(r),
        1 => src.insert(at, arb_byte(r)),
        2 if at < src.len() => {
            src.remove(at);
        }
        _ => {
            let Some(start) = (at..src.len())
                .chain(0..at)
                .find(|&i| src[i].is_ascii_digit())
            else {
                return;
            };
            let end = (start..src.len())
                .find(|&i| !src[i].is_ascii_digit())
                .unwrap_or(src.len());
            let digits: Vec<u8> = if r.chance(1, 2) {
                r.pick(&BIG).bytes().collect()
            } else {
                let len = 1 + r.below(20);
                let mut digits = vec![b'1' + r.below(9) as u8];
                digits.extend((1..len).map(|_| b'0' + r.below(10) as u8));
                digits
            };
            src.splice(start..end, digits);
        }
    }
}

#[test]
fn mutated_sources_never_panic_and_accepted_ones_round_trip() {
    const ITERS: u64 = 3000;
    let seeds = seeds();
    let (mut accepted, mut codegen_errors) = (0, 0);
    for i in 0..ITERS {
        let mut r = XorShift64Star::stream(0x7C_F022, i);
        let (name, seed) = r.pick(&seeds);
        let mut bytes = seed.clone().into_bytes();
        for _ in 0..1 + r.below(4) {
            mutate(&mut r, &mut bytes);
        }
        let src = String::from_utf8_lossy(&bytes);
        let result = std::panic::catch_unwind(|| compile_program(&src));
        let program = match result {
            Err(_) => panic!("mutant {i} of {name}: compile_program panicked on\n{src}"),
            Ok(Err(FrontendError::Codegen(_))) => {
                codegen_errors += 1;
                continue;
            }
            Ok(Err(_)) => continue,
            Ok(Ok(program)) => program,
        };
        accepted += 1;
        let f = &program.function;
        if let Err(errs) = gis_check::verify_function(f) {
            panic!("mutant {i} of {name}: the verifier rejects the IR: {errs:?}\n{src}\n{f}");
        }
        let reparsed = parse_function(&f.to_string()).unwrap_or_else(|e| {
            panic!("mutant {i} of {name}: the listing does not parse: {e}\n{f}")
        });
        assert!(
            to_canonical_bytes(&reparsed) == to_canonical_bytes(f),
            "mutant {i} of {name}: the listing does not round-trip\n{f}"
        );
    }
    // The test is only as strong as the share of mutants that reach the
    // checks after the front end.
    assert!(
        accepted >= ITERS / 10,
        "{accepted} of {ITERS} mutants accepted"
    );
    assert!(codegen_errors > 0, "no mutant reached a codegen error");
}
