//! Textual IR is outside input too: `gisc --asm` and the daemon's
//! `"lang":"asm"` requests parse whatever text arrives. A byte-mutation
//! fuzzer (std-only, seeded, fixed iteration count) mutates the pinned
//! kernel listings and the hand-written corpus, inflating numbers
//! towards `MAX_INST_ID`, `MAX_REG_INDEX` and the `u32`, `i64` and `u64`
//! limits, and requires that `parse_function` never panics, and that
//! every function it accepts prints and re-parses to identical canonical
//! bytes.

use gis_ir::{parse_function, to_canonical_bytes, MAX_INST_ID, MAX_REG_INDEX};
use gis_workloads::rng::XorShift64Star;

/// The fuzzer's seed listings: `tests/golden/*.ir` and
/// `tests/corpus/*.gis`.
fn seeds() -> Vec<(String, String)> {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut out = Vec::new();
    for (dir, ext) in [("tests/golden", "ir"), ("tests/corpus", "gis")] {
        let mut paths: Vec<_> = std::fs::read_dir(format!("{root}/{dir}"))
            .expect("seed directory")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == ext))
            .collect();
        paths.sort();
        for p in paths {
            let text = std::fs::read_to_string(&p).expect("seed listing");
            assert!(parse_function(&text).is_ok(), "{} parses", p.display());
            out.push((p.display().to_string(), text));
        }
    }
    assert!(out.len() >= 9, "{} seed listings", out.len());
    out
}

/// Numbers just below, at and above the parser's bounds and the integer
/// limits its fields are read into.
fn big_numbers() -> Vec<String> {
    let mut out = Vec::new();
    for limit in [u64::from(MAX_INST_ID), u64::from(MAX_REG_INDEX)] {
        out.extend([limit - 1, limit, limit + 1].map(|n| n.to_string()));
    }
    let u32_max = u64::from(u32::MAX);
    let i64_max = i64::MAX as u64;
    for n in [u32_max, u32_max + 1, i64_max, i64_max + 1, u64::MAX] {
        out.push(n.to_string());
    }
    out.push("18446744073709551616".to_owned());
    out
}

/// Bytes a replacement or insertion draws from: the listing's own
/// punctuation, register and opcode letters and digits, most of the
/// time, or any ASCII byte.
fn arb_byte(r: &mut XorShift64Star) -> u8 {
    const LISTING_BYTES: &[u8] = b"()=,:;>-/ \n\trfcIxLABST0159";
    if r.chance(3, 4) {
        *r.pick(LISTING_BYTES)
    } else {
        r.below(128) as u8
    }
}

/// Applies one random edit: replace, insert or delete a byte, or replace
/// a run of digits (an id, a register index, an immediate) with a large
/// number or a random one.
fn mutate(r: &mut XorShift64Star, big: &[String], src: &mut Vec<u8>) {
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
            let digits: Vec<u8> = if r.chance(2, 3) {
                r.pick(big).bytes().collect()
            } else {
                let len = 1 + r.below(8);
                (0..len).map(|_| b'0' + r.below(10) as u8).collect()
            };
            src.splice(start..end, digits);
        }
    }
}

#[test]
fn mutated_listings_never_panic_and_accepted_ones_round_trip() {
    const ITERS: u64 = 20_000;
    let seeds = seeds();
    let big = big_numbers();
    let mut accepted = 0;
    for i in 0..ITERS {
        let mut r = XorShift64Star::stream(0x1E_F022, i);
        let (name, seed) = r.pick(&seeds);
        let mut bytes = seed.clone().into_bytes();
        for _ in 0..1 + r.below(4) {
            mutate(&mut r, &big, &mut bytes);
        }
        let text = String::from_utf8_lossy(&bytes);
        let parsed = std::panic::catch_unwind(|| parse_function(&text))
            .unwrap_or_else(|_| panic!("mutant {i} of {name}: parse_function panicked on\n{text}"));
        let Ok(f) = parsed else {
            continue;
        };
        accepted += 1;
        let listing = f.to_string();
        let reparsed = parse_function(&listing).unwrap_or_else(|e| {
            panic!("mutant {i} of {name}: the listing does not parse: {e}\n{listing}")
        });
        assert!(
            to_canonical_bytes(&reparsed) == to_canonical_bytes(&f),
            "mutant {i} of {name}: the listing does not round-trip\n{text}\n{listing}"
        );
    }
    // The test is only as strong as the share of mutants that reach the
    // round trip.
    assert!(
        accepted >= ITERS / 10,
        "{accepted} of {ITERS} mutants accepted"
    );
}
