//! The daemon's JSON-lines protocol is outside input: any client can
//! send any bytes, and a client reads whatever comes back. A seeded
//! byte-mutation fuzzer (std-only, fixed iteration count) mutates real
//! lines and holds the decoders to three properties:
//!
//! * `Json::parse`, `parse_request` and `parse_response` always return,
//!   never panic (nesting past `Json::MAX_DEPTH` included);
//! * every value `Json::parse` accepts serializes and parses back equal;
//! * every `schedule` response `parse_response` accepts, written again
//!   by `schedule_line`, parses back to the same response.

use gis_core::{compile, SchedConfig};
use gis_ir::hash::fnv64_str;
use gis_ir::parse_function;
use gis_machine::MachineDescription;
use gis_serve::protocol::{
    batch_end_line, error_line, pong_line, schedule_line, schedule_request_line, shutdown_line,
    stats_line,
};
use gis_serve::{parse_request, parse_response, BatchSummary, FuncOutcome, FuncSpec, Lang};
use gis_serve::{Request, Response};
use gis_trace::Json;
use gis_workloads::rng::XorShift64Star;
use gis_workloads::synth;
use std::panic::catch_unwind;
use std::path::Path;

/// Every `.ir` and `.gis` function under `dir`, by file name.
fn functions_in(dir: &Path) -> Vec<(String, String)> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("test data directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ir" || x == "gis"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let name = p.file_stem().expect("file name").to_string_lossy();
            (
                name.into_owned(),
                std::fs::read_to_string(p).expect("IR text"),
            )
        })
        .collect()
}

/// The fuzzer's seed lines: `schedule` requests for serve-corpus
/// sources, `schedule` responses for the golden and corpus functions,
/// and every other request and response kind.
fn seeds() -> Vec<String> {
    let mut out = vec![
        r#"{"req":"ping","id":1}"#.to_owned(),
        r#"{"req":"stats","id":2}"#.to_owned(),
        r#"{"req":"shutdown","id":3}"#.to_owned(),
        pong_line(1),
        shutdown_line(3),
        stats_line(
            2,
            &[
                ("cache.hits".to_owned(), 5),
                ("serve.requests".to_owned(), 9),
            ],
        ),
        error_line("malformed JSON: expected a value at byte 0"),
        batch_end_line(
            4,
            &BatchSummary {
                count: 2,
                ok: 1,
                errors: 1,
                cache_hits: 1,
                cache_misses: 0,
                nanos: 45_678,
            },
        ),
    ];
    for (i, (loops, stmts)) in [(2, 1), (4, 1), (3, 2)].into_iter().enumerate() {
        let source = synth::many_loops_scaled(loops, stmts, 11 + 1000 * i as u64).source;
        let config = [("preset".to_owned(), Json::Str("useful".to_owned()))];
        let funcs = [FuncSpec {
            name: Some(format!("unit-{i}")),
            text: source,
        }];
        let config: &[(String, Json)] = if i == 1 { &config } else { &[] };
        out.push(schedule_request_line(
            5 + i as i64,
            Lang::TinyC,
            "rs6k",
            config,
            &funcs,
        ));
    }
    let machine = MachineDescription::rs6k();
    let config = SchedConfig::speculative();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = functions_in(&root.join("tests/golden"))
        .into_iter()
        .chain(functions_in(&root.join("tests/corpus")));
    for (i, (name, text)) in files.enumerate() {
        let mut f = parse_function(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let stats = compile(&mut f, &machine, &config).expect("schedules");
        let schedule = f.to_string();
        let outcome = FuncOutcome::Ok {
            cached: i % 2 == 0,
            hash: fnv64_str(&schedule),
            nanos: 12_345,
            moved_useful: stats.moved_useful as u64,
            moved_speculative: stats.moved_speculative as u64,
            schedule,
        };
        out.push(schedule_line(8, i, &name, &outcome));
    }
    let failed = FuncOutcome::Error {
        message: "tiny-C front end: line 1: expected ';'".to_owned(),
    };
    out.push(schedule_line(9, 0, "broken", &failed));
    out.push(schedule_line(9, 1, "slow", &FuncOutcome::Timeout));
    out
}

/// Strings worth splicing in: escapes (valid, truncated and unknown)
/// and multi-byte characters.
const INJECTIONS: &[&str] = &[
    "\\", "\\\"", "\\n", "\\u", "\\u00e9", "\\ud800", "\\u12", "\\x", "\"", "é", "€", "𝄞",
    "\u{2028}", "\u{7f}",
];

/// Bytes a replacement or insertion draws from: JSON's own punctuation
/// and a few letters and digits, most of the time, or any byte.
fn arb_byte(r: &mut XorShift64Star) -> u8 {
    const JSON_BYTES: &[u8] = b"{}[]:,\"\\ -.eE+0123456789tfnul";
    if r.chance(3, 4) {
        *r.pick(JSON_BYTES)
    } else {
        r.below(256) as u8
    }
}

/// Numbers at and past the edges of `i64` and `f64`.
const EXTREME_NUMBERS: &[&str] = &[
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775809",
    "1e999",
    "-1E400",
    "1.7976931348623157e308",
    "4.9e-324",
    "1e-400",
    "-0",
    "-0.0",
];

/// Applies one random edit: replace, insert or delete a byte, repeat a
/// bracket (sometimes past the nesting cap), truncate, splice in an
/// escape or a multi-byte character, or replace a run of digits with an
/// extreme number.
fn mutate(r: &mut XorShift64Star, line: &mut Vec<u8>) {
    let at = r.below(line.len() + 1);
    match r.below(7) {
        0 if at < line.len() => line[at] = arb_byte(r),
        1 => line.insert(at, arb_byte(r)),
        2 if at < line.len() => {
            line.remove(at);
        }
        3 => {
            let Some(bracket) = (at..line.len())
                .chain(0..at)
                .find(|&i| b"[]{}".contains(&line[i]))
            else {
                return;
            };
            let copies = if r.chance(1, 4) {
                Json::MAX_DEPTH + r.below(200)
            } else {
                1 + r.below(4)
            };
            let b = line[bracket];
            line.splice(bracket..bracket, std::iter::repeat_n(b, copies));
        }
        4 => line.truncate(at),
        5 => {
            let Some(start) = (at..line.len())
                .chain(0..at)
                .find(|&i| line[i].is_ascii_digit())
            else {
                return;
            };
            let end = (start..line.len())
                .find(|&i| !line[i].is_ascii_digit())
                .unwrap_or(line.len());
            line.splice(start..end, r.pick(EXTREME_NUMBERS).bytes());
        }
        _ => {
            let s = r.pick(INJECTIONS);
            line.splice(at..at, s.bytes());
        }
    }
}

#[test]
fn mutated_lines_never_panic_and_accepted_ones_round_trip() {
    const ITERS: u64 = 3000;
    let seeds = seeds();
    let (mut values, mut requests, mut schedules) = (0, 0, 0);
    for i in 0..ITERS {
        let mut r = XorShift64Star::stream(0x15_0D3C, i);
        let seed = r.pick(&seeds);
        let mut bytes = seed.clone().into_bytes();
        for _ in 0..1 + r.below(4) {
            mutate(&mut r, &mut bytes);
        }
        let line = String::from_utf8_lossy(&bytes);
        let line = line.as_ref();
        let decoded =
            catch_unwind(|| (Json::parse(line), parse_request(line), parse_response(line)));
        let Ok((value, request, response)) = decoded else {
            panic!("mutant {i}: a decoder panicked on\n{line}");
        };
        if let Ok(value) = value {
            values += 1;
            let text = value.to_string();
            assert_eq!(
                Json::parse(&text).as_ref(),
                Ok(&value),
                "mutant {i}: {line}\nwrites back as {text}"
            );
        }
        if let Ok(Request::Schedule(_)) = request {
            requests += 1;
        }
        if let Ok(Response::Schedule {
            id,
            index,
            name,
            outcome,
        }) = &response
        {
            schedules += 1;
            let again = schedule_line(*id, *index, name, outcome);
            assert_eq!(
                parse_response(&again).as_ref(),
                response.as_ref(),
                "mutant {i}: {line}\nwrites back as {again}"
            );
        }
    }
    // The test is only as strong as the share of mutants that get past
    // the decoders to the round-trip checks.
    assert!(values >= ITERS / 10, "{values} of {ITERS} mutants parsed");
    assert!(requests > 0, "no mutant parsed as a schedule request");
    assert!(schedules > 0, "no mutant parsed as a schedule response");
}
