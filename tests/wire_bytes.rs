//! The daemon's wire bytes are a contract: a client written against one
//! version must read the next one's lines unchanged. This test writes
//! every kind of response line, and the client's `schedule` request
//! line, for the inputs of perfbench's `kernels` (seed 1) and
//! `serve-edit` workloads, plus one string holding every character
//! below U+0250 and a few past it, and pins one FNV-64 over all of it.
//!
//! The pin was recorded with the per-character JSON writer the run-based
//! one replaced. It moves when a schedule in the corpus moves (so does
//! `BENCH_sched.json`) or when the scheduler's perf counters, which the
//! `stats` lines carry, change; it must not move for a change to the JSON
//! or protocol code alone. It was re-recorded when the two scratch
//! counters left the perf counters, by running this test against the
//! writer of the version before that change with the same four-counter
//! input. It was last re-recorded when dependence reduction became
//! block-local, which changes what `perf.dep-edges-reduced` counts (the
//! cross-block edges the whole-scope reduction dropped now stay): with
//! that counter's values written as 0, the wire text hashed
//! `134afce801a9a78a` both before and after that change, so nothing
//! else moved. It was last re-recorded when the global passes began to
//! share one liveness solve per CFG version, which lowers
//! `perf.liveness-full` from 2 to 1 wherever rotate leaves the CFG
//! alone: with that counter's values written as 0, the wire text hashed
//! `afc805a4949fc2af` both before and after that change.

use gis_core::{compile, SchedConfig};
use gis_ir::hash::fnv64_str;
use gis_ir::Function;
use gis_machine::MachineDescription;
use gis_serve::protocol::{
    batch_end_line, error_line, schedule_line, schedule_request_line, stats_line,
};
use gis_serve::{BatchSummary, FuncOutcome, FuncSpec, Lang};
use gis_trace::Json;
use gis_workloads::rng::XorShift64Star;
use gis_workloads::{minmax, spec, synth};

/// FNV-64 of every line [`wire_text`] writes.
const WIRE_FNV: u64 = 0x53ca_4b1b_1fac_319d;

/// `(name, lang, text, ir)` for every input of the two workloads.
fn inputs() -> Vec<(String, Lang, String, Function)> {
    let tinyc = |name: &str, w: spec::Workload| {
        (name.to_owned(), Lang::TinyC, w.source, w.program.function)
    };
    // `kernels`: the matrix corpus, ESPRESSO and GCC at their seed-1
    // sizes, and the paper's minmax (hand-built IR, sent as `asm`).
    let mut rng = XorShift64Star::stream(1, 1);
    let mut size = || 64 + rng.below(192);
    let mut out: Vec<_> = gis_bench::matrix::corpus(false)
        .into_iter()
        .map(|(name, w)| tinyc(name, w))
        .collect();
    out.push(tinyc("espresso", spec::espresso(size())));
    out.push(tinyc("gcc", spec::gcc(size())));
    let f = minmax::figure2_function((size() | 1) as i64);
    out.push(("minmax".to_owned(), Lang::Asm, f.to_string(), f));
    // `serve-edit`: 24 many-loops functions over six size classes.
    const SIZES: [(usize, usize); 6] = [(4, 1), (6, 2), (8, 2), (12, 2), (16, 2), (8, 4)];
    for i in 0..24 {
        let (loops, stmts) = SIZES[i % SIZES.len()];
        let w = synth::many_loops_scaled(loops, stmts, 11 + 1000 * i as u64);
        out.push(tinyc(&format!("unit-{i:02}-{loops}x{stmts}"), w));
    }
    out
}

/// Every line, each ended by `\n`.
fn wire_text() -> String {
    let machine = MachineDescription::rs6k();
    let config = SchedConfig::speculative();
    let mut wire = String::new();
    let mut line = |l: String| {
        wire.push_str(&l);
        wire.push('\n');
    };
    for (i, (name, lang, text, ir)) in inputs().into_iter().enumerate() {
        let id = i as i64;
        let config_members = if i % 2 == 0 {
            Vec::new()
        } else {
            vec![
                ("preset".to_owned(), Json::Str("useful".to_owned())),
                ("max_branches".to_owned(), Json::Int(2)),
                ("duplication".to_owned(), Json::Bool(true)),
            ]
        };
        let funcs = [FuncSpec {
            name: (i % 3 != 0).then(|| name.clone()),
            text,
        }];
        line(schedule_request_line(
            id,
            lang,
            "rs6k",
            &config_members,
            &funcs,
        ));
        let mut f = ir;
        let stats = compile(&mut f, &machine, &config).expect("schedules");
        let schedule = f.to_string();
        let ok = FuncOutcome::Ok {
            cached: i % 2 == 1,
            hash: fnv64_str(&schedule),
            nanos: 1_000 * i as u64 + 7,
            moved_useful: stats.moved_useful as u64,
            moved_speculative: stats.moved_speculative as u64,
            schedule,
        };
        line(schedule_line(id, 0, &name, &ok));
        let failed = FuncOutcome::Error {
            message: format!("tiny-C front end: line {i}: expected ';'"),
        };
        line(schedule_line(id, 1, &name, &failed));
        line(schedule_line(id, 2, &name, &FuncOutcome::Timeout));
        let summary = BatchSummary {
            count: 3,
            ok: 1,
            errors: 2,
            cache_hits: (i % 2) as u64,
            cache_misses: 1 - (i % 2) as u64,
            nanos: 5_000 * i as u64 + 3,
        };
        line(batch_end_line(id, &summary));
        let counters: Vec<(String, u64)> = stats
            .perf_counters()
            .iter()
            .map(|&(k, v)| (k.to_owned(), v))
            .collect();
        line(stats_line(id, &counters));
        line(error_line(&format!("unknown machine '{name}'")));
    }
    let every_char: String = (0..0x250u32)
        .filter_map(char::from_u32)
        .chain("é€𝄞\u{7f}\u{2028}".chars())
        .collect();
    line(Json::Str(every_char.clone()).to_string());
    line(error_line(&every_char));
    line(schedule_line(-1, 7, &every_char, &FuncOutcome::Timeout));
    wire
}

#[test]
fn wire_bytes_are_pinned() {
    let wire = wire_text();
    assert_eq!(
        fnv64_str(&wire),
        WIRE_FNV,
        "the wire bytes moved ({} bytes written)",
        wire.len()
    );
}
