//! Golden decision traces for the paper's running example (§5.4): the
//! observer must report exactly the motions Figures 5 and 6 annotate,
//! with the paper's reason codes, and observing must never change the
//! schedule.

use gis_core::{compile, compile_observed, SchedConfig, SchedLevel, SchedStats};
use gis_ir::Function;
use gis_machine::MachineDescription;
use gis_trace::{Metrics, MotionKind, Recorder, TieBreak, TraceEvent, TraceQuery};
use gis_workloads::minmax;

fn traced(level: SchedLevel) -> (Function, SchedStats, Recorder) {
    let mut f = minmax::figure2_function(99);
    let machine = MachineDescription::rs6k();
    let mut rec = Recorder::new();
    let stats = compile_observed(
        &mut f,
        &machine,
        &SchedConfig::paper_example(level),
        &mut rec,
    )
    .expect("compiles");
    (f, stats, rec)
}

/// `(inst, from, into, kind)` of every motion event, in order.
fn motions(rec: &Recorder) -> Vec<(u32, String, String, MotionKind)> {
    rec.events()
        .filter_map(|e| match e {
            TraceEvent::Moved {
                inst,
                from,
                into,
                kind,
                ..
            } => Some((*inst, from.clone(), into.clone(), *kind)),
            _ => None,
        })
        .collect()
}

#[test]
fn figure5_trace_records_the_paper_motions() {
    let (_, stats, rec) = traced(SchedLevel::Useful);
    let moved = motions(&rec);
    // The paper: I18 and I19 from BL10 into BL1, I8 from BL4 to BL2,
    // I15 from BL8 to BL6 — all useful. (Figure 2's BL1/BL4/BL6/BL8/BL10
    // carry the labels CL.0/CL.6/CL.4/CL.11/CL.9 here.)
    let expect = |inst: u32, from: &str, into: &str| {
        assert!(
            moved.contains(&(inst, from.into(), into.into(), MotionKind::Useful)),
            "I{inst} {from} -> {into} missing from {moved:?}"
        );
    };
    expect(18, "CL.9", "CL.0");
    expect(19, "CL.9", "CL.0");
    expect(8, "CL.6", "BL2");
    expect(15, "CL.11", "CL.4");
    assert_eq!(moved.len(), 4, "exactly the paper's motions: {moved:?}");
    assert!(
        moved.iter().all(|(_, _, _, k)| *k == MotionKind::Useful),
        "useful scheduling never speculates"
    );
    assert!(
        !rec.events()
            .any(|e| matches!(e, TraceEvent::Renamed { .. })),
        "no renaming at the useful level"
    );
    // The metrics registry agrees with the flat stats.
    let m = Metrics::from_events(rec.events());
    assert_eq!(m.counter("moved-useful") as usize, stats.moved_useful);
    assert_eq!(m.counter("moved-useful"), 4);
    assert_eq!(m.counter("moved-speculative"), 0);
}

#[test]
fn figure6_trace_records_speculative_motions_and_the_rename() {
    let (f, stats, rec) = traced(SchedLevel::Speculative);
    let moved = motions(&rec);
    // Figure 6 adds I5 and I12, moved speculatively into BL1.
    assert!(
        moved.contains(&(5, "BL2".into(), "CL.0".into(), MotionKind::Speculative)),
        "I5 speculates into CL.0: {moved:?}"
    );
    assert!(
        moved.contains(&(12, "CL.4".into(), "CL.0".into(), MotionKind::Speculative)),
        "I12 speculates into CL.0: {moved:?}"
    );
    // I12's cr6 would clobber I5's compare, live on exit from BL1 — the
    // §5.3 renaming escape fires (the paper prints cr6 -> cr5).
    let renames: Vec<(u32, &str)> = rec
        .events()
        .filter_map(|e| match e {
            TraceEvent::Renamed { inst, old, .. } => Some((*inst, old.as_str())),
            _ => None,
        })
        .collect();
    assert_eq!(renames, vec![(12, "cr6")], "exactly the Figure 6 rename");
    assert_eq!(stats.renamed_speculative, 1);
    // Some speculative gambles are rejected by the live-on-exit rule, and
    // every rejection event carries that reason code.
    let rejects: Vec<&TraceEvent> = rec
        .events()
        .filter(|e| matches!(e, TraceEvent::Rejected { .. }))
        .collect();
    assert_eq!(rejects.len(), stats.rejected_live_out);
    let m = Metrics::from_events(rec.events());
    assert_eq!(
        m.counter("rejected.live-on-exit") as usize,
        stats.rejected_live_out
    );
    assert_eq!(m.counter("renamed-speculative"), 1);
    assert_eq!(
        m.counter("moved-speculative") as usize,
        stats.moved_speculative
    );
    // The traced function still is the Figure 6 schedule.
    let (_, block) = f.blocks().find(|(_, b)| b.label() == "CL.0").expect("CL.0");
    let ids: Vec<u32> = block.insts().map(|i| i.id.index() as u32).collect();
    assert_eq!(ids, vec![1, 2, 18, 3, 19, 5, 12, 4], "\n{f}");
}

#[test]
fn stores_and_calls_are_barred_from_speculation() {
    // A store in the conditional block may not cross the branch; the
    // trace must say so with the may-not-speculate reason code.
    let text = "func bar\n\
        entry:\n (I0) C cr0=r1,r2\n (I1) BF out,cr0,0x1/lt\n\
        then:\n (I2) ST r3=>a(r9,0)\n (I3) AI r4=r4,1\n\
        out:\n (I4) PRINT r4\n (I5) RET\n";
    let mut f = gis_ir::parse_function(text).expect("parses");
    let machine = MachineDescription::rs6k();
    let mut rec = Recorder::new();
    let mut config = SchedConfig::speculative();
    config.unroll = false;
    config.rotate = false;
    compile_observed(&mut f, &machine, &config, &mut rec).expect("compiles");
    let barred: Vec<u32> = rec
        .events()
        .filter_map(|e| match e {
            TraceEvent::CandidateRejected { inst, reason, .. } => {
                assert_eq!(reason.code(), "may-not-speculate");
                Some(*inst)
            }
            _ => None,
        })
        .collect();
    assert!(barred.contains(&2), "the store I2 is barred: {barred:?}");
}

#[test]
fn oversized_regions_emit_the_size_reason_code() {
    let mut f = minmax::figure2_function(99);
    let machine = MachineDescription::rs6k();
    let mut config = SchedConfig::speculative();
    config.max_region_insts = 4; // the loop has 20
    config.unroll = false;
    config.rotate = false;
    let mut rec = Recorder::new();
    let stats = compile_observed(&mut f, &machine, &config, &mut rec).expect("compiles");
    let m = Metrics::from_events(rec.events());
    assert!(m.counter("regions-skipped.region-too-many-insts") > 0);
    assert_eq!(m.counter("regions-skipped") as usize, stats.regions_skipped);
}

#[test]
fn noop_observer_is_bit_identical_to_tracing() {
    for level in [
        SchedLevel::BasicBlockOnly,
        SchedLevel::Useful,
        SchedLevel::Speculative,
    ] {
        for config in [SchedConfig::paper_example(level), {
            let mut c = SchedConfig::speculative();
            c.level = level;
            c
        }] {
            let machine = MachineDescription::rs6k();
            let mut plain = minmax::figure2_function(99);
            let plain_stats = compile(&mut plain, &machine, &config).expect("compiles");
            let mut observed = minmax::figure2_function(99);
            let mut rec = Recorder::new();
            let observed_stats =
                compile_observed(&mut observed, &machine, &config, &mut rec).expect("compiles");
            assert_eq!(
                plain.to_string(),
                observed.to_string(),
                "observing changed the schedule at {level:?}"
            );
            // Identical statistics, wall-clock timings aside.
            let mut a = plain_stats;
            let mut b = observed_stats;
            a.pass_nanos = [0; 6];
            b.pass_nanos = [0; 6];
            assert_eq!(a, b, "observing changed the statistics at {level:?}");
        }
    }
}

#[test]
fn json_lines_round_trip_a_real_trace() {
    let (_, _, rec) = traced(SchedLevel::Speculative);
    assert!(rec.len() > 10, "a real trace has substance");
    let text = rec.to_json_lines();
    let parsed: Vec<TraceEvent> = text
        .lines()
        .map(|l| TraceEvent::from_json_line(l).expect("every line parses"))
        .collect();
    let original: Vec<TraceEvent> = rec.events().cloned().collect();
    assert_eq!(parsed, original, "JSON lines round-trip the whole trace");
}

// --- Duplication-based motion ------------------------------------------

/// The duplication engine's diamond: the join load `I11` may-aliases the
/// stores in both arms, so no single arm is a safe target and the only
/// way out of `J` is a copy per predecessor.
const DUP_DIAMOND: &str = "\
func d
H:
    (I0) LI r8=7
    (I1) L  r1=p(r0,0)
    (I2) C  cr0=r1,r2
    (I3) BT T,cr0,0x1/lt
E:
    (I4) ST r8=>buf(r9,16)
    (I5) L  r6=buf(r10,16)
    (I6) AI r3=r6,1
    (I7) B  J
T:
    (I8) ST r8=>buf(r9,32)
    (I9) L  r6=buf(r10,24)
    (I10) AI r3=r6,2
J:
    (I11) L  r5=buf(r10,32)
    (I12) MUL r4=r5,r3
    (I13) PRINT r4
    (I14) RET
";

/// An if-then join: `H` branches straight around `T` to `J`, so `J`'s
/// predecessor set fails the duplication guard (a predecessor with two
/// successors) and the movable join load can only be *reported* as
/// needing duplication, never copied.
const IF_THEN_JOIN: &str = "\
func g
H:
    (I0) LI r8=7
    (I1) L  r1=p(r0,0)
    (I2) C  cr0=r1,r2
    (I3) BT J,cr0,0x1/lt
T:
    (I4) ST r8=>buf(r9,16)
J:
    (I5) L  r5=buf(r10,32)
    (I6) AI r4=r5,3
    (I7) PRINT r4
    (I8) RET
";

fn dup_traced(text: &str, duplication: bool) -> (Function, SchedStats, Recorder) {
    let mut f = gis_ir::parse_function(text).expect("parses");
    let machine = MachineDescription::rs6k();
    let mut config = SchedConfig::paper_example(SchedLevel::Speculative);
    config.duplication = duplication;
    let mut rec = Recorder::new();
    let stats = compile_observed(&mut f, &machine, &config, &mut rec).expect("compiles");
    (f, stats, rec)
}

/// JSON lines of a trace with the one wall-clock field (`PassEnd.nanos`)
/// zeroed, so the snapshot is deterministic.
fn stable_json_lines(rec: &Recorder) -> String {
    let mut out = String::new();
    for e in rec.events() {
        let e = match e {
            TraceEvent::PassEnd { pass, .. } => TraceEvent::PassEnd {
                pass: *pass,
                nanos: 0,
            },
            other => other.clone(),
        };
        out.push_str(&e.to_json());
        out.push('\n');
    }
    out
}

/// Compares against the pinned golden, or rewrites it when
/// `GIS_UPDATE_GOLDEN` is set (same contract as `viz_golden.rs`).
fn assert_trace_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("GIS_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nrun GIS_UPDATE_GOLDEN=1 cargo test --test trace_golden",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden; if intentional, regenerate with \
         GIS_UPDATE_GOLDEN=1 cargo test --test trace_golden"
    );
}

#[test]
fn duplication_trace_names_the_join_and_every_copy() {
    let (f, stats, rec) = dup_traced(DUP_DIAMOND, true);
    assert_eq!(stats.moved_duplicated, 1, "\n{f}");
    let events: Vec<TraceEvent> = rec.events().cloned().collect();
    let q = TraceQuery::new(events.iter());
    let dups = q.duplications();
    assert_eq!(dups.len(), 1, "one duplication commit in the trace");
    let d = &dups[0];
    assert_eq!(d.inst, 11, "the join load moved");
    assert_eq!(d.home, "J");
    assert!(
        d.into == "E" || d.into == "T",
        "the original landed in an arm, not {}",
        d.into
    );
    assert_eq!(d.copies.len(), 1, "one sibling copy");
    let (copy_block, copy_id) = &d.copies[0];
    assert_ne!(copy_block, &d.into, "the copy covers the other arm");
    assert!(copy_block == "E" || copy_block == "T");
    assert_eq!(*copy_id, 15, "the first fresh id after parsing");
    // The metrics view counts the same commit and the same copy total.
    let m = Metrics::from_events(rec.events());
    assert_eq!(m.counter("duplicated") as usize, stats.moved_duplicated);
    assert_eq!(m.counter("dup-copies") as usize, stats.dup_copies_minted);
}

#[test]
fn guarded_joins_emit_the_would_duplicate_reason_code() {
    let (f, stats, rec) = dup_traced(IF_THEN_JOIN, true);
    assert_eq!(stats.moved_duplicated, 0, "nothing may be copied\n{f}");
    assert!(stats.rejected_would_duplicate > 0, "\n{f}");
    let would: Vec<u32> = rec
        .events()
        .filter_map(|e| match e {
            TraceEvent::CandidateRejected { inst, reason, .. } => {
                (reason.code() == "would-duplicate").then_some(*inst)
            }
            _ => None,
        })
        .collect();
    assert!(would.contains(&5), "the join load is reported: {would:?}");
    let m = Metrics::from_events(rec.events());
    assert_eq!(
        m.counter("rejected.would-duplicate") as usize,
        stats.rejected_would_duplicate
    );
}

#[test]
fn duplication_trace_matches_the_golden_snapshot() {
    let (_, _, rec) = dup_traced(DUP_DIAMOND, true);
    assert_trace_golden("dup_diamond_gate_on.trace.jsonl", &stable_json_lines(&rec));
}

#[test]
fn gate_off_traces_are_byte_identical_to_the_pre_duplication_golden() {
    // The no-op differential: with the gate off the engine never looks at
    // joins, so the trace is byte-for-byte the one recorded before the
    // duplication feature existed — no new vocabulary leaks out.
    let (_, stats, rec) = dup_traced(DUP_DIAMOND, false);
    assert_eq!(stats.moved_duplicated, 0);
    assert_eq!(stats.rejected_would_duplicate, 0);
    let lines = stable_json_lines(&rec);
    assert!(!lines.contains("duplicat"), "no duplication vocabulary");
    assert_trace_golden("dup_diamond_gate_off.trace.jsonl", &lines);
}

// --- Tie-break attribution ----------------------------------------------

/// Per-rung counts of the tie-break every `Placed` and `Moved` event
/// attributes its pick to, in [`TieBreak`] order.
fn tie_break_counts(rec: &Recorder) -> [(TieBreak, u64); 6] {
    let mut counts = [
        TieBreak::Sole,
        TieBreak::Usefulness,
        TieBreak::Probability,
        TieBreak::DelayHeuristic,
        TieBreak::CriticalPath,
        TieBreak::OriginalOrder,
    ]
    .map(|t| (t, 0));
    for e in rec.events() {
        if let TraceEvent::Placed { tie, .. } | TraceEvent::Moved { tie, .. } = e {
            counts
                .iter_mut()
                .find(|(t, _)| t == tie)
                .expect("known rung")
                .1 += 1;
        }
    }
    counts
}

#[test]
fn tie_break_counts_match_the_rescanning_scheduler() {
    // The golden traces above only reach the sole, d and usefulness
    // rungs. These two compiles also decide thousands of picks by CP and
    // by original order, where the runner-up key must be exactly the one
    // a rescan of every candidate finds. The counts were recorded with
    // the scheduler that rescanned every candidate on every pick.
    let machine = MachineDescription::rs6k();
    let many_loops_s = gis_workloads::synth::many_loops_preset("many-loops-s").expect("preset");
    for (name, function, expected) in [
        (
            "idct8(6)",
            gis_workloads::kernels::idct8(6).program.function,
            [66, 24, 0, 26, 58, 263],
        ),
        (
            "many-loops-s",
            many_loops_s.program.function,
            [381, 97, 0, 222, 298, 435],
        ),
    ] {
        let mut f = function;
        let mut rec = Recorder::new();
        compile_observed(&mut f, &machine, &SchedConfig::speculative(), &mut rec)
            .expect("compiles");
        let counts = tie_break_counts(&rec);
        assert_eq!(
            counts.map(|(_, n)| n),
            expected,
            "{name}: tie-break counts drifted: {counts:?}"
        );
    }
}
