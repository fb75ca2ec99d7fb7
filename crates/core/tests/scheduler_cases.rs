//! Focused scheduler scenarios: anchoring, store motion, region skipping,
//! the candidate-policy corners of §5.1, and the ready-list states of the
//! global list scheduler.

use gis_core::{
    compile, compile_observed, compile_with_hooks, schedule_block, Fault, SchedConfig, SchedLevel,
    SchedStats, TestHooks,
};
use gis_ir::{parse_function, BlockId, Function, InstId};
use gis_machine::MachineDescription;
use gis_sim::{execute, ExecConfig};
use gis_trace::{NopObserver, Pass, Recorder, TraceEvent};
use std::collections::HashMap;

fn placement(f: &Function) -> HashMap<InstId, BlockId> {
    f.insts().map(|(b, i)| (i.id, b)).collect()
}

fn schedule(text: &str, config: &SchedConfig) -> (Function, Function, gis_core::SchedStats) {
    let original = parse_function(text).expect("parses");
    let mut f = original.clone();
    let machine = MachineDescription::rs6k();
    let stats = compile(&mut f, &machine, config).expect("compiles");
    (original, f, stats)
}

/// Two equivalent blocks around a diamond; the second holds a store, a
/// call, and a plain add.
const EQUIV_WITH_BARRIERS: &str = "\
func t
A:
    (I0) L  r1=a(r9,0)
    (I1) C  cr0=r1,r8
    (I2) BT T,cr0,0x1/lt
F:
    (I3) LI r2=1
T:
    (I4) AI r3=r1,5
    (I5) ST r3=>b(r9,0)
    (I6) CALL ext(r3)->(r4)
    (I7) PRINT r4
    (I8) RET
";

#[test]
fn stores_move_usefully_but_calls_never_move() {
    // T postdominates A and A dominates T... it does NOT: F only runs on
    // one arm, but T runs always: A and T are equivalent.
    let (original, f, stats) = schedule(
        EQUIV_WITH_BARRIERS,
        &SchedConfig::paper_example(SchedLevel::Speculative),
    );
    let before = placement(&original);
    let after = placement(&f);
    // The add may move usefully from T into A (fills A's delay slots).
    assert_ne!(
        after[&InstId::new(4)],
        before[&InstId::new(4)],
        "add hoisted\n{f}"
    );
    // The call and the print never cross blocks.
    assert_eq!(
        after[&InstId::new(6)],
        before[&InstId::new(6)],
        "call anchored"
    );
    assert_eq!(
        after[&InstId::new(7)],
        before[&InstId::new(7)],
        "print anchored"
    );
    assert!(stats.moved_useful >= 1);

    // The store depends on the add and on memory ordering, but as a
    // *useful* candidate it is allowed to move; whether it does is a
    // scheduling decision. It must never move SPECULATIVELY — covered by
    // the invariants suite; here we just re-check semantics.
    let a = execute(&original, &[(0, 7)], &ExecConfig::default()).expect("runs");
    let b = execute(&f, &[(0, 7)], &ExecConfig::default()).expect("runs");
    assert!(a.equivalent(&b));
}

#[test]
fn speculative_stores_are_rejected() {
    // A store sits in a conditional arm: it must stay there.
    let text = "\
func s
A:
    (I0) C  cr0=r1,r2
    (I1) BF X,cr0,0x1/lt
B:
    (I2) ST r3=>a(r9,0)
X:
    (I3) RET
";
    let (original, f, stats) = schedule(text, &SchedConfig::paper_example(SchedLevel::Speculative));
    assert_eq!(
        placement(&f)[&InstId::new(2)],
        placement(&original)[&InstId::new(2)]
    );
    assert_eq!(stats.moved_speculative, 0);
}

#[test]
fn region_height_limit_skips_outer_regions() {
    // Two nested loops: the inner loop (height 0) and the outer loop
    // (height 1) are scheduled, the routine body around them (height 2,
    // the only region holding A and E) never is (§6: "two inner levels").
    let text = "\
func n
A:
    (I0) LI r1=0
B:
    (I1) LI r2=0
C:
    (I2) AI r2=r2,1
    (I3) C cr0=r2,r9
    (I4) BT C,cr0,0x1/lt
D:
    (I5) AI r1=r1,1
    (I6) C cr1=r1,r9
    (I7) BT B,cr1,0x1/lt
E:
    (I8) RET
";
    let (_, _, rec) = traced_checked(text, &SchedConfig::paper_example(SchedLevel::Speculative));
    let scheduled: Vec<&[String]> = rec
        .events()
        .filter_map(|e| match e {
            TraceEvent::RegionBegin { blocks, .. } => Some(blocks.as_slice()),
            _ => None,
        })
        .collect();
    assert!(scheduled.contains(&&["C".to_owned()][..]), "inner loop");
    assert!(
        scheduled
            .iter()
            .any(|b| b.len() == 3 && b.contains(&"B".to_owned())),
        "outer loop: {scheduled:?}"
    );
    assert!(
        !scheduled.iter().any(|b| b.contains(&"A".to_owned())),
        "the body is never scheduled: {scheduled:?}"
    );
}

#[test]
fn empty_and_branch_only_blocks_schedule_cleanly() {
    let text = "\
func e
A:
B:
    (I0) B D
C:
D:
    (I1) RET
";
    let (original, f, _) = schedule(text, &SchedConfig::paper_example(SchedLevel::Speculative));
    assert_eq!(f.num_insts(), original.num_insts());
    f.verify().expect("still valid");
}

#[test]
fn bb_scheduler_handles_wide_machines() {
    // On a 2-wide fx machine, independent ops pair up; the dependent
    // chain orders correctly.
    let mut f = parse_function(
        "func w\nA:\n\
         (I0) L  r1=a(r9,0)\n\
         (I1) LI r2=5\n\
         (I2) AI r3=r1,1\n\
         (I3) AI r4=r2,1\n\
         (I4) RET\n",
    )
    .expect("parses");
    let machine = MachineDescription::superscalar("w2", 2, 1, 1);
    schedule_block(&mut f, &machine, BlockId::new(0));
    f.verify().expect("valid");
    // The load's dependent (I2) must not sit immediately after it if
    // something else can fill the delay slot.
    let order: Vec<u32> = f
        .block(BlockId::new(0))
        .insts()
        .map(|i| i.id.index() as u32)
        .collect();
    let pos = |id: u32| order.iter().position(|&x| x == id).unwrap();
    assert!(
        pos(2) > pos(1),
        "independent LI fills the load shadow: {order:?}"
    );
}

#[test]
fn compile_rejects_malformed_functions() {
    let mut f = Function::new("bad");
    let b = f.add_block("only");
    let id = f.fresh_inst_id();
    f.block_mut(b).push(gis_ir::Inst::new(
        id,
        gis_ir::Op::LoadImm {
            rt: gis_ir::Reg::gpr(0),
            imm: 1,
        },
    ));
    // Falls off the end: compile must refuse rather than transform.
    let machine = MachineDescription::rs6k();
    let err = compile(&mut f, &machine, &SchedConfig::base()).unwrap_err();
    assert!(err.to_string().contains("malformed"), "{err}");
    assert!(std::error::Error::source(&err).is_some());
}

/// A diamond whose join begins with a load that may alias the stores in
/// both arms (same symbol, different base register): the load can never
/// hoist past the stores into the header, but once the last arm's own
/// store is placed it can be *duplicated* into both arms. The branch is
/// driven by a value loaded from memory (registers start at zero), and
/// the taken arm's store lands on the join load's address so the result
/// is sensitive to store→load ordering across the duplication.
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

/// Initial memory driving the taken (`p < 0`) and fall-through arms; the
/// cells the arms and the join read start non-zero so each path's PRINT
/// is distinct.
const DUP_INPUTS: [&[(i64, i64)]; 2] = [&[(0, -1), (24, 5), (32, 9)], &[(0, 1), (24, 5), (32, 9)]];

#[test]
fn join_load_duplicates_into_both_arms() {
    let mut config = SchedConfig::paper_example(SchedLevel::Speculative);
    config.duplication = true;
    let (original, f, stats) = schedule(DUP_DIAMOND, &config);
    assert_eq!(stats.moved_duplicated, 1, "one duplication commit\n{f}");
    assert_eq!(stats.dup_copies_minted, 1, "one sibling copy\n{f}");
    // The original load left the join for one of the arms; the copy (the
    // first fresh id after parsing) sits in the other arm with the same
    // op and a recorded origin.
    let before = placement(&original);
    let after = placement(&f);
    let join = before[&InstId::new(11)];
    assert_ne!(after[&InstId::new(11)], join, "original load moved\n{f}");
    let copy = InstId::new(15);
    assert_eq!(f.dup_origin(copy), Some(InstId::new(11)));
    assert_ne!(after[&copy], after[&InstId::new(11)], "copy in the sibling");
    assert_eq!(
        f.insts().count(),
        original.insts().count() + 1,
        "duplication is the first transformation that grows the function"
    );
    for inputs in DUP_INPUTS {
        let a = execute(&original, inputs, &ExecConfig::default()).expect("runs");
        let b = execute(&f, inputs, &ExecConfig::default()).expect("runs");
        assert!(a.equivalent(&b), "path behaviour preserved\n{f}");
    }
}

#[test]
fn duplication_gate_off_leaves_the_join_alone() {
    let config = SchedConfig::paper_example(SchedLevel::Speculative);
    let (original, f, stats) = schedule(DUP_DIAMOND, &config);
    assert_eq!(stats.moved_duplicated, 0);
    assert_eq!(stats.dup_copies_minted, 0);
    assert_eq!(
        stats.rejected_would_duplicate, 0,
        "gate off: not even counted"
    );
    assert_eq!(f.insts().count(), original.insts().count());
    assert_eq!(
        placement(&f)[&InstId::new(11)],
        placement(&original)[&InstId::new(11)],
        "join load pinned without duplication\n{f}"
    );
}

#[test]
fn if_then_join_is_rejected_as_would_duplicate() {
    // `H` branches around `T` straight to the join, so a copy in `H`
    // would run on a path that re-executes it through `J`: the guards
    // refuse, and the movable join instruction is reported.
    let text = "\
func it
H:
    (I0) C cr0=r1,r2
    (I1) BT J,cr0,0x1/lt
T:
    (I2) ST r8=>buf(r9,0)
    (I3) AI r3=r3,1
J:
    (I4) L r5=buf(r10,0)
    (I5) PRINT r5
    (I6) RET
";
    let mut config = SchedConfig::paper_example(SchedLevel::Speculative);
    config.duplication = true;
    let (original, f, stats) = schedule(text, &config);
    assert!(stats.rejected_would_duplicate >= 1, "join reported\n{f}");
    assert_eq!(stats.moved_duplicated, 0);
    assert_eq!(f.insts().count(), original.insts().count());

    let off = SchedConfig::paper_example(SchedLevel::Speculative);
    let (_, _, stats_off) = schedule(text, &off);
    assert_eq!(stats_off.rejected_would_duplicate, 0);
}

#[test]
fn sibling_copies_fold_when_they_meet_again() {
    // Hand-built post-duplication state: the same op in both arms, with
    // the duplication origin recorded, exactly as a prior pass's commit
    // would leave it. When both twins speculate into the header, the
    // second folds into the first instead of moving.
    let text = "\
func dd
H:
    (I0) LI r7=3
    (I1) L r1=p(r0,0)
    (I2) C cr0=r1,r2
    (I3) BT T,cr0,0x1/lt
E:
    (I4) A r5=r7,r7
    (I5) B J
T:
    (I6) A r5=r7,r7
J:
    (I7) PRINT r5
    (I8) RET
";
    let original = parse_function(text).expect("parses");
    let mut f = original.clone();
    f.record_dup_origin(InstId::new(4), InstId::new(6));
    let mut config = SchedConfig::paper_example(SchedLevel::Speculative);
    config.duplication = true;
    let machine = MachineDescription::rs6k();
    let stats = compile(&mut f, &machine, &config).expect("compiles");
    assert_eq!(stats.dup_copies_deduped, 1, "one twin folded\n{f}");
    assert_eq!(
        f.insts().count(),
        original.insts().count() - 1,
        "the folded copy is deleted, not moved\n{f}"
    );
    for inputs in [&[(0, -1)][..], &[(0, 1)][..]] {
        let a = execute(&original, inputs, &ExecConfig::default()).expect("runs");
        let b = execute(&f, inputs, &ExecConfig::default()).expect("runs");
        assert!(a.equivalent(&b), "fold preserved behaviour\n{f}");
    }
}

/// A two-block loop, which the pipeline unrolls and then rotates.
const ROTATING_LOOP: &str = "func once\n\
    init:\n LI r1=0\n LI r2=0\n LI r9=7\n\
    h:\n AI r2=r2,1\n\
    l:\n A r1=r1,r2\n C cr0=r2,r9\n BT h,cr0,0x1/lt\n\
    out:\n PRINT r1\n RET\n";

/// Whole-function liveness is solved once per CFG version, however many
/// regions and passes read it: every region's §5.3 queries walk its own
/// code and read the solve where a path leaves the region, global-2
/// reads global-1's solve unless rotate changed the CFG, and at `jobs 2`
/// a pass's workers share it. Many-loops-m rotates nothing, so one solve
/// serves both passes; the rotated loop needs a second. Under a planted
/// fault every global pass solves anew, because its illegal motions
/// break the region-boundary invariant a kept solve rests on.
#[test]
fn liveness_is_solved_once_per_cfg_version() {
    let many_loops = gis_workloads::synth::many_loops_preset("many-loops-m")
        .expect("preset")
        .program
        .function;
    let rotating = parse_function(ROTATING_LOOP).expect("parses");
    for (f0, rotates) in [(&many_loops, false), (&rotating, true)] {
        for jobs in [1, 2] {
            for fault in [None, Some(Fault::SkipLiveOnExit)] {
                let config = SchedConfig {
                    jobs,
                    ..SchedConfig::speculative()
                };
                let hooks = TestHooks {
                    verifier: None,
                    fault,
                };
                let mut f = f0.clone();
                let stats = compile_with_hooks(
                    &mut f,
                    &MachineDescription::rs6k(),
                    &config,
                    &hooks,
                    &mut NopObserver,
                )
                .expect("compiles");
                let what = format!("rotates {rotates}, jobs {jobs}, {fault:?}");
                assert_eq!(stats.loops_rotated > 0, rotates, "{what}");
                let solves = if rotates || fault.is_some() { 2 } else { 1 };
                assert_eq!(stats.liveness_full, solves, "{what}: solves");
                if !rotates {
                    assert!(
                        stats.regions_scheduled > 50,
                        "{what}: {} regions scheduled",
                        stats.regions_scheduled
                    );
                    assert!(
                        stats.liveness_incremental > 0,
                        "{what}: §5.3 queries walk the region's code"
                    );
                }
            }
        }
    }
}

// --- Ready-list states --------------------------------------------------
//
// The global pass keeps, per candidate, a count of unplaced predecessors
// in the candidate set, the earliest cycle its placed ones allow, and a
// static blocked flag. These cases pin the states those counters must
// get right. Under the test profile every pick is also checked against
// the full rescan, and every region's dependence graph against the
// all-pairs builder.

/// Compiles `text` traced under `config`; the test profile's armed
/// checks hold every pick and every dependence graph to its oracle.
fn traced_checked(text: &str, config: &SchedConfig) -> (Function, SchedStats, Recorder) {
    let mut f = parse_function(text).expect("parses");
    let mut rec = Recorder::new();
    let stats =
        compile_observed(&mut f, &MachineDescription::rs6k(), config, &mut rec).expect("compiles");
    (f, stats, rec)
}

/// `(inst, into, cycle)` of every motion in the first global pass.
fn first_pass_motions(rec: &Recorder) -> Vec<(u32, String, u64)> {
    rec.events()
        .skip_while(|e| {
            !matches!(
                e,
                TraceEvent::PassBegin {
                    pass: Pass::Global1
                }
            )
        })
        .take_while(|e| {
            !matches!(
                e,
                TraceEvent::PassEnd {
                    pass: Pass::Global1,
                    ..
                }
            )
        })
        .filter_map(|e| match e {
            TraceEvent::Moved {
                inst, into, cycle, ..
            } => Some((*inst, into.clone(), *cycle)),
            _ => None,
        })
        .collect()
}

/// A diamond whose fall-through arm `F` defines `r5` and feeds it to
/// `I4`; the join `T` reads `r5` when `LIVE` is `r5`.
const REJECTED_PRED: &str = "\
func r
A:
    (I0) L  r1=a(r9,0)
    (I1) C  cr0=r1,r8
    (I2) BT T,cr0,0x1/lt
F:
    (I3) LI r5=1
    (I4) AI r6=r5,2
    (I5) PRINT r6
T:
    (I6) PRINT LIVE
    (I7) RET
";

#[test]
fn successor_of_a_rejected_candidate_never_issues_in_that_block_pass() {
    // r5 is live on exit from A (T reads it) and live out of F, so I3's
    // speculation is rejected and cannot be renamed; I4, which is itself
    // free to speculate, waits on I3 for the rest of A's pass.
    let (f, stats, rec) = traced_checked(
        &REJECTED_PRED.replace("LIVE", "r5"),
        &SchedConfig::speculative(),
    );
    assert!(
        rec.events().any(|e| matches!(
            e,
            TraceEvent::Rejected { inst: 3, target, .. } if target == "A"
        )),
        "I3 rejected by §5.3\n{f}"
    );
    assert!(stats.rejected_live_out >= 1);
    assert_eq!(
        first_pass_motions(&rec),
        vec![],
        "nothing moves into A\n{f}"
    );
    // With r5 dead on exit from A, both speculate.
    let (f, _, rec) = traced_checked(
        &REJECTED_PRED.replace("LIVE", "r8"),
        &SchedConfig::speculative(),
    );
    let moved: Vec<u32> = first_pass_motions(&rec).iter().map(|m| m.0).collect();
    assert_eq!(moved, vec![3, 4], "\n{f}");
}

#[test]
fn reachable_predecessor_outside_the_candidate_set_blocks_its_successor() {
    // The store I3 may not speculate, so it is no candidate, yet it can
    // still run between A and F: the load I4 behind it (the bases differ,
    // so the two may alias) stays put. Without the store, the load fills
    // A's load-delay slot.
    let text = "\
func b
A:
    (I0) L  r1=a(r9,0)
    (I1) C  cr0=r1,r8
    (I2) BT T,cr0,0x1/lt
F:
    (I3) ST r8=>b(r9,0)
    (I4) L  r4=b(r10,0)
    (I5) PRINT r4
T:
    (I6) RET
";
    let (f, _, rec) = traced_checked(text, &SchedConfig::speculative());
    assert_eq!(first_pass_motions(&rec), vec![], "the load is blocked\n{f}");
    let unblocked = text.replace("    (I3) ST r8=>b(r9,0)\n", "");
    let (f, _, rec) = traced_checked(&unblocked, &SchedConfig::speculative());
    assert_eq!(
        first_pass_motions(&rec),
        vec![(4, "A".to_owned(), 1)],
        "\n{f}"
    );
}

#[test]
fn a_folded_twin_releases_its_successors_at_the_twins_cycle() {
    // I7 in T is a recorded copy of I4 in E. I4 speculates into H at
    // cycle 3; I7 comes up at cycle 5 and folds into it, taking no unit.
    // Its successor I8 counts I7 as placed at cycle 3, so it is ready at
    // cycle 4 and moves at 5, the fold's cycle — before H's branch ends
    // the block pass at 6. Released at the fold's own cycle, I8 would
    // wait for cycle 6 and stay in T.
    let text = "\
func dd
H:
    (I0) LI r7=3
    (I1) L r1=p(r0,0)
    (I2) C cr0=r1,r2
    (I3) BT T,cr0,0x1/lt
E:
    (I4) A r5=r7,r7
    (I5) AI r6=r5,1
    (I6) B J
T:
    (I7) A r5=r7,r7
    (I8) AI r9=r5,1
J:
    (I9) PRINT r5
    (I10) RET
";
    let original = parse_function(text).expect("parses");
    let mut config = SchedConfig::paper_example(SchedLevel::Speculative);
    config.duplication = true;
    let machine = MachineDescription::rs6k();
    let mut f = original.clone();
    f.record_dup_origin(InstId::new(4), InstId::new(7));
    let mut rec = Recorder::new();
    let stats = compile_observed(&mut f, &machine, &config, &mut rec).expect("compiles");
    assert_eq!(stats.dup_copies_deduped, 1, "I7 folded\n{f}");
    assert_eq!(
        first_pass_motions(&rec),
        vec![
            (4, "H".to_owned(), 3),
            (5, "H".to_owned(), 4),
            (8, "H".to_owned(), 5),
        ],
        "\n{f}"
    );
    for inputs in [&[(0, -1)][..], &[(0, 1)][..]] {
        let a = execute(&original, inputs, &ExecConfig::default()).expect("runs");
        let b = execute(&f, inputs, &ExecConfig::default()).expect("runs");
        assert!(a.equivalent(&b), "fold preserved behaviour\n{f}");
    }
}
