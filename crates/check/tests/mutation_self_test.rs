//! Self-test by mutation: plant a miscompile in the scheduler (skip the
//! §5.3 live-on-exit guard via `Fault::SkipLiveOnExit`)
//! and assert the differential fuzzer catches it within a bounded number
//! of iterations, then that the minimizer produces a verifier-clean
//! reproducer that still witnesses the fault — and only the fault: the
//! unmutated scheduler must handle the reproducer correctly.

use gis_check::{
    duplication_matrix, jobs_matrix, parse_reproducer, run_case, run_fuzz, verify_function,
    CaseResult, DiffConfig,
};
use gis_core::Fault;
use gis_sim::ExecConfig;

/// Bound on how many fuzz iterations the planted fault may hide for.
/// Empirically it is caught within the first handful of seeds; the bound
/// leaves generous slack without letting the test run forever.
const MAX_ITERS: u64 = 200;

/// The standard matrix with the live-on-exit guard disabled. Speculative
/// renaming is also turned off: renaming gives clobbering speculation a
/// fresh register, which would mask exactly the fault we planted.
fn faulty_matrix() -> Vec<DiffConfig> {
    let mut matrix = jobs_matrix();
    for c in &mut matrix {
        c.fault = Some(Fault::SkipLiveOnExit);
        c.sched.speculative_renaming = false;
        c.label = format!("faulty/{}", c.label);
    }
    matrix
}

#[test]
fn fuzzer_catches_the_planted_miscompile_and_minimizes_it() {
    let matrix = faulty_matrix();
    let report = run_fuzz(0xBAD5_EED0, MAX_ITERS, &matrix);
    let failure = report.failure.unwrap_or_else(|| {
        panic!("planted live-on-exit miscompile not caught within {MAX_ITERS} iterations")
    });

    let exec = ExecConfig {
        max_steps: 2_000_000,
    };

    // The minimized reproducer is structurally clean…
    assert!(
        verify_function(&failure.minimized).is_ok(),
        "minimized reproducer fails the verifier:\n{}",
        failure.minimized
    );
    // …still witnesses the planted fault…
    assert!(
        run_case(&failure.minimized, &failure.memory, &matrix, &exec).diverged(),
        "minimized reproducer no longer diverges:\n{}",
        failure.minimized
    );
    // …and indicts only the mutation: the real scheduler handles it.
    let clean = run_case(&failure.minimized, &failure.memory, &jobs_matrix(), &exec);
    assert!(
        matches!(clean, CaseResult::Agree),
        "reproducer diverges even without the planted fault: {clean:?}"
    );

    // Minimization made progress over the generated original.
    let original = gis_ir::parse_function(&failure.original_text).expect("original parses");
    assert!(
        failure.minimized.num_insts() < original.num_insts(),
        "minimizer failed to shrink: {} -> {} insts",
        original.num_insts(),
        failure.minimized.num_insts()
    );

    // The reproducer round-trips through the corpus text format and the
    // parsed-back copy still diverges.
    let text = failure.reproducer_text();
    let (parsed, memory) = parse_reproducer(&text).expect("reproducer text parses");
    assert_eq!(memory, failure.memory);
    assert!(run_case(&parsed, &memory, &matrix, &exec).diverged());
}

/// The duplication columns with the predecessor guard disabled
/// (`Fault::SkipDupPredCheck`): copies land above
/// conditional branches, so a path that branches away from the join
/// executes the copy anyway — a live-range that was never isolated.
fn dup_faulty_matrix() -> Vec<DiffConfig> {
    let mut matrix = duplication_matrix();
    matrix.retain(|c| c.sched.duplication);
    for c in &mut matrix {
        c.fault = Some(Fault::SkipDupPredCheck);
        c.label = format!("faulty/{}", c.label);
    }
    matrix
}

#[test]
fn fuzzer_catches_the_planted_duplication_miscompile() {
    let matrix = dup_faulty_matrix();
    let report = run_fuzz(0xD0BB_0004, MAX_ITERS, &matrix);
    let failure = report.failure.unwrap_or_else(|| {
        panic!("planted duplication miscompile not caught within {MAX_ITERS} iterations")
    });

    let exec = ExecConfig {
        max_steps: 2_000_000,
    };

    // The minimized reproducer is structurally clean, still witnesses the
    // fault, and indicts only the mutation: with the guard back in place
    // the whole duplication matrix agrees on it.
    assert!(
        verify_function(&failure.minimized).is_ok(),
        "minimized reproducer fails the verifier:\n{}",
        failure.minimized
    );
    assert!(
        run_case(&failure.minimized, &failure.memory, &matrix, &exec).diverged(),
        "minimized reproducer no longer diverges:\n{}",
        failure.minimized
    );
    let clean = run_case(
        &failure.minimized,
        &failure.memory,
        &duplication_matrix(),
        &exec,
    );
    assert!(
        matches!(clean, CaseResult::Agree),
        "reproducer diverges even without the planted fault: {clean:?}\n{}",
        failure.minimized
    );
}
