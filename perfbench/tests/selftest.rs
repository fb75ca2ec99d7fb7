//! The benchmark's own tests: its statistics, its inputs, its
//! correctness gate, the serve edit plan and a smoke run of every
//! workload. Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use perfbench::compare::{verdict, MetricSpec, Verdict};
use perfbench::inputs::{edit_loop_bound, inputs, loop_count, EditPlan, Workload};
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::run::Args;
use perfbench::stats;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(stats::rank(100, 50), 50);
    assert_eq!(stats::rank(100, 90), 90);
    assert_eq!(stats::rank(100, 99), 99);
    assert_eq!(stats::percentile(&v, 90), 90.0);
    assert_eq!(stats::percentile(&v, 99), 99.0);
    assert_eq!(stats::percentile(&[7.0], 99), 7.0);
    // 101 samples: rank 51 is the middle one.
    assert_eq!(stats::rank(101, 50), 51);
}

#[test]
fn tail_needs_ten_samples_beyond() {
    assert_eq!(stats::beyond(100, 90), 10);
    assert_eq!(stats::beyond(100, 99), 1);
    assert_eq!(stats::beyond(1000, 99), 10);
    assert_eq!(stats::beyond(999, 99), 9);
    // Too few ops for any candidate, p90 only, then p99.
    assert_eq!(stats::tail_percentile(99, &[90, 99]), None);
    assert_eq!(stats::tail_percentile(100, &[90, 99]), Some(90));
    assert_eq!(stats::tail_percentile(999, &[90, 99]), Some(90));
    assert_eq!(stats::tail_percentile(1000, &[90, 99]), Some(99));
    // Each workload's minimum op count satisfies the rule at its tail.
    for w in Workload::ALL {
        let n = w.min_ops();
        assert_eq!(
            stats::tail_percentile(n, &[90, 99]),
            Some(w.tail_pct()),
            "{}",
            w.name()
        );
    }
}

#[test]
fn quartiles_match_python() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::quartiles(&v), (2.75, 8.25));
    assert_eq!(stats::median(&v), 5.5);
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(stats::quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    assert!((stats::spread(&v) - 5.5 / 5.5).abs() < 1e-12);
}

#[test]
fn geomean_and_slope() {
    assert!((stats::geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    let linear: Vec<(f64, f64)> = (1..6).map(|x| (f64::from(x), 3.0 * f64::from(x))).collect();
    assert!((stats::loglog_slope(&linear) - 1.0).abs() < 1e-9);
    let square: Vec<(f64, f64)> = (1..6).map(|x| (f64::from(x), f64::from(x * x))).collect();
    assert!((stats::loglog_slope(&square) - 2.0).abs() < 1e-9);
}

#[test]
fn host_probe_times_its_job_and_scales_nothing_without_samples() {
    assert!(perfbench::run::probe_ms(1) > 0.0);
    assert!(perfbench::run::probe_ms(2) > 0.0);
    assert_eq!(perfbench::run::Phase::default().host_speed(), 1.0);
}

#[test]
fn verdicts_against_the_bound() {
    let spec = MetricSpec {
        name: "latency_ms_p50".to_owned(),
        lower_is_better: true,
        bound: 0.10,
    };
    let base = [10.0, 10.1, 10.2, 9.9, 10.0];
    assert_eq!(
        verdict(&base, &[10.05, 10.1, 10.0, 9.95, 10.1], &spec),
        Verdict::Agrees
    );
    assert_eq!(
        verdict(&base, &[12.0, 12.1, 12.2, 11.9, 12.0], &spec),
        Verdict::Worse
    );
    assert_eq!(
        verdict(&base, &[8.0, 8.1, 8.2, 7.9, 8.0], &spec),
        Verdict::Better
    );
    let wide = [5.0, 10.0, 15.0, 20.0, 7.0];
    assert_eq!(verdict(&base, &wide, &spec), Verdict::Unresolved);
}

#[test]
fn same_seed_gives_identical_inputs() {
    for w in Workload::ALL {
        let render = |seed| -> Vec<String> {
            inputs(w, seed, false)
                .iter()
                .map(|i| format!("{}\n{:?}\n{}\n{:?}", i.name, i.source, i.ir, i.memory))
                .collect()
        };
        let (a, b) = (render(7), render(7));
        assert_eq!(a, b, "{} differs between two draws of seed 7", w.name());
        assert_ne!(
            a,
            render(8),
            "{}: seeds 7 and 8 give the same inputs",
            w.name()
        );
    }
}

#[test]
fn metric_tables_have_unique_names() {
    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|&(n, _)| n)
        .collect();
    let unique: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len());
    let bench = include_str!("../../BENCHMARK.json");
    for name in names {
        assert!(
            bench.contains(&format!("\"{name}\"")),
            "{name} missing from BENCHMARK.json"
        );
    }
}

#[test]
fn edit_plan_predicts_misses_for_edited_functions_only() {
    let corpus = inputs(Workload::ServeEdit, 3, false);
    let sources: Vec<String> = corpus.iter().map(|i| i.source.clone().unwrap()).collect();
    let loops: Vec<usize> = sources.iter().map(|s| loop_count(s)).collect();
    assert!(loops.iter().all(|&n| n > 0));
    let mut plan = EditPlan::new(3, loops.clone(), 6);
    let mut texts = sources.clone();
    let mut seen: Vec<BTreeSet<String>> =
        texts.iter().map(|t| BTreeSet::from([t.clone()])).collect();
    let mut edits_per_function = vec![0; corpus.len()];
    for r in 0..20 {
        let round = plan.next_round();
        for &(f, ..) in &round.edits {
            edits_per_function[f] += 1;
        }
        if (r + 1) * 6 % corpus.len() == 0 {
            // A whole turn: every function edited equally often.
            let turns = (r + 1) * 6 / corpus.len();
            assert!(
                edits_per_function.iter().all(|&n| n == turns),
                "{edits_per_function:?}"
            );
        }
        let mut order = round.order.clone();
        order.sort_unstable();
        assert_eq!(
            order,
            (0..corpus.len()).collect::<Vec<_>>(),
            "order is a permutation"
        );
        let edited: BTreeSet<usize> = round.edits.iter().map(|e| e.0).collect();
        assert_eq!(edited.len(), 6, "six distinct functions per round");
        for &(f, lp, bound) in &round.edits {
            assert!(lp < loops[f]);
            texts[f] = edit_loop_bound(&texts[f], lp, bound);
            // A text the daemon has never seen: the predicted miss.
            assert!(
                seen[f].insert(texts[f].clone()),
                "edit repeats an earlier text"
            );
        }
        // Every unedited function resubmits a text the daemon has seen:
        // the predicted hit.
        for f in (0..corpus.len()).filter(|f| !edited.contains(f)) {
            assert!(seen[f].contains(&texts[f]));
        }
    }
    // Editing keeps the loop count, so later rounds can pick any loop.
    assert_eq!(
        texts.iter().map(|t| loop_count(t)).collect::<Vec<_>>(),
        loops
    );
}

fn smoke(workload: Workload, trace: bool, plant_wrong_hash: bool) -> Args {
    Args {
        workload,
        seed: 5,
        seconds: 0.2,
        trace,
        smoke: true,
        plant_wrong_hash,
    }
}

/// Every workload end to end at smoke size: untraced, traced, and with a
/// planted wrong hash. One test, so the process-wide region memo is not
/// shared with another test running alongside.
#[test]
fn smoke_runs_finish_in_seconds_and_count_failures() {
    for w in Workload::ALL {
        let started = Instant::now();
        let (result, ledger) = perfbench::run_workload(&smoke(w, false, false));
        let (out, spans) = result.unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(spans.is_none());
        assert_eq!(ledger.failed, 0, "{}", w.name());
        assert!(ledger.attempted > 0);
        let line = out
            .result_line(END_TO_END, &ledger)
            .expect("every end-to-end metric");
        assert!(line.starts_with("{\"correct\": true,"), "{line}");
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "{} smoke run is slow",
            w.name()
        );

        let (result, ledger) = perfbench::run_workload(&smoke(w, true, false));
        let (out, spans) = result.unwrap_or_else(|e| panic!("{} traced: {e}", w.name()));
        assert!(!spans.expect("a traced run records spans").spans.is_empty());
        assert_eq!(ledger.failed, 0, "{} traced", w.name());
        out.result_line(PER_LAYER, &ledger)
            .expect("every per-layer metric");

        let (result, ledger) = perfbench::run_workload(&smoke(w, false, true));
        assert!(
            ledger.failed > 0,
            "{}: the planted hash went unnoticed",
            w.name()
        );
        if let Ok((out, _)) = result {
            let line = out.result_line(END_TO_END, &ledger).expect("metrics");
            assert!(line.starts_with("{\"correct\": false,"), "{line}");
            assert!(!line.contains("\"ok_frac\": {\"value\": 1.0,"), "{line}");
        }
    }
}
