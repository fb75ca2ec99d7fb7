//! Hot-path benchmarks with a tracked baseline: the tinyc front end,
//! the sweep dependence builder vs the all-pairs reference, the sparse
//! whole-function liveness solve vs the dense reference and the §5.3
//! queries, the linear §4.2 web renamer vs the reaching-definitions
//! reference, the ready-list basic-block scheduler vs the rescanning
//! reference over every block of the final pass, and end-to-end
//! compilation across `jobs` widths — measured on the scaled
//! [`synth::MANY_LOOPS_PRESETS`] workloads.
//!
//! Hand-rolled harness (`harness = false`, like `scheduler.rs`): the
//! sandbox builds offline, so criterion is unavailable. Each row reports
//! the median of several timed runs.
//!
//! Besides the human-readable listing, the run writes `BENCH_sched.json`
//! (at the repository root by default) so the numbers are tracked in the
//! tree and CI can smoke them:
//!
//! ```text
//! cargo bench -p gis-bench --bench hotpaths            # full run
//! cargo bench -p gis-bench --bench hotpaths -- --smoke # 1 iteration, CI
//! cargo bench -p gis-bench --bench hotpaths -- --out out.json
//! ```
//!
//! Every `frontend` row carries an FNV-64 hash of the emitted
//! function's canonical bytes, which pins what the front end produces
//! across commits. Every end-to-end row carries an FNV-64 hash of the
//! scheduled function's text; every `jobs` width (1/2/4/8) must hash
//! identically — the run aborts on any mismatch rather than reporting a
//! speedup for a scheduler that changed its answer. The global passes'
//! own oracles are not timed here: debug builds and a plugged-in
//! verifier check every decision against them as it is made
//! (`gis_core::TestHooks`). The two renamers are held to the same
//! standard: the run aborts unless they produce the same canonical
//! bytes and statistics. So are the two basic-block schedulers: the run
//! aborts unless they order every block alike, and their `final-bb`
//! rows carry the hash of the result.
//!
//! Two groups measure this PR's work-distribution machinery. The
//! `e2e-memo` group compiles many-loops-m against a cold vs a warm
//! region schedule memo (the warm path splices cached block payloads
//! instead of re-scheduling), after asserting bit-identical schedules
//! across memo {off, on-cold, on-warm} × jobs {1, 2, 4, 8}. The
//! `e2e-steal` group compiles the skewed preset (one loop ~10× the
//! rest, placed last) under the size-aware work-stealing plan at jobs
//! {1, 2, 4, 8} — on a single-CPU host all widths collapse to one
//! inline worker, so the timings against `jobs 1` are only meaningful
//! on a multi-core machine; the hash-equality gate is meaningful
//! everywhere. The plain `e2e`
//! baselines pin `region_memo = false` so their rows keep measuring
//! the scheduler itself, not the cache.

use gis_cfg::{Cfg, DomTree, LoopForest, RegionKind, RegionTree};
use gis_core::{compile, schedule_block, schedule_block_reference, SchedConfig, SchedLevel};
use gis_ir::hash::{fnv64 as fnv64_bytes, fnv64_str as fnv64};
use gis_ir::{to_canonical_bytes, BlockId, Function, Reg};
use gis_machine::MachineDescription;
use gis_pdg::webs::{rename_webs, rename_webs_reference};
use gis_pdg::{DataDeps, Liveness};
use gis_sim::{execute, ExecConfig, TimingSim};
use gis_workloads::synth;
use std::hint::black_box;
use std::time::Instant;

/// One emitted measurement.
struct Row {
    name: String,
    n_insts: usize,
    median_ns: u128,
    /// FNV-64 of the scheduled function text for schedule rows, or of
    /// the emitted function's canonical bytes for `frontend` rows.
    schedule_hash: Option<u64>,
}

/// Times `f` as `runs` runs of `iters` iterations each and returns the
/// median run's per-iteration nanoseconds.
fn median_ns<T>(iters: u32, runs: usize, mut f: impl FnMut() -> T) -> u128 {
    // Warm-up.
    black_box(f());
    let mut samples: Vec<u128> = (0..runs.max(1))
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters.max(1) {
                black_box(f());
            }
            t0.elapsed().as_nanos() / u128::from(iters.max(1))
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The scheduling scopes the global passes would visit: every loop
/// region within the §6 size gates, innermost first. The liveness
/// benchmark queries over such scopes as the scheduler's §5.3 gate does.
fn loop_scopes(f: &Function, config: &SchedConfig) -> Vec<Vec<BlockId>> {
    let cfg = Cfg::new(f);
    let dom = DomTree::dominators(&cfg);
    let loops = LoopForest::new(&cfg, &dom);
    let tree = RegionTree::new(&cfg, &loops);
    tree.regions()
        .filter(|(_, r)| matches!(r.kind, RegionKind::Loop(_)))
        .map(|(_, r)| r.blocks.clone())
        .filter(|blocks| {
            let insts: usize = blocks.iter().map(|&b| f.block(b).len()).sum();
            blocks.len() <= config.max_region_blocks && insts <= config.max_region_insts
        })
        .collect()
}

/// The front end on the preset's tinyc source: lexing, parsing and IR
/// emission through `compile_program`. The row's hash is the FNV-64 of
/// the emitted function's canonical bytes.
fn bench_frontend(preset: &str, src: &str, iters: u32, runs: usize, rows: &mut Vec<Row>) {
    let program = gis_tinyc::compile_program(src).expect("the preset compiles");
    let ns = median_ns(iters, runs, || gis_tinyc::compile_program(black_box(src)));
    rows.push(Row {
        name: format!("frontend/{preset}"),
        n_insts: program.function.num_insts(),
        median_ns: ns,
        schedule_hash: Some(fnv64_bytes(&to_canonical_bytes(&program.function))),
    });
}

fn bench_dep_build(
    preset: &str,
    f: &Function,
    machine: &MachineDescription,
    config: &SchedConfig,
    iters: u32,
    runs: usize,
    rows: &mut Vec<Row>,
) -> f64 {
    // The builders are compared on the in-gate loop-region scopes — the
    // scopes the scheduler actually hands the builder, one graph per
    // region (§4.1). One iteration builds every region's graph in turn,
    // so a row reads as "dependence construction for the whole function,
    // region by region", the same call pattern (and the same thread-local
    // table reuse) `compile` exercises. The differential tests pin
    // builder equality on these scopes and on whole functions alike.
    // `reduce` is shared code downstream of both builders, so it is not
    // part of the measurement.
    let scopes = loop_scopes(f, config);
    let n_insts: usize = scopes
        .iter()
        .map(|s| s.iter().map(|&b| f.block(b).len()).sum::<usize>())
        .sum();
    let sweep = median_ns(iters, runs, || {
        scopes
            .iter()
            .map(|s| black_box(DataDeps::build(black_box(f), machine, s, |x, y| x < y)).num_edges())
            .sum::<usize>()
    });
    let reference = median_ns(iters, runs, || {
        scopes
            .iter()
            .map(|s| {
                black_box(DataDeps::build_reference(
                    black_box(f),
                    machine,
                    s,
                    |x, y| x < y,
                ))
                .num_edges()
            })
            .sum::<usize>()
    });
    rows.push(Row {
        name: format!("dep-build/{preset}/sweep"),
        n_insts,
        median_ns: sweep,
        schedule_hash: None,
    });
    rows.push(Row {
        name: format!("dep-build/{preset}/reference"),
        n_insts,
        median_ns: reference,
        schedule_hash: None,
    });
    reference as f64 / sweep.max(1) as f64
}

/// The liveness rows price what a global pass pays, on the function as
/// global-1 sees it (after §4.2 renaming and unrolling, where most
/// registers are short webs): the sparse whole-function solve
/// (`pass-solve`), the dense oracle it replaced (`pass-solve-reference`),
/// and the §5.3 queries walked against the solve (`queries`: every
/// register defined in every in-gate loop scope, asked at every block of
/// that scope). Before timing, the run aborts unless the two solves agree
/// on every block. Returns reference ÷ sparse.
fn bench_liveness(
    preset: &str,
    f: &Function,
    machine: &MachineDescription,
    config: &SchedConfig,
    iters: u32,
    runs: usize,
    rows: &mut Vec<Row>,
) -> f64 {
    let mut prepare = SchedConfig::speculative();
    prepare.level = SchedLevel::BasicBlockOnly;
    prepare.final_bb_pass = false;
    prepare.region_memo = false;
    let mut g = f.clone();
    compile(&mut g, machine, &prepare).expect("renames and unrolls");
    let cfg = Cfg::new(&g);
    let n_insts = g.num_insts();
    let pass = Liveness::compute(&g, &cfg);
    assert!(
        pass == Liveness::compute_reference(&g, &cfg),
        "{preset}: the sparse liveness solve diverges from the dense reference"
    );
    let sparse = median_ns(iters, runs, || Liveness::compute(black_box(&g), &cfg));
    let reference = median_ns(iters, runs, || {
        Liveness::compute_reference(black_box(&g), &cfg)
    });
    let queries: Vec<(Vec<BlockId>, Vec<Reg>)> = loop_scopes(&g, config)
        .into_iter()
        .map(|mut scope| {
            scope.sort_unstable();
            let mut defs: Vec<Reg> = scope
                .iter()
                .flat_map(|&b| g.block(b).insts())
                .flat_map(|i| i.op.defs())
                .collect();
            defs.sort_unstable();
            defs.dedup();
            (scope, defs)
        })
        .collect();
    let query_insts: usize = queries
        .iter()
        .map(|(s, _)| s.iter().map(|&b| g.block(b).len()).sum::<usize>())
        .sum();
    let walked = median_ns(iters, runs, || {
        let mut live = 0usize;
        for (scope, defs) in &queries {
            for &b in scope {
                for &r in defs {
                    live += usize::from(pass.walk_live_out(black_box(&g), &cfg, scope, b, r));
                }
            }
        }
        live
    });
    for (label, n, ns) in [
        ("pass-solve", n_insts, sparse),
        ("pass-solve-reference", n_insts, reference),
        ("queries", query_insts, walked),
    ] {
        rows.push(Row {
            name: format!("liveness/{preset}/{label}"),
            n_insts: n,
            median_ns: ns,
            schedule_hash: None,
        });
    }
    reference as f64 / sparse.max(1) as f64
}

/// The §4.2 renaming rows: the linear boundary-node pass against the
/// reaching-definitions reference. Each iteration renames a fresh clone
/// of the function, so both rows include the clone. Before timing, the
/// run aborts unless both renamers produce the same canonical bytes
/// (which carry the fresh-register counters) and statistics. Returns
/// reference ÷ linear.
fn bench_rename(preset: &str, f: &Function, iters: u32, runs: usize, rows: &mut Vec<Row>) -> f64 {
    let cfg = Cfg::new(f);
    let n_insts = f.num_insts();
    let rename = |reference: bool| {
        let mut renamed = f.clone();
        let stats = if reference {
            rename_webs_reference(&mut renamed, &cfg)
        } else {
            rename_webs(&mut renamed, &cfg)
        };
        (renamed, stats)
    };
    let ((linear_f, linear_stats), (reference_f, reference_stats)) = (rename(false), rename(true));
    assert!(
        linear_stats == reference_stats
            && to_canonical_bytes(&linear_f) == to_canonical_bytes(&reference_f),
        "{preset}: the linear renamer diverges from the reference \
         ({linear_stats:?} vs {reference_stats:?})"
    );
    let linear = median_ns(iters, runs, || rename(false));
    // The reference takes half a second on the largest preset: a few
    // single-iteration runs pin its median well enough.
    let (ref_iters, ref_runs) = if n_insts > 10_000 {
        (1, runs.min(3))
    } else {
        (iters, runs)
    };
    let reference = median_ns(ref_iters, ref_runs, || rename(true));
    for (label, ns) in [("linear", linear), ("reference", reference)] {
        rows.push(Row {
            name: format!("rename/{preset}/{label}"),
            n_insts,
            median_ns: ns,
            schedule_hash: None,
        });
    }
    reference as f64 / linear.max(1) as f64
}

/// The final basic-block pass: every block of the function as global-2
/// leaves it (`compile` without the final pass), scheduled by the
/// ready-list scheduler vs the rescanning reference. Each iteration
/// schedules a fresh clone, so both rows include the clone. Before
/// timing, the run aborts unless both leave every block in the same
/// order; both rows carry the hash of the result. Returns reference ÷
/// ready.
fn bench_final_bb(
    preset: &str,
    f: &Function,
    machine: &MachineDescription,
    iters: u32,
    runs: usize,
    rows: &mut Vec<Row>,
) -> f64 {
    let mut config = SchedConfig::speculative();
    config.final_bb_pass = false;
    config.region_memo = false;
    let mut global = f.clone();
    compile(&mut global, machine, &config).expect("compiles");
    let blocks: Vec<BlockId> = global.block_ids().collect();
    let n_insts = global.num_insts();
    let schedule = |reference: bool| {
        let mut scheduled = global.clone();
        for &b in &blocks {
            if reference {
                schedule_block_reference(&mut scheduled, machine, b);
            } else {
                schedule_block(&mut scheduled, machine, b);
            }
        }
        scheduled
    };
    let (ready_f, reference_f) = (schedule(false), schedule(true));
    for &b in &blocks {
        assert!(
            ready_f
                .block(b)
                .insts()
                .map(|i| i.id)
                .eq(reference_f.block(b).insts().map(|i| i.id)),
            "{preset}: the ready-list scheduler orders block {b} unlike the reference"
        );
    }
    let hash = fnv64(&ready_f.to_string());
    let ready = median_ns(iters, runs, || schedule(false));
    let reference = median_ns(iters, runs, || schedule(true));
    for (label, ns) in [("ready", ready), ("reference", reference)] {
        rows.push(Row {
            name: format!("final-bb/{preset}/{label}"),
            n_insts,
            median_ns: ns,
            schedule_hash: Some(hash),
        });
    }
    reference as f64 / ready.max(1) as f64
}

/// End-to-end compiles at `jobs` 1/2/4/8, which must hash alike.
/// Returns the `jobs 1` time ÷ the `jobs 4` time.
fn bench_end_to_end(
    preset: &str,
    f: &Function,
    machine: &MachineDescription,
    iters: u32,
    runs: usize,
    rows: &mut Vec<Row>,
) -> f64 {
    let n_insts = f.num_insts();
    // The largest preset compiles in a tenth of a second; three
    // single-iteration runs pin its median well enough.
    let (iters, runs) = if n_insts > 10_000 {
        (1, runs.min(3))
    } else {
        (iters, runs)
    };
    let mut hashes = Vec::new();
    for (label, jobs) in [
        ("fast", 1usize),
        ("fast-jobs2", 2),
        ("fast-jobs4", 4),
        ("fast-jobs8", 8),
    ] {
        let mut config = SchedConfig::speculative();
        config.jobs = jobs;
        // The memo would turn every iteration after the first into a
        // splice; these rows track the scheduler itself, so pin it off
        // (the e2e-memo group measures the cache deliberately).
        config.region_memo = false;
        let ns = median_ns(iters, runs, || {
            let mut scheduled = f.clone();
            compile(&mut scheduled, machine, &config).expect("compiles");
            scheduled
        });
        let mut scheduled = f.clone();
        compile(&mut scheduled, machine, &config).expect("compiles");
        let hash = fnv64(&scheduled.to_string());
        hashes.push(hash);
        rows.push(Row {
            name: format!("e2e/{preset}/{label}"),
            n_insts,
            median_ns: ns,
            schedule_hash: Some(hash),
        });
    }
    assert!(
        hashes.windows(2).all(|w| w[0] == w[1]),
        "{preset}: schedule hashes diverge across jobs ({hashes:016x?}) — \
         the worker count changed the scheduler's output"
    );
    let fast = rows[rows.len() - 4].median_ns;
    let jobs4 = rows[rows.len() - 2].median_ns;
    fast as f64 / jobs4.max(1) as f64
}

/// Measures the region schedule memo end-to-end: a cold compile (the
/// process-wide memo cleared before every iteration) vs a warm one
/// (the cache primed by a prior compile of the same function, so every
/// eligible region splices its cached block payloads instead of
/// re-scheduling). Before timing, compiles across memo {off, on-cold,
/// on-warm} × jobs {1, 2, 4, 8} and asserts every schedule hashes
/// identically — the memo must be a pure cache.
fn bench_memo(
    preset: &str,
    f: &Function,
    machine: &MachineDescription,
    iters: u32,
    runs: usize,
    rows: &mut Vec<Row>,
    speedups: &mut Vec<(String, f64)>,
) -> bool {
    let n_insts = f.num_insts();
    let mut hashes: Vec<(String, u64)> = Vec::new();
    for memo in [false, true] {
        for jobs in [1usize, 2, 4, 8] {
            let mut config = SchedConfig::speculative();
            config.region_memo = memo;
            config.jobs = jobs;
            gis_core::region_memo_clear();
            let mut cold = f.clone();
            compile(&mut cold, machine, &config).expect("compiles");
            hashes.push((
                format!("memo={memo}/jobs={jobs}/cold"),
                fnv64(&cold.to_string()),
            ));
            if memo {
                let mut warm = f.clone();
                compile(&mut warm, machine, &config).expect("compiles");
                hashes.push((
                    format!("memo={memo}/jobs={jobs}/warm"),
                    fnv64(&warm.to_string()),
                ));
            }
        }
    }
    let reference = hashes[0].1;
    let hashes_ok = hashes.iter().all(|&(_, h)| h == reference);
    assert!(
        hashes_ok,
        "{preset}: schedule hashes diverge across the memo matrix \
         ({hashes:x?}) — the region memo changed the scheduler's output"
    );

    let config = SchedConfig::speculative(); // memo on, jobs 1
    let cold_ns = median_ns(iters, runs, || {
        gis_core::region_memo_clear();
        let mut scheduled = f.clone();
        compile(&mut scheduled, machine, &config).expect("compiles");
        scheduled
    });
    gis_core::region_memo_clear();
    let mut primed = f.clone();
    compile(&mut primed, machine, &config).expect("compiles");
    let warm_ns = median_ns(iters, runs, || {
        let mut scheduled = f.clone();
        compile(&mut scheduled, machine, &config).expect("compiles");
        scheduled
    });
    rows.push(Row {
        name: format!("e2e-memo/{preset}/cold"),
        n_insts,
        median_ns: cold_ns,
        schedule_hash: Some(reference),
    });
    rows.push(Row {
        name: format!("e2e-memo/{preset}/warm"),
        n_insts,
        median_ns: warm_ns,
        schedule_hash: Some(reference),
    });
    speedups.push((
        format!("memo-warm/{preset}"),
        cold_ns as f64 / warm_ns.max(1) as f64,
    ));
    hashes_ok
}

/// Measures the size-aware work-stealing plan on the skewed preset (one
/// loop ~10× the rest, deliberately placed last so in-order claiming
/// would start it last) at every width. Every schedule must hash
/// identically — claiming order can shift wall time, never output. On a
/// single-CPU host every width runs one inline worker, so the timings
/// only say something on a multi-core machine; the determinism gate
/// holds everywhere.
fn bench_steal(
    preset: &str,
    f: &Function,
    machine: &MachineDescription,
    iters: u32,
    runs: usize,
    rows: &mut Vec<Row>,
) -> bool {
    let n_insts = f.num_insts();
    let mut hashes: Vec<(usize, u64)> = Vec::new();
    for jobs in [1usize, 2, 4, 8] {
        let mut config = SchedConfig::speculative();
        config.region_memo = false;
        config.jobs = jobs;
        let ns = median_ns(iters, runs, || {
            let mut scheduled = f.clone();
            compile(&mut scheduled, machine, &config).expect("compiles");
            scheduled
        });
        let mut scheduled = f.clone();
        compile(&mut scheduled, machine, &config).expect("compiles");
        let hash = fnv64(&scheduled.to_string());
        hashes.push((jobs, hash));
        rows.push(Row {
            name: format!("e2e-steal/{preset}/steal-jobs{jobs}"),
            n_insts,
            median_ns: ns,
            schedule_hash: Some(hash),
        });
    }
    let reference = hashes[0].1;
    let hashes_ok = hashes.iter().all(|&(_, h)| h == reference);
    assert!(
        hashes_ok,
        "{preset}: schedule hashes diverge across jobs ({hashes:x?}) — \
         the claiming order changed the scheduler's output"
    );
    hashes_ok
}

/// One schedule-quality measurement: simulated cycles with the
/// duplication gate off vs on (same workload, same machine).
struct QualityRow {
    name: String,
    n_insts: usize,
    dup_off_cycles: u64,
    dup_on_cycles: u64,
    dup_copies: usize,
}

/// Measures schedule *quality* (not compile throughput) on a
/// dispatch-diamonds preset: simulated cycles on the timing model with
/// `SchedConfig::duplication` off and on. The workload's join loads are
/// store-pinned — no single hoist target is safe — so the cycle delta
/// isolates what duplication-based motion alone buys. Both schedules
/// are checked against the unscheduled reference before timing; the
/// run aborts on a behaviour change rather than reporting a speedup
/// for a scheduler that altered the program.
fn bench_quality(
    preset: &str,
    w: &gis_workloads::spec::Workload,
    machine: &MachineDescription,
    rows: &mut Vec<QualityRow>,
    speedups: &mut Vec<(String, f64)>,
) {
    let exec = ExecConfig::default();
    let f = &w.program.function;
    let reference = execute(f, &w.memory, &exec).expect("reference runs");
    let mut cycles = [0u64; 2];
    let mut copies = 0usize;
    for (i, dup) in [false, true].into_iter().enumerate() {
        let mut config = SchedConfig::speculative();
        config.duplication = dup;
        let mut scheduled = f.clone();
        let stats = compile(&mut scheduled, machine, &config).expect("compiles");
        let out = execute(&scheduled, &w.memory, &exec).expect("scheduled runs");
        assert!(
            reference.explain_difference(&out).is_none(),
            "{preset} dup={dup}: scheduling changed behaviour"
        );
        cycles[i] = TimingSim::new(&scheduled, machine)
            .run(&out.block_trace)
            .cycles;
        if dup {
            copies = stats.dup_copies_minted;
        }
    }
    rows.push(QualityRow {
        name: preset.to_owned(),
        n_insts: f.num_insts(),
        dup_off_cycles: cycles[0],
        dup_on_cycles: cycles[1],
        dup_copies: copies,
    });
    speedups.push((
        format!("dup-cycles/{preset}"),
        cycles[0] as f64 / cycles[1].max(1) as f64,
    ));
}

/// Serializes the rows and summary as a stable, pretty-printed JSON
/// document (std only — names are ASCII, so no escaping is needed).
fn to_json(
    rows: &[Row],
    quality: &[QualityRow],
    speedups: &[(String, f64)],
    jobs_hash_match: bool,
    smoke: bool,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n  \"bench\": \"hotpaths\",\n  \"machine\": \"rs6k\",\n");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"jobs_hash_match\": {jobs_hash_match},");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let hash = match r.schedule_hash {
            Some(h) => format!("\"{h:016x}\""),
            None => "null".to_owned(),
        };
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"n_insts\": {}, \"median_ns\": {}, \"schedule_hash\": {}}}",
            r.name, r.n_insts, r.median_ns, hash
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"quality\": [\n");
    for (i, q) in quality.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"n_insts\": {}, \"dup_off_cycles\": {}, \
             \"dup_on_cycles\": {}, \"dup_copies\": {}}}",
            q.name, q.n_insts, q.dup_off_cycles, q.dup_on_cycles, q.dup_copies
        );
        out.push_str(if i + 1 < quality.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"speedups\": {\n");
    for (i, (name, x)) in speedups.iter().enumerate() {
        let _ = write!(out, "    \"{name}\": {x:.2}");
        out.push_str(if i + 1 < speedups.len() { ",\n" } else { "\n" });
    }
    out.push_str("  }\n}\n");
    out
}

fn main() {
    let mut smoke = false;
    let mut out_path = format!(
        "{}/../../BENCH_sched.json",
        env!("CARGO_MANIFEST_DIR") // the tracked baseline at the repo root
    );
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next().expect("--out expects a path"),
            // Writes a preset's tinyc source and exits, so the exact
            // benchmark input can be fed to other tools (for example
            // `gisc --tinyc --metrics` to get per-pass wall times, or
            // `gisc --tinyc --dup` for the CI determinism smoke).
            "--emit-src" => {
                let preset = args.next().expect("--emit-src expects a preset name");
                let path = args.next().expect("--emit-src expects an output path");
                let w = synth::many_loops_preset(&preset)
                    .or_else(|| synth::many_loops_skewed_preset(&preset))
                    .or_else(|| synth::dispatch_diamonds_preset(&preset))
                    .expect(
                        "a preset from MANY_LOOPS_PRESETS, MANY_LOOPS_SKEWED_PRESET \
                         or DISPATCH_DIAMONDS_PRESETS",
                    );
                std::fs::write(&path, &w.source).expect("writing the source");
                println!("hotpaths: {preset} source written to {path}");
                return;
            }
            // Cargo passes --bench (and test-harness flags) through.
            _ => {}
        }
    }
    let (iters, runs) = if smoke { (1, 1) } else { (5, 5) };

    let machine = MachineDescription::rs6k();
    let config = SchedConfig::speculative();
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    let mut jobs_hash_match = true;
    for &(preset, loops, stmts, seed) in synth::MANY_LOOPS_PRESETS {
        let w = synth::many_loops_scaled(loops, stmts, seed);
        let f = &w.program.function;
        println!(
            "hotpaths: {preset} — {} blocks, {} instructions",
            f.num_blocks(),
            f.num_insts()
        );
        bench_frontend(preset, &w.source, iters, runs, &mut rows);
        let dep = bench_dep_build(preset, f, &machine, &config, iters, runs, &mut rows);
        let live = bench_liveness(preset, f, &machine, &config, iters, runs, &mut rows);
        let rename = bench_rename(preset, f, iters, runs, &mut rows);
        let final_bb = bench_final_bb(preset, f, &machine, iters, runs, &mut rows);
        let jobs4 = bench_end_to_end(preset, f, &machine, iters, runs, &mut rows);
        speedups.push((format!("dep-build/{preset}"), dep));
        speedups.push((format!("liveness-pass/{preset}"), live));
        speedups.push((format!("rename/{preset}"), rename));
        speedups.push((format!("final-bb/{preset}"), final_bb));
        speedups.push((format!("jobs4/{preset}"), jobs4));
        if preset == "many-loops-m" {
            jobs_hash_match &=
                bench_memo(preset, f, &machine, iters, runs, &mut rows, &mut speedups);
        }
    }

    {
        let (preset, loops, stmts, heavy, seed) = synth::MANY_LOOPS_SKEWED_PRESET;
        let w = synth::many_loops_skewed(loops, stmts, heavy, seed);
        let f = &w.program.function;
        println!(
            "hotpaths: {preset} — {} blocks, {} instructions",
            f.num_blocks(),
            f.num_insts()
        );
        jobs_hash_match &= bench_steal(preset, f, &machine, iters, runs, &mut rows);
    }

    let mut quality = Vec::new();
    for &(preset, diamonds, seed) in synth::DISPATCH_DIAMONDS_PRESETS {
        let w = synth::dispatch_diamonds(diamonds, seed);
        println!(
            "hotpaths: {preset} — {} blocks, {} instructions",
            w.program.function.num_blocks(),
            w.program.function.num_insts()
        );
        bench_quality(preset, &w, &machine, &mut quality, &mut speedups);
    }

    for r in &rows {
        println!(
            "hotpaths/{:<40} {:>12} ns/iter  ({} insts)",
            r.name, r.median_ns, r.n_insts
        );
    }
    for q in &quality {
        println!(
            "quality/{:<41} {:>8} cycles off / {:>8} on  ({} copies)",
            q.name, q.dup_off_cycles, q.dup_on_cycles, q.dup_copies
        );
    }
    for (name, x) in &speedups {
        println!("speedup/{name:<40} {x:>11.2}x");
    }
    let json = to_json(&rows, &quality, &speedups, jobs_hash_match, smoke);
    std::fs::write(&out_path, &json).expect("writing the baseline file");
    println!("hotpaths: baseline written to {out_path}");
}
