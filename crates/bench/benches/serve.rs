//! Daemon throughput benchmark with a tracked baseline: a cold batch of
//! distinct functions against an empty schedule cache, then the same
//! batch warm — every request a content-addressed hit. The tracked
//! numbers quantify what the cache buys a client that resubmits
//! mostly-unchanged programs (the build-system recompile pattern).
//!
//! Hand-rolled harness (`harness = false`, like `hotpaths.rs`): the
//! sandbox builds offline, so criterion is unavailable. The run starts a
//! real in-process daemon on a unix socket and drives it through the
//! protocol client, so the measured path includes framing, the worker
//! pool and response streaming — not just the cache lookup.
//!
//! Besides the human-readable listing, the run writes `BENCH_serve.json`
//! (at the repository root by default) so the numbers are tracked in the
//! tree and CI can smoke them:
//!
//! ```text
//! cargo bench -p gis-bench --bench serve            # full run
//! cargo bench -p gis-bench --bench serve -- --smoke # tiny corpus, CI
//! cargo bench -p gis-bench --bench serve -- --out out.json
//! ```
//!
//! A relative `--out` is taken from the workspace root, not from the
//! package directory cargo runs the bench in.
//!
//! Correctness is part of the measurement contract: the warm pass must
//! return bit-identical schedule hashes to the cold pass (the cache may
//! never change the scheduler's answer) and must be at least 5x faster
//! per function — the run aborts rather than record a baseline that
//! violates either.

use gis_serve::{start, Client, FuncOutcome, FuncSpec, Lang, Listen, ServeConfig};
use gis_workloads::loadgen;
use std::time::Instant;

/// One emitted measurement: a whole batch, wall-clock.
struct Row {
    name: String,
    funcs: usize,
    total_ns: u128,
    per_func_ns: u128,
}

/// Collects `name -> hash` for a batch, asserting every function
/// scheduled successfully with the expected cache disposition.
fn hashes_of(batch: &gis_serve::client::BatchResult, expect_cached: bool) -> Vec<(String, u64)> {
    batch
        .funcs
        .iter()
        .map(|f| match &f.outcome {
            FuncOutcome::Ok { cached, hash, .. } => {
                assert_eq!(
                    *cached, expect_cached,
                    "{}: expected cached={expect_cached}",
                    f.name
                );
                (f.name.clone(), *hash)
            }
            other => panic!("{}: expected a schedule, got {other:?}", f.name),
        })
        .collect()
}

/// Serializes the rows and summary as a stable, pretty-printed JSON
/// document (std only — names are ASCII, so no escaping is needed).
fn to_json(rows: &[Row], speedup: f64, hashes_match: bool, smoke: bool) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n  \"bench\": \"serve\",\n  \"machine\": \"rs6k\",\n");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"hashes_match\": {hashes_match},");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"funcs\": {}, \"total_ns\": {}, \"per_func_ns\": {}}}",
            r.name, r.funcs, r.total_ns, r.per_func_ns
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"speedups\": {\n");
    let _ = writeln!(out, "    \"warm-over-cold\": {speedup:.2}");
    out.push_str("  }\n}\n");
    out
}

fn main() {
    let mut smoke = false;
    // The tracked baseline at the repo root; a relative `--out` is taken
    // from there too.
    let mut out_path = gis_bench::bench_path("BENCH_serve.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out_path = gis_bench::bench_path(&args.next().expect("--out expects a path"))
            }
            // Cargo passes --bench (and test-harness flags) through.
            _ => {}
        }
    }
    // The full corpus uses many-loops-s-shaped functions — big enough
    // that a cold compile dwarfs protocol overhead, small enough that
    // eight of them keep the run in seconds. Smoke shrinks both axes.
    let (distinct, loops, stmts) = if smoke { (2, 4, 2) } else { (8, 16, 2) };
    let corpus = loadgen::corpus(distinct, distinct, loops, stmts, 11);
    let funcs: Vec<FuncSpec> = corpus
        .iter()
        .map(|i| FuncSpec {
            name: Some(i.name.clone()),
            text: i.source.clone(),
        })
        .collect();

    let sock = std::env::temp_dir().join(format!("gis-bench-serve-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let mut config = ServeConfig::new(Listen::Unix(sock.clone()));
    config.jobs = 4;
    let server = start(config).expect("daemon starts");
    let mut client = Client::connect(&Listen::Unix(sock)).expect("client connects");

    println!("serve: {distinct} distinct functions ({loops} loops x {stmts} stmts), jobs 4");
    let t0 = Instant::now();
    let cold = client
        .schedule_batch(Lang::TinyC, "rs6k", Vec::new(), &funcs)
        .expect("cold batch");
    let cold_ns = t0.elapsed().as_nanos();
    let cold_hashes = hashes_of(&cold, false);
    assert_eq!(
        cold.summary.cache_misses as usize, distinct,
        "all-miss cold"
    );

    let t0 = Instant::now();
    let warm = client
        .schedule_batch(Lang::TinyC, "rs6k", Vec::new(), &funcs)
        .expect("warm batch");
    let warm_ns = t0.elapsed().as_nanos();
    let warm_hashes = hashes_of(&warm, true);
    assert_eq!(warm.summary.cache_hits as usize, distinct, "all-hit warm");

    let hashes_match = cold_hashes == warm_hashes;
    assert!(
        hashes_match,
        "warm hashes diverge from cold ({cold_hashes:x?} vs {warm_hashes:x?}) — \
         the cache changed the scheduler's output"
    );
    let speedup = cold_ns as f64 / warm_ns.max(1) as f64;
    assert!(
        speedup >= 5.0,
        "warm pass only {speedup:.2}x faster than cold (acceptance floor is 5x)"
    );

    client.shutdown_server().expect("shutdown");
    let metrics = server.join();
    assert_eq!(metrics.counter("cache.hits") as usize, distinct);
    assert_eq!(metrics.counter("cache.misses") as usize, distinct);

    let rows = vec![
        Row {
            name: "serve/cold".to_owned(),
            funcs: distinct,
            total_ns: cold_ns,
            per_func_ns: cold_ns / distinct as u128,
        },
        Row {
            name: "serve/warm".to_owned(),
            funcs: distinct,
            total_ns: warm_ns,
            per_func_ns: warm_ns / distinct as u128,
        },
    ];
    for r in &rows {
        println!(
            "{:<30} {:>12} ns/batch  {:>12} ns/func",
            r.name, r.total_ns, r.per_func_ns
        );
    }
    println!("speedup/warm-over-cold {speedup:>26.2}x");
    let json = to_json(&rows, speedup, hashes_match, smoke);
    std::fs::write(&out_path, &json).expect("writing the baseline file");
    println!("serve: baseline written to {}", out_path.display());
}
