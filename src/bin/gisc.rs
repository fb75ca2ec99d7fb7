//! `gisc` — the command-line driver: compile tinyc source or assemble IR
//! text, schedule it for a chosen machine, and optionally run it. Two
//! subcommands wrap the gis-check subsystem: `gisc fuzz` runs the
//! differential fuzzer and `gisc verify` runs the structural verifier on
//! one file.
//!
//! ```text
//! gisc fuzz [--seed N] [--iters K] [--out DIR]
//!     differentially fuzz the scheduler; on divergence, print and save
//!     the minimized reproducer (default --out tests/corpus)
//! gisc verify <file|->
//!     structural verification of textual IR (corpus files accepted)
//! gisc serve --listen unix:PATH|tcp:HOST:PORT [--jobs N]
//!     [--cache-cap N] [--timeout-ms N] [--cache-file PATH] [--metrics]
//!     run the scheduling daemon until SIGTERM/ctrl-c or a client's
//!     shutdown request; --metrics prints the registry on shutdown;
//!     --cache-file persists the schedule cache across restarts
//! gisc serve-request --listen SPEC [--ping] [--workload NAME]...
//!     [--file F]... [--tinyc|--asm] [--machine M] [--repeat N]
//!     [--print-schedule] [--raw LINE]... [--stats] [--shutdown]
//!     drive a running daemon: schedule batches, fetch counters,
//!     or ask it to drain and exit (see docs/SERVICE.md)
//! gisc bench-matrix [--smoke] [--out FILE] [--results FILE] [--check]
//!     run the (workload × machine × policy) experiment matrix and write
//!     BENCH_matrix.json + docs/RESULTS.md; --check verifies the
//!     committed markdown matches the committed JSON without running
//!     anything (the CI docs gate); --smoke shrinks every input
//!
//! gisc [OPTIONS] <file>
//!   --tinyc | --asm      input language (default: by extension, .c/.gis)
//!   --level <base|useful|speculative>   scheduling level (default speculative)
//!   --machine <NAME>     machine model: rs6k (default), scalar,
//!                        issue2/issue4/issue8, wideN, vliwN
//!   --no-unroll --no-rotate --no-rename --paper
//!   --dup                enable duplication-based global motion (copies
//!                        join instructions into every predecessor)
//!   --no-memo            disable the process-wide region schedule memo
//!                        (output is bit-identical either way)
//!   --branches <N>       max speculation depth (default 1)
//!   --jobs <N>           worker threads for the global passes; 0 = one
//!                        per CPU (default 1; output is identical for any N)
//!   --opt                run the machine-independent optimizer first
//!   --run                execute after scheduling and report cycles
//!   --stats              print scheduler statistics
//!   --dot-cfg            print the CFG in DOT instead of code
//!   --dot-cfg=traced     ... with the scheduler's motions overlaid
//!   --dot-cspdg          print each region's CSPDG in DOT instead of code
//!   --dot-cspdg=traced   ... with the scheduler's motions overlaid
//!   --report <out.html>  write a self-contained HTML schedule report
//!   --trace              print the scheduler's decision trace (stderr)
//!   --trace=json:<path>  also write the trace as JSON lines to <path>
//!   --metrics            print the metrics registry, including the
//!                        scheduler's perf counters and the region
//!                        memo's cache.region.* counters (stderr)
//!   --explain <inst>     print every decision about one instruction (I8 or 8)
//!   --timeline           with --run: per-cycle unit occupancy and stalls
//! ```
//!
//! Examples:
//!
//! ```text
//! gisc --tinyc --run examples/kernels/minmax.c
//! echo 'CL.0: ... ' | gisc --asm --level useful -
//! ```

use gis_cfg::{cfg_to_dot, Cfg};
use gis_core::{compile_observed, SchedConfig, SchedLevel, SchedStats};
use gis_ir::{parse_function, Function};
use gis_machine::MachineDescription;
use gis_sim::{execute, ExecConfig, TimingSim};
use gis_trace::{render_report, Metrics, NopObserver, Recorder, TraceEvent, TraceQuery};
use gis_viz::{schedule_report, traced_cfg_dot, traced_cspdg_dot, ScheduleReport};
use std::io::Read as _;
use std::process::ExitCode;

/// How (and whether) to print a graph in DOT instead of code.
#[derive(Clone, Copy, PartialEq, Eq)]
enum DotMode {
    /// Print the scheduled function as code (the default).
    Off,
    /// Print the plain graph.
    Plain,
    /// Print the graph with the scheduler's decision trace overlaid.
    Traced,
}

struct Options {
    file: String,
    tinyc: Option<bool>,
    level: SchedLevel,
    machine: MachineDescription,
    config_tweaks: Vec<fn(&mut SchedConfig)>,
    branches: usize,
    jobs: usize,
    run: bool,
    stats: bool,
    dot_cfg: DotMode,
    dot_cspdg: DotMode,
    report: Option<String>,
    opt: bool,
    trace: bool,
    trace_json: Option<String>,
    metrics: bool,
    explain: Option<u32>,
    timeline: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: gisc [--tinyc|--asm] [--level base|useful|speculative] \
         [--machine rs6k|scalar|issue2/4/8|wideN|vliwN] [--no-unroll] [--no-rotate] \
         [--no-rename] [--paper] [--dup] [--no-memo] [--branches N] \
         [--jobs N] [--opt] [--run] [--stats] \
         [--dot-cfg[=traced]] [--dot-cspdg[=traced]] [--report <out.html>] \
         [--trace[=json:<path>]] [--metrics] [--explain <inst>] [--timeline] <file|->\n\
         \x20      gisc fuzz [--seed N] [--iters K] [--out DIR]\n\
         \x20      gisc verify <file|->\n\
         \x20      gisc serve --listen unix:PATH|tcp:HOST:PORT [--jobs N] \
         [--cache-cap N] [--timeout-ms N] [--cache-file PATH] [--metrics]\n\
         \x20      gisc serve-request --listen SPEC [--ping] [--workload NAME] \
         [--file F] [--machine M] [--repeat N] [--stats] [--shutdown]\n\
         \x20      gisc bench-matrix [--smoke] [--out FILE] [--results FILE] [--check]"
    );
    std::process::exit(2)
}

/// Rejects a malformed argument with a specific message (exit 2, like
/// `usage`, but telling the user *which* flag was wrong and why).
fn bad_arg(msg: &str) -> ! {
    eprintln!("gisc: {msg}");
    eprintln!("run `gisc --help` for usage");
    std::process::exit(2)
}

/// Parses the value of an integer-valued flag, with actionable errors for
/// both the missing-value and unparsable-value cases.
fn int_value<T: std::str::FromStr>(flag: &str, kind: &str, value: Option<String>) -> T {
    let Some(v) = value else {
        bad_arg(&format!("{flag} expects {kind}, but no value was given"));
    };
    v.parse()
        .unwrap_or_else(|_| bad_arg(&format!("{flag} expects {kind}, got '{v}'")))
}

fn parse_args() -> Options {
    let mut opts = Options {
        file: String::new(),
        tinyc: None,
        level: SchedLevel::Speculative,
        machine: MachineDescription::rs6k(),
        config_tweaks: Vec::new(),
        branches: 1,
        jobs: 1,
        run: false,
        stats: false,
        dot_cfg: DotMode::Off,
        dot_cspdg: DotMode::Off,
        report: None,
        opt: false,
        trace: false,
        trace_json: None,
        metrics: false,
        explain: None,
        timeline: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--tinyc" => opts.tinyc = Some(true),
            "--asm" => opts.tinyc = Some(false),
            "--level" => {
                opts.level = match args.next().as_deref() {
                    Some("base") => SchedLevel::BasicBlockOnly,
                    Some("useful") => SchedLevel::Useful,
                    Some("speculative") => SchedLevel::Speculative,
                    _ => usage(),
                }
            }
            "--machine" => {
                let m = args.next().unwrap_or_else(|| usage());
                opts.machine = MachineDescription::by_name(&m).unwrap_or_else(|| {
                    bad_arg(&format!(
                        "--machine expects rs6k, scalar, issue2/4/8, wideN or vliwN, got '{m}'"
                    ))
                });
            }
            "--no-unroll" => opts.config_tweaks.push(|c| c.unroll = false),
            "--no-rotate" => opts.config_tweaks.push(|c| c.rotate = false),
            "--no-rename" => opts.config_tweaks.push(|c| c.rename = false),
            "--dup" => opts.config_tweaks.push(|c| c.duplication = true),
            "--no-memo" => opts.config_tweaks.push(|c| c.region_memo = false),
            "--paper" => opts.config_tweaks.push(|c| {
                c.rename = false;
                c.unroll = false;
                c.rotate = false;
                c.final_bb_pass = false;
            }),
            "--branches" => {
                opts.branches = int_value("--branches", "a non-negative integer", args.next());
            }
            "--jobs" => {
                opts.jobs = int_value(
                    "--jobs",
                    "a non-negative integer (0 = one worker per CPU)",
                    args.next(),
                );
            }
            "--opt" => opts.opt = true,
            "--run" => opts.run = true,
            "--stats" => opts.stats = true,
            "--dot-cfg" => opts.dot_cfg = DotMode::Plain,
            "--dot-cspdg" => opts.dot_cspdg = DotMode::Plain,
            "--report" => {
                opts.report = Some(
                    args.next()
                        .unwrap_or_else(|| bad_arg("--report expects an output file path")),
                );
            }
            "--trace" => opts.trace = true,
            "--metrics" => opts.metrics = true,
            "--explain" => {
                let inst = args
                    .next()
                    .unwrap_or_else(|| bad_arg("--explain expects an instruction id (I8 or 8)"));
                let digits = inst.strip_prefix('I').unwrap_or(&inst);
                opts.explain = Some(digits.parse().unwrap_or_else(|_| {
                    bad_arg(&format!(
                        "--explain expects an instruction id (I8 or 8), got '{inst}'"
                    ))
                }));
            }
            "--timeline" => opts.timeline = true,
            "-h" | "--help" => usage(),
            other if other.starts_with("--trace=") => {
                let spec = &other["--trace=".len()..];
                let Some(path) = spec.strip_prefix("json:") else {
                    bad_arg(&format!(
                        "--trace expects no value or 'json:<path>', got '{spec}'"
                    ));
                };
                opts.trace = true;
                opts.trace_json = Some(path.to_owned());
            }
            other if other.starts_with("--metrics=") => {
                let spec = &other["--metrics=".len()..];
                bad_arg(&format!("--metrics expects no value, got '{spec}'"));
            }
            other if other.starts_with("--dup=") => {
                let spec = &other["--dup=".len()..];
                bad_arg(&format!(
                    "--dup expects no value (it is an on/off switch), got '{spec}'"
                ));
            }
            other if other.starts_with("--dot-cfg=") => {
                let mode = &other["--dot-cfg=".len()..];
                if mode != "traced" {
                    bad_arg(&format!(
                        "--dot-cfg expects no value or 'traced', got '{mode}'"
                    ));
                }
                opts.dot_cfg = DotMode::Traced;
            }
            other if other.starts_with("--dot-cspdg=") => {
                let mode = &other["--dot-cspdg=".len()..];
                if mode != "traced" {
                    bad_arg(&format!(
                        "--dot-cspdg expects no value or 'traced', got '{mode}'"
                    ));
                }
                opts.dot_cspdg = DotMode::Traced;
            }
            other if other.starts_with('-') && other != "-" => {
                bad_arg(&format!("unknown flag '{other}'"));
            }
            other if opts.file.is_empty() => opts.file = other.to_owned(),
            other => bad_arg(&format!(
                "unexpected extra argument '{other}' (input file is already '{}')",
                opts.file
            )),
        }
    }
    if opts.file.is_empty() {
        usage();
    }
    opts
}

fn read_input(file: &str) -> Result<String, String> {
    if file == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(s)
    } else {
        std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))
    }
}

fn main() -> ExitCode {
    // Subcommand dispatch before flag parsing: `gisc fuzz`/`gisc verify`
    // wrap the gis-check subsystem.
    let mut raw = std::env::args().skip(1);
    match raw.next().as_deref() {
        Some("fuzz") => return fuzz_command(raw),
        Some("verify") => return verify_command(raw),
        Some("serve") => return serve_command(raw),
        Some("serve-request") => return serve_request_command(raw),
        Some("bench-matrix") => return bench_matrix_command(raw),
        _ => {}
    }
    let opts = parse_args();
    match drive(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("gisc: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// `gisc fuzz [--seed N] [--iters K] [--out DIR]`: run the differential
/// fuzzer; on divergence print the minimized reproducer and save it under
/// the output directory (default `tests/corpus`).
fn fuzz_command(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut seed: u64 = 1;
    let mut iters: u64 = 100;
    let mut out_dir = String::from("tests/corpus");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed = int_value("--seed", "a 64-bit unsigned integer", args.next()),
            "--iters" => iters = int_value("--iters", "a non-negative integer", args.next()),
            "--out" => {
                out_dir = args
                    .next()
                    .unwrap_or_else(|| bad_arg("--out expects a directory path"));
            }
            other => bad_arg(&format!("unknown fuzz argument '{other}'")),
        }
    }
    // The full surface: the jobs matrix, the duplication matrix (gate
    // on/off × jobs {1, 4} × speculation depth {1, 2}), the wide-machine
    // matrix, and the region-memo matrix (memo on/off × jobs {1, 4}).
    let matrix = gis_check::full_matrix();
    eprintln!(
        "gisc fuzz: seed {seed}, {iters} iterations, matrix of {} configs",
        matrix.len()
    );
    let report = gis_check::run_fuzz(seed, iters, &matrix);
    match report.failure {
        None => {
            eprintln!(
                "gisc fuzz: OK — {} iterations, no divergence",
                report.iterations
            );
            ExitCode::SUCCESS
        }
        Some(failure) => {
            let text = failure.reproducer_text();
            eprintln!(
                "gisc fuzz: DIVERGENCE at iteration {} ({})",
                failure.iteration, failure.divergence
            );
            eprintln!("--- minimized reproducer ---");
            eprint!("{text}");
            eprintln!("----------------------------");
            let path = format!("{out_dir}/fuzz-seed{}-iter{}.gis", seed, failure.iteration);
            match std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, &text)) {
                Ok(()) => eprintln!("gisc fuzz: reproducer written to {path}"),
                Err(e) => eprintln!("gisc fuzz: could not write {path}: {e}"),
            }
            ExitCode::FAILURE
        }
    }
}

/// `gisc verify <file|->`: structural verification of one textual-IR
/// file. Accepts corpus reproducers (`; mem:` header lines are ignored
/// for verification purposes).
fn verify_command(mut args: impl Iterator<Item = String>) -> ExitCode {
    let Some(file) = args.next() else {
        bad_arg("verify expects a file argument (or '-' for stdin)");
    };
    if let Some(extra) = args.next() {
        bad_arg(&format!(
            "verify takes exactly one file, got extra '{extra}'"
        ));
    }
    let text = match read_input(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("gisc: {e}");
            return ExitCode::FAILURE;
        }
    };
    let function = match gis_check::parse_reproducer(&text) {
        Ok((f, _mem)) => f,
        Err(e) => {
            eprintln!("gisc verify: {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match gis_check::verify_function(&function) {
        Ok(()) => {
            println!(
                "{file}: ok ({} blocks, {} instructions)",
                function.num_blocks(),
                function.num_insts()
            );
            ExitCode::SUCCESS
        }
        Err(errs) => {
            for e in &errs {
                eprintln!("gisc verify: {file}: {e}");
            }
            ExitCode::FAILURE
        }
    }
}

/// `gisc bench-matrix [--smoke] [--out FILE] [--results FILE] [--check]`:
/// the `(workload × machine × policy)` experiment behind docs/RESULTS.md.
///
/// The default run schedules, checks and times every cell, then writes
/// the JSON matrix (`--out`, default `BENCH_matrix.json`) and the
/// rendered report (`--results`, default `docs/RESULTS.md`). `--smoke`
/// shrinks every workload so the whole pipeline runs in seconds.
/// `--check` runs nothing: it re-renders the committed JSON and fails
/// if the committed markdown differs — the CI gate that keeps the
/// report from drifting from the data it claims to present.
fn bench_matrix_command(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut smoke = false;
    let mut check = false;
    let mut out_path = String::from("BENCH_matrix.json");
    let mut results_path = String::from("docs/RESULTS.md");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--check" => check = true,
            "--out" => {
                out_path = args
                    .next()
                    .unwrap_or_else(|| bad_arg("--out expects a file path"));
            }
            "--results" => {
                results_path = args
                    .next()
                    .unwrap_or_else(|| bad_arg("--results expects a file path"));
            }
            other => bad_arg(&format!("unknown bench-matrix argument '{other}'")),
        }
    }
    if check {
        let json = match std::fs::read_to_string(&out_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("gisc bench-matrix: reading {out_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let rendered = match gis_bench::matrix::render_markdown(&json) {
            Ok(md) => md,
            Err(e) => {
                eprintln!("gisc bench-matrix: {out_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let committed = match std::fs::read_to_string(&results_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("gisc bench-matrix: reading {results_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if committed == rendered {
            eprintln!("gisc bench-matrix: {results_path} matches {out_path}");
            return ExitCode::SUCCESS;
        }
        eprintln!(
            "gisc bench-matrix: {results_path} is out of date with {out_path} — \
             rerun `gisc bench-matrix` and commit both files"
        );
        return ExitCode::FAILURE;
    }
    let report = gis_bench::matrix::run_matrix(smoke, |line| eprintln!("{line}"));
    let json = gis_bench::matrix::to_json(&report);
    let markdown = match gis_bench::matrix::render_markdown(&json) {
        Ok(md) => md,
        Err(e) => {
            eprintln!("gisc bench-matrix: rendering: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("gisc bench-matrix: writing {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&results_path, &markdown) {
        eprintln!("gisc bench-matrix: writing {results_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "gisc bench-matrix: {} cells ({} workloads × {} machines × {} policies) — \
         wrote {out_path} and {results_path}",
        report.cells.len(),
        report.workloads.len(),
        report.machines.len(),
        report.policies.len()
    );
    ExitCode::SUCCESS
}

/// Parses a `--listen` value, rejecting malformed specs in the standard
/// flag-error style shared by both serve subcommands.
fn listen_value(value: Option<String>) -> (gis_serve::Listen, String) {
    let Some(spec) = value else {
        bad_arg("--listen expects unix:PATH or tcp:HOST:PORT, but no value was given");
    };
    let listen = gis_serve::Listen::parse(&spec).unwrap_or_else(|_| {
        bad_arg(&format!(
            "--listen expects unix:PATH or tcp:HOST:PORT, got '{spec}'"
        ))
    });
    (listen, spec)
}

/// `gisc serve --listen SPEC [--jobs N] [--cache-cap N] [--timeout-ms N]
/// [--cache-file PATH] [--metrics]`: run the scheduling daemon until a
/// signal or a client's shutdown request, then drain in-flight work and
/// exit cleanly. With `--cache-file` the schedule cache is reloaded on
/// start and dumped on drain, so a restarted daemon serves warm hits.
fn serve_command(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut listen: Option<(gis_serve::Listen, String)> = None;
    let mut jobs: usize = 0;
    let mut cache_cap: usize = 1024;
    let mut timeout_ms: u64 = 0;
    let mut cache_file: Option<std::path::PathBuf> = None;
    let mut metrics = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--listen" => listen = Some(listen_value(args.next())),
            "--jobs" => {
                jobs = int_value(
                    "--jobs",
                    "a non-negative integer (0 = one worker per CPU)",
                    args.next(),
                );
            }
            "--cache-cap" => {
                cache_cap = int_value(
                    "--cache-cap",
                    "a non-negative integer (0 disables the schedule cache)",
                    args.next(),
                );
            }
            "--timeout-ms" => {
                timeout_ms = int_value(
                    "--timeout-ms",
                    "a non-negative integer (0 = no per-batch deadline)",
                    args.next(),
                );
            }
            "--cache-file" => {
                let Some(path) = args.next() else {
                    bad_arg("--cache-file expects a file path");
                };
                cache_file = Some(std::path::PathBuf::from(path));
            }
            "--metrics" => metrics = true,
            other => bad_arg(&format!("unknown serve argument '{other}'")),
        }
    }
    let Some((listen, spec)) = listen else {
        bad_arg("serve expects --listen unix:PATH or tcp:HOST:PORT");
    };
    gis_serve::install_signal_handlers();
    let mut config = gis_serve::ServeConfig::new(listen);
    config.jobs = jobs;
    config.cache_cap = cache_cap;
    config.timeout_ms = timeout_ms;
    config.cache_file = cache_file;
    let server = match gis_serve::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gisc serve: cannot listen on {spec}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.tcp_addr() {
        Some(addr) => eprintln!("gisc serve: listening on tcp:{addr}"),
        None => eprintln!("gisc serve: listening on {spec}"),
    }
    // `join` blocks until the accept loop notices a shutdown request
    // (client `shutdown`, SIGTERM or ctrl-c) and the drain completes.
    let registry = server.join();
    if metrics {
        eprint!("{registry}");
    }
    eprintln!("gisc serve: shut down cleanly");
    ExitCode::SUCCESS
}

/// `gisc serve-request`: a thin client for a running daemon. Actions run
/// in a fixed order — ping, raw lines, schedule batches (each `--repeat`
/// round re-sends the same batch, so round two onward measures the
/// cache), stats, shutdown.
fn serve_request_command(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut listen: Option<(gis_serve::Listen, String)> = None;
    let mut machine = String::from("rs6k");
    let mut lang = gis_serve::Lang::TinyC;
    let mut funcs: Vec<gis_serve::FuncSpec> = Vec::new();
    let mut raw_lines: Vec<String> = Vec::new();
    let mut repeat: usize = 1;
    let mut ping = false;
    let mut stats = false;
    let mut shutdown = false;
    let mut print_schedule = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--listen" => listen = Some(listen_value(args.next())),
            "--machine" => {
                machine = args.next().unwrap_or_else(|| {
                    bad_arg("--machine expects a machine name (rs6k, scalar, issue2/4/8, wideN or vliwN)")
                });
            }
            "--tinyc" => lang = gis_serve::Lang::TinyC,
            "--asm" => lang = gis_serve::Lang::Asm,
            "--workload" => {
                let Some(name) = args.next() else {
                    bad_arg("--workload expects a preset name (many-loops-s, -m, -l or -skewed)");
                };
                let text = if name == gis_workloads::synth::MANY_LOOPS_SKEWED_PRESET.0 {
                    let (_, loops, stmts, heavy, seed) =
                        gis_workloads::synth::MANY_LOOPS_SKEWED_PRESET;
                    gis_workloads::synth::many_loops_skewed_source(loops, stmts, heavy, seed)
                } else {
                    let preset = gis_workloads::synth::MANY_LOOPS_PRESETS
                        .iter()
                        .find(|&&(n, ..)| n == name);
                    let Some(&(_, loops, stmts, seed)) = preset else {
                        bad_arg(&format!(
                            "--workload expects a preset name (many-loops-s, -m, -l or \
                             -skewed), got '{name}'"
                        ));
                    };
                    gis_workloads::synth::many_loops_source(loops, stmts, seed)
                };
                funcs.push(gis_serve::FuncSpec {
                    name: Some(name),
                    text,
                });
            }
            "--file" => {
                let Some(path) = args.next() else {
                    bad_arg("--file expects a file path (or '-' for stdin)");
                };
                match read_input(&path) {
                    Ok(text) => funcs.push(gis_serve::FuncSpec {
                        name: Some(path),
                        text,
                    }),
                    Err(e) => {
                        eprintln!("gisc serve-request: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--repeat" => {
                repeat = int_value("--repeat", "a positive integer", args.next());
                if repeat == 0 {
                    bad_arg("--repeat expects a positive integer, got '0'");
                }
            }
            "--raw" => {
                raw_lines.push(
                    args.next()
                        .unwrap_or_else(|| bad_arg("--raw expects a JSON request line")),
                );
            }
            "--ping" => ping = true,
            "--stats" => stats = true,
            "--shutdown" => shutdown = true,
            "--print-schedule" => print_schedule = true,
            other => bad_arg(&format!("unknown serve-request argument '{other}'")),
        }
    }
    let Some((listen, spec)) = listen else {
        bad_arg("serve-request expects --listen unix:PATH or tcp:HOST:PORT");
    };
    let outcome = run_requests(
        &listen,
        &machine,
        lang,
        &funcs,
        &raw_lines,
        repeat,
        ping,
        stats,
        shutdown,
        print_schedule,
    );
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gisc serve-request: {spec}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The serve-request action sequence against a connected client.
/// Returns `Ok(false)` when every request round-tripped but some
/// function failed or timed out.
#[allow(clippy::too_many_arguments)] // a private arg-struct in all but name
fn run_requests(
    listen: &gis_serve::Listen,
    machine: &str,
    lang: gis_serve::Lang,
    funcs: &[gis_serve::FuncSpec],
    raw_lines: &[String],
    repeat: usize,
    ping: bool,
    stats: bool,
    shutdown: bool,
    print_schedule: bool,
) -> std::io::Result<bool> {
    let mut client = gis_serve::Client::connect(listen)?;
    let mut all_ok = true;
    if ping {
        client.ping()?;
        println!("pong");
    }
    for line in raw_lines {
        println!("{}", client.round_trip_raw(line)?);
    }
    for round in 1..=if funcs.is_empty() { 0 } else { repeat } {
        let batch = client.schedule_batch(lang, machine, Vec::new(), funcs)?;
        for f in &batch.funcs {
            match &f.outcome {
                gis_serve::FuncOutcome::Ok {
                    cached,
                    hash,
                    nanos,
                    schedule,
                    ..
                } => {
                    let source = if *cached { "hit" } else { "miss" };
                    println!("{}: {source} {hash:016x} {nanos} ns", f.name);
                    if print_schedule {
                        print!("{schedule}");
                    }
                }
                gis_serve::FuncOutcome::Error { message } => {
                    eprintln!("gisc serve-request: {}: {message}", f.name);
                    all_ok = false;
                }
                gis_serve::FuncOutcome::Timeout => {
                    eprintln!("gisc serve-request: {}: timed out", f.name);
                    all_ok = false;
                }
            }
        }
        let s = &batch.summary;
        eprintln!(
            "batch {round}/{repeat}: {}/{} ok, {} hits, {} misses, {} ns",
            s.ok, s.count, s.cache_hits, s.cache_misses, s.nanos
        );
    }
    if stats {
        for (name, value) in client.stats()? {
            println!("{name} {value}");
        }
    }
    if shutdown {
        client.shutdown_server()?;
        eprintln!("gisc serve-request: server acknowledged shutdown");
    }
    Ok(all_ok)
}

fn drive(opts: &Options) -> Result<(), String> {
    let text = read_input(&opts.file)?;
    let is_tinyc = opts
        .tinyc
        .unwrap_or_else(|| opts.file.ends_with(".c") || opts.file.ends_with(".tc"));

    let (mut function, memory): (Function, Vec<(i64, i64)>) = if is_tinyc {
        let program = gis_tinyc::compile_program(&text).map_err(|e| e.to_string())?;
        (program.function, Vec::new())
    } else {
        (
            parse_function(&text).map_err(|e| e.to_string())?,
            Vec::new(),
        )
    };

    let mut config = SchedConfig::speculative();
    config.level = opts.level;
    config.max_speculation_branches = opts.branches;
    config.jobs = opts.jobs;
    for tweak in &opts.config_tweaks {
        tweak(&mut config);
    }

    let original = function.clone();
    if opts.opt {
        let ostats = gis_opt::optimize(&mut function, &gis_opt::OptConfig::default());
        if opts.stats {
            eprintln!("optimizer: {ostats}");
        }
    }
    // Trace when any trace-consuming flag is on; otherwise compile with
    // the no-op observer (bit-identical schedules either way).
    let tracing = opts.trace
        || opts.metrics
        || opts.explain.is_some()
        || opts.report.is_some()
        || opts.dot_cfg == DotMode::Traced
        || opts.dot_cspdg == DotMode::Traced;
    let mut recorder = Recorder::new();
    let stats = if tracing {
        compile_observed(&mut function, &opts.machine, &config, &mut recorder)
    } else {
        compile_observed(&mut function, &opts.machine, &config, &mut NopObserver)
    }
    .map_err(|e| e.to_string())?;

    if opts.trace {
        eprint!("{}", recorder.report());
    }
    if opts.trace || opts.metrics {
        let mut metrics = Metrics::from_events(recorder.events());
        if opts.metrics {
            for (name, value) in stats.perf_counters() {
                metrics.record(name, value);
            }
            // Traced compiles bypass the region memo (splicing would skip
            // the events a trace consumer needs), so one `gisc` run
            // reports its hit/miss/splice counters as zero.
            for (name, value) in gis_core::region_memo_counters().metrics() {
                metrics.record(name, value);
            }
        }
        eprint!("{metrics}");
    }
    if let Some(path) = &opts.trace_json {
        std::fs::write(path, recorder.to_json_lines())
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let Some(inst) = opts.explain {
        let about: Vec<&TraceEvent> = recorder
            .events()
            .filter(|e| e.inst() == Some(inst))
            .collect();
        if about.is_empty() {
            eprintln!("I{inst}: no scheduling decisions recorded");
        } else {
            eprint!("{}", render_report(about.into_iter()));
        }
    }

    let query = TraceQuery::new(recorder.events());
    match opts.dot_cfg {
        DotMode::Off => {}
        DotMode::Plain => {
            let cfg = Cfg::new(&function);
            print!("{}", cfg_to_dot(&function, &cfg));
        }
        DotMode::Traced => {
            print!("{}", traced_cfg_dot(Some(&original), &function, &query));
        }
    }
    match opts.dot_cspdg {
        DotMode::Off => {}
        DotMode::Plain => print!("{}", traced_cspdg_dot(&function, None)),
        DotMode::Traced => print!("{}", traced_cspdg_dot(&function, Some(&query))),
    }
    if opts.dot_cfg == DotMode::Off && opts.dot_cspdg == DotMode::Off {
        print!("{function}");
    }
    if opts.stats {
        eprintln!("{stats}");
    }

    if let Some(path) = &opts.report {
        write_report(opts, path, &original, &function, &recorder, &stats, &memory)?;
    }

    if opts.run {
        run_and_time(opts, &original, &function, &memory)?;
    }
    Ok(())
}

/// `--run`: execute both versions, check observable equivalence, and
/// report simulated cycles (plus the timeline with `--timeline`).
fn run_and_time(
    opts: &Options,
    original: &Function,
    function: &Function,
    memory: &[(i64, i64)],
) -> Result<(), String> {
    let before = execute(original, memory, &ExecConfig::default())
        .map_err(|e| format!("original program: {e}"))?;
    let after = execute(function, memory, &ExecConfig::default())
        .map_err(|e| format!("scheduled program: {e}"))?;
    if !before.equivalent(&after) {
        return Err("scheduling changed observable behaviour (bug!)".into());
    }
    let base = TimingSim::new(original, &opts.machine).run(&before.block_trace);
    let opt = TimingSim::new(function, &opts.machine).run(&after.block_trace);
    eprintln!("printed: {:?}", after.printed());
    eprintln!(
        "cycles on {}: {} -> {} ({:+.1}%)",
        opts.machine.name(),
        base.cycles,
        opt.cycles,
        100.0 * (opt.cycles as f64 - base.cycles as f64) / base.cycles as f64
    );
    if opts.timeline {
        eprint!("{}", opt.timeline(&opts.machine).render(200));
    }
    Ok(())
}

/// `--report <path>`: write the self-contained HTML schedule report.
/// Execution is best-effort — if the program cannot be run (e.g. it
/// expects pre-initialized memory), the report simply omits the cycle
/// counts and timeline.
fn write_report(
    opts: &Options,
    path: &str,
    original: &Function,
    function: &Function,
    recorder: &Recorder,
    stats: &SchedStats,
    memory: &[(i64, i64)],
) -> Result<(), String> {
    let events: Vec<TraceEvent> = recorder.events().cloned().collect();
    let mut perf: Vec<(&'static str, u64)> = stats.perf_counters().to_vec();
    perf.extend(gis_core::region_memo_counters().metrics());
    let timing = execute(original, memory, &ExecConfig::default())
        .ok()
        .zip(execute(function, memory, &ExecConfig::default()).ok())
        .map(|(before, after)| {
            let base = TimingSim::new(original, &opts.machine).run(&before.block_trace);
            let opt = TimingSim::new(function, &opts.machine).run(&after.block_trace);
            let timeline = opt.timeline(&opts.machine).render(200);
            (base.cycles, opt.cycles, timeline)
        });
    let report = ScheduleReport {
        title: &opts.file,
        machine: opts.machine.name(),
        before: Some(original),
        after: function,
        events: &events,
        timeline: timing.as_ref().map(|(_, _, t)| t.as_str()),
        cycles: timing.as_ref().map(|&(base, opt, _)| (base, opt)),
        perf_counters: &perf,
    };
    std::fs::write(path, schedule_report(&report)).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("gisc: report written to {path}");
    Ok(())
}
