//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and ends its output with one JSON result line;
//! `perfbench compare <base> [<candidate>]` compares saved outputs.

use perfbench::compare::{compare, header, load_runs, load_specs, spreads};
use perfbench::inputs::Workload;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::run::{write_trace, Args};
use std::path::Path;
use std::process::exit;

const USAGE: &str = "usage: perfbench --workload <kernels|large-fn|serve-edit> --seed <n> \
                     --seconds <s> --trace <0|1>\n       \
                     perfbench compare <base-runs> [<candidate-runs>] [--bench-json <path>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Kernels,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        plant_wrong_hash: false,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or(bad("a workload"))?),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn run_main(args: &Args) -> i32 {
    println!("{}", header(args.workload.name(), args.seed, args.trace));
    let (result, ledger) = perfbench::run_workload(args);
    let (out, rec) = match result {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    if let Some(rec) = &rec {
        match write_trace(args, rec, &out) {
            Ok(path) => println!("spans: {} written to {path}", rec.spans.len()),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
    }
    for note in &out.notes {
        println!("{note}");
    }
    print!("{}", out.table(table));
    match out.result_line(table, &ledger) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    }
    i32::from(ledger.failed > 0)
}

fn compare_main(argv: &[String]) -> Result<bool, String> {
    let mut sets = Vec::new();
    let mut bench_json = "BENCHMARK.json".to_owned();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--bench-json" {
            bench_json = it.next().ok_or("--bench-json needs a path")?.clone();
        } else {
            sets.push(load_runs(Path::new(a))?);
        }
    }
    let text = std::fs::read_to_string(&bench_json).map_err(|e| format!("{bench_json}: {e}"))?;
    let specs = load_specs(&text)?;
    let (table, ok) = match sets.as_slice() {
        [one] => spreads(one, &specs),
        [base, cand] => compare(base, cand, &specs),
        _ => return Err("compare takes one or two sets of runs".to_owned()),
    };
    print!("{table}");
    Ok(ok)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        match compare_main(&argv[1..]) {
            Ok(ok) => exit(i32::from(!ok)),
            Err(e) => {
                eprintln!("perfbench: {e}\n{USAGE}");
                exit(2);
            }
        }
    }
    match parse_args(&argv) {
        Ok(args) => exit(run_main(&args)),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            exit(2);
        }
    }
}
