//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§6) plus the ablations listed in DESIGN.md.
//!
//! The `repro` binary drives the functions here; integration tests call
//! them directly to pin the result *shapes* (who wins, by roughly how
//! much) without depending on exact cycle counts.

pub mod matrix;

use gis_core::{compile, region_memo_clear, SchedConfig, SchedStats};
use gis_machine::MachineDescription;
use gis_sim::{execute, ExecConfig, ExecOutcome, TimingSim};
use gis_workloads::spec::Workload;
use std::fmt;
use std::time::{Duration, Instant};

/// Where a bench's output path argument points. Cargo runs benches from
/// the package directory (`crates/bench`), so a relative path is taken
/// from the workspace root, where `cargo bench` is typed; an absolute
/// path is used as given.
pub fn bench_path(arg: &str) -> std::path::PathBuf {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("the package sits two levels below the workspace root");
    root.join(arg)
}

/// One benchmark measured under one configuration.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Simulated cycles for the whole run.
    pub cycles: u64,
    /// Dynamic instructions.
    pub instructions: u64,
    /// Wall-clock compile time in seconds.
    pub compile_seconds: f64,
    /// Scheduler statistics.
    pub stats: SchedStats,
    /// Execution outcome (for equivalence checks).
    pub outcome: ExecOutcome,
}

/// Compiles and simulates `w` under `config` on `machine`.
///
/// # Panics
///
/// Panics if the workload fails to compile or execute — the harness treats
/// that as a broken build, not a reportable result.
pub fn measure(w: &Workload, machine: &MachineDescription, config: &SchedConfig) -> Measurement {
    let mut f = w.program.function.clone();
    let t0 = Instant::now();
    let stats = compile(&mut f, machine, config)
        .unwrap_or_else(|e| panic!("{}: scheduling failed: {e}", w.name));
    let compile_seconds = t0.elapsed().as_secs_f64();
    let outcome = execute(&f, &w.memory, &ExecConfig::default())
        .unwrap_or_else(|e| panic!("{}: execution failed: {e}", w.name));
    let report = TimingSim::new(&f, machine).run(&outcome.block_trace);
    Measurement {
        cycles: report.cycles,
        instructions: report.instructions,
        compile_seconds,
        stats,
        outcome,
    }
}

/// One row of the Figure 8 table: run-time improvement of useful and
/// useful+speculative global scheduling over the base compiler.
#[derive(Debug, Clone)]
pub struct Figure8Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Base compiler cycles (the BASE column, in simulated cycles rather
    /// than seconds).
    pub base_cycles: u64,
    /// Cycles with useful-only global scheduling.
    pub useful_cycles: u64,
    /// Cycles with useful + 1-branch speculative scheduling.
    pub speculative_cycles: u64,
}

impl Figure8Row {
    /// Run-time improvement of useful scheduling, in percent.
    pub fn rti_useful(&self) -> f64 {
        100.0 * (self.base_cycles as f64 - self.useful_cycles as f64) / self.base_cycles as f64
    }

    /// Run-time improvement of speculative scheduling, in percent.
    pub fn rti_speculative(&self) -> f64 {
        100.0 * (self.base_cycles as f64 - self.speculative_cycles as f64) / self.base_cycles as f64
    }
}

/// Runs one benchmark under the three §6 configurations, checking that
/// every configuration is observationally equivalent to the base run.
///
/// # Panics
///
/// Panics if a configuration changes the program's observable behaviour
/// (that would be a scheduler bug, not a data point).
pub fn figure8_row(w: &Workload, machine: &MachineDescription) -> Figure8Row {
    let base = measure(w, machine, &SchedConfig::base());
    let useful = measure(w, machine, &SchedConfig::useful());
    let spec = measure(w, machine, &SchedConfig::speculative());
    assert!(
        base.outcome.equivalent(&useful.outcome),
        "{}: useful scheduling changed behaviour",
        w.name
    );
    assert!(
        base.outcome.equivalent(&spec.outcome),
        "{}: speculative scheduling changed behaviour",
        w.name
    );
    Figure8Row {
        name: w.name,
        base_cycles: base.cycles,
        useful_cycles: useful.cycles,
        speculative_cycles: spec.cycles,
    }
}

/// The Figure 8 table for a set of workloads.
pub fn figure8(workloads: &[Workload], machine: &MachineDescription) -> Vec<Figure8Row> {
    workloads.iter().map(|w| figure8_row(w, machine)).collect()
}

impl fmt::Display for Figure8Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} {:>12} {:>9.1}% {:>12.1}%",
            self.name,
            self.base_cycles,
            self.rti_useful(),
            self.rti_speculative()
        )
    }
}

/// One row of the Figure 7 table: compile-time overhead of global
/// scheduling relative to the base compiler.
#[derive(Debug, Clone)]
pub struct Figure7Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Base compile time in seconds (scheduling pipeline only — the
    /// simulated analogue of the paper's whole-compiler seconds).
    pub base_seconds: f64,
    /// Compile-time overhead of full global scheduling, in percent.
    pub cto_percent: f64,
    /// Wall time of each pipeline pass under the full configuration, in
    /// nanoseconds, indexed by [`gis_trace::Pass`] order.
    pub pass_nanos: [u64; 6],
}

impl fmt::Display for Figure7Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} {:>8.3} ms {:>7.0}%",
            self.name,
            self.base_seconds * 1e3,
            self.cto_percent
        )
    }
}

/// Measures Figure 7 (compile-time overhead). `repeats` compilations are
/// timed per configuration to stabilize sub-millisecond measurements.
/// Every one is cold: the process-wide region memo is cleared before
/// each (outside the timed span), or every repeat after the first would
/// splice its regions from the memo instead of scheduling them.
pub fn figure7(
    workloads: &[Workload],
    machine: &MachineDescription,
    repeats: u32,
) -> Vec<Figure7Row> {
    workloads
        .iter()
        .map(|w| {
            let time = |config: &SchedConfig| -> (f64, SchedStats) {
                let mut elapsed = Duration::ZERO;
                let mut stats = SchedStats::default();
                for _ in 0..repeats {
                    region_memo_clear();
                    let t0 = Instant::now();
                    // Whole-compiler time, as in the paper's Figure 7: the
                    // frontend runs too, not just the scheduling pipeline.
                    let mut f = if w.source.is_empty() {
                        w.program.function.clone()
                    } else {
                        gis_tinyc::compile_program(&w.source)
                            .expect("workload compiles")
                            .function
                    };
                    stats.absorb(compile(&mut f, machine, config).expect("compiles"));
                    elapsed += t0.elapsed();
                }
                (elapsed.as_secs_f64() / f64::from(repeats), stats)
            };
            let (base, _) = time(&SchedConfig::base());
            let (full, stats) = time(&SchedConfig::speculative());
            let mut pass_nanos = stats.pass_nanos;
            for n in &mut pass_nanos {
                *n /= u64::from(repeats.max(1));
            }
            Figure7Row {
                name: w.name,
                base_seconds: base,
                cto_percent: 100.0 * (full - base) / base,
                pass_nanos,
            }
        })
        .collect()
}

/// One point of the machine-width sweep (the paper's "we may expect even
/// bigger payoffs in machines with a larger number of computational
/// units").
#[derive(Debug, Clone)]
pub struct WidthPoint {
    /// Fixed point unit count (floating point matches).
    pub width: u32,
    /// Mean speculative-scheduling improvement over base, in percent,
    /// across the workloads.
    pub mean_rti: f64,
}

/// Sweeps machine width 1..=max_width.
pub fn width_sweep(workloads: &[Workload], max_width: u32) -> Vec<WidthPoint> {
    (1..=max_width)
        .map(|w| {
            let machine = MachineDescription::superscalar(format!("w{w}"), w, w, 1);
            let rows = figure8(workloads, &machine);
            let mean =
                rows.iter().map(Figure8Row::rti_speculative).sum::<f64>() / rows.len() as f64;
            WidthPoint {
                width: w,
                mean_rti: mean,
            }
        })
        .collect()
}

/// Effect of the machine-independent optimizer (`gis-opt`) composed with
/// full scheduling: `(workload, scheduled cycles, optimized+scheduled
/// cycles)`.
pub fn optimizer_effect(
    workloads: &[Workload],
    machine: &MachineDescription,
) -> Vec<(&'static str, u64, u64)> {
    workloads
        .iter()
        .map(|w| {
            let plain = measure(w, machine, &SchedConfig::speculative());
            let mut f = w.program.function.clone();
            gis_opt::optimize(&mut f, &gis_opt::OptConfig::default());
            let opt_w = Workload {
                name: w.name,
                program: gis_tinyc::CompiledProgram {
                    function: f,
                    arrays: w.program.arrays.clone(),
                },
                memory: w.memory.clone(),
                source: String::new(),
            };
            let opt = measure(&opt_w, machine, &SchedConfig::speculative());
            assert!(
                plain.outcome.equivalent(&opt.outcome),
                "{}: optimizer changed behaviour",
                w.name
            );
            (w.name, plain.cycles, opt.cycles)
        })
        .collect()
}

/// An ablation configuration: a label plus a config mutation.
pub fn ablation_configs() -> Vec<(&'static str, SchedConfig)> {
    let full = SchedConfig::speculative();
    let mut no_rename = full.clone();
    no_rename.rename = false;
    let mut no_unroll = full.clone();
    no_unroll.unroll = false;
    let mut no_rotate = full.clone();
    no_rotate.rotate = false;
    let mut no_spec_rename = full.clone();
    no_spec_rename.speculative_renaming = false;
    let mut no_spec_loads = full.clone();
    no_spec_loads.speculative_loads = false;
    let mut no_final_bb = full.clone();
    no_final_bb.final_bb_pass = false;
    vec![
        ("full", full),
        ("useful-only", SchedConfig::useful()),
        ("no-rename", no_rename),
        ("no-unroll", no_unroll),
        ("no-rotate", no_rotate),
        ("no-spec-rename", no_spec_rename),
        ("no-spec-loads", no_spec_loads),
        ("no-final-bb", no_final_bb),
    ]
}

/// Cycles for every ablation configuration on every workload:
/// `(config label, workload name, cycles)`.
pub fn ablation_table(
    workloads: &[Workload],
    machine: &MachineDescription,
) -> Vec<(&'static str, &'static str, u64)> {
    let mut out = Vec::new();
    let base: Vec<Measurement> = workloads
        .iter()
        .map(|w| measure(w, machine, &SchedConfig::base()))
        .collect();
    for (label, config) in ablation_configs() {
        for (w, b) in workloads.iter().zip(&base) {
            let m = measure(w, machine, &config);
            assert!(
                b.outcome.equivalent(&m.outcome),
                "{label}/{}: behaviour changed",
                w.name
            );
            out.push((label, w.name, m.cycles));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_workloads::spec;

    #[test]
    fn figure8_shape_matches_the_paper() {
        // Small inputs keep the test fast; the shape is input-size
        // independent because it is a per-iteration property.
        let machine = MachineDescription::rs6k();
        let rows = figure8(&spec::all(256), &machine);
        let get = |name: &str| rows.iter().find(|r| r.name == name).expect("row");

        let li = get("LI");
        let eqntott = get("EQNTOTT");
        let espresso = get("ESPRESSO");
        let gcc = get("GCC");

        // LI: speculation is where the win comes from.
        assert!(
            li.rti_speculative() > li.rti_useful() + 1.0,
            "LI speculative ({:.1}%) should clearly beat useful ({:.1}%)",
            li.rti_speculative(),
            li.rti_useful()
        );
        assert!(li.rti_speculative() > 2.0, "LI gains from speculation");

        // EQNTOTT: useful scheduling captures most of the win.
        assert!(
            eqntott.rti_useful() > 2.0,
            "EQNTOTT gains usefully: {:.1}%",
            eqntott.rti_useful()
        );
        assert!(
            eqntott.rti_speculative() >= eqntott.rti_useful() - 1.0,
            "speculation does not lose what useful won"
        );

        // ESPRESSO: one dense block per iteration — nothing to move.
        assert!(
            espresso.rti_speculative().abs() < 2.0,
            "ESPRESSO should be near zero, got {:.1}%",
            espresso.rti_speculative()
        );

        // GCC: the laggard — no speculation win at all, and clearly the
        // smallest gain of the branchy benchmarks. (Magnitudes here are
        // larger than the paper's whole-program percentages because our
        // stand-ins are undiluted hot loops; see EXPERIMENTS.md.)
        assert!(
            gcc.rti_speculative() <= gcc.rti_useful() + 0.5,
            "GCC gains nothing from speculation"
        );
        assert!(
            gcc.rti_speculative() < li.rti_speculative() / 2.0,
            "GCC ({:.1}%) lags LI ({:.1}%)",
            gcc.rti_speculative(),
            li.rti_speculative()
        );
    }

    #[test]
    fn figure7_overhead_is_positive_and_bounded() {
        let machine = MachineDescription::rs6k();
        let rows = figure7(&spec::all(64), &machine, 3);
        for r in rows {
            assert!(r.base_seconds > 0.0);
            assert!(
                r.cto_percent > 0.0,
                "{}: global scheduling costs time",
                r.name
            );
        }
    }
}
