//! The cold-compile workloads, `kernels` and `large-fn`: each op is one
//! function through the front end (when it has source), the whole
//! scheduling pipeline and the printer — one `gisc` invocation's work —
//! with the region memo cleared first, so no op reuses another's regions.

use crate::inputs::{inputs, pass_order, Input};
use crate::report::{Ledger, Outcome};
use crate::run::{
    end_to_end, layer_calls, machine, per_layer, pin, timed_setups, Args, FirstPass, PerInput,
    Phase, Quality, ServeTimes, Traced,
};
use crate::spans::{NoSpans, Recorder, Spans};
use gis_core::{compile, region_memo_clear, region_memo_counters, SchedConfig, SchedStats};
use gis_ir::hash::fnv64_str;
use gis_ir::Function;
use gis_machine::MachineDescription;
use gis_workloads::rng::XorShift64Star;
use std::time::{Duration, Instant};

struct Bench {
    inputs: Vec<Input>,
    quality: Quality,
}

/// One op: front end, pipeline, printer.
fn op<S: Spans>(
    t: &mut S,
    input: &Input,
    machine: &MachineDescription,
    config: &SchedConfig,
) -> Result<(Function, SchedStats, String), String> {
    t.span("op", |t| {
        let mut f = match &input.source {
            Some(src) => {
                t.span("frontend", |_| gis_tinyc::compile_program(src))
                    .map_err(|e| format!("{}: front end: {e}", input.name))?
                    .function
            }
            None => input.ir.clone(),
        };
        let stats = t
            .span("core.compile", |_| compile(&mut f, machine, config))
            .map_err(|e| format!("{}: compile: {e}", input.name))?;
        let text = t.span("ir.print", |_| f.to_string());
        Ok((f, stats, text))
    })
}

/// Whole passes over the inputs, each in a fresh seeded order, until
/// `budget` has passed and at least `min_ops` ops ran (always one pass).
#[allow(clippy::too_many_arguments)]
fn phase<S: Spans>(
    t: &mut S,
    bench: &Bench,
    config: &SchedConfig,
    rng: &mut XorShift64Star,
    budget: Duration,
    min_ops: usize,
    ops: &mut u64,
    ledger: &mut Ledger,
    mut after: impl FnMut(&mut S, usize, &Function, &SchedStats),
) -> Phase {
    let machine = machine();
    Phase::measure(|phase| {
        let started = Instant::now();
        loop {
            for i in pass_order(rng, &bench.inputs) {
                let input = &bench.inputs[i];
                region_memo_clear();
                t.begin_op(*ops);
                *ops += 1;
                let t0 = Instant::now();
                let result = op(t, input, &machine, config);
                phase.push(i, t0.elapsed().as_secs_f64() * 1e3, input.insts());
                phase.probe(config.jobs);
                ledger.record(result.and_then(|(f, stats, text)| {
                    after(t, i, &f, &stats);
                    let (got, want) = (fnv64_str(&text), bench.quality.hashes[i]);
                    if got == want {
                        Ok(())
                    } else {
                        Err(format!(
                            "{}: schedule hash {got:016x}, pinned {want:016x}",
                            input.name
                        ))
                    }
                }));
            }
            if phase.done(started, budget, min_ops) {
                break;
            }
        }
    })
}

/// Runs `kernels` or `large-fn`; returns the metrics and, for a traced
/// run, the spans.
pub fn run(args: &Args, ledger: &mut Ledger) -> Result<(Outcome, Option<Recorder>), String> {
    let config = args.config();
    let (bench, setup_s) = timed_setups(
        args,
        |_| {
            let inputs = inputs(args.workload, args.seed, args.smoke);
            let mut quality = pin(&inputs, &config, ledger);
            if args.plant_wrong_hash {
                quality.hashes[0] ^= 1;
            }
            Ok(Bench { inputs, quality })
        },
        drop,
    )?;
    let mut rng = XorShift64Star::stream(args.seed, 5);
    let mut ops = 0;
    let nothing = |_: &mut NoSpans, _: usize, _: &Function, _: &SchedStats| {};
    // Warm-up: one discarded pass.
    phase(
        &mut NoSpans,
        &bench,
        &config,
        &mut rng,
        Duration::ZERO,
        0,
        &mut ops,
        ledger,
        nothing,
    );
    let mut out = Outcome::default();
    if !args.trace {
        let timed = phase(
            &mut NoSpans,
            &bench,
            &config,
            &mut rng,
            args.budget(),
            args.min_ops(),
            &mut ops,
            ledger,
            nothing,
        );
        end_to_end(
            args,
            setup_s,
            &bench.inputs,
            &timed,
            &bench.quality,
            ledger,
            &mut out,
        )?;
        return Ok((out, None));
    }

    let mut rec = Recorder::default();
    let mut per_input = vec![PerInput::default(); bench.inputs.len()];
    let mut first = FirstPass::default();
    let mut after = |rec: &mut Recorder, i: usize, f: &Function, stats: &SchedStats| {
        let input = &bench.inputs[i];
        per_input[i].pass_ns.push(stats.pass_nanos);
        let (text, asm) = match &input.source {
            Some(src) => (src.clone(), false),
            None => (input.ir.to_string(), true),
        };
        layer_calls(
            rec,
            &input.ir,
            f,
            &input.memory,
            &text,
            asm,
            &config,
            &mut per_input[i],
        );
    };
    // The first traced pass also reads the memo counters, which the
    // clear before each op resets: one seeded pass, so they repeat
    // exactly for a seed.
    let mut traced = phase(
        &mut rec,
        &bench,
        &config,
        &mut rng,
        Duration::ZERO,
        0,
        &mut ops,
        ledger,
        |rec: &mut Recorder, i: usize, f: &Function, stats: &SchedStats| {
            let c = region_memo_counters();
            first.memo_hits += c.hits;
            first.memo_misses += c.misses;
            first.memo_splices += c.splices;
            after(rec, i, f, stats);
        },
    );
    let rest = args
        .budget()
        .saturating_sub(Duration::from_secs_f64(traced.wall_s));
    let later = phase(
        &mut rec, &bench, &config, &mut rng, rest, 0, &mut ops, ledger, &mut after,
    );
    traced.extend(later);
    let untraced = phase(
        &mut NoSpans,
        &bench,
        &config,
        &mut rng,
        args.budget(),
        0,
        &mut ops,
        ledger,
        nothing,
    );
    per_layer(
        &Traced {
            rec: &rec,
            inputs: &bench.inputs,
            per_input: &per_input,
            quality: &bench.quality,
            first,
            traced: &traced,
            untraced: &untraced,
            serve: ServeTimes::default(),
        },
        &mut out,
    );
    Ok((out, Some(rec)))
}
