//! The `serve-edit` workload: an in-process daemon behind one unix-socket
//! connection, fed the way a build system resubmits a program after
//! editing a few files. Each op is one `schedule` request for one
//! function, sent only after the previous reply (a closed loop).

use crate::inputs::{edit_loop_bound, inputs, loop_count, EditPlan, Input, SERVE_EDITS_PER_ROUND};
use crate::report::{Ledger, Outcome};
use crate::run::{
    end_to_end, layer_calls, machine, per_layer, pin, timed_setups, Args, FirstPass, PerInput,
    Phase, Quality, ServeTimes, Traced, RUN_DIR,
};
use crate::spans::{NoSpans, Recorder, Spans};
use gis_core::{compile, SchedConfig};
use gis_ir::hash::fnv64_str;
use gis_serve::client::BatchResult;
use gis_serve::{start, Client, FuncOutcome, FuncSpec, Lang, Listen, ServeConfig, Server};
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Daemon {
    server: Server,
    client: Client,
}

impl Daemon {
    /// Starts a `jobs 1` daemon with the default cache cap on a fresh
    /// socket and round-trips a `ping`, so the accept loop's 20 ms poll
    /// is paid before anything is timed.
    fn start(tag: usize) -> Result<Daemon, String> {
        std::fs::create_dir_all(RUN_DIR).map_err(|e| format!("{RUN_DIR}: {e}"))?;
        let sock = PathBuf::from(format!("{RUN_DIR}/serve-{}-{tag}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let listen = Listen::Unix(sock);
        let mut config = ServeConfig::new(listen.clone());
        config.jobs = 1;
        let server = start(config).map_err(|e| format!("daemon start: {e}"))?;
        let mut client = Client::connect(&listen).map_err(|e| format!("connect: {e}"))?;
        client.ping().map_err(|e| format!("ping: {e}"))?;
        Ok(Daemon { server, client })
    }

    fn submit(&mut self, name: &str, text: &str) -> io::Result<BatchResult> {
        let spec = [FuncSpec {
            name: Some(name.to_owned()),
            text: text.to_owned(),
        }];
        self.client
            .schedule_batch(Lang::TinyC, "rs6k", Vec::new(), &spec)
    }

    fn counter(&mut self, name: &str) -> u64 {
        self.client
            .stats()
            .ok()
            .and_then(|s| s.into_iter().find(|(k, _)| k == name).map(|(_, v)| v))
            .unwrap_or(0)
    }

    /// Asks the daemon to drain and waits until every thread has ended.
    fn stop(mut self) {
        let _ = self.client.shutdown_server();
        drop(self.client);
        self.server.join();
    }
}

/// Checks one reply: `Ok`, the predicted `cached` flag, a hash that
/// matches its own text and, when known, the expected hash. Returns the
/// hash and the daemon's own nanoseconds.
pub fn check_reply(
    name: &str,
    reply: io::Result<BatchResult>,
    predict_cached: bool,
    expect: Option<u64>,
) -> Result<(u64, u64), String> {
    let batch = reply.map_err(|e| format!("{name}: request failed: {e}"))?;
    let [result] = batch.funcs.as_slice() else {
        return Err(format!(
            "{name}: {} results for one function",
            batch.funcs.len()
        ));
    };
    let FuncOutcome::Ok {
        cached,
        hash,
        nanos,
        schedule,
        ..
    } = &result.outcome
    else {
        return Err(format!("{name}: {:?}", result.outcome));
    };
    if *cached != predict_cached {
        return Err(format!(
            "{name}: cached={cached}, the edit plan predicts {predict_cached}"
        ));
    }
    if fnv64_str(schedule) != *hash {
        return Err(format!(
            "{name}: hash {hash:016x} does not match its schedule"
        ));
    }
    match expect {
        Some(want) if want != *hash => Err(format!(
            "{name}: schedule hash {hash:016x}, expected {want:016x}"
        )),
        _ => Ok((*hash, *nanos)),
    }
}

struct Bench {
    inputs: Vec<Input>,
    quality: Quality,
    daemon: Daemon,
}

/// An edit the daemon served: `(function, loop, bound)` and the hash it
/// answered with (`None` when the reply already failed its checks).
type ServedEdit = (usize, usize, i64, Option<u64>);

/// The corpus as the daemon last saw it, and the edits still to verify.
struct State {
    texts: Vec<String>,
    expect: Vec<u64>,
    plan: EditPlan,
    /// Every edit in the order served; replayed against a cold local
    /// compile once timing is over. Only the edits are kept, not the
    /// texts, so memory does not grow with the length of the run.
    edits: Vec<ServedEdit>,
}

/// Whole rounds until `budget` has passed and at least `min_ops` ops ran
/// (always one round).
#[allow(clippy::too_many_arguments)]
fn phase<S: Spans>(
    t: &mut S,
    inputs: &[Input],
    daemon: &mut Daemon,
    state: &mut State,
    budget: Duration,
    min_ops: usize,
    ops: &mut u64,
    ledger: &mut Ledger,
    mut after: impl FnMut(&mut S, usize, &str, u64, f64),
) -> Phase {
    Phase::measure(|phase| {
        let started = Instant::now();
        loop {
            let round = state.plan.next_round();
            let mut edited = vec![None; inputs.len()];
            for &(f, lp, bound) in &round.edits {
                state.texts[f] = edit_loop_bound(&state.texts[f], lp, bound);
                edited[f] = Some((lp, bound));
            }
            for &i in &round.order {
                let spec = [FuncSpec {
                    name: Some(inputs[i].name.clone()),
                    text: state.texts[i].clone(),
                }];
                t.begin_op(*ops);
                *ops += 1;
                let t0 = Instant::now();
                let reply = t.span("serve.rtt", |_| {
                    daemon
                        .client
                        .schedule_batch(Lang::TinyC, "rs6k", Vec::new(), &spec)
                });
                let rtt = t0.elapsed().as_secs_f64() * 1e3;
                phase.push(i, rtt, inputs[i].insts());
                phase.probe(1);
                let hit = edited[i].is_none();
                let expect = hit.then_some(state.expect[i]);
                let verdict = check_reply(&inputs[i].name, reply, hit, expect);
                if let Some((lp, bound)) = edited[i] {
                    let hash = verdict.as_ref().ok().map(|&(h, _)| h);
                    state.edits.push((i, lp, bound, hash));
                    state.expect[i] = hash.unwrap_or_default();
                }
                if let Ok((_, nanos)) = verdict {
                    after(t, i, &state.texts[i], nanos, rtt);
                }
                ledger.record(verdict.map(drop));
            }
            if phase.done(started, budget, min_ops) {
                break;
            }
        }
    })
}

/// Most served edits [`verify_edits`] recompiles; a longer run checks an
/// even stride of its edits, so the check's cost does not grow with the
/// run.
pub const VERIFIED_EDITS: usize = 240;

/// Edited functions the daemon served must hash like a cold local compile
/// of the same text (no memo, so nothing the daemon recorded is reused).
/// Runs after timing on up to [`VERIFIED_EDITS`] edits, the first
/// included; a mismatch fails its op.
fn verify_edits(inputs: &[Input], edits: &[ServedEdit], ledger: &mut Ledger) {
    let machine = machine();
    let mut cold = SchedConfig::speculative();
    cold.region_memo = false;
    let stride = edits.len().div_ceil(VERIFIED_EDITS).max(1);
    let mut texts: Vec<String> = inputs
        .iter()
        .map(|i| i.source.clone().unwrap_or_default())
        .collect();
    for (k, &(f, lp, bound, served)) in edits.iter().enumerate() {
        texts[f] = edit_loop_bound(&texts[f], lp, bound);
        let Some(hash) = served.filter(|_| k % stride == 0) else {
            continue;
        };
        let local = gis_tinyc::compile_program(&texts[f])
            .map_err(|e| e.to_string())
            .and_then(|p| {
                let mut f = p.function;
                compile(&mut f, &machine, &cold).map_err(|e| e.to_string())?;
                Ok(fnv64_str(&f.to_string()))
            });
        match local {
            Ok(h) if h == hash => {}
            other => ledger.fail(&format!(
                "{}: edit served as {hash:016x}, a cold local compile gives {other:x?}",
                inputs[f].name
            )),
        }
    }
}

fn setup(args: &Args, tag: usize, ledger: &mut Ledger) -> Result<Bench, String> {
    let inputs = inputs(args.workload, args.seed, args.smoke);
    let mut quality = pin(&inputs, &SchedConfig::speculative(), ledger);
    if args.plant_wrong_hash {
        quality.hashes[0] ^= 1;
    }
    let mut daemon = Daemon::start(tag)?;
    // Submit the corpus once, cold: every function misses.
    for (input, &hash) in inputs.iter().zip(&quality.hashes) {
        let source = input.source.as_deref().unwrap_or_default();
        let reply = daemon.submit(&input.name, source);
        ledger.record(check_reply(&input.name, reply, false, Some(hash)).map(drop));
    }
    Ok(Bench {
        inputs,
        quality,
        daemon,
    })
}

/// Runs `serve-edit`; returns the metrics and, for a traced run, the
/// spans.
pub fn run(args: &Args, ledger: &mut Ledger) -> Result<(Outcome, Option<Recorder>), String> {
    let (bench, setup_s) = timed_setups(args, |k| setup(args, k, ledger), |b| b.daemon.stop())?;
    let Bench {
        inputs,
        quality,
        mut daemon,
    } = bench;
    let mut state = State {
        texts: inputs
            .iter()
            .map(|i| i.source.clone().unwrap_or_default())
            .collect(),
        expect: quality.hashes.clone(),
        plan: EditPlan::new(
            args.seed,
            inputs
                .iter()
                .map(|i| loop_count(i.source.as_deref().unwrap_or_default()))
                .collect(),
            if args.smoke { 1 } else { SERVE_EDITS_PER_ROUND },
        ),
        edits: Vec::new(),
    };
    let mut ops = 0;
    let nothing = |_: &mut NoSpans, _: usize, _: &str, _: u64, _: f64| {};
    // Warm-up: one discarded round.
    phase(
        &mut NoSpans,
        &inputs,
        &mut daemon,
        &mut state,
        Duration::ZERO,
        0,
        &mut ops,
        ledger,
        nothing,
    );
    let mut out = Outcome::default();
    let result = if !args.trace {
        let timed = phase(
            &mut NoSpans,
            &inputs,
            &mut daemon,
            &mut state,
            args.budget(),
            args.min_ops(),
            &mut ops,
            ledger,
            nothing,
        );
        end_to_end(args, setup_s, &inputs, &timed, &quality, ledger, &mut out).map(|()| None)
    } else {
        Ok(Some(traced(
            args,
            &inputs,
            &quality,
            &mut daemon,
            &mut state,
            &mut ops,
            ledger,
            &mut out,
        )))
    };
    daemon.stop();
    verify_edits(&inputs, &state.edits, ledger);
    result.map(|rec| (out, rec))
}

#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    inputs: &[Input],
    quality: &Quality,
    daemon: &mut Daemon,
    state: &mut State,
    ops: &mut u64,
    ledger: &mut Ledger,
    out: &mut Outcome,
) -> Recorder {
    let machine = machine();
    let config = SchedConfig::speculative();
    // The layer calls compile locally with the memo off, so they neither
    // read nor feed the region memo the daemon shares with this process.
    let mut local = config.clone();
    local.region_memo = false;
    let mut rec = Recorder::default();
    let mut per_input = vec![PerInput::default(); inputs.len()];
    let mut serve = ServeTimes::default();
    let mut after = |rec: &mut Recorder, i: usize, text: &str, nanos: u64, rtt: f64| {
        serve.rtt_ms.push(rtt);
        serve.server_ms.push(nanos as f64 / 1e6);
        let Ok(program) = rec.span("frontend", |_| gis_tinyc::compile_program(text)) else {
            return;
        };
        let ir = program.function;
        let mut scheduled = ir.clone();
        let Ok(stats) = rec.span("core.compile", |_| {
            compile(&mut scheduled, &machine, &local)
        }) else {
            return;
        };
        per_input[i].pass_ns.push(stats.pass_nanos);
        layer_calls(
            rec,
            &ir,
            &scheduled,
            &inputs[i].memory,
            text,
            false,
            &config,
            &mut per_input[i],
        );
    };

    // Cache and memo counters over the first traced round, which starts
    // from the same state for a seed, so they repeat exactly.
    let names = [
        "cache.hits",
        "cache.misses",
        "cache.region.hit",
        "cache.region.miss",
        "cache.region.splice",
    ];
    let before: Vec<u64> = names.iter().map(|n| daemon.counter(n)).collect();
    let mut traced = phase(
        &mut rec,
        inputs,
        daemon,
        state,
        Duration::ZERO,
        0,
        ops,
        ledger,
        &mut after,
    );
    let delta: Vec<u64> = names
        .iter()
        .zip(&before)
        .map(|(n, b)| daemon.counter(n) - b)
        .collect();
    let first = FirstPass {
        cache_hits: delta[0],
        cache_misses: delta[1],
        memo_hits: delta[2],
        memo_misses: delta[3],
        memo_splices: delta[4],
        cache_evictions: daemon.counter("cache.evictions"),
    };
    let rest = args
        .budget()
        .saturating_sub(Duration::from_secs_f64(traced.wall_s));
    let later = phase(
        &mut rec, inputs, daemon, state, rest, 0, ops, ledger, &mut after,
    );
    traced.extend(later);
    let untraced = phase(
        &mut NoSpans,
        inputs,
        daemon,
        state,
        args.budget(),
        0,
        ops,
        ledger,
        |_: &mut NoSpans, _: usize, _: &str, _: u64, _: f64| {},
    );
    per_layer(
        &Traced {
            rec: &rec,
            inputs,
            per_input: &per_input,
            quality,
            first,
            traced: &traced,
            untraced: &untraced,
            serve,
        },
        out,
    );
    rec
}
