//! What every workload shares: the run arguments, set-up pinning, the
//! post-op layer calls of the traced run, and turning measurements into
//! metrics.

use crate::inputs::{Input, Workload};
use crate::report::{Ledger, Outcome, PASSES};
use crate::spans::{Recorder, Spans};
use crate::stats;
use gis_cfg::{Cfg, DomTree, LoopForest, RegionTree};
use gis_core::{compile, region_memo_clear, SchedConfig, SchedStats};
use gis_ir::hash::{fnv64, fnv64_str};
use gis_ir::{to_canonical_bytes, Function};
use gis_machine::MachineDescription;
use gis_pdg::webs::rename_webs;
use gis_pdg::{DataDeps, Liveness};
use gis_serve::protocol::schedule_line;
use gis_serve::{parse_request, parse_response, FuncOutcome};
use gis_sim::{execute, ExecConfig, TimingSim};
use gis_trace::Json;
use std::time::{Duration, Instant};

/// Where runs put daemon sockets and span files, relative to the
/// working directory (a relative socket path stays under the 108-byte
/// `sun_path` limit however deep the checkout is).
pub const RUN_DIR: &str = ".perfbench";

/// Least time between two host-speed probes in a timed phase.
const PROBE_EVERY: Duration = Duration::from_millis(250);

/// What the host-speed probe takes, in ms, on the host the benchmark's
/// timings are reported for. A run scales its timings by this over its
/// median probe time, so they read as if measured on that host.
pub const PROBE_NOMINAL_MS: f64 = 1.0;

/// Keys the host-speed probe inserts.
const PROBE_KEYS: u64 = 6000;

/// The host-speed probe: a fixed job of the benchmark's own code (map
/// inserts, a copy and a sort: the pointer chasing and allocation a
/// compiler does), run on `threads` threads at once. Returns the slowest
/// thread's time in ms. The scheduler never runs this code, so its time
/// moves only with the host.
pub fn probe_ms(threads: usize) -> f64 {
    let timed = || {
        let t0 = Instant::now();
        let mut map = std::collections::BTreeMap::new();
        let mut x = 0x5eed_u64;
        for _ in 0..PROBE_KEYS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            map.insert(x >> 20, x);
        }
        let mut v: Vec<u64> = map.values().copied().collect();
        v.sort_unstable_by_key(|&k| k.rotate_left(17));
        std::hint::black_box(v);
        t0.elapsed().as_secs_f64() * 1e3
    };
    if threads <= 1 {
        return timed();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(timed)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a probe thread does not panic"))
            .fold(0.0, f64::max)
    })
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Shrunken inputs, one set-up, no minimum op count: for self-tests.
    pub smoke: bool,
    /// Corrupts the first pinned hash, to prove wrong output is counted.
    pub plant_wrong_hash: bool,
}

impl Args {
    /// Set-ups to time; `setup_s` is their median.
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            self.workload.setups()
        }
    }

    /// Fewest ops in the end-to-end timed phase.
    pub fn min_ops(&self) -> usize {
        if self.smoke {
            0
        } else {
            self.workload.min_ops()
        }
    }

    /// The timed phase's budget; a traced run splits it between its
    /// traced and untraced halves.
    pub fn budget(&self) -> Duration {
        let secs = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(secs)
    }

    /// The scheduler configuration of the workload's ops.
    pub fn config(&self) -> SchedConfig {
        let mut c = SchedConfig::speculative();
        c.jobs = self.workload.jobs();
        c
    }
}

/// The rs6k machine every workload targets.
pub fn machine() -> MachineDescription {
    MachineDescription::rs6k()
}

/// Process CPU time (user + system, every thread), in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15, in 100 Hz clock ticks.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Ops of one timed phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Per-op latency, milliseconds, in op order.
    pub latencies_ms: Vec<f64>,
    /// Per-op index of the input the op compiled, in op order.
    pub inputs: Vec<usize>,
    /// Input IR instructions the ops completed.
    pub insts: u64,
    /// Wall time of the phase, seconds.
    pub wall_s: f64,
    /// Process CPU time over the phase, seconds.
    pub cpu_s: f64,
    /// Host-speed probe times taken between ops, ms.
    pub probes_ms: Vec<f64>,
    /// When the last probe ran.
    last_probe: Option<Instant>,
}

impl Phase {
    /// Times `body` as one phase: wall and CPU around it.
    pub fn measure(body: impl FnOnce(&mut Phase)) -> Phase {
        let mut phase = Phase::default();
        let cpu0 = cpu_seconds();
        let start = Instant::now();
        body(&mut phase);
        phase.wall_s = start.elapsed().as_secs_f64();
        phase.cpu_s = cpu_seconds() - cpu0;
        phase
    }

    /// Whether a closed loop that has run `started` ago may stop after
    /// the current pass.
    pub fn done(&self, started: Instant, budget: Duration, min_ops: usize) -> bool {
        self.latencies_ms.len() >= min_ops && started.elapsed() >= budget
    }

    /// Records one op on input `input`.
    pub fn push(&mut self, input: usize, latency_ms: f64, insts: usize) {
        self.latencies_ms.push(latency_ms);
        self.inputs.push(input);
        self.insts += insts as u64;
    }

    /// Runs the host-speed probe on `threads` threads between two ops
    /// (outside either op's latency) once [`PROBE_EVERY`] has passed since
    /// the last probe.
    pub fn probe(&mut self, threads: usize) {
        if self.last_probe.is_some_and(|t| t.elapsed() < PROBE_EVERY) {
            return;
        }
        self.probes_ms.push(probe_ms(threads));
        self.last_probe = Some(Instant::now());
    }

    /// The nominal probe time over this phase's median probe time: above
    /// 1 on a host faster than the nominal one, below 1 on a slower one.
    pub fn host_speed(&self) -> f64 {
        if self.probes_ms.is_empty() {
            1.0
        } else {
            PROBE_NOMINAL_MS / stats::median(&self.probes_ms)
        }
    }

    /// The input of the op at percentile `pct` of the latencies: which
    /// function's latency mode the percentile sits in.
    pub fn input_at(&self, pct: u32) -> usize {
        let mut order: Vec<usize> = (0..self.latencies_ms.len()).collect();
        order.sort_by(|&a, &b| self.latencies_ms[a].total_cmp(&self.latencies_ms[b]));
        self.inputs[order[stats::rank(order.len(), pct) - 1]]
    }

    /// Appends a later phase's ops and times.
    pub fn extend(&mut self, later: Phase) {
        self.latencies_ms.extend(later.latencies_ms);
        self.inputs.extend(later.inputs);
        self.probes_ms.extend(later.probes_ms);
        self.insts += later.insts;
        self.wall_s += later.wall_s;
        self.cpu_s += later.cpu_s;
    }

    /// Median op latency, ms.
    pub fn p50(&self) -> f64 {
        stats::percentile(&stats::sorted(&self.latencies_ms), 50)
    }
}

/// What set-up pins about the distinct inputs.
#[derive(Debug, Default, Clone)]
pub struct Quality {
    /// FNV-64 of each input's printed schedule under the workload config.
    pub hashes: Vec<u64>,
    /// Per input: simulated cycles under the workload config over cycles
    /// under `SchedConfig::base()`.
    pub cycle_ratios: Vec<f64>,
    /// Per input: static instructions after scheduling over before.
    pub size_ratios: Vec<f64>,
    /// Scheduler statistics summed over the inputs.
    pub stats: SchedStats,
    /// Dynamic instructions of the scheduled inputs, summed.
    pub dyn_insts: u64,
}

/// Front end (when the input has source) to unscheduled IR.
pub fn front_end(input: &Input) -> Result<Function, String> {
    match &input.source {
        Some(src) => gis_tinyc::compile_program(src)
            .map(|p| p.function)
            .map_err(|e| format!("{}: front end: {e}", input.name)),
        None => Ok(input.ir.clone()),
    }
}

/// Pins every input: schedules it cold under `config` and under the BASE
/// configuration, runs both against the unscheduled function under the
/// simulator, checks the hand-written reference where there is one, and
/// records hash, cycles and code size. Clears the region memo afterwards,
/// so no timed op sees a region these compiles recorded.
pub fn pin(inputs: &[Input], config: &SchedConfig, ledger: &mut Ledger) -> Quality {
    let machine = machine();
    let mut q = Quality::default();
    for input in inputs {
        region_memo_clear();
        let verdict = pin_one(input, &machine, config, &mut q);
        if verdict.is_err() {
            q.hashes.push(0);
        }
        ledger.record(verdict);
    }
    region_memo_clear();
    q
}

fn pin_one(
    input: &Input,
    machine: &MachineDescription,
    config: &SchedConfig,
    q: &mut Quality,
) -> Result<(), String> {
    let name = &input.name;
    let ir = front_end(input)?;
    let mut scheduled = ir.clone();
    let stats =
        compile(&mut scheduled, machine, config).map_err(|e| format!("{name}: compile: {e}"))?;
    let mut base = ir.clone();
    compile(&mut base, machine, &SchedConfig::base())
        .map_err(|e| format!("{name}: base compile: {e}"))?;
    let exec = ExecConfig::default();
    let run = |f: &Function, what: &str| {
        execute(f, &input.memory, &exec).map_err(|e| format!("{name}: {what} run: {e}"))
    };
    let reference = run(&ir, "unscheduled")?;
    let out = run(&scheduled, "scheduled")?;
    let base_out = run(&base, "base")?;
    for (what, o) in [("scheduled", &out), ("base", &base_out)] {
        if let Some(diff) = reference.explain_difference(o) {
            return Err(format!("{name}: {what} schedule changed behaviour: {diff}"));
        }
    }
    if let Some(a) = &input.minmax {
        let (min, max) = gis_workloads::minmax::reference_minmax(a);
        if out.printed() != vec![min, max] {
            return Err(format!(
                "{name}: printed {:?}, reference says [{min}, {max}]",
                out.printed()
            ));
        }
    }
    let cycles = TimingSim::new(&scheduled, machine)
        .run(&out.block_trace)
        .cycles;
    let base_cycles = TimingSim::new(&base, machine)
        .run(&base_out.block_trace)
        .cycles;
    q.hashes.push(fnv64_str(&scheduled.to_string()));
    q.cycle_ratios
        .push(cycles as f64 / base_cycles.max(1) as f64);
    q.size_ratios
        .push(scheduled.num_insts() as f64 / ir.num_insts().max(1) as f64);
    q.stats.absorb(stats);
    q.dyn_insts += out.steps;
    Ok(())
}

/// Runs `setup` [`Args::setups`] times and returns the last result with
/// the median set-up time in seconds. `teardown` retires every result
/// but the last.
pub fn timed_setups<T>(
    args: &Args,
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for k in 0..args.setups() {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let t0 = Instant::now();
        last = Some(setup(k)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), stats::median(&times)))
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(
    args: &Args,
    setup_s: f64,
    inputs: &[Input],
    phase: &Phase,
    quality: &Quality,
    ledger: &Ledger,
    out: &mut Outcome,
) -> Result<(), String> {
    let sorted = stats::sorted(&phase.latencies_ms);
    let n = sorted.len();
    if n == 0 {
        return Err("the timed phase completed no op".to_owned());
    }
    let tail = args.workload.tail_pct();
    let beyond = stats::beyond(n, tail);
    if !args.smoke && beyond < stats::TAIL_MIN_BEYOND {
        return Err(format!("p{tail} has only {beyond} samples beyond it"));
    }
    // Every timing is scaled to the nominal host (see `probe_ms`): on a
    // shared machine the host's speed moves from minute to minute, and
    // the scale keeps that out of a comparison between two commits.
    let speed = phase.host_speed();
    let p50 = stats::percentile(&sorted, 50);
    let tail_ms = stats::percentile(&sorted, tail);
    out.set("setup_s", setup_s * speed);
    out.set("latency_ms_p50", p50 * speed);
    out.set("latency_ms_tail", tail_ms * speed);
    out.set("insts_per_s", phase.insts as f64 / phase.wall_s / speed);
    out.set("cpu_ms_per_op", phase.cpu_s * 1e3 / n as f64 * speed);
    out.set("peak_rss_mb", peak_rss_mib());
    out.set("sim_cycles_ratio", stats::geomean(&quality.cycle_ratios));
    out.set("code_size_ratio", stats::geomean(&quality.size_ratios));
    out.set("ok_frac", ledger.ok_frac());
    out.notes.push(format!(
        "latency: {n} ops over {:.2} s; p50 rank {} ({}); tail is p{tail}, rank {} ({}), {beyond} samples beyond",
        phase.wall_s,
        stats::rank(n, 50),
        inputs[phase.input_at(50)].name,
        stats::rank(n, tail),
        inputs[phase.input_at(tail)].name,
    ));
    out.notes.push(format!(
        "host: probe median {:.4} ms over {} probes; timings scaled by {speed:.4} to a {PROBE_NOMINAL_MS} ms host; unscaled p50 {p50:.4} ms, tail {tail_ms:.4} ms, setup {setup_s:.4} s",
        PROBE_NOMINAL_MS / speed,
        phase.probes_ms.len(),
    ));
    out.notes.push(format!(
        "setup_s: median of {} set-ups; quality ratios: geometric mean over {} inputs",
        args.setups(),
        quality.cycle_ratios.len()
    ));
    Ok(())
}

/// Per-input samples the traced run collects after each op.
#[derive(Debug, Default, Clone)]
pub struct PerInput {
    /// `SchedStats::pass_nanos` of each compile of the input.
    pub pass_ns: Vec<[u64; 6]>,
    /// Duration of each `cfg.analyze` span on the input, ms.
    pub cfg_ms: Vec<f64>,
    /// Dependence edges over the input's regions (deterministic).
    pub dep_edges: Option<usize>,
}

/// The `schedule` request line a client would send for `text`.
pub fn request_line(text: &str, asm: bool) -> String {
    let lang = if asm { "asm" } else { "tinyc" };
    Json::Obj(vec![
        ("req".to_owned(), Json::Str("schedule".to_owned())),
        ("id".to_owned(), Json::Int(1)),
        ("lang".to_owned(), Json::Str(lang.to_owned())),
        ("machine".to_owned(), Json::Str("rs6k".to_owned())),
        ("config".to_owned(), Json::Obj(Vec::new())),
        (
            "funcs".to_owned(),
            Json::Arr(vec![Json::Obj(vec![(
                "text".to_owned(),
                Json::Str(text.to_owned()),
            )])]),
        ),
    ])
    .to_string()
}

/// The analysis and simulation entry points, called on one op's input
/// after the op (outside its latency), each in its own span: `ir` is the
/// unscheduled function, `scheduled` the op's result, `text` what a
/// client would send for it.
#[allow(clippy::too_many_arguments)]
pub fn layer_calls(
    rec: &mut Recorder,
    ir: &Function,
    scheduled: &Function,
    memory: &[(i64, i64)],
    text: &str,
    asm: bool,
    config: &SchedConfig,
    sample: &mut PerInput,
) {
    let machine = machine();
    let _ = rec.span("ir.verify", |_| ir.verify());
    let _ = rec.span("ir.canon_hash", |_| fnv64(&to_canonical_bytes(ir)));
    let (cfg, tree) = rec.span("cfg.analyze", |_| {
        let cfg = Cfg::new(ir);
        let dom = DomTree::dominators(&cfg);
        let loops = LoopForest::new(&cfg, &dom);
        let tree = RegionTree::new(&cfg, &loops);
        (cfg, tree)
    });
    sample.cfg_ms.push(rec.spans.last().map_or(0.0, |s| s.ms()));
    let mut renamed = ir.clone();
    let _ = rec.span("pdg.rename", |_| rename_webs(&mut renamed, &cfg));
    let _ = rec.span("pdg.liveness", |_| Liveness::compute(ir, &cfg));
    // Every region within the §6 gates, one graph per region, as the
    // scheduler hands them to `DataDeps::build` (and as
    // benches/hotpaths.rs calls it).
    let scopes: Vec<_> = tree
        .regions()
        .map(|(_, r)| r.blocks.clone())
        .filter(|blocks| {
            let insts: usize = blocks.iter().map(|&b| ir.block(b).len()).sum();
            !blocks.is_empty()
                && blocks.len() <= config.max_region_blocks
                && insts <= config.max_region_insts
        })
        .collect();
    let edges = rec.span("pdg.dep_build", |_| {
        scopes
            .iter()
            .map(|s| DataDeps::build(ir, &machine, s, |x, y| x < y).num_edges())
            .sum::<usize>()
    });
    sample.dep_edges.get_or_insert(edges);
    let run = rec.span("sim.exec", |_| {
        execute(scheduled, memory, &ExecConfig::default())
    });
    if let Ok(run) = run {
        let _ = rec.span("sim.timing", |_| {
            TimingSim::new(scheduled, &machine).run(&run.block_trace)
        });
    }
    let request = request_line(text, asm);
    let printed = scheduled.to_string();
    let response = schedule_line(
        1,
        0,
        scheduled.name(),
        &FuncOutcome::Ok {
            cached: false,
            hash: fnv64_str(&printed),
            nanos: 0,
            moved_useful: 0,
            moved_speculative: 0,
            schedule: printed,
        },
    );
    let _ = rec.span("serve.protocol", |_| {
        (
            parse_request(&request).is_ok(),
            parse_response(&response).is_ok(),
        )
    });
}

/// Counters read around the first traced pass (deterministic per seed).
#[derive(Debug, Default, Clone, Copy)]
pub struct FirstPass {
    /// Region memo lookups that hit.
    pub memo_hits: u64,
    /// Region memo lookups that missed.
    pub memo_misses: u64,
    /// Block payloads spliced from the memo.
    pub memo_splices: u64,
    /// Whole-function cache hits (daemon only).
    pub cache_hits: u64,
    /// Whole-function cache misses (daemon only).
    pub cache_misses: u64,
    /// Cache evictions so far (daemon only).
    pub cache_evictions: u64,
}

/// Serve timings of the traced run (daemon only).
#[derive(Debug, Default, Clone)]
pub struct ServeTimes {
    /// Client round trips, ms.
    pub rtt_ms: Vec<f64>,
    /// The daemon's own `FuncOutcome::Ok.nanos`, ms.
    pub server_ms: Vec<f64>,
}

/// Everything the traced run measured.
pub struct Traced<'a> {
    /// The recorder, with every span.
    pub rec: &'a Recorder,
    /// The distinct inputs.
    pub inputs: &'a [Input],
    /// Samples per input.
    pub per_input: &'a [PerInput],
    /// What set-up pinned.
    pub quality: &'a Quality,
    /// Counters of the first traced pass.
    pub first: FirstPass,
    /// The traced phase.
    pub traced: &'a Phase,
    /// The untraced phase run alongside it.
    pub untraced: &'a Phase,
    /// Serve timings, empty off the daemon.
    pub serve: ServeTimes,
}

fn p50_of(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::percentile(&stats::sorted(values), 50)
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The per-layer metrics of a traced run.
pub fn per_layer(t: &Traced<'_>, out: &mut Outcome) {
    let rec = t.rec;
    out.set("frontend.ms_per_fn", rec.mean_ms("frontend"));
    out.set("ir.verify_ms_per_fn", rec.mean_ms("ir.verify"));
    out.set("ir.canon_hash_ms_per_fn", rec.mean_ms("ir.canon_hash"));
    out.set("cfg.analyze_ms_per_fn", rec.mean_ms("cfg.analyze"));
    out.set("pdg.rename_ms_per_fn", rec.mean_ms("pdg.rename"));
    out.set("pdg.liveness_ms_per_fn", rec.mean_ms("pdg.liveness"));
    out.set("pdg.dep_build_ms_per_fn", rec.mean_ms("pdg.dep_build"));
    let edges: usize = t.per_input.iter().filter_map(|p| p.dep_edges).sum();
    out.set("pdg.dep_edges", edges as f64);

    let all: Vec<&[u64; 6]> = t.per_input.iter().flat_map(|p| &p.pass_ns).collect();
    let median_pass = |p: &PerInput, k: usize| {
        let v: Vec<f64> = p.pass_ns.iter().map(|ns| ns[k] as f64 / 1e6).collect();
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v)
        }
    };
    for (k, pass) in PASSES.iter().enumerate() {
        let ms: Vec<f64> = all.iter().map(|ns| ns[k] as f64 / 1e6).collect();
        out.set(format!("core.{pass}_ms"), stats::mean(&ms));
        let points: Vec<(f64, f64)> = t
            .inputs
            .iter()
            .zip(t.per_input)
            .map(|(input, p)| (input.insts() as f64, median_pass(p, k)))
            .collect();
        out.set(format!("core.{pass}_scaling"), stats::loglog_slope(&points));
    }
    for (name, k) in [("core.unroll_analyses", 1), ("core.rotate_analyses", 3)] {
        let ratios: Vec<f64> = t
            .per_input
            .iter()
            .filter(|p| !p.cfg_ms.is_empty())
            .map(|p| median_pass(p, k) / stats::median(&p.cfg_ms).max(1e-9))
            .collect();
        out.set(name, stats::mean(&ratios));
    }
    let s = &t.quality.stats;
    out.set("core.regions_scheduled", s.regions_scheduled as f64);
    out.set("core.regions_skipped", s.regions_skipped as f64);
    out.set("core.moved_useful", s.moved_useful as f64);
    out.set("core.moved_speculative", s.moved_speculative as f64);
    out.set("core.liveness_full", s.liveness_full as f64);
    out.set("core.liveness_incremental", s.liveness_incremental as f64);
    let f = t.first;
    out.set(
        "core.memo.hit_ratio",
        ratio(f.memo_hits, f.memo_hits + f.memo_misses),
    );
    out.set("core.memo.splices", f.memo_splices as f64);
    out.set(
        "core.parallel.cpu_over_wall",
        t.untraced.cpu_s / t.untraced.wall_s,
    );
    out.set("sim.exec_ms_per_fn", rec.mean_ms("sim.exec"));
    out.set("sim.timing_ms_per_fn", rec.mean_ms("sim.timing"));
    out.set("sim.dyn_insts", t.quality.dyn_insts as f64);

    let overhead: Vec<f64> = t
        .serve
        .rtt_ms
        .iter()
        .zip(&t.serve.server_ms)
        .map(|(rtt, server)| rtt - server)
        .collect();
    out.set("serve.rtt_ms_p50", p50_of(&t.serve.rtt_ms));
    out.set("serve.server_ms_p50", p50_of(&t.serve.server_ms));
    out.set("serve.overhead_ms_p50", p50_of(&overhead));
    out.set(
        "serve.cache.hit_ratio",
        ratio(f.cache_hits, f.cache_hits + f.cache_misses),
    );
    out.set("serve.cache.evictions", f.cache_evictions as f64);
    // Each protocol span parses one request line and one response line.
    out.set(
        "serve.protocol_us_per_line",
        rec.mean_ms("serve.protocol") * 1e3 / 2.0,
    );
    out.set(
        "trace.overhead_frac",
        t.traced.p50() / t.untraced.p50() - 1.0,
    );
    let self_ms = rec.self_ms();
    let mut top: Vec<(&str, f64)> = self_ms.into_iter().collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    out.notes.push(format!(
        "traced: {} ops traced, {} untraced; self time by span: {}",
        t.traced.latencies_ms.len(),
        t.untraced.latencies_ms.len(),
        top.iter()
            .map(|(n, ms)| format!("{n} {ms:.1} ms"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
}

/// Writes the spans and the per-layer values of a traced run under
/// [`RUN_DIR`], returning the path.
pub fn write_trace(args: &Args, rec: &Recorder, out: &Outcome) -> std::io::Result<String> {
    std::fs::create_dir_all(RUN_DIR)?;
    let path = format!(
        "{RUN_DIR}/trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    );
    let mut text = rec.to_json_lines();
    let counts: Vec<String> = out
        .metrics
        .iter()
        .map(|(n, v)| format!("\"{n}\":{v:?}"))
        .collect();
    text.push_str(&format!("{{\"metrics\":{{{}}}}}\n", counts.join(",")));
    std::fs::write(&path, text)?;
    Ok(path)
}
