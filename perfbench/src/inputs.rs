//! The workloads and their seeded inputs.
//!
//! Every input is a pure function of the `--seed` argument: the seed picks
//! the data each function runs on, the per-pass op order and the serve
//! edit plan. The code shapes are pinned per workload (the many-loops
//! generator seeds are constants), so two seeds load the scheduler alike
//! and a percentile never lands on a different function from one seed to
//! the next: the benchmark compares commits, not generator draws.

use gis_ir::Function;
use gis_workloads::rng::XorShift64Star;
use gis_workloads::{minmax, spec, synth};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The real-kernel corpus, compiled cold one function at a time.
    Kernels,
    /// A ladder of large many-loops functions, compiled cold at `jobs 2`.
    LargeFn,
    /// Build-system resubmit traffic against an in-process daemon.
    ServeEdit,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Kernels, Workload::LargeFn, Workload::ServeEdit];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Kernels => "kernels",
            Workload::LargeFn => "large-fn",
            Workload::ServeEdit => "serve-edit",
        }
    }

    /// The tail percentile `latency_ms_tail` reports: the highest of
    /// p90/p99 that leaves ten samples beyond it in every run. The timed
    /// loop runs at least [`Workload::min_ops`] ops so the rule holds.
    pub fn tail_pct(self) -> u32 {
        match self {
            Workload::Kernels | Workload::ServeEdit => 99,
            Workload::LargeFn => 90,
        }
    }

    /// Fewest ops a timed phase may end with: enough for twelve samples
    /// beyond the tail percentile.
    pub fn min_ops(self) -> usize {
        12 * 100 / (100 - self.tail_pct() as usize)
    }

    /// Set-ups a run times. `setup_s` is their median, so a burst of host
    /// load during one set-up does not set it; the short set-ups repeat
    /// more, up to about a second of set-up for `kernels` and three for
    /// `serve-edit`, while the 4 s `large-fn` set-up runs three times.
    pub fn setups(self) -> usize {
        match self {
            Workload::Kernels => 9,
            Workload::LargeFn => 3,
            Workload::ServeEdit => 5,
        }
    }

    /// Worker threads each compile uses.
    pub fn jobs(self) -> usize {
        match self {
            Workload::LargeFn => 2,
            Workload::Kernels | Workload::ServeEdit => 1,
        }
    }
}

/// One distinct function the workload compiles.
#[derive(Debug, Clone)]
pub struct Input {
    /// Display name.
    pub name: String,
    /// tiny-C source, when the function has one (every op then runs the
    /// front end); `None` for hand-built IR.
    pub source: Option<String>,
    /// The unscheduled IR.
    pub ir: Function,
    /// Initial memory for the simulator.
    pub memory: Vec<(i64, i64)>,
    /// The input array when a hand-written reference answer exists
    /// (`minmax::reference_minmax`).
    pub minmax: Option<Vec<i64>>,
    /// Ops on this input in every pass over the inputs.
    pub per_pass: usize,
}

impl Input {
    fn from_workload(name: impl Into<String>, w: spec::Workload) -> Input {
        Input {
            name: name.into(),
            source: (!w.source.is_empty()).then_some(w.source),
            ir: w.program.function,
            memory: w.memory,
            minmax: None,
            per_pass: 1,
        }
    }

    /// A many-loops style input: `w`'s code with its array `a` refilled
    /// from `rng`, so the run seed picks the data and not the code.
    fn reseeded(name: String, w: spec::Workload, rng: &mut XorShift64Star) -> Input {
        let len = w.program.array("a").map_or(0, |slot| slot.len);
        let a: Vec<i64> = (0..len).map(|_| rng.range_i64(-500, 500)).collect();
        let memory = w
            .program
            .initial_memory(&[("a", &a)])
            .expect("the many-loops generator declares array a");
        Input {
            memory,
            ..Input::from_workload(name, w)
        }
    }

    fn minmax(name: &str, rng: &mut XorShift64Star, len: usize) -> Input {
        let len = len | 1; // the Figure 1 loop reads pairs after a[0]
        let a: Vec<i64> = (0..len).map(|_| rng.range_i64(-5000, 5000)).collect();
        Input {
            name: name.to_owned(),
            source: None,
            ir: minmax::figure2_function(len as i64),
            memory: minmax::memory_image(&a),
            minmax: Some(a),
            per_pass: 1,
        }
    }

    /// Static instruction count of the unscheduled IR.
    pub fn insts(&self) -> usize {
        self.ir.num_insts()
    }
}

/// The inputs of `workload` for `seed`. `smoke` shrinks every size so a
/// whole run takes seconds.
pub fn inputs(workload: Workload, seed: u64, smoke: bool) -> Vec<Input> {
    match workload {
        Workload::Kernels => kernels(seed, smoke),
        Workload::LargeFn => large_fn(seed, smoke),
        Workload::ServeEdit => serve_corpus(seed, smoke),
    }
}

/// Ops per pass on every kernel but the largest. `dispatch-diamonds` is
/// about eight times slower than any other kernel; at one op in 46 it
/// holds about 2% of the ops, so p99 sits in the middle of its latency
/// mode instead of in its upper tail, where a burst of host load decides
/// the value.
pub const KERNEL_REPEATS: usize = 5;

/// Every function of the experiment-matrix corpus, the ESPRESSO and GCC
/// stand-ins, and the paper's minmax. With [`KERNEL_REPEATS`] the nine
/// small kernels make an odd number of equal-share modes, so the median
/// op sits inside one of them instead of on the edge between two.
fn kernels(seed: u64, smoke: bool) -> Vec<Input> {
    let mut rng = XorShift64Star::stream(seed, 1);
    let size = |rng: &mut XorShift64Star| {
        if smoke {
            16 + rng.below(16)
        } else {
            64 + rng.below(192)
        }
    };
    let mut out: Vec<Input> = gis_bench::matrix::corpus(smoke)
        .into_iter()
        .map(|(name, w)| Input::from_workload(name, w))
        .collect();
    out.push(Input::from_workload(
        "espresso",
        spec::espresso(size(&mut rng)),
    ));
    out.push(Input::from_workload("gcc", spec::gcc(size(&mut rng))));
    let len = size(&mut rng);
    out.push(Input::minmax("minmax", &mut rng, len));
    let largest = (0..out.len())
        .max_by_key(|&i| out[i].insts())
        .expect("kernels");
    for (i, input) in out.iter_mut().enumerate() {
        if i != largest {
            input.per_pass = KERNEL_REPEATS;
        }
    }
    out
}

/// Generator seed of variant `variant` of shape `shape`: a constant, so
/// every run seed compiles the same code.
fn shape_seed(shape: usize, variant: usize) -> u64 {
    11 + 1000 * shape as u64 + variant as u64
}

/// `(loops, stmts, variants)` rungs of the large-fn ladder, from
/// many-loops-s (≈750 instructions) to ≈8.2k, about twice many-loops-m.
/// Each variant is one input with its own generator seed, so a rung's
/// latency mode is a mixture and no single function's quirks set a
/// percentile on their own. With [`SKEWED_VARIANTS`] skewed functions the
/// smallest rung and the skewed preset make one mode of three inputs,
/// below four more rungs of three: five modes of equal op share. The
/// median sits in the middle of the third (48×4) and p90 in the middle of
/// the fifth (80×5). A mode of short ops would read a burst of host load
/// as a slower scheduler, so the median is put on the 100 ms rung.
pub const LADDER: &[(usize, usize, usize)] =
    &[(16, 2, 1), (32, 3, 3), (48, 4, 3), (64, 4, 3), (80, 5, 3)];

/// Variants of the skewed preset in the large-fn ladder.
pub const SKEWED_VARIANTS: usize = 2;

fn large_fn(seed: u64, smoke: bool) -> Vec<Input> {
    let mut rng = XorShift64Star::stream(seed, 2);
    let (ladder, skewed): (&[(usize, usize, usize)], usize) = if smoke {
        (&[(4, 1, 1), (6, 1, 1)], 1)
    } else {
        (LADDER, SKEWED_VARIANTS)
    };
    let mut out = Vec::new();
    for (k, &(loops, stmts, variants)) in ladder.iter().enumerate() {
        for v in 0..variants {
            let w = synth::many_loops_scaled(loops, stmts, shape_seed(k, v));
            let name = format!("many-loops-{loops}x{stmts}.{v}");
            out.push(Input::reseeded(name, w, &mut rng));
        }
    }
    let (name, loops, stmts, heavy, _) = synth::MANY_LOOPS_SKEWED_PRESET;
    let (loops, heavy) = if smoke { (6, 3) } else { (loops, heavy) };
    for v in 0..skewed {
        let w = synth::many_loops_skewed(loops, stmts, heavy, shape_seed(ladder.len(), v));
        out.push(Input::reseeded(format!("{name}.{v}"), w, &mut rng));
    }
    out
}

/// `(loops, stmts)` size classes of the serve corpus, dealt round-robin.
pub const SERVE_SIZES: &[(usize, usize)] = &[(4, 1), (6, 2), (8, 2), (12, 2), (16, 2), (8, 4)];

/// Functions in the serve corpus.
pub const SERVE_FUNCS: usize = 24;

/// Functions edited before each serve round: a quarter, so the median op
/// is a cache hit, well inside the hit mode, and the p99 op an edit of
/// one of the largest functions, well inside the edit mode.
pub const SERVE_EDITS_PER_ROUND: usize = 6;

fn serve_corpus(seed: u64, smoke: bool) -> Vec<Input> {
    let mut rng = XorShift64Star::stream(seed, 3);
    let count = if smoke { 4 } else { SERVE_FUNCS };
    (0..count)
        .map(|i| {
            let (loops, stmts) = if smoke {
                (3, 1)
            } else {
                SERVE_SIZES[i % SERVE_SIZES.len()]
            };
            let w = synth::many_loops_scaled(loops, stmts, shape_seed(i, 0));
            Input::reseeded(format!("unit-{i:02}-{loops}x{stmts}"), w, &mut rng)
        })
        .collect()
}

/// One pass's op order: input `i` appears `inputs[i].per_pass` times,
/// in a seeded order.
pub fn pass_order(rng: &mut XorShift64Star, inputs: &[Input]) -> Vec<usize> {
    let slots: Vec<usize> = inputs
        .iter()
        .enumerate()
        .flat_map(|(i, input)| std::iter::repeat_n(i, input.per_pass))
        .collect();
    shuffled(rng, slots.len())
        .into_iter()
        .map(|k| slots[k])
        .collect()
}

/// A seeded permutation of `0..n`.
pub fn shuffled(rng: &mut XorShift64Star, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

const LOOP_HEAD: &str = "while (j < ";

/// Loops in a many-loops source.
pub fn loop_count(source: &str) -> usize {
    source.matches(LOOP_HEAD).count()
}

/// `source` with the trip bound of loop `index` set to `bound`: one
/// changed constant, the same instruction count and block ids, so every
/// other loop keeps its region content address.
///
/// # Panics
///
/// Panics if the source has no loop `index`.
pub fn edit_loop_bound(source: &str, index: usize, bound: i64) -> String {
    let (at, _) = source
        .match_indices(LOOP_HEAD)
        .nth(index)
        .unwrap_or_else(|| panic!("no loop {index} to edit"));
    let digits = at + LOOP_HEAD.len();
    let end = digits + source[digits..].find(')').expect("a closed loop condition");
    format!("{}{bound}{}", &source[..digits], &source[end..])
}

/// Loop bounds the generator never draws (it uses 3..7), so every edit
/// yields a text the daemon has not seen.
const FIRST_EDIT_BOUND: i64 = 8;

/// One serve round: edits to apply first, then the submission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    /// `(function, loop, new bound)` edits, applied before the round.
    pub edits: Vec<(usize, usize, i64)>,
    /// Functions in submission order (every function once).
    pub order: Vec<usize>,
}

/// The seeded edit plan of the serve workload.
///
/// Each round edits [`SERVE_EDITS_PER_ROUND`] distinct functions (one
/// loop bound each) and resubmits the whole corpus. Functions are edited
/// in turns: every function once, in a seeded order, before any function
/// twice, so each run edits every size class alike. Every edit writes a
/// bound no earlier text of that function carried, so an edited function
/// always misses the whole-function cache and every other function hits.
pub struct EditPlan {
    rng: XorShift64Star,
    loops: Vec<usize>,
    per_round: usize,
    edits_made: Vec<i64>,
    /// Functions still to edit in the current turn.
    turn: Vec<usize>,
}

impl EditPlan {
    /// A plan over functions with `loops[i]` loops each.
    pub fn new(seed: u64, loops: Vec<usize>, per_round: usize) -> EditPlan {
        EditPlan {
            rng: XorShift64Star::stream(seed, 4),
            edits_made: vec![0; loops.len()],
            per_round: per_round.min(loops.len()),
            loops,
            turn: Vec::new(),
        }
    }

    /// The next round.
    pub fn next_round(&mut self) -> Round {
        if self.turn.len() < self.per_round {
            self.turn = shuffled(&mut self.rng, self.loops.len());
        }
        let edits = self
            .turn
            .drain(..self.per_round)
            .map(|f| {
                let lp = self.rng.below(self.loops[f]);
                let bound = FIRST_EDIT_BOUND + self.edits_made[f];
                self.edits_made[f] += 1;
                (f, lp, bound)
            })
            .collect();
        let order = shuffled(&mut self.rng, self.loops.len());
        Round { edits, order }
    }
}
