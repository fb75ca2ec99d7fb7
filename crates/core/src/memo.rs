//! The process-wide region memo: content-addressed re-use of region
//! outcomes.
//!
//! Scheduling one region is pure: its [`RegionOutcome`] is a function of
//! the region subtree's pre-schedule content (instructions, intra- and
//! out-going control edges), the registers live into its exit successors
//! (the §5.3 guard's only view of the world outside the region), the
//! region-tree shape below it (which fixes the topological tie-breaks),
//! the machine description and the configuration — and, under
//! duplication, the recorded origin of every scope instruction, which
//! the dedup fold reads. The exit live-ins are read from the compile's
//! one whole-function liveness solve of the current CFG version: the
//! very lists the scheduler's §5.3 query answers from once a path
//! leaves the region, which stay exact across regions and passes by the
//! region-boundary invariant stated in `gis_pdg`'s liveness module.
//! They iterate in `RegSet`'s `(class, index)` order. This module keys
//! on exactly those inputs — [`gis_ir::canon_region`], chained as one
//! keyed SipHash digest of its bytes, with the digest of the
//! [fingerprints](crate::fingerprint) its compile hashed once — plus one
//! byte saying whether the outcome carries trace events, and stores the
//! outcome. The canonical bytes are most of a key's input, and SipHash
//! takes them eight at a time where FNV-64 takes one; its key is drawn
//! once per process, which is all an in-process memo needs, and keeps
//! key collisions out of a client's reach.
//!
//! Every region of a global pass goes through [`region_outcome`], the
//! one path: a hit [applies](RegionOutcome::apply) the stored outcome
//! instead of re-running list scheduling, and anything else schedules the
//! region, records its outcome and reports it, memoizing it when there
//! is a key. Apply installs the stored block copies, draws the recorded
//! registers and instruction ids from the current allocators, renumbers
//! them where they land on different numbers, and names the applying
//! region in replayed events (the key holds no region id), so a hit is
//! bit-identical to the cold run by construction — and by the
//! differential gate, which under the armed checks
//! ([`TestHooks::armed`]) re-schedules on a snapshot and compares blocks,
//! allocators, origins, statistics and events.
//!
//! Memoization self-disables (the key is `None`) for what it cannot
//! prove bit-identical: branch profiles (keyed per instruction id) and
//! planted faults ([`TestHooks::fault`]), whose illegal motions break
//! the region-boundary invariant the key rests on; and for the
//! `region_memo` switch, the basic-block-only level and regions over
//! the §6 size limits.
//!
//! The memo is a process-wide bounded [`Lru`] (the store behind
//! `gis-serve`'s schedule cache too) so warm hits carry across
//! functions, passes, requests and — in the daemon — client connections:
//! editing one function of a batch re-schedules only the regions whose
//! bytes changed. Counters are exported via [`region_memo_counters`] and
//! surface as `cache.region.{hit,miss,splice}` in the daemon's stats.

use crate::config::{SchedConfig, SchedLevel, TestHooks};
use crate::global::{size_gate, subtree_blocks_into, Workspace};
use crate::lru::Lru;
use crate::outcome::RegionOutcome;
use crate::parallel::GlobalPass;
use crate::stats::SchedStats;
use gis_cfg::{RegionId, RegionKind, RegionTree};
use gis_ir::hash::Fnv64;
use gis_ir::{BlockId, Function};
use gis_trace::{Recorder, SchedObserver};
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Number of region outcomes the memo retains.
const CAPACITY: usize = 4096;

fn memo() -> &'static Lru<RegionOutcome> {
    static MEMO: OnceLock<Lru<RegionOutcome>> = OnceLock::new();
    MEMO.get_or_init(|| Lru::new(CAPACITY))
}

/// The process-wide key of the SipHash-1-3 digest of a region's
/// canonical bytes.
fn canon_keys() -> &'static RandomState {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    KEYS.get_or_init(RandomState::new)
}

/// Block payloads spliced from memoized outcomes.
static SPLICES: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the region memo's lifetime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionMemoCounters {
    /// Eligible lookups that found a memoized outcome.
    pub hits: u64,
    /// Eligible lookups that did not (the region was then scheduled and
    /// recorded).
    pub misses: u64,
    /// Block payloads spliced from memoized outcomes.
    pub splices: u64,
    /// Memoized regions currently held.
    pub entries: u64,
    /// Retention bound.
    pub capacity: u64,
}

impl RegionMemoCounters {
    /// The counters as `(name, value)` pairs under the `cache.region.`
    /// prefix, the names `gisc --metrics`, the HTML report and the
    /// daemon's stats share.
    pub fn metrics(&self) -> [(&'static str, u64); 5] {
        [
            ("cache.region.hit", self.hits),
            ("cache.region.miss", self.misses),
            ("cache.region.splice", self.splices),
            ("cache.region.entries", self.entries),
            ("cache.region.capacity", self.capacity),
        ]
    }
}

/// Reads the process-wide region memo counters. These surface in the
/// daemon's stats and metrics as `cache.region.{hit,miss,splice}` —
/// kept out of [`SchedStats`] deliberately, since statistics must stay
/// bit-identical whether a region was scheduled or spliced.
pub fn region_memo_counters() -> RegionMemoCounters {
    let m = memo();
    RegionMemoCounters {
        hits: m.hits(),
        misses: m.misses(),
        splices: SPLICES.load(Ordering::Relaxed),
        entries: m.len() as u64,
        capacity: m.capacity() as u64,
    }
}

/// Empties the region memo and zeroes its counters. The benchmark
/// harness calls this before cold runs; nothing else should need to.
pub fn region_memo_clear() {
    memo().clear();
    SPLICES.store(0, Ordering::Relaxed);
}

/// Whether a compile under this configuration and these hooks can use
/// the memo at all (see the module docs for why each exclusion exists).
fn memo_eligible(config: &SchedConfig, hooks: &TestHooks) -> bool {
    config.region_memo
        && config.level != SchedLevel::BasicBlockOnly
        && config.profile.is_none()
        && hooks.fault.is_none()
}

/// Blocks outside `scope` that some scope block branches or falls
/// through into, ascending and deduplicated, into `out`. `scope` must be
/// sorted.
fn exit_blocks(f: &Function, scope: &[BlockId], out: &mut Vec<BlockId>) {
    out.clear();
    for &b in scope {
        for s in f.succs(b) {
            if scope.binary_search(&s).is_err() {
                out.push(s);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
}

/// Chains the region-tree shape below `rid` into the hasher: per region
/// a kind tag, the header block, the direct block ids and the children
/// (recursively, in child order — the order fixes the supernode
/// numbering and with it the topological tie-breaks).
fn write_tree_shape(h: &mut Fnv64, tree: &RegionTree, rid: RegionId) {
    let region = tree.region(rid);
    h.write_u8(match region.kind {
        RegionKind::Loop(_) => 1,
        RegionKind::Body => 0,
    });
    h.write_u32(region.header.map_or(u32::MAX, |b| b.index() as u32));
    h.write_u32(region.blocks.len() as u32);
    for &b in &region.blocks {
        h.write_u32(b.index() as u32);
    }
    h.write_u32(region.children.len() as u32);
    for &c in &region.children {
        write_tree_shape(h, tree, c);
    }
}

/// The memo key — every input that determines the outcome — or `None`
/// when the configuration bypasses the memo or the region is over the
/// size limits (a skip is cheaper to re-detect than to look up). The
/// scope, canonical bytes and exits are gathered in `ws`'s buffers.
fn memo_key(
    pass: &GlobalPass,
    f: &Function,
    rid: RegionId,
    tracing: bool,
    ws: &mut Workspace,
) -> Option<u64> {
    let config = pass.config;
    if !memo_eligible(config, pass.hooks) {
        return None;
    }
    subtree_blocks_into(pass.tree, rid, &mut ws.scope);
    let scope = &ws.scope;
    if size_gate(f, scope, config).is_some() {
        return None;
    }
    let mut h = Fnv64::new();
    h.write(b"region-memo/v2\0");
    h.write_u8(u8::from(tracing));
    gis_ir::canon_region_into(f, scope, &mut ws.key_bytes);
    // The bytes and their length.
    h.write_u64(canon_keys().hash_one(ws.key_bytes.as_slice()));
    write_tree_shape(&mut h, pass.tree, rid);
    exit_blocks(f, scope, &mut ws.exits);
    h.write_u32(ws.exits.len() as u32);
    for &b in &ws.exits {
        h.write_u32(b.index() as u32);
        for &r in pass.live.live_in(b) {
            h.write_u8(r.class().slot() as u8);
            h.write_u32(r.index());
        }
        h.write_u8(0xff);
    }
    if config.duplication {
        for &b in scope {
            for inst in f.block(b).insts() {
                h.write_u32(f.dup_origin(inst.id).map_or(u32::MAX, |o| o.index() as u32));
            }
        }
    }
    h.write_u64(pass.fingerprint);
    Some(h.finish())
}

/// Schedules region `rid` of `f` through the memo in workspace `ws`,
/// reports its statistics and events into `stats` and `obs`, and returns
/// its outcome: applied from the memo on a hit, else recorded (and
/// memoized when the key allows). `tracing` says whether the outcome
/// carries events — a pool worker records them for the merge while
/// reporting nowhere.
pub(crate) fn region_outcome<O: SchedObserver>(
    pass: &GlobalPass,
    f: &mut Function,
    rid: RegionId,
    tracing: bool,
    ws: &mut Workspace,
    stats: &mut SchedStats,
    obs: &mut O,
) -> Arc<RegionOutcome> {
    let key = memo_key(pass, f, rid, tracing, ws);
    if let Some(out) = key.and_then(|key| memo().get(key)) {
        if pass.hooks.armed() {
            verify_hit(pass, f, rid, &out, tracing, ws);
        }
        out.apply(f, rid, stats, obs);
        SPLICES.fetch_add(out.num_blocks() as u64, Ordering::Relaxed);
        return out;
    }
    let out = Arc::new(RegionOutcome::record(pass, f, rid, tracing, ws));
    out.report(stats, obs);
    if let Some(key) = key {
        memo().insert(key, Arc::clone(&out));
    }
    out
}

/// The differential gate: applies the memoized outcome and schedules the
/// region for real, each on its own snapshot of `f`, and panics unless
/// the two agree on every block, allocator, origin, statistic and event.
fn verify_hit(
    pass: &GlobalPass,
    f: &Function,
    rid: RegionId,
    out: &RegionOutcome,
    tracing: bool,
    ws: &mut Workspace,
) {
    let (mut applied, mut stats, mut events) =
        (f.snapshot(), SchedStats::default(), Recorder::new());
    out.apply(&mut applied, rid, &mut stats, &mut events);
    let mut real = f.snapshot();
    let want = RegionOutcome::record(pass, &mut real, rid, tracing, ws);
    let mut want_stats = SchedStats::default();
    let mut want_events = Recorder::new();
    want.report(&mut want_stats, &mut want_events);
    assert_eq!(stats, want_stats, "region memo: statistics diverged");
    assert_eq!(
        events.into_events(),
        want_events.into_events(),
        "region memo: trace events diverged"
    );
    assert_eq!(
        applied.reg_counters(),
        real.reg_counters(),
        "region memo: registers diverged"
    );
    assert_eq!(
        applied.inst_id_bound(),
        real.inst_id_bound(),
        "region memo: ids diverged"
    );
    assert!(
        applied.dup_origins().eq(real.dup_origins()),
        "region memo: duplication origins diverged"
    );
    for &b in &pass.tree.region(rid).blocks {
        assert!(
            applied.block(b).insts().eq(real.block(b).insts()),
            "region memo: block {} diverged from a re-schedule",
            real.block(b).label()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::tests::{analyses, pass, TWO_DUP_LOOPS, TWO_LOOPS};
    use crate::{compile, compile_observed};
    use gis_ir::InstId;
    use gis_machine::MachineDescription;
    use gis_pdg::Liveness;
    use gis_trace::{NopObserver, TraceEvent};

    // The memo is process-wide and the test harness runs tests
    // concurrently, so counter assertions below are monotonic deltas,
    // never exact values.

    /// Strips the wall-clock pass timings, which are the one
    /// nondeterministic field of [`SchedStats`].
    fn counted(mut st: SchedStats) -> SchedStats {
        st.pass_nanos = [0; 6];
        st
    }

    /// The core contract: a warm compile is bit-identical to the cold
    /// one and to a memo-off compile — text, statistics and allocator
    /// state. (Debug builds also run the differential gate on every
    /// hit, so this test exercises the full apply-vs-schedule compare.)
    #[test]
    fn warm_compile_is_bit_identical() {
        let machine = MachineDescription::rs6k();
        let config = SchedConfig::speculative();
        let mut off = config.clone();
        off.region_memo = false;
        let f0 = gis_ir::parse_function(TWO_LOOPS).expect("parses");
        let before = region_memo_counters();
        let mut cold = f0.clone();
        let st_cold = compile(&mut cold, &machine, &config).expect("cold");
        let mut warm = f0.clone();
        let st_warm = compile(&mut warm, &machine, &config).expect("warm");
        let mut reference = f0;
        let st_ref = compile(&mut reference, &machine, &off).expect("memo off");
        assert_eq!(cold.to_string(), warm.to_string(), "warm text");
        assert_eq!(cold.to_string(), reference.to_string(), "memo-off text");
        assert_eq!(counted(st_cold), counted(st_warm), "warm stats");
        assert_eq!(counted(st_cold), counted(st_ref), "memo-off stats");
        assert_eq!(cold.reg_counters(), warm.reg_counters());
        let after = region_memo_counters();
        assert!(after.hits > before.hits, "the warm run hit the memo");
        assert!(after.splices > before.splices, "hits spliced payloads");
    }

    /// A hit must replay §5.3 renames, renumbered onto the current
    /// allocator: the Figure 2 function renames `cr6` during speculative
    /// scheduling (the paper's Figure 6 motion).
    #[test]
    fn warm_compile_replays_renames() {
        let machine = MachineDescription::rs6k();
        let config = SchedConfig::paper_example(SchedLevel::Speculative);
        let f0 = gis_workloads::minmax::figure2_function(99);
        let mut cold = f0.clone();
        let st_cold = compile(&mut cold, &machine, &config).expect("cold");
        assert_eq!(st_cold.renamed_speculative, 1, "the rename fires");
        let mut warm = f0.clone();
        let st_warm = compile(&mut warm, &machine, &config).expect("warm");
        assert_eq!(cold.to_string(), warm.to_string());
        assert_eq!(counted(st_cold), counted(st_warm));
        assert_eq!(cold.reg_counters(), warm.reg_counters());
    }

    /// A traced compile goes through the memo like any other: its
    /// outcomes carry their events, and a hit replays them — renamed
    /// registers and region ids respelled for the applying run — so the
    /// stream is identical cold, warm and with the memo off, at one job
    /// and at four.
    #[test]
    fn traced_compiles_replay_identical_events() {
        let machine = MachineDescription::rs6k();
        let traced = |f0: &Function, config: &SchedConfig| {
            let mut f = f0.clone();
            let mut rec = Recorder::new();
            let st = compile_observed(&mut f, &machine, config, &mut rec).expect("compiles");
            let mut events = rec.into_events();
            for e in &mut events {
                if let TraceEvent::PassEnd { nanos, .. } = e {
                    *nanos = 0;
                }
            }
            (f.to_string(), counted(st), events)
        };
        let figure2 = gis_workloads::minmax::figure2_function(99);
        let two_loops = gis_ir::parse_function(TWO_LOOPS).expect("parses");
        let cases = [
            (figure2, SchedConfig::paper_example(SchedLevel::Speculative)),
            (two_loops, SchedConfig::speculative()),
        ];
        for (f0, base) in cases {
            for jobs in [1, 4] {
                let config = SchedConfig {
                    jobs,
                    ..base.clone()
                };
                let off = SchedConfig {
                    region_memo: false,
                    ..config.clone()
                };
                let before = region_memo_counters().hits;
                let cold = traced(&f0, &config);
                let warm = traced(&f0, &config);
                let reference = traced(&f0, &off);
                assert!(region_memo_counters().hits > before, "jobs {jobs}: hits");
                assert_eq!(cold, warm, "jobs {jobs}: warm");
                assert_eq!(cold, reference, "jobs {jobs}: memo off");
                assert!(
                    cold.2
                        .iter()
                        .any(|e| matches!(e, TraceEvent::RegionBegin { .. })),
                    "regions were traced"
                );
            }
        }
    }

    /// Duplication mints instruction ids and folds copies away; a warm
    /// `--dup` compile draws the same ids, records the same origins and
    /// leaves the same allocators as the cold and memo-off compiles.
    #[test]
    fn warm_duplication_compile_is_bit_identical() {
        let machine = MachineDescription::rs6k();
        let config = SchedConfig {
            duplication: true,
            ..SchedConfig::speculative()
        };
        let off = SchedConfig {
            region_memo: false,
            ..config.clone()
        };
        let f0 = gis_ir::parse_function(TWO_DUP_LOOPS).expect("parses");
        let run = |config: &SchedConfig| {
            let mut f = f0.clone();
            let st = compile(&mut f, &machine, config).expect("compiles");
            let origins: Vec<_> = f.dup_origins().collect();
            let state = (f.reg_counters(), f.inst_id_bound());
            (f.to_string(), counted(st), origins, state)
        };
        let before = region_memo_counters().hits;
        let cold = run(&config);
        let warm = run(&config);
        let reference = run(&off);
        assert!(region_memo_counters().hits > before, "the warm run hit");
        assert!(
            cold.1.dup_copies_minted > 0,
            "duplication fires: {:?}",
            cold.1
        );
        assert_eq!(cold, warm, "warm");
        assert_eq!(cold, reference, "memo off");
    }

    /// The dedup fold reads recorded duplication origins, so they are
    /// part of the key: the same instructions fold with a recorded origin
    /// and stay without one, whichever was memoized first, and a warm
    /// hit deletes the folded copy exactly as the cold run did.
    #[test]
    fn duplication_origins_split_the_key() {
        let machine = MachineDescription::rs6k();
        let config = SchedConfig {
            duplication: true,
            ..SchedConfig::paper_example(SchedLevel::Speculative)
        };
        let off = SchedConfig {
            region_memo: false,
            ..config.clone()
        };
        let run = |config: &SchedConfig, origin: bool| {
            let mut f = gis_ir::parse_function(
                "func fold\n\
                 H:\n LI r7=3\n L r1=p(r0,0)\n C cr0=r1,r2\n BT T,cr0,0x1/lt\n\
                 E:\n A r5=r7,r7\n B J\n\
                 T:\n A r5=r7,r7\n\
                 J:\n PRINT r5\n RET\n",
            )
            .expect("parses");
            if origin {
                f.record_dup_origin(InstId::new(4), InstId::new(6));
            }
            let st = compile(&mut f, &machine, config).expect("compiles");
            (f.to_string(), st.dup_copies_deduped)
        };
        for origin in [true, false, true, false] {
            let (text, deduped) = run(&config, origin);
            assert_eq!((text, deduped), run(&off, origin), "origin {origin}");
            assert_eq!(deduped, usize::from(origin), "the twins fold iff related");
        }
    }

    /// A loop whose exit falls straight into the next loop's header (the
    /// shape of `adjacent_single_block_loops_both_rotate`): its exit
    /// successor heads a sibling region, which the same pass may
    /// schedule first. The scheduler reads that header's pass-start
    /// live-ins — exactly what the key hashes — so the region is
    /// memoized like any other, and a warm pass applies it
    /// bit-identically to the cold one and to a memo-off pass. (Debug
    /// builds also re-schedule every hit and compare.)
    #[test]
    fn loop_exiting_into_a_sibling_header_is_memoized() {
        let machine = MachineDescription::rs6k();
        let config = SchedConfig::speculative();
        let (f0, cfg, tree) = analyses(
            "func adjacent\n\
             init:\n LI r1=0\n LI r2=0\n LI r3=0\n LI r4=0\n LI r9=11\n\
             l1:\n L r5=a(r4,0)\n\
             l1b:\n AI r1=r1,3\n A r3=r3,r5\n C cr0=r1,r9\n BT l1,cr0,0x1/lt\n\
             l2:\n AI r2=r2,5\n C cr1=r2,r9\n BT l2,cr1,0x1/lt\n\
             out:\n PRINT r1\n PRINT r2\n PRINT r3\n RET\n",
        );
        let (l1, l2) = (BlockId::new(1), BlockId::new(3));
        let first = tree.innermost(l1);
        let scope = crate::global::subtree_blocks(&tree, first);
        let mut exits = Vec::new();
        exit_blocks(&f0, &scope, &mut exits);
        assert_eq!(exits, vec![l2], "the first loop exits into the second");
        assert_eq!(
            tree.region(tree.innermost(l2)).parent,
            tree.region(first).parent,
            "the exit heads a sibling region"
        );
        let hooks = TestHooks::default();
        let live = Liveness::compute(&f0, &cfg);
        let pass = pass(&f0, &machine, &cfg, &tree, &live, &config, &hooks);
        let key =
            memo_key(&pass, &f0, first, false, &mut Workspace::new(&machine)).expect("eligible");
        let memoized = || memo().entries().iter().any(|&(k, _)| k == key);
        assert!(!memoized(), "a fresh key");

        let global = |config: &SchedConfig| {
            let mut f = f0.clone();
            let mut st = SchedStats::default();
            let pass =
                crate::parallel::tests::pass(&f0, &machine, &cfg, &tree, &live, config, &hooks);
            let mut ws = Workspace::new(&machine);
            crate::parallel::global_pass(&pass, &mut f, 0, &mut ws, &mut st, &mut NopObserver);
            (f, st)
        };
        let (cold, st_cold) = global(&config);
        assert!(memoized(), "the cold pass recorded the first loop");
        let before = region_memo_counters();
        let (warm, st_warm) = global(&config);
        let after = region_memo_counters();
        let mut off = config.clone();
        off.region_memo = false;
        let (reference, st_ref) = global(&off);
        assert!(after.hits >= before.hits + 2, "both loops hit");
        assert_eq!(cold.to_string(), warm.to_string(), "warm text");
        assert_eq!(cold.to_string(), reference.to_string(), "memo-off text");
        assert_eq!(counted(st_cold), counted(st_warm), "warm stats");
        assert_eq!(counted(st_cold), counted(st_ref), "memo-off stats");
        assert!(
            st_cold.moved_useful > 0,
            "the first loop fills its load delay from the latch"
        );
    }

    /// A task that panics on a `--jobs` worker must fail the pass, not
    /// leave the other workers waiting for it forever. The panic here is
    /// the armed memo-hit check: one inner loop's key holds an outcome
    /// recorded for another loop. A verifier is plugged in so the check
    /// is armed in release test builds too. On a 1-CPU host the pool runs
    /// inline, so there the test cannot hang whatever the pool does.
    #[test]
    fn a_panicking_task_fails_the_pass_instead_of_hanging() {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        use std::time::Duration;
        // A seed no other test uses: the memo is process-wide.
        let f0 = gis_workloads::synth::many_loops(6, 0x5EED_9A41)
            .program
            .function;
        let cfg = gis_cfg::Cfg::new(&f0);
        let dom = gis_cfg::DomTree::dominators(&cfg);
        let tree = RegionTree::new(&cfg, &gis_cfg::LoopForest::new(&cfg, &dom));
        let machine = MachineDescription::rs6k();
        let config = SchedConfig {
            jobs: 2,
            ..SchedConfig::speculative()
        };
        let hooks = TestHooks {
            verifier: Some(|_, _, _| Ok(())),
            fault: None,
        };
        let inner: Vec<RegionId> = tree
            .schedule_order()
            .into_iter()
            .filter(|&r| tree.region(r).height == 0)
            .collect();
        assert_eq!(inner.len(), 6, "one task per loop");
        let live = Liveness::compute(&f0, &cfg);
        let pass = pass(&f0, &machine, &cfg, &tree, &live, &config, &hooks);
        let mut ws = Workspace::new(&machine);
        let other = RegionOutcome::record(&pass, &mut f0.clone(), inner[0], false, &mut ws);
        let key = memo_key(&pass, &f0, inner[1], false, &mut ws).expect("eligible");
        memo().insert(key, Arc::new(other));

        let (done, ended) = channel::<()>();
        let run = std::thread::spawn(move || {
            let _done = done; // dropped when the pass returns or panics
            let mut f = f0.clone();
            let mut st = SchedStats::default();
            let pass =
                crate::parallel::tests::pass(&f0, &machine, &cfg, &tree, &live, &config, &hooks);
            let mut ws = Workspace::new(&machine);
            crate::parallel::global_pass(&pass, &mut f, 0, &mut ws, &mut st, &mut NopObserver);
        });
        assert_eq!(
            ended.recv_timeout(Duration::from_secs(60)),
            Err(RecvTimeoutError::Disconnected),
            "the pass hung after a task panicked"
        );
        assert!(
            run.join().is_err(),
            "the planted memo entry made the pass panic"
        );
    }

    /// Every compile the memo cannot prove bit-identical must bypass it
    /// (the module docs list why each exclusion exists). Traced and
    /// duplicating compiles are eligible: events and minted ids travel
    /// with the outcome.
    #[test]
    fn ineligible_configs_bypass_the_memo() {
        let machine = MachineDescription::rs6k();
        let (f, cfg, tree) = analyses(TWO_LOOPS);
        let mut config = SchedConfig::speculative();
        let none = TestHooks::default();
        let live = Liveness::compute(&f, &cfg);
        let key = |config: &SchedConfig, tracing: bool| {
            let pass = pass(&f, &machine, &cfg, &tree, &live, config, &none);
            memo_key(
                &pass,
                &f,
                tree.root(),
                tracing,
                &mut Workspace::new(&machine),
            )
        };
        assert!(memo_eligible(&config, &none));
        assert!(key(&config, true).is_some(), "tracing is eligible");
        assert_ne!(
            key(&config, true),
            key(&config, false),
            "events split the key"
        );
        config.duplication = true;
        assert!(memo_eligible(&config, &none), "duplication is eligible");
        assert!(key(&config, false).is_some());
        config.duplication = false;
        config.region_memo = false;
        assert!(!memo_eligible(&config, &none), "switch bypasses");
        config.region_memo = true;
        config.profile = Some(crate::BranchProfile::default());
        assert!(!memo_eligible(&config, &none), "profiles bypass");
        config.profile = None;
        let planted = TestHooks {
            fault: Some(crate::Fault::SkipLiveOnExit),
            ..none
        };
        assert!(!memo_eligible(&config, &planted), "planted faults bypass");
        config.level = SchedLevel::BasicBlockOnly;
        assert!(!memo_eligible(&config, &none), "bb-only bypasses");
    }
}
