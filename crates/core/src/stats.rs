//! Scheduling statistics.

use std::fmt;

/// What the pipeline did — used by the experiments to report motion counts
/// and by tests to pin down specific motions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// Regions that went through global scheduling.
    pub regions_scheduled: usize,
    /// Regions skipped (irreducible, too large, or too high).
    pub regions_skipped: usize,
    /// Instructions moved between equivalent blocks (useful motion).
    pub moved_useful: usize,
    /// Instructions moved speculatively (1-branch).
    pub moved_speculative: usize,
    /// Speculative motions enabled by renaming a clobbered target.
    pub renamed_speculative: usize,
    /// Speculative motions rejected by the live-on-exit rule.
    pub rejected_live_out: usize,
    /// Instructions moved by duplication (original relocated, copies
    /// minted in the sibling predecessors).
    pub moved_duplicated: usize,
    /// Fresh-id copies minted by duplication-based motion.
    pub dup_copies_minted: usize,
    /// Motions that would have needed duplication but were barred by the
    /// guards or the config gate.
    pub rejected_would_duplicate: usize,
    /// Redundant duplication copies removed when a later pass re-merged
    /// them (CSE-style cleanup at motion commit).
    pub dup_copies_deduped: usize,
    /// Register webs renamed by the §4.2 prepass.
    pub webs_renamed: usize,
    /// Loops unrolled once.
    pub loops_unrolled: usize,
    /// Loops rotated.
    pub loops_rotated: usize,
    /// Blocks reordered by the final basic block pass.
    pub blocks_bb_scheduled: usize,
    /// Data dependence edges built across all scheduled regions (before
    /// latency-redundancy reduction).
    pub dep_edges: usize,
    /// Data dependence edges surviving `gis_pdg::DataDeps::reduce`'s
    /// latency-redundancy elimination.
    pub dep_edges_reduced: usize,
    /// §5.3 live-on-exit queries answered by walking the region's
    /// current code (`gis_pdg::Liveness::walk_live_out`), which reads the
    /// pass solve only where a path leaves the region.
    pub liveness_incremental: usize,
    /// Whole-function liveness solves: one per global pass, shared by
    /// all of its regions.
    pub liveness_full: usize,
    /// Per-region scratch buffer bundles allocated by the global
    /// scheduler.
    pub scratch_allocs: usize,
    /// Block passes that reused a region's scratch buffers instead of
    /// reallocating them.
    pub scratch_reuses: usize,
    /// Monotonic wall time of each pipeline pass, in nanoseconds, indexed
    /// by [`gis_trace::Pass`] order (rename, unroll, global-1, rotate,
    /// global-2, final-bb). Zero for passes that did not run.
    pub pass_nanos: [u64; 6],
}

impl SchedStats {
    /// Accumulates another run's statistics into this one.
    pub fn absorb(&mut self, other: SchedStats) {
        for (mine, theirs) in self.pass_nanos.iter_mut().zip(other.pass_nanos) {
            *mine += theirs;
        }
        self.regions_scheduled += other.regions_scheduled;
        self.regions_skipped += other.regions_skipped;
        self.moved_useful += other.moved_useful;
        self.moved_speculative += other.moved_speculative;
        self.renamed_speculative += other.renamed_speculative;
        self.rejected_live_out += other.rejected_live_out;
        self.moved_duplicated += other.moved_duplicated;
        self.dup_copies_minted += other.dup_copies_minted;
        self.rejected_would_duplicate += other.rejected_would_duplicate;
        self.dup_copies_deduped += other.dup_copies_deduped;
        self.webs_renamed += other.webs_renamed;
        self.loops_unrolled += other.loops_unrolled;
        self.loops_rotated += other.loops_rotated;
        self.blocks_bb_scheduled += other.blocks_bb_scheduled;
        self.dep_edges += other.dep_edges;
        self.dep_edges_reduced += other.dep_edges_reduced;
        self.liveness_incremental += other.liveness_incremental;
        self.liveness_full += other.liveness_full;
        self.scratch_allocs += other.scratch_allocs;
        self.scratch_reuses += other.scratch_reuses;
    }

    /// The flat performance counters as `(name, value)` pairs, the names
    /// `gisc --metrics`, the HTML report and the daemon's metrics share.
    /// The `perf.` prefix keeps them grouped (and apart from the
    /// event-derived counters) in a sorted metrics listing.
    pub fn perf_counters(&self) -> [(&'static str, u64); 6] {
        [
            ("perf.dep-edges", self.dep_edges as u64),
            ("perf.dep-edges-reduced", self.dep_edges_reduced as u64),
            ("perf.liveness-full", self.liveness_full as u64),
            (
                "perf.liveness-incremental",
                self.liveness_incremental as u64,
            ),
            ("perf.scratch-allocs", self.scratch_allocs as u64),
            ("perf.scratch-reuses", self.scratch_reuses as u64),
        ]
    }
}

impl fmt::Display for SchedStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "regions {}(+{} skipped), moved {} useful / {} speculative / {} duplicated \
             ({} renamed, {} rejected), {} webs renamed, {} unrolled, {} rotated, {} bb-scheduled",
            self.regions_scheduled,
            self.regions_skipped,
            self.moved_useful,
            self.moved_speculative,
            self.moved_duplicated,
            self.renamed_speculative,
            self.rejected_live_out,
            self.webs_renamed,
            self.loops_unrolled,
            self.loops_rotated,
            self.blocks_bb_scheduled,
        )
    }
}
