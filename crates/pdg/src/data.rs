//! Data dependences (§4.2 of the paper).
//!
//! Dependences are computed instruction by instruction within a scope (a
//! region's blocks): *flow* (def→use), *anti* (use→def), *output*
//! (def→def) and *memory* dependences between instructions that touch
//! memory and cannot be proven independent. Only flow edges carry the
//! machine's pipeline delay; everything else constrains order only.
//!
//! Inter-block pairs are considered when the second block is reachable
//! from the first along forward control flow (the caller supplies the
//! reachability predicate, derived from the region's forward graph).
//!
//! [`DataDeps::reduce`] removes latency-redundant edges: an edge is
//! dropped when some other path already enforces at least as large a
//! separation — the practical effect of the paper's "no need to compute
//! the edge from a to c" transitive-closure observation.

use gis_ir::{BlockId, Function, InstId, MemRef, Op, Reg};
use gis_machine::MachineDescription;
use std::fmt;

/// The kind of a data dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// A register defined by `from` is used by `to`; carries a delay.
    Flow,
    /// A register used by `from` is defined by `to`.
    Anti,
    /// Both instructions define the same register.
    Output,
    /// Possibly-overlapping memory accesses (or calls), order-only.
    Memory,
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DepKind::Flow => "flow",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
            DepKind::Memory => "memory",
        };
        f.write_str(s)
    }
}

/// A data dependence edge: `to` must not be reordered above `from`, and
/// for timing purposes should start no earlier than
/// `start(from) + sep()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataDep {
    /// The earlier instruction.
    pub from: InstId,
    /// The later instruction.
    pub to: InstId,
    /// Why they are ordered.
    pub kind: DepKind,
    /// Extra pipeline delay beyond `from`'s execution time (flow edges
    /// only; zero otherwise).
    pub delay: u32,
    /// Execution time of `from` (cached so separation needs no machine).
    pub exec_from: u32,
}

impl DataDep {
    /// The timing separation this edge requires between the start of
    /// `from` and the start of `to`: `exec + delay` for flow edges, pure
    /// ordering (0) otherwise.
    pub fn sep(&self) -> u32 {
        match self.kind {
            DepKind::Flow => self.exec_from + self.delay,
            _ => 0,
        }
    }
}

/// Sentinel in the id→scope-position map for instructions outside the
/// scope.
const LOCAL_NONE: u32 = u32::MAX;

/// The data dependence graph of a scope's instructions.
///
/// Edges live in two CSR arenas indexed by *scope position*, not per
/// instruction id: a region scope is typically a small slice of the
/// function, and sizing per-instruction `Vec`s by the function's id
/// bound made every build pay for the whole function — while even
/// scope-sized `Vec<Vec<_>>` lists cost one heap allocation per
/// non-empty list (hundreds per region). One dense `u32` map
/// translates ids on access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataDeps {
    /// Edges into each position: `p`'s preds are
    /// `edges_in[in_off[p]..in_off[p + 1]]`.
    edges_in: Vec<DataDep>,
    in_off: Vec<u32>,
    /// Edges out of each position, same layout.
    edges_out: Vec<DataDep>,
    out_off: Vec<u32>,
    /// Instruction id → scope position, covering only the scope's
    /// compact id range `[id_base, id_base + local.len())`
    /// ([`LOCAL_NONE`] for in-range ids not in the scope).
    id_base: usize,
    local: Vec<u32>,
    /// Instructions of the scope in a topological-compatible order
    /// (block order as supplied, positions within blocks).
    order: Vec<InstId>,
    num_edges: usize,
}

/// Builds the two CSR arenas from edges in emission order. The scatter
/// is stable, so each position's `preds` / `succs` slice keeps exactly
/// the relative order in which its edges were emitted — both builders
/// emit in the reference's lexicographic pair order, so the slices
/// compare bit for bit.
fn csr_from_flat(
    n: usize,
    flat: &[(u32, u32, DataDep)],
) -> (Vec<DataDep>, Vec<u32>, Vec<DataDep>, Vec<u32>) {
    let m = flat.len();
    let mut in_off = vec![0u32; n + 1];
    let mut out_off = vec![0u32; n + 1];
    for &(fp, tp, _) in flat {
        out_off[fp as usize + 1] += 1;
        in_off[tp as usize + 1] += 1;
    }
    for p in 0..n {
        out_off[p + 1] += out_off[p];
        in_off[p + 1] += in_off[p];
    }
    if m == 0 {
        return (Vec::new(), in_off, Vec::new(), out_off);
    }
    let fill = flat[0].2;
    let mut edges_in = vec![fill; m];
    let mut edges_out = vec![fill; m];
    let mut ic: Vec<u32> = in_off[..n].to_vec();
    let mut oc: Vec<u32> = out_off[..n].to_vec();
    for &(fp, tp, dep) in flat {
        edges_out[oc[fp as usize] as usize] = dep;
        oc[fp as usize] += 1;
        edges_in[ic[tp as usize] as usize] = dep;
        ic[tp as usize] += 1;
    }
    (edges_in, in_off, edges_out, out_off)
}

/// The scope's instructions flattened with everything the pair
/// evaluation needs precomputed once per instruction (the `defs`/`uses`
/// accessors allocate, so evaluating them per *pair* dominated the old
/// builder's constant factor).
struct Scope<'f> {
    items: Vec<(BlockId, usize, InstId)>,
    ops: Vec<&'f Op>,
    /// Flat def/use arenas: instruction `p`'s defs are
    /// `def_regs[def_off[p]..def_off[p + 1]]` (likewise uses) — two
    /// allocations for the whole scope instead of two per instruction.
    def_regs: Vec<Reg>,
    def_off: Vec<u32>,
    use_regs: Vec<Reg>,
    use_off: Vec<u32>,
    /// Compact id→position map (see [`DataDeps::local`]).
    id_base: usize,
    local: Vec<u32>,
}

impl<'f> Scope<'f> {
    fn collect(f: &'f Function, blocks: &[BlockId]) -> (Vec<InstId>, Scope<'f>) {
        // Size everything in one cheap counting pass: instruction ids
        // need not start at zero (regions sit anywhere in the function),
        // so the id→position map covers only the scope's id range.
        let mut n = 0usize;
        let (mut id_min, mut id_max) = (usize::MAX, 0usize);
        for &b in blocks {
            for inst in f.block(b).insts() {
                n += 1;
                id_min = id_min.min(inst.id.index());
                id_max = id_max.max(inst.id.index());
            }
        }
        let id_base = if n == 0 { 0 } else { id_min };
        let span = if n == 0 { 0 } else { id_max - id_base + 1 };
        let mut order: Vec<InstId> = Vec::with_capacity(n);
        let mut scope = Scope {
            items: Vec::with_capacity(n),
            ops: Vec::with_capacity(n),
            def_regs: Vec::new(),
            def_off: Vec::with_capacity(n + 1),
            use_regs: Vec::new(),
            use_off: Vec::with_capacity(n + 1),
            id_base,
            local: vec![LOCAL_NONE; span],
        };
        scope.def_off.push(0);
        scope.use_off.push(0);
        for &b in blocks {
            for (pos, inst) in f.block(b).insts().enumerate() {
                scope.local[inst.id.index() - id_base] = order.len() as u32;
                order.push(inst.id);
                scope.items.push((b, pos, inst.id));
                scope.ops.push(&inst.op);
                inst.op.defs_into(&mut scope.def_regs);
                scope.def_off.push(scope.def_regs.len() as u32);
                inst.op.uses_into(&mut scope.use_regs);
                scope.use_off.push(scope.use_regs.len() as u32);
            }
        }
        (order, scope)
    }

    fn defs(&self, p: usize) -> &[Reg] {
        &self.def_regs[self.def_off[p] as usize..self.def_off[p + 1] as usize]
    }

    fn uses(&self, p: usize) -> &[Reg] {
        &self.use_regs[self.use_off[p] as usize..self.use_off[p + 1] as usize]
    }

    /// Evaluates one unordered pair of scope positions (`x < y` in
    /// flattened order) exactly as the original all-pairs loop did:
    /// orient, classify, and return the edge, if any. Both the sweep
    /// builder and the [`DataDeps::build_reference`] oracle go through
    /// this single function, so they cannot disagree on semantics —
    /// only on which pairs they bother to evaluate.
    fn pair_dep(
        &self,
        f: &Function,
        machine: &MachineDescription,
        may_follow: &impl Fn(BlockId, BlockId) -> bool,
        x: usize,
        y: usize,
    ) -> Option<DataDep> {
        let (a, b) = (self.items[x], self.items[y]);
        // Orient the pair: earlier instruction first. Same-block pairs
        // use program order; cross-block pairs use the forward
        // reachability predicate (at most one direction holds — the
        // scope's forward graph is acyclic).
        let (p, i) = if a.0 == b.0 || may_follow(a.0, b.0) {
            (x, y)
        } else if may_follow(b.0, a.0) {
            (y, x)
        } else {
            return None;
        };
        let (pb, pp, pid) = self.items[p];
        let (ib, ip, iid) = self.items[i];
        let (pop, iop) = (self.ops[p], self.ops[i]);
        let (p_defs, p_uses) = (self.defs(p), self.uses(p));
        let (i_defs, i_uses) = (self.defs(i), self.uses(i));

        let flow = p_defs.iter().any(|d| i_uses.contains(d));
        let anti = p_uses.iter().any(|u| i_defs.contains(u));
        let output = p_defs.iter().any(|d| i_defs.contains(d));
        let memory = pop.touches_memory()
            && iop.touches_memory()
            && (pop.writes_memory() || iop.writes_memory())
            && {
                let between_defs_base = base_redefined_between(f, pb, pp, ib, ip);
                may_alias(f, pop, iop, between_defs_base)
            };

        let kind = if flow {
            DepKind::Flow
        } else if memory {
            DepKind::Memory
        } else if output {
            DepKind::Output
        } else if anti {
            DepKind::Anti
        } else {
            return None;
        };
        let delay = if flow {
            machine.delay(pop.class(), iop.class())
        } else {
            0
        };
        Some(DataDep {
            from: pid,
            to: iid,
            kind,
            delay,
            exec_from: machine.exec_time(pop.class()),
        })
    }
}

/// Per-register sweep state: the scope positions of earlier defs and
/// uses, *version-stamped* — an entry belongs to the current build
/// only when its stamp matches the build's version, so successive
/// builds skip re-clearing the tables entirely (regions are scheduled
/// in a loop — per-build clearing of register-indexed tables was a
/// visible fraction of small-scope builds). Keeping a register's defs,
/// uses and stamp in one entry makes each register touch a single
/// random access, and the lists keep their capacity across builds, so
/// pushes stop allocating after a thread's first few regions.
/// Positions are pushed in sweep order, so every list is ascending and
/// gathers are contiguous forward scans.
#[derive(Default)]
struct RegEntry {
    stamp: u64,
    defs: Vec<u32>,
    uses: Vec<u32>,
}

const EMPTY_ENTRY: &RegEntry = &RegEntry {
    stamp: 0,
    defs: Vec::new(),
    uses: Vec::new(),
};

struct RegTable {
    entries: Vec<RegEntry>,
}

impl RegTable {
    const fn new() -> Self {
        RegTable {
            entries: Vec::new(),
        }
    }

    /// The register's entry for reading; a missing or stale entry reads
    /// as empty.
    fn get(&self, ver: u64, r: Reg) -> &RegEntry {
        match self.entries.get(r.index() as usize) {
            Some(e) if e.stamp == ver => e,
            _ => EMPTY_ENTRY,
        }
    }

    /// The register's entry for appending, grown and freshened on
    /// demand.
    fn fresh(&mut self, ver: u64, r: Reg) -> &mut RegEntry {
        let i = r.index() as usize;
        if i >= self.entries.len() {
            self.entries.resize_with(i + 1, RegEntry::default);
        }
        let e = &mut self.entries[i];
        if e.stamp != ver {
            e.stamp = ver;
            e.defs.clear();
            e.uses.clear();
        }
        e
    }
}

/// The per-thread sweep tables, one per register class.
struct SweepTables {
    ver: u64,
    regs: [RegTable; 3],
}

impl SweepTables {
    const fn new() -> Self {
        SweepTables {
            ver: 0,
            regs: [RegTable::new(), RegTable::new(), RegTable::new()],
        }
    }
}

thread_local! {
    static SWEEP_TABLES: std::cell::RefCell<SweepTables> =
        const { std::cell::RefCell::new(SweepTables::new()) };
}

/// Pushes every position of `list` not yet gathered for the current
/// instruction (stamp-deduplicated — `seen[i] == stamp` marks
/// already-gathered positions without clearing between instructions).
fn gather_list(list: &[u32], seen: &mut [u32], stamp: u32, cand: &mut Vec<u32>) {
    for &i in list {
        if seen[i as usize] != stamp {
            seen[i as usize] = stamp;
            cand.push(i);
        }
    }
}

fn may_alias(f: &Function, a: &Op, b: &Op, between_defs_base: bool) -> bool {
    // Calls (and PRINT) conflict with every memory toucher.
    let (Some((ma, _)), Some((mb, _))) = (a.mem_access(), b.mem_access()) else {
        return true;
    };
    // Distinct symbols never alias (arrays are disjoint objects).
    if let (Some(sa), Some(sb)) = (ma.sym, mb.sym) {
        if sa != sb {
            return false;
        }
    }
    // Same base register with no intervening redefinition: differing
    // displacements address different words.
    let _ = f;
    if ma.base == mb.base && !between_defs_base && disjoint_displacements(&ma, &mb) {
        return false;
    }
    true
}

fn disjoint_displacements(a: &MemRef, b: &MemRef) -> bool {
    // 4-byte words.
    let (lo_a, hi_a) = (a.disp, a.disp + 3);
    let (lo_b, hi_b) = (b.disp, b.disp + 3);
    hi_a < lo_b || hi_b < lo_a
}

impl DataDeps {
    /// Builds the dependence graph for the instructions of `blocks`
    /// (in the order given, which must be compatible with forward control
    /// flow). `may_follow(x, y)` must say whether block `y` can execute
    /// after block `x` within the scope along forward edges; same-block
    /// pairs use program order.
    ///
    /// A single sweep in flattened scope order: per register the sweep
    /// keeps the positions of every definition and use seen so far, plus
    /// one list of memory touchers and one of memory writers. Each
    /// instruction then evaluates only the earlier instructions it can
    /// possibly relate to — output-sensitive, versus the old all-pairs
    /// scan retained as [`Self::build_reference`]. The edge set, edge fields
    /// and the `preds`/`succs` orderings are identical to the
    /// reference's: every unordered pair yields at most one edge, the
    /// candidates for each `j` are emitted in ascending `i`, and `j`
    /// itself ascends — exactly the reference's lexicographic pair
    /// enumeration, list by list. `gis-check` fuzzes that equivalence
    /// and `crates/check/tests` pins it over seeded random functions.
    pub fn build(
        f: &Function,
        machine: &MachineDescription,
        blocks: &[BlockId],
        may_follow: impl Fn(BlockId, BlockId) -> bool,
    ) -> Self {
        let (order, scope) = Scope::collect(f, blocks);
        let n = scope.items.len();
        // `(from position, to position, edge)` in emission order; the
        // CSR scatter below turns it into the per-position slices.
        let mut flat: Vec<(u32, u32, DataDep)> = Vec::new();

        // Sweep state: per register, the positions of earlier defs /
        // uses, kept in the thread-local [`SweepTables`]
        // (version-stamped, so nothing is cleared between builds).
        // Memory touchers keep two plain position lists (split by
        // whether they write).
        let mut mem_touch: Vec<u32> = Vec::new();
        let mut mem_write: Vec<u32> = Vec::new();

        // Stamp-based dedup of the candidate list: `seen[i] == stamp`
        // marks position `i` as already gathered for the current `j`,
        // without clearing anything between instructions.
        let mut seen: Vec<u32> = vec![0; n];
        let mut cand: Vec<u32> = Vec::new();
        SWEEP_TABLES.with(|tables| {
            let mut tables = tables.borrow_mut();
            let SweepTables { ver, regs } = &mut *tables;
            *ver += 1;
            let ver = *ver;
            for j in 0..n {
                // Earlier instructions this one can possibly depend on:
                // defs of any register it reads or writes (flow /
                // output), uses of any register it writes (anti), and —
                // for memory ops — every earlier toucher if it writes,
                // else every earlier writer. A superset of the
                // edge-producing pairs; the pair evaluation rejects the
                // rest exactly as the all-pairs scan would have.
                let jstamp = j as u32 + 1;
                cand.clear();
                for &r in scope.uses(j) {
                    let e = regs[r.class().slot()].get(ver, r);
                    gather_list(&e.defs, &mut seen, jstamp, &mut cand);
                }
                for &r in scope.defs(j) {
                    let e = regs[r.class().slot()].get(ver, r);
                    gather_list(&e.defs, &mut seen, jstamp, &mut cand);
                    gather_list(&e.uses, &mut seen, jstamp, &mut cand);
                }
                let op = scope.ops[j];
                if op.touches_memory() {
                    if op.writes_memory() {
                        gather_list(&mem_touch, &mut seen, jstamp, &mut cand);
                    } else {
                        gather_list(&mem_write, &mut seen, jstamp, &mut cand);
                    }
                }
                cand.sort_unstable();
                for &i in &cand {
                    let Some(dep) = scope.pair_dep(f, machine, &may_follow, i as usize, j) else {
                        continue;
                    };
                    // `pair_dep` may orient the edge either way; record
                    // the endpoints as scope positions.
                    if dep.from == scope.items[i as usize].2 {
                        flat.push((i, j as u32, dep));
                    } else {
                        flat.push((j as u32, i, dep));
                    }
                }

                // Register this instruction in the sweep tables.
                for &r in scope.uses(j) {
                    regs[r.class().slot()].fresh(ver, r).uses.push(j as u32);
                }
                for &r in scope.defs(j) {
                    regs[r.class().slot()].fresh(ver, r).defs.push(j as u32);
                }
                if op.touches_memory() {
                    mem_touch.push(j as u32);
                    if op.writes_memory() {
                        mem_write.push(j as u32);
                    }
                }
            }
        });

        let num_edges = flat.len();
        let (edges_in, in_off, edges_out, out_off) = csr_from_flat(n, &flat);
        DataDeps {
            edges_in,
            in_off,
            edges_out,
            out_off,
            id_base: scope.id_base,
            local: scope.local,
            order,
            num_edges,
        }
    }

    /// The original all-pairs builder, kept verbatim as the
    /// differential oracle for [`build`](Self::build): same inputs,
    /// same output (checked by the `gis-check` test suite and used by
    /// the benchmark harness to measure the speedup). Quadratic in the
    /// scope size — the scheduler calls it only under its armed checks
    /// (debug builds, or a plugged-in verifier), to check each region's
    /// graph.
    pub fn build_reference(
        f: &Function,
        machine: &MachineDescription,
        blocks: &[BlockId],
        may_follow: impl Fn(BlockId, BlockId) -> bool,
    ) -> Self {
        let (order, scope) = Scope::collect(f, blocks);
        let n = scope.items.len();
        let mut flat: Vec<(u32, u32, DataDep)> = Vec::new();

        for pi in 0..n {
            for pj in pi + 1..n {
                let Some(dep) = scope.pair_dep(f, machine, &may_follow, pi, pj) else {
                    continue;
                };
                if dep.from == scope.items[pi].2 {
                    flat.push((pi as u32, pj as u32, dep));
                } else {
                    flat.push((pj as u32, pi as u32, dep));
                }
            }
        }

        let num_edges = flat.len();
        let (edges_in, in_off, edges_out, out_off) = csr_from_flat(n, &flat);
        DataDeps {
            edges_in,
            in_off,
            edges_out,
            out_off,
            id_base: scope.id_base,
            local: scope.local,
            order,
            num_edges,
        }
    }

    /// The scope position of `i`: its index in [`Self::scope_order`],
    /// or `None` for instructions outside the scope. Callers index
    /// per-scope tables by it instead of by instruction id.
    pub fn position(&self, i: InstId) -> Option<usize> {
        // Ids below the base wrap around and fall off the map's end.
        match self.local.get(i.index().wrapping_sub(self.id_base)) {
            Some(&p) if p != LOCAL_NONE => Some(p as usize),
            _ => None,
        }
    }

    /// Dependence edges into `i` (instructions `i` must wait for).
    /// Empty for instructions outside the scope.
    pub fn preds(&self, i: InstId) -> &[DataDep] {
        self.position(i).map_or(&[], |p| self.preds_at(p))
    }

    /// Dependence edges out of `i`. Empty for instructions outside the
    /// scope.
    pub fn succs(&self, i: InstId) -> &[DataDep] {
        self.position(i).map_or(&[], |p| self.succs_at(p))
    }

    fn preds_at(&self, p: usize) -> &[DataDep] {
        &self.edges_in[self.in_off[p] as usize..self.in_off[p + 1] as usize]
    }

    fn succs_at(&self, p: usize) -> &[DataDep] {
        &self.edges_out[self.out_off[p] as usize..self.out_off[p + 1] as usize]
    }

    /// Total number of edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The scope's instructions in dependence-compatible order.
    pub fn scope_order(&self) -> &[InstId] {
        &self.order
    }

    /// Removes latency-redundant edges: an edge `(a, c)` is dropped when a
    /// path of other edges from `a` to `c` already enforces a separation
    /// of at least `sep(a, c)`. The surviving graph admits exactly the
    /// same schedules.
    pub fn reduce(&mut self) {
        let n = self.order.len();
        // Topologically sort the scope positions by dependence edges
        // (the scope block list need not have been supplied in execution
        // order). Kahn's algorithm; the edge set is acyclic by
        // construction, and every edge endpoint is a scope instruction,
        // so `self.local` translates ids to positions throughout.
        const NONE: u32 = u32::MAX;
        let base = self.id_base;
        let pos_of = move |local: &[u32], id: InstId| local[id.index() - base] as usize;
        let mut indeg = vec![0usize; n];
        for p in 0..n {
            for e in self.succs_at(p) {
                indeg[pos_of(&self.local, e.to)] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut topo: Vec<usize> = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            topo.push(i);
            for e in self.succs_at(i) {
                let j = pos_of(&self.local, e.to);
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push(j);
                }
            }
        }
        debug_assert_eq!(topo.len(), n, "dependence graph must be acyclic");
        // NOTE: `self.order` keeps the *program* order (the scheduler's
        // original-order tie-break depends on it); `topo` only drives the
        // longest-path DP below.
        let mut topo_index = vec![NONE; n];
        for (i, &p) in topo.iter().enumerate() {
            topo_index[p] = i as u32;
        }
        // Longest separation between scope instructions, -inf = unreachable,
        // indexed by topological position.
        const NEG: i64 = i64::MIN / 4;
        let mut longest = vec![vec![NEG; n]; n];
        for i in (0..n).rev() {
            let a = topo[i];
            // Detach row i so the rows it reads stay borrowable.
            let mut row = std::mem::take(&mut longest[i]);
            row[i] = 0;
            for dep in self.succs_at(a) {
                let j = topo_index[pos_of(&self.local, dep.to)] as usize;
                let w = dep.sep() as i64;
                for (cur, &lj) in row.iter_mut().zip(&longest[j]) {
                    if lj > NEG && w + lj > *cur {
                        *cur = w + lj;
                    }
                }
            }
            longest[i] = row;
        }

        // Redundancy is judged against the *original* graph (the paths
        // in `longest` and each node's own full out list), so the keep
        // decision for every out edge is independent; decide them all,
        // then rebuild both arenas in one pass each.
        let m = self.edges_out.len();
        let mut keep = vec![true; m];
        let mut removed_keys: Vec<u64> = Vec::new();
        for a in 0..n {
            let lo = self.out_off[a] as usize;
            for (off, e) in self.succs_at(a).iter().enumerate() {
                let c = topo_index[pos_of(&self.local, e.to)] as usize;
                // Redundant when some first hop b != c already reaches
                // c with at least sep(e).
                let redundant = self.succs_at(a).iter().any(|first| {
                    if first.to == e.to {
                        return false;
                    }
                    let b = topo_index[pos_of(&self.local, first.to)] as usize;
                    longest[b][c] > NEG && first.sep() as i64 + longest[b][c] >= e.sep() as i64
                });
                if redundant {
                    keep[lo + off] = false;
                    removed_keys.push((a as u64) << 32 | c as u64);
                }
            }
        }
        if removed_keys.is_empty() {
            return;
        }
        removed_keys.sort_unstable();

        // Out side: filter by index; in side: an edge's identity is its
        // (from, to) position pair — unique, since each unordered pair
        // yields at most one edge.
        let mut edges_out = Vec::with_capacity(m - removed_keys.len());
        let mut out_off = vec![0u32; n + 1];
        let mut edges_in = Vec::with_capacity(m - removed_keys.len());
        let mut in_off = vec![0u32; n + 1];
        for a in 0..n {
            let lo = self.out_off[a] as usize;
            for (off, e) in self.succs_at(a).iter().enumerate() {
                if keep[lo + off] {
                    edges_out.push(*e);
                }
            }
            out_off[a + 1] = edges_out.len() as u32;
        }
        for t in 0..n {
            for e in self.preds_at(t) {
                let a = pos_of(&self.local, e.from) as u64;
                let c = topo_index[pos_of(&self.local, e.to)] as u64;
                if removed_keys.binary_search(&(a << 32 | c)).is_err() {
                    edges_in.push(*e);
                }
            }
            in_off[t + 1] = edges_in.len() as u32;
        }
        self.num_edges -= removed_keys.len();
        self.edges_out = edges_out;
        self.out_off = out_off;
        self.edges_in = edges_in;
        self.in_off = in_off;
    }
}

/// Whether the shared base register of two memory ops could be redefined
/// between them. Only same-block pairs with no intervening definition are
/// declared safe; everything else is conservatively "maybe redefined".
fn base_redefined_between(f: &Function, pb: BlockId, pp: usize, ib: BlockId, ip: usize) -> bool {
    if pb != ib {
        return true; // conservatively assume redefinition across blocks
    }
    let block = f.block(pb);
    let Some((mem_p, _)) = block.inst_at(pp).op.mem_access() else {
        return true;
    };
    let base = mem_p.base;
    // The earlier instruction itself may update the base (LU/STU).
    if block.inst_at(pp).op.has_tied_base() {
        return true;
    }
    (pp + 1..ip).any(|x| block.inst_at(x).op.defs().contains(&base))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_ir::parse_function;

    fn deps_for(text: &str) -> (Function, DataDeps) {
        let f = parse_function(text).expect("parses");
        let m = MachineDescription::rs6k();
        let blocks: Vec<BlockId> = f.block_ids().collect();
        // Straight-line tests: layout order is execution order.
        let d = DataDeps::build(&f, &m, &blocks, |x, y| x < y);
        (f, d)
    }

    fn edge(d: &DataDeps, from: u32, to: u32) -> Option<DataDep> {
        d.succs(InstId::new(from))
            .iter()
            .copied()
            .find(|e| e.to == InstId::new(to))
    }

    #[test]
    fn figure2_bl1_dependences() {
        // §4.2 works through BL1: anti (I1,I2); flow (I2,I3) with delay 1
        // (delayed load); flow (I3,I4) with delay 3 (compare→branch);
        // (I1,I3) is transitive... but with delays it is NOT redundant
        // before reduction — the paper drops it because its required
        // separation is implied. Check both phases.
        let (_, mut d) = deps_for(
            "func bl1\nCL.0:\n\
             (I1) L  r12=a(r31,4)\n\
             (I2) LU r0,r31=a(r31,8)\n\
             (I3) C  cr7=r12,r0\n\
             (I4) BF CL.0,cr7,0x2/gt\n\
             E:\n RET\n",
        );
        let a12 = edge(&d, 1, 2).expect("anti I1->I2");
        assert_eq!(a12.kind, DepKind::Anti);
        assert_eq!(a12.sep(), 0);

        let f23 = edge(&d, 2, 3).expect("flow I2->I3");
        assert_eq!(f23.kind, DepKind::Flow);
        assert_eq!(f23.delay, 1, "delayed load");
        assert_eq!(f23.sep(), 2);

        let f34 = edge(&d, 3, 4).expect("flow I3->I4");
        assert_eq!(f34.delay, 3, "compare→branch");

        // I1 -> I3 exists (flow through r12) before reduction...
        let f13 = edge(&d, 1, 3).expect("flow I1->I3");
        assert_eq!(f13.delay, 1, "I1 is also a delayed load");
        // ...but is implied by I1->I2->I3? sep(I1,I2)=0 (anti), so the
        // path enforces only 2 while the edge needs 2: 0 + sep(I2->I3)=2
        // >= 2, so reduction drops it.
        d.reduce();
        assert!(edge(&d, 1, 3).is_none(), "transitive edge eliminated");
        assert!(edge(&d, 2, 3).is_some(), "direct edges survive");
        assert!(edge(&d, 3, 4).is_some());
    }

    #[test]
    fn reduction_keeps_longer_direct_edges() {
        // a: load feeds c (sep 2); path a->b->c has sep 0+0: must keep a->c.
        let (_, mut d) = deps_for(
            "func k\nA:\n\
             (I0) L  r1=a(r9,0)\n\
             (I1) AI r9=r9,4\n\
             (I2) AI r1=r1,1\n\
             RET\n",
        );
        // I0->I1: anti on r9 (I0 uses r9, I1 defines r9). I0->I2 flow on r1
        // (sep 2). I1->I2: nothing (r9 vs r1)... so no path; edge kept.
        d.reduce();
        let f02 = edge(&d, 0, 2).expect("flow survives");
        assert_eq!(f02.sep(), 2);
    }

    #[test]
    fn memory_dependences_and_disambiguation() {
        let (_, d) = deps_for(
            "func m\nA:\n\
             (I0) ST r1=>a(r9,0)\n\
             (I1) L  r2=a(r9,4)\n\
             (I2) L  r3=a(r9,0)\n\
             (I3) ST r4=>b(r8,0)\n\
             (I4) LI r9=0\n\
             (I5) L  r5=a(r9,0)\n\
             RET\n",
        );
        // Same base, different disp: no dep store->load.
        assert!(
            edge(&d, 0, 1).is_none(),
            "disjoint words proved independent"
        );
        // Same base, same disp: memory dep.
        assert_eq!(edge(&d, 0, 2).expect("overlap").kind, DepKind::Memory);
        // Different symbols never alias.
        assert!(edge(&d, 0, 3).is_none());
        // After r9 is redefined the displacement argument no longer holds:
        // I0 (a(r9,0) with old r9) vs I5 (a(r9,0) with new r9) — same
        // symbol, same disp, conservative dep.
        assert_eq!(edge(&d, 0, 5).map(|e| e.kind), Some(DepKind::Memory));
        // Loads never depend on loads.
        assert!(edge(&d, 1, 2).is_none());
    }

    #[test]
    fn update_form_base_blocks_disambiguation() {
        let (_, d) = deps_for(
            "func u\nA:\n\
             (I0) STU r1=>a(r9,4)\n\
             (I1) L  r2=a(r9,8)\n\
             RET\n",
        );
        // After STU, r9 has moved: cannot compare displacements; the pair
        // stays dependent — and there is also a flow dep via r9 itself.
        let e = edge(&d, 0, 1).expect("dependent");
        assert_eq!(e.kind, DepKind::Flow, "register flow via the updated base");
    }

    #[test]
    fn calls_are_memory_barriers() {
        let (_, d) = deps_for(
            "func c\nA:\n\
             (I0) ST r1=>a(r9,0)\n\
             (I1) CALL f()->()\n\
             (I2) L  r2=a(r9,0)\n\
             RET\n",
        );
        assert_eq!(edge(&d, 0, 1).expect("store vs call").kind, DepKind::Memory);
        assert_eq!(edge(&d, 1, 2).expect("call vs load").kind, DepKind::Memory);
    }

    #[test]
    fn interblock_dependences_follow_reachability() {
        let f = parse_function(
            "func ib\n\
             A:\n (I0) LI r1=1\n C cr0=r1,r2\n BT C,cr0,0x1/lt\n\
             B:\n (I3) AI r3=r1,1\n B D\n\
             C:\n (I5) AI r4=r1,2\n\
             D:\n RET\n",
        )
        .expect("parses");
        let m = MachineDescription::rs6k();
        let blocks: Vec<BlockId> = f.block_ids().collect();
        // B and C are mutually unreachable (diamond arms).
        let reach = |x: BlockId, y: BlockId| !(x.index() == 1 && y.index() == 2) && x < y;
        let d = DataDeps::build(&f, &m, &blocks, reach);
        assert!(edge(&d, 0, 3).is_some(), "A's def reaches B's use");
        assert!(edge(&d, 0, 5).is_some(), "A's def reaches C's use");
        // r3 and r4 don't interact across the arms; nothing else links them.
        assert!(edge(&d, 3, 5).is_none());
    }

    #[test]
    fn sweep_matches_reference_on_interblock_scope() {
        // Same scope as `interblock_dependences_follow_reachability`,
        // plus memory traffic: the sweep and the all-pairs oracle must
        // agree bit for bit (edge set AND per-instruction ordering).
        let f = parse_function(
            "func ib\n\
             A:\n (I0) LI r1=1\n (I1) ST r1=>a(r9,0)\n (I2) C cr0=r1,r2\n BT C,cr0,0x1/lt\n\
             B:\n (I4) L r3=a(r9,0)\n (I5) AI r3=r3,1\n B D\n\
             C:\n (I7) AI r4=r1,2\n\
             D:\n (I8) ST r4=>a(r9,4)\n RET\n",
        )
        .expect("parses");
        let m = MachineDescription::rs6k();
        let blocks: Vec<BlockId> = f.block_ids().collect();
        let reach = |x: BlockId, y: BlockId| {
            !((x.index() == 1 && y.index() == 2) || (x.index() == 2 && y.index() == 1)) && x < y
        };
        let fast = DataDeps::build(&f, &m, &blocks, reach);
        let slow = DataDeps::build_reference(&f, &m, &blocks, reach);
        assert_eq!(fast, slow);
        assert!(fast.num_edges() > 0);
    }

    #[test]
    fn output_and_anti_edges() {
        let (_, d) = deps_for(
            "func oa\nA:\n\
             (I0) LI r1=1\n\
             (I1) PRINT r1\n\
             (I2) LI r1=2\n\
             RET\n",
        );
        assert_eq!(edge(&d, 0, 2).expect("def-def").kind, DepKind::Output);
        assert_eq!(edge(&d, 1, 2).expect("use-def").kind, DepKind::Anti);
        assert_eq!(edge(&d, 0, 1).expect("def-use").kind, DepKind::Flow);
    }
}
