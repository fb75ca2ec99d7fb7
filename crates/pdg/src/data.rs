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
//! the edge from a to c" transitive-closure observation. It reduces the
//! edges inside each block with a table over that block alone and keeps
//! every cross-block edge; [`DataDeps::reduce_reference`], the
//! whole-scope reduction, is its oracle (see `docs/PAPER_MAP.md` for
//! why the two agree wherever the schedule looks).

use gis_cfg::group_into;
use gis_ir::{BlockId, Function, InstId, MemRef, OpClass, Reg};
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
/// `start(from) + sep()`. Both endpoints are scope positions: indices
/// into [`DataDeps::scope_order`], the one name an instruction has
/// inside a region pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataDep {
    /// The earlier instruction's scope position.
    pub from: u32,
    /// The later instruction's scope position.
    pub to: u32,
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

/// The data dependence graph of a scope's instructions.
///
/// Edges live in two CSR arenas indexed by *scope position*, not per
/// instruction id: a region scope is typically a small slice of the
/// function, and sizing per-instruction `Vec`s by the function's id
/// bound made every build pay for the whole function — while even
/// scope-sized `Vec<Vec<_>>` lists cost one heap allocation per
/// non-empty list (hundreds per region). Edges name their endpoints by
/// position too, so walking the graph never translates an id; one
/// id→position table ([`Self::position`]) names an instruction read from
/// the function.
///
/// [`DataDeps::rebuild`] refills a graph in place: a scheduler that keeps
/// one graph for a whole pass allocates only while its arrays grow.
#[derive(Debug, Default)]
pub struct DataDeps {
    /// Edges into each position: `p`'s preds are
    /// `edges_in[in_off[p]..in_off[p + 1]]`.
    edges_in: Vec<DataDep>,
    in_off: Vec<u32>,
    /// Edges out of each position, same layout.
    edges_out: Vec<DataDep>,
    out_off: Vec<u32>,
    /// Instructions of the scope in a topological-compatible order
    /// (block order as supplied, positions within blocks).
    order: Vec<InstId>,
    /// Block boundaries: the `k`-th supplied block holds positions
    /// `block_off[k]..block_off[k + 1]`, in program order.
    block_off: Vec<u32>,
    /// Instruction id → scope position.
    positions: PositionTable,
    /// What the pair evaluation reads of each position.
    scope: Scope,
    /// Buffers of the construction and reduction, kept for the next
    /// rebuild.
    scratch: Scratch,
}

/// Two graphs are equal when they order the same instructions into the
/// same blocks and hold the same edges in the same lists; the id table
/// follows from the order, and buffers do not count.
impl PartialEq for DataDeps {
    fn eq(&self, other: &Self) -> bool {
        self.order == other.order
            && self.block_off == other.block_off
            && self.in_off == other.in_off
            && self.edges_in == other.edges_in
            && self.out_off == other.out_off
            && self.edges_out == other.edges_out
    }
}

impl Eq for DataDeps {}

/// A clone holds the graph and its id table; the construction buffers
/// start empty, since only a rebuild reads them.
impl Clone for DataDeps {
    fn clone(&self) -> Self {
        DataDeps {
            edges_in: self.edges_in.clone(),
            in_off: self.in_off.clone(),
            edges_out: self.edges_out.clone(),
            out_off: self.out_off.clone(),
            order: self.order.clone(),
            block_off: self.block_off.clone(),
            positions: self.positions.clone(),
            scope: Scope::default(),
            scratch: Scratch::default(),
        }
    }
}

/// Ids per page of a [`PositionTable`], as a power of two.
const PAGE_BITS: u32 = 8;
const PAGE: usize = 1 << PAGE_BITS;

/// Instruction id → scope position, version-stamped and paged. Ids come
/// in pages of [`PAGE`] consecutive ids, and a page exists once some
/// scope held one of its ids, so the table grows with the ids in use,
/// not with their magnitude: one explicit `(I1048575)` in a function
/// adds a page and a directory, not a million entries. Each rebuild
/// starts a new version and writes only its own scope's entries; an
/// entry of an older version reads as absent, so nothing is cleared
/// between scopes.
#[derive(Debug, Clone, Default)]
struct PositionTable {
    /// Page number → 1 + the page's index in `slots` (0: no page).
    dir: Vec<u32>,
    /// The pages' `(version, position)` entries.
    slots: Vec<(u32, u32)>,
    version: u32,
}

impl PositionTable {
    /// Starts a new scope: every entry reads as absent.
    fn begin(&mut self) {
        self.version = self.version.wrapping_add(1);
        if self.version == 0 {
            self.slots.fill((0, 0));
            self.version = 1;
        }
    }

    fn set(&mut self, id: InstId, pos: u32) {
        let (page, at) = (id.index() >> PAGE_BITS, id.index() & (PAGE - 1));
        if page >= self.dir.len() {
            self.dir.resize(page + 1, 0);
        }
        if self.dir[page] == 0 {
            self.slots.resize(self.slots.len() + PAGE, (0, 0));
            self.dir[page] = (self.slots.len() / PAGE) as u32;
        }
        self.slots[(self.dir[page] as usize - 1) * PAGE + at] = (self.version, pos);
    }

    fn get(&self, id: InstId) -> Option<usize> {
        let (page, at) = (id.index() >> PAGE_BITS, id.index() & (PAGE - 1));
        match self.dir.get(page) {
            Some(&d) if d > 0 => match self.slots[(d as usize - 1) * PAGE + at] {
                (v, p) if v == self.version => Some(p as usize),
                _ => None,
            },
            _ => None,
        }
    }
}

/// What the pair evaluation reads of one scope instruction, gathered
/// once per instruction.
#[derive(Debug, Clone, Copy)]
struct Facts {
    block: BlockId,
    class: OpClass,
    /// Reads or writes memory, or may (calls).
    touches_memory: bool,
    writes_memory: bool,
    /// The plain memory reference of a load or store.
    mem: Option<MemRef>,
    /// An update form: the access also moves its base.
    tied_base: bool,
}

/// The scope's instructions flattened with everything the pair
/// evaluation needs precomputed once per instruction (the `defs`/`uses`
/// accessors allocate, so evaluating them per *pair* dominated the old
/// builder's constant factor).
#[derive(Debug, Clone, Default)]
struct Scope {
    facts: Vec<Facts>,
    /// Flat def/use arenas: instruction `p`'s defs are
    /// `def_regs[def_off[p]..def_off[p + 1]]` (likewise uses) — two
    /// arrays for the whole scope instead of two per instruction.
    def_regs: Vec<Reg>,
    def_off: Vec<u32>,
    use_regs: Vec<Reg>,
    use_off: Vec<u32>,
}

/// The construction's and reduction's working arrays.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Edges in emission order, before the CSR scatter.
    flat: Vec<DataDep>,
    mem_touch: Vec<u32>,
    mem_write: Vec<u32>,
    seen: Vec<u32>,
    cand: Vec<u32>,
    removed: Vec<u32>,
    removed_in: Vec<u32>,
    longest: Vec<i32>,
}

impl Scope {
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
        machine: &MachineDescription,
        may_follow: &impl Fn(BlockId, BlockId) -> bool,
        x: usize,
        y: usize,
    ) -> Option<DataDep> {
        let (a, b) = (self.facts[x].block, self.facts[y].block);
        // Orient the pair: earlier instruction first. Same-block pairs
        // use program order; cross-block pairs use the forward
        // reachability predicate (at most one direction holds — the
        // scope's forward graph is acyclic).
        let (p, i) = if a == b || may_follow(a, b) {
            (x, y)
        } else if may_follow(b, a) {
            (y, x)
        } else {
            return None;
        };
        let (fp, fi) = (self.facts[p], self.facts[i]);
        let (p_defs, p_uses) = (self.defs(p), self.uses(p));
        let (i_defs, i_uses) = (self.defs(i), self.uses(i));

        let flow = p_defs.iter().any(|d| i_uses.contains(d));
        let anti = p_uses.iter().any(|u| i_defs.contains(u));
        let output = p_defs.iter().any(|d| i_defs.contains(d));
        let memory = fp.touches_memory
            && fi.touches_memory
            && (fp.writes_memory || fi.writes_memory)
            && may_alias(&fp, &fi, self.base_redefined_between(p, i));

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
            machine.delay(fp.class, fi.class)
        } else {
            0
        };
        Some(DataDep {
            from: p as u32,
            to: i as u32,
            kind,
            delay,
            exec_from: machine.exec_time(fp.class),
        })
    }

    /// Whether the shared base register of the memory ops at positions
    /// `p < i` could be redefined between them. Only same-block pairs
    /// with no intervening definition are declared safe; everything else
    /// is conservatively "maybe redefined". A block's instructions hold
    /// consecutive positions, so the ones between are `p + 1..i`.
    fn base_redefined_between(&self, p: usize, i: usize) -> bool {
        let fp = &self.facts[p];
        if fp.block != self.facts[i].block {
            return true; // conservatively assume redefinition across blocks
        }
        let Some(mem_p) = fp.mem else {
            return true;
        };
        // The earlier instruction itself may update the base (LU/STU).
        if fp.tied_base {
            return true;
        }
        (p + 1..i).any(|x| self.defs(x).contains(&mem_p.base))
    }
}

/// Per-register sweep state: the scope positions of earlier defs and
/// uses, as linked lists threaded through one flat arena
/// (`links`), with each register's list heads *version-stamped* — a
/// head belongs to the current build only when its stamp matches the
/// build's version, so successive builds skip re-clearing the tables
/// entirely (regions are scheduled in a loop — per-build clearing of
/// register-indexed tables was a visible fraction of small-scope
/// builds). Keeping a register's heads and stamp in one entry makes
/// each register touch a single random access, and no register owns a
/// list of its own: the tables stop allocating once a thread's arrays
/// have grown to its largest scope and register index. The gather
/// order within a list does not matter, since the candidates are
/// deduplicated and sorted before they are evaluated.
#[derive(Clone, Copy, Default)]
struct Heads {
    stamp: u64,
    /// 1 + the `links` index of the register's latest def (0: none).
    defs: u32,
    /// Same, for uses.
    uses: u32,
}

/// The per-thread sweep tables.
struct SweepTables {
    ver: u64,
    /// Per register class, by register index.
    heads: [Vec<Heads>; 3],
    /// `(position, 1 + the index of the next older link of the same
    /// list, or 0)`.
    links: Vec<(u32, u32)>,
}

impl SweepTables {
    const fn new() -> Self {
        SweepTables {
            ver: 0,
            heads: [Vec::new(), Vec::new(), Vec::new()],
            links: Vec::new(),
        }
    }

    /// Starts a build: every register's lists read as empty.
    fn begin(&mut self) {
        self.ver += 1;
        self.links.clear();
    }

    /// The register's heads; a missing or stale entry reads as empty.
    fn heads(&self, r: Reg) -> Heads {
        match self.heads[r.class().slot()].get(r.index() as usize) {
            Some(&h) if h.stamp == self.ver => h,
            _ => Heads::default(),
        }
    }

    /// Pushes every position of the list starting at link `head` not
    /// yet gathered for the current instruction (stamp-deduplicated —
    /// `seen[i] == stamp` marks already-gathered positions without
    /// clearing between instructions).
    fn gather(&self, mut head: u32, seen: &mut [u32], stamp: u32, cand: &mut Vec<u32>) {
        while head != 0 {
            let (i, next) = self.links[head as usize - 1];
            if seen[i as usize] != stamp {
                seen[i as usize] = stamp;
                cand.push(i);
            }
            head = next;
        }
    }

    /// Records position `p` as a def (`def`) or use of `r`.
    fn push(&mut self, r: Reg, p: u32, def: bool) {
        let (ver, table) = (self.ver, &mut self.heads[r.class().slot()]);
        let i = r.index() as usize;
        if i >= table.len() {
            table.resize(i + 1, Heads::default());
        }
        let h = &mut table[i];
        if h.stamp != ver {
            *h = Heads {
                stamp: ver,
                defs: 0,
                uses: 0,
            };
        }
        let head = if def { &mut h.defs } else { &mut h.uses };
        self.links.push((p, *head));
        *head = self.links.len() as u32;
    }
}

thread_local! {
    static SWEEP_TABLES: std::cell::RefCell<SweepTables> =
        const { std::cell::RefCell::new(SweepTables::new()) };
}

/// Pushes every position of `list` not yet gathered for the current
/// instruction (see [`SweepTables::gather`]).
fn gather_list(list: &[u32], seen: &mut [u32], stamp: u32, cand: &mut Vec<u32>) {
    for &i in list {
        if seen[i as usize] != stamp {
            seen[i as usize] = stamp;
            cand.push(i);
        }
    }
}

fn may_alias(a: &Facts, b: &Facts, between_defs_base: bool) -> bool {
    // Calls (and PRINT) conflict with every memory toucher.
    let (Some(ma), Some(mb)) = (a.mem, b.mem) else {
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
        let mut deps = DataDeps::default();
        deps.rebuild(f, machine, blocks, may_follow);
        deps
    }

    /// [`DataDeps::build`] in place: this graph becomes the graph of
    /// `blocks`, reusing every array it holds.
    pub fn rebuild(
        &mut self,
        f: &Function,
        machine: &MachineDescription,
        blocks: &[BlockId],
        may_follow: impl Fn(BlockId, BlockId) -> bool,
    ) {
        self.collect(f, blocks);
        let (scope, s) = (&self.scope, &mut self.scratch);
        let n = scope.facts.len();
        // Edges in emission order; the CSR scatter below turns them into
        // the per-position slices.
        s.flat.clear();

        // Sweep state: per register, the positions of earlier defs /
        // uses, kept in the thread-local [`SweepTables`]
        // (version-stamped, so nothing is cleared between builds).
        // Memory touchers keep two plain position lists (split by
        // whether they write).
        s.mem_touch.clear();
        s.mem_write.clear();
        s.mem_touch.reserve(n);
        s.mem_write.reserve(n);
        s.cand.reserve(n);
        s.flat.reserve(n);

        // Stamp-based dedup of the candidate list: `seen[i] == stamp`
        // marks position `i` as already gathered for the current `j`,
        // without clearing anything between instructions.
        s.seen.clear();
        s.seen.resize(n, 0);
        let Scratch {
            flat,
            mem_touch,
            mem_write,
            seen,
            cand,
            ..
        } = s;
        SWEEP_TABLES.with(|tables| {
            let tables = &mut *tables.borrow_mut();
            tables.begin();
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
                    tables.gather(tables.heads(r).defs, seen, jstamp, cand);
                }
                for &r in scope.defs(j) {
                    let h = tables.heads(r);
                    tables.gather(h.defs, seen, jstamp, cand);
                    tables.gather(h.uses, seen, jstamp, cand);
                }
                let facts = scope.facts[j];
                if facts.touches_memory {
                    if facts.writes_memory {
                        gather_list(mem_touch, seen, jstamp, cand);
                    } else {
                        gather_list(mem_write, seen, jstamp, cand);
                    }
                }
                cand.sort_unstable();
                flat.extend(
                    cand.iter()
                        .filter_map(|&i| scope.pair_dep(machine, &may_follow, i as usize, j)),
                );

                // Register this instruction in the sweep tables.
                for &r in scope.uses(j) {
                    tables.push(r, j as u32, false);
                }
                for &r in scope.defs(j) {
                    tables.push(r, j as u32, true);
                }
                if facts.touches_memory {
                    mem_touch.push(j as u32);
                    if facts.writes_memory {
                        mem_write.push(j as u32);
                    }
                }
            }
        });
        self.scatter_edges();
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
        let mut deps = DataDeps::default();
        deps.collect(f, blocks);
        let n = deps.order.len();
        let mut flat: Vec<DataDep> = Vec::new();

        for pi in 0..n {
            for pj in pi + 1..n {
                flat.extend(deps.scope.pair_dep(machine, &may_follow, pi, pj));
            }
        }

        deps.scratch.flat = flat;
        deps.scatter_edges();
        deps
    }

    /// Flattens the instructions of `blocks` into scope positions: the
    /// order, the block boundaries, the id table and each position's
    /// facts and register lists.
    fn collect(&mut self, f: &Function, blocks: &[BlockId]) {
        let (order, block_off, scope) = (&mut self.order, &mut self.block_off, &mut self.scope);
        self.positions.begin();
        order.clear();
        block_off.clear();
        scope.facts.clear();
        scope.def_regs.clear();
        scope.def_off.clear();
        scope.use_regs.clear();
        scope.use_off.clear();
        // Each array grows at most once per scope, not once per doubling.
        let n: usize = blocks.iter().map(|&b| f.block(b).len()).sum();
        order.reserve(n);
        block_off.reserve(blocks.len() + 1);
        scope.facts.reserve(n);
        scope.def_regs.reserve(n);
        scope.def_off.reserve(n + 1);
        scope.use_regs.reserve(2 * n);
        scope.use_off.reserve(n + 1);
        scope.def_off.push(0);
        scope.use_off.push(0);
        for &b in blocks {
            block_off.push(order.len() as u32);
            for inst in f.block(b).insts() {
                let op = &inst.op;
                self.positions.set(inst.id, order.len() as u32);
                order.push(inst.id);
                scope.facts.push(Facts {
                    block: b,
                    class: op.class(),
                    touches_memory: op.touches_memory(),
                    writes_memory: op.writes_memory(),
                    mem: op.mem_access().map(|(m, _)| m),
                    tied_base: op.has_tied_base(),
                });
                op.defs_into(&mut scope.def_regs);
                scope.def_off.push(scope.def_regs.len() as u32);
                op.uses_into(&mut scope.use_regs);
                scope.use_off.push(scope.use_regs.len() as u32);
            }
        }
        block_off.push(order.len() as u32);
    }

    /// Builds the two CSR arenas from the edges in emission order. The
    /// scatter is stable, so each position's `preds` / `succs` slice
    /// keeps exactly the relative order in which its edges were emitted
    /// — both builders emit in the reference's lexicographic pair order,
    /// so the slices compare bit for bit.
    fn scatter_edges(&mut self) {
        let (n, flat) = (self.order.len(), &self.scratch.flat);
        let edges = flat.iter().map(|d| (d.to as usize, *d));
        group_into(n, edges, &mut self.in_off, &mut self.edges_in);
        let edges = flat.iter().map(|d| (d.from as usize, *d));
        group_into(n, edges, &mut self.out_off, &mut self.edges_out);
    }

    /// The scope position of `i`: its index in [`Self::scope_order`],
    /// or `None` for instructions outside the scope. The one id→position
    /// translation: a pass calls it where it reads an instruction from
    /// the function, then indexes edges and per-scope tables by the
    /// position.
    pub fn position(&self, i: InstId) -> Option<usize> {
        self.positions.get(i)
    }

    /// Dependence edges into scope position `p` (instructions it must
    /// wait for).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a scope position.
    pub fn preds(&self, p: usize) -> &[DataDep] {
        &self.edges_in[self.in_off[p] as usize..self.in_off[p + 1] as usize]
    }

    /// Dependence edges out of scope position `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a scope position.
    pub fn succs(&self, p: usize) -> &[DataDep] {
        &self.edges_out[self.out_off[p] as usize..self.out_off[p + 1] as usize]
    }

    /// Total number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges_out.len()
    }

    /// The scope's instructions in dependence-compatible order.
    pub fn scope_order(&self) -> &[InstId] {
        &self.order
    }

    /// The scope's edges split into those joining two instructions of
    /// one block and those crossing blocks, each in `succs` order
    /// (position by position).
    pub fn split_edges(&self) -> (Vec<DataDep>, Vec<DataDep>) {
        let block = |p: u32| self.block_off.partition_point(|&o| o <= p);
        self.edges_out
            .iter()
            .partition(|e| block(e.from) == block(e.to))
    }

    /// Removes latency-redundant edges between instructions of one block:
    /// an in-block edge `(a, c)` is dropped when a path of other edges
    /// from `a` to `c` already enforces a separation of at least
    /// `sep(a, c)`. Every cross-block edge is kept.
    ///
    /// Each block is reduced with a longest-path table over that block
    /// alone, filled in position order (program order is topological for
    /// in-block edges). That drops exactly the in-block edges
    /// [`Self::reduce_reference`] drops: in a forward scope a dependence
    /// path between two instructions of one block never leaves the block,
    /// because returning to it would need a cycle in the forward graph.
    /// The cross-block edges the reference also drops are each implied by
    /// a path of kept edges, so the graph admits the same schedules.
    pub fn reduce(&mut self) {
        const NEG: i32 = i32::MIN / 4;
        let mut removed = std::mem::take(&mut self.scratch.removed);
        removed.clear();
        // One block's longest separations, upper-triangular and reused:
        // row `i` holds columns `i..len` (a position reaches only later
        // ones of its block) from `row(i)` on.
        let mut longest = std::mem::take(&mut self.scratch.longest);
        for w in self.block_off.windows(2) {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            let len = hi - lo;
            // A redundant edge needs a path through a third instruction.
            if len < 3 {
                continue;
            }
            let local = |p: u32| (p as usize).checked_sub(lo).filter(|&q| q < len);
            // ... and a source with at least two successors in the block.
            let fans_out = |p: usize| {
                self.succs(p)
                    .iter()
                    .filter(|e| local(e.to).is_some())
                    .nth(1)
                    .is_some()
            };
            if !(lo..hi).any(fans_out) {
                continue;
            }
            let row = |i: usize| i * len - i * i.saturating_sub(1) / 2;
            longest.clear();
            longest.resize(row(len), NEG);
            for i in (0..len).rev() {
                let (head, tail) = longest.split_at_mut(row(i + 1));
                let row_i = &mut head[row(i)..];
                row_i[0] = 0;
                for e in self.succs(lo + i) {
                    let Some(j) = local(e.to) else { continue };
                    let w = e.sep() as i32;
                    let row_j = &tail[row(j) - row(i + 1)..][..len - j];
                    for (cur, &lj) in row_i[j - i..].iter_mut().zip(row_j) {
                        if lj > NEG && w + lj > *cur {
                            *cur = w + lj;
                        }
                    }
                }
            }
            // Redundancy is judged against the unreduced block, so every
            // decision is independent of the others.
            for i in 0..len {
                let succs = self.succs(lo + i);
                for (k, e) in succs.iter().enumerate() {
                    let Some(c) = local(e.to) else { continue };
                    // Redundant when some first hop b != c of the block
                    // already reaches c with at least sep(e).
                    let redundant = succs.iter().any(|first| match local(first.to) {
                        Some(b) if b < c => {
                            let l = longest[row(b) + c - b];
                            l > NEG && first.sep() as i32 + l >= e.sep() as i32
                        }
                        _ => false,
                    });
                    if redundant {
                        removed.push(self.out_off[lo + i] + k as u32);
                    }
                }
            }
        }
        self.scratch.longest = longest;
        self.remove_edges(removed);
    }

    /// The whole-scope reduction [`Self::reduce`] replaced, kept as its
    /// oracle: an edge `(a, c)` anywhere in the scope is dropped when a
    /// path of other edges from `a` to `c` already enforces a separation
    /// of at least `sep(a, c)`, judged with a longest-path table over the
    /// whole scope — quadratic in the scope's size, in time and memory.
    /// The scheduler calls it only under its armed checks, to check that
    /// each region's in-block edges come out alike.
    pub fn reduce_reference(&mut self) {
        let n = self.order.len();
        // Topologically sort the scope positions by dependence edges
        // (the scope block list need not have been supplied in execution
        // order). Kahn's algorithm; the edge set is acyclic by
        // construction.
        const NONE: u32 = u32::MAX;
        let mut indeg = vec![0usize; n];
        for e in &self.edges_out {
            indeg[e.to as usize] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut topo: Vec<usize> = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            topo.push(i);
            for e in self.succs(i) {
                let j = e.to as usize;
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
            for dep in self.succs(a) {
                let j = topo_index[dep.to as usize] as usize;
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
        // decision for every out edge is independent.
        let mut removed: Vec<u32> = Vec::new();
        for a in 0..n {
            for (k, e) in self.succs(a).iter().enumerate() {
                let c = topo_index[e.to as usize] as usize;
                // Redundant when some first hop b != c already reaches
                // c with at least sep(e).
                let redundant = self.succs(a).iter().any(|first| {
                    if first.to == e.to {
                        return false;
                    }
                    let b = topo_index[first.to as usize] as usize;
                    longest[b][c] > NEG && first.sep() as i64 + longest[b][c] >= e.sep() as i64
                });
                if redundant {
                    removed.push(self.out_off[a] + k as u32);
                }
            }
        }
        self.remove_edges(removed);
    }

    /// Drops the edges at the ascending out-arena indices `removed` from
    /// both arenas, keeping the order of every list; `removed` is kept
    /// for the next reduction's list.
    fn remove_edges(&mut self, removed: Vec<u32>) {
        if removed.is_empty() {
            self.scratch.removed = removed;
            return;
        }
        debug_assert!(removed.windows(2).all(|w| w[0] < w[1]), "ascending");
        // The same edges in the in arena: each is the one entry of its
        // target's list from its source (a pair yields at most one edge).
        let mut removed_in = std::mem::take(&mut self.scratch.removed_in);
        removed_in.clear();
        removed_in.extend(removed.iter().map(|&i| {
            let e = self.edges_out[i as usize];
            let at = self
                .preds(e.to as usize)
                .iter()
                .position(|p| p.from == e.from);
            self.in_off[e.to as usize] + at.expect("every edge is in both arenas") as u32
        }));
        removed_in.sort_unstable();
        compact(&mut self.edges_out, &mut self.out_off, &removed);
        compact(&mut self.edges_in, &mut self.in_off, &removed_in);
        self.scratch.removed = removed;
        self.scratch.removed_in = removed_in;
    }
}

/// Removes the entries at the ascending indices `removed` from a CSR
/// arena in place, shifting the rest down and the offsets with them.
fn compact(edges: &mut Vec<DataDep>, off: &mut [u32], removed: &[u32]) {
    let (mut next, mut kept, mut start) = (0, 0, 0);
    for p in 0..off.len() - 1 {
        let end = off[p + 1] as usize;
        for i in start..end {
            if removed.get(next) == Some(&(i as u32)) {
                next += 1;
            } else {
                edges[kept] = edges[i];
                kept += 1;
            }
        }
        start = end;
        off[p + 1] = kept as u32;
    }
    edges.truncate(kept);
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

    /// The edge between the instructions with ids `from` and `to`.
    fn edge(d: &DataDeps, from: u32, to: u32) -> Option<DataDep> {
        let at = |i: u32| d.position(InstId::new(i)).expect("in scope");
        d.succs(at(from))
            .iter()
            .copied()
            .find(|e| e.to as usize == at(to))
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
    fn reduction_is_block_local() {
        // I0's load feeds I1 (sep 2), I1 feeds I2 and I3 (sep 1), and I0
        // also feeds I2 and I3 directly (sep 2). Both direct edges are
        // implied by the path through I1 (2 + 1 >= 2), but only I0->I2
        // lies inside a block.
        let (_, full) = deps_for(
            "func t\nA:\n\
             (I0) L  r1=a(r9,0)\n\
             (I1) AI r2=r1,1\n\
             (I2) A  r4=r1,r2\n\
             B:\n\
             (I3) A  r3=r1,r2\n\
             RET\n",
        );
        let mut local = full.clone();
        local.reduce();
        assert!(
            edge(&local, 0, 2).is_none(),
            "in-block transitive edge dropped"
        );
        assert!(edge(&local, 0, 3).is_some(), "cross-block edge kept");
        assert!(edge(&local, 1, 3).is_some());
        let mut reference = full.clone();
        reference.reduce_reference();
        assert!(edge(&reference, 0, 2).is_none());
        assert!(
            edge(&reference, 0, 3).is_none(),
            "the whole-scope oracle drops it"
        );
        // The two agree inside blocks; across them the block-local
        // reduction keeps the unreduced graph.
        assert_eq!(local.split_edges().0, reference.split_edges().0);
        assert_eq!(local.split_edges().1, full.split_edges().1);
        assert_ne!(local.split_edges().1, reference.split_edges().1);
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
