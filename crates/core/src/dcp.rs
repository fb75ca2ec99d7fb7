//! The delay (`D`) and critical path (`CP`) heuristics of §5.2.
//!
//! Both are computed *locally*, within a basic block, from the data
//! dependence edges whose endpoints currently sit in that block:
//!
//! * `D(I)` — how many delay slots may occur on a path from `I` to the end
//!   of its block: `max over successors J of D(J) + d(I, J)`, starting
//!   from 0;
//! * `CP(I)` — how long the instructions depending on `I` (including `I`)
//!   take on an unbounded machine:
//!   `max over successors J of (CP(J) + d(I, J)) + E(I)`, starting from
//!   `E(I)`.
//!
//! Values live in dense tables indexed by dependence scope position
//! ([`DataDeps::position`]). Block membership is a version stamp per
//! position, so one table serves every block of a scope: computing one
//! block writes only that block's entries, and nothing is cleared
//! between blocks.

use gis_ir::{BlockId, Function};
use gis_machine::MachineDescription;
use gis_pdg::DataDeps;

/// `D` and `CP` values by dependence scope position.
#[derive(Debug, Clone, Default)]
pub(crate) struct Heuristics {
    d: Vec<u32>,
    cp: Vec<u32>,
    /// `member[p] == stamp` marks position `p` as in the block being
    /// computed.
    member: Vec<u32>,
    stamp: u32,
    /// The block being computed: each in-scope instruction's position
    /// and execution time, in block order.
    block: Vec<(u32, u32)>,
}

impl Heuristics {
    /// Tables for `deps`'s scope, every value 0 until its block is
    /// computed.
    #[cfg(test)]
    pub(crate) fn new(deps: &DataDeps) -> Self {
        let mut h = Heuristics::default();
        h.reset(deps.scope_order().len());
        h
    }

    /// [`Heuristics::new`] in place, for a scope of `n` instructions:
    /// every value 0, keeping the tables' capacity.
    pub(crate) fn reset(&mut self, n: usize) {
        for table in [&mut self.d, &mut self.cp, &mut self.member] {
            table.clear();
            table.resize(n, 0);
        }
        self.stamp = 0;
    }

    /// Computes `D` and `CP` for the current contents of `block`.
    ///
    /// `deps` may cover a whole region; only edges with both endpoints in
    /// `block` participate (the heuristics are local by design).
    /// Instructions outside `deps`'s scope (copies minted since it was
    /// built) have no edges and get no entry.
    pub(crate) fn compute_block(
        &mut self,
        f: &Function,
        machine: &MachineDescription,
        deps: &DataDeps,
        block: BlockId,
    ) {
        self.stamp += 1;
        self.block.clear();
        for inst in f.block(block).insts() {
            if let Some(p) = deps.position(inst.id) {
                self.member[p] = self.stamp;
                self.d[p] = 0;
                self.cp[p] = 0;
                self.block
                    .push((p as u32, machine.exec_time(inst.op.class())));
            }
        }
        for &(p, exec) in self.block.iter().rev() {
            let p = p as usize;
            let mut d = 0u32;
            let mut cp_tail = 0u32;
            for e in deps.succs(p) {
                let q = e.to as usize;
                if self.member[q] != self.stamp {
                    continue;
                }
                d = d.max(self.d[q] + e.delay);
                cp_tail = cp_tail.max(self.cp[q] + e.delay);
            }
            self.d[p] = d;
            self.cp[p] = cp_tail + exec;
        }
    }

    /// The delay heuristic at scope position `p`.
    pub(crate) fn d(&self, p: usize) -> u32 {
        self.d[p]
    }

    /// The critical path heuristic at scope position `p`.
    pub(crate) fn cp(&self, p: usize) -> u32 {
        self.cp[p]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_ir::{parse_function, InstId};

    /// `block`'s heuristics as `(D, CP)` by instruction id.
    fn heuristics<'a>(
        f: &Function,
        m: &MachineDescription,
        deps: &'a DataDeps,
        block: u32,
    ) -> impl Fn(u32) -> (u32, u32) + 'a {
        let mut h = Heuristics::new(deps);
        h.compute_block(f, m, deps, BlockId::new(block));
        move |i| {
            let p = deps.position(InstId::new(i)).expect("in scope");
            (h.d(p), h.cp(p))
        }
    }

    #[test]
    fn figure2_bl1_heuristics() {
        // BL1 of the paper: L, LU, C, BF with delays 1 (delayed load) and
        // 3 (compare→branch).
        let f = parse_function(
            "func b\nCL.0:\n\
             (I1) L  r12=a(r31,4)\n\
             (I2) LU r0,r31=a(r31,8)\n\
             (I3) C  cr7=r12,r0\n\
             (I4) BF CL.0,cr7,0x2/gt\nE:\n RET\n",
        )
        .expect("parses");
        let m = MachineDescription::rs6k();
        let blocks: Vec<BlockId> = f.block_ids().collect();
        let deps = DataDeps::build(&f, &m, &blocks, |x, y| x < y);
        let h = heuristics(&f, &m, &deps, 0);

        // D: branch has no successors (0); compare feeds the branch with
        // delay 3; the loads feed the compare with delay 1 (so D(load) =
        // D(C) + 1 = 4).
        assert_eq!(h(4).0, 0);
        assert_eq!(h(3).0, 3);
        assert_eq!(h(2).0, 4);
        assert_eq!(h(1).0, 4);

        // CP: branch = 1; compare = CP(br) + 3 + 1 = 5; LU = CP(C) + 1
        // + 1 = 7; L additionally sees its anti edge to LU:
        // max(CP(LU) + 0, CP(C) + 1) + 1 = 8.
        assert_eq!(h(4).1, 1);
        assert_eq!(h(3).1, 5);
        assert_eq!(h(2).1, 7);
        assert_eq!(h(1).1, 8);
    }

    #[test]
    fn independent_instructions_have_zero_d() {
        let f = parse_function("func i\nA:\n (I0) LI r1=1\n (I1) LI r2=2\n RET\n").expect("parses");
        let m = MachineDescription::rs6k();
        let blocks: Vec<BlockId> = f.block_ids().collect();
        let deps = DataDeps::build(&f, &m, &blocks, |x, y| x < y);
        let h = heuristics(&f, &m, &deps, 0);
        assert_eq!(h(0).0, 0);
        assert_eq!(h(0).1, 1);
    }

    #[test]
    fn edges_outside_the_block_are_ignored() {
        let f = parse_function("func o\nA:\n (I0) L r1=a(r9,0)\nB:\n (I1) AI r2=r1,1\n RET\n")
            .expect("parses");
        let m = MachineDescription::rs6k();
        let blocks: Vec<BlockId> = f.block_ids().collect();
        let deps = DataDeps::build(&f, &m, &blocks, |x, y| x < y);
        let h = heuristics(&f, &m, &deps, 0);
        assert_eq!(h(0).0, 0, "cross-block edge ignored");
    }

    #[test]
    fn one_table_serves_every_block_of_a_scope() {
        // A's load feeds A's add and B's add; computing B after A must
        // leave A's entries alone, and recomputing A must agree.
        let f = parse_function(
            "func s\nA:\n (I0) L r1=a(r9,0)\n (I1) AI r2=r1,1\n\
             B:\n (I2) AI r3=r1,2\n (I3) AI r4=r3,1\n RET\n",
        )
        .expect("parses");
        let m = MachineDescription::rs6k();
        let blocks: Vec<BlockId> = f.block_ids().collect();
        let deps = DataDeps::build(&f, &m, &blocks, |x, y| x < y);
        let at = |i: u32| deps.position(InstId::new(i)).expect("in scope");
        let mut h = Heuristics::new(&deps);
        h.compute_block(&f, &m, &deps, BlockId::new(0));
        let a = (h.d(at(0)), h.cp(at(0)));
        assert_eq!(a, (1, 3), "the load's delay to its in-block use only");
        h.compute_block(&f, &m, &deps, BlockId::new(1));
        assert_eq!((h.d(at(0)), h.cp(at(0))), a, "B left A alone");
        assert_eq!((h.d(at(2)), h.cp(at(2))), (0, 2));
        h.compute_block(&f, &m, &deps, BlockId::new(0));
        assert_eq!((h.d(at(0)), h.cp(at(0))), a);
    }
}
