//! The basic block scheduler.
//!
//! A classic list scheduler over one block's data dependence DAG, driven
//! by the `D`/`CP` heuristics of §5.2. It serves two roles, both from the
//! paper: it *is* the BASE compiler's scheduler (§6 compares against "a
//! sophisticated basic block scheduler"), and it runs as the final pass
//! after global scheduling ("the basic block scheduler is applied to every
//! single basic block of a program after the global scheduling is
//! completed", §5.1). The scheduling loop is the ready-list scheduler of
//! `list.rs`, shared with the global pass; the rescanning scheduler it
//! replaced is kept as [`schedule_block_reference`](crate::schedule_block_reference).

use crate::dcp::Heuristics;
use crate::list::{Commit, ListScheduler, PassHooks, Pick, Pred};
use gis_ir::{BlockId, Function, InstId};
use gis_machine::MachineDescription;
use gis_pdg::DataDeps;
use gis_trace::{SchedObserver, TraceEvent};

/// [`schedule_block`], reporting the visit to `obs`.
pub fn schedule_block_observed<O: SchedObserver>(
    f: &mut Function,
    machine: &MachineDescription,
    block: BlockId,
    obs: &mut O,
) -> bool {
    let changed = schedule_block(f, machine, block);
    if obs.enabled() {
        obs.event(TraceEvent::BlockScheduled {
            block: f.block(block).label().to_owned(),
            changed,
        });
    }
    changed
}

/// The basic-block pass's priority key: larger `D`, then larger `CP`,
/// then original order (`usize::MAX - position`, unique per block).
type BbKey = (u32, u32, usize);

/// Records the issue order; slot `p` is the body instruction at block
/// position `p`.
struct BbOrder {
    order: Vec<InstId>,
    body_len: usize,
}

impl PassHooks<BbKey> for BbOrder {
    fn commit(&mut self, pick: &Pick<BbKey>, _t: u64) -> Commit {
        self.order.push(pick.id);
        Commit::Issue
    }

    fn done(&self) -> bool {
        self.order.len() == self.body_len
    }
}

/// Reorders the instructions of `block` to minimize stalls on `machine`.
/// The terminating branch (if any) keeps its place at the end. Returns
/// whether the order changed.
///
/// ```
/// use gis_core::schedule_block;
/// use gis_machine::MachineDescription;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // An independent LI can fill the load's delay slot.
/// let mut f = gis_ir::parse_function(
///     "func t\nA:\n L r1=a(r9,0)\n AI r2=r1,1\n LI r3=7\n RET\n",
/// )?;
/// let changed = schedule_block(&mut f, &MachineDescription::rs6k(), gis_ir::BlockId::new(0));
/// assert!(changed);
/// # Ok(())
/// # }
/// ```
pub fn schedule_block(f: &mut Function, machine: &MachineDescription, block: BlockId) -> bool {
    let block_ref = f.block(block);
    let has_branch = block_ref.last().is_some_and(|i| i.op.is_branch());
    let body_len = block_ref.len() - usize::from(has_branch);
    if body_len <= 1 {
        return false;
    }
    let deps = DataDeps::build(f, machine, &[block], |_, _| false);
    let mut h = Heuristics::new(&deps);
    h.compute_block(f, machine, &deps, block);

    // The scope is this one block, so scope positions are block
    // positions; the branch stays out of the candidate set.
    let mut list = ListScheduler::new(machine);
    list.begin(&deps);
    for (p, inst) in block_ref.insts().take(body_len).enumerate() {
        let class = inst.op.class();
        let key = (h.d(p), h.cp(p), usize::MAX - p);
        list.push(
            &deps,
            inst.id,
            key,
            machine.unit_of(class),
            machine.exec_time(class),
        );
    }
    list.link(&deps, |_, in_set| {
        if in_set {
            Pred::Waiting
        } else {
            Pred::Satisfied
        }
    });
    let mut hooks = BbOrder {
        order: Vec::with_capacity(block_ref.len()),
        body_len,
    };
    list.run(&deps, machine.dispatch_width(), &mut hooks);

    let mut order = hooks.order;
    if has_branch {
        order.push(block_ref.inst_at(body_len).id);
    }
    if block_ref.insts().map(|i| i.id).eq(order.iter().copied()) {
        return false;
    }
    f.block_mut(block).set_order(&order);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule_block_reference;
    use gis_ir::parse_function;
    use gis_sim::{execute, ExecConfig, TimingSim};

    fn ids(f: &Function, b: u32) -> Vec<u32> {
        f.block(BlockId::new(b))
            .insts()
            .map(|i| i.id.index() as u32)
            .collect()
    }

    /// Schedules block 0 of `text` on `m` with the ready-list scheduler
    /// and with the rescanning reference, requires both to agree, and
    /// returns whether the order changed and the new order.
    fn scheduled(text: &str, m: &MachineDescription) -> (bool, Vec<u32>) {
        let mut f = parse_function(text).expect("parses");
        let mut reference = f.clone();
        let changed = schedule_block(&mut f, m, BlockId::new(0));
        let expected = schedule_block_reference(&mut reference, m, BlockId::new(0));
        assert_eq!(changed, expected, "changed flags differ");
        assert_eq!(ids(&f, 0), ids(&reference, 0), "orders differ");
        f.verify().expect("still valid");
        (changed, ids(&f, 0))
    }

    #[test]
    fn fills_delay_slot_of_a_load() {
        // The independent AI should move between the load and its use.
        let (changed, order) = scheduled(
            "func d\nA:\n\
             (I0) L  r1=a(r9,0)\n\
             (I1) AI r2=r1,1\n\
             (I2) AI r3=r3,1\n\
             RET\n",
            &MachineDescription::rs6k(),
        );
        assert!(changed);
        assert_eq!(order, vec![0, 2, 1, 3]);
    }

    #[test]
    fn branch_stays_last() {
        let (_, order) = scheduled(
            "func b\nA:\n\
             (I0) C  cr0=r1,r2\n\
             (I1) LI r3=1\n\
             (I2) LI r4=2\n\
             (I3) BT A,cr0,0x1/lt\n\
             E:\n RET\n",
            &MachineDescription::rs6k(),
        );
        assert_eq!(*order.last().unwrap(), 3, "branch anchored");
        // The compare should come first: D(compare)=3 dominates.
        assert_eq!(order[0], 0);
    }

    #[test]
    fn already_optimal_blocks_unchanged() {
        let (changed, _) = scheduled(
            "func o\nA:\n (I0) LI r1=1\n (I1) AI r2=r1,1\n RET\n",
            &MachineDescription::rs6k(),
        );
        assert!(!changed);
    }

    #[test]
    fn trivial_blocks_return_before_any_analysis() {
        // One body instruction (plus the branch), or none: nothing to
        // reorder, so no dependence graph is built.
        for text in [
            "func t\nA:\n (I0) LI r1=1\n RET\n",
            "func t\nA:\n (I0) C cr0=r1,r2\n (I1) BT A,cr0,0x1/lt\nE:\n RET\n",
            "func t\nA:\n RET\n",
        ] {
            assert_eq!(
                scheduled(text, &MachineDescription::rs6k()),
                (false, {
                    let f = parse_function(text).expect("parses");
                    ids(&f, 0)
                })
            );
        }
    }

    #[test]
    fn zero_separation_edge_releases_its_successor_in_the_same_cycle() {
        // I1 redefines the r1 that I0 reads: an anti edge with no
        // separation. On two fixed point units, placing I0 at cycle 0
        // must release I1 into that very cycle, where it beats the
        // independent I4 (higher D and CP) to the second unit. A release
        // one cycle late would issue I4 there instead.
        let (changed, order) = scheduled(
            "func z\nA:\n\
             (I0) AI r2=r1,1\n\
             (I1) LI r1=5\n\
             (I2) L  r3=a(r1,0)\n\
             (I3) AI r4=r3,1\n\
             (I4) LI r7=1\n\
             RET\n",
            &MachineDescription::issue4(),
        );
        assert!(changed);
        assert_eq!(order, vec![0, 1, 2, 4, 3, 5]);
        // An output edge (both define r1) separates by nothing either.
        let (_, order) = scheduled(
            "func o\nA:\n\
             (I0) LI r1=4\n\
             (I1) LI r1=5\n\
             (I2) L  r3=a(r1,0)\n\
             (I3) AI r4=r3,1\n\
             (I4) LI r7=1\n\
             RET\n",
            &MachineDescription::issue4(),
        );
        assert_eq!(order, vec![0, 1, 2, 4, 3, 5]);
    }

    #[test]
    fn idle_cycles_wait_out_a_load_delay() {
        // Everything after the load I0 needs r1: cycle 1 issues nothing.
        // At cycle 2 the load I2 goes first (larger D). Its use I3 must
        // wait for cycle 4, so I1 fills cycle 3 although I3 ranks higher
        // (larger CP): a scheduler that released I3 on I2's issue alone
        // would put it before I1.
        let (changed, order) = scheduled(
            "func w\nA:\n\
             (I0) L  r1=a(r9,0)\n\
             (I1) AI r4=r1,1\n\
             (I2) L  r3=a(r1,0)\n\
             (I3) AI r5=r3,1\n\
             (I4) AI r6=r5,1\n\
             RET\n",
            &MachineDescription::rs6k(),
        );
        assert!(changed);
        assert_eq!(order, vec![0, 2, 1, 3, 4, 5]);
    }

    #[test]
    fn scheduling_preserves_semantics_and_helps_cycles() {
        let text = "func p\nA:\n\
             (I0) L  r1=a(r9,0)\n\
             (I1) AI r1=r1,5\n\
             (I2) L  r2=a(r9,4)\n\
             (I3) AI r2=r2,7\n\
             (I4) A  r3=r1,r2\n\
             (I5) PRINT r3\n\
             RET\n";
        let mut f = parse_function(text).expect("parses");
        let orig = parse_function(text).expect("parses");
        let m = MachineDescription::rs6k();
        let mem = [(0i64, 10i64), (4, 20)];
        let before = execute(&orig, &mem, &ExecConfig::default()).expect("runs");
        assert!(scheduled(text, &m).0);
        schedule_block(&mut f, &m, BlockId::new(0));
        let after = execute(&f, &mem, &ExecConfig::default()).expect("runs");
        assert!(before.equivalent(&after));
        assert_eq!(after.printed(), vec![42]);
        let tb = TimingSim::new(&orig, &m).run(&before.block_trace).cycles;
        let ta = TimingSim::new(&f, &m).run(&after.block_trace).cycles;
        assert!(ta < tb, "stalls filled: {ta} < {tb}");
    }
}
