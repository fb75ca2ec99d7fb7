//! The basic-block scheduler as it was before the shared ready-list
//! scheduler ([`crate::list`]), kept verbatim as the differential oracle
//! for [`schedule_block`](crate::schedule_block).
//!
//! Every pick rescans every unscheduled instruction of the block, walks
//! its predecessors through hash maps, and reads `D`/`CP` from per-block
//! hash maps built here, independently of the dense tables in
//! `dcp.rs`. Quadratic in the block size: do not call it from the
//! pipeline.

use gis_ir::{BlockId, Function, InstId};
use gis_machine::MachineDescription;
use gis_pdg::DataDeps;
use std::collections::HashMap;

/// `D` and `CP` values for the instructions of one block, computed the
/// original way (see `dcp.rs` for the definitions).
#[derive(Debug, Clone, Default)]
struct Heuristics {
    d: HashMap<InstId, u32>,
    cp: HashMap<InstId, u32>,
}

impl Heuristics {
    fn for_block(
        f: &Function,
        machine: &MachineDescription,
        deps: &DataDeps,
        block: BlockId,
    ) -> Self {
        let block_ref = f.block(block);
        let member: HashMap<InstId, usize> = block_ref
            .insts()
            .enumerate()
            .map(|(pos, i)| (i.id, pos))
            .collect();
        let mut h = Heuristics::default();
        for inst in block_ref.insts().rev() {
            let exec = machine.exec_time(inst.op.class());
            let mut d = 0u32;
            let mut cp_tail = 0u32;
            for e in deps.succs(inst.id) {
                if !member.contains_key(&e.to) {
                    continue;
                }
                let dj = h.d.get(&e.to).copied().unwrap_or(0);
                let cpj = h.cp.get(&e.to).copied().unwrap_or(0);
                d = d.max(dj + e.delay);
                cp_tail = cp_tail.max(cpj + e.delay);
            }
            h.d.insert(inst.id, d);
            h.cp.insert(inst.id, cp_tail + exec);
        }
        h
    }

    fn d(&self, i: InstId) -> u32 {
        self.d.get(&i).copied().unwrap_or(0)
    }

    fn cp(&self, i: InstId) -> u32 {
        self.cp.get(&i).copied().unwrap_or(0)
    }
}

/// The original rescanning basic-block scheduler, kept verbatim as the
/// differential oracle for [`schedule_block`](crate::schedule_block):
/// same inputs, same output (checked by the `gis-check` test suite over
/// every block of fuzzed and benchmark functions, and used by the
/// benchmark harness to measure the speedup). Quadratic in the block
/// size — do not call it from the scheduler.
pub fn schedule_block_reference(
    f: &mut Function,
    machine: &MachineDescription,
    block: BlockId,
) -> bool {
    let deps = DataDeps::build(f, machine, &[block], |_, _| false);
    let h = Heuristics::for_block(f, machine, &deps, block);

    let block_ref = f.block(block);
    let has_branch = block_ref.last().is_some_and(|i| i.op.is_branch());
    let body_len = block_ref.len() - usize::from(has_branch);
    if body_len <= 1 {
        return false;
    }

    let pos: HashMap<InstId, usize> = block_ref
        .insts()
        .enumerate()
        .map(|(p, i)| (i.id, p))
        .collect();
    let body: Vec<InstId> = block_ref.insts().take(body_len).map(|i| i.id).collect();
    let branch: Option<InstId> = block_ref.last().filter(|i| i.op.is_branch()).map(|i| i.id);

    // Cycle-by-cycle list scheduling.
    let mut scheduled_at: HashMap<InstId, u64> = HashMap::new();
    let mut order: Vec<InstId> = Vec::with_capacity(body.len());
    let mut units: Vec<Vec<u64>> = machine
        .unit_kinds()
        .map(|k| vec![0u64; machine.unit_count(k) as usize])
        .collect();
    let width = machine.dispatch_width();
    let mut t: u64 = 0;
    while order.len() < body.len() {
        let mut issued_this_cycle = 0u32;
        loop {
            // Ready instructions whose unit kind has a free instance now.
            let mut best: Option<(u32, u32, usize, InstId)> = None;
            for &id in &body {
                if scheduled_at.contains_key(&id) {
                    continue;
                }
                let ready = deps.preds(id).iter().all(|e| {
                    match (pos.get(&e.from), scheduled_at.get(&e.from)) {
                        (None, _) => true, // dep from outside the block
                        (Some(_), Some(&tp)) => tp + e.sep() as u64 <= t,
                        (Some(_), None) => false,
                    }
                });
                if !ready {
                    continue;
                }
                let p = pos[&id];
                let class = block_ref.inst_at(p).op.class();
                let kind = machine.unit_of(class);
                if !units[kind.index()].iter().any(|&busy| busy <= t) {
                    continue;
                }
                // Priority: larger D, then larger CP, then original order.
                let key = (h.d(id), h.cp(id), usize::MAX - p, id);
                if best.is_none_or(|(bd, bcp, bp, _)| (key.0, key.1, key.2) > (bd, bcp, bp)) {
                    best = Some((key.0, key.1, key.2, id));
                }
            }
            let Some((_, _, _, id)) = best else { break };
            let p = pos[&id];
            let class = block_ref.inst_at(p).op.class();
            let exec = machine.exec_time(class) as u64;
            let kind = machine.unit_of(class);
            let slot = units[kind.index()]
                .iter()
                .position(|&busy| busy <= t)
                .expect("checked free above");
            units[kind.index()][slot] = t + exec;
            scheduled_at.insert(id, t);
            order.push(id);
            issued_this_cycle += 1;
            if issued_this_cycle >= width {
                break;
            }
        }
        t += 1;
    }

    if let Some(b) = branch {
        order.push(b);
    }
    let old: Vec<InstId> = block_ref.insts().map(|i| i.id).collect();
    if old == order {
        return false;
    }
    f.block_mut(block).set_order(&order);
    true
}
