//! Liveness-based dead code elimination.

use gis_cfg::Cfg;
use gis_ir::{BlockId, Function, Op, RegSet};
use gis_pdg::Liveness;

/// Removes side-effect-free instructions whose results are dead: a
/// backward scan per block seeded with the block's live-out set. Degenerate
/// self-moves (`LR r=r`) are removed unconditionally. Returns the number
/// of instructions removed.
///
/// Never removed: branches, stores, calls, `PRINT`, and update-form
/// memory operations whose base update is still live.
pub fn eliminate_dead_code(f: &mut Function) -> usize {
    let cfg = Cfg::new(f);
    let live = Liveness::compute(f, &cfg);
    let mut removed = 0;
    let blocks: Vec<BlockId> = f.block_ids().collect();
    for bid in blocks {
        let mut live_set: RegSet = live.live_out(&cfg, bid);
        let mut keep: Vec<bool> = vec![true; f.block(bid).len()];
        for (pos, inst) in f.block(bid).insts().enumerate().rev() {
            let op = &inst.op;
            let side_effecting = op.is_branch() || op.writes_memory();
            let self_move = matches!(op, Op::Move { rt, rs } if rt == rs);
            let defs = op.defs();
            let any_def_live = defs.iter().any(|&d| live_set.contains(d));
            let removable = !side_effecting && (self_move || (!defs.is_empty() && !any_def_live));
            if removable {
                keep[pos] = false;
                removed += 1;
                // A removed instruction contributes neither defs nor uses.
                continue;
            }
            for &d in &defs {
                live_set.remove(d);
            }
            for u in op.uses() {
                live_set.insert(u);
            }
        }
        if keep.iter().any(|k| !k) {
            let mut idx = 0;
            f.block_mut(bid).retain(|_| {
                let k = keep[idx];
                idx += 1;
                k
            });
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_ir::{parse_function, InstId};

    fn dce(text: &str) -> (Function, usize) {
        let mut f = parse_function(text).expect("parses");
        let mut total = 0;
        loop {
            let n = eliminate_dead_code(&mut f);
            total += n;
            if n == 0 {
                break;
            }
        }
        f.verify().expect("still valid");
        (f, total)
    }

    fn gone(f: &Function, n: u32) -> bool {
        f.find_inst(InstId::new(n)).is_none()
    }

    #[test]
    fn removes_dead_chains() {
        let (f, total) = dce(
            "func t\nE:\n (I0) LI r1=1\n (I1) AI r2=r1,1\n (I2) AI r3=r2,1\n\
             (I3) LI r4=9\n (I4) PRINT r4\n RET\n",
        );
        assert_eq!(total, 3, "the whole r1->r2->r3 chain dies");
        assert!(gone(&f, 0) && gone(&f, 1) && gone(&f, 2));
        assert!(!gone(&f, 3) && !gone(&f, 4));
    }

    #[test]
    fn keeps_values_live_across_blocks_and_loops() {
        let (f, total) = dce(
            "func t\nA:\n (I0) LI r1=0\nB:\n (I1) AI r1=r1,1\n (I2) C cr0=r1,r9\n\
             (I3) BT B,cr0,0x1/lt\nC:\n (I4) PRINT r1\n RET\n",
        );
        assert_eq!(total, 0, "loop-carried values survive");
        assert!(!gone(&f, 0) && !gone(&f, 1));
    }

    #[test]
    fn side_effects_are_sacred() {
        let (f, total) = dce(
            "func t\nE:\n (I0) LI r1=1\n (I1) ST r1=>a(r9,0)\n (I2) CALL x(r1)->(r2)\n\
             (I3) PRINT r1\n RET\n",
        );
        assert_eq!(total, 0, "store, call (dead r2!) and print all stay");
        assert!(!gone(&f, 2), "calls have unknowable effects");
    }

    #[test]
    fn self_moves_vanish_even_when_live() {
        let (f, total) = dce("func t\nE:\n (I0) LI r1=1\n (I1) LR r1=r1\n (I2) PRINT r1\n RET\n");
        assert_eq!(total, 1);
        assert!(gone(&f, 1));
    }

    #[test]
    fn dead_loads_are_removable_but_live_updates_are_not() {
        let (f, total) = dce("func t\nE:\n (I0) L r1=a(r9,0)\n (I1) LU r2,r9=a(r9,4)\n\
             (I2) PRINT r9\n RET\n");
        // I0's r1 is dead: removable (loads cannot fault in this model).
        // I1's r2 is dead but its base update feeds the print: kept.
        assert_eq!(total, 1);
        assert!(gone(&f, 0));
        assert!(!gone(&f, 1));
    }
}
