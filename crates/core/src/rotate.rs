//! Loop rotation (§6: small inner loops "are rotated, by copying their
//! first basic block after the end of the loop", so that a second global
//! scheduling pass achieves the partial effect of software pipelining —
//! instructions of the next iteration execute within the previous one).
//!
//! After rotation the original header runs once (iteration 1's prefix)
//! and its copy sits at the bottom of the loop, where the scheduler can
//! pull its instructions (the next iteration's start) up into the latch.

use gis_ir::{BlockId, Function, Inst, Op};
use gis_trace::{SchedObserver, TraceEvent};

/// [`rotate_loop`], reporting a successful rotation to `obs`.
///
/// # Panics
///
/// See [`rotate_loop`].
pub fn rotate_loop_observed<O: SchedObserver>(
    f: &mut Function,
    lo: BlockId,
    hi: BlockId,
    obs: &mut O,
) -> bool {
    let header = if obs.enabled() {
        Some(f.block(lo).label().to_owned())
    } else {
        None
    };
    let rotated = rotate_loop(f, lo, hi);
    if rotated {
        if let Some(header) = header {
            obs.event(TraceEvent::LoopRotated { header });
        }
    }
    rotated
}

/// Rotates the contiguous loop `[lo, hi]` (layout indices, `lo` the
/// header). Returns `false` without touching `f` when the shape is not
/// supported:
///
/// * blocks layout-contiguous, header first;
/// * exactly one back edge, from `hi` (an explicit branch to `lo`);
/// * the header must not end in `RET`.
///
/// # Panics
///
/// Panics if `lo > hi` or `hi` is out of range.
pub fn rotate_loop(f: &mut Function, lo: BlockId, hi: BlockId) -> bool {
    assert!(lo <= hi, "empty loop range");
    assert!(hi.index() < f.num_blocks(), "loop range out of bounds");
    let (lo, hi) = (lo.index(), hi.index());

    // Exactly one back edge, from hi.
    for b in lo..=hi {
        let is_back = f
            .block(BlockId::new(b as u32))
            .last()
            .and_then(|i| i.op.branch_target())
            .is_some_and(|t| t.index() == lo);
        if is_back != (b == hi) {
            return false;
        }
    }
    // hi's ending: `B lo`, or a conditional back branch whose fall-through
    // exits the loop (needs an exit block for the flip trick).
    let hi_end = f
        .block(BlockId::new(hi as u32))
        .last()
        .map(|i| i.op.clone());
    let flip_needed = match &hi_end {
        Some(Op::Branch { .. }) => false,
        Some(Op::BranchCond { .. }) => {
            if hi + 1 >= f.num_blocks() {
                return false;
            }
            true
        }
        _ => return false,
    };
    // Header ending decides whether the copy needs a jump appended (to
    // replace a fall-through that would otherwise run off backwards).
    let header_end = f
        .block(BlockId::new(lo as u32))
        .last()
        .map(|i| i.op.clone());
    let (needs_ft_block, needs_jump) = match &header_end {
        Some(Op::Ret) => return false,
        Some(Op::Branch { .. }) => (false, false),
        Some(Op::BranchCond { .. }) => (true, false),
        _ => (false, true), // plain fall-through: append `B lo+1`
    };
    // Degenerate single-block loops with a conditional header are the
    // flip case below; everything else works uniformly.

    // 1. Insert the header copy (and its fall-through trampoline).
    let label = format!("{}.r{}", f.block(BlockId::new(lo as u32)).label(), hi + 1);
    f.insert_block_at(hi + 1, label);
    if needs_ft_block {
        let label = format!("{}.rf{}", f.block(BlockId::new(lo as u32)).label(), hi + 2);
        f.insert_block_at(hi + 2, label);
    }
    let h2 = BlockId::new((hi + 1) as u32);
    let after = hi + 1 + 1 + usize::from(needs_ft_block);

    // 2. Fill the copy from the (unmodified) header.
    f.clone_insts_into(BlockId::new(lo as u32), h2);
    if needs_jump {
        let id = f.fresh_inst_id();
        f.block_mut(h2).push(Inst::new(
            id,
            Op::Branch {
                target: BlockId::new(lo as u32 + 1),
            },
        ));
    }
    if needs_ft_block {
        // The copy's fall-through successor is whatever followed the
        // header: the next loop block, or — for a single-block loop — the
        // exit block (shifted by the two insertions).
        let ft = if lo == hi { hi + 3 } else { lo + 1 };
        let id = f.fresh_inst_id();
        f.block_mut(BlockId::new((hi + 2) as u32)).push(Inst::new(
            id,
            Op::Branch {
                target: BlockId::new(ft as u32),
            },
        ));
    }

    // 3. Redirect hi's back edge into the copy.
    let len = f.block(BlockId::new(hi as u32)).len();
    let mut tail = f.block_mut(BlockId::new(hi as u32));
    let last = &mut tail.inst_mut(len - 1).op;
    match last {
        Op::Branch { target } => *target = h2,
        Op::BranchCond { target, when, .. } if flip_needed => {
            *target = BlockId::new(after as u32);
            *when = !*when;
        }
        _ => unreachable!("checked above"),
    }

    debug_assert_eq!(f.verify(), Ok(()));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_ir::parse_function;
    use gis_sim::{execute, ExecConfig};

    const SUM: &str = "func sum\n\
        init:\n LI r1=0\n LI r2=0\n LI r9=5\n\
        loop:\n AI r2=r2,1\n A r1=r1,r2\n C cr0=r2,r9\n BT loop,cr0,0x1/lt\n\
        done:\n PRINT r1\n RET\n";

    #[test]
    fn rotates_single_block_loop() {
        let mut f = parse_function(SUM).expect("parses");
        let before = execute(&f, &[], &ExecConfig::default()).expect("runs");
        assert!(rotate_loop(&mut f, BlockId::new(1), BlockId::new(1)));
        f.verify().expect("well formed");
        let after = execute(&f, &[], &ExecConfig::default()).expect("runs");
        assert!(before.equivalent(&after), "rotation preserves semantics");
        assert_eq!(after.printed(), vec![15]);
        // The copy, its fall-through trampoline, and the exit all exist.
        assert_eq!(f.num_blocks(), 5);
        let latch_target = f
            .block(BlockId::new(1))
            .last()
            .and_then(|i| i.op.branch_target())
            .expect("latch branches");
        // The original header's cond branch was flipped to exit...
        assert_eq!(
            latch_target,
            BlockId::new(4),
            "flipped branch targets the exit"
        );
        // ...and the copy's branch still loops back to the original header.
        let copy_target = f
            .block(BlockId::new(2))
            .last()
            .and_then(|i| i.op.branch_target())
            .expect("copy branches");
        assert_eq!(copy_target, BlockId::new(1));
    }

    #[test]
    fn rotates_two_block_loop_with_fallthrough_header() {
        let text = "func t\n\
            init:\n LI r1=0\n LI r2=0\n LI r9=7\n\
            h:\n AI r2=r2,1\n\
            l:\n A r1=r1,r2\n C cr0=r2,r9\n BT h,cr0,0x1/lt\n\
            done:\n PRINT r1\n RET\n";
        let mut f = parse_function(text).expect("parses");
        let before = execute(&f, &[], &ExecConfig::default()).expect("runs");
        assert!(rotate_loop(&mut f, BlockId::new(1), BlockId::new(2)));
        f.verify().expect("well formed");
        let after = execute(&f, &[], &ExecConfig::default()).expect("runs");
        assert!(before.equivalent(&after));
        assert_eq!(after.printed(), vec![28]);
        // The copy ends with an appended jump back into the loop body.
        let copy = f.block(BlockId::new(3));
        assert!(matches!(
            copy.last().map(|i| &i.op),
            Some(Op::Branch { .. })
        ));
    }

    #[test]
    fn rotates_loop_with_conditional_header() {
        // Top-test loop: header tests, body accumulates, latch jumps back.
        let text = "func c\n\
            init:\n LI r1=0\n LI r2=0\n LI r9=4\n\
            h:\n C cr0=r2,r9\n BF done,cr0,0x1/lt\n\
            body:\n AI r2=r2,1\n A r1=r1,r2\n B h\n\
            done:\n PRINT r1\n RET\n";
        let mut f = parse_function(text).expect("parses");
        let before = execute(&f, &[], &ExecConfig::default()).expect("runs");
        assert!(rotate_loop(&mut f, BlockId::new(1), BlockId::new(2)));
        f.verify().expect("well formed");
        let after = execute(&f, &[], &ExecConfig::default()).expect("runs");
        assert!(before.equivalent(&after));
        assert_eq!(after.printed(), vec![10]);
    }

    #[test]
    fn rejects_multiple_back_edges() {
        let text = "func m\n\
            init:\n LI r1=0\n\
            h:\n C cr0=r1,r9\n BT h,cr0,0x4/eq\n\
            l:\n AI r1=r1,1\n C cr1=r1,r9\n BT h,cr1,0x1/lt\n\
            done:\n RET\n";
        let mut f = parse_function(text).expect("parses");
        assert!(!rotate_loop(&mut f, BlockId::new(1), BlockId::new(2)));
    }
}
