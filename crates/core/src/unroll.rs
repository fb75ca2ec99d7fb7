//! Loop unrolling (§6: "inner regions that represent loops with up to 4
//! basic blocks are unrolled once").
//!
//! Unrolling clones the loop body right after itself: iteration-1 back
//! edges are redirected to the clone's header and the clone's back edges
//! return to the original header, so the loop body afterwards holds two
//! iterations (both loop-exit tests remain, exactly as the paper
//! describes: "after unrolling they include two iterations of a loop
//! instead of one").

use gis_ir::{BlockId, Function, Op};
use gis_trace::{SchedObserver, TraceEvent};

/// [`unroll_loop`], reporting a successful unroll to `obs`.
///
/// # Panics
///
/// See [`unroll_loop`].
pub fn unroll_loop_observed<O: SchedObserver>(
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
    let unrolled = unroll_loop(f, lo, hi);
    if unrolled {
        if let Some(header) = header {
            obs.event(TraceEvent::LoopUnrolled { header });
        }
    }
    unrolled
}

/// Unrolls the contiguous loop `[lo, hi]` (layout indices, `lo` the
/// header) once. Returns `false` without touching `f` when the loop's
/// shape is not supported:
///
/// * the blocks must be layout-contiguous with the header first;
/// * the last block must either branch (conditionally back to the header,
///   or unconditionally anywhere) or fall through out of the loop.
///
/// # Panics
///
/// Panics if `lo > hi` or `hi` is out of range.
pub fn unroll_loop(f: &mut Function, lo: BlockId, hi: BlockId) -> bool {
    assert!(lo <= hi, "empty loop range");
    assert!(hi.index() < f.num_blocks(), "loop range out of bounds");
    let (lo, hi) = (lo.index(), hi.index());
    let n = hi - lo + 1;

    // Classify the last block's ending.
    #[derive(PartialEq)]
    enum Ending {
        BackCond,    // conditional branch to the header, fall-through exits
        Uncond,      // unconditional branch (to header or elsewhere)
        FallsOut,    // no branch: falls through out of the loop
        Unsupported, // anything else
    }
    let ending = match f.block(BlockId::new(hi as u32)).last().map(|i| &i.op) {
        Some(Op::BranchCond { target, .. }) => {
            if target.index() == lo {
                Ending::BackCond
            } else {
                // Fall-through would land in the first clone: unsupported.
                Ending::Unsupported
            }
        }
        Some(Op::Branch { .. }) => Ending::Uncond,
        Some(Op::Ret) => Ending::Unsupported,
        _ => Ending::FallsOut,
    };
    if ending == Ending::Unsupported {
        return false;
    }
    // The flip trick and the fall-out case need an exit block after the
    // loop.
    if matches!(ending, Ending::BackCond | Ending::FallsOut) && hi + 1 >= f.num_blocks() {
        return false;
    }

    // 1. Insert the clone blocks (shifting all later branch targets).
    for k in 0..n {
        // Position-suffixed labels stay unique across repeated unrolling
        // rounds (verify rejects duplicates).
        let label = format!(
            "{}.u{}",
            f.block(BlockId::new((lo + k) as u32)).label(),
            hi + 1 + k
        );
        f.insert_block_at(hi + 1 + k, label);
    }
    let exit = BlockId::new((hi + 1 + n) as u32);

    // 2. Clone instruction contents; remap intra-loop forward targets into
    //    the clone, keep header targets pointing at the original header
    //    (the clone's back edge closes the unrolled loop).
    for k in 0..n {
        let src = BlockId::new((lo + k) as u32);
        let dst = BlockId::new((hi + 1 + k) as u32);
        f.clone_insts_into(src, dst);
        let shift = n as u32;
        f.map_block_insts(dst, |inst| {
            inst.op.map_targets(|t| {
                if t.index() > lo && t.index() <= hi {
                    BlockId::new(t.index() as u32 + shift)
                } else {
                    t
                }
            });
        });
    }

    // 3. Redirect the original body's back edges into the clone's header,
    //    flipping the final conditional branch so its fall-through (the
    //    loop exit) survives the insertion.
    let clone_header = BlockId::new((hi + 1) as u32);
    for b in lo..=hi {
        let bid = BlockId::new(b as u32);
        let Some(last) = f.block(bid).last() else {
            continue;
        };
        match last.op.clone() {
            Op::BranchCond {
                target,
                cr,
                bit,
                when,
            } if target.index() == lo => {
                let len = f.block(bid).len();
                let mut bm = f.block_mut(bid);
                let op = &mut bm.inst_mut(len - 1).op;
                if b == hi {
                    // Taken used to mean "next iteration"; now exiting is
                    // the branch and the next iteration falls through into
                    // the clone.
                    *op = Op::BranchCond {
                        target: exit,
                        cr,
                        bit,
                        when: !when,
                    };
                } else {
                    *op = Op::BranchCond {
                        target: clone_header,
                        cr,
                        bit,
                        when,
                    };
                }
            }
            Op::Branch { target } if target.index() == lo => {
                let len = f.block(bid).len();
                let mut bm = f.block_mut(bid);
                bm.inst_mut(len - 1).op = Op::Branch {
                    target: clone_header,
                };
            }
            _ => {}
        }
    }
    // A body that used to fall through out of the loop must now jump over
    // the clone.
    if ending == Ending::FallsOut {
        let id = f.fresh_inst_id();
        f.block_mut(BlockId::new(hi as u32))
            .push(gis_ir::Inst::new(id, Op::Branch { target: exit }));
    }

    debug_assert_eq!(f.verify(), Ok(()));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_ir::parse_function;
    use gis_sim::{execute, ExecConfig};

    /// Sums 1..=5 with a bottom-test loop.
    const SUM: &str = "func sum\n\
        init:\n LI r1=0\n LI r2=0\n LI r9=5\n\
        loop:\n AI r2=r2,1\n A r1=r1,r2\n C cr0=r2,r9\n BT loop,cr0,0x1/lt\n\
        done:\n PRINT r1\n RET\n";

    #[test]
    fn unrolls_single_block_bottom_test_loop() {
        let mut f = parse_function(SUM).expect("parses");
        let before = execute(&f, &[], &ExecConfig::default()).expect("runs");
        assert!(unroll_loop(&mut f, BlockId::new(1), BlockId::new(1)));
        f.verify().expect("well formed");
        assert_eq!(f.num_blocks(), 4, "one clone block added");
        let after = execute(&f, &[], &ExecConfig::default()).expect("runs");
        assert!(before.equivalent(&after), "unrolling preserves semantics");
        assert_eq!(after.printed(), vec![15]);
        // Iterations alternate between the original body and the clone.
        let clone = BlockId::new(2);
        assert!(after.block_trace.contains(&clone));
    }

    #[test]
    fn unrolls_multi_block_loop() {
        // Loop with an if inside: accumulate only even numbers.
        let text = "func evens\n\
            init:\n LI r1=0\n LI r2=0\n LI r9=8\n LI r8=2\n\
            head:\n AI r2=r2,1\n DIV r3=r2,r8\n MUL r3=r3,r8\n C cr1=r3,r2\n BF skip,cr1,0x4/eq\n\
            add:\n A r1=r1,r2\n\
            skip:\n C cr0=r2,r9\n BT head,cr0,0x1/lt\n\
            done:\n PRINT r1\n RET\n";
        let mut f = parse_function(text).expect("parses");
        let before = execute(&f, &[], &ExecConfig::default()).expect("runs");
        assert!(unroll_loop(&mut f, BlockId::new(1), BlockId::new(3)));
        f.verify().expect("well formed");
        assert_eq!(f.num_blocks(), 8);
        let after = execute(&f, &[], &ExecConfig::default()).expect("runs");
        assert!(before.equivalent(&after));
        assert_eq!(after.printed(), vec![2 + 4 + 6 + 8]);
    }

    #[test]
    fn rejects_unsupported_shapes() {
        // The loop's last block cond-branches to a non-header target.
        let text = "func odd\n\
            a:\n LI r1=0\n\
            h:\n AI r1=r1,1\n C cr0=r1,r9\n BT x,cr0,0x2/gt\n\
            m:\n B h\n\
            x:\n PRINT r1\n RET\n";
        let mut f = parse_function(text).expect("parses");
        // Loop blocks are h..m; m ends B h (fine) — but pass a wrong
        // range whose last block ends in a cond branch elsewhere.
        assert!(!unroll_loop(&mut f, BlockId::new(1), BlockId::new(1)));
        assert_eq!(f.num_blocks(), 4, "function untouched");
    }

    #[test]
    fn unrolls_loop_with_unconditional_latch() {
        let text = "func u\n\
            init:\n LI r1=0\n LI r9=6\n\
            h:\n AI r1=r1,1\n C cr0=r1,r9\n BF out,cr0,0x1/lt\n\
            l:\n B h\n\
            out:\n PRINT r1\n RET\n";
        let mut f = parse_function(text).expect("parses");
        let before = execute(&f, &[], &ExecConfig::default()).expect("runs");
        assert!(unroll_loop(&mut f, BlockId::new(1), BlockId::new(2)));
        f.verify().expect("well formed");
        let after = execute(&f, &[], &ExecConfig::default()).expect("runs");
        assert!(before.equivalent(&after));
        assert_eq!(after.printed(), vec![6]);
    }

    #[test]
    fn figure2_loop_unrolls_and_stays_correct() {
        use gis_workloads::minmax;
        let a: Vec<i64> = vec![4, 8, 2, 6, 9, 1, 5, 7, 3];
        let mut f = minmax::figure2_function(a.len() as i64);
        let before = execute(&f, &minmax::memory_image(&a), &ExecConfig::default()).expect("runs");
        // Loop blocks are 1..=10 (after the init block).
        assert!(unroll_loop(&mut f, BlockId::new(1), BlockId::new(10)));
        f.verify().expect("well formed");
        let after = execute(&f, &minmax::memory_image(&a), &ExecConfig::default()).expect("runs");
        assert!(before.equivalent(&after));
    }
}
