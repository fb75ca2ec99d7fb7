//! Region-scoped views over a function.
//!
//! The global scheduler works one region at a time (§4 of the paper): a
//! region is a set of blocks, and every motion it performs stays inside
//! that set. A [`RegionView`] is the read-only lens for that shape — a
//! borrowed block-set over the arena, costing one `Vec` of block ids to
//! build and nothing per instruction.
//!
//! For *mutable* per-worker scratch, the companion primitive is
//! [`Function::snapshot`]: a copy-on-write snapshot whose cost is
//! reference-count bumps, which a worker mutates freely while the
//! original stays untouched.

use crate::block::{BlockId, Inst};
use crate::function::{BlockRef, Function};

/// A read-only view of a set of blocks (a scheduling region) within one
/// function.
///
/// ```
/// use gis_ir::{parse_function, RegionView};
///
/// let f = parse_function(
///     "func t\ne:\n LI r0=1\n BT tail,cr0,0x1/lt\nmid:\n AI r0=r0,1\ntail:\n RET\n",
/// )
/// .unwrap();
/// let blocks: Vec<_> = f.block_ids().take(2).collect();
/// let region = RegionView::new(&f, blocks);
/// assert_eq!(region.num_blocks(), 2);
/// assert_eq!(region.num_insts(), 3, "tail's RET is outside the region");
/// let ids: Vec<String> = region.insts().map(|(_, i)| i.id.to_string()).collect();
/// assert_eq!(ids, ["I0", "I1", "I2"]);
/// ```
pub struct RegionView<'a> {
    f: &'a Function,
    blocks: Vec<BlockId>,
}

impl<'a> RegionView<'a> {
    /// Creates a view over `blocks` of `f`, in the given order (regions
    /// enumerate their blocks in layout order; the view preserves
    /// whatever order the caller fixes).
    ///
    /// # Panics
    ///
    /// Panics if any block id is out of range for `f`.
    pub fn new(f: &'a Function, blocks: Vec<BlockId>) -> Self {
        for b in &blocks {
            assert!(b.index() < f.num_blocks(), "region block out of range");
        }
        RegionView { f, blocks }
    }

    /// The function this view borrows.
    pub fn function(&self) -> &'a Function {
        self.f
    }

    /// The block ids in the region, in view order.
    pub fn block_ids(&self) -> &[BlockId] {
        &self.blocks
    }

    /// Whether `b` is one of the region's blocks.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }

    /// Number of blocks in the region.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total instructions across the region's blocks. This is the size
    /// the §6 scheduling gates cap, and the weight the parallel
    /// partitioner balances work units by.
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|&b| self.f.block(b).len()).sum()
    }

    /// The region's blocks as [`BlockRef`] views, in view order.
    pub fn blocks(&self) -> impl Iterator<Item = BlockRef<'a>> + '_ {
        self.blocks.iter().map(|&b| self.f.block(b))
    }

    /// Every instruction in the region with its containing block, in
    /// view order then list order.
    pub fn insts(&self) -> impl Iterator<Item = (BlockId, &'a Inst)> + '_ {
        self.blocks
            .iter()
            .flat_map(|&b| self.f.block(b).insts().map(move |i| (b, i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_function;

    #[test]
    fn empty_region_is_fine() {
        let f = parse_function("func t\ne:\n RET\n").unwrap();
        let v = RegionView::new(&f, Vec::new());
        assert_eq!(v.num_blocks(), 0);
        assert_eq!(v.num_insts(), 0);
        assert_eq!(v.insts().count(), 0);
        assert!(!v.contains(f.entry()));
    }

    #[test]
    fn single_instruction_region() {
        let f = parse_function("func t\ne:\n RET\n").unwrap();
        let v = RegionView::new(&f, vec![f.entry()]);
        assert_eq!(v.num_insts(), 1);
        let (b, inst) = v.insts().next().unwrap();
        assert_eq!(b, f.entry());
        assert!(inst.op.is_block_end());
    }
}
