//! Basic blocks and instructions.
//!
//! A block is a label plus the ordered instructions it owns. The public
//! way to read a block is [`Function::block`](crate::Function::block)
//! (returning a [`BlockRef`](crate::BlockRef) view) and the public way to
//! mutate one is [`Function::block_mut`](crate::Function::block_mut)
//! (returning a [`BlockMut`](crate::BlockMut)).

use crate::op::Op;
use std::fmt;

/// Identifies a basic block within its [`Function`](crate::Function).
///
/// Block ids are dense indices into the function's layout-ordered block
/// vector, so they double as array indices in the analysis crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(u32);

impl BlockId {
    /// Creates a block id from a raw index.
    pub fn new(index: u32) -> Self {
        BlockId(index)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BL{}", self.0)
    }
}

/// Identifies an instruction within its [`Function`](crate::Function).
///
/// Instruction ids are assigned once and survive scheduling: when the
/// global scheduler moves an instruction between blocks its id does not
/// change, which is how tests pin down motions like "I18 moved into BL1".
/// Ids are dense (suitable for dense side tables) but *positional lookup*
/// by id costs a scan of the block; `(BlockId, position)` is the O(1)
/// handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstId(u32);

impl InstId {
    /// Creates an instruction id from a raw index.
    pub fn new(index: u32) -> Self {
        InstId(index)
    }

    /// The raw index (dense within a function; suitable as a vector index).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "I{}", self.0)
    }
}

/// An instruction: a stable id plus its [`Op`].
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    /// Stable identity (see [`InstId`]).
    pub id: InstId,
    /// The operation.
    pub op: Op,
}

impl Inst {
    /// Creates an instruction.
    pub fn new(id: InstId, op: Op) -> Self {
        Inst { id, op }
    }
}

/// Block storage: a label and the block's instructions in order.
#[derive(Debug, Clone)]
pub(crate) struct BlockData {
    pub(crate) label: String,
    pub(crate) insts: Vec<Inst>,
}

impl BlockData {
    pub(crate) fn new(label: impl Into<String>) -> Self {
        BlockData {
            label: label.into(),
            insts: Vec::new(),
        }
    }
}
