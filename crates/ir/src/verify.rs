//! Structural verification of functions.

use crate::bitset::DenseBitSet;
use crate::block::{BlockId, InstId};
use crate::function::Function;
use crate::op::check_operand_classes;
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// A structural invariant violated by a [`Function`].
///
/// Returned by [`Function::verify`]; transformation passes re-verify after
/// mutating a function, so a failure here indicates a bug in the pass (or a
/// hand-built function that was never well formed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyFunctionError {
    /// The function has no blocks.
    Empty,
    /// Two blocks share a label.
    DuplicateLabel {
        /// The shared label.
        label: String,
    },
    /// Two instructions share an id.
    DuplicateInstId {
        /// The shared id.
        id: InstId,
    },
    /// An instruction id is not below the function's allocation bound.
    InstIdOutOfBounds {
        /// The out-of-bounds id.
        id: InstId,
    },
    /// A branch appears before the end of its block.
    BranchNotLast {
        /// Block holding the misplaced branch.
        block: BlockId,
        /// The misplaced branch.
        id: InstId,
    },
    /// A branch targets a block id that does not exist.
    TargetOutOfRange {
        /// Block holding the dangling branch.
        block: BlockId,
        /// The dangling branch.
        id: InstId,
    },
    /// Control can fall through past the final block.
    FallsOffEnd {
        /// The final block.
        block: BlockId,
    },
    /// An operand has the wrong register class.
    OperandClass {
        /// Block holding the offending instruction.
        block: BlockId,
        /// The offending instruction.
        id: InstId,
        /// Which operand violates which class constraint.
        detail: String,
    },
    /// A memory reference names a symbol that does not exist.
    SymbolOutOfRange {
        /// Block holding the offending instruction.
        block: BlockId,
        /// The offending instruction.
        id: InstId,
    },
}

impl fmt::Display for VerifyFunctionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyFunctionError::Empty => write!(f, "function has no blocks"),
            VerifyFunctionError::DuplicateLabel { label } => {
                write!(f, "duplicate block label {label:?}")
            }
            VerifyFunctionError::DuplicateInstId { id } => {
                write!(f, "duplicate instruction id {id}")
            }
            VerifyFunctionError::InstIdOutOfBounds { id } => {
                write!(f, "instruction id {id} is outside the allocation bound")
            }
            VerifyFunctionError::BranchNotLast { block, id } => {
                write!(f, "branch {id} is not the last instruction of {block}")
            }
            VerifyFunctionError::TargetOutOfRange { block, id } => {
                write!(f, "branch {id} in {block} targets a nonexistent block")
            }
            VerifyFunctionError::FallsOffEnd { block } => {
                write!(f, "control falls through past final block {block}")
            }
            VerifyFunctionError::OperandClass { block, id, detail } => {
                write!(f, "operand class violation at {id} in {block}: {detail}")
            }
            VerifyFunctionError::SymbolOutOfRange { block, id } => {
                write!(
                    f,
                    "memory reference at {id} in {block} names a nonexistent symbol"
                )
            }
        }
    }
}

impl Error for VerifyFunctionError {}

impl Function {
    /// Checks the structural invariants every pass relies on: blocks end
    /// in at most one branch and only as the final instruction, branch
    /// targets exist, labels and instruction ids are unique, operand
    /// register classes match, and control cannot fall off the end of the
    /// function.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`VerifyFunctionError`].
    pub fn verify(&self) -> Result<(), VerifyFunctionError> {
        if self.num_blocks() == 0 {
            return Err(VerifyFunctionError::Empty);
        }

        let num_blocks = self.num_blocks();
        let mut labels = HashSet::with_capacity(num_blocks);
        let num_syms = self.symbols().count();
        let bound = self.inst_id_bound();
        let mut ids = DenseBitSet::with_capacity(bound);

        for (bid, block) in self.blocks() {
            if !labels.insert(block.label()) {
                return Err(VerifyFunctionError::DuplicateLabel {
                    label: block.label().to_owned(),
                });
            }
            let len = block.len();
            for (pos, inst) in block.insts().enumerate() {
                // Bound first, so the id set never grows past it. The
                // order reports the same error: an id out of bounds fails
                // at its first occurrence, before it could repeat.
                if inst.id.index() >= bound {
                    return Err(VerifyFunctionError::InstIdOutOfBounds { id: inst.id });
                }
                if !ids.insert(inst.id.index()) {
                    return Err(VerifyFunctionError::DuplicateInstId { id: inst.id });
                }
                if inst.op.is_branch() && pos + 1 != len {
                    return Err(VerifyFunctionError::BranchNotLast {
                        block: bid,
                        id: inst.id,
                    });
                }
                if let Some(t) = inst.op.branch_target() {
                    if t.index() >= num_blocks {
                        return Err(VerifyFunctionError::TargetOutOfRange {
                            block: bid,
                            id: inst.id,
                        });
                    }
                }
                if let Some((mem, _)) = inst.op.mem_access() {
                    if let Some(sym) = mem.sym {
                        if sym.index() >= num_syms {
                            return Err(VerifyFunctionError::SymbolOutOfRange {
                                block: bid,
                                id: inst.id,
                            });
                        }
                    }
                }
                if let Err(detail) = check_operand_classes(&inst.op) {
                    return Err(VerifyFunctionError::OperandClass {
                        block: bid,
                        id: inst.id,
                        detail,
                    });
                }
            }
        }

        let last = BlockId::new(num_blocks as u32 - 1);
        if self.block(last).falls_through() {
            return Err(VerifyFunctionError::FallsOffEnd { block: last });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Inst;
    use crate::op::{CondBit, Op};
    use crate::reg::Reg;

    fn ret_function() -> Function {
        let mut f = Function::new("t");
        let b = f.add_block("e");
        let id = f.fresh_inst_id();
        f.block_mut(b).push(Inst::new(id, Op::Ret));
        f
    }

    #[test]
    fn minimal_function_verifies() {
        assert_eq!(ret_function().verify(), Ok(()));
    }

    #[test]
    fn empty_function_rejected() {
        assert_eq!(Function::new("t").verify(), Err(VerifyFunctionError::Empty));
    }

    #[test]
    fn branch_must_be_last() {
        let mut f = ret_function();
        let b = BlockId::new(0);
        let id = f.fresh_inst_id();
        // Insert an unconditional branch *before* the RET.
        f.block_mut(b)
            .insert(0, Inst::new(id, Op::Branch { target: b }));
        assert!(matches!(
            f.verify(),
            Err(VerifyFunctionError::BranchNotLast { .. })
        ));
    }

    #[test]
    fn dangling_target_rejected() {
        let mut f = Function::new("t");
        let b = f.add_block("e");
        let id = f.fresh_inst_id();
        f.block_mut(b).push(Inst::new(
            id,
            Op::Branch {
                target: BlockId::new(9),
            },
        ));
        assert!(matches!(
            f.verify(),
            Err(VerifyFunctionError::TargetOutOfRange { .. })
        ));
    }

    #[test]
    fn fallthrough_off_end_rejected() {
        let mut f = Function::new("t");
        let b = f.add_block("e");
        let id = f.fresh_inst_id();
        f.block_mut(b).push(Inst::new(
            id,
            Op::LoadImm {
                rt: Reg::gpr(0),
                imm: 0,
            },
        ));
        assert!(matches!(
            f.verify(),
            Err(VerifyFunctionError::FallsOffEnd { .. })
        ));
    }

    #[test]
    fn cond_branch_followed_by_code_rejected() {
        let mut f = Function::new("t");
        let b = f.add_block("e");
        let id0 = f.fresh_inst_id();
        f.block_mut(b).push(Inst::new(
            id0,
            Op::BranchCond {
                target: b,
                cr: Reg::cr(0),
                bit: CondBit::Eq,
                when: true,
            },
        ));
        let id1 = f.fresh_inst_id();
        f.block_mut(b).push(Inst::new(id1, Op::Ret));
        assert!(matches!(
            f.verify(),
            Err(VerifyFunctionError::BranchNotLast { .. })
        ));
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut f = Function::new("t");
        let b = f.add_block("e");
        let id = f.fresh_inst_id();
        f.block_mut(b).push(Inst::new(
            id,
            Op::LoadImm {
                rt: Reg::gpr(0),
                imm: 0,
            },
        ));
        f.block_mut(b).push(Inst::new(id, Op::Ret));
        assert!(matches!(
            f.verify(),
            Err(VerifyFunctionError::DuplicateInstId { .. })
        ));
    }

    #[test]
    fn class_violation_rejected() {
        let mut f = Function::new("t");
        let b = f.add_block("e");
        let id = f.fresh_inst_id();
        f.block_mut(b).push(Inst::new(
            id,
            Op::Move {
                rt: Reg::gpr(0),
                rs: Reg::cr(0),
            },
        ));
        let id2 = f.fresh_inst_id();
        f.block_mut(b).push(Inst::new(id2, Op::Ret));
        assert!(matches!(
            f.verify(),
            Err(VerifyFunctionError::OperandClass { .. })
        ));
    }
}
