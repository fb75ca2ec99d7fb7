//! Structural verification of functions.

use crate::bitset::DenseBitSet;
use crate::block::{BlockId, InstId};
use crate::function::Function;
use crate::op::check_operand_classes;
use crate::reg::Reg;
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
    /// A register's index is not below its class's allocation counter,
    /// so [`Function::fresh_reg`] could hand it out again.
    RegOutOfBounds {
        /// The instruction naming the register.
        id: InstId,
        /// The out-of-bounds register.
        reg: Reg,
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
            VerifyFunctionError::RegOutOfBounds { id, reg } => {
                write!(f, "register {reg} at {id} is outside the allocation bound")
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
    /// targets exist, labels and instruction ids are unique, instruction
    /// ids and registers are below the allocation counters (so fresh ones
    /// never collide), operand register classes match, and control cannot
    /// fall off the end of the function.
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
        let reg_bound = self.reg_counters();
        let mut regs: Vec<Reg> = Vec::new();

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
                regs.clear();
                inst.op.defs_into(&mut regs);
                inst.op.uses_into(&mut regs);
                if let Some(&reg) = regs
                    .iter()
                    .find(|r| r.index() >= reg_bound[r.class().slot()])
                {
                    return Err(VerifyFunctionError::RegOutOfBounds { id: inst.id, reg });
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
    use crate::reg::RegClass;

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
        let rt = f.fresh_reg(RegClass::Gpr);
        f.block_mut(b)
            .push(Inst::new(id, Op::LoadImm { rt, imm: 0 }));
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
        let cr = f.fresh_reg(RegClass::Cr);
        f.block_mut(b).push(Inst::new(
            id0,
            Op::BranchCond {
                target: b,
                cr,
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
        let rt = f.fresh_reg(RegClass::Gpr);
        f.block_mut(b)
            .push(Inst::new(id, Op::LoadImm { rt, imm: 0 }));
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
        let (rt, rs) = (f.fresh_reg(RegClass::Gpr), f.fresh_reg(RegClass::Cr));
        f.block_mut(b).push(Inst::new(id, Op::Move { rt, rs }));
        let id2 = f.fresh_inst_id();
        f.block_mut(b).push(Inst::new(id2, Op::Ret));
        assert!(matches!(
            f.verify(),
            Err(VerifyFunctionError::OperandClass { .. })
        ));
    }

    #[test]
    fn registers_at_or_above_their_counter_rejected() {
        // A register the counter has not passed could be handed out
        // again by `fresh_reg`.
        let mut f = ret_function();
        let id = f.fresh_inst_id();
        let rt = Reg::gpr(0);
        f.block_mut(BlockId::new(0))
            .insert(0, Inst::new(id, Op::LoadImm { rt, imm: 0 }));
        assert_eq!(
            f.verify(),
            Err(VerifyFunctionError::RegOutOfBounds { id, reg: rt })
        );
        f.recompute_allocators();
        assert_eq!(f.verify(), Ok(()));
        // The parser sets the counters past every register it reads, so
        // its output verifies.
        let parsed = crate::parse_function("func p\nA:\n LI r7=1\n C cr3=r7,r2\n RET\n")
            .expect("parses and verifies");
        assert_eq!(parsed.reg_counters(), [8, 0, 4]);
    }
}
