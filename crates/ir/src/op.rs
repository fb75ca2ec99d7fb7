//! Instruction operations and their static properties.

use crate::block::BlockId;
use crate::function::SymId;
use crate::reg::{Reg, RegClass};
use std::fmt;

/// One bit of a condition register field, set by compares and tested by
/// conditional branches.
///
/// The paper's pseudo-code spells these `0x1/lt`, `0x2/gt`, `0x4/eq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CondBit {
    /// "Less than" bit, mask `0x1`.
    Lt,
    /// "Greater than" bit, mask `0x2`.
    Gt,
    /// "Equal" bit, mask `0x4`.
    Eq,
}

impl CondBit {
    /// The mask used in the assembly spelling.
    pub fn mask(self) -> u8 {
        match self {
            CondBit::Lt => 0x1,
            CondBit::Gt => 0x2,
            CondBit::Eq => 0x4,
        }
    }

    /// The mnemonic suffix (`lt`, `gt`, `eq`).
    pub fn name(self) -> &'static str {
        match self {
            CondBit::Lt => "lt",
            CondBit::Gt => "gt",
            CondBit::Eq => "eq",
        }
    }
}

impl fmt::Display for CondBit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}/{}", self.mask(), self.name())
    }
}

/// A memory reference `sym(base, disp)`: the effective address is
/// `base + disp`, and `sym` (when present) names the object being
/// addressed, which the memory disambiguator uses to prove accesses
/// independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// The symbol (array / global) this access addresses, if known.
    pub sym: Option<SymId>,
    /// Base address register (always a GPR).
    pub base: Reg,
    /// Byte displacement added to the base.
    pub disp: i64,
}

impl MemRef {
    /// A reference with a known symbol.
    pub fn sym(sym: SymId, base: Reg, disp: i64) -> Self {
        MemRef {
            sym: Some(sym),
            base,
            disp,
        }
    }

    /// A reference with no symbol information (may alias anything).
    pub fn bare(base: Reg, disp: i64) -> Self {
        MemRef {
            sym: None,
            base,
            disp,
        }
    }
}

/// Fixed point binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FxBinOp {
    /// Wrapping addition (`A`).
    Add,
    /// Wrapping subtraction (`S`).
    Sub,
    /// Wrapping multiplication (`MUL`).
    Mul,
    /// Total division — `x / 0 == 0` (`DIV`).
    Div,
    /// Bitwise and (`AND`).
    And,
    /// Bitwise or (`OR`).
    Or,
    /// Bitwise exclusive or (`XOR`).
    Xor,
    /// Shift left logical.
    Sll,
    /// Shift right logical.
    Srl,
    /// Shift right arithmetic.
    Sra,
}

impl FxBinOp {
    /// Register-register mnemonic (`A`, `S`, `MUL`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            FxBinOp::Add => "A",
            FxBinOp::Sub => "S",
            FxBinOp::Mul => "MUL",
            FxBinOp::Div => "DIV",
            FxBinOp::And => "AND",
            FxBinOp::Or => "OR",
            FxBinOp::Xor => "XOR",
            FxBinOp::Sll => "SLL",
            FxBinOp::Srl => "SRL",
            FxBinOp::Sra => "SRA",
        }
    }

    /// Evaluates the operation on two's-complement 64-bit integers with
    /// *total* semantics: wrapping arithmetic, `x / 0 == 0`, and shift
    /// amounts masked to 6 bits. The simulator and the constant folder
    /// share this single definition, which is also what makes divides
    /// safe to execute speculatively in the machine model.
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            FxBinOp::Add => a.wrapping_add(b),
            FxBinOp::Sub => a.wrapping_sub(b),
            FxBinOp::Mul => a.wrapping_mul(b),
            FxBinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            FxBinOp::And => a & b,
            FxBinOp::Or => a | b,
            FxBinOp::Xor => a ^ b,
            FxBinOp::Sll => a.wrapping_shl((b & 63) as u32),
            FxBinOp::Srl => ((a as u64).wrapping_shr((b & 63) as u32)) as i64,
            FxBinOp::Sra => a.wrapping_shr((b & 63) as u32),
        }
    }

    /// Whether `a op b == b op a`.
    pub fn commutes(self) -> bool {
        matches!(
            self,
            FxBinOp::Add | FxBinOp::Mul | FxBinOp::And | FxBinOp::Or | FxBinOp::Xor
        )
    }

    /// Register-immediate mnemonic (`AI`, `SI`, `MULI`, ...).
    pub fn imm_mnemonic(self) -> &'static str {
        match self {
            FxBinOp::Add => "AI",
            FxBinOp::Sub => "SI",
            FxBinOp::Mul => "MULI",
            FxBinOp::Div => "DIVI",
            FxBinOp::And => "ANDI",
            FxBinOp::Or => "ORI",
            FxBinOp::Xor => "XORI",
            FxBinOp::Sll => "SLLI",
            FxBinOp::Srl => "SRLI",
            FxBinOp::Sra => "SRAI",
        }
    }
}

/// Floating point binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpBinOp {
    /// Addition (`FA`).
    Add,
    /// Subtraction (`FS`).
    Sub,
    /// Multiplication (`FM`).
    Mul,
    /// Division (`FD`).
    Div,
}

impl FpBinOp {
    /// Mnemonic (`FA`, `FS`, `FM`, `FD`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpBinOp::Add => "FA",
            FpBinOp::Sub => "FS",
            FpBinOp::Mul => "FM",
            FpBinOp::Div => "FD",
        }
    }
}

/// Coarse operation classes, the granularity at which the parametric
/// machine description assigns functional unit kinds, execution times and
/// delay rules (§2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Single-cycle fixed point computation (arith/logic/move/immediates).
    Fx,
    /// Fixed point multiply (multi-cycle).
    FxMul,
    /// Fixed point divide (multi-cycle).
    FxDiv,
    /// Memory load (delayed load rule applies).
    Load,
    /// Memory store.
    Store,
    /// Fixed point compare (compare→branch delay applies).
    FxCompare,
    /// Floating point computation (result delay applies).
    Fp,
    /// Floating point multiply.
    FpMul,
    /// Floating point divide.
    FpDiv,
    /// Floating point compare (longer compare→branch delay).
    FpCompare,
    /// Branch instructions (run on the branch unit).
    Branch,
    /// Calls and other opaque side-effecting operations.
    Call,
}

impl OpClass {
    /// Every class, in [`OpClass::index`] order (declaration order).
    pub const ALL: [OpClass; 12] = [
        OpClass::Fx,
        OpClass::FxMul,
        OpClass::FxDiv,
        OpClass::Load,
        OpClass::Store,
        OpClass::FxCompare,
        OpClass::Fp,
        OpClass::FpMul,
        OpClass::FpDiv,
        OpClass::FpCompare,
        OpClass::Branch,
        OpClass::Call,
    ];

    /// The class's position in [`OpClass::ALL`]. Per-class tables (the
    /// machine description's, the fingerprints' class order) index by it.
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OpClass::Fx => "fx",
            OpClass::FxMul => "fx-mul",
            OpClass::FxDiv => "fx-div",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::FxCompare => "fx-compare",
            OpClass::Fp => "fp",
            OpClass::FpMul => "fp-mul",
            OpClass::FpDiv => "fp-div",
            OpClass::FpCompare => "fp-compare",
            OpClass::Branch => "branch",
            OpClass::Call => "call",
        };
        f.write_str(name)
    }
}

/// An instruction operation.
///
/// Variants carry their operands directly; query methods ([`Op::defs`],
/// [`Op::uses`], [`Op::class`], ...) expose the uniform view the analyses
/// and the scheduler need. See the crate docs for the assembly spelling.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `L rt=sym(base,disp)` — load the word at `base+disp` into `rt`.
    Load {
        /// Target register.
        rt: Reg,
        /// Address read.
        mem: MemRef,
    },
    /// `LU rt,base=sym(base,disp)` — *load with update*: load the word at
    /// `base+disp` into `rt` and write the effective address back to
    /// `base` (the post-increment idiom of Figure 2's `I2`).
    LoadUpdate {
        /// Target register.
        rt: Reg,
        /// Address read; its base register is also written back.
        mem: MemRef,
    },
    /// `ST rs=>sym(base,disp)` — store `rs` to `base+disp`.
    Store {
        /// Source register.
        rs: Reg,
        /// Address written.
        mem: MemRef,
    },
    /// `STU rs=>sym(base,disp)` — store with update of the base register.
    StoreUpdate {
        /// Source register.
        rs: Reg,
        /// Address written; its base register is also written back.
        mem: MemRef,
    },
    /// `LI rt=imm` — load immediate.
    LoadImm {
        /// Target register.
        rt: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// `LR rt=rs` — register move (same class).
    Move {
        /// Target register.
        rt: Reg,
        /// Source register.
        rs: Reg,
    },
    /// Fixed point register-register operation, e.g. `A rt=ra,rb`.
    Fx {
        /// The arithmetic/logic operation.
        op: FxBinOp,
        /// Target register.
        rt: Reg,
        /// First operand.
        ra: Reg,
        /// Second operand.
        rb: Reg,
    },
    /// Fixed point register-immediate operation, e.g. `AI rt=ra,imm`.
    FxImm {
        /// The arithmetic/logic operation.
        op: FxBinOp,
        /// Target register.
        rt: Reg,
        /// Register operand.
        ra: Reg,
        /// Immediate operand.
        imm: i64,
    },
    /// Floating point register-register operation, e.g. `FA rt=ra,rb`.
    Fp {
        /// The floating point operation.
        op: FpBinOp,
        /// Target register.
        rt: Reg,
        /// First operand.
        ra: Reg,
        /// Second operand.
        rb: Reg,
    },
    /// `C crt=ra,rb` — fixed point compare setting `crt`'s lt/gt/eq bits.
    Compare {
        /// Condition register written.
        crt: Reg,
        /// First operand.
        ra: Reg,
        /// Second operand.
        rb: Reg,
    },
    /// `CI crt=ra,imm` — fixed point compare against an immediate.
    CompareImm {
        /// Condition register written.
        crt: Reg,
        /// Register operand.
        ra: Reg,
        /// Immediate compared against.
        imm: i64,
    },
    /// `FC crt=ra,rb` — floating point compare.
    FpCompare {
        /// Condition register written.
        crt: Reg,
        /// First operand.
        ra: Reg,
        /// Second operand.
        rb: Reg,
    },
    /// `BT/BF target,cr,bit` — conditional branch: taken when the given
    /// bit of `cr` equals `when`; otherwise control falls through.
    BranchCond {
        /// Block branched to when the condition holds.
        target: BlockId,
        /// Condition register tested.
        cr: Reg,
        /// Which condition bit is tested.
        bit: CondBit,
        /// The bit value that takes the branch (`true` for `BT`).
        when: bool,
    },
    /// `B target` — unconditional branch.
    Branch {
        /// Block branched to.
        target: BlockId,
    },
    /// `RET` — return from the function.
    Ret,
    /// `CALL name` — opaque call; uses and defines the listed registers
    /// and may read or write any memory. Never moved or speculated.
    Call {
        /// Callee name (opaque).
        name: String,
        /// Registers the call reads.
        uses: Vec<Reg>,
        /// Registers the call writes.
        defs: Vec<Reg>,
    },
    /// `PRINT rs` — append `rs` to the observable output trace (the
    /// reproduction's stand-in for `printf`). Behaves like a call.
    Print {
        /// Register whose value is printed.
        rs: Reg,
    },
}

impl Op {
    /// Registers written by this operation.
    pub fn defs(&self) -> Vec<Reg> {
        match self {
            Op::Load { rt, .. } | Op::LoadImm { rt, .. } | Op::Move { rt, .. } => vec![*rt],
            Op::LoadUpdate { rt, mem } => vec![*rt, mem.base],
            Op::Store { .. } => vec![],
            Op::StoreUpdate { mem, .. } => vec![mem.base],
            Op::Fx { rt, .. } | Op::FxImm { rt, .. } | Op::Fp { rt, .. } => vec![*rt],
            Op::Compare { crt, .. } | Op::CompareImm { crt, .. } | Op::FpCompare { crt, .. } => {
                vec![*crt]
            }
            Op::BranchCond { .. } | Op::Branch { .. } | Op::Ret | Op::Print { .. } => vec![],
            Op::Call { defs, .. } => defs.clone(),
        }
    }

    /// Appends the registers written by this operation to `out` —
    /// [`defs`](Self::defs) without the per-call allocation, for callers
    /// that batch many instructions into one buffer.
    pub fn defs_into(&self, out: &mut Vec<Reg>) {
        match self {
            Op::Load { rt, .. } | Op::LoadImm { rt, .. } | Op::Move { rt, .. } => out.push(*rt),
            Op::LoadUpdate { rt, mem } => out.extend([*rt, mem.base]),
            Op::Store { .. } => {}
            Op::StoreUpdate { mem, .. } => out.push(mem.base),
            Op::Fx { rt, .. } | Op::FxImm { rt, .. } | Op::Fp { rt, .. } => out.push(*rt),
            Op::Compare { crt, .. } | Op::CompareImm { crt, .. } | Op::FpCompare { crt, .. } => {
                out.push(*crt)
            }
            Op::BranchCond { .. } | Op::Branch { .. } | Op::Ret | Op::Print { .. } => {}
            Op::Call { defs, .. } => out.extend_from_slice(defs),
        }
    }

    /// The registers written by this operation, in [`defs`](Self::defs)
    /// order, without allocating.
    pub fn defs_iter(&self) -> impl Iterator<Item = Reg> + '_ {
        let none = Reg::gpr(0);
        let (fixed, n, rest): ([Reg; 2], usize, &[Reg]) = match self {
            Op::Load { rt, .. } | Op::LoadImm { rt, .. } | Op::Move { rt, .. } => {
                ([*rt, none], 1, &[])
            }
            Op::LoadUpdate { rt, mem } => ([*rt, mem.base], 2, &[]),
            Op::StoreUpdate { mem, .. } => ([mem.base, none], 1, &[]),
            Op::Fx { rt, .. } | Op::FxImm { rt, .. } | Op::Fp { rt, .. } => ([*rt, none], 1, &[]),
            Op::Compare { crt, .. } | Op::CompareImm { crt, .. } | Op::FpCompare { crt, .. } => {
                ([*crt, none], 1, &[])
            }
            Op::Store { .. }
            | Op::BranchCond { .. }
            | Op::Branch { .. }
            | Op::Ret
            | Op::Print { .. } => ([none; 2], 0, &[]),
            Op::Call { defs, .. } => ([none; 2], 0, defs),
        };
        fixed.into_iter().take(n).chain(rest.iter().copied())
    }

    /// Registers read by this operation.
    pub fn uses(&self) -> Vec<Reg> {
        match self {
            Op::Load { mem, .. } | Op::LoadUpdate { mem, .. } => vec![mem.base],
            Op::Store { rs, mem } | Op::StoreUpdate { rs, mem } => vec![*rs, mem.base],
            Op::LoadImm { .. } => vec![],
            Op::Move { rs, .. } => vec![*rs],
            Op::Fx { ra, rb, .. } | Op::Fp { ra, rb, .. } => vec![*ra, *rb],
            Op::FxImm { ra, .. } => vec![*ra],
            Op::Compare { ra, rb, .. } | Op::FpCompare { ra, rb, .. } => vec![*ra, *rb],
            Op::CompareImm { ra, .. } => vec![*ra],
            Op::BranchCond { cr, .. } => vec![*cr],
            Op::Branch { .. } | Op::Ret => vec![],
            Op::Call { uses, .. } => uses.clone(),
            Op::Print { rs } => vec![*rs],
        }
    }

    /// Appends the registers read by this operation to `out` —
    /// [`uses`](Self::uses) without the per-call allocation.
    pub fn uses_into(&self, out: &mut Vec<Reg>) {
        match self {
            Op::Load { mem, .. } | Op::LoadUpdate { mem, .. } => out.push(mem.base),
            Op::Store { rs, mem } | Op::StoreUpdate { rs, mem } => out.extend([*rs, mem.base]),
            Op::LoadImm { .. } => {}
            Op::Move { rs, .. } => out.push(*rs),
            Op::Fx { ra, rb, .. } | Op::Fp { ra, rb, .. } => out.extend([*ra, *rb]),
            Op::FxImm { ra, .. } => out.push(*ra),
            Op::Compare { ra, rb, .. } | Op::FpCompare { ra, rb, .. } => out.extend([*ra, *rb]),
            Op::CompareImm { ra, .. } => out.push(*ra),
            Op::BranchCond { cr, .. } => out.push(*cr),
            Op::Branch { .. } | Op::Ret => {}
            Op::Call { uses, .. } => out.extend_from_slice(uses),
            Op::Print { rs } => out.push(*rs),
        }
    }

    /// The registers read by this operation, in [`uses`](Self::uses)
    /// order, without allocating.
    pub fn uses_iter(&self) -> impl Iterator<Item = Reg> + '_ {
        let none = Reg::gpr(0);
        let (fixed, n, rest): ([Reg; 2], usize, &[Reg]) = match self {
            Op::Load { mem, .. } | Op::LoadUpdate { mem, .. } => ([mem.base, none], 1, &[]),
            Op::Store { rs, mem } | Op::StoreUpdate { rs, mem } => ([*rs, mem.base], 2, &[]),
            Op::Move { rs, .. } | Op::Print { rs } => ([*rs, none], 1, &[]),
            Op::Fx { ra, rb, .. }
            | Op::Fp { ra, rb, .. }
            | Op::Compare { ra, rb, .. }
            | Op::FpCompare { ra, rb, .. } => ([*ra, *rb], 2, &[]),
            Op::FxImm { ra, .. } | Op::CompareImm { ra, .. } => ([*ra, none], 1, &[]),
            Op::BranchCond { cr, .. } => ([*cr, none], 1, &[]),
            Op::LoadImm { .. } | Op::Branch { .. } | Op::Ret => ([none; 2], 0, &[]),
            Op::Call { uses, .. } => ([none; 2], 0, uses),
        };
        fixed.into_iter().take(n).chain(rest.iter().copied())
    }

    /// The coarse class used by the parametric machine description.
    pub fn class(&self) -> OpClass {
        match self {
            Op::Load { rt, .. } | Op::LoadUpdate { rt, .. } => {
                // Loads into an FPR still occupy the fixed point unit on
                // the RS/6000; the class stays `Load` either way.
                let _ = rt;
                OpClass::Load
            }
            Op::Store { .. } | Op::StoreUpdate { .. } => OpClass::Store,
            Op::LoadImm { .. } | Op::Move { .. } => OpClass::Fx,
            Op::Fx { op, .. } | Op::FxImm { op, .. } => match op {
                FxBinOp::Mul => OpClass::FxMul,
                FxBinOp::Div => OpClass::FxDiv,
                _ => OpClass::Fx,
            },
            Op::Fp { op, .. } => match op {
                FpBinOp::Mul => OpClass::FpMul,
                FpBinOp::Div => OpClass::FpDiv,
                _ => OpClass::Fp,
            },
            Op::Compare { .. } | Op::CompareImm { .. } => OpClass::FxCompare,
            Op::FpCompare { .. } => OpClass::FpCompare,
            Op::BranchCond { .. } | Op::Branch { .. } | Op::Ret => OpClass::Branch,
            Op::Call { .. } | Op::Print { .. } => OpClass::Call,
        }
    }

    /// Whether this is any kind of branch (including `RET`).
    pub fn is_branch(&self) -> bool {
        matches!(self, Op::BranchCond { .. } | Op::Branch { .. } | Op::Ret)
    }

    /// Whether this operation ends a basic block unconditionally
    /// (no fall-through successor).
    pub fn is_block_end(&self) -> bool {
        matches!(self, Op::Branch { .. } | Op::Ret)
    }

    /// Explicit branch target, if any.
    pub fn branch_target(&self) -> Option<BlockId> {
        match self {
            Op::BranchCond { target, .. } | Op::Branch { target } => Some(*target),
            _ => None,
        }
    }

    /// Whether this operation reads or writes memory (or may, as calls do).
    pub fn touches_memory(&self) -> bool {
        matches!(
            self,
            Op::Load { .. }
                | Op::LoadUpdate { .. }
                | Op::Store { .. }
                | Op::StoreUpdate { .. }
                | Op::Call { .. }
                | Op::Print { .. }
        )
    }

    /// The memory reference and whether it is a write, for plain
    /// loads/stores. Calls return `None` (they conservatively conflict
    /// with everything via [`Op::touches_memory`]).
    pub fn mem_access(&self) -> Option<(MemRef, bool)> {
        match self {
            Op::Load { mem, .. } | Op::LoadUpdate { mem, .. } => Some((*mem, false)),
            Op::Store { mem, .. } | Op::StoreUpdate { mem, .. } => Some((*mem, true)),
            _ => None,
        }
    }

    /// Whether this operation writes memory (or may).
    pub fn writes_memory(&self) -> bool {
        matches!(
            self,
            Op::Store { .. } | Op::StoreUpdate { .. } | Op::Call { .. } | Op::Print { .. }
        )
    }

    /// Whether the scheduler may move this instruction beyond its basic
    /// block at all. The paper excludes calls (§5.1); we treat `PRINT`
    /// as a call. Branches are anchored by the framework itself.
    pub fn may_cross_block(&self) -> bool {
        !matches!(self, Op::Call { .. } | Op::Print { .. }) && !self.is_branch()
    }

    /// Whether the scheduler may execute this instruction speculatively
    /// (§5.1: never stores, never calls; branches are anchored).
    pub fn may_speculate(&self) -> bool {
        self.may_cross_block() && !self.writes_memory()
    }

    /// Applies `f` to every register this operation *uses*.
    ///
    /// Note the update forms (`LU`/`STU`) hold their base register in one
    /// field that is simultaneously a use and a def; rewriting the use also
    /// rewrites the def. Renaming passes must keep such defs and uses in
    /// the same web (see `gis-pdg`).
    pub fn map_uses(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        match self {
            Op::Load { mem, .. } | Op::LoadUpdate { mem, .. } => mem.base = f(mem.base),
            Op::Store { rs, mem } | Op::StoreUpdate { rs, mem } => {
                *rs = f(*rs);
                mem.base = f(mem.base);
            }
            Op::LoadImm { .. } => {}
            Op::Move { rs, .. } => *rs = f(*rs),
            Op::Fx { ra, rb, .. } | Op::Fp { ra, rb, .. } => {
                *ra = f(*ra);
                *rb = f(*rb);
            }
            Op::FxImm { ra, .. } => *ra = f(*ra),
            Op::Compare { ra, rb, .. } | Op::FpCompare { ra, rb, .. } => {
                *ra = f(*ra);
                *rb = f(*rb);
            }
            Op::CompareImm { ra, .. } => *ra = f(*ra),
            Op::BranchCond { cr, .. } => *cr = f(*cr),
            Op::Branch { .. } | Op::Ret => {}
            Op::Call { uses, .. } => {
                for u in uses {
                    *u = f(*u);
                }
            }
            Op::Print { rs } => *rs = f(*rs),
        }
    }

    /// Applies `f` to every register this operation *defines*.
    ///
    /// See [`Op::map_uses`] for the caveat about update-form base
    /// registers.
    pub fn map_defs(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        match self {
            Op::Load { rt, .. } | Op::LoadImm { rt, .. } | Op::Move { rt, .. } => *rt = f(*rt),
            Op::LoadUpdate { rt, mem } => {
                *rt = f(*rt);
                mem.base = f(mem.base);
            }
            Op::Store { .. } => {}
            Op::StoreUpdate { mem, .. } => mem.base = f(mem.base),
            Op::Fx { rt, .. } | Op::FxImm { rt, .. } | Op::Fp { rt, .. } => *rt = f(*rt),
            Op::Compare { crt, .. } | Op::CompareImm { crt, .. } | Op::FpCompare { crt, .. } => {
                *crt = f(*crt)
            }
            Op::BranchCond { .. } | Op::Branch { .. } | Op::Ret | Op::Print { .. } => {}
            Op::Call { defs, .. } => {
                for d in defs {
                    *d = f(*d);
                }
            }
        }
    }

    /// Whether the def and a use of this op are tied to the same storage
    /// (the update-form base register), so renaming cannot separate them.
    pub fn has_tied_base(&self) -> bool {
        matches!(self, Op::LoadUpdate { .. } | Op::StoreUpdate { .. })
    }

    /// Applies `f` to every branch target (used when cloning blocks for
    /// unrolling / rotation).
    pub fn map_targets(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Op::BranchCond { target, .. } | Op::Branch { target } => *target = f(*target),
            _ => {}
        }
    }
}

/// Verifies class expectations of the operands; returns a human-readable
/// complaint on the first violation.
pub(crate) fn check_operand_classes(op: &Op) -> Result<(), String> {
    let want = |r: Reg, c: RegClass, what: &str| -> Result<(), String> {
        if r.class() == c {
            Ok(())
        } else {
            Err(format!("{what} must be {c}, got {r}"))
        }
    };
    match op {
        Op::Load { mem, .. }
        | Op::LoadUpdate { mem, .. }
        | Op::Store { mem, .. }
        | Op::StoreUpdate { mem, .. } => want(mem.base, RegClass::Gpr, "memory base"),
        Op::LoadImm { rt, .. } => want(*rt, RegClass::Gpr, "LI target"),
        Op::Move { rt, rs } => {
            if rt.class() == rs.class() {
                Ok(())
            } else {
                Err(format!("LR operands must share a class, got {rt}={rs}"))
            }
        }
        Op::Fx { rt, ra, rb, .. } => {
            want(*rt, RegClass::Gpr, "fx target")?;
            want(*ra, RegClass::Gpr, "fx operand")?;
            want(*rb, RegClass::Gpr, "fx operand")
        }
        Op::FxImm { rt, ra, .. } => {
            want(*rt, RegClass::Gpr, "fx target")?;
            want(*ra, RegClass::Gpr, "fx operand")
        }
        Op::Fp { rt, ra, rb, .. } => {
            want(*rt, RegClass::Fpr, "fp target")?;
            want(*ra, RegClass::Fpr, "fp operand")?;
            want(*rb, RegClass::Fpr, "fp operand")
        }
        Op::Compare { crt, ra, rb } => {
            want(*crt, RegClass::Cr, "compare target")?;
            want(*ra, RegClass::Gpr, "compare operand")?;
            want(*rb, RegClass::Gpr, "compare operand")
        }
        Op::CompareImm { crt, ra, .. } => {
            want(*crt, RegClass::Cr, "compare target")?;
            want(*ra, RegClass::Gpr, "compare operand")
        }
        Op::FpCompare { crt, ra, rb } => {
            want(*crt, RegClass::Cr, "compare target")?;
            want(*ra, RegClass::Fpr, "fp compare operand")?;
            want(*rb, RegClass::Fpr, "fp compare operand")
        }
        Op::BranchCond { cr, .. } => want(*cr, RegClass::Cr, "branch condition"),
        Op::Branch { .. } | Op::Ret | Op::Call { .. } => Ok(()),
        Op::Print { rs } => want(*rs, RegClass::Gpr, "PRINT operand"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpr(i: u32) -> Reg {
        Reg::gpr(i)
    }

    #[test]
    fn op_class_index_is_its_position_in_all() {
        for (i, class) in OpClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i, "{class}");
        }
    }

    #[test]
    fn load_update_defs_both_target_and_base() {
        let op = Op::LoadUpdate {
            rt: gpr(0),
            mem: MemRef::bare(gpr(31), 8),
        };
        assert_eq!(op.defs(), vec![gpr(0), gpr(31)]);
        assert_eq!(op.uses(), vec![gpr(31)]);
        assert!(op.has_tied_base());
    }

    #[test]
    fn store_defs_nothing_uses_value_and_base() {
        let op = Op::Store {
            rs: gpr(5),
            mem: MemRef::bare(gpr(1), 0),
        };
        assert!(op.defs().is_empty());
        assert_eq!(op.uses(), vec![gpr(5), gpr(1)]);
        assert!(op.writes_memory());
        assert!(!op.may_speculate());
        assert!(op.may_cross_block());
    }

    #[test]
    fn branch_classification() {
        let b = Op::Branch {
            target: BlockId::new(3),
        };
        assert!(b.is_branch());
        assert!(b.is_block_end());
        assert_eq!(b.branch_target(), Some(BlockId::new(3)));
        let bc = Op::BranchCond {
            target: BlockId::new(1),
            cr: Reg::cr(7),
            bit: CondBit::Gt,
            when: false,
        };
        assert!(bc.is_branch());
        assert!(!bc.is_block_end());
        assert_eq!(bc.uses(), vec![Reg::cr(7)]);
    }

    #[test]
    fn call_and_print_are_anchored() {
        let call = Op::Call {
            name: "f".into(),
            uses: vec![gpr(3)],
            defs: vec![gpr(3)],
        };
        assert!(!call.may_cross_block());
        assert!(!call.may_speculate());
        assert!(call.touches_memory());
        let print = Op::Print { rs: gpr(3) };
        assert!(!print.may_cross_block());
        assert!(print.writes_memory(), "print is ordered like a store");
    }

    #[test]
    fn loads_may_speculate_stores_may_not() {
        let ld = Op::Load {
            rt: gpr(2),
            mem: MemRef::bare(gpr(1), 4),
        };
        assert!(ld.may_speculate());
        let st = Op::Store {
            rs: gpr(2),
            mem: MemRef::bare(gpr(1), 4),
        };
        assert!(!st.may_speculate());
    }

    #[test]
    fn classes() {
        assert_eq!(
            Op::Fx {
                op: FxBinOp::Mul,
                rt: gpr(0),
                ra: gpr(1),
                rb: gpr(2)
            }
            .class(),
            OpClass::FxMul
        );
        assert_eq!(
            Op::CompareImm {
                crt: Reg::cr(0),
                ra: gpr(1),
                imm: 3
            }
            .class(),
            OpClass::FxCompare
        );
        assert_eq!(Op::Ret.class(), OpClass::Branch);
    }

    #[test]
    fn map_defs_on_update_form_rewrites_base() {
        let mut op = Op::LoadUpdate {
            rt: gpr(0),
            mem: MemRef::bare(gpr(31), 8),
        };
        op.map_defs(|r| if r == gpr(31) { gpr(40) } else { r });
        assert_eq!(op.defs(), vec![gpr(0), gpr(40)]);
        // The tied use moved with it.
        assert_eq!(op.uses(), vec![gpr(40)]);
    }

    #[test]
    fn operand_class_checking() {
        assert!(check_operand_classes(&Op::Compare {
            crt: Reg::cr(1),
            ra: gpr(0),
            rb: gpr(2)
        })
        .is_ok());
        assert!(check_operand_classes(&Op::Compare {
            crt: gpr(1),
            ra: gpr(0),
            rb: gpr(2)
        })
        .is_err());
        assert!(check_operand_classes(&Op::Move {
            rt: gpr(1),
            rs: Reg::fpr(1)
        })
        .is_err());
    }
}
