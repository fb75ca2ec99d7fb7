//! RS/6000-flavoured RISC intermediate representation.
//!
//! This crate provides the program representation consumed by every other
//! crate in the workspace: a function is a layout-ordered list of basic
//! blocks holding instructions over an unbounded set of *symbolic*
//! registers, exactly the level at which Bernstein & Rodeh's global
//! instruction scheduler operates (after machine-independent optimization,
//! before register allocation).
//!
//! The instruction set mirrors the pseudo-code of Figure 2 of the paper:
//! loads and stores (including *load with update*), fixed- and
//! floating-point arithmetic, compares that set a condition-register field,
//! and branches that test a single condition bit.
//!
//! # Example
//!
//! ```
//! use gis_ir::{Function, FunctionBuilder, CondBit};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = FunctionBuilder::new("clamp_neg");
//! let r_in = b.gpr();
//! let cr = b.cr();
//!
//! let entry = b.block("entry");
//! let neg = b.block("neg");
//! let done = b.block("done");
//!
//! b.switch_to(entry);
//! b.compare_imm(cr, r_in, 0);
//! b.branch_false(done, cr, CondBit::Lt); // skip `neg` unless r_in < 0
//!
//! b.switch_to(neg);
//! b.load_imm(r_in, 0);
//!
//! b.switch_to(done);
//! b.ret();
//!
//! let f: Function = b.finish()?;
//! assert_eq!(f.num_blocks(), 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod bitset;
mod block;
mod builder;
pub mod canon;
mod function;
pub mod hash;
mod op;
mod parse;
mod print;
mod reg;
mod verify;

pub use bitset::{DenseBitSet, RegSet};
pub use block::{BlockId, Inst, InstId};
pub use builder::FunctionBuilder;
pub use canon::{canon_region, from_canonical_bytes, to_canonical_bytes, CanonError};
pub use function::{BlockMut, BlockRef, Function, SymId};
pub use op::{CondBit, FpBinOp, FxBinOp, MemRef, Op, OpClass};
pub use parse::{parse_function, ParseFunctionError, MAX_INST_ID};
pub use reg::{Reg, RegClass};
pub use verify::VerifyFunctionError;
