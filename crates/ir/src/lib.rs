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
//! use gis_ir::parse_function;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Clamp r0 at zero: skip `neg` unless r0 < 0.
//! let f = parse_function(
//!     "func clamp_neg\n\
//!      entry:\n CI cr0=r0,0\n BF done,cr0,0x1/lt\n\
//!      neg:\n LI r0=0\n\
//!      done:\n RET\n",
//! )?;
//! assert_eq!(f.num_blocks(), 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod bitset;
mod block;
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
pub use canon::{
    canon_region, canon_region_into, from_canonical_bytes, to_canonical_bytes, CanonError,
};
pub use function::{BlockMut, BlockRef, BlockSnapshot, Function, SymId};
pub use op::{CondBit, FpBinOp, FxBinOp, MemRef, Op, OpClass};
pub use parse::{parse_function, ParseFunctionError, MAX_INST_ID, MAX_REG_INDEX};
pub use reg::{Reg, RegClass};
pub use verify::VerifyFunctionError;
