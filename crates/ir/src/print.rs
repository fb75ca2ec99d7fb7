//! Textual printing of functions in the paper's pseudo-code style.
//!
//! The output round-trips through [`parse_function`](crate::parse_function)
//! and looks like Figure 2 of the paper:
//!
//! ```text
//! func minmax
//! CL.0:
//!     (I0)   L      r12=a(r31,4)
//!     (I1)   LU     r0,r31=a(r31,8)
//!     (I2)   C      cr7=r12,r0
//!     (I3)   BF     CL.4,cr7,0x2/gt
//! ```

use crate::block::BlockId;
use crate::function::Function;
use crate::op::{MemRef, Op};
use crate::reg::Reg;
use std::fmt::{self, Write};

impl Function {
    /// Formats one operation using this function's labels and symbols.
    pub fn op_to_string(&self, op: &Op) -> String {
        let mut out = String::new();
        self.write_op(&mut out, op)
            .expect("writing to a String cannot fail");
        out
    }

    /// Writes one operation in its assembly spelling, straight into `w`:
    /// the one writer behind [`Function::op_to_string`] and the listing.
    fn write_op(&self, w: &mut impl Write, op: &Op) -> fmt::Result {
        let label = |b: BlockId| self.block(b).label();
        let sym = |mem: &MemRef| mem.sym.map_or("*", |s| self.symbol_name(s));
        match op {
            Op::Load { rt, mem } => {
                write!(w, "L      {rt}={}({},{})", sym(mem), mem.base, mem.disp)
            }
            Op::LoadUpdate { rt, mem } => write!(
                w,
                "LU     {rt},{}={}({},{})",
                mem.base,
                sym(mem),
                mem.base,
                mem.disp
            ),
            Op::Store { rs, mem } => {
                write!(w, "ST     {rs}=>{}({},{})", sym(mem), mem.base, mem.disp)
            }
            Op::StoreUpdate { rs, mem } => {
                write!(w, "STU    {rs}=>{}({},{})", sym(mem), mem.base, mem.disp)
            }
            Op::LoadImm { rt, imm } => write!(w, "LI     {rt}={imm}"),
            Op::Move { rt, rs } => write!(w, "LR     {rt}={rs}"),
            Op::Fx { op, rt, ra, rb } => write!(w, "{:<6} {rt}={ra},{rb}", op.mnemonic()),
            Op::FxImm { op, rt, ra, imm } => {
                write!(w, "{:<6} {rt}={ra},{imm}", op.imm_mnemonic())
            }
            Op::Fp { op, rt, ra, rb } => write!(w, "{:<6} {rt}={ra},{rb}", op.mnemonic()),
            Op::Compare { crt, ra, rb } => write!(w, "C      {crt}={ra},{rb}"),
            Op::CompareImm { crt, ra, imm } => write!(w, "CI     {crt}={ra},{imm}"),
            Op::FpCompare { crt, ra, rb } => write!(w, "FC     {crt}={ra},{rb}"),
            Op::BranchCond {
                target,
                cr,
                bit,
                when,
            } => {
                let mn = if *when { "BT" } else { "BF" };
                write!(w, "{mn:<6} {},{cr},{bit}", label(*target))
            }
            Op::Branch { target } => write!(w, "B      {}", label(*target)),
            Op::Ret => w.write_str("RET"),
            Op::Call { name, uses, defs } => {
                write!(w, "CALL   {name}(")?;
                write_regs(w, uses)?;
                w.write_str(")->(")?;
                write_regs(w, defs)?;
                w.write_char(')')
            }
            Op::Print { rs } => write!(w, "PRINT  {rs}"),
        }
    }
}

/// Writes a comma-separated register list.
fn write_regs(w: &mut impl Write, regs: &[Reg]) -> fmt::Result {
    for (i, r) in regs.iter().enumerate() {
        if i > 0 {
            w.write_char(',')?;
        }
        write!(w, "{r}")?;
    }
    Ok(())
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "func {}", self.name())?;
        for (_, block) in self.blocks() {
            writeln!(f, "{}:", block.label())?;
            for inst in block.insts() {
                // `I{n}` left-aligned in five columns, as `{:<5}` pads
                // the id's `Display` form.
                write!(f, "    (I{:<4}) ", inst.id.index())?;
                self.write_op(f, &inst.op)?;
                f.write_char('\n')?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::block::{Inst, InstId};
    use crate::function::Function;
    use crate::op::Op;
    use crate::reg::Reg;

    #[test]
    fn printed_form_matches_paper_style() {
        let f = crate::parse_function(
            "func t\nCL.0:\n L r0=a(r1,4)\n C cr0=r0,r0\n BF CL.4,cr0,0x2/gt\nCL.4:\n RET\n",
        )
        .expect("parses");
        let text = f.to_string();
        assert!(text.contains("func t"), "{text}");
        assert!(text.contains("CL.0:"), "{text}");
        assert!(text.contains("L      r0=a(r1,4)"), "{text}");
        assert!(text.contains("BF     CL.4,cr0,0x2/gt"), "{text}");
        assert!(text.contains("RET"), "{text}");
    }

    #[test]
    fn ids_pad_to_five_columns_and_register_lists_join() {
        let mut f = Function::new("t");
        let e = f.add_block("e");
        f.block_mut(e).push(Inst::new(
            InstId::new(7),
            Op::Call {
                name: "g".into(),
                uses: vec![Reg::gpr(1), Reg::gpr(2)],
                defs: vec![Reg::gpr(3)],
            },
        ));
        f.block_mut(e)
            .push(Inst::new(InstId::new(123_456), Op::Ret));
        assert_eq!(
            f.to_string(),
            "func t\ne:\n    (I7   ) CALL   g(r1,r2)->(r3)\n    (I123456) RET\n"
        );
        assert_eq!(f.op_to_string(&Op::Ret), "RET");
    }
}
