//! Canonical byte serialization of [`Function`]s.
//!
//! A deterministic, platform-independent binary form: the same function
//! always serializes to the same bytes, so the bytes can serve as a
//! *content address*. `gis-serve`'s schedule cache keys on the FNV-64 of
//! this encoding (plus machine and config fingerprints), and the wire
//! protocol can ship functions in this form where text would be wasteful.
//!
//! The field order is fixed by this module and versioned by a leading
//! format byte: function name, symbol table, allocator counters, then
//! blocks in layout order (label, then instructions in order, each as a
//! stable id plus a tagged operation). Every integer is little-endian.
//! Nothing about the encoding depends on hash-map iteration order or
//! pointer values, and a round-trip restores the function *exactly* —
//! including the fresh-id counters, which matters because a scheduled
//! function's output text depends on which fresh registers renaming
//! hands out.

use crate::block::{BlockId, Inst, InstId};
use crate::function::{Function, SymId};
use crate::op::{CondBit, FpBinOp, FxBinOp, MemRef, Op};
use crate::reg::{Reg, RegClass};
use std::fmt;

/// The format magic ("GIS function").
const MAGIC: &[u8; 4] = b"GISF";

/// Current encoding version.
const VERSION: u8 = 1;

/// A malformed canonical encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the problem in the input.
    pub offset: usize,
}

impl fmt::Display for CanonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "canonical decode: {} at byte {}",
            self.message, self.offset
        )
    }
}

impl std::error::Error for CanonError {}

/// Serializes a function into its canonical byte form.
///
/// Deterministic: equal functions (same name, symbols, allocator state,
/// blocks, labels, instruction ids and operations) produce equal bytes.
///
/// ```
/// use gis_ir::{canon, parse_function};
///
/// let f = parse_function("func t\ne:\n LI r0=7\n PRINT r0\n RET\n").unwrap();
/// let bytes = canon::to_canonical_bytes(&f);
/// let g = canon::from_canonical_bytes(&bytes).unwrap();
/// assert_eq!(f.to_string(), g.to_string());
/// assert_eq!(bytes, canon::to_canonical_bytes(&g));
/// ```
pub fn to_canonical_bytes(f: &Function) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + f.num_insts() * 16);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    put_str(&mut out, f.name());
    let symbols: Vec<&str> = f.symbols().map(|(_, s)| s).collect();
    put_u32(&mut out, symbols.len() as u32);
    for s in symbols {
        put_str(&mut out, s);
    }
    put_u32(&mut out, f.inst_id_bound() as u32);
    for c in f.reg_counters() {
        put_u32(&mut out, c);
    }
    put_u32(&mut out, f.num_blocks() as u32);
    for (_, block) in f.blocks() {
        put_str(&mut out, block.label());
        put_u32(&mut out, block.len() as u32);
        for inst in block.insts() {
            put_u32(&mut out, inst.id.index() as u32);
            put_op(&mut out, &inst.op);
        }
    }
    out
}

/// Decodes a function from its canonical byte form, restoring it exactly
/// (see [`to_canonical_bytes`]). Branch targets are checked against the
/// block count; everything else structural is the caller's concern
/// ([`Function::verify`] accepts exactly the functions the rest of the
/// workspace does).
pub fn from_canonical_bytes(bytes: &[u8]) -> Result<Function, CanonError> {
    let mut c = Cursor { bytes, pos: 0 };
    let magic = c.take(4)?;
    if magic != MAGIC {
        return Err(c.fail("bad magic (not a canonical function)"));
    }
    let version = c.u8()?;
    if version != VERSION {
        return Err(c.fail(&format!("unsupported version {version}")));
    }
    let name = c.str()?;
    let mut f = Function::new(name);
    let n_syms = c.u32()? as usize;
    for _ in 0..n_syms {
        let s = c.str()?;
        f.add_symbol(s);
    }
    let next_inst = c.u32()?;
    let next_reg = [c.u32()?, c.u32()?, c.u32()?];
    let n_blocks = c.u32()? as usize;
    for _ in 0..n_blocks {
        let label = c.str()?;
        let id = f.add_block(label);
        let n = c.u32()? as usize;
        for _ in 0..n {
            let inst_id = InstId::new(c.u32()?);
            let op = c.op(n_syms)?;
            f.block_mut(id).push(Inst::new(inst_id, op));
        }
    }
    if c.pos != bytes.len() {
        return Err(c.fail("trailing bytes after function"));
    }
    // Branch targets must refer to decoded blocks.
    for (_, inst) in f.insts() {
        if let Some(t) = inst.op.branch_target() {
            if t.index() >= n_blocks {
                return Err(CanonError {
                    message: format!("branch target {t} out of range ({n_blocks} blocks)"),
                    offset: bytes.len(),
                });
            }
        }
    }
    f.set_allocators(next_inst, next_reg);
    Ok(f)
}

// --------------------------------------------------------------- regions

/// The region-subtree format magic ("GIS region").
const REGION_MAGIC: &[u8; 4] = b"GISR";

/// Current region encoding version. Bump when the field order, widths or
/// tags of [`canon_region`] change — every persisted region-memo key
/// derives from it.
const REGION_VERSION: u8 = 1;

/// Serializes one region subtree — an arbitrary set of blocks of `f` —
/// into a canonical byte form, the region-granular analogue of
/// [`to_canonical_bytes`].
///
/// Blocks are encoded in ascending [`BlockId`] order regardless of the
/// order given, so callers can pass subtree block lists as they fall out
/// of a region-tree walk. Each block contributes its id, label, successor
/// ids (branch targets plus fallthrough, so the control shape *inside and
/// out of* the region is pinned), then its instructions as stable id plus
/// tagged operation. Block and instruction ids are the function's
/// absolute ids: two regions only share an address when their numbering
/// agrees, which is exactly the contract the scheduler's splice machinery
/// needs (it re-uses the recorded ids verbatim).
///
/// The bytes depend only on the logical layout-ordered content, so
/// snapshotting or round-tripping the function leaves them unchanged.
pub fn canon_region(f: &Function, blocks: &[BlockId]) -> Vec<u8> {
    let mut sorted: Vec<BlockId> = blocks.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut out = Vec::with_capacity(16 + sorted.len() * 24);
    out.extend_from_slice(REGION_MAGIC);
    out.push(REGION_VERSION);
    put_u32(&mut out, sorted.len() as u32);
    for &b in &sorted {
        let block = f.block(b);
        put_u32(&mut out, b.index() as u32);
        put_str(&mut out, block.label());
        let succs = f.succs(b);
        put_u32(&mut out, succs.len() as u32);
        for s in succs {
            put_u32(&mut out, s.index() as u32);
        }
        put_u32(&mut out, block.len() as u32);
        for inst in block.insts() {
            put_u32(&mut out, inst.id.index() as u32);
            put_op(&mut out, &inst.op);
        }
    }
    out
}

// --------------------------------------------------------------- encode

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_reg(out: &mut Vec<u8>, r: Reg) {
    out.push(r.class().slot() as u8);
    put_u32(out, r.index());
}

fn put_mem(out: &mut Vec<u8>, mem: &MemRef) {
    match mem.sym {
        Some(s) => {
            out.push(1);
            put_u32(out, s.index() as u32);
        }
        None => out.push(0),
    }
    put_reg(out, mem.base);
    put_i64(out, mem.disp);
}

fn fx_tag(op: FxBinOp) -> u8 {
    match op {
        FxBinOp::Add => 0,
        FxBinOp::Sub => 1,
        FxBinOp::Mul => 2,
        FxBinOp::Div => 3,
        FxBinOp::And => 4,
        FxBinOp::Or => 5,
        FxBinOp::Xor => 6,
        FxBinOp::Sll => 7,
        FxBinOp::Srl => 8,
        FxBinOp::Sra => 9,
    }
}

fn fp_tag(op: FpBinOp) -> u8 {
    match op {
        FpBinOp::Add => 0,
        FpBinOp::Sub => 1,
        FpBinOp::Mul => 2,
        FpBinOp::Div => 3,
    }
}

fn bit_tag(bit: CondBit) -> u8 {
    match bit {
        CondBit::Lt => 0,
        CondBit::Gt => 1,
        CondBit::Eq => 2,
    }
}

fn put_op(out: &mut Vec<u8>, op: &Op) {
    match op {
        Op::Load { rt, mem } => {
            out.push(0);
            put_reg(out, *rt);
            put_mem(out, mem);
        }
        Op::LoadUpdate { rt, mem } => {
            out.push(1);
            put_reg(out, *rt);
            put_mem(out, mem);
        }
        Op::Store { rs, mem } => {
            out.push(2);
            put_reg(out, *rs);
            put_mem(out, mem);
        }
        Op::StoreUpdate { rs, mem } => {
            out.push(3);
            put_reg(out, *rs);
            put_mem(out, mem);
        }
        Op::LoadImm { rt, imm } => {
            out.push(4);
            put_reg(out, *rt);
            put_i64(out, *imm);
        }
        Op::Move { rt, rs } => {
            out.push(5);
            put_reg(out, *rt);
            put_reg(out, *rs);
        }
        Op::Fx { op, rt, ra, rb } => {
            out.push(6);
            out.push(fx_tag(*op));
            put_reg(out, *rt);
            put_reg(out, *ra);
            put_reg(out, *rb);
        }
        Op::FxImm { op, rt, ra, imm } => {
            out.push(7);
            out.push(fx_tag(*op));
            put_reg(out, *rt);
            put_reg(out, *ra);
            put_i64(out, *imm);
        }
        Op::Fp { op, rt, ra, rb } => {
            out.push(8);
            out.push(fp_tag(*op));
            put_reg(out, *rt);
            put_reg(out, *ra);
            put_reg(out, *rb);
        }
        Op::Compare { crt, ra, rb } => {
            out.push(9);
            put_reg(out, *crt);
            put_reg(out, *ra);
            put_reg(out, *rb);
        }
        Op::CompareImm { crt, ra, imm } => {
            out.push(10);
            put_reg(out, *crt);
            put_reg(out, *ra);
            put_i64(out, *imm);
        }
        Op::FpCompare { crt, ra, rb } => {
            out.push(11);
            put_reg(out, *crt);
            put_reg(out, *ra);
            put_reg(out, *rb);
        }
        Op::BranchCond {
            target,
            cr,
            bit,
            when,
        } => {
            out.push(12);
            put_u32(out, target.index() as u32);
            put_reg(out, *cr);
            out.push(bit_tag(*bit));
            out.push(u8::from(*when));
        }
        Op::Branch { target } => {
            out.push(13);
            put_u32(out, target.index() as u32);
        }
        Op::Ret => out.push(14),
        Op::Call { name, uses, defs } => {
            out.push(15);
            put_str(out, name);
            put_u32(out, uses.len() as u32);
            for r in uses {
                put_reg(out, *r);
            }
            put_u32(out, defs.len() as u32);
            for r in defs {
                put_reg(out, *r);
            }
        }
        Op::Print { rs } => {
            out.push(16);
            put_reg(out, *rs);
        }
    }
}

// --------------------------------------------------------------- decode

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn fail(&self, message: &str) -> CanonError {
        CanonError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CanonError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| self.fail("truncated input"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CanonError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CanonError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn i64(&mut self) -> Result<i64, CanonError> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn str(&mut self) -> Result<String, CanonError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.fail("invalid UTF-8 in string"))
    }

    fn reg(&mut self) -> Result<Reg, CanonError> {
        let tag = self.u8()?;
        let Some(&class) = RegClass::ALL.get(tag as usize) else {
            return Err(self.fail(&format!("bad register class tag {tag}")));
        };
        Ok(Reg::new(class, self.u32()?))
    }

    fn mem(&mut self, n_syms: usize) -> Result<MemRef, CanonError> {
        let sym = match self.u8()? {
            0 => None,
            1 => {
                let s = self.u32()? as usize;
                if s >= n_syms {
                    return Err(self.fail(&format!("symbol {s} out of range ({n_syms} symbols)")));
                }
                Some(SymId::new(s as u32))
            }
            other => return Err(self.fail(&format!("bad symbol presence tag {other}"))),
        };
        let base = self.reg()?;
        let disp = self.i64()?;
        Ok(MemRef { sym, base, disp })
    }

    fn fx(&mut self) -> Result<FxBinOp, CanonError> {
        Ok(match self.u8()? {
            0 => FxBinOp::Add,
            1 => FxBinOp::Sub,
            2 => FxBinOp::Mul,
            3 => FxBinOp::Div,
            4 => FxBinOp::And,
            5 => FxBinOp::Or,
            6 => FxBinOp::Xor,
            7 => FxBinOp::Sll,
            8 => FxBinOp::Srl,
            9 => FxBinOp::Sra,
            other => return Err(self.fail(&format!("bad fx op tag {other}"))),
        })
    }

    fn fp(&mut self) -> Result<FpBinOp, CanonError> {
        Ok(match self.u8()? {
            0 => FpBinOp::Add,
            1 => FpBinOp::Sub,
            2 => FpBinOp::Mul,
            3 => FpBinOp::Div,
            other => return Err(self.fail(&format!("bad fp op tag {other}"))),
        })
    }

    fn bit(&mut self) -> Result<CondBit, CanonError> {
        Ok(match self.u8()? {
            0 => CondBit::Lt,
            1 => CondBit::Gt,
            2 => CondBit::Eq,
            other => return Err(self.fail(&format!("bad condition bit tag {other}"))),
        })
    }

    fn regs(&mut self) -> Result<Vec<Reg>, CanonError> {
        let n = self.u32()? as usize;
        // Guard against absurd counts from corrupt input before reserving.
        if n > self.bytes.len() {
            return Err(self.fail("register list longer than the input"));
        }
        (0..n).map(|_| self.reg()).collect()
    }

    fn op(&mut self, n_syms: usize) -> Result<Op, CanonError> {
        Ok(match self.u8()? {
            0 => Op::Load {
                rt: self.reg()?,
                mem: self.mem(n_syms)?,
            },
            1 => Op::LoadUpdate {
                rt: self.reg()?,
                mem: self.mem(n_syms)?,
            },
            2 => Op::Store {
                rs: self.reg()?,
                mem: self.mem(n_syms)?,
            },
            3 => Op::StoreUpdate {
                rs: self.reg()?,
                mem: self.mem(n_syms)?,
            },
            4 => Op::LoadImm {
                rt: self.reg()?,
                imm: self.i64()?,
            },
            5 => Op::Move {
                rt: self.reg()?,
                rs: self.reg()?,
            },
            6 => Op::Fx {
                op: self.fx()?,
                rt: self.reg()?,
                ra: self.reg()?,
                rb: self.reg()?,
            },
            7 => Op::FxImm {
                op: self.fx()?,
                rt: self.reg()?,
                ra: self.reg()?,
                imm: self.i64()?,
            },
            8 => Op::Fp {
                op: self.fp()?,
                rt: self.reg()?,
                ra: self.reg()?,
                rb: self.reg()?,
            },
            9 => Op::Compare {
                crt: self.reg()?,
                ra: self.reg()?,
                rb: self.reg()?,
            },
            10 => Op::CompareImm {
                crt: self.reg()?,
                ra: self.reg()?,
                imm: self.i64()?,
            },
            11 => Op::FpCompare {
                crt: self.reg()?,
                ra: self.reg()?,
                rb: self.reg()?,
            },
            12 => Op::BranchCond {
                target: BlockId::new(self.u32()?),
                cr: self.reg()?,
                bit: self.bit()?,
                when: self.u8()? != 0,
            },
            13 => Op::Branch {
                target: BlockId::new(self.u32()?),
            },
            14 => Op::Ret,
            15 => Op::Call {
                name: self.str()?,
                uses: self.regs()?,
                defs: self.regs()?,
            },
            16 => Op::Print { rs: self.reg()? },
            other => return Err(self.fail(&format!("bad op tag {other}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fnv64;
    use crate::parse::parse_function;

    /// A function exercising every operation variant, both memory forms,
    /// all three register classes, symbols and a non-trivial allocator
    /// state.
    fn kitchen_sink() -> Function {
        let mut f = Function::new("sink");
        let a = f.add_symbol("a");
        let entry = f.add_block("CL.0");
        let body = f.add_block("CL.1");
        let done = f.add_block("CL.2");
        let g = Reg::gpr;
        let fp = Reg::fpr;
        let cr = Reg::cr;
        let ops = vec![
            Op::Load {
                rt: g(0),
                mem: MemRef::sym(a, g(1), 4),
            },
            Op::LoadUpdate {
                rt: g(2),
                mem: MemRef::bare(g(1), 8),
            },
            Op::LoadImm { rt: g(3), imm: -7 },
            Op::Move {
                rt: fp(0),
                rs: fp(1),
            },
            Op::Fx {
                op: FxBinOp::Xor,
                rt: g(4),
                ra: g(0),
                rb: g(2),
            },
            Op::FxImm {
                op: FxBinOp::Sra,
                rt: g(5),
                ra: g(4),
                imm: 3,
            },
            Op::Fp {
                op: FpBinOp::Mul,
                rt: fp(2),
                ra: fp(0),
                rb: fp(1),
            },
            Op::Compare {
                crt: cr(0),
                ra: g(4),
                rb: g(5),
            },
            Op::CompareImm {
                crt: cr(1),
                ra: g(3),
                imm: 0,
            },
            Op::FpCompare {
                crt: cr(2),
                ra: fp(0),
                rb: fp(2),
            },
            Op::BranchCond {
                target: body,
                cr: cr(0),
                bit: CondBit::Eq,
                when: false,
            },
        ];
        for op in ops {
            let id = f.fresh_inst_id();
            f.block_mut(entry).push(Inst::new(id, op));
        }
        let body_ops = vec![
            Op::Store {
                rs: g(5),
                mem: MemRef::sym(a, g(1), 0),
            },
            Op::StoreUpdate {
                rs: g(5),
                mem: MemRef::bare(g(1), 16),
            },
            Op::Call {
                name: "ext".into(),
                uses: vec![g(3), g(4)],
                defs: vec![g(6)],
            },
            Op::Print { rs: g(6) },
            Op::Branch { target: done },
        ];
        for op in body_ops {
            let id = f.fresh_inst_id();
            f.block_mut(body).push(Inst::new(id, op));
        }
        let id = f.fresh_inst_id();
        f.block_mut(done).push(Inst::new(id, Op::Ret));
        // Advance the allocators past the ids in use, as DCE would.
        f.fresh_inst_id();
        f.fresh_reg(RegClass::Gpr);
        f.fresh_reg(RegClass::Cr);
        f
    }

    #[test]
    fn round_trip_restores_everything() {
        let f = kitchen_sink();
        let bytes = to_canonical_bytes(&f);
        let g = from_canonical_bytes(&bytes).expect("decodes");
        assert_eq!(f.to_string(), g.to_string(), "same text");
        assert_eq!(f.name(), g.name());
        assert_eq!(f.inst_id_bound(), g.inst_id_bound(), "inst allocator");
        assert_eq!(f.reg_counters(), g.reg_counters(), "register allocators");
        assert_eq!(
            f.symbols().collect::<Vec<_>>(),
            g.symbols().collect::<Vec<_>>()
        );
        assert_eq!(bytes, to_canonical_bytes(&g), "encode is a fixed point");
    }

    #[test]
    fn round_trip_through_parser_agrees() {
        let text = "func t\nCL.0:\n LI r1=5\n CI cr0=r1,9\n BT CL.2,cr0,0x1/lt\nCL.1:\n AI r1=r1,1\nCL.2:\n PRINT r1\n RET\n";
        let f = parse_function(text).expect("parses");
        let g = from_canonical_bytes(&to_canonical_bytes(&f)).expect("decodes");
        assert_eq!(f.to_string(), g.to_string());
    }

    /// Determinism pin: the encoding of a fixed function must never
    /// change (field order, integer widths, tags). If this hash moves,
    /// bump [`VERSION`] — every persisted cache key derives from it.
    #[test]
    fn encoding_is_stable() {
        let f = parse_function("func t\ne:\n LI r0=1\n PRINT r0\n RET\n").expect("parses");
        let bytes = to_canonical_bytes(&f);
        assert_eq!(bytes[..5], *b"GISF\x01");
        assert_eq!(fnv64(&bytes), 0x1338_0528_2a96_9e80, "encoding drifted");
    }

    /// Determinism pin for the region-subtree encoding: fixed input,
    /// fixed bytes. If this hash moves, bump [`REGION_VERSION`] — every
    /// region-memo key derives from it.
    #[test]
    fn region_encoding_is_stable() {
        let text = "func t\nCL.0:\n LI r1=5\n CI cr0=r1,9\n BT CL.2,cr0,0x1/lt\nCL.1:\n AI r1=r1,1\nCL.2:\n PRINT r1\n RET\n";
        let f = parse_function(text).expect("parses");
        let all: Vec<BlockId> = f.blocks().map(|(b, _)| b).collect();
        let bytes = canon_region(&f, &all);
        assert_eq!(bytes[..5], *b"GISR\x01");
        assert_eq!(
            fnv64(&bytes),
            0x763e_5f3c_eb9d_60f8,
            "region encoding drifted"
        );
    }

    /// The block list is a *set*: order and duplicates in the caller's
    /// slice don't change the bytes, but which blocks are in the region
    /// does.
    #[test]
    fn region_encoding_is_order_insensitive() {
        let f = kitchen_sink();
        let all: Vec<BlockId> = f.blocks().map(|(b, _)| b).collect();
        let mut shuffled = all.clone();
        shuffled.reverse();
        shuffled.push(all[0]);
        assert_eq!(canon_region(&f, &all), canon_region(&f, &shuffled));
        assert_ne!(canon_region(&f, &all[..2]), canon_region(&f, &all));
        assert_ne!(canon_region(&f, &all[..1]), canon_region(&f, &all[1..2]));
    }

    /// The bytes address logical content: a canonical round-trip, or
    /// relinking an instruction away and back, leaves them fixed.
    #[test]
    fn region_bytes_survive_round_trip_and_relink() {
        let f = kitchen_sink();
        let all: Vec<BlockId> = f.blocks().map(|(b, _)| b).collect();
        let before = canon_region(&f, &all);

        let g = from_canonical_bytes(&to_canonical_bytes(&f)).expect("decodes");
        assert_eq!(canon_region(&g, &all), before, "round-trip moved the bytes");

        // Relink an instruction out of its block and back.
        let mut h = g;
        let entry = all[0];
        let done = all[2];
        let id = h.block(entry).inst_at(1).id;
        h.relink_inst(id, entry, done, 0);
        assert_ne!(canon_region(&h, &all), before, "motion must be visible");
        h.relink_inst(id, done, entry, 1);
        assert_eq!(canon_region(&h, &all), before, "restore must be invisible");
    }

    #[test]
    fn truncated_and_corrupt_inputs_are_rejected() {
        let f = kitchen_sink();
        let bytes = to_canonical_bytes(&f);
        for cut in [0, 3, 5, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                from_canonical_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(from_canonical_bytes(&wrong_magic).is_err());
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert!(from_canonical_bytes(&wrong_version).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(from_canonical_bytes(&trailing).is_err());
    }

    #[test]
    fn different_allocator_state_means_different_bytes() {
        // Two textually identical functions whose fresh-register counters
        // differ must not share a content address: scheduling them can
        // produce different renames.
        let f = parse_function("func t\ne:\n LI r0=1\n RET\n").expect("parses");
        let mut g = from_canonical_bytes(&to_canonical_bytes(&f)).expect("decodes");
        g.fresh_reg(RegClass::Gpr);
        assert_eq!(f.to_string(), g.to_string());
        assert_ne!(to_canonical_bytes(&f), to_canonical_bytes(&g));
    }
}
