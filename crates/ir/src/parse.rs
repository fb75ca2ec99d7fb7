//! Parsing of the textual assembly form produced by the printer.

use crate::block::{BlockId, Inst, InstId};
use crate::function::Function;
use crate::op::{CondBit, FpBinOp, FxBinOp, MemRef, Op};
use crate::reg::Reg;
use crate::verify::VerifyFunctionError;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// An error produced by [`parse_function`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFunctionError {
    /// 1-based source line of the problem (0 when the problem is not tied
    /// to a single line, e.g. a post-parse verification failure).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseFunctionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "parse error: {}", self.message)
        } else {
            write!(f, "parse error at line {}: {}", self.line, self.message)
        }
    }
}

impl Error for ParseFunctionError {}

impl From<VerifyFunctionError> for ParseFunctionError {
    fn from(e: VerifyFunctionError) -> Self {
        ParseFunctionError {
            line: 0,
            message: e.to_string(),
        }
    }
}

/// The bound on explicit instruction ids: [`parse_function`] rejects an
/// `(In)` annotation with `n >= MAX_INST_ID`.
///
/// An explicit id sets [`Function::inst_id_bound`], which sizes the
/// verifier's per-instruction table, and the ids minted after it: a
/// region mixing those with low ids spans a wide id range in its
/// dependence graph's id→position map. So one large id in outside text
/// would cost memory in proportion to its value. The ids of a compiled
/// `many-loops-l` (about 18,700) stay far below it.
pub const MAX_INST_ID: u32 = 1 << 20;

/// The bound on register indices: [`parse_function`] rejects an `r`, `f`
/// or `cr` register whose index is at or above `MAX_REG_INDEX`.
///
/// Per-register tables (the allocators, renaming, liveness) are sized by
/// the largest index, so one large index in outside text would cost
/// memory in proportion to its value. The largest index of a scheduled
/// `many-loops-l` (about 25,800 after renaming) stays far below it.
pub const MAX_REG_INDEX: u32 = 1 << 17;

fn err(line: usize, message: impl Into<String>) -> ParseFunctionError {
    ParseFunctionError {
        line,
        message: message.into(),
    }
}

/// Parses the textual assembly form (see the [`print`](crate::Function)
/// docs for the grammar by example). Instruction id annotations `(I7)` are
/// honoured when present and assigned sequentially otherwise, so paper
/// listings can be transcribed with their original numbering.
///
/// # Errors
///
/// Returns a [`ParseFunctionError`] carrying the offending line (among
/// others for an explicit id at or above [`MAX_INST_ID`] or a register
/// index at or above [`MAX_REG_INDEX`]), or a line-0
/// error when the parsed function fails [`Function::verify`].
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let f = gis_ir::parse_function(
///     "func t\n\
///      CL.0:\n\
///      L r1=a(r2,4)\n\
///      RET\n",
/// )?;
/// assert_eq!(f.num_insts(), 2);
/// # Ok(())
/// # }
/// ```
pub fn parse_function(text: &str) -> Result<Function, ParseFunctionError> {
    let mut f = Function::new("main");
    let mut labels: HashMap<String, BlockId> = HashMap::new();

    // Pass 1: function name and block labels (in order).
    for (lno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("func ") {
            f = Function::new(name.trim());
            continue;
        }
        if let Some(label) = line.strip_suffix(':') {
            let label = label.trim();
            if label.is_empty() {
                return Err(err(lno + 1, "empty block label"));
            }
            if labels.contains_key(label) {
                return Err(err(lno + 1, format!("duplicate block label {label:?}")));
            }
            let id = f.add_block(label);
            labels.insert(label.to_owned(), id);
        }
    }

    // Pass 2: instructions.
    let mut current: Option<BlockId> = None;
    let mut next_id: u32 = 0;
    for (lno, raw) in text.lines().enumerate() {
        let lno = lno + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() || line.starts_with("func ") {
            continue;
        }
        if let Some(label) = line.strip_suffix(':') {
            current = Some(labels[label.trim()]);
            continue;
        }
        let block = current.ok_or_else(|| err(lno, "instruction before any block label"))?;

        let (id, rest) = parse_id_prefix(line, lno, &mut next_id)?;
        let op = parse_op(rest, lno, &mut f, &labels)?;
        f.block_mut(block).push(Inst::new(id, op));
    }

    f.recompute_allocators();
    f.verify()?;
    Ok(f)
}

fn strip_comment(line: &str) -> &str {
    let cut = line.find([';', '#']).unwrap_or(line.len());
    &line[..cut]
}

fn parse_id_prefix<'a>(
    line: &'a str,
    lno: usize,
    next_id: &mut u32,
) -> Result<(InstId, &'a str), ParseFunctionError> {
    if let Some(rest) = line.strip_prefix('(') {
        let close = rest
            .find(')')
            .ok_or_else(|| err(lno, "unclosed instruction id"))?;
        let tag = rest[..close].trim();
        let n: u32 = tag
            .strip_prefix('I')
            .and_then(|d| d.trim().parse().ok())
            .ok_or_else(|| err(lno, format!("bad instruction id {tag:?}")))?;
        if n >= MAX_INST_ID {
            return Err(err(
                lno,
                format!("instruction id {tag} is not below {MAX_INST_ID}"),
            ));
        }
        *next_id = (*next_id).max(n + 1);
        Ok((InstId::new(n), rest[close + 1..].trim_start()))
    } else {
        let id = InstId::new(*next_id);
        *next_id += 1;
        Ok((id, line))
    }
}

fn parse_reg(s: &str, lno: usize) -> Result<Reg, ParseFunctionError> {
    let s = s.trim();
    let (ctor, digits): (fn(u32) -> Reg, &str) = if let Some(d) = s.strip_prefix("cr") {
        (Reg::cr, d)
    } else if let Some(d) = s.strip_prefix('r') {
        (Reg::gpr, d)
    } else if let Some(d) = s.strip_prefix('f') {
        (Reg::fpr, d)
    } else {
        return Err(err(lno, format!("expected register, got {s:?}")));
    };
    let n: u32 = digits
        .parse()
        .map_err(|_| err(lno, format!("bad register index in {s:?}")))?;
    if n >= MAX_REG_INDEX {
        return Err(err(
            lno,
            format!("register index in {s:?} is not below {MAX_REG_INDEX}"),
        ));
    }
    Ok(ctor(n))
}

fn parse_imm(s: &str, lno: usize) -> Result<i64, ParseFunctionError> {
    s.trim()
        .parse()
        .map_err(|_| err(lno, format!("expected integer, got {s:?}")))
}

/// Parses `sym(base,disp)`; `*` stands for "no symbol".
fn parse_mem(s: &str, lno: usize, f: &mut Function) -> Result<MemRef, ParseFunctionError> {
    let s = s.trim();
    let open = s
        .find('(')
        .ok_or_else(|| err(lno, format!("expected mem ref, got {s:?}")))?;
    let close = s
        .rfind(')')
        .filter(|&c| c > open)
        .ok_or_else(|| err(lno, format!("unclosed mem ref in {s:?}")))?;
    let sym_name = s[..open].trim();
    let inner = &s[open + 1..close];
    let (base_s, disp_s) = inner
        .split_once(',')
        .ok_or_else(|| err(lno, format!("mem ref needs base,disp: {s:?}")))?;
    let base = parse_reg(base_s, lno)?;
    let disp = parse_imm(disp_s, lno)?;
    let sym = if sym_name == "*" || sym_name.is_empty() {
        None
    } else {
        Some(f.add_symbol(sym_name))
    };
    Ok(MemRef { sym, base, disp })
}

fn parse_cond_bit(s: &str, lno: usize) -> Result<CondBit, ParseFunctionError> {
    let s = s.trim();
    let name = s.rsplit('/').next().unwrap_or(s);
    match name {
        "lt" => Ok(CondBit::Lt),
        "gt" => Ok(CondBit::Gt),
        "eq" => Ok(CondBit::Eq),
        _ => Err(err(lno, format!("bad condition bit {s:?}"))),
    }
}

fn split2<'a>(
    s: &'a str,
    sep: char,
    lno: usize,
    what: &str,
) -> Result<(&'a str, &'a str), ParseFunctionError> {
    s.split_once(sep)
        .ok_or_else(|| err(lno, format!("malformed {what}: {s:?}")))
}

fn fx_binop(mn: &str) -> Option<(FxBinOp, bool)> {
    let table = [
        ("A", FxBinOp::Add),
        ("S", FxBinOp::Sub),
        ("MUL", FxBinOp::Mul),
        ("DIV", FxBinOp::Div),
        ("AND", FxBinOp::And),
        ("OR", FxBinOp::Or),
        ("XOR", FxBinOp::Xor),
        ("SLL", FxBinOp::Sll),
        ("SRL", FxBinOp::Srl),
        ("SRA", FxBinOp::Sra),
    ];
    for (name, op) in table {
        if mn == name {
            return Some((op, false));
        }
        if let Some(stripped) = mn.strip_suffix('I') {
            if stripped == name {
                return Some((op, true));
            }
        }
    }
    None
}

fn parse_op(
    line: &str,
    lno: usize,
    f: &mut Function,
    labels: &HashMap<String, BlockId>,
) -> Result<Op, ParseFunctionError> {
    let (mn, rest) = match line.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (line, ""),
    };
    let lookup = |label: &str| -> Result<BlockId, ParseFunctionError> {
        labels
            .get(label.trim())
            .copied()
            .ok_or_else(|| err(lno, format!("unknown label {label:?}")))
    };
    match mn {
        "L" => {
            let (rt, mem) = split2(rest, '=', lno, "load")?;
            Ok(Op::Load {
                rt: parse_reg(rt, lno)?,
                mem: parse_mem(mem, lno, f)?,
            })
        }
        "LU" => {
            let (lhs, mem) = split2(rest, '=', lno, "load-update")?;
            let (rt, base) = split2(lhs, ',', lno, "load-update targets")?;
            let rt = parse_reg(rt, lno)?;
            let base = parse_reg(base, lno)?;
            let mem = parse_mem(mem, lno, f)?;
            if mem.base != base {
                return Err(err(
                    lno,
                    "LU update register must equal the mem base register",
                ));
            }
            Ok(Op::LoadUpdate { rt, mem })
        }
        "ST" | "STU" => {
            let (rs, mem) = rest
                .split_once("=>")
                .ok_or_else(|| err(lno, format!("malformed store: {rest:?}")))?;
            let rs = parse_reg(rs, lno)?;
            let mem = parse_mem(mem, lno, f)?;
            if mn == "ST" {
                Ok(Op::Store { rs, mem })
            } else {
                Ok(Op::StoreUpdate { rs, mem })
            }
        }
        "LI" => {
            let (rt, imm) = split2(rest, '=', lno, "load-immediate")?;
            Ok(Op::LoadImm {
                rt: parse_reg(rt, lno)?,
                imm: parse_imm(imm, lno)?,
            })
        }
        "LR" => {
            let (rt, rs) = split2(rest, '=', lno, "move")?;
            Ok(Op::Move {
                rt: parse_reg(rt, lno)?,
                rs: parse_reg(rs, lno)?,
            })
        }
        "C" => {
            let (crt, ops) = split2(rest, '=', lno, "compare")?;
            let (ra, rb) = split2(ops, ',', lno, "compare operands")?;
            Ok(Op::Compare {
                crt: parse_reg(crt, lno)?,
                ra: parse_reg(ra, lno)?,
                rb: parse_reg(rb, lno)?,
            })
        }
        "CI" => {
            let (crt, ops) = split2(rest, '=', lno, "compare-immediate")?;
            let (ra, imm) = split2(ops, ',', lno, "compare operands")?;
            Ok(Op::CompareImm {
                crt: parse_reg(crt, lno)?,
                ra: parse_reg(ra, lno)?,
                imm: parse_imm(imm, lno)?,
            })
        }
        "FC" => {
            let (crt, ops) = split2(rest, '=', lno, "fp compare")?;
            let (ra, rb) = split2(ops, ',', lno, "fp compare operands")?;
            Ok(Op::FpCompare {
                crt: parse_reg(crt, lno)?,
                ra: parse_reg(ra, lno)?,
                rb: parse_reg(rb, lno)?,
            })
        }
        "FA" | "FS" | "FM" | "FD" => {
            let op = match mn {
                "FA" => FpBinOp::Add,
                "FS" => FpBinOp::Sub,
                "FM" => FpBinOp::Mul,
                _ => FpBinOp::Div,
            };
            let (rt, ops) = split2(rest, '=', lno, "fp op")?;
            let (ra, rb) = split2(ops, ',', lno, "fp operands")?;
            Ok(Op::Fp {
                op,
                rt: parse_reg(rt, lno)?,
                ra: parse_reg(ra, lno)?,
                rb: parse_reg(rb, lno)?,
            })
        }
        "BT" | "BF" => {
            let mut parts = rest.splitn(3, ',');
            let target = parts
                .next()
                .ok_or_else(|| err(lno, "branch needs a target"))?;
            let cr = parts
                .next()
                .ok_or_else(|| err(lno, "branch needs a condition register"))?;
            let bit = parts
                .next()
                .ok_or_else(|| err(lno, "branch needs a condition bit"))?;
            Ok(Op::BranchCond {
                target: lookup(target)?,
                cr: parse_reg(cr, lno)?,
                bit: parse_cond_bit(bit, lno)?,
                when: mn == "BT",
            })
        }
        "B" => Ok(Op::Branch {
            target: lookup(rest)?,
        }),
        "RET" => Ok(Op::Ret),
        "PRINT" => Ok(Op::Print {
            rs: parse_reg(rest, lno)?,
        }),
        "CALL" => {
            // CALL name(u1,u2)->(d1,d2)
            let open = rest.find('(').ok_or_else(|| err(lno, "malformed call"))?;
            let name = rest[..open].trim().to_owned();
            let (uses_s, defs_s) = rest[open..]
                .split_once("->")
                .ok_or_else(|| err(lno, "call needs (uses)->(defs)"))?;
            let parse_list = |s: &str| -> Result<Vec<Reg>, ParseFunctionError> {
                let inner = s
                    .trim()
                    .trim_start_matches('(')
                    .trim_end_matches(')')
                    .trim();
                if inner.is_empty() {
                    return Ok(Vec::new());
                }
                inner.split(',').map(|r| parse_reg(r, lno)).collect()
            };
            Ok(Op::Call {
                name,
                uses: parse_list(uses_s)?,
                defs: parse_list(defs_s)?,
            })
        }
        _ => {
            if let Some((op, is_imm)) = fx_binop(mn) {
                let (rt, ops) = split2(rest, '=', lno, "fx op")?;
                let (ra, second) = split2(ops, ',', lno, "fx operands")?;
                let rt = parse_reg(rt, lno)?;
                let ra = parse_reg(ra, lno)?;
                if is_imm {
                    Ok(Op::FxImm {
                        op,
                        rt,
                        ra,
                        imm: parse_imm(second, lno)?,
                    })
                } else {
                    Ok(Op::Fx {
                        op,
                        rt,
                        ra,
                        rb: parse_reg(second, lno)?,
                    })
                }
            } else {
                Err(err(lno, format!("unknown mnemonic {mn:?}")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpClass;

    const LOOP: &str = "\
func minmax_loop
CL.0:
    (I1)  L      r12=a(r31,4)
    (I2)  LU     r0,r31=a(r31,8)
    (I3)  C      cr7=r12,r0
    (I4)  BF     CL.4,cr7,0x2/gt
CL.4:
    (I20) BT     CL.0,cr4,0x1/lt
CL.end:
    RET
";

    #[test]
    fn parses_paper_style_listing() {
        let f = parse_function(LOOP).expect("parses");
        assert_eq!(f.name(), "minmax_loop");
        assert_eq!(f.num_blocks(), 3);
        assert_eq!(f.num_insts(), 6);
        let (bid, inst) = f.insts().nth(1).unwrap();
        assert_eq!(bid, BlockId::new(0));
        assert_eq!(inst.id, InstId::new(2));
        assert_eq!(inst.op.class(), OpClass::Load);
        assert!(inst.op.has_tied_base());
    }

    #[test]
    fn round_trips_through_printer() {
        let f = parse_function(LOOP).expect("parses");
        let printed = f.to_string();
        let f2 = parse_function(&printed).expect("reparses");
        assert_eq!(f2.num_blocks(), f.num_blocks());
        let ops1: Vec<_> = f.insts().map(|(_, i)| (i.id, i.op.clone())).collect();
        let ops2: Vec<_> = f2.insts().map(|(_, i)| (i.id, i.op.clone())).collect();
        assert_eq!(ops1, ops2);
    }

    #[test]
    fn rejects_unknown_label() {
        let text = "CL.0:\n    B CL.nope\n";
        let e = parse_function(text).unwrap_err();
        assert!(e.message.contains("unknown label"), "{e}");
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_inconsistent_lu() {
        let text = "CL.0:\n    LU r0,r5=a(r31,8)\n    RET\n";
        let e = parse_function(text).unwrap_err();
        assert!(e.message.contains("update register"), "{e}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "func t\n\nCL.0: ; entry\n  LI r1=5  # five\n  PRINT r1\n  RET\n";
        let f = parse_function(text).expect("parses");
        assert_eq!(f.num_insts(), 3);
    }

    #[test]
    fn call_syntax() {
        let text = "CL.0:\n  CALL foo(r1,r2)->(r3)\n  RET\n";
        let f = parse_function(text).expect("parses");
        let (_, inst) = f.insts().next().unwrap();
        match &inst.op {
            Op::Call { name, uses, defs } => {
                assert_eq!(name, "foo");
                assert_eq!(uses.len(), 2);
                assert_eq!(defs, &vec![Reg::gpr(3)]);
            }
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn explicit_ids_are_bounded() {
        let text = |id: u32| format!("func t\ne:\n (I{id}) RET\n");
        for id in [u32::MAX, MAX_INST_ID] {
            let e = parse_function(&text(id)).unwrap_err();
            assert_eq!(e.line, 3, "{e}");
            assert!(e.message.contains("not below"), "{e}");
        }
        let f = parse_function(&text(MAX_INST_ID - 1)).expect("parses");
        assert_eq!(f.inst_id_bound(), MAX_INST_ID as usize);
    }

    #[test]
    fn register_indices_are_bounded() {
        let text = |inst: &str| format!("func t\ne:\n {inst}\n RET\n");
        for inst in ["LI r4294967295=1", "FA f131072=f1,f2", "C cr131072=r1,r2"] {
            let e = parse_function(&text(inst)).unwrap_err();
            assert_eq!(e.line, 3, "{e}");
            assert!(e.message.contains("not below"), "{e}");
        }
        let f = parse_function(&text("LI r131071=1")).expect("parses");
        assert_eq!(f.reg_counters()[0], MAX_REG_INDEX);
    }

    #[test]
    fn verify_failures_surface_as_parse_errors() {
        // Falls through off the end.
        let text = "CL.0:\n  LI r1=5\n";
        let e = parse_function(text).unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.message.contains("falls through"), "{e}");
    }
}
