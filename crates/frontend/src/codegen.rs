//! Code generation: tinyc AST → `gis-ir`, in the XL compiler's style.
//!
//! The generator builds the [`Function`] directly: one pass over the AST
//! appends each instruction to the current block as it is generated, and
//! [`Function::verify`] checks the result. Shape choices mirror what the
//! paper's Figure 2 shows the XL C compiler doing:
//!
//! * conditions compile to `C`/`CI` followed by a *branch-false* around
//!   the guarded code;
//! * `while` loops are bottom-tested with an entry guard (evaluating the
//!   condition once before the loop and once at the bottom);
//! * array walks use plain loads with the array symbol attached for
//!   memory disambiguation;
//! * every scalar lives in its own symbolic register (register allocation
//!   happens after scheduling, outside this reproduction's scope).
//!
//! Comparisons are only valid in conditions (`if`/`while`), matching the
//! era's code shape; `%` lowers to `a - (a/b)*b` under the machine's
//! total division (`x/0 = 0`).
//!
//! Everything the IR numbers follows emission order, which pins the
//! output byte for byte (`tests/kernel_golden.rs`):
//!
//! * blocks are laid out in the order their labels are placed, and a
//!   branch always ends its block, so every branch is followed by a fresh
//!   (possibly empty) fall-through block;
//! * labels are `entry` and `L{n}.{tag}`, with `n` the order in which
//!   labels are *created* — a forward branch names its label before the
//!   label is placed, and branch targets are resolved once every label
//!   has its block;
//! * instruction ids and registers are handed out in emission order, so
//!   each register class's counter ends one past its highest index;
//! * an array's symbol is interned at its first memory access, so an
//!   array that is never accessed has none.
//!
//! Source is outside input (the daemon compiles what clients send):
//! constant indices and array sizes are checked, never wrapped, on their
//! way into displacements and base addresses.

use crate::ast::{BinOp, Expr, Global, Program, Stmt, UnOp};
use crate::parser::parse_program;
use crate::FrontendError;
use gis_ir::{BlockId, CondBit, Function, FxBinOp, Inst, MemRef, Op, Reg, RegClass, SymId};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Where a global array was placed in simulated memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArraySlot {
    /// The array's name.
    pub name: String,
    /// Base byte address.
    pub base: i64,
    /// Element count (4-byte words).
    pub len: usize,
}

/// A compiled tinyc program.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The entry function in IR form (its `Display` form is the
    /// assembly listing).
    pub function: Function,
    /// Array placement, in declaration order.
    pub arrays: Vec<ArraySlot>,
}

impl CompiledProgram {
    /// The slot of a named array.
    pub fn array(&self, name: &str) -> Option<&ArraySlot> {
        self.arrays.iter().find(|a| a.name == name)
    }

    /// Builds an initial memory image with the given array contents
    /// (unmentioned arrays stay zero).
    ///
    /// # Errors
    ///
    /// Returns a message when a name is unknown or a value list is longer
    /// than its array.
    pub fn initial_memory(&self, values: &[(&str, &[i64])]) -> Result<Vec<(i64, i64)>, String> {
        let mut out = Vec::new();
        for (name, vals) in values {
            let slot = self
                .array(name)
                .ok_or_else(|| format!("unknown array {name:?}"))?;
            if vals.len() > slot.len {
                return Err(format!(
                    "{name:?} holds {} elements, {} supplied",
                    slot.len,
                    vals.len()
                ));
            }
            out.extend(
                vals.iter()
                    .enumerate()
                    .map(|(i, v)| (slot.base + 4 * i as i64, *v)),
            );
        }
        Ok(out)
    }
}

/// First array base address (past the paper example's region).
const ARRAY_BASE: i64 = 0x1000;

/// A branch target: the label's creation number and its tag, spelled
/// `L{n}.{tag}` once placed.
#[derive(Clone, Copy)]
struct Label {
    n: u32,
    tag: &'static str,
}

/// A global array as the generator sees it.
struct ArrayInfo {
    /// Register holding the base address.
    base: Reg,
    /// The array's symbol, interned at its first memory access.
    sym: Option<SymId>,
}

struct Gen<'a> {
    f: Function,
    /// The block instructions are appended to.
    cur: BlockId,
    vars: HashMap<&'a str, Reg>,
    arrays: HashMap<&'a str, ArrayInfo>,
    /// Each label's block, by creation number; `None` until placed.
    placed: Vec<Option<BlockId>>,
    /// Blocks ended by a branch whose target still holds a label's
    /// creation number.
    branches: Vec<BlockId>,
}

type GResult<T> = Result<T, FrontendError>;

fn err<T>(msg: impl Into<String>) -> GResult<T> {
    Err(FrontendError::Codegen(msg.into()))
}

impl<'a> Gen<'a> {
    fn gpr(&mut self) -> Reg {
        self.f.fresh_reg(RegClass::Gpr)
    }

    fn cr(&mut self) -> Reg {
        self.f.fresh_reg(RegClass::Cr)
    }

    fn emit(&mut self, op: Op) {
        let id = self.f.fresh_inst_id();
        self.f.block_mut(self.cur).push(Inst::new(id, op));
    }

    fn label(&mut self, tag: &'static str) -> Label {
        let n = self.placed.len() as u32;
        self.placed.push(None);
        Label { n, tag }
    }

    /// Opens the block `label` names; later instructions go there.
    fn place(&mut self, label: Label) {
        let mut name = String::with_capacity(label.tag.len() + 12);
        let _ = write!(name, "L{}.{}", label.n, label.tag);
        self.cur = self.f.add_block(name);
        self.placed[label.n as usize] = Some(self.cur);
    }

    /// Emits the branch `op` builds and opens a fresh fall-through block
    /// (a branch ends its block), so the branch stays the last
    /// instruction of the block it is emitted into. The branch targets
    /// `target`'s creation number until [`Gen::resolve_branches`] points
    /// it at the label's block.
    fn branch(&mut self, target: Label, op: impl FnOnce(BlockId) -> Op) {
        self.emit(op(BlockId::new(target.n)));
        self.branches.push(self.cur);
        let ft = self.label("ft");
        self.place(ft);
    }

    /// Points every branch at its label's block, once all are placed.
    fn resolve_branches(&mut self) -> GResult<()> {
        for &b in &self.branches {
            let mut block = self.f.block_mut(b);
            let last = block.len() - 1;
            let op = &mut block.inst_mut(last).op;
            let n = op.branch_target().map_or(usize::MAX, BlockId::index);
            let Some(target) = self.placed.get(n).copied().flatten() else {
                return err("internal: a branch targets a label that was never placed");
            };
            op.map_targets(|_| target);
        }
        Ok(())
    }

    fn var(&self, name: &str) -> GResult<Reg> {
        match self.vars.get(name) {
            Some(&r) => Ok(r),
            None => err(format!("unknown variable {name:?}")),
        }
    }

    fn array_base(&self, name: &str) -> GResult<Reg> {
        match self.arrays.get(name) {
            Some(a) => Ok(a.base),
            None => err(format!("unknown array {name:?}")),
        }
    }

    // ---- Expressions. ---------------------------------------------------

    fn gen_expr(&mut self, e: &'a Expr) -> GResult<Reg> {
        match e {
            Expr::Int(v) => {
                let r = self.gpr();
                self.emit(Op::LoadImm { rt: r, imm: *v });
                Ok(r)
            }
            Expr::Var(name) => self.var(name),
            Expr::Index(name, idx) => {
                let base = self.array_base(name)?;
                let r = self.gpr();
                let mem = self.address(name, base, idx)?;
                self.emit(Op::Load { rt: r, mem });
                Ok(r)
            }
            Expr::Unary(UnOp::Neg, inner) => {
                let v = self.gen_expr(inner)?;
                let z = self.gpr();
                self.emit(Op::LoadImm { rt: z, imm: 0 });
                let r = self.gpr();
                self.fx(FxBinOp::Sub, r, z, v);
                Ok(r)
            }
            Expr::Unary(UnOp::Not, _) => err("'!' is only supported in conditions"),
            Expr::Binary(op, lhs, rhs) => {
                if op.is_comparison() || op.is_logical() {
                    return err("comparisons are only supported in conditions");
                }
                if *op == BinOp::Rem {
                    // a % b == a - (a/b)*b under total division.
                    let a = self.gen_expr(lhs)?;
                    let b = self.gen_expr(rhs)?;
                    let q = self.gpr();
                    self.fx(FxBinOp::Div, q, a, b);
                    let m = self.gpr();
                    self.fx(FxBinOp::Mul, m, q, b);
                    let r = self.gpr();
                    self.fx(FxBinOp::Sub, r, a, m);
                    return Ok(r);
                }
                let fx = match op {
                    BinOp::Add => FxBinOp::Add,
                    BinOp::Sub => FxBinOp::Sub,
                    BinOp::Mul => FxBinOp::Mul,
                    BinOp::Div => FxBinOp::Div,
                    BinOp::And => FxBinOp::And,
                    BinOp::Or => FxBinOp::Or,
                    BinOp::Xor => FxBinOp::Xor,
                    BinOp::Shl => FxBinOp::Sll,
                    BinOp::Shr => FxBinOp::Sra,
                    _ => unreachable!("handled above"),
                };
                // Immediate forms where the shape allows.
                let (l, r_imm) = match (lhs.as_ref(), rhs.as_ref()) {
                    (_, Expr::Int(k)) => (lhs.as_ref(), Some(*k)),
                    (Expr::Int(k), _) if fx.commutes() => (rhs.as_ref(), Some(*k)),
                    _ => (lhs.as_ref(), None),
                };
                let t = self.gpr();
                match r_imm {
                    Some(imm) => {
                        let ra = self.gen_expr(l)?;
                        self.emit(Op::FxImm {
                            op: fx,
                            rt: t,
                            ra,
                            imm,
                        });
                    }
                    None => {
                        let a = self.gen_expr(lhs)?;
                        let b = self.gen_expr(rhs)?;
                        self.fx(fx, t, a, b);
                    }
                }
                Ok(t)
            }
        }
    }

    fn fx(&mut self, op: FxBinOp, rt: Reg, ra: Reg, rb: Reg) {
        self.emit(Op::Fx { op, rt, ra, rb });
    }

    /// The memory operand of `name[idx]`: a constant index folds into
    /// the displacement, any other is scaled into an address register.
    fn address(&mut self, name: &'a str, base: Reg, idx: &'a Expr) -> GResult<MemRef> {
        let (base, disp) = match idx {
            Expr::Int(k) => match k.checked_mul(4) {
                Some(disp) => (base, disp),
                None => return err(format!("index {k} of array {name:?} is out of range")),
            },
            _ => {
                let i = self.gen_expr(idx)?;
                let scaled = self.gpr();
                self.emit(Op::FxImm {
                    op: FxBinOp::Sll,
                    rt: scaled,
                    ra: i,
                    imm: 2,
                });
                let addr = self.gpr();
                self.fx(FxBinOp::Add, addr, base, scaled);
                (addr, 0)
            }
        };
        let array = self.arrays.get_mut(name).expect("looked up by the caller");
        let sym = *array.sym.get_or_insert_with(|| self.f.add_symbol(name));
        Ok(MemRef::sym(sym, base, disp))
    }

    // ---- Conditions. ----------------------------------------------------

    /// Emits code that jumps to `target` when `cond` is FALSE.
    fn jump_if_false(&mut self, cond: &'a Expr, target: Label) -> GResult<()> {
        self.jump_cond(cond, target, false)
    }

    /// Emits code that jumps to `target` when `cond` is TRUE.
    fn jump_if_true(&mut self, cond: &'a Expr, target: Label) -> GResult<()> {
        self.jump_cond(cond, target, true)
    }

    fn jump_cond(&mut self, cond: &'a Expr, target: Label, when_true: bool) -> GResult<()> {
        match cond {
            Expr::Unary(UnOp::Not, inner) => self.jump_cond(inner, target, !when_true),
            Expr::Binary(BinOp::LogAnd, l, r) => {
                if when_true {
                    // Jump when both hold: fail fast past the jump.
                    let skip = self.label("and");
                    self.jump_cond(l, skip, false)?;
                    self.jump_cond(r, target, true)?;
                    self.place(skip);
                } else {
                    self.jump_cond(l, target, false)?;
                    self.jump_cond(r, target, false)?;
                }
                Ok(())
            }
            Expr::Binary(BinOp::LogOr, l, r) => {
                if when_true {
                    self.jump_cond(l, target, true)?;
                    self.jump_cond(r, target, true)?;
                } else {
                    let skip = self.label("or");
                    self.jump_cond(l, skip, true)?;
                    self.jump_cond(r, target, false)?;
                    self.place(skip);
                }
                Ok(())
            }
            Expr::Binary(op, l, r) if op.is_comparison() => {
                let crt = self.cr();
                match r.as_ref() {
                    Expr::Int(imm) => {
                        let ra = self.gen_expr(l)?;
                        self.emit(Op::CompareImm { crt, ra, imm: *imm });
                    }
                    _ => {
                        let ra = self.gen_expr(l)?;
                        let rb = self.gen_expr(r)?;
                        self.emit(Op::Compare { crt, ra, rb });
                    }
                }
                // Each comparison maps to (bit, sense-when-true); e.g.
                // `<` is true when the lt bit is set, `>=` when clear.
                let (bit, set_means_true) = match op {
                    BinOp::Lt => (CondBit::Lt, true),
                    BinOp::Gt => (CondBit::Gt, true),
                    BinOp::Eq => (CondBit::Eq, true),
                    BinOp::Ge => (CondBit::Lt, false),
                    BinOp::Le => (CondBit::Gt, false),
                    BinOp::Ne => (CondBit::Eq, false),
                    _ => unreachable!(),
                };
                let when = when_true == set_means_true;
                self.branch(target, |target| Op::BranchCond {
                    target,
                    cr: crt,
                    bit,
                    when,
                });
                Ok(())
            }
            // Any other expression: non-zero is true.
            other => {
                let ra = self.gen_expr(other)?;
                let crt = self.cr();
                self.emit(Op::CompareImm { crt, ra, imm: 0 });
                self.branch(target, |target| Op::BranchCond {
                    target,
                    cr: crt,
                    bit: CondBit::Eq,
                    when: !when_true,
                });
                Ok(())
            }
        }
    }

    // ---- Statements. ------------------------------------------------------

    fn gen_stmts(&mut self, stmts: &'a [Stmt]) -> GResult<()> {
        for s in stmts {
            self.gen_stmt(s)?;
        }
        Ok(())
    }

    fn declared(&self, name: &str) -> bool {
        self.vars.contains_key(name) || self.arrays.contains_key(name)
    }

    fn gen_stmt(&mut self, s: &'a Stmt) -> GResult<()> {
        match s {
            Stmt::Local(name, init) => {
                if self.declared(name) {
                    return err(format!("{name:?} is already declared"));
                }
                let rs = match init {
                    Some(e) => self.gen_expr(e)?,
                    None => {
                        let r = self.gpr();
                        self.emit(Op::LoadImm { rt: r, imm: 0 });
                        r
                    }
                };
                let rt = self.gpr();
                self.emit(Op::Move { rt, rs });
                self.vars.insert(name, rt);
                Ok(())
            }
            Stmt::Assign(name, e) => {
                let rs = self.gen_expr(e)?;
                let rt = self.var(name)?;
                self.emit(Op::Move { rt, rs });
                Ok(())
            }
            Stmt::Store(name, idx, value) => {
                let base = self.array_base(name)?;
                let rs = self.gen_expr(value)?;
                let mem = self.address(name, base, idx)?;
                self.emit(Op::Store { rs, mem });
                Ok(())
            }
            Stmt::Print(e) => {
                let rs = self.gen_expr(e)?;
                self.emit(Op::Print { rs });
                Ok(())
            }
            Stmt::Call(name) => {
                self.emit(Op::Call {
                    name: name.clone(),
                    uses: Vec::new(),
                    defs: Vec::new(),
                });
                Ok(())
            }
            Stmt::If(cond, then, els) => {
                if els.is_empty() {
                    let end = self.label("endif");
                    self.jump_if_false(cond, end)?;
                    self.gen_stmts(then)?;
                    self.place(end);
                } else {
                    let else_l = self.label("else");
                    let end = self.label("endif");
                    self.jump_if_false(cond, else_l)?;
                    self.gen_stmts(then)?;
                    self.branch(end, |target| Op::Branch { target });
                    self.place(else_l);
                    self.gen_stmts(els)?;
                    self.place(end);
                }
                Ok(())
            }
            Stmt::While(cond, body) => {
                // XL shape: entry guard, bottom test (see Figure 2).
                let exit = self.label("wexit");
                let head = self.label("wloop");
                self.jump_if_false(cond, exit)?;
                self.place(head);
                self.gen_stmts(body)?;
                self.jump_if_true(cond, head)?;
                self.place(exit);
                Ok(())
            }
        }
    }
}

/// Compiles tinyc source into IR (see the crate docs for the language).
///
/// # Errors
///
/// Returns [`FrontendError`] for lexical, syntactic, or semantic problems
/// (unknown names, redeclarations, comparisons used as values, constant
/// indices or array sizes too large to address).
pub fn compile_program(src: &str) -> Result<CompiledProgram, FrontendError> {
    let program: Program = parse_program(src)?;
    compile_ast(&program)
}

/// Compiles an already-parsed program.
///
/// # Errors
///
/// See [`compile_program`].
pub fn compile_ast(program: &Program) -> Result<CompiledProgram, FrontendError> {
    let mut f = Function::new(program.name.as_str());
    let cur = f.add_block("entry");
    let mut g = Gen {
        f,
        cur,
        vars: HashMap::new(),
        arrays: HashMap::new(),
        placed: Vec::new(),
        branches: Vec::new(),
    };

    // Globals: arrays get a base-address register; scalars a register
    // with their initial value.
    let mut slots = Vec::new();
    let mut next_base = ARRAY_BASE;
    for global in &program.globals {
        match global {
            Global::Array(name, len) => {
                if g.declared(name) {
                    return err(format!("{name:?} is already declared"));
                }
                let base = g.gpr();
                g.emit(Op::LoadImm {
                    rt: base,
                    imm: next_base,
                });
                g.arrays.insert(name, ArrayInfo { base, sym: None });
                slots.push(ArraySlot {
                    name: name.clone(),
                    base: next_base,
                    len: *len,
                });
                // 16-byte align the next array.
                let end = i64::try_from(*len)
                    .ok()
                    .and_then(|len| len.checked_mul(4)?.checked_add(15))
                    .and_then(|bytes| next_base.checked_add(bytes / 16 * 16));
                match end {
                    Some(end) => next_base = end,
                    None => return err(format!("array {name:?} of {len} elements is too large")),
                }
            }
            Global::Scalar(name, init) => {
                if g.declared(name) {
                    return err(format!("{name:?} is already declared"));
                }
                let r = g.gpr();
                g.emit(Op::LoadImm { rt: r, imm: *init });
                g.vars.insert(name, r);
            }
        }
    }

    g.gen_stmts(&program.body)?;
    g.emit(Op::Ret);
    g.resolve_branches()?;
    g.f.verify()
        .map_err(|e| FrontendError::Codegen(format!("internal: generated bad IR: {e}")))?;
    Ok(CompiledProgram {
        function: g.f,
        arrays: slots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> CompiledProgram {
        compile_program(src).expect("compiles")
    }

    fn ops(p: &CompiledProgram) -> Vec<Op> {
        p.function.insts().map(|(_, i)| i.op.clone()).collect()
    }

    #[test]
    fn straight_line_program() {
        let p = compile("void f() { int x = 6; int y = x * 7; print(y); }");
        let text = p.function.to_string();
        assert!(text.contains("MULI"), "{text}");
        assert!(p.function.num_blocks() >= 1);
    }

    #[test]
    fn while_loops_are_bottom_tested() {
        let p =
            compile("int n = 5; void f() { int i = 0; while (i < n) { i = i + 1; } print(i); }");
        // Guard (BF) before the loop, BT at the bottom — the Figure 2 shape.
        let senses: Vec<bool> = ops(&p)
            .iter()
            .filter_map(|op| match op {
                Op::BranchCond { when, .. } => Some(*when),
                _ => None,
            })
            .collect();
        assert_eq!(senses, [false, true], "{}", p.function);
    }

    #[test]
    fn arrays_get_bases_and_symbols() {
        let p = compile(
            "int a[8]; int b[4];
             void f() { a[0] = 5; b[1] = a[0] + 1; print(b[1]); }",
        );
        let a = p.array("a").expect("a placed");
        let b = p.array("b").expect("b placed");
        assert_eq!(a.base, 0x1000);
        assert_eq!(b.base, 0x1000 + 32);
        let sym_a = p.function.symbol("a").expect("array symbol used");
        assert!(
            ops(&p)
                .iter()
                .any(|op| matches!(op, Op::Store { mem, .. } if mem.sym == Some(sym_a))),
            "{}",
            p.function
        );
    }

    #[test]
    fn symbols_are_interned_at_first_access() {
        // `b` is declared first but read second; `c` is never accessed.
        let p = compile(
            "int b[4]; int a[4]; int c[4];
             void f() { int i = 1; print(a[b[i]]); }",
        );
        let symbols: Vec<&str> = p.function.symbols().map(|(_, s)| s).collect();
        assert_eq!(symbols, ["b", "a"]);
    }

    #[test]
    fn forward_branches_reach_labels_placed_later() {
        let p = compile("int x = 1; void f() { if (x < 2) { print(x); } else { print(0); } }");
        let f = &p.function;
        let labels: Vec<&str> = f.blocks().map(|(_, b)| b.label()).collect();
        assert_eq!(
            labels,
            ["entry", "L2.ft", "L3.ft", "L0.else", "L1.endif"],
            "{f}"
        );
        let targets: Vec<&str> = f
            .insts()
            .filter_map(|(_, i)| i.op.branch_target())
            .map(|t| f.block(t).label())
            .collect();
        assert_eq!(targets, ["L0.else", "L1.endif"], "{f}");
    }

    #[test]
    fn allocators_end_past_the_highest_index() {
        let p = compile("int n = 3; void f() { while (n > 0) { n = n - 1; } }");
        let f = &p.function;
        assert_eq!(f.inst_id_bound(), f.num_insts());
        let mut g = f.clone();
        g.recompute_allocators();
        assert_eq!(f.reg_counters(), g.reg_counters());
    }

    #[test]
    fn initial_memory_builder() {
        let p = compile("int a[4]; void f() { print(a[0]); }");
        let mem = p.initial_memory(&[("a", &[7, 8])]).expect("fits");
        assert_eq!(mem, vec![(0x1000, 7), (0x1004, 8)]);
        assert!(p.initial_memory(&[("zzz", &[1])]).is_err());
        assert!(p.initial_memory(&[("a", &[1, 2, 3, 4, 5])]).is_err());
    }

    #[test]
    fn semantic_errors() {
        let e = compile_program("void f() { x = 1; }").unwrap_err();
        assert!(e.to_string().contains("unknown variable"), "{e}");
        let e = compile_program("void f() { int x = (1 < 2); }").unwrap_err();
        assert!(e.to_string().contains("conditions"), "{e}");
        let e = compile_program("int x; void f() { int x = 1; }").unwrap_err();
        assert!(e.to_string().contains("already declared"), "{e}");
    }

    #[test]
    fn logical_conditions_lower_to_branch_chains() {
        let p = compile(
            "int a = 1; int b = 2;
             void f() { if (a < b && b < 3 || a == 0) { print(a); } }",
        );
        let branches = ops(&p).iter().filter(|op| op.is_branch()).count();
        assert!(branches >= 3, "short-circuit chains: {}", p.function);
    }
}
