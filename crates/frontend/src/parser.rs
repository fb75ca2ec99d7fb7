//! Recursive-descent parser for tinyc.

use crate::ast::{BinOp, Expr, Global, Program, Stmt, UnOp};
use crate::lexer::{lex, Token, TokenKind};
use std::error::Error;
use std::fmt;

/// A parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProgramError {
    /// 1-based source line (0 at end of input).
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "at end of input: {}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl Error for ParseProgramError {}

/// The deepest nesting the parser accepts. It counts enclosing
/// statements, parentheses and unary operators, and each operand of an
/// operator chain, so it bounds the height of the syntax tree as well as
/// the parser's own recursion. Code generation and dropping the tree
/// recurse as deep as the tree is high: source nested deeper fails with
/// an error instead of overflowing the stack of the thread compiling it.
const MAX_NESTING: usize = 256;

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// Current nesting, against [`MAX_NESTING`]. Left as it was on an
    /// error, which ends the parse.
    depth: usize,
}

type PResult<T> = Result<T, ParseProgramError>;

impl Parser {
    fn peek(&self) -> Option<&TokenKind> {
        self.toks.get(self.pos).map(|t| &t.kind)
    }

    fn line(&self) -> usize {
        self.toks.get(self.pos).map_or(0, |t| t.line)
    }

    fn err<T>(&self, message: impl Into<String>) -> PResult<T> {
        Err(ParseProgramError {
            line: self.line(),
            message: message.into(),
        })
    }

    /// Enters one more level of nesting.
    fn nest(&mut self) -> PResult<()> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        Ok(())
    }

    /// Moves the identifier at the cursor out of the token stream and
    /// steps past it; `None`, with the cursor unmoved, on any other
    /// token. A consumed token is never read again: the parser only
    /// steps back to report an error, which reads the token's line.
    fn take_ident(&mut self) -> Option<String> {
        match self.toks.get_mut(self.pos) {
            Some(Token {
                kind: TokenKind::Ident(name),
                ..
            }) => {
                self.pos += 1;
                Some(std::mem::take(name))
            }
            _ => None,
        }
    }

    fn eat(&mut self, want: &TokenKind) -> PResult<()> {
        match self.peek() {
            Some(k) if k == want => {
                self.pos += 1;
                Ok(())
            }
            Some(k) => {
                let k = k.clone();
                self.err(format!("expected {want}, found {k}"))
            }
            None => self.err(format!("expected {want}, found end of input")),
        }
    }

    fn ident(&mut self) -> PResult<String> {
        if let Some(name) = self.take_ident() {
            return Ok(name);
        }
        match self.peek() {
            Some(k) => self.err(format!("expected identifier, found {k}")),
            None => self.err("expected identifier, found end of input"),
        }
    }

    fn int_literal(&mut self) -> PResult<i64> {
        // Allow a leading minus in initializers / array sizes.
        let neg = matches!(self.peek(), Some(TokenKind::Minus));
        if neg {
            self.pos += 1;
        }
        match self.peek() {
            Some(&TokenKind::Int(v)) => {
                self.pos += 1;
                Ok(if neg { -v } else { v })
            }
            other => self.err(format!("expected integer literal, found {other:?}")),
        }
    }

    // ---- Program structure. -------------------------------------------

    fn program(&mut self) -> PResult<Program> {
        let mut globals = Vec::new();
        let mut entry: Option<(String, Vec<Stmt>)> = None;
        while self.peek().is_some() {
            match self.peek() {
                Some(TokenKind::KwInt | TokenKind::KwVoid) => {
                    // Either a global declaration or the entry function.
                    let save = self.pos;
                    let is_void = matches!(self.peek(), Some(TokenKind::KwVoid));
                    self.pos += 1;
                    let name = self.ident()?;
                    match self.peek() {
                        Some(TokenKind::LParen) => {
                            self.eat(&TokenKind::LParen)?;
                            self.eat(&TokenKind::RParen)?;
                            let body = self.block()?;
                            if entry.is_some() {
                                self.pos = save;
                                return self.err("only one function is supported");
                            }
                            entry = Some((name, body));
                        }
                        _ if is_void => {
                            self.pos = save;
                            return self.err("void is only valid for the entry function");
                        }
                        Some(TokenKind::LBracket) => {
                            self.eat(&TokenKind::LBracket)?;
                            let len = self.int_literal()?;
                            if len <= 0 {
                                return self.err("array length must be positive");
                            }
                            self.eat(&TokenKind::RBracket)?;
                            self.eat(&TokenKind::Semi)?;
                            globals.push(Global::Array(name, len as usize));
                        }
                        _ => {
                            let init = if matches!(self.peek(), Some(TokenKind::Assign)) {
                                self.eat(&TokenKind::Assign)?;
                                self.int_literal()?
                            } else {
                                0
                            };
                            self.eat(&TokenKind::Semi)?;
                            globals.push(Global::Scalar(name, init));
                        }
                    }
                }
                _ => return self.err("expected a declaration or function"),
            }
        }
        match entry {
            Some((name, body)) => Ok(Program {
                globals,
                name,
                body,
            }),
            None => self.err("program has no entry function"),
        }
    }

    fn block(&mut self) -> PResult<Vec<Stmt>> {
        self.eat(&TokenKind::LBrace)?;
        let mut out = Vec::new();
        while !matches!(self.peek(), Some(TokenKind::RBrace)) {
            if self.peek().is_none() {
                return self.err("unterminated block");
            }
            out.push(self.stmt()?);
        }
        self.eat(&TokenKind::RBrace)?;
        Ok(out)
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        self.nest()?;
        let stmt = self.stmt_inner()?;
        self.depth -= 1;
        Ok(stmt)
    }

    fn stmt_inner(&mut self) -> PResult<Stmt> {
        match self.peek() {
            Some(TokenKind::KwIf) => {
                self.pos += 1;
                self.eat(&TokenKind::LParen)?;
                let cond = self.expr(0)?;
                self.eat(&TokenKind::RParen)?;
                let then = self.block_or_stmt()?;
                let els = if matches!(self.peek(), Some(TokenKind::KwElse)) {
                    self.pos += 1;
                    self.block_or_stmt()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If(cond, then, els))
            }
            Some(TokenKind::KwWhile) => {
                self.pos += 1;
                self.eat(&TokenKind::LParen)?;
                let cond = self.expr(0)?;
                self.eat(&TokenKind::RParen)?;
                let body = self.block_or_stmt()?;
                Ok(Stmt::While(cond, body))
            }
            Some(TokenKind::KwPrint) => {
                self.pos += 1;
                self.eat(&TokenKind::LParen)?;
                let e = self.expr(0)?;
                self.eat(&TokenKind::RParen)?;
                self.eat(&TokenKind::Semi)?;
                Ok(Stmt::Print(e))
            }
            Some(TokenKind::KwInt) => {
                self.pos += 1;
                let name = self.ident()?;
                let init = if matches!(self.peek(), Some(TokenKind::Assign)) {
                    self.pos += 1;
                    Some(self.expr(0)?)
                } else {
                    None
                };
                self.eat(&TokenKind::Semi)?;
                Ok(Stmt::Local(name, init))
            }
            Some(TokenKind::Ident(_)) => {
                let name = self.ident()?;
                match self.peek() {
                    Some(TokenKind::LBracket) => {
                        self.pos += 1;
                        let idx = self.expr(0)?;
                        self.eat(&TokenKind::RBracket)?;
                        self.eat(&TokenKind::Assign)?;
                        let value = self.expr(0)?;
                        self.eat(&TokenKind::Semi)?;
                        Ok(Stmt::Store(name, idx, value))
                    }
                    Some(TokenKind::Assign) => {
                        self.pos += 1;
                        let value = self.expr(0)?;
                        self.eat(&TokenKind::Semi)?;
                        Ok(Stmt::Assign(name, value))
                    }
                    Some(TokenKind::LParen) => {
                        self.eat(&TokenKind::LParen)?;
                        self.eat(&TokenKind::RParen)?;
                        self.eat(&TokenKind::Semi)?;
                        Ok(Stmt::Call(name))
                    }
                    _ => self.err("expected '=', '[', or '(' after identifier"),
                }
            }
            Some(TokenKind::LBrace) => {
                // Flatten a bare block: tinyc has a single flat scope.
                let inner = self.block()?;
                Ok(Stmt::If(Expr::Int(1), inner, Vec::new()))
            }
            Some(k) => {
                let k = k.clone();
                self.err(format!("expected a statement, found {k}"))
            }
            None => self.err("expected a statement, found end of input"),
        }
    }

    fn block_or_stmt(&mut self) -> PResult<Vec<Stmt>> {
        if matches!(self.peek(), Some(TokenKind::LBrace)) {
            self.block()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    // ---- Expressions (precedence climbing). ---------------------------

    fn binop_for(k: &TokenKind) -> Option<(BinOp, u8)> {
        // Higher binds tighter.
        Some(match k {
            TokenKind::OrOr => (BinOp::LogOr, 1),
            TokenKind::AndAnd => (BinOp::LogAnd, 2),
            TokenKind::Pipe => (BinOp::Or, 3),
            TokenKind::Caret => (BinOp::Xor, 4),
            TokenKind::Amp => (BinOp::And, 5),
            TokenKind::EqEq => (BinOp::Eq, 6),
            TokenKind::NotEq => (BinOp::Ne, 6),
            TokenKind::Lt => (BinOp::Lt, 7),
            TokenKind::Gt => (BinOp::Gt, 7),
            TokenKind::Le => (BinOp::Le, 7),
            TokenKind::Ge => (BinOp::Ge, 7),
            TokenKind::Shl => (BinOp::Shl, 8),
            TokenKind::Shr => (BinOp::Shr, 8),
            TokenKind::Plus => (BinOp::Add, 9),
            TokenKind::Minus => (BinOp::Sub, 9),
            TokenKind::Star => (BinOp::Mul, 10),
            TokenKind::Slash => (BinOp::Div, 10),
            TokenKind::Percent => (BinOp::Rem, 10),
            _ => return None,
        })
    }

    fn expr(&mut self, min_bp: u8) -> PResult<Expr> {
        let depth = self.depth;
        self.nest()?;
        let mut lhs = self.unary()?;
        while let Some(k) = self.peek() {
            let Some((op, bp)) = Self::binop_for(k) else {
                break;
            };
            if bp < min_bp {
                break;
            }
            self.pos += 1;
            self.nest()?; // the chain's tree grows one level
            let rhs = self.expr(bp + 1)?; // left associative
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn unary(&mut self) -> PResult<Expr> {
        let op = match self.peek() {
            Some(TokenKind::Minus) => UnOp::Neg,
            Some(TokenKind::Bang) => UnOp::Not,
            _ => return self.primary(),
        };
        self.pos += 1;
        self.nest()?;
        let inner = self.unary()?;
        self.depth -= 1;
        Ok(Expr::Unary(op, Box::new(inner)))
    }

    fn primary(&mut self) -> PResult<Expr> {
        if let Some(name) = self.take_ident() {
            return if matches!(self.peek(), Some(TokenKind::LBracket)) {
                self.pos += 1;
                let idx = self.expr(0)?;
                self.eat(&TokenKind::RBracket)?;
                Ok(Expr::Index(name, Box::new(idx)))
            } else {
                Ok(Expr::Var(name))
            };
        }
        match self.peek() {
            Some(&TokenKind::Int(v)) => {
                self.pos += 1;
                Ok(Expr::Int(v))
            }
            Some(TokenKind::LParen) => {
                self.pos += 1;
                let e = self.expr(0)?;
                self.eat(&TokenKind::RParen)?;
                Ok(e)
            }
            Some(k) => self.err(format!("expected an expression, found {k}")),
            None => self.err("expected an expression, found end of input"),
        }
    }
}

/// Parses a tinyc program (lexing included).
///
/// # Errors
///
/// Returns a [`ParseProgramError`] describing the first problem; lexer
/// failures are converted with their source line.
pub fn parse_program(src: &str) -> Result<Program, ParseProgramError> {
    let toks = lex(src).map_err(|e| ParseProgramError {
        line: e.line,
        message: e.message,
    })?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    p.program()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure1_shape() {
        let p = parse_program(
            "int a[100]; int n = 9;
             void minmax() {
                 int min = a[0]; int max = min; int i = 1;
                 while (i < n) {
                     int u = a[i]; int v = a[i+1];
                     if (u > v) {
                         if (u > max) max = u;
                         if (v < min) min = v;
                     } else {
                         if (v > max) max = v;
                         if (u < min) min = u;
                     }
                     i = i + 2;
                 }
                 print(min); print(max);
             }",
        )
        .expect("parses");
        assert_eq!(p.name, "minmax");
        assert_eq!(p.globals.len(), 2);
        assert_eq!(p.body.len(), 6);
        match &p.body[3] {
            Stmt::While(_, body) => assert_eq!(body.len(), 4),
            other => panic!("expected while, got {other:?}"),
        }
    }

    #[test]
    fn precedence() {
        let p = parse_program("void f() { x = 1 + 2 * 3; }").expect("parses");
        match &p.body[0] {
            Stmt::Assign(_, Expr::Binary(BinOp::Add, lhs, rhs)) => {
                assert_eq!(**lhs, Expr::Int(1));
                assert!(matches!(**rhs, Expr::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("wrong tree: {other:?}"),
        }
    }

    #[test]
    fn left_associativity() {
        let p = parse_program("void f() { x = 10 - 3 - 2; }").expect("parses");
        match &p.body[0] {
            Stmt::Assign(_, Expr::Binary(BinOp::Sub, lhs, rhs)) => {
                assert!(matches!(**lhs, Expr::Binary(BinOp::Sub, _, _)));
                assert_eq!(**rhs, Expr::Int(2));
            }
            other => panic!("wrong tree: {other:?}"),
        }
    }

    #[test]
    fn logical_operators_and_parens() {
        let p =
            parse_program("void f() { if (a < b && (c > d || !e)) { x = 1; } }").expect("parses");
        match &p.body[0] {
            Stmt::If(Expr::Binary(BinOp::LogAnd, _, _), then, els) => {
                assert_eq!(then.len(), 1);
                assert!(els.is_empty());
            }
            other => panic!("wrong tree: {other:?}"),
        }
    }

    #[test]
    fn error_reporting_with_lines() {
        let e = parse_program("void f() {\n x = ;\n}").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("expression"), "{e}");
    }

    #[test]
    fn rejects_missing_entry() {
        let e = parse_program("int x;").unwrap_err();
        assert!(e.message.contains("entry"), "{e}");
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |open: &str, close: &str, n: usize| {
            format!("void f() {{ x = {}1{}; }}", open.repeat(n), close.repeat(n))
        };
        for src in [
            nested("(", ")", 100_000),
            nested("-", "", 100_000),
            nested("", "+1", 100_000),
            format!("void f() {{ {} }}", "if (x) ".repeat(100_000) + "x = 1;"),
            format!(
                "void f() {{ {}{} }}",
                "{".repeat(100_000),
                "}".repeat(100_000)
            ),
        ] {
            let e = parse_program(&src).unwrap_err();
            assert!(e.message.contains("nesting deeper than"), "{e}");
        }
        for src in [
            nested("(", ")", 100),
            nested("-", "", 100),
            nested("", "+1", 100),
        ] {
            parse_program(&src).expect("moderate nesting parses");
        }
    }

    #[test]
    fn calls_and_array_stores() {
        let p = parse_program("int a[4]; void f() { a[2] = 7; helper(); }").expect("parses");
        assert!(matches!(p.body[0], Stmt::Store(..)));
        assert!(matches!(p.body[1], Stmt::Call(..)));
    }
}
