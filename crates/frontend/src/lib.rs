//! `tinyc`: a miniature C-like frontend emitting `gis-ir`.
//!
//! The paper's Figure 1 is a C program and Figure 2 is what the IBM XL C
//! compiler turns it into; this crate is the reproduction's stand-in for
//! that path. It compiles a small C subset — `int` scalars, global `int`
//! arrays, `while`/`if`/`else`, arithmetic/logic expressions, comparisons
//! in conditions, and `print(expr)` — into the RS/6000-flavoured IR in
//! the XL style (compare + branch-false, bottom-tested loops with an
//! entry guard, which is exactly the shape of Figure 2).
//!
//! The pipeline is lexer → recursive-descent parser → AST → a generator
//! that builds the [`gis_ir::Function`] directly, checked by
//! `Function::verify`; the assembly listing is the function's `Display`
//! form. Source is treated as outside input (the scheduling daemon
//! compiles what clients send): nesting depth is bounded, and constant
//! indices and array sizes that cannot be addressed are errors.
//!
//! # Example
//!
//! ```
//! use gis_tinyc::compile_program;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = compile_program(
//!     "int n = 5; int acc = 1;
//!      void main() {
//!          while (n > 1) { acc = acc * n; n = n - 1; }
//!          print(acc);
//!      }",
//! )?;
//! let f = &program.function;
//! assert!(f.num_blocks() >= 3);
//! # Ok(())
//! # }
//! ```

mod ast;
mod codegen;
mod lexer;
mod parser;

pub use ast::{BinOp, Expr, Global, Program, Stmt, UnOp};
pub use codegen::{compile_ast, compile_program, ArraySlot, CompiledProgram};
pub use lexer::{lex, LexError, Token, TokenKind};
pub use parser::{parse_program, ParseProgramError};

use std::error::Error;
use std::fmt;

/// Any front-end failure: lexing, parsing, or code generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrontendError {
    /// Tokenization failed.
    Lex(LexError),
    /// Parsing failed.
    Parse(ParseProgramError),
    /// Code generation failed (semantic errors surface here).
    Codegen(String),
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontendError::Lex(e) => write!(f, "lex error: {e}"),
            FrontendError::Parse(e) => write!(f, "parse error: {e}"),
            FrontendError::Codegen(msg) => write!(f, "codegen error: {msg}"),
        }
    }
}

impl Error for FrontendError {}

impl From<LexError> for FrontendError {
    fn from(e: LexError) -> Self {
        FrontendError::Lex(e)
    }
}

impl From<ParseProgramError> for FrontendError {
    fn from(e: ParseProgramError) -> Self {
        FrontendError::Parse(e)
    }
}
