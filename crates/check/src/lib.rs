//! Correctness tooling for the global instruction scheduler.
//!
//! The paper's central safety claim (§3, Definitions 1–6) is that useful
//! and 1-branch speculative motions preserve program semantics. This crate
//! makes that claim machine-checked, csmith-style:
//!
//! * [`generate`] — a seeded random IR generator emitting
//!   well-formed, terminating, reducible functions over the full
//!   instruction surface (nested loops, calls, load-with-update, CR-field
//!   compares and branches, floating point, stores);
//! * [`verify_function`] — a structural verifier layered on top of
//!   [`Function::verify`](gis_ir::Function::verify): CFG well-formedness,
//!   register-class consistency, and use-before-def along dominators;
//!   [`check_pass`] additionally enforces §4.1 region confinement between
//!   pipeline passes, plugged in as the
//!   [`TestHooks::verifier`](gis_core::TestHooks);
//! * [`run_fuzz`] — a differential oracle that interprets
//!   each generated function before and after scheduling (across a matrix
//!   of configurations, including `jobs` 1/4/0) and, on divergence,
//!   automatically [minimizes](shrink::minimize) the reproducer by
//!   verifier-revalidated block / instruction / edge deletion.
//!
//! The `gisc fuzz` and `gisc verify` subcommands are thin wrappers over
//! this crate; `docs/TESTING.md` describes the workflow for committing a
//! minimized reproducer to `tests/corpus/`.

#![warn(missing_docs)]

pub mod diff;
pub mod fuzz;
pub mod gen;
pub mod shrink;
pub mod verify;

pub use diff::{
    duplication_matrix, full_matrix, jobs_matrix, memo_matrix, run_case, wide_machine_matrix,
    CaseResult, DiffConfig, Divergence,
};
pub use fuzz::{parse_reproducer, run_fuzz, FuzzFailure, FuzzReport};
pub use gen::{generate, GenCase};
pub use shrink::minimize;
pub use verify::{check_pass, verify_function, verify_region_confinement, CheckError};
