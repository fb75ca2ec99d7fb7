//! Global instruction scheduling for superscalar machines — the paper's
//! primary contribution (§5).
//!
//! The scheduler moves instructions beyond basic block boundaries within a
//! *region* (a loop body, or a routine body without its loops), driven by
//! the Program Dependence Graph of `gis-pdg` and the parametric machine
//! description of `gis-machine`:
//!
//! * **Useful** motion (Definition 4): an instruction moves from `B` into
//!   `A` when the blocks are *equivalent* — it will execute exactly as
//!   often as before.
//! * **1-branch speculative** motion (Definitions 5 and 7): an instruction
//!   moves above one conditional branch, gambling on its outcome; stores
//!   and calls never speculate, and an instruction that would clobber a
//!   register live on exit from the target block is rejected (§5.3) or,
//!   optionally, renamed.
//!
//! The top-level [`compile`] entry point reproduces the §6 pipeline:
//! register-web renaming, unrolling of small inner loops, global
//! scheduling of inner regions, rotation of small inner loops, a second
//! global pass over rotated loops and outer regions, and a final
//! basic-block scheduling pass over every block.
//!
//! # Example
//!
//! ```
//! use gis_core::{compile, SchedConfig};
//! use gis_machine::MachineDescription;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut f = gis_workloads::minmax::figure2_function(99);
//! let machine = MachineDescription::rs6k();
//! let stats = compile(&mut f, &machine, &SchedConfig::speculative())?;
//! assert!(stats.moved_useful + stats.moved_speculative > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod bb;
mod config;
mod dcp;
pub mod fingerprint;
mod global;
mod list;
mod lru;
mod memo;
mod outcome;
mod parallel;
mod pipeline;
mod profile;
mod reference;
mod rotate;
mod stats;
mod unroll;

pub use bb::{schedule_block, schedule_block_observed};
pub use config::{Fault, PassVerifier, SchedConfig, SchedLevel, TestHooks};
pub use lru::Lru;
pub use memo::{region_memo_clear, region_memo_counters, RegionMemoCounters};
pub use parallel::effective_jobs;
pub use pipeline::{compile, compile_observed, compile_with_hooks, CompileError};
pub use profile::BranchProfile;
pub use reference::schedule_block_reference;
pub use rotate::{rotate_loop, rotate_loop_observed};
pub use stats::SchedStats;
pub use unroll::{unroll_loop, unroll_loop_observed};
