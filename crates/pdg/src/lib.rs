//! The Program Dependence Graph (§4 of the paper).
//!
//! Two halves, mirroring the paper exactly:
//!
//! * **Control dependences** ([`Cspdg`]) are computed at basic-block
//!   granularity over a region's *forward* control flow graph, following
//!   Ferrante–Ottenstein–Warren. The CSPDG answers the three questions the
//!   scheduler asks: which blocks are *equivalent* to `A` (useful motion,
//!   Definitions 3–4), which blocks are reachable from `A` across `n`
//!   CSPDG edges (*n-branch speculation*, Definition 7), and under what
//!   condition a block executes.
//!
//! * **Data dependences** ([`DataDeps`]) are computed instruction by
//!   instruction, both intra- and inter-block: flow, anti and output
//!   register dependences plus conservative memory dependences with the
//!   paper's disambiguation rules, with delays from the parametric machine
//!   description on flow edges and a latency-aware redundant-edge
//!   elimination corresponding to the paper's transitive-closure trick.
//!
//! Supporting analyses used by speculative scheduling (§5.3): block-level
//! register [`Liveness`] (live on exit) and du-chain [`webs`] renaming —
//! the "renaming similar to the effect of static single assignment" that
//! lets Figure 6 move `I12` speculatively by renaming `cr6` to a fresh
//! condition register.

mod control;
mod data;
mod liveness;
mod numbering;
mod pressure;
pub mod webs;

pub use control::{cspdg_to_dot, cspdg_to_dot_with, duplication_pred_set, Cspdg};
pub use data::{DataDep, DataDeps, DepKind};
pub use liveness::{LiveOutWalk, Liveness};
pub use pressure::{register_pressure, PressureReport};
