//! Control-flow analyses for `gis-ir` functions.
//!
//! This crate supplies everything §4.1/§5.1 of the paper assume from the
//! surrounding compiler:
//!
//! * the control flow graph augmented with unique `ENTRY`/`EXIT` nodes
//!   ([`Cfg`], paper Figure 3);
//! * dominators and postdominators ([`DomTree`]) — Definitions 1 and 2;
//! * back edges, natural loops, the loop nesting forest and a
//!   reducibility check ([`LoopForest`]);
//! * the *region* structure: a region is either a loop body or the routine
//!   body without its enclosed loops, and enclosed loops appear as opaque
//!   supernodes ([`RegionTree`], [`RegionGraph`]);
//! * the *forward* (acyclic, back-edge-free) control flow graph of each
//!   region with labelled branch edges, which is what the control
//!   dependence computation in `gis-pdg` consumes.
//!
//! # Example
//!
//! ```
//! use gis_cfg::{Cfg, DomTree, NodeId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let f = gis_ir::parse_function(
//!     "func t\nA:\n BT C,cr0,0x1/lt\nB:\n B D\nC:\nD:\n RET\n",
//! )?;
//! let cfg = Cfg::new(&f);
//! let dom = DomTree::dominators(&cfg);
//! let a = NodeId::block(gis_ir::BlockId::new(0));
//! let d = NodeId::block(gis_ir::BlockId::new(3));
//! assert!(dom.dominates(a, d));
//! # Ok(())
//! # }
//! ```

mod dom;
mod dot;
mod graph;
mod loops;
mod region;

pub use dom::DomTree;
pub use dot::{cfg_to_dot, cfg_to_dot_with, dot_escape, dot_node_id, DotOverlay, NoOverlay};
pub use graph::{group_into, Adjacency, Cfg, Edge, EdgeLabel, NodeId};
pub use loops::{LoopForest, LoopId, NaturalLoop};
pub use region::{
    IrreducibleRegionError, Region, RegionGraph, RegionId, RegionKind, RegionNode, RegionTree,
};
