//! Event-sourced observability for the global scheduler.
//!
//! The scheduler of `gis-core` makes hundreds of small decisions per
//! region — which blocks feed candidates into which, which instruction
//! wins each issue slot and on which heuristic, which speculative motions
//! the §5.3 live-on-exit rule rejects, which it saves by renaming. This
//! crate makes those decisions observable without perturbing them:
//!
//! * [`SchedObserver`] — the hook trait the scheduler is generic over.
//!   The default implementation ([`NopObserver`]) is a no-op whose
//!   [`enabled`](SchedObserver::enabled) gate lets every emission site
//!   compile away entirely; an observed and an unobserved run produce
//!   bit-identical schedules.
//! * [`TraceEvent`] — the typed event vocabulary (passes, regions,
//!   candidate sets, motions, rejections, renames).
//! * Sinks: [`Recorder`] (in-memory ring buffer), [`render_report`]
//!   (human-readable text), [`JsonLines`] (a hand-rolled JSON-lines
//!   writer; [`TraceEvent::from_json_line`] parses it back, so traces
//!   round-trip without external crates).
//! * [`Metrics`] — a counter registry plus monotonic per-pass wall
//!   times, derived from an event stream.
//! * [`TraceQuery`] — the join layer: flattened motions / rejections /
//!   renames / region scopes indexed by instruction and block, which is
//!   what the `gis-viz` DOT and HTML renderers consume.
//!
//! The crate depends on nothing, not even `gis-ir`: events carry raw
//! instruction ids and block labels, so any layer (CLI, tests, the
//! figure-reproduction harness) can consume them.

mod event;
mod json;
mod metrics;
mod query;
mod sink;

pub use event::{MotionKind, NopObserver, Pass, RejectReason, SchedObserver, TieBreak, TraceEvent};
pub use json::{Json, JsonError, ObjectWriter};
pub use metrics::Metrics;
pub use query::{Duplication, Motion, RegionScope, Rejection, Rename, SkippedRegion, TraceQuery};
pub use sink::{render_report, JsonLines, Recorder};
