//! # traffic — workload generation
//!
//! The paper's traffic sources (Table 1: EXP1–EXP4, POO1, and the Star
//! Wars video trace, here a synthetic LRD VBR stand-in), token-bucket
//! policing, and flow demography (Poisson arrivals, exponential
//! lifetimes).
//!
//! Sources are pull-based [`PacketProcess`]es — pure generators returning
//! (gap, size) pairs — which host agents in the `eac` crate turn into
//! timer-driven packet emissions. In the workspace layering this crate
//! sits beside `netsim` (it models what endpoints *send*, per the
//! paper's §3.2 workload catalogue, not how the network carries it) and
//! below `eac`, which owns the admission protocol.

pub mod process;
pub mod shaper;
pub mod spec;
pub mod video;

pub use process::{OnOff, PacketProcess, PeriodDist};
pub use shaper::{Policer, TokenBucketSpec};
pub use spec::{Demography, SourceKind, SourceSpec};
pub use video::{VideoConfig, VideoSource};
