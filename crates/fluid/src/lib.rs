//! # fluid — the paper's analytical models
//!
//! Section 2 of the paper argues architecture with two kinds of
//! mathematics, both implemented here:
//!
//! - [`statics`]: closed-form results (stolen bandwidth under fair
//!   queueing, acceptance-threshold windows, the in-band drop-rate
//!   floor);
//! - [`thrash`]: the dynamic fluid model behind Figure 1 — a CTMC over
//!   (admitted, probing) flow counts with perfect probing, evaluated by
//!   finite-horizon Monte-Carlo (the collapsed regime is absorbing, so
//!   the stationary distribution is uninformative — see `thrash` docs).

pub mod statics;
pub mod thrash;

pub use thrash::{fig1_sweep, RunAreas, ThrashModel, ThrashPoint};
