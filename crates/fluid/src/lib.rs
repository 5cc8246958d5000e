//! # fluid — the paper's analytical models
//!
//! The analysis behind the paper's simulations:
//!
//! - [`statics`]: the in-band drop-rate floor of §4.1;
//! - [`thrash`]: the dynamic fluid model behind Figure 1 — a CTMC over
//!   (admitted, probing) flow counts with perfect probing, evaluated by
//!   finite-horizon Monte-Carlo (the collapsed regime is absorbing, so
//!   the stationary distribution is uninformative — see `thrash` docs).

pub mod statics;
pub mod thrash;

pub use thrash::{fig1_sweep, RunAreas, ThrashModel, ThrashPoint};
