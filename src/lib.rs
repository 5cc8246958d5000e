//! # endpoint-admission — umbrella crate
//!
//! Facade over the workspace that reproduces *Breslau, Knightly, Shenker,
//! Stoica, Zhang — "Endpoint Admission Control: Architectural Issues and
//! Performance" (SIGCOMM 2000)*.
//!
//! Re-exports every workspace crate so the root tests and downstream users
//! can depend on a single crate:
//!
//! - [`simcore`] — discrete-event engine (time, event queue, RNG, stats);
//! - [`netsim`] — packet-level network substrate (links, qdiscs, routing,
//!   agents);
//! - [`traffic`] — the paper's traffic sources (EXP1–4, POO1, video) and
//!   token buckets;
//! - [`tcpsim`] — TCP Reno endpoints for the incremental-deployment study;
//! - [`fluid`] — the analytical models (the Fig 1 thrashing CTMC, the
//!   in-band drop-rate floor);
//! - [`eac`] — the paper's contribution: endpoint probing admission
//!   control, the MBAC baseline, scenario builders and metrics.
//!
//! ## Quickstart
//!
//! ```
//! use endpoint_admission::eac::design::Design;
//! use endpoint_admission::eac::probe::{Placement, ProbeStyle, Signal};
//! use endpoint_admission::eac::scenario::Scenario;
//!
//! let report = Scenario::basic()
//!     .design(Design::endpoint(
//!         Signal::Drop,
//!         Placement::InBand,
//!         ProbeStyle::SlowStart,
//!         0.01,
//!     ))
//!     .horizon_secs(60.0)
//!     .warmup_secs(20.0)
//!     .seed(1)
//!     .run()
//!     .expect("no watchdogs armed");
//! assert!(report.utilization >= 0.0 && report.utilization <= 1.5);
//! ```

pub use eac;
pub use fluid;
pub use netsim;
pub use simcore;
pub use tcpsim;
pub use traffic;
