//! # eac — endpoint admission control
//!
//! The paper's contribution: hosts probe a path at the rate they want to
//! reserve, measure the loss (or ECN-mark) fraction of the probe stream,
//! and admit the flow only if that fraction is at most ε. This crate
//! implements the sender and receiver halves of that protocol, the three
//! probing algorithms (simple, early-reject, slow-start), the four
//! prototype designs (drop/mark × in-band/out-of-band), the Measured Sum
//! MBAC benchmark, and scenario builders reproducing the paper's
//! experimental setups.
//!
//! Start with [`scenario::Scenario::basic`]:
//!
//! ```
//! use eac::scenario::Scenario;
//! use eac::design::Design;
//! use eac::probe::{Signal, Placement, ProbeStyle};
//!
//! let report = Scenario::basic()
//!     .design(Design::endpoint(Signal::Drop, Placement::InBand,
//!                              ProbeStyle::SlowStart, 0.01))
//!     .horizon_secs(120.0)
//!     .warmup_secs(30.0)
//!     .run()
//!     .expect("packets conserved");
//! println!("utilization {:.3}, loss {:.5}", report.utilization, report.data_loss);
//! ```
//!
//! The full quickstart — the paper's basic scenario (§4.1) under the
//! endpoint scheme and under the router-based Measured Sum benchmark,
//! side by side (compile-checked here; at these run lengths it takes a
//! minute or two, so execute it from your own `main`):
//!
//! ```no_run
//! use eac::design::Design;
//! use eac::probe::{Placement, ProbeStyle, Signal};
//! use eac::scenario::Scenario;
//!
//! // EXP1 sources (256 kbps bursts, 128 kbps average) arrive every 3.5 s
//! // on average and live ~300 s, sharing a 10 Mbps bottleneck. Each flow
//! // probes for 5 s with the slow-start ladder; the receiver accepts it
//! // if the probe loss fraction stays within epsilon.
//! let endpoint = Scenario::basic()
//!     .design(Design::endpoint(
//!         Signal::Drop,
//!         Placement::InBand,
//!         ProbeStyle::SlowStart,
//!         0.01,
//!     ))
//!     .horizon_secs(1_000.0)
//!     .warmup_secs(200.0)
//!     .seed(42);
//! let r = endpoint.run().expect("packets conserved");
//!
//! // The router-based benchmark: Measured Sum with a 0.9 target.
//! let mbac = Scenario::basic()
//!     .design(Design::mbac(0.9))
//!     .horizon_secs(1_000.0)
//!     .warmup_secs(200.0)
//!     .seed(42);
//! let m = mbac.run().expect("packets conserved");
//!
//! // The paper's headline: the endpoint scheme loses only modestly to
//! // the router-based benchmark, with no router state at all.
//! println!(
//!     "endpoint: util {:.3} loss {:.5} blocking {:.3} overhead {:.3}",
//!     r.utilization, r.data_loss, r.blocking, r.probe_overhead
//! );
//! println!(
//!     "MBAC:     util {:.3} loss {:.5} blocking {:.3}",
//!     m.utilization, m.data_loss, m.blocking
//! );
//! ```
//!
//! `run` fails only on an exhausted event budget or a failed
//! packet-conservation audit, which every run ends with. For the
//! telemetry hub as well as the report, see
//! [`scenario::Scenario::run_full`].

pub mod coexist;
pub mod design;
mod driver;
pub mod host;
pub mod mbac;
pub mod metrics;
pub mod msg;
pub mod multihop;
pub mod probe;
pub mod scenario;
pub mod sink;

pub use coexist::{CoexistReport, CoexistScenario};
pub use design::{Design, Group};
pub use metrics::{GroupReport, Report};
pub use multihop::MultihopScenario;
pub use probe::{Placement, ProbePlan, ProbeStyle, Signal, Stage};
pub use scenario::{RunConfig, RunOutput, Scenario, ScenarioError};
