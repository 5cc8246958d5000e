//! # telemetry — observability for simulation runs
//!
//! Three instruments behind one hub, all zero-cost when disabled (the
//! simulator guards every touch point with a single `Option` check):
//!
//! - [`Metrics`]: named counters, gauges and log-bucketed (HDR-style)
//!   [`LogHistogram`]s. Exact-integer bucket counts make histogram merges
//!   associative, commutative and order-independent, so per-seed metrics
//!   merge deterministically across sweep workers.
//! - [`Sampler`]: periodic sampling driven by *simulation* time into a
//!   columnar [`TimeSeries`] (per-link queue depth, utilization, drop
//!   rates, admitted/probing flow gauges), exported as CSV.
//! - [`FlightRecorder`]: a bounded ring of recent structured events
//!   (admission verdicts, drops, flaps, watchdog trips) dumped to JSONL
//!   when a run dies, so post-mortems start with the final seconds of
//!   context instead of a bare error string.
//!
//! Observability is beyond the paper itself — it exists so the §3
//! experiments and the robustness extensions can be debugged from
//! instrument readings rather than re-runs. The crate is deliberately
//! low in the dependency graph (simcore + the serialization shims
//! only): `netsim` owns the hot-path touch points,
//! `eac` wires scenario plumbing, and `eac-bench` merges, aggregates and
//! exports across sweep grids.

pub mod hist;
pub mod metrics;
pub mod recorder;
pub mod sampler;
pub mod series;

pub use hist::{HistSummary, LogHistogram};
pub use metrics::Metrics;
pub use recorder::{FlightEvent, FlightRecorder};
pub use sampler::Sampler;
pub use series::TimeSeries;

use simcore::SimDuration;

/// Sampler tick period of every instrumented run, in simulation time.
pub const SAMPLE_PERIOD: SimDuration = SimDuration::from_secs(1);

/// Flight-recorder ring capacity of every instrumented run, in events.
pub const RECORDER_CAPACITY: usize = 4096;

/// The per-run instrument hub installed into a simulation.
#[derive(Clone, Debug)]
pub struct Telemetry {
    /// Counters, gauges, histograms.
    pub metrics: Metrics,
    /// Periodic time-series sampler.
    pub sampler: Sampler,
    /// Recent-event ring buffer.
    pub recorder: FlightRecorder,
}

impl Telemetry {
    /// A hub sampling every [`SAMPLE_PERIOD`] and recording into
    /// `recorder`: a fresh [`RECORDER_CAPACITY`]-event ring, or a shared
    /// handle the caller keeps to dump the ring if the run dies.
    pub fn new(recorder: FlightRecorder) -> Self {
        Telemetry {
            metrics: Metrics::new(),
            sampler: Sampler::new(SAMPLE_PERIOD),
            recorder,
        }
    }
}
