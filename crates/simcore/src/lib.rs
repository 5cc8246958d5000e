//! # simcore — deterministic discrete-event simulation engine
//!
//! The bottom layer of the workspace: every other crate (netsim's packet
//! substrate, the traffic sources, the eac protocol, the bench sweeps)
//! schedules through this engine, and it in turn knows nothing about
//! networking or the paper — it exists so the §3 simulation methodology
//! (long horizons, warm-up discard, seed averaging) is exactly
//! repeatable. Provides:
//!
//! - [`SimTime`] / [`SimDuration`]: integer-nanosecond time, so event
//!   ordering never depends on floating-point rounding;
//! - [`EventQueue`]: a calendar-queue event calendar (a sliding ring of
//!   buckets, i.e. a timer wheel, with an overflow heap) with a monotone
//!   sequence number for stable FIFO ordering of simultaneous events
//!   (a [`Ticket`] takes that number ahead of a deferred schedule);
//!   [`queue::HeapEventQueue`] is the binary-heap reference
//!   implementation it is property-tested against;
//! - [`IdMap`]: a `HashMap` with a cheap multiplicative hash, for the
//!   flow tables on the per-packet path;
//! - [`rng::SimRng`]: a seeded RNG with cheap derived streams and the
//!   distribution samplers the paper's workloads need (exponential, Pareto);
//! - [`stats`]: warm-up-marked counters.
//!
//! The engine is deliberately synchronous and single-threaded per
//! simulation run: determinism is a feature (identical seeds produce
//! bit-identical runs). Parallelism belongs one level up, across runs.

pub mod idmap;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use idmap::IdMap;
pub use queue::{EventQueue, HeapEventQueue, QueueSnapshot, Ticket};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
