//! # netsim — packet-level network simulation substrate
//!
//! The workspace's middle layer — the stand-in for the ns-2 models the
//! paper used (§3.1): store-and-forward
//! links driven by a discrete-event calendar, the router queueing
//! mechanisms the paper's architectural discussion needs (drop-tail,
//! strict priority with probe push-out and aggregate rate limits, DRR fair
//! queueing, virtual-queue ECN marking), static minimum-hop routing, and an
//! ns-2-style [`Agent`] framework for endpoints.
//!
//! Layering:
//!
//! ```text
//!   eac / traffic / tcpsim agents      (endpoints)
//!            │  Agent trait, Api
//!   ┌────────┴─────────┐
//!   │  Sim (run loop)  │  Event calendar (simcore::EventQueue)
//!   │  Network         │  routing, inject/forward, wire arena
//!   │  Link            │  bandwidth, propagation, stats
//!   │  Qdisc           │  DropTail / StrictPrio / Drr (+ VirtualQueue)
//!   └──────────────────┘
//! ```

pub mod audit;
pub mod fault;
pub mod link;
pub mod packet;
pub mod qdisc;
pub mod sim;
pub mod topo;
pub mod wire;

pub use audit::{check_conservation, AuditCounters, AuditError};
pub use fault::{FaultPlan, FaultStats, Impairment, LinkFlap};
pub use link::{ClassStats, Link, LinkStats};
pub use packet::{FlowId, LinkId, NodeId, Packet, TrafficClass};
pub use qdisc::{
    class_band_map, Band, Dequeue, DropTail, Drr, Enqueued, Limit, Qdisc, StrictPrio, TokenBucket,
    VirtualQueue,
};
pub use sim::{Agent, Api, Event, RunError, Sim};
pub use topo::Network;
pub use wire::WireSlot;
