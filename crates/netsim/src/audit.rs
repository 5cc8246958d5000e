//! Invariant auditing: packet conservation and run health.
//!
//! The substrate maintains a handful of cheap global counters
//! ([`AuditCounters`], a few u64 increments on the packet path) so that a
//! test can assert, at any quiescent point, that no packet was silently
//! created or destroyed:
//!
//! ```text
//! injected =
//!     delivered + queue drops + wire losses + down drops + no-route drops
//!     + queued + in flight + in transit
//! ```
//!
//! `injected` counts agent-originated sends ([`crate::Api::send`]);
//! forwarding at transit nodes does not re-count. `in transit` is the
//! occupancy of the network's wire arena ([`crate::wire`]): every packet
//! whose `Deliver` event is scheduled and not yet fired sits there, so
//! the identity holds mid-run, not just after a drain.
//!
//! The check runs on demand: [`check_conservation`] (or
//! `Sim::check_conservation`). Every scenario run calls it after its
//! drain, so each run's loss figures rest on a balanced identity.

use crate::topo::Network;

/// Global packet-path counters maintained by the substrate.
#[derive(Clone, Copy, Debug, Default)]
pub struct AuditCounters {
    /// Agent-originated packet sends.
    pub injected: u64,
    /// Final deliveries (including packets arriving at agent-less nodes).
    pub delivered: u64,
    /// Packets dropped because no route existed to their destination
    /// (e.g. every path contains a down link).
    pub no_route_drops: u64,
    /// Timer events that fired on a node with no agent (counted and
    /// ignored rather than aborting the run).
    pub stray_timers: u64,
}

/// A violated invariant.
#[derive(Clone, Debug)]
pub enum AuditError {
    /// The conservation identity does not balance.
    Conservation {
        /// Left-hand side: injected.
        sources: u64,
        /// Right-hand side: all sink terms summed.
        sinks: u64,
        /// Human-readable term breakdown.
        detail: String,
    },
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Conservation {
                sources,
                sinks,
                detail,
            } => write!(
                f,
                "packet conservation violated: sources {sources} != sinks {sinks} ({detail})"
            ),
        }
    }
}

impl std::error::Error for AuditError {}

/// Check packet conservation against the network's current state.
pub fn check_conservation(net: &Network) -> Result<(), AuditError> {
    let a = net.audit;
    let in_transit = net.in_transit();
    let fault = net.fault_stats().copied().unwrap_or_default();

    let mut queue_drops = 0u64;
    let mut queued = 0u64;
    let mut in_flight = 0u64;
    for l in net.links() {
        for class in crate::packet::TrafficClass::ALL {
            queue_drops += l.stats.class(class).dropped.total();
        }
        queued += l.queue_len() as u64;
        in_flight += l.is_busy() as u64;
    }

    let sources = a.injected;
    let sinks = a.delivered
        + queue_drops
        + fault.wire_lost
        + fault.down_drops
        + a.no_route_drops
        + queued
        + in_flight
        + in_transit;

    if sources == sinks {
        Ok(())
    } else {
        Err(AuditError::Conservation {
            sources,
            sinks,
            detail: format!(
                "injected {} vs delivered {} + queue_drops {queue_drops} \
                 + wire_lost {} + down_drops {} + no_route {} + queued {queued} \
                 + in_flight {in_flight} + in_transit {in_transit}",
                a.injected, a.delivered, fault.wire_lost, fault.down_drops, a.no_route_drops,
            ),
        })
    }
}
