//! Queueing disciplines.
//!
//! A [`Qdisc`] buffers packets between a link's input and its transmitter.
//! The interface supports everything the paper's designs need:
//!
//! - enqueue may *reject the arriving packet* (tail drop) or *evict resident
//!   packets* (probe push-out, §3.1: "incoming data packets push out
//!   resident probe packets if the buffer is full");
//! - every qdisc is work-conserving: dequeue returns a packet whenever one
//!   is buffered.
//!
//! The paper's rate-limited priority scheduler (§2.1.2) is modelled as it
//! simulated it (§3.2): the link itself runs at the admission-controlled
//! share, so no qdisc holds back a queued packet.
//!
//! Implementations: [`DropTail`], [`StrictPrio`], and the [`VirtualQueue`]
//! ECN marker that wraps a link.

mod fifo;
mod prio;
mod vq;

pub use fifo::DropTail;
pub use prio::{class_band_map, Band, StrictPrio};
pub use vq::VirtualQueue;

use crate::packet::Packet;
use simcore::SimTime;

/// Capacity limit for a buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Limit {
    /// At most this many packets.
    Packets(usize),
    /// At most this many bytes.
    Bytes(u64),
}

impl Limit {
    /// Would a buffer currently holding (`pkts`, `bytes`) overflow by
    /// admitting one more packet of `size` bytes?
    #[inline]
    pub fn would_overflow(self, pkts: usize, bytes: u64, size: u32) -> bool {
        match self {
            Limit::Packets(n) => pkts + 1 > n,
            Limit::Bytes(b) => bytes + size as u64 > b,
        }
    }
}

/// Result of a dequeue attempt.
#[derive(Debug)]
pub enum Dequeue {
    /// A packet is ready to transmit.
    Packet(Packet),
    /// The buffer is empty.
    Empty,
}

/// A queueing discipline.
///
/// Implementations must be `Send` so whole simulations can run on worker
/// threads.
pub trait Qdisc: Send {
    /// Offer `pkt` to the buffer at time `now`, appending any evicted
    /// resident packets (probe push-out) to `evicted`. Returns whether the
    /// arriving packet was accepted.
    ///
    /// The trait's only enqueue method. `evicted` is caller-owned scratch:
    /// the link layer reuses one buffer across all enqueues so the
    /// per-packet hot path allocates nothing, and tests and benches pass
    /// their own `Vec`.
    fn enqueue_into(&mut self, pkt: Packet, now: SimTime, evicted: &mut Vec<Packet>) -> bool;

    /// Ask for the next packet to transmit at time `now`. Work-conserving:
    /// returns [`Dequeue::Packet`] exactly when a packet is buffered.
    fn dequeue(&mut self, now: SimTime) -> Dequeue;

    /// Packets currently buffered.
    fn len_packets(&self) -> usize;

    /// Bytes currently buffered.
    fn len_bytes(&self) -> u64;

    /// True if no packets are buffered.
    fn is_empty(&self) -> bool {
        self.len_packets() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limit_overflow_checks() {
        assert!(Limit::Packets(2).would_overflow(2, 0, 1));
        assert!(!Limit::Packets(2).would_overflow(1, 0, 1));
        assert!(Limit::Bytes(100).would_overflow(0, 90, 11));
        assert!(!Limit::Bytes(100).would_overflow(0, 90, 10));
    }
}
