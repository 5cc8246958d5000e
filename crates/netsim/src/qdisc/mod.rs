//! Queueing disciplines.
//!
//! A [`Qdisc`] buffers packets between a link's input and its transmitter.
//! The interface supports everything the paper's designs need:
//!
//! - enqueue may *reject the arriving packet* (tail drop) or *evict resident
//!   packets* (probe push-out, §3.1: "incoming data packets push out
//!   resident probe packets if the buffer is full");
//! - dequeue may answer "nothing is eligible before time T"
//!   ([`Dequeue::NotBefore`]), which is how non-work-conserving rate-limited
//!   schedulers (§2.1.2) are expressed without giving qdiscs access to the
//!   event queue.
//!
//! Implementations: [`DropTail`], [`StrictPrio`], [`Drr`], and the
//! [`VirtualQueue`] ECN marker that wraps a link.

mod drr;
mod fifo;
mod prio;
mod vq;

pub use drr::Drr;
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

/// Result of an enqueue attempt.
#[derive(Debug, Default)]
pub struct Enqueued {
    /// The arriving packet was accepted into the buffer.
    pub accepted: bool,
    /// Resident packets evicted to make room (probe push-out). Empty in the
    /// common case; `Vec::new()` does not allocate.
    pub evicted: Vec<Packet>,
}

impl Enqueued {
    /// The packet was queued and nothing was evicted.
    pub fn ok() -> Self {
        Enqueued {
            accepted: true,
            evicted: Vec::new(),
        }
    }

    /// The packet was tail-dropped.
    pub fn dropped() -> Self {
        Enqueued {
            accepted: false,
            evicted: Vec::new(),
        }
    }
}

/// Result of a dequeue attempt.
#[derive(Debug)]
pub enum Dequeue {
    /// A packet is ready to transmit.
    Packet(Packet),
    /// Packets are queued but none is eligible before this time (rate
    /// limiter exhausted). The link schedules a retry then.
    NotBefore(SimTime),
    /// The buffer is empty.
    Empty,
}

/// A queueing discipline.
///
/// Implementations must be `Send` so whole simulations can run on worker
/// threads.
pub trait Qdisc: Send {
    /// Offer `pkt` to the buffer at time `now`, appending any evicted
    /// resident packets (probe push-out, longest-queue drop) to `evicted`.
    /// Returns whether the arriving packet was accepted.
    ///
    /// `evicted` is caller-owned scratch: the link layer reuses one buffer
    /// across all enqueues so the per-packet hot path allocates nothing.
    fn enqueue_into(&mut self, pkt: Packet, now: SimTime, evicted: &mut Vec<Packet>) -> bool;

    /// Offer `pkt` to the buffer at time `now`.
    ///
    /// Convenience wrapper over [`enqueue_into`](Qdisc::enqueue_into) that
    /// allocates a fresh eviction list per call; fine for tests and cold
    /// paths, avoid in per-packet loops.
    fn enqueue(&mut self, pkt: Packet, now: SimTime) -> Enqueued {
        let mut evicted = Vec::new();
        let accepted = self.enqueue_into(pkt, now, &mut evicted);
        Enqueued { accepted, evicted }
    }

    /// Ask for the next packet to transmit at time `now`.
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

/// A token bucket used as a dequeue rate limiter (non-work-conserving
/// schedulers) and exported for reuse by traffic policers.
///
/// Tokens are tracked in *bytes* with nanosecond-exact accrual.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate_bps: u64,
    depth_bytes: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// A bucket that refills at `rate_bps` and holds at most `depth_bytes`,
    /// starting full.
    pub fn new(rate_bps: u64, depth_bytes: f64) -> Self {
        assert!(rate_bps > 0 && depth_bytes > 0.0);
        TokenBucket {
            rate_bps,
            depth_bytes,
            tokens: depth_bytes,
            last: SimTime::ZERO,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.since(self.last).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate_bps as f64 / 8.0).min(self.depth_bytes);
        self.last = now;
    }

    /// Current token level in bytes.
    pub fn available(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        self.tokens
    }

    /// Try to spend `bytes` tokens; returns true on success.
    pub fn try_take(&mut self, bytes: u32, now: SimTime) -> bool {
        self.refill(now);
        if self.tokens + 1e-9 >= bytes as f64 {
            self.tokens -= bytes as f64;
            true
        } else {
            false
        }
    }

    /// Earliest time at which `bytes` tokens will be available (never
    /// earlier than `now`). Panics if `bytes` exceeds the bucket depth —
    /// such a packet could never be sent.
    pub fn ready_at(&mut self, bytes: u32, now: SimTime) -> SimTime {
        assert!(
            bytes as f64 <= self.depth_bytes,
            "packet larger than bucket depth"
        );
        self.refill(now);
        if self.tokens + 1e-9 >= bytes as f64 {
            now
        } else {
            let deficit = bytes as f64 - self.tokens;
            let secs = deficit * 8.0 / self.rate_bps as f64;
            // Round up to at least one tick: a sub-nanosecond deficit must
            // not produce "ready now" while try_take still refuses.
            let d =
                simcore::SimDuration::from_secs_f64(secs).max(simcore::SimDuration::from_nanos(1));
            now + d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    #[test]
    fn limit_overflow_checks() {
        assert!(Limit::Packets(2).would_overflow(2, 0, 1));
        assert!(!Limit::Packets(2).would_overflow(1, 0, 1));
        assert!(Limit::Bytes(100).would_overflow(0, 90, 11));
        assert!(!Limit::Bytes(100).would_overflow(0, 90, 10));
    }

    #[test]
    fn token_bucket_accrues_and_caps() {
        let mut tb = TokenBucket::new(8_000, 1_000.0); // 1000 B/s refill, 1000 B depth
        let t0 = SimTime::ZERO;
        assert!(tb.try_take(1_000, t0)); // starts full
        assert!(!tb.try_take(100, t0));
        let t1 = t0 + SimDuration::from_millis(100); // +100 B
        assert!(tb.try_take(100, t1));
        // Far future: capped at depth, not unbounded.
        let t2 = t1 + SimDuration::from_secs(1_000);
        assert!((tb.available(t2) - 1_000.0).abs() < 1e-6);
    }

    #[test]
    fn token_bucket_ready_at() {
        let mut tb = TokenBucket::new(8_000, 1_000.0);
        let t0 = SimTime::ZERO;
        assert!(tb.try_take(1_000, t0));
        // Need 500 bytes: at 1000 B/s that's 0.5 s away.
        let ready = tb.ready_at(500, t0);
        assert_eq!(ready, t0 + SimDuration::from_millis(500));
        // And it is actually takeable then.
        assert!(tb.try_take(500, ready));
    }

    #[test]
    #[should_panic]
    fn oversized_packet_panics() {
        let mut tb = TokenBucket::new(8_000, 100.0);
        tb.ready_at(200, SimTime::ZERO);
    }
}
