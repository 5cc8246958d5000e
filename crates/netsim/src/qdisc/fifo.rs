//! Drop-tail FIFO — the paper's default router queue (§3.1).

use super::{Dequeue, Limit, Qdisc};
use crate::packet::Packet;
use simcore::SimTime;
use std::collections::VecDeque;

/// A single FIFO buffer with tail drop on overflow.
#[derive(Debug)]
pub struct DropTail {
    queue: VecDeque<Packet>,
    limit: Limit,
    bytes: u64,
}

impl DropTail {
    /// An empty buffer with the given capacity.
    pub fn new(limit: Limit) -> Self {
        DropTail {
            queue: VecDeque::new(),
            limit,
            bytes: 0,
        }
    }

    /// The configured capacity.
    pub fn limit(&self) -> Limit {
        self.limit
    }

    /// Remove the most recently enqueued packet (used by push-out schedulers).
    pub fn pop_tail(&mut self) -> Option<Packet> {
        let p = self.queue.pop_back()?;
        self.bytes -= p.size as u64;
        Some(p)
    }

    /// Would admitting a packet of `size` bytes overflow the buffer?
    pub fn would_overflow(&self, size: u32) -> bool {
        self.limit
            .would_overflow(self.queue.len(), self.bytes, size)
    }

    /// Enqueue without a capacity check (the caller has already made room —
    /// used by shared-buffer schedulers).
    pub fn force_enqueue(&mut self, pkt: Packet) {
        self.bytes += pkt.size as u64;
        self.queue.push_back(pkt);
    }
}

impl Qdisc for DropTail {
    fn enqueue_into(&mut self, pkt: Packet, _now: SimTime, _evicted: &mut Vec<Packet>) -> bool {
        if self.would_overflow(pkt.size) {
            false
        } else {
            self.force_enqueue(pkt);
            true
        }
    }

    fn dequeue(&mut self, _now: SimTime) -> Dequeue {
        match self.queue.pop_front() {
            Some(p) => {
                self.bytes -= p.size as u64;
                Dequeue::Packet(p)
            }
            None => Dequeue::Empty,
        }
    }

    fn len_packets(&self) -> usize {
        self.queue.len()
    }

    fn len_bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, NodeId, TrafficClass};

    fn pkt(id: u64, size: u32) -> Packet {
        Packet::new(
            id,
            FlowId(0),
            NodeId(0),
            NodeId(1),
            size,
            TrafficClass::Data,
            id,
            SimTime::ZERO,
        )
    }

    #[test]
    fn fifo_order() {
        let mut q = DropTail::new(Limit::Packets(10));
        let mut ev = Vec::new();
        for i in 0..5 {
            assert!(q.enqueue_into(pkt(i, 100), SimTime::ZERO, &mut ev));
        }
        for i in 0..5 {
            match q.dequeue(SimTime::ZERO) {
                Dequeue::Packet(p) => assert_eq!(p.id, i),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(matches!(q.dequeue(SimTime::ZERO), Dequeue::Empty));
    }

    #[test]
    fn packet_limit_tail_drops() {
        let mut q = DropTail::new(Limit::Packets(2));
        let mut ev = Vec::new();
        assert!(q.enqueue_into(pkt(0, 1), SimTime::ZERO, &mut ev));
        assert!(q.enqueue_into(pkt(1, 1), SimTime::ZERO, &mut ev));
        assert!(!q.enqueue_into(pkt(2, 1), SimTime::ZERO, &mut ev));
        assert!(ev.is_empty());
        assert_eq!(q.len_packets(), 2);
    }

    #[test]
    fn byte_limit_and_accounting() {
        let mut q = DropTail::new(Limit::Bytes(250));
        let mut ev = Vec::new();
        assert!(q.enqueue_into(pkt(0, 125), SimTime::ZERO, &mut ev));
        assert!(q.enqueue_into(pkt(1, 125), SimTime::ZERO, &mut ev));
        assert!(!q.enqueue_into(pkt(2, 1), SimTime::ZERO, &mut ev));
        assert_eq!(q.len_bytes(), 250);
        q.dequeue(SimTime::ZERO);
        assert_eq!(q.len_bytes(), 125);
        assert!(q.enqueue_into(pkt(3, 125), SimTime::ZERO, &mut ev));
    }

    #[test]
    fn pop_tail_removes_newest() {
        let mut q = DropTail::new(Limit::Packets(10));
        let mut ev = Vec::new();
        q.enqueue_into(pkt(0, 10), SimTime::ZERO, &mut ev);
        q.enqueue_into(pkt(1, 20), SimTime::ZERO, &mut ev);
        let p = q.pop_tail().unwrap();
        assert_eq!(p.id, 1);
        assert_eq!(q.len_bytes(), 10);
        assert!(matches!(q.dequeue(SimTime::ZERO), Dequeue::Packet(p) if p.id == 0));
    }
}
