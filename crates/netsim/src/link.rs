//! Unidirectional links: a queueing discipline feeding a transmitter with
//! fixed bandwidth and propagation delay, plus per-class statistics.

use crate::packet::{LinkId, NodeId, Packet, TrafficClass};
use crate::qdisc::{Dequeue, Qdisc, VirtualQueue};
use simcore::stats::Counter;
use simcore::{SimDuration, SimTime};

/// Arrival/drop/mark/departure counters for one traffic class on one link.
#[derive(Clone, Debug, Default)]
pub struct ClassStats {
    /// Packets offered to the queue (before any drop decision).
    pub offered: Counter,
    /// Bytes offered.
    pub offered_bytes: Counter,
    /// Packets dropped (tail drop or push-out eviction).
    pub dropped: Counter,
    /// Packets transmitted onto the wire carrying a congestion mark.
    pub marked: Counter,
    /// Packets transmitted onto the wire.
    pub transmitted: Counter,
    /// Bytes transmitted.
    pub transmitted_bytes: Counter,
}

/// Per-link statistics, indexed by [`TrafficClass`].
#[derive(Clone, Debug, Default)]
pub struct LinkStats {
    per_class: [ClassStats; TrafficClass::COUNT],
}

impl LinkStats {
    /// Stats for one class.
    pub fn class(&self, c: TrafficClass) -> &ClassStats {
        &self.per_class[c.index()]
    }

    fn class_mut(&mut self, c: TrafficClass) -> &mut ClassStats {
        &mut self.per_class[c.index()]
    }

    /// Snapshot all counters (start of the measurement window, i.e. end of
    /// warm-up). Subsequent reads via `since_mark()` exclude the warm-up.
    pub fn mark_all(&mut self) {
        for cs in &mut self.per_class {
            cs.offered.mark();
            cs.offered_bytes.mark();
            cs.dropped.mark();
            cs.marked.mark();
            cs.transmitted.mark();
            cs.transmitted_bytes.mark();
        }
    }

    /// Fraction of `class` packets dropped since the mark (drops/offered).
    pub fn drop_fraction(&self, c: TrafficClass) -> f64 {
        let cs = self.class(c);
        let offered = cs.offered.since_mark();
        if offered == 0 {
            0.0
        } else {
            cs.dropped.since_mark() as f64 / offered as f64
        }
    }

    /// Lifetime bytes transmitted, summed over all classes.
    pub fn total_transmitted_bytes(&self) -> u64 {
        self.per_class
            .iter()
            .map(|cs| cs.transmitted_bytes.total())
            .sum()
    }

    /// Utilization of `class` since the mark against a reference rate:
    /// transmitted bytes / (`rate_bps` × `interval`).
    pub fn utilization(&self, c: TrafficClass, rate_bps: u64, interval: SimDuration) -> f64 {
        let secs = interval.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        let bits = self.class(c).transmitted_bytes.since_mark() as f64 * 8.0;
        bits / (rate_bps as f64 * secs)
    }
}

/// A unidirectional link.
///
/// Owns its queueing discipline and (optionally) a [`VirtualQueue`] ECN
/// marker that every arriving admission-controlled packet passes through
/// before the real queue (§3.1).
pub struct Link {
    /// This link's id.
    pub id: LinkId,
    /// Upstream node.
    pub from: NodeId,
    /// Downstream node.
    pub to: NodeId,
    /// Transmission rate, bits/second.
    pub bandwidth_bps: u64,
    /// Propagation delay.
    pub prop_delay: SimDuration,
    qdisc: Box<dyn Qdisc>,
    marker: Option<VirtualQueue>,
    /// Reused eviction scratch: cleared and refilled by every enqueue so
    /// the per-packet hot path never allocates (a push-out free-list).
    evict_buf: Vec<Packet>,
    in_flight: Option<Packet>,
    /// Operational state (fault injection): a down link neither starts
    /// new transmissions nor delivers the one on the wire; queued packets
    /// wait for the link to come back up.
    up: bool,
    /// Per-class counters.
    pub stats: LinkStats,
}

impl Link {
    /// Build a link; `marker` enables virtual-queue ECN marking.
    pub fn new(
        id: LinkId,
        from: NodeId,
        to: NodeId,
        bandwidth_bps: u64,
        prop_delay: SimDuration,
        qdisc: Box<dyn Qdisc>,
        marker: Option<VirtualQueue>,
    ) -> Self {
        assert!(bandwidth_bps > 0);
        Link {
            id,
            from,
            to,
            bandwidth_bps,
            prop_delay,
            qdisc,
            marker,
            evict_buf: Vec::new(),
            in_flight: None,
            up: true,
            stats: LinkStats::default(),
        }
    }

    /// Offer a packet to the link's queue, updating statistics. Returns how
    /// many packets the queue dropped: the arrival if it was refused, plus
    /// every resident it evicted.
    pub fn receive(&mut self, mut pkt: Packet, now: SimTime) -> u64 {
        let class = pkt.class;
        self.stats.class_mut(class).offered.inc();
        self.stats
            .class_mut(class)
            .offered_bytes
            .add(pkt.size as u64);
        if let Some(m) = &mut self.marker {
            m.process(&mut pkt, now);
        }
        self.evict_buf.clear();
        let accepted = self.qdisc.enqueue_into(pkt, now, &mut self.evict_buf);
        if !accepted {
            self.stats.class_mut(class).dropped.inc();
        }
        let dropped = u64::from(!accepted) + self.evict_buf.len() as u64;
        for victim in self.evict_buf.drain(..) {
            self.stats.class_mut(victim.class).dropped.inc();
        }
        dropped
    }

    /// If idle, try to start transmitting; returns when the started
    /// transmission completes (the driver schedules a `TxComplete` then),
    /// or `None` if nothing started.
    pub fn try_start(&mut self, now: SimTime) -> Option<SimTime> {
        if !self.up || self.in_flight.is_some() {
            return None;
        }
        match self.qdisc.dequeue(now) {
            Dequeue::Packet(p) => {
                let tx = SimDuration::transmission(p.size, self.bandwidth_bps);
                self.in_flight = Some(p);
                Some(now + tx)
            }
            Dequeue::Empty => None,
        }
    }

    /// Complete the in-flight transmission; returns the packet (now to be
    /// propagated to `self.to`).
    pub fn tx_complete(&mut self) -> Packet {
        let p = self
            .in_flight
            .take()
            .expect("TxComplete on a link with nothing in flight");
        let cs = self.stats.class_mut(p.class);
        cs.transmitted.inc();
        cs.transmitted_bytes.add(p.size as u64);
        if p.marked {
            cs.marked.inc();
        }
        p
    }

    /// Packets currently buffered (excluding any packet on the wire).
    pub fn queue_len(&self) -> usize {
        self.qdisc.len_packets()
    }

    /// Bytes currently buffered.
    pub fn queue_bytes(&self) -> u64 {
        self.qdisc.len_bytes()
    }

    /// Whether the transmitter is busy.
    pub fn is_busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Whether the link is operational (fault injection).
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Change the operational state (driven by `LinkDown`/`LinkUp`
    /// events; routing must be recomputed by the caller).
    pub(crate) fn set_up(&mut self, up: bool) {
        self.up = up;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;
    use crate::qdisc::{DropTail, Limit};

    fn link() -> Link {
        Link::new(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            10_000_000, // 10 Mbps
            SimDuration::from_millis(20),
            Box::new(DropTail::new(Limit::Packets(2))),
            None,
        )
    }

    fn pkt(id: u64) -> Packet {
        Packet::new(
            id,
            FlowId(0),
            NodeId(0),
            NodeId(1),
            125,
            TrafficClass::Data,
            id,
            SimTime::ZERO,
        )
    }

    #[test]
    fn transmit_cycle() {
        let mut l = link();
        let t0 = SimTime::ZERO;
        l.receive(pkt(0), t0);
        let t = l.try_start(t0).expect("an idle link starts sending");
        // 125 B at 10 Mbps = 100 us.
        assert_eq!(t, t0 + SimDuration::from_micros(100));
        assert!(l.is_busy());
        let p = l.tx_complete();
        assert_eq!(p.id, 0);
        assert!(!l.is_busy());
        assert_eq!(l.stats.class(TrafficClass::Data).transmitted.total(), 1);
    }

    #[test]
    fn busy_link_does_not_restart() {
        let mut l = link();
        l.receive(pkt(0), SimTime::ZERO);
        l.receive(pkt(1), SimTime::ZERO);
        assert!(l.try_start(SimTime::ZERO).is_some());
        assert_eq!(l.try_start(SimTime::ZERO), None);
    }

    #[test]
    fn overflow_counts_drops() {
        let mut l = link();
        let dropped: Vec<u64> = (0..5).map(|i| l.receive(pkt(i), SimTime::ZERO)).collect();
        assert_eq!(dropped, [0, 0, 1, 1, 1]);
        assert_eq!(l.stats.class(TrafficClass::Data).offered.total(), 5);
        assert_eq!(l.stats.class(TrafficClass::Data).dropped.total(), 3);
        assert!((l.stats.drop_fraction(TrafficClass::Data) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn marks_count_when_transmitted() {
        let marking_link = |buffer_pkts| {
            Link::new(
                LinkId(0),
                NodeId(0),
                NodeId(1),
                10_000_000,
                SimDuration::ZERO,
                Box::new(DropTail::new(Limit::Packets(buffer_pkts))),
                Some(VirtualQueue::new(10_000_000, 0.9, 2.0 * 125.0)),
            )
        };
        let send_all = |l: &mut Link| {
            while l.try_start(SimTime::ZERO).is_some() {
                l.tx_complete();
            }
        };
        // Burst enough packets at one instant to overwhelm the tiny VQ.
        let mut l = marking_link(1000);
        for i in 0..10 {
            l.receive(pkt(i), SimTime::ZERO);
        }
        // Marked packets are still queued (marking, not dropping), and
        // count only once they leave.
        assert_eq!(l.queue_len(), 10);
        assert_eq!(l.stats.class(TrafficClass::Data).marked.total(), 0);
        send_all(&mut l);
        assert!(l.stats.class(TrafficClass::Data).marked.total() >= 8);

        // A marked packet the real queue drops is never counted: the VQ
        // passes the first two and marks the other eight, which the
        // two-packet buffer then drops.
        let mut l = marking_link(2);
        for i in 0..10 {
            l.receive(pkt(i), SimTime::ZERO);
        }
        send_all(&mut l);
        let data = l.stats.class(TrafficClass::Data);
        assert_eq!((data.dropped.total(), data.transmitted.total()), (8, 2));
        assert_eq!(data.marked.total(), 0);
    }

    #[test]
    fn utilization_math() {
        let mut l = link();
        let t0 = SimTime::ZERO;
        l.receive(pkt(0), t0);
        if l.try_start(t0).is_some() {
            l.tx_complete();
        }
        // 125 bytes over 1 second at 10 Mbps reference = 1e3 bits / 1e7.
        let u = l
            .stats
            .utilization(TrafficClass::Data, 10_000_000, SimDuration::from_secs(1));
        assert!((u - 0.0001).abs() < 1e-9);
    }

    #[test]
    fn warmup_marking_resets_ratios() {
        let mut l = link();
        for i in 0..5 {
            l.receive(pkt(i), SimTime::ZERO);
        }
        l.stats.mark_all();
        assert_eq!(l.stats.drop_fraction(TrafficClass::Data), 0.0);
    }
}
