//! TCP Reno senders and receivers as netsim agents.

use netsim::{Agent, Api, FlowId, NodeId, Packet, TrafficClass};
use simcore::stats::Counter;
use simcore::{IdMap, SimDuration, SimTime, Ticket};
use std::any::Any;
use std::collections::BTreeSet;

/// Timer kinds.
mod timer {
    /// Retransmission timeout check for flow `data`.
    pub const RTO: u32 = 30;
    /// Initial start of flow `data`.
    pub const START: u32 = 31;
}

/// ACK packet size, bytes.
const ACK_BYTES: u32 = 40;
/// Minimum RTO.
const MIN_RTO: SimDuration = SimDuration::from_millis(500);
/// Minimum RTO, seconds.
const MIN_RTO_S: f64 = MIN_RTO.as_nanos() as f64 / 1e9;
/// Maximum RTO after backoff, seconds.
const MAX_RTO_S: f64 = 60.0;
/// Initial RTO before any RTT sample, seconds.
const INITIAL_RTO_S: f64 = 1.0;
/// Initial congestion window, packets.
const INITIAL_CWND: f64 = 2.0;

/// Aggregate sender-side statistics (warm-up markable).
#[derive(Debug, Default)]
pub struct TcpStats {
    /// Retransmitted packets.
    pub retransmits: Counter,
    /// Timeouts taken.
    pub timeouts: Counter,
    /// Fast retransmits taken.
    pub fast_retransmits: Counter,
    /// Unique data acked (delivered), packets.
    pub acked: Counter,
    /// Timer events of an unknown kind (counted and ignored).
    pub stray_timers: Counter,
}

impl TcpStats {
    /// Snapshot all counters.
    pub fn mark_all(&mut self) {
        self.retransmits.mark();
        self.timeouts.mark();
        self.fast_retransmits.mark();
        self.acked.mark();
        self.stray_timers.mark();
    }
}

struct TcpFlow {
    cwnd: f64,
    ssthresh: f64,
    /// Next new sequence to send.
    next_seq: u64,
    /// Oldest unacknowledged sequence.
    snd_una: u64,
    dupacks: u32,
    in_recovery: bool,
    srtt: Option<f64>,
    rttvar: f64,
    rto_s: f64,
    backoff: f64,
    /// Outstanding RTT measurement: (sequence, send time).
    timing: Option<(u64, SimTime)>,
    /// Current RTO deadline.
    rto_deadline: Option<SimTime>,
    /// Deadlines no timer stands at, each with the ticket of the first
    /// arm that set it, kept while an arm could still set it (again, with
    /// a smaller RTO): the current deadline's and a few earlier ones.
    rto_tickets: Vec<(SimTime, Ticket)>,
    /// The flow's one pending RTO timer: when it is due, and whether it
    /// stands at the deadline with that deadline's ticket (`false`: a
    /// waypoint that moves on).
    rto_timer: Option<(SimTime, bool)>,
}

impl TcpFlow {
    fn new() -> Self {
        TcpFlow {
            cwnd: INITIAL_CWND,
            ssthresh: 1e9,
            next_seq: 0,
            snd_una: 0,
            dupacks: 0,
            in_recovery: false,
            srtt: None,
            rttvar: 0.0,
            rto_s: INITIAL_RTO_S,
            backoff: 1.0,
            timing: None,
            rto_deadline: None,
            rto_tickets: Vec::new(),
            rto_timer: None,
        }
    }

    fn flight(&self) -> f64 {
        self.next_seq.saturating_sub(self.snd_una) as f64
    }

    fn update_rtt(&mut self, sample_s: f64) {
        match self.srtt {
            None => {
                self.srtt = Some(sample_s);
                self.rttvar = sample_s / 2.0;
            }
            Some(srtt) => {
                let err = sample_s - srtt;
                self.srtt = Some(srtt + 0.125 * err);
                self.rttvar += 0.25 * (err.abs() - self.rttvar);
            }
        }
        self.rto_s = (self.srtt.expect("just set") + 4.0 * self.rttvar).max(MIN_RTO_S);
        self.backoff = 1.0;
    }

    fn effective_rto(&self) -> SimDuration {
        SimDuration::from_secs_f64((self.rto_s * self.backoff).min(MAX_RTO_S))
    }

    /// Keep `ticket` for `deadline` unless an earlier arm's is kept.
    fn hold_ticket(&mut self, deadline: SimTime, ticket: Ticket, now: SimTime) {
        // An arm sets a deadline at least the minimum RTO after itself,
        // so a deadline sooner than that from now cannot come back.
        let reach = now + MIN_RTO;
        self.rto_tickets.retain(|(at, _)| *at >= reach);
        if !self.rto_tickets.iter().any(|(at, _)| *at == deadline) {
            self.rto_tickets.push((deadline, ticket));
        }
    }

    /// Schedule the RTO timer toward the deadline: at the deadline in its
    /// first arm's place in line if that is at most the minimum RTO away,
    /// else at a waypoint the minimum RTO from now. Every deadline an arm
    /// sets is at least the minimum RTO after that arm, so no later
    /// deadline comes before this timer: it never needs a second one.
    fn schedule_rto(&mut self, id: u64, api: &mut Api) {
        let deadline = self.rto_deadline.expect("an armed flow");
        let waypoint = api.now() + MIN_RTO;
        if deadline <= waypoint {
            let i = self.rto_tickets.iter().position(|(at, _)| *at == deadline);
            let (_, ticket) = self.rto_tickets.swap_remove(i.expect("a ticket for the deadline"));
            api.timer_ticket(deadline, ticket, timer::RTO, id);
            self.rto_timer = Some((deadline, true));
        } else {
            api.timer_at(waypoint, timer::RTO, id);
            self.rto_timer = Some((waypoint, false));
        }
    }
}

/// A bank of long-lived Reno senders at one node, all transmitting to
/// `peer`. Flow ids are `flow_base + i`.
pub struct TcpSenderBank {
    peer: NodeId,
    flow_base: u64,
    nflows: usize,
    pkt_bytes: u32,
    start_at: SimTime,
    flows: IdMap<u64, TcpFlow>,
    /// Aggregate statistics.
    pub stats: TcpStats,
}

impl TcpSenderBank {
    /// `nflows` infinite-backlog senders of `pkt_bytes`-byte segments to
    /// `peer`, starting at `start_at`. `flow_base` must leave the flow-id
    /// space of other agents untouched.
    pub fn new(
        peer: NodeId,
        nflows: usize,
        pkt_bytes: u32,
        flow_base: u64,
        start_at: SimTime,
    ) -> Self {
        assert!(nflows > 0 && pkt_bytes > ACK_BYTES);
        TcpSenderBank {
            peer,
            flow_base,
            nflows,
            pkt_bytes,
            start_at,
            flows: IdMap::default(),
            stats: TcpStats::default(),
        }
    }

    /// Current congestion window of flow index `i` (for tests).
    pub fn cwnd(&self, i: usize) -> f64 {
        self.flows
            .get(&(self.flow_base + i as u64))
            .map(|f| f.cwnd)
            .unwrap_or(0.0)
    }

    fn send_segment(&mut self, id: u64, seq: u64, retransmit: bool, api: &mut Api) {
        let now = api.now();
        let pkt = Packet::new(
            seq,
            FlowId(id),
            api.node,
            self.peer,
            self.pkt_bytes,
            TrafficClass::BestEffort,
            seq,
            now,
        );
        if retransmit {
            self.stats.retransmits.inc();
        }
        let flow = self.flows.get_mut(&id).expect("flow exists");
        if !retransmit && flow.timing.is_none() {
            flow.timing = Some((seq, now));
        }
        api.send(pkt);
    }

    /// Move the flow's RTO deadline to one RTO from now.
    ///
    /// Every arm takes a ticket, as a timer scheduled on every arm once
    /// did, and the first arm that sets a deadline keeps its ticket for
    /// the timer that fires there. So the timeout fires in the place in
    /// line that first arm's own timer had, and every other event keeps
    /// its place; only the timers an ACK made stale are gone. The flow's
    /// one timer moves on to the deadline when it pops before it.
    fn arm_rto(&mut self, id: u64, api: &mut Api) {
        let ticket = api.ticket();
        let now = api.now();
        let flow = self.flows.get_mut(&id).expect("flow exists");
        let deadline = now + flow.effective_rto();
        flow.rto_deadline = Some(deadline);
        debug_assert!(flow.rto_timer.is_none_or(|(t, _)| t <= deadline));
        if flow.rto_timer == Some((deadline, true)) {
            return; // it already stands there, with an older ticket
        }
        flow.hold_ticket(deadline, ticket, now);
        if flow.rto_timer.is_none() {
            flow.schedule_rto(id, api);
        }
    }

    /// Send as much new data as the window allows.
    fn pump(&mut self, id: u64, api: &mut Api) {
        loop {
            let flow = self.flows.get(&id).expect("flow exists");
            let window = flow.cwnd.floor().max(1.0);
            if flow.flight() >= window {
                break;
            }
            let seq = flow.next_seq;
            self.flows.get_mut(&id).expect("flow exists").next_seq += 1;
            self.send_segment(id, seq, false, api);
        }
    }

    fn on_ack(&mut self, id: u64, ackno: u64, api: &mut Api) {
        let Some(flow) = self.flows.get_mut(&id) else {
            return;
        };
        if ackno > flow.snd_una {
            // New data acknowledged.
            let newly = ackno - flow.snd_una;
            flow.snd_una = ackno;
            // After a go-back-N timeout the cumulative ACK can jump past
            // next_seq (the receiver had buffered beyond the hole).
            flow.next_seq = flow.next_seq.max(ackno);
            flow.dupacks = 0;
            if let Some((tseq, tsent)) = flow.timing {
                if ackno > tseq {
                    let sample = api.now().since(tsent).as_secs_f64();
                    flow.update_rtt(sample);
                    flow.timing = None;
                }
            }
            if flow.in_recovery {
                // Plain Reno: leave fast recovery on the first new ACK,
                // deflating the window back to ssthresh.
                flow.in_recovery = false;
                flow.cwnd = flow.ssthresh;
            } else if flow.cwnd < flow.ssthresh {
                flow.cwnd += newly as f64; // slow start
            } else {
                flow.cwnd += newly as f64 / flow.cwnd; // congestion avoidance
            }
            self.stats.acked.add(newly);
            self.arm_rto(id, api);
            self.pump(id, api);
        } else if ackno == flow.snd_una {
            flow.dupacks += 1;
            if flow.in_recovery {
                // Window inflation per duplicate ACK.
                flow.cwnd += 1.0;
                self.pump(id, api);
            } else if flow.dupacks == 3 {
                // Fast retransmit + fast recovery.
                flow.ssthresh = (flow.flight() / 2.0).max(2.0);
                flow.cwnd = flow.ssthresh + 3.0;
                flow.in_recovery = true;
                let seq = flow.snd_una;
                self.stats.fast_retransmits.inc();
                self.send_segment(id, seq, true, api);
                self.arm_rto(id, api);
            }
        }
        // ackno < snd_una: stale ACK, ignore.
    }

    fn on_rto(&mut self, id: u64, api: &mut Api) {
        let now = api.now();
        let Some(flow) = self.flows.get_mut(&id) else {
            return;
        };
        let (at, at_deadline) = flow.rto_timer.take().expect("one RTO timer per flow");
        debug_assert_eq!(at, now);
        let Some(deadline) = flow.rto_deadline else {
            return;
        };
        if deadline > now || !at_deadline {
            // Rearmed since this timer was scheduled, or a waypoint.
            flow.schedule_rto(id, api);
            return;
        }
        if flow.flight() <= 0.0 {
            flow.rto_deadline = None;
            return;
        }
        // Timeout: multiplicative backoff, collapse to one segment,
        // go-back-N from the oldest unacked byte.
        flow.ssthresh = (flow.flight() / 2.0).max(2.0);
        flow.cwnd = 1.0;
        flow.dupacks = 0;
        flow.in_recovery = false;
        flow.backoff = (flow.backoff * 2.0).min(64.0);
        flow.timing = None;
        flow.next_seq = flow.snd_una + 1;
        let seq = flow.snd_una;
        self.stats.timeouts.inc();
        self.send_segment(id, seq, true, api);
        self.arm_rto(id, api);
    }
}

impl Agent for TcpSenderBank {
    fn on_start(&mut self, api: &mut Api) {
        for i in 0..self.nflows {
            let id = self.flow_base + i as u64;
            self.flows.insert(id, TcpFlow::new());
            // Stagger starts by one segment transmission to avoid phase
            // locking of initial windows.
            let jitter = SimDuration::from_micros(137 * i as u64);
            let at = self.start_at.max(api.now()) + jitter;
            api.timer_at(at, timer::START, id);
        }
    }

    fn on_packet(&mut self, pkt: Packet, api: &mut Api) {
        // Only ACKs arrive here.
        self.on_ack(pkt.flow.0, pkt.seq, api);
    }

    fn on_timer(&mut self, kind: u32, data: u64, api: &mut Api) {
        match kind {
            timer::START => {
                self.pump(data, api);
                self.arm_rto(data, api);
            }
            timer::RTO => self.on_rto(data, api),
            // Count and ignore unknown timer kinds rather than aborting
            // the whole run over a wiring bug elsewhere.
            _ => self.stats.stray_timers.inc(),
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

struct SinkFlow {
    rcv_next: u64,
    ooo: BTreeSet<u64>,
}

/// Receiver bank: generates a cumulative ACK for every data segment.
pub struct TcpSinkBank {
    flows: IdMap<u64, SinkFlow>,
    /// Data bytes received in order (goodput accounting).
    pub goodput_bytes: Counter,
    /// Segments received (any order).
    pub segments: Counter,
}

impl TcpSinkBank {
    /// An empty receiver bank (flows materialise on first segment).
    pub fn new() -> Self {
        TcpSinkBank {
            flows: IdMap::default(),
            goodput_bytes: Counter::new(),
            segments: Counter::new(),
        }
    }
}

impl Default for TcpSinkBank {
    fn default() -> Self {
        Self::new()
    }
}

impl Agent for TcpSinkBank {
    fn on_packet(&mut self, pkt: Packet, api: &mut Api) {
        let flow = self.flows.entry(pkt.flow.0).or_insert(SinkFlow {
            rcv_next: 0,
            ooo: BTreeSet::new(),
        });
        self.segments.inc();
        let size = pkt.size as u64;
        if pkt.seq == flow.rcv_next {
            flow.rcv_next += 1;
            self.goodput_bytes.add(size);
            // Drain any buffered continuation.
            while flow.ooo.remove(&flow.rcv_next) {
                flow.rcv_next += 1;
                self.goodput_bytes.add(size);
            }
        } else if pkt.seq > flow.rcv_next {
            flow.ooo.insert(pkt.seq);
        }
        // Cumulative ACK for every arriving segment (no delayed ACKs).
        let ack = Packet::new(
            flow.rcv_next,
            pkt.flow,
            api.node,
            pkt.src,
            ACK_BYTES,
            TrafficClass::BestEffort,
            flow.rcv_next,
            api.now(),
        );
        api.send(ack);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{DropTail, Event, Limit, Network, Qdisc, Sim};

    fn dumbbell(bottleneck_bps: u64, buffer: usize) -> (Sim, NodeId, NodeId) {
        let mut net = Network::new();
        let a = net.add_node();
        let b = net.add_node();
        let q: Box<dyn Qdisc> = Box::new(DropTail::new(Limit::Packets(buffer)));
        net.add_link(a, b, bottleneck_bps, SimDuration::from_millis(10), q, None);
        net.add_link(
            b,
            a,
            100_000_000,
            SimDuration::from_millis(10),
            Box::new(DropTail::new(Limit::Packets(10_000))),
            None,
        );
        (Sim::new(net), a, b)
    }

    #[test]
    fn single_flow_fills_the_pipe() {
        let (mut sim, a, b) = dumbbell(1_000_000, 50);
        sim.attach(
            a,
            Box::new(TcpSenderBank::new(b, 1, 1000, 1 << 48, SimTime::ZERO)),
        );
        sim.attach(b, Box::new(TcpSinkBank::new()));
        sim.run_until(SimTime::from_secs(30));
        let sink = sim.agent::<TcpSinkBank>(b).unwrap();
        let goodput = sink.goodput_bytes.total() as f64 * 8.0 / 30.0;
        // A single Reno flow should achieve most of 1 Mbps.
        assert!(goodput > 800_000.0, "goodput {goodput}");
        assert!(goodput <= 1_050_000.0, "goodput {goodput}");
    }

    #[test]
    fn loss_triggers_fast_retransmit_not_only_timeouts() {
        // Small buffer forces periodic drops.
        let (mut sim, a, b) = dumbbell(1_000_000, 10);
        sim.attach(
            a,
            Box::new(TcpSenderBank::new(b, 1, 1000, 1 << 48, SimTime::ZERO)),
        );
        sim.attach(b, Box::new(TcpSinkBank::new()));
        sim.run_until(SimTime::from_secs(60));
        let s = sim.agent::<TcpSenderBank>(a).unwrap();
        assert!(s.stats.retransmits.total() > 0, "no losses induced");
        assert!(
            s.stats.fast_retransmits.total() > s.stats.timeouts.total(),
            "fast retransmits {} vs timeouts {}",
            s.stats.fast_retransmits.total(),
            s.stats.timeouts.total()
        );
    }

    #[test]
    fn no_data_is_lost_end_to_end() {
        let (mut sim, a, b) = dumbbell(500_000, 8);
        sim.attach(
            a,
            Box::new(TcpSenderBank::new(b, 2, 1000, 1 << 48, SimTime::ZERO)),
        );
        sim.attach(b, Box::new(TcpSinkBank::new()));
        sim.run_until(SimTime::from_secs(40));
        // Reliable delivery: unique acked data never exceeds unique sent,
        // and the sink's in-order stream advanced substantially.
        let acked = {
            let s = sim.agent::<TcpSenderBank>(a).unwrap();
            s.stats.acked.total()
        };
        let sink = sim.agent::<TcpSinkBank>(b).unwrap();
        let delivered = sink.goodput_bytes.total() / 1000;
        assert!(acked > 500, "acked {acked}");
        // Everything acked was genuinely delivered in order.
        assert!(delivered >= acked, "delivered {delivered} < acked {acked}");
    }

    #[test]
    fn two_flows_share_roughly_fairly() {
        let (mut sim, a, b) = dumbbell(2_000_000, 40);
        sim.attach(
            a,
            Box::new(TcpSenderBank::new(b, 2, 1000, 1 << 48, SimTime::ZERO)),
        );
        sim.attach(b, Box::new(TcpSinkBank::new()));
        sim.run_until(SimTime::from_secs(120));
        let sink = sim.agent::<TcpSinkBank>(b).unwrap();
        // Both flows progressed: per-flow receive state exists and both
        // advanced far.
        let mins: Vec<u64> = sink.flows.values().map(|f| f.rcv_next).collect();
        assert_eq!(mins.len(), 2);
        let (lo, hi) = (*mins.iter().min().unwrap(), *mins.iter().max().unwrap());
        assert!(lo > 1000, "slow flow only {lo}");
        // Same-RTT Reno flows should be within ~3x of each other long-run.
        assert!(hi < lo * 3, "unfair split {lo} vs {hi}");
    }

    #[test]
    fn cwnd_grows_in_slow_start_without_loss() {
        let (mut sim, a, b) = dumbbell(100_000_000, 10_000);
        sim.attach(
            a,
            Box::new(TcpSenderBank::new(b, 1, 1000, 1 << 48, SimTime::ZERO)),
        );
        sim.attach(b, Box::new(TcpSinkBank::new()));
        sim.run_until(SimTime::from_secs(1));
        let s = sim.agent::<TcpSenderBank>(a).unwrap();
        assert!(s.cwnd(0) > 100.0, "cwnd {}", s.cwnd(0));
    }

    /// The most RTO timers any one flow has in the calendar at once.
    fn most_rto_timers_per_flow(sim: &Sim) -> usize {
        let mut per_flow: IdMap<u64, usize> = IdMap::default();
        for (_, ev) in sim.queue.iter() {
            if let Event::Timer {
                kind: timer::RTO,
                data,
                ..
            } = ev
            {
                *per_flow.entry(*data).or_default() += 1;
            }
        }
        per_flow.values().copied().max().unwrap_or(0)
    }

    #[test]
    fn lossy_dumbbell_keeps_one_rto_timer_per_flow() {
        // Eight flows through a 3-packet buffer at 1 Mb/s take timeouts
        // (with backoff) and fast retransmits. The return path makes the
        // round trip 20 ms to the nanosecond (10 ms + 9.9968 ms + 3.2 µs
        // for a 40 B ACK at 100 Mb/s), so a deadline an ACK sets, 0.52 s
        // after the segment left, is 65 transmissions of 8 ms: it ties
        // with a bottleneck completion, and only the ticket puts the
        // timeout on the right side of it.
        let mut net = Network::new();
        let (a, b) = (net.add_node(), net.add_node());
        let q: Box<dyn Qdisc> = Box::new(DropTail::new(Limit::Packets(3)));
        net.add_link(a, b, 1_000_000, SimDuration::from_millis(10), q, None);
        net.add_link(
            b,
            a,
            100_000_000,
            SimDuration::from_nanos(9_996_800),
            Box::new(DropTail::new(Limit::Packets(10_000))),
            None,
        );
        let mut sim = Sim::new(net);
        sim.attach(
            a,
            Box::new(TcpSenderBank::new(b, 8, 1000, 1 << 48, SimTime::ZERO)),
        );
        sim.attach(b, Box::new(TcpSinkBank::new()));
        // Step one instant at a time: no flow ever has two RTO timers in
        // the calendar. A timer per arm left up to 57 there.
        let horizon = SimTime::from_secs(60);
        sim.run_until(SimTime::ZERO);
        while let Some(t) = sim.queue.peek_time().filter(|&t| t <= horizon) {
            sim.run_until(t);
            let most = most_rto_timers_per_flow(&sim);
            assert!(most <= 1, "{most} RTO timers for one flow at {t}");
        }
        // The run a timer per arm gave: the same losses, recoveries and
        // goodput, to the packet.
        let s = &sim.agent::<TcpSenderBank>(a).unwrap().stats;
        let stats = [
            s.retransmits.total(),
            s.timeouts.total(),
            s.fast_retransmits.total(),
            s.acked.total(),
            s.stray_timers.total(),
        ];
        assert_eq!(stats, [736, 512, 224, 6_185, 0]);
        let goodput = sim.agent::<TcpSinkBank>(b).unwrap().goodput_bytes.total();
        assert_eq!(goodput, 6_186_000);
    }
}
