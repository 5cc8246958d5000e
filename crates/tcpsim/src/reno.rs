//! TCP Reno senders and receivers as netsim agents.

use netsim::{Agent, Api, FlowId, NodeId, Packet, TrafficClass};
use simcore::stats::Counter;
use simcore::{IdMap, SimDuration, SimTime};
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
/// Minimum RTO, seconds.
const MIN_RTO_S: f64 = 0.5;
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
    /// Current RTO deadline; timers earlier than this are stale.
    rto_deadline: Option<SimTime>,
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

    fn arm_rto(&mut self, id: u64, api: &mut Api) {
        let flow = self.flows.get_mut(&id).expect("flow exists");
        let deadline = api.now() + flow.effective_rto();
        flow.rto_deadline = Some(deadline);
        api.timer_at(deadline, timer::RTO, id);
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
        // Stale timer (rearmed since it was scheduled)?
        match flow.rto_deadline {
            Some(d) if d <= now => {}
            _ => return,
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
    use netsim::{DropTail, Limit, Network, Qdisc, Sim};

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
}
