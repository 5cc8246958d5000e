//! The receiving host: probe accounting and the admission verdict.
//!
//! "At the end of the probing interval, the loss percentage is computed
//! and the admission decision is made; the receiving host records the
//! losses and communicates the acceptance/rejection decision to the
//! sending host." (§3.1)
//!
//! The sink counts each flow's probe packets (and ECN marks) per stage.
//! When the sender's stage-end report arrives, the sink waits one *grace
//! period* (enough for in-flight probes of that stage to drain — the
//! report travels in the higher-priority control band and would otherwise
//! overtake them) and then compares the stage's congestion fraction with
//! the flow's ε: over threshold → `Reject` now; final stage passed →
//! `Accept`. The in-flight abort rule of simple probing rejects as soon
//! as the whole-probe loss budget is provably blown.

use crate::msg::{decode_data_aux, decode_probe_aux, Msg};
use crate::probe::{congestion_fraction, Signal};
use netsim::{Agent, Api, FlowId, NodeId, Packet, TrafficClass};
use simcore::stats::Counter;
use simcore::{IdMap, SimDuration};
use std::any::Any;
use telemetry::LogHistogram;

/// Timer kinds used by the sink.
pub mod timer {
    /// Evaluate stage `data >> 56` of flow `data & MASK`.
    pub const EVAL: u32 = 10;
    /// Garbage-collect the flow record `data`.
    pub const GC: u32 = 11;
}

const FLOW_MASK: u64 = (1 << 56) - 1;
/// Maximum stages any probe plan may have (array bound).
pub const MAX_STAGES: usize = 8;

/// Sink configuration.
pub struct SinkConfig {
    /// Congestion signal the verdict uses.
    pub signal: Signal,
    /// Effective ε per group index.
    pub eps_per_group: Vec<f64>,
    /// How long after a stage-end report to wait before judging the stage
    /// (bounds the queueing delay of in-flight probes).
    pub grace: SimDuration,
    /// Upper bound on the life of an *undecided* flow record. When probes
    /// or control packets are lost, a flow may never reach a verdict; its
    /// record is reclaimed after this TTL (counted in
    /// [`SinkStats::expired`]) so sink state stays bounded. Must exceed
    /// the longest probe duration plus grace.
    pub flow_ttl: SimDuration,
}

/// Per-group and aggregate receiver statistics.
#[derive(Debug)]
pub struct SinkStats {
    /// Data packets received, per group.
    pub data_received: Vec<Counter>,
    /// End-to-end delay of delivered data packets, log-bucketed in
    /// nanoseconds (quantiles for the report's delay summary). The paper
    /// argues Controlled-Load delays stay small because the
    /// admission-controlled queue is bounded; this lets reports verify
    /// that claim.
    pub data_delay_hist: LogHistogram,
    /// Undecided flow records reclaimed by the TTL garbage collector.
    pub expired: Counter,
    /// Timer events of an unknown kind (counted and ignored).
    pub stray_timers: Counter,
}

impl SinkStats {
    fn new(groups: usize) -> Self {
        SinkStats {
            data_received: (0..groups).map(|_| Counter::new()).collect(),
            data_delay_hist: LogHistogram::new(),
            expired: Counter::new(),
            stray_timers: Counter::new(),
        }
    }

    /// Snapshot all counters (end of warm-up).
    pub fn mark_all(&mut self) {
        for c in self.data_received.iter_mut() {
            c.mark();
        }
        self.expired.mark();
        self.stray_timers.mark();
        self.data_delay_hist.reset();
    }
}

struct SinkFlow {
    host: NodeId,
    eps: f64,
    expected_total: u32,
    abort: bool,
    decided: bool,
    received_total: u32,
    marked_total: u32,
    /// Highest probe sequence number seen + 1 (lower bound on sent count).
    max_seq_plus1: u64,
    stage_received: [u32; MAX_STAGES],
    stage_marked: [u32; MAX_STAGES],
    stage_sent: [u32; MAX_STAGES],
    final_stage: Option<u8>,
}

impl SinkFlow {
    fn new(host: NodeId, eps: f64) -> Self {
        SinkFlow {
            host,
            eps,
            expected_total: 0,
            abort: false,
            decided: false,
            received_total: 0,
            marked_total: 0,
            max_seq_plus1: 0,
            stage_received: [0; MAX_STAGES],
            stage_marked: [0; MAX_STAGES],
            stage_sent: [0; MAX_STAGES],
            final_stage: None,
        }
    }
}

/// The receiving-host agent.
pub struct SinkAgent {
    cfg: SinkConfig,
    flows: IdMap<u64, SinkFlow>,
    /// Statistics (readable after the run via `Sim::agent`).
    pub stats: SinkStats,
}

impl SinkAgent {
    /// Build a sink for the given configuration.
    pub fn new(cfg: SinkConfig) -> Self {
        let n = cfg.eps_per_group.len();
        SinkAgent {
            cfg,
            flows: IdMap::default(),
            stats: SinkStats::new(n),
        }
    }

    fn eps_of(&self, group: u8) -> f64 {
        *self.cfg.eps_per_group.get(group as usize).unwrap_or(&0.0)
    }

    /// Flow records still awaiting a verdict right now. Bounded by the
    /// TTL garbage collector even when control packets are lost.
    pub fn undecided_flows(&self) -> usize {
        self.flows.values().filter(|f| !f.decided).count()
    }

    /// Create the record for `id` if absent, arming its TTL reclaim timer
    /// so an abandoned (never-decided) flow cannot leak state forever.
    fn ensure_flow(&mut self, id: u64, host: NodeId, eps: f64, api: &mut Api) {
        if let std::collections::hash_map::Entry::Vacant(e) = self.flows.entry(id) {
            e.insert(SinkFlow::new(host, eps));
            api.timer_in(self.cfg.flow_ttl, timer::GC, id);
        }
    }

    fn verdict(&mut self, flow_id: u64, accept: bool, api: &mut Api) {
        let flow = self
            .flows
            .get_mut(&flow_id)
            .expect("verdict for unknown flow");
        flow.decided = true;
        let msg = if accept { Msg::Accept } else { Msg::Reject };
        let pkt = Packet::new(
            0,
            FlowId(flow_id),
            api.node,
            flow.host,
            crate::host::CONTROL_PKT_BYTES,
            TrafficClass::Control,
            0,
            api.now(),
        )
        .with_aux(msg.encode());
        api.send(pkt);
        // Keep the record briefly so in-flight probes don't resurrect it.
        api.timer_in(SimDuration::from_secs(30), timer::GC, flow_id);
    }

    fn on_probe(&mut self, pkt: Packet, api: &mut Api) {
        let (stage, group) = decode_probe_aux(pkt.aux);
        let eps = self.eps_of(group);
        self.ensure_flow(pkt.flow.0, pkt.src, eps, api);
        let flow = self.flows.get_mut(&pkt.flow.0).expect("just ensured");
        if flow.decided {
            return;
        }
        let s = (stage as usize).min(MAX_STAGES - 1);
        flow.stage_received[s] += 1;
        flow.received_total += 1;
        if pkt.marked {
            flow.stage_marked[s] += 1;
            flow.marked_total += 1;
        }
        flow.max_seq_plus1 = flow.max_seq_plus1.max(pkt.seq + 1);

        // In-flight abort (simple probing): reject as soon as the whole
        // probe's loss budget is provably exhausted.
        if flow.abort && flow.expected_total > 0 {
            let lost = flow
                .max_seq_plus1
                .saturating_sub(flow.received_total as u64) as u32;
            let events = match self.cfg.signal {
                Signal::Drop => lost,
                Signal::Mark => lost + flow.marked_total,
            };
            let budget = flow.eps * flow.expected_total as f64;
            if events as f64 > budget {
                self.verdict(pkt.flow.0, false, api);
            }
        }
    }

    fn on_control(&mut self, pkt: Packet, api: &mut Api) {
        match Msg::decode(pkt.aux) {
            Some(Msg::ProbeStart {
                group,
                expected,
                abort,
            }) => {
                let eps = self.eps_of(group);
                self.ensure_flow(pkt.flow.0, pkt.src, eps, api);
                let flow = self.flows.get_mut(&pkt.flow.0).expect("just ensured");
                flow.host = pkt.src;
                flow.eps = eps;
                flow.expected_total = expected;
                flow.abort = abort;
            }
            Some(Msg::StageEnd {
                stage,
                sent,
                is_final,
            }) => {
                if let Some(flow) = self.flows.get_mut(&pkt.flow.0) {
                    let s = (stage as usize).min(MAX_STAGES - 1);
                    flow.stage_sent[s] = sent;
                    if is_final {
                        flow.final_stage = Some(stage);
                    }
                    // Judge after the grace period so in-flight probes of
                    // this stage (travelling in a lower band) can land.
                    let data = ((stage as u64) << 56) | (pkt.flow.0 & FLOW_MASK);
                    api.timer_in(self.cfg.grace, timer::EVAL, data);
                }
            }
            _ => {}
        }
    }

    fn on_eval(&mut self, data: u64, api: &mut Api) {
        let flow_id = data & FLOW_MASK;
        let stage = (data >> 56) as u8;
        let Some(flow) = self.flows.get(&flow_id) else {
            return;
        };
        if flow.decided {
            return;
        }
        let s = (stage as usize).min(MAX_STAGES - 1);
        let frac = congestion_fraction(
            self.cfg.signal,
            flow.stage_sent[s],
            flow.stage_received[s],
            flow.stage_marked[s],
        );
        if frac > flow.eps {
            self.verdict(flow_id, false, api);
        } else if flow.final_stage == Some(stage) {
            self.verdict(flow_id, true, api);
        }
    }
}

impl Agent for SinkAgent {
    fn on_packet(&mut self, pkt: Packet, api: &mut Api) {
        match pkt.class {
            TrafficClass::Data => {
                // Only packets the sender tagged as in-window count, so the
                // sent/received identity is exact after the drain period.
                let (g, in_window) = decode_data_aux(pkt.aux);
                let g = g as usize;
                if in_window && g < self.stats.data_received.len() {
                    self.stats.data_received[g].inc();
                    let delay_ns = api.now().since(pkt.created).as_nanos();
                    self.stats.data_delay_hist.record(delay_ns);
                    if let Some(tel) = api.net.telemetry.as_deref_mut() {
                        tel.metrics.observe("sink.delay_ns", delay_ns);
                    }
                }
            }
            TrafficClass::Probe => self.on_probe(pkt, api),
            TrafficClass::Control => self.on_control(pkt, api),
            TrafficClass::BestEffort => {}
        }
    }

    fn on_timer(&mut self, kind: u32, data: u64, api: &mut Api) {
        match kind {
            timer::EVAL => self.on_eval(data, api),
            timer::GC => {
                // Fired either 30 s after a verdict (drop the decided
                // record once stragglers drained) or at the creation TTL.
                // Reclaiming an undecided record means the flow never got
                // a verdict — that's the `expired` leak-pressure signal.
                if let Some(f) = self.flows.remove(&data) {
                    if !f.decided {
                        self.stats.expired.inc();
                    }
                }
            }
            // Count and ignore unknown timer kinds; aborting a long run
            // over a stray timer helps nobody.
            _ => self.stats.stray_timers.inc(),
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// A time-stamped helper: the grace period a scenario should configure —
/// worst-case drain time of `buffer_bytes` at `link_bps`, doubled, plus
/// the propagation delay.
pub fn stage_grace(buffer_bytes: u64, link_bps: u64, prop: SimDuration) -> SimDuration {
    let drain = SimDuration::from_secs_f64(buffer_bytes as f64 * 8.0 / link_bps as f64);
    drain * 2 + prop
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grace_math() {
        // 200 × 125 B = 25 kB at 10 Mbps: drain 20 ms, ×2 + 20 ms prop = 60 ms.
        let g = stage_grace(25_000, 10_000_000, SimDuration::from_millis(20));
        assert_eq!(g, SimDuration::from_millis(60));
    }

    #[test]
    fn flow_mask_covers_host_flow_ids() {
        // Host flow ids are node << 32 | counter; nodes are u32 but in
        // practice < 2^20, so ids stay below 2^56.
        let id = (1_000_000u64 << 32) | 0xFFFF_FFFF;
        assert_eq!(id & FLOW_MASK, id);
    }
}
