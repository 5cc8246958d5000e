//! The sending host: flow arrivals, probing, and data transmission.
//!
//! One [`HostAgent`] banks every flow originating at its node (avoiding
//! per-flow agent churn). For each flow it runs the sender half of the
//! probing protocol — emit probe packets per the [`ProbePlan`], announce
//! stage boundaries, await the receiver's verdict — and, once admitted,
//! drives the flow's [`PacketProcess`] through its token-bucket policer
//! until the flow's lifetime expires.
//!
//! Under [`Design::Mbac`] probing is skipped entirely: the arrival event
//! consults the Measured Sum registry on the network blackboard
//! (idealised, serialised signalling — exactly the property §2.2.3
//! credits router-based admission with).

use crate::design::{Design, Group};
use crate::mbac::MbacRegistry;
use crate::msg::{data_aux, probe_aux, Msg};
use crate::probe::ProbePlan;
use netsim::{Agent, Api, FlowId, LinkId, NodeId, Packet, TrafficClass};
use simcore::stats::Counter;
use simcore::{IdMap, SimDuration, SimRng, SimTime};
use std::any::Any;
use traffic::{Demography, PacketProcess, Policer};

/// Timer kinds used by the host.
pub mod timer {
    /// Next flow arrival.
    pub const ARRIVAL: u32 = 1;
    /// Emit the next probe packet of flow `data`.
    pub const PROBE: u32 = 2;
    /// Emit the next data packet of flow `data`.
    pub const DATA: u32 = 3;
    /// Flow `data` reached the end of its lifetime.
    pub const END: u32 = 4;
    /// Retry a rejected flow (`data` = group | attempt << 32).
    pub const RETRY: u32 = 5;
    /// The verdict for flow `data` never arrived (lost control packet).
    pub const VERDICT: u32 = 6;
}

/// Retry policy for rejected flows (footnote 10 of the paper: "rejected
/// flows should use exponential back-off before retrying ... we do not
/// explore the issue of retrying flows here" — we do, as an extension).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum retry attempts after the first rejection.
    pub max_attempts: u32,
    /// First back-off; doubles per attempt.
    pub base_backoff: SimDuration,
    /// Back-off ceiling: doubling saturates here instead of growing (and
    /// overflowing) without bound.
    pub max_backoff: SimDuration,
}

/// Size of control packets, bytes.
pub const CONTROL_PKT_BYTES: u32 = 40;

/// Host configuration.
pub struct HostConfig {
    /// Where this host's flows terminate.
    pub sink: NodeId,
    /// The admission-control design in force.
    pub design: Design,
    /// Flow populations (weighted).
    pub groups: Vec<Group>,
    /// Flow arrival/lifetime statistics.
    pub demography: Demography,
    /// Total probing time (5 s default, 25 s in Fig 3).
    pub probe_total: SimDuration,
    /// Links consulted for MBAC admission (empty for endpoint designs).
    pub mbac_path: Vec<LinkId>,
    /// Stop generating new flows at this time (statistics tails stay clean).
    pub stop_arrivals_at: SimTime,
    /// Hold off the first flow arrival until this time (the coexistence
    /// experiment starts TCP 50 s before admission-controlled traffic).
    pub start_arrivals_at: SimTime,
    /// Rejected-flow retry with exponential back-off (None = the paper's
    /// default of no retries).
    pub retry: Option<RetryPolicy>,
    /// How long after the last probe to wait for the sink's verdict
    /// before treating the flow as rejected (a lost `Accept`/`Reject`
    /// control packet must not block the flow forever). `None` = wait
    /// forever (the paper's lossless-control idealisation).
    pub verdict_timeout: Option<SimDuration>,
    /// Measurement window: only events in `[measure_start, measure_end)`
    /// are counted, and data packets are tagged so the sink applies the
    /// same window — making sent/received loss accounting exact once the
    /// network drains.
    pub measure_start: SimTime,
    /// End of the measurement window.
    pub measure_end: SimTime,
}

/// Per-group and aggregate host-side statistics. All counters support
/// warm-up marking.
#[derive(Debug)]
pub struct HostStats {
    /// Flows whose admission decision concluded, per group.
    pub decided: Vec<Counter>,
    /// Flows accepted, per group.
    pub accepted: Vec<Counter>,
    /// Flows rejected, per group.
    pub rejected: Vec<Counter>,
    /// Data packets sent, per group.
    pub data_sent: Vec<Counter>,
    /// Flows whose verdict never arrived and timed out into rejection.
    pub timeouts: Counter,
    /// Timer events of an unknown kind (counted and ignored).
    pub stray_timers: Counter,
}

impl HostStats {
    fn new(groups: usize) -> Self {
        let v = |_: ()| (0..groups).map(|_| Counter::new()).collect::<Vec<_>>();
        HostStats {
            decided: v(()),
            accepted: v(()),
            rejected: v(()),
            data_sent: v(()),
            timeouts: Counter::new(),
            stray_timers: Counter::new(),
        }
    }

    /// Snapshot all counters (end of warm-up).
    pub fn mark_all(&mut self) {
        for list in [
            &mut self.decided,
            &mut self.accepted,
            &mut self.rejected,
            &mut self.data_sent,
        ] {
            for c in list.iter_mut() {
                c.mark();
            }
        }
        self.timeouts.mark();
        self.stray_timers.mark();
    }

    /// Blocking probability over all groups since the mark.
    pub fn blocking(&self) -> f64 {
        let dec: u64 = self.decided.iter().map(|c| c.since_mark()).sum();
        let rej: u64 = self.rejected.iter().map(|c| c.since_mark()).sum();
        if dec == 0 {
            0.0
        } else {
            rej as f64 / dec as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Probing,
    AwaitDecision,
    Sending,
}

struct HostFlow {
    group: usize,
    attempt: u32,
    phase: Phase,
    // Probing state.
    plan: ProbePlan,
    stage: usize,
    sent_in_stage: u32,
    stage_pkts: u32,
    spacing: SimDuration,
    seq: u64,
    // Traffic description.
    r_bps: u64,
    pkt_bytes: u32,
    lifetime: SimDuration,
    // Data state (built lazily on accept).
    process: Option<Box<dyn PacketProcess>>,
    policer: Option<Policer>,
    pending_size: u32,
}

/// The sending-host agent.
pub struct HostAgent {
    cfg: HostConfig,
    cum_weights: Vec<f64>,
    rng: SimRng,
    flows: IdMap<u64, HostFlow>,
    next_flow: u64,
    flow_base: u64,
    /// Statistics (readable after the run via `Sim::agent`).
    pub stats: HostStats,
}

impl HostAgent {
    /// Build a host; `rng` should be a derived stream unique to this host.
    pub fn new(cfg: HostConfig, rng: SimRng) -> Self {
        assert!(!cfg.groups.is_empty());
        let mut cum = 0.0;
        let cum_weights: Vec<f64> = cfg
            .groups
            .iter()
            .map(|g| {
                cum += g.weight;
                cum
            })
            .collect();
        let n = cfg.groups.len();
        HostAgent {
            cfg,
            cum_weights,
            rng,
            flows: IdMap::default(),
            next_flow: 0,
            flow_base: 0,
            stats: HostStats::new(n),
        }
    }

    /// Flows stuck waiting for a verdict right now. Nonzero at the end of
    /// a run means lost control packets stranded per-flow state (enable
    /// [`HostConfig::verdict_timeout`] to bound it).
    pub fn stranded_flows(&self) -> usize {
        self.flows
            .values()
            .filter(|f| f.phase == Phase::AwaitDecision)
            .count()
    }

    fn in_window(&self, now: SimTime) -> bool {
        now >= self.cfg.measure_start && now < self.cfg.measure_end
    }

    fn pick_group(&mut self) -> usize {
        let total = *self.cum_weights.last().expect("non-empty groups");
        let x = self.rng.uniform_range(0.0, total);
        self.cum_weights.iter().position(|&c| x < c).unwrap_or(0)
    }

    fn control(&self, flow: u64, api: &Api, msg: Msg) -> Packet {
        Packet::new(
            0,
            FlowId(flow),
            api.node,
            self.cfg.sink,
            CONTROL_PKT_BYTES,
            TrafficClass::Control,
            0,
            api.now(),
        )
        .with_aux(msg.encode())
    }

    fn begin_flow(&mut self, api: &mut Api) {
        let group = self.pick_group();
        self.begin_flow_for(group, 0, api);
    }

    fn begin_flow_for(&mut self, group: usize, attempt: u32, api: &mut Api) {
        let id = self.flow_base | self.next_flow;
        self.next_flow += 1;
        let spec = &self.cfg.groups[group].source;
        let r_bps = spec.token_rate_bps();
        let pkt_bytes = spec.pkt_bytes;
        let lifetime =
            SimDuration::from_secs_f64(self.cfg.demography.sample_lifetime(&mut self.rng));

        match self.cfg.design {
            Design::Mbac { .. } => {
                // Idealised signalling: consult the registry right now.
                let mut bb = api.net.blackboard.take();
                let admitted = bb
                    .as_mut()
                    .and_then(|b| b.downcast_mut::<MbacRegistry>())
                    .map(|reg| reg.admit(&self.cfg.mbac_path, r_bps as f64, api.now()))
                    .unwrap_or_else(|| panic!("MBAC design without registry on blackboard"));
                api.net.blackboard = bb;
                let counted = self.in_window(api.now());
                if counted {
                    self.stats.decided[group].inc();
                }
                let mut flow = HostFlow {
                    group,
                    attempt,
                    phase: Phase::Sending,
                    plan: ProbePlan::new(crate::probe::ProbeStyle::Simple, self.cfg.probe_total),
                    stage: 0,
                    sent_in_stage: 0,
                    stage_pkts: 0,
                    spacing: SimDuration::ZERO,
                    seq: 0,
                    r_bps,
                    pkt_bytes,
                    lifetime,
                    process: None,
                    policer: None,
                    pending_size: 0,
                };
                if admitted {
                    if counted {
                        self.stats.accepted[group].inc();
                    }
                    self.start_sending(&mut flow, id, api);
                    self.flows.insert(id, flow);
                } else {
                    if counted {
                        self.stats.rejected[group].inc();
                    }
                    self.schedule_retry(group, attempt, api);
                }
                self.tel_decision(id, group, admitted, false, api);
            }
            Design::Endpoint { style, .. } => {
                let plan = ProbePlan::new(style, self.cfg.probe_total);
                let stage_pkts = plan.stage_packets(0, r_bps, pkt_bytes);
                let spacing = plan.stage_spacing(0, r_bps, pkt_bytes);
                let expected = plan.total_packets(r_bps, pkt_bytes);
                let abort = plan.in_flight_abort;
                let flow = HostFlow {
                    group,
                    attempt,
                    phase: Phase::Probing,
                    plan,
                    stage: 0,
                    sent_in_stage: 0,
                    stage_pkts,
                    spacing,
                    seq: 0,
                    r_bps,
                    pkt_bytes,
                    lifetime,
                    process: None,
                    policer: None,
                    pending_size: 0,
                };
                self.flows.insert(id, flow);
                let now = api.now();
                if let Some(tel) = api.net.telemetry.as_deref_mut() {
                    tel.metrics.inc("host.probes_started", 1);
                    tel.metrics.add_gauge("flows.probing", 1.0);
                    tel.recorder
                        .record(now, "probe.start", format!("flow {id} group {group}"));
                }
                let start = self.control(
                    id,
                    api,
                    Msg::ProbeStart {
                        group: group as u8,
                        expected,
                        abort,
                    },
                );
                api.send(start);
                // First probe packet goes out immediately.
                api.timer_in(SimDuration::ZERO, timer::PROBE, id);
            }
        }
    }

    fn start_sending(&mut self, flow: &mut HostFlow, id: u64, api: &mut Api) {
        flow.phase = Phase::Sending;
        let spec = &self.cfg.groups[flow.group].source;
        let mut process = spec.build();
        flow.policer = Some(Policer::new(spec.token));
        let (gap, size) = process.next_packet(&mut self.rng);
        flow.pending_size = size;
        flow.process = Some(process);
        api.timer_in(flow.lifetime, timer::END, id);
        api.timer_in(gap, timer::DATA, id);
    }

    fn probe_tick(&mut self, id: u64, api: &mut Api) {
        let Some(flow) = self.flows.get_mut(&id) else {
            return; // rejected mid-probe; stale tick
        };
        if flow.phase != Phase::Probing {
            return;
        }
        let pkt = Packet::new(
            flow.seq,
            FlowId(id),
            api.node,
            self.cfg.sink,
            flow.pkt_bytes,
            TrafficClass::Probe,
            flow.seq,
            api.now(),
        )
        .with_aux(probe_aux(flow.stage as u8, flow.group as u8));
        flow.seq += 1;
        flow.sent_in_stage += 1;
        api.send(pkt);

        if flow.sent_in_stage >= flow.stage_pkts {
            // Stage finished: report and advance.
            let is_final = flow.stage + 1 >= flow.plan.num_stages();
            let msg = Msg::StageEnd {
                stage: flow.stage as u8,
                sent: flow.sent_in_stage,
                is_final,
            };
            if is_final {
                flow.phase = Phase::AwaitDecision;
                // A lost verdict must not strand the flow: resolve as a
                // rejection after the timeout (feeding the back-off path).
                if let Some(timeout) = self.cfg.verdict_timeout {
                    api.timer_in(timeout, timer::VERDICT, id);
                }
            } else {
                flow.stage += 1;
                flow.sent_in_stage = 0;
                flow.stage_pkts = flow
                    .plan
                    .stage_packets(flow.stage, flow.r_bps, flow.pkt_bytes);
                flow.spacing = flow
                    .plan
                    .stage_spacing(flow.stage, flow.r_bps, flow.pkt_bytes);
                let spacing = flow.spacing;
                api.timer_in(spacing, timer::PROBE, id);
            }
            let ctrl = self.control(id, api, msg);
            api.send(ctrl);
        } else {
            let spacing = flow.spacing;
            api.timer_in(spacing, timer::PROBE, id);
        }
    }

    fn data_tick(&mut self, id: u64, api: &mut Api) {
        let Some(flow) = self.flows.get_mut(&id) else {
            return; // flow ended; stale tick
        };
        if flow.phase != Phase::Sending {
            return;
        }
        let size = flow.pending_size;
        let now = api.now();
        let in_window = now >= self.cfg.measure_start && now < self.cfg.measure_end;
        let conforms = flow
            .policer
            .as_mut()
            .expect("sending flow has policer")
            .conforms(size, now);
        if conforms {
            let pkt = Packet::new(
                flow.seq,
                FlowId(id),
                api.node,
                self.cfg.sink,
                size,
                TrafficClass::Data,
                flow.seq,
                now,
            )
            .with_aux(data_aux(flow.group as u8, in_window));
            flow.seq += 1;
            if in_window {
                self.stats.data_sent[flow.group].inc();
            }
            api.send(pkt);
        }
        let (gap, next_size) = flow
            .process
            .as_mut()
            .expect("sending flow has process")
            .next_packet(&mut self.rng);
        flow.pending_size = next_size;
        api.timer_in(gap, timer::DATA, id);
    }

    fn on_decision(&mut self, id: u64, accepted: bool, api: &mut Api) {
        let Some(mut flow) = self.flows.remove(&id) else {
            return; // duplicate / late decision
        };
        if flow.phase == Phase::Sending {
            // Should not happen (one decision per flow), but be safe.
            self.flows.insert(id, flow);
            return;
        }
        let counted = self.in_window(api.now());
        if counted {
            self.stats.decided[flow.group].inc();
        }
        let group = flow.group;
        if accepted {
            if counted {
                self.stats.accepted[flow.group].inc();
            }
            self.start_sending(&mut flow, id, api);
            self.flows.insert(id, flow);
        } else {
            if counted {
                self.stats.rejected[flow.group].inc();
            }
            self.schedule_retry(flow.group, flow.attempt, api);
        }
        self.tel_decision(id, group, accepted, true, api);
    }

    /// Arm an exponential-back-off retry for a rejected flow, if the
    /// retry extension is enabled and attempts remain.
    fn schedule_retry(&mut self, group: usize, attempt: u32, api: &mut Api) {
        let Some(policy) = self.cfg.retry else {
            return;
        };
        if attempt >= policy.max_attempts || api.now() >= self.cfg.stop_arrivals_at {
            return;
        }
        // Back-off doubles per attempt, with ±25% jitter to avoid
        // synchronised retry storms. Saturating arithmetic plus the
        // policy's ceiling keep large attempt counts well-defined.
        let backoff = backoff_for(policy, attempt);
        let jitter = self.rng.uniform_range(0.75, 1.25);
        let delay = SimDuration::from_secs_f64(backoff.as_secs_f64() * jitter);
        api.timer_in(
            delay,
            timer::RETRY,
            group as u64 | ((attempt as u64 + 1) << 32),
        );
    }

    /// The verdict for `id` never arrived: resolve as a rejection.
    fn on_verdict_timeout(&mut self, id: u64, api: &mut Api) {
        let Some(flow) = self.flows.get(&id) else {
            return; // verdict arrived after all; stale timer
        };
        if flow.phase != Phase::AwaitDecision {
            return; // decided in the meantime
        }
        self.stats.timeouts.inc();
        let now = api.now();
        if let Some(tel) = api.net.telemetry.as_deref_mut() {
            tel.metrics.inc("admission.timeouts", 1);
            tel.recorder
                .record(now, "admission.timeout", format!("flow {id}"));
        }
        self.on_decision(id, false, api);
    }

    /// Note an admission verdict in the telemetry hub (no-op when
    /// telemetry is off): adjust the live-flow gauges, bump the verdict
    /// counter, and log a flight event.
    fn tel_decision(
        &mut self,
        id: u64,
        group: usize,
        accepted: bool,
        probing: bool,
        api: &mut Api,
    ) {
        let now = api.now();
        let Some(tel) = api.net.telemetry.as_deref_mut() else {
            return;
        };
        if probing {
            tel.metrics.add_gauge("flows.probing", -1.0);
        }
        if accepted {
            tel.metrics.inc("admission.accepts", 1);
            tel.metrics.add_gauge("flows.admitted", 1.0);
            tel.recorder
                .record(now, "admission.accept", format!("flow {id} group {group}"));
        } else {
            tel.metrics.inc("admission.rejects", 1);
            tel.recorder
                .record(now, "admission.reject", format!("flow {id} group {group}"));
        }
    }
}

/// The (un-jittered) back-off before retry `attempt`: `base · 2^attempt`,
/// saturating, clamped to the policy ceiling. Defined as a free function
/// so the overflow boundary is unit-testable without an agent.
fn backoff_for(policy: RetryPolicy, attempt: u32) -> SimDuration {
    let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
    policy
        .base_backoff
        .saturating_mul(factor)
        .min(policy.max_backoff)
}

impl Agent for HostAgent {
    fn on_start(&mut self, api: &mut Api) {
        self.flow_base = (api.node.0 as u64) << 32;
        if let Some(tel) = api.net.telemetry.as_deref_mut() {
            // Pre-register the live-flow gauges so the sampler's columns
            // exist from the first tick even before any flow arrives.
            tel.metrics.set_gauge("flows.admitted", 0.0);
            tel.metrics.set_gauge("flows.probing", 0.0);
        }
        let gap = self.cfg.demography.sample_interarrival(&mut self.rng);
        let first = self.cfg.start_arrivals_at.max(api.now()) + SimDuration::from_secs_f64(gap);
        api.timer_at(first, timer::ARRIVAL, 0);
    }

    fn on_packet(&mut self, pkt: Packet, api: &mut Api) {
        if pkt.class != TrafficClass::Control {
            return; // hosts only expect verdicts
        }
        match Msg::decode(pkt.aux) {
            Some(Msg::Accept) => self.on_decision(pkt.flow.0, true, api),
            Some(Msg::Reject) => self.on_decision(pkt.flow.0, false, api),
            _ => {}
        }
    }

    fn on_timer(&mut self, kind: u32, data: u64, api: &mut Api) {
        match kind {
            timer::ARRIVAL => {
                if api.now() < self.cfg.stop_arrivals_at {
                    self.begin_flow(api);
                    let gap = self.cfg.demography.sample_interarrival(&mut self.rng);
                    api.timer_in(SimDuration::from_secs_f64(gap), timer::ARRIVAL, 0);
                }
            }
            timer::PROBE => self.probe_tick(data, api),
            timer::DATA => self.data_tick(data, api),
            timer::END => {
                if let Some(flow) = self.flows.remove(&data) {
                    if flow.phase == Phase::Sending {
                        if let Some(tel) = api.net.telemetry.as_deref_mut() {
                            tel.metrics.add_gauge("flows.admitted", -1.0);
                        }
                    }
                }
            }
            timer::RETRY => {
                let group = (data & 0xFFFF_FFFF) as usize;
                let attempt = (data >> 32) as u32;
                self.begin_flow_for(group, attempt, api);
            }
            timer::VERDICT => self.on_verdict_timeout(data, api),
            // An unknown timer kind is a wiring bug elsewhere, but
            // aborting a long run over it helps nobody: count and ignore.
            _ => self.stats.stray_timers.inc(),
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(base_s: u64, max_s: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 100,
            base_backoff: SimDuration::from_secs(base_s),
            max_backoff: SimDuration::from_secs(max_s),
        }
    }

    #[test]
    fn backoff_doubles_until_cap() {
        let p = policy(5, 60);
        assert_eq!(backoff_for(p, 0), SimDuration::from_secs(5));
        assert_eq!(backoff_for(p, 1), SimDuration::from_secs(10));
        assert_eq!(backoff_for(p, 2), SimDuration::from_secs(20));
        assert_eq!(backoff_for(p, 3), SimDuration::from_secs(40));
        assert_eq!(backoff_for(p, 4), SimDuration::from_secs(60)); // capped
        assert_eq!(backoff_for(p, 5), SimDuration::from_secs(60));
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        // 5 s · 2^63 overflows u64 nanoseconds; 2^64 overflows the shift
        // itself. Both must clamp to the ceiling, not wrap or panic.
        let p = policy(5, 3600);
        assert_eq!(backoff_for(p, 63), SimDuration::from_secs(3600));
        assert_eq!(backoff_for(p, 64), SimDuration::from_secs(3600));
        assert_eq!(backoff_for(p, u32::MAX), SimDuration::from_secs(3600));
        // Without a finite cap the saturated product is still well-defined.
        let unbounded = RetryPolicy {
            max_attempts: 100,
            base_backoff: SimDuration::from_secs(5),
            max_backoff: SimDuration::MAX,
        };
        assert_eq!(backoff_for(unbounded, 64), SimDuration::MAX);
    }
}
