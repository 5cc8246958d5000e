//! The sending host: flow arrivals, probing, and data transmission.
//!
//! One [`HostAgent`] banks every flow originating at its node (avoiding
//! per-flow agent churn). A flow moves through three phases, each holding
//! only its own state: probing (emit probe packets per the [`ProbePlan`]
//! and announce stage boundaries), awaiting the verdict, and sending
//! (drive the flow's [`PacketProcess`] through its token-bucket policer
//! until the flow's lifetime expires).
//!
//! Every verdict lands in one place, `HostAgent::decide`, whatever gave
//! it: the receiver's `Accept`/`Reject`, the verdict timeout, or, under
//! [`Design::Mbac`], the Measured Sum registry on the network blackboard,
//! which the arrival event consults at once instead of probing
//! (idealised, serialised signalling — exactly the property §2.2.3
//! credits router-based admission with).

use crate::design::{Design, Group};
use crate::mbac::MbacRegistry;
use crate::metrics::share;
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
        share(rej, dec)
    }
}

/// Where a flow stands; each phase carries only the state it needs.
enum Phase {
    /// Emitting probe packets, stage by stage.
    Probing {
        plan: ProbePlan,
        stage: usize,
        sent: u32,
        stage_pkts: u32,
        spacing: SimDuration,
    },
    /// Probes done (or, under MBAC, the registry about to answer).
    AwaitDecision,
    /// Admitted: policed data until the lifetime ends.
    Sending {
        process: Box<dyn PacketProcess>,
        policer: Policer,
        pending_size: u32,
    },
}

struct HostFlow {
    group: usize,
    attempt: u32,
    /// Next sequence number; probes and data share the space.
    seq: u64,
    lifetime: SimDuration,
    phase: Phase,
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
            .filter(|f| matches!(f.phase, Phase::AwaitDecision))
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

    /// A new flow (or a retry's next attempt) of `group` arrives: MBAC
    /// decides it at once, an endpoint design starts probing.
    fn begin_flow(&mut self, group: usize, attempt: u32, api: &mut Api) {
        let id = self.flow_base | self.next_flow;
        self.next_flow += 1;
        let now = api.now();
        let spec = &self.cfg.groups[group].source;
        let (r_bps, pkt_bytes) = (spec.token_rate_bps(), spec.pkt_bytes);
        let lifetime =
            SimDuration::from_secs_f64(self.cfg.demography.sample_lifetime(&mut self.rng));
        let mut flow = HostFlow {
            group,
            attempt,
            seq: 0,
            lifetime,
            phase: Phase::AwaitDecision,
        };
        let Design::Endpoint { style, .. } = self.cfg.design else {
            // Idealised signalling: the Measured Sum registry answers now.
            let admitted = api
                .net
                .blackboard
                .as_mut()
                .and_then(|b| b.downcast_mut::<MbacRegistry>())
                .expect("MBAC design without registry on blackboard")
                .admit(&self.cfg.mbac_path, r_bps as f64, now);
            return self.decide(id, flow, admitted, api);
        };
        let plan = ProbePlan::new(style, self.cfg.probe_total);
        let start = Msg::ProbeStart {
            group: group as u8,
            expected: plan.total_packets(r_bps, pkt_bytes),
            abort: plan.in_flight_abort,
        };
        flow.phase = Phase::Probing {
            stage_pkts: plan.stage_packets(0, r_bps, pkt_bytes),
            spacing: plan.stage_spacing(0, r_bps, pkt_bytes),
            plan,
            stage: 0,
            sent: 0,
        };
        self.flows.insert(id, flow);
        if let Some(tel) = api.net.telemetry.as_deref_mut() {
            tel.metrics.inc("host.probes_started", 1);
            tel.metrics.add_gauge("flows.probing", 1.0);
            tel.recorder
                .record(now, "probe.start", format!("flow {id} group {group}"));
        }
        let start = self.control(id, api, start);
        api.send(start);
        // First probe packet goes out immediately.
        api.timer_in(SimDuration::ZERO, timer::PROBE, id);
    }

    fn probe_tick(&mut self, id: u64, api: &mut Api) {
        // A flow rejected mid-probe leaves its next tick behind.
        let Some(flow) = self.flows.get_mut(&id) else {
            return;
        };
        let Phase::Probing {
            plan,
            stage,
            sent,
            stage_pkts,
            spacing,
        } = &mut flow.phase
        else {
            return;
        };
        let spec = &self.cfg.groups[flow.group].source;
        let pkt = Packet::new(
            flow.seq,
            FlowId(id),
            api.node,
            self.cfg.sink,
            spec.pkt_bytes,
            TrafficClass::Probe,
            flow.seq,
            api.now(),
        )
        .with_aux(probe_aux(*stage as u8, flow.group as u8));
        flow.seq += 1;
        *sent += 1;
        api.send(pkt);
        if *sent < *stage_pkts {
            api.timer_in(*spacing, timer::PROBE, id);
            return;
        }

        // Stage finished: report and advance.
        let is_final = *stage + 1 >= plan.num_stages();
        let msg = Msg::StageEnd {
            stage: *stage as u8,
            sent: *sent,
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
            *stage += 1;
            *sent = 0;
            *stage_pkts = plan.stage_packets(*stage, spec.token_rate_bps(), spec.pkt_bytes);
            *spacing = plan.stage_spacing(*stage, spec.token_rate_bps(), spec.pkt_bytes);
            api.timer_in(*spacing, timer::PROBE, id);
        }
        let ctrl = self.control(id, api, msg);
        api.send(ctrl);
    }

    fn data_tick(&mut self, id: u64, api: &mut Api) {
        let now = api.now();
        let in_window = self.in_window(now);
        // An ended flow leaves its next tick behind.
        let Some(flow) = self.flows.get_mut(&id) else {
            return;
        };
        let Phase::Sending {
            process,
            policer,
            pending_size,
        } = &mut flow.phase
        else {
            return;
        };
        if policer.conforms(*pending_size, now) {
            let pkt = Packet::new(
                flow.seq,
                FlowId(id),
                api.node,
                self.cfg.sink,
                *pending_size,
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
        let (gap, next_size) = process.next_packet(&mut self.rng);
        *pending_size = next_size;
        api.timer_in(gap, timer::DATA, id);
    }

    /// Take flow `id` out of the table unless it is already sending: a late
    /// or duplicate verdict, or a timeout after the verdict, takes nothing.
    /// (The sink may reject a flow that is still probing.)
    fn take_undecided(&mut self, id: u64) -> Option<HostFlow> {
        if let Phase::Sending { .. } = self.flows.get(&id)?.phase {
            return None;
        }
        self.flows.remove(&id)
    }

    /// The one admission path, whoever gave the verdict (the Measured Sum
    /// registry, the sink, or the verdict timeout): count it, start
    /// sending or arm the retry, and note it in telemetry.
    fn decide(&mut self, id: u64, mut flow: HostFlow, accepted: bool, api: &mut Api) {
        let group = flow.group;
        let now = api.now();
        if self.in_window(now) {
            self.stats.decided[group].inc();
            let verdicts = if accepted {
                &mut self.stats.accepted
            } else {
                &mut self.stats.rejected
            };
            verdicts[group].inc();
        }
        if accepted {
            let spec = &self.cfg.groups[group].source;
            let mut process = spec.build();
            let policer = Policer::new(spec.token);
            let (gap, pending_size) = process.next_packet(&mut self.rng);
            flow.phase = Phase::Sending {
                process,
                policer,
                pending_size,
            };
            api.timer_in(flow.lifetime, timer::END, id);
            api.timer_in(gap, timer::DATA, id);
            self.flows.insert(id, flow);
        } else {
            self.schedule_retry(group, flow.attempt, api);
        }

        let Some(tel) = api.net.telemetry.as_deref_mut() else {
            return;
        };
        if let Design::Endpoint { .. } = self.cfg.design {
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
        // Stale once the verdict arrived after all.
        let Some(flow) = self.take_undecided(id) else {
            return;
        };
        self.stats.timeouts.inc();
        let now = api.now();
        if let Some(tel) = api.net.telemetry.as_deref_mut() {
            tel.metrics.inc("admission.timeouts", 1);
            tel.recorder
                .record(now, "admission.timeout", format!("flow {id}"));
        }
        self.decide(id, flow, false, api);
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
        let accepted = match Msg::decode(pkt.aux) {
            Some(Msg::Accept) => true,
            Some(Msg::Reject) => false,
            _ => return,
        };
        if let Some(flow) = self.take_undecided(pkt.flow.0) {
            self.decide(pkt.flow.0, flow, accepted, api);
        }
    }

    fn on_timer(&mut self, kind: u32, data: u64, api: &mut Api) {
        match kind {
            timer::ARRIVAL => {
                if api.now() < self.cfg.stop_arrivals_at {
                    let group = self.pick_group();
                    self.begin_flow(group, 0, api);
                    let gap = self.cfg.demography.sample_interarrival(&mut self.rng);
                    api.timer_in(SimDuration::from_secs_f64(gap), timer::ARRIVAL, 0);
                }
            }
            timer::PROBE => self.probe_tick(data, api),
            timer::DATA => self.data_tick(data, api),
            timer::END => {
                // Only a sending flow arms its end.
                if self.flows.remove(&data).is_some() {
                    if let Some(tel) = api.net.telemetry.as_deref_mut() {
                        tel.metrics.add_gauge("flows.admitted", -1.0);
                    }
                }
            }
            timer::RETRY => {
                let group = (data & 0xFFFF_FFFF) as usize;
                let attempt = (data >> 32) as u32;
                self.begin_flow(group, attempt, api);
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
