//! The single-bottleneck scenario of §3.2/§4.1–4.5.
//!
//! "All but one of our simulations uses a simple topology with many
//! sources sharing a single congested link" — 10 Mbps (1 Mbps in the
//! low-multiplexing case), 20 ms propagation delay, 200-packet buffer.
//! Following the paper's simplification, the bottleneck link itself runs
//! at the admission-controlled traffic's allocated share, so no explicit
//! rate limiter or best-effort background is simulated, and every queue
//! is work-conserving.

use crate::design::{effective_epsilons, Design, Group};
use crate::driver::{fast_link, Plan, World};
use crate::host::HostAgent;
use crate::mbac::MbacRegistry;
use crate::metrics::Report;
use crate::probe::{Placement, Signal};
use crate::sink::{stage_grace, SinkAgent};
use netsim::{
    Agent, Api, AuditError, FaultPlan, Impairment, Limit, Network, Packet, RunError, Sim,
    StrictPrio, TrafficClass, VirtualQueue,
};
use simcore::{SimDuration, SimRng, SimTime};
use std::any::Any;
use telemetry::{FlightRecorder, Telemetry};
use traffic::SourceSpec;

/// The periodic load-sampler driving MBAC's Measured Sum estimators.
pub struct MeterAgent {
    /// Sampling period S.
    pub period: SimDuration,
}

impl Agent for MeterAgent {
    fn on_start(&mut self, api: &mut Api) {
        api.timer_in(self.period, 0, 0);
    }

    fn on_packet(&mut self, _pkt: Packet, _api: &mut Api) {}

    fn on_timer(&mut self, _kind: u32, _data: u64, api: &mut Api) {
        let mut bb = api.net.blackboard.take();
        if let Some(reg) = bb.as_mut().and_then(|b| b.downcast_mut::<MbacRegistry>()) {
            reg.sample_all(api.net.links(), api.now());
        }
        api.net.blackboard = bb;
        api.timer_in(self.period, 0, 0);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Why a scenario run stopped without a report.
#[derive(Clone, Debug)]
pub enum ScenarioError {
    /// The run loop aborted (event budget, time regression).
    Run(RunError),
    /// The packet-conservation audit failed.
    Audit(AuditError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Run(e) => write!(f, "run aborted: {e}"),
            ScenarioError::Audit(e) => write!(f, "audit failed: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<RunError> for ScenarioError {
    fn from(e: RunError) -> Self {
        ScenarioError::Run(e)
    }
}

impl From<AuditError> for ScenarioError {
    fn from(e: AuditError) -> Self {
        ScenarioError::Audit(e)
    }
}

/// The run options every scenario type shares: the event budget (a
/// watchdog) and the host-side verdict timeout (a protocol parameter
/// rather than supervision). Every run ends with the packet-conservation
/// audit whatever this holds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunConfig {
    /// Cap on total simulation events (event-storm watchdog).
    pub event_budget: Option<u64>,
    /// Host-side verdict timeout, seconds (lost verdicts resolve as
    /// rejections after this long). `None` = wait forever.
    pub verdict_timeout_s: Option<f64>,
}

/// A single-bottleneck experiment configuration (builder style).
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Admission-control design under test.
    pub design: Design,
    /// Flow populations.
    pub groups: Vec<Group>,
    /// Mean flow interarrival time τ, seconds.
    pub tau_s: f64,
    /// Mean flow lifetime, seconds (§3.2: 300 s).
    pub lifetime_s: f64,
    /// Bottleneck bandwidth = the admission-controlled share, bits/s.
    pub link_bps: u64,
    /// Bottleneck buffer, packets (§3.2: 200).
    pub buffer_pkts: usize,
    /// Propagation delay, milliseconds (§3.2: 20 ms).
    pub prop_delay_ms: f64,
    /// Total probing time (5 s default; 25 s in Fig 3).
    pub probe_total_s: f64,
    /// Virtual-queue rate factor for marking designs (§3.1: 0.9).
    pub vq_factor: f64,
    /// Whether data packets push resident probes out of a full buffer
    /// (§3.1; true in the paper — switchable for the ablation bench).
    pub probe_pushout: bool,
    /// Rejected-flow retry with exponential back-off (the paper's
    /// footnote-10 extension; None = no retries, as in the paper).
    pub retry: Option<crate::host::RetryPolicy>,
    /// Simulation horizon, seconds.
    pub horizon_s: f64,
    /// Warm-up discarded from statistics, seconds.
    pub warmup_s: f64,
    /// RNG seed.
    pub seed: u64,
    /// Bernoulli loss applied to *control* packets on both directions of
    /// the bottleneck path (robustness extension; 0 = the paper's
    /// lossless-signalling idealisation).
    pub control_loss: f64,
    /// Scheduled bottleneck outages, as `(down_s, up_s)` windows.
    pub flaps_s: Vec<(f64, f64)>,
    /// Event budget and verdict timeout (see [`RunConfig`]).
    pub run_config: RunConfig,
    /// Telemetry capture (metrics, time-series sampler) recording into
    /// this flight ring; [`run_full`](Scenario::run_full) returns the hub.
    /// `None` keeps the hot path free of instrumentation.
    pub telemetry: Option<FlightRecorder>,
}

/// Everything a completed run produces: the [`Report`] plus, when the
/// scenario was given a flight recorder, the captured telemetry hub.
#[derive(Debug)]
pub struct RunOutput {
    /// The scenario's result metrics.
    pub report: Report,
    /// Captured telemetry (metrics registry, sampled time-series, flight
    /// recorder), if it was enabled.
    pub telemetry: Option<Box<Telemetry>>,
}

impl Scenario {
    /// The basic scenario of §4.1: EXP1 sources, τ = 3.5 s, 10 Mbps link,
    /// slow-start in-band dropping with ε = 0.01. The paper runs 14 000 s
    /// with a 2 000 s warm-up; the default here is a faster 3 000/500 s.
    pub fn basic() -> Self {
        Scenario {
            design: Design::endpoint(
                Signal::Drop,
                Placement::InBand,
                crate::probe::ProbeStyle::SlowStart,
                0.01,
            ),
            groups: vec![Group::new("EXP1", SourceSpec::exp1(), 1.0)],
            tau_s: 3.5,
            lifetime_s: 300.0,
            link_bps: 10_000_000,
            buffer_pkts: 200,
            prop_delay_ms: 20.0,
            probe_total_s: 5.0,
            vq_factor: 0.9,
            probe_pushout: true,
            retry: None,
            horizon_s: 3_000.0,
            warmup_s: 500.0,
            seed: 1,
            control_loss: 0.0,
            flaps_s: Vec::new(),
            run_config: RunConfig::default(),
            telemetry: None,
        }
    }

    /// Set the design.
    pub fn design(mut self, d: Design) -> Self {
        self.design = d;
        self
    }

    /// Replace the flow populations.
    pub fn groups(mut self, groups: Vec<Group>) -> Self {
        assert!(!groups.is_empty());
        self.groups = groups;
        self
    }

    /// Set mean flow interarrival time τ.
    pub fn tau(mut self, tau_s: f64) -> Self {
        assert!(tau_s > 0.0);
        self.tau_s = tau_s;
        self
    }

    /// Set the bottleneck bandwidth.
    pub fn link_bps(mut self, bps: u64) -> Self {
        self.link_bps = bps;
        self
    }

    /// Set the total probing time.
    pub fn probe_secs(mut self, s: f64) -> Self {
        assert!(s > 0.0);
        self.probe_total_s = s;
        self
    }

    /// Set the simulation horizon.
    pub fn horizon_secs(mut self, s: f64) -> Self {
        self.horizon_s = s;
        self
    }

    /// Set the warm-up length.
    pub fn warmup_secs(mut self, s: f64) -> Self {
        self.warmup_s = s;
        self
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Lose this fraction of control packets (both directions).
    pub fn control_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.control_loss = p;
        self
    }

    /// Add a bottleneck outage window.
    pub fn flap(mut self, down_s: f64, up_s: f64) -> Self {
        assert!(down_s < up_s);
        self.flaps_s.push((down_s, up_s));
        self
    }

    /// Resolve missing verdicts as rejections after this many seconds.
    pub fn verdict_timeout(mut self, s: f64) -> Self {
        assert!(s > 0.0);
        self.run_config.verdict_timeout_s = Some(s);
        self
    }

    /// Cap total simulation events (event-storm watchdog).
    pub fn event_budget(mut self, budget: u64) -> Self {
        self.run_config.event_budget = Some(budget);
        self
    }

    /// Largest packet size among the groups (sizes the buffer in bytes).
    fn max_pkt_bytes(&self) -> u32 {
        self.groups
            .iter()
            .map(|g| g.source.pkt_bytes)
            .max()
            .unwrap_or(125)
    }

    /// Build and run the simulation, producing a [`Report`] or a graceful
    /// error: an exhausted event budget or a failed conservation audit.
    /// An event scheduled behind the clock panics at its call site.
    pub fn run(&self) -> Result<Report, ScenarioError> {
        self.run_full().map(|o| o.report)
    }

    /// Like [`run`](Scenario::run), but also returns the telemetry hub
    /// when the scenario was configured with one. A failed run returns
    /// only the error; its flight recorder stays reachable through a
    /// clone of the handle the caller kept (the sweep executor keeps one
    /// per seed and dumps it).
    pub fn run_full(&self) -> Result<RunOutput, ScenarioError> {
        let plan = Plan {
            design: self.design,
            lifetime_s: self.lifetime_s,
            probe_total: SimDuration::from_secs_f64(self.probe_total_s),
            retry: self.retry,
            warmup_s: self.warmup_s,
            horizon_s: self.horizon_s,
            drain: SimDuration::from_secs(5),
            run_config: self.run_config,
            telemetry: self.telemetry.as_ref(),
            seed: self.seed,
        };
        let root = SimRng::new(self.seed);

        // Topology: host -> bottleneck -> sink, fast reverse path.
        let mut net = Network::new();
        let host_n = net.add_node();
        let sink_n = net.add_node();
        let meter_n = net.add_node(); // timers only; no links

        let out_of_band = self.design.placement() == Placement::OutOfBand;
        let buffer_bytes = (self.buffer_pkts as u32 * self.max_pkt_bytes()) as u64;
        let qdisc = Box::new(StrictPrio::admission_queue_opts(
            Limit::Packets(self.buffer_pkts),
            out_of_band,
            self.probe_pushout,
        ));
        let marker = match self.design.signal() {
            Signal::Mark => Some(VirtualQueue::new(
                self.link_bps,
                self.vq_factor,
                buffer_bytes as f64,
            )),
            Signal::Drop => None,
        };
        let prop = SimDuration::from_secs_f64(self.prop_delay_ms / 1_000.0);
        let bottleneck = net.add_link(host_n, sink_n, self.link_bps, prop, qdisc, marker);
        let reverse = fast_link(&mut net, sink_n, host_n, prop);

        let mut sim = Sim::new(net);
        plan.install_mbac(&mut sim, meter_n, &[bottleneck], self.link_bps);
        let host_cfg = plan.host(sink_n, self.groups.clone(), self.tau_s, vec![bottleneck]);
        sim.attach(host_n, Box::new(HostAgent::new(host_cfg, root.derive(1))));
        let sink_cfg = plan.sink(
            effective_epsilons(&self.design, &self.groups),
            stage_grace(buffer_bytes, self.link_bps, prop),
        );
        sim.attach(sink_n, Box::new(SinkAgent::new(sink_cfg)));

        // Fault plan: control-packet loss on both directions of the
        // bottleneck path, plus any scheduled outages. The plan gets its
        // own derived RNG stream so enabling faults never perturbs the
        // traffic models' draws.
        let mut faults = FaultPlan::new();
        if self.control_loss > 0.0 {
            for link in [bottleneck, reverse] {
                faults = faults.impair(Impairment::loss(
                    link,
                    Some(TrafficClass::Control),
                    self.control_loss,
                ));
            }
        }
        for &(down_s, up_s) in &self.flaps_s {
            faults = faults.flap(
                bottleneck,
                SimTime::from_secs_f64(down_s),
                SimTime::from_secs_f64(up_s),
            );
        }
        if !faults.is_empty() {
            sim.install_faults(faults, root.derive(99));
        }

        let mut world = World {
            sim,
            hosts: &[host_n],
            sinks: &[sink_n],
        };
        let (links, telemetry) = plan.run(&mut world, |sim| {
            plan.read_links(sim, &[bottleneck], self.link_bps)
        })?;
        let names = self.groups.iter().map(|g| g.name.clone());
        let report = plan.report(&mut world, names, links);
        Ok(RunOutput { report, telemetry })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ProbeStyle;

    fn quick(design: Design) -> Report {
        Scenario::basic()
            .design(design)
            .horizon_secs(260.0)
            .warmup_secs(60.0)
            .seed(7)
            .run()
            .unwrap()
    }

    #[test]
    fn light_load_admits_everything() {
        // τ = 60 s on a 10 Mbps link: ~5 concurrent 128k flows, no
        // congestion — everything is admitted, loss is zero.
        let r = Scenario::basic()
            .tau(60.0)
            .horizon_secs(400.0)
            .warmup_secs(50.0)
            .seed(3)
            .run()
            .unwrap();
        assert_eq!(r.blocking, 0.0, "{r:?}");
        assert!(r.data_loss < 1e-4, "loss {}", r.data_loss);
        assert!(
            r.utilization > 0.01 && r.utilization < 0.5,
            "util {}",
            r.utilization
        );
    }

    #[test]
    fn overload_blocks_flows_and_bounds_loss() {
        // τ = 1.0 s: ~400% offered load; a large share must be blocked and
        // utilization must stay high.
        let r = Scenario::basic()
            .tau(1.0)
            .horizon_secs(500.0)
            .warmup_secs(100.0)
            .seed(5)
            .run()
            .unwrap();
        assert!(r.blocking > 0.4, "blocking {}", r.blocking);
        assert!(r.utilization > 0.5, "utilization {}", r.utilization);
        assert!(r.data_loss < 0.2, "loss {}", r.data_loss);
    }

    #[test]
    fn all_four_endpoint_designs_run() {
        for (sig, pl) in [
            (Signal::Drop, Placement::InBand),
            (Signal::Drop, Placement::OutOfBand),
            (Signal::Mark, Placement::InBand),
            (Signal::Mark, Placement::OutOfBand),
        ] {
            let r = quick(Design::endpoint(sig, pl, ProbeStyle::SlowStart, 0.02));
            assert!(r.utilization > 0.0, "{sig:?}/{pl:?}: {r:?}");
            assert!(r.groups[0].decided > 0, "{sig:?}/{pl:?}: no decisions");
        }
    }

    #[test]
    fn mbac_benchmark_runs_and_respects_target() {
        let r = quick(Design::mbac(0.9));
        assert!(r.groups[0].decided > 0);
        // With a 0.9 target the long-run utilization cannot exceed ~1.0.
        assert!(r.utilization < 1.05, "util {}", r.utilization);
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let a = quick(Design::endpoint(
            Signal::Drop,
            Placement::InBand,
            ProbeStyle::SlowStart,
            0.01,
        ));
        let b = quick(Design::endpoint(
            Signal::Drop,
            Placement::InBand,
            ProbeStyle::SlowStart,
            0.01,
        ));
        assert_eq!(a.utilization, b.utilization);
        assert_eq!(a.data_loss, b.data_loss);
        assert_eq!(a.groups[0].decided, b.groups[0].decided);
    }

    #[test]
    fn zero_epsilon_is_strictest() {
        let strict = quick(Design::endpoint(
            Signal::Drop,
            Placement::InBand,
            ProbeStyle::SlowStart,
            0.0,
        ));
        let loose = quick(Design::endpoint(
            Signal::Drop,
            Placement::InBand,
            ProbeStyle::SlowStart,
            0.05,
        ));
        assert!(
            strict.blocking >= loose.blocking,
            "strict {} vs loose {}",
            strict.blocking,
            loose.blocking
        );
    }
}

#[cfg(test)]
mod retry_tests {
    use super::*;
    use crate::host::RetryPolicy;
    use crate::probe::ProbeStyle;

    #[test]
    fn retries_raise_effective_load_and_fire_only_on_rejection() {
        let policy = Some(RetryPolicy {
            max_attempts: 3,
            base_backoff: SimDuration::from_secs(5),
            max_backoff: SimDuration::from_secs(60),
        });
        // Probe verdicts and the Measured Sum registry's immediate answer
        // both feed the same back-off path.
        for d in [
            Design::endpoint(Signal::Drop, Placement::InBand, ProbeStyle::SlowStart, 0.0),
            Design::mbac(0.9),
        ] {
            // Light load: no rejections, so no retries.
            let mut light = Scenario::basic()
                .design(d)
                .tau(60.0)
                .horizon_secs(300.0)
                .warmup_secs(50.0)
                .seed(2);
            light.retry = policy;
            let r = light.run().unwrap();
            assert_eq!(r.blocking, 0.0, "{}", d.name());

            // Heavy load: rejections happen and retries fire; the retried
            // attempts add decisions, so decided count exceeds the no-retry
            // baseline's.
            let mut heavy = Scenario::basic()
                .design(d)
                .tau(1.0)
                .horizon_secs(400.0)
                .warmup_secs(100.0)
                .seed(2);
            let base = heavy.clone().run().unwrap();
            heavy.retry = policy;
            let with_retry = heavy.run().unwrap();
            let base_dec: u64 = base.groups.iter().map(|g| g.decided).sum();
            let retry_dec: u64 = with_retry.groups.iter().map(|g| g.decided).sum();
            assert!(
                retry_dec > base_dec,
                "{}: retries should add decisions: {retry_dec} vs {base_dec}",
                d.name()
            );
        }
    }
}
