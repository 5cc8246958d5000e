//! The run procedure every scenario shares (§3.2, §4.6 Fig 10, §4.7
//! Fig 11): build a topology, attach endpoint hosts and sinks, warm up,
//! measure, drain and read the counters.
//!
//! A scenario states what it fixes about a run as a [`Plan`], builds its
//! [`World`] from the plan's host and sink configurations, and hands it to
//! [`Plan::run`]. That applies the [`RunConfig`], installs and recovers the
//! telemetry hub, drives the measure window and notes a failed audit in
//! the flight recorder. [`Plan::report`] then turns the hosts' and sinks'
//! per-group counters into a [`Report`].

use crate::design::{Design, Group};
use crate::host::{HostAgent, HostConfig, RetryPolicy};
use crate::mbac::{self, MbacRegistry};
use crate::metrics::{loss, share, GroupReport, Report};
use crate::scenario::{MeterAgent, RunConfig, ScenarioError};
use crate::sink::{SinkAgent, SinkConfig};
use netsim::{ClassStats, DropTail, Limit, LinkId, Network, NodeId, Sim, TrafficClass};
use simcore::stats::Counter;
use simcore::{SimDuration, SimTime};
use telemetry::{FlightRecorder, HistSummary, LogHistogram, Telemetry};
use traffic::Demography;

/// What a scenario fixes about its run, whatever its topology.
pub(crate) struct Plan<'a> {
    pub design: Design,
    pub lifetime_s: f64,
    pub probe_total: SimDuration,
    pub retry: Option<RetryPolicy>,
    pub warmup_s: f64,
    pub horizon_s: f64,
    /// Simulated time past the horizon in which packets already sent
    /// arrive or drop before the counters are read, so loss accounting
    /// is exact.
    pub drain: SimDuration,
    pub run_config: RunConfig,
    /// Instrument the run, recording into this flight ring.
    pub telemetry: Option<&'a FlightRecorder>,
    pub seed: u64,
}

/// A built simulation and the endpoints the measure window marks and the
/// report reads.
pub(crate) struct World<'a> {
    pub sim: Sim,
    pub hosts: &'a [NodeId],
    pub sinks: &'a [NodeId],
}

/// What a scenario reads off its measured links at the horizon.
pub(crate) struct Links {
    /// Data utilization of each link over the measured interval.
    pub utils: Vec<f64>,
    /// Mean data drop fraction over the links.
    pub loss: f64,
    /// Probe share of the bytes the links transmitted.
    pub probe_overhead: f64,
    /// Marked share of the data packets the links transmitted.
    pub mark_fraction: f64,
}

/// An uncongested 1 Gbps link with a 100 000-packet drop-tail buffer: the
/// access links and the reverse path that carries verdicts.
pub(crate) fn fast_link(net: &mut Network, a: NodeId, b: NodeId, prop: SimDuration) -> LinkId {
    net.add_link(
        a,
        b,
        1_000_000_000,
        prop,
        Box::new(DropTail::new(Limit::Packets(100_000))),
        None,
    )
}

impl Plan<'_> {
    fn warmup(&self) -> SimTime {
        SimTime::from_secs_f64(self.warmup_s)
    }

    fn horizon(&self) -> SimTime {
        SimTime::from_secs_f64(self.horizon_s)
    }

    fn measured(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.horizon_s - self.warmup_s)
    }

    /// A host generating `groups` at mean interarrival `tau_s` towards
    /// `sink`; under MBAC it asks for admission along `mbac_path`. Flows
    /// arrive from time zero until the horizon and count from the warm-up.
    pub fn host(
        &self,
        sink: NodeId,
        groups: Vec<Group>,
        tau_s: f64,
        mbac_path: Vec<LinkId>,
    ) -> HostConfig {
        HostConfig {
            sink,
            design: self.design,
            groups,
            demography: Demography::new(tau_s, self.lifetime_s),
            probe_total: self.probe_total,
            mbac_path,
            stop_arrivals_at: self.horizon(),
            start_arrivals_at: SimTime::ZERO,
            retry: self.retry,
            verdict_timeout: self
                .run_config
                .verdict_timeout_s
                .map(SimDuration::from_secs_f64),
            measure_start: self.warmup(),
            measure_end: self.horizon(),
        }
    }

    /// A sink judging each group's probes against `eps_per_group`.
    pub fn sink(&self, eps_per_group: Vec<f64>, grace: SimDuration) -> SinkConfig {
        SinkConfig {
            signal: self.design.signal(),
            eps_per_group,
            grace,
            flow_ttl: self.probe_total * 2 + SimDuration::from_secs(60),
        }
    }

    /// Under MBAC, register `links` with a Measured Sum registry on the
    /// blackboard and attach the meter that samples them every
    /// [`mbac::SAMPLE_PERIOD`] to the link-less node `meter`. Endpoint
    /// designs need neither.
    pub fn install_mbac(&self, sim: &mut Sim, meter: NodeId, links: &[LinkId], capacity_bps: u64) {
        let Design::Mbac { eta } = self.design else {
            return;
        };
        let mut reg = MbacRegistry::new(eta);
        for &l in links {
            reg.register(l, capacity_bps as f64, mbac::WINDOW);
        }
        sim.net.blackboard = Some(Box::new(reg));
        sim.attach(
            meter,
            Box::new(MeterAgent {
                period: mbac::SAMPLE_PERIOD,
            }),
        );
    }

    /// Utilization and mean drop fraction of the data on `links`, which run
    /// at `bps`, plus the probe overhead and mark fraction of the bytes and
    /// packets they transmitted, summed over the links.
    pub fn read_links(&self, sim: &Sim, links: &[LinkId], bps: u64) -> Links {
        let utils = links
            .iter()
            .map(|&l| {
                sim.net
                    .link(l)
                    .stats
                    .utilization(TrafficClass::Data, bps, self.measured())
            })
            .collect();
        let loss = links
            .iter()
            .map(|&l| sim.net.link(l).stats.drop_fraction(TrafficClass::Data))
            .sum::<f64>()
            / links.len() as f64;
        let sum = |class, counter: fn(&ClassStats) -> &Counter| {
            links
                .iter()
                .map(|&l| counter(sim.net.link(l).stats.class(class)).since_mark())
                .sum::<u64>()
        };
        let data_b = sum(TrafficClass::Data, |c| &c.transmitted_bytes);
        let probe_b = sum(TrafficClass::Probe, |c| &c.transmitted_bytes);
        Links {
            utils,
            loss,
            probe_overhead: share(probe_b, data_b + probe_b),
            mark_fraction: share(
                sum(TrafficClass::Data, |c| &c.marked),
                sum(TrafficClass::Data, |c| &c.transmitted),
            ),
        }
    }

    /// Run `world` through the measure window: up to the warm-up, mark
    /// every link, host and sink, on to the horizon where `at_horizon`
    /// reads the links, then the drain and the conservation audit.
    /// Returns what `at_horizon` read and the telemetry hub when one was
    /// configured. A failed audit is noted in the flight recorder before
    /// the error propagates, so a caller that kept the recorder handle
    /// can dump it.
    pub fn run<T>(
        &self,
        world: &mut World,
        at_horizon: impl FnOnce(&Sim) -> T,
    ) -> Result<(T, Option<Box<Telemetry>>), ScenarioError> {
        assert!(self.warmup_s < self.horizon_s);
        if let Some(budget) = self.run_config.event_budget {
            world.sim.set_event_budget(budget);
        }
        if let Some(recorder) = self.telemetry {
            world.sim.net.telemetry = Some(Box::new(Telemetry::new(recorder.clone())));
        }
        let measured = self.measure(world, at_horizon);
        let tel = world.sim.net.telemetry.take();
        match measured {
            Ok(read) => Ok((read, tel)),
            Err(e) => {
                // RunErrors were already recorded by the sim loop; the
                // audit fires after it, so note it here.
                if let (Some(tel), ScenarioError::Audit(a)) = (&tel, &e) {
                    tel.recorder
                        .record(world.sim.now(), "audit.error", a.to_string());
                }
                Err(e)
            }
        }
    }

    fn measure<T>(
        &self,
        world: &mut World,
        at_horizon: impl FnOnce(&Sim) -> T,
    ) -> Result<T, ScenarioError> {
        let sim = &mut world.sim;
        sim.try_run_until(self.warmup())?;
        for l in sim.net.links_mut() {
            l.stats.mark_all();
        }
        for &h in world.hosts {
            sim.agent::<HostAgent>(h).expect("host").stats.mark_all();
        }
        for &s in world.sinks {
            sim.agent::<SinkAgent>(s).expect("sink").stats.mark_all();
        }
        sim.try_run_until(self.horizon())?;
        let read = at_horizon(sim);
        sim.try_run_until(self.horizon() + self.drain)?;
        sim.check_conservation()?;
        Ok(read)
    }

    /// The report of a finished run. Group `g` (the `g`th of `names`)
    /// counts slot `g` of every host and sink: a scenario whose hosts each
    /// generate one group gives every host the full group list, so the
    /// slots line up.
    pub fn report(
        &self,
        world: &mut World,
        names: impl IntoIterator<Item = String>,
        links: Links,
    ) -> Report {
        let mut groups: Vec<GroupReport> = names
            .into_iter()
            .map(|name| GroupReport {
                name,
                decided: 0,
                accepted: 0,
                rejected: 0,
                blocking: 0.0,
                data_sent: 0,
                data_received: 0,
                loss: 0.0,
            })
            .collect();
        let (mut timeouts, mut leaked_flows) = (0, 0);
        let mut delay = LogHistogram::new();
        for &h in world.hosts {
            let host = world.sim.agent::<HostAgent>(h).expect("host");
            for (g, r) in groups.iter_mut().enumerate() {
                r.decided += host.stats.decided[g].since_mark();
                r.accepted += host.stats.accepted[g].since_mark();
                r.rejected += host.stats.rejected[g].since_mark();
                r.data_sent += host.stats.data_sent[g].since_mark();
            }
            timeouts += host.stats.timeouts.since_mark();
            leaked_flows += host.stranded_flows() as u64;
        }
        for &s in world.sinks {
            let sink = world.sim.agent::<SinkAgent>(s).expect("sink");
            for (g, r) in groups.iter_mut().enumerate() {
                r.data_received += sink.stats.data_received[g].since_mark();
            }
            leaked_flows += sink.undecided_flows() as u64;
            delay.merge(&sink.stats.data_delay_hist);
        }
        for r in &mut groups {
            r.blocking = share(r.rejected, r.decided);
            r.loss = loss(r.data_sent, r.data_received);
        }
        let total = |f: fn(&GroupReport) -> u64| groups.iter().map(f).sum::<u64>();
        let data_loss = loss(total(|r| r.data_sent), total(|r| r.data_received));
        let blocking = share(total(|r| r.rejected), total(|r| r.decided));
        Report {
            design: self.design.name(),
            param: match self.design {
                Design::Endpoint { epsilon, .. } => epsilon,
                Design::Mbac { eta } => eta,
            },
            utilization: links.utils.iter().sum::<f64>() / links.utils.len() as f64,
            data_loss,
            link_loss: links.loss,
            blocking,
            probe_overhead: links.probe_overhead,
            mark_fraction: links.mark_fraction,
            delay_hist: HistSummary::from_nanos(&delay),
            groups,
            link_utils: links.utils,
            timeouts,
            leaked_flows,
            measured_s: self.measured().as_secs_f64(),
            events: world.sim.queue.events_fired(),
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{Placement, ProbeStyle, Signal};
    use netsim::{Agent, Api, FlowId, Packet, VirtualQueue};
    use std::any::Any;

    fn plan(telemetry: Option<&FlightRecorder>) -> Plan<'_> {
        Plan {
            design: Design::endpoint(Signal::Drop, Placement::InBand, ProbeStyle::SlowStart, 0.01),
            lifetime_s: 300.0,
            probe_total: SimDuration::from_secs(5),
            retry: None,
            warmup_s: 1.0,
            horizon_s: 2.0,
            drain: SimDuration::from_secs(1),
            run_config: RunConfig::default(),
            telemetry,
            seed: 1,
        }
    }

    /// Counts a send it never makes, so the books cannot balance.
    struct PhantomSender;
    impl Agent for PhantomSender {
        fn on_start(&mut self, api: &mut Api) {
            api.net.audit.injected += 1;
        }
        fn on_packet(&mut self, _pkt: Packet, _api: &mut Api) {}
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Sends `n` data and `n` probe packets to `peer` at time zero.
    struct Burst {
        peer: NodeId,
        n: u64,
    }
    impl Agent for Burst {
        fn on_start(&mut self, api: &mut Api) {
            for i in 0..2 * self.n {
                let class = [TrafficClass::Data, TrafficClass::Probe][i as usize % 2];
                let pkt = Packet::new(i, FlowId(1), api.node, self.peer, 125, class, i, api.now());
                api.send(pkt);
            }
        }
        fn on_packet(&mut self, _pkt: Packet, _api: &mut Api) {}
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn default_run_config_still_audits() {
        let recorder = FlightRecorder::new(64);
        for telemetry in [None, Some(&recorder)] {
            let mut net = Network::new();
            let a = net.add_node();
            let mut sim = Sim::new(net);
            sim.attach(a, Box::new(PhantomSender));
            let mut world = World {
                sim,
                hosts: &[],
                sinks: &[],
            };
            let Err(err) = plan(telemetry).run(&mut world, |_| ()) else {
                panic!("unbalanced books passed the audit");
            };
            assert!(matches!(err, ScenarioError::Audit(_)), "got {err}");
        }
        assert!(
            recorder.snapshot().iter().any(|e| e.kind == "audit.error"),
            "the failed audit is in the flight ring"
        );
    }

    #[test]
    fn one_link_readout_is_the_single_link_expression() {
        let mut net = Network::new();
        let (a, b) = (net.add_node(), net.add_node());
        let bps = 10_000_000;
        let qdisc = Box::new(DropTail::new(Limit::Packets(1_000)));
        let marker = VirtualQueue::new(bps, 0.9, 10.0 * 125.0);
        let link = net.add_link(a, b, bps, SimDuration::ZERO, qdisc, Some(marker));
        let mut sim = Sim::new(net);
        sim.attach(a, Box::new(Burst { peer: b, n: 50 }));
        sim.try_run_until(SimTime::from_secs(1)).unwrap();

        let links = plan(None).read_links(&sim, &[link], bps);
        let stats = &sim.net.link(link).stats;
        let data = stats.class(TrafficClass::Data);
        let data_b = data.transmitted_bytes.since_mark();
        let probe_b = stats
            .class(TrafficClass::Probe)
            .transmitted_bytes
            .since_mark();
        let probe_overhead = share(probe_b, data_b + probe_b);
        let mark_fraction = share(data.marked.since_mark(), data.transmitted.since_mark());
        assert!(probe_overhead > 0.0 && mark_fraction > 0.0);
        assert_eq!(links.probe_overhead.to_bits(), probe_overhead.to_bits());
        assert_eq!(links.mark_fraction.to_bits(), mark_fraction.to_bits());
    }
}
