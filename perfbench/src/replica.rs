//! Replicas of the library's three scenario drivers.
//!
//! `Scenario::run_full`, `MultihopScenario::run` and `CoexistScenario::run`
//! build their simulation internally and run it in one call, so the
//! benchmark can neither reach the agents and qdiscs to time them nor
//! time the run in pieces. These functions build the same world from the
//! same public pieces, in the same order and with the same RNG streams,
//! and drive it through a [`Harness`]: [`Traced`] hands the simulator
//! [`Timed`] wrappers and brackets each run-loop phase in a span;
//! [`Sliced`] adds nothing to the world and times the run loop in slices
//! of simulated time. The caller checks that every replica run yields the
//! library driver's result bit for bit before it trusts a single timing:
//! a drifted replica fails the run instead of timing the wrong simulation.
//!
//! Only the configurations the workloads use are supported; the rest is
//! refused up front.

use crate::reference;
use crate::spans::{self, Layer, Timed};
use crate::workload::Digest;
use eac::coexist::LinkSampler;
use eac::design::{effective_epsilons, Design, Group};
use eac::host::{HostAgent, HostConfig};
use eac::mbac::MbacRegistry;
use eac::probe::{Placement, ProbeStyle, Signal};
use eac::scenario::MeterAgent;
use eac::sink::{stage_grace, SinkAgent, SinkConfig};
use eac::{CoexistScenario, MultihopScenario, RunConfig, Scenario};
use netsim::{
    class_band_map, Agent, Api, Band, DropTail, Limit, LinkId, Network, NodeId, Packet, Qdisc, Sim,
    StrictPrio, TrafficClass, VirtualQueue,
};
use simcore::{SimDuration, SimRng, SimTime};
use std::any::Any;
use std::time::Instant;
use tcpsim::{TcpSenderBank, TcpSinkBank};
use traffic::Demography;

/// How a replica instruments the world it builds and drives.
pub trait Harness {
    /// Box an agent whose callbacks belong to `layer`.
    fn agent<T: Agent + 'static>(layer: Layer, agent: T) -> Box<dyn Agent>;
    /// Box a router buffer.
    fn qdisc<Q: Qdisc + 'static>(qdisc: Q) -> Box<dyn Qdisc>;
    /// Run `f`, a step of the driver outside the run loop.
    fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R;
    /// Run the loop up to `t`; `layer` names the phase.
    fn run_until(&mut self, sim: &mut Sim, layer: Layer, t: SimTime);
}

/// Every callback and every phase recorded as a span.
pub struct Traced;

impl Harness for Traced {
    fn agent<T: Agent + 'static>(layer: Layer, agent: T) -> Box<dyn Agent> {
        Timed::agent(layer, agent)
    }

    fn qdisc<Q: Qdisc + 'static>(qdisc: Q) -> Box<dyn Qdisc> {
        Timed::qdisc(qdisc)
    }

    fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
        spans::span(layer, f)
    }

    fn run_until(&mut self, sim: &mut Sim, layer: Layer, t: SimTime) {
        spans::span(layer, || sim.run_until(t));
    }
}

/// No instrumentation in the world; the run loop advances `slice` of
/// simulated time at a time, and each slice's wall-clock is taken at
/// reference speed (see `reference`) with the loop timed right after it.
/// Slice boundaries depend only on the scenario, so slice `k` does the
/// same work in every run of one scenario.
pub struct Sliced {
    slice: SimDuration,
    at: SimTime,
    before: f64,
    /// Seconds at reference speed, one per slice, in run order.
    pub times: Vec<f64>,
}

impl Sliced {
    pub fn new(slice: SimDuration) -> Self {
        Sliced {
            slice,
            at: SimTime::ZERO,
            before: reference::time(),
            times: Vec::new(),
        }
    }
}

impl Harness for Sliced {
    fn agent<T: Agent + 'static>(_: Layer, agent: T) -> Box<dyn Agent> {
        Box::new(agent)
    }

    fn qdisc<Q: Qdisc + 'static>(qdisc: Q) -> Box<dyn Qdisc> {
        Box::new(qdisc)
    }

    fn span<R>(_: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }

    fn run_until(&mut self, sim: &mut Sim, _: Layer, t: SimTime) {
        while self.at < t {
            let next = (self.at + self.slice).min(t);
            let start = Instant::now();
            sim.run_until(next);
            let wall = start.elapsed().as_secs_f64();
            let after = reference::time();
            let scale = reference::NOMINAL_S / ((self.before + after) / 2.0);
            self.before = after;
            self.times.push(wall * scale);
            self.at = next;
        }
    }
}

fn fast_link<H: Harness>(net: &mut Network, a: NodeId, b: NodeId, prop: SimDuration) -> LinkId {
    net.add_link(
        a,
        b,
        1_000_000_000,
        prop,
        H::qdisc(DropTail::new(Limit::Packets(100_000))),
        None,
    )
}

/// The single-bottleneck driver (`Scenario::run_full`).
pub fn single<H: Harness>(sc: &Scenario, h: &mut H) -> Digest {
    assert!(
        sc.control_loss == 0.0
            && sc.flaps_s.is_empty()
            && sc.retry.is_none()
            && sc.telemetry.is_none()
            && sc.run_config == RunConfig::default()
            && !matches!(sc.design, Design::Mbac { .. }),
        "configuration outside the replica's scope"
    );
    H::span(Layer::Run, || {
        let (mut sim, host_n, sink_n, bottleneck) = H::span(Layer::Build, || {
            let root = SimRng::new(sc.seed);
            let mut net = Network::new();
            let host_n = net.add_node();
            let sink_n = net.add_node();
            let _meter_n = net.add_node();
            let max_pkt = sc
                .groups
                .iter()
                .map(|g| g.source.pkt_bytes)
                .max()
                .unwrap_or(125);
            let qdisc = H::qdisc(StrictPrio::admission_queue_opts(
                Limit::Packets(sc.buffer_pkts),
                sc.design.placement() == Placement::OutOfBand,
                sc.probe_pushout,
            ));
            let buffer_bytes = sc.buffer_pkts as u32 * max_pkt;
            let marker = match sc.design.signal() {
                Signal::Mark => Some(VirtualQueue::new(
                    sc.link_bps,
                    sc.vq_factor,
                    buffer_bytes as f64,
                )),
                Signal::Drop => None,
            };
            let prop = SimDuration::from_secs_f64(sc.prop_delay_ms / 1_000.0);
            let bottleneck = net.add_link(host_n, sink_n, sc.link_bps, prop, qdisc, marker);
            fast_link::<H>(&mut net, sink_n, host_n, prop);
            let mut sim = Sim::new(net);

            let horizon = SimTime::from_secs_f64(sc.horizon_s);
            let probe_total = SimDuration::from_secs_f64(sc.probe_total_s);
            let host_cfg = HostConfig {
                sink: sink_n,
                design: sc.design,
                groups: sc.groups.clone(),
                demography: Demography::new(sc.tau_s, sc.lifetime_s),
                probe_total,
                mbac_path: vec![bottleneck],
                stop_arrivals_at: horizon,
                start_arrivals_at: SimTime::ZERO,
                retry: None,
                verdict_timeout: None,
                measure_start: SimTime::from_secs_f64(sc.warmup_s),
                measure_end: horizon,
            };
            sim.attach(
                host_n,
                H::agent(Layer::Host, HostAgent::new(host_cfg, root.derive(1))),
            );
            let sink_cfg = SinkConfig {
                signal: sc.design.signal(),
                eps_per_group: effective_epsilons(&sc.design, &sc.groups),
                grace: stage_grace(buffer_bytes as u64, sc.link_bps, prop),
                flow_ttl: probe_total * 2 + SimDuration::from_secs(60),
            };
            sim.attach(sink_n, H::agent(Layer::Sink, SinkAgent::new(sink_cfg)));
            (sim, host_n, sink_n, bottleneck)
        });

        let horizon = SimTime::from_secs_f64(sc.horizon_s);
        h.run_until(&mut sim, Layer::Warmup, SimTime::from_secs_f64(sc.warmup_s));
        mark_all(&mut sim, &[host_n], &[sink_n]);
        h.run_until(&mut sim, Layer::Measure, horizon);
        let measured = SimDuration::from_secs_f64(sc.horizon_s - sc.warmup_s);
        let util =
            sim.net
                .link(bottleneck)
                .stats
                .utilization(TrafficClass::Data, sc.link_bps, measured);
        h.run_until(&mut sim, Layer::Drain, horizon + SimDuration::from_secs(5));
        H::span(Layer::Collect, || {
            let all = |v: &[simcore::stats::Counter]| v.iter().map(|c| c.since_mark()).sum::<u64>();
            let host = sim.agent::<HostAgent>(host_n).expect("host");
            let (decided, accepted, sent) = (
                all(&host.stats.decided),
                all(&host.stats.accepted),
                all(&host.stats.data_sent),
            );
            let received = all(&sim
                .agent::<SinkAgent>(sink_n)
                .expect("sink")
                .stats
                .data_received);
            Digest::of_run(
                sim.queue.events_fired(),
                decided,
                accepted,
                sent,
                received,
                util,
            )
        })
    })
}

fn mark_all(sim: &mut Sim, hosts: &[NodeId], sinks: &[NodeId]) {
    for l in sim.net.links_mut() {
        l.stats.mark_all();
    }
    for &h in hosts {
        sim.agent::<HostAgent>(h).expect("host").stats.mark_all();
    }
    for &s in sinks {
        sim.agent::<SinkAgent>(s).expect("sink").stats.mark_all();
    }
}

/// The three-hop driver (`MultihopScenario::run`).
pub fn multihop<H: Harness>(sc: &MultihopScenario, h: &mut H) -> Digest {
    assert!(
        sc.run_config == RunConfig::default(),
        "configuration outside the replica's scope"
    );
    H::span(Layer::Run, || {
        let (mut sim, hosts, sinks, backbone) = H::span(Layer::Build, || {
            let root = SimRng::new(sc.seed);
            let prop = SimDuration::from_secs_f64(sc.prop_delay_ms / 1_000.0);
            let mut net = Network::new();
            let routers: Vec<NodeId> = net.add_nodes(4);
            let long_host = net.add_node();
            let long_sink = net.add_node();
            let cross_hosts: Vec<NodeId> = net.add_nodes(3);
            let cross_sinks: Vec<NodeId> = net.add_nodes(3);
            let meter_n = net.add_node();

            let mut backbone = Vec::new();
            for i in 0..3 {
                let qdisc = H::qdisc(StrictPrio::admission_queue(
                    Limit::Packets(sc.buffer_pkts),
                    sc.design.placement() == Placement::OutOfBand,
                ));
                let marker = match sc.design.signal() {
                    Signal::Mark => Some(VirtualQueue::new(
                        sc.link_bps,
                        sc.vq_factor,
                        (sc.buffer_pkts as u32 * sc.source.pkt_bytes) as f64,
                    )),
                    Signal::Drop => None,
                };
                backbone.push(net.add_link(
                    routers[i],
                    routers[i + 1],
                    sc.link_bps,
                    prop,
                    qdisc,
                    marker,
                ));
                fast_link::<H>(&mut net, routers[i + 1], routers[i], prop);
            }
            fast_link::<H>(&mut net, long_host, routers[0], prop);
            fast_link::<H>(&mut net, routers[0], long_host, prop);
            fast_link::<H>(&mut net, routers[3], long_sink, prop);
            fast_link::<H>(&mut net, long_sink, routers[3], prop);
            for i in 0..3 {
                fast_link::<H>(&mut net, cross_hosts[i], routers[i], prop);
                fast_link::<H>(&mut net, routers[i], cross_hosts[i], prop);
                fast_link::<H>(&mut net, routers[i + 1], cross_sinks[i], prop);
                fast_link::<H>(&mut net, cross_sinks[i], routers[i + 1], prop);
            }

            let mut sim = Sim::new(net);
            if let Design::Mbac { eta } = sc.design {
                let mut reg = MbacRegistry::new(eta);
                for &l in &backbone {
                    reg.register(l, sc.link_bps as f64, SimDuration::from_secs(1));
                }
                sim.net.blackboard = Some(Box::new(reg));
                sim.attach(
                    meter_n,
                    H::agent(
                        Layer::Monitor,
                        MeterAgent {
                            period: SimDuration::from_millis(100),
                        },
                    ),
                );
            }

            let horizon = SimTime::from_secs_f64(sc.horizon_s);
            let buffer_bytes = (sc.buffer_pkts as u32 * sc.source.pkt_bytes) as u64;
            let grace = stage_grace(buffer_bytes, sc.link_bps, prop) * 3;
            let names = ["cross-0", "cross-1", "cross-2", "long"];
            let groups_with = |own: usize| -> Vec<Group> {
                names
                    .iter()
                    .enumerate()
                    .map(|(i, n)| {
                        let w = if i == own { 1.0 } else { 1e-12 };
                        Group::new(*n, sc.source.clone(), w)
                    })
                    .collect()
            };
            let eps4 = effective_epsilons(
                &sc.design,
                &names
                    .iter()
                    .map(|n| Group::new(*n, sc.source.clone(), 1.0))
                    .collect::<Vec<_>>(),
            );
            let host_cfg = |sink: NodeId, tau: f64, own: usize, path: Vec<LinkId>| HostConfig {
                sink,
                design: sc.design,
                groups: groups_with(own),
                demography: Demography::new(tau, sc.lifetime_s),
                probe_total: SimDuration::from_secs_f64(sc.probe_total_s),
                mbac_path: path,
                stop_arrivals_at: horizon,
                start_arrivals_at: SimTime::ZERO,
                retry: None,
                verdict_timeout: None,
                measure_start: SimTime::from_secs_f64(sc.warmup_s),
                measure_end: horizon,
            };
            let sink = || {
                H::agent(
                    Layer::Sink,
                    SinkAgent::new(SinkConfig {
                        signal: sc.design.signal(),
                        eps_per_group: eps4.clone(),
                        grace,
                        flow_ttl: SimDuration::from_secs_f64(sc.probe_total_s * 2.0 + 60.0),
                    }),
                )
            };
            for i in 0..3 {
                let cfg = host_cfg(cross_sinks[i], sc.tau_cross_s, i, vec![backbone[i]]);
                let host = HostAgent::new(cfg, root.derive(10 + i as u64));
                sim.attach(cross_hosts[i], H::agent(Layer::Host, host));
                sim.attach(cross_sinks[i], sink());
            }
            let cfg = host_cfg(long_sink, sc.tau_long_s, 3, backbone.clone());
            let host = HostAgent::new(cfg, root.derive(20));
            sim.attach(long_host, H::agent(Layer::Host, host));
            sim.attach(long_sink, sink());

            let hosts = [cross_hosts[0], cross_hosts[1], cross_hosts[2], long_host];
            let sinks = [cross_sinks[0], cross_sinks[1], cross_sinks[2], long_sink];
            (sim, hosts, sinks, backbone)
        });

        let horizon = SimTime::from_secs_f64(sc.horizon_s);
        h.run_until(&mut sim, Layer::Warmup, SimTime::from_secs_f64(sc.warmup_s));
        mark_all(&mut sim, &hosts, &sinks);
        h.run_until(&mut sim, Layer::Measure, horizon);
        let measured = SimDuration::from_secs_f64(sc.horizon_s - sc.warmup_s);
        let util = backbone
            .iter()
            .map(|&l| {
                sim.net
                    .link(l)
                    .stats
                    .utilization(TrafficClass::Data, sc.link_bps, measured)
            })
            .sum::<f64>()
            / backbone.len() as f64;
        h.run_until(&mut sim, Layer::Drain, horizon + SimDuration::from_secs(5));
        H::span(Layer::Collect, || {
            let (mut decided, mut accepted, mut sent, mut received) = (0, 0, 0, 0);
            for gi in 0..4 {
                let h = sim.agent::<HostAgent>(hosts[gi]).expect("host");
                decided += h.stats.decided[gi].since_mark();
                accepted += h.stats.accepted[gi].since_mark();
                sent += h.stats.data_sent[gi].since_mark();
                let s = sim.agent::<SinkAgent>(sinks[gi]).expect("sink");
                received += s.stats.data_received[gi].since_mark();
            }
            Digest::of_run(
                sim.queue.events_fired(),
                decided,
                accepted,
                sent,
                received,
                util,
            )
        })
    })
}

/// The legacy-router driver (`CoexistScenario::run`).
pub fn coexist<H: Harness>(sc: &CoexistScenario, h: &mut H) -> Digest {
    H::span(Layer::Run, || {
        let (mut sim, eac_host, sampler_n) = H::span(Layer::Build, || {
            let root = SimRng::new(sc.seed);
            let prop = SimDuration::from_secs_f64(sc.prop_delay_ms / 1_000.0);
            let mut net = Network::new();
            let eac_host = net.add_node();
            let tcp_host = net.add_node();
            let router = net.add_node();
            let dst = net.add_node();
            let sampler_n = net.add_node();
            let access = SimDuration::from_micros(100);
            fast_link::<H>(&mut net, eac_host, router, access);
            fast_link::<H>(&mut net, tcp_host, router, access);
            fast_link::<H>(&mut net, router, eac_host, access);
            fast_link::<H>(&mut net, router, tcp_host, access);
            fast_link::<H>(&mut net, dst, router, access);
            let legacy = StrictPrio::new(
                vec![
                    Band { limit: None },
                    Band {
                        limit: Some(Limit::Packets(sc.buffer_pkts)),
                    },
                ],
                class_band_map(0, 1, 1, 1),
            );
            let bottleneck = net.add_link(router, dst, sc.link_bps, prop, H::qdisc(legacy), None);
            let mut sim = Sim::new(net);

            let horizon = SimTime::from_secs_f64(sc.horizon_s);
            let host_cfg = HostConfig {
                sink: dst,
                design: Design::endpoint(
                    Signal::Drop,
                    Placement::InBand,
                    ProbeStyle::SlowStart,
                    sc.epsilon,
                ),
                groups: vec![Group::new("EXP1", traffic::SourceSpec::exp1(), 1.0)],
                demography: Demography::new(sc.tau_s, sc.lifetime_s),
                probe_total: SimDuration::from_secs(5),
                mbac_path: vec![],
                stop_arrivals_at: horizon,
                start_arrivals_at: SimTime::from_secs_f64(sc.eac_start_s),
                retry: None,
                verdict_timeout: None,
                measure_start: SimTime::ZERO,
                measure_end: horizon,
            };
            sim.attach(
                eac_host,
                H::agent(Layer::Host, HostAgent::new(host_cfg, root.derive(1))),
            );
            sim.attach(
                tcp_host,
                H::agent(
                    Layer::Tcp,
                    TcpSenderBank::new(dst, sc.n_tcp, sc.tcp_pkt_bytes, 1 << 48, SimTime::ZERO),
                ),
            );
            let buffer_bytes = (sc.buffer_pkts as u32 * sc.tcp_pkt_bytes) as u64;
            let sink_cfg = SinkConfig {
                signal: Signal::Drop,
                eps_per_group: vec![sc.epsilon],
                grace: stage_grace(buffer_bytes, sc.link_bps, prop),
                flow_ttl: SimDuration::from_secs(70),
            };
            sim.attach(
                dst,
                Box::new(CombinedSink {
                    eac: H::agent(Layer::Sink, SinkAgent::new(sink_cfg)),
                    tcp: H::agent(Layer::Tcp, TcpSinkBank::new()),
                }),
            );
            sim.attach(
                sampler_n,
                H::agent(
                    Layer::Monitor,
                    LinkSampler::new(bottleneck, SimDuration::from_secs(10), sc.link_bps),
                ),
            );
            (sim, eac_host, sampler_n)
        });

        h.run_until(
            &mut sim,
            Layer::Measure,
            SimTime::from_secs_f64(sc.horizon_s),
        );
        H::span(Layer::Collect, || {
            let series = sim
                .agent::<LinkSampler>(sampler_n)
                .expect("sampler")
                .series
                .clone();
            let blocking = sim
                .agent::<HostAgent>(eac_host)
                .expect("host")
                .stats
                .blocking();
            let mut d = Digest::of_coexist(sc, &series, blocking);
            d.events = Some(sim.queue.events_fired());
            d
        })
    })
}

/// The destination node of Fig 11: the EAC sink and the TCP receivers,
/// multiplexed by flow-id space exactly as the library's private
/// `CombinedSink` does, each half boxed by the harness at its own layer.
struct CombinedSink {
    eac: Box<dyn Agent>,
    tcp: Box<dyn Agent>,
}

impl Agent for CombinedSink {
    fn on_packet(&mut self, pkt: Packet, api: &mut Api) {
        if pkt.flow.0 >= (1 << 48) {
            self.tcp.on_packet(pkt, api);
        } else {
            self.eac.on_packet(pkt, api);
        }
    }

    fn on_timer(&mut self, kind: u32, data: u64, api: &mut Api) {
        self.eac.on_timer(kind, data, api);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}
