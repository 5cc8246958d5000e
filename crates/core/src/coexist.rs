//! Incremental deployment: coexistence with TCP at a legacy router
//! (§4.7, Fig 11).
//!
//! At a legacy router there is no DiffServ class for admission-controlled
//! traffic: probes, admission-controlled data, and TCP share one
//! drop-tail FIFO. Twenty long-lived TCP Reno flows start at t = 0;
//! admission-controlled traffic (EXP1, in-band dropping) starts 50 s
//! later. The question is whether the probers either share fairly with
//! TCP or surrender gracefully — and the paper finds a critical ε below
//! which TCP-induced loss locks the admission-controlled traffic out.
//!
//! One modelling note: the verdict/stage-report control packets ride a
//! tiny strict-priority band rather than the shared FIFO, standing in for
//! the reliable signalling a real implementation would run over TCP;
//! control traffic is ~0.1% of the link so the distortion is negligible.

use crate::design::{Design, Group};
use crate::driver::{fast_link, Plan, World};
use crate::host::HostAgent;
use crate::probe::{Placement, ProbeStyle, Signal};
use crate::scenario::RunConfig;
use crate::sink::{stage_grace, SinkAgent};
use netsim::{
    class_band_map, Agent, Api, Band, Limit, LinkId, Network, Packet, Sim, StrictPrio, TrafficClass,
};
use serde::Serialize;
use simcore::{SimDuration, SimRng, SimTime};
use std::any::Any;
use tcpsim::{TcpSenderBank, TcpSinkBank};
use traffic::SourceSpec;

/// Samples per-class throughput on one link at a fixed interval.
pub struct LinkSampler {
    /// Link to watch.
    pub link: LinkId,
    /// Sampling interval (Fig 11 uses 10 s).
    pub interval: SimDuration,
    /// Reference bandwidth for utilization.
    pub ref_bps: u64,
    last_tcp: u64,
    last_eac: u64,
    /// (time s, TCP utilization, admission-controlled data utilization).
    pub series: Vec<(f64, f64, f64)>,
}

impl LinkSampler {
    /// New sampler (attach to any node).
    pub fn new(link: LinkId, interval: SimDuration, ref_bps: u64) -> Self {
        LinkSampler {
            link,
            interval,
            ref_bps,
            last_tcp: 0,
            last_eac: 0,
            series: Vec::new(),
        }
    }
}

impl Agent for LinkSampler {
    fn on_start(&mut self, api: &mut Api) {
        api.timer_in(self.interval, 0, 0);
    }

    fn on_packet(&mut self, _pkt: Packet, _api: &mut Api) {}

    fn on_timer(&mut self, _kind: u32, _data: u64, api: &mut Api) {
        let stats = &api.net.link(self.link).stats;
        let tcp = stats
            .class(TrafficClass::BestEffort)
            .transmitted_bytes
            .total();
        let eac = stats.class(TrafficClass::Data).transmitted_bytes.total();
        let dt = self.interval.as_secs_f64();
        let denom = self.ref_bps as f64 * dt;
        self.series.push((
            api.now().as_secs_f64(),
            (tcp - self.last_tcp) as f64 * 8.0 / denom,
            (eac - self.last_eac) as f64 * 8.0 / denom,
        ));
        self.last_tcp = tcp;
        self.last_eac = eac;
        api.timer_in(self.interval, 0, 0);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Results of one coexistence run.
#[derive(Clone, Debug, Serialize)]
pub struct CoexistReport {
    /// Acceptance threshold ε.
    pub epsilon: f64,
    /// (time s, TCP utilization, admission-controlled utilization) per
    /// 10-second bucket.
    pub series: Vec<(f64, f64, f64)>,
    /// Mean TCP utilization over the steady tail (after both populations
    /// started).
    pub tcp_util: f64,
    /// Mean admission-controlled data utilization over the same tail.
    pub eac_util: f64,
    /// Admission-controlled blocking probability.
    pub blocking: f64,
}

/// Configuration of the Fig 11 experiment.
#[derive(Clone, Debug)]
pub struct CoexistScenario {
    /// Acceptance threshold ε for the in-band dropping endpoints.
    pub epsilon: f64,
    /// Number of TCP Reno flows (Fig 11: 20).
    pub n_tcp: usize,
    /// Shared legacy link bandwidth, bits/s.
    pub link_bps: u64,
    /// Shared buffer, packets.
    pub buffer_pkts: usize,
    /// Propagation delay, ms.
    pub prop_delay_ms: f64,
    /// TCP segment size, bytes.
    pub tcp_pkt_bytes: u32,
    /// Admission-controlled arrivals: mean interarrival, seconds.
    pub tau_s: f64,
    /// Admission-controlled mean lifetime, seconds.
    pub lifetime_s: f64,
    /// When admission-controlled traffic starts (Fig 11: 50 s).
    pub eac_start_s: f64,
    /// Horizon, seconds.
    pub horizon_s: f64,
    /// Tail start for the mean utilizations, seconds.
    pub steady_after_s: f64,
    /// RNG seed.
    pub seed: u64,
}

impl CoexistScenario {
    /// Fig 11 defaults (shortened horizon; the paper runs 14 000 s).
    pub fn fig11(epsilon: f64) -> Self {
        CoexistScenario {
            epsilon,
            n_tcp: 20,
            link_bps: 10_000_000,
            buffer_pkts: 200,
            prop_delay_ms: 20.0,
            tcp_pkt_bytes: 1_000,
            tau_s: 3.5,
            lifetime_s: 300.0,
            eac_start_s: 50.0,
            horizon_s: 2_000.0,
            steady_after_s: 500.0,
            seed: 1,
        }
    }

    /// Set the horizon.
    pub fn horizon_secs(mut self, s: f64) -> Self {
        self.horizon_s = s;
        self
    }

    /// Set the seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Set when the steady-state tail (for the mean utilizations) starts.
    pub fn steady_after_secs(mut self, s: f64) -> Self {
        self.steady_after_s = s;
        self
    }

    /// Build and run. Panics if the run fails its packet-conservation
    /// audit.
    pub fn run(&self) -> CoexistReport {
        // No warm-up and no drain: the sampler's buckets cover the whole
        // run and the tail means pick the window.
        let plan = Plan {
            design: Design::endpoint(
                Signal::Drop,
                Placement::InBand,
                ProbeStyle::SlowStart,
                self.epsilon,
            ),
            lifetime_s: self.lifetime_s,
            probe_total: SimDuration::from_secs(5),
            retry: None,
            warmup_s: 0.0,
            horizon_s: self.horizon_s,
            drain: SimDuration::ZERO,
            run_config: RunConfig::default(),
            telemetry: None,
            seed: self.seed,
        };
        let root = SimRng::new(self.seed);
        let prop = SimDuration::from_secs_f64(self.prop_delay_ms / 1_000.0);

        let mut net = Network::new();
        let eac_host = net.add_node();
        let tcp_host = net.add_node();
        let router = net.add_node();
        let dst = net.add_node(); // EAC sink + TCP receivers
        let sampler_n = net.add_node();

        let access = SimDuration::from_micros(100);
        for (a, b) in [
            (eac_host, router),
            (tcp_host, router),
            (router, eac_host),
            (router, tcp_host),
            (dst, router),
        ] {
            fast_link(&mut net, a, b, access);
        }

        // The legacy bottleneck: control in a tiny priority band (see
        // module docs), everything else in one shared drop-tail FIFO.
        let legacy = StrictPrio::new(
            vec![
                Band { limit: None },
                Band {
                    limit: Some(Limit::Packets(self.buffer_pkts)),
                },
            ],
            class_band_map(0, 1, 1, 1),
        );
        let bottleneck = net.add_link(router, dst, self.link_bps, prop, Box::new(legacy), None);

        let mut sim = Sim::new(net);
        let mut host_cfg = plan.host(
            dst,
            vec![Group::new("EXP1", SourceSpec::exp1(), 1.0)],
            self.tau_s,
            vec![],
        );
        host_cfg.start_arrivals_at = SimTime::from_secs_f64(self.eac_start_s);
        sim.attach(eac_host, Box::new(HostAgent::new(host_cfg, root.derive(1))));
        sim.attach(
            tcp_host,
            Box::new(TcpSenderBank::new(
                dst,
                self.n_tcp,
                self.tcp_pkt_bytes,
                1 << 48,
                SimTime::ZERO,
            )),
        );
        // The destination node must serve both the EAC sink protocol and
        // TCP acking; CombinedSink multiplexes by flow-id space.
        let buffer_bytes = (self.buffer_pkts as u32 * self.tcp_pkt_bytes) as u64;
        let sink_cfg = plan.sink(
            vec![self.epsilon],
            stage_grace(buffer_bytes, self.link_bps, prop),
        );
        sim.attach(
            dst,
            Box::new(CombinedSink {
                eac: SinkAgent::new(sink_cfg),
                tcp: TcpSinkBank::new(),
            }),
        );
        sim.attach(
            sampler_n,
            Box::new(LinkSampler::new(
                bottleneck,
                SimDuration::from_secs(10),
                self.link_bps,
            )),
        );

        // The report reads the sampler and the host directly, so the
        // window marks no endpoint.
        let mut world = World {
            sim,
            hosts: &[],
            sinks: &[],
        };
        if let Err(e) = plan.run(&mut world, |_| ()) {
            panic!("{e}");
        }
        let sim = &mut world.sim;

        let series = {
            let s = sim.agent::<LinkSampler>(sampler_n).expect("sampler");
            s.series.clone()
        };
        let tail: Vec<&(f64, f64, f64)> = series
            .iter()
            .filter(|(t, _, _)| *t >= self.steady_after_s)
            .collect();
        let n = tail.len().max(1) as f64;
        let tcp_util = tail.iter().map(|(_, t, _)| t).sum::<f64>() / n;
        let eac_util = tail.iter().map(|(_, _, e)| e).sum::<f64>() / n;
        let blocking = {
            let h = sim.agent::<HostAgent>(eac_host).expect("host");
            h.stats.blocking()
        };

        CoexistReport {
            epsilon: self.epsilon,
            series,
            tcp_util,
            eac_util,
            blocking,
        }
    }
}

/// The destination-node agent: an EAC sink and a TCP receiver bank glued
/// together. TCP flow ids live at `1 << 48` and above; everything below
/// belongs to the admission-controlled population.
struct CombinedSink {
    eac: SinkAgent,
    tcp: TcpSinkBank,
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
        // Only the EAC sink arms timers.
        self.eac.on_timer(kind, data, api);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_alone_takes_the_link() {
        // With ε = 0 the TCP-induced loss should lock admission-controlled
        // traffic out (the paper's key observation for small ε).
        let r = CoexistScenario::fig11(0.0)
            .horizon_secs(400.0)
            .steady_after_secs(150.0)
            .seed(2)
            .run();
        assert!(r.tcp_util > 0.7, "tcp util {}", r.tcp_util);
        assert!(r.eac_util < 0.15, "eac util {}", r.eac_util);
        assert!(r.blocking > 0.8, "blocking {}", r.blocking);
    }

    #[test]
    fn large_epsilon_claims_a_share() {
        let r = CoexistScenario::fig11(0.10)
            .horizon_secs(400.0)
            .steady_after_secs(150.0)
            .seed(2)
            .run();
        // With a permissive threshold the admission-controlled traffic
        // must obtain a visible share and TCP must cede some bandwidth.
        assert!(r.eac_util > 0.1, "eac util {}", r.eac_util);
        assert!(r.tcp_util < 0.95, "tcp util {}", r.tcp_util);
    }

    #[test]
    fn shares_roughly_sum_to_link() {
        let r = CoexistScenario::fig11(0.10)
            .horizon_secs(400.0)
            .steady_after_secs(150.0)
            .seed(3)
            .run();
        let total = r.tcp_util + r.eac_util;
        assert!(total > 0.7 && total < 1.05, "total {total}");
    }
}
