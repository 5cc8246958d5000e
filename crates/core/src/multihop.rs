//! The multi-link topology of §4.6 (Fig 10, Tables 5 and 6).
//!
//! A linear backbone of four routers R0–R3 with three congested 10 Mbps
//! links. *Long* flows traverse all three backbone links; three *cross*
//! populations each enter at Ri, cross one backbone link, and exit at
//! R(i+1). Access links are fast and uncongested. The experiment measures
//! whether multi-hop probing degrades admission accuracy (Table 5: per-
//! class loss) and how blocking compares with the per-hop product
//! approximation (Table 6).
//!
//! Layout (12 nodes):
//!
//! ```text
//!  HL ──▶ R0 ──▶ R1 ──▶ R2 ──▶ R3 ──▶ SL      (long path: 3 congested hops)
//!         ▲      ▲▼     ▲▼     ▼
//!        HC0    SC0,HC1 SC1,HC2 SC2           (cross: 1 congested hop each)
//! ```

use crate::design::{effective_epsilons, Design, Group};
use crate::driver::{fast_link, Plan, World};
use crate::host::HostAgent;
use crate::metrics::Report;
use crate::probe::{Placement, Signal};
use crate::scenario::{RunConfig, RunOutput, ScenarioError};
use crate::sink::{stage_grace, SinkAgent};
use netsim::{Limit, LinkId, Network, NodeId, Sim, StrictPrio, VirtualQueue};
use simcore::{SimDuration, SimRng};
use telemetry::FlightRecorder;
use traffic::SourceSpec;

/// Configuration of the multi-hop experiment.
#[derive(Clone, Debug)]
pub struct MultihopScenario {
    /// Admission-control design under test.
    pub design: Design,
    /// Source model for every population (the paper uses EXP1).
    pub source: SourceSpec,
    /// Mean interarrival of the long-flow population, seconds.
    pub tau_long_s: f64,
    /// Mean interarrival of each cross population, seconds.
    pub tau_cross_s: f64,
    /// Mean flow lifetime, seconds.
    pub lifetime_s: f64,
    /// Backbone link bandwidth, bits/s.
    pub link_bps: u64,
    /// Backbone buffer, packets.
    pub buffer_pkts: usize,
    /// Per-backbone-hop propagation delay, milliseconds.
    pub prop_delay_ms: f64,
    /// Total probing time.
    pub probe_total_s: f64,
    /// Virtual-queue factor for marking designs.
    pub vq_factor: f64,
    /// Simulation horizon, seconds.
    pub horizon_s: f64,
    /// Warm-up, seconds.
    pub warmup_s: f64,
    /// RNG seed.
    pub seed: u64,
    /// Event budget and verdict timeout (see [`RunConfig`]).
    pub run_config: RunConfig,
    /// Telemetry capture into this flight ring, as for
    /// [`Scenario::telemetry`](crate::scenario::Scenario::telemetry).
    pub telemetry: Option<FlightRecorder>,
}

impl MultihopScenario {
    /// Defaults matching Tables 5–6: EXP1 everywhere, ε = 0, three
    /// congested 10 Mbps hops. The cross/long arrival rates are chosen to
    /// put each backbone link at a similar operating point to the paper's
    /// (single-hop blocking in the 0.2–0.35 range).
    pub fn tables56() -> Self {
        MultihopScenario {
            design: Design::endpoint(
                Signal::Drop,
                Placement::InBand,
                crate::probe::ProbeStyle::SlowStart,
                0.0,
            ),
            source: SourceSpec::exp1(),
            tau_long_s: 7.0,
            tau_cross_s: 7.0,
            lifetime_s: 300.0,
            link_bps: 10_000_000,
            buffer_pkts: 200,
            prop_delay_ms: 5.0,
            probe_total_s: 5.0,
            vq_factor: 0.9,
            horizon_s: 3_000.0,
            warmup_s: 500.0,
            seed: 1,
            run_config: RunConfig::default(),
            telemetry: None,
        }
    }

    /// Set the design.
    pub fn design(mut self, d: Design) -> Self {
        self.design = d;
        self
    }

    /// Set the horizon.
    pub fn horizon_secs(mut self, s: f64) -> Self {
        self.horizon_s = s;
        self
    }

    /// Set the warm-up.
    pub fn warmup_secs(mut self, s: f64) -> Self {
        self.warmup_s = s;
        self
    }

    /// Set the seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Cap total simulation events (event-storm watchdog).
    pub fn event_budget(mut self, budget: u64) -> Self {
        self.run_config.event_budget = Some(budget);
        self
    }

    /// Build and run; returns a [`Report`] whose groups are
    /// `cross-0`, `cross-1`, `cross-2`, `long` (in that order), with
    /// `link_utils` holding the three backbone utilizations — or a
    /// graceful error: an exhausted event budget or a failed conservation
    /// audit over the whole 13-node topology.
    pub fn run(&self) -> Result<Report, ScenarioError> {
        self.run_full().map(|o| o.report)
    }

    /// Like [`run`](MultihopScenario::run), but also returns the
    /// telemetry hub when the scenario has a flight recorder.
    pub fn run_full(&self) -> Result<RunOutput, ScenarioError> {
        let plan = Plan {
            design: self.design,
            lifetime_s: self.lifetime_s,
            probe_total: SimDuration::from_secs_f64(self.probe_total_s),
            retry: None,
            warmup_s: self.warmup_s,
            horizon_s: self.horizon_s,
            drain: SimDuration::from_secs(5),
            run_config: self.run_config,
            telemetry: self.telemetry.as_ref(),
            seed: self.seed,
        };
        let root = SimRng::new(self.seed);
        let prop = SimDuration::from_secs_f64(self.prop_delay_ms / 1_000.0);

        let mut net = Network::new();
        let routers: Vec<NodeId> = net.add_nodes(4);
        let long_host = net.add_node();
        let long_sink = net.add_node();
        let cross_hosts: Vec<NodeId> = net.add_nodes(3);
        let cross_sinks: Vec<NodeId> = net.add_nodes(3);
        let meter_n = net.add_node();

        // Congested backbone (forward); fast reverse for verdicts.
        let buffer_bytes = (self.buffer_pkts as u32 * self.source.pkt_bytes) as u64;
        let mut backbone: Vec<LinkId> = Vec::new();
        for i in 0..3 {
            let qdisc = Box::new(StrictPrio::admission_queue(
                Limit::Packets(self.buffer_pkts),
                self.design.placement() == Placement::OutOfBand,
            ));
            let marker = match self.design.signal() {
                Signal::Mark => Some(VirtualQueue::new(
                    self.link_bps,
                    self.vq_factor,
                    buffer_bytes as f64,
                )),
                Signal::Drop => None,
            };
            let l = net.add_link(
                routers[i],
                routers[i + 1],
                self.link_bps,
                prop,
                qdisc,
                marker,
            );
            backbone.push(l);
            fast_link(&mut net, routers[i + 1], routers[i], prop);
        }
        // Access links (both directions, fast).
        let mut access = vec![(long_host, routers[0]), (routers[3], long_sink)];
        for i in 0..3 {
            access.push((cross_hosts[i], routers[i]));
            access.push((routers[i + 1], cross_sinks[i]));
        }
        for (a, b) in access {
            fast_link(&mut net, a, b, prop);
            fast_link(&mut net, b, a, prop);
        }

        let mut sim = Sim::new(net);
        plan.install_mbac(&mut sim, meter_n, &backbone, self.link_bps);

        // Every host carries the same 4-slot group list so group indices
        // line up at every sink; the slots other than its own weigh 1e-12,
        // which no arrival draws.
        let names = ["cross-0", "cross-1", "cross-2", "long"];
        let groups = |own: usize| -> Vec<Group> {
            names
                .iter()
                .enumerate()
                .map(|(i, n)| {
                    let w = if i == own { 1.0 } else { 1e-12 };
                    Group::new(*n, self.source.clone(), w)
                })
                .collect()
        };
        let eps = effective_epsilons(&self.design, &groups(0));
        // Long flows may queue at each of 3 hops: scale the grace period.
        let grace = stage_grace(buffer_bytes, self.link_bps, prop) * 3;
        let hosts = [cross_hosts[0], cross_hosts[1], cross_hosts[2], long_host];
        let sinks = [cross_sinks[0], cross_sinks[1], cross_sinks[2], long_sink];
        for g in 0..4 {
            let (tau, path, stream) = if g < 3 {
                (self.tau_cross_s, vec![backbone[g]], 10 + g as u64)
            } else {
                (self.tau_long_s, backbone.clone(), 20)
            };
            let cfg = plan.host(sinks[g], groups(g), tau, path);
            sim.attach(hosts[g], Box::new(HostAgent::new(cfg, root.derive(stream))));
            let sink = SinkAgent::new(plan.sink(eps.clone(), grace));
            sim.attach(sinks[g], Box::new(sink));
        }

        let mut world = World {
            sim,
            hosts: &hosts,
            sinks: &sinks,
        };
        let (links, telemetry) = plan.run(&mut world, |sim| {
            plan.read_links(sim, &backbone, self.link_bps)
        })?;
        let report = plan.report(&mut world, names.map(String::from), links);
        Ok(RunOutput { report, telemetry })
    }
}

/// The per-hop product approximation of Table 6: if short flows at the
/// three hops are accepted with probabilities `a_i`, uncorrelated per-hop
/// decisions would accept long flows with probability `a_0·a_1·a_2` —
/// i.e. block them with `1 − Π(1 − b_i)`.
pub fn product_blocking(cross_blocking: &[f64]) -> f64 {
    1.0 - cross_blocking.iter().map(|b| 1.0 - b).product::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn product_approximation_math() {
        // Paper Table 6 (MBAC row): b = .307/.259/.286 -> product .633.
        let p = product_blocking(&[0.307, 0.259, 0.286]);
        assert!((p - 0.6329).abs() < 1e-3, "{p}");
        assert_eq!(product_blocking(&[0.0, 0.0, 0.0]), 0.0);
        assert!((product_blocking(&[1.0, 0.0, 0.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multihop_runs_and_long_flows_suffer_more() {
        let r = MultihopScenario::tables56()
            .horizon_secs(600.0)
            .warmup_secs(150.0)
            .seed(3)
            .run()
            .unwrap();
        assert_eq!(r.groups.len(), 4);
        let long = &r.groups[3];
        let cross_avg = (r.groups[0].blocking + r.groups[1].blocking + r.groups[2].blocking) / 3.0;
        assert!(long.decided > 10, "long decided {}", long.decided);
        // Long flows fight three congested hops: they must block at least
        // as often as the average cross population.
        assert!(
            long.blocking >= cross_avg * 0.8,
            "long {} vs cross {}",
            long.blocking,
            cross_avg
        );
        assert!(r.link_utils.iter().all(|&u| u > 0.1), "{:?}", r.link_utils);
    }

    #[test]
    fn marking_run_reads_its_backbone_links() {
        let d = Design::endpoint(
            Signal::Mark,
            Placement::InBand,
            crate::probe::ProbeStyle::SlowStart,
            0.05,
        );
        let r = MultihopScenario::tables56()
            .design(d)
            .horizon_secs(400.0)
            .warmup_secs(100.0)
            .seed(3)
            .run()
            .unwrap();
        assert!(
            r.probe_overhead > 0.0,
            "probe overhead {}",
            r.probe_overhead
        );
        assert!(r.mark_fraction > 0.0, "mark fraction {}", r.mark_fraction);
    }

    #[test]
    fn exhausted_event_budget_is_an_error() {
        let r = MultihopScenario::tables56().event_budget(50).run();
        assert!(
            matches!(
                r,
                Err(ScenarioError::Run(netsim::RunError::EventBudgetExceeded {
                    budget: 50,
                    ..
                }))
            ),
            "{r:?}"
        );
    }
}
