//! The workloads: which scenario a run simulates, how it is made from
//! the seed, and what its result must satisfy.
//!
//! Each workload is one cell of an experiment target, run with the
//! paper's traffic parameters (300 s lifetimes, 5 s probes, the target's
//! arrival rate) over the run length `experiments --quick` gives it, so
//! the benchmark times the same traffic the reproduction spends its time
//! on: the same share of probe packets, events per packet and split of
//! host time between the layers. The seed picks only the scenario's RNG
//! seed.
//!
//! Statistics are kept from time zero (no warm-up is discarded). That
//! changes which packets a result counts, not what is simulated: the
//! warm-up only moves the point the counters are read from, and the
//! event count of a run is the same with and without it. The data
//! packets a result counts are then every data packet the run simulated.

use crate::replica::{self, Harness};
use eac::design::{Design, Group};
use eac::probe::{Placement, ProbeStyle, Signal};
use eac::{CoexistScenario, MultihopScenario, Report, Scenario};
use simcore::SimDuration;
use traffic::SourceSpec;

/// One scenario to simulate, on whichever driver it belongs to.
pub enum Instance {
    Single(Scenario),
    Multihop(MultihopScenario),
    Coexist(CoexistScenario),
}

/// The result fields two runs of one instance must agree on exactly.
/// Floats are compared by their bits.
#[derive(Clone, Debug, PartialEq)]
pub struct Digest {
    /// Simulator events fired; `CoexistScenario::run` does not report it.
    pub events: Option<u64>,
    /// Data packets the result accounts for: a measure of the simulated
    /// work that, unlike the event count, no change to the simulator's
    /// internals can move without changing the results.
    pub packets: u64,
    values: Vec<u64>,
}

impl Digest {
    pub fn of_run(
        events: u64,
        decided: u64,
        accepted: u64,
        sent: u64,
        received: u64,
        utilization: f64,
    ) -> Self {
        Digest {
            events: Some(events),
            packets: sent,
            values: vec![decided, accepted, sent, received, utilization.to_bits()],
        }
    }

    fn of_report(r: &Report) -> Self {
        let sum = |f: fn(&eac::GroupReport) -> u64| r.groups.iter().map(f).sum::<u64>();
        Digest::of_run(
            r.events,
            sum(|g| g.decided),
            sum(|g| g.accepted),
            sum(|g| g.data_sent),
            sum(|g| g.data_received),
            r.utilization,
        )
    }

    /// The tail means exactly as `CoexistScenario::run` computes them;
    /// the packet count is what the 10 s utilization buckets carried.
    pub fn of_coexist(sc: &CoexistScenario, series: &[(f64, f64, f64)], blocking: f64) -> Self {
        let tail: Vec<&(f64, f64, f64)> = series
            .iter()
            .filter(|(t, _, _)| *t >= sc.steady_after_s)
            .collect();
        let n = tail.len().max(1) as f64;
        let tcp = tail.iter().map(|(_, t, _)| t).sum::<f64>() / n;
        let eac = tail.iter().map(|(_, _, e)| e).sum::<f64>() / n;
        let bucket_bytes = sc.link_bps as f64 * 10.0 / 8.0;
        let eac_pkt = SourceSpec::exp1().pkt_bytes as f64;
        let packets = series
            .iter()
            .map(|(_, t, e)| bucket_bytes * (t / sc.tcp_pkt_bytes as f64 + e / eac_pkt))
            .sum::<f64>();
        Digest {
            events: None,
            packets: packets.round() as u64,
            values: vec![
                tcp.to_bits(),
                eac.to_bits(),
                blocking.to_bits(),
                series.len() as u64,
            ],
        }
    }

    /// Same results; event counts are compared where both sides have one.
    pub fn agrees(&self, other: &Digest) -> bool {
        self.values == other.values
            && match (self.events, other.events) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            }
    }
}

/// splitmix64: spreads consecutive benchmark seeds over the whole seed
/// space.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The run length of the single-link targets at `--quick`, seconds.
const QUICK_HORIZON_S: f64 = 1_200.0;

/// The scenario of workload `name` for benchmark seed `seed`, or `None`
/// for an unknown name.
pub fn instance(name: &str, seed: u64) -> Option<Instance> {
    let s = mix(seed);
    Some(match name {
        // Fig 2's basic scenario (§4.1): EXP1 sources probing a 10 Mbps
        // link with slow-start, in-band dropping, ε = 0.01.
        "basic" => Instance::Single(
            Scenario::basic()
                .horizon_secs(QUICK_HORIZON_S)
                .warmup_secs(0.0)
                .seed(s),
        ),
        // Fig 9's heterogeneous cell: four source types (exponential and
        // Pareto on/off) under out-of-band ECN marking at Fig 9's
        // ε = 0.05 — the virtual-queue marker and the probe band, which
        // `basic` does not use.
        "hetero-mark" => Instance::Single(
            Scenario::basic()
                .design(Design::endpoint(
                    Signal::Mark,
                    Placement::OutOfBand,
                    ProbeStyle::SlowStart,
                    0.05,
                ))
                .groups(vec![
                    Group::new("EXP1", SourceSpec::exp1(), 1.0),
                    Group::new("EXP2", SourceSpec::exp2(), 1.0),
                    Group::new("EXP4", SourceSpec::exp4(), 1.0),
                    Group::new("POO1", SourceSpec::poo1(), 1.0),
                ])
                .horizon_secs(QUICK_HORIZON_S)
                .warmup_secs(0.0)
                .seed(s),
        ),
        // Tables 5–6's MBAC row: three congested hops, packets forwarded
        // through routers, admission through the Measured Sum registry
        // instead of probes. Three hops cost four times a single link per
        // simulated second, so this runs the first half of the target's
        // 1200 s; its events per data packet are within 2 % of the whole
        // run's, and the layers split the time alike.
        "multihop-mbac" => Instance::Multihop(
            MultihopScenario::tables56()
                .design(Design::mbac(0.9))
                .horizon_secs(QUICK_HORIZON_S / 2.0)
                .warmup_secs(0.0)
                .seed(s),
        ),
        // Fig 11 at ε = 0.1: twenty TCP Reno flows and probing EXP1 flows
        // sharing one legacy drop-tail FIFO, over the target's 2000 s.
        "coexist" => Instance::Coexist(
            CoexistScenario::fig11(0.1)
                .horizon_secs(2_000.0)
                .steady_after_secs(500.0)
                .seed(s),
        ),
        _ => return None,
    })
}

fn check(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("invariant violated: {what}"))
    }
}

fn check_report(r: &Report) -> Result<Digest, String> {
    check(r.events > 0, "events > 0")?;
    for g in &r.groups {
        check(g.accepted <= g.decided, "accepted <= decided")?;
        check(g.data_received <= g.data_sent, "received <= sent")?;
    }
    check(
        r.utilization > 0.0 && r.utilization <= 1.05,
        "0 < utilization <= 1.05",
    )?;
    check((0.0..0.5).contains(&r.data_loss), "0 <= loss < 0.5")?;
    check((0.0..=1.0).contains(&r.blocking), "0 <= blocking <= 1")?;
    check(r.timeouts == 0, "no verdict timeouts")?;
    let d = Digest::of_report(r);
    check(d.packets > 0, "data packets were sent")?;
    Ok(d)
}

impl Instance {
    /// Run on the library's own driver and check the result.
    pub fn run(&self) -> Result<Digest, String> {
        match self {
            Instance::Single(sc) => check_report(&sc.run_full().map_err(|e| e.to_string())?.report),
            Instance::Multihop(sc) => check_report(&sc.run().map_err(|e| e.to_string())?),
            Instance::Coexist(sc) => {
                let r = sc.run();
                let total = r.tcp_util + r.eac_util;
                check(
                    r.tcp_util > 0.0 && r.eac_util > 0.0,
                    "both populations carry traffic",
                )?;
                check(total > 0.5 && total <= 1.05, "0.5 < tcp + eac <= 1.05")?;
                check((0.0..=1.0).contains(&r.blocking), "0 <= blocking <= 1")?;
                Ok(Digest::of_coexist(sc, &r.series, r.blocking))
            }
        }
    }

    /// Run on a replica of the same driver, through harness `h`.
    pub fn run_replica<H: Harness>(&self, h: &mut H) -> Digest {
        match self {
            Instance::Single(sc) => replica::single(sc, h),
            Instance::Multihop(sc) => replica::multihop(sc, h),
            Instance::Coexist(sc) => replica::coexist(sc, h),
        }
    }

    /// The simulated time a `replica::Sliced` run times as one piece: a
    /// 48th of the horizon, a tenth of a second or so of host time.
    pub fn slice(&self) -> SimDuration {
        let horizon = match self {
            Instance::Single(sc) => sc.horizon_s,
            Instance::Multihop(sc) => sc.horizon_s,
            Instance::Coexist(sc) => sc.horizon_s,
        };
        SimDuration::from_secs_f64(horizon / 48.0)
    }

    /// Build the instance's world and run it for one simulated
    /// millisecond: the fixed cost every run pays before simulating.
    pub fn set_up(&self) {
        const T: f64 = 1e-3;
        match self {
            Instance::Single(sc) => {
                let sc = sc.clone().horizon_secs(T);
                std::hint::black_box(sc.run_full().expect("no watchdogs armed"));
            }
            Instance::Multihop(sc) => {
                let sc = sc.clone().horizon_secs(T);
                std::hint::black_box(sc.run().expect("no watchdogs armed"));
            }
            Instance::Coexist(sc) => {
                let sc = sc.clone().horizon_secs(T);
                std::hint::black_box(sc.run());
            }
        }
    }
}
