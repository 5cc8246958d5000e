//! Integration tests for fault injection, the conservation auditor, and
//! the event-budget watchdog.

use netsim::qdisc::{DropTail, Limit, Qdisc};
use netsim::sim::{Agent, Api, RunError};
use netsim::{FaultPlan, FlowId, Impairment, Network, NodeId, Packet, Sim, TrafficClass};
use simcore::{SimDuration, SimRng, SimTime};
use std::any::Any;

fn dt() -> Box<dyn Qdisc> {
    Box::new(DropTail::new(Limit::Packets(1000)))
}

/// Sends `n` packets, one per `gap`, to `peer`.
struct Blaster {
    peer: NodeId,
    n: u64,
    gap: SimDuration,
    sent: u64,
}

impl Agent for Blaster {
    fn on_start(&mut self, api: &mut Api) {
        api.timer_in(SimDuration::ZERO, 0, 0);
    }
    fn on_packet(&mut self, _pkt: Packet, _api: &mut Api) {}
    fn on_timer(&mut self, _k: u32, _d: u64, api: &mut Api) {
        if self.sent < self.n {
            let pkt = Packet::new(
                self.sent,
                FlowId(1),
                api.node,
                self.peer,
                125,
                TrafficClass::Data,
                self.sent,
                api.now(),
            );
            api.send(pkt);
            self.sent += 1;
            api.timer_in(self.gap, 0, 0);
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

struct Counter {
    received: u64,
    seen: Vec<u64>,
}

impl Counter {
    fn new() -> Self {
        Counter {
            received: 0,
            seen: Vec::new(),
        }
    }
}

impl Agent for Counter {
    fn on_packet(&mut self, pkt: Packet, _api: &mut Api) {
        self.seen.push(pkt.seq);
        self.received += 1;
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

fn two_node_sim(n: u64, gap_ms: u64) -> (Sim, NodeId, NodeId) {
    let mut net = Network::new();
    let a = net.add_node();
    let b = net.add_node();
    net.add_link(a, b, 1_000_000, SimDuration::from_millis(1), dt(), None);
    let mut sim = Sim::new(net);
    sim.attach(
        a,
        Box::new(Blaster {
            peer: b,
            n,
            gap: SimDuration::from_millis(gap_ms),
            sent: 0,
        }),
    );
    sim.attach(b, Box::new(Counter::new()));
    (sim, a, b)
}

#[test]
fn flap_drops_wire_packet_and_partitions_routing() {
    // 100 packets, one per 10 ms, 1 ms serialisation each. The flap at
    // 0.2505 s cuts the packet sent at 0.25 s mid-transmission (a
    // down-drop); sends during the outage find no route (counted drops);
    // delivery resumes once the link is back at 0.595 s.
    let (mut sim, _a, b) = two_node_sim(100, 10);
    let plan = FaultPlan::new().flap(
        netsim::LinkId(0),
        SimTime::from_secs_f64(0.2505),
        SimTime::from_secs_f64(0.595),
    );
    sim.install_faults(plan, SimRng::new(7));
    sim.run_to_completion();

    let stats = sim.net.fault_stats().copied().unwrap();
    assert_eq!(stats.down_drops, 1, "exactly the in-flight packet dies");
    // Sends at 0.26 .. 0.59 s (34 packets) happen while partitioned.
    assert_eq!(sim.net.audit.no_route_drops, 34);
    let got = sim.agent::<Counter>(b).unwrap().received;
    assert_eq!(got, 100 - 1 - 34);
    sim.check_conservation().unwrap();
}

#[test]
fn wire_loss_is_counted_and_conserved() {
    let (mut sim, _a, b) = two_node_sim(400, 2);
    let plan = FaultPlan::new().impair(Impairment::loss(
        netsim::LinkId(0),
        Some(TrafficClass::Data),
        0.25,
    ));
    sim.install_faults(plan, SimRng::new(11));
    sim.run_to_completion();

    let stats = sim.net.fault_stats().copied().unwrap();
    assert!(
        stats.wire_lost > 50 && stats.wire_lost < 150,
        "p=0.25 of 400: {}",
        stats.wire_lost
    );
    let got = sim.agent::<Counter>(b).unwrap().received;
    assert_eq!(got + stats.wire_lost, 400);
    sim.check_conservation().unwrap();
}

#[test]
fn identical_seed_and_plan_reproduce_identical_runs() {
    let run = |seed: u64| {
        let (mut sim, _a, b) = two_node_sim(250, 3);
        let plan = FaultPlan::new()
            .flap(
                netsim::LinkId(0),
                SimTime::from_secs_f64(0.2),
                SimTime::from_secs_f64(0.3),
            )
            .impair(Impairment::loss(netsim::LinkId(0), None, 0.1));
        sim.install_faults(plan, SimRng::new(seed));
        sim.run_to_completion();
        let stats = sim.net.fault_stats().copied().unwrap();
        let seen = sim.agent::<Counter>(b).unwrap().seen.clone();
        (
            seen,
            stats.wire_lost,
            stats.down_drops,
            sim.queue.events_fired(),
        )
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42).0, run(43).0, "different seeds should diverge");
}

#[test]
fn no_route_is_a_counted_drop_not_a_panic() {
    // Single link flapped down forever-ish: injections while down and
    // after route recomputation find no path and are counted.
    let (mut sim, _a, _b) = two_node_sim(50, 10);
    let plan = FaultPlan::new().flap(
        netsim::LinkId(0),
        SimTime::from_secs_f64(0.05),
        SimTime::from_secs_f64(100.0),
    );
    sim.install_faults(plan, SimRng::new(1));
    sim.run_until(SimTime::from_secs(2));
    assert!(
        sim.net.audit.no_route_drops > 0,
        "sends while partitioned should be counted drops"
    );
    sim.check_conservation().unwrap();
}

#[test]
fn event_budget_turns_storms_into_errors() {
    /// Re-arms a zero-delay timer forever.
    struct Storm;
    impl Agent for Storm {
        fn on_start(&mut self, api: &mut Api) {
            api.timer_in(SimDuration::ZERO, 0, 0);
        }
        fn on_packet(&mut self, _p: Packet, _api: &mut Api) {}
        fn on_timer(&mut self, _k: u32, _d: u64, api: &mut Api) {
            api.timer_in(SimDuration::ZERO, 0, 0);
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }
    let mut net = Network::new();
    let a = net.add_node();
    net.add_node();
    let mut sim = Sim::new(net);
    sim.attach(a, Box::new(Storm));
    sim.set_event_budget(10_000);
    match sim.try_run_until(SimTime::from_secs(1)) {
        Err(RunError::EventBudgetExceeded { budget, .. }) => assert_eq!(budget, 10_000),
        other => panic!("expected budget error, got {other:?}"),
    }
}

#[test]
fn stray_timer_is_counted_not_fatal() {
    let mut net = Network::new();
    let a = net.add_node();
    net.add_node();
    let mut sim = Sim::new(net);
    sim.attach(a, Box::new(Counter::new()));
    // Arm a timer for node 1, which has no agent.
    sim.queue.schedule_at(
        SimTime::from_secs_f64(0.001),
        netsim::Event::Timer {
            node: NodeId(1),
            kind: 0,
            data: 0,
        },
    );
    sim.run_to_completion();
    assert_eq!(sim.net.audit.stray_timers, 1);
}
