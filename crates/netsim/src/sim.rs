//! The simulation driver: events, agents, and the run loop.
//!
//! Endpoints (traffic sources, probing hosts, sinks, TCP stacks, meters)
//! are [`Agent`]s attached to nodes, in the style of ns-2. The driver pops
//! events from the calendar and dispatches:
//!
//! - link events to the [`Network`];
//! - packet deliveries to the destination node's agent (packets arriving at
//!   intermediate nodes are forwarded automatically, so routers need no
//!   agent);
//! - timers to the owning node's agent.

use crate::audit::AuditError;
use crate::fault::FaultPlan;
use crate::packet::{LinkId, NodeId, Packet};
use crate::topo::Network;
use crate::wire::WireSlot;
use simcore::{EventQueue, SimDuration, SimRng, SimTime, Ticket};
use std::any::Any;

/// Simulation events.
#[derive(Debug)]
pub enum Event {
    /// A link finished serialising its in-flight packet.
    TxComplete { link: LinkId },
    /// A link that came back up should start sending its queue (the
    /// zero-delay kick from [`Network::set_link_up`]).
    TryDequeue { link: LinkId },
    /// The packet in wire slot `slot` arrives at `node` after
    /// propagation.
    Deliver { node: NodeId, slot: WireSlot },
    /// An agent timer fires. `kind` and `data` are agent-defined.
    Timer { node: NodeId, kind: u32, data: u64 },
    /// A scheduled fault takes the link down.
    LinkDown { link: LinkId },
    /// A scheduled fault brings the link back up.
    LinkUp { link: LinkId },
}

/// Why a run stopped before reaching its horizon.
#[derive(Clone, Debug)]
pub enum RunError {
    /// The event budget was exhausted — an event storm (e.g. a retry loop
    /// with zero back-off) is spinning the calendar.
    EventBudgetExceeded {
        /// The configured budget.
        budget: u64,
        /// Simulation time when the budget ran out.
        at: SimTime,
    },
    /// The calendar handed out an event earlier than one already
    /// processed; simulation time must be monotone.
    TimeRegression {
        /// Time of the previously processed event.
        from: SimTime,
        /// Time of the offending event.
        to: SimTime,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::EventBudgetExceeded { budget, at } => {
                write!(f, "event budget of {budget} exhausted at {at}")
            }
            RunError::TimeRegression { from, to } => {
                write!(f, "event time went backwards: {from} -> {to}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// The toolbox handed to an agent callback.
///
/// Through it the agent reads the clock, sends packets (which enter the
/// network at the agent's node), arms timers, and can reach the network
/// for measurement (e.g. MBAC load meters reading link stats).
pub struct Api<'a> {
    /// The node this agent sits on.
    pub node: NodeId,
    /// The network (routing, links, stats).
    pub net: &'a mut Network,
    queue: &'a mut EventQueue<Event>,
}

impl<'a> Api<'a> {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Send a packet into the network from this node.
    #[inline]
    pub fn send(&mut self, pkt: Packet) {
        self.net.audit.injected += 1;
        self.net.inject(pkt, self.node, self.queue);
    }

    /// Arm a timer for this node at absolute time `at`.
    pub fn timer_at(&mut self, at: SimTime, kind: u32, data: u64) {
        let node = self.node;
        self.queue
            .schedule_at(at, Event::Timer { node, kind, data });
    }

    /// Take the calendar's next place in line for a timer armed later
    /// (see [`simcore::Ticket`]).
    #[inline]
    pub fn ticket(&mut self) -> Ticket {
        self.queue.ticket()
    }

    /// Arm a timer at `at` in the place `ticket` holds: it fires as a
    /// timer armed by [`timer_at`](Api::timer_at) when the ticket was
    /// taken would have.
    pub fn timer_ticket(&mut self, at: SimTime, ticket: Ticket, kind: u32, data: u64) {
        let node = self.node;
        self.queue
            .schedule_ticket(at, ticket, Event::Timer { node, kind, data });
    }

    /// Arm a timer `delay` from now.
    pub fn timer_in(&mut self, delay: SimDuration, kind: u32, data: u64) {
        self.timer_at(self.now() + delay, kind, data);
    }
}

/// A node-resident endpoint.
///
/// `as_any` enables downcasting after a run to pull results out of concrete
/// agent types (`Sim::agent`), and must be implemented as `self`.
pub trait Agent: Send {
    /// Called once when the simulation starts (arm initial timers here).
    fn on_start(&mut self, _api: &mut Api) {}

    /// A packet addressed to this node arrived.
    fn on_packet(&mut self, pkt: Packet, api: &mut Api);

    /// A timer armed by this agent fired.
    fn on_timer(&mut self, _kind: u32, _data: u64, _api: &mut Api) {}

    /// Downcast support: `fn as_any(&mut self) -> &mut dyn Any { self }`.
    fn as_any(&mut self) -> &mut dyn Any;
}

/// A complete simulation: network + agents + event calendar.
pub struct Sim {
    /// The network substrate.
    pub net: Network,
    /// The event calendar.
    pub queue: EventQueue<Event>,
    agents: Vec<Option<Box<dyn Agent>>>,
    started: bool,
    /// Cap on total events processed (watchdog; `None` = unlimited).
    event_budget: Option<u64>,
    /// Time of the most recently processed event (monotonicity audit).
    last_event_time: SimTime,
}

impl Sim {
    /// Wrap a built network. Routes are computed here if still dirty.
    pub fn new(mut net: Network) -> Self {
        net.compute_routes();
        let n = net.num_nodes();
        Sim {
            net,
            queue: EventQueue::new(),
            agents: (0..n).map(|_| None).collect(),
            started: false,
            event_budget: None,
            last_event_time: SimTime::ZERO,
        }
    }

    /// Attach an agent to a node (replacing any previous one).
    pub fn attach(&mut self, node: NodeId, agent: Box<dyn Agent>) {
        self.agents[node.0 as usize] = Some(agent);
    }

    /// Install a fault plan: schedule its link flaps on the calendar and
    /// hand the impairments (with their dedicated RNG stream) to the
    /// network. Call before running; identical seed + plan reproduce a
    /// bit-identical run.
    pub fn install_faults(&mut self, plan: FaultPlan, rng: SimRng) {
        for f in &plan.flaps {
            self.queue
                .schedule_at(f.down_at, Event::LinkDown { link: f.link });
            self.queue
                .schedule_at(f.up_at, Event::LinkUp { link: f.link });
        }
        self.net.install_faults(plan, rng);
    }

    /// Bound the total number of events this simulation may process.
    /// [`try_run_until`](Sim::try_run_until) returns
    /// [`RunError::EventBudgetExceeded`] instead of spinning forever when
    /// an event storm (e.g. a zero-delay retry loop) hits the cap.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = Some(budget);
    }

    /// Check packet conservation right now (see [`crate::audit`]).
    pub fn check_conservation(&self) -> Result<(), AuditError> {
        crate::audit::check_conservation(&self.net)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Borrow an attached agent as its concrete type.
    pub fn agent<T: 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        self.agents[node.0 as usize]
            .as_mut()?
            .as_any()
            .downcast_mut::<T>()
    }

    fn dispatch_start(&mut self) {
        for (i, slot) in self.agents.iter_mut().enumerate() {
            if let Some(agent) = slot.as_deref_mut() {
                let mut api = Api {
                    node: NodeId(i as u32),
                    net: &mut self.net,
                    queue: &mut self.queue,
                };
                agent.on_start(&mut api);
            }
        }
        self.started = true;
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::TxComplete { link } => self.net.tx_complete(link, &mut self.queue),
            Event::TryDequeue { link } => self.net.try_dequeue(link, &mut self.queue),
            Event::Deliver { node, slot } => {
                let packet = self.net.wire.take(slot);
                if node != packet.dst {
                    // Transit node: forward.
                    self.net.inject(packet, node, &mut self.queue);
                    return;
                }
                self.net.audit.delivered += 1;
                // The agent is borrowed in place: `Api` reaches the
                // network and the calendar, never another agent.
                match self.agents[node.0 as usize].as_deref_mut() {
                    Some(agent) => {
                        let mut api = Api {
                            node,
                            net: &mut self.net,
                            queue: &mut self.queue,
                        };
                        agent.on_packet(packet, &mut api);
                    }
                    None => self.net.orphan_packets += 1,
                }
            }
            Event::Timer { node, kind, data } => {
                // A timer for an agent-less node is counted and ignored,
                // not fatal: fault injection can legitimately orphan
                // timers (e.g. an agent torn down while its timer rode
                // the calendar).
                let Some(agent) = self.agents[node.0 as usize].as_deref_mut() else {
                    self.net.audit.stray_timers += 1;
                    return;
                };
                let mut api = Api {
                    node,
                    net: &mut self.net,
                    queue: &mut self.queue,
                };
                agent.on_timer(kind, data, &mut api);
            }
            Event::LinkDown { link } => self.net.set_link_up(link, false, &mut self.queue),
            Event::LinkUp { link } => self.net.set_link_up(link, true, &mut self.queue),
        }
    }

    /// Run until the calendar is empty or the next event is after `until`.
    /// Events exactly at `until` are processed. Returns an error instead
    /// of looping forever when the opt-in event budget is exhausted
    /// ([`Sim::set_event_budget`]), or if event time ever regresses.
    pub fn try_run_until(&mut self, until: SimTime) -> Result<(), RunError> {
        if !self.started {
            self.dispatch_start();
        }
        // An unset budget never runs out. Agents cannot change it mid-run.
        let budget = self.event_budget.unwrap_or(u64::MAX);
        loop {
            if self.queue.events_fired() >= budget {
                // Out of budget: an error only if another event is due,
                // and that event stays pending.
                if self.queue.peek_time().is_some_and(|t| t <= until) {
                    return Err(self.note_run_error(RunError::EventBudgetExceeded {
                        budget,
                        at: self.queue.now(),
                    }));
                }
                break;
            }
            // Telemetry rows read the calendar as it stood before the
            // pop: `fired` excludes this event and `pending` includes it.
            let before = self.net.telemetry.is_some().then(|| self.queue.snapshot());
            let Some((t, ev)) = self.queue.pop_until(until) else {
                break;
            };
            if t < self.last_event_time {
                return Err(self.note_run_error(RunError::TimeRegression {
                    from: self.last_event_time,
                    to: t,
                }));
            }
            self.last_event_time = t;
            // Telemetry sampling rides the event clock: one cheap Option
            // check per event when disabled, sample rows stamped at exact
            // tick boundaries when enabled.
            if let Some(snap) = before {
                self.net.sample_telemetry(t, snap);
            }
            self.handle(ev);
        }
        Ok(())
    }

    /// Stamp a fatal run error into the flight recorder (if telemetry is
    /// installed) so the dump carries its own cause of death.
    fn note_run_error(&self, e: RunError) -> RunError {
        if let Some(tel) = self.net.telemetry.as_deref() {
            tel.recorder
                .record(self.queue.now(), "run.error", e.to_string());
        }
        e
    }

    /// Run until the calendar is empty or the next event is after `until`.
    /// Panics if the event budget runs out — use
    /// [`try_run_until`](Sim::try_run_until) where a graceful error is
    /// wanted. Without a budget installed this never panics.
    pub fn run_until(&mut self, until: SimTime) {
        if let Err(e) = self.try_run_until(until) {
            panic!("{e}");
        }
    }

    /// Run until no events remain.
    pub fn run_to_completion(&mut self) {
        self.run_until(SimTime::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, TrafficClass};
    use crate::qdisc::{DropTail, Limit, Qdisc};
    use std::any::Any;

    /// Sends `n` packets, one per ms, to a peer.
    struct Blaster {
        peer: NodeId,
        n: u64,
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
                api.timer_in(SimDuration::from_millis(1), 0, 0);
            }
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Counts received packets and checks sequence order.
    struct Sink {
        received: u64,
        last_seq: Option<u64>,
        in_order: bool,
    }
    impl Agent for Sink {
        fn on_packet(&mut self, pkt: Packet, _api: &mut Api) {
            if let Some(last) = self.last_seq {
                if pkt.seq <= last {
                    self.in_order = false;
                }
            }
            self.last_seq = Some(pkt.seq);
            self.received += 1;
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn dt() -> Box<dyn Qdisc> {
        Box::new(DropTail::new(Limit::Packets(1000)))
    }

    #[test]
    fn end_to_end_delivery() {
        let mut net = Network::new();
        let a = net.add_node();
        let b = net.add_node();
        net.add_link(a, b, 10_000_000, SimDuration::from_millis(20), dt(), None);
        let mut sim = Sim::new(net);
        sim.attach(
            a,
            Box::new(Blaster {
                peer: b,
                n: 100,
                sent: 0,
            }),
        );
        sim.attach(
            b,
            Box::new(Sink {
                received: 0,
                last_seq: None,
                in_order: true,
            }),
        );
        sim.run_to_completion();
        let sink = sim.agent::<Sink>(b).unwrap();
        assert_eq!(sink.received, 100);
        assert!(sink.in_order);
        assert_eq!(sim.net.orphan_packets, 0);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut net = Network::new();
        let a = net.add_node();
        let b = net.add_node();
        net.add_link(a, b, 10_000_000, SimDuration::ZERO, dt(), None);
        let mut sim = Sim::new(net);
        sim.attach(
            a,
            Box::new(Blaster {
                peer: b,
                n: 1000,
                sent: 0,
            }),
        );
        sim.attach(
            b,
            Box::new(Sink {
                received: 0,
                last_seq: None,
                in_order: true,
            }),
        );
        // 1000 packets at 1/ms take ~1 s; stop after 100 ms.
        sim.run_until(SimTime::from_secs_f64(0.1));
        let got = sim.agent::<Sink>(b).unwrap().received;
        assert!((99..=102).contains(&got), "got {got}");
    }

    #[test]
    fn orphan_packets_counted() {
        let mut net = Network::new();
        let a = net.add_node();
        let b = net.add_node();
        net.add_link(a, b, 10_000_000, SimDuration::ZERO, dt(), None);
        let mut sim = Sim::new(net);
        sim.attach(
            a,
            Box::new(Blaster {
                peer: b,
                n: 5,
                sent: 0,
            }),
        );
        // No agent at b.
        sim.run_to_completion();
        assert_eq!(sim.net.orphan_packets, 5);
    }

    /// Arms a timer behind the clock when its first timer fires.
    struct PastScheduler;
    impl Agent for PastScheduler {
        fn on_start(&mut self, api: &mut Api) {
            api.timer_in(SimDuration::from_millis(2), 0, 0);
        }
        fn on_packet(&mut self, _pkt: Packet, _api: &mut Api) {}
        fn on_timer(&mut self, _k: u32, _d: u64, api: &mut Api) {
            // 1 ms, behind the 2 ms clock.
            api.timer_at(SimTime::from_nanos(1_000_000), 0, 0);
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn strict_past_schedule_still_panics() {
        // A watchdog bounds the event count; it does not soften a
        // schedule behind the clock, which panics at its call site.
        for budget in [None, Some(1_000)] {
            let mut net = Network::new();
            let a = net.add_node();
            let b = net.add_node();
            net.add_link(a, b, 10_000_000, SimDuration::ZERO, dt(), None);
            let mut sim = Sim::new(net);
            sim.attach(a, Box::new(PastScheduler));
            if let Some(budget) = budget {
                sim.set_event_budget(budget);
            }
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.try_run_until(SimTime::from_secs(1))
            }))
            .expect_err("a past schedule panics");
            let msg = payload
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert!(
                msg.contains("scheduling into the past"),
                "budget {budget:?}: {msg}"
            );
        }
    }

    /// Arms one timer per entry of `at` on start and logs when each fires.
    struct Script {
        at: Vec<SimTime>,
        fired: Vec<SimTime>,
    }
    impl Agent for Script {
        fn on_start(&mut self, api: &mut Api) {
            for &t in &self.at {
                api.timer_at(t, 0, 0);
            }
        }
        fn on_packet(&mut self, _pkt: Packet, _api: &mut Api) {}
        fn on_timer(&mut self, _k: u32, _d: u64, api: &mut Api) {
            self.fired.push(api.now());
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn script_sim(at: Vec<SimTime>) -> (Sim, NodeId) {
        let mut net = Network::new();
        let a = net.add_node();
        let mut sim = Sim::new(net);
        sim.attach(a, Box::new(Script { at, fired: vec![] }));
        (sim, a)
    }

    #[test]
    fn budget_stops_before_the_event_after_it() {
        // One timer per ms: the budget runs out with events still due.
        let ms = |i: u64| SimTime::from_nanos(i * 1_000_000);
        let (mut sim, a) = script_sim((1..=100).map(ms).collect());
        sim.set_event_budget(40);
        let err = sim.try_run_until(SimTime::from_secs(1)).unwrap_err();
        assert!(
            matches!(err, RunError::EventBudgetExceeded { budget: 40, at } if at == ms(40)),
            "got {err:?}"
        );
        assert_eq!(sim.queue.events_fired(), 40);
        assert_eq!(sim.now(), ms(40));
        // The 41st event was not consumed: it is still the next one due.
        assert_eq!(sim.queue.len(), 60);
        assert_eq!(sim.queue.peek_time(), Some(ms(41)));
        assert_eq!(sim.agent::<Script>(a).unwrap().fired.len(), 40);
    }

    #[test]
    fn exhausted_budget_with_nothing_due_is_not_an_error() {
        let ms = |i: u64| SimTime::from_nanos(i * 1_000_000);
        let (mut sim, _) = script_sim(vec![ms(1), ms(2), ms(3)]);
        sim.set_event_budget(2);
        sim.try_run_until(ms(2))
            .expect("nothing due after the budget");
        assert_eq!(sim.queue.events_fired(), 2);
        assert!(sim.try_run_until(ms(3)).is_err());
    }

    #[test]
    fn horizon_is_inclusive_and_resumable() {
        let t = SimTime::from_nanos(5_000_000);
        let t1 = SimTime::from_nanos(5_000_001);
        let (mut sim, a) = script_sim(vec![t, t1]);
        sim.try_run_until(t).unwrap();
        assert_eq!(sim.agent::<Script>(a).unwrap().fired, vec![t]);
        assert_eq!(sim.now(), t);
        assert_eq!(sim.queue.len(), 1, "the event 1 ns later still waits");
        sim.try_run_until(t1).unwrap();
        assert_eq!(sim.agent::<Script>(a).unwrap().fired, vec![t, t1]);
        assert!(sim.queue.is_empty());
    }

    #[test]
    fn telemetry_samples_the_calendar_before_each_pop() {
        let mut net = Network::new();
        let a = net.add_node();
        let b = net.add_node();
        net.add_link(a, b, 1_000_000, SimDuration::from_millis(5), dt(), None);
        net.telemetry = Some(Box::new(telemetry::Telemetry::new(
            telemetry::FlightRecorder::new(telemetry::RECORDER_CAPACITY),
        )));
        let mut sim = Sim::new(net);
        sim.attach(
            a,
            Box::new(Blaster {
                peer: b,
                n: 3_500,
                sent: 0,
            }),
        );
        sim.attach(
            b,
            Box::new(Sink {
                received: 0,
                last_seq: None,
                in_order: true,
            }),
        );
        sim.run_to_completion();
        let tel = sim.net.telemetry.take().expect("telemetry installed");
        let series = &tel.sampler.series;
        // Each row is read at the first event at or after its tick,
        // before that event is popped: `fired` excludes it and
        // `pending` includes it.
        assert_eq!(
            series.column("events_fired").unwrap(),
            vec![2993.0, 5993.0, 8993.0]
        );
        assert_eq!(
            series.column("events_pending").unwrap(),
            vec![7.0, 7.0, 7.0]
        );
    }

    #[test]
    fn event_fits_in_24_bytes() {
        // Every calendar entry carries one `Event`: a new field that
        // widens it costs memory traffic on every schedule and pop.
        assert!(
            std::mem::size_of::<Event>() <= 24,
            "Event grew to {} bytes",
            std::mem::size_of::<Event>()
        );
    }

    #[test]
    fn wire_arena_holds_only_packets_in_transit() {
        let mut net = Network::new();
        let a = net.add_node();
        let b = net.add_node();
        net.add_link(a, b, 10_000_000, SimDuration::from_millis(20), dt(), None);
        let mut sim = Sim::new(net);
        let n = 10_000;
        sim.attach(
            a,
            Box::new(Blaster {
                peer: b,
                n,
                sent: 0,
            }),
        );
        sim.attach(
            b,
            Box::new(Sink {
                received: 0,
                last_seq: None,
                in_order: true,
            }),
        );
        sim.run_until(SimTime::ZERO);
        let mut peak = 0;
        while let Some(t) = sim.queue.peek_time() {
            sim.run_until(t);
            peak = peak.max(sim.net.in_transit());
            sim.check_conservation().expect("conserved mid-run");
        }
        assert_eq!(sim.agent::<Sink>(b).unwrap().received, n);
        assert_eq!(sim.net.in_transit(), 0);
        sim.check_conservation().expect("conserved after the drain");
        // One packet per ms over 20 ms of propagation: about twenty on
        // the wire at once, and the arena never holds more slots.
        assert!((19..=21).contains(&peak), "peak in transit {peak}");
        assert_eq!(sim.net.wire.capacity() as u64, peak);
    }

    #[test]
    fn deterministic_event_counts() {
        let run = || {
            let mut net = Network::new();
            let a = net.add_node();
            let b = net.add_node();
            net.add_link(a, b, 1_000_000, SimDuration::from_millis(5), dt(), None);
            let mut sim = Sim::new(net);
            sim.attach(
                a,
                Box::new(Blaster {
                    peer: b,
                    n: 500,
                    sent: 0,
                }),
            );
            sim.attach(
                b,
                Box::new(Sink {
                    received: 0,
                    last_seq: None,
                    in_order: true,
                }),
            );
            sim.run_to_completion();
            (sim.queue.events_fired(), sim.now())
        };
        assert_eq!(run(), run());
    }
}
