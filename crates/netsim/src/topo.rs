//! Topology and routing.
//!
//! A [`Network`] is a set of nodes connected by unidirectional [`Link`]s
//! with static minimum-hop routing (BFS per destination). Routes are
//! computed lazily and cached; adding a link invalidates the cache.

use crate::audit::AuditCounters;
use crate::fault::{FaultPlan, FaultState, FaultStats};
use crate::link::Link;
use crate::packet::{LinkId, NodeId, Packet, TrafficClass};
use crate::qdisc::{Qdisc, VirtualQueue};
use crate::sim::Event;
use crate::wire::WireArena;
use simcore::{EventQueue, QueueSnapshot, SimDuration, SimRng, SimTime};
use std::collections::VecDeque;
use telemetry::Telemetry;

/// Per-link lifetime-counter snapshot from the previous sample tick, so
/// the sampler can emit per-interval rates from monotone totals.
#[derive(Clone, Copy, Default)]
struct LinkPrev {
    tx_bytes: u64,
    data_dropped: u64,
    data_offered: u64,
    probe_dropped: u64,
    probe_offered: u64,
}

/// The network: nodes, links, routes.
pub struct Network {
    num_nodes: usize,
    links: Vec<Link>,
    /// `next_hop[src][dst]` = link to take; `None` if unreachable.
    next_hop: Vec<Vec<Option<LinkId>>>,
    routes_dirty: bool,
    /// Packets delivered to a node with no agent expecting them.
    pub orphan_packets: u64,
    /// Optional telemetry hub (metrics + sampler + flight recorder).
    /// `None` is the fast path: every instrumented touch point is behind
    /// one `Option` check.
    pub telemetry: Option<Box<Telemetry>>,
    /// Per-link counter snapshots at the previous sample tick.
    tele_prev: Vec<LinkPrev>,
    /// Gauge column layout, frozen at the first sample.
    tele_gauges: Vec<String>,
    /// Packet-conservation counters (see [`crate::audit`]).
    pub audit: AuditCounters,
    /// Packets propagating towards their next node (see [`crate::wire`]).
    pub(crate) wire: WireArena,
    /// Installed fault state, if any (see [`crate::fault`]).
    pub(crate) faults: Option<FaultState>,
    /// Shared state reachable from every agent through [`crate::Api`]
    /// (e.g. a router-based admission-control registry). Agents `take()`
    /// it, use it, and put it back — the run loop is single-threaded so
    /// this is race-free.
    pub blackboard: Option<Box<dyn std::any::Any + Send>>,
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    /// An empty network.
    pub fn new() -> Self {
        Network {
            num_nodes: 0,
            links: Vec::new(),
            next_hop: Vec::new(),
            routes_dirty: false,
            orphan_packets: 0,
            blackboard: None,
            telemetry: None,
            tele_prev: Vec::new(),
            tele_gauges: Vec::new(),
            audit: AuditCounters::default(),
            wire: WireArena::default(),
            faults: None,
        }
    }

    /// Install a fault plan with its dedicated RNG stream. Prefer
    /// `Sim::install_faults`, which also schedules the plan's flap events.
    pub fn install_faults(&mut self, plan: FaultPlan, rng: SimRng) {
        self.faults = Some(FaultState::new(plan, rng));
    }

    /// Fault counters, if a plan is installed.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(|f| &f.stats)
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.num_nodes as u32);
        self.num_nodes += 1;
        self.routes_dirty = true;
        id
    }

    /// Add `n` nodes, returning their ids.
    pub fn add_nodes(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node()).collect()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Add a unidirectional link.
    pub fn add_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        bandwidth_bps: u64,
        prop_delay: SimDuration,
        qdisc: Box<dyn Qdisc>,
        marker: Option<VirtualQueue>,
    ) -> LinkId {
        assert!((from.0 as usize) < self.num_nodes && (to.0 as usize) < self.num_nodes);
        assert_ne!(from, to, "self-loop link");
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link::new(
            id,
            from,
            to,
            bandwidth_bps,
            prop_delay,
            qdisc,
            marker,
        ));
        self.routes_dirty = true;
        id
    }

    /// Packets on the wire: done serialising on a link (or handed to
    /// their own node) and waiting for their `Deliver` event.
    pub(crate) fn in_transit(&self) -> u64 {
        self.wire.occupied() as u64
    }

    /// Borrow a link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// All links (for stats sweeps).
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Mutable access to all links (warm-up resets).
    pub fn links_mut(&mut self) -> &mut [Link] {
        &mut self.links
    }

    /// Recompute minimum-hop routes (BFS from every node over out-links).
    pub fn compute_routes(&mut self) {
        let n = self.num_nodes;
        // For each destination, BFS on the reversed graph to get next hops.
        let mut rev: Vec<Vec<LinkId>> = vec![Vec::new(); n];
        for l in &self.links {
            rev[l.to.0 as usize].push(l.id);
        }
        self.next_hop = vec![vec![None; n]; n];
        for dst in 0..n {
            let mut dist = vec![usize::MAX; n];
            dist[dst] = 0;
            let mut q = VecDeque::new();
            q.push_back(dst);
            while let Some(v) = q.pop_front() {
                for &lid in &rev[v] {
                    let link = &self.links[lid.0 as usize];
                    if !link.is_up() {
                        continue; // down links carry no routes
                    }
                    let u = link.from.0 as usize;
                    if dist[u] == usize::MAX {
                        dist[u] = dist[v] + 1;
                        self.next_hop[u][dst] = Some(lid);
                        q.push_back(u);
                    }
                }
            }
        }
        self.routes_dirty = false;
    }

    /// The next-hop link from `at` toward `dst` (None if unreachable).
    /// Requires routes to be computed.
    pub fn route(&self, at: NodeId, dst: NodeId) -> Option<LinkId> {
        assert!(
            !self.routes_dirty,
            "routes are stale; call compute_routes()"
        );
        self.next_hop[at.0 as usize][dst.0 as usize]
    }

    /// Hop count from `at` to `dst` (None if unreachable), following routes.
    pub fn hops(&self, at: NodeId, dst: NodeId) -> Option<usize> {
        let mut here = at;
        let mut hops = 0;
        while here != dst {
            let lid = self.route(here, dst)?;
            here = self.link(lid).to;
            hops += 1;
            assert!(hops <= self.num_nodes, "routing loop");
        }
        Some(hops)
    }

    fn apply(&mut self, lid: LinkId, tx_done: Option<SimTime>, q: &mut EventQueue<Event>) {
        if let Some(t) = tx_done {
            q.schedule_at(t, Event::TxComplete { link: lid });
        }
    }

    /// Inject `pkt` at `node`: route it onto the next-hop link (or deliver
    /// immediately if already at the destination). A destination with no
    /// route — possible when fault flaps partition the topology — is a
    /// counted drop ([`AuditCounters::no_route_drops`]), not a panic.
    pub fn inject(&mut self, pkt: Packet, node: NodeId, q: &mut EventQueue<Event>) {
        if node == pkt.dst {
            let slot = self.wire.put(pkt);
            q.schedule_in(SimDuration::ZERO, Event::Deliver { node, slot });
            return;
        }
        if self.routes_dirty {
            self.compute_routes();
        }
        let Some(lid) = self.route(node, pkt.dst) else {
            self.audit.no_route_drops += 1;
            if let Some(tel) = self.telemetry.as_deref_mut() {
                tel.metrics.inc("net.drops.no_route", 1);
                tel.recorder.record(
                    q.now(),
                    "drop.no_route",
                    format!("flow {} stranded at n{}", pkt.flow.0, node.0),
                );
            }
            return;
        };
        let now = q.now();
        let tel_on = self.telemetry.is_some();
        let (flow, class) = (pkt.flow.0, pkt.class);
        let link = &mut self.links[lid.0 as usize];
        let drops_before = if tel_on {
            link.stats.total_dropped()
        } else {
            0
        };
        link.receive(pkt, now);
        let tx_done = link.try_start(now);
        if tel_on {
            let dropped = link.stats.total_dropped() - drops_before;
            if dropped > 0 {
                let tel = self.telemetry.as_deref_mut().expect("telemetry on");
                tel.metrics.inc("net.drops.queue", dropped);
                tel.recorder.record(
                    now,
                    "drop.queue",
                    format!("l{} flow {flow} class {class:?}", lid.0),
                );
            }
        }
        self.apply(lid, tx_done, q);
    }

    /// Handle a `TxComplete` event: propagate the packet and restart the
    /// link. This is where installed wire faults act: a packet finishing
    /// serialisation on a down link is lost, and a matching impairment may
    /// lose it on the wire.
    pub fn tx_complete(&mut self, lid: LinkId, q: &mut EventQueue<Event>) {
        let now = q.now();
        let link = &mut self.links[lid.0 as usize];
        let pkt = link.tx_complete();
        let to = link.to;
        let delay = link.prop_delay;
        if !link.is_up() {
            if let Some(f) = self.faults.as_mut() {
                f.stats.down_drops += 1;
            }
            if let Some(tel) = self.telemetry.as_deref_mut() {
                tel.metrics.inc("net.drops.down_link", 1);
                tel.recorder.record(
                    now,
                    "drop.down_link",
                    format!("l{} flow {} class {:?}", lid.0, pkt.flow.0, pkt.class),
                );
            }
            return; // a down link never restarts; LinkUp will kick it
        }
        let lost = self
            .faults
            .as_mut()
            .is_some_and(|f| f.wire_loss(lid, pkt.class));
        if lost {
            if let Some(tel) = self.telemetry.as_deref_mut() {
                tel.metrics.inc("net.drops.wire", 1);
                tel.recorder.record(
                    now,
                    "drop.wire",
                    format!("l{} flow {} class {:?}", lid.0, pkt.flow.0, pkt.class),
                );
            }
        } else {
            let slot = self.wire.put(pkt);
            q.schedule_in(delay, Event::Deliver { node: to, slot });
        }
        let tx_done = link.try_start(now);
        self.apply(lid, tx_done, q);
    }

    /// Flip a link's operational state (fault flaps). Going down removes
    /// the link from routing; coming up restores it and kicks the
    /// transmitter so queued packets resume.
    pub fn set_link_up(&mut self, lid: LinkId, up: bool, q: &mut EventQueue<Event>) {
        let link = &mut self.links[lid.0 as usize];
        if link.is_up() == up {
            return;
        }
        link.set_up(up);
        self.routes_dirty = true;
        if let Some(tel) = self.telemetry.as_deref_mut() {
            let kind = if up { "link.up" } else { "link.down" };
            tel.metrics.inc(kind, 1);
            tel.recorder.record(q.now(), kind, format!("l{}", lid.0));
        }
        if up {
            q.schedule_in(SimDuration::ZERO, Event::TryDequeue { link: lid });
        }
    }

    /// Handle the link-up kick: the `TryDequeue` that [`set_link_up`]
    /// schedules so a link coming back up resumes sending its queue.
    ///
    /// [`set_link_up`]: Network::set_link_up
    pub fn try_dequeue(&mut self, lid: LinkId, q: &mut EventQueue<Event>) {
        let now = q.now();
        let tx_done = self.links[lid.0 as usize].try_start(now);
        self.apply(lid, tx_done, q);
    }

    /// Drive the telemetry sampler: emit one row per tick boundary at or
    /// before `t` (the timestamp of the event about to be dispatched),
    /// reading per-link queue depth, utilization and per-class drop rates
    /// plus every registered gauge. The column layout freezes at the
    /// first sample; gauges registered later are not sampled (agents
    /// initialize theirs in `on_start`, which precedes every event).
    pub fn sample_telemetry(&mut self, t: SimTime, snap: QueueSnapshot) {
        let Some(tel) = self.telemetry.as_deref() else {
            return;
        };
        if !tel.sampler.due(t) {
            return;
        }
        // Take the hub out so link iteration and sampler writes do not
        // fight over `&mut self`.
        let mut tel = self.telemetry.take().expect("telemetry just observed");
        if !tel.sampler.series.has_columns() {
            let mut cols = vec!["events_fired".to_string(), "events_pending".to_string()];
            for l in &self.links {
                let i = l.id.0;
                cols.push(format!("l{i}.queue_pkts"));
                cols.push(format!("l{i}.queue_bytes"));
                cols.push(format!("l{i}.util"));
                cols.push(format!("l{i}.drop_data"));
                cols.push(format!("l{i}.drop_probe"));
            }
            self.tele_gauges = tel.metrics.gauge_names();
            cols.extend(self.tele_gauges.iter().cloned());
            tel.sampler.series.set_columns(cols);
            self.tele_prev = vec![LinkPrev::default(); self.links.len()];
        }
        let period_s = tel.sampler.period().as_secs_f64();
        let rate = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64
            }
        };
        while tel.sampler.due(t) {
            let at = tel.sampler.tick();
            let mut row = Vec::with_capacity(2 + 5 * self.links.len() + self.tele_gauges.len());
            row.push(snap.fired as f64);
            row.push(snap.pending as f64);
            for (l, prev) in self.links.iter().zip(self.tele_prev.iter_mut()) {
                let data = l.stats.class(TrafficClass::Data);
                let probe = l.stats.class(TrafficClass::Probe);
                let cur = LinkPrev {
                    tx_bytes: l.stats.total_transmitted_bytes(),
                    data_dropped: data.dropped.total(),
                    data_offered: data.offered.total(),
                    probe_dropped: probe.dropped.total(),
                    probe_offered: probe.offered.total(),
                };
                row.push(l.queue_len() as f64);
                row.push(l.queue_bytes() as f64);
                row.push(
                    (cur.tx_bytes - prev.tx_bytes) as f64 * 8.0
                        / (l.bandwidth_bps as f64 * period_s),
                );
                row.push(rate(
                    cur.data_dropped - prev.data_dropped,
                    cur.data_offered - prev.data_offered,
                ));
                row.push(rate(
                    cur.probe_dropped - prev.probe_dropped,
                    cur.probe_offered - prev.probe_offered,
                ));
                *prev = cur;
            }
            for g in &self.tele_gauges {
                row.push(tel.metrics.gauge(g));
            }
            tel.sampler.series.push_row(at.as_nanos(), &row);
        }
        self.telemetry = Some(tel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, TrafficClass};
    use crate::qdisc::{DropTail, Limit};
    use simcore::SimTime;

    fn dt() -> Box<dyn Qdisc> {
        Box::new(DropTail::new(Limit::Packets(100)))
    }

    fn line3() -> Network {
        // n0 -> n1 -> n2 and back
        let mut net = Network::new();
        let ns = net.add_nodes(3);
        for w in ns.windows(2) {
            net.add_link(
                w[0],
                w[1],
                1_000_000,
                SimDuration::from_millis(1),
                dt(),
                None,
            );
            net.add_link(
                w[1],
                w[0],
                1_000_000,
                SimDuration::from_millis(1),
                dt(),
                None,
            );
        }
        net.compute_routes();
        net
    }

    #[test]
    fn routes_follow_min_hops() {
        let net = line3();
        assert_eq!(net.hops(NodeId(0), NodeId(2)), Some(2));
        assert_eq!(net.hops(NodeId(2), NodeId(0)), Some(2));
        assert_eq!(net.hops(NodeId(1), NodeId(1)), Some(0));
        let l = net.route(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(net.link(l).to, NodeId(1));
    }

    #[test]
    fn unreachable_is_none() {
        let mut net = Network::new();
        net.add_nodes(2);
        net.compute_routes();
        assert_eq!(net.route(NodeId(0), NodeId(1)), None);
        assert_eq!(net.hops(NodeId(0), NodeId(1)), None);
    }

    #[test]
    fn packet_crosses_two_hops() {
        let mut net = line3();
        let mut q: EventQueue<Event> = EventQueue::new();
        let pkt = Packet::new(
            0,
            FlowId(1),
            NodeId(0),
            NodeId(2),
            125,
            TrafficClass::Data,
            0,
            SimTime::ZERO,
        );
        net.inject(pkt, NodeId(0), &mut q);
        // Drive events until the Deliver at n2 appears.
        let mut delivered_at = None;
        while let Some((t, ev)) = q.pop() {
            match ev {
                Event::TxComplete { link } => net.tx_complete(link, &mut q),
                Event::TryDequeue { link } => net.try_dequeue(link, &mut q),
                Event::Deliver { node, slot } => {
                    let packet = net.wire.take(slot);
                    if node == packet.dst {
                        delivered_at = Some(t);
                    } else {
                        net.inject(packet, node, &mut q);
                    }
                }
                Event::Timer { .. } | Event::LinkDown { .. } | Event::LinkUp { .. } => {
                    unreachable!()
                }
            }
        }
        // Two transmissions (1 ms each for 125 B at 1 Mbps) + two props (1 ms).
        let expected = SimTime::from_secs_f64(0.001 + 0.001 + 0.001 + 0.001);
        assert_eq!(delivered_at, Some(expected));
        assert_eq!(
            net.link(LinkId(0))
                .stats
                .class(TrafficClass::Data)
                .transmitted
                .total(),
            1
        );
        assert_eq!(
            net.link(LinkId(2))
                .stats
                .class(TrafficClass::Data)
                .transmitted
                .total(),
            1
        );
    }

    #[test]
    fn inject_at_destination_delivers_locally() {
        let mut net = line3();
        let mut q: EventQueue<Event> = EventQueue::new();
        let pkt = Packet::new(
            0,
            FlowId(1),
            NodeId(1),
            NodeId(1),
            1,
            TrafficClass::Control,
            0,
            SimTime::ZERO,
        );
        net.inject(pkt, NodeId(1), &mut q);
        match q.pop() {
            Some((_, Event::Deliver { node, slot })) => {
                assert_eq!(node, NodeId(1));
                assert_eq!(net.wire.take(slot).dst, NodeId(1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
