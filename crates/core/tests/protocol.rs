//! Protocol-level tests: drive the sink's verdict machinery with crafted
//! probe streams (bypassing a real traffic mix) and check each rule of
//! §3.1 — final-stage accept, per-stage reject, the in-flight abort, and
//! mark counting.

use eac::msg::{probe_aux, Msg};
use eac::probe::Signal;
use eac::sink::{SinkAgent, SinkConfig};
use netsim::{Agent, Api, DropTail, FlowId, Limit, Network, NodeId, Packet, Sim, TrafficClass};
use simcore::{SimDuration, SimTime};
use std::any::Any;

/// A scripted prober: sends an exact sequence of (kind, aux, seq, marked)
/// packets at fixed spacing, then records any verdicts that come back.
struct Scripted {
    peer: NodeId,
    script: Vec<(TrafficClass, u64, u64, bool)>,
    next: usize,
    pub verdicts: Vec<bool>,
}

impl Agent for Scripted {
    fn on_start(&mut self, api: &mut Api) {
        api.timer_in(SimDuration::ZERO, 0, 0);
    }

    fn on_packet(&mut self, pkt: Packet, _api: &mut Api) {
        match Msg::decode(pkt.aux) {
            Some(Msg::Accept) => self.verdicts.push(true),
            Some(Msg::Reject) => self.verdicts.push(false),
            _ => {}
        }
    }

    fn on_timer(&mut self, _k: u32, _d: u64, api: &mut Api) {
        if self.next >= self.script.len() {
            return;
        }
        let (class, aux, seq, marked) = self.script[self.next];
        self.next += 1;
        let mut pkt = Packet::new(
            seq,
            FlowId(1),
            api.node,
            self.peer,
            125,
            class,
            seq,
            api.now(),
        )
        .with_aux(aux);
        pkt.marked = marked;
        api.send(pkt);
        api.timer_in(SimDuration::from_millis(1), 0, 0);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

fn world(signal: Signal, eps: f64) -> (Sim, NodeId, NodeId) {
    let mut net = Network::new();
    let host = net.add_node();
    let sink = net.add_node();
    let fast = || Box::new(DropTail::new(Limit::Packets(10_000)));
    net.add_link(
        host,
        sink,
        100_000_000,
        SimDuration::from_millis(1),
        fast(),
        None,
    );
    net.add_link(
        sink,
        host,
        100_000_000,
        SimDuration::from_millis(1),
        fast(),
        None,
    );
    let mut sim = Sim::new(net);
    sim.attach(
        sink,
        Box::new(SinkAgent::new(SinkConfig {
            signal,
            eps_per_group: vec![eps],
            grace: SimDuration::from_millis(10),
            flow_ttl: SimDuration::from_secs(70),
        })),
    );
    (sim, host, sink)
}

fn probe(stage: u8, seq: u64) -> (TrafficClass, u64, u64, bool) {
    (TrafficClass::Probe, probe_aux(stage, 0), seq, false)
}

fn marked_probe(stage: u8, seq: u64) -> (TrafficClass, u64, u64, bool) {
    (TrafficClass::Probe, probe_aux(stage, 0), seq, true)
}

fn ctrl(msg: Msg) -> (TrafficClass, u64, u64, bool) {
    (TrafficClass::Control, msg.encode(), 0, false)
}

fn run_script(signal: Signal, eps: f64, script: Vec<(TrafficClass, u64, u64, bool)>) -> Vec<bool> {
    let (mut sim, host, _sink) = world(signal, eps);
    sim.attach(
        host,
        Box::new(Scripted {
            peer: NodeId(1),
            script,
            next: 0,
            verdicts: Vec::new(),
        }),
    );
    sim.run_until(SimTime::from_secs(10));
    sim.agent::<Scripted>(host).unwrap().verdicts.clone()
}

#[test]
fn clean_final_stage_accepts() {
    let mut script = vec![ctrl(Msg::ProbeStart {
        group: 0,
        expected: 10,
        abort: false,
    })];
    for i in 0..10 {
        script.push(probe(0, i));
    }
    script.push(ctrl(Msg::StageEnd {
        stage: 0,
        sent: 10,
        is_final: true,
    }));
    assert_eq!(run_script(Signal::Drop, 0.0, script), vec![true]);
}

#[test]
fn lossy_stage_rejects_at_zero_epsilon() {
    let mut script = vec![ctrl(Msg::ProbeStart {
        group: 0,
        expected: 10,
        abort: false,
    })];
    // Send 9 of 10 (one "lost": the sink sees sent=10, received=9).
    for i in 0..9 {
        script.push(probe(0, i));
    }
    script.push(ctrl(Msg::StageEnd {
        stage: 0,
        sent: 10,
        is_final: true,
    }));
    assert_eq!(run_script(Signal::Drop, 0.0, script), vec![false]);
}

#[test]
fn loss_within_epsilon_accepts() {
    let mut script = vec![ctrl(Msg::ProbeStart {
        group: 0,
        expected: 100,
        abort: false,
    })];
    for i in 0..95 {
        script.push(probe(0, i));
    }
    // 5/100 = 5% loss, threshold 10%.
    script.push(ctrl(Msg::StageEnd {
        stage: 0,
        sent: 100,
        is_final: true,
    }));
    assert_eq!(run_script(Signal::Drop, 0.10, script), vec![true]);
}

#[test]
fn early_stage_failure_rejects_before_final() {
    let mut script = vec![ctrl(Msg::ProbeStart {
        group: 0,
        expected: 20,
        abort: false,
    })];
    // Stage 0: 5 of 10 arrive -> 50% loss, must reject.
    for i in 0..5 {
        script.push(probe(0, i));
    }
    script.push(ctrl(Msg::StageEnd {
        stage: 0,
        sent: 10,
        is_final: false,
    }));
    // Stage 1 would have been clean, but the verdict already fell.
    for i in 10..20 {
        script.push(probe(1, i));
    }
    script.push(ctrl(Msg::StageEnd {
        stage: 1,
        sent: 10,
        is_final: true,
    }));
    let verdicts = run_script(Signal::Drop, 0.0, script);
    assert_eq!(verdicts, vec![false], "one verdict only, and it's a reject");
}

#[test]
fn in_flight_abort_fires_before_stage_end() {
    // Simple probing: expected 1000 packets, eps 1% -> budget 10 losses.
    // Sequence numbers jump by 50: the sink can prove the budget is blown
    // after a handful of arrivals, long before any stage-end report.
    let mut script = vec![ctrl(Msg::ProbeStart {
        group: 0,
        expected: 1_000,
        abort: true,
    })];
    for i in 0..5 {
        script.push(probe(0, i * 50));
    }
    let verdicts = run_script(Signal::Drop, 0.01, script);
    assert_eq!(verdicts, vec![false], "abort rule should reject mid-probe");
}

#[test]
fn marks_count_for_marking_designs_only() {
    let mk = |signal| {
        let mut script = vec![ctrl(Msg::ProbeStart {
            group: 0,
            expected: 10,
            abort: false,
        })];
        for i in 0..10 {
            // All delivered, half marked.
            if i % 2 == 0 {
                script.push(marked_probe(0, i));
            } else {
                script.push(probe(0, i));
            }
        }
        script.push(ctrl(Msg::StageEnd {
            stage: 0,
            sent: 10,
            is_final: true,
        }));
        run_script(signal, 0.10, script)
    };
    // Drop signal ignores marks: accepted.
    assert_eq!(mk(Signal::Drop), vec![true]);
    // Mark signal counts them: 50% >> 10%: rejected.
    assert_eq!(mk(Signal::Mark), vec![false]);
}

#[test]
fn duplicate_stage_end_yields_single_verdict() {
    let mut script = vec![ctrl(Msg::ProbeStart {
        group: 0,
        expected: 4,
        abort: false,
    })];
    for i in 0..4 {
        script.push(probe(0, i));
    }
    let end = ctrl(Msg::StageEnd {
        stage: 0,
        sent: 4,
        is_final: true,
    });
    script.push(end);
    script.push(end);
    assert_eq!(run_script(Signal::Drop, 0.0, script), vec![true]);
}

#[test]
fn abandoned_probe_is_reclaimed_at_flow_ttl() {
    // The prober starts and probes but never reports a final stage (its
    // StageEnd was lost, say): no verdict can fall, so only the 70 s TTL
    // collector frees the record.
    let mut script = vec![ctrl(Msg::ProbeStart {
        group: 0,
        expected: 10,
        abort: false,
    })];
    for i in 0..5 {
        script.push(probe(0, i));
    }
    let (mut sim, host, sink) = world(Signal::Drop, 0.0);
    sim.attach(
        host,
        Box::new(Scripted {
            peer: sink,
            script,
            next: 0,
            verdicts: Vec::new(),
        }),
    );
    sim.run_until(SimTime::from_secs(60));
    let s = sim.agent::<SinkAgent>(sink).unwrap();
    assert_eq!(s.undecided_flows(), 1);
    assert_eq!(s.stats.expired.total(), 0);

    sim.run_until(SimTime::from_secs(80));
    let s = sim.agent::<SinkAgent>(sink).unwrap();
    assert_eq!(s.stats.expired.total(), 1);
    assert_eq!(s.undecided_flows(), 0);
    assert!(sim.agent::<Scripted>(host).unwrap().verdicts.is_empty());
}
