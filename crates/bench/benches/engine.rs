//! Microbenchmarks of the simulation substrate: event calendar, queueing
//! disciplines, token buckets, traffic generators and the end-to-end
//! packet path. These guard the engine's throughput — the experiment
//! harness simulates hundreds of millions of packet events.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use netsim::{
    Agent, Api, Dequeue, DropTail, FlowId, Limit, Network, NodeId, Packet, Qdisc, Sim, StrictPrio,
    TrafficClass, VirtualQueue,
};
use simcore::queue::WIDTH_BITS;
use simcore::{EventQueue, HeapEventQueue, SimDuration, SimRng, SimTime, Ticket};
use traffic::shaper::TokenBucket;
use traffic::{OnOff, PacketProcess, PeriodDist};

fn pkt(id: u64, class: TrafficClass) -> Packet {
    Packet::new(
        id,
        FlowId(id % 64),
        NodeId(0),
        NodeId(1),
        125,
        class,
        id,
        SimTime::ZERO,
    )
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event-queue");
    g.throughput(Throughput::Elements(10_000));
    // The bulk load: everything scheduled up front, then drained.
    g.bench_function("calendar schedule+pop 10k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule_at(SimTime::from_nanos((i * 7919) % 1_000_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
    g.bench_function("heap schedule+pop 10k", |b| {
        b.iter(|| {
            let mut q: HeapEventQueue<u64> = HeapEventQueue::new();
            for i in 0..10_000u64 {
                q.schedule_at(SimTime::from_nanos((i * 7919) % 1_000_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
    // The simulator's steady state: a rolling horizon of pending events,
    // each pop scheduling a short-delay successor.
    g.bench_function("calendar hold-model 10k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..256u64 {
                q.schedule_at(SimTime::from_nanos(i * 311), i);
            }
            let mut acc = 0u64;
            for _ in 0..10_000u64 {
                let (_, e) = q.pop().unwrap();
                acc = acc.wrapping_add(e);
                q.schedule_in(SimDuration::from_nanos(1 + (e * 7919) % 200_000), e + 1);
            }
            black_box(acc)
        })
    });
    g.bench_function("heap hold-model 10k", |b| {
        b.iter(|| {
            let mut q: HeapEventQueue<u64> = HeapEventQueue::new();
            for i in 0..256u64 {
                q.schedule_at(SimTime::from_nanos(i * 311), i);
            }
            let mut acc = 0u64;
            for _ in 0..10_000u64 {
                let (_, e) = q.pop().unwrap();
                acc = acc.wrapping_add(e);
                q.schedule_in(SimDuration::from_nanos(1 + (e * 7919) % 200_000), e + 1);
            }
            black_box(acc)
        })
    });
    // The same steady state over the simulator's own delay mix: the
    // clock runs for minutes, so the window slides, wraps round its ring
    // and jumps over empty stretches.
    let delays = packet_delays();
    g.bench_function("calendar hold-model (packet delays)", |b| {
        b.iter(|| black_box(calendar_hold(&delays)))
    });
    g.bench_function("heap hold-model (packet delays)", |b| {
        b.iter(|| black_box(heap_hold(&delays)))
    });
    // The delay mix recorded from every schedule of one `basic` run: the
    // traffic the ring is sized for.
    let recorded = recorded_delays();
    g.bench_function("calendar hold-model (recorded mix)", |b| {
        b.iter(|| black_box(calendar_hold(&recorded)))
    });
    g.bench_function("heap hold-model (recorded mix)", |b| {
        b.iter(|| black_box(heap_hold(&recorded)))
    });
    // The recorded mix with a 0.5 s timer re-armed on every pop, as a TCP
    // sender re-arms its retransmission timer on every ACK: a timer per
    // re-arm, or one per flow that moves on in its last re-arm's place.
    g.bench_function("calendar far re-arm (timer per re-arm)", |b| {
        b.iter(|| black_box(far_rearm(&recorded, false)))
    });
    g.bench_function("calendar far re-arm (one ticketed timer)", |b| {
        b.iter(|| black_box(far_rearm(&recorded, true)))
    });
    // 10k events in one bucket past the near window: the cursor jumps
    // there and the whole bucket enters the active run at once. Moving
    // them one by one into a sorted run would be quadratic.
    let width = 1u64 << WIDTH_BITS;
    let dense = |i: u64| SimTime::from_nanos(100_000_000_000 / width * width + (i * 7919) % width);
    g.bench_function("calendar dense bucket", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule_at(dense(i), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
    g.bench_function("heap dense bucket", |b| {
        b.iter(|| {
            let mut q: HeapEventQueue<u64> = HeapEventQueue::new();
            for i in 0..10_000u64 {
                q.schedule_at(dense(i), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
    g.finish();
}

/// 4096 delays from the simulator's mix: 100 µs transmissions, 3.9 ms
/// on/off spacing, 20 ms propagation, 0.5 s off periods and 300 s
/// lifetimes.
fn packet_delays() -> Vec<SimDuration> {
    let mut rng = SimRng::new(1);
    (0..4096)
        .map(|_| match rng.next_u64() % 16 {
            0..=5 => SimDuration::from_micros(100),
            6..=8 => SimDuration::from_micros(3_900),
            9..=12 => SimDuration::from_micros(20_100),
            13..=14 => SimDuration::from_secs_f64(rng.exponential(0.5)),
            _ => SimDuration::from_secs_f64(rng.exponential(300.0)),
        })
        .collect()
}

/// 4096 delays in the mix recorded from one `basic` run, where three
/// delays make 99.4 % of all schedules: 20 ms propagation, 100 µs
/// transmission and 3.906 ms in-burst spacing, in equal shares. About
/// 1 % are exponential timers: 0.5 s off periods and 300 s lifetimes.
fn recorded_delays() -> Vec<SimDuration> {
    let mut rng = SimRng::new(1);
    (0..4096)
        .map(|_| match rng.next_u64() % 200 {
            0 => SimDuration::from_secs_f64(rng.exponential(0.5)),
            1 => SimDuration::from_secs_f64(rng.exponential(300.0)),
            2..=67 => SimDuration::from_millis(20),
            68..=133 => SimDuration::from_micros(100),
            _ => SimDuration::from_nanos(3_906_250),
        })
        .collect()
}

/// The simulator's steady state on the production calendar: a rolling
/// backlog of 256 events, each pop scheduling one successor `delays`
/// ahead, for 10k pops.
fn calendar_hold(delays: &[SimDuration]) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..256u64 {
        q.schedule_at(SimTime::from_nanos(i * 311), i);
    }
    let mut acc = 0u64;
    for _ in 0..10_000u64 {
        let (_, e) = q.pop().unwrap();
        acc = acc.wrapping_add(e);
        q.schedule_in(delays[e as usize % delays.len()], e + 1);
    }
    acc
}

/// [`calendar_hold`] on the heap reference.
fn heap_hold(delays: &[SimDuration]) -> u64 {
    let mut q: HeapEventQueue<u64> = HeapEventQueue::new();
    for i in 0..256u64 {
        q.schedule_at(SimTime::from_nanos(i * 311), i);
    }
    let mut acc = 0u64;
    for _ in 0..10_000u64 {
        let (_, e) = q.pop().unwrap();
        acc = acc.wrapping_add(e);
        q.schedule_in(delays[e as usize % delays.len()], e + 1);
    }
    acc
}

/// Flows whose timers [`far_rearm`] re-arms: Fig 11's twenty TCP senders.
const FLOWS: usize = 20;
/// Events at or above this are flow timers; below it, packets.
const TIMER: u64 = 1 << 32;

/// [`calendar_hold`] for 10k packet pops, each of which re-arms one
/// flow's timer 0.5 s ahead, past the near window. Without `lazy`,
/// every re-arm schedules a timer and the earlier ones pop stale. With
/// it, each flow keeps one timer: a re-arm only takes a ticket, and a
/// timer that pops before its deadline moves on to it with the last
/// re-arm's ticket, so the deadline keeps its place in line.
fn far_rearm(delays: &[SimDuration], lazy: bool) -> u64 {
    let rto = SimDuration::from_millis(500);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut deadline = [SimTime::ZERO; FLOWS];
    let mut held: [Option<Ticket>; FLOWS] = Default::default();
    let mut live = [false; FLOWS];
    for i in 0..256u64 {
        q.schedule_at(SimTime::from_nanos(i * 311), i);
    }
    let mut packets = 0;
    while packets < 10_000 {
        let (now, e) = q.pop().unwrap();
        if e >= TIMER {
            // A stale timer pops as a no-op; a live one moves on.
            let f = (e - TIMER) as usize;
            if lazy {
                live[f] = deadline[f] > now;
                if live[f] {
                    let ticket = held[f].take().expect("re-armed since");
                    q.schedule_ticket(deadline[f], ticket, e);
                }
            }
            continue;
        }
        packets += 1;
        q.schedule_in(delays[e as usize % delays.len()], e + 1);
        let f = e as usize % FLOWS;
        let ticket = q.ticket();
        deadline[f] = now + rto;
        if lazy && live[f] {
            held[f] = Some(ticket);
        } else {
            q.schedule_ticket(deadline[f], ticket, TIMER + f as u64);
            live[f] = true;
        }
    }
    q.events_fired()
}

fn run_qdisc(q: &mut dyn Qdisc, n: u64, class: TrafficClass) -> u64 {
    let now = SimTime::ZERO;
    let mut evicted = Vec::new();
    let mut out = 0;
    for i in 0..n {
        evicted.clear();
        q.enqueue_into(pkt(i, class), now, &mut evicted);
        if i % 2 == 1 {
            if let Dequeue::Packet(_) = q.dequeue(now) {
                out += 1;
            }
        }
    }
    out
}

fn bench_qdiscs(c: &mut Criterion) {
    let mut g = c.benchmark_group("qdisc");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("drop-tail enqueue/dequeue", |b| {
        b.iter(|| {
            let mut q = DropTail::new(Limit::Packets(256));
            black_box(run_qdisc(&mut q, 10_000, TrafficClass::Data))
        })
    });
    g.bench_function("strict-prio (admission queue, oob)", |b| {
        b.iter(|| {
            let mut q = StrictPrio::admission_queue(Limit::Packets(256), true);
            black_box(run_qdisc(&mut q, 10_000, TrafficClass::Probe))
        })
    });
    g.finish();
}

fn bench_components(c: &mut Criterion) {
    let mut g = c.benchmark_group("components");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("token-bucket take", |b| {
        b.iter(|| {
            let mut tb = TokenBucket::new(10_000_000, 10_000.0);
            let mut t = SimTime::ZERO;
            let mut ok = 0u32;
            for _ in 0..10_000 {
                t += SimDuration::from_micros(100);
                if tb.try_take(125, t) {
                    ok += 1;
                }
            }
            black_box(ok)
        })
    });
    g.bench_function("virtual-queue marking", |b| {
        b.iter(|| {
            let mut vq = VirtualQueue::new(10_000_000, 0.9, 25_000.0);
            let mut t = SimTime::ZERO;
            let mut marks = 0u32;
            for i in 0..10_000 {
                let mut p = pkt(i, TrafficClass::Data);
                t += SimDuration::from_micros(90);
                vq.process(&mut p, t);
                marks += p.marked as u32;
            }
            black_box(marks)
        })
    });
    g.bench_function("exp on/off generator", |b| {
        b.iter(|| {
            let mut s = OnOff::new(256_000.0, 0.5, 0.5, PeriodDist::Exponential, 125);
            let mut rng = SimRng::new(3);
            let mut acc = 0u64;
            for _ in 0..10_000 {
                let (gap, size) = s.next_packet(&mut rng);
                acc = acc.wrapping_add(gap.as_nanos()).wrapping_add(size as u64);
            }
            black_box(acc)
        })
    });
    g.finish();
}

/// End-to-end packet path: one sender blasting through a link to a sink.
struct Blaster {
    peer: NodeId,
    left: u64,
}
impl Agent for Blaster {
    fn on_start(&mut self, api: &mut Api) {
        api.timer_in(SimDuration::ZERO, 0, 0);
    }
    fn on_packet(&mut self, _p: Packet, _api: &mut Api) {}
    fn on_timer(&mut self, _k: u32, _d: u64, api: &mut Api) {
        if self.left > 0 {
            self.left -= 1;
            let p = Packet::new(
                self.left,
                FlowId(1),
                api.node,
                self.peer,
                125,
                TrafficClass::Data,
                self.left,
                api.now(),
            );
            api.send(p);
            api.timer_in(SimDuration::from_micros(100), 0, 0);
        }
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
struct Sink;
impl Agent for Sink {
    fn on_packet(&mut self, _p: Packet, _api: &mut Api) {}
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end-to-end");
    g.throughput(Throughput::Elements(20_000));
    g.bench_function("20k packets through one link", |b| {
        b.iter(|| {
            let mut net = Network::new();
            let a = net.add_node();
            let z = net.add_node();
            net.add_link(
                a,
                z,
                10_000_000,
                SimDuration::from_millis(20),
                Box::new(DropTail::new(Limit::Packets(200))),
                None,
            );
            let mut sim = Sim::new(net);
            sim.attach(
                a,
                Box::new(Blaster {
                    peer: z,
                    left: 20_000,
                }),
            );
            sim.attach(z, Box::new(Sink));
            sim.run_to_completion();
            black_box(sim.queue.events_fired())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_qdiscs,
    bench_components,
    bench_end_to_end
);
criterion_main!(benches);
