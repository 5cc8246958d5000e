//! Property-based tests of the queueing disciplines' invariants.

use netsim::{Dequeue, DropTail, FlowId, Limit, NodeId, Packet, Qdisc, StrictPrio, TrafficClass};
use proptest::prelude::*;
use simcore::SimTime;

fn pkt(id: u64, flow: u64, size: u32, class: TrafficClass) -> Packet {
    Packet::new(
        id,
        FlowId(flow),
        NodeId(0),
        NodeId(1),
        size,
        class,
        id,
        SimTime::ZERO,
    )
}

/// An arbitrary workload step: enqueue (with class/size) or dequeue.
#[derive(Clone, Debug)]
enum Step {
    Enq { flow: u64, size: u32, class: u8 },
    Deq,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..8, 40u32..1500, 0u8..4).prop_map(|(flow, size, class)| Step::Enq {
                flow,
                size,
                class
            }),
            Just(Step::Deq),
        ],
        1..400,
    )
}

fn class_of(idx: u8) -> TrafficClass {
    TrafficClass::ALL[idx as usize % TrafficClass::COUNT]
}

/// Run a workload and check conservation: every packet offered is either
/// rejected at enqueue, evicted, dequeued, or still queued at the end.
/// Also checks that the qdisc is work-conserving: each dequeue returns a
/// packet exactly when one was buffered before the call.
fn check_conservation(q: &mut dyn Qdisc, steps: &[Step]) -> Result<(), TestCaseError> {
    let now = SimTime::ZERO;
    let (mut offered, mut rejected, mut dequeued) = (0u64, 0u64, 0u64);
    // Every eviction of the run accumulates here.
    let mut evicted = Vec::new();
    let mut id = 0;
    for s in steps {
        match s {
            Step::Enq { flow, size, class } => {
                offered += 1;
                if !q.enqueue_into(pkt(id, *flow, *size, class_of(*class)), now, &mut evicted) {
                    rejected += 1;
                }
                id += 1;
            }
            Step::Deq => {
                let buffered = q.len_packets() > 0;
                let got = matches!(q.dequeue(now), Dequeue::Packet(_));
                prop_assert_eq!(got, buffered, "dequeue must serve any buffered packet");
                if got {
                    dequeued += 1;
                }
            }
        }
    }
    prop_assert_eq!(
        offered,
        rejected + evicted.len() as u64 + dequeued + q.len_packets() as u64,
        "packet conservation violated"
    );
    Ok(())
}

proptest! {
    #[test]
    fn droptail_conserves_packets(s in steps(), limit in 1usize..64) {
        let mut q = DropTail::new(Limit::Packets(limit));
        check_conservation(&mut q, &s)?;
        prop_assert!(q.len_packets() <= limit);
    }

    #[test]
    fn droptail_byte_limit_never_exceeded(s in steps(), limit in 100u64..20_000) {
        let mut q = DropTail::new(Limit::Bytes(limit));
        let now = SimTime::ZERO;
        let mut ev = Vec::new();
        let mut id = 0;
        for step in &s {
            if let Step::Enq { flow, size, class } = step {
                q.enqueue_into(pkt(id, *flow, *size, class_of(*class)), now, &mut ev);
                id += 1;
                prop_assert!(q.len_bytes() <= limit);
            } else if let Dequeue::Packet(_) = q.dequeue(now) {}
        }
    }

    #[test]
    fn strict_prio_conserves_and_respects_shared_limit(
        s in steps(),
        limit in 1usize..64,
        out_of_band in any::<bool>(),
    ) {
        let mut q = StrictPrio::admission_queue(Limit::Packets(limit), out_of_band);
        check_conservation(&mut q, &s)?;
        // Shared buffer covers data+probe only; control (band 0) is
        // unbounded, so bound everything below it.
        prop_assert!(q.len_packets() - q.band_len(0) <= limit);
    }

    /// Strict priority: the dequeued packet always comes from the highest
    /// non-empty band.
    #[test]
    fn strict_prio_dequeues_highest_band(s in steps()) {
        let mut q = StrictPrio::admission_queue(Limit::Packets(1000), true);
        let now = SimTime::ZERO;
        let mut ev = Vec::new();
        let mut id = 0;
        for step in &s {
            match step {
                Step::Enq { flow, size, class } => {
                    q.enqueue_into(pkt(id, *flow, *size, class_of(*class)), now, &mut ev);
                    id += 1;
                }
                Step::Deq => {
                    let top = [
                        (TrafficClass::Control, 0usize),
                        (TrafficClass::Data, 1),
                        (TrafficClass::Probe, 2),
                    ]
                    .iter()
                    .find(|(_, b)| q.band_len(*b) > 0)
                    .map(|(c, _)| *c);
                    if let Dequeue::Packet(p) = q.dequeue(now) {
                        // BestEffort maps onto the probe band in this queue.
                        let got = if p.class == TrafficClass::BestEffort {
                            TrafficClass::Probe
                        } else {
                            p.class
                        };
                        prop_assert_eq!(Some(got), top);
                    }
                }
            }
        }
    }

    /// Push-out only ever evicts from bands strictly below the arriving
    /// packet's priority (data evicts probes, never the reverse).
    #[test]
    fn pushout_only_evicts_lower_priority(s in steps(), limit in 1usize..32) {
        let mut q = StrictPrio::admission_queue(Limit::Packets(limit), true);
        let now = SimTime::ZERO;
        let mut ev = Vec::new();
        let mut id = 0;
        for step in &s {
            if let Step::Enq { flow, size, class } = step {
                let class = class_of(*class);
                ev.clear();
                q.enqueue_into(pkt(id, *flow, *size, class), now, &mut ev);
                id += 1;
                for victim in &ev {
                    // The probe band also carries best-effort packets in
                    // this queue's class map.
                    prop_assert!(
                        victim.class == TrafficClass::Probe
                            || victim.class == TrafficClass::BestEffort
                    );
                    prop_assert_eq!(class, TrafficClass::Data);
                }
            } else if let Dequeue::Packet(_) = q.dequeue(now) {}
        }
    }
}
