//! Strict-priority scheduling with shared buffers and probe push-out.
//!
//! This is the scheduler §2.1 argues endpoint admission control needs:
//!
//! - strict priority between bands;
//! - an optional *shared buffer* across the admission-controlled bands in
//!   which arriving data packets push out resident probe packets (§3.1).
//!
//! Dequeue pops the first non-empty band, so the scheduler is
//! work-conserving. The aggregate rate limit of §2.1.2 is modelled as the
//! paper simulated it (§3.2): the link runs at the admission-controlled
//! share.

use super::{Dequeue, DropTail, Limit, Qdisc};
use crate::packet::{Packet, TrafficClass};
use simcore::SimTime;

/// Configuration of one priority band (index 0 = highest priority).
#[derive(Clone, Copy, Debug)]
pub struct Band {
    /// Per-band capacity; `None` = bounded only by a shared buffer (or
    /// unbounded if the band is in no shared group).
    pub limit: Option<Limit>,
}

/// Shared buffer over a set of bands with optional push-out.
#[derive(Clone, Debug)]
struct SharedGroup {
    bands: Vec<usize>,
    limit: Limit,
    /// When full, a packet arriving to a higher-priority band in the group
    /// evicts packets from the tail of the lowest-priority non-empty band
    /// in the group (the probe push-out of §3.1).
    pushout: bool,
}

/// Strict-priority scheduler.
pub struct StrictPrio {
    bands: Vec<DropTail>,
    band_limits: Vec<Option<Limit>>,
    class_map: [usize; TrafficClass::COUNT],
    shared: Option<SharedGroup>,
}

impl StrictPrio {
    /// Build a scheduler with the given bands and class→band map.
    ///
    /// Panics if the map points at a nonexistent band.
    pub fn new(bands: Vec<Band>, class_map: [usize; TrafficClass::COUNT]) -> Self {
        assert!(!bands.is_empty());
        for &b in &class_map {
            assert!(b < bands.len(), "class mapped to nonexistent band {b}");
        }
        let band_limits: Vec<_> = bands.iter().map(|b| b.limit).collect();
        StrictPrio {
            bands: bands
                .iter()
                .map(|_| DropTail::new(Limit::Packets(usize::MAX)))
                .collect(),
            band_limits,
            class_map,
            shared: None,
        }
    }

    /// Declare `bands` to share one buffer of capacity `limit`; with
    /// `pushout`, arrivals to higher-priority bands evict from lower ones.
    pub fn with_shared_buffer(mut self, bands: Vec<usize>, limit: Limit, pushout: bool) -> Self {
        for &b in &bands {
            assert!(b < self.bands.len());
        }
        self.shared = Some(SharedGroup {
            bands,
            limit,
            pushout,
        });
        self
    }

    /// The admission-controlled queue of the paper's prototype designs
    /// (§3.1/§3.2): a control band above a data band, probes either sharing
    /// the data band (in-band) or in their own lower band (out-of-band);
    /// the data+probe bands share `buffer` with probe push-out.
    ///
    /// This models the paper's simulation simplification where the link
    /// itself runs at the allocated share, so no rate limiter is attached.
    pub fn admission_queue(buffer: Limit, out_of_band: bool) -> Self {
        Self::admission_queue_opts(buffer, out_of_band, true)
    }

    /// [`StrictPrio::admission_queue`] with the probe push-out rule
    /// switchable (for the push-out ablation bench).
    pub fn admission_queue_opts(buffer: Limit, out_of_band: bool, pushout: bool) -> Self {
        if out_of_band {
            // bands: 0 = control, 1 = data, 2 = probe
            StrictPrio::new(
                vec![
                    Band { limit: None },
                    Band { limit: None },
                    Band { limit: None },
                ],
                class_band_map(0, 1, 2, 2),
            )
            .with_shared_buffer(vec![1, 2], buffer, pushout)
        } else {
            // bands: 0 = control, 1 = data + probe
            StrictPrio::new(
                vec![Band { limit: None }, Band { limit: None }],
                class_band_map(0, 1, 1, 1),
            )
            .with_shared_buffer(vec![1], buffer, false)
        }
    }

    fn group_occupancy(&self, group: &SharedGroup) -> (usize, u64) {
        let mut pkts = 0;
        let mut bytes = 0;
        for &b in &group.bands {
            pkts += self.bands[b].len_packets();
            bytes += self.bands[b].len_bytes();
        }
        (pkts, bytes)
    }

    /// Number of packets queued in `band` (for tests/inspection).
    pub fn band_len(&self, band: usize) -> usize {
        self.bands[band].len_packets()
    }
}

/// Build a class→band array from per-class band indices.
pub fn class_band_map(
    control: usize,
    data: usize,
    probe: usize,
    best_effort: usize,
) -> [usize; TrafficClass::COUNT] {
    let mut m = [0; TrafficClass::COUNT];
    m[TrafficClass::Control.index()] = control;
    m[TrafficClass::Data.index()] = data;
    m[TrafficClass::Probe.index()] = probe;
    m[TrafficClass::BestEffort.index()] = best_effort;
    m
}

impl Qdisc for StrictPrio {
    fn enqueue_into(&mut self, pkt: Packet, _now: SimTime, evicted: &mut Vec<Packet>) -> bool {
        let band = self.class_map[pkt.class.index()];

        // Per-band limit first.
        if let Some(limit) = self.band_limits[band] {
            let q = &self.bands[band];
            if limit.would_overflow(q.len_packets(), q.len_bytes(), pkt.size) {
                return false;
            }
        }

        // Shared-group limit with optional push-out. The group is taken out
        // of `self` for the duration to split the borrow without cloning
        // its band list on every enqueue (this is the per-packet hot path);
        // victims go into the caller's reused scratch, not a fresh Vec.
        if let Some(group) = self.shared.take() {
            let mut accepted = true;
            if group.bands.contains(&band) {
                let (mut pkts, mut bytes) = self.group_occupancy(&group);
                while group.limit.would_overflow(pkts, bytes, pkt.size) {
                    if !group.pushout {
                        accepted = false;
                        break;
                    }
                    // Evict from the lowest-priority non-empty band in the
                    // group that is *strictly lower priority* than the
                    // arriving packet's band.
                    let victim_band = group
                        .bands
                        .iter()
                        .copied()
                        .filter(|&b| b > band && self.bands[b].len_packets() > 0)
                        .max();
                    match victim_band {
                        Some(vb) => {
                            let victim = self.bands[vb]
                                .pop_tail()
                                .expect("non-empty band had no tail");
                            pkts -= 1;
                            bytes -= victim.size as u64;
                            evicted.push(victim);
                        }
                        None => {
                            // Nothing evictable below us: tail drop. (Each
                            // eviction frees at least one slot, so with
                            // push-out this only triggers when no lower band
                            // has packets.)
                            accepted = false;
                            break;
                        }
                    }
                }
            }
            self.shared = Some(group);
            if !accepted {
                return false;
            }
        }

        self.bands[band].force_enqueue(pkt);
        true
    }

    fn dequeue(&mut self, now: SimTime) -> Dequeue {
        match self.bands.iter_mut().find(|b| !b.is_empty()) {
            Some(band) => band.dequeue(now),
            None => Dequeue::Empty,
        }
    }

    fn len_packets(&self) -> usize {
        self.bands.iter().map(|b| b.len_packets()).sum()
    }

    fn len_bytes(&self) -> u64 {
        self.bands.iter().map(|b| b.len_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, NodeId};

    fn pkt(id: u64, class: TrafficClass, size: u32) -> Packet {
        Packet::new(
            id,
            FlowId(0),
            NodeId(0),
            NodeId(1),
            size,
            class,
            id,
            SimTime::ZERO,
        )
    }

    fn deq(q: &mut StrictPrio, now: SimTime) -> Packet {
        match q.dequeue(now) {
            Dequeue::Packet(p) => p,
            other => panic!("expected packet, got {other:?}"),
        }
    }

    #[test]
    fn strict_priority_order() {
        let mut q = StrictPrio::admission_queue(Limit::Packets(100), true);
        let mut ev = Vec::new();
        q.enqueue_into(pkt(0, TrafficClass::Probe, 125), SimTime::ZERO, &mut ev);
        q.enqueue_into(pkt(1, TrafficClass::Data, 125), SimTime::ZERO, &mut ev);
        q.enqueue_into(pkt(2, TrafficClass::Control, 40), SimTime::ZERO, &mut ev);
        assert_eq!(deq(&mut q, SimTime::ZERO).class, TrafficClass::Control);
        assert_eq!(deq(&mut q, SimTime::ZERO).class, TrafficClass::Data);
        assert_eq!(deq(&mut q, SimTime::ZERO).class, TrafficClass::Probe);
        assert!(matches!(q.dequeue(SimTime::ZERO), Dequeue::Empty));
    }

    #[test]
    fn in_band_maps_probe_with_data_fifo() {
        let mut q = StrictPrio::admission_queue(Limit::Packets(100), false);
        let mut ev = Vec::new();
        q.enqueue_into(pkt(0, TrafficClass::Probe, 125), SimTime::ZERO, &mut ev);
        q.enqueue_into(pkt(1, TrafficClass::Data, 125), SimTime::ZERO, &mut ev);
        // In-band: probe and data share a band FIFO, so the probe leaves first.
        assert_eq!(deq(&mut q, SimTime::ZERO).id, 0);
        assert_eq!(deq(&mut q, SimTime::ZERO).id, 1);
    }

    #[test]
    fn data_pushes_out_probe_when_shared_buffer_full() {
        let mut q = StrictPrio::admission_queue(Limit::Packets(2), true);
        let mut ev = Vec::new();
        assert!(q.enqueue_into(pkt(0, TrafficClass::Probe, 125), SimTime::ZERO, &mut ev));
        assert!(q.enqueue_into(pkt(1, TrafficClass::Probe, 125), SimTime::ZERO, &mut ev));
        assert!(q.enqueue_into(pkt(2, TrafficClass::Data, 125), SimTime::ZERO, &mut ev));
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].id, 1, "evicts the newest resident probe");
        assert_eq!(q.band_len(1), 1); // data band
        assert_eq!(q.band_len(2), 1); // one probe left
    }

    #[test]
    fn probe_cannot_push_out_data() {
        let mut q = StrictPrio::admission_queue(Limit::Packets(2), true);
        let mut ev = Vec::new();
        q.enqueue_into(pkt(0, TrafficClass::Data, 125), SimTime::ZERO, &mut ev);
        q.enqueue_into(pkt(1, TrafficClass::Data, 125), SimTime::ZERO, &mut ev);
        assert!(!q.enqueue_into(pkt(2, TrafficClass::Probe, 125), SimTime::ZERO, &mut ev));
        assert!(ev.is_empty());
    }

    #[test]
    fn shared_buffer_counts_both_bands() {
        let mut q = StrictPrio::admission_queue(Limit::Packets(3), true);
        let mut ev = Vec::new();
        q.enqueue_into(pkt(0, TrafficClass::Data, 125), SimTime::ZERO, &mut ev);
        q.enqueue_into(pkt(1, TrafficClass::Probe, 125), SimTime::ZERO, &mut ev);
        q.enqueue_into(pkt(2, TrafficClass::Probe, 125), SimTime::ZERO, &mut ev);
        // Full: another data packet must evict a probe, not be dropped.
        assert!(q.enqueue_into(pkt(3, TrafficClass::Data, 125), SimTime::ZERO, &mut ev));
        assert_eq!(ev.len(), 1);
        assert_eq!(q.len_packets(), 3);
    }

    #[test]
    fn control_band_not_limited_by_shared_buffer() {
        let mut q = StrictPrio::admission_queue(Limit::Packets(1), true);
        let mut ev = Vec::new();
        q.enqueue_into(pkt(0, TrafficClass::Data, 125), SimTime::ZERO, &mut ev);
        // Shared buffer full, but control rides its own band.
        assert!(q.enqueue_into(pkt(1, TrafficClass::Control, 40), SimTime::ZERO, &mut ev));
    }

    #[test]
    fn per_band_limit_drops() {
        // Fig 11's legacy queue: an unbounded control band over one
        // bounded band for everything else.
        let mut q = StrictPrio::new(
            vec![
                Band { limit: None },
                Band {
                    limit: Some(Limit::Packets(1)),
                },
            ],
            class_band_map(0, 1, 1, 1),
        );
        let mut ev = Vec::new();
        assert!(q.enqueue_into(
            pkt(0, TrafficClass::BestEffort, 125),
            SimTime::ZERO,
            &mut ev
        ));
        assert!(!q.enqueue_into(pkt(1, TrafficClass::Data, 125), SimTime::ZERO, &mut ev));
        // The control band above it is not bounded by the full band.
        assert!(q.enqueue_into(pkt(2, TrafficClass::Control, 40), SimTime::ZERO, &mut ev));
        assert_eq!(q.band_len(1), 1);
    }

    #[test]
    fn byte_limited_shared_buffer_pushout_frees_enough() {
        let mut q = StrictPrio::admission_queue(Limit::Bytes(250), true);
        let mut ev = Vec::new();
        q.enqueue_into(pkt(0, TrafficClass::Probe, 125), SimTime::ZERO, &mut ev);
        q.enqueue_into(pkt(1, TrafficClass::Probe, 125), SimTime::ZERO, &mut ev);
        // A 200-byte data packet needs to evict both 125-byte probes.
        assert!(q.enqueue_into(pkt(2, TrafficClass::Data, 200), SimTime::ZERO, &mut ev));
        assert_eq!(ev.len(), 2);
        assert_eq!(q.len_bytes(), 200);
    }
}
