//! The wire arena: packets between a transmitter and the next node.
//!
//! A packet that finishes serialisation (or is handed to its own node)
//! waits out its propagation delay here, and the calendar's
//! [`Event::Deliver`](crate::Event::Deliver) carries only its
//! [`WireSlot`]. That keeps every calendar entry small, whatever the
//! packet size. Freed slots are reused last-in first-out, so the arena
//! grows to the peak number of packets in transit and no further.
//!
//! The arena's occupancy is the "in transit" term of the packet
//! conservation identity ([`crate::audit`]).

use crate::packet::Packet;

/// A handle to a packet on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireSlot(u32);

/// A slab of in-transit packets with a free list.
#[derive(Default)]
pub(crate) struct WireArena {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
}

impl WireArena {
    /// Put `pkt` on the wire.
    #[inline]
    pub(crate) fn put(&mut self, pkt: Packet) -> WireSlot {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(pkt);
                WireSlot(i)
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("wire arena full");
                self.slots.push(Some(pkt));
                WireSlot(i)
            }
        }
    }

    /// Take the packet in `slot` off the wire, freeing the slot.
    #[inline]
    pub(crate) fn take(&mut self, slot: WireSlot) -> Packet {
        let pkt = self.slots[slot.0 as usize]
            .take()
            .expect("wire slot delivered twice");
        self.free.push(slot.0);
        pkt
    }

    /// Packets on the wire.
    #[inline]
    pub(crate) fn occupied(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Slots allocated so far, occupied or free.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, NodeId, TrafficClass};
    use simcore::SimTime;

    fn pkt(id: u64) -> Packet {
        Packet::new(
            id,
            FlowId(1),
            NodeId(0),
            NodeId(1),
            125,
            TrafficClass::Data,
            id,
            SimTime::ZERO,
        )
    }

    #[test]
    fn slots_are_reused() {
        let mut w = WireArena::default();
        let a = w.put(pkt(1));
        let b = w.put(pkt(2));
        assert_eq!(w.take(a).id, 1);
        let c = w.put(pkt(3));
        assert_eq!(c, a, "the freed slot is reused");
        assert_eq!((w.occupied(), w.capacity()), (2, 2));
        assert_eq!(w.take(b).id, 2);
        assert_eq!(w.take(c).id, 3);
        assert_eq!((w.occupied(), w.capacity()), (0, 2));
    }

    #[test]
    #[should_panic(expected = "delivered twice")]
    fn double_take_panics() {
        let mut w = WireArena::default();
        let a = w.put(pkt(1));
        w.take(a);
        w.take(a);
    }
}
