//! The event calendar.
//!
//! Two implementations share one contract: events keyed on `(time, seq)`
//! pop in exact nondecreasing `(time, seq)` order. The monotone sequence
//! number guarantees that events scheduled for the same instant fire in
//! the order they were scheduled (FIFO), which keeps simulations
//! deterministic and makes "schedule B right after A" reasoning valid.
//!
//! - [`EventQueue`] — the production calendar: a sliding calendar queue
//!   (a ring of buckets, i.e. a timer wheel) with a far-future overflow
//!   heap. The near window covers [`NUM_BUCKETS`] buckets of
//!   `2^`[`WIDTH_BITS`] ns each (~33.5 ms) starting at the activation
//!   cursor, and it slides forward with every bucket activation, so the
//!   packet-level hot path (transmission completions, 20 ms propagation
//!   deliveries, in-burst packet spacing, link-up kicks) always lands in
//!   an O(1) bucket; only long-lived protocol timers (flow arrivals,
//!   lifetimes, probe deadlines) pay the overflow heap, and they move
//!   into the ring once the window reaches them. The active region is a
//!   sorted run, not a heap: activating a bucket swaps its `Vec` in and
//!   sorts it once, every pop is a `Vec::pop` off the end, and the rare
//!   schedule behind the cursor is placed by binary search (a zero-delay
//!   event usually lands at the end). Buffers change places on each
//!   swap but none is freed, so steady-state scheduling allocates
//!   nothing.
//! - [`HeapEventQueue`] — the original binary-heap calendar, kept as the
//!   reference implementation for differential property tests and the
//!   engine benchmarks.
//!
//! Because `(time, seq)` is a total order, both implementations produce
//! bit-identical pop sequences; `tests/props.rs` checks them against each
//! other on random schedules (including same-instant ties).
//!
//! A schedule's sequence number can be taken before the schedule itself:
//! [`EventQueue::ticket`] hands out the next one as a [`Ticket`], and
//! [`EventQueue::schedule_ticket`] spends it. An event scheduled later
//! with an early ticket takes the place in line it would have had if it
//! had been scheduled when the ticket was taken, so an agent can defer a
//! schedule (a retransmission timer that is moved on every ACK, say)
//! without changing the order of anything else.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem;

/// log2 of the calendar bucket width in nanoseconds (2^16 ns ≈ 65.5 µs).
pub const WIDTH_BITS: u32 = 16;
/// Number of buckets in the near window (must be a multiple of 64). The
/// window, 512 × 2^16 ns ≈ 33.5 ms, holds every delay the packet path
/// schedules (20 ms propagation, 100 µs transmission, 3.9 ms in-burst
/// spacing), and its bucket headers, 12 KB, fit in L1.
pub const NUM_BUCKETS: usize = 512;
const OCC_WORDS: usize = NUM_BUCKETS / 64;

/// A cheap point-in-time view of a calendar, read by periodic samplers
/// (clock, throughput, backlog) without touching queue internals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueSnapshot {
    /// The current simulation clock.
    pub now: SimTime,
    /// Events fired so far.
    pub fired: u64,
    /// Events pending.
    pub pending: usize,
}

/// A place in the calendar's FIFO order at one instant: the sequence
/// number of a schedule not yet made. Taken with
/// [`EventQueue::ticket`] (or [`HeapEventQueue::ticket`]) and spent by
/// `schedule_ticket`, which consumes it, so one ticket orders at most one
/// event. A dropped ticket leaves a gap in the sequence and nothing else.
/// Spend a ticket only on the calendar that issued it.
#[derive(Debug)]
pub struct Ticket(u64);

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want earliest
        // first; an ascending sort puts the earliest entry last.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event calendar holding events of type `E`.
///
/// Tracks the current simulation clock: the clock advances to an event's
/// timestamp when that event is popped. Scheduling in the past is a bug
/// and panics (it would silently reorder causality otherwise).
pub struct EventQueue<E> {
    /// The near window as a ring: an entry whose absolute bucket
    /// `abs = at >> WIDTH_BITS` lies in `cursor..cursor + NUM_BUCKETS`
    /// sits, unsorted, in `buckets[abs % NUM_BUCKETS]`. Vecs keep their
    /// capacity when drained (a free-list in place), so steady state
    /// allocates nothing.
    buckets: Vec<Vec<Entry<E>>>,
    /// One bit per ring slot: set iff the bucket is non-empty.
    occ: [u64; OCC_WORDS],
    /// Entries in the near window, excluding `current`.
    near_count: usize,
    /// Absolute buckets `< cursor` have been activated (moved into
    /// `current`); insertions targeting them go straight to `current`.
    /// The window starts here, so it slides with every activation.
    cursor: u64,
    /// The active run: every pending entry before the activation
    /// boundary, sorted latest first so the earliest pops off the end.
    /// Always pops before any bucket or overflow entry.
    current: Vec<Entry<E>>,
    /// Entries beyond the near window (`abs >= cursor + NUM_BUCKETS`),
    /// moved into the ring as the window slides over them.
    far: BinaryHeap<Entry<E>>,
    now: SimTime,
    seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty calendar with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occ: [0; OCC_WORDS],
            near_count: 0,
            cursor: 0,
            current: Vec::new(),
            far: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            popped: 0,
        }
    }

    /// The current simulation clock.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.current.len() + self.near_count + self.far.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events fired so far (for throughput reporting).
    #[inline]
    pub fn events_fired(&self) -> u64 {
        self.popped
    }

    /// A point-in-time view of the calendar for samplers and telemetry.
    #[inline]
    pub fn snapshot(&self) -> QueueSnapshot {
        QueueSnapshot {
            now: self.now,
            fired: self.popped,
            pending: self.len(),
        }
    }

    /// Schedule `event` at absolute time `at`. Panics if `at` is in the
    /// past.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let ticket = self.ticket();
        self.schedule_ticket(at, ticket, event);
    }

    /// Take the next place in the FIFO order without scheduling anything
    /// yet (see [`Ticket`]).
    #[inline]
    pub fn ticket(&mut self) -> Ticket {
        let seq = self.seq;
        self.seq += 1;
        Ticket(seq)
    }

    /// Schedule `event` at absolute time `at` in the place `ticket` holds:
    /// it pops after every event due at `at` whose ticket is older, and
    /// before every one whose ticket is newer, whenever each was
    /// scheduled. Panics if `at` is in the past.
    pub fn schedule_ticket(&mut self, at: SimTime, ticket: Ticket, event: E) {
        if at < self.now {
            panic!("scheduling into the past: {at:?} < now {:?}", self.now);
        }
        self.push_entry(Entry {
            at,
            seq: ticket.0,
            event,
        });
    }

    /// Schedule `event` to fire `delay` after the current clock.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Every pending event with its due time, in no particular order
    /// (for tests that inspect the backlog).
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &E)> {
        self.current
            .iter()
            .chain(self.buckets.iter().flatten())
            .chain(self.far.iter())
            .map(|e| (e.at, &e.event))
    }

    /// Timestamp of the next pending event, if any.
    ///
    /// Takes `&mut self`: peeking may activate the next calendar bucket
    /// (the work is shared with the following [`pop`](EventQueue::pop)).
    #[inline]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.ensure_current();
        self.current.last().map(|e| e.at)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::MAX)
    }

    /// Pop the next event if it is due at or before `until`, advancing
    /// the clock to its timestamp; otherwise leave it pending and the
    /// clock where it is. One call in place of
    /// [`peek_time`](EventQueue::peek_time) then [`pop`](EventQueue::pop).
    #[inline]
    pub fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        self.ensure_current();
        let entry = self.current.pop_if(|e| e.at <= until)?;
        debug_assert!(entry.at >= self.now, "event queue time went backwards");
        self.now = entry.at;
        self.popped += 1;
        Some((entry.at, entry.event))
    }

    /// Drop every pending event (the clock is left where it is).
    pub fn clear(&mut self) {
        for w in 0..OCC_WORDS {
            let mut bits = self.occ[w];
            while bits != 0 {
                let b = w * 64 + bits.trailing_zeros() as usize;
                self.buckets[b].clear();
                bits &= bits - 1;
            }
            self.occ[w] = 0;
        }
        self.near_count = 0;
        self.current.clear();
        self.far.clear();
    }

    #[inline]
    fn push_entry(&mut self, entry: Entry<E>) {
        let abs = entry.at.as_nanos() >> WIDTH_BITS;
        if abs < self.cursor {
            // Behind the activation boundary: keep the run sorted so late
            // arrivals still pop in exact (time, seq) order. The newest
            // entry is usually the earliest (a zero-delay event), so it
            // goes on the end without a search.
            match self.current.last() {
                // `Ord` is reversed: `last >= entry` means `last` pops
                // first, so `entry` belongs further in.
                Some(last) if *last >= entry => {
                    let i = self.current.partition_point(|e| *e < entry);
                    self.current.insert(i, entry);
                }
                _ => self.current.push(entry),
            }
        } else if abs - self.cursor < NUM_BUCKETS as u64 {
            let slot = (abs % NUM_BUCKETS as u64) as usize;
            if self.buckets[slot].is_empty() {
                self.occ[slot / 64] |= 1u64 << (slot % 64);
            }
            self.buckets[slot].push(entry);
            self.near_count += 1;
        } else {
            self.far.push(entry);
        }
    }

    #[inline]
    fn ensure_current(&mut self) {
        if self.current.is_empty() {
            self.activate();
        }
    }

    /// Refill the empty active run with the globally earliest pending
    /// entries (or leave it empty if the whole calendar is). Swaps in the
    /// next occupied ring bucket and sorts it, which slides the window
    /// forward; when the ring is empty, jumps the cursor just past the
    /// earliest overflow bucket and moves that bucket's entries straight
    /// into the run, so a sparse stretch (one timer per 100 ms, say)
    /// never touches a ring bucket. Either way, overflow entries the
    /// window now covers move into the ring.
    fn activate(&mut self) {
        debug_assert!(self.current.is_empty());
        if self.near_count > 0 {
            let abs = self.next_occupied();
            let slot = (abs % NUM_BUCKETS as u64) as usize;
            self.occ[slot / 64] &= !(1u64 << (slot % 64));
            self.near_count -= self.buckets[slot].len();
            // The empty run's buffer becomes the bucket's, so no
            // capacity is lost and nothing is copied.
            mem::swap(&mut self.current, &mut self.buckets[slot]);
            // `(time, seq)` is a total order, so the sort is
            // deterministic.
            self.current.sort_unstable();
            self.cursor = abs + 1;
        } else if let Some(e) = self.far.peek() {
            let abs = e.at.as_nanos() >> WIDTH_BITS;
            self.cursor = abs + 1;
            // Append the bucket's entries and order them once: inserting
            // them one by one would be quadratic on a dense bucket. The
            // heap yields them earliest first, so reversing sorts them.
            while let Some(e) = self.far.peek() {
                if e.at.as_nanos() >> WIDTH_BITS != abs {
                    break;
                }
                self.current.push(self.far.pop().expect("peeked"));
            }
            self.current.reverse();
        } else {
            return; // truly empty
        }
        // Every remaining overflow entry lies at or past the cursor, so
        // these go to ring buckets, never into the active run.
        let end = self.cursor + NUM_BUCKETS as u64;
        while let Some(e) = self.far.peek() {
            if e.at.as_nanos() >> WIDTH_BITS >= end {
                break;
            }
            let entry = self.far.pop().expect("peeked");
            self.push_entry(entry);
        }
    }

    /// Absolute bucket of the first occupied ring slot at or after the
    /// cursor: one pass round the ring via the occupancy bitmap.
    #[inline]
    fn next_occupied(&self) -> u64 {
        let start = (self.cursor % NUM_BUCKETS as u64) as usize;
        let slot = self
            .first_occupied_from(start)
            .or_else(|| self.first_occupied_from(0))
            .expect("near_count > 0");
        self.cursor + ((slot + NUM_BUCKETS - start) % NUM_BUCKETS) as u64
    }

    /// First occupied ring slot at or after `from` (no wrap-around).
    #[inline]
    fn first_occupied_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = self.occ[w] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            if w >= OCC_WORDS {
                return None;
            }
            bits = self.occ[w];
        }
    }
}

/// The original binary-heap event calendar, kept as the reference
/// implementation the calendar queue is differential-tested against (and
/// benchmarked against in `benches/engine.rs`). Same `(time, seq)`
/// contract and API as [`EventQueue`].
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    seq: u64,
    popped: u64,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// An empty calendar with the clock at zero.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            popped: 0,
        }
    }

    /// The current simulation clock.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events fired so far.
    #[inline]
    pub fn events_fired(&self) -> u64 {
        self.popped
    }

    /// A point-in-time view of the calendar for samplers and telemetry.
    #[inline]
    pub fn snapshot(&self) -> QueueSnapshot {
        QueueSnapshot {
            now: self.now,
            fired: self.popped,
            pending: self.len(),
        }
    }

    /// Schedule `event` at absolute time `at`. Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let ticket = self.ticket();
        self.schedule_ticket(at, ticket, event);
    }

    /// Take the next place in the FIFO order (see [`Ticket`]).
    pub fn ticket(&mut self) -> Ticket {
        let seq = self.seq;
        self.seq += 1;
        Ticket(seq)
    }

    /// Schedule `event` at `at` in the place `ticket` holds. Panics if
    /// `at` is in the past.
    pub fn schedule_ticket(&mut self, at: SimTime, ticket: Ticket, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < now {:?}",
            self.now
        );
        self.heap.push(Entry {
            at,
            seq: ticket.0,
            event,
        });
    }

    /// Schedule `event` to fire `delay` after the current clock.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Timestamp of the next pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "event queue time went backwards");
        self.now = entry.at;
        self.popped += 1;
        Some((entry.at, entry.event))
    }

    /// Drop every pending event (the clock is left where it is).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), "c");
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn an_early_ticket_keeps_its_place_in_line() {
        // `a` takes its ticket first but is scheduled last; `b` is
        // scheduled in between for the same instant. `a` pops first on
        // both calendars, and so does an event behind the cursor.
        let t = SimTime::from_secs(1);
        let mut q = EventQueue::new();
        let mut h = HeapEventQueue::new();
        let (qa, ha) = (q.ticket(), h.ticket());
        q.schedule_at(t, "b");
        h.schedule_at(t, "b");
        q.schedule_ticket(t, qa, "a");
        h.schedule_ticket(t, ha, "a");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b"]);
        let order: Vec<_> = std::iter::from_fn(|| h.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b"]);

        // The same behind the cursor: `c` goes into the activated
        // bucket, ahead of `d` at the same instant, whose ticket is newer.
        q.schedule_at(t, "x");
        let early = q.ticket();
        q.schedule_at(t + SimDuration::from_nanos(1), "d");
        assert_eq!(q.pop(), Some((t, "x")));
        q.schedule_ticket(t + SimDuration::from_nanos(1), early, "c");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["c", "d"]);
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_in(SimDuration::from_secs(2), ());
        assert_eq!(q.now(), SimTime::ZERO);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(2));
        assert_eq!(q.now(), t);
    }

    #[test]
    fn schedule_relative_to_clock() {
        let mut q = EventQueue::new();
        q.schedule_in(SimDuration::from_secs(1), 1u32);
        q.pop().unwrap();
        q.schedule_in(SimDuration::from_secs(1), 2u32);
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, 2);
        assert_eq!(t, SimTime::from_secs(2));
    }

    #[test]
    #[should_panic]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(2), ());
        q.pop();
        q.schedule_at(SimTime::from_secs(1), ());
    }

    #[test]
    fn counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_in(SimDuration::ZERO, ());
        q.schedule_in(SimDuration::ZERO, ());
        assert_eq!(q.len(), 2);
        q.schedule_at(SimTime::from_secs(100), ());
        assert_eq!(q.iter().count(), 3);
        q.pop();
        assert_eq!(q.iter().count(), 2);
        assert_eq!(q.events_fired(), 1);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_sorted() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), 10u64);
        q.schedule_at(SimTime::from_secs(4), 4);
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, 4);
        q.schedule_at(SimTime::from_secs(6), 6);
        q.schedule_at(SimTime::from_secs(5), 5);
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(got, vec![5, 6, 10]);
    }

    #[test]
    fn insert_into_activated_region_pops_in_order() {
        // Activate a bucket by peeking, then schedule an event earlier
        // than the activated bucket (but >= now): it must pop first.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(5 << WIDTH_BITS), "late");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5 << WIDTH_BITS)));
        q.schedule_at(SimTime::from_nanos(2 << WIDTH_BITS), "early");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["early", "late"]);
    }

    #[test]
    fn pop_until_leaves_later_events_pending() {
        let mut q = EventQueue::new();
        let (t1, t2) = (SimTime::from_secs(1), SimTime::from_secs(2));
        q.schedule_at(t1, "a");
        q.schedule_at(t2, "b");
        assert_eq!(q.pop_until(t1), Some((t1, "a")));
        assert_eq!(q.pop_until(t1), None);
        assert_eq!(q.now(), t1, "a refused pop leaves the clock alone");
        assert_eq!((q.len(), q.events_fired()), (1, 1));
        assert_eq!(q.pop_until(t2), Some((t2, "b")));
    }

    #[test]
    fn far_future_jump_keeps_order() {
        // Events far beyond the near window (hundreds of seconds) force
        // overflow-heap migration and jumps of the empty window.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(300), "d");
        q.schedule_at(SimTime::from_nanos(10), "a");
        q.schedule_at(SimTime::from_secs(900), "e");
        q.schedule_at(SimTime::from_secs(1), "b");
        q.schedule_at(SimTime::from_secs(2), "c");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c", "d", "e"]);
        assert_eq!(q.now(), SimTime::from_secs(900));
    }

    #[test]
    fn matches_heap_reference_on_mixed_horizons() {
        // Deterministic LCG schedule mixing microsecond and multi-second
        // delays, interleaved with pops — both calendars must agree
        // exactly (the property tests randomize this further).
        let mut cal = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut x: u64 = 0x2545F4914F6CDD1D;
        let mut step = |cal: &mut EventQueue<u64>, heap: &mut HeapEventQueue<u64>, i: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let delay = match x % 4 {
                0 => x % 1_000,          // sub-µs
                1 => x % 1_000_000,      // sub-ms
                2 => x % 100_000_000,    // sub-100ms (window edge)
                _ => x % 10_000_000_000, // up to 10 s (overflow)
            };
            cal.schedule_in(SimDuration::from_nanos(delay), i);
            heap.schedule_in(SimDuration::from_nanos(delay), i);
        };
        for i in 0..500 {
            step(&mut cal, &mut heap, i);
            if i % 3 == 0 {
                assert_eq!(cal.pop(), heap.pop());
            }
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(cal.now(), heap.now());
        assert_eq!(cal.events_fired(), heap.events_fired());
    }
}
