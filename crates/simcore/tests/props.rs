//! Property-based tests of the simulation engine's core invariants.

use proptest::prelude::*;
use simcore::queue::HeapEventQueue;
use simcore::{EventQueue, SimDuration, SimRng, SimTime};

proptest! {
    /// The calendar queue pops the exact same (time, event) sequence as the
    /// binary-heap reference on arbitrary schedules — including same-instant
    /// ties (delay 0 collisions are common at small ranges) and delays that
    /// straddle the near-window/overflow boundary.
    #[test]
    fn calendar_matches_heap_reference(
        ops in prop::collection::vec((0u64..200_000_000, 0u8..4), 1..300),
    ) {
        let mut cal = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        for (i, &(delay, pops)) in ops.iter().enumerate() {
            cal.schedule_in(SimDuration::from_nanos(delay), i);
            heap.schedule_in(SimDuration::from_nanos(delay), i);
            for _ in 0..pops {
                prop_assert_eq!(cal.pop(), heap.pop());
                prop_assert_eq!(cal.now(), heap.now());
            }
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() { break; }
        }
        prop_assert_eq!(cal.events_fired(), heap.events_fired());
    }

    /// Some schedules take their ticket first and are made later, when
    /// other events have been scheduled and popped: a deferred timer.
    /// Times sit on a 1 ms grid, so held-back events tie with others at
    /// the same instant. Both calendars pop the same sequence, each
    /// held-back event in its ticket's place.
    #[test]
    fn held_back_tickets_match_heap_reference(
        ops in prop::collection::vec((0u64..200_000_000, 0u8..4, 0u8..4), 1..300),
    ) {
        const GRID: u64 = 1_000_000;
        let mut cal = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut held = std::collections::VecDeque::new();
        let on_grid = |now: SimTime, delay: u64| {
            SimTime::from_nanos((now.as_nanos() + delay).div_ceil(GRID) * GRID)
        };
        for (i, &(delay, pops, action)) in ops.iter().enumerate() {
            let now = cal.now();
            match action {
                0 => held.push_back((cal.ticket(), heap.ticket(), delay, i)),
                1 | 2 => {
                    let spent = if action == 1 { held.pop_front() } else { held.pop_back() };
                    if let Some((ct, ht, delay, j)) = spent {
                        cal.schedule_ticket(on_grid(now, delay), ct, j);
                        heap.schedule_ticket(on_grid(now, delay), ht, j);
                    }
                }
                _ => {
                    cal.schedule_at(on_grid(now, delay), i);
                    heap.schedule_at(on_grid(now, delay), i);
                }
            }
            for _ in 0..pops {
                prop_assert_eq!(cal.pop(), heap.pop());
                prop_assert_eq!(cal.now(), heap.now());
            }
        }
        let now = cal.now();
        for (ct, ht, delay, j) in held {
            cal.schedule_ticket(on_grid(now, delay), ct, j);
            heap.schedule_ticket(on_grid(now, delay), ht, j);
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() { break; }
        }
        prop_assert_eq!(cal.events_fired(), heap.events_fired());
    }

    /// Ties scheduled across both implementations pop FIFO in both.
    #[test]
    fn calendar_matches_heap_on_ties(
        times in prop::collection::vec(0u64..1_000, 2..150),
    ) {
        let mut cal = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            // Coarse quantization forces many exact-tie collisions.
            let at = SimTime::from_nanos((t / 100) * 100);
            cal.schedule_at(at, i);
            heap.schedule_at(at, i);
        }
        let a: Vec<_> = std::iter::from_fn(|| cal.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| heap.pop()).collect();
        prop_assert_eq!(a, b);
    }

    /// Events always pop in nondecreasing time order, regardless of the
    /// schedule order.
    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Simultaneous events preserve scheduling (FIFO) order.
    #[test]
    fn event_queue_fifo_on_ties(n in 1usize..100, t in 0u64..1_000) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule_at(SimTime::from_nanos(t), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    /// The clock after draining equals the max scheduled time.
    #[test]
    fn clock_lands_on_last_event(times in prop::collection::vec(0u64..1_000_000, 1..100)) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.schedule_at(SimTime::from_nanos(t), ());
        }
        while q.pop().is_some() {}
        prop_assert_eq!(q.now().as_nanos(), *times.iter().max().unwrap());
    }

    /// SimTime arithmetic: (t + d) - t == d for all representable values.
    #[test]
    fn time_add_sub_roundtrip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(t);
        let d = SimDuration::from_nanos(d);
        prop_assert_eq!((t + d) - t, d);
    }

    /// Transmission time is monotone in size and antitone in rate.
    #[test]
    fn transmission_monotonicity(bytes in 1u32..100_000, rate in 1_000u64..10_000_000_000) {
        let t = SimDuration::transmission(bytes, rate);
        prop_assert!(SimDuration::transmission(bytes + 1, rate) >= t);
        prop_assert!(SimDuration::transmission(bytes, rate * 2) <= t);
    }

    /// Derived RNG streams are reproducible and tag-sensitive.
    #[test]
    fn rng_derivation_deterministic(seed in any::<u64>(), tag in any::<u64>()) {
        let root = SimRng::new(seed);
        let mut a = root.derive(tag);
        let mut b = root.derive(tag);
        let mut c = root.derive(tag.wrapping_add(1));
        let xa = a.next_u64();
        prop_assert_eq!(xa, b.next_u64());
        // Different tags virtually never collide on the first draw.
        prop_assert_ne!(xa, c.next_u64());
    }

    /// Exponential samples are nonnegative and finite.
    #[test]
    fn exponential_support(seed in any::<u64>(), mean in 1e-6f64..1e6) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            let x = rng.exponential(mean);
            prop_assert!(x.is_finite() && x >= 0.0);
        }
    }

    /// Pareto samples never fall below the scale parameter.
    #[test]
    fn pareto_support(seed in any::<u64>(), alpha in 1.01f64..5.0, mean in 1e-3f64..1e3) {
        let mut rng = SimRng::new(seed);
        let xm = mean * (alpha - 1.0) / alpha;
        for _ in 0..100 {
            let x = rng.pareto(alpha, mean);
            prop_assert!(x.is_finite() && x >= xm * 0.999_999);
        }
    }
}

/// A delay from the simulator's own mix: 100 µs transmissions, 3.9 ms
/// on/off packet spacing, 20 ms propagation, 0.5 s off periods and 300 s
/// lifetimes, plus delays one bucket inside and one bucket past the near
/// window's edge. The fixed values collide often, so same-instant ties
/// are common too.
fn simulator_delay(rng: &mut SimRng) -> SimDuration {
    match rng.next_u64() % 16 {
        0..=5 => SimDuration::from_micros(100),
        6..=8 => SimDuration::from_micros(3_900),
        9..=10 => SimDuration::from_micros(20_100),
        11 => SimDuration::from_nanos(WINDOW_NS - BUCKET_NS),
        12 => SimDuration::from_nanos(WINDOW_NS + BUCKET_NS),
        13..=14 => SimDuration::from_secs_f64(rng.exponential(0.5)),
        _ => SimDuration::from_secs_f64(rng.exponential(300.0)),
    }
}

/// The production calendar and the heap reference, driven in lockstep.
struct Twin {
    cal: EventQueue<u64>,
    heap: HeapEventQueue<u64>,
    next: u64,
    ops: u64,
}

impl Twin {
    fn schedule(&mut self, delay: SimDuration) {
        self.cal.schedule_in(delay, self.next);
        self.heap.schedule_in(delay, self.next);
        self.next += 1;
        self.ops += 1;
    }

    /// Pop from both; they must agree on the event, the clock and the
    /// backlog. False once both are empty.
    fn pop(&mut self) -> bool {
        assert_eq!(self.cal.peek_time(), self.heap.peek_time());
        let got = self.cal.pop();
        assert_eq!(got, self.heap.pop());
        assert_eq!(self.cal.now(), self.heap.now());
        assert_eq!(self.cal.len(), self.heap.len());
        self.ops += 1;
        got.is_some()
    }

    /// Pop one event per step and schedule 0–2 successors (plus one more
    /// while the backlog is under 200): it wanders in the hundreds, like
    /// a busy link's.
    fn hold(&mut self, rng: &mut SimRng, steps: usize) {
        for _ in 0..steps {
            for _ in 0..rng.next_u64() % 3 {
                self.schedule(simulator_delay(rng));
            }
            if self.heap.len() < 200 {
                self.schedule(simulator_delay(rng));
            }
            self.pop();
        }
    }

    fn drain(&mut self) {
        while self.pop() {}
    }
}

/// The calendar's window slides with every activation and wraps round
/// its ring many times over a long run. Replays >100 k operations of the
/// simulator's delay mix against the heap reference, with a sparse
/// stretch (one event per 100 ms, so every activation jumps the empty
/// window) and a `clear()` in the middle.
#[test]
fn sliding_window_matches_heap_over_long_runs() {
    for seed in 1..=3 {
        let mut rng = SimRng::new(seed);
        let mut t = Twin {
            cal: EventQueue::new(),
            heap: HeapEventQueue::new(),
            next: 0,
            ops: 0,
        };
        for _ in 0..500 {
            t.schedule(simulator_delay(&mut rng));
        }
        t.hold(&mut rng, 25_000);

        // Mid-run clear: both drop everything, the clock stays put, and
        // scheduling resumes relative to it.
        t.cal.clear();
        t.heap.clear();
        assert!(t.cal.is_empty() && t.heap.is_empty());
        assert_eq!(t.cal.now(), t.heap.now());
        t.hold(&mut rng, 15_000);

        // Drain, then a sparse stretch: one event per 100 ms, with the odd
        // far-future timer riding along.
        t.drain();
        t.schedule(SimDuration::from_millis(100));
        for _ in 0..2_000 {
            if rng.next_u64().is_multiple_of(50) {
                t.schedule(simulator_delay(&mut rng));
            }
            t.pop();
            t.schedule(SimDuration::from_millis(100));
        }
        t.hold(&mut rng, 10_000);
        t.drain();

        assert!(t.ops >= 100_000, "only {} operations", t.ops);
        assert_eq!(t.cal.events_fired(), t.heap.events_fired());
        // The clock crossed the `WINDOW_NS` window edge thousands of times.
        assert!(
            t.cal.now() > SimTime::from_secs(300),
            "clock {}: {} windows of {WINDOW_NS} ns",
            t.cal.now(),
            t.cal.now().as_nanos() / WINDOW_NS
        );
    }
}

/// One calendar bucket's width in nanoseconds.
const BUCKET_NS: u64 = 1 << simcore::queue::WIDTH_BITS;
/// The near window's span in nanoseconds.
const WINDOW_NS: u64 = (simcore::queue::NUM_BUCKETS as u64) << simcore::queue::WIDTH_BITS;

proptest! {
    /// Schedules made while an activated bucket drains land behind the
    /// activation cursor, in the active run: zero-delay events (the
    /// common case), exact ties with pending entries, other instants in
    /// the same bucket, and the next few buckets. Every pop must match
    /// the heap reference.
    #[test]
    fn schedules_into_a_draining_bucket_match_heap(
        offsets in prop::collection::vec(0u64..BUCKET_NS, 1..64),
        ops in prop::collection::vec((0u8..5, 0u64..BUCKET_NS), 1..200),
    ) {
        let mut cal = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut next = 0u64;
        let mut both = |cal: &mut EventQueue<u64>, heap: &mut HeapEventQueue<u64>, at: SimTime| {
            cal.schedule_at(at, next);
            heap.schedule_at(at, next);
            next += 1;
        };
        let base = 7 * BUCKET_NS;
        for &off in &offsets {
            // Coarse offsets collide, so the bucket starts with ties.
            both(&mut cal, &mut heap, SimTime::from_nanos(base + off / 64 * 64));
        }
        for &(kind, x) in &ops {
            let got = cal.pop();
            prop_assert_eq!(got, heap.pop());
            let now = cal.now();
            let bucket_end = (now.as_nanos() / BUCKET_NS + 1) * BUCKET_NS;
            match kind {
                0 => both(&mut cal, &mut heap, now),
                1 => {
                    both(&mut cal, &mut heap, now);
                    both(&mut cal, &mut heap, now);
                }
                2 => {
                    let at = now.as_nanos() + x % (bucket_end - now.as_nanos());
                    both(&mut cal, &mut heap, SimTime::from_nanos(at));
                }
                3 => {
                    let at = base + offsets[x as usize % offsets.len()] / 64 * 64;
                    both(&mut cal, &mut heap, SimTime::from_nanos(at.max(now.as_nanos())));
                }
                _ => both(&mut cal, &mut heap, SimTime::from_nanos(bucket_end + x * 3)),
            }
            prop_assert_eq!(cal.len(), heap.len());
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() { break; }
        }
    }
}

/// A twin with `n` entries pending past the near window, all in the
/// bucket at 100 s, a few hundred at identical instants.
fn dense_overflow_bucket(rng: &mut SimRng, n: usize) -> Twin {
    let mut t = Twin {
        cal: EventQueue::new(),
        heap: HeapEventQueue::new(),
        next: 0,
        ops: 0,
    };
    let base = 100_000_000_000u64 / BUCKET_NS * BUCKET_NS;
    for i in 0..n {
        let off = if i % 50 == 0 {
            BUCKET_NS / 2
        } else {
            rng.next_u64() % BUCKET_NS
        };
        t.schedule(SimDuration::from_nanos(base + off));
    }
    // Neighbours: the bucket after it, and one well past the window.
    t.schedule(SimDuration::from_nanos(base + BUCKET_NS + 5));
    t.schedule(SimDuration::from_secs(200));
    t
}

/// With the ring empty, the calendar jumps its cursor to the earliest
/// overflow bucket, whose entries all move into the active run at once.
/// Ten thousand and more of them must pop in the heap's order, also with
/// zero-delay and same-bucket schedules made while they drain.
#[test]
fn cursor_jump_into_a_dense_overflow_bucket_matches_heap() {
    let mut rng = SimRng::new(7);
    let mut t = dense_overflow_bucket(&mut rng, 12_000);
    assert_eq!(t.cal.len(), 12_002);
    for i in 0..6_000u64 {
        t.pop();
        match i % 4 {
            0 => t.schedule(SimDuration::ZERO),
            1 => t.schedule(SimDuration::from_nanos(rng.next_u64() % 64)),
            _ => {}
        }
    }
    t.drain();
    assert_eq!(t.cal.events_fired(), t.heap.events_fired());
}

/// `clear()` with an active run part drained: both calendars drop
/// everything, and the schedules that follow (at the clock, behind the
/// cursor, and later) pop in the heap's order.
#[test]
fn clear_with_a_non_empty_active_run_matches_heap() {
    let mut rng = SimRng::new(9);
    let mut t = dense_overflow_bucket(&mut rng, 200);
    for _ in 0..50 {
        t.pop();
    }
    assert!(!t.cal.is_empty());
    t.cal.clear();
    t.heap.clear();
    assert!(t.cal.is_empty() && t.heap.is_empty());
    assert_eq!(t.cal.len(), 0);
    assert_eq!(t.cal.peek_time(), None);
    assert_eq!(t.cal.pop(), None);
    for _ in 0..100 {
        t.schedule(SimDuration::ZERO);
        t.schedule(SimDuration::from_nanos(rng.next_u64() % 64));
        t.schedule(simulator_delay(&mut rng));
    }
    t.hold(&mut rng, 2_000);
    t.drain();
}
