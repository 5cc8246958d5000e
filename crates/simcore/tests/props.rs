//! Property-based tests of the simulation engine's core invariants.

use proptest::prelude::*;
use simcore::queue::HeapEventQueue;
use simcore::stats::Welford;
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

    /// Welford matches the two-pass formulas.
    #[test]
    fn welford_matches_two_pass(xs in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((w.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((w.variance() - var).abs() <= 1e-5 * (1.0 + var.abs()));
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
