//! The reference loop every end-to-end timing is expressed against.
//!
//! Wall-clock on a shared or virtualised host drifts: on a 2-vCPU
//! x86-64 virtual machine one 0.3 s scenario run took 0.27 s for tens of
//! seconds, then 0.38 s for several, as other tenants came and went. A
//! fixed piece of work timed next to each sample drifts with it, so
//! `sample × NOMINAL_S / reference` is the sample at a constant reference
//! speed. "Next to" means on the same thread, right before and after: the
//! same loop run meanwhile on the other vCPU did not track the drift at
//! all (correlation 0.05). The loop mimics the simulator's own mix — a
//! binary-heap calendar and hash-map lookups on a small working set — and
//! uses only the standard library, so no change to the repository can
//! move it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// What one reference loop takes at reference speed, seconds. Any
/// constant would do: it only sets the scale the end-to-end timings are
/// reported in. The loop takes 12–17 ms on a 2.1 GHz x86-64 virtual CPU.
pub const NOMINAL_S: f64 = 0.010;

const STEPS: u64 = 200_000;

/// Run the reference loop once and return its wall-clock, seconds.
pub fn time() -> f64 {
    let t = Instant::now();
    black_box(work(black_box(STEPS)));
    t.elapsed().as_secs_f64()
}

fn work(steps: u64) -> u64 {
    let mut calendar: BinaryHeap<Reverse<u64>> = (0..2_000u64)
        .map(|i| Reverse(i * 7_919 % 100_000))
        .collect();
    let mut flows: HashMap<u64, u64> = HashMap::new();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut acc = 0u64;
    for i in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let Reverse(t) = calendar.pop().expect("calendar never empties");
        acc = acc.wrapping_add(t);
        calendar.push(Reverse(t + x % 50_000));
        *flows.entry(x % 4_096).or_insert(0) += i;
        if i % 3 == 0 {
            flows.remove(&(x.rotate_left(7) % 4_096));
        }
    }
    acc ^ flows.len() as u64
}
