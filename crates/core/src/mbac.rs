//! The router-based benchmark: Measured Sum admission control
//! (the paper's \[14\] — Jamin, Shenker & Danzig, INFOCOM 1997), with
//! the time-window load estimator.
//!
//! Measured Sum admits a flow requesting rate `r` iff `ν̂ + r ≤ η·C`,
//! where `ν̂` is the measured load of admission-controlled traffic and η
//! the utilization target. The estimator samples the average arrival rate
//! every `sample_period`; the estimate is the max sampled average within
//! the current measurement window; admitting a flow bumps the estimate by
//! `r` and restarts the window; a sample above the estimate replaces it
//! immediately.
//!
//! Unlike the endpoint designs, requests at a router are *serialised*
//! (§2.2.3) — the simulation's single-threaded event loop provides that
//! serialisation for free.

use netsim::{Link, LinkId, TrafficClass};
use simcore::{SimDuration, SimTime};
use std::collections::HashMap;

/// The measurement window T every metered link uses.
pub const WINDOW: SimDuration = SimDuration::from_secs(1);

/// The sampling period S at which the meter feeds every estimator.
pub const SAMPLE_PERIOD: SimDuration = SimDuration::from_millis(100);

/// Per-link Measured Sum state.
#[derive(Clone, Debug)]
pub struct MeasuredSum {
    /// Current load estimate ν̂, bits/second.
    estimate_bps: f64,
    /// Max sampled average in the current window.
    window_max_bps: f64,
    /// Start of the current measurement window.
    window_start: SimTime,
    /// Window length T.
    window: SimDuration,
    /// Byte counter value at the previous sample (Data class, offered).
    last_bytes: u64,
    /// Time of the previous sample.
    last_sample: SimTime,
    /// Admission-controlled capacity of this link, bits/second.
    capacity_bps: f64,
}

impl MeasuredSum {
    /// Fresh estimator for a link of the given admission-controlled
    /// capacity with measurement window `window`.
    pub fn new(capacity_bps: f64, window: SimDuration) -> Self {
        assert!(capacity_bps > 0.0 && !window.is_zero());
        MeasuredSum {
            estimate_bps: 0.0,
            window_max_bps: 0.0,
            window_start: SimTime::ZERO,
            window,
            last_bytes: 0,
            last_sample: SimTime::ZERO,
            capacity_bps,
        }
    }

    /// Current estimate, bits/second.
    pub fn estimate_bps(&self) -> f64 {
        self.estimate_bps
    }

    /// Feed one sample: cumulative Data bytes offered to the link.
    pub fn sample(&mut self, cumulative_bytes: u64, now: SimTime) {
        let dt = now.since(self.last_sample).as_secs_f64();
        if dt <= 0.0 {
            return;
        }
        let rate = (cumulative_bytes.saturating_sub(self.last_bytes)) as f64 * 8.0 / dt;
        self.last_bytes = cumulative_bytes;
        self.last_sample = now;

        self.window_max_bps = self.window_max_bps.max(rate);
        // A sample above the estimate replaces it immediately.
        if rate > self.estimate_bps {
            self.estimate_bps = rate;
        }
        // At the end of a window, the estimate becomes the window max.
        if now.since(self.window_start) >= self.window {
            self.estimate_bps = self.window_max_bps;
            self.window_max_bps = 0.0;
            self.window_start = now;
        }
    }

    /// Would a flow of rate `r_bps` fit under target utilization `eta`?
    pub fn admits(&self, r_bps: f64, eta: f64) -> bool {
        self.estimate_bps + r_bps <= eta * self.capacity_bps
    }

    /// Commit an admission: bump the estimate and restart the window.
    pub fn commit(&mut self, r_bps: f64, now: SimTime) {
        self.estimate_bps += r_bps;
        self.window_max_bps = 0.0;
        self.window_start = now;
    }
}

/// The registry shared through the network blackboard: one estimator per
/// metered link plus the global utilization target η.
pub struct MbacRegistry {
    links: HashMap<LinkId, MeasuredSum>,
    /// Utilization target η (the knob swept to trace the MBAC loss-load
    /// curve).
    pub eta: f64,
}

impl MbacRegistry {
    /// Empty registry with target `eta`.
    pub fn new(eta: f64) -> Self {
        assert!(eta > 0.0);
        MbacRegistry {
            links: HashMap::new(),
            eta,
        }
    }

    /// Register a link for metering and admission checks.
    pub fn register(&mut self, link: LinkId, capacity_bps: f64, window: SimDuration) {
        self.links
            .insert(link, MeasuredSum::new(capacity_bps, window));
    }

    /// Number of metered links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True if no links are registered.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Hop-by-hop admission for a flow of rate `r_bps` along `path`
    /// (links not registered are unmetered and always admit). All
    /// registered hops must admit; on success the estimate is committed
    /// at each.
    pub fn admit(&mut self, path: &[LinkId], r_bps: f64, now: SimTime) -> bool {
        let ok = path
            .iter()
            .filter_map(|l| self.links.get(l))
            .all(|m| m.admits(r_bps, self.eta));
        if ok {
            for l in path {
                if let Some(m) = self.links.get_mut(l) {
                    m.commit(r_bps, now);
                }
            }
        }
        ok
    }

    /// Sample every registered link from the live link array.
    pub fn sample_all(&mut self, links: &[Link], now: SimTime) {
        for (lid, m) in self.links.iter_mut() {
            let link = &links[lid.0 as usize];
            let bytes = link.stats.class(TrafficClass::Data).offered_bytes.total();
            m.sample(bytes, now);
        }
    }

    /// Estimator for a link (tests/inspection).
    pub fn estimator(&self, link: LinkId) -> Option<&MeasuredSum> {
        self.links.get(&link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_tracks_sampled_rate() {
        let mut m = MeasuredSum::new(10_000_000.0, WINDOW);
        // 125 kB every 100 ms = 10 Mbps.
        let mut bytes = 0;
        for i in 1..=20 {
            bytes += 125_000;
            m.sample(bytes, SimTime::from_secs_f64(i as f64 * 0.1));
        }
        assert!((m.estimate_bps() - 10_000_000.0).abs() / 1e7 < 0.01);
    }

    #[test]
    fn admit_and_commit() {
        let mut m = MeasuredSum::new(10_000_000.0, WINDOW);
        assert!(m.admits(256_000.0, 0.9));
        m.commit(256_000.0, SimTime::ZERO);
        assert_eq!(m.estimate_bps(), 256_000.0);
        // Fill to the target: 9 Mbps / 256k = 35 flows total.
        for _ in 0..34 {
            assert!(m.admits(256_000.0, 0.9));
            m.commit(256_000.0, SimTime::ZERO);
        }
        assert!(!m.admits(256_000.0, 0.9));
    }

    #[test]
    fn window_end_decays_estimate_to_measured_max() {
        let mut m = MeasuredSum::new(10_000_000.0, WINDOW);
        m.commit(5_000_000.0, SimTime::ZERO); // phantom reservation
        assert_eq!(m.estimate_bps(), 5_000_000.0);
        // Actual traffic is only 1 Mbps; after a full window the estimate
        // falls to the measured max.
        let mut bytes = 0;
        for i in 1..=11 {
            bytes += 12_500; // 12.5 kB / 100 ms = 1 Mbps
            m.sample(bytes, SimTime::from_secs_f64(i as f64 * 0.1));
        }
        assert!(
            (m.estimate_bps() - 1_000_000.0).abs() / 1e6 < 0.05,
            "estimate {}",
            m.estimate_bps()
        );
    }

    #[test]
    fn sample_spike_raises_estimate_immediately() {
        let mut m = MeasuredSum::new(10_000_000.0, WINDOW);
        m.sample(125_000, SimTime::from_secs_f64(0.1)); // 10 Mbps spike
        assert!(m.estimate_bps() > 9_000_000.0);
    }

    #[test]
    fn registry_multi_hop_all_must_admit() {
        let mut reg = MbacRegistry::new(0.9);
        reg.register(LinkId(0), 10_000_000.0, WINDOW);
        reg.register(LinkId(1), 1_000_000.0, WINDOW);
        let path = [LinkId(0), LinkId(1)];
        // 900 kbps fits both; commit loads link 1 to its cap.
        assert!(reg.admit(&path, 900_000.0, SimTime::ZERO));
        // Next flow of 256k fails at link 1 but would fit link 0.
        assert!(!reg.admit(&path, 256_000.0, SimTime::ZERO));
        // Link 0 alone still admits — and a failed path committed nothing.
        assert!(reg.admit(&[LinkId(0)], 256_000.0, SimTime::ZERO));
        let e1 = reg.estimator(LinkId(1)).unwrap().estimate_bps();
        assert_eq!(e1, 900_000.0);
    }

    #[test]
    fn unregistered_links_always_admit() {
        let mut reg = MbacRegistry::new(0.9);
        assert!(reg.admit(&[LinkId(7)], 1e12, SimTime::ZERO));
    }
}
