//! Source specifications — Table 1 of the paper, plus the video trace
//! stand-in — and flow demography (Poisson arrivals, exponential
//! lifetimes, §3.2).

use crate::process::{OnOff, PacketProcess, PeriodDist};
use crate::shaper::TokenBucketSpec;
use crate::video::{VideoConfig, VideoSource};
use simcore::SimRng;

/// What kind of packet process a spec builds.
#[derive(Clone, Debug)]
pub enum SourceKind {
    /// On/off source (Table 1's EXP and POO rows).
    OnOff {
        /// Burst (ON) rate, bits/second.
        burst_rate_bps: f64,
        /// Mean ON time, seconds.
        mean_on_s: f64,
        /// Mean OFF time, seconds.
        mean_off_s: f64,
        /// Period length distribution.
        dist: PeriodDist,
    },
    /// Synthetic LRD VBR video (the Star Wars stand-in).
    Video(VideoConfig),
}

/// A reusable description of a traffic source: how it emits packets and
/// the (r, b) token bucket it declares to admission control. The token
/// rate `r` is also the rate the flow probes at.
#[derive(Clone, Debug)]
pub struct SourceSpec {
    /// Human-readable name ("EXP1", "POO1", "StarWars", ...).
    pub name: &'static str,
    /// Emission process.
    pub kind: SourceKind,
    /// Declared token bucket (probing rate = `token.rate_bps`).
    pub token: TokenBucketSpec,
    /// Packet size, bytes.
    pub pkt_bytes: u32,
}

impl SourceSpec {
    /// EXP1: 256k burst, 500 ms on/off, 128k average (Table 1).
    pub fn exp1() -> Self {
        SourceSpec {
            name: "EXP1",
            kind: SourceKind::OnOff {
                burst_rate_bps: 256_000.0,
                mean_on_s: 0.5,
                mean_off_s: 0.5,
                dist: PeriodDist::Exponential,
            },
            token: TokenBucketSpec::new(256_000, 125.0),
            pkt_bytes: 125,
        }
    }

    /// EXP2: 1024k burst, 125 ms on / 875 ms off, 128k average (Table 1).
    pub fn exp2() -> Self {
        SourceSpec {
            name: "EXP2",
            kind: SourceKind::OnOff {
                burst_rate_bps: 1_024_000.0,
                mean_on_s: 0.125,
                mean_off_s: 0.875,
                dist: PeriodDist::Exponential,
            },
            token: TokenBucketSpec::new(1_024_000, 125.0),
            pkt_bytes: 125,
        }
    }

    /// EXP3: 512k burst, 500 ms on/off, 256k average (Table 1).
    pub fn exp3() -> Self {
        SourceSpec {
            name: "EXP3",
            kind: SourceKind::OnOff {
                burst_rate_bps: 512_000.0,
                mean_on_s: 0.5,
                mean_off_s: 0.5,
                dist: PeriodDist::Exponential,
            },
            token: TokenBucketSpec::new(512_000, 125.0),
            pkt_bytes: 125,
        }
    }

    /// EXP4: 256k burst, 5 s on/off, 128k average (Table 1).
    pub fn exp4() -> Self {
        SourceSpec {
            name: "EXP4",
            kind: SourceKind::OnOff {
                burst_rate_bps: 256_000.0,
                mean_on_s: 5.0,
                mean_off_s: 5.0,
                dist: PeriodDist::Exponential,
            },
            token: TokenBucketSpec::new(256_000, 125.0),
            pkt_bytes: 125,
        }
    }

    /// POO1: 256k burst, 500 ms Pareto(α=1.2) on/off, 128k average
    /// (Table 1); aggregate traffic is LRD.
    pub fn poo1() -> Self {
        SourceSpec {
            name: "POO1",
            kind: SourceKind::OnOff {
                burst_rate_bps: 256_000.0,
                mean_on_s: 0.5,
                mean_off_s: 0.5,
                dist: PeriodDist::Pareto(1.2),
            },
            token: TokenBucketSpec::new(256_000, 125.0),
            pkt_bytes: 125,
        }
    }

    /// The Star Wars trace stand-in: synthetic LRD VBR video, 200-byte
    /// packets, reshaped (by dropping) to r = 800 kbps, b = 200 kbit
    /// = 25 000 bytes (§3.2).
    pub fn starwars() -> Self {
        SourceSpec {
            name: "StarWars",
            kind: SourceKind::Video(VideoConfig::default()),
            token: TokenBucketSpec::new(800_000, 25_000.0),
            pkt_bytes: 200,
        }
    }

    /// Declared token rate `r` in bits/second — the probing rate.
    pub fn token_rate_bps(&self) -> u64 {
        self.token.rate_bps
    }

    /// Long-run average rate of the emission process, bits/second.
    pub fn avg_rate_bps(&self) -> f64 {
        match &self.kind {
            SourceKind::OnOff {
                burst_rate_bps,
                mean_on_s,
                mean_off_s,
                ..
            } => burst_rate_bps * mean_on_s / (mean_on_s + mean_off_s),
            SourceKind::Video(cfg) => cfg.mean_rate_bps,
        }
    }

    /// Instantiate the packet process.
    pub fn build(&self) -> Box<dyn PacketProcess> {
        match &self.kind {
            SourceKind::OnOff {
                burst_rate_bps,
                mean_on_s,
                mean_off_s,
                dist,
            } => Box::new(OnOff::new(
                *burst_rate_bps,
                *mean_on_s,
                *mean_off_s,
                *dist,
                self.pkt_bytes,
            )),
            SourceKind::Video(cfg) => Box::new(VideoSource::synthetic(cfg.clone())),
        }
    }
}

/// Flow-level demography: Poisson flow arrivals with mean interarrival
/// `tau`, exponential lifetimes (§3.2: mean lifetime 300 s).
#[derive(Clone, Copy, Debug)]
pub struct Demography {
    /// Mean flow interarrival time τ, seconds.
    pub mean_interarrival_s: f64,
    /// Mean flow lifetime, seconds.
    pub mean_lifetime_s: f64,
}

impl Demography {
    /// Construct; both means must be positive.
    pub fn new(mean_interarrival_s: f64, mean_lifetime_s: f64) -> Self {
        assert!(mean_interarrival_s > 0.0 && mean_lifetime_s > 0.0);
        Demography {
            mean_interarrival_s,
            mean_lifetime_s,
        }
    }

    /// Sample the gap to the next flow arrival.
    pub fn sample_interarrival(&self, rng: &mut SimRng) -> f64 {
        rng.exponential(self.mean_interarrival_s)
    }

    /// Sample a flow lifetime.
    pub fn sample_lifetime(&self, rng: &mut SimRng) -> f64 {
        rng.exponential(self.mean_lifetime_s)
    }

    /// Offered load in flows (Erlang): lifetime / interarrival.
    pub fn offered_flows(&self) -> f64 {
        self.mean_lifetime_s / self.mean_interarrival_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_average_rates() {
        assert!((SourceSpec::exp1().avg_rate_bps() - 128_000.0).abs() < 1e-6);
        assert!((SourceSpec::exp2().avg_rate_bps() - 128_000.0).abs() < 1e-6);
        assert!((SourceSpec::exp3().avg_rate_bps() - 256_000.0).abs() < 1e-6);
        assert!((SourceSpec::exp4().avg_rate_bps() - 128_000.0).abs() < 1e-6);
        assert!((SourceSpec::poo1().avg_rate_bps() - 128_000.0).abs() < 1e-6);
    }

    #[test]
    fn table1_token_rates_are_burst_rates() {
        assert_eq!(SourceSpec::exp1().token_rate_bps(), 256_000);
        assert_eq!(SourceSpec::exp2().token_rate_bps(), 1_024_000);
        assert_eq!(SourceSpec::exp3().token_rate_bps(), 512_000);
        assert_eq!(SourceSpec::starwars().token_rate_bps(), 800_000);
    }

    #[test]
    fn build_produces_working_processes() {
        let mut rng = SimRng::new(1);
        for spec in [
            SourceSpec::exp1(),
            SourceSpec::exp2(),
            SourceSpec::exp3(),
            SourceSpec::exp4(),
            SourceSpec::poo1(),
            SourceSpec::starwars(),
        ] {
            let mut p = spec.build();
            let (gap, size) = p.next_packet(&mut rng);
            assert!(gap.as_secs_f64() >= 0.0);
            assert_eq!(size, spec.pkt_bytes);
        }
    }

    #[test]
    fn demography_samples_and_load() {
        let d = Demography::new(3.5, 300.0);
        assert!((d.offered_flows() - 85.714).abs() < 0.01);
        let mut rng = SimRng::new(2);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| d.sample_interarrival(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 3.5).abs() < 0.05, "mean interarrival {mean}");
        let life: f64 = (0..n).map(|_| d.sample_lifetime(&mut rng)).sum::<f64>() / n as f64;
        assert!((life - 300.0).abs() < 5.0, "mean lifetime {life}");
    }
}
