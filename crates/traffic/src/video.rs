//! Synthetic variable-bit-rate video — the stand-in for the Star Wars
//! MPEG trace of Garrett & Willinger used in Fig 8(d).
//!
//! The trace itself is proprietary; what the experiment needs from it is a
//! source that is (a) bursty at the frame timescale, (b) long-range
//! dependent at the scene timescale, (c) packetised into 200-byte packets,
//! and (d) reshaped by dropping to an (r = 800 kbps, b = 200 kbit) token
//! bucket, exactly as the paper does. This generator produces frames at a
//! fixed frame rate whose sizes are lognormal around a *scene mean*;
//! scene means are themselves lognormal around the global mean, and scene
//! durations are Pareto — the classic construction for LRD VBR video.
//! There is no trace-driven mode: the original trace is not available.

use crate::process::PacketProcess;
use simcore::{SimDuration, SimRng};

/// Configuration for the synthetic VBR video generator.
#[derive(Clone, Debug)]
pub struct VideoConfig {
    /// Frames per second (the trace uses 24).
    pub fps: f64,
    /// Global mean rate, bits/second (pre-shaping).
    pub mean_rate_bps: f64,
    /// Coefficient of variation of frame sizes within a scene.
    pub frame_cv: f64,
    /// Coefficient of variation of scene means across scenes.
    pub scene_cv: f64,
    /// Pareto shape for scene durations (α ≤ 2 gives LRD).
    pub scene_alpha: f64,
    /// Mean scene duration, seconds.
    pub scene_mean_s: f64,
    /// Packet size used for packetisation, bytes (the trace uses 200).
    pub pkt_bytes: u32,
}

impl Default for VideoConfig {
    fn default() -> Self {
        VideoConfig {
            fps: 24.0,
            mean_rate_bps: 600_000.0,
            frame_cv: 0.35,
            scene_cv: 0.6,
            scene_alpha: 1.5,
            scene_mean_s: 10.0,
            pkt_bytes: 200,
        }
    }
}

/// A VBR video packet process: frames at fixed intervals, each packetised
/// into `pkt_bytes`-byte packets spread evenly across the frame interval.
pub struct VideoSource {
    cfg: VideoConfig,
    /// Frames left in the current scene.
    scene_frames_left: u64,
    /// Mean frame size (bytes) of the current scene.
    scene_mean_bytes: f64,
    /// Remaining packets of the current frame and their spacing.
    pkts_left: u32,
    pkt_gap: SimDuration,
}

impl VideoSource {
    /// A synthetic LRD VBR source.
    pub fn synthetic(cfg: VideoConfig) -> Self {
        assert!(cfg.fps > 0.0 && cfg.mean_rate_bps > 0.0 && cfg.pkt_bytes > 0);
        assert!(cfg.scene_alpha > 1.0);
        VideoSource {
            cfg,
            scene_frames_left: 0,
            scene_mean_bytes: 0.0,
            pkts_left: 0,
            pkt_gap: SimDuration::ZERO,
        }
    }

    /// The next frame's size in bytes.
    fn next_frame(&mut self, rng: &mut SimRng) -> u32 {
        let cfg = &self.cfg;
        if self.scene_frames_left == 0 {
            let dur = rng.pareto(cfg.scene_alpha, cfg.scene_mean_s);
            self.scene_frames_left = (dur * cfg.fps).ceil().max(1.0) as u64;
            let global_mean_bytes = cfg.mean_rate_bps / cfg.fps / 8.0;
            self.scene_mean_bytes = rng.lognormal(global_mean_bytes, cfg.scene_cv);
        }
        self.scene_frames_left -= 1;
        rng.lognormal(self.scene_mean_bytes, cfg.frame_cv).max(1.0) as u32
    }
}

impl PacketProcess for VideoSource {
    fn next_packet(&mut self, rng: &mut SimRng) -> (SimDuration, u32) {
        if self.pkts_left == 0 {
            let frame_bytes = self.next_frame(rng);
            let n = frame_bytes.div_ceil(self.cfg.pkt_bytes).max(1);
            self.pkts_left = n;
            // Spread the frame's packets evenly across the frame interval.
            self.pkt_gap = SimDuration::from_secs_f64(1.0 / self.cfg.fps / n as f64);
        }
        self.pkts_left -= 1;
        (self.pkt_gap, self.cfg.pkt_bytes)
    }

    fn avg_rate_bps(&self) -> f64 {
        self.cfg.mean_rate_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measure(src: &mut VideoSource, seed: u64, horizon_s: f64) -> (f64, Vec<f64>) {
        // Returns (rate bps, per-second byte counts).
        let mut rng = SimRng::new(seed);
        let mut t = 0.0;
        let mut per_sec = vec![0.0; horizon_s as usize];
        let mut bytes = 0u64;
        loop {
            let (gap, size) = src.next_packet(&mut rng);
            t += gap.as_secs_f64();
            if t >= horizon_s {
                break;
            }
            bytes += size as u64;
            per_sec[t as usize] += size as f64 * 8.0;
        }
        (bytes as f64 * 8.0 / horizon_s, per_sec)
    }

    #[test]
    fn synthetic_mean_rate_in_range() {
        let mut v = VideoSource::synthetic(VideoConfig::default());
        let (rate, _) = measure(&mut v, 42, 2_000.0);
        // Lognormal scene structure converges slowly; check the ballpark.
        assert!(rate > 300_000.0 && rate < 1_200_000.0, "rate {rate}");
    }

    #[test]
    fn synthetic_is_bursty_across_seconds() {
        let mut v = VideoSource::synthetic(VideoConfig::default());
        let (_, per_sec) = measure(&mut v, 7, 500.0);
        let mean = per_sec.iter().sum::<f64>() / per_sec.len() as f64;
        let var = per_sec.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / per_sec.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(cv > 0.2, "per-second rate CV {cv} — not bursty enough");
    }

    #[test]
    fn scene_structure_creates_rate_correlation() {
        // Consecutive seconds within a scene should correlate: lag-1
        // autocorrelation of per-second rates must be clearly positive.
        let mut v = VideoSource::synthetic(VideoConfig::default());
        let (_, per_sec) = measure(&mut v, 13, 1_000.0);
        let n = per_sec.len() - 1;
        let mean = per_sec.iter().sum::<f64>() / per_sec.len() as f64;
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..n {
            num += (per_sec[i] - mean) * (per_sec[i + 1] - mean);
        }
        for x in &per_sec {
            den += (x - mean) * (x - mean);
        }
        let rho = num / den;
        assert!(rho > 0.3, "lag-1 autocorrelation {rho}");
    }
}
