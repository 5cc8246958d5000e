//! Closed-form architectural statics from §2.
//!
//! These are the little algebra results the paper's architectural
//! arguments rest on; having them as functions lets the examples and
//! tests state the arguments quantitatively.

/// §2.1.1 — stolen bandwidth under fair queueing. Two groups of flows
/// with rates `r1 < r2` share a max-min fair link. Small flows keep
/// arriving until they saturate their fair share; at that point the large
/// flows' loss fraction is `(r2 - r1) / r2`, even though they probed an
/// uncongested link.
pub fn fq_stolen_loss_fraction(r1: f64, r2: f64) -> f64 {
    assert!(r1 > 0.0 && r2 >= r1);
    (r2 - r1) / r2
}

/// §2.2.1 — the maximum number of same-rate flows (probing or accepted)
/// the link sustains under acceptance threshold ε:
/// `n = (C / r) · 1 / (1 − ε)`.
pub fn max_flows(capacity_bps: f64, rate_bps: f64, epsilon: f64) -> f64 {
    assert!(capacity_bps > 0.0 && rate_bps > 0.0 && (0.0..1.0).contains(&epsilon));
    capacity_bps / rate_bps / (1.0 - epsilon)
}

/// §2.2.1 — the relative size of the occupancy window in which only the
/// less-stringent group (threshold ε₂ > ε₁) is admitted:
/// `(n₂ − n₁) / n₂ = (ε₂ − ε₁) / (1 − ε₁)`.
pub fn threshold_window(eps1: f64, eps2: f64) -> f64 {
    assert!((0.0..1.0).contains(&eps1) && (eps1..1.0).contains(&eps2));
    (eps2 - eps1) / (1.0 - eps1)
}

/// §4.1 — the rule-of-thumb floor on the drop rate that in-band dropping
/// with ε = 0 can verify: with `n_packets` probe packets, a flow is
/// admitted with 50 % probability when the link drop rate is
/// `ν = 1 − 2^(−1/n)`.
pub fn in_band_drop_floor(n_packets: u32) -> f64 {
    assert!(n_packets > 0);
    1.0 - 2f64.powf(-1.0 / n_packets as f64)
}

/// §4.1 — admission probability under simple probing at ε = 0 when the
/// link drops a fraction `nu` of packets independently:
/// `(1 − ν)^n`.
pub fn admission_probability(nu: f64, n_packets: u32) -> f64 {
    assert!((0.0..=1.0).contains(&nu));
    (1.0 - nu).powi(n_packets as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fq_stealing_paper_example() {
        // "If we take r2 = 2 r1 then this loss fraction is 1/2."
        assert!((fq_stolen_loss_fraction(1.0, 2.0) - 0.5).abs() < 1e-12);
        assert_eq!(fq_stolen_loss_fraction(1.0, 1.0), 0.0);
    }

    #[test]
    fn max_flows_examples() {
        // 10 Mbps / 128 kbps = 78.125 at eps = 0.
        assert!((max_flows(10e6, 128e3, 0.0) - 78.125).abs() < 1e-9);
        // eps = 0.2 admits 25% more.
        assert!((max_flows(10e6, 128e3, 0.2) - 97.65625).abs() < 1e-9);
    }

    #[test]
    fn window_examples() {
        // Small thresholds -> small window.
        assert!((threshold_window(0.0, 0.05) - 0.05).abs() < 1e-12);
        assert!(threshold_window(0.01, 0.02) < 0.011);
        // Large eps2 dominates.
        assert!(threshold_window(0.0, 0.5) > 0.49);
    }

    #[test]
    fn drop_floor_matches_paper_rule_of_thumb() {
        // §4.1: for the basic scenario (slow-start probing of EXP1:
        // 496 probe packets) "this results in a rule-of-thumb drop rate
        // of 0.13%".
        let floor = in_band_drop_floor(496);
        assert!((floor - 0.0013).abs() < 2e-4, "floor {floor}");
        // And admission probability at that floor is 50%.
        let p = admission_probability(floor, 496);
        assert!((p - 0.5).abs() < 1e-6, "p {p}");
    }

    #[test]
    fn admission_probability_edges() {
        assert_eq!(admission_probability(0.0, 1000), 1.0);
        assert_eq!(admission_probability(1.0, 3), 0.0);
        assert!(admission_probability(0.01, 100) < 0.4);
    }
}
