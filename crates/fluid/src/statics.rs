//! The in-band drop-rate floor of §4.1.
//!
//! Section 2's other closed forms (stolen bandwidth under fair queueing,
//! the acceptance-threshold window, the maximum flow count) are algebra
//! the paper states and no simulation checks, so they are not
//! implemented; EXPERIMENTS.md says why each §2 constraint has no target.

/// §4.1 — the rule-of-thumb floor on the drop rate that in-band dropping
/// with ε = 0 can verify: with `n_packets` probe packets, a flow is
/// admitted with 50 % probability when the link drop rate is
/// `ν = 1 − 2^(−1/n)`.
pub fn in_band_drop_floor(n_packets: u32) -> f64 {
    assert!(n_packets > 0);
    1.0 - 2f64.powf(-1.0 / n_packets as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_floor_matches_paper_rule_of_thumb() {
        // §4.1: for the basic scenario (slow-start probing of EXP1:
        // 496 probe packets) "this results in a rule-of-thumb drop rate
        // of 0.13%".
        let floor = in_band_drop_floor(496);
        assert!((floor - 0.0013).abs() < 2e-4, "floor {floor}");
        // And a flow sending 496 probes at that drop rate is admitted
        // with probability (1 − ν)^496 = 50 %.
        let p = (1.0 - floor).powi(496);
        assert!((p - 0.5).abs() < 1e-6, "p {p}");
    }
}
