//! Property-based tests of the admission-control protocol pieces.

use eac::msg::{data_aux, decode_data_aux, decode_probe_aux, probe_aux, Msg};
use eac::probe::{congestion_fraction, ProbePlan, ProbeStyle, Signal};
use proptest::prelude::*;

proptest! {
    /// Every control message round-trips through the aux encoding.
    #[test]
    fn msg_roundtrip(group in any::<u8>(), expected in any::<u32>(), abort in any::<bool>(),
                     stage in any::<u8>(), sent in any::<u32>(), is_final in any::<bool>()) {
        let msgs = [
            Msg::ProbeStart { group, expected, abort },
            Msg::StageEnd { stage, sent, is_final },
            Msg::Accept,
            Msg::Reject,
        ];
        for m in msgs {
            prop_assert_eq!(Msg::decode(m.encode()), Some(m));
        }
    }

    /// Probe/data aux encodings round-trip.
    #[test]
    fn aux_roundtrip(stage in any::<u8>(), group in any::<u8>(), in_window in any::<bool>()) {
        prop_assert_eq!(decode_probe_aux(probe_aux(stage, group)), (stage, group));
        prop_assert_eq!(decode_data_aux(data_aux(group, in_window)), (group, in_window));
    }

    /// A plan's stage packet counts sum to its total for any (rate, size,
    /// duration) combination.
    #[test]
    fn plan_totals_consistent(
        r_kbps in 32u64..4_096,
        pkt in 40u32..1500,
        dur_s in 1u64..60,
    ) {
        let r = r_kbps * 1_000;
        for style in [ProbeStyle::Simple, ProbeStyle::EarlyReject, ProbeStyle::SlowStart] {
            let plan = ProbePlan::new(style, simcore::SimDuration::from_secs(dur_s));
            let total: u32 = (0..plan.num_stages())
                .map(|i| plan.stage_packets(i, r, pkt))
                .sum();
            prop_assert_eq!(total, plan.total_packets(r, pkt));
            // Every stage sends at least one packet and has positive spacing.
            for i in 0..plan.num_stages() {
                prop_assert!(plan.stage_packets(i, r, pkt) >= 1);
                prop_assert!(plan.stage_spacing(i, r, pkt).as_nanos() > 0);
            }
        }
    }

    /// Slow start's stages never decrease in rate; early-reject and simple
    /// probe at the full declared rate in every stage.
    #[test]
    fn plan_rate_shapes(dur_s in 1u64..60) {
        let d = simcore::SimDuration::from_secs(dur_s);
        let ss = ProbePlan::new(ProbeStyle::SlowStart, d);
        for w in ss.stages.windows(2) {
            prop_assert!(w[1].rate_frac >= w[0].rate_frac * 1.99);
        }
        prop_assert_eq!(ss.stages.last().unwrap().rate_frac, 1.0);
        for style in [ProbeStyle::Simple, ProbeStyle::EarlyReject] {
            let p = ProbePlan::new(style, d);
            prop_assert!(p.stages.iter().all(|s| s.rate_frac == 1.0));
        }
    }

    /// The congestion fraction is always in [0, 1] and monotone in the
    /// number of congestion events.
    #[test]
    fn congestion_fraction_bounds(sent in 1u32..100_000, received in 0u32..100_000,
                                  marked in 0u32..100_000) {
        let received = received.min(sent);
        let marked = marked.min(received);
        for signal in [Signal::Drop, Signal::Mark] {
            let f = congestion_fraction(signal, sent, received, marked);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&f), "{f}");
        }
        // Mark counts at least as many events as Drop.
        prop_assert!(
            congestion_fraction(Signal::Mark, sent, received, marked)
                >= congestion_fraction(Signal::Drop, sent, received, marked)
        );
        // Losing one more packet never lowers the fraction.
        if received > 0 {
            prop_assert!(
                congestion_fraction(Signal::Drop, sent, received - 1, 0)
                    >= congestion_fraction(Signal::Drop, sent, received, 0)
            );
        }
    }

    /// Report averaging is idempotent on identical inputs.
    #[test]
    fn report_average_idempotent(util in 0.0f64..1.0, loss in 0.0f64..1.0) {
        use eac::metrics::{GroupReport, Report};
        let r = Report {
            design: "x".into(),
            param: 0.0,
            utilization: util,
            data_loss: loss,
            link_loss: loss,
            blocking: 0.1,
            probe_overhead: 0.05,
            mark_fraction: 0.0,
            delay_hist: Default::default(),
            groups: vec![GroupReport {
                name: "g".into(),
                decided: 10,
                accepted: 9,
                rejected: 1,
                blocking: 0.1,
                data_sent: 100,
                data_received: 99,
                loss: 0.01,
            }],
            link_utils: vec![util],
            timeouts: 0,
            leaked_flows: 0,
            measured_s: 1.0,
            events: 5,
            seed: 0,
        };
        let avg = Report::average(&[r.clone(), r.clone()]);
        prop_assert!((avg.utilization - util).abs() < 1e-12);
        prop_assert!((avg.data_loss - loss).abs() < 1e-12);
        prop_assert_eq!(avg.groups[0].decided, 20);
        prop_assert!((avg.groups[0].blocking - 0.1).abs() < 1e-12);
    }
}
