//! Robustness properties: bit-exact determinism under fault injection and
//! packet-conservation audits on the paper's topologies.

use endpoint_admission::eac::design::Design;
use endpoint_admission::eac::multihop::MultihopScenario;
use endpoint_admission::eac::probe::{Placement, ProbeStyle, Signal};
use endpoint_admission::eac::scenario::Scenario;
use proptest::prelude::*;

/// The Fig 2 single-bottleneck scenario with the full fault kit switched
/// on: a link flap, Bernoulli control-channel loss, verdict timeouts and
/// the event-budget watchdog. Every run ends with the conservation audit.
fn faulty(seed: u64, ctrl_loss: f64, flap_at: f64) -> Scenario {
    Scenario::basic()
        .design(Design::endpoint(
            Signal::Drop,
            Placement::InBand,
            ProbeStyle::SlowStart,
            0.01,
        ))
        .horizon_secs(240.0)
        .warmup_secs(60.0)
        .seed(seed)
        .control_loss(ctrl_loss)
        .flap(flap_at, flap_at + 6.0)
        .verdict_timeout(5.0)
        .event_budget(500_000_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Same seed + same FaultPlan ⇒ bit-identical Reports. Fault draws
    /// come from a dedicated RNG stream, so the whole run — traffic,
    /// probes, losses, flap timing — replays exactly.
    #[test]
    fn same_seed_same_fault_plan_is_bit_identical(
        seed in 1u64..1_000,
        loss_i in 0usize..3,
        flap_at in 70.0f64..180.0,
    ) {
        let losses = [0.0, 0.05, 0.15];
        let s = faulty(seed, losses[loss_i], flap_at);
        let a = s.run().expect("first run");
        let b = s.run().expect("second run");
        prop_assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    /// Different seeds under the same FaultPlan still diverge.
    #[test]
    fn different_seeds_diverge_under_the_same_fault_plan(seed in 1u64..1_000) {
        let a = faulty(seed, 0.1, 100.0).run().expect("seed a");
        let b = faulty(seed + 1, 0.1, 100.0).run().expect("seed b");
        prop_assert_ne!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}

#[test]
fn fig2_scenario_conserves_packets() {
    // Fault-free: every injected packet is delivered, queued, in flight,
    // or accounted as a drop.
    Scenario::basic()
        .horizon_secs(300.0)
        .warmup_secs(75.0)
        .seed(5)
        .run()
        .expect("fault-free conservation");
    // And with faults on (control-packet loss and a bottleneck flap):
    // wire losses, down-drops and no-route drops must balance the books too.
    let r = faulty(5, 0.1, 100.0).run().expect("faulty conservation");
    assert!(r.measured_s > 0.0);
}

#[test]
fn multihop_tables56_conserves_packets() {
    let r = MultihopScenario::tables56()
        .horizon_secs(400.0)
        .warmup_secs(100.0)
        .seed(2)
        .run()
        .expect("multi-hop conservation");
    assert_eq!(r.groups.len(), 4);
}
