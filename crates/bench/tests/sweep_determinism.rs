//! The parallel executor's core contract: a sweep's serialized output is
//! byte-identical at any worker count. Runs a small Fig 2 grid (two
//! designs × two seeds) at one and eight workers and compares the JSON.
//! A failing seed is recorded, not raised.

use eac::design::Design;
use eac::multihop::MultihopScenario;
use eac::probe::{Placement, ProbeStyle, Signal};
use eac::scenario::Scenario;
use eac_bench::{SeedOutcome, Sweep};

fn fig2_grid() -> Vec<Scenario> {
    let base = Scenario::basic().horizon_secs(400.0).warmup_secs(100.0);
    [
        Design::endpoint(Signal::Drop, Placement::InBand, ProbeStyle::SlowStart, 0.01),
        Design::endpoint(
            Signal::Mark,
            Placement::OutOfBand,
            ProbeStyle::SlowStart,
            0.05,
        ),
    ]
    .map(|d| base.clone().design(d))
    .to_vec()
}

#[test]
fn jobs8_and_jobs1_serialize_byte_identically() {
    let serial = Sweep::new(fig2_grid(), &[1, 2])
        .jobs(1)
        .run()
        .expect_reports();
    let parallel = Sweep::new(fig2_grid(), &[1, 2])
        .jobs(8)
        .run()
        .expect_reports();
    let js = serde_json::to_string(&serial).expect("serialize serial reports");
    let jp = serde_json::to_string(&parallel).expect("serialize parallel reports");
    assert_eq!(js, jp, "parallel sweep diverged from the serial path");
    // Sanity: the runs actually simulated something.
    assert!(serial.iter().all(|r| r.events > 0 && r.measured_s > 0.0));
}

#[test]
fn multihop_sweep_records_each_failing_seed() {
    // Fifty events exhaust the budget during setup: every seed errors
    // gracefully and the sweep records it instead of panicking.
    let point = MultihopScenario::tables56().event_budget(50);
    let result = Sweep::new(vec![point], &[1, 2]).jobs(2).run();
    assert!(result.reports[0].is_err());
    assert_eq!(result.outcomes[0].len(), 2);
    assert!(result.outcomes[0]
        .iter()
        .all(|o| matches!(o, SeedOutcome::Error { .. })));
}
