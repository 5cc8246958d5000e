//! The `--telemetry DIR` session: sweeps without their own destination
//! claim numbered subdirectories in program order. The session is
//! process-global, so this file holds the only test that sets it.

use eac::scenario::Scenario;
use eac_bench::telemetry_session::set_session_dir;
use eac_bench::Sweep;

fn run_short_sweep() {
    let base = Scenario::basic().horizon_secs(60.0).warmup_secs(10.0);
    Sweep::new(vec![base], &[1]).jobs(1).run().expect_reports();
}

#[test]
fn session_sweeps_number_in_order_and_restart() {
    let root = std::env::temp_dir().join(format!("eac-telemetry-session-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (first, second) = (root.join("first"), root.join("second"));

    set_session_dir(&first);
    run_short_sweep();
    run_short_sweep();
    assert!(first.join("sweep000").is_dir());
    assert!(first.join("sweep001").is_dir());
    assert!(!first.join("sweep002").exists());

    set_session_dir(&second);
    run_short_sweep();
    assert!(second.join("sweep000").is_dir(), "numbering restarts");
    assert!(!second.join("sweep001").exists());

    std::fs::remove_dir_all(&root).unwrap();
}
