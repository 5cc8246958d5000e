//! Sweep-level telemetry: output is byte-identical at any worker count,
//! and failed seeds dump a flight ring naming the triggering event.

use eac::design::Design;
use eac::multihop::MultihopScenario;
use eac::scenario::Scenario;
use eac_bench::Sweep;
use std::collections::BTreeMap;
use std::path::Path;

fn read_tree(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("telemetry dir exists") {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        out.insert(name, std::fs::read(entry.path()).unwrap());
    }
    out
}

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn telemetry_output_is_byte_identical_across_worker_counts() {
    let base = Scenario::basic().horizon_secs(400.0).warmup_secs(100.0);
    let d1 = fresh_dir("eac-telemetry-sweep-jobs1");
    let d8 = fresh_dir("eac-telemetry-sweep-jobs8");

    Sweep::new(vec![base.clone()], &[1, 2])
        .jobs(1)
        .telemetry(&d1)
        .run();
    Sweep::new(vec![base], &[1, 2]).jobs(8).telemetry(&d8).run();

    let t1 = read_tree(&d1);
    let t8 = read_tree(&d8);
    let names: Vec<&String> = t1.keys().collect();
    assert!(
        names.contains(&&"d0_s1.series.csv".to_string())
            && names.contains(&&"d0_s2.metrics.json".to_string())
            && names.contains(&&"d0.metrics.json".to_string())
            && names.contains(&&"d0.series.csv".to_string()),
        "unexpected file set: {names:?}"
    );
    assert_eq!(
        t1.keys().collect::<Vec<_>>(),
        t8.keys().collect::<Vec<_>>(),
        "file sets differ between worker counts"
    );
    for (name, bytes) in &t1 {
        assert_eq!(bytes, &t8[name], "{name} differs between --jobs 1 and 8");
    }

    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d8);
}

#[test]
fn multihop_sweep_is_byte_identical_across_worker_counts() {
    let grid = || {
        [
            MultihopScenario::tables56().design(Design::mbac(0.9)),
            MultihopScenario::tables56(),
        ]
        .map(|s| s.horizon_secs(200.0).warmup_secs(50.0))
        .to_vec()
    };
    let d1 = fresh_dir("eac-telemetry-multihop-jobs1");
    let d8 = fresh_dir("eac-telemetry-multihop-jobs8");

    let r1 = Sweep::new(grid(), &[1, 2]).jobs(1).telemetry(&d1).run();
    let r8 = Sweep::new(grid(), &[1, 2]).jobs(8).telemetry(&d8).run();
    let j1 = serde_json::to_string(&r1.expect_reports()).unwrap();
    let j8 = serde_json::to_string(&r8.expect_reports()).unwrap();
    assert_eq!(j1, j8, "multihop reports differ between --jobs 1 and 8");

    let t1 = read_tree(&d1);
    let t8 = read_tree(&d8);
    for name in ["d0_s1.series.csv", "d1_s2.metrics.json", "d1.series.csv"] {
        assert!(t1.contains_key(name), "{name} missing: {:?}", t1.keys());
    }
    assert!(
        t1 == t8,
        "multihop telemetry trees differ between --jobs 1 and 8"
    );

    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d8);
}

#[test]
fn failed_seed_dumps_flight_ring_with_trigger() {
    let dir = fresh_dir("eac-telemetry-sweep-dump");
    let cases = [
        // A flapping bottleneck plus a tiny event budget: the run dies
        // with an EventBudgetExceeded RunError, which the sim loop
        // records.
        (
            Scenario::basic()
                .horizon_secs(400.0)
                .warmup_secs(100.0)
                .flap(120.0, 150.0)
                .event_budget(20_000),
            "run.error",
        ),
        // A seed that panics (no measure window), as a schedule behind
        // the clock does: the sweep catches it and records the message.
        (
            Scenario::basic().horizon_secs(400.0).warmup_secs(400.0),
            "sweep.panic",
        ),
    ];
    for (base, trigger) in cases {
        let _ = std::fs::remove_dir_all(&dir);
        let result = Sweep::new(vec![base], &[1]).telemetry(&dir).run();
        assert!(result.reports[0].is_err());

        let dump = dir.join("d0_s1.flight.jsonl");
        let text = std::fs::read_to_string(&dump).expect("flight dump written");
        assert!(
            text.contains(trigger),
            "dump lacks the triggering {trigger} event:\n{text}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
