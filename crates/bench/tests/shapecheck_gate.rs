//! End-to-end tests of the reproduction gate: the committed results must
//! satisfy the spec catalog, a perturbed or stripped copy must fail it,
//! and the generated docs block must be idempotent.

use eac_bench::shapecheck::{self, check_targets, RowShape};
use eac_bench::spec::catalog;
use serde::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn committed_results_pass_every_spec() {
    let v = check_targets(&results_dir(), &catalog(), None);
    let failures: Vec<String> = v
        .results
        .iter()
        .flat_map(|t| {
            t.checks
                .iter()
                .filter(|c| !c.pass)
                .map(move |c| format!("{}/{}: {}", t.target, c.id, c.detail))
        })
        .collect();
    assert!(v.pass, "gate failed on committed results:\n{failures:#?}");
    assert_eq!(v.targets_checked, catalog().len());
}

#[test]
fn report_rows_name_themselves() {
    // Checks select Report rows by label, never by position, so no two
    // rows of a file may share a design label and a parameter.
    for spec in catalog() {
        if !matches!(spec.shape, RowShape::Reports) {
            continue;
        }
        let rows = shapecheck::load_rows(&results_dir(), &spec).unwrap();
        let mut seen = BTreeSet::new();
        for row in &rows {
            let key = (row.strs["design"].clone(), row.nums["param"].to_bits());
            assert!(
                seen.insert(key),
                "{}: two rows are ('{}', {})",
                spec.target,
                row.strs["design"],
                row.nums["param"]
            );
        }
    }
}

#[test]
fn single_target_filter_checks_only_that_target() {
    let v = check_targets(&results_dir(), &catalog(), Some("fig2"));
    assert_eq!(v.targets_checked, 1);
    assert_eq!(v.results[0].target, "fig2");
    assert!(v.pass);
}

/// Check `target` against a copy of its committed rows in which `edit`
/// may change each row (given its design label), and return the ids of
/// the checks that fail.
fn failing_checks(target: &str, edit: impl Fn(&str, &mut [(String, Value)])) -> Vec<String> {
    let text = std::fs::read_to_string(results_dir().join(format!("{target}.json"))).unwrap();
    let Value::Array(mut rows) = serde_json::from_str(&text).unwrap() else {
        panic!("{target}.json is not an array");
    };
    for row in &mut rows {
        let Value::Object(entries) = row else {
            panic!("{target}.json has a row that is not an object");
        };
        let design = entries
            .iter()
            .find_map(|(k, v)| (k == "design").then(|| v.as_str().unwrap().to_string()))
            .unwrap();
        edit(&design, entries);
    }
    let doctored = serde_json::to_string(&rows).unwrap();
    assert_ne!(text, doctored, "perturbation must change the file");

    // Tests run in parallel: give each call its own directory.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("shapecheck-{target}-{}-{call}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(format!("{target}.json")), doctored).unwrap();
    let v = check_targets(&dir, &catalog(), Some(target));
    std::fs::remove_dir_all(&dir).ok();
    v.results[0]
        .checks
        .iter()
        .filter(|c| !c.pass)
        .map(|c| c.id.clone())
        .collect()
}

/// The row field `key`.
fn field<'r>(entries: &'r mut [(String, Value)], key: &str) -> &'r mut Value {
    &mut entries.iter_mut().find(|(k, _)| k == key).unwrap().1
}

/// The numeric row field `key`.
fn num(entries: &mut [(String, Value)], key: &str) -> f64 {
    field(entries, key).as_f64().unwrap()
}

/// Set the row field `key` to `value`.
fn set(entries: &mut [(String, Value)], key: &str, value: Value) {
    *field(entries, key) = value;
}

/// Multiply the numeric row field `key` by `k`.
fn scale(entries: &mut [(String, Value)], key: &str, k: f64) {
    let x = num(entries, key);
    set(entries, key, Value::Float(x * k));
}

/// The fields of a Report row's group `i`.
fn group(entries: &mut [(String, Value)], i: usize) -> &mut [(String, Value)] {
    let Value::Array(groups) = field(entries, "groups") else {
        panic!("groups is not an array");
    };
    let Value::Object(g) = &mut groups[i] else {
        panic!("group {i} is not an object");
    };
    g
}

#[test]
fn perturbed_fig2_fails_the_gate() {
    // Scale every drop (in-band) loss down 10x: the irreducible in-band
    // loss floor — the paper's core negative result — disappears, and the
    // gate must notice.
    let failing = failing_checks("fig2", |design, row| {
        if design == "drop (in-band)" {
            scale(row, "data_loss", 0.1);
        }
    });
    assert!(
        failing.iter().any(|id| id == "inband-floor"),
        "the loss-floor check specifically should fail: {failing:?}"
    );
}

#[test]
fn costly_slow_start_fails_slowstart_overhead() {
    let failing = failing_checks("fig4", |design, row| {
        if design == "drop (in-band) / Slow Start" {
            scale(row, "probe_overhead", 3.0);
        }
    });
    assert_eq!(failing, ["slowstart-overhead"]);
}

#[test]
fn cheap_long_probes_fail_long_probe_overhead() {
    let failing = failing_checks("fig3", |design, row| {
        if design == "drop (in-band) / 25 second probes" {
            scale(row, "probe_overhead", 0.1);
        }
    });
    assert_eq!(failing, ["long-probe-overhead"]);
}

#[test]
fn tolerant_flows_blocked_more_fail_low_eps_blocked_more() {
    let failing = failing_checks("table3", |design, row| {
        if design == "drop (out-of-band)" {
            let low = num(group(row, 0), "blocking");
            let high = num(group(row, 1), "blocking");
            set(group(row, 0), "blocking", Value::Float(high));
            set(group(row, 1), "blocking", Value::Float(low));
        }
    });
    assert_eq!(failing, ["low-eps-blocked-more"]);
}

#[test]
fn fair_mbac_fails_mbac_discriminates() {
    // Give MBAC's large flows (EXP2, group 1) the pooled blocking of its
    // small ones (groups 0, 2 and 3).
    let failing = failing_checks("table4", |design, row| {
        if design == "MBAC" {
            let mut pooled = |key| {
                [0, 2, 3]
                    .map(|i| num(group(row, i), key))
                    .iter()
                    .sum::<f64>()
            };
            let small = pooled("rejected") / pooled("decided");
            set(group(row, 1), "blocking", Value::Float(small));
        }
    });
    assert!(
        failing.iter().any(|id| id == "mbac-discriminates"),
        "{failing:?}"
    );
}

#[test]
fn lossy_basic_scenario_fails_worst_scenarios() {
    let failing = failing_checks("fig9", |design, row| {
        if design == "drop (in-band) / EXP1" {
            set(row, "data_loss", Value::Float(0.5));
        }
    });
    assert_eq!(failing, ["worst-scenarios"]);
}

#[test]
fn steady_timeout_fails_steady_clean() {
    let failing = failing_checks("robust-flap", |design, row| {
        if design.starts_with("steady") && design.ends_with("eps 0.05") {
            set(row, "timeouts", Value::UInt(1));
        }
    });
    assert_eq!(failing, ["steady-clean"]);
}

#[test]
fn baseline_variants_apart_fail_baseline_clean() {
    let failing = failing_checks("robust-ctrl-loss", |design, row| {
        if design == "ctrl-loss 0.00 / no timeout" {
            set(row, "blocking", Value::Float(0.5));
        }
    });
    assert_eq!(failing, ["baseline-clean"]);
}

#[test]
fn no_timeout_row_timing_out_fails_no_timeout_silent() {
    let failing = failing_checks("robust-ctrl-loss", |design, row| {
        if design == "ctrl-loss 0.10 / no timeout" {
            set(row, "timeouts", Value::UInt(1));
        }
    });
    assert_eq!(failing, ["no-timeout-silent"]);
}

#[test]
fn util_rising_with_ctrl_loss_fails_ctrl_loss_costs_util() {
    // Both variants move together, so only the fall with loss breaks.
    let failing = failing_checks("robust-ctrl-loss", |design, row| {
        if design.starts_with("ctrl-loss 0.20") {
            set(row, "utilization", Value::Float(0.9));
        }
    });
    assert_eq!(failing, ["ctrl-loss-costs-util"]);
}

#[test]
fn stripped_field_fails_its_check() {
    // A Report row without `leaked_flows` must fail the check that reads
    // it, not pass as if the field were zero.
    let text = std::fs::read_to_string(results_dir().join("robust-flap.json")).unwrap();
    let rows = serde_json::from_str(&text).expect("robust-flap.json parses");
    let stripped: Vec<serde::Value> = rows
        .as_array()
        .expect("robust-flap.json is an array")
        .iter()
        .map(|row| {
            let entries = row.as_object().unwrap().iter();
            serde::Value::Object(
                entries
                    .filter(|(k, _)| k != "leaked_flows")
                    .cloned()
                    .collect(),
            )
        })
        .collect();

    let dir = std::env::temp_dir().join(format!("shapecheck-strip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("robust-flap.json"),
        serde_json::to_string(&stripped).unwrap(),
    )
    .unwrap();
    let v = check_targets(&dir, &catalog(), Some("robust-flap"));
    std::fs::remove_dir_all(&dir).ok();

    let no_leaks = v.results[0]
        .checks
        .iter()
        .find(|c| c.id == "no-leaks")
        .expect("robust-flap has a no-leaks check");
    assert!(!no_leaks.pass, "no-leaks passed without leaked_flows");
    assert_eq!(no_leaks.detail, "missing field 'leaked_flows'");
}

#[test]
fn missing_results_dir_fails_not_panics() {
    let v = check_targets(Path::new("/nonexistent-results"), &catalog(), None);
    assert!(!v.pass);
    assert!(v
        .results
        .iter()
        .all(|t| !t.pass && t.checks.len() == 1 && t.checks[0].id.ends_with(".load")));
}

#[test]
fn rendered_docs_inject_idempotently() {
    let v = check_targets(&results_dir(), &catalog(), None);
    let block = shapecheck::render_docs(&v);
    let doc = format!(
        "# EXPERIMENTS\n\nprose\n\n{}\nstale\n{}\n\ntail\n",
        shapecheck::DOCS_BEGIN,
        shapecheck::DOCS_END
    );
    let once = shapecheck::inject_docs(&doc, &block).unwrap();
    let twice = shapecheck::inject_docs(&once, &block).unwrap();
    assert_eq!(once, twice, "injection must be a fixed point");
    assert!(once.contains("fig2"));
    assert!(!once.contains("stale"));

    // The committed EXPERIMENTS.md must carry the markers and already be
    // up to date (the CI staleness gate relies on this).
    let committed = results_dir().join("../EXPERIMENTS.md");
    let text = std::fs::read_to_string(committed).unwrap();
    let refreshed = shapecheck::inject_docs(&text, &block).unwrap();
    assert_eq!(
        refreshed, text,
        "EXPERIMENTS.md verdict block is stale; run `experiments check --write-docs`"
    );
}
