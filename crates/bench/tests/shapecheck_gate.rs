//! End-to-end tests of the reproduction gate: the committed results must
//! satisfy the spec catalog, a perturbed or stripped copy must fail it,
//! and the generated docs block must be idempotent.

use eac_bench::shapecheck::{self, check_targets};
use eac_bench::spec::catalog;
use std::path::{Path, PathBuf};

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
fn single_target_filter_checks_only_that_target() {
    let v = check_targets(&results_dir(), &catalog(), Some("fig2"));
    assert_eq!(v.targets_checked, 1);
    assert_eq!(v.results[0].target, "fig2");
    assert!(v.pass);
}

#[test]
fn perturbed_fig2_fails_the_gate() {
    // Scale every drop (in-band) loss down 10x: the irreducible in-band
    // loss floor — the paper's core negative result — disappears, and the
    // gate must notice.
    let text = std::fs::read_to_string(results_dir().join("fig2.json")).unwrap();
    let doctored = rescale_inband_losses(&text);
    assert_ne!(text, doctored, "perturbation must change the file");

    let dir = std::env::temp_dir().join(format!("shapecheck-perturb-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("fig2.json"), doctored).unwrap();
    let v = check_targets(&dir, &catalog(), Some("fig2"));
    std::fs::remove_dir_all(&dir).ok();

    assert!(!v.pass, "gate passed on doctored fig2");
    let fig2 = &v.results[0];
    assert!(
        fig2.checks
            .iter()
            .any(|c| c.id == "inband-floor" && !c.pass),
        "the loss-floor check specifically should fail: {:#?}",
        fig2.checks
    );
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

/// Multiply the `data_loss` value of every `drop (in-band)` row by 0.1,
/// editing the serialized JSON textually so the file stays otherwise
/// byte-identical.
fn rescale_inband_losses(text: &str) -> String {
    let v = serde_json::from_str(text).expect("fig2.json parses");
    let rows = v.as_array().expect("fig2.json is an array");
    let mut out = String::from("[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let design = row.get("design").and_then(serde::Value::as_str).unwrap();
        let entries = row.as_object().unwrap();
        out.push('{');
        for (j, (k, val)) in entries.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&serde_json::to_string(k).unwrap());
            out.push(':');
            if k == "data_loss" && design == "drop (in-band)" {
                let scaled = val.as_f64().unwrap() * 0.1;
                out.push_str(&serde_json::to_string(&scaled).unwrap());
            } else {
                out.push_str(&serde_json::to_string(val).unwrap());
            }
        }
        out.push('}');
    }
    out.push(']');
    out
}
