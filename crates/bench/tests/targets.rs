//! The `experiments` CLI and its target table: every gated result file
//! has a target that regenerates it, and the binary fails loudly.

use eac_bench::experiments::TARGETS;
use std::process::Command;

#[test]
fn every_gated_file_has_a_target_that_all_runs() {
    for spec in eac_bench::spec::catalog() {
        let name = if spec.target == "BENCH_sweep" {
            "bench-sweep"
        } else {
            spec.target
        };
        let target = TARGETS
            .iter()
            .find(|t| t.name == name)
            .unwrap_or_else(|| panic!("{} has no target", spec.target));
        assert_eq!(
            target.in_all,
            name != "bench-sweep",
            "{name}: only bench-sweep stays out of `all`"
        );
    }
}

#[test]
fn target_names_are_unique() {
    for (i, t) in TARGETS.iter().enumerate() {
        assert!(
            TARGETS[..i].iter().all(|u| u.name != t.name),
            "{} twice",
            t.name
        );
    }
}

fn experiments(args: &[&str], results_dir: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .env("EAC_RESULTS_DIR", results_dir)
        .output()
        .expect("run experiments")
}

#[test]
fn unknown_target_exits_2() {
    let out = experiments(&["no-such-target", "--smoke"], &std::env::temp_dir());
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn lost_results_fail_the_run() {
    // A results "directory" that is a regular file cannot hold fig1.json.
    let file = std::env::temp_dir().join(format!("eac-results-file-{}", std::process::id()));
    std::fs::write(&file, "").unwrap();
    let out = experiments(&["fig1", "--smoke"], &file);
    std::fs::remove_file(&file).unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "a run that saved nothing must fail"
    );
}

#[test]
fn malformed_command_lines_exit_2_and_run_nothing() {
    let dir = std::env::temp_dir().join(format!("eac-malformed-args-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let outcomes: Vec<_> = [
        &["fig1", "--smok"][..],
        &["fig1", "--smoke", "--quick"],
        &["fig1", "fig2", "--smoke"],
        &["check", "--write-doc"],
        &["check", "fig2"],
    ]
    .into_iter()
    .map(|args| {
        let out = experiments(args, &dir);
        let usage = String::from_utf8_lossy(&out.stderr).contains("usage:");
        (args, out.status.code(), usage)
    })
    .collect();
    let written = std::fs::read_dir(&dir).unwrap().count();
    std::fs::remove_dir_all(&dir).unwrap();
    for (args, code, usage) in outcomes {
        assert_eq!(code, Some(2), "{args:?}");
        assert!(usage, "{args:?} prints the usage");
    }
    assert_eq!(
        written, 0,
        "a rejected command line must not run (no fig1.json)"
    );
}

#[test]
fn multi_point_target_is_identical_at_any_worker_count() {
    let root = std::env::temp_dir().join(format!("eac-table3-jobs-{}", std::process::id()));
    let run = |jobs: &str| {
        let dir = root.join(format!("jobs{jobs}"));
        let out = experiments(&["table3", "--smoke", "--jobs", jobs], &dir);
        assert!(out.status.success(), "table3 --jobs {jobs} failed");
        // The `[saved <path>]` line names the per-run directory.
        let stdout: Vec<String> = String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .filter(|l| !l.starts_with("[saved "))
            .map(str::to_string)
            .collect();
        (stdout, std::fs::read(dir.join("table3.json")).unwrap())
    };
    let (serial_out, serial_json) = run("1");
    let (pooled_out, pooled_json) = run("2");
    std::fs::remove_dir_all(&root).unwrap();
    assert!(serial_json == pooled_json, "table3.json differs");
    assert_eq!(serial_out, pooled_out, "stdout differs");
}

#[test]
fn ablations_save_the_rows_they_print() {
    let dir = std::env::temp_dir().join(format!("eac-ablate-pushout-{}", std::process::id()));
    let out = experiments(&["ablate-pushout", "--smoke", "--jobs", "2"], &dir);
    assert!(out.status.success(), "ablate-pushout --smoke failed");
    let json = std::fs::read_to_string(dir.join("ablate-pushout.json"))
        .expect("ablate-pushout saves its rows");
    std::fs::remove_dir_all(&dir).unwrap();
    let rows = serde_json::from_str(&json).unwrap();
    let labels: Vec<&str> = rows
        .as_array()
        .unwrap()
        .iter()
        .map(|r| r.get("design").and_then(|d| d.as_str()).unwrap())
        .collect();
    assert_eq!(labels, ["push-out on", "push-out off"]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    for label in labels {
        assert!(
            stdout.lines().any(|l| l.starts_with(&format!("{label}  "))),
            "'{label}' is saved but not printed:\n{stdout}"
        );
    }
}
