//! CLI regenerating every table and figure of the paper.
//!
//! ```text
//! experiments <target> [--smoke|--quick|--paper] [--jobs N] [--telemetry DIR]
//!
//! targets: the names in eac_bench::experiments::TARGETS (the usage
//!          message lists them); `all` runs every one but bench-sweep;
//!          `check` is the reproduction gate (see below)
//!
//! Each run ends with a `[<target> done in ...]` line on stderr; `all`
//! prints one after every target as well.
//!
//! A mistyped flag, a second target or more than one fidelity flag exits
//! 2 with the usage and runs nothing.
//!
//! The flags build one `eac_bench::Session`, which every target runs in.
//! Each target runs its whole grid of points (curves, workloads,
//! variants or table rows) as one sweep over the fidelity's seeds.
//! --jobs N sets the worker count for that sweep (default: available
//! parallelism; --jobs 1 forces the serial path). Results are
//! byte-identical at any worker count.
//!
//! --telemetry DIR captures per-seed time-series (CSV), metrics (JSON)
//! and flight-recorder dumps for failed seeds, as `d<point>_s<seed>`
//! files under one numbered subdirectory of DIR per sweep. The session
//! numbers sweeps in the order it runs them: `sweep000` for a single
//! target, and under `all`, `sweep000` to `sweep022` across the targets
//! (fig1 and fig11 run no sweep). Output is byte-identical at any --jobs
//! value.
//!
//! experiments check [--target T] [--write-docs]
//!
//! Evaluates the shape-spec catalog (`crates/bench/src/spec.rs`) against
//! the persisted `results/*.json` (honoring EAC_RESULTS_DIR) and exits
//! non-zero if any EXPERIMENTS.md claim no longer holds. Without
//! --target it also rewrites results/verdicts.json; with --write-docs it
//! additionally regenerates the verdict block between the GENERATED
//! VERDICTS markers in EXPERIMENTS.md.
//! ```

use eac_bench::experiments::TARGETS;
use eac_bench::pool;
use eac_bench::runner::{Fidelity, Session};

/// The value of `--name V` / `--name=V`, parsed by `parse`. Exits 2 with
/// "`name` takes `what`" on a missing, flag-like or unparsable value.
fn flag_value<T>(
    args: &[String],
    name: &str,
    what: &str,
    parse: fn(&str) -> Option<T>,
) -> Option<T> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let val = if a == name {
            it.next().cloned()
        } else if let Some(v) = a.strip_prefix(name).and_then(|v| v.strip_prefix('=')) {
            Some(v.to_string())
        } else {
            continue;
        };
        match val
            .as_deref()
            .filter(|v| !v.is_empty() && !v.starts_with("--"))
            .and_then(parse)
        {
            Some(v) => return Some(v),
            None => {
                eprintln!("{name} takes {what} (got {val:?})");
                std::process::exit(2);
            }
        }
    }
    None
}

/// The arguments that are neither flags nor flag values. `bare` flags
/// stand alone; `valued` ones take the next argument (or `=V`) as their
/// value. Any other `--` argument is a mistyped flag: exit 2 with the
/// usage rather than run something the caller did not ask for.
fn positionals<'a>(args: &'a [String], bare: &[&str], valued: &[&str]) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let a = a.as_str();
        let with_value = |v: &&str| a.strip_prefix(*v).is_some_and(|r| r.starts_with('='));
        if valued.contains(&a) {
            it.next();
        } else if a.starts_with("--") && !bare.contains(&a) && !valued.iter().any(with_value) {
            eprintln!("unknown flag '{a}'");
            usage();
        } else if !a.starts_with("--") {
            out.push(a);
        }
    }
    out
}

fn usage() -> ! {
    eprintln!("usage: experiments <target> [--smoke|--quick|--paper] [--jobs N] [--telemetry DIR]");
    let mut line = String::from("targets:");
    for t in TARGETS {
        if line.len() + t.name.len() >= 72 {
            eprintln!("{line}");
            line = " ".repeat(8);
        }
        line = format!("{line} {}", t.name);
    }
    eprintln!("{line}");
    eprintln!("         all  (every target above but bench-sweep)");
    eprintln!("         check [--target T] [--write-docs]  (reproduction gate)");
    std::process::exit(2);
}

/// The reproduction gate: evaluate the spec catalog against the results
/// directory, persist verdicts, optionally regenerate the docs block.
/// Exits 0 only if every checked claim holds.
fn run_check(args: &[String]) -> ! {
    use eac_bench::shapecheck;

    if !positionals(&args[1..], &["--write-docs"], &["--target"]).is_empty() {
        usage();
    }
    let specs = eac_bench::spec::catalog();
    let only = flag_value(args, "--target", "a target name", |v| Some(v.to_string()));
    if let Some(t) = &only {
        if !specs.iter().any(|s| s.target == t.as_str()) {
            eprintln!("unknown check target '{t}'");
            std::process::exit(2);
        }
    }
    let write_docs = args.iter().any(|a| a == "--write-docs");
    let verdicts =
        shapecheck::check_targets(&eac_bench::output::results_dir(), &specs, only.as_deref());
    for t in &verdicts.results {
        println!(
            "{} {} ({}/{} checks)",
            if t.pass { "PASS" } else { "FAIL" },
            t.target,
            t.checks.iter().filter(|c| c.pass).count(),
            t.checks.len()
        );
        for c in t.checks.iter().filter(|c| !c.pass) {
            println!("     ✘ {} — {} [{}]", c.id, c.claim, c.detail);
        }
    }
    println!(
        "\n{}: {}/{} targets, {}/{} checks",
        if verdicts.pass { "PASS" } else { "FAIL" },
        verdicts.targets_passed,
        verdicts.targets_checked,
        verdicts.checks_passed,
        verdicts.checks_total
    );
    // A --target run is a partial view; don't overwrite the full verdicts.
    if only.is_none() {
        eac_bench::output::save_json("verdicts", &verdicts);
    }
    if write_docs {
        if only.is_some() {
            eprintln!("--write-docs needs the full catalog; drop --target");
            std::process::exit(2);
        }
        let path = "EXPERIMENTS.md";
        let doc =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let updated = shapecheck::inject_docs(&doc, &shapecheck::render_docs(&verdicts))
            .unwrap_or_else(|e| panic!("cannot update {path}: {e}"));
        if updated != doc {
            std::fs::write(path, &updated).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            println!("updated {path}");
        } else {
            println!("{path} already up to date");
        }
    }
    std::process::exit(if verdicts.pass { 0 } else { 1 });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("check") {
        run_check(&args);
    }
    const FIDELITIES: [&str; 3] = ["--smoke", "--quick", "--paper"];
    let targets = positionals(&args, &FIDELITIES, &["--jobs", "--telemetry"]);
    let [target] = targets[..] else {
        if targets.len() > 1 {
            eprintln!("one target at a time (got {})", targets.join(", "));
        }
        usage();
    };
    let fidelities = args.iter().filter(|a| FIDELITIES.contains(&a.as_str()));
    if fidelities.count() > 1 {
        eprintln!("give at most one of {}", FIDELITIES.join(", "));
        usage();
    }
    let positive = |v: &str| v.parse().ok().filter(|&n: &usize| n >= 1);
    let jobs = flag_value(&args, "--jobs", "a positive integer", positive)
        .unwrap_or_else(pool::available_jobs);
    let dir = |v: &str| Some(v.into());
    let telemetry = flag_value(&args, "--telemetry", "an output directory", dir);
    let session = Session::new(Fidelity::from_args(&args), jobs, telemetry);

    let done = |name: &str, t0: std::time::Instant| {
        eprintln!(
            "\n[{name} done in {:.1?} at {:?} fidelity, {} worker(s)]",
            t0.elapsed(),
            session.fidelity,
            session.jobs
        );
    };
    let t0 = std::time::Instant::now();
    if target == "all" {
        for t in TARGETS.iter().filter(|t| t.in_all) {
            println!("\n=============== {} ===============", t.name);
            let t1 = std::time::Instant::now();
            (t.run)(&session);
            done(t.name, t1);
        }
    } else if let Some(t) = TARGETS.iter().find(|t| t.name == target) {
        (t.run)(&session);
    } else {
        eprintln!("unknown target '{target}'");
        std::process::exit(2);
    }
    done(target, t0);
}
