//! The sweep builder: one entry point for every multi-run experiment.
//!
//! A [`Sweep`] fans its point × seed grid out over the
//! [`pool`](crate::pool) and averages each point's surviving seeds into
//! one [`Report`]. A point is any [`Point`]: a single-link [`Scenario`]
//! or a [`MultihopScenario`]. So one sweep runs a whole figure: every
//! curve's ε grid, one scenario per workload, one variant per ablation
//! row, or one design per row of Tables 5–6. The experiments build
//! theirs with [`Session::sweep`](crate::runner::Session::sweep).
//!
//! A failing seed (an error or a panic) is recorded in the
//! [`SweepResult`]'s outcomes and left out of its point's average;
//! [`SweepResult::expect_reports`] turns any failure into a panic that
//! names each failed seed.
//!
//! Determinism: jobs are laid out point-major (`point * seeds + seed`),
//! results come back from the pool in job-index order, and each point's
//! reports are averaged in seed order — the identical f64 summation order
//! a serial loop performs — so sweep output is bit-identical at any
//! worker count.

use crate::pool::run_indexed;
use eac::metrics::Report;
use eac::multihop::MultihopScenario;
use eac::scenario::{RunOutput, Scenario, ScenarioError};
use simcore::SimTime;
use std::path::{Path, PathBuf};
use telemetry::{FlightRecorder, Metrics, Telemetry, TimeSeries, RECORDER_CAPACITY};

/// A scenario a [`Sweep`] can run as one of its points.
pub trait Point: Clone + Sync {
    /// This point with its horizon and warm-up set, in seconds.
    fn run_length(self, horizon_s: f64, warmup_s: f64) -> Self;

    /// Run once at `seed`, which replaces the point's own, capturing
    /// telemetry into `recorder` when one is given.
    fn run_seed(
        &self,
        seed: u64,
        recorder: Option<FlightRecorder>,
    ) -> Result<RunOutput, ScenarioError>;
}

impl Point for Scenario {
    fn run_length(self, horizon_s: f64, warmup_s: f64) -> Self {
        self.horizon_secs(horizon_s).warmup_secs(warmup_s)
    }

    fn run_seed(
        &self,
        seed: u64,
        recorder: Option<FlightRecorder>,
    ) -> Result<RunOutput, ScenarioError> {
        Scenario {
            seed,
            telemetry: recorder,
            ..self.clone()
        }
        .run_full()
    }
}

impl Point for MultihopScenario {
    fn run_length(self, horizon_s: f64, warmup_s: f64) -> Self {
        self.horizon_secs(horizon_s).warmup_secs(warmup_s)
    }

    fn run_seed(
        &self,
        seed: u64,
        recorder: Option<FlightRecorder>,
    ) -> Result<RunOutput, ScenarioError> {
        MultihopScenario {
            seed,
            telemetry: recorder,
            ..self.clone()
        }
        .run_full()
    }
}

/// Turn a caught panic payload into a displayable message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// What happened to one seed of a sweep.
#[derive(Clone, Debug)]
pub enum SeedOutcome {
    /// The seed ran to completion.
    Ok { seed: u64 },
    /// The run returned a graceful error (audit failure, event budget,
    /// time regression).
    Error { seed: u64, message: String },
    /// The run panicked; the panic was contained to this seed.
    Panic { seed: u64, message: String },
}

impl SeedOutcome {
    /// Whether the seed completed.
    pub fn is_ok(&self) -> bool {
        matches!(self, SeedOutcome::Ok { .. })
    }

    /// `seed N: ok`, `seed N: error: ...` or `seed N: panic: ...`.
    fn describe(&self) -> String {
        match self {
            SeedOutcome::Ok { seed } => format!("seed {seed}: ok"),
            SeedOutcome::Error { seed, message } => format!("seed {seed}: error: {message}"),
            SeedOutcome::Panic { seed, message } => format!("seed {seed}: panic: {message}"),
        }
    }
}

/// Results of a [`Sweep`]: one averaged report and one per-seed outcome
/// list per point, in the order the points were given.
#[derive(Debug)]
pub struct SweepResult {
    /// Per point: the average report over surviving seeds, or an error
    /// describing why no seed survived.
    pub reports: Vec<Result<Report, String>>,
    /// Per point, per seed: what happened.
    pub outcomes: Vec<Vec<SeedOutcome>>,
}

impl SweepResult {
    /// Every per-point report, or a panic naming each failed seed unless
    /// every seed of every point completed.
    pub fn expect_reports(self) -> Vec<Report> {
        let failed: Vec<String> = self
            .outcomes
            .iter()
            .enumerate()
            .flat_map(|(pi, per_point)| {
                let failed = per_point.iter().filter(|o| !o.is_ok());
                failed.map(move |o| format!("point {pi} {}", o.describe()))
            })
            .collect();
        assert!(failed.is_empty(), "sweep failed: {}", failed.join("; "));
        self.reports
            .into_iter()
            .map(|r| r.expect("every seed completed"))
            .collect()
    }
}

/// A multi-run experiment: a list of scenarios (the points), each run
/// once per seed on the work pool.
///
/// ```no_run
/// use eac_bench::Sweep;
/// use eac::scenario::Scenario;
///
/// let points = vec![Scenario::basic(), Scenario::basic().tau(1.0)];
/// let result = Sweep::new(points, &[1, 2, 3]).jobs(4).run();
/// ```
#[derive(Debug)]
pub struct Sweep<P> {
    points: Vec<P>,
    seeds: Vec<u64>,
    jobs: usize,
    /// Telemetry output directory (see [`Sweep::telemetry`]).
    telemetry: Option<PathBuf>,
}

impl<P: Point> Sweep<P> {
    /// Run every point once per seed; the seed replaces the point's own.
    pub fn new(points: Vec<P>, seeds: &[u64]) -> Self {
        assert!(!seeds.is_empty());
        Sweep {
            points,
            seeds: seeds.to_vec(),
            jobs: 1,
            telemetry: None,
        }
    }

    /// Worker threads to use; 1 (the default) runs inline with no
    /// threads.
    pub fn jobs(mut self, n: usize) -> Self {
        self.jobs = n;
        self
    }

    /// Capture telemetry for every seed into `dir`, created on demand.
    /// After the (deterministic, grid-ordered) fold the sweep writes, per
    /// seed, `d{point}_s{seed}.series.csv` and `.metrics.json`, plus per
    /// point a seed-merged `d{point}.metrics.json` and a seed-averaged
    /// `d{point}.series.csv`. Failed seeds dump their flight ring as
    /// `d{point}_s{seed}.flight.jsonl` instead. Every job's hub is held
    /// until the fold, so memory grows with the grid.
    pub fn telemetry(mut self, dir: impl Into<PathBuf>) -> Self {
        self.telemetry = Some(dir.into());
        self
    }

    /// Run the point × seed grid on the pool and fold the results.
    pub fn run(&self) -> SweepResult {
        let n_seeds = self.seeds.len();
        let n_jobs = self.points.len() * n_seeds;
        // Shared ring handles, retained outside `catch_unwind`, so a dead
        // job's final seconds of events stay reachable for the dump.
        let recorders: Vec<FlightRecorder> = match &self.telemetry {
            Some(_) => (0..n_jobs)
                .map(|_| FlightRecorder::new(RECORDER_CAPACITY))
                .collect(),
            None => Vec::new(),
        };

        let raw = run_indexed(n_jobs, self.jobs, |i| {
            self.points[i / n_seeds].run_seed(self.seeds[i % n_seeds], recorders.get(i).cloned())
        });

        let dump_flight = |pi: usize, seed: u64, i: usize| {
            if let Some(dir) = &self.telemetry {
                let path = dir.join(format!("d{pi}_s{seed}.flight.jsonl"));
                if let Err(io) = recorders[i].dump_jsonl(&path) {
                    eprintln!("flight-recorder dump to {} failed: {io}", path.display());
                }
            }
        };

        let mut reports = Vec::with_capacity(self.points.len());
        let mut outcomes = Vec::with_capacity(self.points.len());
        let mut hubs: Vec<Option<Box<Telemetry>>> = Vec::with_capacity(n_jobs);
        let mut raw = raw.into_iter();
        for pi in 0..self.points.len() {
            let mut survivors = Vec::with_capacity(n_seeds);
            let mut per_seed = Vec::with_capacity(n_seeds);
            for (si, &seed) in self.seeds.iter().enumerate() {
                let i = pi * n_seeds + si;
                match raw.next().expect("one result per job") {
                    Ok(Ok(out)) => {
                        survivors.push(out.report);
                        hubs.push(out.telemetry);
                        per_seed.push(SeedOutcome::Ok { seed });
                    }
                    Ok(Err(e)) => {
                        hubs.push(None);
                        dump_flight(pi, seed, i);
                        per_seed.push(SeedOutcome::Error {
                            seed,
                            message: e.to_string(),
                        });
                    }
                    Err(payload) => {
                        hubs.push(None);
                        let message = panic_message(payload);
                        if self.telemetry.is_some() {
                            recorders[i].record(SimTime::ZERO, "sweep.panic", message.clone());
                        }
                        dump_flight(pi, seed, i);
                        per_seed.push(SeedOutcome::Panic { seed, message });
                    }
                }
            }
            let avg = if survivors.is_empty() {
                let detail: Vec<String> = per_seed.iter().map(SeedOutcome::describe).collect();
                Err(format!("no seed survived ({})", detail.join("; ")))
            } else {
                Ok(Report::average(&survivors))
            };
            reports.push(avg);
            outcomes.push(per_seed);
        }

        if let Some(dir) = &self.telemetry {
            self.export_telemetry(dir, &hubs);
        }

        SweepResult { reports, outcomes }
    }

    /// Write the collected hubs out, strictly in grid order — all file
    /// content comes from the (already deterministic) fold results, so
    /// the output tree is byte-identical at any worker count.
    fn export_telemetry(&self, dir: &Path, hubs: &[Option<Box<Telemetry>>]) {
        if let Err(io) = std::fs::create_dir_all(dir) {
            eprintln!("telemetry dir {} failed: {io}", dir.display());
            return;
        }
        let write = |path: PathBuf, content: String| {
            if let Err(io) = std::fs::write(&path, content) {
                eprintln!("telemetry write to {} failed: {io}", path.display());
            }
        };
        let n_seeds = self.seeds.len();
        for pi in 0..self.points.len() {
            let mut merged = Metrics::new();
            let mut series: Vec<&TimeSeries> = Vec::new();
            for (si, &seed) in self.seeds.iter().enumerate() {
                let Some(hub) = &hubs[pi * n_seeds + si] else {
                    continue; // failed seed: its flight ring was dumped instead
                };
                let label = format!("d{pi}_s{seed}");
                write(
                    dir.join(format!("{label}.series.csv")),
                    hub.sampler.series.to_csv(),
                );
                write(
                    dir.join(format!("{label}.metrics.json")),
                    serde_json::to_string(&hub.metrics).expect("metrics serialize"),
                );
                merged.merge(&hub.metrics);
                if !hub.sampler.series.is_empty() {
                    series.push(&hub.sampler.series);
                }
            }
            if !merged.is_empty() {
                write(
                    dir.join(format!("d{pi}.metrics.json")),
                    serde_json::to_string(&merged).expect("metrics serialize"),
                );
            }
            if !series.is_empty() {
                write(
                    dir.join(format!("d{pi}.series.csv")),
                    TimeSeries::mean_across(&series).to_csv(),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eac::design::Design;
    use std::panic::AssertUnwindSafe;

    fn quick_base() -> Scenario {
        Scenario::basic().horizon_secs(400.0).warmup_secs(100.0)
    }

    #[test]
    fn one_report_per_design_in_design_order() {
        use eac::probe::{Placement, ProbeStyle, Signal};
        let drop = |e| Design::endpoint(Signal::Drop, Placement::InBand, ProbeStyle::SlowStart, e);
        // The points differ in load as well as design: a sweep is any
        // list of scenarios, not one base swept over designs.
        let points = vec![
            quick_base().tau(30.0).design(drop(0.0)),
            quick_base().tau(20.0).design(drop(0.05)),
        ];
        let result = Sweep::new(points.clone(), &[1, 2]).run();
        assert!(result.outcomes.iter().all(|o| o.len() == 2));
        let reports = result.expect_reports();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].param, 0.0);
        assert_eq!(reports[1].param, 0.05);
        assert!(reports.iter().all(|r| r.measured_s > 0.0));
        for (point, report) in points.into_iter().zip(&reports) {
            let alone = Sweep::new(vec![point], &[1, 2]).run().expect_reports();
            assert_eq!(
                serde_json::to_string(&alone[0]).unwrap(),
                serde_json::to_string(report).unwrap(),
                "a point's report depends on the points around it"
            );
        }
    }

    #[test]
    fn sweep_records_failures_without_dying() {
        // An absurdly small event budget errors every seed gracefully.
        let base = quick_base().event_budget(50);
        let result = Sweep::new(vec![base], &[1, 2]).jobs(2).run();
        assert!(result.reports[0].is_err());
        assert!(result.outcomes[0]
            .iter()
            .all(|o| matches!(o, SeedOutcome::Error { .. })));
    }

    #[test]
    fn sweep_contains_panics() {
        // warmup >= horizon trips an assert inside run(); the panic must
        // stay confined to its seed while the good seed survives.
        let mut bad = quick_base();
        bad.warmup_s = bad.horizon_s;
        let result = Sweep::new(vec![bad], &[1]).jobs(2).run();
        assert!(result.reports[0].is_err());
        assert!(matches!(result.outcomes[0][0], SeedOutcome::Panic { .. }));
    }

    #[test]
    fn expect_reports_panics_naming_each_failed_seed() {
        // The first point completes; both seeds of the second fail.
        let points = vec![quick_base(), quick_base().event_budget(50)];
        let result = Sweep::new(points, &[1, 2]).run();
        assert!(result.reports[0].is_ok());
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| result.expect_reports()))
            .expect_err("a failed seed must fail expect_reports");
        let message = panic_message(payload);
        for seed in [1, 2] {
            assert!(
                message.contains(&format!("point 1 seed {seed}: error")),
                "{message}"
            );
        }
        assert!(!message.contains("point 0"), "{message}");
    }
}
