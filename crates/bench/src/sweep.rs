//! The sweep builder: one entry point for every multi-run experiment.
//!
//! A [`Sweep`] fans the design × seed grid out over the [`pool`] and
//! averages each design's surviving seeds into one [`Report`]: one design
//! over several seeds, a loss-load curve over several designs, and with
//! [`Sweep::isolated`] per-seed panic/error containment.
//!
//! Determinism: jobs are laid out design-major (`design * seeds + seed`),
//! results come back from the pool in job-index order, and each design's
//! reports are averaged in seed order — the identical f64 summation order
//! a serial loop performs — so sweep output is bit-identical at any
//! worker count.

use crate::pool::{self, run_indexed};
use eac::design::Design;
use eac::metrics::Report;
use eac::scenario::Scenario;
use simcore::SimTime;
use std::path::{Path, PathBuf};
use telemetry::{
    FlightRecorder, Metrics, Telemetry, TelemetryConfig, TimeSeries, RECORDER_CAPACITY,
};

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
    /// The seed this outcome belongs to.
    pub fn seed(&self) -> u64 {
        match self {
            SeedOutcome::Ok { seed }
            | SeedOutcome::Error { seed, .. }
            | SeedOutcome::Panic { seed, .. } => *seed,
        }
    }

    /// Whether the seed completed.
    pub fn is_ok(&self) -> bool {
        matches!(self, SeedOutcome::Ok { .. })
    }
}

/// Results of a [`Sweep`]: one averaged report and one per-seed outcome
/// list per design, in the order the designs were given.
#[derive(Debug)]
pub struct SweepResult {
    /// Per design: the average report over surviving seeds, or an error
    /// describing why no seed survived.
    pub reports: Vec<Result<Report, String>>,
    /// Per design, per seed: what happened.
    pub outcomes: Vec<Vec<SeedOutcome>>,
}

impl SweepResult {
    /// Unwrap every per-design report, panicking with the recorded
    /// message if any design had no surviving seed.
    pub fn expect_reports(self) -> Vec<Report> {
        self.reports
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
            .collect()
    }

    /// True if every seed of every design completed.
    pub fn all_ok(&self) -> bool {
        self.outcomes
            .iter()
            .all(|per_design| per_design.iter().all(|o| o.is_ok()))
    }
}

/// A multi-run experiment: one base scenario swept over designs and
/// seeds, executed on the work pool.
///
/// ```no_run
/// use eac_bench::Sweep;
/// use eac::scenario::Scenario;
///
/// let result = Sweep::new(Scenario::basic())
///     .seeds(&[1, 2, 3])
///     .jobs(4)
///     .isolated(true)
///     .run();
/// ```
#[derive(Clone, Debug)]
pub struct Sweep {
    base: Scenario,
    designs: Vec<Design>,
    seeds: Vec<u64>,
    jobs: usize,
    isolated: bool,
    /// Telemetry output directory (see [`Sweep::telemetry`]).
    telemetry: Option<PathBuf>,
}

impl Sweep {
    /// A sweep of just the base scenario's own design and seed.
    pub fn new(base: Scenario) -> Self {
        let designs = vec![base.design];
        let seeds = vec![base.seed];
        Sweep {
            base,
            designs,
            seeds,
            jobs: 0,
            isolated: false,
            telemetry: None,
        }
    }

    /// Sweep these designs (default: the base scenario's design).
    pub fn designs(mut self, designs: &[Design]) -> Self {
        assert!(!designs.is_empty());
        self.designs = designs.to_vec();
        self
    }

    /// Average over these seeds (default: the base scenario's seed).
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        assert!(!seeds.is_empty());
        self.seeds = seeds.to_vec();
        self
    }

    /// Worker threads to use; 0 (the default) resolves to the session
    /// default ([`pool::default_jobs`] — the `--jobs` flag, or available
    /// parallelism). 1 runs inline with no threads.
    pub fn jobs(mut self, n: usize) -> Self {
        self.jobs = n;
        self
    }

    /// With isolation, a panicking or erroring seed is recorded in the
    /// outcomes and excluded from its design's average instead of
    /// propagating; a design errors only when *no* seed survives.
    /// Without (the default), the first failure in grid order propagates
    /// as a panic, as the old serial runners did.
    pub fn isolated(mut self, yes: bool) -> Self {
        self.isolated = yes;
        self
    }

    /// Capture telemetry for every seed into `dir`, created on demand.
    /// After the (deterministic, grid-ordered) fold the sweep writes, per
    /// seed, `d{design}_s{seed}.series.csv` and `.metrics.json`, plus per
    /// design a seed-merged `d{design}.metrics.json` and a seed-averaged
    /// `d{design}.series.csv`. Failed seeds dump their flight ring as
    /// `d{design}_s{seed}.flight.jsonl` instead. Without this, a sweep
    /// still picks up the session-wide `--telemetry` directory when the
    /// CLI registered one.
    pub fn telemetry(mut self, dir: impl Into<PathBuf>) -> Self {
        self.telemetry = Some(dir.into());
        self
    }

    /// Run the design × seed grid on the pool and fold the results.
    pub fn run(&self) -> SweepResult {
        let n_seeds = self.seeds.len();
        let n_jobs = self.designs.len() * n_seeds;
        let workers = if self.jobs == 0 {
            pool::default_jobs()
        } else {
            self.jobs
        };
        let tdir = self
            .telemetry
            .clone()
            .or_else(crate::telemetry_session::next_sweep_dir);
        // Shared ring handles, retained outside `catch_unwind`, so a dead
        // job's final seconds of events stay reachable for the dump.
        let recorders: Vec<FlightRecorder> = match &tdir {
            Some(_) => (0..n_jobs)
                .map(|_| FlightRecorder::new(RECORDER_CAPACITY))
                .collect(),
            None => Vec::new(),
        };

        let raw = run_indexed(n_jobs, workers, |i| {
            let design = self.designs[i / n_seeds];
            let seed = self.seeds[i % n_seeds];
            let mut sc = self.base.clone().design(design).seed(seed);
            if tdir.is_some() {
                sc = sc.telemetry(TelemetryConfig::new().with_recorder(recorders[i].clone()));
            }
            sc.run_full()
        });

        let dump_flight = |di: usize, seed: u64, i: usize| {
            if let Some(dir) = &tdir {
                let path = dir.join(format!("d{di}_s{seed}.flight.jsonl"));
                if let Err(io) = recorders[i].dump_jsonl(&path) {
                    eprintln!("flight-recorder dump to {} failed: {io}", path.display());
                }
            }
        };

        let mut reports = Vec::with_capacity(self.designs.len());
        let mut outcomes = Vec::with_capacity(self.designs.len());
        let mut hubs: Vec<Option<Box<Telemetry>>> = Vec::with_capacity(n_jobs);
        let mut raw = raw.into_iter();
        for di in 0..self.designs.len() {
            let mut survivors = Vec::with_capacity(n_seeds);
            let mut per_seed = Vec::with_capacity(n_seeds);
            for (si, &seed) in self.seeds.iter().enumerate() {
                let i = di * n_seeds + si;
                match raw.next().expect("one result per job") {
                    Ok(Ok(out)) => {
                        survivors.push(out.report);
                        hubs.push(out.telemetry);
                        per_seed.push(SeedOutcome::Ok { seed });
                    }
                    Ok(Err(e)) => {
                        hubs.push(None);
                        dump_flight(di, seed, i);
                        if !self.isolated {
                            panic!("{e}");
                        }
                        per_seed.push(SeedOutcome::Error {
                            seed,
                            message: e.to_string(),
                        });
                    }
                    Err(payload) => {
                        hubs.push(None);
                        let message = panic_message(payload);
                        if tdir.is_some() {
                            recorders[i].record(SimTime::ZERO, "sweep.panic", message.clone());
                        }
                        dump_flight(di, seed, i);
                        if !self.isolated {
                            panic!("seed {seed} panicked: {message}");
                        }
                        per_seed.push(SeedOutcome::Panic { seed, message });
                    }
                }
            }
            let avg = if survivors.is_empty() {
                let detail: Vec<String> = per_seed
                    .iter()
                    .map(|o| match o {
                        SeedOutcome::Ok { seed } => format!("seed {seed}: ok"),
                        SeedOutcome::Error { seed, message } => {
                            format!("seed {seed}: error: {message}")
                        }
                        SeedOutcome::Panic { seed, message } => {
                            format!("seed {seed}: panic: {message}")
                        }
                    })
                    .collect();
                Err(format!("no seed survived ({})", detail.join("; ")))
            } else {
                Ok(Report::average(&survivors))
            };
            reports.push(avg);
            outcomes.push(per_seed);
        }

        if let Some(dir) = &tdir {
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
        for di in 0..self.designs.len() {
            let mut merged = Metrics::new();
            let mut series: Vec<&TimeSeries> = Vec::new();
            for (si, &seed) in self.seeds.iter().enumerate() {
                let Some(hub) = &hubs[di * n_seeds + si] else {
                    continue; // failed seed: its flight ring was dumped instead
                };
                let label = format!("d{di}_s{seed}");
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
                    dir.join(format!("d{di}.metrics.json")),
                    serde_json::to_string(&merged).expect("metrics serialize"),
                );
            }
            if !series.is_empty() {
                write(
                    dir.join(format!("d{di}.series.csv")),
                    TimeSeries::mean_across(&series).to_csv(),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_base() -> Scenario {
        Scenario::basic().horizon_secs(400.0).warmup_secs(100.0)
    }

    #[test]
    fn parallel_sweep_matches_serial_bitwise() {
        let base = quick_base();
        let serial = Sweep::new(base.clone()).seeds(&[1, 2]).jobs(1).run();
        let parallel = Sweep::new(base).seeds(&[1, 2]).jobs(8).run();
        let a = serial.expect_reports();
        let b = parallel.expect_reports();
        let ja = serde_json::to_string(&a).unwrap();
        let jb = serde_json::to_string(&b).unwrap();
        assert_eq!(ja, jb, "parallel sweep diverged from serial");
    }

    #[test]
    fn one_report_per_design_in_design_order() {
        use eac::probe::{Placement, ProbeStyle, Signal};
        let designs: Vec<Design> = [0.0, 0.05]
            .into_iter()
            .map(|e| Design::endpoint(Signal::Drop, Placement::InBand, ProbeStyle::SlowStart, e))
            .collect();
        let result = Sweep::new(quick_base().tau(30.0))
            .designs(&designs)
            .seeds(&[1, 2])
            .isolated(true)
            .run();
        assert!(result.all_ok());
        assert!(result.outcomes.iter().all(|o| o.len() == 2));
        let reports = result.expect_reports();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].param, 0.0);
        assert_eq!(reports[1].param, 0.05);
        assert!(reports.iter().all(|r| r.measured_s > 0.0));
    }

    #[test]
    fn isolated_sweep_records_failures_without_dying() {
        // An absurdly small event budget errors every seed gracefully.
        let base = quick_base().event_budget(50);
        let result = Sweep::new(base).seeds(&[1, 2]).jobs(2).isolated(true).run();
        assert!(result.reports[0].is_err());
        assert!(result.outcomes[0]
            .iter()
            .all(|o| matches!(o, SeedOutcome::Error { .. })));
    }

    #[test]
    fn isolated_sweep_contains_panics() {
        // warmup >= horizon trips an assert inside run(); the panic must
        // stay confined to its seed while the good seed survives.
        let base = quick_base();
        let mut bad = base.clone();
        bad.warmup_s = bad.horizon_s;
        let result = Sweep::new(bad).seeds(&[1]).jobs(2).isolated(true).run();
        assert!(result.reports[0].is_err());
        assert!(matches!(result.outcomes[0][0], SeedOutcome::Panic { .. }));
    }

    #[test]
    #[should_panic]
    fn unisolated_sweep_propagates_failures() {
        let base = quick_base().event_budget(50);
        Sweep::new(base).seeds(&[1]).jobs(1).run();
    }
}
