//! Run-length presets and the session: how long each experiment runs,
//! over which seeds, on how many workers and where its telemetry goes.

use crate::sweep::{Point, Sweep};
use std::cell::Cell;
use std::path::PathBuf;

/// How long and how many seeds to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fidelity {
    /// A few-minute smoke pass (for harness testing).
    Smoke,
    /// The default: shapes hold, minutes per figure on one core.
    Quick,
    /// The paper's §3.2 methodology: 14 000 s horizon, 2 000 s warm-up,
    /// 7 seeds. Hours per figure on one core.
    Paper,
}

impl Fidelity {
    /// Parse from CLI flags (`--smoke`, `--quick`, `--paper`).
    pub fn from_args(args: &[String]) -> Fidelity {
        if args.iter().any(|a| a == "--paper") {
            Fidelity::Paper
        } else if args.iter().any(|a| a == "--smoke") {
            Fidelity::Smoke
        } else {
            Fidelity::Quick
        }
    }

    /// (horizon s, warm-up s).
    pub fn lengths(self) -> (f64, f64) {
        match self {
            Fidelity::Smoke => (400.0, 100.0),
            Fidelity::Quick => (1_200.0, 250.0),
            Fidelity::Paper => (14_000.0, 2_000.0),
        }
    }

    /// Seeds to average over.
    pub fn seeds(self) -> Vec<u64> {
        match self {
            Fidelity::Smoke => vec![1],
            Fidelity::Quick => vec![1],
            Fidelity::Paper => vec![1, 2, 3, 4, 5, 6, 7],
        }
    }
}

/// What one `experiments` invocation fixes for every target it runs:
/// the fidelity, the worker count and the optional `--telemetry` root.
#[derive(Debug)]
pub struct Session {
    /// Run length and seeds of every sweep.
    pub fidelity: Fidelity,
    /// Worker threads per sweep; 1 runs inline with no threads.
    pub jobs: usize,
    /// Where sweep `n` of the session writes its telemetry:
    /// `sweep{n:03}` under this root.
    telemetry: Option<PathBuf>,
    /// Sweeps built so far, which numbers the next one's directory.
    sweeps: Cell<usize>,
}

impl Session {
    /// A session at `fidelity` on `jobs` workers, writing telemetry under
    /// `telemetry` when given.
    pub fn new(fidelity: Fidelity, jobs: usize, telemetry: Option<PathBuf>) -> Self {
        Session {
            fidelity,
            jobs,
            telemetry,
            sweeps: Cell::new(0),
        }
    }

    /// A sweep of `points` at the session's run length, over its seeds,
    /// on its workers. With a telemetry root, each call claims the next
    /// numbered directory (`sweep000`, `sweep001`, ...). Targets build
    /// their sweeps in program order, so the numbering, and with it the
    /// whole tree, is the same on every rerun and at any worker count.
    pub fn sweep<P: Point>(&self, points: Vec<P>) -> Sweep<P> {
        let (horizon, warmup) = self.fidelity.lengths();
        let points = points
            .into_iter()
            .map(|p| p.run_length(horizon, warmup))
            .collect();
        let sweep = Sweep::new(points, &self.fidelity.seeds()).jobs(self.jobs);
        match &self.telemetry {
            Some(root) => {
                let n = self.sweeps.replace(self.sweeps.get() + 1);
                sweep.telemetry(root.join(format!("sweep{n:03}")))
            }
            None => sweep,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eac::scenario::Scenario;

    #[test]
    fn fidelity_parsing_and_lengths() {
        let args = vec!["--paper".to_string()];
        assert_eq!(Fidelity::from_args(&args), Fidelity::Paper);
        assert_eq!(Fidelity::from_args(&[]), Fidelity::Quick);
        let (h, w) = Fidelity::Paper.lengths();
        assert_eq!((h, w), (14_000.0, 2_000.0));
        assert_eq!(Fidelity::Paper.seeds().len(), 7);
        assert!(Fidelity::Smoke.lengths().0 < Fidelity::Quick.lengths().0);
    }

    #[test]
    fn session_sweeps_number_in_order_and_restart() {
        let root = std::env::temp_dir().join(format!("eac-session-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (first, second) = (root.join("first"), root.join("second"));
        let run_short_sweep = |session: &Session| {
            let base = Scenario::basic().horizon_secs(60.0).warmup_secs(10.0);
            session.sweep(vec![base]).run().expect_reports().remove(0)
        };

        let session = Session::new(Fidelity::Smoke, 1, Some(first.clone()));
        let report = run_short_sweep(&session);
        let (horizon, warmup) = Fidelity::Smoke.lengths();
        assert_eq!(
            report.measured_s,
            horizon - warmup,
            "the session's length wins"
        );
        run_short_sweep(&session);
        assert!(first.join("sweep000").is_dir());
        assert!(first.join("sweep001").is_dir());
        assert!(!first.join("sweep002").exists());

        run_short_sweep(&Session::new(Fidelity::Smoke, 1, Some(second.clone())));
        assert!(second.join("sweep000").is_dir(), "numbering restarts");
        assert!(!second.join("sweep001").exists());

        std::fs::remove_dir_all(&root).unwrap();
    }
}
