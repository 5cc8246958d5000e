//! Run-length presets: how long each experiment runs and over which
//! seeds.

use crate::sweep::Point;

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

    /// Apply run length to a scenario.
    pub fn apply<P: Point>(self, s: P) -> P {
        let (h, w) = self.lengths();
        s.run_length(h, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
