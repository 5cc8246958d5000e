//! # eac-bench — the experiment harness
//!
//! One entry point per table and figure of the paper, named by
//! [`experiments::TARGETS`] for the `experiments` binary, plus shared
//! machinery: the workload catalogue (§3.2/Table 2), the design sweeps
//! (§3.2's ε grids), run-length presets (`--quick` vs `--paper`), the
//! [`runner::Session`] that fixes one invocation's fidelity, workers and
//! telemetry root, the work pool and [`sweep::Sweep`] builder that
//! parallelize every multi-run experiment deterministically, aligned
//! table printing and JSON persistence under `results/`.
//!
//! The reproduction gate lives in [`shapecheck`] (the spec language and
//! evaluator) and [`spec`] (the per-target catalog): `experiments --
//! check` replays EXPERIMENTS.md's verdicts against `results/*.json`.

pub mod catalog;
pub mod experiments;
pub mod output;
pub mod pool;
pub mod runner;
pub mod shapecheck;
pub mod spec;
pub mod sweep;

pub use catalog::{Workload, EPS_IN_BAND, EPS_OUT_OF_BAND, ETAS_MBAC};
pub use output::{print_table, save_json};
pub use pool::available_jobs;
pub use runner::{Fidelity, Session};
pub use shapecheck::{check_targets, TargetSpec, Verdicts};
pub use spec::catalog as spec_catalog;
pub use sweep::{SeedOutcome, Sweep, SweepResult};
