//! The workload catalogue (Table 2 of the paper) and the design sweeps.

use eac::design::Group;
use eac::probe::{Placement, Signal};
use eac::scenario::Scenario;
use traffic::SourceSpec;

/// ε grid for the in-band designs (§3.2).
pub const EPS_IN_BAND: [f64; 6] = [0.0, 0.01, 0.02, 0.03, 0.04, 0.05];
/// ε grid for the out-of-band designs (§3.2).
pub const EPS_OUT_OF_BAND: [f64; 5] = [0.0, 0.05, 0.10, 0.15, 0.20];
/// η grid tracing the MBAC benchmark's loss-load curve.
pub const ETAS_MBAC: [f64; 6] = [0.75, 0.8, 0.85, 0.9, 0.95, 1.0];

/// The simulation scenarios of Table 2 (minus the fluid model and the
/// multi-hop/coexistence topologies, which have their own builders).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig 2: EXP1, τ = 3.5 s.
    Basic,
    /// Figs 4–7: EXP1, τ = 1.0 s (≈ 400 % offered load).
    HighLoad,
    /// Fig 8(a): EXP2 — four times the burst rate, same average.
    Exp2,
    /// Fig 8(b): EXP3 — twice burst and average, τ = 7.0 s.
    Exp3,
    /// Fig 8(c): POO1 — Pareto on/off, LRD aggregate.
    Poo1,
    /// Fig 8(d): the video-trace stand-in, τ = 8.0 s.
    StarWars,
    /// Fig 8(e): heterogeneous mix EXP1 + EXP2 + EXP4 + POO1.
    Hetero,
    /// Fig 8(f): low multiplexing — 1 Mbps link, τ = 35 s.
    LowMux,
}

impl Workload {
    /// All catalogued workloads (Fig 9's sweep).
    pub const ALL: [Workload; 8] = [
        Workload::Basic,
        Workload::Exp2,
        Workload::Exp3,
        Workload::Poo1,
        Workload::Hetero,
        Workload::LowMux,
        Workload::StarWars,
        Workload::HighLoad,
    ];

    /// Display name (matches the paper's figure labels).
    pub fn name(self) -> &'static str {
        match self {
            Workload::Basic => "EXP1",
            Workload::HighLoad => "Heavy Load",
            Workload::Exp2 => "EXP2",
            Workload::Exp3 => "EXP3",
            Workload::Poo1 => "POO1",
            Workload::StarWars => "Star Wars",
            Workload::Hetero => "Heterogeneous",
            Workload::LowMux => "Low multiplexing",
        }
    }

    /// Build the scenario skeleton (design and run length set by caller).
    pub fn scenario(self) -> Scenario {
        let base = Scenario::basic();
        match self {
            Workload::Basic => base,
            Workload::HighLoad => base.tau(1.0),
            Workload::Exp2 => base.groups(vec![Group::new("EXP2", SourceSpec::exp2(), 1.0)]),
            Workload::Exp3 => base
                .groups(vec![Group::new("EXP3", SourceSpec::exp3(), 1.0)])
                .tau(7.0),
            Workload::Poo1 => base.groups(vec![Group::new("POO1", SourceSpec::poo1(), 1.0)]),
            Workload::StarWars => base
                .groups(vec![Group::new("StarWars", SourceSpec::starwars(), 1.0)])
                .tau(8.0),
            Workload::Hetero => base.groups(vec![
                Group::new("EXP1", SourceSpec::exp1(), 1.0),
                Group::new("EXP2", SourceSpec::exp2(), 1.0),
                Group::new("EXP4", SourceSpec::exp4(), 1.0),
                Group::new("POO1", SourceSpec::poo1(), 1.0),
            ]),
            Workload::LowMux => base.link_bps(1_000_000).tau(35.0),
        }
    }
}

/// The four endpoint prototype designs: signal and placement.
pub const ENDPOINT_DESIGNS: [(Signal, Placement); 4] = [
    (Signal::Drop, Placement::InBand),
    (Signal::Drop, Placement::OutOfBand),
    (Signal::Mark, Placement::InBand),
    (Signal::Mark, Placement::OutOfBand),
];

/// The ε grid appropriate to a placement.
pub fn eps_grid(placement: Placement) -> Vec<f64> {
    match placement {
        Placement::InBand => EPS_IN_BAND.to_vec(),
        Placement::OutOfBand => EPS_OUT_OF_BAND.to_vec(),
    }
}

/// Fig 9's fixed thresholds: ε = 0.01 in-band, ε = 0.05 out-of-band.
pub fn fig9_eps(placement: Placement) -> f64 {
    match placement {
        Placement::InBand => 0.01,
        Placement::OutOfBand => 0.05,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_builds_every_workload() {
        for w in Workload::ALL {
            let s = w.scenario();
            assert!(!s.groups.is_empty(), "{w:?}");
            assert!(s.tau_s > 0.0);
        }
    }

    #[test]
    fn workload_parameters_match_table2() {
        assert_eq!(Workload::Basic.scenario().tau_s, 3.5);
        assert_eq!(Workload::HighLoad.scenario().tau_s, 1.0);
        assert_eq!(Workload::Exp3.scenario().tau_s, 7.0);
        assert_eq!(Workload::StarWars.scenario().tau_s, 8.0);
        assert_eq!(Workload::LowMux.scenario().tau_s, 35.0);
        assert_eq!(Workload::LowMux.scenario().link_bps, 1_000_000);
        assert_eq!(Workload::Hetero.scenario().groups.len(), 4);
    }

    #[test]
    fn eps_grids_match_section_3_2() {
        assert_eq!(
            eps_grid(Placement::InBand),
            vec![0.0, 0.01, 0.02, 0.03, 0.04, 0.05]
        );
        assert_eq!(
            eps_grid(Placement::OutOfBand),
            vec![0.0, 0.05, 0.10, 0.15, 0.20]
        );
    }
}
