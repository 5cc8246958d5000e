//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes everything that can go wrong with the
//! substrate during a run: scheduled link down/up flaps, and per-link
//! Bernoulli wire loss, optionally restricted to one [`TrafficClass`].
//! The plan is installed on a [`Sim`](crate::Sim) together with a
//! dedicated [`SimRng`] stream, so every loss draw comes from the seeded
//! generator — identical seeds and plans reproduce bit-identical runs,
//! and adding faults never perturbs the traffic models' own streams.
//!
//! Semantics:
//!
//! - **Flaps**: at `down_at` the link stops transmitting and is removed
//!   from routing (routes recompute on the next injection); the packet on
//!   the wire and anything finishing serialisation while down is lost and
//!   counted in [`FaultStats::down_drops`]. Queued packets are *not*
//!   flushed — the interface pauses store-and-forward style — and resume
//!   when `up_at` restores the link and re-enters it into routing.
//! - **Loss** applies at transmission completion, i.e. on the wire after
//!   the queue: it models corruption past the qdisc (counted in
//!   [`FaultStats::wire_lost`], distinct from queue drops).

use crate::packet::{LinkId, TrafficClass};
use simcore::{SimRng, SimTime};

/// One scheduled link outage.
#[derive(Clone, Copy, Debug)]
pub struct LinkFlap {
    /// The link that goes down.
    pub link: LinkId,
    /// When it goes down.
    pub down_at: SimTime,
    /// When it comes back up (must be after `down_at`).
    pub up_at: SimTime,
}

/// Stochastic wire loss on one link.
#[derive(Clone, Copy, Debug)]
pub struct Impairment {
    /// The link affected.
    pub link: LinkId,
    /// Restrict to one traffic class (`None` = every class).
    pub class: Option<TrafficClass>,
    /// Probability a transmitted packet is lost on the wire.
    pub loss: f64,
}

impl Impairment {
    /// A pure-loss impairment on `link` for `class`.
    pub fn loss(link: LinkId, class: Option<TrafficClass>, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        Impairment {
            link,
            class,
            loss: p,
        }
    }

    fn applies_to(&self, link: LinkId, class: TrafficClass) -> bool {
        self.link == link && self.class.is_none_or(|c| c == class)
    }
}

/// The full fault schedule for a run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Scheduled outages.
    pub flaps: Vec<LinkFlap>,
    /// Per-link wire impairments.
    pub impairments: Vec<Impairment>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the plan does anything at all.
    pub fn is_empty(&self) -> bool {
        self.flaps.is_empty() && self.impairments.is_empty()
    }

    /// Add an outage window for `link`.
    pub fn flap(mut self, link: LinkId, down_at: SimTime, up_at: SimTime) -> Self {
        assert!(down_at < up_at, "flap must go down before it comes up");
        self.flaps.push(LinkFlap {
            link,
            down_at,
            up_at,
        });
        self
    }

    /// Add a wire impairment.
    pub fn impair(mut self, imp: Impairment) -> Self {
        assert!((0.0..=1.0).contains(&imp.loss));
        self.impairments.push(imp);
        self
    }
}

/// Counters for injected faults (readable after a run).
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultStats {
    /// Packets lost on the wire by Bernoulli loss.
    pub wire_lost: u64,
    /// Packets lost because their link was down when they finished
    /// serialising (including the flush of the in-flight packet).
    pub down_drops: u64,
}

/// Installed fault state: the plan plus its dedicated RNG stream.
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: SimRng,
    pub(crate) stats: FaultStats,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, rng: SimRng) -> Self {
        FaultState {
            plan,
            rng,
            stats: FaultStats::default(),
        }
    }

    /// Whether a packet of `class` finishing transmission on `link` is
    /// lost on the wire. Draws are only consumed for configured, matching
    /// impairments, so unimpaired links never touch the fault stream.
    pub(crate) fn wire_loss(&mut self, link: LinkId, class: TrafficClass) -> bool {
        let Some(imp) = self
            .plan
            .impairments
            .iter()
            .find(|i| i.applies_to(link, class))
        else {
            return false;
        };
        let lost = imp.loss > 0.0 && self.rng.chance(imp.loss);
        self.stats.wire_lost += lost as u64;
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_validates() {
        let plan = FaultPlan::new()
            .flap(
                LinkId(0),
                SimTime::from_secs_f64(1.0),
                SimTime::from_secs_f64(2.0),
            )
            .impair(Impairment::loss(
                LinkId(1),
                Some(TrafficClass::Control),
                0.25,
            ));
        assert_eq!(plan.flaps.len(), 1);
        assert_eq!(plan.impairments.len(), 1);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    #[should_panic(expected = "down before")]
    fn inverted_flap_rejected() {
        let _ = FaultPlan::new().flap(LinkId(0), SimTime::from_secs_f64(2.0), SimTime::ZERO);
    }

    #[test]
    fn judge_is_deterministic_and_class_scoped() {
        let plan = FaultPlan::new().impair(Impairment::loss(
            LinkId(0),
            Some(TrafficClass::Control),
            0.5,
        ));
        let run = |seed| {
            let mut st = FaultState::new(plan.clone(), SimRng::new(seed));
            let fates: Vec<bool> = (0..64)
                .map(|_| st.wire_loss(LinkId(0), TrafficClass::Control))
                .collect();
            (fates, st.stats.wire_lost)
        };
        assert_eq!(run(9), run(9));
        let (fates, lost) = run(9);
        assert_eq!(fates.iter().filter(|&&l| l).count() as u64, lost);
        assert!(lost > 10 && lost < 54, "p=0.5 of 64: {lost}");

        // Other classes and other links never consume draws or drop.
        let mut st = FaultState::new(plan, SimRng::new(9));
        for _ in 0..64 {
            assert!(!st.wire_loss(LinkId(0), TrafficClass::Data));
            assert!(!st.wire_loss(LinkId(1), TrafficClass::Control));
        }
        assert_eq!(st.stats.wire_lost, 0);
    }
}
