//! Result types for scenario runs.
//!
//! A [`Report`] is the unit the figures are made of: one point on a
//! loss-load curve (utilization, data-loss probability) plus blocking
//! probabilities and per-group breakdowns for the tables. Serializable so
//! the bench harness can persist raw results.

use serde::Serialize;
use telemetry::HistSummary;

/// `part / whole`, or zero when `whole` is: blocking is
/// `share(rejected, decided)`.
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The fraction of `sent` packets that were not `received`, or zero when
/// none were sent.
pub fn loss(sent: u64, received: u64) -> f64 {
    if sent == 0 {
        0.0
    } else {
        1.0 - received as f64 / sent as f64
    }
}

/// Per-group results.
#[derive(Clone, Debug, Serialize)]
pub struct GroupReport {
    /// Group label.
    pub name: String,
    /// Flows whose admission decision concluded after warm-up.
    pub decided: u64,
    /// Accepted flows.
    pub accepted: u64,
    /// Rejected flows.
    pub rejected: u64,
    /// Blocking probability (rejected / decided).
    pub blocking: f64,
    /// Data packets sent by admitted flows after warm-up.
    pub data_sent: u64,
    /// Data packets received at the sink after warm-up.
    pub data_received: u64,
    /// End-to-end data loss fraction.
    pub loss: f64,
}

/// Results of one scenario run.
#[derive(Clone, Debug, Serialize)]
pub struct Report {
    /// Design label ("drop (in-band)", "MBAC", ...).
    pub design: String,
    /// Acceptance threshold ε (or MBAC target η).
    pub param: f64,
    /// Utilization of the bottleneck's allocated share by admission-
    /// controlled *data* packets (probes excluded, §3.2).
    pub utilization: f64,
    /// End-to-end data packet loss probability.
    pub data_loss: f64,
    /// Data drop fraction at the bottleneck queue (single-link scenarios:
    /// equals end-to-end loss up to edge effects).
    pub link_loss: f64,
    /// Overall blocking probability.
    pub blocking: f64,
    /// Fraction of the admission-controlled bytes the measured links
    /// transmitted that were probes (probe overhead), summed over the
    /// links.
    pub probe_overhead: f64,
    /// Fraction of the data packets the measured links transmitted that
    /// carried a congestion mark, summed over the links, over the
    /// measured window.
    pub mark_fraction: f64,
    /// End-to-end delay of delivered data packets (quantiles in
    /// milliseconds), from the sinks' log-bucketed histograms over the
    /// measured window.
    pub delay_hist: HistSummary,
    /// Per-group breakdowns.
    pub groups: Vec<GroupReport>,
    /// Per-bottleneck-link data utilization (multi-hop scenarios).
    pub link_utils: Vec<f64>,
    /// Flows whose verdict never arrived and timed out into rejection
    /// (lost-control-packet resilience; zero in a fault-free run).
    pub timeouts: u64,
    /// Host flows in `AwaitDecision` plus undecided sink records at the end
    /// of the run. The verdict timeout and sink TTL bound these records'
    /// age, not their number: under control loss a few younger than either
    /// still count. Without the timeout a lost verdict counts for good.
    pub leaked_flows: u64,
    /// Measurement interval, seconds (horizon − warm-up).
    pub measured_s: f64,
    /// Simulation events processed over the whole run (throughput metric
    /// for the bench harness; summed when averaging seeds).
    pub events: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Report {
    /// Merge several same-configuration runs (different seeds) by
    /// averaging rates and summing counts.
    pub fn average(reports: &[Report]) -> Report {
        assert!(!reports.is_empty());
        let n = reports.len() as f64;
        let mut out = reports[0].clone();
        let mean = |f: fn(&Report) -> f64| reports.iter().map(f).sum::<f64>() / n;
        out.utilization = mean(|r| r.utilization);
        out.data_loss = mean(|r| r.data_loss);
        out.link_loss = mean(|r| r.link_loss);
        out.blocking = mean(|r| r.blocking);
        out.probe_overhead = mean(|r| r.probe_overhead);
        out.mark_fraction = mean(|r| r.mark_fraction);
        out.delay_hist = {
            let hists: Vec<&HistSummary> = reports.iter().map(|r| &r.delay_hist).collect();
            HistSummary::average(&hists)
        };
        out.timeouts = reports.iter().map(|r| r.timeouts).sum();
        out.leaked_flows = reports.iter().map(|r| r.leaked_flows).sum();
        out.events = reports.iter().map(|r| r.events).sum();
        for (i, lu) in out.link_utils.iter_mut().enumerate() {
            *lu = reports.iter().map(|r| r.link_utils[i]).sum::<f64>() / n;
        }
        for (gi, g) in out.groups.iter_mut().enumerate() {
            g.decided = reports.iter().map(|r| r.groups[gi].decided).sum();
            g.accepted = reports.iter().map(|r| r.groups[gi].accepted).sum();
            g.rejected = reports.iter().map(|r| r.groups[gi].rejected).sum();
            g.data_sent = reports.iter().map(|r| r.groups[gi].data_sent).sum();
            g.data_received = reports.iter().map(|r| r.groups[gi].data_received).sum();
            g.blocking = share(g.rejected, g.decided);
            g.loss = loss(g.data_sent, g.data_received);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(util: f64, loss: f64, acc: u64, rej: u64) -> Report {
        Report {
            design: "test".into(),
            param: 0.01,
            utilization: util,
            data_loss: loss,
            link_loss: loss,
            blocking: rej as f64 / (acc + rej) as f64,
            probe_overhead: 0.1,
            mark_fraction: 0.0,
            delay_hist: HistSummary::default(),
            groups: vec![GroupReport {
                name: "g".into(),
                decided: acc + rej,
                accepted: acc,
                rejected: rej,
                blocking: rej as f64 / (acc + rej) as f64,
                data_sent: 1000,
                data_received: 990,
                loss: 0.01,
            }],
            link_utils: vec![util],
            timeouts: 0,
            leaked_flows: 0,
            measured_s: 100.0,
            events: 10,
            seed: 1,
        }
    }

    #[test]
    fn averaging_runs() {
        let a = mk(0.8, 0.01, 80, 20);
        let b = mk(0.9, 0.03, 90, 10);
        let avg = Report::average(&[a, b]);
        assert!((avg.utilization - 0.85).abs() < 1e-12);
        assert!((avg.data_loss - 0.02).abs() < 1e-12);
        assert_eq!(avg.groups[0].decided, 200);
        assert_eq!(avg.groups[0].rejected, 30);
        assert!((avg.groups[0].blocking - 0.15).abs() < 1e-12);
        assert!((avg.link_utils[0] - 0.85).abs() < 1e-12);
    }

    #[test]
    fn report_serializes() {
        let r = mk(0.8, 0.01, 80, 20);
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"utilization\":0.8"));
    }
}
