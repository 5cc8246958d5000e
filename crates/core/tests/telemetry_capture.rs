//! Scenario-level telemetry integration: the hub comes back populated
//! and enabling it never perturbs the report.

use eac::design::Design;
use eac::multihop::MultihopScenario;
use eac::scenario::Scenario;
use telemetry::{FlightRecorder, RECORDER_CAPACITY};

fn recorder() -> Option<FlightRecorder> {
    Some(FlightRecorder::new(RECORDER_CAPACITY))
}

fn short() -> Scenario {
    Scenario::basic()
        .tau(2.0)
        .horizon_secs(200.0)
        .warmup_secs(40.0)
        .seed(11)
}

#[test]
fn run_full_captures_series_metrics_and_events() {
    let out = Scenario {
        telemetry: recorder(),
        ..short()
    }
    .run_full()
    .unwrap();
    let tel = out.telemetry.expect("telemetry was enabled");

    // The sampler ticked once per simulated second up to the drain end.
    let series = &tel.sampler.series;
    assert!(series.len() >= 200, "only {} samples", series.len());
    assert!(series.column("l0.queue_pkts").is_some());
    assert!(series.column("l0.util").is_some());
    assert!(series.column("flows.admitted").is_some());

    // Admission lifecycle counters and histograms were exercised.
    assert!(tel.metrics.counter("host.probes_started") > 0);
    assert!(tel.metrics.counter("admission.accepts") > 0);
    let h = tel.metrics.hist("sink.delay_ns").expect("delay histogram");
    assert!(h.count() > 0);

    // Flight events recorded (probe starts at minimum).
    assert!(!tel.recorder.snapshot().is_empty());
}

#[test]
fn telemetry_does_not_perturb_the_report() {
    let plain = short().run().unwrap();
    let traced = Scenario {
        telemetry: recorder(),
        ..short()
    }
    .run_full()
    .unwrap()
    .report;
    assert_eq!(plain.utilization, traced.utilization);
    assert_eq!(plain.data_loss, traced.data_loss);
    assert_eq!(plain.blocking, traced.blocking);
    assert_eq!(plain.events, traced.events);
    assert_eq!(plain.delay_hist, traced.delay_hist);
}

#[test]
fn report_delay_hist_is_populated() {
    let r = short().run().unwrap();
    assert!(r.delay_hist.count > 0);
    assert!(r.delay_hist.p50_ms >= r.delay_hist.min_ms);
    assert!(r.delay_hist.p99_ms <= r.delay_hist.max_ms);
    // One-way propagation alone is 20 ms, so the median must exceed it.
    assert!(r.delay_hist.p50_ms >= 20.0, "{:?}", r.delay_hist);
}

#[test]
fn multihop_capture_covers_the_backbone_and_leaves_the_report_alone() {
    let sc = MultihopScenario::tables56()
        .design(Design::mbac(0.9))
        .horizon_secs(200.0)
        .warmup_secs(50.0)
        .seed(5);
    let plain = sc.run().unwrap();
    let out = MultihopScenario {
        telemetry: recorder(),
        ..sc
    }
    .run_full()
    .unwrap();
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&out.report).unwrap(),
        "telemetry perturbed the multihop report"
    );

    // The three backbone links are links 0, 2 and 4 (each is followed by
    // its fast reverse link); all of them carried data.
    let tel = out.telemetry.expect("telemetry was enabled");
    let series = &tel.sampler.series;
    assert!(series.len() >= 200, "only {} samples", series.len());
    for l in [0, 2, 4] {
        let util = series
            .column(&format!("l{l}.util"))
            .unwrap_or_else(|| panic!("no l{l}.util column"));
        assert!(util.iter().any(|&u| u > 0.0), "l{l} never carried data");
        assert!(series.column(&format!("l{l}.queue_pkts")).is_some());
    }
    assert!(tel.metrics.counter("admission.accepts") > 0);
}
