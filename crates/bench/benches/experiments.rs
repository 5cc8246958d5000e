//! Smoke-scale benches of every experiment family: one short run per
//! table/figure configuration, so `cargo bench` demonstrates that each
//! experiment's full code path (topology, agents, probing protocol,
//! metric collection) executes, and tracks its cost.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use eac::coexist::CoexistScenario;
use eac::design::Design;
use eac::multihop::MultihopScenario;
use eac::probe::{Placement, ProbeStyle, Signal};
use eac::scenario::Scenario;
use eac_bench::{pool, Sweep};
use fluid::ThrashModel;

fn short(design: Design) -> Scenario {
    Scenario::basic()
        .design(design)
        .horizon_secs(120.0)
        .warmup_secs(30.0)
        .seed(1)
}

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("experiments");
    g.sample_size(10);

    g.bench_function("fig1 fluid point", |b| {
        b.iter(|| black_box(ThrashModel::fig1(2.6).point(2_000.0, 2)))
    });

    for (name, signal, placement) in [
        ("fig2 drop in-band", Signal::Drop, Placement::InBand),
        ("fig2 drop oob", Signal::Drop, Placement::OutOfBand),
        ("fig2 mark in-band", Signal::Mark, Placement::InBand),
        ("fig2 mark oob", Signal::Mark, Placement::OutOfBand),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    short(Design::endpoint(
                        signal,
                        placement,
                        ProbeStyle::SlowStart,
                        0.01,
                    ))
                    .run()
                    .unwrap(),
                )
            })
        });
    }

    g.bench_function("fig2 MBAC benchmark", |b| {
        b.iter(|| black_box(short(Design::mbac(0.9)).run().unwrap()))
    });

    for (name, style) in [
        ("fig4 simple probing", ProbeStyle::Simple),
        ("fig4 slow start", ProbeStyle::SlowStart),
        ("fig4 early reject", ProbeStyle::EarlyReject),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    short(Design::endpoint(
                        Signal::Drop,
                        Placement::InBand,
                        style,
                        0.01,
                    ))
                    .tau(1.0)
                    .run()
                    .unwrap(),
                )
            })
        });
    }

    g.bench_function("fig8d video source", |b| {
        b.iter(|| {
            let s = short(Design::endpoint(
                Signal::Drop,
                Placement::InBand,
                ProbeStyle::SlowStart,
                0.01,
            ))
            .groups(vec![eac::design::Group::new(
                "StarWars",
                traffic::SourceSpec::starwars(),
                1.0,
            )])
            .tau(8.0);
            black_box(s.run().unwrap())
        })
    });

    g.bench_function("tables56 multihop", |b| {
        b.iter(|| {
            black_box(
                MultihopScenario::tables56()
                    .horizon_secs(120.0)
                    .warmup_secs(30.0)
                    .run()
                    .unwrap(),
            )
        })
    });

    g.bench_function("fig11 tcp coexistence", |b| {
        b.iter(|| {
            black_box(
                CoexistScenario::fig11(0.05)
                    .horizon_secs(120.0)
                    .steady_after_secs(60.0)
                    .run(),
            )
        })
    });

    // Telemetry guard: the disabled path (plain run) vs the fully
    // instrumented one. The first pair of benches must stay within noise
    // of each other's baseline run above; the enabled run quantifies the
    // instrumentation cost.
    g.bench_function("telemetry disabled", |b| {
        let s = short(Design::endpoint(
            Signal::Drop,
            Placement::InBand,
            ProbeStyle::SlowStart,
            0.01,
        ));
        b.iter(|| black_box(s.run().unwrap()))
    });
    g.bench_function("telemetry enabled", |b| {
        let s = short(Design::endpoint(
            Signal::Drop,
            Placement::InBand,
            ProbeStyle::SlowStart,
            0.01,
        ));
        b.iter(|| {
            let recorder = telemetry::FlightRecorder::new(telemetry::RECORDER_CAPACITY);
            let traced = Scenario {
                telemetry: Some(recorder),
                ..s.clone()
            };
            black_box(traced.run_full().unwrap().report)
        })
    });

    // The pooled executor on a 4-seed grid, serial vs all workers.
    let sweep_base = || {
        let point = short(Design::endpoint(
            Signal::Drop,
            Placement::InBand,
            ProbeStyle::SlowStart,
            0.01,
        ));
        Sweep::new(vec![point], &[1, 2, 3, 4])
    };
    g.bench_function("sweep 4 seeds, 1 worker", |b| {
        b.iter(|| black_box(sweep_base().jobs(1).run().expect_reports()))
    });
    g.bench_function(
        &format!("sweep 4 seeds, {} workers", pool::available_jobs()),
        |b| {
            b.iter(|| {
                black_box(
                    sweep_base()
                        .jobs(pool::available_jobs())
                        .run()
                        .expect_reports(),
                )
            })
        },
    );

    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
