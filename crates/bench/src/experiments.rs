//! One function per table/figure of the paper. Each prints the same
//! rows/series the paper reports and persists raw JSON under `results/`.
//! [`TARGETS`] names them for the `experiments` CLI.

use crate::catalog::{eps_grid, fig9_eps, Workload, ENDPOINT_DESIGNS, ETAS_MBAC};
use crate::output::{fmt_prob, print_table, save_json, Column};
use crate::pool;
use crate::runner::{Fidelity, Session};
use crate::sweep::Point;
use eac::coexist::{CoexistReport, CoexistScenario};
use eac::design::{Design, Group};
use eac::metrics::{share, Report};
use eac::multihop::{product_blocking, MultihopScenario};
use eac::probe::{Placement, ProbeStyle, Signal};
use eac::scenario::Scenario;
use traffic::SourceSpec;

/// One `experiments` CLI target.
pub struct Target {
    /// The name the CLI takes.
    pub name: &'static str,
    /// Runs the target in a session.
    pub run: fn(&Session),
    /// Whether `experiments all` runs it.
    pub in_all: bool,
}

const fn target(name: &'static str, run: fn(&Session)) -> Target {
    Target {
        name,
        run,
        in_all: true,
    }
}

/// Every target, in the order `experiments all` runs them. The order
/// fixes the `--telemetry` sweep numbering (one session numbers the
/// sweeps of every target it runs), so append new targets.
pub const TARGETS: &[Target] = &[
    target("fig1", fig1),
    target("fig2", fig2),
    target("fig3", fig3),
    target("fig4", |s| fig4to7(4, s)),
    target("fig5", |s| fig4to7(5, s)),
    target("fig6", |s| fig4to7(6, s)),
    target("fig7", |s| fig4to7(7, s)),
    target("fig8a", |s| fig8('a', s)),
    target("fig8b", |s| fig8('b', s)),
    target("fig8c", |s| fig8('c', s)),
    target("fig8d", |s| fig8('d', s)),
    target("fig8e", |s| fig8('e', s)),
    target("fig8f", |s| fig8('f', s)),
    target("fig9", fig9),
    target("table3", table3),
    target("table4", table4),
    target("tables56", tables56),
    target("fig11", fig11),
    target("ablate-probe-duration", ablate_probe_duration),
    target("ablate-vq-factor", ablate_vq_factor),
    target("ablate-pushout", ablate_pushout),
    target("ablate-buffer", ablate_buffer),
    target("ablate-retry", ablate_retry),
    target("robust-flap", robust_flap),
    target("robust-ctrl-loss", robust_ctrl_loss),
    // Wall-clock, not a result: saves BENCH_sweep.json.
    Target {
        name: "bench-sweep",
        run: bench_sweep,
        in_all: false,
    },
];

/// The columns most tables share: the row's label, utilization, data
/// loss and blocking.
const DESIGN: Column<Report> = ("design", |r| r.design.clone());
const UTILIZATION: Column<Report> = ("utilization", |r| format!("{:.4}", r.utilization));
const LOSS: Column<Report> = ("loss", |r| fmt_prob(r.data_loss));
const BLOCKING: Column<Report> = ("blocking", |r| format!("{:.4}", r.blocking));

/// A loss-load curve's table: one row per ε/η point.
const CURVE: &[Column<Report>] = &[
    DESIGN,
    ("eps/eta", |r| format!("{:.3}", r.param)),
    UTILIZATION,
    LOSS,
    BLOCKING,
    ("probe-ovh", |r| format!("{:.4}", r.probe_overhead)),
];

/// A row's label: the design's name, then ` / <variant>` where a table
/// holds several curves or scenarios of one design.
fn label(d: &Design, variant: Option<&str>) -> String {
    match variant {
        Some(v) => format!("{} / {v}", d.name()),
        None => d.name(),
    }
}

/// One loss-load curve: its variant (see [`label`]), the scenario and
/// the designs it sweeps.
type Curve = (Option<&'static str>, Scenario, Vec<Design>);

/// Run every curve's points as one sweep, print the loss-load table and
/// save every point as `id`.
fn loss_load_figure(id: &str, curves: Vec<Curve>, session: &Session) {
    let grid = curves.into_iter().flat_map(|(variant, base, designs)| {
        designs
            .into_iter()
            .map(move |d| (label(&d, variant), base.clone().design(d)))
    });
    save_table(id, CURVE, &points(session, grid));
}

/// Print one table row per report, then save every report as `id`.
fn save_table(id: &str, columns: &[Column<Report>], reports: &[Report]) {
    print_table(columns, reports);
    save_json(id, &reports);
}

/// Run every labelled scenario as one session sweep: each point's seed
/// average, with its label as `design`.
fn points<P: Point>(session: &Session, grid: impl IntoIterator<Item = (String, P)>) -> Vec<Report> {
    let (labels, scenarios): (Vec<String>, Vec<P>) = grid.into_iter().unzip();
    let reports = session.sweep(scenarios).run().expect_reports();
    labels
        .into_iter()
        .zip(reports)
        .map(|(design, r)| Report { design, ..r })
        .collect()
}

/// The MBAC benchmark's η sweep on `base`.
fn mbac_curve(base: Scenario) -> Curve {
    let etas = ETAS_MBAC.iter().map(|&eta| Design::mbac(eta)).collect();
    (None, base, etas)
}

/// The four endpoint designs (each over its ε grid) plus the MBAC η
/// sweep, all on `base`.
fn design_curves(base: Scenario, style: ProbeStyle) -> Vec<Curve> {
    let mut curves: Vec<Curve> = ENDPOINT_DESIGNS
        .into_iter()
        .map(|(signal, placement)| {
            let designs = eps_grid(placement)
                .into_iter()
                .map(|e| Design::endpoint(signal, placement, style, e))
                .collect();
            (None, base.clone(), designs)
        })
        .collect();
    curves.push(mbac_curve(base));
    curves
}

/// Tables 4–6's rows: the four endpoint designs under slow-start probing
/// at `eps(placement)`, then MBAC at η = 0.9.
fn table_designs(eps: fn(Placement) -> f64) -> Vec<Design> {
    let mut designs: Vec<Design> = ENDPOINT_DESIGNS
        .into_iter()
        .map(|(signal, placement)| {
            Design::endpoint(signal, placement, ProbeStyle::SlowStart, eps(placement))
        })
        .collect();
    designs.push(Design::mbac(0.9));
    designs
}

/// One Fig 1 point as `fig1.json` saves it.
#[derive(serde::Serialize)]
struct Fig1Row {
    probe_s: f64,
    utilization: f64,
    loss: f64,
}

/// Fig 1 — fluid-model thrashing: utilization and in-band loss vs mean
/// probe duration.
fn fig1(session: &Session) {
    println!("# Fig 1 — thrashing in the fluid model");
    println!("# utilization applies to in-band AND out-of-band probing;");
    println!("# the loss column is in-band (out-of-band data loss is 0)\n");
    let (horizon, seeds) = match session.fidelity {
        Fidelity::Smoke => (2_000.0, 2),
        Fidelity::Quick => (8_000.0, 10),
        Fidelity::Paper => (14_000.0, 30),
    };
    let xs = [
        1.0, 1.4, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8, 3.0, 3.2, 3.4, 3.6, 4.0, 5.0,
    ];
    let pts = fluid::fig1_sweep(&xs, horizon, seeds);
    let columns: [Column<fluid::ThrashPoint>; 4] = [
        ("probe-s", |p| format!("{:.1}", p.mean_probe_s)),
        ("utilization", |p| format!("{:.4}", p.utilization)),
        ("loss(in-band)", |p| fmt_prob(p.loss_in_band)),
        ("E[probing]", |p| format!("{:.1}", p.mean_probing)),
    ];
    print_table(&columns, &pts);
    let ser: Vec<Fig1Row> = pts
        .iter()
        .map(|p| Fig1Row {
            probe_s: p.mean_probe_s,
            utilization: p.utilization,
            loss: p.loss_in_band,
        })
        .collect();
    save_json("fig1", &ser);
}

/// Fig 2 — the basic scenario's loss-load curves (5 algorithms).
fn fig2(session: &Session) {
    println!("# Fig 2 — basic scenario (EXP1, tau=3.5s, slow-start probing)\n");
    let curves = design_curves(Workload::Basic.scenario(), ProbeStyle::SlowStart);
    loss_load_figure("fig2", curves, session);
}

/// Fig 3 — longer probing: 5 s vs 25 s slow-start, in-band dropping.
fn fig3(session: &Session) {
    println!("# Fig 3 — basic scenario with long probing (in-band dropping)\n");
    let mut curves: Vec<Curve> = [("5 second probes", 5.0), ("25 second probes", 25.0)]
        .into_iter()
        .map(|(variant, probe_s)| {
            let designs = eps_grid(Placement::InBand)
                .into_iter()
                .map(|e| {
                    Design::endpoint(Signal::Drop, Placement::InBand, ProbeStyle::SlowStart, e)
                })
                .collect();
            (
                Some(variant),
                Workload::Basic.scenario().probe_secs(probe_s),
                designs,
            )
        })
        .collect();
    curves.push(mbac_curve(Workload::Basic.scenario()));
    loss_load_figure("fig3", curves, session);
}

/// Figs 4–7 — high load (τ = 1 s): the three probing algorithms under
/// each prototype design, against MBAC.
fn fig4to7(which: u8, session: &Session) {
    let (signal, placement) = match which {
        4 => (Signal::Drop, Placement::InBand),
        5 => (Signal::Drop, Placement::OutOfBand),
        6 => (Signal::Mark, Placement::InBand),
        7 => (Signal::Mark, Placement::OutOfBand),
        _ => panic!("fig4to7 takes 4..=7"),
    };
    println!(
        "# Fig {which} — high load (tau=1.0s), {}\n",
        Design::endpoint(signal, placement, ProbeStyle::Simple, 0.0).name()
    );
    let base = Workload::HighLoad.scenario();
    let mut curves: Vec<Curve> = [
        ("Simple Probing", ProbeStyle::Simple),
        ("Slow Start", ProbeStyle::SlowStart),
        ("Early Reject", ProbeStyle::EarlyReject),
    ]
    .into_iter()
    .map(|(variant, style)| {
        let designs = eps_grid(placement)
            .into_iter()
            .map(|e| Design::endpoint(signal, placement, style, e))
            .collect();
        (Some(variant), base.clone(), designs)
    })
    .collect();
    curves.push(mbac_curve(base));
    loss_load_figure(&format!("fig{which}"), curves, session);
}

/// Fig 8(a)–(f) — robustness across source models.
fn fig8(letter: char, session: &Session) {
    let w = match letter {
        'a' => Workload::Exp2,
        'b' => Workload::Exp3,
        'c' => Workload::Poo1,
        'd' => Workload::StarWars,
        'e' => Workload::Hetero,
        'f' => Workload::LowMux,
        _ => panic!("fig8 takes a..=f"),
    };
    println!("# Fig 8({letter}) — robustness: {}\n", w.name());
    let curves = design_curves(w.scenario(), ProbeStyle::SlowStart);
    loss_load_figure(&format!("fig8{letter}"), curves, session);
}

/// Fig 9 — loss at a fixed ε across all scenarios, per design.
fn fig9(session: &Session) {
    println!("# Fig 9 — loss for many scenarios at fixed eps");
    println!("# (eps = 0.01 in-band, 0.05 out-of-band)\n");
    let grid = ENDPOINT_DESIGNS
        .into_iter()
        .flat_map(|(signal, placement)| {
            let eps = fig9_eps(placement);
            let d = Design::endpoint(signal, placement, ProbeStyle::SlowStart, eps);
            Workload::ALL
                .into_iter()
                .map(move |w| (label(&d, Some(w.name())), w.scenario().design(d)))
        });
    let columns = [
        DESIGN,
        ("eps", |r| format!("{:.3}", r.param)),
        LOSS,
        ("utilization", |r| format!("{:.3}", r.utilization)),
    ];
    save_table("fig9", &columns, &points(session, grid));
}

/// Table 3 — heterogeneous thresholds: blocking for low- vs high-ε flows.
fn table3(session: &Session) {
    println!("# Table 3 — blocking probabilities for low and high eps\n");
    let grid = ENDPOINT_DESIGNS.into_iter().map(|(signal, placement)| {
        let high = match placement {
            Placement::InBand => 0.05,
            Placement::OutOfBand => 0.20,
        };
        let groups = vec![
            Group::new("low-eps", SourceSpec::exp1(), 1.0).with_epsilon(0.0),
            Group::new("high-eps", SourceSpec::exp1(), 1.0).with_epsilon(high),
        ];
        let d = Design::endpoint(signal, placement, ProbeStyle::SlowStart, 0.0);
        (
            d.name(),
            Workload::Basic.scenario().groups(groups).design(d),
        )
    });
    let columns = [
        DESIGN,
        ("low-eps blocking", |r| {
            format!("{:.4}", r.groups[0].blocking)
        }),
        ("high-eps blocking", |r| {
            format!("{:.4}", r.groups[1].blocking)
        }),
    ];
    save_table("table3", &columns, &points(session, grid));
}

/// Table 4 — blocking for small vs large flows in the heterogeneous mix.
fn table4(session: &Session) {
    println!("# Table 4 — blocking for small vs large flows (heterogeneous mix)");
    println!("# large = EXP2 (token rate 1024k, 4x the others)\n");
    let grid = table_designs(fig9_eps)
        .into_iter()
        .map(|d| (d.name(), Workload::Hetero.scenario().design(d)));
    // Groups: EXP1, EXP2, EXP4, POO1. Small = all but EXP2.
    let columns = [
        DESIGN,
        ("small flows", |r| {
            let small = r.groups.iter().filter(|g| g.name != "EXP2");
            let dec: u64 = small.clone().map(|g| g.decided).sum();
            let rej: u64 = small.map(|g| g.rejected).sum();
            format!("{:.4}", share(rej, dec))
        }),
        ("large flows", |r| format!("{:.4}", r.groups[1].blocking)),
    ];
    save_table("table4", &columns, &points(session, grid));
}

/// Tables 5 and 6 — the multi-hop topology: per-class loss and blocking
/// with the product approximation.
fn tables56(session: &Session) {
    println!("# Tables 5 & 6 — multi-hop topology (Fig 10), eps = 0\n");
    let grid = table_designs(|_| 0.0)
        .into_iter()
        .map(|d| (d.name(), MultihopScenario::tables56().design(d)));
    let reports = points(session, grid);
    // Groups: the short classes I, II and III (one link each), then long.
    let table5 = [
        DESIGN,
        ("short flows", |r| {
            fmt_prob((r.groups[0].loss + r.groups[1].loss + r.groups[2].loss) / 3.0)
        }),
        ("long flows", |r| fmt_prob(r.groups[3].loss)),
    ];
    let table6 = [
        DESIGN,
        ("short I", |r| format!("{:.3}", r.groups[0].blocking)),
        ("short II", |r| format!("{:.3}", r.groups[1].blocking)),
        ("short III", |r| format!("{:.3}", r.groups[2].blocking)),
        ("long", |r| format!("{:.3}", r.groups[3].blocking)),
        ("product", |r| {
            let cross: Vec<f64> = r.groups[..3].iter().map(|g| g.blocking).collect();
            format!("{:.3}", product_blocking(&cross))
        }),
    ];
    println!("Table 5 — loss probability (short flows averaged over links)");
    print_table(&table5, &reports);
    println!("\nTable 6 — blocking probabilities and product approximation");
    save_table("tables56", &table6, &reports);
}

/// Fig 11 — TCP coexistence at a legacy drop-tail router.
fn fig11(session: &Session) {
    println!("# Fig 11 — TCP utilization vs admission-controlled traffic");
    println!("# (20 TCP Reno flows from t=0; EAC in-band dropping from t=50s)\n");
    let (horizon, steady) = match session.fidelity {
        Fidelity::Smoke => (400.0, 150.0),
        Fidelity::Quick => (2_000.0, 500.0),
        Fidelity::Paper => (14_000.0, 2_000.0),
    };
    let eps_points = [0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.08, 0.10];
    let raw = pool::run_indexed(eps_points.len(), session.jobs, |i| {
        CoexistScenario::fig11(eps_points[i])
            .horizon_secs(horizon)
            .steady_after_secs(steady)
            .seed(1)
            .run()
    });
    let reports: Vec<CoexistReport> = raw
        .into_iter()
        .map(|r| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
        .collect();
    let columns: [Column<CoexistReport>; 4] = [
        ("eps", |r| format!("{:.2}", r.epsilon)),
        ("TCP util", |r| format!("{:.3}", r.tcp_util)),
        ("EAC util", |r| format!("{:.3}", r.eac_util)),
        ("EAC blocking", |r| format!("{:.3}", r.blocking)),
    ];
    print_table(&columns, &reports);
    save_json("fig11", &reports);
}

/// Run one ablation: print `title`, run its labelled variants as one
/// sweep, then print and save their rows as `id`.
fn ablation(
    session: &Session,
    id: &str,
    title: &str,
    columns: &[Column<Report>],
    variants: impl IntoIterator<Item = (String, Scenario)>,
) {
    println!("{title}\n");
    save_table(id, columns, &points(session, variants));
}

/// The scenario every ablation but push-out and retry varies: the basic
/// workload under `signal` in-band at ε = 0.01.
fn basic_in_band(signal: Signal) -> Scenario {
    let d = Design::endpoint(signal, Placement::InBand, ProbeStyle::SlowStart, 0.01);
    Workload::Basic.scenario().design(d)
}

/// ablate-probe-duration — how long slow-start probing lasts.
fn ablate_probe_duration(session: &Session) {
    let variants = [1.0, 2.5, 5.0, 10.0, 25.0].map(|dur| {
        (
            format!("{dur:.1}"),
            basic_in_band(Signal::Drop).probe_secs(dur),
        )
    });
    ablation(
        session,
        "ablate-probe-duration",
        "# Ablation — probe duration (in-band dropping, eps=0.01)",
        &[
            ("probe-s", |r| r.design.clone()),
            UTILIZATION,
            LOSS,
            BLOCKING,
            ("probe-ovh", |r| format!("{:.4}", r.probe_overhead)),
        ],
        variants,
    );
}

/// ablate-vq-factor — the virtual queue's share of the link rate.
fn ablate_vq_factor(session: &Session) {
    let variants = [0.8, 0.85, 0.9, 0.95, 1.0].map(|f| {
        let mut s = basic_in_band(Signal::Mark);
        s.vq_factor = f;
        (format!("{f:.2}"), s)
    });
    ablation(
        session,
        "ablate-vq-factor",
        "# Ablation — virtual-queue rate factor (in-band marking, eps=0.01)",
        &[
            ("vq-factor", |r| r.design.clone()),
            UTILIZATION,
            LOSS,
            BLOCKING,
            ("mark-frac", |r| format!("{:.4}", r.mark_fraction)),
        ],
        variants,
    );
}

/// The columns of the ablations whose variants need no extra column.
const VARIANT: &[Column<Report>] = &[
    ("variant", |r| r.design.clone()),
    UTILIZATION,
    LOSS,
    BLOCKING,
];

/// ablate-pushout — data pushing resident probes out of a full buffer.
fn ablate_pushout(session: &Session) {
    let d = Design::endpoint(
        Signal::Drop,
        Placement::OutOfBand,
        ProbeStyle::SlowStart,
        0.05,
    );
    let variants = [("push-out on", true), ("push-out off", false)].map(|(label, push)| {
        let mut s = Workload::HighLoad.scenario().design(d);
        s.probe_pushout = push;
        (label.to_string(), s)
    });
    ablation(
        session,
        "ablate-pushout",
        "# Ablation — probe push-out (out-of-band dropping, eps=0.05)",
        VARIANT,
        variants,
    );
}

/// ablate-buffer — the bottleneck buffer size.
fn ablate_buffer(session: &Session) {
    let variants = [50usize, 100, 200, 400].map(|b| {
        let mut s = basic_in_band(Signal::Drop);
        s.buffer_pkts = b;
        (format!("{b}"), s)
    });
    ablation(
        session,
        "ablate-buffer",
        "# Ablation — bottleneck buffer size (in-band dropping, eps=0.01)",
        &[
            ("buffer-pkts", |r| r.design.clone()),
            UTILIZATION,
            LOSS,
            BLOCKING,
        ],
        variants,
    );
}

/// ablate-retry — footnote 10's retries after a rejection.
fn ablate_retry(session: &Session) {
    let policy = |max_attempts, base_s, max_s| eac::host::RetryPolicy {
        max_attempts,
        base_backoff: simcore::SimDuration::from_secs(base_s),
        max_backoff: simcore::SimDuration::from_secs(max_s),
    };
    let d = Design::endpoint(Signal::Drop, Placement::InBand, ProbeStyle::SlowStart, 0.01);
    let variants = [
        ("no retries (paper)", None),
        ("3 retries, 5s base backoff", Some(policy(3, 5, 60))),
        ("5 retries, 10s base backoff", Some(policy(5, 10, 120))),
    ]
    .map(|(label, retry)| {
        let mut s = Workload::HighLoad.scenario().design(d);
        s.retry = retry;
        (label.to_string(), s)
    });
    ablation(
        session,
        "ablate-retry",
        "# Ablation — footnote-10 retry extension (in-band dropping,\n\
         # eps=0.01, ~400% offered load): retries act as extra offered\n\
         # load, trading blocking statistics for utilization",
        VARIANT,
        variants,
    );
}

/// In-band dropping at `eps` on the basic workload, with the event budget
/// on every seed. Like every run, each seed ends with the conservation
/// audit.
fn robust_base(eps: f64) -> Scenario {
    let d = Design::endpoint(Signal::Drop, Placement::InBand, ProbeStyle::SlowStart, eps);
    Workload::Basic
        .scenario()
        .design(d)
        .event_budget(2_000_000_000)
}

/// One robustness table row: a variant's label, its seed average (or
/// the error when no seed survived) and how many of its seeds survived.
struct RobustRow {
    design: String,
    report: Result<Report, String>,
    /// `ok/n`, plus the error when no seed survived.
    seeds_ok: String,
}

impl RobustRow {
    /// A report cell, or `-` when no seed of the variant survived.
    fn cell(&self, cell: fn(&Report) -> String) -> String {
        self.report.as_ref().map_or_else(|_| "-".into(), cell)
    }
}

/// The body both robustness targets share. All variants run as one
/// sweep, whose seeds fail alone, so one pathological run cannot take
/// down the rest: each variant averages its surviving seeds and counts
/// them as `ok/n`. A variant whose seeds all died prints `-` cells and
/// `ok/n: error`; the others are saved to `<id>.json` under their label.
fn robustness(
    session: &Session,
    title: &str,
    id: &str,
    columns: &[Column<RobustRow>],
    variants: impl IntoIterator<Item = (String, Scenario)>,
) {
    println!("{title}\n");
    let (labels, scenarios): (Vec<_>, Vec<_>) = variants.into_iter().unzip();
    let result = session.sweep(scenarios).run();
    let per_variant = result.reports.into_iter().zip(result.outcomes);
    let rows: Vec<RobustRow> = labels
        .into_iter()
        .zip(per_variant)
        .map(|(design, (report, outcomes))| {
            let ok = outcomes.iter().filter(|o| o.is_ok()).count();
            let mut seeds_ok = format!("{ok}/{}", outcomes.len());
            if let Err(e) = &report {
                seeds_ok = format!("{seeds_ok}: {e}");
            }
            let report = report.map(|r| Report {
                design: design.clone(),
                ..r
            });
            RobustRow {
                design,
                report,
                seeds_ok,
            }
        })
        .collect();
    print_table(columns, &rows);
    let saved: Vec<&Report> = rows.iter().filter_map(|r| r.report.as_ref().ok()).collect();
    save_json(id, &saved);
}

/// robust-flap — the Fig 2 loss-load point under a flapping bottleneck.
///
/// Two scheduled link outages (~2% of the measured interval each) hit the
/// bottleneck mid-run. Packets on the wire die, routes recompute, and every
/// control packet caught in the outage is resolved by the hosts' verdict
/// timeout instead of stranding the flow.
fn robust_flap(session: &Session) {
    let (h, w) = session.fidelity.lengths();
    let measured = h - w;
    let flaps = [
        (w + 0.25 * measured, w + 0.27 * measured),
        (w + 0.60 * measured, w + 0.62 * measured),
    ];
    let mut variants = Vec::new();
    for eps in [0.01, 0.05] {
        for (label, flapping) in [("steady", false), ("flapping", true)] {
            let mut s = robust_base(eps).verdict_timeout(5.0);
            if flapping {
                for &(down, up) in &flaps {
                    s = s.flap(down, up);
                }
            }
            variants.push((format!("{label} / {} / eps {eps:.2}", s.design.name()), s));
        }
    }
    robustness(
        session,
        "# robust-flap — in-band dropping under a flapping bottleneck\n\
         # (5 s verdict timeout; packet-conservation audit on every seed)",
        "robust-flap",
        &[
            ("design", |r| r.design.clone()),
            ("utilization", |r| r.cell(UTILIZATION.1)),
            ("loss", |r| r.cell(LOSS.1)),
            ("blocking", |r| r.cell(BLOCKING.1)),
            ("timeouts", |r| r.cell(|r| r.timeouts.to_string())),
            ("leaked", |r| r.cell(|r| r.leaked_flows.to_string())),
            ("seeds-ok", |r| r.seeds_ok.clone()),
        ],
        variants,
    );
}

/// robust-ctrl-loss — lossy control channel, with and without the verdict
/// timeout.
///
/// Bernoulli loss is applied to TrafficClass::Control on both directions of
/// the bottleneck path. With the timeout, a lost Accept/Reject resolves as
/// a counted rejection and blocking stays bounded; without it, flows strand
/// in AwaitDecision and show up as leaked per-flow state.
fn robust_ctrl_loss(session: &Session) {
    let mut variants = Vec::new();
    for p in [0.0, 0.05, 0.1, 0.2] {
        for (label, timeout) in [("timeout 5s", Some(5.0)), ("no timeout", None)] {
            let mut s = robust_base(0.01).control_loss(p);
            if let Some(t) = timeout {
                s = s.verdict_timeout(t);
            }
            variants.push((format!("ctrl-loss {p:.2} / {label}"), s));
        }
    }
    robustness(
        session,
        "# robust-ctrl-loss — Bernoulli loss on the control channel\n\
         # (in-band dropping, eps=0.01; audit + event budget on every seed)",
        "robust-ctrl-loss",
        &[
            ("design", |r| r.design.clone()),
            ("utilization", |r| r.cell(UTILIZATION.1)),
            ("blocking", |r| r.cell(BLOCKING.1)),
            ("timeouts", |r| r.cell(|r| r.timeouts.to_string())),
            ("leaked", |r| r.cell(|r| r.leaked_flows.to_string())),
            ("seeds-ok", |r| r.seeds_ok.clone()),
        ],
        variants,
    );
}

/// What `bench_sweep` measures and persists as `BENCH_sweep.json`.
#[derive(Debug, serde::Serialize)]
pub struct SweepBenchRecord {
    /// Fidelity the sweep ran at.
    pub fidelity: String,
    /// point × seed grid size.
    pub jobs_in_grid: usize,
    /// Worker count used for the parallel pass.
    pub parallel_jobs: usize,
    /// Host parallelism (`available_parallelism`).
    pub host_parallelism: usize,
    /// Wall-clock seconds, one worker.
    pub serial_s: f64,
    /// Wall-clock seconds, `parallel_jobs` workers.
    pub parallel_s: f64,
    /// serial_s / parallel_s.
    pub speedup: f64,
    /// Total simulator events fired across the grid.
    pub total_events: u64,
    /// Events per second, one worker.
    pub serial_events_per_s: f64,
    /// Events per second, `parallel_jobs` workers.
    pub parallel_events_per_s: f64,
    /// Whether serial and parallel reports serialized byte-identically.
    pub byte_identical: bool,
}

/// bench-sweep — wall-clock the pooled executor against the serial path
/// on the Fig 2 in-band-dropping sweep and persist `BENCH_sweep.json`.
///
/// The same grid runs twice — once with one worker (the serial loop,
/// no threads) and once with the session's worker count — and the two
/// result sets are compared byte-for-byte after serialization.
fn bench_sweep(session: &Session) {
    println!("# bench-sweep — pooled vs serial executor (Fig 2 in-band dropping)\n");
    let points: Vec<Scenario> = eps_grid(Placement::InBand)
        .into_iter()
        .map(|e| {
            let d = Design::endpoint(Signal::Drop, Placement::InBand, ProbeStyle::SlowStart, e);
            Workload::Basic.scenario().design(d)
        })
        .collect();
    let fid = session.fidelity;
    let grid = points.len() * fid.seeds().len();
    let parallel_jobs = session.jobs;

    let timed = |jobs| {
        let sweep = session.sweep(points.clone()).jobs(jobs);
        let t0 = std::time::Instant::now();
        let reports = sweep.run();
        (reports.expect_reports(), t0.elapsed().as_secs_f64())
    };
    let (serial, serial_s) = timed(1);
    let (parallel, parallel_s) = timed(parallel_jobs);

    let byte_identical = serde_json::to_string(&serial).expect("serialize reports")
        == serde_json::to_string(&parallel).expect("serialize reports");
    let total_events: u64 = serial.iter().map(|r| r.events).sum();
    let record = SweepBenchRecord {
        fidelity: format!("{fid:?}"),
        jobs_in_grid: grid,
        parallel_jobs,
        host_parallelism: pool::available_jobs(),
        serial_s,
        parallel_s,
        speedup: serial_s / parallel_s.max(1e-9),
        total_events,
        serial_events_per_s: total_events as f64 / serial_s.max(1e-9),
        parallel_events_per_s: total_events as f64 / parallel_s.max(1e-9),
        byte_identical,
    };
    let columns: [Column<(usize, f64, f64)>; 3] = [
        ("workers", |r| r.0.to_string()),
        ("wall-clock s", |r| format!("{:.2}", r.1)),
        ("events/s", |r| format!("{:.0}", r.2)),
    ];
    print_table(
        &columns,
        &[
            (1, serial_s, record.serial_events_per_s),
            (parallel_jobs, parallel_s, record.parallel_events_per_s),
        ],
    );
    println!(
        "\nspeedup {:.2}x on host parallelism {}; byte-identical: {}",
        record.speedup, record.host_parallelism, record.byte_identical
    );
    assert!(
        byte_identical,
        "parallel sweep diverged from serial — determinism contract broken"
    );
    save_json("BENCH_sweep", &record);
}
