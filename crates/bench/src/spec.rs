//! The spec catalog: one [`TargetSpec`] per experiment target, encoding
//! the EXPERIMENTS.md verdicts as executable shape predicates.
//!
//! Thresholds are calibrated against the committed `results/*.json`,
//! which are all `--quick` output, one fidelity that `experiments all
//! --quick` regenerates byte for byte (`BENCH_sweep.json`, a wall-clock
//! measurement, is a `--smoke` run). That is not paper fidelity. The
//! slack is enough that re-runs under fresh seeds stay green, but
//! tight enough that a qualitative regression — a design winning that
//! should lose, a floor vanishing, a crossover drifting out of its
//! window — fails the gate. Every check's `claim`
//! quotes the prose assertion it replaces; the generated block in
//! EXPERIMENTS.md is rendered from these outcomes.

use crate::shapecheck::{
    crossover_between, dominates, ext, monotone_increasing, within, Agg, Check, Expr, Extract, Op,
    Pred, Rhs, RowShape, Sel, TargetSpec,
};

/// Design labels, as `Design::name` spells them. A row whose table
/// holds several curves or scenarios of one design appends
/// ` / <variant>` to its design's label.
const DROP_IB: &str = "drop (in-band)";
const DROP_OOB: &str = "drop (out-of-band)";
const MARK_IB: &str = "mark (in-band)";
const MARK_OOB: &str = "mark (out-of-band)";
const MBAC: &str = "MBAC";

fn check(id: &'static str, claim: &'static str, pred: Pred) -> Check {
    Check { id, claim, pred }
}

/// Row-count invariant: the sweep grid is complete.
fn grid_complete(id: &'static str, n: usize) -> Check {
    check(
        id,
        "the full sweep grid is present",
        Pred::Cmp {
            lhs: ext(Sel::all(), "param", Agg::Count),
            op: Op::Ge,
            rhs: Rhs::Const(n as f64),
        },
    )
}

/// MBAC's η knob trades utilization up as the target rises.
fn mbac_knob() -> Check {
    check(
        "mbac-knob",
        "MBAC utilization rises monotonically with the target eta",
        monotone_increasing(Sel::design(MBAC), "param", "utilization", 1e-6),
    )
}

/// MBAC's η knob still controls the operating point under noisy source
/// models, but with local dips: assert the end-to-end rise instead.
fn mbac_knob_trend() -> Check {
    check(
        "mbac-knob",
        "raising MBAC's target eta from 0.75 to 1.0 raises utilization overall",
        Pred::Cmp {
            lhs: ext(Sel::design(MBAC), "utilization", Agg::Last),
            op: Op::Ge,
            rhs: Rhs::Scaled(ext(Sel::design(MBAC), "utilization", Agg::First), 1.1),
        },
    )
}

/// Shared checks for a loss-load figure (Fig 2 / Fig 8 shape): the four
/// endpoint designs plus MBAC over their ε grids.
fn loss_load_checks(eps0_ceiling: f64, markoob_factor: f64) -> Vec<Check> {
    vec![
        grid_complete("grid", 28),
        check(
            "inband-floor",
            "in-band dropping has an irreducible loss floor even at eps = 0",
            Pred::Cmp {
                lhs: ext(Sel::design(DROP_IB), "data_loss", Agg::Min),
                op: Op::Ge,
                rhs: Rhs::Const(5e-4),
            },
        ),
        check(
            "marking-dominates",
            "out-of-band marking's loss floor sits well below in-band dropping's",
            dominates(
                Sel::design(MARK_OOB),
                Sel::design(DROP_IB),
                "data_loss",
                markoob_factor,
            ),
        ),
        check(
            "mbac-dominates",
            "router-based MBAC beats every endpoint scheme on loss",
            dominates(Sel::design(MBAC), Sel::design(DROP_IB), "data_loss", 0.1),
        ),
        check(
            "eps0-loss-small",
            "at eps = 0 the loss stays moderate (admission control works)",
            Pred::Cmp {
                lhs: ext(Sel::design(DROP_IB), "data_loss", Agg::First),
                op: Op::Le,
                rhs: Rhs::Const(eps0_ceiling),
            },
        ),
    ]
}

fn fig1() -> TargetSpec {
    TargetSpec {
        target: "fig1",
        code: "✓~",
        title: "Fig 1 — fluid-model thrashing",
        shape: RowShape::Objects,
        checks: vec![
            grid_complete("grid", 14),
            check(
                "plateau",
                "short probes sustain the admission-controlled plateau",
                Pred::EachRow {
                    sel: Sel::all().range("probe_s", 0.0, 1.9),
                    expr: Expr::Field("utilization"),
                    op: Op::Ge,
                    value: 0.5,
                },
            ),
            check(
                "collapse",
                "long probes thrash: utilization collapses below 10%",
                Pred::EachRow {
                    sel: Sel::all().range("probe_s", 3.6, f64::INFINITY),
                    expr: Expr::Field("utilization"),
                    op: Op::Le,
                    value: 0.10,
                },
            ),
            check(
                "thrash-onset",
                "in-band loss jumps past 50% at the thrashing onset near probe_s = 2",
                crossover_between("probe_s", "loss", 0.5, 1.8, 2.4),
            ),
        ],
    }
}

fn fig2() -> TargetSpec {
    let mut checks = loss_load_checks(1e-2, 1.0 / 3.0);
    checks.push(mbac_knob());
    checks.push(check(
        "util-band",
        "endpoint designs hold utilization in the paper's 0.7-0.9 band",
        Pred::EachRow {
            sel: Sel::all().has("design", "band"),
            expr: Expr::Field("utilization"),
            op: Op::Ge,
            value: 0.70,
        },
    ));
    checks.push(check(
        "util-ceiling",
        "no endpoint design overshoots the bottleneck share",
        Pred::EachRow {
            sel: Sel::all().has("design", "band"),
            expr: Expr::Field("utilization"),
            op: Op::Le,
            value: 0.92,
        },
    ));
    checks.push(check(
        "eps-raises-loss",
        "raising the acceptance threshold eps buys load at the cost of loss",
        Pred::Cmp {
            lhs: ext(Sel::design(DROP_IB), "data_loss", Agg::Last),
            op: Op::Ge,
            rhs: Rhs::Scaled(ext(Sel::design(DROP_IB), "data_loss", Agg::First), 1.2),
        },
    ));
    TargetSpec {
        target: "fig2",
        code: "✓",
        title: "Fig 2 — basic scenario loss-load curves",
        shape: RowShape::Reports,
        checks,
    }
}

fn fig3() -> TargetSpec {
    let short = || Sel::design("drop (in-band) / 5 second probes");
    let long = || Sel::design("drop (in-band) / 25 second probes");
    TargetSpec {
        target: "fig3",
        code: "✓",
        title: "Fig 3 — longer probing (5 s vs 25 s)",
        shape: RowShape::Reports,
        checks: vec![
            grid_complete("grid", 18),
            check(
                "long-probe-overhead",
                "25 s probes pay several times the probe overhead of 5 s probes",
                Pred::Cmp {
                    lhs: ext(long(), "probe_overhead", Agg::Mean),
                    op: Op::Ge,
                    rhs: Rhs::Scaled(ext(short(), "probe_overhead", Agg::Mean), 3.0),
                },
            ),
            check(
                "long-probe-loss",
                "the longer measurement halves the eps = 0 loss",
                Pred::Cmp {
                    lhs: ext(long(), "data_loss", Agg::First),
                    op: Op::Le,
                    rhs: Rhs::Scaled(ext(short(), "data_loss", Agg::First), 0.5),
                },
            ),
            check(
                "long-probe-util",
                "probe traffic displaces data: 25 s probing yields no more utilization",
                Pred::Cmp {
                    lhs: ext(long(), "utilization", Agg::Mean),
                    op: Op::Le,
                    rhs: Rhs::Scaled(ext(short(), "utilization", Agg::Mean), 1.0),
                },
            ),
            mbac_knob(),
        ],
    }
}

/// The rows of `design`'s curve under one probing style in Figs 4-7.
fn style(design: &str, probing: &str) -> Sel {
    Sel::design(format!("{design} / {probing}"))
}

/// Figs 4-7 share a layout: one curve of `w` points per probing style
/// (Simple Probing, Slow Start, Early Reject) for one design, then MBAC.
fn fig4to7(
    target: &'static str,
    title: &'static str,
    design: &'static str,
    w: usize,
    extra: Vec<Check>,
) -> TargetSpec {
    let simple = || style(design, "Simple Probing");
    let slowstart = || style(design, "Slow Start");
    let mut checks = vec![
        grid_complete("grid", 3 * w + 6),
        check(
            "slowstart-overhead",
            "slow-start probing halves the overhead of simple probing",
            Pred::Cmp {
                lhs: ext(slowstart(), "probe_overhead", Agg::Mean),
                op: Op::Le,
                rhs: Rhs::Scaled(ext(simple(), "probe_overhead", Agg::Mean), 0.5),
            },
        ),
        mbac_knob(),
    ];
    checks.extend(extra);
    TargetSpec {
        target,
        code: "✓",
        title,
        shape: RowShape::Reports,
        checks,
    }
}

fn fig4() -> TargetSpec {
    let simple = || style(DROP_IB, "Simple Probing");
    let slowstart = || style(DROP_IB, "Slow Start");
    fig4to7(
        "fig4",
        "Fig 4 — high load, drop (in-band)",
        DROP_IB,
        6,
        vec![
            check(
                "slowstart-loss",
                "slow-start probing cuts the data loss of simple probing",
                Pred::Cmp {
                    lhs: ext(slowstart(), "data_loss", Agg::Mean),
                    op: Op::Le,
                    rhs: Rhs::Scaled(ext(simple(), "data_loss", Agg::Mean), 0.8),
                },
            ),
            check(
                "slowstart-util",
                "slow-start probing sustains at least simple probing's utilization",
                Pred::Cmp {
                    lhs: ext(slowstart(), "utilization", Agg::Min),
                    op: Op::Ge,
                    rhs: Rhs::Scaled(ext(simple(), "utilization", Agg::Max), 1.0),
                },
            ),
            check(
                "high-load-blocking",
                "under tau = 1 s overload most flows are rejected",
                Pred::EachRow {
                    sel: Sel::all().has("design", DROP_IB),
                    expr: Expr::Field("blocking"),
                    op: Op::Ge,
                    value: 0.6,
                },
            ),
        ],
    )
}

fn fig5() -> TargetSpec {
    fig4to7(
        "fig5",
        "Fig 5 — high load, drop (out-of-band)",
        DROP_OOB,
        5,
        vec![check(
            "loss-stays-small",
            "out-of-band dropping keeps data loss below 2% even at high load",
            Pred::EachRow {
                sel: Sel::all().has("design", DROP_OOB),
                expr: Expr::Field("data_loss"),
                op: Op::Le,
                value: 2e-2,
            },
        )],
    )
}

fn fig6() -> TargetSpec {
    let simple = || style(MARK_IB, "Simple Probing");
    let slowstart = || style(MARK_IB, "Slow Start");
    fig4to7(
        "fig6",
        "Fig 6 — high load, mark (in-band)",
        MARK_IB,
        6,
        vec![check(
            "slowstart-loss",
            "slow-start probing cuts marking's data loss versus simple probing",
            Pred::Cmp {
                lhs: ext(slowstart(), "data_loss", Agg::Mean),
                op: Op::Le,
                rhs: Rhs::Scaled(ext(simple(), "data_loss", Agg::Mean), 0.7),
            },
        )],
    )
}

fn fig7() -> TargetSpec {
    fig4to7(
        "fig7",
        "Fig 7 — high load, mark (out-of-band)",
        MARK_OOB,
        5,
        vec![check(
            "loss-stays-small",
            "out-of-band marking is the cleanest design: loss below 0.5%",
            Pred::EachRow {
                sel: Sel::all().has("design", MARK_OOB),
                expr: Expr::Field("data_loss"),
                op: Op::Le,
                value: 5e-3,
            },
        )],
    )
}

/// Figs 8(a)-(f): the Fig 2 shape re-run under a different source model.
fn fig8(target: &'static str, title: &'static str, eps0_ceiling: f64) -> TargetSpec {
    let mut checks = loss_load_checks(eps0_ceiling, 0.6);
    checks.push(mbac_knob_trend());
    TargetSpec {
        target,
        code: "✓",
        title,
        shape: RowShape::Reports,
        checks,
    }
}

fn fig9() -> TargetSpec {
    let drop_ib = || Sel::all().has("design", DROP_IB);
    TargetSpec {
        target: "fig9",
        code: "✓",
        title: "Fig 9 — loss across scenarios at fixed eps",
        shape: RowShape::Reports,
        checks: vec![
            grid_complete("grid", 32),
            check(
                "oob-uniformly-small",
                "out-of-band designs keep loss below 5% in every scenario",
                Pred::EachRow {
                    sel: Sel::all().has("design", "out-of-band"),
                    expr: Expr::Field("data_loss"),
                    op: Op::Le,
                    value: 5e-2,
                },
            ),
            check(
                "inband-spread",
                "in-band dropping's loss varies by over an order of magnitude across scenarios",
                Pred::Cmp {
                    lhs: ext(drop_ib(), "data_loss", Agg::Max),
                    op: Op::Ge,
                    rhs: Rhs::Scaled(ext(drop_ib(), "data_loss", Agg::Min), 10.0),
                },
            ),
            check(
                "worst-scenarios",
                "the hardest scenarios for in-band dropping are the bursty/low-multiplexing ones",
                Pred::ArgmaxIn {
                    sel: drop_ib(),
                    metric: "data_loss",
                    label: "design",
                    allowed: &[
                        "drop (in-band) / Heavy Load",
                        "drop (in-band) / Low multiplexing",
                        "drop (in-band) / Star Wars",
                    ],
                },
            ),
        ],
    }
}

fn table3() -> TargetSpec {
    TargetSpec {
        target: "table3",
        code: "✓",
        title: "Table 3 — heterogeneous eps: who gets blocked",
        shape: RowShape::Reports,
        checks: vec![
            grid_complete("grid", 4),
            check(
                "low-eps-blocked-more",
                "picky (low-eps) flows see higher blocking than tolerant ones in every design",
                Pred::EachRow {
                    sel: Sel::all(),
                    expr: Expr::ratio("g0.blocking", "g1.blocking"),
                    op: Op::Ge,
                    value: 1.2,
                },
            ),
            check(
                "inband-magnitude",
                "in-band dropping's low-eps blocking lands near the paper's magnitude",
                within(
                    ext(Sel::design(DROP_IB), "g0.blocking", Agg::First),
                    0.238,
                    0.3,
                ),
            ),
        ],
    }
}

fn table4() -> TargetSpec {
    // Groups: EXP1, EXP2, EXP4, POO1. Large = EXP2 (g1); small = the rest,
    // pooled: their rejections over their decisions.
    let small_blocking = Expr::Ratio(
        Box::new(Expr::MeanOf(&["g0.rejected", "g2.rejected", "g3.rejected"])),
        Box::new(Expr::MeanOf(&["g0.decided", "g2.decided", "g3.decided"])),
    );
    TargetSpec {
        target: "table4",
        code: "✓",
        title: "Table 4 — small vs large flows",
        shape: RowShape::Reports,
        checks: vec![
            grid_complete("grid", 5),
            check(
                "mbac-discriminates",
                "MBAC penalizes large flows far more than small ones",
                Pred::Cmp {
                    lhs: ext(Sel::design(MBAC), "g1.blocking", Agg::First),
                    op: Op::Ge,
                    rhs: Rhs::Scaled(
                        Extract {
                            sel: Sel::design(MBAC),
                            expr: small_blocking,
                            agg: Agg::First,
                        },
                        1.5,
                    ),
                },
            ),
            check(
                "endpoint-fairer",
                "every endpoint design discriminates less than MBAC does",
                Pred::Cmp {
                    lhs: ext(Sel::all().has("design", "band"), "g1.blocking", Agg::Max),
                    op: Op::Le,
                    rhs: Rhs::Scaled(ext(Sel::design(MBAC), "g1.blocking", Agg::First), 0.95),
                },
            ),
        ],
    }
}

fn tables56() -> TargetSpec {
    TargetSpec {
        target: "tables56",
        code: "✓",
        title: "Tables 5-6 — multi-hop topology",
        shape: RowShape::Reports,
        checks: vec![
            grid_complete("grid", 5),
            check(
                "long-path-blocked-more",
                "the long (multi-hop) class sees higher blocking than any short class",
                Pred::EachRow {
                    sel: Sel::all(),
                    expr: Expr::Ratio(
                        Box::new(Expr::Field("g3.blocking")),
                        Box::new(Expr::MaxOf(&["g0.blocking", "g1.blocking", "g2.blocking"])),
                    ),
                    op: Op::Ge,
                    value: 1.05,
                },
            ),
            check(
                "long-path-loses-more",
                "multi-hop flows also absorb more loss than single-hop cross traffic",
                Pred::Cmp {
                    lhs: ext(Sel::all(), "g3.loss", Agg::Sum),
                    op: Op::Ge,
                    rhs: Rhs::Scaled(
                        Extract {
                            sel: Sel::all(),
                            expr: Expr::MeanOf(&["g0.loss", "g1.loss", "g2.loss"]),
                            agg: Agg::Sum,
                        },
                        1.2,
                    ),
                },
            ),
            check(
                "loss-stays-small",
                "multi-hop loss remains in the sub-2% regime at eps = 0",
                Pred::EachRow {
                    sel: Sel::all(),
                    expr: Expr::Field("g3.loss"),
                    op: Op::Le,
                    value: 2e-2,
                },
            ),
        ],
    }
}

fn fig11() -> TargetSpec {
    TargetSpec {
        target: "fig11",
        code: "✓~",
        title: "Fig 11 — TCP coexistence at a drop-tail router",
        shape: RowShape::Objects,
        checks: vec![
            grid_complete("grid", 8),
            check(
                "lockout",
                "at strict thresholds TCP's own loss locks admission-controlled traffic out",
                Pred::EachRow {
                    sel: Sel::all().range("epsilon", 0.0, 0.055),
                    expr: Expr::Field("eac_util"),
                    op: Op::Le,
                    value: 0.01,
                },
            ),
            check(
                "tcp-keeps-link",
                "under lockout TCP keeps the whole link",
                Pred::EachRow {
                    sel: Sel::all().range("epsilon", 0.0, 0.055),
                    expr: Expr::Field("tcp_util"),
                    op: Op::Ge,
                    value: 0.95,
                },
            ),
            check(
                "critical-eps",
                "admission-controlled traffic breaks through once eps clears TCP's loss rate",
                crossover_between("epsilon", "eac_util", 0.05, 0.05, 0.09),
            ),
            check(
                "sharing",
                "past the critical eps the designs share, EAC taking a minority of the link",
                Pred::EachRow {
                    sel: Sel::all().range("epsilon", 0.08, 1.0),
                    expr: Expr::Field("eac_util"),
                    op: Op::Ge,
                    value: 0.1,
                },
            ),
            check(
                "tcp-never-starved",
                "TCP is never starved at any threshold",
                Pred::EachRow {
                    sel: Sel::all(),
                    expr: Expr::Field("tcp_util"),
                    op: Op::Ge,
                    value: 0.5,
                },
            ),
        ],
    }
}

/// Every row `sel` picks has the same `field`: its largest value is no
/// more than its smallest.
fn same(sel: Sel, field: &'static str) -> Pred {
    Pred::Cmp {
        lhs: ext(sel.clone(), field, Agg::Max),
        op: Op::Le,
        rhs: Rhs::Scaled(ext(sel, field, Agg::Min), 1.0),
    }
}

/// `field` strictly falls along `sels`: every value in one selection is
/// above every value in the next.
fn falls(field: &'static str, sels: Vec<Sel>) -> Vec<Pred> {
    sels.windows(2)
        .map(|w| Pred::Cmp {
            lhs: ext(w[0].clone(), field, Agg::Min),
            op: Op::Gt,
            rhs: Rhs::Scaled(ext(w[1].clone(), field, Agg::Max), 1.0),
        })
        .collect()
}

fn robust_flap() -> TargetSpec {
    let steady = || Sel::all().has("design", "steady");
    TargetSpec {
        target: "robust-flap",
        code: "✓",
        title: "Robustness — flapping bottleneck",
        shape: RowShape::Reports,
        checks: vec![
            grid_complete("grid", 4),
            check(
                "steady-clean",
                "the steady baseline has no verdict timeouts and no leaked flows",
                Pred::EachRow {
                    sel: steady(),
                    expr: Expr::MaxOf(&["timeouts", "leaked_flows"]),
                    op: Op::Le,
                    value: 0.0,
                },
            ),
            check(
                "steady-eps-blocks",
                "the steady baseline's blocking is load: the stricter eps = 0.01 blocks more",
                Pred::All(falls(
                    "blocking",
                    vec![
                        steady().has("design", "eps 0.01"),
                        steady().has("design", "eps 0.05"),
                    ],
                )),
            ),
            check(
                "flap-costs-util",
                "capacity flapping strictly degrades utilization",
                Pred::Cmp {
                    lhs: ext(
                        Sel::all().has("design", "flapping"),
                        "utilization",
                        Agg::Max,
                    ),
                    op: Op::Le,
                    rhs: Rhs::Scaled(ext(steady(), "utilization", Agg::Min), 0.95),
                },
            ),
            check(
                "flap-causes-loss",
                "flows admitted before a capacity drop suffer real loss",
                Pred::EachRow {
                    sel: Sel::all().has("design", "flapping"),
                    expr: Expr::Field("data_loss"),
                    op: Op::Ge,
                    value: 1e-3,
                },
            ),
            check(
                "flap-trips-timeouts",
                "verdict timeouts fire during outages",
                Pred::EachRow {
                    sel: Sel::all().has("design", "flapping"),
                    expr: Expr::Field("timeouts"),
                    op: Op::Ge,
                    value: 1.0,
                },
            ),
            check(
                "no-leaks",
                "no per-flow state leaks in either condition",
                Pred::EachRow {
                    sel: Sel::all(),
                    expr: Expr::Field("leaked_flows"),
                    op: Op::Le,
                    value: 0.0,
                },
            ),
        ],
    }
}

fn robust_ctrl_loss() -> TargetSpec {
    // One selection per control-loss level, in rising order.
    let levels = ["0.00", "0.05", "0.10", "0.20"].map(|p| Sel::all().has("design", p));
    let stranding = levels.clone().map(|l| l.has("design", "no timeout"));
    let no_timeout = || Sel::all().has("design", "no timeout");
    TargetSpec {
        target: "robust-ctrl-loss",
        code: "✓",
        title: "Robustness — lost control packets",
        shape: RowShape::Reports,
        checks: vec![
            grid_complete("grid", 8),
            check(
                "baseline-clean",
                "at p = 0 neither variant times out or leaks; utilization and blocking agree",
                Pred::All(vec![
                    Pred::EachRow {
                        sel: levels[0].clone(),
                        expr: Expr::MaxOf(&["timeouts", "leaked_flows"]),
                        op: Op::Le,
                        value: 0.0,
                    },
                    same(levels[0].clone(), "utilization"),
                    same(levels[0].clone(), "blocking"),
                ]),
            ),
            check(
                "timeout-rejects",
                "with the verdict timeout armed, lost verdicts surface as blocking",
                Pred::Cmp {
                    lhs: ext(Sel::all().has("design", "timeout 5s"), "blocking", Agg::Max),
                    op: Op::Ge,
                    rhs: Rhs::Const(0.3),
                },
            ),
            check(
                "no-timeout-leaks",
                "without the timeout the same losses strand flow state instead",
                Pred::Cmp {
                    lhs: ext(no_timeout(), "leaked_flows", Agg::Max),
                    op: Op::Ge,
                    rhs: Rhs::Scaled(
                        ext(
                            Sel::all().has("design", "timeout 5s"),
                            "leaked_flows",
                            Agg::Max,
                        ),
                        3.0,
                    ),
                },
            ),
            check(
                "no-timeout-silent",
                "without the timeout nothing times out; leaks grow and blocking falls with p",
                Pred::All(
                    [
                        vec![Pred::EachRow {
                            sel: no_timeout(),
                            expr: Expr::Field("timeouts"),
                            op: Op::Le,
                            value: 0.0,
                        }],
                        falls("leaked_flows", stranding.iter().rev().cloned().collect()),
                        falls("blocking", vec![stranding[0].clone(), stranding[3].clone()]),
                    ]
                    .concat(),
                ),
            ),
            check(
                "ctrl-loss-costs-util",
                "utilization falls with control loss, identically with or without the timeout",
                Pred::All(
                    [
                        falls("utilization", levels.to_vec()),
                        levels.map(|l| same(l, "utilization")).to_vec(),
                    ]
                    .concat(),
                ),
            ),
        ],
    }
}

fn bench_sweep() -> TargetSpec {
    TargetSpec {
        target: "BENCH_sweep",
        code: "✓",
        title: "Bench — parallel sweep determinism",
        shape: RowShape::Objects,
        checks: vec![
            check(
                "byte-identical",
                "the parallel sweep's merged output is byte-identical to the serial run",
                Pred::EachRow {
                    sel: Sel::all(),
                    expr: Expr::Field("byte_identical"),
                    op: Op::Ge,
                    value: 1.0,
                },
            ),
            check(
                "work-done",
                "the sweep actually processed events",
                Pred::Cmp {
                    lhs: ext(Sel::all(), "total_events", Agg::First),
                    op: Op::Gt,
                    rhs: Rhs::Const(0.0),
                },
            ),
        ],
    }
}

/// Every target's spec, in EXPERIMENTS.md order.
pub fn catalog() -> Vec<TargetSpec> {
    vec![
        fig1(),
        fig2(),
        fig3(),
        fig4(),
        fig5(),
        fig6(),
        fig7(),
        fig8("fig8a", "Fig 8(a) — source model EXP2", 1e-2),
        fig8("fig8b", "Fig 8(b) — source model EXP3", 1e-2),
        fig8("fig8c", "Fig 8(c) — source model POO1", 1e-2),
        fig8("fig8d", "Fig 8(d) — Star Wars trace", 5e-2),
        fig8("fig8e", "Fig 8(e) — heterogeneous mix", 2e-2),
        fig8("fig8f", "Fig 8(f) — low multiplexing", 5e-2),
        fig9(),
        table3(),
        table4(),
        tables56(),
        fig11(),
        robust_flap(),
        robust_ctrl_loss(),
        bench_sweep(),
    ]
}
