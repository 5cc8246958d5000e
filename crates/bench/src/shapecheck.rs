//! Machine-checked reproduction gate: a declarative shape-spec language
//! evaluated over the result rows in `results/*.json`.
//!
//! EXPERIMENTS.md asserts that every figure and table reproduces the
//! paper's *shapes* — who wins, crossovers, direction of effects, order-
//! of-magnitude separations. This module turns those prose claims into
//! executable predicates:
//!
//! - [`monotone_increasing`]`(x, y)` — a curve's direction (e.g. MBAC
//!   utilization rises with η);
//! - [`dominates`]`(a, b, metric, tol)` — design `a`'s best value beats
//!   design `b`'s best by at least a factor (e.g. out-of-band marking's
//!   loss floor sits decades below in-band dropping's);
//! - [`crossover_between`]`(x1, x2)` — a transition happens inside a given
//!   x-window (e.g. Fig 1's thrashing collapse, Fig 11's critical ε);
//! - [`within`]`(paper_value, rel_tol)` — a measured scalar lands near the
//!   paper's published number.
//!
//! The catalog in [`crate::spec`] holds one [`TargetSpec`] per experiment
//! target, each tagged with the EXPERIMENTS.md verdict code it encodes.
//! [`check_targets`] evaluates the specs against a results directory and
//! the `experiments -- check` mode turns the outcome into a CI exit code,
//! `results/verdicts.json`, and the generated verdict block between
//! [`DOCS_BEGIN`]/[`DOCS_END`] markers in EXPERIMENTS.md.

use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// One result row, flattened to named string and numeric fields.
///
/// Report-shaped rows expose `design`, `param`, `utilization`, ... plus
/// per-group fields `g0.loss`, `g0.blocking`, `g0.name`, ...; object
/// rows expose their scalar members (booleans as 0/1).
#[derive(Clone, Debug, Default)]
pub struct Row {
    /// String-valued fields (design labels, group/scenario names).
    pub strs: BTreeMap<String, String>,
    /// Numeric fields.
    pub nums: BTreeMap<String, f64>,
}

/// How a target's JSON maps to [`Row`]s.
#[derive(Clone, Copy, Debug)]
pub enum RowShape {
    /// An array of serialized [`eac::metrics::Report`] objects, each
    /// named by its `design` label.
    Reports,
    /// An array of flat objects (or a single object — one row). Scalar
    /// members become fields; nested arrays/objects are ignored.
    Objects,
}

/// A per-row expression (fields are [`Row::nums`] keys).
#[derive(Clone, Debug)]
pub enum Expr {
    /// The field itself.
    Field(&'static str),
    /// `num / den` (0/0 evaluates to 0; x/0 fails the check).
    Ratio(Box<Expr>, Box<Expr>),
    /// Mean of several fields.
    MeanOf(&'static [&'static str]),
    /// Max of several fields.
    MaxOf(&'static [&'static str]),
}

impl Expr {
    /// The ratio of two fields.
    pub fn ratio(num: &'static str, den: &'static str) -> Expr {
        Expr::Ratio(Box::new(Expr::Field(num)), Box::new(Expr::Field(den)))
    }

    fn eval(&self, row: &Row) -> Result<f64, String> {
        let field = |name: &'static str| {
            row.nums
                .get(name)
                .copied()
                .ok_or_else(|| format!("missing field '{name}'"))
        };
        match self {
            Expr::Field(f) => field(f),
            Expr::Ratio(num, den) => {
                let (n, d) = (num.eval(row)?, den.eval(row)?);
                if d == 0.0 {
                    if n == 0.0 {
                        Ok(0.0)
                    } else {
                        Err(format!("ratio {num:?} / {den:?} divides by zero"))
                    }
                } else {
                    Ok(n / d)
                }
            }
            Expr::MeanOf(fs) => {
                let mut sum = 0.0;
                for f in *fs {
                    sum += field(f)?;
                }
                Ok(sum / fs.len() as f64)
            }
            Expr::MaxOf(fs) => {
                let mut best = f64::NEG_INFINITY;
                for f in *fs {
                    best = best.max(field(f)?);
                }
                Ok(best)
            }
        }
    }
}

/// Row filter. All set conditions must hold.
#[derive(Clone, Debug, Default)]
pub struct Sel {
    design: Option<String>,
    contains: Vec<(&'static str, &'static str)>,
    range: Option<(&'static str, f64, f64)>,
}

impl Sel {
    /// Every row.
    pub fn all() -> Sel {
        Sel::default()
    }

    /// Rows whose `design` field equals `name` exactly.
    pub fn design(name: impl Into<String>) -> Sel {
        Sel {
            design: Some(name.into()),
            ..Sel::default()
        }
    }

    /// Keep rows whose string field contains a substring (each call adds
    /// one more substring the row must contain).
    pub fn has(mut self, field: &'static str, needle: &'static str) -> Sel {
        self.contains.push((field, needle));
        self
    }

    /// Keep rows whose numeric field lies in `[lo, hi]`.
    pub fn range(mut self, field: &'static str, lo: f64, hi: f64) -> Sel {
        self.range = Some((field, lo, hi));
        self
    }

    fn apply<'r>(&self, rows: &'r [Row]) -> Vec<&'r Row> {
        rows.iter()
            .filter(|r| {
                if let Some(d) = &self.design {
                    if r.strs.get("design") != Some(d) {
                        return false;
                    }
                }
                let has =
                    |&(f, needle): &(&str, &str)| r.strs.get(f).is_some_and(|s| s.contains(needle));
                if !self.contains.iter().all(has) {
                    return false;
                }
                if let Some((f, lo, hi)) = self.range {
                    if !r.nums.get(f).is_some_and(|&x| x >= lo && x <= hi) {
                        return false;
                    }
                }
                true
            })
            .collect()
    }
}

/// Aggregation over the selected rows' expression values.
#[derive(Clone, Copy, Debug)]
pub enum Agg {
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Mean.
    Mean,
    /// First selected row (file order).
    First,
    /// Last selected row.
    Last,
    /// Sum.
    Sum,
    /// Number of selected rows (the expression is not evaluated).
    Count,
}

/// A scalar extracted from the rows: filter, evaluate, aggregate.
#[derive(Clone, Debug)]
pub struct Extract {
    /// Row filter.
    pub sel: Sel,
    /// Per-row expression.
    pub expr: Expr,
    /// Aggregation.
    pub agg: Agg,
}

/// Shorthand: aggregate a single field over a selection.
pub fn ext(sel: Sel, field: &'static str, agg: Agg) -> Extract {
    Extract {
        sel,
        expr: Expr::Field(field),
        agg,
    }
}

impl Extract {
    fn eval(&self, rows: &[Row]) -> Result<f64, String> {
        let picked = self.sel.apply(rows);
        if let Agg::Count = self.agg {
            return Ok(picked.len() as f64);
        }
        if picked.is_empty() {
            return Err(format!("selection matched no rows ({:?})", self.sel));
        }
        let vals: Vec<f64> = picked
            .iter()
            .map(|r| self.expr.eval(r))
            .collect::<Result<_, _>>()?;
        Ok(match self.agg {
            Agg::Min => vals.iter().copied().fold(f64::INFINITY, f64::min),
            Agg::Max => vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            Agg::Mean => vals.iter().sum::<f64>() / vals.len() as f64,
            Agg::First => vals[0],
            Agg::Last => *vals.last().unwrap(),
            Agg::Sum => vals.iter().sum(),
            Agg::Count => unreachable!(),
        })
    }
}

/// Comparison operator.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

impl Op {
    fn holds(self, a: f64, b: f64) -> bool {
        match self {
            Op::Le => a <= b,
            Op::Ge => a >= b,
            Op::Gt => a > b,
        }
    }

    fn sym(self) -> &'static str {
        match self {
            Op::Le => "<=",
            Op::Ge => ">=",
            Op::Gt => ">",
        }
    }
}

/// Right-hand side of a comparison.
#[derive(Clone, Debug)]
pub enum Rhs {
    /// A constant.
    Const(f64),
    /// Another extraction scaled by a factor.
    Scaled(Extract, f64),
}

/// A shape predicate over a target's rows.
#[derive(Clone, Debug)]
pub enum Pred {
    /// `lhs op rhs`.
    Cmp {
        /// Left scalar.
        lhs: Extract,
        /// Operator.
        op: Op,
        /// Right scalar.
        rhs: Rhs,
    },
    /// `|lhs - value| <= rel_tol * |value|`.
    Within {
        /// Measured scalar.
        lhs: Extract,
        /// Reference (paper) value.
        value: f64,
        /// Relative tolerance.
        rel_tol: f64,
    },
    /// Sorted by `x`, successive `y` values never fall (within an
    /// absolute tolerance `tol`).
    Monotone {
        /// Row filter.
        sel: Sel,
        /// Sort field.
        x: &'static str,
        /// Value field.
        y: &'static str,
        /// Absolute backsliding tolerance.
        tol: f64,
    },
    /// `y` first rises through `threshold` at an `x` inside `[x1, x2]`.
    Crossover {
        /// Row filter.
        sel: Sel,
        /// Sort field.
        x: &'static str,
        /// Value field.
        y: &'static str,
        /// Level being crossed (rising).
        threshold: f64,
        /// Window start.
        x1: f64,
        /// Window end.
        x2: f64,
    },
    /// Every selected row satisfies `expr op value`.
    EachRow {
        /// Row filter.
        sel: Sel,
        /// Per-row expression.
        expr: Expr,
        /// Operator.
        op: Op,
        /// Constant bound.
        value: f64,
    },
    /// Every part holds: a claim made of several relations.
    All(Vec<Pred>),
    /// The selected row maximizing `metric` has `label` in `allowed`.
    ArgmaxIn {
        /// Row filter.
        sel: Sel,
        /// Metric to maximize.
        metric: &'static str,
        /// String field identifying the row.
        label: &'static str,
        /// Accepted identities.
        allowed: &'static [&'static str],
    },
}

/// `a`'s best (minimum) `metric` is at most `tol` times `b`'s best —
/// design `a` dominates design `b` on a lower-is-better metric.
pub fn dominates(a: Sel, b: Sel, metric: &'static str, tol: f64) -> Pred {
    Pred::Cmp {
        lhs: ext(a, metric, Agg::Min),
        op: Op::Le,
        rhs: Rhs::Scaled(ext(b, metric, Agg::Min), tol),
    }
}

/// `y` never decreases (beyond `tol`) as `x` grows over the selection.
pub fn monotone_increasing(sel: Sel, x: &'static str, y: &'static str, tol: f64) -> Pred {
    Pred::Monotone { sel, x, y, tol }
}

/// The extraction lands within `rel_tol` of the paper's `value`.
pub fn within(lhs: Extract, value: f64, rel_tol: f64) -> Pred {
    Pred::Within {
        lhs,
        value,
        rel_tol,
    }
}

/// `y` (over all rows) first rises through `threshold` between `x1`, `x2`.
pub fn crossover_between(
    x: &'static str,
    y: &'static str,
    threshold: f64,
    x1: f64,
    x2: f64,
) -> Pred {
    Pred::Crossover {
        sel: Sel::all(),
        x,
        y,
        threshold,
        x1,
        x2,
    }
}

/// Deterministic value formatting for check details and generated docs.
fn fmtv(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1e-3 && x.abs() < 1e6 {
        format!("{x:.4}")
    } else {
        format!("{x:.2e}")
    }
}

impl Pred {
    /// Evaluate against the rows: pass/fail plus a measured-value detail.
    /// Structural problems (missing fields, empty selections) fail the
    /// check with the problem as the detail — a gate must never pass on a
    /// file it cannot interpret.
    pub fn eval(&self, rows: &[Row]) -> (bool, String) {
        match self.try_eval(rows) {
            Ok(r) => r,
            Err(e) => (false, e),
        }
    }

    fn try_eval(&self, rows: &[Row]) -> Result<(bool, String), String> {
        match self {
            Pred::Cmp { lhs, op, rhs } => {
                let a = lhs.eval(rows)?;
                let (b, desc) = match rhs {
                    Rhs::Const(c) => (*c, fmtv(*c)),
                    Rhs::Scaled(e, k) => {
                        let v = e.eval(rows)?;
                        (v * k, format!("{} x {}", fmtv(*k), fmtv(v)))
                    }
                };
                Ok((op.holds(a, b), format!("{} {} {desc}", fmtv(a), op.sym())))
            }
            Pred::Within {
                lhs,
                value,
                rel_tol,
            } => {
                let a = lhs.eval(rows)?;
                let ok = (a - value).abs() <= rel_tol * value.abs();
                Ok((
                    ok,
                    format!(
                        "{} vs paper {} (tol {:.0}%)",
                        fmtv(a),
                        fmtv(*value),
                        rel_tol * 100.0
                    ),
                ))
            }
            Pred::Monotone { sel, x, y, tol } => {
                let pts = sorted_points(sel, x, y, rows)?;
                for w in pts.windows(2) {
                    let (prev, next) = (w[0].1, w[1].1);
                    if next + tol < prev {
                        return Ok((
                            false,
                            format!(
                                "{y} moves {} -> {} at {x}={} against direction",
                                fmtv(prev),
                                fmtv(next),
                                fmtv(w[1].0)
                            ),
                        ));
                    }
                }
                Ok((
                    true,
                    format!("{y} non-decreasing over {} points", pts.len()),
                ))
            }
            Pred::Crossover {
                sel,
                x,
                y,
                threshold,
                x1,
                x2,
            } => {
                let pts = sorted_points(sel, x, y, rows)?;
                if pts[0].1 >= *threshold {
                    return Ok((
                        false,
                        format!("{y} already {} at {x}={}", fmtv(pts[0].1), fmtv(pts[0].0)),
                    ));
                }
                for w in pts.windows(2) {
                    if w[0].1 < *threshold && w[1].1 >= *threshold {
                        let at = w[1].0;
                        let ok = at >= *x1 && at <= *x2;
                        return Ok((
                            ok,
                            format!(
                                "{y} crosses {} at {x}={} (window {}..{})",
                                fmtv(*threshold),
                                fmtv(at),
                                fmtv(*x1),
                                fmtv(*x2)
                            ),
                        ));
                    }
                }
                Ok((false, format!("{y} never crosses {}", fmtv(*threshold))))
            }
            Pred::EachRow {
                sel,
                expr,
                op,
                value,
            } => {
                let picked = sel.apply(rows);
                if picked.is_empty() {
                    return Err("selection matched no rows".into());
                }
                for (i, row) in picked.iter().enumerate() {
                    let v = expr.eval(row)?;
                    if !op.holds(v, *value) {
                        let who = row
                            .strs
                            .get("design")
                            .cloned()
                            .unwrap_or_else(|| format!("row {i}"));
                        return Ok((
                            false,
                            format!("{who}: {} !{} {}", fmtv(v), op.sym(), fmtv(*value)),
                        ));
                    }
                }
                Ok((
                    true,
                    format!("all {} rows {} {}", picked.len(), op.sym(), fmtv(*value)),
                ))
            }
            Pred::All(parts) => {
                let mut details = Vec::new();
                for part in parts {
                    let (ok, detail) = part.try_eval(rows)?;
                    if !ok {
                        return Ok((false, detail));
                    }
                    details.push(detail);
                }
                Ok((true, details.join("; ")))
            }
            Pred::ArgmaxIn {
                sel,
                metric,
                label,
                allowed,
            } => {
                let picked = sel.apply(rows);
                if picked.is_empty() {
                    return Err("selection matched no rows".into());
                }
                let mut best: Option<(&Row, f64)> = None;
                for row in picked {
                    let v = Expr::Field(metric).eval(row)?;
                    if best.is_none_or(|(_, bv)| v > bv) {
                        best = Some((row, v));
                    }
                }
                let (row, v) = best.unwrap();
                let name = row
                    .strs
                    .get(*label)
                    .ok_or_else(|| format!("missing label field '{label}'"))?;
                Ok((
                    allowed.contains(&name.as_str()),
                    format!("max {metric} {} at '{name}'", fmtv(v)),
                ))
            }
        }
    }
}

fn sorted_points(
    sel: &Sel,
    x: &'static str,
    y: &'static str,
    rows: &[Row],
) -> Result<Vec<(f64, f64)>, String> {
    let picked = sel.apply(rows);
    if picked.len() < 2 {
        return Err(format!(
            "need >= 2 rows, selection matched {}",
            picked.len()
        ));
    }
    let mut pts: Vec<(f64, f64)> = picked
        .iter()
        .map(|r| Ok((Expr::Field(x).eval(r)?, Expr::Field(y).eval(r)?)))
        .collect::<Result<_, String>>()?;
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    Ok(pts)
}

/// One named invariant: a prose claim plus the predicate encoding it.
#[derive(Clone, Debug)]
pub struct Check {
    /// Stable identifier (`fig2.inband-floor`).
    pub id: &'static str,
    /// The EXPERIMENTS.md claim this encodes, in one sentence.
    pub claim: &'static str,
    /// The executable form.
    pub pred: Pred,
}

/// The spec for one experiment target.
#[derive(Clone, Debug)]
pub struct TargetSpec {
    /// Target name; rows load from `<dir>/<target>.json`.
    pub target: &'static str,
    /// The EXPERIMENTS.md verdict code this spec encodes ("✓" or "✓~").
    pub code: &'static str,
    /// Short title for the generated docs (the figure/table name).
    pub title: &'static str,
    /// How the JSON maps to rows.
    pub shape: RowShape,
    /// The invariants.
    pub checks: Vec<Check>,
}

/// Outcome of one check.
#[derive(Clone, Debug, Serialize)]
pub struct CheckResult {
    /// Check identifier.
    pub id: String,
    /// The claim being checked.
    pub claim: String,
    /// Whether it held.
    pub pass: bool,
    /// Measured values (or the structural error).
    pub detail: String,
}

/// Outcome of one target's spec.
#[derive(Clone, Debug, Serialize)]
pub struct TargetResult {
    /// Target name.
    pub target: String,
    /// Verdict code the spec encodes.
    pub code: String,
    /// Whether every check held.
    pub pass: bool,
    /// Title for docs.
    pub title: String,
    /// Per-check outcomes.
    pub checks: Vec<CheckResult>,
}

/// The file persisted as `results/verdicts.json`.
#[derive(Clone, Debug, Serialize)]
pub struct Verdicts {
    /// Whether every target passed.
    pub pass: bool,
    /// Targets checked / passed.
    pub targets_checked: usize,
    /// Count of passing targets.
    pub targets_passed: usize,
    /// Count of individual checks evaluated.
    pub checks_total: usize,
    /// Count of passing checks.
    pub checks_passed: usize,
    /// Per-target outcomes.
    pub results: Vec<TargetResult>,
}

/// Flatten one serialized [`eac::metrics::Report`]: its scalars as
/// [`object_row`] reads them, plus `g{i}.*` per group (`g{i}.name` among
/// the strings), `l{i}.util` per bottleneck link and `delay_p99_ms`. A
/// field the file lacks stays absent, so a check that reads it fails.
fn report_row(v: &Value) -> Result<Row, String> {
    let mut row = object_row(v)?;
    if !row.strs.contains_key("design") {
        return Err("report row has no string 'design'".into());
    }
    let items = |key: &str| v.get(key).and_then(Value::as_array).unwrap_or_default();
    for (i, g) in items("groups").iter().enumerate() {
        let g = object_row(g)?;
        row.strs
            .extend(g.strs.into_iter().map(|(k, s)| (format!("g{i}.{k}"), s)));
        row.nums
            .extend(g.nums.into_iter().map(|(k, x)| (format!("g{i}.{k}"), x)));
    }
    for (i, u) in items("link_utils").iter().enumerate() {
        if let Some(u) = u.as_f64() {
            row.nums.insert(format!("l{i}.util"), u);
        }
    }
    let p99 = v.get("delay_hist").and_then(|h| h.get("p99_ms"));
    if let Some(p99) = p99.and_then(Value::as_f64) {
        row.nums.insert("delay_p99_ms".into(), p99);
    }
    Ok(row)
}

/// Flatten a flat object: scalars only, booleans as 0/1.
fn object_row(v: &Value) -> Result<Row, String> {
    let entries = v.as_object().ok_or("row is not a JSON object")?;
    let mut row = Row::default();
    for (k, val) in entries {
        if let Some(s) = val.as_str() {
            row.strs.insert(k.clone(), s.to_string());
        } else if let Some(x) = val.as_f64() {
            row.nums.insert(k.clone(), x);
        } else if let Some(b) = val.as_bool() {
            row.nums.insert(k.clone(), if b { 1.0 } else { 0.0 });
        }
        // Nested arrays/objects (e.g. fig11's time series) are not scalar
        // row fields; specs address them via their own targets.
    }
    Ok(row)
}

/// Load and flatten a target's rows from `<dir>/<target>.json`.
pub fn load_rows(dir: &Path, spec: &TargetSpec) -> Result<Vec<Row>, String> {
    let path = dir.join(format!("{}.json", spec.target));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let value =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    match (&spec.shape, &value) {
        (RowShape::Reports, Value::Array(items)) => items.iter().map(report_row).collect(),
        (RowShape::Objects, Value::Array(items)) => items.iter().map(object_row).collect(),
        (RowShape::Objects, v @ Value::Object(_)) => Ok(vec![object_row(v)?]),
        _ => Err(format!(
            "{} has an unexpected top-level shape",
            path.display()
        )),
    }
}

/// Evaluate one spec against a results directory.
pub fn check_target(dir: &Path, spec: &TargetSpec) -> TargetResult {
    let checks = match load_rows(dir, spec) {
        Ok(rows) => spec
            .checks
            .iter()
            .map(|c| {
                let (pass, detail) = c.pred.eval(&rows);
                CheckResult {
                    id: c.id.to_string(),
                    claim: c.claim.to_string(),
                    pass,
                    detail,
                }
            })
            .collect(),
        Err(e) => vec![CheckResult {
            id: format!("{}.load", spec.target),
            claim: "result rows load and parse".to_string(),
            pass: false,
            detail: e,
        }],
    };
    TargetResult {
        target: spec.target.to_string(),
        code: spec.code.to_string(),
        pass: checks.iter().all(|c| c.pass),
        title: spec.title.to_string(),
        checks,
    }
}

/// Evaluate many specs (optionally restricted to one target) and fold the
/// outcomes into a [`Verdicts`] summary.
pub fn check_targets(dir: &Path, specs: &[TargetSpec], only: Option<&str>) -> Verdicts {
    let results: Vec<TargetResult> = specs
        .iter()
        .filter(|s| only.is_none_or(|t| s.target == t))
        .map(|s| check_target(dir, s))
        .collect();
    let checks_total = results.iter().map(|r| r.checks.len()).sum();
    let checks_passed = results
        .iter()
        .flat_map(|r| &r.checks)
        .filter(|c| c.pass)
        .count();
    Verdicts {
        pass: !results.is_empty() && results.iter().all(|r| r.pass),
        targets_checked: results.len(),
        targets_passed: results.iter().filter(|r| r.pass).count(),
        checks_total,
        checks_passed,
        results,
    }
}

/// Start marker of the generated verdict block in EXPERIMENTS.md.
pub const DOCS_BEGIN: &str =
    "<!-- BEGIN GENERATED VERDICTS (experiments -- check --write-docs; do not edit) -->";
/// End marker of the generated verdict block in EXPERIMENTS.md.
pub const DOCS_END: &str = "<!-- END GENERATED VERDICTS -->";

/// Render the generated verdict block (the text between the markers).
pub fn render_docs(v: &Verdicts) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "_{} of {} targets pass ({}/{} checks). Derived from the spec catalog\n\
         in `crates/bench/src/spec.rs`, evaluated against `results/*.json`;\n\
         regenerate with `experiments -- check --write-docs`._\n",
        v.targets_passed, v.targets_checked, v.checks_passed, v.checks_total
    ));
    for r in &v.results {
        let code = if r.pass {
            r.code.clone()
        } else {
            "✗".to_string()
        };
        let n_pass = r.checks.iter().filter(|c| c.pass).count();
        out.push_str(&format!(
            "\n- **{}** (`{}`) {} — {}/{} invariants hold\n",
            r.title,
            r.target,
            code,
            n_pass,
            r.checks.len()
        ));
        for c in &r.checks {
            out.push_str(&format!(
                "  - {} `{}` — {} [{}]\n",
                if c.pass { "✔" } else { "✘" },
                c.id,
                c.claim,
                c.detail
            ));
        }
    }
    out
}

/// Splice the generated block between the markers of a document. Errors
/// if the markers are missing or out of order.
pub fn inject_docs(doc: &str, block: &str) -> Result<String, String> {
    let begin = doc
        .find(DOCS_BEGIN)
        .ok_or("EXPERIMENTS.md is missing the BEGIN GENERATED VERDICTS marker")?;
    let end = doc
        .find(DOCS_END)
        .ok_or("EXPERIMENTS.md is missing the END GENERATED VERDICTS marker")?;
    if end < begin {
        return Err("generated-verdict markers are out of order".into());
    }
    let mut out = String::with_capacity(doc.len() + block.len());
    out.push_str(&doc[..begin + DOCS_BEGIN.len()]);
    out.push('\n');
    out.push_str(block);
    out.push_str(&doc[end..]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(design: &str, pairs: &[(&str, f64)]) -> Row {
        let mut r = Row::default();
        r.strs.insert("design".into(), design.into());
        for (k, v) in pairs {
            r.nums.insert(k.to_string(), *v);
        }
        r
    }

    fn grid() -> Vec<Row> {
        vec![
            row("a", &[("x", 0.0), ("loss", 0.004), ("util", 0.80)]),
            row("a", &[("x", 1.0), ("loss", 0.005), ("util", 0.85)]),
            row("a", &[("x", 2.0), ("loss", 0.006), ("util", 0.90)]),
            row("b", &[("x", 0.0), ("loss", 0.0001), ("util", 0.70)]),
            row("b", &[("x", 1.0), ("loss", 0.0002), ("util", 0.75)]),
        ]
    }

    #[test]
    fn extraction_aggregates() {
        let rows = grid();
        let v = |agg| ext(Sel::design("a"), "loss", agg).eval(&rows).unwrap();
        assert_eq!(v(Agg::Min), 0.004);
        assert_eq!(v(Agg::Max), 0.006);
        assert!((v(Agg::Mean) - 0.005).abs() < 1e-12);
        assert_eq!(v(Agg::First), 0.004);
        assert_eq!(v(Agg::Last), 0.006);
        assert_eq!(v(Agg::Count), 3.0);
        assert!(ext(Sel::design("zzz"), "loss", Agg::Min)
            .eval(&rows)
            .is_err());
        assert!(ext(Sel::design("a"), "nope", Agg::Min).eval(&rows).is_err());
    }

    #[test]
    fn dominates_compares_best_points() {
        let rows = grid();
        // b's loss floor is 40x below a's: b dominates a at tol 0.1.
        let (pass, _) = dominates(Sel::design("b"), Sel::design("a"), "loss", 0.1).eval(&rows);
        assert!(pass);
        // a does not dominate b even at tol 1.0.
        let (pass, _) = dominates(Sel::design("a"), Sel::design("b"), "loss", 1.0).eval(&rows);
        assert!(!pass);
    }

    #[test]
    fn monotone_directions() {
        let rows = grid();
        let (pass, _) = monotone_increasing(Sel::design("a"), "x", "util", 0.0).eval(&rows);
        assert!(pass);
        // Tolerance forgives small backsliding.
        let mut rows2 = grid();
        rows2[1].nums.insert("util".into(), 0.7995);
        let (pass, _) = monotone_increasing(Sel::design("a"), "x", "util", 0.001).eval(&rows2);
        assert!(pass);
        let (pass, _) = monotone_increasing(Sel::design("a"), "x", "util", 0.0).eval(&rows2);
        assert!(!pass);
    }

    #[test]
    fn within_tolerance() {
        let rows = grid();
        let (pass, _) = within(ext(Sel::design("a"), "util", Agg::First), 0.78, 0.05).eval(&rows);
        assert!(pass); // 0.80 within 5% of 0.78
        let (pass, _) = within(ext(Sel::design("a"), "util", Agg::First), 0.78, 0.01).eval(&rows);
        assert!(!pass);
    }

    #[test]
    fn crossover_window() {
        let rows = vec![
            row("c", &[("x", 1.0), ("y", 0.01)]),
            row("c", &[("x", 2.0), ("y", 0.02)]),
            row("c", &[("x", 3.0), ("y", 0.9)]),
            row("c", &[("x", 4.0), ("y", 0.95)]),
        ];
        let (pass, _) = crossover_between("x", "y", 0.5, 2.5, 3.5).eval(&rows);
        assert!(pass);
        // Wrong window.
        let (pass, _) = crossover_between("x", "y", 0.5, 3.5, 4.0).eval(&rows);
        assert!(!pass);
        // Never crosses.
        let (pass, _) = crossover_between("x", "y", 0.99, 1.0, 4.0).eval(&rows);
        assert!(!pass);
        // Already above at the first point.
        let (pass, _) = crossover_between("x", "y", 0.005, 1.0, 4.0).eval(&rows);
        assert!(!pass);
    }

    #[test]
    fn each_row_and_argmax() {
        let rows = grid();
        let every = Pred::EachRow {
            sel: Sel::all(),
            expr: Expr::Field("util"),
            op: Op::Ge,
            value: 0.7,
        };
        let (pass, _) = every.eval(&rows);
        assert!(pass);
        let every_strict = Pred::EachRow {
            sel: Sel::all(),
            expr: Expr::Field("util"),
            op: Op::Ge,
            value: 0.75,
        };
        let (pass, detail) = every_strict.eval(&rows);
        assert!(!pass);
        assert!(detail.contains('b'), "failing row named: {detail}");
        let argmax = Pred::ArgmaxIn {
            sel: Sel::all(),
            metric: "loss",
            label: "design",
            allowed: &["a"],
        };
        let (pass, _) = argmax.eval(&rows);
        assert!(pass);
    }

    #[test]
    fn ratio_and_compound_exprs() {
        let r = row("t", &[("long", 0.3), ("s0", 0.1), ("s1", 0.2), ("s2", 0.3)]);
        let mean = Expr::MeanOf(&["s0", "s1", "s2"]).eval(&r).unwrap();
        assert!((mean - 0.2).abs() < 1e-12);
        let max = Expr::MaxOf(&["s0", "s1", "s2"]).eval(&r).unwrap();
        assert!((max - 0.3).abs() < 1e-12);
        let ratio = Expr::ratio("long", "s1").eval(&r).unwrap();
        assert!((ratio - 1.5).abs() < 1e-12);
        let nested = Expr::Ratio(
            Box::new(Expr::Field("long")),
            Box::new(Expr::MeanOf(&["s0", "s1", "s2"])),
        );
        assert!((nested.eval(&r).unwrap() - 1.5).abs() < 1e-12);
        let zero = row("z", &[("n", 1.0), ("d", 0.0)]);
        assert!(Expr::ratio("n", "d").eval(&zero).is_err());
        assert_eq!(Expr::ratio("d", "d").eval(&zero), Ok(0.0));
    }

    #[test]
    fn structural_errors_fail_checks() {
        let rows = grid();
        let missing = Pred::Cmp {
            lhs: ext(Sel::all(), "no_such_field", Agg::Min),
            op: Op::Le,
            rhs: Rhs::Const(1.0),
        };
        let (pass, detail) = missing.eval(&rows);
        assert!(!pass);
        assert!(detail.contains("no_such_field"));

        // A Report row must be an object with a string `design`.
        assert!(report_row(&Value::Null).is_err());
        assert!(report_row(&Value::Array(vec![])).is_err());
        let no_design = serde_json::from_str(r#"{"param":0.01}"#).unwrap();
        assert!(report_row(&no_design).is_err());

        // A field the row lacks stays absent instead of reading as zero.
        let old = serde_json::from_str(
            r#"{"design":"d","blocking":0.1,"groups":[{"name":"EXP1","loss":0.01}],
                "link_utils":[0.8],"delay_hist":{"p99_ms":21.5}}"#,
        )
        .unwrap();
        let row = report_row(&old).unwrap();
        assert_eq!(row.strs["g0.name"], "EXP1");
        assert_eq!(row.nums["g0.loss"], 0.01);
        assert_eq!(row.nums["l0.util"], 0.8);
        assert_eq!(row.nums["delay_p99_ms"], 21.5);
        let no_leaks = Pred::EachRow {
            sel: Sel::all(),
            expr: Expr::Field("leaked_flows"),
            op: Op::Le,
            value: 0.0,
        };
        let (pass, detail) = no_leaks.eval(&[row]);
        assert!(!pass);
        assert_eq!(detail, "missing field 'leaked_flows'");
    }

    #[test]
    fn docs_injection_round_trips() {
        let doc = format!("# title\n\nprose\n\n{DOCS_BEGIN}\nold\n{DOCS_END}\n\ntail\n");
        let updated = inject_docs(&doc, "new block\n").unwrap();
        assert!(updated.contains("new block"));
        assert!(!updated.contains("old"));
        assert!(updated.starts_with("# title"));
        assert!(updated.ends_with("tail\n"));
        // Idempotent: injecting the same block again changes nothing.
        assert_eq!(inject_docs(&updated, "new block\n").unwrap(), updated);
        assert!(inject_docs("no markers", "x").is_err());
    }
}
