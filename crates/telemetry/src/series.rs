//! Columnar time-series: one row per sample tick, one `f64` column per
//! instrument, exported as CSV (header + rows).

/// A fixed-column table of samples indexed by simulation time.
///
/// Columns are frozen by the first [`set_columns`](Self::set_columns)
/// call; every row must match that width. Values print with Rust's
/// shortest-roundtrip `f64` formatting, so serialization is deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeSeries {
    columns: Vec<String>,
    times_ns: Vec<u64>,
    rows: Vec<Vec<f64>>,
}

impl TimeSeries {
    /// An empty series with no columns yet.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Freeze the column layout. Must be called before the first row.
    pub fn set_columns(&mut self, columns: Vec<String>) {
        assert!(
            self.rows.is_empty(),
            "column layout must be frozen before the first row"
        );
        self.columns = columns;
    }

    /// Whether the column layout is frozen.
    pub fn has_columns(&self) -> bool {
        !self.columns.is_empty()
    }

    /// Column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Append one sample row at `t_ns`.
    pub fn push_row(&mut self, t_ns: u64, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match the frozen column layout"
        );
        self.times_ns.push(t_ns);
        self.rows.push(values.to_vec());
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// One row's values (by index).
    pub fn row(&self, i: usize) -> (u64, &[f64]) {
        (self.times_ns[i], &self.rows[i])
    }

    /// One column's values over time, by name.
    pub fn column(&self, name: &str) -> Option<Vec<f64>> {
        let ci = self.columns.iter().position(|c| c == name)?;
        Some(self.rows.iter().map(|r| r[ci]).collect())
    }

    /// Render as CSV: `t_s,<col>,...` header, one row per sample.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_s");
        for c in &self.columns {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for (t, row) in self.times_ns.iter().zip(self.rows.iter()) {
            out.push_str(&format!("{}", *t as f64 / 1e9));
            for v in row {
                out.push(',');
                out.push_str(&format!("{v}"));
            }
            out.push('\n');
        }
        out
    }

    /// Element-wise mean across several series with the same columns,
    /// truncated to the shortest one (seeds can produce one ragged tick
    /// at the horizon). Times come from the first series.
    pub fn mean_across(all: &[&TimeSeries]) -> TimeSeries {
        let mut out = TimeSeries::new();
        let Some(first) = all.first() else {
            return out;
        };
        out.set_columns(first.columns.to_vec());
        let n_rows = all.iter().map(|s| s.len()).min().unwrap_or(0);
        let n = all.len() as f64;
        for i in 0..n_rows {
            let mut row = vec![0.0; first.columns.len()];
            for s in all {
                assert_eq!(s.columns, first.columns, "mean over mismatched columns");
                for (acc, v) in row.iter_mut().zip(s.rows[i].iter()) {
                    *acc += v;
                }
            }
            for acc in row.iter_mut() {
                *acc /= n;
            }
            out.push_row(first.times_ns[i], &row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_layout_and_column_access() {
        let mut s = TimeSeries::new();
        s.set_columns(vec!["a".into(), "b".into()]);
        s.push_row(1_000_000_000, &[1.0, 2.5]);
        s.push_row(2_000_000_000, &[3.0, 4.0]);
        let csv = s.to_csv();
        assert_eq!(csv, "t_s,a,b\n1,1,2.5\n2,3,4\n");
        assert_eq!(s.column("b").unwrap(), vec![2.5, 4.0]);
        assert!(s.column("c").is_none());
    }

    #[test]
    fn mean_across_truncates_to_shortest() {
        let mut a = TimeSeries::new();
        a.set_columns(vec!["x".into()]);
        a.push_row(1, &[1.0]);
        a.push_row(2, &[5.0]);
        let mut b = TimeSeries::new();
        b.set_columns(vec!["x".into()]);
        b.push_row(1, &[3.0]);
        let m = TimeSeries::mean_across(&[&a, &b]);
        assert_eq!(m.len(), 1);
        assert_eq!(m.row(0), (1, &[2.0][..]));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_is_enforced() {
        let mut s = TimeSeries::new();
        s.set_columns(vec!["a".into()]);
        s.push_row(0, &[1.0, 2.0]);
    }
}
