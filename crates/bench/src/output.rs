//! Table printing and JSON persistence.

use serde::Serialize;
use std::fs;
use std::path::PathBuf;

/// One table column: its header and the function that prints its cell.
pub type Column<R> = (&'static str, fn(&R) -> String);

/// Render an aligned table: the header, a dash rule under it, then one
/// line per row. Cells are left-aligned and two spaces apart, and each
/// line's trailing space is trimmed.
pub fn render_table<R>(columns: &[Column<R>], rows: &[R]) -> String {
    let header = columns.iter().map(|(h, _)| h.to_string()).collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| columns.iter().map(|(_, cell)| cell(r)).collect())
        .collect();
    let mut widths: Vec<usize> = columns.iter().map(|(h, _)| h.len()).collect();
    for row in &body {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let rule = widths.iter().map(|w| "-".repeat(*w)).collect();
    let mut out = String::new();
    for cells in [header, rule].iter().chain(&body) {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        out.push_str(padded.join("  ").trim_end());
        out.push('\n');
    }
    out
}

/// Print [`render_table`]'s table on stdout.
pub fn print_table<R>(columns: &[Column<R>], rows: &[R]) {
    print!("{}", render_table(columns, rows));
}

/// Where results live: `$EAC_RESULTS_DIR` when set, else `results/`.
pub fn results_dir() -> PathBuf {
    PathBuf::from(std::env::var("EAC_RESULTS_DIR").unwrap_or_else(|_| "results".to_string()))
}

/// Serialize `value` to `<results_dir>/<id>.json`, creating the
/// directory. A run that cannot save its results exits with status 1.
pub fn save_json<T: Serialize>(id: &str, value: &T) {
    let dir = results_dir();
    let path = dir.join(format!("{id}.json"));
    let json = serde_json::to_string_pretty(value).expect("results serialize");
    if let Err(e) = fs::create_dir_all(&dir).and_then(|()| fs::write(&path, json)) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("[saved {}]", path.display());
}

/// Format a probability for tables: fixed for large values, scientific
/// for tiny ones (the paper's log-scale loss axes span 1e-5..1e-1).
pub fn fmt_prob(p: f64) -> String {
    if p == 0.0 {
        "0".to_string()
    } else if p < 1e-3 {
        format!("{p:.1e}")
    } else {
        format!("{p:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_formatting() {
        assert_eq!(fmt_prob(0.0), "0");
        assert_eq!(fmt_prob(0.0123), "0.0123");
        assert_eq!(fmt_prob(0.00002), "2.0e-5");
    }

    #[test]
    fn tables_render_aligned_columns() {
        let columns: [Column<(&str, u32)>; 2] =
            [("name", |r| r.0.to_string()), ("n", |r| r.1.to_string())];
        let text = render_table(&columns, &[("a", 12345), ("long name", 7)]);
        assert_eq!(
            text,
            "name       n\n\
             ---------  -----\n\
             a          12345\n\
             long name  7\n"
        );
    }
}
