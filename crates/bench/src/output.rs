//! Table printing and JSON persistence.

use serde::Serialize;
use std::fs;
use std::path::PathBuf;

/// Print an aligned table: a header row then data rows.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{:<w$}", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
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
    fn tables_do_not_panic() {
        print_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    #[should_panic]
    fn ragged_rows_panic() {
        print_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }
}
