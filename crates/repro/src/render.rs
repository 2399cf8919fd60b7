//! Plain-text table and CDF rendering.

/// Renders an aligned text table. `rows` includes the header row.
///
/// # Panics
///
/// Panics if rows have inconsistent widths.
pub fn table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows[0].len();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row: {row:?}");
    }
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        for (j, cell) in row.iter().enumerate() {
            if j > 0 {
                out.push_str("  ");
            }
            out.push_str(cell);
            for _ in cell.len()..widths[j] {
                out.push(' ');
            }
        }
        out.push('\n');
        if i == 0 {
            for (j, w) in widths.iter().enumerate() {
                if j > 0 {
                    out.push_str("  ");
                }
                out.push_str(&"-".repeat(*w));
            }
            out.push('\n');
        }
    }
    out
}

/// Renders an ECDF as quantile rows (p0, p10 … p100).
pub fn cdf_quantiles(label: &str, cdf: &pai_core::Ecdf) -> Vec<String> {
    let mut row = vec![label.to_string()];
    for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
        row.push(format!("{:.3}", cdf.quantile(q)));
    }
    row
}

/// The ECDF of `values`, or `None` for a series with no samples (a
/// class a small population does not contain).
pub fn ecdf<I: IntoIterator<Item = f64>>(values: I) -> Option<pai_core::Ecdf> {
    let values: Vec<f64> = values.into_iter().collect();
    (!values.is_empty()).then(|| pai_core::Ecdf::from_values(values))
}

/// [`cdf_quantiles`] for a series that may be empty: an empty one
/// renders as a row of `-` marks.
pub fn cdf_row(label: &str, cdf: Option<&pai_core::Ecdf>) -> Vec<String> {
    match cdf {
        Some(cdf) => cdf_quantiles(label, cdf),
        None => no_data_row(label, cdf_header("").len()),
    }
}

/// A `cells`-wide row that marks `label` as having no data.
pub fn no_data_row(label: &str, cells: usize) -> Vec<String> {
    std::iter::once(label.to_string())
        .chain(std::iter::repeat_n("-".to_string(), cells - 1))
        .collect()
}

/// Header matching [`cdf_quantiles`].
pub fn cdf_header(first: &str) -> Vec<String> {
    let mut row = vec![first.to_string()];
    for q in ["p0", "p10", "p25", "p50", "p75", "p90", "p100"] {
        row.push(q.to_string());
    }
    row
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats seconds as milliseconds.
pub fn ms(t: pai_hw::Seconds) -> String {
    format!("{:.2} ms", t.as_millis())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_core::Ecdf;

    #[test]
    fn table_aligns_columns() {
        let t = table(&[
            vec!["name".into(), "value".into()],
            vec!["x".into(), "1".into()],
            vec!["longer".into(), "22".into()],
        ]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("----"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    #[should_panic(expected = "ragged table")]
    fn table_rejects_ragged_rows() {
        let _ = table(&[vec!["a".into()], vec!["b".into(), "c".into()]]);
    }

    #[test]
    fn cdf_rows_match_header_width() {
        let cdf = Ecdf::from_values([1.0, 2.0, 3.0]);
        assert_eq!(cdf_header("x").len(), cdf_quantiles("x", &cdf).len());
    }

    #[test]
    fn empty_series_render_as_marked_rows() {
        assert!(ecdf(std::iter::empty()).is_none());
        let row = cdf_row("x", None);
        assert_eq!(row.len(), cdf_header("x").len());
        assert!(row[1..].iter().all(|cell| cell == "-"));
        let cdf = ecdf([1.0, 2.0]);
        assert_eq!(cdf_row("x", cdf.as_ref())[1], "1.000");
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.226), "22.6%");
        assert_eq!(ms(pai_hw::Seconds::from_millis(10.0)), "10.00 ms");
    }

    #[test]
    fn empty_table_is_empty() {
        assert!(table(&[]).is_empty());
    }
}
