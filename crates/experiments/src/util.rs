//! Table rendering and CSV export helpers.

use std::io::Write as _;
use std::path::Path;

/// Renders rows as a GitHub-flavored markdown table. The first row is the
/// header.
#[must_use]
pub fn markdown_table(rows: &[Vec<String>]) -> String {
    let Some(header) = rows.first() else {
        return String::new();
    };
    let cols = header.len();
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (r, row) in rows.iter().enumerate() {
        out.push('|');
        for (i, cell) in row.iter().enumerate() {
            out.push_str(&format!(" {:w$} |", cell, w = widths[i]));
        }
        out.push('\n');
        if r == 0 {
            out.push('|');
            for w in &widths {
                out.push_str(&format!("{:-<w$}|", "", w = w + 2));
            }
            out.push('\n');
        }
    }
    out
}

/// Writes rows as CSV (no quoting needed: cells are numeric or simple
/// labels).
///
/// # Errors
///
/// Returns an I/O error if the file cannot be written.
pub fn write_csv(path: impl AsRef<Path>, rows: &[Vec<String>]) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    for row in rows {
        writeln!(file, "{}", row.join(","))?;
    }
    Ok(())
}

/// Looks up a model preset by the name used in `refdata`.
///
/// # Panics
///
/// Panics on an unknown name (refdata and presets are maintained together).
#[must_use]
pub fn model_by_name(name: &str) -> optimus::model::ModelConfig {
    optimus::model::presets::by_name(name)
        .unwrap_or_else(|| panic!("unknown model preset `{name}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_renders_header_rule() {
        let rows = vec![
            vec!["a".to_owned(), "bb".to_owned()],
            vec!["1".to_owned(), "2".to_owned()],
        ];
        let md = markdown_table(&rows);
        assert!(md.contains("| a "));
        assert!(md.lines().nth(1).unwrap().starts_with("|--"));
    }

    #[test]
    fn all_refdata_models_resolve() {
        for row in optimus::refdata::table1() {
            let _ = model_by_name(row.model);
        }
        for row in optimus::refdata::table2() {
            let _ = model_by_name(row.model);
        }
    }
}
