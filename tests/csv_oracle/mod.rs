//! The CSV reader as it was before it parsed in one pass, kept as the
//! differential oracle of `hc_spec::csv::from_csv`: every line is split into
//! owned fields by [`split_line`], every row into its own `Vec`, and the
//! matrix is copied out of the rows. It defines the reader's contract: the
//! same names and matrix bits, or the same error text, on every input.

use hetero_measures::core::ecs::Etc;
use hetero_measures::core::error::MeasureError;
use hetero_measures::linalg::Matrix;

/// Splits one CSV line honoring double-quoted fields.
fn split_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

/// Parses an ETC matrix from CSV, field by field.
pub fn from_csv(text: &str) -> Result<Etc, MeasureError> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines
        .next()
        .ok_or_else(|| MeasureError::InvalidEnvironment {
            reason: "CSV is empty".into(),
        })?;
    let head_fields = split_line(header);
    if head_fields.len() < 2 {
        return Err(MeasureError::InvalidEnvironment {
            reason: "CSV header needs at least one machine column".into(),
        });
    }
    let machine_names: Vec<String> = head_fields[1..].to_vec();
    let mut task_names = Vec::new();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for (lineno, line) in lines.enumerate() {
        let fields = split_line(line);
        if fields.len() != machine_names.len() + 1 {
            return Err(MeasureError::InvalidEnvironment {
                reason: format!(
                    "CSV row {} has {} fields, expected {}",
                    lineno + 2,
                    fields.len(),
                    machine_names.len() + 1
                ),
            });
        }
        task_names.push(fields[0].clone());
        let mut row = Vec::with_capacity(machine_names.len());
        for f in &fields[1..] {
            let v = match f.trim() {
                "inf" | "Inf" | "INF" | "+inf" => f64::INFINITY,
                other => other
                    .parse::<f64>()
                    .map_err(|_| MeasureError::InvalidEnvironment {
                        reason: format!("CSV row {}: bad number {other:?}", lineno + 2),
                    })?,
            };
            row.push(v);
        }
        rows.push(row);
    }
    if rows.is_empty() {
        return Err(MeasureError::InvalidEnvironment {
            reason: "CSV has no data rows".into(),
        });
    }
    let t = rows.len();
    let m = machine_names.len();
    let matrix = Matrix::from_fn(t, m, |i, j| rows[i][j]);
    Etc::with_names(matrix, task_names, machine_names)
}
