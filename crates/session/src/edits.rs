//! The line-oriented edit language accepted by `PATCH /session/{id}/etc`.
//!
//! The server has no JSON parser (the whole stack is registry-free), so edits
//! use the same CSV-flavoured plain text as the rest of the wire surface. One
//! edit per line, comma-separated, `#` comments and blank lines ignored:
//!
//! ```text
//! cell,<task>,<machine>,<value>     # one entry
//! row,<task>,v1,v2,...,vM           # a whole task row (M values)
//! col,<machine>,v1,v2,...,vT        # a whole machine column (T values)
//! ```
//!
//! `<task>`/`<machine>` resolve against the session's registered names first
//! (`t3`, `gpu-a`, ...), falling back to a 1-based index when the token is a
//! plain integer. Values are in the units the session was registered with:
//! ETC seconds by default (converted reciprocally, `inf` → "cannot run"), raw
//! ECS when the session was created with `?ecs=1`.

use std::fmt;

/// One parsed, index-resolved edit in *registered* units.
#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    /// Replace a single entry.
    Cell {
        task: usize,
        machine: usize,
        value: f64,
    },
    /// Replace a whole task row.
    Row { task: usize, values: Vec<f64> },
    /// Replace a whole machine column.
    Col { machine: usize, values: Vec<f64> },
}

impl Edit {
    /// Number of entries this edit touches.
    pub fn cells(&self) -> usize {
        match self {
            Edit::Cell { .. } => 1,
            Edit::Row { values, .. } | Edit::Col { values, .. } => values.len(),
        }
    }
}

/// A parse failure, pointing at the offending 1-based line.
#[derive(Debug, Clone, PartialEq)]
pub struct EditParseError {
    pub line: usize,
    pub reason: String,
}

impl fmt::Display for EditParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "edit line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for EditParseError {}

fn err(line: usize, reason: impl Into<String>) -> EditParseError {
    EditParseError {
        line,
        reason: reason.into(),
    }
}

/// Resolves a task/machine token: exact name match first, then a 1-based
/// index for plain integers.
fn resolve(
    token: &str,
    names: &[String],
    what: &str,
    line: usize,
) -> Result<usize, EditParseError> {
    if let Some(idx) = names.iter().position(|n| n == token) {
        return Ok(idx);
    }
    if let Ok(one_based) = token.parse::<usize>() {
        if one_based >= 1 && one_based <= names.len() {
            return Ok(one_based - 1);
        }
        return Err(err(
            line,
            format!("{what} index {one_based} out of range 1..={}", names.len()),
        ));
    }
    Err(err(line, format!("unknown {what} {token:?}")))
}

fn parse_value(token: &str, line: usize) -> Result<f64, EditParseError> {
    let v: f64 = token
        .trim()
        .parse()
        .map_err(|_| err(line, format!("bad numeric value {token:?}")))?;
    if v.is_nan() {
        return Err(err(line, "NaN is not a valid entry"));
    }
    Ok(v)
}

fn parse_values(
    tokens: &[&str],
    expected: usize,
    what: &str,
    line: usize,
) -> Result<Vec<f64>, EditParseError> {
    if tokens.len() != expected {
        return Err(err(
            line,
            format!("{what} edit needs {expected} values, got {}", tokens.len()),
        ));
    }
    tokens.iter().map(|t| parse_value(t, line)).collect()
}

/// Parses an edit document against the session's registered names.
pub fn parse_edits(
    text: &str,
    task_names: &[String],
    machine_names: &[String],
) -> Result<Vec<Edit>, EditParseError> {
    let mut edits = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
        match fields[0] {
            "cell" => {
                if fields.len() != 4 {
                    return Err(err(line, "cell edit needs: cell,<task>,<machine>,<value>"));
                }
                let task = resolve(fields[1], task_names, "task", line)?;
                let machine = resolve(fields[2], machine_names, "machine", line)?;
                let value = parse_value(fields[3], line)?;
                edits.push(Edit::Cell {
                    task,
                    machine,
                    value,
                });
            }
            "row" => {
                if fields.len() < 2 {
                    return Err(err(line, "row edit needs: row,<task>,v1,...,vM"));
                }
                let task = resolve(fields[1], task_names, "task", line)?;
                let values = parse_values(&fields[2..], machine_names.len(), "row", line)?;
                edits.push(Edit::Row { task, values });
            }
            "col" => {
                if fields.len() < 2 {
                    return Err(err(line, "col edit needs: col,<machine>,v1,...,vT"));
                }
                let machine = resolve(fields[1], machine_names, "machine", line)?;
                let values = parse_values(&fields[2..], task_names.len(), "col", line)?;
                edits.push(Edit::Col { machine, values });
            }
            op => return Err(err(line, format!("unknown edit op {op:?} (cell|row|col)"))),
        }
    }
    if edits.is_empty() {
        return Err(err(0, "edit body contains no edits"));
    }
    Ok(edits)
}

/// Converts one registered-units value to ECS space. ETC is reciprocal speed:
/// `+inf` seconds means "cannot run" (ECS 0), and 0 seconds is rejected
/// upstream by [`hc_core::ecs::Ecs::set`] validation via the resulting `inf`.
/// A negative time maps to a negative speed, which that validation refuses;
/// `-inf` stays `-inf`, because `1 / -inf` is `-0`, which it would accept.
pub fn to_ecs_value(value: f64, etc_units: bool) -> f64 {
    if !etc_units || value == f64::NEG_INFINITY {
        value
    } else if value == f64::INFINITY {
        0.0
    } else if value == 0.0 {
        f64::INFINITY
    } else {
        1.0 / value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(prefix: &str, n: usize) -> Vec<String> {
        (1..=n).map(|i| format!("{prefix}{i}")).collect()
    }

    #[test]
    fn parses_cell_row_col_with_names_and_indices() {
        let t = names("t", 3);
        let m = names("m", 2);
        let doc = "# comment\n\ncell,t1,m2,4.5\nrow,2,1.0,2.0\ncol,m1,9,8,7\n";
        let edits = parse_edits(doc, &t, &m).unwrap();
        assert_eq!(
            edits,
            vec![
                Edit::Cell {
                    task: 0,
                    machine: 1,
                    value: 4.5
                },
                Edit::Row {
                    task: 1,
                    values: vec![1.0, 2.0]
                },
                Edit::Col {
                    machine: 0,
                    values: vec![9.0, 8.0, 7.0]
                },
            ]
        );
        assert_eq!(edits.iter().map(Edit::cells).sum::<usize>(), 6);
    }

    #[test]
    fn rejects_bad_lines_with_line_numbers() {
        let t = names("t", 2);
        let m = names("m", 2);
        for (doc, needle, line) in [
            ("cell,t1,m1", "cell edit needs", 1),
            ("\nrow,t9,1,2", "unknown task", 2),
            ("row,3,1,2", "out of range", 1),
            ("row,t1,1", "needs 2 values", 1),
            ("cell,t1,m1,abc", "bad numeric", 1),
            ("cell,t1,m1,nan", "NaN", 1),
            ("swap,t1,m1,1", "unknown edit op", 1),
            ("# only comments\n", "no edits", 0),
        ] {
            let e = parse_edits(doc, &t, &m).unwrap_err();
            assert!(e.reason.contains(needle), "{doc:?} -> {e}");
            assert_eq!(e.line, line, "{doc:?}");
        }
    }

    #[test]
    fn etc_conversion_is_reciprocal_with_inf_as_zero() {
        assert_eq!(to_ecs_value(4.0, true), 0.25);
        assert_eq!(to_ecs_value(f64::INFINITY, true), 0.0);
        assert_eq!(to_ecs_value(0.0, true), f64::INFINITY);
        assert_eq!(to_ecs_value(4.0, false), 4.0);
    }

    #[test]
    fn negative_etc_times_map_to_negative_speeds() {
        assert_eq!(to_ecs_value(-4.0, true), -0.25);
        assert_eq!(to_ecs_value(f64::NEG_INFINITY, true), f64::NEG_INFINITY);
    }
}
