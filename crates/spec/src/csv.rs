//! Plain-CSV serialization for labeled ETC matrices.
//!
//! Format: first row `task,<machine labels…>`; each following row
//! `<task label>,<runtime…>`, with `inf` for incompatible pairs. Hand-rolled on
//! purpose — the artifact must be readable/writable with nothing but a text
//! editor, and users with licensed SPEC data can drop their own tables in.
//!
//! Reading rules, shared by [`from_csv`] and [`cell_count`]: lines end at
//! `\n` or `\r\n`; a line of only (Unicode) whitespace is skipped; fields
//! split at `,` outside double quotes, a `"` opens or closes a quoted run
//! anywhere in a field, and `""` inside one is a literal `"`; values are
//! trimmed, names are not.

use std::borrow::Cow;
use std::fmt::Write as _;

use hc_core::ecs::Etc;
use hc_core::error::MeasureError;
use hc_linalg::Matrix;

/// Serializes an ETC matrix to CSV.
pub fn to_csv(etc: &Etc) -> String {
    let mut out = String::from("task");
    for m in etc.machine_names() {
        out.push(',');
        out.push_str(&escape(m));
    }
    out.push('\n');
    for (t, row) in etc.task_names().iter().zip(etc.matrix().row_iter()) {
        out.push_str(&escape(t));
        for &v in row {
            if v.is_infinite() {
                out.push_str(",inf");
            } else {
                let _ = write!(out, ",{v}");
            }
        }
        out.push('\n');
    }
    out
}

/// Quotes a name that holds a `,`, a `"` or a `\r`: quoted, a `\r` at the
/// end of a line is not read as half of its `\r\n`. (`Etc` refuses a name
/// holding a `\n`, which fits on no line.)
fn escape(s: &str) -> Cow<'_, str> {
    if s.contains([',', '"', '\r']) {
        Cow::Owned(format!("\"{}\"", s.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(s)
    }
}

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

/// The number of fields [`split_line`] splits `line` into, counted without
/// building them: `"` and `,` are single bytes that no other character's
/// UTF-8 contains.
fn fields_in(line: &str) -> usize {
    let mut n = 1;
    let mut in_quotes = false;
    let mut bytes = line.bytes().peekable();
    while let Some(b) = bytes.next() {
        match b {
            // `""` inside quotes is a literal `"`; any other `"` closes.
            b'"' if in_quotes => in_quotes = bytes.next_if_eq(&b'"').is_some(),
            b'"' => in_quotes = true,
            b',' if !in_quotes => n += 1,
            _ => {}
        }
    }
    n
}

/// Splits `line` into `fields`: borrowed from the line when it has no `"`,
/// through [`split_line`] when it has.
fn split_into<'a>(line: &'a str, fields: &mut Vec<Cow<'a, str>>) {
    fields.clear();
    if line.contains('"') {
        fields.extend(split_line(line).into_iter().map(Cow::Owned));
    } else {
        fields.extend(line.split(',').map(Cow::Borrowed));
    }
}

/// Reads a value field as `str::parse` reads it once trimmed. The parse
/// refuses surrounding whitespace, so a field that parses as it stands has
/// nothing to trim; the error is the trimmed field.
fn value(field: &str) -> Result<f64, &str> {
    field.parse().or_else(|_| {
        let trimmed = field.trim();
        trimmed.parse().map_err(|_| trimmed)
    })
}

/// The lines of `text` that hold something besides whitespace.
fn content_lines(text: &str) -> impl Iterator<Item = &str> + Clone {
    text.lines().filter(|l| !l.trim().is_empty())
}

/// The rows [`from_csv`] reserves for the data lines `rest` of a `len`-byte
/// body under `m` machine columns: the non-blank ones, as [`cell_count`]
/// counts them, and at most one per 2m bytes, the least a readable row
/// takes, so short lines under a wide header reserve little.
fn rows_to_reserve<'a>(rest: impl Iterator<Item = &'a str>, len: usize, m: usize) -> usize {
    rest.count().min(len / (2 * m))
}

fn invalid(reason: String) -> MeasureError {
    MeasureError::InvalidEnvironment { reason }
}

/// The error of data row `row` (1-based over non-blank lines, the header
/// being row 1) with `got` fields where the header has `want`.
fn wrong_width(row: usize, got: usize, want: usize) -> MeasureError {
    invalid(format!("CSV row {row} has {got} fields, expected {want}"))
}

/// The number of cells a CSV body declares, without reading a value: its
/// data lines times the machine columns of its header, split as
/// [`from_csv`] splits them (a `,` inside a quoted name separates nothing).
/// Exact for every body [`from_csv`] accepts.
pub fn cell_count(text: &str) -> usize {
    let mut lines = content_lines(text);
    let machines = lines.next().map_or(0, |header| fields_in(header) - 1);
    lines.count().saturating_mul(machines)
}

/// Parses an ETC matrix from CSV (the format written by [`to_csv`]).
///
/// One pass over the lines: each value is parsed from its field, borrowed
/// from `text` unless the line quotes, straight into one row-major buffer
/// that becomes the matrix, and each name is allocated once. The buffer is
/// sized up front from the non-blank lines. Errors name the first fault in
/// reading order: a data row with the wrong field count, then a value
/// that is not a number (`inf` reads as `+∞`), then whatever
/// [`Etc::with_names`] refuses.
///
/// The header and the first data row are counted before anything is
/// allocated for them, so a body that no data row fills (none at all, or a
/// first one of another width) fails after a constant number of
/// allocations, however wide its header.
pub fn from_csv(text: &str) -> Result<Etc, MeasureError> {
    hc_obs::obs_counter!("spec_csv_parses_total").inc();
    let mut lines = content_lines(text);
    let header = lines.next().ok_or_else(|| invalid("CSV is empty".into()))?;
    let width = fields_in(header);
    if width < 2 {
        return Err(invalid(
            "CSV header needs at least one machine column".into(),
        ));
    }
    let first = lines
        .clone()
        .next()
        .ok_or_else(|| invalid("CSV has no data rows".into()))?;
    let got = fields_in(first);
    if got != width {
        return Err(wrong_width(2, got, width));
    }
    let mut fields = Vec::with_capacity(width);
    split_into(header, &mut fields);
    let machine_names: Vec<String> = fields.drain(1..).map(Cow::into_owned).collect();
    let m = machine_names.len();

    let rows = rows_to_reserve(lines.clone(), text.len(), m);
    let mut task_names = Vec::with_capacity(rows);
    let mut data = Vec::with_capacity(rows * m);
    for (lineno, line) in lines.enumerate() {
        split_into(line, &mut fields);
        if fields.len() != m + 1 {
            return Err(wrong_width(lineno + 2, fields.len(), m + 1));
        }
        let mut cells = fields.drain(..);
        task_names.push(cells.next().unwrap_or_default().into_owned());
        for field in cells {
            data.push(
                value(&field).map_err(|bad| {
                    invalid(format!("CSV row {}: bad number {bad:?}", lineno + 2))
                })?,
            );
        }
    }
    let matrix = Matrix::from_vec(task_names.len(), m, data)?;
    Etc::with_names(matrix, task_names, machine_names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::cint2006;

    #[test]
    fn round_trip_cint() {
        let d = cint2006();
        let text = to_csv(&d.etc);
        let back = from_csv(&text).unwrap();
        assert_eq!(back.task_names(), d.etc.task_names());
        assert_eq!(back.machine_names(), d.etc.machine_names());
        assert!(back.matrix().max_abs_diff(d.etc.matrix()) < 1e-9);
    }

    #[test]
    fn round_trip_with_infinity() {
        let etc = Etc::with_names(
            Matrix::from_rows(&[&[1.5, f64::INFINITY], &[2.0, 3.0]]).unwrap(),
            vec!["a".into(), "b".into()],
            vec!["x".into(), "y".into()],
        )
        .unwrap();
        let back = from_csv(&to_csv(&etc)).unwrap();
        assert!(back.matrix()[(0, 1)].is_infinite());
        assert_eq!(back.matrix()[(1, 1)], 3.0);
    }

    #[test]
    fn quoted_labels() {
        let etc = Etc::with_names(
            Matrix::from_rows(&[&[1.0, 2.0]]).unwrap(),
            vec!["task, with comma".into()],
            vec!["machine \"A\"".into(), "m2".into()],
        )
        .unwrap();
        let text = to_csv(&etc);
        let back = from_csv(&text).unwrap();
        assert_eq!(back.task_names()[0], "task, with comma");
        assert_eq!(back.machine_names()[0], "machine \"A\"");
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(from_csv("").is_err());
        assert!(from_csv("task\n").is_err());
        assert!(from_csv("task,m1\n").is_err());
        assert!(from_csv("task,m1\nt1,1.0,2.0\n").is_err());
        assert!(from_csv("task,m1\nt1,abc\n").is_err());
        // Structural validity enforced (zero runtime is invalid).
        assert!(from_csv("task,m1\nt1,0.0\n").is_err());
    }

    #[test]
    fn errors_name_the_first_fault_in_reading_order() {
        let reason = |text: &str| from_csv(text).unwrap_err().to_string();
        assert_eq!(
            reason(" \n\u{a0}\n"),
            "invalid HC environment: CSV is empty"
        );
        assert_eq!(
            reason("task\n"),
            "invalid HC environment: CSV header needs at least one machine column"
        );
        assert_eq!(
            reason("task,m1\n\n"),
            "invalid HC environment: CSV has no data rows"
        );
        // The field count is checked before any value of the row, and rows
        // are numbered by non-blank line.
        assert_eq!(
            reason("task,m1\n\nt1,1\nt2,x,2\n"),
            "invalid HC environment: CSV row 3 has 3 fields, expected 2"
        );
        assert_eq!(
            reason("task,m1,m2\nt1,\u{a0}x \u{a0},y\n"),
            "invalid HC environment: CSV row 2: bad number \"x\""
        );
        // A wide header that no data row fills fails on its counts alone; a
        // quoted `,` in the first row separates nothing there either.
        let header = format!("task{}\n", ",m".repeat(100_000));
        assert_eq!(
            reason(&header),
            "invalid HC environment: CSV has no data rows"
        );
        assert_eq!(
            reason(&format!("{header}\"t,1\",2\n")),
            "invalid HC environment: CSV row 2 has 2 fields, expected 100001"
        );
        assert_eq!(
            reason("task,\"m1,m2\"\n\nt1,1,2\n"),
            "invalid HC environment: CSV row 2 has 3 fields, expected 2"
        );
    }

    #[test]
    fn values_are_trimmed_and_inf_reads_in_any_case() {
        let etc = from_csv("task,m1,m2\r\nt1,\u{a0}2.5 ,INF\r\n t2 ,+inf,\t1e1\n").unwrap();
        assert_eq!(etc.task_names(), ["t1", " t2 "]);
        assert_eq!(etc.matrix()[(0, 0)], 2.5);
        assert!(etc.matrix()[(0, 1)].is_infinite() && etc.matrix()[(1, 0)].is_infinite());
        assert_eq!(etc.matrix()[(1, 1)], 10.0);
    }

    #[test]
    fn blank_lines_skipped() {
        let back = from_csv("task,m1,m2\n\nt1,1.0,2.0\n\n").unwrap();
        assert_eq!(back.num_tasks(), 1);
        assert_eq!(back.num_machines(), 2);
    }

    #[test]
    fn blank_lines_reserve_nothing() {
        let body = format!("task,m1\n{}t1,1\n", "\n".repeat(1 << 16));
        let mut lines = content_lines(&body);
        lines.next();
        assert_eq!(rows_to_reserve(lines, body.len(), 1), 1);
        assert_eq!(from_csv(&body).unwrap().num_tasks(), 1);
        // Short lines under a wide header reserve one row per 2m bytes.
        let body = format!("task{}\n{}", ",m".repeat(64), "t\n".repeat(256));
        let mut lines = content_lines(&body);
        lines.next();
        assert_eq!(rows_to_reserve(lines, body.len(), 64), body.len() / 128);
    }

    #[test]
    fn cell_count_splits_the_header_like_the_reader() {
        assert_eq!(cell_count("task,m1,m2\nt1,2.0,8.0\nt2,6.0,3.0\n"), 4);
        assert_eq!(cell_count(""), 0);
        assert_eq!(cell_count("task,\"a,b\",c\n\nt1,1,2\n"), 2);
        assert_eq!(cell_count("task,\"a\"\"b\",c\nt1,1,2\n"), 2);
        // An unclosed quote runs to the end of the line.
        assert_eq!(cell_count("task,\"a,b\nt1,1\n"), 1);
    }
}
