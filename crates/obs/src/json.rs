//! Minimal JSON string/number rendering: the workspace's one string escaper
//! and float formatter.
//!
//! `hc-obs` sits at the bottom of the dependency graph, so every crate that
//! hand-rolls JSON (the measure report, the server's builders and error
//! bodies, the flight recorder) shares this contract: RFC 8259 string
//! escaping (quotes, backslash, and all control characters) and float
//! formatting that never produces invalid JSON tokens.

/// Appends `s` to `out` as a JSON string literal, including the quotes.
///
/// Control characters (U+0000..U+001F) are escaped as `\uXXXX` except for
/// the common short forms `\n`, `\r`, and `\t`.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders `s` as a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Renders an `f64` as a JSON value; non-finite values become `null`
/// (JSON has no NaN/Infinity tokens).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `format!` may print integral floats without a decimal point, which
        // is still valid JSON, so no fixup is needed.
        s
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_and_backslashes() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape(r#"a"b\c"#), r#""a\"b\\c""#);
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(escape("a\nb"), "\"a\\nb\"");
        assert_eq!(escape("a\tb"), "\"a\\tb\"");
        assert_eq!(escape("a\rb"), "\"a\\rb\"");
        assert_eq!(escape("a\u{0}b"), "\"a\\u0000b\"");
        assert_eq!(escape("a\u{1b}b"), "\"a\\u001bb\"");
        assert_eq!(escape("a\u{1f}b"), "\"a\\u001fb\"");
        assert_eq!(escape("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn passes_unicode_through() {
        assert_eq!(escape("héllo ∑"), "\"héllo ∑\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(1.5), "1.5");
    }
}
