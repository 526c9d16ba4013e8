//! The workspace's one JSON writer. [`Object`] and [`Array`] scopes append
//! compact JSON straight to a caller's `String`: keys and strings are escaped
//! per RFC 8259, non-finite floats are written as `null` (JSON has no NaN or
//! Infinity), and a scope closes its bracket when dropped, so a nested
//! document is written in place by opening a child scope.

use std::fmt::Write;

/// Renders one object into a new `String`.
pub fn object(write: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::new();
    write(&mut Object::new(&mut out));
    out
}

/// An open JSON object; writes `}` when dropped.
#[derive(Debug)]
pub struct Object<'a>(&'a mut String);

/// An open JSON array; writes `]` when dropped.
#[derive(Debug)]
pub struct Array<'a>(&'a mut String);

/// Starts the next member or element of the scope open at the end of `out`:
/// a comma, unless the scope's bracket is the last byte written.
fn next(out: &mut String) -> &mut String {
    if !out.ends_with(['{', '[']) {
        out.push(',');
    }
    out
}

impl<'a> Object<'a> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        Self(out)
    }

    fn key(&mut self, key: &str) -> &mut String {
        let out = next(self.0);
        escape_into(out, key);
        out.push(':');
        out
    }

    /// Writes a string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        escape_into(self.key(key), value);
        self
    }

    /// Writes a float member in shortest round-trip form.
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        write_f64(self.key(key), value, false);
        self
    }

    /// Writes a float member in exponent form (`1.5e-3`).
    pub fn f64_exp(&mut self, key: &str, value: f64) -> &mut Self {
        write_f64(self.key(key), value, true);
        self
    }

    /// Writes an unsigned integer member.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Writes a signed integer member.
    pub fn i64(&mut self, key: &str, value: i64) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Writes a boolean member.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Writes a `null` member.
    pub fn null(&mut self, key: &str) -> &mut Self {
        self.key(key).push_str("null");
        self
    }

    /// Opens an object member.
    pub fn object(&mut self, key: &str) -> Object<'_> {
        Object::new(self.key(key))
    }

    /// Opens an array member.
    pub fn array(&mut self, key: &str) -> Array<'_> {
        let out = self.key(key);
        out.push('[');
        Array(out)
    }
}

impl Array<'_> {
    /// Appends a float in shortest round-trip form.
    pub fn f64(&mut self, value: f64) -> &mut Self {
        write_f64(next(self.0), value, false);
        self
    }

    /// Appends an unsigned integer.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        let _ = write!(next(self.0), "{value}");
        self
    }

    /// Appends `null`.
    pub fn null(&mut self) -> &mut Self {
        next(self.0).push_str("null");
        self
    }

    /// Appends a value this writer rendered earlier into a `String` of its
    /// own, such as a `/batch` item measured on another worker.
    pub fn rendered(&mut self, json: &str) -> &mut Self {
        next(self.0).push_str(json);
        self
    }

    /// Opens an object element.
    pub fn object(&mut self) -> Object<'_> {
        Object::new(next(self.0))
    }
}

impl Drop for Object<'_> {
    fn drop(&mut self) {
        self.0.push('}');
    }
}

impl Drop for Array<'_> {
    fn drop(&mut self) {
        self.0.push(']');
    }
}

fn write_f64(out: &mut String, v: f64, exp: bool) {
    let _ = match (v.is_finite(), exp) {
        (false, _) => write!(out, "null"),
        (true, false) => write!(out, "{v}"),
        (true, true) => write!(out, "{v:e}"),
    };
}

/// Appends `s` as a JSON string literal, quotes included. Control characters
/// are escaped as `\uXXXX` except for the short forms `\n`, `\r` and `\t`.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        clean = i + 1;
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escape(s: &str) -> String {
        let mut out = String::new();
        escape_into(&mut out, s);
        out
    }

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
        assert_eq!(escape("∑\"∑"), "\"∑\\\"∑\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let doc = object(|o| {
            o.f64("nan", f64::NAN)
                .f64("inf", f64::INFINITY)
                .f64_exp("exp", f64::NEG_INFINITY)
                .f64("x", 1.5)
                .f64_exp("e", 1.5e-3);
        });
        assert_eq!(
            doc,
            "{\"nan\":null,\"inf\":null,\"exp\":null,\"x\":1.5,\"e\":1.5e-3}"
        );
    }

    #[test]
    fn scopes_nest_in_place_and_escape_keys() {
        let mut out = String::from("prefix ");
        {
            let mut o = Object::new(&mut out);
            o.str("a\"b", "v")
                .u64("n", 7)
                .i64("m", -2)
                .bool("ok", false);
            o.null("none");
            o.object("empty");
            let mut arr = o.array("items");
            arr.u64(1).null().f64(0.5).rendered("{\"pre\":1}");
            arr.object().bool("in", true);
            arr.u64(2);
        }
        assert_eq!(
            out,
            "prefix {\"a\\\"b\":\"v\",\"n\":7,\"m\":-2,\"ok\":false,\"none\":null,\
             \"empty\":{},\"items\":[1,null,0.5,{\"pre\":1},{\"in\":true},2]}"
        );
        assert_eq!(object(|_| {}), "{}");
    }
}
