//! Minimal hand-rolled JSON emission.
//!
//! The server keeps the workspace's zero-registry-dependency constraint, so
//! instead of a serialization framework this module provides two append-only
//! builders. They emit compact (no-whitespace) JSON; string escaping and
//! float formatting are [`hc_obs::json`]'s.

/// The one measure-document renderer shared by `POST /measure`, every
/// `/batch` item, and the `measures` object in session responses. All three
/// surfaces must stay byte-for-byte identical (goldened in the session tests)
/// so clients can parse one shape everywhere.
pub fn measure_body(
    report: &hc_core::report::MeasureReport,
    task_names: &[String],
    machine_names: &[String],
) -> String {
    report.to_json(task_names, machine_names)
}

/// Builder for a JSON object: `{"k":v,...}`.
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        hc_obs::json::escape_into(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Adds a field whose value is already-rendered JSON.
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.buf.push_str(value);
        self
    }

    /// Adds a string field (escaped).
    pub fn str(self, key: &str, value: &str) -> Self {
        self.raw(key, &hc_obs::json::escape(value))
    }

    /// Adds a numeric field; non-finite values render as `null`.
    pub fn num(self, key: &str, value: f64) -> Self {
        self.raw(key, &hc_obs::json::fmt_f64(value))
    }

    /// Adds an unsigned integer field.
    pub fn u64(self, key: &str, value: u64) -> Self {
        let v = format!("{value}");
        self.raw(key, &v)
    }

    /// Adds a signed integer field.
    pub fn i64(self, key: &str, value: i64) -> Self {
        let v = format!("{value}");
        self.raw(key, &v)
    }

    /// Adds a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

/// Builder for a JSON array: `[v,...]`.
#[derive(Debug)]
pub struct JsonArray {
    buf: String,
    first: bool,
}

impl JsonArray {
    /// Starts an empty array.
    pub fn new() -> Self {
        Self {
            buf: String::from("["),
            first: true,
        }
    }

    /// Appends an already-rendered JSON value.
    pub fn push_raw(&mut self, value: &str) -> &mut Self {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push_str(value);
        self
    }

    /// Closes the array and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push(']');
        self.buf
    }
}

impl Default for JsonArray {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_builder() {
        let j = JsonObject::new()
            .str("name", "a\"b")
            .num("x", 1.5)
            .num("bad", f64::NAN)
            .u64("n", 7)
            .bool("ok", true)
            .raw("arr", "[1,2]")
            .finish();
        assert_eq!(
            j,
            "{\"name\":\"a\\\"b\",\"x\":1.5,\"bad\":null,\"n\":7,\"ok\":true,\"arr\":[1,2]}"
        );
    }

    #[test]
    fn empty_object_and_array() {
        assert_eq!(JsonObject::new().finish(), "{}");
        assert_eq!(JsonArray::new().finish(), "[]");
    }

    #[test]
    fn array_builder() {
        let mut a = JsonArray::new();
        a.push_raw("1").push_raw("\"two\"");
        assert_eq!(a.finish(), "[1,\"two\"]");
    }
}
