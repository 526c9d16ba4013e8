//! Global sink management and record rendering.
//!
//! Tracing is off by default: [`sink_installed`] is a single relaxed atomic
//! load, which is all an un-instrumented process ever pays per span. When one
//! or more sinks are installed, every span/event is rendered once per output
//! format and fanned out under a single short-lived lock.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json;

/// Severity / verbosity level for events and the global filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or data-loss conditions.
    Error = 0,
    /// Degraded behaviour worth flagging (e.g. slow requests).
    Warn = 1,
    /// Normal operational milestones; spans emit at this level.
    Info = 2,
    /// High-volume diagnostic detail.
    Debug = 3,
    /// Maximum verbosity.
    Trace = 4,
}

impl Level {
    /// Lower-case name, as rendered in JSON lines and the console format.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            3 => Level::Debug,
            _ => Level::Trace,
        }
    }
}

impl std::str::FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Level, String> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            other => Err(format!(
                "unknown log level {other:?} (expected error|warn|info|debug|trace)"
            )),
        }
    }
}

/// A typed field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float; non-finite values render as JSON `null`.
    F64(f64),
    /// Owned string, escaped on render.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl FieldValue {
    /// Writes the value as member `key` of `o`.
    pub(crate) fn write_json(&self, o: &mut json::Object<'_>, key: &str) {
        match self {
            FieldValue::U64(v) => o.u64(key, *v),
            FieldValue::I64(v) => o.i64(key, *v),
            FieldValue::F64(v) => o.f64(key, *v),
            FieldValue::Str(v) => o.str(key, v),
            FieldValue::Bool(v) => o.bool(key, *v),
        };
    }

    fn render_human(&self) -> String {
        match self {
            FieldValue::U64(v) => v.to_string(),
            FieldValue::I64(v) => v.to_string(),
            FieldValue::F64(v) => format!("{v:.6e}"),
            FieldValue::Str(v) => v.clone(),
            FieldValue::Bool(v) => v.to_string(),
        }
    }
}

/// Whether a record is a completed span or a point-in-time event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A scoped timer that just ended; `dur_us` is set.
    Span,
    /// An instantaneous structured log line.
    Event,
}

impl RecordKind {
    /// Lower-case name, as rendered in JSON.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            RecordKind::Span => "span",
            RecordKind::Event => "event",
        }
    }
}

/// A fully-described trace record, borrowed from the emitting span/event.
pub struct Record<'a> {
    /// Span or event.
    pub kind: RecordKind,
    /// Severity (spans always emit at [`Level::Info`]).
    pub level: Level,
    /// Static name, dot-namespaced by crate (`"sinkhorn.balance"`).
    pub name: &'static str,
    /// Name of the enclosing span on this thread, if any.
    pub parent: Option<&'static str>,
    /// Nesting depth on this thread (0 = top level).
    pub depth: usize,
    /// Elapsed monotonic time in microseconds (spans only).
    pub dur_us: Option<u64>,
    /// Structured fields in insertion order.
    pub fields: &'a [(&'static str, FieldValue)],
}

/// An owned copy of an emitted record, as captured by [`install_capture_sink`].
#[derive(Debug, Clone)]
pub struct Captured {
    /// Span or event.
    pub kind: RecordKind,
    /// Severity.
    pub level: Level,
    /// Record name.
    pub name: String,
    /// Enclosing span name, if any.
    pub parent: Option<String>,
    /// Nesting depth on the emitting thread.
    pub depth: usize,
    /// Duration in microseconds (spans only).
    pub dur_us: Option<u64>,
    /// Owned copies of the structured fields.
    pub fields: Vec<(&'static str, FieldValue)>,
    /// The exact JSON line a file sink would have written (no trailing newline).
    pub json_line: String,
}

/// Handle returned by [`install_capture_sink`]; reads back captured records.
#[derive(Clone)]
pub struct CaptureHandle(Arc<Mutex<Vec<Captured>>>);

impl CaptureHandle {
    /// Snapshot of everything captured so far.
    pub fn records(&self) -> Vec<Captured> {
        self.0.lock().unwrap().clone()
    }
}

enum SinkImpl {
    JsonLines(File),
    Trace,
    Capture(Arc<Mutex<Vec<Captured>>>),
}

static INSTALLED: AtomicBool = AtomicBool::new(false);
static LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

fn sinks() -> &'static Mutex<Vec<SinkImpl>> {
    static SINKS: OnceLock<Mutex<Vec<SinkImpl>>> = OnceLock::new();
    SINKS.get_or_init(|| Mutex::new(Vec::new()))
}

/// True if at least one sink is installed. One relaxed atomic load: this is
/// the disabled-path cost of every span in the workspace.
#[inline]
pub fn sink_installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// True if a record at `level` would currently be emitted.
#[inline]
pub fn enabled(level: Level) -> bool {
    sink_installed() && level as u8 <= LEVEL.load(Ordering::Relaxed)
}

/// Sets the global level filter (default [`Level::Info`]).
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Current global level filter.
pub fn level() -> Level {
    Level::from_u8(LEVEL.load(Ordering::Relaxed))
}

fn push_sink(s: SinkImpl) {
    sinks().lock().unwrap().push(s);
    INSTALLED.store(true, Ordering::Relaxed);
}

/// Installs a JSON-lines sink writing to `path` (created or truncated).
/// Each record is written and flushed as one line, so the file is valid
/// JSON-lines even if the process is killed.
pub fn install_json_sink<P: AsRef<Path>>(path: P) -> io::Result<()> {
    let file = File::create(path)?;
    push_sink(SinkImpl::JsonLines(file));
    Ok(())
}

/// Installs the human-readable console sink (stderr), used by `--trace`.
pub fn install_trace_sink() {
    push_sink(SinkImpl::Trace);
}

/// Installs an in-memory capture sink and returns a handle to read it back.
/// Intended for tests and for asserting emission end-to-end.
pub fn install_capture_sink() -> CaptureHandle {
    let buf = Arc::new(Mutex::new(Vec::new()));
    push_sink(SinkImpl::Capture(buf.clone()));
    CaptureHandle(buf)
}

/// Removes every installed sink and resets the level filter to the default.
/// Tracing returns to its zero-cost disabled state.
pub fn uninstall_all_sinks() {
    let mut guard = sinks().lock().unwrap();
    guard.clear();
    INSTALLED.store(false, Ordering::Relaxed);
    LEVEL.store(Level::Info as u8, Ordering::Relaxed);
}

/// Renders one `--log-json` line for `record`, stamped `ts_us` (µs since the
/// Unix epoch) on the thread named `thread`.
fn render_json(record: &Record<'_>, ts_us: u64, thread: Option<&str>) -> String {
    json::object(|o| {
        o.u64("ts_us", ts_us)
            .str("kind", record.kind.as_str())
            .str("level", record.level.as_str())
            .str("name", record.name);
        if let Some(name) = thread {
            o.str("thread", name);
        }
        if record.depth > 0 {
            o.u64("depth", record.depth as u64);
        }
        if let Some(parent) = record.parent {
            o.str("parent", parent);
        }
        if let Some(dur) = record.dur_us {
            o.u64("dur_us", dur);
        }
        if !record.fields.is_empty() {
            let mut fields = o.object("fields");
            for (k, v) in record.fields {
                v.write_json(&mut fields, k);
            }
        }
    })
}

fn render_human(record: &Record<'_>) -> String {
    let mut out = String::with_capacity(96);
    out.push('[');
    out.push_str(record.level.as_str());
    out.push_str("] ");
    for _ in 0..record.depth {
        out.push_str("  ");
    }
    out.push_str(record.name);
    for (k, v) in record.fields {
        out.push(' ');
        out.push_str(k);
        out.push('=');
        out.push_str(&v.render_human());
    }
    if let Some(dur) = record.dur_us {
        if dur >= 10_000 {
            out.push_str(&format!(" ({:.1}ms)", dur as f64 / 1000.0));
        } else {
            out.push_str(&format!(" ({dur}\u{00b5}s)"));
        }
    }
    out
}

/// Renders `record` once per needed format and fans it out to every sink.
/// Callers should gate on [`enabled`] first; this re-checks cheaply.
pub fn emit(record: &Record<'_>) {
    if !enabled(record.level) {
        return;
    }
    let mut guard = sinks().lock().unwrap();
    if guard.is_empty() {
        return;
    }
    let needs_json = guard.iter().any(|s| !matches!(s, SinkImpl::Trace));
    let json_line = if needs_json {
        let ts_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        render_json(record, ts_us, std::thread::current().name())
    } else {
        String::new()
    };
    for sink in guard.iter_mut() {
        match sink {
            SinkImpl::JsonLines(file) => {
                // Ignore I/O errors: observability must never take down the
                // instrumented process.
                let _ = writeln!(file, "{json_line}");
                let _ = file.flush();
            }
            SinkImpl::Trace => {
                eprintln!("{}", render_human(record));
            }
            SinkImpl::Capture(buf) => {
                buf.lock().unwrap().push(Captured {
                    kind: record.kind,
                    level: record.level,
                    name: record.name.to_string(),
                    parent: record.parent.map(str::to_string),
                    depth: record.depth,
                    dur_us: record.dur_us,
                    fields: record.fields.to_vec(),
                    json_line: json_line.clone(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_are_pinned() {
        let fields = [
            ("tasks", FieldValue::U64(17)),
            ("delta", FieldValue::I64(-3)),
            ("tma", FieldValue::F64(0.07)),
            ("residual", FieldValue::F64(f64::NAN)),
            ("path", FieldValue::Str("/a\"b\n".to_string())),
            ("hit", FieldValue::Bool(true)),
        ];
        let span = Record {
            kind: RecordKind::Span,
            level: Level::Info,
            name: "core.characterize",
            parent: Some("serve.request"),
            depth: 2,
            dur_us: Some(1234),
            fields: &fields,
        };
        assert_eq!(
            render_json(&span, 1_700_000_000_123_456, Some("hc-serve-worker-0")),
            "{\"ts_us\":1700000000123456,\"kind\":\"span\",\"level\":\"info\",\
             \"name\":\"core.characterize\",\"thread\":\"hc-serve-worker-0\",\"depth\":2,\
             \"parent\":\"serve.request\",\"dur_us\":1234,\"fields\":{\"tasks\":17,\
             \"delta\":-3,\"tma\":0.07,\"residual\":null,\"path\":\"/a\\\"b\\n\",\
             \"hit\":true}}"
        );
        let event = Record {
            kind: RecordKind::Event,
            level: Level::Warn,
            name: "serve.slow_request",
            parent: None,
            depth: 0,
            dur_us: None,
            fields: &[],
        };
        assert_eq!(
            render_json(&event, 0, None),
            "{\"ts_us\":0,\"kind\":\"event\",\"level\":\"warn\",\
             \"name\":\"serve.slow_request\"}"
        );
    }
}
