//! Scoped trace spans with thread-local nesting, and point-in-time events.
//!
//! A span is opened with [`span`], annotated with `field_*` calls, and
//! emitted when the guard drops — measuring wall time with the monotonic
//! clock. Each thread keeps its own stack of open span names, so parent and
//! depth are tracked without any cross-thread synchronization.
//!
//! When no sink is installed, no flight record is active on the thread and
//! the profiler is stopped, [`span`] returns a disarmed guard without
//! touching the thread-local stack or reading the clock: the total cost is
//! two relaxed atomic loads (sink level + profiler gate) plus one
//! thread-local flag read, which is what
//! keeps always-on instrumentation in the numeric hot paths affordable (see
//! DESIGN.md §8, §11, and §13 for budgets).
//!
//! Every span — armed or not — additionally mirrors itself onto the
//! continuous profiler's per-thread frame stack while the profiler runs
//! (see [`crate::profile`]). That path reads the clock once per open and
//! once per close, the same reads an armed span times itself with, and does
//! a seqlock'd pair of atomic stores; when the change crosses one of the
//! profiler's ticks it also credits the samples since the thread's last
//! change to the stack it held. It never waits on a query.
//!
//! Armed spans fan out twice on drop: to the installed sinks (if any) and to
//! the current thread's active flight record (if any) — so the recorder
//! captures full span trees even in processes that log nothing.

use std::cell::RefCell;
use std::time::Instant;

use crate::recorder;
use crate::sink::{self, Level, Record, RecordKind};

pub use crate::sink::FieldValue;

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for an open span; emits a [`RecordKind::Span`] record on drop.
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    depth: usize,
    parent: Option<&'static str>,
    fields: Vec<(&'static str, FieldValue)>,
    armed: bool,
    /// True when this span was pushed onto the continuous profiler's frame
    /// stack and owes a pop on drop (kept separate from `armed` so the
    /// profiler can run with no sink installed, and so an enable/disable
    /// race mid-span never unbalances the frame stack).
    profiled: bool,
}

/// Opens a span named `name` on the current thread.
///
/// If no sink is installed, no flight record is active and the profiler is
/// stopped (the common case), this is a no-op guard: no allocation, no clock
/// read, no span-stack access. While the continuous profiler runs, the span
/// is also mirrored onto the per-thread profile frame stack regardless of
/// arming.
pub fn span(name: &'static str) -> SpanGuard {
    let pushed = crate::profile::frame_push(name);
    let profiled = pushed.is_some();
    if !sink::enabled(Level::Info) && !recorder::recording() {
        return SpanGuard {
            name,
            start: None,
            depth: 0,
            parent: None,
            fields: Vec::new(),
            armed: false,
            profiled,
        };
    }
    let (depth, parent) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        let depth = s.len();
        s.push(name);
        (depth, parent)
    });
    SpanGuard {
        name,
        start: Some(pushed.unwrap_or_else(Instant::now)),
        depth,
        parent,
        fields: Vec::new(),
        armed: true,
        profiled,
    }
}

impl SpanGuard {
    /// Attaches an unsigned-integer field (no-op when disarmed).
    pub fn field_u64(&mut self, key: &'static str, value: u64) {
        if self.armed {
            self.fields.push((key, FieldValue::U64(value)));
        }
    }

    /// Attaches a signed-integer field (no-op when disarmed).
    pub fn field_i64(&mut self, key: &'static str, value: i64) {
        if self.armed {
            self.fields.push((key, FieldValue::I64(value)));
        }
    }

    /// Attaches a float field (no-op when disarmed).
    pub fn field_f64(&mut self, key: &'static str, value: f64) {
        if self.armed {
            self.fields.push((key, FieldValue::F64(value)));
        }
    }

    /// Attaches a string field (no-op when disarmed; the string is only
    /// materialized when the span is armed).
    pub fn field_str(&mut self, key: &'static str, value: &str) {
        if self.armed {
            self.fields.push((key, FieldValue::Str(value.to_string())));
        }
    }

    /// Attaches a boolean field (no-op when disarmed).
    pub fn field_bool(&mut self, key: &'static str, value: bool) {
        if self.armed {
            self.fields.push((key, FieldValue::Bool(value)));
        }
    }

    /// True if this span will emit on drop (a sink was installed or a flight
    /// record was active when it opened). Lets callers skip expensive field
    /// computation.
    pub fn armed(&self) -> bool {
        self.armed
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.profiled && !self.armed {
            return;
        }
        let now = Instant::now();
        if self.profiled {
            crate::profile::frame_pop(now);
        }
        if !self.armed {
            return;
        }
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let dur_us = self
            .start
            .map(|t| now.saturating_duration_since(t).as_micros() as u64);
        let record = Record {
            kind: RecordKind::Span,
            level: Level::Info,
            name: self.name,
            parent: self.parent,
            depth: self.depth,
            dur_us,
            fields: &self.fields,
        };
        recorder::capture(&record);
        sink::emit(&record);
    }
}

/// Emits a point-in-time event at `level` with the given fields.
///
/// Events inherit the current thread's span context (depth and parent), so a
/// slow-request warning emitted inside `serve.request` is attributed to it.
pub fn event(level: Level, name: &'static str, fields: &[(&'static str, FieldValue)]) {
    if !sink::enabled(level) && !recorder::recording() {
        return;
    }
    let (depth, parent) = STACK.with(|s| {
        let s = s.borrow();
        (s.len(), s.last().copied())
    });
    let record = Record {
        kind: RecordKind::Event,
        level,
        name,
        parent,
        depth,
        dur_us: None,
        fields,
    };
    recorder::capture(&record);
    sink::emit(&record);
}
