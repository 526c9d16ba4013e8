//! Adaptive overload control (DESIGN.md §15): CoDel-style queue-delay
//! admission with a brownout ladder, drain-rate `Retry-After`, and the
//! worker-autoscale decision loop.
//!
//! The fixed `--queue-depth` cutoff sheds blindly: by the time the queue is
//! full, every queued request has already waited out most of its deadline.
//! This controller sheds on *queue delay* instead — the smoothed dispatch→
//! pickup sojourn the workers already measure as the `queue_us` phase — so
//! admission reacts to the symptom clients feel, not to a buffer size.
//!
//! The ladder has three rungs with hysteresis (constants below):
//!
//! * **ok** — everything admitted.
//! * **brownout** — smoothed queue delay ≥ `--target-queue-delay-ms`:
//!   [`Class::Bulk`] work (`/batch`, large matrices) sheds with a typed 503;
//!   interactive and critical traffic still flows.
//! * **shedding** — delay ≥ 2× target after a full [`ESCALATE_DWELL`] in
//!   brownout: everything but [`Class::Critical`] (health, metrics, watch
//!   long-polls, cache hits) sheds.
//!
//! Escalation climbs one rung at a time; recovery steps down one rung only
//! after the delay holds below the rung's exit threshold for
//! [`RECOVER_DWELL`] — so the state cannot flap at the boundary. The shed
//! response's `Retry-After` is computed from the drain rate (queued jobs ÷
//! recent completions per second, clamped to `[1, 30]` s), not a constant.
//!
//! The fixed-depth backstop remains: a full queue still sheds regardless of
//! class, and `--target-queue-delay-ms 0` disables the adaptive layer
//! entirely for comparison runs.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::http::Request;
use crate::json::JsonObject;

/// Overload ladder rungs, stored as a `u8` for lock-free reads on the admit
/// path.
pub const STATE_OK: u8 = 0;
/// Brownout: bulk work sheds, interactive work still flows.
pub const STATE_BROWNOUT: u8 = 1;
/// Shedding: everything but critical traffic sheds.
pub const STATE_SHEDDING: u8 = 2;

/// Stable wire name for a ladder rung (`/metrics`, `/healthz`, Prometheus).
pub fn state_name(state: u8) -> &'static str {
    match state {
        STATE_BROWNOUT => "brownout",
        STATE_SHEDDING => "shedding",
        _ => "ok",
    }
}

/// Per-sample EWMA weight for observed queue sojourns, in `x/256` fixed
/// point (≈ 0.3): a burst of slow pickups moves the estimate within a few
/// samples without letting one outlier own it.
const EWMA_ALPHA: u64 = 77;
const EWMA_DENOM: u64 = 256;

/// Per-tick decay factor toward the backlog estimate (≈ 0.7 in `x/256`),
/// so the smoothed delay falls once the queue empties even when shedding
/// has stopped the flow of new sojourn samples.
const DECAY: u64 = 179;

/// Body size at or above which measure-class requests count as [`Class::Bulk`]
/// (a 64 KiB CSV is roughly a 100×100 matrix — study-sized, not interactive).
pub const LARGE_BODY_BYTES: usize = 64 * 1024;

/// Minimum time on a rung before escalating to the next one. Guarantees a
/// real brownout window — bulk sheds first, observably, before interactive
/// traffic is touched.
pub const ESCALATE_DWELL: Duration = Duration::from_millis(300);

/// Time the smoothed delay must hold below a rung's exit threshold before
/// stepping down one rung (the hysteresis that stops boundary flapping).
pub const RECOVER_DWELL: Duration = Duration::from_millis(500);

/// `Retry-After` clamp bounds in seconds.
pub const RETRY_AFTER_MIN_S: u32 = 1;
/// Upper clamp: past 30 s the estimate says "come back much later" anyway.
pub const RETRY_AFTER_MAX_S: u32 = 30;

/// Sliding window over which the drain rate (completions/s) is estimated.
const DRAIN_WINDOW: Duration = Duration::from_secs(2);

/// Ceiling for the backlog-derived delay estimate (µs): with a stalled pool
/// the projection is unbounded, but 10 s is already deep in shedding.
const ESTIMATE_CAP_US: u64 = 10_000_000;

/// Cooldown between autoscale spawn decisions, so a delay spike adds workers
/// gradually instead of jumping straight to `--workers-max`.
const SCALE_UP_COOLDOWN: Duration = Duration::from_millis(200);

/// Continuous idle time (empty queue, negligible delay) before one worker is
/// retired; the clock restarts after each retirement.
const SCALE_DOWN_IDLE: Duration = Duration::from_millis(1_000);

/// Reference delay for autoscale decisions when adaptive admission is off
/// (`--target-queue-delay-ms 0`): scaling still reacts to real queueing.
const DEFAULT_SCALE_REF_US: u64 = 100_000;

/// Endpoint priority class for admission decisions, cheapest-to-keep first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// Always admitted while the adaptive layer is deciding: health and
    /// metrics scrapes, debug introspection, watch long-polls (parked, not
    /// computing), shutdown — and any request answerable from the cache.
    Critical,
    /// Ordinary interactive work (small `/measure`, session CRUD): sheds
    /// only on the shedding rung.
    Interactive,
    /// Expensive fan-out or study-sized work (`/batch`, bodies ≥
    /// [`LARGE_BODY_BYTES`]): first to shed, on the brownout rung.
    Bulk,
}

impl Class {
    /// Stable wire name (flight-recorder overload context).
    pub fn as_str(self) -> &'static str {
        match self {
            Class::Critical => "critical",
            Class::Interactive => "interactive",
            Class::Bulk => "bulk",
        }
    }
}

/// Classifies a parsed request by endpoint and body size. Cache residency is
/// layered on by the reactor (a hit upgrades to [`Class::Critical`]) because
/// only it holds the server state.
pub fn classify(req: &Request) -> Class {
    match crate::router::endpoint_name(req) {
        "healthz" | "metrics" | "quitquitquit" | "session_watch" | "debug_requests"
        | "debug_request" | "debug_profile" | "debug_timeseries" => Class::Critical,
        "batch" => Class::Bulk,
        "measure" | "structure" | "generate" | "schedule" if req.body.len() >= LARGE_BODY_BYTES => {
            Class::Bulk
        }
        _ => Class::Interactive,
    }
}

/// The `Retry-After` arithmetic: how long until the current backlog drains at
/// the observed completion rate, clamped to `[1, 30]` s. A stalled pool
/// (`drain_per_s ≤ 0` with work queued) reports the max — "much later".
pub fn retry_after_from_drain(queued: usize, drain_per_s: f64) -> u32 {
    if queued == 0 {
        return RETRY_AFTER_MIN_S;
    }
    if drain_per_s <= 0.0 {
        return RETRY_AFTER_MAX_S;
    }
    let secs = (queued as f64 / drain_per_s).ceil();
    (secs as u64).clamp(u64::from(RETRY_AFTER_MIN_S), u64::from(RETRY_AFTER_MAX_S)) as u32
}

/// State the control loop mutates once per reactor tick; everything the hot
/// admit path reads lives in atomics outside this lock.
struct Inner {
    /// When the current rung was entered (escalation dwell clock).
    entered_at: Instant,
    /// Start of the current continuous stretch below the exit threshold.
    below_since: Option<Instant>,
    /// `(when, responses_total)` samples bounding the drain window.
    drain: VecDeque<(Instant, u64)>,
    /// Last autoscale spawn decision (cooldown clock).
    last_scale_up: Option<Instant>,
    /// Start of the current continuous idle stretch (scale-down clock).
    idle_since: Option<Instant>,
}

/// Point-in-time controller snapshot for `/metrics` and Prometheus.
#[derive(Debug, Clone, Copy)]
pub struct OverloadSnapshot {
    /// Current ladder rung ([`STATE_OK`]/[`STATE_BROWNOUT`]/[`STATE_SHEDDING`]).
    pub state: u8,
    /// `--target-queue-delay-ms` (0 = adaptive admission disabled).
    pub target_queue_delay_ms: u64,
    /// Smoothed queue sojourn estimate in microseconds.
    pub smoothed_queue_delay_us: u64,
    /// Currently advertised `Retry-After` for shed responses, seconds.
    pub retry_after_s: u32,
    /// Bulk-class requests shed by the adaptive layer.
    pub shed_bulk_total: u64,
    /// Interactive-class requests shed by the adaptive layer.
    pub shed_interactive_total: u64,
    /// Times the ladder entered brownout.
    pub brownout_entered_total: u64,
    /// Times the ladder entered shedding.
    pub shedding_entered_total: u64,
}

impl OverloadSnapshot {
    /// Renders the `/metrics` JSON `overload` object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .str("state", state_name(self.state))
            .u64("target_queue_delay_ms", self.target_queue_delay_ms)
            .u64("smoothed_queue_delay_us", self.smoothed_queue_delay_us)
            .u64("retry_after_s", u64::from(self.retry_after_s))
            .u64("shed_bulk_total", self.shed_bulk_total)
            .u64("shed_interactive_total", self.shed_interactive_total)
            .u64("brownout_entered_total", self.brownout_entered_total)
            .u64("shedding_entered_total", self.shedding_entered_total)
            .finish()
    }
}

/// The adaptive admission controller and autoscale decision loop. Workers
/// feed queue-sojourn samples and the reactor counts responses; the reactor's
/// tick turns those into the smoothed delay, the ladder rung, the advertised
/// `Retry-After`, and worker-count targets.
pub struct OverloadController {
    /// Target smoothed queue delay in µs; 0 disables adaptive admission.
    target_us: u64,
    state: AtomicU8,
    smoothed_us: AtomicU64,
    retry_after_s: AtomicU32,
    /// Worker responses completed (drain-rate numerator), fed by the reactor.
    responses_total: AtomicU64,
    shed_bulk: AtomicU64,
    shed_interactive: AtomicU64,
    brownout_entered: AtomicU64,
    shedding_entered: AtomicU64,
    inner: Mutex<Inner>,
}

impl OverloadController {
    /// A controller targeting `target_queue_delay_ms` of smoothed queue delay
    /// (0 = adaptive admission disabled; the ladder stays on ok).
    pub fn new(target_queue_delay_ms: u64) -> Self {
        Self {
            target_us: target_queue_delay_ms.saturating_mul(1_000),
            state: AtomicU8::new(STATE_OK),
            smoothed_us: AtomicU64::new(0),
            retry_after_s: AtomicU32::new(RETRY_AFTER_MIN_S),
            responses_total: AtomicU64::new(0),
            shed_bulk: AtomicU64::new(0),
            shed_interactive: AtomicU64::new(0),
            brownout_entered: AtomicU64::new(0),
            shedding_entered: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                entered_at: Instant::now(),
                below_since: None,
                drain: VecDeque::new(),
                last_scale_up: None,
                idle_since: None,
            }),
        }
    }

    /// Current ladder rung.
    pub fn current_state(&self) -> u8 {
        self.state.load(Ordering::Relaxed)
    }

    /// The currently advertised `Retry-After` in seconds (recomputed from the
    /// drain rate each tick; every 503 path uses this instead of a constant).
    pub fn retry_after_s(&self) -> u32 {
        self.retry_after_s.load(Ordering::Relaxed)
    }

    /// Feeds one observed queue sojourn (dispatch → worker pickup) into the
    /// EWMA. Called by workers at pickup, lock-free.
    pub fn observe_queue_delay(&self, us: u64) {
        let mut cur = self.smoothed_us.load(Ordering::Relaxed);
        loop {
            let new = (cur * (EWMA_DENOM - EWMA_ALPHA) + us * EWMA_ALPHA) / EWMA_DENOM;
            match self.smoothed_us.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Counts one worker-completed response (the drain-rate numerator).
    /// Sheds and parse errors never reach a worker and are excluded, so the
    /// advertised `Retry-After` reflects real service throughput.
    pub fn on_response(&self) {
        self.responses_total.fetch_add(1, Ordering::Relaxed);
    }

    /// The admission decision for one request: `Ok` to dispatch, `Err` with
    /// the `Retry-After` seconds to shed. The caller resolves cache residency
    /// first (a hit is upgraded to [`Class::Critical`] before this call).
    pub fn admit(&self, class: Class) -> Result<(), u32> {
        let shed = match (self.current_state(), class) {
            (STATE_BROWNOUT | STATE_SHEDDING, Class::Bulk) => &self.shed_bulk,
            (STATE_SHEDDING, Class::Interactive) => &self.shed_interactive,
            _ => return Ok(()),
        };
        shed.fetch_add(1, Ordering::Relaxed);
        Err(self.retry_after_s())
    }

    /// One control-loop step, run from the reactor: refresh the drain-rate
    /// window, blend the backlog estimate into the smoothed delay, recompute
    /// `Retry-After`, and walk the ladder (one rung per transition, with the
    /// dwell rules from the module docs).
    pub fn tick(&self, now: Instant, queued: usize) {
        let responses = self.responses_total.load(Ordering::Relaxed);
        let mut inner = hc_obs::sync::lock_recover(&self.inner);
        inner.drain.push_back((now, responses));
        while let Some(&(t, _)) = inner.drain.front() {
            if now.duration_since(t) > DRAIN_WINDOW && inner.drain.len() > 2 {
                inner.drain.pop_front();
            } else {
                break;
            }
        }
        let drain_per_s = match (inner.drain.front(), inner.drain.back()) {
            (Some(&(t0, c0)), Some(&(t1, c1))) if t1 > t0 => {
                (c1 - c0) as f64 / (t1 - t0).as_secs_f64()
            }
            _ => 0.0,
        };
        self.retry_after_s.store(
            retry_after_from_drain(queued, drain_per_s),
            Ordering::Relaxed,
        );

        // Backlog estimate: expected sojourn of a request joining the queue
        // now. Keeps the smoothed delay honest in both directions — decaying
        // once the queue empties (shedding stops sojourn samples), and rising
        // when the backlog outruns what admitted requests have observed yet.
        let estimate_us = if queued == 0 {
            0
        } else if drain_per_s <= 0.0 {
            ESTIMATE_CAP_US
        } else {
            ((queued as f64 / drain_per_s) * 1e6).min(ESTIMATE_CAP_US as f64) as u64
        };
        let smoothed = {
            let cur = self.smoothed_us.load(Ordering::Relaxed);
            let new = if estimate_us >= cur {
                (cur * DECAY + estimate_us * (EWMA_DENOM - DECAY)) / EWMA_DENOM
            } else {
                (cur * DECAY / EWMA_DENOM).max(estimate_us)
            };
            self.smoothed_us.store(new, Ordering::Relaxed);
            new
        };

        if self.target_us == 0 {
            return; // adaptive admission disabled; the ladder stays on ok
        }
        let target = self.target_us;
        let state = self.current_state();
        let enter = |next: u8, inner: &mut Inner| {
            self.state.store(next, Ordering::Relaxed);
            inner.entered_at = now;
            inner.below_since = None;
            match next {
                STATE_BROWNOUT if next > state => {
                    self.brownout_entered.fetch_add(1, Ordering::Relaxed);
                }
                STATE_SHEDDING => {
                    self.shedding_entered.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
        };
        match state {
            STATE_OK => {
                if smoothed >= target {
                    enter(STATE_BROWNOUT, &mut inner);
                }
            }
            STATE_BROWNOUT => {
                if smoothed >= 2 * target && now.duration_since(inner.entered_at) >= ESCALATE_DWELL
                {
                    enter(STATE_SHEDDING, &mut inner);
                } else if smoothed < target / 2 {
                    let since = *inner.below_since.get_or_insert(now);
                    if now.duration_since(since) >= RECOVER_DWELL {
                        enter(STATE_OK, &mut inner);
                    }
                } else {
                    inner.below_since = None;
                }
            }
            _ => {
                if smoothed < target {
                    let since = *inner.below_since.get_or_insert(now);
                    if now.duration_since(since) >= RECOVER_DWELL {
                        enter(STATE_BROWNOUT, &mut inner);
                    }
                } else {
                    inner.below_since = None;
                }
            }
        }
    }

    /// The autoscale decision: `Some(new_target)` when the worker count
    /// should change, within `[min, max]`. Scales up one worker per
    /// `SCALE_UP_COOLDOWN` while the smoothed delay crosses half the target
    /// (or the queue outgrows the workers); retires one worker per
    /// `SCALE_DOWN_IDLE` of continuous idleness.
    pub fn autoscale(
        &self,
        now: Instant,
        queued: usize,
        live: usize,
        min: usize,
        max: usize,
    ) -> Option<usize> {
        if min >= max {
            return None; // autoscaling disabled (--workers-max not above min)
        }
        let smoothed = self.smoothed_us.load(Ordering::Relaxed);
        let reference = if self.target_us > 0 {
            self.target_us
        } else {
            DEFAULT_SCALE_REF_US
        };
        let busy = smoothed >= reference / 2 || queued > live;
        let idle = queued == 0 && smoothed < reference / 8;
        let mut inner = hc_obs::sync::lock_recover(&self.inner);
        if busy {
            inner.idle_since = None;
            if live < max
                && inner
                    .last_scale_up
                    .is_none_or(|t| now.duration_since(t) >= SCALE_UP_COOLDOWN)
            {
                inner.last_scale_up = Some(now);
                return Some(live + 1);
            }
            return None;
        }
        if idle {
            let since = *inner.idle_since.get_or_insert(now);
            if live > min && now.duration_since(since) >= SCALE_DOWN_IDLE {
                inner.idle_since = Some(now);
                return Some(live - 1);
            }
        } else {
            inner.idle_since = None;
        }
        None
    }

    /// Forces the ladder onto a rung, resetting the dwell clocks as if it had
    /// just been entered. A drill/test hook: the normal control loop resumes
    /// from the forced rung (and will walk back down once the smoothed delay
    /// allows), so a forced state is a head start, not a pin.
    pub fn force_state(&self, state: u8) {
        let mut inner = hc_obs::sync::lock_recover(&self.inner);
        self.state.store(state, Ordering::Relaxed);
        inner.entered_at = Instant::now();
        inner.below_since = None;
    }

    /// Point-in-time snapshot for `/metrics` and Prometheus.
    pub fn snapshot(&self) -> OverloadSnapshot {
        OverloadSnapshot {
            state: self.current_state(),
            target_queue_delay_ms: self.target_us / 1_000,
            smoothed_queue_delay_us: self.smoothed_us.load(Ordering::Relaxed),
            retry_after_s: self.retry_after_s(),
            shed_bulk_total: self.shed_bulk.load(Ordering::Relaxed),
            shed_interactive_total: self.shed_interactive.load(Ordering::Relaxed),
            brownout_entered_total: self.brownout_entered.load(Ordering::Relaxed),
            shedding_entered_total: self.shedding_entered.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(path: &str, body_len: usize) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            query: Default::default(),
            body: vec![b'x'; body_len],
            request_id: None,
            timeout_ms: None,
            traceparent: None,
            if_match: None,
            malformed_headers: Vec::new(),
        }
    }

    #[test]
    fn retry_after_arithmetic() {
        // Empty queue: come back soon.
        assert_eq!(retry_after_from_drain(0, 100.0), 1);
        // 50 queued at 100/s drains in 0.5 s → rounds up to the 1 s floor.
        assert_eq!(retry_after_from_drain(50, 100.0), 1);
        // 500 queued at 100/s → 5 s.
        assert_eq!(retry_after_from_drain(500, 100.0), 5);
        // Fractional drain rounds up: 10 queued at 3/s → ceil(3.33) = 4 s.
        assert_eq!(retry_after_from_drain(10, 3.0), 4);
        // Deep backlog clamps at the 30 s ceiling.
        assert_eq!(retry_after_from_drain(10_000, 10.0), 30);
        // Stalled pool with work queued: max, not a divide-by-zero.
        assert_eq!(retry_after_from_drain(5, 0.0), 30);
    }

    #[test]
    fn classifies_by_endpoint_and_size() {
        assert_eq!(classify(&req("/healthz", 0)), Class::Critical);
        assert_eq!(classify(&req("/metrics", 0)), Class::Critical);
        assert_eq!(classify(&req("/session/abc/watch", 0)), Class::Critical);
        assert_eq!(classify(&req("/batch", 10)), Class::Bulk);
        assert_eq!(classify(&req("/measure", 100)), Class::Interactive);
        assert_eq!(classify(&req("/measure", LARGE_BODY_BYTES)), Class::Bulk);
        assert_eq!(classify(&req("/session", 100)), Class::Interactive);
        assert_eq!(classify(&req("/sleepz", 0)), Class::Interactive);
        assert_eq!(classify(&req("/nope", 0)), Class::Interactive);
    }

    #[test]
    fn ladder_escalates_one_rung_at_a_time_with_dwell() {
        let c = OverloadController::new(10); // 10 ms target
        let t0 = Instant::now();
        // Saturate the delay estimate well past 2x target.
        for _ in 0..64 {
            c.observe_queue_delay(100_000);
        }
        c.tick(t0, 8);
        assert_eq!(
            c.current_state(),
            STATE_BROWNOUT,
            "first crossing: brownout"
        );
        // Immediately after: still brownout (escalation dwell not served).
        c.tick(t0 + Duration::from_millis(100), 8);
        assert_eq!(c.current_state(), STATE_BROWNOUT);
        // Past the dwell with delay still ≥ 2x target: shedding.
        for _ in 0..64 {
            c.observe_queue_delay(100_000);
        }
        c.tick(t0 + ESCALATE_DWELL + Duration::from_millis(50), 8);
        assert_eq!(c.current_state(), STATE_SHEDDING);
        let snap = c.snapshot();
        assert_eq!(snap.brownout_entered_total, 1);
        assert_eq!(snap.shedding_entered_total, 1);
    }

    #[test]
    fn ladder_recovers_stepwise_after_dwell() {
        let c = OverloadController::new(10);
        c.force_state(STATE_SHEDDING);
        // Queue empty, delay decayed to zero.
        let t0 = Instant::now();
        c.tick(t0, 0);
        assert_eq!(
            c.current_state(),
            STATE_SHEDDING,
            "recovery needs the dwell"
        );
        c.tick(t0 + RECOVER_DWELL + Duration::from_millis(10), 0);
        assert_eq!(c.current_state(), STATE_BROWNOUT, "one rung down");
        c.tick(t0 + RECOVER_DWELL + Duration::from_millis(20), 0);
        assert_eq!(c.current_state(), STATE_BROWNOUT, "dwell restarts per rung");
        c.tick(t0 + 2 * RECOVER_DWELL + Duration::from_millis(40), 0);
        assert_eq!(c.current_state(), STATE_OK);
    }

    #[test]
    fn admit_sheds_by_class_in_documented_order() {
        let c = OverloadController::new(10);
        assert!(c.admit(Class::Bulk).is_ok(), "ok state admits everything");
        c.force_state(STATE_BROWNOUT);
        assert!(c.admit(Class::Bulk).is_err(), "brownout sheds bulk");
        assert!(c.admit(Class::Interactive).is_ok());
        assert!(c.admit(Class::Critical).is_ok());
        c.force_state(STATE_SHEDDING);
        assert!(c.admit(Class::Bulk).is_err());
        assert!(
            c.admit(Class::Interactive).is_err(),
            "shedding sheds interactive"
        );
        assert!(c.admit(Class::Critical).is_ok(), "critical always flows");
        let snap = c.snapshot();
        assert_eq!(snap.shed_bulk_total, 2);
        assert_eq!(snap.shed_interactive_total, 1);
    }

    #[test]
    fn disabled_controller_never_leaves_ok() {
        let c = OverloadController::new(0);
        for _ in 0..256 {
            c.observe_queue_delay(1_000_000);
        }
        c.tick(Instant::now(), 1_000);
        assert_eq!(c.current_state(), STATE_OK);
        assert!(c.admit(Class::Bulk).is_ok());
        // The drain-rate Retry-After still works for fixed-depth sheds.
        assert!(c.retry_after_s() >= 1);
    }

    #[test]
    fn smoothed_delay_decays_once_queue_empties() {
        let c = OverloadController::new(10);
        for _ in 0..64 {
            c.observe_queue_delay(50_000);
        }
        let before = c.snapshot().smoothed_queue_delay_us;
        assert!(before > 40_000);
        let t0 = Instant::now();
        for i in 1..=40 {
            c.tick(t0 + Duration::from_millis(50 * i), 0);
        }
        let after = c.snapshot().smoothed_queue_delay_us;
        assert!(after < 1_000, "decayed {before} -> {after}");
    }

    #[test]
    fn autoscale_up_on_delay_down_on_idle() {
        let c = OverloadController::new(10);
        let t0 = Instant::now();
        for _ in 0..64 {
            c.observe_queue_delay(20_000); // 2x target: busy
        }
        assert_eq!(c.autoscale(t0, 4, 2, 1, 4), Some(3), "busy: scale up");
        // Cooldown: no second spawn immediately.
        assert_eq!(
            c.autoscale(t0 + Duration::from_millis(50), 4, 3, 1, 4),
            None
        );
        assert_eq!(
            c.autoscale(
                t0 + SCALE_UP_COOLDOWN + Duration::from_millis(10),
                4,
                3,
                1,
                4
            ),
            Some(4)
        );
        // At max: no further growth.
        assert_eq!(
            c.autoscale(
                t0 + 2 * SCALE_UP_COOLDOWN + Duration::from_millis(20),
                4,
                4,
                1,
                4
            ),
            None
        );
        // Idle long enough: retire one at a time, never below min.
        let c2 = OverloadController::new(10);
        let t1 = Instant::now();
        assert_eq!(
            c2.autoscale(t1, 0, 4, 1, 4),
            None,
            "idle clock just started"
        );
        assert_eq!(
            c2.autoscale(t1 + SCALE_DOWN_IDLE + Duration::from_millis(10), 0, 4, 1, 4),
            Some(3)
        );
        assert_eq!(
            c2.autoscale(t1 + SCALE_DOWN_IDLE + Duration::from_millis(20), 0, 3, 1, 4),
            None,
            "retirement restarts the idle clock"
        );
        // min == max: autoscaling off.
        assert_eq!(c2.autoscale(t1, 100, 2, 2, 2), None);
    }
}
