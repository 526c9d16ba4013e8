//! Chaos fault-injection points ("failpoints").
//!
//! A failpoint is a named site in the code — `fire("cache.insert")` — at which
//! a fault can be injected at runtime for chaos testing. Sites are inert (one
//! relaxed atomic load) until armed, either through the environment when the
//! process starts:
//!
//! ```text
//! HC_FAILPOINT=worker.idle:panic:7,sinkhorn.iteration:delay:5
//! ```
//!
//! or programmatically from a test via [`arm`]/[`reset`]. The spec grammar is
//! a comma-separated list of `site:action[:arg]` rules:
//!
//! | action      | effect at the site                                   |
//! |-------------|------------------------------------------------------|
//! | `panic`     | panic on every hit                                   |
//! | `panic:N`   | panic on every Nth hit (hits 1..N−1 pass through)    |
//! | `delay:MS`  | `thread::sleep` for MS milliseconds                  |
//! | `busy:MS`   | allocation-free spin loop for MS milliseconds        |

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Fast-path flag: true iff at least one rule is armed.
static ARMED: AtomicBool = AtomicBool::new(false);
/// True once the environment has been consulted.
static ENV_SCANNED: AtomicBool = AtomicBool::new(false);
static RULES: Mutex<Vec<Rule>> = Mutex::new(Vec::new());

struct Rule {
    site: String,
    action: Action,
    hits: AtomicU64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Action {
    Panic { every: u64 },
    Delay(u64),
    Busy(u64),
}

fn parse_rule(rule: &str) -> Option<Rule> {
    let mut parts = rule.splitn(3, ':');
    let site = parts.next()?.trim();
    let action = parts.next()?.trim();
    let arg = parts.next().map(str::trim);
    if site.is_empty() {
        return None;
    }
    let action = match (action, arg) {
        ("panic", None) => Action::Panic { every: 1 },
        ("panic", Some(n)) => Action::Panic {
            every: n.parse().ok().filter(|&n| n > 0)?,
        },
        ("delay", Some(ms)) => Action::Delay(ms.parse().ok()?),
        ("busy", Some(ms)) => Action::Busy(ms.parse().ok()?),
        _ => return None,
    };
    Some(Rule {
        site: site.to_string(),
        action,
        hits: AtomicU64::new(0),
    })
}

fn parse_spec(spec: &str) -> Vec<Rule> {
    spec.split(',')
        .filter(|r| !r.trim().is_empty())
        .filter_map(parse_rule)
        .collect()
}

fn scan_env() {
    if ENV_SCANNED.swap(true, Ordering::SeqCst) {
        return;
    }
    if let Ok(spec) = std::env::var("HC_FAILPOINT") {
        let rules = parse_spec(&spec);
        if !rules.is_empty() {
            let mut guard = crate::sync::lock_recover(&RULES);
            guard.extend(rules);
            ARMED.store(true, Ordering::SeqCst);
        }
    }
}

/// Arms the failpoints described by `spec` (same grammar as the
/// `HC_FAILPOINT` environment variable), replacing any armed rules.
/// Intended for tests; the environment is read automatically.
pub fn arm(spec: &str) {
    ENV_SCANNED.store(true, Ordering::SeqCst);
    let rules = parse_spec(spec);
    let mut guard = crate::sync::lock_recover(&RULES);
    let armed = !rules.is_empty();
    *guard = rules;
    drop(guard);
    ARMED.store(armed, Ordering::SeqCst);
}

/// Disarms every failpoint (including any armed from the environment).
pub fn reset() {
    ENV_SCANNED.store(true, Ordering::SeqCst);
    crate::sync::lock_recover(&RULES).clear();
    ARMED.store(false, Ordering::SeqCst);
}

/// Hits the failpoint named `site`, executing whatever action is armed for
/// it. Disarmed cost is one relaxed atomic load.
pub fn fire(site: &str) {
    if !ARMED.load(Ordering::Relaxed) {
        if ENV_SCANNED.load(Ordering::Relaxed) {
            return;
        }
        scan_env();
        if !ARMED.load(Ordering::Relaxed) {
            return;
        }
    }
    let action = {
        let guard = crate::sync::lock_recover(&RULES);
        match guard.iter().find(|r| r.site == site) {
            Some(rule) => {
                let hit = rule.hits.fetch_add(1, Ordering::Relaxed) + 1;
                match rule.action {
                    Action::Panic { every } if hit % every != 0 => return,
                    a => a,
                }
            }
            None => return,
        }
    };
    crate::obs_counter!("failpoint_fired_total").inc();
    match action {
        Action::Panic { .. } => panic!("failpoint '{site}' fired: injected panic"),
        Action::Delay(ms) => std::thread::sleep(Duration::from_millis(ms)),
        Action::Busy(ms) => {
            let until = Instant::now() + Duration::from_millis(ms);
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Failpoint state is global; keep tests that arm it serialized.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn disarmed_fire_is_noop() {
        let _g = crate::sync::lock_recover(&SERIAL);
        reset();
        fire("anything");
    }

    #[test]
    fn panic_every_n() {
        let _g = crate::sync::lock_recover(&SERIAL);
        arm("boom:panic:3");
        fire("boom");
        fire("boom");
        let r = std::panic::catch_unwind(|| fire("boom"));
        assert!(r.is_err(), "third hit must panic");
        fire("boom"); // hit 4 passes again
        reset();
    }

    #[test]
    fn delay_and_busy_block_for_roughly_the_arg() {
        let _g = crate::sync::lock_recover(&SERIAL);
        for spec in ["slow:delay:20", "slow:busy:20"] {
            arm(spec);
            let t = Instant::now();
            fire("slow");
            assert!(t.elapsed() >= Duration::from_millis(15), "{spec}");
        }
        reset();
    }

    #[test]
    fn malformed_specs_are_ignored() {
        let _g = crate::sync::lock_recover(&SERIAL);
        arm("nosuchaction:frobnicate, :panic, delayonly:delay, x:panic:0");
        fire("nosuchaction");
        fire("delayonly");
        fire("x");
        reset();
    }

    #[test]
    fn unrelated_site_untouched() {
        let _g = crate::sync::lock_recover(&SERIAL);
        arm("a:panic");
        fire("b");
        reset();
    }
}
