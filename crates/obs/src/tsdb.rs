//! In-process time-series store: retained per-second history for every
//! metric, with zero dependencies and bounded memory.
//!
//! `/metrics` is an instant snapshot; the SLO engine keeps only its burn
//! windows. Neither answers "what did the request rate look like over the
//! last five minutes?" without an external Prometheus. The TSDB does: a
//! collector thread (owned by `hc-serve`) calls [`Tsdb::record`] /
//! [`Tsdb::collect_registry`] once per second, and each sample lands in
//! **tiered ring buffers**:
//!
//! | tier | step | slots (default) | span    |
//! |------|------|-----------------|---------|
//! | 0    | 1 s  | 300             | 5 min   |
//! | 1    | 10 s | 360             | 1 h     |
//! | 2    | 60 s | 1440            | 24 h    |
//!
//! Every sample is written to **all** tiers; within a coarse slot the last
//! write wins (*last-slot downsampling* — for cumulative counters the last
//! sample is the newest cumulative value, for gauges it is the most recent
//! reading, so one rule serves both kinds). A slot stores its epoch
//! (`timestamp / step`) alongside the value, so a lapped ring never leaks a
//! previous pass — exactly the SLO engine's ring discipline.
//!
//! Memory is bounded and *accounted*: series × tiers × slots is fixed at
//! series-creation time and mirrored into the `tsdb_bytes` gauge of the
//! global metrics registry, so the store's own footprint shows up on the
//! dashboards it powers.
//!
//! The store is 8-way sharded by FNV-1a over the series name, like the
//! metrics registry, the flight recorder, and the result cache.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Mutex;

use crate::metrics;
use crate::sync::lock_recover;

const SHARDS: usize = 8;

/// Default tier layout: `(step_seconds, slots)` per tier, finest first.
pub const DEFAULT_TIERS: [(u64, usize); 3] = [(1, 300), (10, 360), (60, 1440)];

/// How a series is interpreted at query time: counters are cumulative (the
/// caller renders rate()-style deltas via [`rate`]), gauges are instantaneous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Monotonically increasing cumulative value.
    Counter,
    /// Instantaneous reading.
    Gauge,
}

impl Kind {
    /// `"counter"` or `"gauge"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// One fixed ring of downsampled slots at a single resolution.
struct TierRing {
    step_s: u64,
    /// Epoch (`timestamp / step_s`) each slot currently holds; `u64::MAX`
    /// marks a never-written slot.
    epochs: Vec<u64>,
    values: Vec<f64>,
}

impl TierRing {
    fn new(step_s: u64, slots: usize) -> Self {
        TierRing {
            step_s: step_s.max(1),
            epochs: vec![u64::MAX; slots.max(1)],
            values: vec![0.0; slots.max(1)],
        }
    }

    /// Writes one sample; the last write into a slot's epoch wins.
    fn record(&mut self, ts_s: u64, v: f64) {
        let epoch = ts_s / self.step_s;
        let i = (epoch % self.epochs.len() as u64) as usize;
        self.epochs[i] = epoch;
        self.values[i] = v;
    }

    /// The sample covering `ts_s`, if that slot still holds the right epoch.
    fn get(&self, ts_s: u64) -> Option<f64> {
        let epoch = ts_s / self.step_s;
        let i = (epoch % self.epochs.len() as u64) as usize;
        (self.epochs[i] == epoch).then(|| self.values[i])
    }

    /// Seconds of history this tier can span.
    fn span_s(&self) -> u64 {
        self.step_s * self.epochs.len() as u64
    }
}

struct SeriesEntry {
    kind: Kind,
    tiers: Vec<TierRing>,
}

/// One queried series: tier resolution, alignment, and raw samples.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Series kind (drives rate rendering in callers).
    pub kind: Kind,
    /// Resolution of the returned points, in seconds.
    pub step_s: u64,
    /// Timestamp of `points[0]`, aligned to `step_s`.
    pub start_s: u64,
    /// One sample per step, oldest first; `None` where no sample landed.
    pub points: Vec<Option<f64>>,
}

/// The tiered, sharded time-series store. See the module docs.
pub struct Tsdb {
    shards: [Mutex<BTreeMap<String, SeriesEntry>>; SHARDS],
    tiers: Vec<(u64, usize)>,
    bytes: AtomicI64,
}

fn shard_of(name: &str) -> usize {
    // FNV-1a over the name, as everywhere else in the workspace.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) % SHARDS
}

/// Approximate heap bytes of one series: per-tier slot storage (epoch + value
/// = 16 bytes/slot) plus map-entry overhead for the name.
fn series_bytes(name_len: usize, tiers: &[(u64, usize)]) -> usize {
    let slots: usize = tiers.iter().map(|&(_, n)| n).sum();
    slots * 16 + name_len + 96
}

impl Tsdb {
    /// A store with an explicit tier layout (`(step_seconds, slots)`, finest
    /// first). Empty layouts fall back to [`DEFAULT_TIERS`].
    pub fn new(tiers: &[(u64, usize)]) -> Self {
        let tiers = if tiers.is_empty() {
            DEFAULT_TIERS.to_vec()
        } else {
            tiers.to_vec()
        };
        Tsdb {
            shards: std::array::from_fn(|_| Mutex::new(BTreeMap::new())),
            tiers,
            bytes: AtomicI64::new(0),
        }
    }

    /// A store whose coarsest tier retains `retention_s` seconds, keeping the
    /// default 1 s / 10 s / 60 s steps: the 1 s tier spans up to 5 minutes,
    /// the 10 s tier up to 1 hour, and the 60 s tier the full retention.
    pub fn with_retention(retention_s: u64) -> Self {
        let r = retention_s.max(60);
        Tsdb::new(&[
            (1, r.min(300) as usize),
            (10, (r.min(3600) / 10).max(1) as usize),
            (60, (r / 60).max(1) as usize),
        ])
    }

    /// The tier layout, finest first.
    pub fn tiers(&self) -> &[(u64, usize)] {
        &self.tiers
    }

    /// Approximate heap bytes currently held by all series rings.
    pub fn bytes(&self) -> i64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Writes one sample into every tier of `name`, creating the series (and
    /// charging the `tsdb_bytes` gauge) on first sight. A kind change on an
    /// existing series is ignored — first registration wins, as in the
    /// metrics registry.
    pub fn record(&self, kind: Kind, name: &str, ts_s: u64, v: f64) {
        if !v.is_finite() {
            return;
        }
        let mut shard = lock_recover(&self.shards[shard_of(name)]);
        let entry = match shard.get_mut(name) {
            Some(e) => e,
            None => {
                let added = series_bytes(name.len(), &self.tiers) as i64;
                let total = self.bytes.fetch_add(added, Ordering::Relaxed) + added;
                metrics::gauge("tsdb_bytes").set(total);
                shard
                    .entry(name.to_string())
                    .or_insert_with(|| SeriesEntry {
                        kind,
                        tiers: self
                            .tiers
                            .iter()
                            .map(|&(step, slots)| TierRing::new(step, slots))
                            .collect(),
                    })
            }
        };
        for tier in &mut entry.tiers {
            tier.record(ts_s, v);
        }
    }

    /// Every registered series, sorted by name, with its kind.
    pub fn series_names(&self) -> Vec<(String, Kind)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let guard = lock_recover(shard);
            out.extend(guard.iter().map(|(n, e)| (n.clone(), e.kind)));
        }
        out.sort();
        out
    }

    /// Picks the finest tier index that spans `window_s`; windows past the
    /// coarsest tier clamp to it.
    fn tier_for(&self, window_s: u64) -> usize {
        self.tiers
            .iter()
            .position(|&(step, slots)| step * slots as u64 >= window_s)
            .unwrap_or(self.tiers.len() - 1)
    }

    /// Reads `window_s` seconds of `name` ending at `now_s`, aligned to the
    /// chosen tier's step (or to `step_s` when given and coarser). Counters
    /// return raw cumulative samples — render deltas with [`rate`]. Returns
    /// `None` for an unknown series.
    pub fn query(
        &self,
        name: &str,
        now_s: u64,
        window_s: u64,
        step_s: Option<u64>,
    ) -> Option<QueryResult> {
        let window_s = window_s.max(1);
        let tier_idx = self.tier_for(window_s);
        let shard = lock_recover(&self.shards[shard_of(name)]);
        let entry = shard.get(name)?;
        let tier = &entry.tiers[tier_idx];
        let step = step_s.unwrap_or(0).max(tier.step_s);
        let window_s = window_s.min(tier.span_s());
        let end_epoch = now_s / step;
        let n_points = (window_s / step).max(1) as usize;
        let mut points = Vec::with_capacity(n_points);
        let start_epoch = (end_epoch + 1).saturating_sub(n_points as u64);
        for e in start_epoch..=end_epoch {
            // A coarser-than-tier step takes the last tier sample inside the
            // step window — the same last-wins downsampling the write path
            // applies inside a slot.
            let mut v = None;
            let lo = e * step;
            let hi = lo + step - 1;
            let mut t = lo - (lo % tier.step_s);
            while t <= hi {
                if let Some(sample) = tier.get(t) {
                    v = Some(sample);
                }
                t += tier.step_s;
            }
            points.push(v);
        }
        Some(QueryResult {
            kind: entry.kind,
            step_s: step,
            start_s: start_epoch * step,
            points,
        })
    }

    /// Snapshots the whole global metrics registry into the store at `ts_s`:
    /// counters as cumulative counter series, gauges as gauge series, and
    /// each histogram as `<name>_count` / `<name>_sum` counter series.
    pub fn collect_registry(&self, ts_s: u64) {
        let (counters, gauges, hists) = metrics::snapshot_all();
        for (name, v) in counters {
            self.record(Kind::Counter, name, ts_s, v as f64);
        }
        for (name, v) in gauges {
            self.record(Kind::Gauge, name, ts_s, v as f64);
        }
        for (name, (count, sum, _)) in hists {
            self.record(Kind::Counter, &format!("{name}_count"), ts_s, count as f64);
            self.record(Kind::Counter, &format!("{name}_sum"), ts_s, sum as f64);
        }
    }
}

/// Turns cumulative counter samples into per-second rates: each present
/// point's rise over the last present point before it, divided by the time
/// between them (`k · step` across `k − 1` missing points), clamped at zero so
/// a process restart (counter reset) renders as a quiet second rather than a
/// negative spike. The first point (no predecessor) and gaps yield `None`.
pub fn rate(points: &[Option<f64>], step_s: u64) -> Vec<Option<f64>> {
    let step = step_s.max(1) as f64;
    let mut out = Vec::with_capacity(points.len());
    // The last present value and how many steps back it lies.
    let mut prev: Option<(f64, f64)> = None;
    for p in points {
        if let Some((_, steps)) = prev.as_mut() {
            *steps += 1.0;
        }
        out.push(match (prev, p) {
            (Some((a, steps)), Some(b)) => Some(((b - a) / (steps * step)).max(0.0)),
            _ => None,
        });
        if let Some(b) = p {
            prev = Some((*b, 0.0));
        }
    }
    out
}

/// Renders samples as a fixed-height sparkline (eight block levels, `·` for
/// gaps), scaled to the series' own min..max. Used by
/// `/debug/timeseries?format=sparkline` and `hcm top`.
pub fn sparkline(points: &[Option<f64>]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite: Vec<f64> = points.iter().flatten().copied().collect();
    let (min, max) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    points
        .iter()
        .map(|p| match p {
            None => '·',
            Some(v) => {
                if max > min {
                    let t = ((v - min) / (max - min) * 7.0).round() as usize;
                    LEVELS[t.min(7)]
                } else {
                    LEVELS[0]
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Tsdb {
        Tsdb::new(&[(1, 10), (10, 6), (60, 4)])
    }

    #[test]
    fn gauge_round_trips_at_full_resolution() {
        let db = small();
        for t in 0..5u64 {
            db.record(Kind::Gauge, "g", t, t as f64);
        }
        let q = db.query("g", 4, 5, None).unwrap();
        assert_eq!(q.kind, Kind::Gauge);
        assert_eq!(q.step_s, 1);
        assert_eq!(q.start_s, 0);
        assert_eq!(
            q.points,
            vec![Some(0.0), Some(1.0), Some(2.0), Some(3.0), Some(4.0)]
        );
    }

    #[test]
    fn last_write_wins_inside_a_coarse_slot() {
        let db = small();
        // Seconds 10..19 land in one 10 s slot; 19's value must win.
        for t in 10..20u64 {
            db.record(Kind::Gauge, "g", t, t as f64);
        }
        // Window of 60 s forces the 10 s tier (1 s tier spans only 10 s).
        let q = db.query("g", 19, 60, None).unwrap();
        assert_eq!(q.step_s, 10);
        assert_eq!(q.points.last().copied().flatten(), Some(19.0));
    }

    #[test]
    fn tier_selection_prefers_finest_that_covers_the_window() {
        let db = small();
        db.record(Kind::Gauge, "g", 100, 1.0);
        assert_eq!(db.query("g", 100, 10, None).unwrap().step_s, 1);
        assert_eq!(db.query("g", 100, 11, None).unwrap().step_s, 10);
        assert_eq!(db.query("g", 100, 60, None).unwrap().step_s, 10);
        assert_eq!(db.query("g", 100, 61, None).unwrap().step_s, 60);
        // Past the coarsest tier's span: clamps rather than failing. (Near
        // t=0 the window also clips at the epoch floor; with real unix-time
        // stamps the full slot count is always available.)
        let q = db.query("g", 100, 100_000, None).unwrap();
        assert_eq!(q.step_s, 60);
        assert_eq!(q.points.len(), 2);
        let q = db.query("g", 100_000, 100_000, None).unwrap();
        assert_eq!(q.points.len(), 4);
    }

    #[test]
    fn slot_alignment_holds_across_tier_transitions() {
        // Writes at 59 and 60 straddle a 60 s slot boundary: they must land
        // in different coarse slots, with epochs aligned to ts/step.
        let db = small();
        db.record(Kind::Gauge, "g", 59, 59.0);
        db.record(Kind::Gauge, "g", 60, 60.0);
        let q = db.query("g", 119, 240, None).unwrap();
        assert_eq!(q.step_s, 60);
        assert_eq!(q.start_s, 0);
        // Slot [0,60) holds the 59 s write, slot [60,120) the 60 s write.
        assert_eq!(q.points[0], Some(59.0));
        assert_eq!(q.points[1], Some(60.0));
    }

    #[test]
    fn lapped_rings_do_not_leak_old_epochs() {
        let db = small();
        db.record(Kind::Gauge, "g", 0, 1.0);
        // Second 10 laps the 10-slot 1 s ring over second 0's slot.
        db.record(Kind::Gauge, "g", 10, 2.0);
        let q = db.query("g", 10, 10, None).unwrap();
        assert_eq!(q.step_s, 1);
        // Seconds 1..=9 hold nothing; only second 10 has a (fresh) sample.
        assert_eq!(q.points.iter().flatten().count(), 1);
        assert_eq!(q.points.last().copied().flatten(), Some(2.0));
    }

    #[test]
    fn explicit_step_downsamples_with_last_wins() {
        let db = small();
        for t in 0..10u64 {
            db.record(Kind::Gauge, "g", t, t as f64);
        }
        let q = db.query("g", 9, 10, Some(5)).unwrap();
        assert_eq!(q.step_s, 5);
        assert_eq!(q.points, vec![Some(4.0), Some(9.0)]);
        // A step finer than the tier clamps up to the tier's resolution.
        let q = db.query("g", 9, 60, Some(1)).unwrap();
        assert_eq!(q.step_s, 10);
    }

    #[test]
    fn counter_rate_is_clamped_and_gap_aware() {
        let points = vec![Some(100.0), Some(160.0), None, Some(40.0), Some(70.0)];
        let r = rate(&points, 1);
        // 160→(reset)→40 clamps to 0 instead of going negative; the gap
        // itself renders as None.
        assert_eq!(r, vec![None, Some(60.0), None, Some(0.0), Some(30.0)]);
        let r10 = rate(&[Some(0.0), Some(600.0)], 10);
        assert_eq!(r10, vec![None, Some(60.0)]);
        // A rise across missing points is spread over every step it spans.
        assert_eq!(
            rate(&[Some(2.0), None, Some(8.0)], 1),
            vec![None, None, Some(3.0)]
        );
        assert_eq!(
            rate(&[Some(0.0), None, None, Some(600.0), Some(660.0)], 10),
            vec![None, None, None, Some(20.0), Some(6.0)]
        );
    }

    #[test]
    fn unknown_series_is_none_and_names_are_sorted() {
        let db = small();
        assert!(db.query("missing", 0, 10, None).is_none());
        db.record(Kind::Counter, "b_total", 0, 1.0);
        db.record(Kind::Gauge, "a_gauge", 0, 1.0);
        let names = db.series_names();
        assert_eq!(
            names,
            vec![
                ("a_gauge".to_string(), Kind::Gauge),
                ("b_total".to_string(), Kind::Counter)
            ]
        );
    }

    #[test]
    fn bytes_are_accounted_per_series() {
        let db = small();
        assert_eq!(db.bytes(), 0);
        db.record(Kind::Gauge, "one", 0, 1.0);
        let one = db.bytes();
        assert!(one > 0);
        // Re-recording the same series charges nothing new.
        db.record(Kind::Gauge, "one", 1, 2.0);
        assert_eq!(db.bytes(), one);
        db.record(Kind::Gauge, "two", 0, 1.0);
        assert!(db.bytes() > one);
    }

    #[test]
    fn collect_registry_stores_counters_gauges_and_histogram_totals() {
        let db = small();
        metrics::counter("tsdb_test_total").add(7);
        metrics::gauge("tsdb_test_gauge").set(-3);
        metrics::histogram("tsdb_test_hist").observe(5);
        db.collect_registry(42);
        let c = db.query("tsdb_test_total", 42, 10, None).unwrap();
        assert_eq!(c.kind, Kind::Counter);
        assert_eq!(c.points.last().copied().flatten(), Some(7.0));
        let g = db.query("tsdb_test_gauge", 42, 10, None).unwrap();
        assert_eq!(g.kind, Kind::Gauge);
        assert_eq!(g.points.last().copied().flatten(), Some(-3.0));
        assert!(db.query("tsdb_test_hist_count", 42, 10, None).is_some());
        assert!(db.query("tsdb_test_hist_sum", 42, 10, None).is_some());
    }

    #[test]
    fn sparkline_scales_and_marks_gaps() {
        let s = sparkline(&[Some(0.0), Some(3.5), Some(7.0), None]);
        assert_eq!(s, "▁▅█·");
        // A flat series renders at the floor rather than dividing by zero.
        assert_eq!(sparkline(&[Some(2.0), Some(2.0)]), "▁▁");
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let db = small();
        db.record(Kind::Gauge, "g", 0, f64::NAN);
        assert!(db.query("g", 0, 10, None).is_none());
    }
}
