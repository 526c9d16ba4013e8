//! In-process replay of a seeded sample of a run's inputs through the
//! public functions of each layer, one span per call.

use crate::gen::{self, Member, ENSEMBLE_PASS};
use crate::metrics::{is_golub_reinsch, shape_key, SESSION_SIZES, SHAPES};
use crate::stats;
use crate::trace::Trace;
use hc_core::measures::{
    adjacent_ratio_homogeneity_in, machine_performances_in, task_difficulties_in,
};
use hc_core::standard::{standard_form_in, TmaOptions};
use hc_core::{Analyzer, Ecs, Weights};
use hc_linalg::bidiag::bidiagonalize_in;
use hc_linalg::svd::{svd_with_stats_budgeted_in, SvdAlgorithm};
use hc_linalg::Workspace;
use hc_obs::recorder::{FlightRecorder, Outcome as RecordOutcome, PhaseTimings};
use hc_obs::trace::TraceContext;
use hc_serve::cache::{cache_key, CachedResponse, ShardedCache};
use hc_serve::http::RequestParser;
use hc_serve::metrics::Registry;
use hc_session::{parse_edits, to_ecs_value, Edit, SessionConfig, SessionEngine, SessionStore};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests replayed through the serving layers.
const REPLAY_REQUESTS: usize = 400;
/// Edits replayed per session size (64×64, 128×128).
const REPLAY_EDITS: [usize; 2] = [16, 6];
/// `SessionStore::get` calls timed on an idle session.
const STORE_GETS: usize = 2000;
/// Body cap of the server's request parser (`max_body_bytes` default).
const MAX_BODY: usize = 8 * 1024 * 1024;

/// Times `f` inside a span named `name` under `parent`; returns its result
/// and its duration in milliseconds.
fn timed<R>(
    t: &mut Trace,
    epoch: Instant,
    parent: usize,
    name: &str,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let a = Instant::now();
    let r = std::hint::black_box(f());
    let b = Instant::now();
    let ns = |x: Instant| x.duration_since(epoch).as_nanos() as u64;
    t.push(Some(parent), name, ns(a), ns(b));
    (r, b.duration_since(a).as_secs_f64() * 1e3)
}

fn op_span(t: &mut Trace, epoch: Instant, name: &str) -> usize {
    let now = epoch.elapsed().as_nanos() as u64;
    t.push(None, name, now, now)
}

fn close(t: &mut Trace, epoch: Instant, id: usize) {
    t.spans[id].end_ns = epoch.elapsed().as_nanos() as u64;
}

/// Layer medians of the `POST /measure` path, in milliseconds, in request
/// order: HTTP parse, cache lookup, CSV parse, characterize, JSON, record.
pub struct RequestLayers(pub [f64; 6]);

/// Replays the measure path for a seeded sample of `plan`'s requests.
pub fn measure_requests(
    plan: &gen::MeasurePlan,
    seed: u64,
    t: &mut Trace,
    epoch: Instant,
    out: &mut BTreeMap<String, f64>,
) -> RequestLayers {
    let mut rng = gen::stream(seed, 21);
    let sample: Vec<&gen::Post> = (0..REPLAY_REQUESTS.min(plan.posts.len()))
        .map(|_| &plan.posts[hc_gen::rng::Rng::gen_range(&mut rng, 0..plan.posts.len())])
        .collect();
    let cache = ShardedCache::new(256);
    let recorder = FlightRecorder::new(256, 64);
    let registry = Registry::new();
    let mut analyzer = Analyzer::new();
    let mut cols: [Vec<f64>; 6] = Default::default();
    for post in sample {
        let body = plan.bodies[post.body].as_bytes();
        let bytes = crate::http::request(
            "POST",
            "/measure",
            &[("Content-Type", "text/csv".into())],
            body,
        );
        let op = op_span(t, epoch, "replay.request");
        let (req, http_ms) = timed(t, epoch, op, "serve.http", || {
            let mut p = RequestParser::new(MAX_BODY);
            p.feed(&bytes);
            p.poll()
                .expect("own request parses")
                .expect("complete request")
                .0
        });
        let (hit, cache_ms) = timed(t, epoch, op, "serve.cache", || {
            let key = cache_key("measure", "", &req.body);
            cache.get(key).is_some()
        });
        let text = std::str::from_utf8(&req.body).expect("CSV bodies are UTF-8");
        let (etc, csv_ms) = timed(t, epoch, op, "spec.csv", || {
            hc_spec::csv::from_csv(text).expect("own CSV parses")
        });
        let ecs = etc.to_ecs();
        let (report, char_ms) = timed(t, epoch, op, "core.characterize", || {
            analyzer
                .characterize(&ecs)
                .expect("measure bodies characterize")
        });
        let (json, json_ms) = timed(t, epoch, op, "serve.json", || {
            hc_serve::json::measure_body(&report, ecs.task_names(), ecs.machine_names())
        });
        analyzer.recycle_report(report);
        let mut put_ms = 0.0;
        if !hit {
            let entry = CachedResponse {
                content_type: "application/json",
                body: Arc::from(json.into_bytes()),
            };
            put_ms = timed(t, epoch, op, "serve.cache", || {
                cache.put(cache_key("measure", "", &req.body), entry)
            })
            .1;
        }
        let trace_ctx = TraceContext::generate();
        let ((), obs_ms) = timed(t, epoch, op, "obs.record", || {
            let g = recorder.begin("replay", "POST", "/measure", &trace_ctx);
            g.finish(RecordOutcome {
                status: 200,
                latency_us: 100,
                phases: PhaseTimings::default(),
                slow: false,
                panicked: false,
            });
            registry.record(
                "measure",
                false,
                hit,
                Duration::from_micros(100),
                Duration::from_micros(80),
            );
        });
        close(t, epoch, op);
        for (c, v) in
            cols.iter_mut()
                .zip([http_ms, cache_ms + put_ms, csv_ms, char_ms, json_ms, obs_ms])
        {
            c.push(v);
        }
    }
    let med: Vec<f64> = cols.iter().map(|c| stats::median(c)).collect();
    for (name, v) in [
        ("serve.http.parse_us", med[0]),
        ("serve.cache.lookup_us", med[1]),
        ("spec.csv.parse_us", med[2]),
        ("core.characterize.request_us", med[3]),
        ("serve.json.render_us", med[4]),
        ("obs.record_us", med[5]),
    ] {
        out.insert(name.into(), v * 1e3);
    }
    RequestLayers([med[0], med[1], med[2], med[3], med[4], med[5]])
}

/// Per-shape layer times of the ensemble replay, in milliseconds.
struct ShapeLayers {
    characterize: f64,
    measures: f64,
    sinkhorn: f64,
    bidiag: f64,
    spectrum: f64,
}

fn median_of<R>(reps: usize, mut f: impl FnMut() -> (R, f64)) -> (R, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (r, ms) = f();
        times.push(ms);
        last = Some(r);
    }
    (
        last.expect("at least one repetition"),
        stats::median(&times),
    )
}

/// Replays one positive member of each shape through the `characterize`
/// layers, and the zero-entry members through the structure analysis.
/// Returns the composition-weighted coverage of `characterize`.
pub fn ensemble_layers(
    members: &[Member],
    t: &mut Trace,
    epoch: Instant,
    out: &mut BTreeMap<String, f64>,
) -> f64 {
    let opts = TmaOptions::default();
    let mut analyzer = Analyzer::new();
    let mut ws = Workspace::new();
    let mut weights = Vec::new();
    let mut layers = Vec::new();
    for &shape in &SHAPES {
        let m = members
            .iter()
            .find(|m| m.shape == shape && !m.zeros)
            .expect("every shape has a positive member");
        let k = shape_key(shape);
        let cells = shape.0 * shape.1;
        let reps = if cells <= 128 * 128 {
            5
        } else if cells <= 256 * 256 {
            2
        } else {
            1
        };
        let ecs: &Ecs = &m.ecs;
        let op = op_span(t, epoch, &format!("replay.matrix.{k}"));
        if cells <= 256 * 256 {
            analyzer
                .characterize(ecs)
                .map(|r| analyzer.recycle_report(r))
                .expect("warm-up");
        }
        let (_, characterize) = median_of(reps, || {
            let (r, ms) = timed(t, epoch, op, "core.characterize", || {
                analyzer.characterize(ecs).expect("characterize")
            });
            analyzer.recycle_report(r);
            ((), ms)
        });
        let w = Weights::uniform(shape.0, shape.1);
        let (_, measures) = median_of(reps, || {
            let (mp, a) = timed(t, epoch, op, "core.measures", || {
                machine_performances_in(ecs, &w, &mut ws).expect("mp")
            });
            let (td, b) = timed(t, epoch, op, "core.measures", || {
                task_difficulties_in(ecs, &w, &mut ws).expect("td")
            });
            let (_, c) = timed(t, epoch, op, "core.measures", || {
                adjacent_ratio_homogeneity_in(&mp, &mut ws).expect("mph")
            });
            let (_, d) = timed(t, epoch, op, "core.measures", || {
                adjacent_ratio_homogeneity_in(&td, &mut ws).expect("tdh")
            });
            ws.recycle_vec(mp);
            ws.recycle_vec(td);
            ((), a + b + c + d)
        });
        let (sf, sinkhorn) = median_of(reps, || {
            timed(t, epoch, op, "sinkhorn.balance", || {
                standard_form_in(ecs, &opts, &mut ws).expect("standard form")
            })
        });
        let bidiag = if is_golub_reinsch(shape) {
            median_of(reps, || {
                let (b, ms) = timed(t, epoch, op, "linalg.bidiag", || {
                    bidiagonalize_in(sf.matrix.view(), &mut ws).expect("bidiagonalize")
                });
                ws.recycle_matrix(b.u);
                ws.recycle_matrix(b.v);
                ((), ms)
            })
            .1
        } else {
            0.0
        };
        let (iterations, svd) = median_of(reps, || {
            let ((s, iters), ms) = timed(t, epoch, op, "linalg.svd", || {
                svd_with_stats_budgeted_in(sf.matrix.view(), SvdAlgorithm::Auto, None, &mut ws)
                    .expect("svd")
            });
            s.recycle(&mut ws);
            (iters, ms)
        });
        close(t, epoch, op);
        out.insert(format!("core.characterize.{k}.ms"), characterize);
        out.insert(format!("core.measures.{k}.ms"), measures);
        out.insert(format!("sinkhorn.{k}.ms"), sinkhorn);
        out.insert(format!("sinkhorn.{k}.iterations"), sf.iterations as f64);
        if is_golub_reinsch(shape) {
            out.insert(format!("linalg.bidiag.{k}.ms"), bidiag);
        }
        out.insert(format!("linalg.spectrum.{k}.ms"), svd - bidiag);
        out.insert(format!("linalg.svd.{k}.iterations"), iterations as f64);
        sf.recycle(&mut ws);
        let count = ENSEMBLE_PASS
            .iter()
            .find(|(s, _, _)| *s == shape)
            .map_or(0, |(_, c, _)| *c);
        weights.push(count as f64);
        layers.push(ShapeLayers {
            characterize,
            measures,
            sinkhorn,
            bidiag,
            spectrum: svd - bidiag,
        });
    }
    let total: Vec<f64> = layers.iter().map(|l| l.characterize).collect();
    let svd: Vec<f64> = layers.iter().map(|l| l.bidiag + l.spectrum).collect();
    let replayed: Vec<f64> = layers
        .iter()
        .map(|l| l.measures + l.sinkhorn + l.bidiag + l.spectrum)
        .collect();
    let denom = stats::weighted_sum(&weights, &total);
    // The share is taken of the replayed layers' sum rather than of the
    // separately timed `characterize`: the 512×512 member is timed once per
    // call, and two single 4-s timings can cross. Coverage compares the two.
    let replayed_sum = stats::weighted_sum(&weights, &replayed);
    out.insert(
        "linalg.svd.share".into(),
        stats::weighted_sum(&weights, &svd) / replayed_sum,
    );

    let op = op_span(t, epoch, "replay.structure");
    let structure: Vec<f64> = members
        .iter()
        .filter(|m| m.zeros)
        .map(|m| {
            timed(t, epoch, op, "sinkhorn.structure", || {
                hc_sinkhorn::structure::total_support_core(m.ecs.matrix())
            })
            .1
        })
        .collect();
    close(t, epoch, op);
    out.insert("sinkhorn.structure.ms".into(), stats::median(&structure));
    stats::coverage(&[replayed_sum], denom)
}

/// Layer medians of the `PATCH /session/{id}/etc` path in milliseconds:
/// HTTP parse, edit parse, 64×64 recompute, JSON, record.
pub struct PatchLayers(pub [f64; 5]);

/// What replaying the sessions' edits counted.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineCounts {
    pub edits: u64,
    pub warm: u64,
    pub fallbacks: u64,
    pub cutovers: u64,
    pub sinkhorn_iterations: u64,
    pub svd_iterations: u64,
}

fn apply(engine: &mut SessionEngine, edits: &[Edit]) {
    let mut set = |i: usize, j: usize, v: f64| {
        engine
            .set(i, j, to_ecs_value(v, true))
            .expect("edit keeps the matrix valid")
    };
    for e in edits {
        match e {
            Edit::Cell {
                task,
                machine,
                value,
            } => set(*task, *machine, *value),
            Edit::Row { task, values } => values
                .iter()
                .enumerate()
                .for_each(|(j, v)| set(*task, j, *v)),
            Edit::Col { machine, values } => values
                .iter()
                .enumerate()
                .for_each(|(i, v)| set(i, *machine, *v)),
        }
    }
}

/// Replays the first edits of every session through `SessionEngine`, times
/// a cold `characterize` of each edited matrix beside it, and times
/// `SessionStore::get` on an idle session.
pub fn sessions(
    plan: &gen::SessionPlan,
    t: &mut Trace,
    epoch: Instant,
    out: &mut BTreeMap<String, f64>,
) -> (PatchLayers, EngineCounts) {
    let etcs: Vec<_> = plan
        .creates
        .iter()
        .map(|c| hc_spec::csv::from_csv(c).expect("own CSV parses"))
        .collect();
    let mut parse_ms = Vec::new();
    let mut http_ms = Vec::new();
    let mut warm_ms = [Vec::new(), Vec::new()];
    let mut cold_ms = [Vec::new(), Vec::new()];
    let mut counts = EngineCounts::default();
    let mut analyzer = Analyzer::new();
    for (s, etc) in etcs.iter().enumerate() {
        let size = SESSION_SIZES
            .iter()
            .position(|&z| z == (etc.num_tasks(), etc.num_machines()))
            .expect("known size");
        let mut engine = SessionEngine::new(etc.to_ecs());
        let (r, _) = engine.recompute(None).expect("cold create");
        engine.recycle_report(r);
        for p in plan
            .patches
            .iter()
            .filter(|p| p.session == s)
            .take(REPLAY_EDITS[size])
        {
            let op = op_span(t, epoch, "replay.patch");
            let bytes = crate::http::request(
                "PATCH",
                "/session/x/etc",
                &[("If-Match", p.version.to_string())],
                p.body.as_bytes(),
            );
            http_ms.push(
                timed(t, epoch, op, "serve.http", || {
                    let mut rp = RequestParser::new(MAX_BODY);
                    rp.feed(&bytes);
                    rp.poll()
                        .expect("own request parses")
                        .expect("complete request")
                })
                .1,
            );
            let (edits, ms) = timed(t, epoch, op, "session.edits", || {
                parse_edits(&p.body, etc.task_names(), etc.machine_names())
                    .expect("own edits parse")
            });
            parse_ms.push(ms);
            apply(&mut engine, &edits);
            let ((report, st), ms) = timed(t, epoch, op, "session.recompute", || {
                engine.recompute(None).expect("recompute")
            });
            warm_ms[size].push(ms);
            engine.recycle_report(report);
            counts.edits += 1;
            counts.warm += st.warm as u64;
            counts.fallbacks += st.fallback as u64;
            counts.cutovers += st.cutover as u64;
            counts.sinkhorn_iterations += st.sinkhorn_iterations as u64;
            counts.svd_iterations += st.svd_iterations as u64;
            let (r, ms) = timed(t, epoch, op, "core.characterize", || {
                analyzer.characterize(engine.ecs()).expect("cold")
            });
            analyzer.recycle_report(r);
            cold_ms[size].push(ms);
            close(t, epoch, op);
        }
    }
    for (k, &size) in SESSION_SIZES.iter().enumerate() {
        let key = shape_key(size);
        out.insert(
            format!("session.recompute.{key}.ms"),
            stats::median(&warm_ms[k]),
        );
        out.insert(format!("session.cold.{key}.ms"), stats::median(&cold_ms[k]));
    }
    out.insert(
        "session.edits.parse_us".into(),
        stats::median(&parse_ms) * 1e3,
    );

    let store = SessionStore::new(SessionConfig::default());
    let snap = store
        .create(etcs[0].to_ecs(), true, None)
        .expect("store accepts a session");
    let op = op_span(t, epoch, "replay.store");
    let gets: Vec<f64> = (0..STORE_GETS)
        .map(|_| {
            timed(t, epoch, op, "session.store", || {
                store.get(&snap.id).expect("live session")
            })
            .1
        })
        .collect();
    close(t, epoch, op);
    out.insert("session.store.get_us".into(), stats::median(&gets) * 1e3);

    // The session document renders the same measure body as /measure.
    let ecs0 = etcs[0].to_ecs();
    let report = analyzer.characterize(&ecs0).expect("characterize");
    let op = op_span(t, epoch, "replay.render");
    let json: Vec<f64> = (0..50)
        .map(|_| {
            timed(t, epoch, op, "serve.json", || {
                hc_serve::json::measure_body(&report, ecs0.task_names(), ecs0.machine_names())
            })
            .1
        })
        .collect();
    close(t, epoch, op);
    let layers = PatchLayers([
        stats::median(&http_ms),
        stats::median(&parse_ms),
        stats::median(&warm_ms[0]),
        stats::median(&json),
        out.get("obs.record_us").copied().unwrap_or(0.0) / 1e3,
    ]);
    (layers, counts)
}

/// Inserts the session-engine count metrics.
pub fn engine_metrics(c: &EngineCounts, out: &mut BTreeMap<String, f64>) {
    let per = |v: u64| stats::per_op(v as f64, c.edits);
    out.insert("session.warm_share".into(), per(c.warm));
    out.insert("session.fallbacks".into(), c.fallbacks as f64);
    out.insert("session.cutovers".into(), c.cutovers as f64);
    out.insert(
        "session.sinkhorn_iterations_per_edit".into(),
        per(c.sinkhorn_iterations),
    );
    out.insert(
        "session.svd_iterations_per_edit".into(),
        per(c.svd_iterations),
    );
}

/// Every replay a traced run makes, whatever its workload: the measure path
/// on `measure` (the run's own plan, or one generated from the seed), the
/// ensemble layers on `members`, and the sessions of `sessions`.
pub struct AllLayers {
    pub request: RequestLayers,
    pub patch: PatchLayers,
    pub ensemble_coverage: f64,
}

pub fn all(
    seed: u64,
    measure: &gen::MeasurePlan,
    members: &[Member],
    sessions_plan: &gen::SessionPlan,
    t: &mut Trace,
    epoch: Instant,
    out: &mut BTreeMap<String, f64>,
) -> AllLayers {
    let request = measure_requests(measure, seed, t, epoch, out);
    let ensemble_coverage = ensemble_layers(members, t, epoch, out);
    let (patch, engine) = sessions(sessions_plan, t, epoch, out);
    engine_metrics(&engine, out);
    AllLayers {
        request,
        patch,
        ensemble_coverage,
    }
}
