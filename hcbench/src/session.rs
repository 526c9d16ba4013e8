//! `session_edits`: an open loop of `PATCH /session/{id}/etc` edits and
//! `GET /session/{id}` reads against four live sessions.

use crate::gen::{self, SessionPlan};
use crate::http::{self, Response};
use crate::json::{self, Json};
use crate::live::{self, Planned};
use crate::metrics::Outcome;
use crate::replay::{self, EngineCounts};
use crate::server::{self, Server};
use crate::trace::Trace;
use crate::{procfs, stats, Args};
use hc_core::ecs::Etc;
use std::collections::BTreeMap;
use std::time::Instant;

/// Server starts (each creating the four sessions) per run.
pub const SETUP_REPEATS: usize = 9;
/// Allowed distance between a session's final measures and a cold
/// `characterize` of the matrix rebuilt from the same edits.
const FINAL_TOL: f64 = 1e-9;

/// A session document's id, version, measures and recompute stats.
#[derive(Debug, Clone)]
pub struct Doc {
    pub id: String,
    pub version: u64,
    pub measures: [f64; 3],
    pub warm: bool,
    pub fallback: bool,
    pub cutover: bool,
    pub sinkhorn_iterations: u64,
    pub svd_iterations: u64,
}

pub fn parse_doc(body: &str) -> Result<Doc, String> {
    let v = json::parse(body)?;
    let num = |path: &[&str]| {
        v.path(path)
            .and_then(Json::as_f64)
            .ok_or(format!("session document lacks {path:?}"))
    };
    let flag = |k: &str| {
        v.path(&["recompute", k])
            .and_then(Json::as_bool)
            .unwrap_or(false)
    };
    let count = |k: &str| {
        v.path(&["recompute", k])
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    Ok(Doc {
        id: v
            .get("id")
            .and_then(Json::as_str)
            .ok_or("session document lacks id")?
            .to_string(),
        version: v
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("session document lacks version")?,
        measures: [
            num(&["measures", "mph"])?,
            num(&["measures", "tdh"])?,
            num(&["measures", "tma"])?,
        ],
        warm: flag("warm"),
        fallback: flag("fallback"),
        cutover: flag("cutover"),
        sinkhorn_iterations: count("sinkhorn_iterations"),
        svd_iterations: count("svd_iterations"),
    })
}

/// Creates the plan's sessions; returns their creation documents.
fn create_sessions(server: &Server, plan: &SessionPlan) -> Result<Vec<Doc>, String> {
    plan.creates
        .iter()
        .map(|csv| {
            let req = http::request(
                "POST",
                "/session",
                &[("Content-Type", "text/csv".into())],
                csv.as_bytes(),
            );
            let r = http::once(&server.addr, &req).map_err(|e| format!("POST /session: {e}"))?;
            if r.status != 200 {
                return Err(format!("POST /session answered {}", r.status));
            }
            let doc = parse_doc(r.body_text())?;
            if doc.version != 1 {
                return Err(format!("new session at version {}", doc.version));
            }
            Ok(doc)
        })
        .collect()
}

/// One live phase: creates nothing, drives the plan against `sessions`.
struct SessionLive {
    phase: live::LivePhase<Doc>,
    /// Documents by (session, version), from creates and PATCH responses.
    by_version: BTreeMap<(usize, u64), [u64; 3]>,
    mismatched_reads: u64,
    final_error: f64,
    peak_rss_mb: f64,
}

fn bits(m: &[f64; 3]) -> [u64; 3] {
    [m[0].to_bits(), m[1].to_bits(), m[2].to_bits()]
}

fn drive(
    server: &Server,
    plan: &SessionPlan,
    created: &[Doc],
    tracing: bool,
) -> Result<SessionLive, String> {
    let n_patch = plan.patches.len();
    let patch_reqs: Vec<Vec<u8>> = plan
        .patches
        .iter()
        .map(|p| {
            http::request(
                "PATCH",
                &format!("/session/{}/etc", created[p.session].id),
                &[("If-Match", p.version.to_string())],
                p.body.as_bytes(),
            )
        })
        .collect();
    let get_reqs: Vec<Vec<u8>> = created
        .iter()
        .map(|d| http::request("GET", &format!("/session/{}", d.id), &[], b""))
        .collect();
    let mut plans = vec![Vec::new(), Vec::new()];
    for (k, p) in plan.patches.iter().enumerate() {
        plans[0].push(Planned {
            at_ns: p.at_ns,
            bytes: &patch_reqs[k],
            tag: k,
        });
    }
    for (k, g) in plan.gets.iter().enumerate() {
        plans[1].push(Planned {
            at_ns: g.at_ns,
            bytes: &get_reqs[g.session],
            tag: n_patch + k,
        });
    }
    let inspect = |tag: usize, r: &Response| -> Result<Doc, String> {
        let doc = parse_doc(r.body_text())?;
        if tag < n_patch {
            let p = &plan.patches[tag];
            if doc.version != p.version + 1 {
                return Err(format!(
                    "PATCH answered version {} for If-Match {}",
                    doc.version, p.version
                ));
            }
        }
        Ok(doc)
    };
    let phase = live::phase(server, &plans, &inspect, tracing)?;
    let peak_rss_mb = procfs::peak_rss_mib(server.pid).ok_or("no VmHWM for the server")?;

    let mut by_version = BTreeMap::new();
    for (s, d) in created.iter().enumerate() {
        by_version.insert((s, 1), bits(&d.measures));
    }
    for smp in phase.samples.iter().filter(|s| s.tag < n_patch) {
        if let Ok(d) = &smp.result {
            by_version.insert(
                (plan.patches[smp.tag].session, d.version),
                bits(&d.measures),
            );
        }
    }
    // A read returns the snapshot of some version; its measures must be the
    // ones the write of that version answered, bit for bit.
    let mut mismatched_reads = 0;
    for smp in phase.samples.iter().filter(|s| s.tag >= n_patch) {
        if let Ok(d) = &smp.result {
            let session = plan.gets[smp.tag - n_patch].session;
            if by_version
                .get(&(session, d.version))
                .is_some_and(|b| *b != bits(&d.measures))
            {
                mismatched_reads += 1;
            }
        }
    }
    // Each session's final state against a cold characterize of the matrix
    // rebuilt from the same edits.
    let mut final_error = 0.0f64;
    for (s, d) in created.iter().enumerate() {
        let r = live::get_ok(&server.addr, &format!("/session/{}", d.id))?;
        let doc = parse_doc(r.body_text())?;
        let edits = plan.patches.iter().filter(|p| p.session == s).count() as u64;
        if doc.version != 1 + edits {
            return Err(format!(
                "session {s} ended at version {} after {edits} edits",
                doc.version
            ));
        }
        let ecs = Etc::new(plan.finals[s].clone())
            .map_err(|e| e.to_string())?
            .to_ecs();
        let cold = hc_core::characterize(&ecs).map_err(|e| e.to_string())?;
        for (a, b) in doc.measures.iter().zip([cold.mph, cold.tdh, cold.tma]) {
            final_error = final_error.max((a - b).abs());
        }
    }
    Ok(SessionLive {
        phase,
        by_version,
        mismatched_reads,
        final_error,
        peak_rss_mb,
    })
}

/// Recompute counts from the PATCH responses.
fn live_counts(ph: &live::LivePhase<Doc>, n_patch: usize) -> EngineCounts {
    let mut c = EngineCounts::default();
    for d in ph
        .samples
        .iter()
        .filter(|s| s.tag < n_patch)
        .filter_map(|s| s.result.as_ref().ok())
    {
        c.edits += 1;
        c.warm += d.warm as u64;
        c.fallbacks += d.fallback as u64;
        c.cutovers += d.cutover as u64;
        c.sinkhorn_iterations += d.sinkhorn_iterations;
        c.svd_iterations += d.svd_iterations;
    }
    c
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let plan = gen::session_plan(args.seed, args.seconds as f64);
    let n_patch = plan.patches.len();
    let (srv, created, setup_s) =
        live::start_repeated(&args.hcm, SETUP_REPEATS, |s| create_sessions(s, &plan))?;
    let run = drive(&srv, &plan, &created, false);
    srv.stop();
    let run = run?;
    let ph = &run.phase;
    let failures = ph.failures();
    for f in failures.iter().take(5) {
        eprintln!("hcbench: session_edits failure: {f}");
    }
    let final_ok = run.final_error <= FINAL_TOL;
    if !final_ok {
        eprintln!(
            "hcbench: session_edits: final measures off a cold characterize by {:e}",
            run.final_error
        );
    }
    let check_failures = run.mismatched_reads + u64::from(!final_ok);
    let mut out = Outcome {
        correct: failures.is_empty() && check_failures == 0,
        attempted: ph.samples.len() as u64,
        failed: failures.len() as u64 + check_failures,
        ..Default::default()
    };
    let e2e = &mut out.end_to_end;
    // Whole-run figures: a calm quarter of the slices holds too few PATCHes
    // for a steady median, and too few of the costly 128×128 ones to keep
    // the run's mix of CPU.
    e2e.insert("p50_ms".into(), ph.p50_ms(|s| s.tag < n_patch));
    e2e.insert("read_p50_ms".into(), ph.p50_ms(|s| s.tag >= n_patch));
    e2e.insert("ops_per_s".into(), ph.ok_count() as f64 / ph.wall_s);
    e2e.insert("cpu_ms_per_op".into(), ph.cpu_ms_per_op());
    e2e.insert("setup_s".into(), setup_s);
    e2e.insert("peak_rss_mb".into(), run.peak_rss_mb);

    println!("{}", ph.health("session_edits"));
    let c = live_counts(ph, n_patch);
    println!(
        "hcbench counts [session_edits seed={}]: cache_hits={} sinkhorn_iterations={} svd_iterations={} \
         warm_share={:.6} fallbacks={} cutovers={} versions_seen={} final_max_error={:e}",
        args.seed,
        ph.cache_hits(),
        c.sinkhorn_iterations,
        c.svd_iterations,
        stats::per_op(c.warm as f64, c.edits),
        server::counter(&ph.metrics_after, &["sessions", "warm_fallbacks_total"]),
        server::counter(&ph.metrics_after, &["sessions", "warm_cutovers_total"]),
        run.by_version.len(),
        run.final_error
    );

    if args.trace {
        let srv = Server::start(&args.hcm)?;
        let traced = create_sessions(&srv, &plan).and_then(|docs| drive(&srv, &plan, &docs, true));
        srv.stop();
        let traced = traced?;
        let layers = &mut out.per_layer;
        traced.phase.layer_metrics(layers);
        let untraced_p50 = out.end_to_end["p50_ms"];
        layers.insert(
            "trace.overhead".into(),
            traced.phase.p50_ms(|s| s.tag < n_patch) - untraced_p50,
        );
        let mut rt = Trace::default();
        let all = replay::all(
            args.seed,
            &gen::measure_plan(args.seed, 1.0),
            &gen::ensemble(args.seed),
            &plan,
            &mut rt,
            Instant::now(),
            layers,
        );
        // The engine counts of this workload come from its own PATCH bodies.
        replay::engine_metrics(&c, layers);
        layers.insert(
            "trace.coverage".into(),
            stats::coverage(&all.patch.0, untraced_p50),
        );
        crate::write_traces(args, &traced.phase.trace, &rt);
        println!("{}", traced.phase.health("session_edits traced"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_captured_session_document() {
        let body = r#"{"id":"s-1a","version":3,"measures":{"mph":0.5,"tdh":0.25,"tma":0.125,"machine_performances":{"m1":1}},"recompute":{"warm":true,"fallback":false,"cutover":false,"sinkhorn_iterations":4,"svd_iterations":2}}"#;
        let d = parse_doc(body).unwrap();
        assert_eq!((d.id.as_str(), d.version), ("s-1a", 3));
        assert_eq!(d.measures, [0.5, 0.25, 0.125]);
        assert!(d.warm && !d.fallback && !d.cutover);
        assert_eq!((d.sinkhorn_iterations, d.svd_iterations), (4, 2));
        assert!(parse_doc("{\"version\":1}").is_err());
    }
}
