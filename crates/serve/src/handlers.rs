//! Pure endpoint logic: each handler maps a parsed [`Request`] to a
//! [`Response`] using the workspace's library crates, with no server state.
//! Caching, batching, metrics, and dispatch live in the router; keeping the
//! handlers pure makes them unit-testable without sockets.
//!
//! All analysis endpoints accept the same CSV ETC matrix format as the CLI
//! (`task,m1,m2\nt1,2.0,8.0\n…`) as the POST body, and CLI flags become query
//! parameters (`--ecs` → `?ecs=1`, `--zero-policy reg=1e-4` →
//! `?zero-policy=reg%3D1e-4`).

use std::cell::RefCell;
use std::str::FromStr;

use hc_core::ecs::{Ecs, Etc};
use hc_core::standard::{TmaOptions, ZeroPolicy};
use hc_core::Analyzer;
use hc_gen::cvb::{cvb, CvbParams};
use hc_gen::range_based::{range_based, RangeParams};
use hc_gen::targeted::{targeted, TargetSpec};
use hc_sched::exact::{optimal, simulated_annealing, tabu, SaParams, TabuParams};
use hc_sched::ga::{ga, GaParams};
use hc_sched::heuristics::{all_heuristics, Heuristic, HeuristicKind};
use hc_sched::problem::{makespan_lower_bound, MappingProblem};
use hc_sinkhorn::structure::analyze_structure;
use hc_spec::csv;

use crate::http::{ErrorDetails, HttpError, Request, Response};
use hc_core::error::MeasureError;
use hc_linalg::Budget;
use hc_obs::json;

/// Per-request context threaded from the router into every handler: the
/// cooperative cancellation budget (when a deadline applies) and the oversized
/// input limit. Handlers stay pure — the context carries only request-scoped
/// policy, never server state.
#[derive(Debug, Clone, Copy)]
pub struct ReqCtx<'a> {
    /// Deadline/cancellation budget for iterative kernels; `None` = unlimited.
    pub budget: Option<&'a Budget>,
    /// Largest accepted matrix size in cells (tasks × machines).
    pub max_cells: usize,
}

impl ReqCtx<'_> {
    /// A context with no deadline and the default cell limit (tests, tools).
    pub fn unlimited() -> Self {
        ReqCtx {
            budget: None,
            max_cells: 4_000_000,
        }
    }
}

/// Maps a measurement failure to its HTTP error: deadline expiry becomes a
/// typed `504` carrying partial-progress diagnostics, a repeated task or
/// machine name, or one holding a line break, a typed `400`, everything else
/// a plain `400`.
pub(crate) fn measure_error(e: MeasureError) -> HttpError {
    match e {
        MeasureError::DuplicateName { .. } => {
            HttpError::typed(400, "duplicate_name", e.to_string())
        }
        MeasureError::NameWithLineBreak { .. } => {
            HttpError::typed(400, "name_line_break", e.to_string())
        }
        MeasureError::DeadlineExceeded {
            op,
            iterations,
            residual,
        } => HttpError::typed(
            504,
            "deadline_exceeded",
            format!("deadline exceeded in {op} after {iterations} iterations"),
        )
        .with_details(ErrorDetails::Deadline {
            op,
            iterations,
            residual,
        }),
        other => HttpError::bad(other.to_string()),
    }
}

/// Rejects query parameters outside `allowed` so malformed requests fail loudly
/// and equivalent requests share one canonical cache key space.
pub fn check_allowed(req: &Request, allowed: &[&str]) -> Result<(), HttpError> {
    for key in req.query.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(HttpError::bad(format!(
                "unknown query parameter {key:?} (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn q_opt<T: FromStr>(req: &Request, name: &str) -> Result<Option<T>, HttpError> {
    match req.param(name) {
        None => Ok(None),
        Some(raw) => raw
            .parse::<T>()
            .map(Some)
            .map_err(|_| HttpError::bad(format!("query parameter {name}={raw:?} is malformed"))),
    }
}

fn q_or<T: FromStr>(req: &Request, name: &str, default: T) -> Result<T, HttpError> {
    Ok(q_opt(req, name)?.unwrap_or(default))
}

fn q_req<T: FromStr>(req: &Request, name: &str) -> Result<T, HttpError> {
    q_opt(req, name)?
        .ok_or_else(|| HttpError::bad(format!("missing required query parameter {name:?}")))
}

/// Rejects matrices above `max_cells` with a typed `422` — before any matrix
/// allocation, so an oversized request costs parsing-free line counting only.
fn check_cells(cells: usize, max_cells: usize) -> Result<(), HttpError> {
    if cells > max_cells {
        return Err(HttpError::typed(
            422,
            "matrix_too_large",
            format!("matrix of ~{cells} cells exceeds the limit of {max_cells} (--max-cells)"),
        ));
    }
    Ok(())
}

/// Parses the request body as a CSV matrix, honouring the `ecs` flag the same
/// way the CLI does (`?ecs=1` reinterprets entries as speeds, not times).
pub fn load_ecs(req: &Request, ctx: &ReqCtx<'_>) -> Result<Ecs, HttpError> {
    let text = req.body_text()?;
    if text.trim().is_empty() {
        return Err(HttpError::bad("empty body: expected a CSV ETC matrix"));
    }
    check_cells(csv::cell_count(text), ctx.max_cells)?;
    // Fail fast when the deadline already expired (e.g. spent in the request
    // queue): answering 504 before the CSV parse keeps the bound on 504
    // latency independent of body size.
    if let Some(b) = ctx.budget {
        b.check("parse", 0, f64::NAN)
            .map_err(|e| measure_error(MeasureError::from(e)))?;
    }
    let etc = csv::from_csv(text).map_err(measure_error)?;
    Ok(etc.into_ecs(req.has_param("ecs")))
}

fn tma_options(req: &Request) -> Result<TmaOptions, HttpError> {
    let mut opts = TmaOptions::default();
    if let Some(p) = req.param("zero-policy") {
        opts.zero_policy = ZeroPolicy::parse(p).map_err(HttpError::bad)?;
    }
    Ok(opts)
}

thread_local! {
    /// One long-lived [`Analyzer`] per thread. Pool worker threads run every
    /// handler, so the scratch workspace and cached uniform weights persist
    /// across requests: measuring a repeated matrix shape in steady state
    /// performs zero numeric heap allocations.
    static ANALYZER: RefCell<Analyzer> = RefCell::new(Analyzer::new());
}

/// `POST /measure` — MPH/TDH/TMA plus per-machine and per-task factors.
pub fn measure(req: &Request, ctx: &ReqCtx<'_>) -> Result<Response, HttpError> {
    check_allowed(req, &["ecs", "zero-policy"])?;
    let ecs = load_ecs(req, ctx)?;
    let opts = tma_options(req)?;
    ANALYZER.with(|cell| {
        let mut an = cell.borrow_mut();
        let r = an
            .characterize_budgeted(&ecs, None, &opts, ctx.budget)
            .map_err(measure_error)?;
        // One shared renderer with /batch items and session `measures`
        // objects — the three surfaces are goldened byte-for-byte.
        let json = crate::json::measure_body(&r, ecs.task_names(), ecs.machine_names());
        an.recycle_report(r);
        Ok(Response::json(json))
    })
}

/// `POST /structure` — zero-pattern / balanceability report.
pub fn structure(req: &Request, ctx: &ReqCtx<'_>) -> Result<Response, HttpError> {
    check_allowed(req, &["ecs"])?;
    let ecs = load_ecs(req, ctx)?;
    let rep = analyze_structure(ecs.matrix());
    Ok(Response::json(json::object(|o| {
        o.array("shape")
            .u64(rep.shape.0 as u64)
            .u64(rep.shape.1 as u64);
        o.u64("positive_entries", rep.positive_entries as u64)
            .u64("total_entries", (rep.shape.0 * rep.shape.1) as u64)
            .u64("matching_size", rep.matching_size as u64)
            .bool("has_support", rep.has_support)
            .bool("has_total_support", rep.has_total_support)
            .bool("fully_indecomposable", rep.fully_indecomposable)
            .bool("connected", rep.connected)
            .str("balanceability", &format!("{:?}", rep.balanceability));
    })))
}

/// `POST /generate` — synthesize an ETC matrix; returns `text/csv`.
///
/// `?mode=targeted|range|cvb` selects the generator; remaining parameters
/// mirror the CLI flags of `hcm generate`.
pub fn generate(req: &Request, ctx: &ReqCtx<'_>) -> Result<Response, HttpError> {
    let mode: String = q_req(req, "mode")?;
    // The cell guard applies before any generator runs: tasks × machines is
    // known from the query alone.
    if let (Ok(Some(t)), Ok(Some(m))) = (
        q_opt::<usize>(req, "tasks"),
        q_opt::<usize>(req, "machines"),
    ) {
        check_cells(t.saturating_mul(m), ctx.max_cells)?;
    }
    let etc: Etc = match mode.as_str() {
        "targeted" => {
            check_allowed(
                req,
                &[
                    "mode", "tasks", "machines", "mph", "tdh", "tma", "seed", "jitter",
                ],
            )?;
            let spec = TargetSpec {
                tasks: q_req(req, "tasks")?,
                machines: q_req(req, "machines")?,
                mph: q_req(req, "mph")?,
                tdh: q_req(req, "tdh")?,
                tma: q_req(req, "tma")?,
                jitter: q_or(req, "jitter", 0.5)?,
            };
            let seed: u64 = q_or(req, "seed", 0)?;
            targeted(&spec, seed)
                .map_err(|e| HttpError::bad(e.to_string()))?
                .to_etc()
        }
        "range" => {
            check_allowed(
                req,
                &["mode", "tasks", "machines", "rtask", "rmach", "seed"],
            )?;
            let params = RangeParams {
                tasks: q_req(req, "tasks")?,
                machines: q_req(req, "machines")?,
                r_task: q_or(req, "rtask", 100.0)?,
                r_mach: q_or(req, "rmach", 100.0)?,
            };
            range_based(&params, q_or(req, "seed", 0)?)
                .map_err(|e| HttpError::bad(e.to_string()))?
        }
        "cvb" => {
            check_allowed(
                req,
                &["mode", "tasks", "machines", "vtask", "vmach", "seed"],
            )?;
            let params = CvbParams::new(
                q_req(req, "tasks")?,
                q_req(req, "machines")?,
                q_or(req, "vtask", 0.3)?,
                q_or(req, "vmach", 0.3)?,
            );
            cvb(&params, q_or(req, "seed", 0)?).map_err(|e| HttpError::bad(e.to_string()))?
        }
        other => {
            return Err(HttpError::bad(format!(
                "unknown generate mode {other:?} (targeted | range | cvb)"
            )))
        }
    };
    Ok(Response::csv(csv::to_csv(&etc)))
}

/// `POST /schedule` — run mapping heuristics over the posted matrix.
///
/// `?heuristic=` accepts everything the CLI does: `all` (default), a named
/// heuristic (`min-min`, `sufferage`, `kpb=25`, …), or `ga`/`sa`/`tabu`/
/// `optimal`.
pub fn schedule(req: &Request, ctx: &ReqCtx<'_>) -> Result<Response, HttpError> {
    check_allowed(req, &["ecs", "heuristic"])?;
    let ecs = load_ecs(req, ctx)?;
    let etc = ecs.to_etc();
    let p = MappingProblem::from_etc(&etc);
    let which = req.param("heuristic").unwrap_or("all");

    let lib_err = |e: hc_core::error::MeasureError| HttpError::bad(e.to_string());
    let mut rows: Vec<(String, hc_sched::Schedule)> = Vec::new();
    match which {
        "all" => {
            for h in all_heuristics() {
                rows.push((h.name().to_string(), h.map(&p).map_err(lib_err)?));
            }
            rows.push(("GA".into(), ga(&p, &GaParams::default()).map_err(lib_err)?));
            rows.push((
                "SA".into(),
                simulated_annealing(&p, &SaParams::default()).map_err(lib_err)?,
            ));
        }
        "ga" => rows.push(("GA".into(), ga(&p, &GaParams::default()).map_err(lib_err)?)),
        "sa" => rows.push((
            "SA".into(),
            simulated_annealing(&p, &SaParams::default()).map_err(lib_err)?,
        )),
        "tabu" => rows.push((
            "Tabu".into(),
            tabu(&p, &TabuParams::default()).map_err(lib_err)?,
        )),
        "optimal" => rows.push(("optimal".into(), optimal(&p, 1e7).map_err(lib_err)?)),
        named => {
            let h = named.parse::<HeuristicKind>().map_err(HttpError::bad)?;
            rows.push((h.name().to_string(), h.map(&p).map_err(lib_err)?));
        }
    }

    let mut makespans = Vec::with_capacity(rows.len());
    let mut best: Option<(&str, f64, &hc_sched::Schedule)> = None;
    for (name, s) in &rows {
        let mk = s.makespan(&p).map_err(lib_err)?;
        makespans.push((name, mk));
        if best.is_none() || mk < best.expect("set").1 {
            best = Some((name, mk, s));
        }
    }
    Ok(Response::json(json::object(|o| {
        o.u64("tasks", p.num_tasks() as u64)
            .u64("machines", p.num_machines() as u64)
            .f64("lower_bound", makespan_lower_bound(&p));
        {
            let mut results = o.object("results");
            for (name, mk) in &makespans {
                results.f64(name, *mk);
            }
        }
        match best {
            Some((name, mk, s)) => {
                let mut entry = o.object("best");
                entry.str("name", name).f64("makespan", mk);
                let mut assignment = entry.object("assignment");
                for (i, &j) in s.assignment.iter().enumerate() {
                    assignment.str(&etc.task_names()[i], &etc.machine_names()[j]);
                }
            }
            None => {
                o.null("best");
            }
        }
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    const SAMPLE: &str = "task,m1,m2\nt1,2.0,8.0\nt2,6.0,3.0\n";

    fn post(query: &[(&str, &str)], body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: "/x".into(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect::<BTreeMap<_, _>>(),
            body: body.as_bytes().to_vec(),
            request_id: None,
            timeout_ms: None,
            traceparent: None,
            if_match: None,
            malformed_headers: Vec::new(),
        }
    }

    fn ctx() -> ReqCtx<'static> {
        ReqCtx::unlimited()
    }

    fn body_text(r: &Response) -> String {
        String::from_utf8(r.body.as_slice().to_vec()).unwrap()
    }

    #[test]
    fn measure_returns_json_report() {
        let r = measure(&post(&[], SAMPLE), &ctx()).unwrap();
        assert_eq!(r.status, 200);
        let b = body_text(&r);
        assert!(b.contains("\"mph\":"), "{b}");
        assert!(b.contains("\"tma\":"));
        assert!(b.contains("\"m2\":"));
        assert!(b.contains("\"t1\":"));
    }

    #[test]
    fn warm_measure_reuses_worker_analyzer() {
        let req = post(&[], SAMPLE);
        // Cold call populates this thread's analyzer pool.
        measure(&req, &ctx()).unwrap();
        ANALYZER.with(|c| c.borrow_mut().reset_stats());
        let r = measure(&req, &ctx()).unwrap();
        assert_eq!(r.status, 200);
        ANALYZER.with(|c| {
            let stats = c.borrow().stats();
            assert_eq!(
                stats.fresh, 0,
                "warm /measure must draw every numeric buffer from the pool: {stats:?}"
            );
        });
    }

    #[test]
    fn measure_zero_policy_and_errors() {
        let hard = "task,m1,m2\nt1,1.0,inf\nt2,1.0,1.0\n";
        let strict = measure(&post(&[("zero-policy", "strict")], hard), &ctx());
        assert!(strict.is_err());
        let limit = measure(&post(&[("zero-policy", "limit")], hard), &ctx()).unwrap();
        assert!(body_text(&limit).contains("\"reduced_to_core\":true"));
        assert!(measure(&post(&[("zero-policy", "bogus")], SAMPLE), &ctx()).is_err());
        assert!(measure(&post(&[], ""), &ctx()).is_err());
        assert!(measure(&post(&[("frobnicate", "1")], SAMPLE), &ctx()).is_err());
    }

    #[test]
    fn structure_reports_pattern() {
        let hard = "task,m1,m2\nt1,1.0,inf\nt2,1.0,1.0\n";
        let r = structure(&post(&[], hard), &ctx()).unwrap();
        let b = body_text(&r);
        assert!(b.contains("\"has_support\":true"), "{b}");
        assert!(b.contains("\"has_total_support\":false"));
        assert!(b.contains("LimitOnly"));
    }

    #[test]
    fn generate_targeted_round_trips_through_measure() {
        let q = [
            ("mode", "targeted"),
            ("tasks", "6"),
            ("machines", "4"),
            ("mph", "0.7"),
            ("tdh", "0.6"),
            ("tma", "0.2"),
            ("seed", "3"),
        ];
        let gen_resp = generate(&post(&q, ""), &ctx()).unwrap();
        assert_eq!(gen_resp.content_type, "text/csv");
        let csv_text = body_text(&gen_resp);
        let m = measure(&post(&[], &csv_text), &ctx()).unwrap();
        let b = body_text(&m);
        assert!(b.contains("\"mph\":0.7"), "{b}");
        assert!(b.contains("\"tma\":0.2"), "{b}");
    }

    #[test]
    fn generate_validates() {
        assert!(generate(&post(&[], ""), &ctx()).is_err());
        assert!(generate(&post(&[("mode", "bogus")], ""), &ctx()).is_err());
        assert!(generate(&post(&[("mode", "range"), ("tasks", "4")], ""), &ctx()).is_err());
        assert!(generate(
            &post(&[("mode", "range"), ("tasks", "x"), ("machines", "3")], ""),
            &ctx()
        )
        .is_err());
        let ok = generate(
            &post(&[("mode", "cvb"), ("tasks", "4"), ("machines", "3")], ""),
            &ctx(),
        )
        .unwrap();
        assert_eq!(body_text(&ok).lines().count(), 5);
    }

    #[test]
    fn oversized_matrix_rejected_before_parsing() {
        let limit = |max_cells| ReqCtx {
            budget: None,
            max_cells,
        };
        // SAMPLE is 2×2: four cells pass a limit of four.
        assert!(measure(&post(&[], SAMPLE), &limit(4)).is_ok());
        let small = limit(3);
        let err = measure(&post(&[], SAMPLE), &small).unwrap_err();
        assert_eq!(err.status, 422);
        assert_eq!(err.code, Some("matrix_too_large"));
        // The same limit guards /generate from its query parameters alone.
        let q = [("mode", "cvb"), ("tasks", "4"), ("machines", "3")];
        let err = generate(&post(&q, ""), &small).unwrap_err();
        assert_eq!(err.status, 422);
        assert_eq!(err.code, Some("matrix_too_large"));
        assert!(generate(&post(&q, ""), &ctx()).is_ok());
    }

    #[test]
    fn expired_deadline_maps_to_typed_504() {
        let expired = Budget::with_deadline(std::time::Duration::ZERO);
        let c = ReqCtx {
            budget: Some(&expired),
            max_cells: 4_000_000,
        };
        let err = measure(&post(&[], SAMPLE), &c).unwrap_err();
        assert_eq!(err.status, 504);
        assert_eq!(err.code, Some("deadline_exceeded"));
        let body = body_text(&err.to_response());
        assert!(body.contains("\"iterations_completed\":"), "{body}");
        assert!(body.contains("\"residual\":"), "{body}");
        assert!(body.contains("\"op\":"), "{body}");
    }

    #[test]
    fn deadline_body_is_pinned() {
        let body = |e: HttpError| String::from_utf8(e.to_response().body.as_slice().to_vec());
        let e = measure_error(MeasureError::DeadlineExceeded {
            op: "sinkhorn",
            iterations: 12,
            residual: 1.5e-3,
        });
        assert_eq!(e.status, 504);
        assert_eq!(
            body(e).unwrap(),
            "{\"error\":\"deadline exceeded in sinkhorn after 12 iterations\",\
             \"code\":\"deadline_exceeded\",\"op\":\"sinkhorn\",\
             \"iterations_completed\":12,\"residual\":1.5e-3}"
        );
        // An untracked residual is null; a whole one keeps the `{:e}` form.
        let untracked = measure_error(MeasureError::DeadlineExceeded {
            op: "parse",
            iterations: 0,
            residual: f64::NAN,
        });
        assert!(body(untracked)
            .unwrap()
            .ends_with("\"op\":\"parse\",\"iterations_completed\":0,\"residual\":null}"));
        let whole = measure_error(MeasureError::DeadlineExceeded {
            op: "svd",
            iterations: 3,
            residual: 1.0,
        });
        assert!(body(whole).unwrap().ends_with("\"residual\":1e0}"));
    }

    #[test]
    fn repeated_names_answer_typed_400() {
        let dup = "task,m1,m1\nt1,1,2\nt1,3,1\n";
        for (endpoint, handler) in [
            ("measure", measure as fn(&Request, &ReqCtx<'_>) -> _),
            ("structure", structure),
            ("schedule", schedule),
        ] {
            let err = handler(&post(&[], dup), &ctx()).unwrap_err();
            assert_eq!(
                (err.status, err.code),
                (400, Some("duplicate_name")),
                "{endpoint}"
            );
            assert_eq!(
                body_text(&err.to_response()),
                "{\"error\":\"invalid HC environment: task name \\\"t1\\\" appears twice \
                 (tasks 1 and 2); names must be unique\",\"code\":\"duplicate_name\"}",
                "{endpoint}"
            );
        }
        let one_empty = measure(&post(&[("ecs", "1")], "task,a,\nt1,1,2\nt2,3,1\n"), &ctx());
        assert!(one_empty.is_ok(), "distinct names, one empty, are accepted");
        let err = measure(&post(&[], "task,,\nt1,1,2\nt2,3,1\n"), &ctx()).unwrap_err();
        assert_eq!(err.code, Some("duplicate_name"));
        assert!(err
            .message
            .contains("machine name \"\" appears twice (machines 1 and 2)"));
    }

    #[test]
    fn names_with_line_breaks_answer_typed_400() {
        let err = measure_error(MeasureError::NameWithLineBreak {
            axis: "task",
            name: "a\nb".into(),
            position: 3,
        });
        assert_eq!(
            body_text(&err.to_response()),
            "{\"error\":\"invalid HC environment: task name \\\"a\\\\nb\\\" (task 3) holds a \
             line break; a name must fit on one CSV line\",\"code\":\"name_line_break\"}"
        );
        assert_eq!(err.status, 400);
    }

    #[test]
    fn schedule_all_and_named() {
        let r = schedule(&post(&[], SAMPLE), &ctx()).unwrap();
        let b = body_text(&r);
        assert!(b.contains("\"Min-Min\":"), "{b}");
        assert!(b.contains("\"GA\":"));
        assert!(b.contains("\"best\":{\"name\":"));
        assert!(b.contains("\"t1\":\"m1\""));
        let one = schedule(&post(&[("heuristic", "optimal")], SAMPLE), &ctx()).unwrap();
        // Optimal on this 2x2: t1->m1 (2), t2->m2 (3) → makespan 3.
        assert!(
            body_text(&one).contains("\"makespan\":3"),
            "{}",
            body_text(&one)
        );
        assert!(schedule(&post(&[("heuristic", "bogus")], SAMPLE), &ctx()).is_err());
    }
}
