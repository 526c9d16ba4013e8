//! `measure_small`: an open loop of paper-scale `POST /measure` requests
//! against `hcm serve`, Poisson-paced at a fixed rate over two keep-alive
//! connections, with re-posts of recent bodies.

use crate::gen::{self, MeasurePlan, CONNS};
use crate::http::{self, Response};
use crate::live::{self, Planned};
use crate::metrics::Outcome;
use crate::server::Server;
use crate::trace::Trace;
use crate::{procfs, replay, Args};
use hc_core::Analyzer;
use std::collections::BTreeMap;
use std::time::Instant;

/// Server starts per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// The first number after `key` in a response body (e.g. `"mph":`).
fn number_after(body: &str, key: &str) -> Option<f64> {
    let start = body.find(key)? + key.len();
    let rest = &body[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}

/// MPH, TDH and TMA of a measure document, as bit patterns.
pub fn measure_bits(body: &str) -> Option<[u64; 3]> {
    Some([
        number_after(body, "\"mph\":")?.to_bits(),
        number_after(body, "\"tdh\":")?.to_bits(),
        number_after(body, "\"tma\":")?.to_bits(),
    ])
}

/// The library's MPH/TDH/TMA for every body, computed before the timed
/// phase: CSV parse, ETC → ECS, `Analyzer::characterize`, as the server does.
pub fn expected_bits(bodies: &[String]) -> Vec<[u64; 3]> {
    let half = bodies.len().div_ceil(2).max(1);
    std::thread::scope(|s| {
        let parts: Vec<_> = bodies
            .chunks(half)
            .map(|chunk| {
                s.spawn(move || {
                    let mut an = Analyzer::new();
                    chunk
                        .iter()
                        .map(|b| {
                            let ecs = hc_spec::csv::from_csv(b).expect("own CSV parses").to_ecs();
                            let r = an
                                .characterize(&ecs)
                                .expect("generated bodies characterize");
                            let bits = [r.mph.to_bits(), r.tdh.to_bits(), r.tma.to_bits()];
                            an.recycle_report(r);
                            bits
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("expectation thread panicked"))
            .collect()
    })
}

/// What one live `measure_small` phase measured.
pub struct MeasureLive {
    pub phase: live::LivePhase<()>,
    pub peak_rss_mb: f64,
}

/// Runs the plan once against `server`.
pub fn drive(
    server: &Server,
    plan: &MeasurePlan,
    requests: &[Vec<u8>],
    expected: &[[u64; 3]],
    tracing: bool,
) -> Result<MeasureLive, String> {
    let mut plans = vec![Vec::new(); CONNS];
    for (k, p) in plan.posts.iter().enumerate() {
        plans[p.conn].push(Planned {
            at_ns: p.at_ns,
            bytes: &requests[p.body],
            tag: k,
        });
    }
    let inspect = |tag: usize, r: &Response| -> Result<(), String> {
        let body = plan.posts[tag].body;
        match measure_bits(r.body_text()) {
            Some(bits) if bits == expected[body] => Ok(()),
            Some(_) => Err(format!(
                "body {body}: MPH/TDH/TMA differ from the library's"
            )),
            None => Err(format!("body {body}: no MPH/TDH/TMA in the response")),
        }
    };
    let phase = live::phase(server, &plans, &inspect, tracing)?;
    let peak_rss_mb = procfs::peak_rss_mib(server.pid).ok_or("no VmHWM for the server")?;
    Ok(MeasureLive { phase, peak_rss_mb })
}

/// The request bytes of every body.
pub fn requests(plan: &MeasurePlan) -> Vec<Vec<u8>> {
    plan.bodies
        .iter()
        .map(|b| {
            http::request(
                "POST",
                "/measure",
                &[("Content-Type", "text/csv".into())],
                b.as_bytes(),
            )
        })
        .collect()
}

/// A short measure_small-shaped phase on a fresh server, for the serving
/// rows of a workload that has no server of its own.
pub fn serving_probe(
    args: &Args,
    seconds: f64,
    out: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let plan = gen::measure_plan(args.seed, seconds);
    let expected = expected_bits(&plan.bodies);
    let reqs = requests(&plan);
    let server = Server::start(&args.hcm)?;
    let live = drive(&server, &plan, &reqs, &expected, false)?;
    server.stop();
    if !live.phase.failures().is_empty() {
        return Err(format!(
            "serving probe failed: {:?}",
            live.phase.failures().first()
        ));
    }
    live.phase.layer_metrics(out);
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let plan = gen::measure_plan(args.seed, args.seconds as f64);
    let expected = expected_bits(&plan.bodies);
    let reqs = requests(&plan);

    let (server, (), setup_s) = live::start_repeated(&args.hcm, SETUP_REPEATS, |_| Ok(()))?;
    let run = drive(&server, &plan, &reqs, &expected, false);
    server.stop();
    let run = run?;
    let ph = &run.phase;
    let failures = ph.failures();
    for f in failures.iter().take(5) {
        eprintln!("hcbench: measure_small failure: {f}");
    }
    let mut out = Outcome {
        correct: failures.is_empty(),
        attempted: ph.samples.len() as u64,
        failed: failures.len() as u64,
        ..Default::default()
    };
    let e2e = &mut out.end_to_end;
    e2e.insert("p50_ms".into(), ph.calm_p50_ms(|_| true));
    e2e.insert(
        "read_p50_ms".into(),
        ph.calm_p50_ms(|s| plan.posts[s.tag].repost),
    );
    e2e.insert("ops_per_s".into(), ph.ok_count() as f64 / ph.wall_s);
    e2e.insert("cpu_ms_per_op".into(), ph.calm_cpu_ms_per_op());
    e2e.insert("setup_s".into(), setup_s);
    e2e.insert("peak_rss_mb".into(), run.peak_rss_mb);

    println!("{}", ph.health("measure_small"));
    let (sinkhorn, svd) = ph.solver_iterations();
    let reposts = plan.posts.iter().filter(|p| p.repost).count();
    let client_hits = ph
        .samples
        .iter()
        .filter(|s| s.cache_hit == Some(true))
        .count();
    println!(
        "hcbench counts [measure_small seed={}]: cache_hits={} reposts={reposts} x_cache_hits={client_hits} \
         sinkhorn_iterations={sinkhorn} svd_iterations={svd}",
        args.seed,
        ph.cache_hits()
    );

    if args.trace {
        let server = Server::start(&args.hcm)?;
        let traced = drive(&server, &plan, &reqs, &expected, true);
        server.stop();
        let traced = traced?;
        let layers = &mut out.per_layer;
        traced.phase.layer_metrics(layers);
        let untraced_p50 = out.end_to_end["p50_ms"];
        layers.insert(
            "trace.overhead".into(),
            traced.phase.calm_p50_ms(|_| true) - untraced_p50,
        );
        let mut rt = Trace::default();
        let all = replay::all(
            args.seed,
            &plan,
            &gen::ensemble(args.seed),
            &gen::session_plan(args.seed, args.seconds as f64),
            &mut rt,
            Instant::now(),
            layers,
        );
        layers.insert(
            "trace.coverage".into(),
            crate::stats::coverage(&all.request.0, untraced_p50),
        );
        crate::write_traces(args, &traced.phase.trace, &rt);
        println!("{}", traced.phase.health("measure_small traced"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_measure_bits_from_a_captured_body() {
        let body = r#"{"mph":0.8200000000003559,"tdh":0.9,"tma":0.06999999988929362,"machine_performances":{"m1":0.02}}"#;
        let bits = measure_bits(body).unwrap();
        assert_eq!(f64::from_bits(bits[0]), 0.8200000000003559);
        assert_eq!(f64::from_bits(bits[1]), 0.9);
        assert_eq!(f64::from_bits(bits[2]), 0.06999999988929362);
        assert_eq!(measure_bits("{\"error\":\"x\"}"), None);
    }
}
