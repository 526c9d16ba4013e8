//! `ensemble_large`: a seeded ensemble of large matrices through the public
//! `hc_core` API, in process, on one thread, back to back.

use crate::gen::{self, Member};
use crate::metrics::{Outcome, SHAPES};
use crate::trace::Trace;
use crate::{measure, procfs, replay, stats, Args};
use hc_core::standard::TmaOptions;
use hc_core::Analyzer;
use hc_gen::rng::Rng;
use hc_linalg::svd::SvdAlgorithm;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Members checked against the Jacobi oracle.
const ORACLE_SAMPLE: usize = 4;
/// The oracle's tolerance on TMA.
const ORACLE_TOL: f64 = 1e-12;
/// Length of the serving probe of a traced run, seconds.
const PROBE_SECONDS: f64 = 3.0;
/// The shape whose median call latency is `p50_ms`.
const P50_SHAPE: (usize, usize) = (128, 128);

/// One characterized member.
struct Timed {
    shape: (usize, usize),
    ms: f64,
}

/// A measure is a homogeneity or affinity: finite and in `[0, 1]`.
fn in_range(v: f64) -> bool {
    (0.0..=1.0).contains(&v)
}

fn svd_iteration_counter() -> u64 {
    [
        "linalg_svd_jacobi_sweeps_total",
        "linalg_svd_gr_iterations_total",
    ]
    .iter()
    .map(|n| hc_obs::metrics::counter_value(n).unwrap_or(0))
    .sum()
}

/// What a timed loop over the ensemble produced.
struct Passes {
    timed: Vec<Timed>,
    passes: usize,
    cpu_s: f64,
    out_of_range: u64,
    /// Sinkhorn and SVD iterations of the first pass.
    first_pass_iterations: (u64, u64),
}

/// Whole passes over the ensemble until `seconds` have passed (or exactly
/// `fixed_passes` passes), optionally with one span per call.
fn passes(
    an: &mut Analyzer,
    members: &[Member],
    seconds: f64,
    fixed_passes: Option<usize>,
    mut trace: Option<&mut Trace>,
) -> Passes {
    let pid = std::process::id();
    let cpu0 = procfs::process_cpu_s(pid).unwrap_or(0.0);
    let t0 = Instant::now();
    let mut out = Passes {
        timed: Vec::new(),
        passes: 0,
        cpu_s: 0.0,
        out_of_range: 0,
        first_pass_iterations: (0, 0),
    };
    loop {
        let svd0 = svd_iteration_counter();
        let mut sinkhorn = 0u64;
        let pass_span = trace.as_deref_mut().map(|t| {
            let now = t0.elapsed().as_nanos() as u64;
            t.push(None, "ensemble.pass", now, now)
        });
        for m in members {
            let a = Instant::now();
            let r = an.characterize(&m.ecs);
            let b = Instant::now();
            if let (Some(t), Some(parent)) = (trace.as_deref_mut(), pass_span) {
                let ns = |x: Instant| x.duration_since(t0).as_nanos() as u64;
                t.push(Some(parent), "core.characterize", ns(a), ns(b));
            }
            match r {
                Ok(r) => {
                    if !(in_range(r.mph) && in_range(r.tdh) && in_range(r.tma)) {
                        if out.passes == 0 {
                            eprintln!(
                                "hcbench: ensemble_large: {:?} member out of [0, 1]: mph={} tdh={} tma={}",
                                m.shape, r.mph, r.tdh, r.tma
                            );
                        }
                        out.out_of_range += 1;
                    }
                    sinkhorn += r.standardization_iterations as u64;
                    an.recycle_report(r);
                }
                Err(e) => {
                    if out.passes == 0 {
                        eprintln!("hcbench: ensemble_large: {:?} member failed: {e}", m.shape);
                    }
                    out.out_of_range += 1;
                }
            }
            out.timed.push(Timed {
                shape: m.shape,
                ms: b.duration_since(a).as_secs_f64() * 1e3,
            });
        }
        if let (Some(t), Some(id)) = (trace.as_deref_mut(), pass_span) {
            t.spans[id].end_ns = t0.elapsed().as_nanos() as u64;
        }
        if out.passes == 0 {
            out.first_pass_iterations = (sinkhorn, svd_iteration_counter() - svd0);
        }
        out.passes += 1;
        let done = match fixed_passes {
            Some(n) => out.passes >= n,
            None => t0.elapsed().as_secs_f64() >= seconds,
        };
        if done {
            break;
        }
    }
    out.cpu_s = procfs::process_cpu_s(pid).unwrap_or(0.0) - cpu0;
    out
}

impl Passes {
    fn p50_ms(&self, keep: impl Fn(&Timed) -> bool) -> f64 {
        stats::median(
            &self
                .timed
                .iter()
                .filter(|t| keep(t))
                .map(|t| t.ms)
                .collect::<Vec<_>>(),
        )
    }
}

/// TMA through one-sided Jacobi against `Auto` on a seeded sample of the
/// members at or below 128×128; returns the largest difference seen.
fn oracle(seed: u64, members: &[Member]) -> Result<f64, String> {
    let mut rng = gen::stream(seed, 31);
    let candidates: Vec<&Member> = members
        .iter()
        .filter(|m| m.shape.0 * m.shape.1 <= 128 * 128)
        .collect();
    let jacobi = TmaOptions {
        svd: SvdAlgorithm::Jacobi,
        ..TmaOptions::default()
    };
    let mut an = Analyzer::new();
    let mut worst = 0.0f64;
    for _ in 0..ORACLE_SAMPLE {
        let m = candidates[rng.gen_range(0..candidates.len())];
        let auto = an.characterize(&m.ecs).map_err(|e| e.to_string())?.tma;
        let jac = an
            .characterize_with(&m.ecs, None, &jacobi)
            .map_err(|e| e.to_string())?
            .tma;
        worst = worst.max((auto - jac).abs());
    }
    Ok(worst)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let members = gen::ensemble(args.seed);
    let first_of = |shape| {
        members
            .iter()
            .find(|m| m.shape == shape)
            .expect("every shape is present")
    };

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let mut an = Analyzer::new();
        for &shape in &SHAPES {
            let r = an
                .characterize(&first_of(shape).ecs)
                .map_err(|e| e.to_string())?;
            an.recycle_report(r);
        }
        setups.push(t0.elapsed().as_secs_f64());
        kept = Some(an);
    }
    let mut an = kept.expect("at least one set-up");

    let host0 = procfs::host_cpu();
    let run = passes(&mut an, &members, args.seconds as f64, None, None);
    let steal = procfs::steal_share(host0, procfs::host_cpu());
    let worst = oracle(args.seed, &members)?;
    let oracle_ok = worst <= ORACLE_TOL;
    if !oracle_ok {
        eprintln!("hcbench: ensemble_large: Jacobi and Auto TMA differ by {worst:e}");
    }
    let n = run.timed.len() as u64;
    let mut out = Outcome {
        correct: run.out_of_range == 0 && oracle_ok,
        attempted: n,
        failed: run.out_of_range + u64::from(!oracle_ok),
        ..Default::default()
    };
    let e2e = &mut out.end_to_end;
    // The ensemble's latencies mix seven shapes, so each figure is taken on
    // one shape: p50 on 128×128 (the shape of the median call), read_p50
    // on 64×64 (the one shape `Auto` sends to Jacobi).
    e2e.insert("p50_ms".into(), run.p50_ms(|t| t.shape == P50_SHAPE));
    e2e.insert("read_p50_ms".into(), run.p50_ms(|t| t.shape == SHAPES[0]));
    // A pass of typical members: each shape's median time, weighed by its
    // count. A burst of host noise that slows a few calls moves no median.
    let typical_pass_ms: f64 = gen::ENSEMBLE_PASS
        .iter()
        .map(|&(shape, count, _)| count as f64 * run.p50_ms(|t| t.shape == shape))
        .sum();
    e2e.insert(
        "ops_per_s".into(),
        members.len() as f64 / typical_pass_ms * 1e3,
    );
    e2e.insert("cpu_ms_per_op".into(), stats::per_op(run.cpu_s * 1e3, n));
    e2e.insert("setup_s".into(), stats::median(&setups));
    e2e.insert(
        "peak_rss_mb".into(),
        procfs::peak_rss_mib(std::process::id()).ok_or("no VmHWM for this process")?,
    );

    let lat: Vec<f64> = run.timed.iter().map(|t| t.ms).collect();
    println!(
        "hcbench health [ensemble_large]: steal_share={steal:.4} passes={} p99_ms={:.3} p99_samples={} oracle_max_dtma={worst:e}",
        run.passes,
        stats::quantile(&lat, 0.99),
        lat.len()
    );
    println!(
        "hcbench counts [ensemble_large seed={}]: sinkhorn_iterations={} svd_iterations={} (first pass of {})",
        args.seed,
        run.first_pass_iterations.0,
        run.first_pass_iterations.1,
        members.len()
    );

    if args.trace {
        let mut lt = Trace::default();
        let traced = passes(&mut an, &members, 0.0, Some(run.passes), Some(&mut lt));
        let layers = &mut out.per_layer;
        layers.insert(
            "trace.overhead".into(),
            traced.p50_ms(|t| t.shape == P50_SHAPE) - out.end_to_end["p50_ms"],
        );
        let mut rt = Trace::default();
        let all = replay::all(
            args.seed,
            &gen::measure_plan(args.seed, 1.0),
            &members,
            &gen::session_plan(args.seed, args.seconds as f64),
            &mut rt,
            Instant::now(),
            layers,
        );
        layers.insert("trace.coverage".into(), all.ensemble_coverage);
        measure::serving_probe(args, PROBE_SECONDS, layers)?;
        crate::write_traces(args, &lt, &rt);
    }
    Ok(out)
}
