//! The `hcm` subcommands as pure, testable functions.

use crate::args::{parse, Args};
use hc_core::canonical::canonical_form;
use hc_core::ecs::{Ecs, Etc};
use hc_core::standard::{TmaOptions, ZeroPolicy};
use hc_core::whatif;
use hc_gen::cvb::{cvb, CvbParams};
use hc_gen::range_based::{range_based, RangeParams};
use hc_gen::targeted::{targeted, TargetSpec};
use hc_sched::exact::{optimal, simulated_annealing, tabu, SaParams, TabuParams};
use hc_sched::ga::{ga, GaParams};
use hc_sched::heuristics::{all_heuristics, Heuristic, HeuristicKind};
use hc_sched::problem::{makespan_lower_bound, MappingProblem};
use hc_sinkhorn::structure::analyze_structure;
use hc_spec::csv;

/// How a command gets its matrix input: the caller (main or a test) resolves the
/// file path to text beforehand.
pub trait InputSource {
    /// Reads the full text of the named input.
    fn read(&self, path: &str) -> Result<String, String>;
}

/// Reads from the real filesystem.
pub struct FsInput;

impl InputSource for FsInput {
    fn read(&self, path: &str) -> Result<String, String> {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    }
}

/// In-memory input for tests: `(name, content)` pairs.
pub struct MemInput(pub Vec<(String, String)>);

impl InputSource for MemInput {
    fn read(&self, path: &str) -> Result<String, String> {
        self.0
            .iter()
            .find(|(n, _)| n == path)
            .map(|(_, c)| c.clone())
            .ok_or_else(|| format!("no such input {path}"))
    }
}

/// Dispatches a full argument vector (without the program name) to a subcommand.
pub fn dispatch(raw: &[String], input: &dyn InputSource) -> Result<String, String> {
    let args = parse(raw);
    match args.positional(0) {
        None | Some("help") => Ok(crate::usage().to_string()),
        Some("measure") => cmd_measure(&args, input),
        Some("structure") => cmd_structure(&args, input),
        Some("canonical") => cmd_canonical(&args, input),
        Some("generate") => cmd_generate(&args),
        Some("schedule") => cmd_schedule(&args, input),
        Some("whatif") => cmd_whatif(&args, input),
        Some("simulate") => cmd_simulate(&args, input),
        Some("session") => cmd_session(&args, input),
        Some("spec") => cmd_spec(&args),
        // `serve` blocks on a socket, so the binary handles it before
        // dispatch; reaching it here means a programmatic caller.
        Some("serve") => Err(
            "serve starts a long-lived daemon and is handled by the hcm binary; \
             use hc_serve::start directly from code"
                .to_string(),
        ),
        Some(other) => Err(format!("unknown command {other:?}\n\n{}", crate::usage())),
    }
}

fn load_env(args: &Args, input: &dyn InputSource, pos: usize) -> Result<Ecs, String> {
    let path = args
        .positional(pos)
        .ok_or_else(|| "missing input file".to_string())?;
    let text = input.read(path)?;
    let etc = csv::from_csv(&text).map_err(|e| e.to_string())?;
    // With --ecs the file holds speeds, not times.
    Ok(etc.into_ecs(args.has("ecs")))
}

fn tma_options(args: &Args) -> Result<TmaOptions, String> {
    let mut opts = TmaOptions::default();
    if let Some(p) = args.get("zero-policy") {
        opts.zero_policy = ZeroPolicy::parse(p).map_err(|e| format!("--{e}"))?;
    }
    Ok(opts)
}

fn cmd_measure(args: &Args, input: &dyn InputSource) -> Result<String, String> {
    args.check_allowed(&["ecs", "zero-policy"])?;
    let ecs = load_env(args, input, 1)?;
    let opts = tma_options(args)?;
    // Analyzer owns the scratch workspace; one CLI invocation only runs one
    // characterize, but routing through it keeps CLI and daemon on the same
    // code path (uniform weights, identical results bit for bit).
    let mut an = hc_core::Analyzer::new();
    let r = an
        .characterize_with(&ecs, None, &opts)
        .map_err(|e| e.to_string())?;
    let mut out = format!(
        "environment: {} task types x {} machines\n\
         MPH = {:.4}\nTDH = {:.4}\nTMA = {:.4}\n\
         standardization: {} iterations{}{}\n\nmachine performances:\n",
        ecs.num_tasks(),
        ecs.num_machines(),
        r.mph,
        r.tdh,
        r.tma,
        r.standardization_iterations,
        if r.regularized { " (regularized)" } else { "" },
        if r.reduced_to_core {
            " (limit form via total-support core)"
        } else {
            ""
        },
    );
    for (n, v) in ecs.machine_names().iter().zip(&r.machine_performances) {
        out.push_str(&format!("  {n}: {v:.6}\n"));
    }
    out.push_str("task difficulties:\n");
    for (n, v) in ecs.task_names().iter().zip(&r.task_difficulties) {
        out.push_str(&format!("  {n}: {v:.6}\n"));
    }
    Ok(out)
}

fn cmd_structure(args: &Args, input: &dyn InputSource) -> Result<String, String> {
    args.check_allowed(&["ecs"])?;
    let ecs = load_env(args, input, 1)?;
    let rep = analyze_structure(ecs.matrix());
    Ok(format!(
        "shape: {}x{}\npositive entries: {} / {}\nmatching size: {}\n\
         support: {}\ntotal support: {}\nfully indecomposable: {}\n\
         bipartite graph connected: {}\nbalanceability: {:?}\n",
        rep.shape.0,
        rep.shape.1,
        rep.positive_entries,
        rep.shape.0 * rep.shape.1,
        rep.matching_size,
        rep.has_support,
        rep.has_total_support,
        rep.fully_indecomposable,
        rep.connected,
        rep.balanceability,
    ))
}

fn cmd_canonical(args: &Args, input: &dyn InputSource) -> Result<String, String> {
    args.check_allowed(&["ecs"])?;
    let ecs = load_env(args, input, 1)?;
    let c = canonical_form(&ecs).map_err(|e| e.to_string())?;
    let mut out = String::from("canonical task order (ascending difficulty):\n");
    for (k, &i) in c.task_perm.iter().enumerate() {
        out.push_str(&format!(
            "  {:3}. {} (TD = {:.6})\n",
            k + 1,
            ecs.task_names()[i],
            c.task_difficulties[k]
        ));
    }
    out.push_str("canonical machine order (ascending performance):\n");
    for (k, &j) in c.machine_perm.iter().enumerate() {
        out.push_str(&format!(
            "  {:3}. {} (MP = {:.6})\n",
            k + 1,
            ecs.machine_names()[j],
            c.machine_performances[k]
        ));
    }
    out.push_str(&format!("already canonical: {}\n", c.was_canonical()));
    Ok(out)
}

fn cmd_generate(args: &Args) -> Result<String, String> {
    let kind = args
        .positional(1)
        .ok_or_else(|| "generate needs a mode: targeted | range | cvb".to_string())?;
    let etc: Etc = match kind {
        "targeted" => {
            args.check_allowed(&["tasks", "machines", "mph", "tdh", "tma", "seed", "jitter"])?;
            let spec = TargetSpec {
                tasks: args.require("tasks")?,
                machines: args.require("machines")?,
                mph: args.require("mph")?,
                tdh: args.require("tdh")?,
                tma: args.require("tma")?,
                jitter: args.get_or("jitter", 0.5)?,
            };
            let seed: u64 = args.get_or("seed", 0)?;
            let ecs = targeted(&spec, seed).map_err(|e| e.to_string())?;
            ecs.to_etc()
        }
        "range" => {
            args.check_allowed(&["tasks", "machines", "rtask", "rmach", "seed"])?;
            let params = RangeParams {
                tasks: args.require("tasks")?,
                machines: args.require("machines")?,
                r_task: args.get_or("rtask", 100.0)?,
                r_mach: args.get_or("rmach", 100.0)?,
            };
            range_based(&params, args.get_or("seed", 0)?).map_err(|e| e.to_string())?
        }
        "cvb" => {
            args.check_allowed(&["tasks", "machines", "vtask", "vmach", "seed"])?;
            let params = CvbParams::new(
                args.require("tasks")?,
                args.require("machines")?,
                args.get_or("vtask", 0.3)?,
                args.get_or("vmach", 0.3)?,
            );
            cvb(&params, args.get_or("seed", 0)?).map_err(|e| e.to_string())?
        }
        other => return Err(format!("unknown generate mode {other:?}")),
    };
    Ok(csv::to_csv(&etc))
}

fn parse_heuristic(name: &str) -> Result<Option<HeuristicKind>, String> {
    match name {
        // Meta-selectors handled by the caller, not direct heuristics.
        "all" | "ga" | "sa" | "tabu" | "optimal" => Ok(None),
        other => other.parse::<HeuristicKind>().map(Some),
    }
}

fn cmd_schedule(args: &Args, input: &dyn InputSource) -> Result<String, String> {
    args.check_allowed(&["ecs", "heuristic", "seed"])?;
    let ecs = load_env(args, input, 1)?;
    let etc = ecs.to_etc();
    let p = MappingProblem::from_etc(&etc);
    let which = args.get("heuristic").unwrap_or("all");

    let mut rows: Vec<(String, hc_sched::Schedule)> = Vec::new();
    match which {
        "all" => {
            for h in all_heuristics() {
                rows.push((h.name().to_string(), h.map(&p).map_err(|e| e.to_string())?));
            }
            rows.push((
                "GA".into(),
                ga(&p, &GaParams::default()).map_err(|e| e.to_string())?,
            ));
            rows.push((
                "SA".into(),
                simulated_annealing(&p, &SaParams::default()).map_err(|e| e.to_string())?,
            ));
        }
        "ga" => rows.push((
            "GA".into(),
            ga(&p, &GaParams::default()).map_err(|e| e.to_string())?,
        )),
        "sa" => rows.push((
            "SA".into(),
            simulated_annealing(&p, &SaParams::default()).map_err(|e| e.to_string())?,
        )),
        "optimal" => rows.push((
            "optimal".into(),
            optimal(&p, 1e7).map_err(|e| e.to_string())?,
        )),
        "tabu" => rows.push((
            "Tabu".into(),
            tabu(&p, &TabuParams::default()).map_err(|e| e.to_string())?,
        )),
        named => {
            let h = parse_heuristic(named)?
                .ok_or_else(|| format!("heuristic {named:?} not directly mappable"))?;
            rows.push((h.name().to_string(), h.map(&p).map_err(|e| e.to_string())?));
        }
    }

    let lb = makespan_lower_bound(&p);
    let mut out = format!(
        "{} tasks on {} machines; makespan lower bound {:.4}\n\n",
        p.num_tasks(),
        p.num_machines(),
        lb
    );
    for (name, s) in &rows {
        let mk = s.makespan(&p).map_err(|e| e.to_string())?;
        out.push_str(&format!("{name:10} makespan = {mk:.4}\n"));
    }
    if let Some((name, s)) = rows.iter().min_by(|a, b| {
        a.1.makespan(&p)
            .unwrap_or(f64::INFINITY)
            .partial_cmp(&b.1.makespan(&p).unwrap_or(f64::INFINITY))
            .expect("finite")
    }) {
        out.push_str(&format!("\nbest: {name}\nassignment (task -> machine):\n"));
        for (i, &j) in s.assignment.iter().enumerate() {
            out.push_str(&format!(
                "  {} -> {}\n",
                etc.task_names()[i],
                etc.machine_names()[j]
            ));
        }
    }
    Ok(out)
}

fn cmd_whatif(args: &Args, input: &dyn InputSource) -> Result<String, String> {
    args.check_allowed(&["ecs", "remove-machine", "remove-task"])?;
    let ecs = load_env(args, input, 1)?;
    let w = if args.has("remove-machine") {
        let j: usize = args.require("remove-machine")?;
        whatif::remove_machine(&ecs, j).map_err(|e| e.to_string())?
    } else if args.has("remove-task") {
        let i: usize = args.require("remove-task")?;
        whatif::remove_task(&ecs, i).map_err(|e| e.to_string())?
    } else {
        return Err("whatif needs --remove-machine <j> or --remove-task <i>".into());
    };
    Ok(format!(
        "{}\nbefore: MPH {:.4}  TDH {:.4}  TMA {:.4}\n\
         after:  MPH {:.4}  TDH {:.4}  TMA {:.4}\n\
         delta:  MPH {:+.4}  TDH {:+.4}  TMA {:+.4}\n",
        w.description,
        w.before.mph,
        w.before.tdh,
        w.before.tma,
        w.after.mph,
        w.after.tdh,
        w.after.tma,
        w.delta_mph(),
        w.delta_tdh(),
        w.delta_tma(),
    ))
}

fn cmd_simulate(args: &Args, input: &dyn InputSource) -> Result<String, String> {
    use hc_sim::metrics::metrics;
    use hc_sim::policy::{BatchPolicy, OnlinePolicy, Policy};
    use hc_sim::sim::{simulate, SimConfig};
    use hc_sim::workload::{generate, WorkloadSpec};

    args.check_allowed(&["ecs", "tasks", "rate", "seed", "policy", "interval"])?;
    let ecs = load_env(args, input, 1)?;
    let etc = ecs.to_etc();
    let count: usize = args.get_or("tasks", 1000)?;
    let seed: u64 = args.get_or("seed", 0)?;
    // Default rate: ~75% of aggregate capacity.
    let mean_etc = etc.matrix().total_sum() / etc.matrix().len() as f64;
    let default_rate = 0.75 * etc.num_machines() as f64 / mean_etc;
    let rate: f64 = args.get_or("rate", default_rate)?;
    let interval: f64 = args.get_or("interval", 10.0 / rate)?;
    let policy = match args.get("policy").unwrap_or("mct") {
        "olb" => Policy::Immediate(OnlinePolicy::Olb),
        "met" => Policy::Immediate(OnlinePolicy::Met),
        "mct" => Policy::Immediate(OnlinePolicy::Mct),
        "batch-min-min" => Policy::Batch {
            policy: BatchPolicy::MinMin,
            interval,
        },
        "batch-sufferage" => Policy::Batch {
            policy: BatchPolicy::Sufferage,
            interval,
        },
        other => match other.strip_prefix("kpb=") {
            Some(pct) => Policy::Immediate(OnlinePolicy::Kpb {
                percent: pct
                    .parse()
                    .map_err(|_| format!("kpb=<pct>: bad percent {pct:?}"))?,
            }),
            None => return Err(format!("unknown policy {other:?}")),
        },
    };
    let wl = generate(&WorkloadSpec::uniform(count, rate, etc.num_tasks(), seed))
        .map_err(|e| e.to_string())?;
    let r = simulate(etc.matrix(), &wl, &SimConfig { policy }).map_err(|e| e.to_string())?;
    let s = metrics(&r, etc.num_machines());
    let mut out = format!(
        "policy {}: {} tasks at rate {:.4}/s (seed {seed})\n\
         makespan      = {:.2}\n\
         mean flowtime = {:.2}\n\
         max flowtime  = {:.2}\n\
         mean wait     = {:.2}\n\nper-machine:\n",
        policy.name(),
        s.tasks,
        rate,
        s.makespan,
        s.mean_flowtime,
        s.max_flowtime,
        s.mean_wait,
    );
    for (j, name) in etc.machine_names().iter().enumerate() {
        out.push_str(&format!(
            "  {name}: utilization {:.2}, {} tasks\n",
            s.utilization[j], s.tasks_per_machine[j]
        ));
    }
    Ok(out)
}

/// Applies one parsed edit to the in-process engine (mirrors the daemon's
/// store loop, minus the undo log: a CLI demo aborts on the first bad edit).
fn apply_session_edit(
    engine: &mut hc_session::SessionEngine,
    edit: &hc_session::Edit,
    etc_units: bool,
) -> Result<(), String> {
    let set = |engine: &mut hc_session::SessionEngine, t: usize, m: usize, v: f64| {
        engine
            .set(t, m, hc_session::to_ecs_value(v, etc_units))
            .map_err(|e| e.to_string())
    };
    match edit {
        hc_session::Edit::Cell {
            task,
            machine,
            value,
        } => set(engine, *task, *machine, *value),
        hc_session::Edit::Row { task, values } => values
            .iter()
            .enumerate()
            .try_for_each(|(m, v)| set(engine, *task, m, *v)),
        hc_session::Edit::Col { machine, values } => values
            .iter()
            .enumerate()
            .try_for_each(|(t, v)| set(engine, t, *machine, *v)),
    }
}

fn cmd_session(args: &Args, input: &dyn InputSource) -> Result<String, String> {
    args.check_allowed(&["ecs", "edits"])?;
    let ecs = load_env(args, input, 1)?;
    let etc_units = !args.has("ecs");
    let task_names = ecs.task_names().to_vec();
    let machine_names = ecs.machine_names().to_vec();
    let mut engine = hc_session::SessionEngine::new(ecs);

    let (report, stats) = engine.recompute(None).map_err(|e| e.to_string())?;
    let cold_iters = stats.sinkhorn_iterations;
    let mut out = format!(
        "session demo: {} task types x {} machines (edits in {})\n\
         v1 cold: MPH {:.4}  TDH {:.4}  TMA {:.4}   \
         ({} Sinkhorn + {} SVD iterations)\n",
        task_names.len(),
        machine_names.len(),
        if etc_units {
            "ETC seconds"
        } else {
            "ECS speeds"
        },
        report.mph,
        report.tdh,
        report.tma,
        stats.sinkhorn_iterations,
        stats.svd_iterations,
    );
    let mut prev = (report.mph, report.tdh, report.tma);

    // Edit script: an explicit --edits file, or a built-in perturbation that
    // nudges up to three entries so the warm path has something to absorb.
    let text = match args.get("edits") {
        Some(path) => input.read(path)?,
        None => {
            let mut lines = String::new();
            for (t, &factor) in [1.15, 0.85, 1.10].iter().enumerate().take(task_names.len()) {
                let Some(m) = (0..machine_names.len()).find(|&m| engine.ecs().get(t, m) > 0.0)
                else {
                    continue;
                };
                let speed = engine.ecs().get(t, m) * factor;
                let value = if etc_units { 1.0 / speed } else { speed };
                lines.push_str(&format!("cell,{},{},{value}\n", t + 1, m + 1));
            }
            lines
        }
    };
    let edits =
        hc_session::parse_edits(&text, &task_names, &machine_names).map_err(|e| e.to_string())?;

    // One version per edit, like a client issuing sequential PATCHes.
    let mut warm_iters = Vec::new();
    for (k, edit) in edits.iter().enumerate() {
        apply_session_edit(&mut engine, edit, etc_units)?;
        let (report, stats) = engine.recompute(None).map_err(|e| e.to_string())?;
        out.push_str(&format!(
            "v{} {}: MPH {:.4}  TDH {:.4}  TMA {:.4}  (dTMA {:+.4})   \
             ({} Sinkhorn + {} SVD iterations)\n",
            k + 2,
            if stats.fallback {
                "cold*" // warm path missed tolerance; silently recomputed cold
            } else if stats.warm {
                "warm"
            } else {
                "cold"
            },
            report.mph,
            report.tdh,
            report.tma,
            report.tma - prev.2,
            stats.sinkhorn_iterations,
            stats.svd_iterations,
        ));
        prev = (report.mph, report.tdh, report.tma);
        if stats.warm && !stats.fallback {
            warm_iters.push(stats.sinkhorn_iterations);
        }
    }
    if !warm_iters.is_empty() {
        let mean = warm_iters.iter().sum::<usize>() as f64 / warm_iters.len() as f64;
        out.push_str(&format!(
            "warm recomputes averaged {mean:.1} Sinkhorn iterations vs {cold_iters} cold\n"
        ));
    }
    Ok(out)
}

fn cmd_spec(args: &Args) -> Result<String, String> {
    args.check_allowed(&[])?;
    let which = args.positional(1).unwrap_or("cint");
    let d = match which {
        "cint" => hc_spec::dataset::cint2006(),
        "cfp" => hc_spec::dataset::cfp2006(),
        other => return Err(format!("unknown dataset {other:?} (cint | cfp)")),
    };
    Ok(csv::to_csv(&d.etc))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(files: &[(&str, &str)]) -> MemInput {
        MemInput(
            files
                .iter()
                .map(|(n, c)| (n.to_string(), c.to_string()))
                .collect(),
        )
    }

    fn run(argv: &[&str], files: &[(&str, &str)]) -> Result<String, String> {
        let raw: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        dispatch(&raw, &mem(files))
    }

    const SAMPLE: &str = "task,m1,m2\nt1,2.0,8.0\nt2,6.0,3.0\n";

    #[test]
    fn help_and_unknown() {
        assert!(run(&[], &[]).unwrap().contains("USAGE"));
        assert!(run(&["help"], &[]).unwrap().contains("USAGE"));
        assert!(run(&["bogus"], &[]).is_err());
    }

    #[test]
    fn measure_basic() {
        let out = run(&["measure", "in.csv"], &[("in.csv", SAMPLE)]).unwrap();
        assert!(out.contains("MPH ="));
        assert!(out.contains("TMA ="));
        assert!(out.contains("t1:"));
        assert!(out.contains("m2:"));
    }

    #[test]
    fn measure_ecs_flag_changes_interpretation() {
        let a = run(&["measure", "in.csv"], &[("in.csv", SAMPLE)]).unwrap();
        let b = run(&["measure", "in.csv", "--ecs"], &[("in.csv", SAMPLE)]).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn measure_zero_policy_strict_errors_on_limit_pattern() {
        let csv = "task,m1,m2\nt1,1.0,inf\nt2,1.0,1.0\n";
        let err = run(
            &["measure", "in.csv", "--zero-policy", "strict"],
            &[("in.csv", csv)],
        )
        .unwrap_err();
        assert!(err.contains("standard form"), "{err}");
        // Limit policy succeeds on the same input.
        let ok = run(
            &["measure", "in.csv", "--zero-policy", "limit"],
            &[("in.csv", csv)],
        )
        .unwrap();
        assert!(ok.contains("total-support core"));
        // reg=... also succeeds.
        let reg = run(
            &["measure", "in.csv", "--zero-policy", "reg=1e-4"],
            &[("in.csv", csv)],
        )
        .unwrap();
        assert!(reg.contains("(regularized)"));
        assert!(run(
            &["measure", "in.csv", "--zero-policy", "nope"],
            &[("in.csv", csv)]
        )
        .is_err());
    }

    #[test]
    fn structure_report() {
        let csv = "task,m1,m2\nt1,1.0,inf\nt2,1.0,1.0\n";
        let out = run(&["structure", "in.csv"], &[("in.csv", csv)]).unwrap();
        assert!(out.contains("support: true"));
        assert!(out.contains("total support: false"));
        assert!(out.contains("LimitOnly"));
    }

    #[test]
    fn canonical_orders() {
        let out = run(&["canonical", "in.csv"], &[("in.csv", SAMPLE)]).unwrap();
        assert!(out.contains("canonical task order"));
        assert!(out.contains("canonical machine order"));
    }

    #[test]
    fn generate_targeted_round_trips() {
        let out = run(
            &[
                "generate",
                "targeted",
                "--tasks",
                "6",
                "--machines",
                "4",
                "--mph",
                "0.7",
                "--tdh",
                "0.6",
                "--tma",
                "0.2",
                "--seed",
                "3",
            ],
            &[],
        )
        .unwrap();
        // Output is CSV; measure it back.
        let measured = run(&["measure", "gen.csv"], &[("gen.csv", &out)]).unwrap();
        assert!(measured.contains("MPH = 0.7000"), "{measured}");
        assert!(measured.contains("TDH = 0.6000"));
        assert!(measured.contains("TMA = 0.2000"));
    }

    #[test]
    fn generate_range_and_cvb() {
        let r = run(
            &[
                "generate",
                "range",
                "--tasks",
                "4",
                "--machines",
                "3",
                "--seed",
                "1",
            ],
            &[],
        )
        .unwrap();
        assert!(r.starts_with("task,m1,m2,m3"));
        let c = run(&["generate", "cvb", "--tasks", "4", "--machines", "3"], &[]).unwrap();
        assert_eq!(c.lines().count(), 5);
        assert!(run(&["generate", "bogus"], &[]).is_err());
        assert!(run(&["generate", "range", "--tasks", "4"], &[]).is_err());
    }

    #[test]
    fn schedule_all_and_named() {
        let out = run(&["schedule", "in.csv"], &[("in.csv", SAMPLE)]).unwrap();
        assert!(out.contains("Min-Min"));
        assert!(out.contains("GA"));
        assert!(out.contains("best:"));
        assert!(out.contains("t1 ->"));
        let one = run(
            &["schedule", "in.csv", "--heuristic", "min-min"],
            &[("in.csv", SAMPLE)],
        )
        .unwrap();
        assert!(one.contains("Min-Min"));
        assert!(!one.contains("OLB"));
        let opt = run(
            &["schedule", "in.csv", "--heuristic", "optimal"],
            &[("in.csv", SAMPLE)],
        )
        .unwrap();
        // Optimal on this 2x2: t1->m1 (2), t2->m2 (3) → makespan 3.
        assert!(opt.contains("makespan = 3.0000"), "{opt}");
        let kpb = run(
            &["schedule", "in.csv", "--heuristic", "kpb=50"],
            &[("in.csv", SAMPLE)],
        )
        .unwrap();
        assert!(kpb.contains("KPB"));
        assert!(run(
            &["schedule", "in.csv", "--heuristic", "bogus"],
            &[("in.csv", SAMPLE)]
        )
        .is_err());
    }

    #[test]
    fn whatif_machine_and_task() {
        let csv = "task,m1,m2,m3\nt1,2,8,4\nt2,6,3,5\nt3,4,4,4\n";
        let out = run(
            &["whatif", "in.csv", "--remove-machine", "2"],
            &[("in.csv", csv)],
        )
        .unwrap();
        assert!(out.contains("delta:"));
        let out = run(
            &["whatif", "in.csv", "--remove-task", "0"],
            &[("in.csv", csv)],
        )
        .unwrap();
        assert!(out.contains("remove task"));
        assert!(run(&["whatif", "in.csv"], &[("in.csv", csv)]).is_err());
    }

    #[test]
    fn simulate_runs() {
        let out = run(
            &["simulate", "in.csv", "--tasks", "50", "--seed", "3"],
            &[("in.csv", SAMPLE)],
        )
        .unwrap();
        assert!(out.contains("makespan"));
        assert!(out.contains("utilization"));
        let batch = run(
            &[
                "simulate",
                "in.csv",
                "--tasks",
                "50",
                "--policy",
                "batch-min-min",
            ],
            &[("in.csv", SAMPLE)],
        )
        .unwrap();
        assert!(batch.contains("batch-MinMin"));
        let kpb = run(
            &["simulate", "in.csv", "--tasks", "20", "--policy", "kpb=50"],
            &[("in.csv", SAMPLE)],
        )
        .unwrap();
        assert!(kpb.contains("online-KPB50"));
        assert!(run(
            &["simulate", "in.csv", "--policy", "bogus"],
            &[("in.csv", SAMPLE)]
        )
        .is_err());
    }

    #[test]
    fn session_demo_runs_warm() {
        let csv = "task,m1,m2,m3\nt1,2,8,4\nt2,6,3,5\nt3,4,4,4\n";
        let out = run(&["session", "in.csv"], &[("in.csv", csv)]).unwrap();
        assert!(out.contains("v1 cold:"), "{out}");
        assert!(out.contains("v2 warm:"), "{out}");
        assert!(out.contains("v4 warm:"), "{out}");
        // Only Sinkhorn starts warm, so the summary compares its iterations.
        let summary = out.lines().last().unwrap();
        assert!(
            summary.starts_with("warm recomputes averaged")
                && summary.contains("Sinkhorn iterations vs"),
            "{out}"
        );
    }

    #[test]
    fn session_demo_takes_edit_script() {
        let csv = "task,m1,m2\nt1,2.0,8.0\nt2,6.0,3.0\n";
        let edits = "cell,t1,m2,7.5\nrow,t2,5.5,3.5\n";
        let out = run(
            &["session", "in.csv", "--edits", "e.txt"],
            &[("in.csv", csv), ("e.txt", edits)],
        )
        .unwrap();
        assert!(out.contains("v3 warm:"), "{out}");
        // Bad scripts fail with the parser's line-numbered error.
        let err = run(
            &["session", "in.csv", "--edits", "e.txt"],
            &[("in.csv", csv), ("e.txt", "cell,t9,m1,1\n")],
        )
        .unwrap_err();
        assert!(err.contains("edit line 1"), "{err}");
    }

    #[test]
    fn spec_dumps_datasets() {
        let cint = run(&["spec", "cint"], &[]).unwrap();
        assert!(cint.starts_with("task,m1"));
        assert!(cint.contains("400.perlbench"));
        let cfp = run(&["spec", "cfp"], &[]).unwrap();
        assert!(cfp.contains("436.cactusADM"));
        // Measure the dump end to end: it must report the paper's values.
        let measured = run(&["measure", "d.csv"], &[("d.csv", &cint)]).unwrap();
        assert!(measured.contains("TMA = 0.07"), "{measured}");
        assert!(run(&["spec", "bogus"], &[]).is_err());
    }

    #[test]
    fn unknown_flags_rejected() {
        assert!(run(
            &["measure", "in.csv", "--frobnicate"],
            &[("in.csv", SAMPLE)]
        )
        .is_err());
    }

    #[test]
    fn missing_file_reported() {
        let err = run(&["measure", "nope.csv"], &[]).unwrap_err();
        assert!(err.contains("nope.csv"));
    }
}
