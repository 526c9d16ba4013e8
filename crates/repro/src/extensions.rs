//! Extension experiments X1–X9 (DESIGN.md): the paper's stated future work plus
//! the applications its introduction motivates.

use crate::table::{fmt, Table};
use hc_core::ecs::Ecs;
use hc_core::report::characterize;
use hc_core::standard::{tma_with, TmaOptions, ZeroPolicy};
use hc_core::whatif;
use hc_gen::ensemble::measure_grid;
use hc_gen::targeted::{targeted, TargetSpec};
use hc_linalg::svd::{spectrum_in, SvdAlgorithm};
use hc_linalg::Workspace;
use hc_sched::eval::{study_ensemble, win_table, InstanceStudy};
use hc_sched::heuristics::all_heuristics;
use hc_sinkhorn::balance::BalanceOptions;
use hc_sinkhorn::regularized::epsilon_sweep;
use hc_sinkhorn::structure::eq10_matrix;
use hc_spec::dataset::cint2006;

/// Dispatches to one extension experiment (`"x1"`–`"x9"`).
pub fn extension(id: &str) -> String {
    match id {
        "x1" => x1_regularized_tma(),
        "x2" => x2_targeted_sweep(),
        "x3" => x3_heuristic_selection(),
        "x4" => x4_whatif(),
        "x5" => x5_consistency_vs_tma(),
        "x6" => x6_rank1_residual_vs_tma(),
        "x7" => x7_eq5_vs_eq8(),
        "x8" => x8_dynamic_simulation(),
        "x9" => x9_workload_weighted_measures(),
        other => format!("no extension experiment {other} (valid: x1-x9)\n"),
    }
}

/// X1: TMA for non-balanceable matrices via ε-regularization (the paper's
/// future work).
pub fn x1_regularized_tma() -> String {
    let m = eq10_matrix();
    let opts = BalanceOptions {
        tol: 1e-7,
        max_iters: 2_000_000,
        stall_window: usize::MAX,
        ..Default::default()
    };
    let sweep = epsilon_sweep(&m, 1e-1, 10.0, 4, &opts).expect("valid input");
    let mut t = Table::new(vec![
        "epsilon",
        "iterations",
        "converged",
        "max entry at zero positions",
        "TMA (regularized)",
    ]);
    for step in &sweep {
        let e = Ecs::new(m.clone()).expect("eq10 is a valid ECS");
        let tma = tma_with(
            &e,
            &TmaOptions {
                zero_policy: ZeroPolicy::Regularize {
                    epsilon: step.epsilon,
                },
                balance: opts.clone(),
                ..Default::default()
            },
        )
        .expect("regularized TMA always defined");
        t.row(vec![
            format!("{:.0e}", step.epsilon),
            step.iterations.to_string(),
            step.converged.to_string(),
            format!("{:.3e}", step.max_at_zero_positions),
            fmt(tma),
        ]);
    }
    // The structural limit value for comparison.
    let e = Ecs::new(m).expect("valid");
    let limit = tma_with(
        &e,
        &TmaOptions {
            zero_policy: ZeroPolicy::Limit,
            ..Default::default()
        },
    )
    .expect("limit policy");
    format!(
        "== X1: epsilon-regularized TMA for the non-balanceable Eq. 10 matrix ==\n{}\
         Structural limit TMA (total-support core): {}\n\
         As epsilon -> 0 the regularized TMA approaches the structural limit.\n",
        t.render(),
        fmt(limit)
    )
}

/// X2: measure-targeted generation spanning the heterogeneity cube
/// (application \[2\]).
pub fn x2_targeted_sweep() -> String {
    let specs = measure_grid(8, 5, 3, 0.6);
    let mut t = Table::new(vec![
        "target (MPH, TDH, TMA)",
        "measured (MPH, TDH, TMA)",
        "max |delta|",
    ]);
    let mut worst: f64 = 0.0;
    for spec in &specs {
        let e = targeted(spec, 0).expect("targets within range");
        let r = characterize(&e).expect("positive environment");
        let d = (r.mph - spec.mph)
            .abs()
            .max((r.tdh - spec.tdh).abs())
            .max((r.tma - spec.tma).abs());
        worst = worst.max(d);
        t.row(vec![
            format!("({}, {}, {})", fmt(spec.mph), fmt(spec.tdh), fmt(spec.tma)),
            format!("({}, {}, {})", fmt(r.mph), fmt(r.tdh), fmt(r.tma)),
            format!("{d:.2e}"),
        ]);
    }
    format!(
        "== X2: measure-targeted ETC generation across the (MPH, TDH, TMA) cube ==\n\
         8 tasks x 5 machines, 27 grid points\n{}\
         Worst absolute deviation across the grid: {worst:.2e}\n",
        t.render()
    )
}

/// X3: heuristic selection by heterogeneity (application \[3\]).
pub fn x3_heuristic_selection() -> String {
    let mut out =
        String::from("== X3: mapping-heuristic performance vs task-machine affinity ==\n");
    let heuristics = all_heuristics();
    let mut t = Table::new(vec![
        "TMA regime",
        "winner distribution",
        "MET mean relative makespan",
        "Min-Min mean relative makespan",
    ]);
    for &(label, tma) in &[
        ("low (0.02)", 0.02),
        ("mid (0.25)", 0.25),
        ("high (0.55)", 0.55),
    ] {
        let envs: Vec<Ecs> = (0..12)
            .map(|s| {
                targeted(
                    &TargetSpec {
                        jitter: 0.6,
                        ..TargetSpec::exact(16, 5, 0.7, 0.7, tma)
                    },
                    s,
                )
                .expect("targets within range")
            })
            .collect();
        let studies: Vec<InstanceStudy> = study_ensemble(&envs, &heuristics, false)
            .into_iter()
            .map(|r| r.expect("valid environments"))
            .collect();
        let wins = win_table(&studies);
        let windesc: Vec<String> = wins.iter().map(|(n, c)| format!("{n}:{c}")).collect();
        let mean_rel = |name: &str| -> f64 {
            let v: Vec<f64> = studies
                .iter()
                .filter_map(|s| s.results.iter().find(|r| r.name == name))
                .map(|r| r.relative)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        t.row(vec![
            label.to_string(),
            windesc.join(" "),
            format!("{:.3}", mean_rel("MET")),
            format!("{:.3}", mean_rel("Min-Min")),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "Reading: as TMA grows, execution-time-aware heuristics dominate the\n\
         load-only OLB, and MET's pile-up penalty shrinks because machines\n\
         specialize — the heterogeneity measures predict which heuristic family wins.\n",
    );
    out
}

/// X4: what-if studies — adding/removing tasks and machines (Sec. I application).
pub fn x4_whatif() -> String {
    let e = cint2006().ecs();
    let mut t = Table::new(vec!["edit", "dMPH", "dTDH", "dTMA"]);
    // Remove the most and least performant machines.
    for j in [0, e.num_machines() - 1] {
        let w = whatif::remove_machine(&e, j).expect("valid index");
        t.row(vec![
            w.description.clone(),
            format!("{:+.3}", w.delta_mph()),
            format!("{:+.3}", w.delta_tdh()),
            format!("{:+.3}", w.delta_tma()),
        ]);
    }
    // Remove one task.
    let w = whatif::remove_task(&e, 0).expect("valid index");
    t.row(vec![
        w.description.clone(),
        format!("{:+.3}", w.delta_mph()),
        format!("{:+.3}", w.delta_tdh()),
        format!("{:+.3}", w.delta_tma()),
    ]);
    // Add a GPU-like accelerator: dramatically better at two tasks, poor at the
    // rest — the paper's closing expectation is that accelerators raise TMA.
    let col: Vec<f64> = (0..e.num_tasks())
        .map(|i| {
            let base = e.matrix().row_sum(i) / e.num_machines() as f64;
            if i < 2 {
                base * 40.0
            } else {
                base * 0.2
            }
        })
        .collect();
    let w = whatif::add_machine(&e, "accelerator", &col).expect("valid column");
    let accel_delta = w.delta_tma();
    t.row(vec![
        w.description.clone(),
        format!("{:+.3}", w.delta_mph()),
        format!("{:+.3}", w.delta_tdh()),
        format!("{:+.3}", accel_delta),
    ]);
    format!(
        "== X4: what-if studies on the (synthetic) CINT environment ==\n{}\
         Paper's closing expectation: environments with accelerators/GPGPUs have higher\n\
         TMA and lower TDH/MPH — adding one here moves TMA by {:+.3}.\n",
        t.render(),
        accel_delta
    )
}

/// X5: ETC consistency (Braun et al. classification) vs the TMA measure —
/// consistent matrices concentrate at low affinity.
pub fn x5_consistency_vs_tma() -> String {
    use hc_gen::consistency::{consistency_controlled, consistency_degree};
    use hc_gen::range_based::{range_based, RangeParams};

    let mut t = Table::new(vec![
        "sorted column fraction",
        "mean consistency degree",
        "mean TMA",
    ]);
    let seeds = 12u64;
    for &fraction in &[0.0, 0.4, 0.7, 1.0] {
        let mut deg = 0.0;
        let mut tma_sum = 0.0;
        for seed in 0..seeds {
            let base = range_based(&RangeParams::hi_hi(12, 6), seed).expect("valid params");
            let etc = consistency_controlled(base.matrix(), fraction, seed).expect("valid");
            deg += consistency_degree(&etc);
            let ecs = Ecs::new(etc.map(|v| 1.0 / v)).expect("positive");
            tma_sum += characterize(&ecs).expect("positive env").tma;
        }
        t.row(vec![
            format!("{fraction:.1}"),
            fmt(deg / seeds as f64),
            fmt(tma_sum / seeds as f64),
        ]);
    }
    format!(
        "== X5: consistency vs task-machine affinity ==\n\
         range-based HiHi 12x6 ensembles, rows sorted over a growing column subset\n{}\
         Reading: fully consistent ETC matrices (a global machine speed order)\n\
         collapse most task-machine affinity — TMA quantifies what the classic\n\
         consistent/inconsistent taxonomy only labels.\n",
        t.render()
    )
}

/// X6: the relative rank-1 residual as an alternative affinity gauge, compared
/// against TMA on measure-targeted environments.
pub fn x6_rank1_residual_vs_tma() -> String {
    let mut t = Table::new(vec![
        "target TMA",
        "measured TMA",
        "rank-1 residual of standard form",
    ]);
    let mut prev_resid = -1.0_f64;
    let mut monotone = true;
    for &tma_target in &[0.0, 0.1, 0.2, 0.35, 0.5, 0.65] {
        let e =
            targeted(&TargetSpec::exact(10, 6, 0.8, 0.8, tma_target), 0).expect("reachable target");
        let r = characterize(&e).expect("positive env");
        let sf =
            hc_core::standard::standard_form(&e, &TmaOptions::default()).expect("positive env");
        // ‖A − A₁‖_F / ‖A‖_F = √(Σ_{i≥2} σᵢ²) / √(Σ σᵢ²) (Eckart–Young).
        let (sigma, _) = spectrum_in(
            sf.matrix.view(),
            SvdAlgorithm::Auto,
            None,
            &mut Workspace::new(),
        )
        .expect("valid matrix");
        let total: f64 = sigma.iter().map(|s| s * s).sum();
        let tail: f64 = sigma[1..].iter().map(|s| s * s).sum();
        let resid = (tail / total).sqrt();
        if resid < prev_resid {
            monotone = false;
        }
        prev_resid = resid;
        t.row(vec![fmt(tma_target), fmt(r.tma), fmt(resid)]);
    }
    format!(
        "== X6: rank-1 residual vs TMA ==\n\
         A rank-1 ECS matrix is exactly a zero-affinity environment, so the relative\n\
         Frobenius residual of the best rank-1 approximation of the standard form is\n\
         an alternative affinity gauge.\n{}\
         Monotone in TMA across the sweep: {monotone}. The two gauges agree on the\n\
         ordering; TMA additionally normalizes to [0, 1] with sigma_1 = 1 (Theorem 2).\n",
        t.render()
    )
}

/// X7: the paper's motivation for the standard form — the earlier
/// column-normalized TMA (Eq. 5, from the authors' HCW 2010 paper) is *not*
/// independent of TDH, the standard-form TMA (Eq. 8) is.
pub fn x7_eq5_vs_eq8() -> String {
    use hc_core::standard::{tma, tma_eq5_column_normalized};

    let base = targeted(&TargetSpec::exact(8, 5, 0.8, 0.8, 0.25), 1).expect("reachable");
    let mut t = Table::new(vec![
        "row-0 scale factor",
        "TDH",
        "TMA (Eq. 8, standard form)",
        "TMA (Eq. 5, column-normalized)",
    ]);
    let mut eq8_spread: f64 = 0.0;
    let mut eq5_spread: f64 = 0.0;
    let mut eq8_first = None;
    let mut eq5_first = None;
    for &factor in &[1.0, 4.0, 16.0, 64.0] {
        let mut m = base.matrix().clone();
        m.scale_row(0, factor);
        let e = Ecs::new(m).expect("positive");
        let r = characterize(&e).expect("positive env");
        let eq8 = tma(&e).expect("positive env");
        let eq5 = tma_eq5_column_normalized(&e).expect("positive env");
        eq8_spread = eq8_spread.max((eq8 - *eq8_first.get_or_insert(eq8)).abs());
        eq5_spread = eq5_spread.max((eq5 - *eq5_first.get_or_insert(eq5)).abs());
        t.row(vec![
            format!("{factor}x"),
            fmt(r.tdh),
            format!("{eq8:.6}"),
            format!("{eq5:.6}"),
        ]);
    }
    format!(
        "== X7: why the standard form matters (Eq. 5 vs Eq. 8) ==\n\
         Scaling one task's ECS row changes only the task difficulty profile.\n{}\
         Spread under row scaling: Eq. 8 = {eq8_spread:.2e} (invariant), \
         Eq. 5 = {eq5_spread:.2e} (confounded with TDH).\n\
         This is the paper's third measure property: with TDH introduced, the\n\
         simple column normalization of [2] no longer keeps the measures\n\
         independent — the iterative row+column standard form does.\n",
        t.render()
    )
}

/// X8: dynamic (discrete-event) simulation — the static measures predict online
/// scheduler behaviour under Poisson task streams.
pub fn x8_dynamic_simulation() -> String {
    use hc_sim::metrics::metrics;
    use hc_sim::policy::{BatchPolicy, OnlinePolicy, Policy};
    use hc_sim::sim::{simulate, SimConfig};
    use hc_sim::workload::{generate, WorkloadSpec};

    let policies = [
        Policy::Immediate(OnlinePolicy::Olb),
        Policy::Immediate(OnlinePolicy::Met),
        Policy::Immediate(OnlinePolicy::Mct),
        Policy::Batch {
            policy: BatchPolicy::MinMin,
            interval: 2.0,
        },
        Policy::Batch {
            policy: BatchPolicy::Sufferage,
            interval: 2.0,
        },
    ];
    let mut t = Table::new(vec![
        "TMA regime",
        "policy",
        "mean flowtime",
        "makespan",
        "relative to best",
    ]);
    for &(label, tma_target) in &[("low (0.02)", 0.02), ("high (0.50)", 0.50)] {
        let seeds = 6u64;
        // Mean makespans per policy over the ensemble.
        let mut totals = vec![0.0f64; policies.len()];
        let mut flows = vec![0.0f64; policies.len()];
        for seed in 0..seeds {
            let env = targeted(
                &TargetSpec {
                    jitter: 0.6,
                    ..TargetSpec::exact(8, 4, 0.7, 0.7, tma_target)
                },
                seed,
            )
            .expect("reachable target");
            // ETC in time units of ~1 so the arrival rate loads ~80% of capacity.
            let etc = env.to_etc();
            let mean_etc = etc.matrix().total_sum() / etc.matrix().len() as f64;
            let rate = 0.8 * etc.matrix().cols() as f64 / mean_etc;
            let wl = generate(&WorkloadSpec::uniform(400, rate, 8, seed)).expect("valid spec");
            for (k, policy) in policies.iter().enumerate() {
                let r = simulate(etc.matrix(), &wl, &SimConfig { policy: *policy })
                    .expect("valid simulation");
                let m = metrics(&r, 4);
                totals[k] += m.makespan;
                flows[k] += m.mean_flowtime;
            }
        }
        let best = totals.iter().copied().fold(f64::INFINITY, f64::min);
        for (k, policy) in policies.iter().enumerate() {
            t.row(vec![
                label.to_string(),
                policy.name(),
                format!("{:.2}", flows[k] / seeds as f64),
                format!("{:.2}", totals[k] / seeds as f64),
                format!("{:.3}", totals[k] / best),
            ]);
        }
    }
    format!(
        "== X8: dynamic simulation — online policies under Poisson arrivals ==\n\
         8 task types x 4 machines, 400 tasks per run, ~80% offered load, 6 seeds\n{}\
         Reading: at low TMA, MET (which chases fastest machines and ignores\n\
         queues) collapses — every task piles onto the same machines — while at\n\
         high TMA machines specialize and MET becomes optimal; OLB's\n\
         affinity-blindness costs it more as TMA grows. The static measure\n\
         predicts the online regime — application [9] (performance prediction).\n",
        t.render()
    )
}

/// X9: workload-derived weighting factors (Eqs. 4 and 6) — the measures of the
/// same machine set shift when the execution frequencies of the task types do.
pub fn x9_workload_weighted_measures() -> String {
    use hc_core::report::characterize_with;
    use hc_core::weights::Weights;
    use hc_sim::workload::{generate, weights_from_workload, WorkloadSpec};
    use hc_spec::dataset::cint2006;

    let ecs = cint2006().ecs();
    let (t, m) = (ecs.num_tasks(), ecs.num_machines());
    let uniform = Weights::uniform(t, m);
    let opts = TmaOptions::default();
    let base = characterize_with(&ecs, &uniform, &opts).expect("calibrated dataset");

    let mut t_out = Table::new(vec!["workload", "MPH", "TDH", "TMA"]);
    t_out.row(vec![
        "uniform weights (the paper's Figs. 6-7 setting)".to_string(),
        format!("{:.3}", base.mph),
        format!("{:.3}", base.tdh),
        format!("{:.3}", base.tma),
    ]);

    for (name, bias) in [
        ("perlbench-heavy stream (w ~ 20:1 on task 1)", 0usize),
        ("xalancbmk-heavy stream (w ~ 20:1 on task 12)", 11usize),
    ] {
        let mut type_weights = vec![1.0; t];
        type_weights[bias] = 20.0;
        let wl = generate(&WorkloadSpec {
            count: 5000,
            rate: 1.0,
            type_weights,
            seed: 9,
        })
        .expect("valid spec");
        let w = weights_from_workload(&wl, t, m).expect("valid workload");
        let r = characterize_with(&ecs, &w, &opts).expect("calibrated dataset");
        t_out.row(vec![
            name.to_string(),
            format!("{:.3}", r.mph),
            format!("{:.3}", r.tdh),
            format!("{:.3}", r.tma),
        ]);
    }
    format!(
        "== X9: workload-derived weighting factors (Eqs. 4 and 6) ==\n\
         Same machines, same ETC matrix — but the observed execution frequencies\n\
         of the task types act as w_t, so MPH and TDH respond to what actually\n\
         runs, while TMA (diagonal-scaling invariant) barely moves:\n{}",
        t_out.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x9_weights_move_homogeneities_not_tma() {
        let s = x9_workload_weighted_measures();
        // Pull the three TMA values from the table rows.
        let tmas: Vec<f64> = s
            .lines()
            .filter(|l| l.contains("weights") || l.contains("stream"))
            .filter_map(|l| l.split_whitespace().last()?.parse::<f64>().ok())
            .collect();
        assert_eq!(tmas.len(), 3, "{s}");
        let spread = tmas
            .iter()
            .cloned()
            .fold(0.0_f64, |a, b| a.max((b - tmas[0]).abs()));
        assert!(spread < 0.01, "TMA must barely move: {tmas:?}");
        // And TDH must actually move between the two biased streams.
        let tdhs: Vec<f64> = s
            .lines()
            .filter(|l| l.contains("stream"))
            .map(|l| {
                let cols: Vec<&str> = l.split_whitespace().collect();
                cols[cols.len() - 2].parse::<f64>().unwrap()
            })
            .collect();
        assert_eq!(tdhs.len(), 2);
        assert!(
            (tdhs[0] - tdhs[1]).abs() > 0.005,
            "biased streams should differ in TDH: {tdhs:?}\n{s}"
        );
    }

    #[test]
    fn x8_olb_penalty_grows_with_tma() {
        let s = x8_dynamic_simulation();
        // Extract OLB's relative makespan in both regimes.
        let rels: Vec<f64> = s
            .lines()
            .filter(|l| l.contains("online-OLB") && (l.starts_with("low") || l.starts_with("high")))
            .map(|l| l.split_whitespace().last().unwrap().parse::<f64>().unwrap())
            .collect();
        assert_eq!(rels.len(), 2, "{s}");
        assert!(
            rels[1] > rels[0],
            "OLB's relative penalty must grow with TMA: {rels:?}\n{s}"
        );
    }

    #[test]
    fn x7_shows_eq5_confounding() {
        let s = x7_eq5_vs_eq8();
        let line = s
            .lines()
            .find(|l| l.contains("Spread under row scaling"))
            .expect("summary line");
        let eq8: f64 = line
            .split("Eq. 8 = ")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        let eq5: f64 = line
            .split("Eq. 5 = ")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(eq8 < 1e-5, "Eq. 8 must be invariant, spread = {eq8}");
        assert!(eq5 > 1e-3, "Eq. 5 must move, spread = {eq5}");
    }

    #[test]
    fn x5_consistency_collapses_tma() {
        let s = x5_consistency_vs_tma();
        // Extract the mean TMA column for fractions 0.0 and 1.0.
        let rows: Vec<&str> = s
            .lines()
            .filter(|l| l.starts_with("0.") || l.starts_with("1."))
            .collect();
        let first: f64 = rows
            .first()
            .unwrap()
            .split_whitespace()
            .last()
            .unwrap()
            .parse()
            .unwrap();
        let last: f64 = rows
            .last()
            .unwrap()
            .split_whitespace()
            .last()
            .unwrap()
            .parse()
            .unwrap();
        assert!(
            last < first * 0.8,
            "consistency must collapse TMA: {first} -> {last}\n{s}"
        );
    }

    #[test]
    fn x6_monotone() {
        let s = x6_rank1_residual_vs_tma();
        assert!(s.contains("Monotone in TMA across the sweep: true"), "{s}");
    }

    #[test]
    fn x1_reports_convergence_to_limit() {
        let s = x1_regularized_tma();
        assert!(s.contains("Structural limit TMA"));
        assert!(s.contains("1e-1") || s.contains("1e-4"));
    }

    #[test]
    fn x2_grid_tight() {
        let s = x2_targeted_sweep();
        let worst: f64 = s
            .lines()
            .find(|l| l.starts_with("Worst absolute deviation"))
            .and_then(|l| l.split(": ").nth(1))
            .unwrap()
            .parse()
            .unwrap();
        assert!(worst < 1e-4, "worst grid deviation {worst}");
    }

    #[test]
    fn x3_produces_three_regimes() {
        let s = x3_heuristic_selection();
        assert!(s.contains("low (0.02)"));
        assert!(s.contains("high (0.55)"));
    }

    #[test]
    fn x4_accelerator_raises_tma() {
        let s = x4_whatif();
        let line = s
            .lines()
            .find(|l| l.contains("moves TMA by"))
            .expect("summary line");
        let v: f64 = line
            .split("moves TMA by ")
            .nth(1)
            .unwrap()
            .trim_end_matches('.')
            .trim()
            .parse()
            .unwrap();
        assert!(v > 0.0, "accelerator must raise TMA, got {v}");
    }

    #[test]
    fn unknown_extension() {
        assert!(extension("x10").contains("no extension"));
    }
}
