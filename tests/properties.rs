//! Seeded properties of the paper's claims and of the crates built on them,
//! on the runner in `common` (`HC_PROP_SEED=<seed>` replays one case):
//!
//! * the measures (Sec. I): ranges, unit-scale invariance (property 2), TMA's
//!   independence of row and column scaling (property 3), permutation
//!   invariance, transposition, the ETC↔ECS round trip, and rank 1 ⇒ TMA 0;
//! * the standard form: existence and uniqueness (Theorem 1), σ₁ = 1
//!   (Theorem 2), and the zero-pattern classes of Sec. VI;
//! * the generators, the mapping heuristics and the simulator;
//! * the CSV reader: bit-exact round trips through `to_csv`, and on seeded
//!   mutations of valid bodies the result of the field-by-field reader kept
//!   in `csv_oracle`;
//! * the session edit language: valid documents read back to the edits
//!   they were written from, index 0 and one past the end are refused on
//!   their line, and on seeded mutations of valid documents the parser
//!   never panics, accepts only in-range edits without NaN, names a line
//!   inside the document in every error, and accepts a canonical
//!   re-rendering of what it accepted as the same edits, bit for bit;
//! * the HTTP request parser: valid requests, alone and pipelined, read back
//!   the same however the bytes are split across reads, and on seeded
//!   mutations it never panics, refuses only with a 4xx, buffers no more than
//!   a header block and a body, and reads the same in every split.
//!
//! Properties that draw from one input domain share a `check`; every
//! failure message starts with the name of the property that failed.

use hc_serve::http::{Request, RequestParser, MAX_HEADER_BYTES};
use hc_session::{parse_edits, Edit};
use hetero_measures::core::ecs::{Ecs, Etc};
use hetero_measures::core::error::MeasureError;
use hetero_measures::core::measures::{adjacent_ratio_homogeneity, mph, tdh};
use hetero_measures::core::standard::{standard_form, tma, TmaOptions};
use hetero_measures::gen::rng::{Rng, StdRng};
use hetero_measures::gen::targeted::{synth2x2, targeted, TargetSpec};
use hetero_measures::gen::{
    classify, consistency_degree, make_consistent, range_based, Consistency, RangeParams,
};
use hetero_measures::linalg::svd::{svd_with, SvdAlgorithm};
use hetero_measures::linalg::Matrix;
use hetero_measures::sched::exact::{optimal, simulated_annealing, SaParams};
use hetero_measures::sched::ga::{ga, GaParams};
use hetero_measures::sched::problem::{makespan_lower_bound, MappingProblem};
use hetero_measures::sched::{all_heuristics, Heuristic, HeuristicKind};
use hetero_measures::sim::workload::generate;
use hetero_measures::sim::{simulate, BatchPolicy, OnlinePolicy, Policy, SimConfig, WorkloadSpec};
use hetero_measures::sinkhorn::balance::{
    balance_with, standard_targets, standardize, BalanceOptions, BalanceOutcome,
};
use hetero_measures::sinkhorn::structure::{
    analyze_square, fully_indecomposable_exhaustive, total_support_core,
};
use hetero_measures::sinkhorn::Balanceability;
use hetero_measures::spec::csv::{cell_count, from_csv, to_csv};

mod common;
mod csv_oracle;
use common::{check, ensure, matrix_of};

/// `r` with its error rendered, for `?` inside a property.
fn ok<T, E: std::fmt::Display>(r: Result<T, E>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

/// Fails, naming `property` and `what`, unless `got` is within `tol` of `want`.
fn near(property: &str, what: &str, got: f64, want: f64, tol: f64) -> Result<(), String> {
    ensure((got - want).abs() < tol, || {
        format!("{property}: {what} {got} vs {want} (tolerance {tol:e})")
    })
}

/// A random ECS matrix: 2–7 × 2–7, entries in [0.05, 20).
fn ecs(rng: &mut StdRng) -> Ecs {
    let (t, m) = (rng.gen_range(2..8), rng.gen_range(2..8));
    Ecs::new(matrix_of(rng, t, m, 0.05, 20.0)).expect("a positive matrix is an ECS")
}

/// MPH, TDH and TMA of the ECS matrix `m`.
fn measures(m: Matrix) -> Result<[f64; 3], String> {
    let e = ok(Ecs::new(m))?;
    Ok([ok(mph(&e))?, ok(tdh(&e))?, ok(tma(&e))?])
}

#[test]
fn measures_on_random_ecs() {
    check("measures_on_random_ecs", |rng| {
        let e = ecs(rng);
        let a = e.matrix();
        let [mph0, tdh0, tma0] = measures(a.clone())?;
        let unit = |v: f64| v > 0.0 && v <= 1.0 + 1e-12;
        let in_range = unit(mph0) && unit(tdh0) && (-1e-9..=1.0 + 1e-9).contains(&tma0);
        ensure(in_range, || {
            format!("measures_in_range: MPH {mph0}, TDH {tdh0}, TMA {tma0}")
        })?;

        // Property 2: a change of units moves no measure.
        let p = "scale_invariance_second_property";
        let [m, t, x] = measures(a.scaled(rng.gen_range(0.001..1000.0)))?;
        near(p, "MPH", m, mph0, 1e-10)?;
        near(p, "TDH", t, tdh0, 1e-10)?;
        near(p, "TMA", x, tma0, 1e-6)?;

        // Property 3: scaling a row moves TDH and scaling a column moves MPH,
        // but neither moves TMA.
        let (mut rows, mut cols) = (a.clone(), a.clone());
        rows.scale_row(0, rng.gen_range(0.05..20.0));
        cols.scale_col(0, rng.gen_range(0.05..20.0));
        let p = "tma_invariant_under_row_scaling";
        near(p, "TMA", measures(rows)?[2], tma0, 1e-5)?;
        let p = "tma_invariant_under_col_scaling";
        near(p, "TMA", measures(cols)?[2], tma0, 1e-5)?;

        let reversed = |n: usize| (0..n).rev().collect::<Vec<_>>();
        let p = "mph_permutation_invariant";
        let [m, _, x] = measures(ok(a.permute_cols(&reversed(a.cols())))?)?;
        near(p, "MPH", m, mph0, 1e-12)?;
        near(p, "TMA", x, tma0, 1e-6)?;
        let p = "tdh_permutation_invariant";
        let [_, t, x] = measures(ok(a.permute_rows(&reversed(a.rows())))?)?;
        near(p, "TDH", t, tdh0, 1e-12)?;
        near(p, "TMA", x, tma0, 1e-6)?;

        // Transposing exchanges tasks and machines: MPH and TDH swap, and TMA
        // is symmetric.
        let p = "transpose_swaps_mph_tdh";
        let [m, t, x] = measures(a.transpose())?;
        near(p, "MPH of the transpose vs TDH", m, tdh0, 1e-12)?;
        near(p, "TDH of the transpose vs MPH", t, mph0, 1e-12)?;
        near(p, "TMA", x, tma0, 1e-6)?;

        let p = "etc_ecs_round_trip_preserves_measures";
        let round = e.to_etc().to_ecs();
        near(p, "MPH", ok(mph(&round))?, mph0, 1e-9)?;
        near(p, "TDH", ok(tdh(&round))?, tdh0, 1e-9)
    });
}

#[test]
fn rank_one_always_zero_tma() {
    // ECS(i, j) = a_i · b_j has proportional columns, so TMA = 0 whatever MPH
    // and TDH are: the constructive half of measure independence.
    check("rank_one_always_zero_tma", |rng| {
        let (t, m) = (rng.gen_range(2..7), rng.gen_range(2..7));
        let (a, b) = (
            matrix_of(rng, t, 1, 0.1, 10.0),
            matrix_of(rng, 1, m, 0.1, 10.0),
        );
        let x = measures(Matrix::from_fn(t, m, |i, j| a[(i, 0)] * b[(0, j)]))?[2];
        ensure(x < 1e-6, || {
            format!("rank_one_always_zero_tma: TMA {x}, {a:?}·{b:?}")
        })
    });
}

#[test]
fn theorem1_on_random_positive_matrices() {
    let opts = BalanceOptions::default();
    check("theorem1_on_random_positive_matrices", |rng| {
        let (t, m) = (rng.gen_range(1..9), rng.gen_range(1..9));
        let a = matrix_of(rng, t, m, 0.05, 50.0);
        let out = ok(standardize(&a, &opts))?;

        // Existence: every positive rectangular matrix reaches the standard
        // form, and stays positive.
        let p = "theorem1_positive_matrices_balance";
        ensure(out.is_converged(), || format!("{p}: {:?}", out.status))?;
        let (rt, ct) = standard_targets(t, m);
        let (rows, cols) = (out.matrix.row_sums(), out.matrix.col_sums());
        for (s, want) in rows.iter().zip(&rt).chain(cols.iter().zip(&ct)) {
            ensure((s - want).abs() / want < 1e-7, || {
                format!("{p}: sum {s} vs {want}")
            })?;
        }
        ensure(out.matrix.is_positive(), || format!("{p}: a zero entry"))?;

        // The paper saw 6–7 iterations on real data; random inputs get a
        // loose multiple.
        let (p, k) = ("iteration_counts_small_for_positive", out.iterations);
        ensure(k <= 500, || format!("{p}: {k} iterations"))?;

        // Uniqueness: pre-scaling a row and a column leaves the standard form.
        let mut pre = a.clone();
        pre.scale_row(0, rng.gen_range(0.1..10.0));
        pre.scale_col(0, rng.gen_range(0.1..10.0));
        let pre_form = ok(standardize(&pre, &opts))?.matrix;
        let p = "theorem1_uniqueness_under_diag_scaling";
        near(p, "max |Δ|", pre_form.max_abs_diff(&out.matrix), 0.0, 1e-5)
    });
}

#[test]
fn theorem2_standard_form_has_unit_sigma1() {
    let opts = TmaOptions::default();
    check("theorem2_standard_form_has_unit_sigma1", |rng| {
        let sf = ok(standard_form(&ecs(rng), &opts))?.matrix;
        let sigma1 = ok(svd_with(&sf, SvdAlgorithm::Jacobi))?.singular_values[0];
        let p = "theorem2_standard_form_has_unit_sigma1";
        ensure((sigma1 - 1.0).abs() <= 1e-7, || {
            format!("{p}: σ₁ = {sigma1}")
        })?;
        let (rt, _) = standard_targets(sf.rows(), sf.cols());
        for (s, want) in sf.row_sums().into_iter().zip(rt) {
            let off = (s - want).abs() / want;
            ensure(off <= opts.balance.tol, || {
                format!("{p}: row sum {s} vs √(M/T) {want}")
            })?;
        }
        Ok(())
    });
}

/// A square pattern, `n` uniform in `2..=max_n`, each entry positive with
/// probability `density` and then drawn by `weight`; redrawn, size included,
/// until no row or column is zero, as in an ECS matrix.
fn square_pattern(
    rng: &mut StdRng,
    max_n: usize,
    density: f64,
    weight: impl Fn(&mut StdRng) -> f64,
) -> Matrix {
    loop {
        let n = rng.gen_range(2..max_n + 1);
        let a = Matrix::from_fn(n, n, |_, _| {
            if rng.gen_bool(density) {
                weight(rng)
            } else {
                0.0
            }
        });
        if a.row_sums().iter().chain(&a.col_sums()).all(|&s| s > 0.0) {
            return a;
        }
    }
}

/// Balances `a` to unit marginals, with stall detection off.
fn balance(a: &Matrix, tol: f64, max_iters: usize) -> Result<BalanceOutcome, String> {
    let ones = vec![1.0; a.rows()];
    let opts = BalanceOptions {
        tol,
        max_iters,
        stall_window: usize::MAX,
        ..BalanceOptions::default()
    };
    ok(balance_with(a, &ones, &ones, &opts))
}

#[test]
fn zero_pattern_structure() {
    check("zero_pattern_structure", |rng| {
        let a = square_pattern(rng, 5, 0.7, |_| 1.0);
        let n = a.rows();

        // Row and column scaling never create or destroy a zero (Sec. VI).
        let b = balance(&a, 1e-6, 500)?.matrix;
        let same_zero = |(&x, &y): (&f64, &f64)| (x == 0.0 && y == 0.0) || (x > 0.0 && y > 0.0);
        let kept = a.as_slice().iter().zip(b.as_slice()).all(same_zero);
        ensure(kept, || {
            format!("balance_preserves_zero_pattern: {a:?} → {b:?}")
        })?;

        let rep = analyze_square(&a);
        use Balanceability::{ExactlyBalanceable, Positive};
        if matches!(rep.balanceability, ExactlyBalanceable | Positive) {
            let p = "total_support_patterns_balance_within_budget";
            let out = balance(&a, 1e-8, 20_000)?;
            ensure(out.is_converged(), || {
                format!("{p}: {a:?}: {:?}", out.status)
            })?;
        }

        // Total support ⇒ support; fully indecomposable ⇒ total support
        // (n ≥ 2); and the exhaustive check of the definition agrees.
        let slow = fully_indecomposable_exhaustive(&a, 6);
        let consistent = (rep.has_support || !rep.has_total_support)
            && (rep.has_total_support || !rep.fully_indecomposable)
            && slow == Some(rep.fully_indecomposable);
        ensure(consistent, || {
            format!("structure_flags_are_consistent: {rep:?}, exhaustively {slow:?}")
        })?;

        let perm: Vec<usize> = (0..n).rev().collect();
        let q = analyze_square(&ok(ok(a.permute_rows(&perm))?.permute_cols(&perm))?);
        let (x, y) = (&rep, &q);
        let invariant = x.has_support == y.has_support
            && x.has_total_support == y.has_total_support
            && x.fully_indecomposable == y.fully_indecomposable;
        ensure(invariant, || {
            format!("permutation_invariance_of_structure: {x:?} vs {y:?}")
        })
    });
}

#[test]
fn section6_zero_pattern_classes() {
    // Sec. VI: a pattern without support never balances; one with support but
    // not total support balances only in the limit, where every entry off the
    // total-support core decays to zero; one with total support balances.
    check("section6_zero_pattern_classes", |rng| {
        let a = square_pattern(rng, 6, 0.5, |rng| rng.gen_range(0.1..10.0));
        match analyze_square(&a).balanceability {
            Balanceability::NotBalanceable => {
                let out = balance(&a, 1e-8, 5_000)?;
                ensure(!out.is_converged(), || {
                    format!("no support, yet converged: {a:?}")
                })
            }
            Balanceability::LimitOnly => {
                let core = total_support_core(&a).ok_or("support without a core")?;
                // The largest entry off the core, relative to the largest one.
                let off_core = |iters| -> Result<f64, String> {
                    let b = balance(&a, 1e-8, iters)?.matrix;
                    let off = (b.as_slice().iter().zip(core.as_slice()))
                        .filter(|(_, &c)| c == 0.0)
                        .fold(0.0, |m: f64, (&x, _)| m.max(x));
                    Ok(off / b.max().unwrap_or(1.0))
                };
                let (early, late) = (off_core(50)?, off_core(2_000)?);
                ensure(late < early && late < 0.05, || {
                    format!("limit only: off the core {early} after 50, {late} after 2000: {a:?}")
                })
            }
            _ => {
                let out = balance(&a, 1e-8, 20_000)?;
                ensure(out.is_converged(), || {
                    format!("total support, yet {:?}", out.status)
                })
            }
        }
    });
}

#[test]
fn targeted_hits_arbitrary_targets() {
    check("targeted_hits_arbitrary_targets", |rng| {
        let spec = TargetSpec {
            tasks: rng.gen_range(3..7),
            machines: rng.gen_range(3..6),
            mph: rng.gen_range(0.15..1.0),
            tdh: rng.gen_range(0.15..1.0),
            tma: rng.gen_range(0.0..0.5),
            jitter: 0.4,
        };
        let e = ok(targeted(&spec, rng.gen_range(0..50)))?;
        let [m, t, x] = measures(e.matrix().clone())?;
        let p = "targeted_hits_arbitrary_targets";
        near(p, "MPH", m, spec.mph, 1e-5)?;
        near(p, "TDH", t, spec.tdh, 1e-5)?;
        near(p, "TMA", x, spec.tma, 1e-4)
    });
}

#[test]
fn synth2x2_exact_everywhere() {
    check("synth2x2_exact_everywhere", |rng| {
        let (mph_t, tdh_t) = (rng.gen_range(0.05..1.0), rng.gen_range(0.05..1.0));
        let tma_t = rng.gen_range(0.0..0.95);
        let [m, t, x] = measures(ok(synth2x2(mph_t, tdh_t, tma_t))?.matrix().clone())?;
        let p = "synth2x2_exact_everywhere";
        near(p, "MPH", m, mph_t, 1e-7)?;
        near(p, "TDH", t, tdh_t, 1e-7)?;
        near(p, "TMA", x, tma_t, 1e-5)
    });
}

#[test]
fn consistency_transforms() {
    check("consistency_transforms", |rng| {
        let etc = ok(range_based(
            &RangeParams::hi_hi(8, 5),
            rng.gen_range(0..200),
        ))?;
        let (a, c) = (etc.matrix(), make_consistent(etc.matrix()));
        // Consistent with degree 1, each row's entries kept, and idempotent.
        let sorted = |row: &[f64]| {
            let mut v = row.to_vec();
            v.sort_by(f64::total_cmp);
            v
        };
        let (class, degree) = (classify(&c), consistency_degree(&c));
        let kept = (0..c.rows()).all(|i| sorted(a.row(i)) == sorted(c.row(i)));
        let holds = class == Consistency::Consistent && degree == 1.0 && kept;
        ensure(holds && make_consistent(&c) == c, || {
            format!("make_consistent_properties: {class:?}, degree {degree}, rows kept {kept}")
        })?;

        let etc = ok(range_based(
            &RangeParams::lo_lo(6, 4),
            rng.gen_range(0..200),
        ))?;
        let d = consistency_degree(etc.matrix());
        ensure((0.0..=1.0).contains(&d), || {
            format!("consistency_degree_bounded: {d}")
        })
    });
}

#[test]
fn consistency_never_raises_mean_tma() {
    // Statistical, so one fixed ensemble rather than a per-seed property.
    let mut raw_sum = 0.0;
    let mut cons_sum = 0.0;
    for seed in 0..16 {
        let etc = range_based(&RangeParams::hi_hi(9, 5), seed).unwrap();
        let raw_ecs = Ecs::new(etc.matrix().map(|v| 1.0 / v)).unwrap();
        let cons = make_consistent(etc.matrix());
        let cons_ecs = Ecs::new(cons.map(|v| 1.0 / v)).unwrap();
        raw_sum += tma(&raw_ecs).unwrap();
        cons_sum += tma(&cons_ecs).unwrap();
    }
    assert!(
        cons_sum < raw_sum,
        "mean TMA must drop under consistency: {cons_sum} vs {raw_sum}"
    );
}

#[test]
fn generated_marginal_homogeneities_are_valid() {
    // A targeted matrix's sorted row sums have adjacent-ratio homogeneity
    // equal to the target TDH.
    check("generated_marginal_homogeneities_are_valid", |rng| {
        let (n, h) = (rng.gen_range(2..9), rng.gen_range(0.05..1.0));
        let e = ok(targeted(&TargetSpec::exact(n, 3, 0.5, h, 0.1), 0))?;
        let got = ok(adjacent_ratio_homogeneity(&e.matrix().row_sums()))?;
        let p = "generated_marginal_homogeneities_are_valid";
        near(p, "adjacent-ratio homogeneity", got, h, 1e-9)
    });
}

#[test]
fn range_based_entries_within_ranges() {
    let params = RangeParams {
        tasks: 6,
        machines: 4,
        r_task: 50.0,
        r_mach: 20.0,
    };
    check("range_based_entries_within_ranges", |rng| {
        let etc = ok(range_based(&params, rng.gen_range(0..100)))?;
        let lo = etc.matrix().min().unwrap_or(f64::NAN);
        let hi = etc.matrix().max().unwrap_or(f64::NAN);
        ensure(lo >= 1.0 && hi <= 50.0 * 20.0, || {
            format!("range_based_entries_within_ranges: entries {lo}..{hi}")
        })
    });
}

/// An ETC matrix for the mapping and simulation properties: 2–`max_tasks`
/// tasks × 2–4 machines, entries in [0.5, 20).
fn etc_matrix(rng: &mut StdRng, max_tasks: usize) -> Matrix {
    let (t, m) = (rng.gen_range(2..max_tasks + 1), rng.gen_range(2..5));
    matrix_of(rng, t, m, 0.5, 20.0)
}

/// The makespan of `h`'s schedule for `p`.
fn makespan(h: &impl Heuristic, p: &MappingProblem) -> Result<f64, String> {
    ok(ok(h.map(p))?.makespan(p))
}

#[test]
fn mapping_heuristics_on_random_problems() {
    check("mapping_heuristics_on_random_problems", |rng| {
        let p = ok(MappingProblem::new(etc_matrix(rng, 6)))?;
        let lb = makespan_lower_bound(&p);
        let opt = ok(ok(optimal(&p, 1e6))?.makespan(&p))?;
        for h in all_heuristics() {
            let (name, s) = (h.name(), ok(h.map(&p))?);
            let (n, mk) = (s.assignment.len(), ok(s.makespan(&p))?);
            ensure(
                n == p.num_tasks() && mk.is_finite() && mk >= lb - 1e-9,
                || {
                    format!(
                        "heuristics_valid_and_above_lower_bound: {name}: {n} tasks, {mk} < {lb}"
                    )
                },
            )?;
            ensure(opt >= lb - 1e-9 && mk >= opt - 1e-9, || {
                format!("optimal_dominates_heuristics: {name} {mk}, optimum {opt}, bound {lb}")
            })?;
        }

        // The GA and SA start from Min-Min and MCT and keep the best state.
        let minmin = makespan(&HeuristicKind::MinMin, &p)?;
        let params = GaParams {
            generations: 150,
            ..GaParams::default()
        };
        let g = ok(ok(ga(&p, &params))?.makespan(&p))?;
        ensure(g >= opt - 1e-9 && g <= minmin + 1e-9, || {
            format!("ga_dominated_by_optimum_dominates_minmin: {g}, {opt}, Min-Min {minmin}")
        })?;
        let mct = makespan(&HeuristicKind::Mct, &p)?;
        let params = SaParams {
            iterations: 3000,
            ..SaParams::default()
        };
        let sa = ok(ok(simulated_annealing(&p, &params))?.makespan(&p))?;
        ensure(sa >= opt - 1e-9 && sa <= mct + 1e-9, || {
            format!("sa_dominated_by_optimum_dominates_mct: {sa}, optimum {opt}, MCT {mct}")
        })?;

        // Slowing every machine uniformly scales every makespan by the factor.
        let factor = rng.gen_range(1.1..3.0);
        let slow = ok(MappingProblem::new(p.etc().scaled(factor)))?;
        for h in all_heuristics() {
            let (a, b) = (makespan(&h, &p)?, makespan(&h, &slow)?);
            let name = h.name();
            let p = "makespan_monotone_under_slowdown";
            near(p, name, b, a * factor, 1e-6 * b.max(1.0))?;
        }
        Ok(())
    });
}

#[test]
fn incompatibilities_always_respected() {
    check("incompatibilities_always_respected", |rng| {
        let mut etc = etc_matrix(rng, 5);
        for i in 0..etc.rows() {
            for j in 0..etc.cols() {
                if rng.gen_bool(0.25) {
                    etc[(i, j)] = f64::INFINITY;
                }
            }
            // Every task stays runnable somewhere.
            if etc.row(i).iter().all(|v| v.is_infinite()) {
                etc[(i, 0)] = 1.0;
            }
        }
        let p = ok(MappingProblem::new(etc))?;
        let params = GaParams {
            generations: 60,
            ..GaParams::default()
        };
        let heuristics = all_heuristics().into_iter().map(|h| (h.name(), h.map(&p)));
        for (name, s) in heuristics.chain([("GA", ga(&p, &params))]) {
            for (i, &j) in ok(s)?.assignment.iter().enumerate() {
                ensure(p.time(i, j).is_finite(), || {
                    format!("incompatibilities_always_respected: {name}: task {i} on {j}")
                })?;
            }
        }
        Ok(())
    });
}

#[test]
fn simulator_on_random_workloads() {
    use BatchPolicy::{MinMin, Sufferage};
    use OnlinePolicy::{Kpb, Mct, Met, Olb};
    let online = [Olb, Met, Mct, Kpb { percent: 50 }].map(Policy::Immediate);
    let batch = [MinMin, Sufferage].map(|policy| Policy::Batch {
        policy,
        interval: 3.0,
    });
    let policies: Vec<Policy> = online.into_iter().chain(batch).collect();
    check("simulator_on_random_workloads", |rng| {
        let etc = etc_matrix(rng, 6);
        let (seed, rate) = (rng.gen_range(0..1000), rng.gen_range(0.2..3.0));
        let workload = |n, rate| ok(generate(&WorkloadSpec::uniform(n, rate, etc.rows(), seed)));
        let run = |wl, policy| ok(simulate(&etc, wl, &SimConfig { policy }));

        // Every task runs once, after it arrives, for exactly its ETC entry.
        let wl = workload(60, rate)?;
        for &policy in &policies {
            let records = run(&wl, policy)?.records;
            let bad = records.iter().find(|rec| {
                let expect = etc[(rec.task_type, rec.machine)];
                !(rec.start >= rec.arrival - 1e-9
                    && rec.finish > rec.start
                    && (rec.finish - rec.start - expect).abs() < 1e-9)
            });
            ensure(records.len() == 60 && bad.is_none(), || {
                let (name, n) = (policy.name(), records.len());
                format!("physical_consistency: {name}: {n} records, first bad {bad:?}")
            })?;
        }

        // Tasks on one machine never overlap in time (FIFO queues).
        let wl = workload(50, 1.0)?;
        for &policy in &policies {
            let mut spans: Vec<_> = (run(&wl, policy)?.records.iter())
                .map(|rec| (rec.machine, rec.start, rec.finish))
                .collect();
            spans.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
            for w in spans.windows(2).filter(|w| w[0].0 == w[1].0) {
                ensure(w[1].1 >= w[0].2 - 1e-9, || {
                    format!("no_machine_overlap: {}: {w:?}", policy.name())
                })?;
            }
        }

        // Total busy time is the sum of the executed ETC entries.
        let wl = workload(40, 1.0)?;
        let records = run(&wl, Policy::Immediate(Mct))?.records;
        let busy: f64 = records.iter().map(|rec| rec.finish - rec.start).sum();
        let expect: f64 = records.iter().map(|r| etc[(r.task_type, r.machine)]).sum();
        near("busy_time_conservation", "busy time", busy, expect, 1e-6)?;

        // No schedule finishes before a task's arrival plus its fastest runtime.
        let wl = workload(30, 1.5)?;
        let fastest = |i: usize| etc.row(i).iter().fold(f64::INFINITY, |m, &v| m.min(v));
        let bound = (wl.arrivals.iter())
            .map(|a| a.time + fastest(a.task_type))
            .fold(0.0, f64::max);
        for &policy in &policies {
            let mk = run(&wl, policy)?.makespan();
            ensure(mk >= bound - 1e-9, || {
                format!(
                    "makespan_at_least_critical_path: {}: {mk} < {bound}",
                    policy.name()
                )
            })?;
        }
        Ok(())
    });
}

/// Characters of generated names: the CSV metacharacters `,` and `"`, a
/// carriage return, spaces and non-ASCII ones among letters. A name cannot
/// hold a `\n` (`Etc` refuses it).
const NAME_CHARS: [char; 11] = ['a', 'b', 'Z', '0', ',', '"', '\r', ' ', '-', 'é', '\u{a0}'];

/// `n` distinct names of up to six [`NAME_CHARS`].
fn names(rng: &mut StdRng, n: usize) -> Vec<String> {
    let mut out: Vec<String> = Vec::with_capacity(n);
    while out.len() < n {
        let len = rng.gen_range(0..7usize);
        let name: String = (0..len)
            .map(|_| NAME_CHARS[rng.gen_range(0..NAME_CHARS.len())])
            .collect();
        if !out.contains(&name) {
            out.push(name);
        }
    }
    out
}

/// A labeled ETC matrix, 1–8 × 1–8: entries over 600 decades, the extremes
/// of `f64` among them, and about one in five `inf`, never a whole row or
/// column of them.
fn labeled_etc(rng: &mut StdRng) -> Etc {
    let (t, m) = (rng.gen_range(1..9usize), rng.gen_range(1..9usize));
    const EXTREMES: [f64; 4] = [f64::MAX, f64::MIN_POSITIVE, 5e-324, 1.0];
    let mut cells: Vec<f64> = (0..t * m)
        .map(|_| match rng.gen_range(0..10usize) {
            0 | 1 => f64::INFINITY,
            2 => EXTREMES[rng.gen_range(0..EXTREMES.len())],
            3 => rng.gen_range(1..1000u64) as f64,
            _ => 10f64.powf(rng.gen_range(-300.0..300.0)),
        })
        .collect();
    for k in 0..t.max(m) {
        let (i, j) = (k % t, k % m);
        if cells[i * m + j].is_infinite() {
            cells[i * m + j] = 2.5;
        }
    }
    let matrix = Matrix::from_vec(t, m, cells).expect("shape matches data");
    Etc::with_names(matrix, names(rng, t), names(rng, m)).expect("a valid ETC matrix")
}

/// `Ok` when both readings hold the same names and matrix bits, or both
/// fail with the same text.
fn same_reading(
    got: &Result<Etc, MeasureError>,
    want: &Result<Etc, MeasureError>,
) -> Result<(), String> {
    let bits = |e: &Etc| {
        e.matrix()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    };
    let same = match (got, want) {
        (Ok(a), Ok(b)) => {
            a.task_names() == b.task_names()
                && a.machine_names() == b.machine_names()
                && a.matrix().shape() == b.matrix().shape()
                && bits(a) == bits(b)
        }
        (Err(a), Err(b)) => a.to_string() == b.to_string(),
        _ => false,
    };
    ensure(same, || format!("{got:?} vs {want:?}"))
}

#[test]
fn csv_round_trips_bit_for_bit() {
    check("csv_round_trips_bit_for_bit", |rng| {
        let etc = labeled_etc(rng);
        let text = to_csv(&etc);
        let back = from_csv(&text);
        same_reading(&back, &Ok(etc))
            .and_then(|()| same_reading(&back, &csv_oracle::from_csv(&text)))
            .map_err(|e| format!("csv_round_trips_bit_for_bit: {text:?}: {e}"))
    });
}

/// What a mutation inserts or writes over: CSV metacharacters, line breaks,
/// the pieces of a number, and whitespace that `trim` removes but `lines`
/// does not split on (U+00A0, U+0085, U+3000).
const MUTATION_TOKENS: [&str; 19] = [
    ",", "\"", "\n", "\r", "\r\n", " ", "\t", "0", "7", "9", "e", "-", ".", "inf", "\u{a0}",
    "\u{85}", "\u{3000}", "é", "\"\"",
];

/// `text` with one to three tokens inserted, characters deleted, or
/// characters replaced by tokens, at seeded positions.
fn mutate(rng: &mut StdRng, text: &str) -> String {
    mutate_with(rng, text, &MUTATION_TOKENS)
}

/// [`mutate`] with `tokens` to insert or write over.
fn mutate_with(rng: &mut StdRng, text: &str, tokens: &[&str]) -> String {
    let mut s = text.to_string();
    for _ in 0..rng.gen_range(1..4usize) {
        let starts: Vec<usize> = s.char_indices().map(|(i, _)| i).collect();
        let at = rng.gen_range(0..starts.len() + 1);
        let pos = starts.get(at).copied().unwrap_or(s.len());
        let token = tokens[rng.gen_range(0..tokens.len())];
        let op = rng.gen_range(0..3usize);
        if op > 0 && pos < s.len() {
            s.remove(pos);
        }
        if op != 1 {
            s.insert_str(pos, token);
        }
    }
    s
}

#[test]
fn csv_reader_matches_its_oracle_on_mutated_bodies() {
    check("csv_reader_matches_its_oracle_on_mutated_bodies", |rng| {
        let text = to_csv(&labeled_etc(rng));
        for _ in 0..16 {
            let body = mutate(rng, &text);
            let got = std::panic::catch_unwind(|| from_csv(&body))
                .map_err(|_| format!("csv_reader_never_panics: {body:?}"))?;
            same_reading(&got, &csv_oracle::from_csv(&body))
                .map_err(|e| format!("csv_reader_matches_its_oracle: {body:?}: {e}"))?;
            // The server's cell guard counts what the reader reads.
            if let Ok(etc) = &got {
                let (cells, want) = (cell_count(&body), etc.num_tasks() * etc.num_machines());
                ensure(cells == want, || {
                    format!("csv_cell_count_is_exact: {body:?}: {cells} vs {want}")
                })?;
            }
        }
        Ok(())
    });
}

/// Characters of edit-language names after their leading letter: none
/// separates, comments or trims, and no name is a plain integer, so an
/// index token always means an index.
const EDIT_NAME_CHARS: [char; 7] = ['a', 'Z', '0', '7', '-', '_', 'é'];

/// `n` distinct names: `lead`, then up to three [`EDIT_NAME_CHARS`].
fn edit_names(rng: &mut StdRng, lead: char, n: usize) -> Vec<String> {
    let mut out: Vec<String> = Vec::with_capacity(n);
    while out.len() < n {
        let len = rng.gen_range(0..4usize);
        let name: String = std::iter::once(lead)
            .chain((0..len).map(|_| EDIT_NAME_CHARS[rng.gen_range(0..EDIT_NAME_CHARS.len())]))
            .collect();
        if !out.contains(&name) {
            out.push(name);
        }
    }
    out
}

/// An edit value: `inf` or one digit about one time in six each (short
/// fields, which one mutation can turn into `nan` or an empty field), else
/// over 600 decades.
fn edit_value(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..6usize) {
        0 => f64::INFINITY,
        1 => rng.gen_range(1..10u64) as f64,
        _ => 10f64.powf(rng.gen_range(-300.0..300.0)),
    }
}

/// `edits` written by 1-based index, one per line, values as `{:?}` writes
/// them (the shortest text that reads back to the same bits).
fn canonical_edits(edits: &[Edit]) -> String {
    let values = |vs: &[f64]| vs.iter().map(|v| format!(",{v:?}")).collect::<String>();
    edits
        .iter()
        .map(|e| match e {
            Edit::Cell {
                task,
                machine,
                value,
            } => format!("cell,{},{},{value:?}\n", task + 1, machine + 1),
            Edit::Row { task, values: vs } => format!("row,{}{}\n", task + 1, values(vs)),
            Edit::Col {
                machine,
                values: vs,
            } => format!("col,{}{}\n", machine + 1, values(vs)),
        })
        .collect()
}

/// `Ok` when both edit lists are the same edits, values bit for bit:
/// `{:?}` writes each value as the shortest text that reads back to its
/// bits, so for values other than NaN equal texts are equal bits.
fn same_edits(got: &[Edit], want: &[Edit]) -> Result<(), String> {
    let (got, want) = (format!("{got:?}"), format!("{want:?}"));
    ensure(got == want, || format!("{got} vs {want}"))
}

/// A valid edit document over `tasks` × `machines` and the edits it holds:
/// one to four `cell`/`row`/`col` lines addressing rows and columns by name
/// or by 1-based index, with comment and blank lines and `\r\n` ends among
/// them.
fn edit_document(rng: &mut StdRng, tasks: &[String], machines: &[String]) -> (String, Vec<Edit>) {
    let token = |rng: &mut StdRng, names: &[String], i: usize| {
        if rng.gen_bool(0.5) {
            names[i].clone()
        } else {
            (i + 1).to_string()
        }
    };
    let (mut text, mut edits) = (String::new(), Vec::new());
    for _ in 0..rng.gen_range(1..5usize) {
        if rng.gen_bool(0.2) {
            text.push_str(if rng.gen_bool(0.5) { "# note\n" } else { " \n" });
        }
        let kind = rng.gen_range(0..3usize);
        if kind == 0 {
            let (task, machine) = (
                rng.gen_range(0..tasks.len()),
                rng.gen_range(0..machines.len()),
            );
            let value = edit_value(rng);
            let (t, m) = (token(rng, tasks, task), token(rng, machines, machine));
            text.push_str(&format!("cell,{t},{m},{value}"));
            edits.push(Edit::Cell {
                task,
                machine,
                value,
            });
        } else {
            // A row holds one value per machine, a column one per task.
            let (op, names, len) = match kind {
                1 => ("row", tasks, machines.len()),
                _ => ("col", machines, tasks.len()),
            };
            let i = rng.gen_range(0..names.len());
            text.push_str(&format!("{op},{}", token(rng, names, i)));
            let values: Vec<f64> = (0..len).map(|_| edit_value(rng)).collect();
            values.iter().for_each(|v| text.push_str(&format!(",{v}")));
            edits.push(match kind {
                1 => Edit::Row { task: i, values },
                _ => Edit::Col { machine: i, values },
            });
        }
        text.push_str(if rng.gen_bool(0.3) { "\r\n" } else { "\n" });
    }
    (text, edits)
}

/// What a mutation of an edit document inserts or writes over: separators,
/// line breaks, the comment mark, the pieces of a number, an empty field,
/// and U+00A0, which `trim` removes.
const EDIT_MUTATION_TOKENS: [&str; 15] = [
    ",", "\n", "\r\n", "#", "0", "1", "7", "-", ".", "e", "inf", "nan", "\u{a0}", ",,", "",
];

/// Every edit `parse_edits` accepts addresses an existing row or column
/// with a full row or column of values and no NaN.
fn edits_in_range(edits: &[Edit], t: usize, m: usize) -> bool {
    edits.iter().all(|e| match e {
        Edit::Cell {
            task,
            machine,
            value,
        } => *task < t && *machine < m && !value.is_nan(),
        Edit::Row { task, values } => {
            *task < t && values.len() == m && !values.iter().any(|v| v.is_nan())
        }
        Edit::Col { machine, values } => {
            *machine < m && values.len() == t && !values.iter().any(|v| v.is_nan())
        }
    })
}

/// Each of five broken parsers tried in a scratch copy (no value-count
/// check, NaN accepted, 0-based error lines, index one past the end
/// accepted, index 0 read as 1) fails this property.
#[test]
fn edit_language_survives_mutated_documents() {
    check("edit_language_survives_mutated_documents", |rng| {
        let (t, m) = (rng.gen_range(1..7usize), rng.gen_range(1..7usize));
        let (tasks, machines) = (edit_names(rng, 't', t), edit_names(rng, 'm', m));
        let (text, written) = edit_document(rng, &tasks, &machines);
        let read = ok(parse_edits(&text, &tasks, &machines))
            .map_err(|e| format!("edit_documents_parse: {text:?}: {e}"))?;
        same_edits(&read, &written).map_err(|e| format!("edit_documents_parse: {text:?}: {e}"))?;
        // Index 0 and one past the end are refused, on their line, wherever
        // they address a row or a column.
        let k = rng.gen_range(0..written.len());
        let bound = match written[k] {
            Edit::Col { .. } => m,
            _ => t,
        };
        let index = if rng.gen_bool(0.5) { 0 } else { bound + 1 };
        let index = index.to_string();
        let doc: String = canonical_edits(&written)
            .lines()
            .enumerate()
            .map(|(i, line)| {
                let mut fields: Vec<&str> = line.split(',').collect();
                if i == k {
                    fields[1] = &index;
                }
                fields.join(",") + "\n"
            })
            .collect();
        match parse_edits(&doc, &tasks, &machines) {
            Err(e) if e.line == k + 1 && e.reason.contains("out of range") => {}
            other => {
                return Err(format!(
                    "edit_indices_are_bounded: {doc:?}: {other:?} (line {})",
                    k + 1
                ))
            }
        }
        // Indices 0 and one past the end, for tasks and for machines.
        let past = [(t + 1).to_string(), (m + 1).to_string()];
        let mut tokens = EDIT_MUTATION_TOKENS.to_vec();
        tokens.extend(past.iter().map(String::as_str));
        for _ in 0..16 {
            let doc = mutate_with(rng, &text, &tokens);
            let parsed = std::panic::catch_unwind(|| parse_edits(&doc, &tasks, &machines))
                .map_err(|_| format!("edit_parser_never_panics: {doc:?}"))?;
            match parsed {
                Ok(edits) => {
                    ensure(edits_in_range(&edits, t, m), || {
                        format!("edits_in_range: {doc:?}: {edits:?} over {t}x{m}")
                    })?;
                    let canonical = canonical_edits(&edits);
                    let again = ok(parse_edits(&canonical, &tasks, &machines))
                        .map_err(|e| format!("edits_render_canonically: {canonical:?}: {e}"))?;
                    same_edits(&again, &edits)
                        .map_err(|e| format!("edits_render_canonically: {doc:?}: {e}"))?;
                }
                Err(e) => {
                    let lines = doc.lines().count();
                    let no_edits = e.reason == "edit body contains no edits";
                    ensure(
                        if no_edits {
                            e.line == 0
                        } else {
                            (1..=lines).contains(&e.line)
                        },
                        || format!("edit_errors_name_a_line: {doc:?}: {e} ({lines} lines)"),
                    )?;
                }
            }
        }
        Ok(())
    });
}

/// Body cap of the parsers the HTTP property drives: small, so mutated
/// `Content-Length` digits reach it.
const HTTP_MAX_BODY: usize = 256;

/// A raw request target, and the path and query it decodes to.
type HttpTarget = (
    &'static str,
    &'static str,
    &'static [(&'static str, &'static str)],
);

/// Request targets the HTTP property writes.
const HTTP_TARGETS: [HttpTarget; 6] = [
    ("/measure?ecs=1", "/measure", &[("ecs", "1")]),
    ("/session", "/session", &[]),
    ("/session/0a1b2c3d", "/session/0a1b2c3d", &[]),
    ("/session/0a1b2c3d/etc", "/session/0a1b2c3d/etc", &[]),
    (
        "/metrics?format=prometheus&x=a%20b+c",
        "/metrics",
        &[("format", "prometheus"), ("x", "a b c")],
    ),
    ("/healthz?flag", "/healthz", &[("flag", "")]),
];

/// A valid request: GET, POST or PATCH, HTTP/1.1 or /1.0, with or without
/// `Content-Length` on a GET, `Connection` absent, `close` or `keep-alive`,
/// optional `X-Request-Id` and `If-Match`. Returns its bytes and the request
/// and keep-alive decision the parser must read back.
fn http_request(rng: &mut StdRng) -> (Vec<u8>, Request, bool) {
    let method = ["GET", "POST", "PATCH"][rng.gen_range(0..3usize)];
    let (target, path, query) = HTTP_TARGETS[rng.gen_range(0..HTTP_TARGETS.len())];
    let http10 = rng.gen_bool(0.2);
    let mut head = format!(
        "{method} {target} HTTP/1.{}\r\nHost: x\r\n",
        u8::from(!http10)
    );
    let request_id = rng
        .gen_bool(0.5)
        .then(|| format!("r-{}", rng.gen_range(0..1000u64)));
    if let Some(id) = &request_id {
        head.push_str(&format!("X-Request-Id: {id}\r\n"));
    }
    let if_match = rng.gen_bool(0.3).then(|| rng.gen_range(1..100u64));
    if let Some(v) = if_match {
        head.push_str(&format!("If-Match: {v}\r\n"));
    }
    let keep_alive = match rng.gen_range(0..3usize) {
        0 => !http10,
        1 => {
            head.push_str("Connection: close\r\n");
            false
        }
        _ => {
            head.push_str("Connection: keep-alive\r\n");
            true
        }
    };
    let body: Vec<u8> = if method == "GET" {
        Vec::new()
    } else {
        let len = rng.gen_range(0..48usize);
        (0..len)
            .map(|_| b"t1,m2,7.5\r\n"[rng.gen_range(0..11usize)])
            .collect()
    };
    if method != "GET" || rng.gen_bool(0.5) {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(&body);
    let request = Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        body,
        request_id,
        timeout_ms: None,
        traceparent: None,
        if_match,
        malformed_headers: Vec::new(),
    };
    (bytes, request, keep_alive)
}

/// What a parser read from a byte stream: each request and keep-alive
/// decision as `{:?}` writes them, then the error that ended the stream, or
/// whether the parser stood idle at its end.
type HttpReading = (Vec<String>, Option<(u16, String)>, bool);

/// Feeds `bytes` to a fresh parser in chunks ending at `cuts`, polling after
/// each feed until it needs more bytes. Every poll must return nothing yet,
/// a request whose body is within the cap, or a 4xx, and between feeds the
/// parser must buffer no more than a header block and a body.
fn read_http(bytes: &[u8], cuts: &[usize]) -> Result<HttpReading, String> {
    let mut parser = RequestParser::new(HTTP_MAX_BODY);
    let mut requests = Vec::new();
    let mut from = 0;
    for &to in cuts.iter().chain(std::iter::once(&bytes.len())) {
        parser.feed(&bytes[from..to]);
        from = to;
        loop {
            match parser.poll() {
                Ok(Some(read)) => {
                    ensure(read.0.body.len() <= HTTP_MAX_BODY, || {
                        format!("http_bodies_are_capped: {read:?}")
                    })?;
                    requests.push(format!("{read:?}"));
                }
                Ok(None) => break,
                Err(e) if (400..500).contains(&e.status) => {
                    return Ok((requests, Some((e.status, e.message)), false))
                }
                Err(e) => return Err(format!("http_errors_are_4xx: {e:?}")),
            }
        }
        let held = parser.buffered();
        ensure(held <= MAX_HEADER_BYTES + HTTP_MAX_BODY, || {
            format!("http_parser_memory_is_bounded: {held} bytes buffered")
        })?;
    }
    Ok((requests, None, parser.is_idle()))
}

/// Up to four seeded cut points in `0..=len`.
fn http_cuts(rng: &mut StdRng, len: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = (0..rng.gen_range(0..5usize))
        .map(|_| rng.gen_range(0..len + 1))
        .collect();
    cuts.sort_unstable();
    cuts
}

/// `bytes` with one to three tokens inserted, bytes deleted, or bytes
/// replaced by tokens, at seeded positions.
fn mutate_bytes(rng: &mut StdRng, bytes: &[u8], tokens: &[Vec<u8>]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..rng.gen_range(1..4usize) {
        let pos = rng.gen_range(0..out.len() + 1);
        let token = &tokens[rng.gen_range(0..tokens.len())];
        let op = rng.gen_range(0..3usize);
        if op > 0 && pos < out.len() {
            out.remove(pos);
        }
        if op != 1 {
            out.splice(pos..pos, token.iter().copied());
        }
    }
    out
}

/// Each of seven broken parsers tried in a scratch copy fails this property:
/// a header limit checked only while the terminator is missing, no body
/// cap, a terminator left half in the buffer, a panic on an unparsable
/// `Content-Length`, a 500 for it, duplicate `Content-Length`s summed, and
/// a head that is not UTF-8 read lossily.
#[test]
fn http_parser_survives_mutated_requests() {
    let mut tokens: Vec<Vec<u8>> = [
        &b"\r"[..],
        b"\n",
        b"\r\n",
        b"\r\n\r\n",
        b":",
        b" ",
        b"\0",
        b"\xff",
        b"\xc3\x28",
        b"0",
        b"9",
        b"+",
        b"-",
        b"Content-Length: 7\r\n",
        b"Transfer-Encoding: chunked\r\n",
    ]
    .iter()
    .map(|t| t.to_vec())
    .collect();
    tokens.push(format!("X-Pad: {}\r\n", "a".repeat(MAX_HEADER_BYTES)).into_bytes());
    check("http_parser_survives_mutated_requests", |rng| {
        let (mut bytes, first, keep) = http_request(rng);
        let mut want = vec![format!("{:?}", (first, keep))];
        if rng.gen_bool(0.3) {
            let (more, second, keep) = http_request(rng);
            bytes.extend_from_slice(&more);
            want.push(format!("{:?}", (second, keep)));
        }
        let shown = String::from_utf8_lossy(&bytes).into_owned();
        let whole = read_http(&bytes, &[])?;
        ensure(whole == (want, None, true), || {
            format!("http_requests_parse: {shown:?}: {whole:?}")
        })?;
        // A last `Content-Length` past the cap, and a byte that is not
        // UTF-8 in the request line, refuse the first request.
        let head_end = bytes.windows(4).position(|w| w == b"\r\n\r\n").unwrap_or(0);
        let long = format!("\r\nContent-Length: {}", HTTP_MAX_BODY + 1);
        let space = bytes.iter().position(|&b| b == b' ').unwrap_or(0);
        for (at, insert, status, message) in [
            (
                head_end,
                long.as_bytes(),
                413,
                format!(
                    "body of {} bytes exceeds limit of {HTTP_MAX_BODY}",
                    HTTP_MAX_BODY + 1
                ),
            ),
            (
                space + 1,
                &b"\xff"[..],
                400,
                "headers are not valid UTF-8".to_string(),
            ),
        ] {
            let mut refused = bytes.clone();
            refused.splice(at..at, insert.iter().copied());
            let read = read_http(&refused, &[])?;
            ensure(
                read == (Vec::new(), Some((status, message.clone())), false),
                || {
                    let shown = String::from_utf8_lossy(&refused);
                    format!(
                        "http_requests_are_refused: {shown:?}: {read:?}, want {status} {message}"
                    )
                },
            )?;
        }
        let every_byte: Vec<usize> = (1..bytes.len()).collect();
        for cuts in [
            every_byte,
            http_cuts(rng, bytes.len()),
            http_cuts(rng, bytes.len()),
        ] {
            let split = read_http(&bytes, &cuts)?;
            ensure(split == whole, || {
                format!("http_splits_parse_alike: {shown:?} cut at {cuts:?}: {split:?}")
            })?;
        }
        for _ in 0..8 {
            let mutated = mutate_bytes(rng, &bytes, &tokens);
            let shown = String::from_utf8_lossy(&mutated).into_owned();
            let read = |cuts: &[usize]| {
                std::panic::catch_unwind(|| read_http(&mutated, cuts))
                    .map_err(|_| format!("http_parser_never_panics: {shown:?} cut at {cuts:?}"))?
                    .map_err(|e| format!("{e}: {shown:?} cut at {cuts:?}"))
            };
            let whole = read(&[])?;
            let cuts = http_cuts(rng, mutated.len());
            let split = read(&cuts)?;
            ensure(split == whole, || {
                format!(
                    "http_splits_parse_alike: {shown:?} cut at {cuts:?}: {split:?} vs {whole:?}"
                )
            })?;
        }
        Ok(())
    });
}
