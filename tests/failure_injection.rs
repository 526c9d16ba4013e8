//! Failure-injection suite: every public entry point must reject poisoned inputs
//! (NaN, ±∞ in the wrong places, zeros, negative values, degenerate shapes) with
//! a typed error — never a panic, never a silent wrong answer.

use hetero_measures::core::report::characterize;
use hetero_measures::core::whatif;
use hetero_measures::gen::cvb::{cvb, CvbParams};
use hetero_measures::gen::range_based::{range_based, RangeParams};
use hetero_measures::linalg::svd::svd;
use hetero_measures::prelude::*;
use hetero_measures::sched::problem::MappingProblem;
use hetero_measures::sinkhorn::balance::{balance_with, standardize, BalanceOptions};
use hetero_measures::spec::csv::from_csv;

fn nan_matrix() -> Matrix {
    let mut m = Matrix::filled(3, 3, 1.0);
    m[(1, 1)] = f64::NAN;
    m
}

fn inf_matrix() -> Matrix {
    let mut m = Matrix::filled(3, 3, 1.0);
    m[(0, 2)] = f64::INFINITY;
    m
}

#[test]
fn ecs_construction_rejects_poison() {
    assert!(Ecs::new(nan_matrix()).is_err());
    assert!(Ecs::new(inf_matrix()).is_err());
    assert!(Ecs::new(Matrix::filled(2, 2, -1.0)).is_err());
    assert!(Ecs::new(Matrix::zeros(2, 2)).is_err());
    assert!(Ecs::new(Matrix::zeros(0, 0)).is_err());
    // Rows/columns of zeros.
    let mut zr = Matrix::filled(2, 2, 1.0);
    zr[(0, 0)] = 0.0;
    zr[(0, 1)] = 0.0;
    assert!(Ecs::new(zr).is_err());
}

#[test]
fn etc_construction_rejects_poison() {
    assert!(Etc::new(nan_matrix()).is_err());
    assert!(Etc::new(Matrix::filled(2, 2, 0.0)).is_err());
    assert!(Etc::new(Matrix::filled(2, 2, -3.0)).is_err());
    assert!(Etc::new(Matrix::filled(2, 2, f64::INFINITY)).is_err());
}

#[test]
fn svd_rejects_poison_but_survives_extremes() {
    assert!(svd(&nan_matrix()).is_err());
    assert!(svd(&Matrix::zeros(0, 3)).is_err());
    // Extreme but legal values must not panic or produce NaN.
    let extreme = Matrix::from_rows(&[&[1e-300, 1e300], &[1e300, 1e-300]]).unwrap();
    let s = svd(&extreme).unwrap();
    assert!(s.singular_values.iter().all(|v| v.is_finite()));
}

#[test]
fn balance_rejects_poison() {
    let opts = BalanceOptions::default();
    assert!(standardize(&nan_matrix(), &opts).is_err());
    assert!(balance_with(&Matrix::filled(2, 2, -1.0), &[1.0; 2], &[1.0; 2], &opts).is_err());
    // Marginal mismatch and non-positive targets.
    let ok = Matrix::filled(2, 2, 1.0);
    assert!(balance_with(&ok, &[1.0, 1.0], &[3.0, 3.0], &opts).is_err());
    assert!(balance_with(&ok, &[1.0, -1.0], &[0.0, 0.0], &opts).is_err());
    assert!(balance_with(&ok, &[f64::NAN, 1.0], &[0.5, 0.5], &opts).is_err());
}

#[test]
fn measures_reject_empty_and_nonpositive() {
    use hetero_measures::core::measures::{adjacent_ratio_homogeneity, cov, ratio_measure};
    assert!(adjacent_ratio_homogeneity(&[]).is_err());
    assert!(adjacent_ratio_homogeneity(&[1.0, f64::INFINITY]).is_err());
    assert!(ratio_measure(&[1.0, f64::NAN]).is_err());
    assert!(cov(&[0.0, 0.0]).is_err(), "zero mean must be rejected");
}

#[test]
fn weights_reject_poison() {
    assert!(Weights::new(vec![1.0, f64::NAN], vec![1.0]).is_err());
    assert!(Weights::new(vec![1.0], vec![f64::INFINITY]).is_err());
    assert!(Weights::new(vec![0.0], vec![1.0]).is_err());
    // Dimension mismatch caught at use.
    let e = Ecs::from_rows(&[&[1.0, 2.0]]).unwrap();
    let w = Weights::new(vec![1.0, 1.0], vec![1.0, 1.0]).unwrap();
    assert!(
        hetero_measures::core::report::characterize_with(&e, &w, &TmaOptions::default()).is_err()
    );
}

#[test]
fn generators_reject_bad_params() {
    assert!(range_based(
        &RangeParams {
            tasks: 3,
            machines: 3,
            r_task: f64::NAN,
            r_mach: 10.0
        },
        0
    )
    .is_err());
    assert!(cvb(&CvbParams::new(3, 3, -0.1, 0.3), 0).is_err());
    assert!(targeted(&TargetSpec::exact(3, 3, 0.5, 0.5, f64::NAN), 0).is_err());
    assert!(targeted(&TargetSpec::exact(3, 3, f64::NAN, 0.5, 0.1), 0).is_err());
    assert!(synth2x2(0.5, 0.5, f64::NAN).is_err());
}

#[test]
fn scheduling_rejects_poison() {
    assert!(MappingProblem::new(nan_matrix()).is_err());
    assert!(MappingProblem::new(Matrix::filled(2, 2, -1.0)).is_err());
    // All-infinite row = unschedulable task.
    let mut m = Matrix::filled(2, 2, 1.0);
    m[(0, 0)] = f64::INFINITY;
    m[(0, 1)] = f64::INFINITY;
    assert!(MappingProblem::new(m).is_err());
}

#[test]
fn csv_rejects_malformed_and_poisoned() {
    assert!(from_csv("").is_err());
    assert!(from_csv("garbage").is_err());
    assert!(from_csv("task,m1\nt1,NaN\n").is_err());
    assert!(from_csv("task,m1\nt1,-5\n").is_err());
    assert!(from_csv("task,m1\nt1,1.0,extra\n").is_err());
}

#[test]
fn whatif_rejects_degenerate_edits() {
    let e = Ecs::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
    assert!(whatif::remove_machine(&e, 99).is_err());
    assert!(whatif::remove_task(&e, 99).is_err());
    assert!(whatif::add_task(&e, "bad", &[1.0]).is_err());
    assert!(whatif::add_machine(&e, "bad", &[1.0, f64::NAN]).is_err());
}

#[test]
fn characterize_handles_hostile_but_legal_environments() {
    // 12 orders of magnitude of spread: no panic, finite outputs, valid ranges.
    let e = Ecs::from_rows(&[&[1e-6, 1.0, 1e6], &[1e6, 1e-6, 1.0], &[1.0, 1e6, 1e-6]]).unwrap();
    let r = characterize(&e).unwrap();
    assert!(r.mph.is_finite() && r.mph > 0.0 && r.mph <= 1.0);
    assert!(r.tdh.is_finite() && r.tdh > 0.0 && r.tdh <= 1.0);
    assert!(r.tma.is_finite() && (0.0..=1.0).contains(&r.tma));
}

#[test]
fn zero_policy_errors_are_typed() {
    // No-support pattern: every policy that cannot proceed must return
    // NotBalanceable, not panic or spin.
    // Tasks 1 and 2 can only run on machine 1: a Hall violation (two tasks, one
    // machine), so the pattern has no positive diagonal at all.
    let e = Ecs::from_rows(&[&[1.0, 0.0, 0.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 1.0]]).unwrap();
    let strict = TmaOptions {
        zero_policy: ZeroPolicy::Strict,
        ..Default::default()
    };
    let limit = TmaOptions {
        zero_policy: ZeroPolicy::Limit,
        ..Default::default()
    };
    assert!(matches!(
        tma_with(&e, &strict),
        Err(MeasureError::NotBalanceable { .. })
    ));
    assert!(matches!(
        tma_with(&e, &limit),
        Err(MeasureError::NotBalanceable { .. })
    ));
    // Regularization is the designed escape hatch and must succeed.
    let reg = TmaOptions {
        zero_policy: ZeroPolicy::Regularize { epsilon: 1e-3 },
        balance: hetero_measures::sinkhorn::balance::BalanceOptions {
            max_iters: 1_000_000,
            stall_window: usize::MAX,
            ..Default::default()
        },
        ..Default::default()
    };
    let v = tma_with(&e, &reg).unwrap();
    assert!((0.0..=1.0).contains(&v));
}
