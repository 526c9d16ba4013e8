//! Integration tests exercising multi-crate pipelines: generation → measures →
//! scheduling, and the SVD/balance stack under adverse inputs.

use hetero_measures::core::report::characterize;
use hetero_measures::gen::cvb::{cvb, CvbParams};
use hetero_measures::gen::range_based::{range_based, RangeParams};
use hetero_measures::prelude::*;
use hetero_measures::sched::eval::study_instance;
use hetero_measures::sched::ga::{ga, GaParams};
use hetero_measures::sched::heuristics::all_heuristics;
use hetero_measures::sched::problem::{makespan_lower_bound, MappingProblem};
use hetero_measures::sched::Heuristic;

/// Every generator's output is a valid environment with measures in range.
#[test]
fn generators_produce_valid_environments() {
    for seed in 0..5 {
        let envs: Vec<Ecs> = vec![
            range_based(&RangeParams::hi_hi(9, 4), seed)
                .unwrap()
                .to_ecs(),
            cvb(&CvbParams::new(9, 4, 0.4, 0.6), seed).unwrap().to_ecs(),
            targeted(&TargetSpec::exact(9, 4, 0.5, 0.5, 0.2), seed).unwrap(),
        ];
        for e in envs {
            let r = characterize(&e).unwrap();
            assert!(r.mph > 0.0 && r.mph <= 1.0 + 1e-12);
            assert!(r.tdh > 0.0 && r.tdh <= 1.0 + 1e-12);
            assert!((0.0..=1.0 + 1e-9).contains(&r.tma));
        }
    }
}

/// Full pipeline: generate → measure → schedule with every heuristic → validate
/// makespans against the lower bound.
#[test]
fn generate_measure_schedule_pipeline() {
    let e = targeted(
        &TargetSpec {
            jitter: 0.5,
            ..TargetSpec::exact(14, 5, 0.6, 0.7, 0.3)
        },
        11,
    )
    .unwrap();
    let study = study_instance(&e, &all_heuristics(), true).unwrap();
    assert!((study.tma - 0.3).abs() < 1e-4);
    let p = MappingProblem::from_etc(&e.to_etc());
    let lb = makespan_lower_bound(&p);
    for r in &study.results {
        let implied = r.relative
            * study
                .results
                .iter()
                .map(|x| x.makespan)
                .fold(f64::INFINITY, f64::min);
        assert!((implied - r.makespan).abs() < 1e-9);
        assert!(r.makespan >= lb - 1e-9, "{} below lower bound", r.name);
    }
    // GA is last and never worse than Min-Min (it is seeded with it).
    let minmin = study
        .results
        .iter()
        .find(|r| r.name == "Min-Min")
        .unwrap()
        .makespan;
    let ga_mk = study
        .results
        .iter()
        .find(|r| r.name == "GA")
        .unwrap()
        .makespan;
    assert!(ga_mk <= minmin + 1e-9);
}

/// Incompatibilities (∞ ETC / 0 ECS) flow correctly through the whole stack.
#[test]
fn incompatibility_pipeline() {
    // Machine 0 cannot run task 0; machine 2 cannot run task 2.
    let etc = Etc::new(
        Matrix::from_rows(&[
            &[f64::INFINITY, 10.0, 20.0],
            &[15.0, 25.0, 10.0],
            &[12.0, 18.0, f64::INFINITY],
        ])
        .unwrap(),
    )
    .unwrap();
    let ecs = etc.to_ecs();
    assert_eq!(ecs.get(0, 0), 0.0);
    // Measures still compute (Limit zero policy).
    let r = characterize(&ecs).unwrap();
    assert!(r.tma > 0.0);
    // Scheduling respects the forbidden pairs.
    let p = MappingProblem::from_etc(&etc);
    for h in all_heuristics() {
        let s = h.map(&p).unwrap();
        assert_ne!(s.assignment[0], 0, "{}", h.name());
        assert_ne!(s.assignment[2], 2, "{}", h.name());
    }
    let g = ga(&p, &GaParams::default()).unwrap();
    assert_ne!(g.assignment[0], 0);
    assert_ne!(g.assignment[2], 2);
}

/// The two SVD algorithms agree on every generated environment's standard form.
#[test]
fn svd_cross_validation_on_generated_environments() {
    use hetero_measures::linalg::svd::{svd_with, SvdAlgorithm};
    for seed in 0..4 {
        let e = cvb(&CvbParams::new(11, 5, 0.5, 0.5), seed)
            .unwrap()
            .to_ecs();
        let sf =
            hetero_measures::core::standard::standard_form(&e, &TmaOptions::default()).unwrap();
        let j = svd_with(&sf.matrix, SvdAlgorithm::Jacobi).unwrap();
        let g = svd_with(&sf.matrix, SvdAlgorithm::Auto).unwrap();
        for (a, b) in j.singular_values.iter().zip(&g.singular_values) {
            assert!((a - b).abs() < 1e-8, "σ mismatch: {a} vs {b}");
        }
        assert!((j.singular_values[0] - 1.0).abs() < 1e-6, "Theorem 2");
    }
}

/// Weighted measures: doubling a task's weight moves TDH/MPH like duplicating
/// its influence, while TMA stays put (diagonal-scaling invariance).
#[test]
fn weights_pipeline() {
    let e = targeted(&TargetSpec::exact(6, 4, 0.7, 0.7, 0.2), 5).unwrap();
    let uniform = characterize(&e).unwrap();
    let w = Weights::new(vec![8.0, 1.0, 1.0, 1.0, 1.0, 1.0], vec![1.0; 4]).unwrap();
    let weighted = characterize_with(&e, &w, &TmaOptions::default()).unwrap();
    assert!((uniform.tma - weighted.tma).abs() < 1e-6, "TMA invariant");
    assert!(
        (uniform.tdh - weighted.tdh).abs() > 1e-3,
        "TDH must respond to task weights"
    );
}

/// Degenerate shapes behave sensibly end to end.
#[test]
fn degenerate_shapes() {
    // Single machine: MPH = 1 by definition, TMA = 0.
    let one_machine = Ecs::from_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap();
    let r = characterize(&one_machine).unwrap();
    assert_eq!(r.mph, 1.0);
    assert_eq!(r.tma, 0.0);
    // Single task: TDH = 1, TMA = 0.
    let one_task = Ecs::from_rows(&[&[1.0, 5.0, 2.0]]).unwrap();
    let r = characterize(&one_task).unwrap();
    assert_eq!(r.tdh, 1.0);
    assert_eq!(r.tma, 0.0);
    // 2×2 minimal.
    let tiny = Ecs::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
    let r = characterize(&tiny).unwrap();
    assert!(r.tma > 0.0);
}
