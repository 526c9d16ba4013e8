//! Determinism guarantees: identical results for any thread count, seed
//! stability across the whole stack, and platform-independent tie-breaking.

use hetero_measures::core::report::characterize;
use hetero_measures::gen::ensemble::targeted_ensemble;
use hetero_measures::linalg::matmul::{matmul_blocked, matmul_parallel};
use hetero_measures::linalg::par::{par_fold, par_map_indexed};
use hetero_measures::prelude::*;

fn fixture(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        0.1 + ((i.wrapping_mul(97) + j.wrapping_mul(61)) % 83) as f64 / 83.0
    })
}

#[test]
fn matmul_identical_across_thread_counts() {
    let a = fixture(53, 37);
    let b = fixture(37, 41);
    let base = matmul_blocked(&a, &b).unwrap();
    for threads in [1, 2, 3, 5, 8, 17] {
        let p = matmul_parallel(&a, &b, threads).unwrap();
        // Bit-identical: each output row is computed by exactly one thread with
        // the serial accumulation order.
        assert_eq!(p, base, "threads = {threads}");
    }
}

#[test]
fn par_map_and_fold_identical_across_thread_counts() {
    let serial: Vec<u64> = (0..1000u64).map(|i| i * i % 7919).collect();
    for threads in [1, 2, 4, 16, 64] {
        let par: Vec<u64> = par_map_indexed(1000, threads, |i| (i as u64) * (i as u64) % 7919);
        assert_eq!(par, serial, "threads = {threads}");
        let sum = par_fold(1000, threads, 0u64, |i| i as u64, |a, b| a + b);
        assert_eq!(sum, (0..1000u64).sum::<u64>(), "threads = {threads}");
    }
}

#[test]
fn ensemble_generation_is_seed_addressed() {
    // Results depend only on (spec, base_seed + index), never on scheduling.
    let spec = TargetSpec {
        jitter: 0.7,
        ..TargetSpec::exact(6, 4, 0.7, 0.6, 0.2)
    };
    let a = targeted_ensemble(&spec, 100, 6);
    let b = targeted_ensemble(&spec, 100, 6);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.as_ref().unwrap().matrix(), y.as_ref().unwrap().matrix());
    }
    // Shifting the base seed shifts members accordingly.
    let c = targeted_ensemble(&spec, 102, 4);
    assert_eq!(
        a[2].as_ref().unwrap().matrix(),
        c[0].as_ref().unwrap().matrix()
    );
}

#[test]
fn full_characterization_is_reproducible() {
    let e = targeted(
        &TargetSpec {
            jitter: 0.5,
            ..TargetSpec::exact(10, 5, 0.75, 0.85, 0.15)
        },
        7,
    )
    .unwrap();
    let a = characterize(&e).unwrap();
    let b = characterize(&e).unwrap();
    assert_eq!(a.mph, b.mph);
    assert_eq!(a.tdh, b.tdh);
    assert_eq!(a.tma, b.tma);
    assert_eq!(a.standardization_iterations, b.standardization_iterations);
}
