//! Seeded properties of the dense linear-algebra substrate.
//!
//! Each property runs over [`CASES`] inputs drawn from the in-tree
//! `hc_gen::rng` generator, one seed per case. A failure names the property
//! and the seed, and `HC_PROP_SEED=<seed>` replays that one case:
//!
//! ```text
//! HC_PROP_SEED=17 cargo test --test linalg_properties svd_algorithms_agree
//! ```
//!
//! The two SVD algorithms are each other's differential oracle: one-sided
//! Jacobi and Golub–Reinsch share no code past input validation.

use hetero_measures::gen::rng::{Rng, StdRng};
use hetero_measures::linalg::matmul::{gram, matmul_blocked, matmul_naive, matmul_parallel};
use hetero_measures::linalg::norms;
use hetero_measures::linalg::qr::qr;
use hetero_measures::linalg::svd::{svd_with, SvdAlgorithm};
use hetero_measures::linalg::vecops;
use hetero_measures::linalg::Matrix;

/// Inputs per property.
const CASES: u64 = 300;

/// Runs `prop` once per seed in `0..CASES` (or only on `$HC_PROP_SEED`),
/// panicking with the property name and the failing seed.
fn check(name: &str, prop: impl Fn(&mut StdRng) -> Result<(), String>) {
    let seeds = match std::env::var("HC_PROP_SEED") {
        Ok(s) => {
            let seed = s.parse().expect("HC_PROP_SEED must be an integer");
            seed..seed + 1
        }
        Err(_) => 0..CASES,
    };
    for seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        if let Err(msg) = prop(&mut rng) {
            panic!("{name} failed for seed {seed} (replay: HC_PROP_SEED={seed}): {msg}");
        }
    }
}

/// Fails with `msg` unless `ok`.
fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// An `m × n` matrix, shapes up to `max × max`, entries uniform in `lo..hi`.
fn matrix(rng: &mut StdRng, max: usize, lo: f64, hi: f64) -> Matrix {
    let m = rng.gen_range(1..max + 1);
    let n = rng.gen_range(1..max + 1);
    let data = (0..m * n).map(|_| rng.gen_range(lo..hi)).collect();
    Matrix::from_vec(m, n, data).expect("shape matches data")
}

/// A general matrix: shapes up to 9×9, entries in [-10, 10).
fn any_matrix(rng: &mut StdRng) -> Matrix {
    matrix(rng, 9, -10.0, 10.0)
}

/// A strictly positive matrix (the ECS domain): shapes up to 8×8.
fn positive_matrix(rng: &mut StdRng) -> Matrix {
    matrix(rng, 8, 0.01, 100.0)
}

fn sigma(a: &Matrix, alg: SvdAlgorithm) -> Result<Vec<f64>, String> {
    svd_with(a, alg)
        .map(|s| s.singular_values)
        .map_err(|e| format!("{alg:?} SVD of a {:?} matrix failed: {e}", a.shape()))
}

#[test]
fn transpose_is_involution() {
    check("transpose_is_involution", |rng| {
        let a = any_matrix(rng);
        ensure(a.transpose().transpose() == a, || format!("{a:?}"))
    });
}

#[test]
fn row_sums_match_total() {
    check("row_sums_match_total", |rng| {
        let a = any_matrix(rng);
        let rs: f64 = a.row_sums().iter().sum();
        let cs: f64 = a.col_sums().iter().sum();
        let total = a.total_sum();
        ensure(
            (rs - total).abs() < 1e-9 && (cs - total).abs() < 1e-9,
            || format!("row sums {rs}, column sums {cs}, total {total}"),
        )
    });
}

#[test]
fn matmul_kernels_agree() {
    check("matmul_kernels_agree", |rng| {
        let a = any_matrix(rng);
        let at = a.transpose();
        let naive = matmul_naive(&a, &at).map_err(|e| e.to_string())?;
        let blocked = matmul_blocked(&a, &at).map_err(|e| e.to_string())?;
        let parallel = matmul_parallel(&a, &at, 3).map_err(|e| e.to_string())?;
        ensure(
            naive.max_abs_diff(&blocked) < 1e-9 && naive.max_abs_diff(&parallel) < 1e-9,
            || {
                format!(
                    "blocked off by {}, parallel off by {}",
                    naive.max_abs_diff(&blocked),
                    naive.max_abs_diff(&parallel)
                )
            },
        )
    });
}

#[test]
fn gram_is_symmetric_psd_diag() {
    check("gram_is_symmetric_psd_diag", |rng| {
        let g = gram(&any_matrix(rng));
        for i in 0..g.rows() {
            ensure(g[(i, i)] >= -1e-12, || {
                format!("diagonal {i} is {}", g[(i, i)])
            })?;
            for j in 0..g.cols() {
                ensure((g[(i, j)] - g[(j, i)]).abs() < 1e-9, || {
                    format!("({i},{j}) = {} but ({j},{i}) = {}", g[(i, j)], g[(j, i)])
                })?;
            }
        }
        Ok(())
    });
}

#[test]
fn qr_reconstructs() {
    check("qr_reconstructs", |rng| {
        let a = any_matrix(rng);
        let f = qr(&a).map_err(|e| e.to_string())?;
        let rec = matmul_naive(&f.q, &f.r).map_err(|e| e.to_string())?;
        ensure(rec.max_abs_diff(&a) < 1e-8, || {
            format!("QR reconstruction error {}", rec.max_abs_diff(&a))
        })?;
        let g = matmul_naive(&f.q.transpose(), &f.q).map_err(|e| e.to_string())?;
        let err = g.max_abs_diff(&Matrix::identity(f.q.cols()));
        ensure(err < 1e-8, || format!("QᵀQ off the identity by {err}"))
    });
}

#[test]
fn svd_reconstructs_and_sorted() {
    check("svd_reconstructs_and_sorted", |rng| {
        let a = any_matrix(rng);
        let s = svd_with(&a, SvdAlgorithm::Jacobi).map_err(|e| e.to_string())?;
        let residual = s.residual(&a);
        ensure(residual < 1e-8 * (1.0 + norms::frobenius(&a)), || {
            format!("reconstruction residual {residual}")
        })?;
        let sv = &s.singular_values;
        ensure(sv.windows(2).all(|w| w[0] >= w[1] - 1e-12), || {
            format!("not sorted: {sv:?}")
        })?;
        ensure(sv.iter().all(|&v| v >= 0.0), || {
            format!("negative σ: {sv:?}")
        })
    });
}

#[test]
fn svd_algorithms_agree() {
    check("svd_algorithms_agree", |rng| {
        let a = positive_matrix(rng);
        let sj = sigma(&a, SvdAlgorithm::Jacobi)?;
        let sg = sigma(&a, SvdAlgorithm::GolubReinsch)?;
        let f = norms::frobenius(&a);
        for (x, y) in sj.iter().zip(&sg) {
            ensure((x - y).abs() < 1e-8 * (1.0 + f), || {
                format!("Jacobi σ {x} vs Golub–Reinsch σ {y}")
            })?;
        }
        Ok(())
    });
}

#[test]
fn sigma_squares_sum_to_frobenius() {
    check("sigma_squares_sum_to_frobenius", |rng| {
        let a = any_matrix(rng);
        let ssq: f64 = sigma(&a, SvdAlgorithm::Jacobi)?.iter().map(|v| v * v).sum();
        let f2 = norms::frobenius(&a).powi(2);
        ensure((ssq - f2).abs() < 1e-8 * (1.0 + f2), || {
            format!("Σσ² = {ssq}, ‖A‖²_F = {f2}")
        })
    });
}

#[test]
fn sigma_max_bounds_norms() {
    // σ₁ ≤ √(‖A‖₁‖A‖∞) (Schur bound) and σ₁ ≥ max column 2-norm.
    check("sigma_max_bounds_norms", |rng| {
        let a = any_matrix(rng);
        let s1 = sigma(&a, SvdAlgorithm::Jacobi)?[0];
        let bound = (norms::one_norm(&a) * norms::inf_norm(&a)).sqrt();
        ensure(s1 <= bound + 1e-9 * (1.0 + bound), || {
            format!("σ₁ {s1} above the Schur bound {bound}")
        })?;
        for j in 0..a.cols() {
            let cn = vecops::norm2(&a.col(j));
            ensure(s1 >= cn - 1e-9 * (1.0 + cn), || {
                format!("σ₁ {s1} below column {j}'s norm {cn}")
            })?;
        }
        Ok(())
    });
}

#[test]
fn scaling_scales_sigma() {
    // σᵢ(kA) = kσᵢ(A) — the scale-invariance property TMA relies on.
    check("scaling_scales_sigma", |rng| {
        let a = positive_matrix(rng);
        let k = rng.gen_range(0.01..50.0);
        let s1 = sigma(&a, SvdAlgorithm::Jacobi)?;
        let s2 = sigma(&a.scaled(k), SvdAlgorithm::Jacobi)?;
        for (x, y) in s1.iter().zip(&s2) {
            ensure((x * k - y).abs() < 1e-7 * (1.0 + y.abs()), || {
                format!("k = {k}: kσ = {} vs σ(kA) = {y}", x * k)
            })?;
        }
        Ok(())
    });
}

#[test]
fn householder_annihilates() {
    check("householder_annihilates", |rng| {
        let len: usize = rng.gen_range(1..10);
        let x: Vec<f64> = (0..len).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let h = vecops::householder(&x);
        let mut y = x.clone();
        vecops::apply_householder(&h, &mut y);
        let norm = vecops::norm2(&x);
        let tol = 1e-9 * (1.0 + norm);
        ensure(
            (y[0] - h.alpha).abs() < tol && (y[0].abs() - norm).abs() < tol,
            || format!("Hx[0] = {}, α = {}, ‖x‖ = {norm}", y[0], h.alpha),
        )?;
        ensure(y[1..].iter().all(|v| v.abs() < tol), || {
            format!("tail not annihilated: {:?}", &y[1..])
        })
    });
}

#[test]
fn permutations_preserve_multiset() {
    check("permutations_preserve_multiset", |rng| {
        let a = any_matrix(rng);
        let perm: Vec<usize> = (0..a.rows()).rev().collect();
        let p = a.permute_rows(&perm).map_err(|e| e.to_string())?;
        let mut x = a.as_slice().to_vec();
        let mut y = p.as_slice().to_vec();
        x.sort_by(f64::total_cmp);
        y.sort_by(f64::total_cmp);
        ensure(x == y, || format!("{x:?} vs {y:?}"))
    });
}
