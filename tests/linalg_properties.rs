//! Seeded properties of the dense linear-algebra substrate, on the runner in
//! `common` (`HC_PROP_SEED=<seed>` replays one case).
//!
//! The two SVD algorithms are each other's differential oracle: one-sided
//! Jacobi and Golub–Reinsch share no code past input validation. The
//! values-only kernel (dqds on the bidiagonal) is checked against the full
//! one's QR loop to 1e-13·σ₁, and for high relative accuracy on graded
//! bidiagonals; the fused Householder reduction against a copy of the
//! unblocked one it replaced, and the vector-only Sinkhorn loop against a
//! copy of the in-place sweeps it replaced.

use hetero_measures::core::standard::{standard_form, tma_of_spectrum, tma_with, TmaOptions};
use hetero_measures::gen::rng::{Rng, StdRng};
use hetero_measures::gen::{cvb, range_based, CvbParams, RangeParams};
use hetero_measures::linalg::bidiag::bidiagonalize_in;
use hetero_measures::linalg::matmul::{gram, matmul_blocked, matmul_naive, matmul_parallel};
use hetero_measures::linalg::norms;
use hetero_measures::linalg::svd::{
    spectrum_in, svd_with, svd_with_stats_budgeted_in, SvdAlgorithm,
};
use hetero_measures::linalg::vecops;
use hetero_measures::linalg::{Matrix, Workspace};
use hetero_measures::sinkhorn::balance::{standard_targets, standardize_in, BalanceOptions};

mod common;
use common::{check, ensure, matrix_of};

/// An `m × n` matrix, shapes up to `max × max`, entries uniform in `lo..hi`.
fn matrix(rng: &mut StdRng, max: usize, lo: f64, hi: f64) -> Matrix {
    let m = rng.gen_range(1..max + 1);
    let n = rng.gen_range(1..max + 1);
    matrix_of(rng, m, n, lo, hi)
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
        let sg = sigma(&a, SvdAlgorithm::Auto)?;
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
fn tma_default_matches_jacobi_oracle() {
    // TMA (Eq. 8) through the default SVD against the Jacobi oracle, on the
    // standard forms of seeded CVB and range-based environments from 4×4 to
    // 64×64.
    check("tma_default_matches_jacobi_oracle", |rng| {
        let t = rng.gen_range(4..65);
        let m = rng.gen_range(4..65);
        let seed = rng.next_u64();
        let etc = if rng.gen_range(0..2usize) == 0 {
            let v = rng.gen_range(0.1..1.0);
            cvb(&CvbParams::new(t, m, v, v), seed)
        } else {
            let params = RangeParams {
                tasks: t,
                machines: m,
                r_task: rng.gen_range(2.0..3000.0),
                r_mach: rng.gen_range(2.0..1000.0),
            };
            range_based(&params, seed)
        }
        .map_err(|e| e.to_string())?;
        let ecs = etc.to_ecs();
        let oracle = TmaOptions {
            svd: SvdAlgorithm::Jacobi,
            ..TmaOptions::default()
        };
        let want = tma_with(&ecs, &oracle).map_err(|e| e.to_string())?;
        let got = tma_with(&ecs, &TmaOptions::default()).map_err(|e| e.to_string())?;
        ensure((got - want).abs() <= 1e-12, || {
            format!("{t}x{m}: TMA {got} (default) vs {want} (Jacobi)")
        })
    });
}

/// The largest relative deviation of `a`'s row and column sums from the
/// standard-form targets.
fn standard_residual(a: &Matrix) -> f64 {
    let (rt, ct) = standard_targets(a.rows(), a.cols());
    let rows = a.row_sums().into_iter().zip(rt);
    let cols = a.col_sums().into_iter().zip(ct);
    rows.chain(cols)
        .map(|(s, t)| (s - t).abs() / t)
        .fold(0.0, f64::max)
}

/// The balancing loop before the vector-only rewrite, as a test oracle: the
/// working copy is rescaled in place, column sweep then row sweep, and the
/// residual takes a second pass. Runs `iters` iterations when given, else
/// until the residual is within `tol`. Returns the matrix and the iterations.
fn in_place_sweeps(
    m: &Matrix,
    prior: Option<(&[f64], &[f64])>,
    tol: f64,
    iters: Option<usize>,
) -> (Matrix, usize) {
    let (t, n) = m.shape();
    let (rt, ct) = standard_targets(t, n);
    let mut a = match prior {
        Some((pr, pc)) => Matrix::from_fn(t, n, |i, j| pr[i] * m[(i, j)] * pc[j]),
        None => m.clone(),
    };
    let mut k = 0;
    while iters.map_or(standard_residual(&a) > tol, |n| k < n) {
        let cs = a.col_sums();
        for (j, s) in cs.iter().enumerate() {
            a.scale_col(j, ct[j] / s);
        }
        for (i, r) in rt.iter().enumerate() {
            let s = a.row_sum(i);
            a.scale_row(i, r / s);
        }
        k += 1;
    }
    (a, k)
}

/// A seeded input for the Sinkhorn differential: a CVB (V ≤ 1) or
/// range-based ECS matrix up to 64×64, square or rectangular, or a square
/// zero pattern with total support.
fn balance_input(rng: &mut StdRng) -> Result<Matrix, String> {
    let max = [8, 64][rng.gen_range(0..2usize)];
    let t = rng.gen_range(1..max + 1);
    let m = if rng.gen_bool(0.5) {
        t
    } else {
        rng.gen_range(1..max + 1)
    };
    let seed = rng.next_u64();
    let etc = match rng.gen_range(0..3usize) {
        0 => {
            let v = rng.gen_range(0.1..1.0);
            cvb(&CvbParams::new(t, m, v, v), seed)
        }
        1 => range_based(
            &RangeParams {
                tasks: t,
                machines: m,
                r_task: rng.gen_range(2.0..3000.0),
                r_mach: rng.gen_range(2.0..1000.0),
            },
            seed,
        ),
        _ => {
            // The union of 1–3 random permutation patterns: every positive
            // entry lies on a positive diagonal, so the pattern has total
            // support and an exact balancing exists.
            let mut a = Matrix::zeros(t, t);
            for _ in 0..rng.gen_range(1..4usize) {
                let mut perm: Vec<usize> = (0..t).collect();
                for i in (1..t).rev() {
                    perm.swap(i, rng.gen_range(0..i + 1));
                }
                for (i, &j) in perm.iter().enumerate() {
                    a[(i, j)] = rng.gen_range(0.01..100.0);
                }
            }
            return Ok(a);
        }
    };
    Ok(etc.map_err(|e| e.to_string())?.to_ecs().matrix().clone())
}

#[test]
fn vector_only_balance_matches_in_place_sweeps() {
    // The vector-only loop against the in-place sweeps it replaced, cold and
    // from warm priors taken off a perturbed copy of the input: the stopping
    // iteration moves by at most one; at equal iteration counts the entries
    // agree to 1e-12 relative; the marginals are within tolerance; and TMA
    // agrees to 1e-12.
    let opts = BalanceOptions {
        stall_window: usize::MAX,
        ..BalanceOptions::default()
    };
    check("vector_only_balance_matches_in_place_sweeps", |rng| {
        let a = balance_input(rng)?;
        let mut ws = Workspace::new();
        let prior = if rng.gen_bool(0.5) {
            let mut edited = a.clone();
            for _ in 0..rng.gen_range(1..4usize) {
                let (i, j) = (rng.gen_range(0..a.rows()), rng.gen_range(0..a.cols()));
                edited[(i, j)] *= rng.gen_range(0.9..1.1);
            }
            let out = standardize_in(edited.view(), None, &opts, None, &mut ws)
                .map_err(|e| e.to_string())?;
            Some((out.row_scale, out.col_scale))
        } else {
            None
        };
        let prior = prior.as_ref().map(|(r, c)| (r.as_slice(), c.as_slice()));
        let got =
            standardize_in(a.view(), prior, &opts, None, &mut ws).map_err(|e| e.to_string())?;
        let shape = a.shape();
        ensure(got.is_converged(), || {
            format!("{shape:?}: {:?} after {}", got.status, got.iterations)
        })?;
        let (mut want, want_iters) = in_place_sweeps(&a, prior, opts.tol, None);
        ensure(got.iterations.abs_diff(want_iters) <= 1, || {
            format!("{shape:?}: {} iterations vs {want_iters}", got.iterations)
        })?;
        if want_iters != got.iterations {
            want = in_place_sweeps(&a, prior, opts.tol, Some(got.iterations)).0;
        }
        let worst = got
            .matrix
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .filter(|(_, w)| **w != 0.0)
            .map(|(g, w)| ((g - w) / w).abs())
            .fold(0.0, f64::max);
        ensure(worst <= 1e-12, || {
            format!("{shape:?}: entries differ by {worst:e} relative")
        })?;
        let off = standard_residual(&got.matrix);
        ensure(off <= opts.tol, || {
            format!("{shape:?}: marginals off by {off:e}")
        })?;
        let tma = |m: &Matrix, ws: &mut Workspace| {
            spectrum_in(m.view(), SvdAlgorithm::Auto, None, ws)
                .map(|(sigma, _)| tma_of_spectrum(&sigma))
                .map_err(|e| e.to_string())
        };
        let (tg, tw) = (tma(&got.matrix, &mut ws)?, tma(&want, &mut ws)?);
        ensure((tg - tw).abs() <= 1e-12, || {
            format!("{shape:?}: TMA {tg} vs {tw}")
        })
    });
}

#[test]
fn spectrum_within_1e13_of_full_kernel() {
    // The values-only kernel shares the full kernel's reduction but runs
    // dqds where the full kernel runs the QR loop, so σ must agree to
    // 1e-13·σ₁. Inputs: CVB and range-based standard forms, rank-1
    // matrices, and matrices with duplicated rows, tall and wide, up to
    // 128×128.
    check("spectrum_within_1e13_of_full_kernel", |rng| {
        // One case in three may reach 128 on a side; the rest stay small so
        // the debug-build suite stays quick.
        let max = [8, 32, 128][rng.gen_range(0..3usize)];
        let t = rng.gen_range(1..max + 1);
        let m = rng.gen_range(1..max + 1);
        let seed = rng.next_u64();
        let a = match rng.gen_range(0..4usize) {
            0 => {
                let v = rng.gen_range(0.1..1.0);
                let ecs = cvb(&CvbParams::new(t, m, v, v), seed)
                    .map_err(|e| e.to_string())?
                    .to_ecs();
                standard_form(&ecs, &TmaOptions::default())
                    .map_err(|e| e.to_string())?
                    .matrix
            }
            1 => {
                let params = RangeParams {
                    tasks: t,
                    machines: m,
                    r_task: rng.gen_range(2.0..3000.0),
                    r_mach: rng.gen_range(2.0..1000.0),
                };
                let ecs = range_based(&params, seed)
                    .map_err(|e| e.to_string())?
                    .to_ecs();
                standard_form(&ecs, &TmaOptions::default())
                    .map_err(|e| e.to_string())?
                    .matrix
            }
            2 => {
                let x: Vec<f64> = (0..t).map(|_| rng.gen_range(0.01..10.0)).collect();
                let y: Vec<f64> = (0..m).map(|_| rng.gen_range(0.01..10.0)).collect();
                Matrix::from_fn(t, m, |i, j| x[i] * y[j])
            }
            _ => {
                let mut a = matrix_of(rng, t, m, 0.01, 100.0);
                for i in 1..t {
                    if rng.gen_range(0..2usize) == 0 {
                        let src = a.row(rng.gen_range(0..i)).to_vec();
                        a.row_mut(i).copy_from_slice(&src);
                    }
                }
                a
            }
        };
        let mut ws = Workspace::new();
        let (full, _) = svd_with_stats_budgeted_in(a.view(), SvdAlgorithm::Auto, None, &mut ws)
            .map_err(|e| e.to_string())?;
        let (sigma, _) =
            spectrum_in(a.view(), SvdAlgorithm::Auto, None, &mut ws).map_err(|e| e.to_string())?;
        let want = &full.singular_values;
        let worst = sigma
            .iter()
            .zip(want)
            .map(|(g, w)| (g - w).abs())
            .fold(0.0, f64::max);
        ensure(
            sigma.len() == want.len() && worst <= 1e-13 * want[0],
            || {
                format!(
                    "{t}x{m}: σ differ by {worst:e} (σ₁ = {})\n{sigma:?}\n{want:?}",
                    want[0]
                )
            },
        )
    });
}

/// An upper-bidiagonal input for the dqds properties: `k` up to 40 or 64,
/// signed entries graded over up to 60 decades, with some exact zeros in `e`
/// and, in one case in four, in `d`. The grading falls or rises along the
/// diagonal, or scatters the `d`'s at random with each `e` no larger than
/// its two neighbours; either way every σ stays far above underflow. Every
/// Householder reflector of such a matrix has `β = 0`, so the reduction
/// hands `d` and `e` to the bidiagonal phase unchanged.
fn bidiagonal_input(rng: &mut StdRng) -> (Vec<f64>, Vec<f64>) {
    let kmax = [40usize, 64][rng.gen_range(0..2usize)];
    let k = rng.gen_range(1..kmax + 1);
    let decades = rng.gen_range(0.0..60.0);
    let span = k.max(2) as f64 - 1.0;
    // Each entry's magnitude as a power of ten below 1.
    let (dx, ex): (Vec<f64>, Vec<f64>) = match rng.gen_range(0..3usize) {
        0 => (
            (0..k).map(|i| decades * i as f64 / span).collect(),
            (1..k).map(|i| decades * (i as f64 - 0.5) / span).collect(),
        ),
        1 => (
            (0..k).map(|i| decades * (1.0 - i as f64 / span)).collect(),
            (1..k)
                .map(|i| decades * (1.0 - (i as f64 - 0.5) / span))
                .collect(),
        ),
        _ => {
            let dx: Vec<f64> = (0..k).map(|_| rng.gen_range(0.0..decades + 1e-9)).collect();
            let ex = (1..k)
                .map(|i| dx[i - 1].max(dx[i]) + rng.gen_range(0.0..3.0))
                .collect();
            (dx, ex)
        }
    };
    let entry = |rng: &mut StdRng, x: f64| {
        let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
        sign * rng.gen_range(0.5..2.0) * 10f64.powf(-x)
    };
    let mut d: Vec<f64> = dx.iter().map(|&x| entry(rng, x)).collect();
    let mut e: Vec<f64> = ex.iter().map(|&x| entry(rng, x)).collect();
    for x in &mut e {
        if rng.gen_bool(0.1) {
            *x = 0.0;
        }
    }
    if rng.gen_range(0..4usize) == 0 {
        for _ in 0..rng.gen_range(1..3usize) {
            d[rng.gen_range(0..k)] = 0.0;
        }
    }
    (d, e)
}

#[test]
fn spectrum_of_graded_bidiagonals_is_relatively_accurate() {
    // dqds computes every σ of a bidiagonal to high relative accuracy, so
    // on graded inputs the product of the σ must still be |det B| = Π|dᵢ|
    // and their squares must still sum to ‖B‖²_F. The QR loop, accurate
    // only to a few ulps of σ₁, misses the first by far on such inputs.
    check(
        "spectrum_of_graded_bidiagonals_is_relatively_accurate",
        |rng| {
            let (d, e) = bidiagonal_input(rng);
            let k = d.len();
            let b = Matrix::from_fn(k, k, |i, j| match j.wrapping_sub(i) {
                0 => d[i],
                1 => e[i],
                _ => 0.0,
            });
            let (sigma, _) = spectrum_in(b.view(), SvdAlgorithm::Auto, None, &mut Workspace::new())
                .map_err(|err| format!("k = {k}: {err}"))?;
            ensure(sigma.len() == k, || {
                format!("{} σ for k = {k}", sigma.len())
            })?;
            ensure(sigma.windows(2).all(|w| w[0] >= w[1]), || {
                format!("k = {k}: not descending: {sigma:?}")
            })?;
            ensure(sigma.iter().all(|&s| s >= 0.0), || {
                format!("k = {k}: negative σ: {sigma:?}")
            })?;
            if d.iter().all(|&x| x != 0.0) {
                let got: f64 = sigma.iter().map(|s| s.ln()).sum();
                let want: f64 = d.iter().map(|x| x.abs().ln()).sum();
                ensure((got - want).abs() <= 1e-10, || {
                    format!("k = {k}: Σ ln σ = {got}, Σ ln |d| = {want}")
                })?;
            }
            let ssq: f64 = sigma.iter().map(|s| s * s).sum();
            let f2: f64 = d.iter().chain(&e).map(|x| x * x).sum();
            ensure((ssq - f2).abs() <= 1e-13 * f2, || {
                format!("k = {k}: Σσ² = {ssq:e}, ‖B‖²_F = {f2:e}")
            })
        },
    );
}

/// The Householder reduction before the fused sweeps, as a test oracle. Per
/// column it gathers the left reflector from column `j` and applies it row
/// by row (`w = β·vᵀA` as one axpy per row, then `A −= v·wᵀ`), then builds
/// the right reflector from row `j` and applies it to each lower row on its
/// own. Returns `B`'s diagonal and superdiagonal.
fn unblocked_reduction(a: &Matrix) -> (Vec<f64>, Vec<f64>) {
    let (m, n) = a.shape();
    let mut a = a.clone();
    let mut w = vec![0.0; n];
    for j in 0..n {
        let mut v: Vec<f64> = (j..m).map(|i| a[(i, j)]).collect();
        let (beta, alpha, _) = vecops::householder_in_place(&mut v);
        a[(j, j)] = alpha;
        if beta != 0.0 {
            let w = &mut w[..n - j - 1];
            w.fill(0.0);
            for (off, &vk) in v.iter().enumerate() {
                vecops::axpy(vk, &a.row(j + off)[j + 1..], w);
            }
            vecops::scale(beta, w);
            for (off, &vk) in v.iter().enumerate() {
                vecops::axpy(-vk, w, &mut a.row_mut(j + off)[j + 1..]);
            }
        }
        if j + 2 < n {
            let mut u = a.row(j)[j + 1..].to_vec();
            let (rbeta, ralpha, _) = vecops::householder_in_place(&mut u);
            a[(j, j + 1)] = ralpha;
            for i in j + 1..m {
                vecops::apply_reflector(&u, rbeta, &mut a.row_mut(i)[j + 1..]);
            }
        }
    }
    let d = (0..n).map(|j| a[(j, j)]).collect();
    let e = (1..n).map(|j| a[(j - 1, j)]).collect();
    (d, e)
}

/// A seeded input for the reduction oracle. Shapes: `n ∈ {1, 2, 3}`, any
/// `m ≥ n` up to 33 (so odd `m` and every `(m − j) mod 4` of both sweeps'
/// row remainders come up), 4:1 tall, and, one case in 15, `n = 32–48`
/// (the AVX2 frame) at `m/n ∈ {1, 1.5, 1.6, 1.75, 2, 4}` (both sides of the
/// QR-first threshold). Contents: uniform entries, zeroed rows and columns
/// (reflectors with `β = 0`), rank 1, or duplicated rows.
fn reduction_input(rng: &mut StdRng) -> Matrix {
    let (m, n) = match rng.gen_range(0..15usize) {
        0..=4 => {
            let n = rng.gen_range(1..4usize);
            (rng.gen_range(n..n + 13), n)
        }
        5..=9 => {
            let m = rng.gen_range(1..34usize);
            (m, rng.gen_range(1..m + 1))
        }
        10..=13 => {
            let n = rng.gen_range(1..13usize);
            (4 * n, n)
        }
        _ => {
            let n = rng.gen_range(32..49usize);
            let aspect = [1.0, 1.5, 1.6, 1.75, 2.0, 4.0][rng.gen_range(0..6usize)];
            ((aspect * n as f64).round() as usize, n)
        }
    };
    let mut a = matrix_of(rng, m, n, -10.0, 10.0);
    match rng.gen_range(0..4usize) {
        0 => {}
        1 => {
            for i in 0..m {
                if rng.gen_bool(0.3) {
                    a.row_mut(i).fill(0.0);
                }
            }
            for j in 0..n {
                if rng.gen_bool(0.3) {
                    a.scale_col(j, 0.0);
                }
            }
        }
        2 => {
            let x: Vec<f64> = (0..m).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
            a = Matrix::from_fn(m, n, |i, j| x[i] * y[j]);
        }
        _ => {
            for i in 1..m {
                if rng.gen_bool(0.5) {
                    let src = a.row(rng.gen_range(0..i)).to_vec();
                    a.row_mut(i).copy_from_slice(&src);
                }
            }
        }
    }
    a
}

#[test]
fn reduction_matches_unblocked_oracle() {
    // The one-sweep reduction, with QR first on tall inputs, against the
    // unblocked one it replaced: the two bidiagonals' singular values agree
    // to 1e-13·σ₁, and the factors reconstruct A to 1e-13·‖A‖_F with
    // orthonormal U and V. `d` and `e` are not compared entry by entry: past
    // the numerical rank they legitimately differ.
    check("reduction_matches_unblocked_oracle", |rng| {
        let a = reduction_input(rng);
        let shape = a.shape();
        let bd = bidiagonalize_in(a.view(), &mut Workspace::new()).map_err(|e| e.to_string())?;
        let (d, e) = unblocked_reduction(&a);
        let bidiagonal = |d: &[f64], e: &[f64]| {
            Matrix::from_fn(d.len(), d.len(), |i, j| match j.wrapping_sub(i) {
                0 => d[i],
                1 => e[i],
                _ => 0.0,
            })
        };
        let got = sigma(&bidiagonal(&bd.d, &bd.e), SvdAlgorithm::Jacobi)?;
        let want = sigma(&bidiagonal(&d, &e), SvdAlgorithm::Jacobi)?;
        let tol = 1e-13 * want[0];
        let worst = got
            .iter()
            .zip(&want)
            .map(|(g, w)| (g - w).abs())
            .fold(0.0, f64::max);
        ensure(worst <= tol, || {
            format!(
                "{shape:?}: σ differ by {worst:e} (σ₁ = {})\n{got:?}\n{want:?}",
                want[0]
            )
        })?;

        let residual = bd.reconstruct().max_abs_diff(&a);
        let f = norms::frobenius(&a);
        ensure(residual <= 1e-13 * f, || {
            format!("{shape:?}: UBVᵀ off A by {residual:e} (‖A‖_F = {f})")
        })?;
        for (name, q) in [("U", &bd.u), ("V", &bd.v)] {
            let off = matmul_naive(&q.transpose(), q)
                .map_err(|e| e.to_string())?
                .max_abs_diff(&Matrix::identity(q.cols()));
            ensure(off <= 1e-13, || {
                format!("{shape:?}: {name}ᵀ{name} off I by {off:e}")
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
        let mut v = x.clone();
        let (beta, alpha, _) = vecops::householder_in_place(&mut v);
        let mut y = x.clone();
        vecops::apply_reflector(&v, beta, &mut y);
        let norm = vecops::norm2(&x);
        let tol = 1e-9 * (1.0 + norm);
        ensure(
            (y[0] - alpha).abs() < tol && (y[0].abs() - norm).abs() < tol,
            || format!("Hx[0] = {}, α = {alpha}, ‖x‖ = {norm}", y[0]),
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
