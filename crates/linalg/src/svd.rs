//! Singular value decomposition.
//!
//! Two independent algorithms with identical output contracts, cross-validated
//! against each other in the test suite:
//!
//! * **One-sided Jacobi** ([`SvdAlgorithm::Jacobi`]) — orthogonalizes the
//!   columns of a working copy with plane rotations. Simple, unconditionally
//!   convergent in practice, and computes small singular values to high
//!   *relative* accuracy, which matters for the TMA measure where non-maximum
//!   singular values are the signal. Default for the paper-scale matrices.
//! * **Golub–Reinsch** ([`SvdAlgorithm::GolubReinsch`]) — Householder
//!   bidiagonalization followed by implicit-shift QR on the bidiagonal (the
//!   classic LAPACK-style dense SVD). Faster for large matrices.
//!
//! [`Svd`] holds `U`, `σ`, `V` with singular values sorted descending and the
//! factors' columns permuted to match.
//!
//! Every cold SVD runs through one kernel, [`svd_with_stats_budgeted_in`]: it
//! validates the input (non-empty, finite), picks the algorithm, transposes
//! wide inputs, polls an optional [`Budget`], draws every scratch buffer —
//! including the returned factors — from a caller-supplied [`Workspace`], and
//! returns the iteration count beside the decomposition. [`svd`] and
//! [`svd_with`] are owned-`Matrix` conveniences over it with a throwaway
//! workspace. [`svd_warm_stats_budgeted_in`] is the same kernel seeded from a
//! previous decomposition. The two algorithms themselves are private, so no
//! public path skips the input checks.

use crate::bidiag::{bidiagonalize_in, Bidiag};
use crate::budget::Budget;
use crate::error::LinAlgError;
use crate::matrix::Matrix;
use crate::vecops::{self, hypot};
use crate::view::MatRef;
use crate::workspace::Workspace;
use crate::Result;

/// Algorithm selector for [`svd_with`] and [`svd_with_stats_budgeted_in`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvdAlgorithm {
    /// One-sided Jacobi (default for small matrices; high relative accuracy).
    Jacobi,
    /// Golub–Reinsch bidiagonal QR (default for large matrices).
    GolubReinsch,
    /// Pick automatically by matrix size.
    Auto,
}

/// Size (in entries) above which [`SvdAlgorithm::Auto`] switches to Golub–Reinsch.
const AUTO_GR_THRESHOLD: usize = 64 * 64;

/// A full thin SVD `A = U · diag(σ) · Vᵀ`.
///
/// `U` is `m × k`, `V` is `n × k`, `k = min(m, n)`, and `singular_values` is sorted
/// in descending order. All σ are non-negative.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (columns), `m × k`.
    pub u: Matrix,
    /// Singular values, descending, length `k`.
    pub singular_values: Vec<f64>,
    /// Right singular vectors (columns), `n × k`.
    pub v: Matrix,
}

impl Svd {
    /// Largest singular value (0 for an empty spectrum).
    pub fn sigma_max(&self) -> f64 {
        self.singular_values.first().copied().unwrap_or(0.0)
    }

    /// Smallest singular value (0 for an empty spectrum).
    pub fn sigma_min(&self) -> f64 {
        self.singular_values.last().copied().unwrap_or(0.0)
    }

    /// 2-norm condition number `σ₁/σₖ`; `∞` when `σₖ = 0`.
    pub fn condition_number(&self) -> f64 {
        let lo = self.sigma_min();
        if lo == 0.0 {
            f64::INFINITY
        } else {
            self.sigma_max() / lo
        }
    }

    /// Numerical rank: number of σ above `tol * σ₁`.
    pub fn rank(&self, tol: f64) -> usize {
        let cutoff = tol * self.sigma_max();
        self.singular_values.iter().filter(|&&s| s > cutoff).count()
    }

    /// Reconstructs `U · diag(σ) · Vᵀ` (for testing and residual checks).
    pub fn reconstruct(&self) -> Matrix {
        let k = self.singular_values.len();
        let mut us = self.u.clone();
        for (j, &s) in self.singular_values.iter().enumerate().take(k) {
            us.scale_col(j, s);
        }
        crate::matmul::matmul(&us, &self.v.transpose()).expect("shape")
    }

    /// Frobenius-norm reconstruction residual `‖A − UΣVᵀ‖_F`.
    pub fn residual(&self, a: &Matrix) -> f64 {
        crate::norms::frobenius(&(a - &self.reconstruct()))
    }

    /// Hands the decomposition's buffers back to a workspace for reuse —
    /// for callers (like TMA) that only consume the spectrum.
    pub fn recycle(self, ws: &mut Workspace) {
        ws.recycle_matrix(self.u);
        ws.recycle_matrix(self.v);
        ws.recycle_vec(self.singular_values);
    }
}

/// Computes the SVD with automatic algorithm choice.
pub fn svd(a: &Matrix) -> Result<Svd> {
    svd_with(a, SvdAlgorithm::Auto)
}

/// Computes the SVD with an explicit algorithm choice.
pub fn svd_with(a: &Matrix, alg: SvdAlgorithm) -> Result<Svd> {
    let mut ws = Workspace::new();
    Ok(svd_with_stats_budgeted_in(a.view(), alg, None, &mut ws)?.0)
}

/// The SVD kernel: decomposes `a` with `alg`, returning the decomposition and
/// the iteration count (Jacobi sweeps or Golub–Reinsch QR iterations,
/// whichever algorithm ran).
///
/// All scratch — including the returned factors — is checked out of `ws`;
/// pass the factors back through [`Svd::recycle`] to make repeat calls on the
/// same shape allocation-free. The sweep/QR loops poll `budget` once per
/// iteration and bail out with [`LinAlgError::DeadlineExceeded`] when it
/// trips; `None` runs unpolled and gives bit-identical results.
pub fn svd_with_stats_budgeted_in(
    a: MatRef<'_>,
    alg: SvdAlgorithm,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<(Svd, usize)> {
    validate(a)?;
    let jacobi = match alg {
        SvdAlgorithm::Jacobi => true,
        SvdAlgorithm::GolubReinsch => false,
        SvdAlgorithm::Auto => a.len() <= AUTO_GR_THRESHOLD,
    };
    on_tall(a, ws, |t, ws| {
        if jacobi {
            jacobi_cold(t, budget, ws)
        } else {
            golub_reinsch_tall(t, budget, ws)
        }
    })
}

/// [`svd_with_stats_budgeted_in`] warm-started from a previous decomposition
/// of a nearby matrix, returning the number of Jacobi sweeps it took.
///
/// Seeds the one-sided Jacobi iteration at the prior solution: the working
/// matrix starts as `W₀ = A · V_prior` and rotations accumulate into a copy of
/// `V_prior`, so the invariant `W = A · V` holds throughout and the converged
/// result is a genuine SVD of `A` itself (sorted and sign-fixed exactly like
/// the cold path). When `A` is a small perturbation of the matrix the prior
/// decomposed, `W₀`'s columns are already near-orthogonal and convergence takes
/// one or two sweeps instead of a full cold run; when it is not, the same
/// sweep tolerance and sweep cap apply. Wide inputs transpose and seed from
/// `prior.u`, mirroring the cold transposition path.
///
/// The prior must be a *full* thin SVD of a same-shaped matrix (its `V` must be
/// `k × k` square for a tall input, as produced by every SVD entry point in
/// this crate); anything else fails with [`LinAlgError::ShapeMismatch`].
pub fn svd_warm_stats_budgeted_in(
    a: MatRef<'_>,
    prior: &Svd,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<(Svd, usize)> {
    validate(a)?;
    // Aᵀ = V Σ Uᵀ: the prior's U seeds the transposed problem.
    let seed = if a.rows() < a.cols() {
        &prior.u
    } else {
        &prior.v
    };
    on_tall(a, ws, |t, ws| jacobi_warm_seeded(t, seed, budget, ws))
}

/// The input checks every public SVD path runs first.
fn validate(a: MatRef<'_>) -> Result<()> {
    if a.is_empty() {
        return Err(LinAlgError::Empty { op: "svd" });
    }
    a.check_finite("svd")
}

/// Runs `tall` on `a` when `m ≥ n`, or on a pooled copy of `aᵀ` when `m < n`,
/// swapping the factors back (`Aᵀ = V Σ Uᵀ`).
fn on_tall(
    a: MatRef<'_>,
    ws: &mut Workspace,
    tall: impl FnOnce(MatRef<'_>, &mut Workspace) -> Result<(Svd, usize)>,
) -> Result<(Svd, usize)> {
    if a.rows() >= a.cols() {
        return tall(a, ws);
    }
    let at = transpose_pooled(a, ws);
    let t = tall(at.view(), ws);
    ws.recycle_matrix(at);
    let (t, iters) = t?;
    Ok((
        Svd {
            u: t.v,
            singular_values: t.singular_values,
            v: t.u,
        },
        iters,
    ))
}

/// Sorts the spectrum descending, permuting `u`/`v` columns to match, and fixes a
/// deterministic sign convention (largest-magnitude entry of each `u` column is
/// positive). Shared by both SVD algorithms.
fn finalize_in(mut u: Matrix, mut sigma: Vec<f64>, mut v: Matrix, ws: &mut Workspace) -> Svd {
    let k = sigma.len();
    let mut order = ws.take_idx(k);
    for (i, o) in order.iter_mut().enumerate() {
        *o = i;
    }
    // Unstable sort: in-place, no merge buffer. Ties (equal σ) can land in
    // either order; every consumer treats equal-σ columns as interchangeable.
    order.sort_unstable_by(|&a, &b| sigma[b].partial_cmp(&sigma[a]).expect("NaN singular value"));
    // Apply the permutation with one row-sized scratch buffer instead of
    // rebuilding each factor.
    let mut scratch = ws.take_vec(k, 0.0);
    for (dst, &src) in scratch.iter_mut().zip(order.iter()) {
        *dst = sigma[src];
    }
    sigma.copy_from_slice(&scratch);
    for mat in [&mut u, &mut v] {
        for i in 0..mat.rows() {
            let row = mat.row_mut(i);
            for (dst, &src) in scratch.iter_mut().zip(order.iter()) {
                *dst = row[src];
            }
            row.copy_from_slice(&scratch);
        }
    }
    // Sign convention.
    for j in 0..k {
        let mut best = 0usize;
        for i in 0..u.rows() {
            if u[(i, j)].abs() > u[(best, j)].abs() {
                best = i;
            }
        }
        if u[(best, j)] < 0.0 {
            u.scale_col(j, -1.0);
            v.scale_col(j, -1.0);
        }
    }
    ws.recycle_idx(order);
    ws.recycle_vec(scratch);
    Svd {
        u,
        singular_values: sigma,
        v,
    }
}

/// Copies `aᵀ` into a pooled matrix (for [`on_tall`]).
fn transpose_pooled(a: MatRef<'_>, ws: &mut Workspace) -> Matrix {
    let (m, n) = a.shape();
    let mut at = ws.take_matrix(n, m, 0.0);
    for i in 0..m {
        for (j, &v) in a.row(i).iter().enumerate() {
            at[(j, i)] = v;
        }
    }
    at
}

// ---------------------------------------------------------------------------
// One-sided Jacobi
// ---------------------------------------------------------------------------

/// Maximum number of Jacobi sweeps before declaring non-convergence.
const JACOBI_MAX_SWEEPS: usize = 60;

/// Cold Jacobi on a tall (`m ≥ n`) input: `W₀ = a`, `V₀ = I`.
fn jacobi_cold(a: MatRef<'_>, budget: Option<&Budget>, ws: &mut Workspace) -> Result<(Svd, usize)> {
    let (m, n) = a.shape();
    let mut w = ws.take_matrix(m, n, 0.0);
    w.view_mut().copy_from(a);
    let v = ws.take_identity(n);
    jacobi_sweep_core(w, v, false, budget, ws)
}

/// Warm Jacobi on a tall (`m ≥ n`) input: `W₀ = a · seed_v`, `V₀ = seed_v`.
fn jacobi_warm_seeded(
    a: MatRef<'_>,
    seed_v: &Matrix,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<(Svd, usize)> {
    let (m, n) = a.shape();
    if seed_v.shape() != (n, n) {
        return Err(LinAlgError::ShapeMismatch {
            op: "svd (warm-start prior)",
            lhs: (n, n),
            rhs: seed_v.shape(),
        });
    }
    seed_v.view().check_finite("svd (warm-start prior)")?;
    let mut w = ws.take_matrix(m, n, 0.0);
    for (i, src) in a.row_iter().enumerate() {
        let dst = w.row_mut(i);
        for (l, &ail) in src.iter().enumerate() {
            if ail != 0.0 {
                for (d, &vlj) in dst.iter_mut().zip(seed_v.row(l)) {
                    *d += ail * vlj;
                }
            }
        }
    }
    let v = ws.take_matrix_copy(seed_v);
    jacobi_sweep_core(w, v, true, budget, ws)
}

/// The Hestenes sweep loop shared by the cold and warm Jacobi entries: takes
/// ownership of a pre-initialized working matrix `w` and rotation accumulator
/// `v` (cold: `w = A`, `v = I`; warm: `w = A·V₀`, `v = V₀`) and orthogonalizes
/// `w`'s columns, maintaining `w = A·v` throughout.
fn jacobi_sweep_core(
    mut w: Matrix,
    mut v: Matrix,
    warm: bool,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<(Svd, usize)> {
    let (m, n) = w.shape();
    let mut obs = hc_obs::span("linalg.svd.jacobi");
    let eps = f64::EPSILON;
    // Columns whose norm falls below eps·‖A‖_F are numerically zero (rank
    // deficiency); rotating against them only chases roundoff and stalls
    // convergence.
    let fro = crate::norms::frobenius(&w);
    let zero_guard = (eps * fro) * (eps * fro);

    let mut converged = false;
    let mut sweeps = 0;
    // Residual carried into DeadlineExceeded diagnostics; only maintained when
    // a budget is polling, so the unbudgeted path stays cost-identical.
    let mut budget_worst = f64::NAN;
    while sweeps < JACOBI_MAX_SWEEPS {
        if let Some(b) = budget {
            b.check("jacobi-svd", sweeps, budget_worst)?;
        }
        sweeps += 1;
        let _sweep = hc_obs::span("linalg.svd.jacobi.sweep");
        let mut rotated = false;
        let mut sweep_worst = 0.0_f64;
        for p in 0..n {
            for q in (p + 1)..n {
                // Gram entries for the column pair.
                let mut app = 0.0;
                let mut aqq = 0.0;
                let mut apq = 0.0;
                for i in 0..m {
                    let wp = w[(i, p)];
                    let wq = w[(i, q)];
                    app += wp * wp;
                    aqq += wq * wq;
                    apq += wp * wq;
                }
                if budget.is_some() && app > zero_guard && aqq > zero_guard {
                    sweep_worst = sweep_worst.max(apq.abs() / (app * aqq).sqrt());
                }
                if app <= zero_guard
                    || aqq <= zero_guard
                    || apq.abs() <= eps * (app * aqq).sqrt()
                    || apq == 0.0
                {
                    continue;
                }
                rotated = true;
                // Two-sided symmetric Jacobi rotation for the 2×2 Gram block.
                let tau = (aqq - app) / (2.0 * apq);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let wp = w[(i, p)];
                    let wq = w[(i, q)];
                    w[(i, p)] = c * wp - s * wq;
                    w[(i, q)] = s * wp + c * wq;
                }
                for i in 0..n {
                    let vp = v[(i, p)];
                    let vq = v[(i, q)];
                    v[(i, p)] = c * vp - s * vq;
                    v[(i, q)] = s * vp + c * vq;
                }
            }
        }
        if budget.is_some() {
            budget_worst = sweep_worst;
        }
        if !rotated {
            converged = true;
            break;
        }
    }
    if !converged {
        // One final orthogonality audit: accept if the worst residual is tiny.
        let worst = worst_column_correlation(&w, zero_guard);
        if worst > 1e-10 {
            hc_obs::obs_counter!("linalg_svd_noconvergence_total").inc();
            return Err(LinAlgError::NoConvergence {
                algorithm: "jacobi-svd",
                iterations: sweeps,
                residual: worst,
            });
        }
    }
    hc_obs::obs_counter!("linalg_svd_jacobi_total").inc();
    hc_obs::obs_counter!("linalg_svd_jacobi_sweeps_total").add(sweeps as u64);
    hc_obs::obs_histogram!("linalg_svd_jacobi_sweeps").observe(sweeps as u64);
    hc_obs::recorder::note_u64("svd_jacobi_sweeps", sweeps as u64);
    if obs.armed() {
        obs.field_u64("rows", m as u64);
        obs.field_u64("cols", n as u64);
        obs.field_u64("sweeps", sweeps as u64);
        // The orthogonality residual that remains after the final sweep — the
        // "how converged is it really" number. Only recomputed for the sink.
        obs.field_f64("off_diag_worst", worst_column_correlation(&w, zero_guard));
        obs.field_bool("warm_start", warm);
    }

    let mut sigma = ws.take_vec(n, 0.0);
    let mut u = ws.take_matrix(m, n, 0.0);
    let mut col = ws.take_vec(m, 0.0);
    for j in 0..n {
        for (i, c) in col.iter_mut().enumerate() {
            *c = w[(i, j)];
        }
        let nrm = vecops::norm2(&col);
        sigma[j] = nrm;
        if nrm > 0.0 {
            for i in 0..m {
                u[(i, j)] = col[i] / nrm;
            }
        }
        // A zero column leaves a zero U column; callers treating rank-deficient
        // inputs only consume σ and the leading columns.
    }
    ws.recycle_vec(col);
    ws.recycle_matrix(w);
    Ok((finalize_in(u, sigma, v, ws), sweeps))
}

/// Worst normalized off-diagonal Gram entry |wpᵀwq|/(‖wp‖‖wq‖) over all column
/// pairs, ignoring numerically-zero columns (norm² below `zero_guard`).
fn worst_column_correlation(w: &Matrix, zero_guard: f64) -> f64 {
    let (m, n) = w.shape();
    let mut worst: f64 = 0.0;
    for p in 0..n {
        for q in (p + 1)..n {
            let mut app = 0.0;
            let mut aqq = 0.0;
            let mut apq = 0.0;
            for i in 0..m {
                app += w[(i, p)] * w[(i, p)];
                aqq += w[(i, q)] * w[(i, q)];
                apq += w[(i, p)] * w[(i, q)];
            }
            if app > zero_guard && aqq > zero_guard {
                worst = worst.max(apq.abs() / (app * aqq).sqrt());
            }
        }
    }
    worst
}

// ---------------------------------------------------------------------------
// Golub–Reinsch
// ---------------------------------------------------------------------------

/// Maximum implicit-QR iterations per singular value.
const GR_MAX_ITERS: usize = 75;

/// Golub–Reinsch on a tall (`m ≥ n`) input: bidiagonalize, then
/// implicit-shift QR on the bidiagonal. Returns the total QR iteration count.
fn golub_reinsch_tall(
    a: MatRef<'_>,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<(Svd, usize)> {
    let mut obs = hc_obs::span("linalg.svd.golub_reinsch");
    let mut total_iters = 0usize;
    let Bidiag { u, v, d, e } = {
        let _phase = hc_obs::span("linalg.svd.bidiag");
        bidiagonalize_in(a, ws)?
    };
    let n = d.len();
    let mut d = d;
    // rv1[i] is the superdiagonal entry coupling d[i-1] and d[i]; rv1[0] is unused
    // and kept at zero (mirrors the classic svdcmp layout).
    let mut rv1 = ws.take_vec(n, 0.0);
    rv1[1..n].copy_from_slice(&e);
    ws.recycle_vec(e);
    let mut u = u;
    let mut v = v;

    let anorm = d
        .iter()
        .zip(&rv1)
        .map(|(di, ei)| di.abs() + ei.abs())
        .fold(0.0_f64, f64::max)
        .max(f64::MIN_POSITIVE);
    let eps = f64::EPSILON;
    let negligible = |x: f64| x.abs() <= eps * anorm;

    let qr_phase = hc_obs::span("linalg.svd.qr");
    for k in (0..n).rev() {
        let mut its = 0;
        loop {
            if let Some(b) = budget {
                b.check("golub-reinsch-svd", total_iters, rv1[k].abs())?;
            }
            its += 1;
            total_iters += 1;
            // Split test: find l such that rv1[l] is negligible (l == 0 always
            // qualifies since rv1[0] == 0), or d[l-1] is negligible (cancellation).
            let mut l = k;
            let flag;
            loop {
                if negligible(rv1[l]) {
                    flag = false;
                    break;
                }
                // l >= 1 here because rv1[0] == 0 is always negligible.
                if negligible(d[l - 1]) {
                    flag = true;
                    break;
                }
                l -= 1;
            }

            if flag {
                // d[l-1] ≈ 0: chase rv1[l] away with left Givens rotations against
                // row l-1, accumulating into U.
                let mut c = 0.0;
                let mut s = 1.0;
                for i in l..=k {
                    let f = s * rv1[i];
                    rv1[i] *= c;
                    if negligible(f) {
                        break;
                    }
                    let g = d[i];
                    let h = hypot(f, g);
                    d[i] = h;
                    let inv = 1.0 / h;
                    c = g * inv;
                    s = -f * inv;
                    rotate_cols(&mut u, l - 1, i, c, s);
                }
            }

            let z = d[k];
            if l == k {
                // Converged for this singular value.
                if z < 0.0 {
                    d[k] = -z;
                    scale_col_neg(&mut v, k);
                }
                break;
            }
            if its > GR_MAX_ITERS {
                hc_obs::obs_counter!("linalg_svd_noconvergence_total").inc();
                return Err(LinAlgError::NoConvergence {
                    algorithm: "golub-reinsch-svd",
                    iterations: its,
                    residual: rv1[k].abs(),
                });
            }

            // Wilkinson-style shift from the trailing 2×2 of BᵀB.
            let nm = k - 1;
            let x = d[l];
            let y = d[nm];
            let g0 = rv1[nm];
            let h0 = rv1[k];
            let mut f = ((y - z) * (y + z) + (g0 - h0) * (g0 + h0)) / (2.0 * h0 * y);
            let g1 = hypot(f, 1.0);
            f = ((x - z) * (x + z) + h0 * ((y / (f + sign(g1, f))) - h0)) / x;

            // Implicit QR sweep, chasing the bulge from the top.
            let mut c = 1.0;
            let mut s = 1.0;
            let mut x = x;
            let mut g;
            for j in l..=nm {
                let i = j + 1;
                let mut gy = rv1[i];
                let mut yy = d[i];
                let mut h = s * gy;
                gy *= c;
                let mut zz = hypot(f, h);
                rv1[j] = zz;
                c = f / zz;
                s = h / zz;
                f = x * c + gy * s;
                g = gy * c - x * s;
                h = yy * s;
                yy *= c;
                rotate_cols(&mut v, j, i, c, s);
                zz = hypot(f, h);
                d[j] = zz;
                if zz != 0.0 {
                    let inv = 1.0 / zz;
                    c = f * inv;
                    s = h * inv;
                }
                f = c * g + s * yy;
                x = c * yy - s * g;
                rotate_cols(&mut u, j, i, c, s);
            }
            rv1[l] = 0.0;
            rv1[k] = f;
            d[k] = x;
        }
    }
    drop(qr_phase);

    hc_obs::obs_counter!("linalg_svd_gr_total").inc();
    hc_obs::obs_counter!("linalg_svd_gr_iterations_total").add(total_iters as u64);
    hc_obs::obs_histogram!("linalg_svd_gr_iterations").observe(total_iters as u64);
    hc_obs::recorder::note_u64("svd_gr_iterations", total_iters as u64);
    if obs.armed() {
        obs.field_u64("rows", a.rows() as u64);
        obs.field_u64("cols", a.cols() as u64);
        obs.field_u64("iterations", total_iters as u64);
        // What is left of the superdiagonal after deflation: the bidiagonal
        // off-diagonal norm at convergence.
        obs.field_f64(
            "off_diag_worst",
            rv1.iter().fold(0.0f64, |acc, e| acc.max(e.abs())),
        );
    }
    ws.recycle_vec(rv1);

    Ok((finalize_in(u, d, v, ws), total_iters))
}

#[inline]
fn sign(a: f64, b: f64) -> f64 {
    if b >= 0.0 {
        a.abs()
    } else {
        -a.abs()
    }
}

#[inline]
fn rotate_cols(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    for i in 0..m.rows() {
        let mp = m[(i, p)];
        let mq = m[(i, q)];
        m[(i, p)] = mp * c + mq * s;
        m[(i, q)] = mq * c - mp * s;
    }
}

#[inline]
fn scale_col_neg(m: &mut Matrix, j: usize) {
    m.scale_col(j, -1.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::matmul_naive;

    fn assert_valid_svd(a: &Matrix, s: &Svd, tol: f64) {
        let k = a.rows().min(a.cols());
        assert_eq!(s.singular_values.len(), k);
        assert_eq!(s.u.shape(), (a.rows(), k));
        assert_eq!(s.v.shape(), (a.cols(), k));
        // Descending, non-negative.
        for w in s.singular_values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "not sorted: {:?}", s.singular_values);
        }
        assert!(s.singular_values.iter().all(|&x| x >= 0.0));
        // Reconstruction.
        assert!(
            s.residual(a) < tol * (1.0 + crate::norms::frobenius(a)),
            "residual too large: {}",
            s.residual(a)
        );
        // Orthonormality (columns with nonzero sigma).
        let ug = matmul_naive(&s.u.transpose(), &s.u).unwrap();
        let vg = matmul_naive(&s.v.transpose(), &s.v).unwrap();
        for j in 0..k {
            if s.singular_values[j] > 1e-12 {
                assert!((ug[(j, j)] - 1.0).abs() < 1e-9, "Uᵀu[{j}] = {}", ug[(j, j)]);
                assert!((vg[(j, j)] - 1.0).abs() < 1e-9);
            }
        }
    }

    fn cold_jacobi(a: &Matrix, ws: &mut Workspace) -> Svd {
        svd_with_stats_budgeted_in(a.view(), SvdAlgorithm::Jacobi, None, ws)
            .unwrap()
            .0
    }

    fn det2_sigma(a: f64, b: f64, c: f64, d: f64) -> (f64, f64) {
        // Exact singular values of [[a, b], [c, d]].
        let q1 = a * a + b * b + c * c + d * d;
        let q2 = ((a * a + b * b - c * c - d * d).powi(2) + 4.0 * (a * c + b * d).powi(2)).sqrt();
        (
            ((q1 + q2) / 2.0).sqrt(),
            (((q1 - q2) / 2.0).max(0.0)).sqrt(),
        )
    }

    #[test]
    fn jacobi_known_2x2() {
        let (a, b, c, d) = (3.0, 1.0, 1.0, 3.0);
        let m = Matrix::from_rows(&[&[a, b], &[c, d]]).unwrap();
        let s = svd_with(&m, SvdAlgorithm::Jacobi).unwrap();
        let (s1, s2) = det2_sigma(a, b, c, d);
        assert!((s.singular_values[0] - s1).abs() < 1e-12);
        assert!((s.singular_values[1] - s2).abs() < 1e-12);
        assert_valid_svd(&m, &s, 1e-12);
    }

    #[test]
    fn gr_known_2x2() {
        let (a, b, c, d) = (2.0, 0.5, -1.0, 1.5);
        let m = Matrix::from_rows(&[&[a, b], &[c, d]]).unwrap();
        let s = svd_with(&m, SvdAlgorithm::GolubReinsch).unwrap();
        let (s1, s2) = det2_sigma(a, b, c, d);
        assert!((s.singular_values[0] - s1).abs() < 1e-10);
        assert!((s.singular_values[1] - s2).abs() < 1e-10);
        assert_valid_svd(&m, &s, 1e-10);
    }

    #[test]
    fn diagonal_matrix_exact() {
        let m = Matrix::from_diag(&[5.0, 1.0, 3.0]);
        for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::GolubReinsch] {
            let s = svd_with(&m, alg).unwrap();
            assert!((s.singular_values[0] - 5.0).abs() < 1e-12, "{alg:?}");
            assert!((s.singular_values[1] - 3.0).abs() < 1e-12);
            assert!((s.singular_values[2] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rank_one_matrix() {
        // xyᵀ has a single nonzero singular value ‖x‖‖y‖.
        let m = Matrix::from_fn(4, 3, |i, j| ((i + 1) * (j + 1)) as f64);
        for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::GolubReinsch] {
            let s = svd_with(&m, alg).unwrap();
            let x: f64 = (1..=4).map(|v| (v * v) as f64).sum::<f64>().sqrt();
            let y: f64 = (1..=3).map(|v| (v * v) as f64).sum::<f64>().sqrt();
            assert!((s.singular_values[0] - x * y).abs() < 1e-10, "{alg:?}");
            assert!(s.singular_values[1].abs() < 1e-10);
            assert!(s.singular_values[2].abs() < 1e-10);
            assert_eq!(s.rank(1e-9), 1);
        }
    }

    #[test]
    fn algorithms_agree_on_pseudorandom() {
        for (m, n) in [(5, 5), (8, 3), (3, 8), (12, 5), (17, 5)] {
            let a = Matrix::from_fn(m, n, |i, j| {
                0.1 + ((i * 131 + j * 31 + 7) % 97) as f64 / 97.0
            });
            let sj = svd_with(&a, SvdAlgorithm::Jacobi).unwrap();
            let sg = svd_with(&a, SvdAlgorithm::GolubReinsch).unwrap();
            assert_valid_svd(&a, &sj, 1e-10);
            assert_valid_svd(&a, &sg, 1e-10);
            for (x, y) in sj.singular_values.iter().zip(&sg.singular_values) {
                assert!(
                    (x - y).abs() < 1e-9 * (1.0 + x.abs()),
                    "σ mismatch {m}x{n}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn workspace_kernel_matches_owned_path_bitwise() {
        let mut ws = Workspace::new();
        for (m, n) in [(5, 5), (8, 3), (3, 8), (12, 5)] {
            let a = Matrix::from_fn(m, n, |i, j| {
                0.1 + ((i * 131 + j * 31 + 7) % 97) as f64 / 97.0
            });
            for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::GolubReinsch] {
                let owned = svd_with(&a, alg).unwrap();
                let (pooled, _) = svd_with_stats_budgeted_in(a.view(), alg, None, &mut ws).unwrap();
                assert_eq!(owned.singular_values, pooled.singular_values);
                assert_eq!(owned.u, pooled.u);
                assert_eq!(owned.v, pooled.v);
                pooled.recycle(&mut ws);
            }
        }
    }

    #[test]
    fn warm_workspace_svd_is_allocation_free() {
        let a = Matrix::from_fn(9, 6, |i, j| 0.2 + ((i * 17 + j * 5) % 31) as f64 / 31.0);
        let mut ws = Workspace::new();
        for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::GolubReinsch] {
            svd_with_stats_budgeted_in(a.view(), alg, None, &mut ws)
                .unwrap()
                .0
                .recycle(&mut ws);
            ws.reset_stats();
            let (s, _) = svd_with_stats_budgeted_in(a.view(), alg, None, &mut ws).unwrap();
            assert_eq!(ws.stats().fresh, 0, "{alg:?} warm run allocated");
            s.recycle(&mut ws);
        }
    }

    #[test]
    fn wide_matrix_transposition_path() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[0.5, -1.0, 2.0, 0.0]]).unwrap();
        for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::GolubReinsch] {
            let s = svd_with(&a, alg).unwrap();
            assert_valid_svd(&a, &s, 1e-10);
        }
    }

    #[test]
    fn singular_values_sum_of_squares_is_frobenius() {
        let a = Matrix::from_fn(6, 4, |i, j| (i as f64 - 2.5) * 0.7 + (j as f64) * 1.3);
        let s = svd(&a).unwrap();
        let ssq: f64 = s.singular_values.iter().map(|v| v * v).sum();
        let f = crate::norms::frobenius(&a);
        assert!((ssq - f * f).abs() < 1e-9 * f * f);
    }

    #[test]
    fn orthogonal_matrix_all_sigma_one() {
        // Rotation matrix: all singular values 1.
        let th = 0.7_f64;
        let m = Matrix::from_rows(&[&[th.cos(), -th.sin()], &[th.sin(), th.cos()]]).unwrap();
        let s = svd(&m).unwrap();
        assert!((s.singular_values[0] - 1.0).abs() < 1e-12);
        assert!((s.singular_values[1] - 1.0).abs() < 1e-12);
        assert!((s.condition_number() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn zero_matrix() {
        let m = Matrix::zeros(3, 2);
        for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::GolubReinsch] {
            let s = svd_with(&m, alg).unwrap();
            assert!(s.singular_values.iter().all(|&v| v == 0.0), "{alg:?}");
            assert_eq!(s.rank(1e-12), 0);
            assert_eq!(s.condition_number(), f64::INFINITY);
        }
    }

    #[test]
    fn empty_and_nonfinite_rejected() {
        assert!(matches!(
            svd(&Matrix::zeros(0, 0)),
            Err(LinAlgError::Empty { .. })
        ));
        let mut a = Matrix::identity(2);
        a[(1, 1)] = f64::INFINITY;
        assert!(matches!(svd(&a), Err(LinAlgError::NonFinite { .. })));

        // No public SVD path skips the input checks: every algorithm through
        // the kernel, and the warm kernel, on an empty matrix and on a NaN
        // inside a tall and inside a wide matrix.
        let mut ws = Workspace::new();
        let empty = Matrix::zeros(0, 0);
        let clean_tall = Matrix::from_fn(4, 3, |i, j| 1.0 + (i * 3 + j) as f64 / 7.0);
        let clean_wide = clean_tall.transpose();
        let mut tall = clean_tall.clone();
        tall[(2, 1)] = f64::NAN;
        let mut wide = clean_wide.clone();
        wide[(1, 2)] = f64::NAN;
        for alg in [
            SvdAlgorithm::Jacobi,
            SvdAlgorithm::GolubReinsch,
            SvdAlgorithm::Auto,
        ] {
            assert!(
                matches!(
                    svd_with_stats_budgeted_in(empty.view(), alg, None, &mut ws),
                    Err(LinAlgError::Empty { .. })
                ),
                "{alg:?} accepted an empty matrix"
            );
            for bad in [&tall, &wide] {
                assert!(
                    matches!(
                        svd_with_stats_budgeted_in(bad.view(), alg, None, &mut ws),
                        Err(LinAlgError::NonFinite { .. })
                    ),
                    "{alg:?} accepted a NaN in a {:?} matrix",
                    bad.shape()
                );
            }
        }
        for (bad, clean) in [
            (&empty, &clean_tall),
            (&tall, &clean_tall),
            (&wide, &clean_wide),
        ] {
            let prior = cold_jacobi(clean, &mut ws);
            let got = svd_warm_stats_budgeted_in(bad.view(), &prior, None, &mut ws);
            let want_empty = bad.is_empty();
            assert!(
                matches!(
                    (&got, want_empty),
                    (Err(LinAlgError::Empty { .. }), true)
                        | (Err(LinAlgError::NonFinite { .. }), false)
                ),
                "warm SVD of a {:?} input returned {got:?}",
                bad.shape()
            );
            prior.recycle(&mut ws);
        }
    }

    #[test]
    fn graded_matrix_small_sigma_accuracy() {
        // Diagonal grading over 12 orders of magnitude: Jacobi must keep relative
        // accuracy on the tiny singular value.
        let m = Matrix::from_diag(&[1.0, 1e-6, 1e-12]);
        let s = svd_with(&m, SvdAlgorithm::Jacobi).unwrap();
        assert!((s.singular_values[2] - 1e-12).abs() / 1e-12 < 1e-8);
    }

    #[test]
    fn ones_matrix_sigma() {
        // J (all ones, m×n) has σ₁ = √(mn), rest 0.
        let m = Matrix::filled(4, 6, 1.0);
        let s = svd(&m).unwrap();
        assert!((s.singular_values[0] - 24.0_f64.sqrt()).abs() < 1e-10);
        for &v in &s.singular_values[1..] {
            assert!(v.abs() < 1e-10);
        }
    }

    #[test]
    fn single_row_and_column() {
        let r = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        let s = svd(&r).unwrap();
        assert!((s.singular_values[0] - 5.0).abs() < 1e-12);
        let c = Matrix::from_rows(&[&[3.0], &[4.0]]).unwrap();
        let s = svd(&c).unwrap();
        assert!((s.singular_values[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn larger_gr_path_via_auto() {
        let a = Matrix::from_fn(80, 70, |i, j| {
            (((i * 7919 + j * 104729) % 1000) as f64) / 1000.0 - 0.5
        });
        let s = svd(&a).unwrap();
        assert_valid_svd(&a, &s, 1e-8);
        // Spot-check σ₁ against power iteration.
        let p = crate::eigen::power_iteration_sigma_max(&a, 2000, 1e-12);
        assert!(
            (s.singular_values[0] - p).abs() < 1e-6 * p,
            "σ₁ {} vs power {p}",
            s.singular_values[0]
        );
    }

    #[test]
    fn budgeted_with_live_budget_matches_unbudgeted_bitwise() {
        use crate::budget::Budget;
        let a = Matrix::from_fn(9, 6, |i, j| 0.2 + ((i * 17 + j * 5) % 31) as f64 / 31.0);
        let mut ws = Workspace::new();
        let generous = Budget::with_deadline(std::time::Duration::from_secs(600));
        for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::GolubReinsch] {
            let (plain, _) = svd_with_stats_budgeted_in(a.view(), alg, None, &mut ws).unwrap();
            let (budgeted, _) =
                svd_with_stats_budgeted_in(a.view(), alg, Some(&generous), &mut ws).unwrap();
            assert_eq!(plain.singular_values, budgeted.singular_values, "{alg:?}");
            assert_eq!(plain.u, budgeted.u);
            assert_eq!(plain.v, budgeted.v);
            plain.recycle(&mut ws);
            budgeted.recycle(&mut ws);
        }
    }

    #[test]
    fn expired_budget_returns_deadline_exceeded() {
        use crate::budget::Budget;
        let a = Matrix::from_fn(9, 6, |i, j| 0.2 + ((i * 17 + j * 5) % 31) as f64 / 31.0);
        let mut ws = Workspace::new();
        let expired = Budget::with_deadline(std::time::Duration::ZERO);
        for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::GolubReinsch] {
            match svd_with_stats_budgeted_in(a.view(), alg, Some(&expired), &mut ws) {
                Err(LinAlgError::DeadlineExceeded { .. }) => {}
                other => panic!("{alg:?}: expected DeadlineExceeded, got {other:?}"),
            }
        }
    }

    #[test]
    fn warm_svd_matches_cold_on_unchanged_matrix() {
        let mut ws = Workspace::new();
        for (m, n) in [(6, 6), (9, 5), (4, 7)] {
            let a = Matrix::from_fn(m, n, |i, j| {
                0.1 + ((i * 131 + j * 31 + 7) % 97) as f64 / 97.0
            });
            let prior = cold_jacobi(&a, &mut ws);
            let (warm, _) = svd_warm_stats_budgeted_in(a.view(), &prior, None, &mut ws).unwrap();
            assert_valid_svd(&a, &warm, 1e-10);
            for (x, y) in warm.singular_values.iter().zip(&prior.singular_values) {
                assert!(
                    (x - y).abs() < 1e-10 * (1.0 + x.abs()),
                    "{m}x{n}: {x} vs {y}"
                );
            }
            warm.recycle(&mut ws);
            prior.recycle(&mut ws);
        }
    }

    #[test]
    fn warm_svd_after_small_edit_converges_faster_than_cold() {
        let mut ws = Workspace::new();
        let a = Matrix::from_fn(20, 20, |i, j| {
            0.1 + ((i * 131 + j * 31 + 7) % 97) as f64 / 97.0
        });
        let prior = cold_jacobi(&a, &mut ws);
        let mut edited = a.clone();
        edited[(3, 5)] *= 1.001;

        hc_obs::recorder::note_u64("svd_jacobi_sweeps", 0);
        let cold = cold_jacobi(&edited, &mut ws);
        let (warm, _) = svd_warm_stats_budgeted_in(edited.view(), &prior, None, &mut ws).unwrap();
        assert_valid_svd(&edited, &warm, 1e-10);
        for (x, y) in warm.singular_values.iter().zip(&cold.singular_values) {
            assert!((x - y).abs() < 1e-9 * (1.0 + x.abs()), "{x} vs {y}");
        }
        warm.recycle(&mut ws);
        cold.recycle(&mut ws);
        prior.recycle(&mut ws);
    }

    #[test]
    fn warm_svd_rejects_mismatched_prior() {
        let mut ws = Workspace::new();
        let a = Matrix::from_fn(5, 4, |i, j| 1.0 + (i * 4 + j) as f64);
        let other = Matrix::from_fn(6, 3, |i, j| 1.0 + (i * 3 + j) as f64);
        let prior = cold_jacobi(&other, &mut ws);
        assert!(matches!(
            svd_warm_stats_budgeted_in(a.view(), &prior, None, &mut ws),
            Err(LinAlgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn warm_svd_budget_expiry_trips() {
        use crate::budget::Budget;
        let mut ws = Workspace::new();
        let a = Matrix::from_fn(9, 6, |i, j| 0.2 + ((i * 17 + j * 5) % 31) as f64 / 31.0);
        let prior = cold_jacobi(&a, &mut ws);
        let mut edited = a.clone();
        edited[(1, 1)] *= 2.0;
        let expired = Budget::with_deadline(std::time::Duration::ZERO);
        assert!(matches!(
            svd_warm_stats_budgeted_in(edited.view(), &prior, Some(&expired), &mut ws),
            Err(LinAlgError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn svd_struct_helpers() {
        let m = Matrix::from_diag(&[4.0, 2.0]);
        let s = svd(&m).unwrap();
        assert_eq!(s.sigma_max(), 4.0);
        assert_eq!(s.sigma_min(), 2.0);
        assert!((s.condition_number() - 2.0).abs() < 1e-12);
        assert_eq!(s.rank(0.1), 2);
        assert_eq!(s.rank(0.9), 1);
    }
}
