//! Singular value decomposition.
//!
//! Two independent algorithms with identical output contracts, cross-validated
//! against each other in the test suite:
//!
//! * **Golub–Reinsch** ([`SvdAlgorithm::GolubReinsch`], and the default
//!   [`SvdAlgorithm::Auto`]) — Householder bidiagonalization followed by
//!   implicit-shift QR on the bidiagonal (the classic LAPACK-style dense SVD).
//!   Its singular values are accurate to a few ulps of σ₁, which is all TMA
//!   needs: the standard form's spectrum lies in [0, 1] with σ₁ = 1
//!   (Theorem 2).
//! * **One-sided Jacobi** ([`SvdAlgorithm::Jacobi`]) — orthogonalizes the
//!   columns of a working copy with plane rotations, and computes small
//!   singular values to high *relative* accuracy. It shares no code with
//!   Golub–Reinsch past input validation, which makes it the differential
//!   oracle the tests check the default against.
//!
//! [`Svd`] holds `U`, `σ`, `V` with singular values sorted descending and the
//! factors' columns permuted to match.
//!
//! Two entry points share one dispatch:
//!
//! * [`svd_with_stats_budgeted_in`] returns the full decomposition;
//! * [`spectrum_in`] returns only σ, for readers such as TMA (Eq. 8) that
//!   never look at a singular vector. Under Golub–Reinsch it skips building
//!   `U` and `V` altogether; its σ and iteration count are bit-identical to
//!   the full kernel's, because the QR arithmetic never reads the factors.
//!
//! The dispatch validates the input (non-empty, finite), picks the
//! algorithm, rescales inputs of extreme magnitude by a power of two,
//! transposes wide inputs, polls an optional [`Budget`], draws every scratch
//! buffer — including the returned factors — from a caller-supplied
//! [`Workspace`], and returns the iteration count beside the result. [`svd`]
//! and [`svd_with`] are owned-`Matrix` conveniences over the full kernel with
//! a throwaway workspace. The two algorithms themselves are private, so no
//! public path skips the input checks.

use std::cmp::Ordering;

use crate::bidiag::{reduce_in, Factors};
use crate::budget::Budget;
use crate::error::LinAlgError;
use crate::matrix::Matrix;
use crate::vecops::{self, hypot};
use crate::view::MatRef;
use crate::workspace::Workspace;
use crate::Result;

/// Algorithm selector for [`svd_with`], [`svd_with_stats_budgeted_in`] and
/// [`spectrum_in`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvdAlgorithm {
    /// One-sided Jacobi: high relative accuracy on small σ; the differential
    /// oracle for the default.
    Jacobi,
    /// Golub–Reinsch bidiagonal QR.
    GolubReinsch,
    /// The default: Golub–Reinsch.
    Auto,
}

/// The range `[2⁻²⁰⁰, 2²⁰⁰]` of `max|aᵢⱼ|` both algorithms run on as given.
/// Inside it, squared column norms and Jacobi's products of two of them
/// (`‖w_p‖²‖w_q‖²`) stay in the normal floating-point range for any practical
/// row count. Outside it the kernel runs on a copy scaled by a power of two
/// and scales σ back, as LAPACK's xGESVD does; the scaling is exact, so only
/// entries that underflow next to the largest one are lost.
const SAFE_MIN: f64 = 6.223015277861142e-61;
/// Upper end of the range documented at [`SAFE_MIN`].
const SAFE_MAX: f64 = 1.6069380442589903e60;

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

/// Computes the SVD with the default algorithm.
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
/// same shape allocation-free. The reduction and the sweep/QR loops poll
/// `budget` once per column or iteration and bail out with
/// [`LinAlgError::DeadlineExceeded`] when it trips; `None` runs unpolled and
/// gives bit-identical results. A singular value above `f64::MAX` comes back
/// as `+∞`.
pub fn svd_with_stats_budgeted_in(
    a: MatRef<'_>,
    alg: SvdAlgorithm,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<(Svd, usize)> {
    let run = run_in(a, alg, true, budget, ws)?;
    let (u, v) = run.factors.expect("factors were requested");
    Ok((
        Svd {
            u,
            singular_values: run.sigma,
            v,
        },
        run.iterations,
    ))
}

/// The values-only kernel: the singular values of `a`, descending, and the
/// iteration count — bit for bit what [`svd_with_stats_budgeted_in`] returns
/// for the same `alg`, with the same validation, scaling, budget polling and
/// errors.
///
/// Golub–Reinsch (`Auto`) runs without `U` or `V`. `Jacobi` runs the full
/// oracle and hands its factors back to `ws`. Return the σ buffer with
/// [`Workspace::recycle_vec`] to keep repeat calls allocation-free.
pub fn spectrum_in(
    a: MatRef<'_>,
    alg: SvdAlgorithm,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<(Vec<f64>, usize)> {
    let run = run_in(a, alg, false, budget, ws)?;
    // Only Jacobi builds factors nobody asked for.
    if let Some((u, v)) = run.factors {
        ws.recycle_matrix(u);
        ws.recycle_matrix(v);
    }
    Ok((run.sigma, run.iterations))
}

/// What the dispatch returns: σ descending, the factors when asked for, and
/// the iteration count.
struct Run {
    sigma: Vec<f64>,
    factors: Factors,
    iterations: usize,
}

/// The dispatch behind both entry points: validates `a`, rescales extreme
/// magnitudes, and runs `alg` on a tall copy, asking Golub–Reinsch for `U`
/// and `V` only when `factors` is set.
fn run_in(
    a: MatRef<'_>,
    alg: SvdAlgorithm,
    factors: bool,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<Run> {
    validate(a)?;
    let tall = |t: MatRef<'_>, ws: &mut Workspace| match alg {
        SvdAlgorithm::Jacobi => jacobi_tall(t, budget, ws),
        SvdAlgorithm::GolubReinsch | SvdAlgorithm::Auto => {
            golub_reinsch_tall(t, factors, budget, ws)
        }
    };
    let amax = a.row_iter().map(vecops::norm_inf).fold(0.0, f64::max);
    if amax == 0.0 || (SAFE_MIN..=SAFE_MAX).contains(&amax) {
        return on_tall(a, ws, tall);
    }
    // 2^k brings max|aᵢⱼ| to [1, 2); the clamp keeps 2^±k finite and still
    // lands every finite non-zero input inside the safe range.
    let k = (-amax.log2().floor()).clamp(-1000.0, 1000.0) as i32;
    let (up, down) = (2f64.powi(k), 2f64.powi(-k));
    let mut scaled = ws.take_matrix(a.rows(), a.cols(), 0.0);
    for (i, src) in a.row_iter().enumerate() {
        for (d, &s) in scaled.row_mut(i).iter_mut().zip(src) {
            *d = s * up;
        }
    }
    let out = on_tall(scaled.view(), ws, tall);
    ws.recycle_matrix(scaled);
    let mut run = out?;
    for sigma in &mut run.sigma {
        *sigma *= down;
    }
    Ok(run)
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
    tall: impl FnOnce(MatRef<'_>, &mut Workspace) -> Result<Run>,
) -> Result<Run> {
    if a.rows() >= a.cols() {
        return tall(a, ws);
    }
    let at = transpose_pooled(a, ws);
    let t = tall(at.view(), ws);
    ws.recycle_matrix(at);
    let mut run = t?;
    run.factors = run.factors.map(|(u, v)| (v, u));
    Ok(run)
}

/// Sorts the spectrum descending and, when the factors are present, permutes
/// their columns to match and fixes a deterministic sign convention
/// (largest-magnitude entry of each `u` column is positive). Shared by both
/// SVD algorithms and both entry points, so σ comes out in the same order
/// with or without factors; a NaN singular value — a numeric breakdown of
/// `algorithm` after `iterations` — is a [`LinAlgError::NoConvergence`]
/// rather than a panic.
fn finalize_in(
    mut sigma: Vec<f64>,
    mut factors: Factors,
    algorithm: &'static str,
    iterations: usize,
    ws: &mut Workspace,
) -> Result<Run> {
    if sigma.iter().any(|s| s.is_nan()) {
        if let Some((u, v)) = factors {
            ws.recycle_matrix(u);
            ws.recycle_matrix(v);
        }
        ws.recycle_vec(sigma);
        hc_obs::obs_counter!("linalg_svd_noconvergence_total").inc();
        return Err(LinAlgError::NoConvergence {
            algorithm,
            iterations,
            residual: f64::NAN,
        });
    }
    let k = sigma.len();
    let mut order = ws.take_idx(k);
    for (i, o) in order.iter_mut().enumerate() {
        *o = i;
    }
    // Unstable sort: in-place, no merge buffer. Ties (equal σ) can land in
    // either order; every consumer treats equal-σ columns as interchangeable.
    order.sort_unstable_by(|&a, &b| sigma[b].partial_cmp(&sigma[a]).unwrap_or(Ordering::Equal));
    // Apply the permutation with one row-sized scratch buffer instead of
    // rebuilding each factor.
    let mut scratch = ws.take_vec(k, 0.0);
    for (dst, &src) in scratch.iter_mut().zip(order.iter()) {
        *dst = sigma[src];
    }
    sigma.copy_from_slice(&scratch);
    if let Some((u, v)) = &mut factors {
        for mat in [&mut *u, &mut *v] {
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
    }
    ws.recycle_idx(order);
    ws.recycle_vec(scratch);
    Ok(Run {
        sigma,
        factors,
        iterations,
    })
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

/// One-sided (Hestenes) Jacobi on a tall (`m ≥ n`) input: starts from
/// `W = A`, `V = I` and orthogonalizes `W`'s columns with plane rotations,
/// maintaining `W = A·V` throughout.
fn jacobi_tall(a: MatRef<'_>, budget: Option<&Budget>, ws: &mut Workspace) -> Result<Run> {
    let (m, n) = a.shape();
    let mut w = ws.take_matrix(m, n, 0.0);
    w.view_mut().copy_from(a);
    let mut v = ws.take_identity(n);
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
    finalize_in(sigma, Some((u, v)), "jacobi-svd", sweeps, ws)
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
/// implicit-shift QR on the bidiagonal, accumulating `U` and `V` only when
/// `factors` is set. The `d`/`rv1` arithmetic never reads the factors, so σ
/// and the QR iteration count are the same bits either way.
fn golub_reinsch_tall(
    a: MatRef<'_>,
    factors: bool,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<Run> {
    let mut obs = hc_obs::span("linalg.svd.golub_reinsch");
    let mut total_iters = 0usize;
    let (mut d, e, uv) = {
        let _phase = hc_obs::span("linalg.svd.bidiag");
        reduce_in(a, factors, budget, ws)?
    };
    let n = d.len();
    // rv1[i] is the superdiagonal entry coupling d[i-1] and d[i]; rv1[0] is unused
    // and kept at zero (mirrors the classic svdcmp layout).
    let mut rv1 = ws.take_vec(n, 0.0);
    rv1[1..n].copy_from_slice(&e);
    ws.recycle_vec(e);
    let (mut u, mut v) = uv.unzip();

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
                    rotate_cols(u.as_mut(), l - 1, i, c, s);
                }
            }

            let z = d[k];
            if l == k {
                // Converged for this singular value.
                if z < 0.0 {
                    d[k] = -z;
                    if let Some(v) = v.as_mut() {
                        v.scale_col(k, -1.0);
                    }
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
                rotate_cols(v.as_mut(), j, i, c, s);
                zz = hypot(f, h);
                d[j] = zz;
                if zz != 0.0 {
                    let inv = 1.0 / zz;
                    c = f * inv;
                    s = h * inv;
                }
                f = c * g + s * yy;
                x = c * yy - s * g;
                rotate_cols(u.as_mut(), j, i, c, s);
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

    finalize_in(d, u.zip(v), "golub-reinsch-svd", total_iters, ws)
}

#[inline]
fn sign(a: f64, b: f64) -> f64 {
    if b >= 0.0 {
        a.abs()
    } else {
        -a.abs()
    }
}

/// Rotates columns `p` and `q` of `m` by `(c, s)`; a no-op without a factor.
#[inline]
fn rotate_cols(m: Option<&mut Matrix>, p: usize, q: usize, c: f64, s: f64) {
    let Some(m) = m else {
        return;
    };
    for i in 0..m.rows() {
        let mp = m[(i, p)];
        let mq = m[(i, q)];
        m[(i, p)] = mp * c + mq * s;
        m[(i, q)] = mq * c - mp * s;
    }
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
    fn auto_runs_golub_reinsch_bitwise() {
        let mut ws = Workspace::new();
        for (m, n) in [(4, 4), (8, 4), (3, 8), (12, 5), (64, 64), (80, 70)] {
            let a = Matrix::from_fn(m, n, |i, j| {
                0.1 + ((i * 131 + j * 31 + 7) % 97) as f64 / 97.0
            });
            let (auto, auto_iters) =
                svd_with_stats_budgeted_in(a.view(), SvdAlgorithm::Auto, None, &mut ws).unwrap();
            let (gr, gr_iters) =
                svd_with_stats_budgeted_in(a.view(), SvdAlgorithm::GolubReinsch, None, &mut ws)
                    .unwrap();
            assert_eq!(auto_iters, gr_iters, "{m}x{n}");
            assert_eq!(auto.singular_values, gr.singular_values, "{m}x{n}");
            assert_eq!(auto.u, gr.u);
            assert_eq!(auto.v, gr.v);
            // The values-only kernel runs the same reduction and QR loop.
            let (sigma, iters) = spectrum_in(a.view(), SvdAlgorithm::Auto, None, &mut ws).unwrap();
            assert_eq!(iters, auto_iters, "{m}x{n}");
            assert_eq!(sigma, auto.singular_values, "{m}x{n}");
            ws.recycle_vec(sigma);
            auto.recycle(&mut ws);
            gr.recycle(&mut ws);
        }
    }

    #[test]
    fn out_of_range_magnitudes_scale_exactly() {
        // Scaling by a power of two commutes with every rounding in both
        // algorithms, so a matrix pushed outside the safe range decomposes to
        // exactly 2^k times the spectrum of the original, with the same
        // factors.
        let a = Matrix::from_fn(7, 5, |i, j| 0.2 + ((i * 17 + j * 5) % 31) as f64 / 31.0);
        for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::GolubReinsch] {
            let base = svd_with(&a, alg).unwrap();
            for k in [-700, -230, 230, 700] {
                let f = 2f64.powi(k);
                let s = svd_with(&a.scaled(f), alg).unwrap();
                let want: Vec<f64> = base.singular_values.iter().map(|x| x * f).collect();
                assert_eq!(s.singular_values, want, "{alg:?} at 2^{k}");
                assert_eq!(s.u, base.u, "{alg:?} at 2^{k}");
                assert_eq!(s.v, base.v, "{alg:?} at 2^{k}");
                let (sigma, _) =
                    spectrum_in(a.scaled(f).view(), alg, None, &mut Workspace::new()).unwrap();
                assert_eq!(sigma, want, "{alg:?} values only at 2^{k}");
            }
        }
    }

    #[test]
    fn nan_spectrum_is_a_typed_error() {
        let mut ws = Workspace::new();
        for factors in [Some((Matrix::identity(2), Matrix::identity(2))), None] {
            let got = finalize_in(
                vec![1.0, f64::NAN],
                factors,
                "golub-reinsch-svd",
                3,
                &mut ws,
            );
            assert!(
                matches!(
                    got,
                    Err(LinAlgError::NoConvergence {
                        algorithm: "golub-reinsch-svd",
                        iterations: 3,
                        ..
                    })
                ),
                "{:?}",
                got.map(|r| r.sigma)
            );
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
            let (sigma, _) = spectrum_in(a.view(), alg, None, &mut ws).unwrap();
            assert_eq!(
                ws.stats().fresh,
                0,
                "{alg:?} warm values-only run allocated"
            );
            ws.recycle_vec(sigma);
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
        // the kernel, on an empty matrix and on a NaN inside a tall and inside
        // a wide matrix.
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
            assert!(
                matches!(
                    spectrum_in(empty.view(), alg, None, &mut ws),
                    Err(LinAlgError::Empty { .. })
                ),
                "{alg:?} values only accepted an empty matrix"
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
                assert!(
                    matches!(
                        spectrum_in(bad.view(), alg, None, &mut ws),
                        Err(LinAlgError::NonFinite { .. })
                    ),
                    "{alg:?} values only accepted a NaN in a {:?} matrix",
                    bad.shape()
                );
            }
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
        // Spot-check σ₁ against the Jacobi oracle.
        let p = svd_with(&a, SvdAlgorithm::Jacobi).unwrap().singular_values[0];
        assert!(
            (s.singular_values[0] - p).abs() < 1e-12 * p,
            "σ₁ {} vs Jacobi {p}",
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
            let (sigma, _) = spectrum_in(a.view(), alg, Some(&generous), &mut ws).unwrap();
            assert_eq!(sigma, plain.singular_values, "{alg:?} values only");
            ws.recycle_vec(sigma);
            plain.recycle(&mut ws);
            budgeted.recycle(&mut ws);
        }
    }

    #[test]
    fn expired_budget_returns_deadline_exceeded() {
        use crate::budget::Budget;
        // Golub–Reinsch polls before reducing its first column, so an expired
        // budget stops it before any O(n³) work.
        let a = Matrix::from_fn(64, 64, |i, j| 0.2 + ((i * 17 + j * 5) % 31) as f64 / 31.0);
        let mut ws = Workspace::new();
        let expired = Budget::with_deadline(std::time::Duration::ZERO);
        for (alg, want) in [
            (SvdAlgorithm::Jacobi, "jacobi-svd"),
            (SvdAlgorithm::GolubReinsch, "golub-reinsch-bidiag"),
            (SvdAlgorithm::Auto, "golub-reinsch-bidiag"),
        ] {
            let full = svd_with_stats_budgeted_in(a.view(), alg, Some(&expired), &mut ws);
            let values = spectrum_in(a.view(), alg, Some(&expired), &mut ws);
            for got in [full.map(|(s, _)| s.singular_values), values.map(|(s, _)| s)] {
                match got {
                    Err(LinAlgError::DeadlineExceeded {
                        op, iterations: 0, ..
                    }) if op == want => {}
                    other => {
                        panic!("{alg:?}: expected DeadlineExceeded from {want}, got {other:?}")
                    }
                }
            }
        }
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
