//! Singular value decomposition.
//!
//! Two independent algorithms with identical output contracts, cross-validated
//! against each other in the test suite:
//!
//! * **Golub–Reinsch** (the default, [`SvdAlgorithm::Auto`]) — Householder
//!   bidiagonalization followed by a bidiagonal phase: implicit-shift QR
//!   when `U` and `V` are built (the classic LAPACK-style dense SVD), dqds
//!   when only σ is wanted. Its singular values are accurate to a few ulps
//!   of σ₁, which is all TMA needs: the standard form's spectrum lies in
//!   [0, 1] with σ₁ = 1 (Theorem 2).
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
//!   never look at a singular vector. Under Golub–Reinsch it runs the same
//!   reduction without keeping the reflectors, then hands the bidiagonal to
//!   dqds, as LAPACK's xBDSQR hands a call with no vectors to xLASQ1: one
//!   division and no square root per step where the QR loop pays two
//!   `hypot`s and four divisions, and every σ to high relative accuracy.
//!   Its σ agree with the full kernel's to 1e-13·σ₁, not bit for bit, and
//!   its iteration count is the number of qd transforms.
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
/// iteration count, with the same validation and scaling as
/// [`svd_with_stats_budgeted_in`].
///
/// Golub–Reinsch (`Auto`) runs the reduction without `U` or `V`, then dqds
/// on the bidiagonal; σ lies within 1e-13·σ₁ of the full kernel's, and the
/// iteration count is the number of qd transforms. The reduction polls
/// `budget` once per column and dqds once per transform (op `dqds`); a
/// dqds breakdown or cap overrun is [`LinAlgError::NoConvergence`] with
/// algorithm `dqds`.
/// `Jacobi` runs the full oracle, bit for bit, and hands its factors back to
/// `ws`. Return the σ buffer with [`Workspace::recycle_vec`] to keep repeat
/// calls allocation-free.
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
/// magnitudes, and runs `alg` on a tall copy. Under Golub–Reinsch, `factors`
/// picks the QR loop (with `U` and `V`) over dqds (σ only).
fn run_in(
    a: MatRef<'_>,
    alg: SvdAlgorithm,
    factors: bool,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<Run> {
    let amax = validate(a)?;
    let tall = |t: MatRef<'_>, ws: &mut Workspace| match alg {
        SvdAlgorithm::Jacobi => jacobi_tall(t, budget, ws),
        SvdAlgorithm::Auto if factors => golub_reinsch_tall(t, budget, ws),
        SvdAlgorithm::Auto => dqds_tall(t, budget, ws),
    };
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

/// The input checks every public SVD path runs first, in one pass over `a`:
/// non-empty, and finite (the error names the first non-finite entry,
/// row-major). Returns `max|aᵢⱼ|` for the rescaling.
fn validate(a: MatRef<'_>) -> Result<f64> {
    if a.is_empty() {
        return Err(LinAlgError::Empty { op: "svd" });
    }
    let mut amax = 0.0_f64;
    for (row, entries) in a.row_iter().enumerate() {
        for (col, &v) in entries.iter().enumerate() {
            if !v.is_finite() {
                return Err(LinAlgError::NonFinite {
                    op: "svd",
                    row,
                    col,
                });
            }
            amax = amax.max(v.abs());
        }
    }
    Ok(amax)
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
/// (largest-magnitude entry of each `u` column is positive). Shared by every
/// kernel and both entry points, so σ comes out in the same order with or
/// without factors; a NaN singular value — a numeric breakdown of
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
/// implicit-shift QR on the bidiagonal, accumulating `U` and `V`.
fn golub_reinsch_tall(a: MatRef<'_>, budget: Option<&Budget>, ws: &mut Workspace) -> Result<Run> {
    let mut obs = hc_obs::span("linalg.svd.golub_reinsch");
    let mut total_iters = 0usize;
    let (mut d, e, uv) = {
        let _phase = hc_obs::span("linalg.svd.bidiag");
        reduce_in(a, true, budget, ws)?
    };
    let (mut u, mut v) = uv.expect("factors were requested");
    let n = d.len();
    // rv1[i] is the superdiagonal entry coupling d[i-1] and d[i]; rv1[0] is unused
    // and kept at zero (mirrors the classic svdcmp layout).
    let mut rv1 = ws.take_vec(n, 0.0);
    rv1[1..n].copy_from_slice(&e);
    ws.recycle_vec(e);

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
                    v.scale_col(k, -1.0);
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

    record_bidiagonal_phase(total_iters);
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

    finalize_in(d, Some((u, v)), "golub-reinsch-svd", total_iters, ws)
}

/// Counts one run of the bidiagonal phase — the QR loop or dqds — and its
/// iterations into the Golub–Reinsch counters, histogram and flight-record
/// note.
fn record_bidiagonal_phase(iterations: usize) {
    hc_obs::obs_counter!("linalg_svd_gr_total").inc();
    hc_obs::obs_counter!("linalg_svd_gr_iterations_total").add(iterations as u64);
    hc_obs::obs_histogram!("linalg_svd_gr_iterations").observe(iterations as u64);
    hc_obs::recorder::note_u64("svd_gr_iterations", iterations as u64);
}

#[inline]
fn sign(a: f64, b: f64) -> f64 {
    if b >= 0.0 {
        a.abs()
    } else {
        -a.abs()
    }
}

/// Rotates columns `p` and `q` of `m` by `(c, s)`.
#[inline]
fn rotate_cols(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    for i in 0..m.rows() {
        let mp = m[(i, p)];
        let mq = m[(i, q)];
        m[(i, p)] = mp * c + mq * s;
        m[(i, q)] = mq * c - mp * s;
    }
}

// ---------------------------------------------------------------------------
// dqds (values only)
// ---------------------------------------------------------------------------

/// The spacing of doubles at 1, LAPACK's `dlamch('P')`.
const EPS: f64 = f64::EPSILON;
/// The smallest normal double, LAPACK's `dlamch('S')`.
const SAFMIN: f64 = f64::MIN_POSITIVE;
/// dqds's deflation tolerance (dlasq2's `TOL`) and its square.
const TOL: f64 = 100.0 * EPS;
const TOL2: f64 = TOL * TOL;
/// How much larger the bottom of a block must be than its top before the
/// block is reversed (dlasq2's `CBIAS`).
const CBIAS: f64 = 1.5;
/// dlasq4's constants, `THIRD` included: LAPACK's literal 0.333, not 1/3.
const CNST1: f64 = 0.563;
const CNST2: f64 = 1.01;
const CNST3: f64 = 1.05;
const THIRD: f64 = 0.333;

/// The values-only kernel on a tall (`m ≥ n`) input: Golub–Reinsch's
/// reduction, then dqds on the bidiagonal.
fn dqds_tall(a: MatRef<'_>, budget: Option<&Budget>, ws: &mut Workspace) -> Result<Run> {
    let mut obs = hc_obs::span("linalg.svd.golub_reinsch");
    let (mut d, e, _) = {
        let _phase = hc_obs::span("linalg.svd.bidiag");
        reduce_in(a, false, budget, ws)?
    };
    let phase = hc_obs::span("linalg.svd.dqds");
    let out = dqds_in(&mut d, &e, budget, ws);
    drop(phase);
    ws.recycle_vec(e);
    let iterations = match out {
        Ok(iterations) => iterations,
        Err(err) => {
            ws.recycle_vec(d);
            return Err(err);
        }
    };
    record_bidiagonal_phase(iterations);
    if obs.armed() {
        obs.field_u64("rows", a.rows() as u64);
        obs.field_u64("cols", a.cols() as u64);
        obs.field_u64("iterations", iterations as u64);
    }
    finalize_in(d, None, "dqds", iterations, ws)
}

/// The singular values of the upper-bidiagonal `B` with diagonal `d` and
/// superdiagonal `e`, written over `d` in no particular order; returns the
/// number of qd transforms. This is dqds, the differential
/// quotient-difference algorithm with shifts (Fernando & Parlett, Numer.
/// Math. 67, 1994; Parlett & Marques, LAA 309, 2000), ported from LAPACK's
/// dlasq1–dlasq6 (IEEE arithmetic). A transform costs one division per entry
/// and no square root, and every σ, the smallest included, comes out to
/// high relative accuracy.
///
/// The squares of `B`'s entries live in one pooled buffer of `4·k` entries:
/// two qd arrays, interleaved, that the transforms ping-pong between. The
/// budget is polled before every transform (op `dqds`).
fn dqds_in(d: &mut [f64], e: &[f64], budget: Option<&Budget>, ws: &mut Workspace) -> Result<usize> {
    let k = d.len();
    for x in d.iter_mut() {
        *x = x.abs();
    }
    if k == 2 {
        (d[0], d[1]) = las2(d[0], e[0], d[1]);
        return Ok(0);
    }
    let emax = e.iter().fold(0.0_f64, |m, x| m.max(x.abs()));
    if emax == 0.0 {
        return Ok(0);
    }
    // dlasq1 scales the largest entry to √(ε/safmin) = 2⁴⁸⁵ before
    // squaring, so that small entries' squares stay clear of underflow. A
    // power of two just below that keeps the scaling exact.
    let sigmx = d.iter().fold(emax, |m, &x| m.max(x));
    let p = 484 - sigmx.log2().floor() as i32;
    let (up, down) = (2f64.powi(p), 2f64.powi(-p));
    let mut z = ws.take_vec(4 * k, 0.0);
    for (i, &x) in d.iter().enumerate() {
        z[qx(i + 1, 0)] = (x * up) * (x * up);
    }
    for (i, &x) in e.iter().enumerate() {
        z[ex(i + 1, 0)] = (x * up) * (x * up);
    }
    let out = Qd::new(&mut z).run(k, budget);
    if out.is_ok() {
        for (i, x) in d.iter_mut().enumerate() {
            *x = z[qx(i + 1, 0)].sqrt() * down;
        }
    }
    ws.recycle_vec(z);
    out
}

/// The singular values `(σ_max, σ_min)` of the upper triangle
/// `[[f, g], [0, h]]` (LAPACK dlas2).
fn las2(f: f64, g: f64, h: f64) -> (f64, f64) {
    let (fa, ga, ha) = (f.abs(), g.abs(), h.abs());
    let (fhmn, fhmx) = (fa.min(ha), fa.max(ha));
    if fhmn == 0.0 {
        if fhmx == 0.0 {
            return (ga, 0.0);
        }
        let (lo, hi) = (fhmx.min(ga), fhmx.max(ga));
        let r = lo / hi;
        return (hi * (1.0 + r * r).sqrt(), 0.0);
    }
    if ga < fhmx {
        let as_ = 1.0 + fhmn / fhmx;
        let at = (fhmx - fhmn) / fhmx;
        let au = (ga / fhmx) * (ga / fhmx);
        let c = 2.0 / ((as_ * as_ + au).sqrt() + (at * at + au).sqrt());
        return (fhmx / c, fhmn * c);
    }
    let au = fhmx / ga;
    if au == 0.0 {
        // The true σ_min need not underflow even though `au` did.
        return (ga, (fhmn * fhmx) / ga);
    }
    let as_ = 1.0 + fhmn / fhmx;
    let at = (fhmx - fhmn) / fhmx;
    let c = 1.0 / ((1.0 + (as_ * au) * (as_ * au)).sqrt() + (1.0 + (at * au) * (at * au)).sqrt());
    let ssmin = (fhmn * c) * au;
    (ga / (c + c), ssmin + ssmin)
}

/// Index of element `i`'s q (1-based, as in LAPACK) in pair `pp` of the qd
/// buffer. Element `i` owns entries `4i − 4 .. 4i`, laid out
/// `[q, q̂, e, ê]`: pair 0 (ping) is `(q, e)` and pair 1 (pong) is
/// `(q̂, ê)`. Each transform reads one pair and writes the other.
#[inline]
fn qx(i: usize, pp: usize) -> usize {
    4 * i - 4 + pp
}

/// Index of element `i`'s e in pair `pp` (see [`qx`]).
#[inline]
fn ex(i: usize, pp: usize) -> usize {
    4 * i - 2 + pp
}

/// `min` that passes a NaN through, so a breakdown inside a transform
/// reaches dlasq3's NaN test.
#[inline]
fn nan_min(a: f64, b: f64) -> f64 {
    if b < a || b.is_nan() {
        b
    } else {
        a
    }
}

/// Reverses elements `i0..=n0` of the qd array in pair 0, or in both pairs
/// when `pairs` is 2.
fn flip(z: &mut [f64], i0: usize, n0: usize, pairs: usize) {
    for i in i0..=(i0 + n0 - 1) / 2 {
        for pp in 0..pairs {
            z.swap(qx(i, pp), qx(i0 + n0 - i, pp));
            z.swap(ex(i, pp), ex(i0 + n0 - 1 - i, pp));
        }
    }
}

/// The state dlasq2 keeps across transforms and hands to dlasq3–dlasq6.
/// Element indices (`i0`, `n0`, …) are 1-based, as in LAPACK.
struct Qd<'z> {
    z: &'z mut [f64],
    /// The pair holding the current qd array; 2 marks a block that dlasq2
    /// has just reversed in both pairs (read as pair 0).
    pp: usize,
    /// Smallest d of the last transform, of all but its last step, and of
    /// all but its last two; then its last three d's.
    dmin: f64,
    dmin1: f64,
    dmin2: f64,
    dn: f64,
    dn1: f64,
    dn2: f64,
    /// dlasq4's shift-type memory and case-6 fraction.
    ttype: i32,
    g: f64,
    /// The shift of the next transform.
    tau: f64,
    /// The shift accumulated on the current block, with its compensation.
    sigma: f64,
    desig: f64,
    qmax: f64,
    /// Transforms so far.
    iter: usize,
}

impl<'z> Qd<'z> {
    fn new(z: &'z mut [f64]) -> Self {
        Qd {
            z,
            pp: 0,
            dmin: 0.0,
            dmin1: 0.0,
            dmin2: 0.0,
            dn: 0.0,
            dn1: 0.0,
            dn2: 0.0,
            ttype: 0,
            g: 0.0,
            tau: 0.0,
            sigma: 0.0,
            desig: 0.0,
            qmax: 0.0,
            iter: 0,
        }
    }

    /// Polls `budget` ahead of a transform.
    fn poll(&self, budget: Option<&Budget>) -> Result<()> {
        match budget {
            Some(b) => b.check("dqds", self.iter, f64::NAN),
            None => Ok(()),
        }
    }

    /// dlasq2 on the `n ≥ 3` elements in pair 0: leaves the eigenvalues of
    /// `BᵀB` (the squared σ) in pair 0's q entries and returns the
    /// transform count.
    fn run(&mut self, n: usize, budget: Option<&Budget>) -> Result<usize> {
        if (1..n).all(|i| self.z[ex(i, 0)] == 0.0) {
            return Ok(0);
        }
        let (mut i0, mut n0) = (1, n);
        if CBIAS * self.z[qx(i0, 0)] < self.z[qx(n0, 0)] {
            flip(self.z, i0, n0, 1);
        }
        // Initial split checking via dqd and Li's test: one zero-shift
        // transform each way, marking negligible e's with −0.
        for pp in [0, 1] {
            self.poll(budget)?;
            let o = 1 - pp;
            let z = &mut *self.z;
            let mut d = z[qx(n0, pp)];
            for i in (i0..n0).rev() {
                if z[ex(i, pp)] <= TOL2 * d {
                    z[ex(i, pp)] = -0.0;
                    d = z[qx(i, pp)];
                } else {
                    d = z[qx(i, pp)] * (d / (d + z[ex(i, pp)]));
                }
            }
            let mut d = z[qx(i0, pp)];
            for i in i0..n0 {
                let next = z[qx(i + 1, pp)];
                z[qx(i, o)] = d + z[ex(i, pp)];
                if z[ex(i, pp)] <= TOL2 * d {
                    z[ex(i, pp)] = -0.0;
                    z[qx(i, o)] = d;
                    z[ex(i, o)] = 0.0;
                    d = next;
                } else if SAFMIN * next < z[qx(i, o)] && SAFMIN * z[qx(i, o)] < next {
                    let temp = next / z[qx(i, o)];
                    z[ex(i, o)] = z[ex(i, pp)] * temp;
                    d *= temp;
                } else {
                    z[ex(i, o)] = next * (z[ex(i, pp)] / z[qx(i, o)]);
                    d = next * (d / z[qx(i, o)]);
                }
            }
            z[qx(n0, o)] = d;
            self.iter += 1;
        }

        for _ in 0..=n {
            if n0 < 1 {
                return Ok(self.iter);
            }
            // The e after a finished block holds −σ, the shift its lower
            // neighbour was split off at.
            self.desig = 0.0;
            self.sigma = if n0 == n { 0.0 } else { -self.z[ex(n0, 0)] };
            if self.sigma < 0.0 {
                return Err(self.no_convergence());
            }
            // Find the last unreduced block's top i0 and qmax, and a
            // Gershgorin-type bound if the q's dwarf the e's.
            let mut emax = 0.0_f64;
            let mut qmin = self.z[qx(n0, 0)];
            let mut qmax = qmin;
            i0 = 1;
            for i in (2..=n0).rev() {
                let e = self.z[ex(i - 1, 0)];
                if e <= 0.0 {
                    i0 = i;
                    break;
                }
                if qmin >= 4.0 * emax {
                    qmin = qmin.min(self.z[qx(i, 0)]);
                    emax = emax.max(e);
                }
                qmax = qmax.max(self.z[qx(i - 1, 0)] + e);
            }
            self.qmax = qmax;
            self.pp = 0;
            if n0 - i0 > 1 {
                // Reverse the block if a zero-shift transform's d dips
                // near its top.
                let mut dee = self.z[qx(i0, 0)];
                let (mut deemin, mut kmin) = (dee, i0);
                for i in i0..n0 {
                    dee = self.z[qx(i + 1, 0)] * (dee / (dee + self.z[ex(i, 0)]));
                    if dee <= deemin {
                        deemin = dee;
                        kmin = i + 1;
                    }
                }
                if (kmin - i0) * 2 < n0 - kmin && deemin <= 0.5 * self.z[qx(n0, 0)] {
                    flip(self.z, i0, n0, 2);
                    self.pp = 2;
                }
            }
            // −(initial shift).
            self.dmin = -(qmin - 2.0 * qmin.sqrt() * emax.sqrt()).max(0.0);

            let nbig = 100 * (n0 - i0 + 1);
            let mut steps = 0;
            while i0 <= n0 {
                if steps == nbig {
                    return Err(self.no_convergence());
                }
                steps += 1;
                self.step(i0, &mut n0, budget)?;
                self.pp = 1 - self.pp;
                if self.pp == 0 && n0 >= i0 + 3 {
                    self.split(&mut i0, n0);
                }
            }
        }
        if n0 < 1 {
            Ok(self.iter)
        } else {
            Err(self.no_convergence())
        }
    }

    /// A cap overrun or a broken split marker.
    fn no_convergence(&self) -> LinAlgError {
        hc_obs::obs_counter!("linalg_svd_noconvergence_total").inc();
        LinAlgError::NoConvergence {
            algorithm: "dqds",
            iterations: self.iter,
            residual: f64::NAN,
        }
    }

    /// dlasq2's split check, once e's have become tiny: splits the block
    /// `i0..=n0` (in pair 0) at every negligible e, marking it with −σ, and
    /// moves `i0` to the bottom piece.
    fn split(&mut self, i0: &mut usize, n0: usize) {
        let (z, sigma) = (&mut *self.z, self.sigma);
        if !(z[ex(n0, 1)] <= TOL2 * self.qmax || z[ex(n0, 0)] <= TOL2 * sigma) {
            return;
        }
        let mut splt = *i0 - 1;
        let mut qmax = z[qx(*i0, 0)];
        let mut emin = z[ex(*i0, 0)];
        let mut oldemn = z[ex(*i0, 1)];
        for i in *i0..=n0 - 3 {
            if z[ex(i, 1)] <= TOL2 * z[qx(i, 0)] || z[ex(i, 0)] <= TOL2 * sigma {
                z[ex(i, 0)] = -sigma;
                splt = i;
                qmax = 0.0;
                emin = z[ex(i + 1, 0)];
                oldemn = z[ex(i + 1, 1)];
            } else {
                qmax = qmax.max(z[qx(i + 1, 0)]);
                emin = emin.min(z[ex(i, 0)]);
                oldemn = oldemn.min(z[ex(i, 1)]);
            }
        }
        z[ex(n0, 0)] = emin;
        z[ex(n0, 1)] = oldemn;
        self.qmax = qmax;
        *i0 = splt + 1;
    }

    /// dlasq3: deflates converged eigenvalues off the bottom of `i0..=n0`
    /// (storing each, plus σ, in pair 0), then runs one shifted transform,
    /// retrying with a smaller shift when it fails.
    fn step(&mut self, i0: usize, n0: &mut usize, budget: Option<&Budget>) -> Result<()> {
        let n0in = *n0;
        // A block dlasq2 has just reversed skips the entry tests.
        if self.pp != 2 {
            loop {
                let (z, p, sigma) = (&mut *self.z, self.pp, self.sigma);
                let m = *n0;
                if m < i0 {
                    return Ok(());
                }
                // One eigenvalue: e(m−1) is negligible.
                if m == i0
                    || (m > i0 + 1
                        && !(z[ex(m - 1, p)] > TOL2 * (sigma + z[qx(m, p)])
                            && z[ex(m - 1, 1 - p)] > TOL2 * z[qx(m - 1, p)]))
                {
                    z[qx(m, 0)] = z[qx(m, p)] + sigma;
                    *n0 -= 1;
                    continue;
                }
                // Two eigenvalues: e(m−2) is negligible; solve the 2×2.
                if m == i0 + 1
                    || !(z[ex(m - 2, p)] > TOL2 * sigma
                        && z[ex(m - 2, 1 - p)] > TOL2 * z[qx(m - 2, p)])
                {
                    let (mut hi, mut lo) = (z[qx(m - 1, p)], z[qx(m, p)]);
                    if lo > hi {
                        (hi, lo) = (lo, hi);
                    }
                    let b = z[ex(m - 1, p)];
                    let t = 0.5 * ((hi - lo) + b);
                    if b > lo * TOL2 && t != 0.0 {
                        let mut s = lo * (b / t);
                        s = if s <= t {
                            lo * (b / (t * (1.0 + (1.0 + s / t).sqrt())))
                        } else {
                            lo * (b / (t + t.sqrt() * (t + s).sqrt()))
                        };
                        let t = hi + (s + b);
                        lo *= hi / t;
                        hi = t;
                    }
                    z[qx(m - 1, 0)] = hi + sigma;
                    z[qx(m, 0)] = lo + sigma;
                    *n0 -= 2;
                    continue;
                }
                break;
            }
        }
        let n0 = *n0;
        if self.pp == 2 {
            self.pp = 0;
        }
        let p = self.pp;

        // Reverse the block, if warranted.
        if self.dmin <= 0.0 || n0 < n0in {
            let z = &mut *self.z;
            if CBIAS * z[qx(i0, p)] < z[qx(n0, p)] {
                flip(z, i0, n0, 2);
                if n0 - i0 <= 4 {
                    z[ex(n0, p)] = z[ex(i0, p)];
                    z[ex(n0, 1 - p)] = z[ex(i0, 1 - p)];
                }
                self.dmin2 = self.dmin2.min(z[ex(n0, p)]);
                z[ex(n0, p)] = z[ex(n0, p)].min(z[ex(i0, p)]).min(z[ex(i0 + 1, p)]);
                z[ex(n0, 1 - p)] = z[ex(n0, 1 - p)]
                    .min(z[ex(i0, 1 - p)])
                    .min(z[ex(i0 + 1, 1 - p)]);
                self.qmax = self.qmax.max(z[qx(i0, p)]).max(z[qx(i0 + 1, p)]);
                self.dmin = -0.0;
            }
        }

        self.shift(i0, n0, n0in);
        // Transform until dmin ≥ 0; `guarded` asks for dlasq6's zero-shift,
        // underflow-guarded transform instead.
        let guarded = loop {
            self.poll(budget)?;
            self.dqds(i0, n0);
            self.iter += 1;
            if self.dmin >= 0.0 && self.dmin1 >= 0.0 {
                break false;
            }
            let z = &mut *self.z;
            if self.dmin < 0.0
                && self.dmin1 > 0.0
                && z[ex(n0 - 1, 1 - p)] < TOL * (self.sigma + self.dn1)
                && self.dn.abs() < TOL * self.sigma
            {
                // Convergence hidden by a negative dn.
                z[qx(n0, 1 - p)] = 0.0;
                self.dmin = 0.0;
                break false;
            }
            if self.dmin < 0.0 {
                // The shift overshot: retry with a smaller one.
                if self.ttype < -22 {
                    // Failed twice: play it safe.
                    self.tau = 0.0;
                } else if self.dmin1 > 0.0 {
                    // A late failure gives an excellent shift.
                    self.tau = (self.tau + self.dmin) * (1.0 - 2.0 * EPS);
                    self.ttype -= 11;
                } else {
                    // An early failure: divide by 4.
                    self.tau *= 0.25;
                    self.ttype -= 12;
                }
                continue;
            }
            if self.dmin.is_nan() && self.tau != 0.0 {
                self.tau = 0.0;
                continue;
            }
            // A NaN at zero shift, or possible underflow.
            break true;
        };
        if guarded {
            self.poll(budget)?;
            self.dqd(i0, n0);
            self.iter += 1;
            self.tau = 0.0;
        }

        // σ += τ, compensated.
        if self.tau < self.sigma {
            self.desig += self.tau;
            let t = self.sigma + self.desig;
            self.desig -= t - self.sigma;
            self.sigma = t;
        } else {
            let t = self.sigma + self.tau;
            self.desig = self.sigma + (self.desig - (t - self.tau));
            self.sigma = t;
        }
        Ok(())
    }

    /// dlasq4: picks the next shift `tau` for the block `i0..=n0` from the
    /// last transform's d's, given that `n0in − n0` eigenvalues have just
    /// been deflated. Where LAPACK bails out of a refinement with `tau`
    /// left as it was, this takes the conservative shift chosen before it.
    fn shift(&mut self, i0: usize, n0: usize, n0in: usize) {
        let (dmin, dmin1, dmin2) = (self.dmin, self.dmin1, self.dmin2);
        let (dn, dn1, dn2) = (self.dn, self.dn1, self.dn2);
        if dmin <= 0.0 {
            self.tau = -dmin;
            self.ttype = -1;
            return;
        }
        let (z, p) = (&*self.z, self.pp);
        let q = |i: usize| z[qx(i, p)];
        let e = |i: usize| z[ex(i, p)];
        let oq = |i: usize| z[qx(i, 1 - p)];
        let oe = |i: usize| z[ex(i, 1 - p)];
        let mut s = 0.0;
        let mut ttype = self.ttype;
        'shift: {
            if n0in == n0 {
                // No eigenvalue deflated.
                if dmin == dn || dmin == dn1 {
                    let b1 = q(n0).sqrt() * e(n0 - 1).sqrt();
                    let b2 = q(n0 - 1).sqrt() * e(n0 - 2).sqrt();
                    let a2 = q(n0 - 1) + e(n0 - 1);
                    if dmin == dn && dmin1 == dn1 {
                        // Cases 2 and 3.
                        let gap2 = dmin2 - a2 - dmin2 * 0.25;
                        let gap1 = if gap2 > 0.0 && gap2 > b2 {
                            a2 - dn - (b2 / gap2) * b2
                        } else {
                            a2 - dn - (b1 + b2)
                        };
                        if gap1 > 0.0 && gap1 > b1 {
                            s = (dn - (b1 / gap1) * b1).max(0.5 * dmin);
                            ttype = -2;
                        } else {
                            if dn > b1 {
                                s = dn - b1;
                            }
                            if a2 > b1 + b2 {
                                s = s.min(a2 - (b1 + b2));
                            }
                            s = s.max(THIRD * dmin);
                            ttype = -3;
                        }
                    } else {
                        // Case 4.
                        ttype = -4;
                        s = 0.25 * dmin;
                        let (gam, a2, b2, top);
                        if dmin == dn {
                            gam = dn;
                            a2 = 0.0;
                            if e(n0 - 1) > q(n0 - 1) {
                                break 'shift;
                            }
                            b2 = e(n0 - 1) / q(n0 - 1);
                            top = n0 - 2;
                        } else {
                            gam = dn1;
                            if oe(n0 - 1) > oq(n0) {
                                break 'shift;
                            }
                            a2 = oe(n0 - 1) / oq(n0);
                            if e(n0 - 2) > q(n0 - 2) {
                                break 'shift;
                            }
                            b2 = e(n0 - 2) / q(n0 - 2);
                            top = n0 - 3;
                        }
                        let Some(tail) = norm_tail(z, p, i0, top, a2 + b2, b2) else {
                            break 'shift;
                        };
                        let a2 = CNST3 * tail;
                        // Rayleigh quotient residual bound.
                        if a2 < CNST1 {
                            s = gam * (1.0 - a2.sqrt()) / (1.0 + a2);
                        }
                    }
                } else if dmin == dn2 {
                    // Case 5.
                    ttype = -5;
                    s = 0.25 * dmin;
                    // Contribution to norm squared from the last two.
                    let (b1, b2) = (oq(n0), oq(n0 - 1));
                    if oe(n0 - 2) > b2 || oe(n0 - 1) > b1 {
                        break 'shift;
                    }
                    let mut a2 = (oe(n0 - 2) / b2) * (1.0 + oe(n0 - 1) / b1);
                    if n0 - i0 > 2 {
                        let b2 = e(n0 - 3) / q(n0 - 3);
                        let Some(tail) = norm_tail(z, p, i0, n0 - 4, a2 + b2, b2) else {
                            break 'shift;
                        };
                        a2 = CNST3 * tail;
                    }
                    if a2 < CNST1 {
                        s = dn2 * (1.0 - a2.sqrt()) / (1.0 + a2);
                    }
                } else {
                    // Case 6: no information to guide us.
                    self.g = match ttype {
                        -6 => self.g + THIRD * (1.0 - self.g),
                        -18 => 0.25 * THIRD,
                        _ => 0.25,
                    };
                    s = self.g * dmin;
                    ttype = -6;
                }
            } else if n0in == n0 + 1 {
                // One eigenvalue just deflated: use dmin1 and dn1.
                if dmin1 == dn1 && dmin2 == dn2 {
                    // Cases 7 and 8.
                    ttype = -7;
                    s = THIRD * dmin1;
                    if e(n0 - 1) > q(n0 - 1) {
                        break 'shift;
                    }
                    let mut b1 = e(n0 - 1) / q(n0 - 1);
                    let mut b2 = b1;
                    if b2 != 0.0 {
                        for i in (i0..=n0 - 2).rev() {
                            let a2 = b1;
                            if e(i) > q(i) {
                                break 'shift;
                            }
                            b1 *= e(i) / q(i);
                            b2 += b1;
                            if 100.0 * b1.max(a2) < b2 {
                                break;
                            }
                        }
                    }
                    let b2 = (CNST3 * b2).sqrt();
                    let a2 = dmin1 / (1.0 + b2 * b2);
                    let gap2 = 0.5 * dmin2 - a2;
                    if gap2 > 0.0 && gap2 > b2 * a2 {
                        s = s.max(a2 * (1.0 - CNST2 * a2 * (b2 / gap2) * b2));
                    } else {
                        s = s.max(a2 * (1.0 - CNST2 * b2));
                        ttype = -8;
                    }
                } else {
                    // Case 9.
                    s = if dmin1 == dn1 {
                        0.5 * dmin1
                    } else {
                        0.25 * dmin1
                    };
                    ttype = -9;
                }
            } else if n0in == n0 + 2 {
                // Two eigenvalues deflated: use dmin2 and dn2.
                if dmin2 == dn2 && 2.0 * e(n0 - 1) < q(n0 - 1) {
                    // Case 10.
                    ttype = -10;
                    s = THIRD * dmin2;
                    if e(n0 - 1) > q(n0 - 1) {
                        break 'shift;
                    }
                    let mut b1 = e(n0 - 1) / q(n0 - 1);
                    let mut b2 = b1;
                    if b2 != 0.0 {
                        for i in (i0..=n0 - 2).rev() {
                            if e(i) > q(i) {
                                break 'shift;
                            }
                            b1 *= e(i) / q(i);
                            b2 += b1;
                            if 100.0 * b1 < b2 {
                                break;
                            }
                        }
                    }
                    let b2 = (CNST3 * b2).sqrt();
                    let a2 = dmin2 / (1.0 + b2 * b2);
                    let gap2 = q(n0 - 1) + e(n0 - 2) - q(n0 - 2).sqrt() * e(n0 - 2).sqrt() - a2;
                    if gap2 > 0.0 && gap2 > b2 * a2 {
                        s = s.max(a2 * (1.0 - CNST2 * a2 * (b2 / gap2) * b2));
                    } else {
                        s = s.max(a2 * (1.0 - CNST2 * b2));
                    }
                } else {
                    // Case 11.
                    s = 0.25 * dmin2;
                    ttype = -11;
                }
            } else {
                // Case 12: more than two eigenvalues deflated.
                s = 0.0;
                ttype = -12;
            }
        }
        self.tau = s;
        self.ttype = ttype;
    }

    /// dlasq5: one dqds transform of `i0..=n0` with shift `tau` from the
    /// current pair into the other, recording the d's dlasq3 and dlasq4
    /// read. A shift below `ε·(σ + τ)/2` is dropped, and at zero shift d's
    /// below `ε·σ` are flushed to zero.
    fn dqds(&mut self, i0: usize, n0: usize) {
        if n0 <= i0 + 1 {
            return;
        }
        let dthresh = EPS * (self.sigma + self.tau);
        if self.tau < dthresh * 0.5 {
            self.tau = 0.0;
        }
        let tau = self.tau;
        let flush = tau == 0.0;
        let (z, p, o) = (&mut *self.z, self.pp, 1 - self.pp);
        let mut emin = z[qx(i0 + 1, p)];
        let mut d = z[qx(i0, p)] - tau;
        let mut dmin = d;
        // Elements i0..=n0−2, four entries each: each step writes one
        // element and reads the next one's q.
        let mut elements = z[qx(i0, 0)..qx(n0 - 1, 0)].chunks_exact_mut(4);
        let mut cur = elements.next().expect("a block of three or more");
        for next in elements {
            let qq = d + cur[2 + p];
            cur[o] = qq;
            let temp = next[p] / qq;
            d = d * temp - tau;
            if flush && d < dthresh {
                d = 0.0;
            }
            dmin = nan_min(dmin, d);
            let ee = cur[2 + p] * temp;
            cur[2 + o] = ee;
            emin = emin.min(ee);
            cur = next;
        }
        // The last two steps, unrolled.
        let dnm2 = d;
        self.dmin2 = dmin;
        let qq = dnm2 + z[ex(n0 - 2, p)];
        z[qx(n0 - 2, o)] = qq;
        z[ex(n0 - 2, o)] = z[qx(n0 - 1, p)] * (z[ex(n0 - 2, p)] / qq);
        let dnm1 = z[qx(n0 - 1, p)] * (dnm2 / qq) - tau;
        dmin = nan_min(dmin, dnm1);
        self.dmin1 = dmin;
        let qq = dnm1 + z[ex(n0 - 1, p)];
        z[qx(n0 - 1, o)] = qq;
        z[ex(n0 - 1, o)] = z[qx(n0, p)] * (z[ex(n0 - 1, p)] / qq);
        let dn = z[qx(n0, p)] * (dnm1 / qq) - tau;
        dmin = nan_min(dmin, dn);
        z[qx(n0, o)] = dn;
        z[ex(n0, o)] = emin;
        (self.dn, self.dn1, self.dn2, self.dmin) = (dn, dnm1, dnm2, dmin);
    }

    /// dlasq6: one zero-shift transform of `i0..=n0` that guards each
    /// division against underflow and a zero q̂.
    fn dqd(&mut self, i0: usize, n0: usize) {
        if n0 <= i0 + 1 {
            return;
        }
        let (z, p, o) = (&mut *self.z, self.pp, 1 - self.pp);
        let mut emin = z[qx(i0 + 1, p)];
        let mut d = z[qx(i0, p)];
        let mut dmin = d;
        for i in i0..=n0 - 3 {
            let (next, zero) = guarded_step(z, i, p, d);
            d = next;
            if zero {
                dmin = d;
                emin = 0.0;
            }
            dmin = nan_min(dmin, d);
            emin = emin.min(z[ex(i, o)]);
        }
        let dnm2 = d;
        self.dmin2 = dmin;
        let (dnm1, zero) = guarded_step(z, n0 - 2, p, dnm2);
        if zero {
            dmin = dnm1;
            emin = 0.0;
        }
        dmin = nan_min(dmin, dnm1);
        self.dmin1 = dmin;
        let (dn, zero) = guarded_step(z, n0 - 1, p, dnm1);
        if zero {
            dmin = dn;
            emin = 0.0;
        }
        dmin = nan_min(dmin, dn);
        z[qx(n0, o)] = dn;
        z[ex(n0, o)] = emin;
        (self.dn, self.dn1, self.dn2, self.dmin) = (dn, dnm1, dnm2, dmin);
    }
}

/// dlasq4's estimate (cases 4 and 5) of the contribution to the norm
/// squared from elements `top` down to `i0`: adds to `a2` a running product
/// of e/q ratios that starts from `b2`, stopping once its terms are
/// negligible or `a2` passes `CNST1`; `None` where an e exceeds its q.
fn norm_tail(z: &[f64], p: usize, i0: usize, top: usize, mut a2: f64, mut b2: f64) -> Option<f64> {
    for i in (i0..=top).rev() {
        if b2 == 0.0 {
            break;
        }
        let b1 = b2;
        let (q, e) = (z[qx(i, p)], z[ex(i, p)]);
        if e > q {
            return None;
        }
        b2 *= e / q;
        a2 += b2;
        if 100.0 * b2.max(b1) < a2 || CNST1 < a2 {
            break;
        }
    }
    Some(a2)
}

/// One step of dlasq6 at element `i`: writes q̂ and ê into the pair other
/// than `p` and returns the next d, and whether q̂ was zero.
#[inline]
fn guarded_step(z: &mut [f64], i: usize, p: usize, d: f64) -> (f64, bool) {
    let o = 1 - p;
    let qq = d + z[ex(i, p)];
    z[qx(i, o)] = qq;
    let next = z[qx(i + 1, p)];
    if qq == 0.0 {
        z[ex(i, o)] = 0.0;
        (next, true)
    } else if SAFMIN * next < qq && SAFMIN * qq < next {
        let temp = next / qq;
        z[ex(i, o)] = z[ex(i, p)] * temp;
        (d * temp, false)
    } else {
        z[ex(i, o)] = next * (z[ex(i, p)] / qq);
        (next * (d / qq), false)
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
        let s = svd_with(&m, SvdAlgorithm::Auto).unwrap();
        let (s1, s2) = det2_sigma(a, b, c, d);
        assert!((s.singular_values[0] - s1).abs() < 1e-10);
        assert!((s.singular_values[1] - s2).abs() < 1e-10);
        assert_valid_svd(&m, &s, 1e-10);
    }

    #[test]
    fn diagonal_matrix_exact() {
        let m = Matrix::from_diag(&[5.0, 1.0, 3.0]);
        for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::Auto] {
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
        for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::Auto] {
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
            let sg = svd_with(&a, SvdAlgorithm::Auto).unwrap();
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
            for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::Auto] {
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
    fn auto_spectrum_within_1e13_of_full_kernel() {
        // The values-only kernel runs dqds where the full kernel runs the QR
        // loop, and lands within 1e-13·σ₁ of it.
        let mut ws = Workspace::new();
        for (m, n) in [(4, 4), (8, 4), (3, 8), (12, 5), (64, 64), (80, 70)] {
            let a = Matrix::from_fn(m, n, |i, j| {
                0.1 + ((i * 131 + j * 31 + 7) % 97) as f64 / 97.0
            });
            let (full, _) =
                svd_with_stats_budgeted_in(a.view(), SvdAlgorithm::Auto, None, &mut ws).unwrap();
            let (sigma, _) = spectrum_in(a.view(), SvdAlgorithm::Auto, None, &mut ws).unwrap();
            let tol = 1e-13 * full.singular_values[0];
            for (x, y) in sigma.iter().zip(&full.singular_values) {
                assert!((x - y).abs() <= tol, "{m}x{n}: σ {x} vs full kernel {y}");
            }
            ws.recycle_vec(sigma);
            full.recycle(&mut ws);
        }
    }

    #[test]
    fn out_of_range_magnitudes_scale_exactly() {
        // Scaling by a power of two commutes with every rounding in both
        // algorithms, so a matrix pushed outside the safe range decomposes to
        // exactly 2^k times the spectrum of the original, with the same
        // factors; the values-only kernel likewise gives 2^k times its own σ.
        let a = Matrix::from_fn(7, 5, |i, j| 0.2 + ((i * 17 + j * 5) % 31) as f64 / 31.0);
        for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::Auto] {
            let base = svd_with(&a, alg).unwrap();
            let (values, _) = spectrum_in(a.view(), alg, None, &mut Workspace::new()).unwrap();
            for k in [-700, -230, 230, 700] {
                let f = 2f64.powi(k);
                let s = svd_with(&a.scaled(f), alg).unwrap();
                let want: Vec<f64> = base.singular_values.iter().map(|x| x * f).collect();
                assert_eq!(s.singular_values, want, "{alg:?} at 2^{k}");
                assert_eq!(s.u, base.u, "{alg:?} at 2^{k}");
                assert_eq!(s.v, base.v, "{alg:?} at 2^{k}");
                let (sigma, _) =
                    spectrum_in(a.scaled(f).view(), alg, None, &mut Workspace::new()).unwrap();
                let want: Vec<f64> = values.iter().map(|x| x * f).collect();
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
        for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::Auto] {
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
        for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::Auto] {
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
        for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::Auto] {
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
        for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::Auto] {
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
        let mut ws = Workspace::new();
        let generous = Budget::with_deadline(std::time::Duration::from_secs(600));
        // 9×6 runs the bidiagonalization alone; 40×12 takes QR first.
        for (m, n) in [(9, 6), (40, 12)] {
            let a = Matrix::from_fn(m, n, |i, j| 0.2 + ((i * 17 + j * 5) % 31) as f64 / 31.0);
            for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::Auto] {
                let (plain, _) = svd_with_stats_budgeted_in(a.view(), alg, None, &mut ws).unwrap();
                let (budgeted, _) =
                    svd_with_stats_budgeted_in(a.view(), alg, Some(&generous), &mut ws).unwrap();
                assert_eq!(
                    plain.singular_values, budgeted.singular_values,
                    "{m}x{n} {alg:?}"
                );
                assert_eq!(plain.u, budgeted.u);
                assert_eq!(plain.v, budgeted.v);
                let (values, iters) = spectrum_in(a.view(), alg, None, &mut ws).unwrap();
                let (sigma, budgeted_iters) =
                    spectrum_in(a.view(), alg, Some(&generous), &mut ws).unwrap();
                assert_eq!(sigma, values, "{m}x{n} {alg:?} values only");
                assert_eq!(budgeted_iters, iters, "{m}x{n} {alg:?} values only");
                ws.recycle_vec(values);
                ws.recycle_vec(sigma);
                plain.recycle(&mut ws);
                budgeted.recycle(&mut ws);
            }
        }
    }

    #[test]
    fn expired_budget_returns_deadline_exceeded() {
        use crate::budget::Budget;
        // Golub–Reinsch polls before reducing its first column, so an expired
        // budget stops it before any O(n³) work: on 64² in the
        // bidiagonalization, on 96×40 in the QR stage in front of it.
        let mut ws = Workspace::new();
        let expired = Budget::with_deadline(std::time::Duration::ZERO);
        for (m, n) in [(64, 64), (96, 40)] {
            let a = Matrix::from_fn(m, n, |i, j| 0.2 + ((i * 17 + j * 5) % 31) as f64 / 31.0);
            for (alg, want) in [
                (SvdAlgorithm::Jacobi, "jacobi-svd"),
                (SvdAlgorithm::Auto, "golub-reinsch-bidiag"),
            ] {
                let full = svd_with_stats_budgeted_in(a.view(), alg, Some(&expired), &mut ws);
                let values = spectrum_in(a.view(), alg, Some(&expired), &mut ws);
                for got in [full.map(|(s, _)| s.singular_values), values.map(|(s, _)| s)] {
                    match got {
                        Err(LinAlgError::DeadlineExceeded {
                            op, iterations: 0, ..
                        }) if op == want => {}
                        other => panic!(
                            "{m}x{n} {alg:?}: expected DeadlineExceeded from {want}, got {other:?}"
                        ),
                    }
                }
            }
        }
    }

    /// The dqds kernel on the bidiagonal `(d, e)`, sorted as the dispatch
    /// sorts it.
    fn dqds_sigma(d: &[f64], e: &[f64], budget: Option<&Budget>) -> Result<(Vec<f64>, usize)> {
        let mut ws = Workspace::new();
        let mut sigma = d.to_vec();
        let iterations = dqds_in(&mut sigma, e, budget, &mut ws)?;
        let run = finalize_in(sigma, None, "dqds", iterations, &mut ws)?;
        Ok((run.sigma, run.iterations))
    }

    /// The upper-bidiagonal matrix with diagonal `d` and superdiagonal `e`.
    fn bidiagonal(d: &[f64], e: &[f64]) -> Matrix {
        Matrix::from_fn(d.len(), d.len(), |i, j| match j.wrapping_sub(i) {
            0 => d[i],
            1 => e[i],
            _ => 0.0,
        })
    }

    /// dqds against one-sided Jacobi on the same bidiagonal: every σ within
    /// 1e-13·σ₁, and Σσ² = ‖B‖²_F.
    fn assert_dqds_matches_jacobi(d: &[f64], e: &[f64]) -> Vec<f64> {
        let (sigma, _) = dqds_sigma(d, e, None).unwrap();
        let want = svd_with(&bidiagonal(d, e), SvdAlgorithm::Jacobi)
            .unwrap()
            .singular_values;
        for (x, y) in sigma.iter().zip(&want) {
            assert!(
                (x - y).abs() <= 1e-13 * want[0],
                "{d:?} {e:?}: σ {sigma:?} vs {want:?}"
            );
        }
        let ssq: f64 = sigma.iter().map(|s| s * s).sum();
        let f2: f64 = d.iter().chain(e).map(|x| x * x).sum();
        assert!(
            (ssq - f2).abs() <= 1e-14 * f2,
            "{d:?} {e:?}: Σσ² {ssq} vs {f2}"
        );
        sigma
    }

    #[test]
    fn dqds_small_cases_match_closed_forms() {
        assert_eq!(dqds_sigma(&[-3.0], &[], None).unwrap(), (vec![3.0], 0));
        for (d0, e0, d1) in [
            (2.0, 0.5, 1.5),
            (-1.0, 3.0, 0.25),
            (1e-3, -1.0, 1e3),
            (0.0, 2.0, 5.0),
            (4.0, 0.0, -7.0),
            (1.0, 1e-30, 1.0),
        ] {
            let (sigma, iterations) = dqds_sigma(&[d0, d1], &[e0], None).unwrap();
            assert_eq!(iterations, 0);
            let (s1, s2) = det2_sigma(d0, e0, 0.0, d1);
            assert!((sigma[0] - s1).abs() <= 1e-14 * s1, "{sigma:?} vs {s1}");
            // The closed form loses σ₂ to cancellation in `q1 − q2` (to
            // ~1e-11·σ₁ at the 1e-3/1e3 grading), so σ₂ is pinned instead
            // by σ₁σ₂ = |det B|.
            assert!((sigma[1] - s2).abs() <= 1e-10 * s1, "{sigma:?} vs {s2}");
            let det = (d0 * d1).abs();
            assert!(
                (sigma[0] * sigma[1] - det).abs() <= 1e-14 * det,
                "{sigma:?}"
            );
        }
        let d = [3.0, -0.5, 2.0];
        let e = [1.25, -0.75];
        let sigma = assert_dqds_matches_jacobi(&d, &e);
        let det = (d[0] * d[1] * d[2]).abs();
        let product: f64 = sigma.iter().product();
        assert!((product - det).abs() <= 1e-14 * det, "{product} vs {det}");
        assert!(dqds_sigma(&d, &e, None).unwrap().1 > 0);
    }

    #[test]
    fn dqds_diagonal_input_needs_no_transform() {
        let (sigma, iterations) =
            dqds_sigma(&[3.0, -1.0, 0.5, -7.0, 2.0], &[0.0; 4], None).unwrap();
        assert_eq!(sigma, vec![7.0, 3.0, 2.0, 1.0, 0.5]);
        assert_eq!(iterations, 0);
    }

    #[test]
    fn dqds_zero_diagonal_entry_gives_zero_sigma() {
        for d in [
            [1.0, 0.0, 2.0, 3.0, 0.5],
            [0.0, 1.0, 2.0, 3.0, 0.5],
            [1.0, 2.0, 3.0, 0.5, 0.0],
        ] {
            let e = [0.5, 0.7, -0.2, 0.9];
            let sigma = assert_dqds_matches_jacobi(&d, &e);
            assert!(sigma[4] <= 1e-15 * sigma[0], "{d:?}: {sigma:?}");
        }
    }

    #[test]
    fn dqds_expired_budget_stops_before_the_first_transform() {
        // The public path polls in the reduction first, so only a direct call
        // reaches this poll.
        let expired = Budget::with_deadline(std::time::Duration::ZERO);
        let got = dqds_sigma(&[1.0, 2.0, 3.0, 4.0], &[0.5, 0.5, 0.5], Some(&expired));
        assert!(
            matches!(
                got,
                Err(LinAlgError::DeadlineExceeded {
                    op: "dqds",
                    iterations: 0,
                    ..
                })
            ),
            "{got:?}"
        );
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
