//! Standard-form computation and the TMA measure.
//!
//! To keep TMA independent of MPH and TDH, the singular values are computed from
//! the **standard ECS matrix**: the rescaling `D₁·ECS·D₂` with every row summing
//! to `√(M/T)` and every column to `√(T/M)` (Theorem 1 with `k = 1/√(TM)`). By
//! Theorem 2 the largest singular value of that matrix is exactly 1, with singular
//! vectors `𝟙/√T` and `𝟙/√M`, so Eq. 5 simplifies to Eq. 8:
//!
//! ```text
//! TMA = ( Σ_{i=2}^{min(T,M)} σᵢ ) / (min(T,M) − 1)
//! ```
//!
//! For matrices with zeros the standard form may not exist (Sec. VI); the
//! [`ZeroPolicy`] controls whether that is an error, a best-effort limit balance,
//! or an ε-regularized computation (the paper's future-work extension).

use crate::ecs::Ecs;
use crate::error::MeasureError;
use crate::weights::Weights;
use hc_linalg::svd::{spectrum_in, SvdAlgorithm};
use hc_linalg::{Budget, Matrix, Workspace};
use hc_sinkhorn::balance::{standardize_in, BalanceOptions, BalanceOutcome};
use hc_sinkhorn::regularized::regularized_standard_form_in;
use hc_sinkhorn::structure::{analyze_structure, total_support_core, Balanceability};

/// How to treat ECS matrices containing zeros when computing the standard form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ZeroPolicy {
    /// Refuse with [`MeasureError::NotBalanceable`] when the zero pattern admits no
    /// exact standard form.
    Strict,
    /// Run the iteration anyway and accept its limit if it converges within the
    /// budget (entries off the total-support pattern decay toward zero — the
    /// behaviour the paper observes for its Fig. 4 matrices A, B, D, which all
    /// converge to the standard form of C).
    Limit,
    /// Replace zeros by `ε × max_entry` and balance the positive matrix (paper's
    /// future-work extension; see `hc_sinkhorn::regularized`).
    Regularize {
        /// Relative regularization strength.
        epsilon: f64,
    },
}

impl ZeroPolicy {
    /// Parses the user-facing spelling shared by the CLI and the HTTP server:
    /// `strict`, `limit`, or `reg=<eps>`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "strict" => Ok(ZeroPolicy::Strict),
            "limit" => Ok(ZeroPolicy::Limit),
            other => match other.strip_prefix("reg=") {
                Some(eps) => Ok(ZeroPolicy::Regularize {
                    epsilon: eps
                        .parse()
                        .map_err(|_| format!("zero-policy reg=<eps>: bad epsilon {eps:?}"))?,
                }),
                None => Err(format!(
                    "zero-policy must be strict, limit, or reg=<eps>; got {other:?}"
                )),
            },
        }
    }
}

/// Options for standard-form and TMA computation.
#[derive(Debug, Clone)]
pub struct TmaOptions {
    /// Balancing controls (tolerance, iteration budget, stall detection,
    /// residual history).
    pub balance: BalanceOptions,
    /// Zero-pattern handling.
    pub zero_policy: ZeroPolicy,
    /// SVD algorithm.
    pub svd: SvdAlgorithm,
    /// Weights applied entrywise before standardization (`w_t[i]·w_m[j]·ECS(i,j)`).
    pub weights: Option<Weights>,
}

impl Default for TmaOptions {
    fn default() -> Self {
        TmaOptions {
            balance: BalanceOptions {
                // Positive matrices converge in a handful of sweeps; zero patterns
                // with only a limit form need a large budget (sublinear decay).
                max_iters: 100_000,
                ..BalanceOptions::default()
            },
            zero_policy: ZeroPolicy::Limit,
            svd: SvdAlgorithm::Auto,
            weights: None,
        }
    }
}

/// A computed standard form with its balancing diagnostics.
#[derive(Debug, Clone)]
pub struct StandardForm {
    /// The balanced matrix (rows `√(M/T)`, columns `√(T/M)`).
    pub matrix: Matrix,
    /// Iterations the balancing took (paper counting: column + row sweep = 1).
    pub iterations: usize,
    /// Final marginal residual.
    pub residual: f64,
    /// `true` when the computation went through ε-regularization.
    pub regularized: bool,
    /// `true` when the zero pattern admitted only a limit form and the computation
    /// balanced the total-support core instead (entries off every positive
    /// diagonal set to their limit value 0 — how the paper's Fig. 4 matrices
    /// A, B, D reach the standard form of C).
    pub reduced_to_core: bool,
}

/// Computes the standard ECS matrix (Theorem 1 with `k = 1/√(TM)`).
pub fn standard_form(ecs: &Ecs, opts: &TmaOptions) -> Result<StandardForm, MeasureError> {
    let mut ws = Workspace::new();
    standard_form_in(ecs, opts, &mut ws)
}

/// [`standard_form`] in a caller-supplied workspace.
///
/// The unweighted case borrows the ECS matrix directly (no effective-matrix
/// clone); the weighted case builds the effective matrix in pooled scratch. The
/// returned form's matrix is pooled-origin — hand it back via
/// [`StandardForm::recycle`] when finished.
pub fn standard_form_in(
    ecs: &Ecs,
    opts: &TmaOptions,
    ws: &mut Workspace,
) -> Result<StandardForm, MeasureError> {
    standard_form_budgeted_in(ecs, opts, None, ws)
}

/// The standard-form kernel behind [`standard_form_in`], with a cooperative
/// cancellation [`Budget`] threaded into the balancing iteration. Expiry
/// surfaces as [`MeasureError::DeadlineExceeded`] with partial-progress
/// diagnostics; `None` polls nothing.
pub(crate) fn standard_form_budgeted_in(
    ecs: &Ecs,
    opts: &TmaOptions,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<StandardForm, MeasureError> {
    let weighted = match &opts.weights {
        None => None,
        Some(w) => {
            w.check(ecs)?;
            let raw = ecs.matrix();
            let (t, mm) = raw.shape();
            let mut eff = ws.take_matrix(t, mm, 0.0);
            for i in 0..t {
                let wt = w.task()[i];
                for (j, (d, &v)) in eff.row_mut(i).iter_mut().zip(raw.row(i)).enumerate() {
                    *d = wt * w.machine()[j] * v;
                }
            }
            Some(eff)
        }
    };
    let m = weighted.as_ref().unwrap_or(ecs.matrix());
    let result = standard_form_of(m, opts, budget, ws);
    if let Some(eff) = weighted {
        ws.recycle_matrix(eff);
    }
    result
}

fn standard_form_of(
    m: &Matrix,
    opts: &TmaOptions,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<StandardForm, MeasureError> {
    let positive = m.is_positive();
    let mut reduced_to_core = false;
    let mut core_holder: Option<Matrix> = None;

    if !positive {
        match opts.zero_policy {
            ZeroPolicy::Strict => {
                let rep = analyze_structure(m);
                match rep.balanceability {
                    Balanceability::Positive | Balanceability::ExactlyBalanceable => {}
                    Balanceability::LimitOnly => {
                        return Err(MeasureError::NotBalanceable {
                            detail: "zero pattern has support but not total support; \
                                     only a limit form exists (paper Sec. VI)"
                                .into(),
                        })
                    }
                    Balanceability::NotBalanceable => {
                        return Err(MeasureError::NotBalanceable {
                            detail: "zero pattern has no support (no positive diagonal)".into(),
                        })
                    }
                }
            }
            ZeroPolicy::Limit => {
                // The Sinkhorn–Knopp matrix limit zeroes every entry off all
                // positive diagonals; balancing that core directly converges
                // geometrically instead of the sublinear direct iteration.
                match total_support_core(m) {
                    None => {
                        return Err(MeasureError::NotBalanceable {
                            detail: "zero pattern has no support; the iteration \
                                     oscillates and no limit form exists"
                                .into(),
                        })
                    }
                    Some(core) => {
                        if core != *m {
                            reduced_to_core = true;
                            core_holder = Some(core);
                        }
                    }
                }
            }
            ZeroPolicy::Regularize { epsilon } => {
                let out =
                    regularized_standard_form_in(m.view(), epsilon, &opts.balance, budget, ws)?;
                if !out.is_converged() {
                    return Err(MeasureError::BalanceDidNotConverge {
                        residual: out.residual,
                        iterations: out.iterations,
                    });
                }
                return Ok(finish(out, true, false, ws));
            }
        }
    }

    let working = core_holder.as_ref().unwrap_or(m);
    let out = standardize_in(working.view(), None, &opts.balance, budget, ws)?;
    if !out.is_converged() {
        return Err(MeasureError::BalanceDidNotConverge {
            residual: out.residual,
            iterations: out.iterations,
        });
    }
    // Theorem 2 invariant: σ₁ of the standard form is 1. Checked in debug builds.
    #[cfg(debug_assertions)]
    {
        if let Ok((sigma, _)) = spectrum_in(out.matrix.view(), SvdAlgorithm::Auto, None, ws) {
            debug_assert!(
                (sigma[0] - 1.0).abs() < 1e-4,
                "Theorem 2 violated: sigma_1 = {}",
                sigma[0]
            );
            ws.recycle_vec(sigma);
        }
    }
    Ok(finish(out, false, reduced_to_core, ws))
}

/// Converts a balance outcome into a [`StandardForm`], recycling the buffers
/// the form does not keep.
fn finish(
    out: BalanceOutcome,
    regularized: bool,
    reduced_to_core: bool,
    ws: &mut Workspace,
) -> StandardForm {
    let BalanceOutcome {
        matrix,
        row_scale,
        col_scale,
        iterations,
        residual,
        history,
        ..
    } = out;
    ws.recycle_vec(row_scale);
    ws.recycle_vec(col_scale);
    ws.recycle_vec(history);
    StandardForm {
        matrix,
        iterations,
        residual,
        regularized,
        reduced_to_core,
    }
}

impl StandardForm {
    /// Returns the standard-form matrix buffer to `ws` for reuse.
    pub fn recycle(self, ws: &mut Workspace) {
        ws.recycle_matrix(self.matrix);
    }
}

/// Eq. 8 on the spectrum of a standard form (descending, σ₁ = 1 by
/// Theorem 2): the mean of σ₂…σₖ, clamped to `[0, 1]`. A 1×M or T×1
/// environment (`k ≤ 1`) has no affinity structure and scores 0.
///
/// ```
/// use hc_core::standard::tma_of_spectrum;
///
/// assert_eq!(tma_of_spectrum(&[1.0, 0.5, 0.25]), 0.375);
/// assert_eq!(tma_of_spectrum(&[1.0]), 0.0);
/// ```
pub fn tma_of_spectrum(sigma: &[f64]) -> f64 {
    let k = sigma.len();
    if k <= 1 {
        return 0.0;
    }
    let sum: f64 = sigma[1..].iter().sum();
    (sum / (k - 1) as f64).clamp(0.0, 1.0)
}

/// TMA from an already-computed standard form (Eq. 8), with the values-only
/// SVD run in `ws` under `budget`.
pub(crate) fn tma_from_standard_form(
    sf: &StandardForm,
    alg: SvdAlgorithm,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<f64, MeasureError> {
    let (sigma, _) = spectrum_in(sf.matrix.view(), alg, budget, ws)?;
    let tma = tma_of_spectrum(&sigma);
    ws.recycle_vec(sigma);
    Ok(tma)
}

/// Task-machine affinity (Eq. 8 on the standard form) with explicit options.
pub fn tma_with(ecs: &Ecs, opts: &TmaOptions) -> Result<f64, MeasureError> {
    let mut ws = Workspace::new();
    let sf = standard_form_in(ecs, opts, &mut ws)?;
    tma_from_standard_form(&sf, opts.svd, None, &mut ws)
}

/// Task-machine affinity with default options (limit policy for zeros).
///
/// ```
/// use hc_core::ecs::Ecs;
/// use hc_core::standard::tma;
///
/// // Perfect specialization (the paper's Fig. 4 matrix C): TMA = 1.
/// let specialized = Ecs::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
/// assert!((tma(&specialized).unwrap() - 1.0).abs() < 1e-7);
/// ```
pub fn tma(ecs: &Ecs) -> Result<f64, MeasureError> {
    tma_with(ecs, &TmaOptions::default())
}

/// The earlier, column-normalized TMA of Eq. 5 (from the authors' HCW 2010 paper,
/// reference \[2\]): normalize each column to sum 1, then
/// `TMA = Σ_{i≥2} σᵢ / ((min(T,M) − 1) · σ₁)`.
///
/// Kept for cross-validation: on matrices whose row sums are already equal the
/// two definitions agree; in general Eq. 5 is *not* independent of TDH, which is
/// precisely why the paper introduces the standard form.
pub fn tma_eq5_column_normalized(ecs: &Ecs) -> Result<f64, MeasureError> {
    let m = ecs.matrix();
    let mut w = m.clone();
    for (j, s) in m.col_sums().iter().enumerate() {
        // Ecs validation guarantees s > 0.
        w.scale_col(j, 1.0 / s);
    }
    let (sigma, _) = spectrum_in(w.view(), SvdAlgorithm::Auto, None, &mut Workspace::new())?;
    let k = sigma.len();
    if k <= 1 {
        return Ok(0.0);
    }
    let s1 = sigma[0];
    if s1 == 0.0 {
        return Ok(0.0);
    }
    let sum: f64 = sigma[1..].iter().sum();
    Ok((sum / ((k - 1) as f64 * s1)).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_linalg::svd::svd_with;
    use hc_sinkhorn::balance::standard_targets;

    fn ecs(rows: &[&[f64]]) -> Ecs {
        Ecs::from_rows(rows).unwrap()
    }

    #[test]
    fn theorem2_sigma1_is_one() {
        let e = ecs(&[
            &[1.0, 2.0, 3.0],
            &[4.0, 5.0, 6.0],
            &[7.0, 8.0, 10.0],
            &[2.0, 9.0, 1.0],
        ]);
        let sf = standard_form(&e, &TmaOptions::default()).unwrap();
        let s = svd_with(&sf.matrix, SvdAlgorithm::Jacobi).unwrap();
        assert!((s.singular_values[0] - 1.0).abs() < 1e-6);
        // Singular vectors are the normalized ones-vectors (Theorem B).
        let t = e.num_tasks() as f64;
        let m = e.num_machines() as f64;
        for i in 0..e.num_tasks() {
            assert!((s.u[(i, 0)].abs() - 1.0 / t.sqrt()).abs() < 1e-5);
        }
        for j in 0..e.num_machines() {
            assert!((s.v[(j, 0)].abs() - 1.0 / m.sqrt()).abs() < 1e-5);
        }
    }

    #[test]
    fn standard_form_marginals() {
        let e = ecs(&[&[1.0, 9.0], &[4.0, 2.0], &[3.0, 7.0]]);
        let sf = standard_form(&e, &TmaOptions::default()).unwrap();
        let (rt, ct) = standard_targets(3, 2);
        for (s, t) in sf.matrix.row_sums().iter().zip(&rt) {
            assert!((s - t).abs() < 1e-7);
        }
        for (s, t) in sf.matrix.col_sums().iter().zip(&ct) {
            assert!((s - t).abs() < 1e-7);
        }
        assert!(!sf.regularized);
    }

    #[test]
    fn rank_one_has_zero_tma() {
        // Proportional columns: no affinity.
        let e = ecs(&[&[1.0, 2.0, 4.0], &[2.0, 4.0, 8.0], &[0.5, 1.0, 2.0]]);
        let v = tma(&e).unwrap();
        assert!(v.abs() < 1e-7, "TMA = {v}");
    }

    #[test]
    fn identity_has_full_tma() {
        // Perfect specialization: TMA = 1 (paper Fig. 4 matrix C).
        let e = ecs(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let v = tma(&e).unwrap();
        assert!((v - 1.0).abs() < 1e-7, "TMA = {v}");
    }

    #[test]
    fn tma_scale_invariance() {
        let base = ecs(&[&[1.0, 5.0, 2.0], &[3.0, 1.0, 4.0], &[2.0, 2.0, 9.0]]);
        let scaled = Ecs::new(base.matrix().scaled(60.0)).unwrap();
        let a = tma(&base).unwrap();
        let b = tma(&scaled).unwrap();
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn tma_invariant_under_row_col_scaling() {
        // The independence property: TMA is unchanged by any diagonal rescaling,
        // i.e., by anything that changes MPH/TDH.
        let base = ecs(&[&[1.0, 5.0, 2.0], &[3.0, 1.0, 4.0], &[2.0, 2.0, 9.0]]);
        let mut m = base.matrix().clone();
        m.scale_row(0, 13.0);
        m.scale_row(2, 0.01);
        m.scale_col(1, 700.0);
        let rescaled = Ecs::new(m).unwrap();
        let a = tma(&base).unwrap();
        let b = tma(&rescaled).unwrap();
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn tma_range() {
        let e = ecs(&[&[3.0, 1.0, 0.5], &[1.0, 4.0, 2.0], &[0.5, 2.0, 5.0]]);
        let v = tma(&e).unwrap();
        assert!((0.0..=1.0).contains(&v));
        assert!(v > 0.0, "non-proportional columns must have positive TMA");
    }

    #[test]
    fn single_row_or_column_tma_zero() {
        assert_eq!(tma(&ecs(&[&[1.0, 2.0, 3.0]])).unwrap(), 0.0);
        assert_eq!(tma(&ecs(&[&[1.0], &[2.0]])).unwrap(), 0.0);
    }

    #[test]
    fn strict_policy_rejects_limit_only_patterns() {
        // Triangular pattern: support, no total support.
        let e = ecs(&[&[1.0, 0.0], &[1.0, 1.0]]);
        let opts = TmaOptions {
            zero_policy: ZeroPolicy::Strict,
            ..Default::default()
        };
        assert!(matches!(
            tma_with(&e, &opts),
            Err(MeasureError::NotBalanceable { .. })
        ));
    }

    #[test]
    fn strict_policy_accepts_total_support_patterns() {
        // Anti-diagonal: total support, balanceable, TMA = 1.
        let e = ecs(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let opts = TmaOptions {
            zero_policy: ZeroPolicy::Strict,
            ..Default::default()
        };
        let v = tma_with(&e, &opts).unwrap();
        assert!((v - 1.0).abs() < 1e-7);
    }

    #[test]
    fn regularize_policy_close_to_exact_on_balanceable_input() {
        let e = ecs(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let opts = TmaOptions {
            zero_policy: ZeroPolicy::Regularize { epsilon: 1e-9 },
            balance: BalanceOptions {
                max_iters: 2_000_000,
                tol: 1e-7,
                stall_window: usize::MAX,
                ..Default::default()
            },
            ..Default::default()
        };
        let v = tma_with(&e, &opts).unwrap();
        assert!(v > 0.99, "regularized TMA = {v}");
    }

    #[test]
    fn weighted_tma_differs() {
        let e = ecs(&[&[3.0, 1.0], &[1.0, 4.0]]);
        let unweighted = tma(&e).unwrap();
        // Heavily weighting one task cannot change TMA: weights act as a diagonal
        // scaling, and TMA is diagonal-scaling invariant!
        let w = Weights::new(vec![10.0, 1.0], vec![1.0, 2.0]).unwrap();
        let opts = TmaOptions {
            weights: Some(w),
            ..Default::default()
        };
        let weighted = tma_with(&e, &opts).unwrap();
        assert!(
            (unweighted - weighted).abs() < 1e-7,
            "TMA must be invariant under diagonal weighting: {unweighted} vs {weighted}"
        );
    }

    #[test]
    fn eq5_agrees_with_eq8_when_row_sums_equal() {
        // Symmetric circulant: row sums equal, so Eq. 5 (column-normalized) and
        // Eq. 8 (standard form) coincide.
        let e = ecs(&[&[3.0, 1.0, 2.0], &[2.0, 3.0, 1.0], &[1.0, 2.0, 3.0]]);
        let a = tma(&e).unwrap();
        let b = tma_eq5_column_normalized(&e).unwrap();
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn eq5_depends_on_task_difficulty_but_eq8_does_not() {
        // Scale one task's row: Eq. 8 TMA is invariant; Eq. 5 moves. This is the
        // paper's motivation for the standard form.
        let base = ecs(&[&[3.0, 1.0, 0.5], &[1.0, 4.0, 2.0], &[0.5, 2.0, 5.0]]);
        let mut m = base.matrix().clone();
        m.scale_row(0, 50.0);
        let scaled = Ecs::new(m).unwrap();
        let eq8_delta = (tma(&base).unwrap() - tma(&scaled).unwrap()).abs();
        let eq5_delta = (tma_eq5_column_normalized(&base).unwrap()
            - tma_eq5_column_normalized(&scaled).unwrap())
        .abs();
        assert!(eq8_delta < 1e-6);
        assert!(eq5_delta > 1e-3, "Eq. 5 should move: delta = {eq5_delta}");
    }

    #[test]
    fn workspace_kernel_matches_owned_path_bitwise() {
        let cases = [
            ecs(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 10.0]]),
            ecs(&[&[1.0, 0.0], &[1.0, 1.0]]), // limit-only: reduced to core
            ecs(&[&[0.0, 1.0], &[1.0, 0.0]]), // zeros with total support
        ];
        let mut ws = Workspace::new();
        for e in &cases {
            let owned = standard_form(e, &TmaOptions::default()).unwrap();
            let pooled = standard_form_in(e, &TmaOptions::default(), &mut ws).unwrap();
            assert_eq!(pooled.matrix, owned.matrix);
            assert_eq!(pooled.iterations, owned.iterations);
            assert_eq!(pooled.residual.to_bits(), owned.residual.to_bits());
            assert_eq!(pooled.reduced_to_core, owned.reduced_to_core);
            let t_owned =
                tma_from_standard_form(&owned, SvdAlgorithm::Auto, None, &mut Workspace::new())
                    .unwrap();
            let t_pooled =
                tma_from_standard_form(&pooled, SvdAlgorithm::Auto, None, &mut ws).unwrap();
            assert_eq!(t_owned.to_bits(), t_pooled.to_bits());
            pooled.recycle(&mut ws);
        }
    }

    fn tma_pooled(ecs: &Ecs, opts: &TmaOptions, ws: &mut Workspace) -> Result<f64, MeasureError> {
        let sf = standard_form_in(ecs, opts, ws)?;
        let tma = tma_from_standard_form(&sf, opts.svd, None, ws);
        sf.recycle(ws);
        tma
    }

    #[test]
    fn warm_workspace_tma_is_allocation_free() {
        let e = ecs(&[&[1.0, 5.0, 2.0], &[3.0, 1.0, 4.0], &[2.0, 2.0, 9.0]]);
        let mut ws = Workspace::new();
        let opts = TmaOptions::default();
        let cold = tma_pooled(&e, &opts, &mut ws).unwrap();
        ws.reset_stats();
        let warm = tma_pooled(&e, &opts, &mut ws).unwrap();
        assert_eq!(cold.to_bits(), warm.to_bits());
        assert_eq!(ws.stats().fresh, 0, "stats: {:?}", ws.stats());
    }

    #[test]
    fn fig3_style_matrices() {
        // (a) proportional columns, MPH = 1, TMA = 0.
        let a = ecs(&[&[4.0, 4.0, 4.0], &[2.0, 2.0, 2.0], &[6.0, 6.0, 6.0]]);
        assert!((crate::measures::mph(&a).unwrap() - 1.0).abs() < 1e-12);
        assert!(tma(&a).unwrap() < 1e-7);
        // (b) equal column sums but permuted structure: MPH = 1, TMA > 0.
        let b = ecs(&[&[6.0, 2.0, 4.0], &[2.0, 4.0, 6.0], &[4.0, 6.0, 2.0]]);
        assert!((crate::measures::mph(&b).unwrap() - 1.0).abs() < 1e-12);
        assert!(tma(&b).unwrap() > 0.1);
    }
}
