//! ε-regularized balancing — the paper's stated future work.
//!
//! Section VI ends with: *"In future work, we will investigate evaluating the TMA
//! for ECS matrices that cannot be row and column normalized."* The natural device
//! is regularization: replace every zero entry with a small positive `ε` (relative
//! to the matrix scale), balance the now-positive matrix exactly (Theorem 1 always
//! applies), and study the limit `ε → 0⁺`.
//!
//! [`regularized_standard_form_in`] performs one such balance; [`epsilon_sweep`]
//! runs a geometric sweep of ε values and reports how the balanced matrix and its
//! residual behave, making the (non-)existence of a limit empirically visible:
//! patterns with total support converge to the exact balanced form, patterns
//! without it show entries collapsing toward zero at a rate proportional to ε.

use crate::balance::{standardize_in, BalanceOptions, BalanceOutcome};
use hc_linalg::{Budget, LinAlgError, MatRef, Matrix, Workspace};

/// Replaces zero entries with `epsilon × max_entry`.
pub fn regularize(m: &Matrix, epsilon: f64) -> Matrix {
    let scale = m.max().unwrap_or(0.0).max(f64::MIN_POSITIVE);
    let floor = epsilon * scale;
    m.map(|v| if v == 0.0 { floor } else { v })
}

/// Balances the ε-regularized matrix to the paper's standard-form targets.
///
/// The regularized copy and all balancing scratch come from `ws`, so repeated
/// calls on the same shape allocate nothing; `budget` is polled once per
/// balancing iteration (see [`standardize_in`]).
pub fn regularized_standard_form_in(
    m: MatRef<'_>,
    epsilon: f64,
    opts: &BalanceOptions,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<BalanceOutcome, LinAlgError> {
    if !epsilon.is_finite() || epsilon <= 0.0 {
        return Err(LinAlgError::Singular {
            op: "regularized_standard_form (epsilon must be positive)",
        });
    }
    let (t, mm) = m.shape();
    let scale = m
        .row_iter()
        .flatten()
        .copied()
        .reduce(f64::max)
        .unwrap_or(0.0)
        .max(f64::MIN_POSITIVE);
    let floor = epsilon * scale;
    let mut reg = ws.take_matrix(t, mm, 0.0);
    for i in 0..t {
        for (d, &v) in reg.row_mut(i).iter_mut().zip(m.row(i)) {
            *d = if v == 0.0 { floor } else { v };
        }
    }
    let out = standardize_in(reg.view(), None, opts, budget, ws);
    ws.recycle_matrix(reg);
    out
}

/// One step of an ε sweep.
#[derive(Debug, Clone)]
pub struct EpsilonStep {
    /// The regularization strength used.
    pub epsilon: f64,
    /// Iterations the balance took.
    pub iterations: usize,
    /// Whether the balance converged.
    pub converged: bool,
    /// Largest entry of the balanced matrix at positions that were zero in the
    /// input (tends to 0 with ε exactly when the zeros are structural).
    pub max_at_zero_positions: f64,
    /// Max-abs difference of the balanced matrix from the previous step's
    /// (∞ for the first step). Small values indicate an ε-limit exists.
    pub delta_from_previous: f64,
}

/// Runs a geometric ε sweep (`eps0, eps0/ratio, …`, `steps` values) and reports the
/// trajectory of the regularized standard forms.
pub fn epsilon_sweep(
    m: &Matrix,
    eps0: f64,
    ratio: f64,
    steps: usize,
    opts: &BalanceOptions,
) -> Result<Vec<EpsilonStep>, LinAlgError> {
    if ratio <= 1.0 || ratio.is_nan() {
        return Err(LinAlgError::Singular {
            op: "epsilon_sweep (ratio must exceed 1)",
        });
    }
    let mut out = Vec::with_capacity(steps);
    let mut prev: Option<Matrix> = None;
    let mut eps = eps0;
    let mut ws = Workspace::new();
    for _ in 0..steps {
        let bal = regularized_standard_form_in(m.view(), eps, opts, None, &mut ws)?;
        let mut max_zero = 0.0_f64;
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                if m[(i, j)] == 0.0 {
                    max_zero = max_zero.max(bal.matrix[(i, j)]);
                }
            }
        }
        let delta = prev
            .as_ref()
            .map(|p| p.max_abs_diff(&bal.matrix))
            .unwrap_or(f64::INFINITY);
        out.push(EpsilonStep {
            epsilon: eps,
            iterations: bal.iterations,
            converged: bal.is_converged(),
            max_at_zero_positions: max_zero,
            delta_from_previous: delta,
        });
        prev = Some(bal.matrix);
        eps /= ratio;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::eq10_matrix;

    fn standardize_regularized(
        m: &Matrix,
        epsilon: f64,
        opts: &BalanceOptions,
    ) -> Result<BalanceOutcome, LinAlgError> {
        regularized_standard_form_in(m.view(), epsilon, opts, None, &mut Workspace::new())
    }

    #[test]
    fn regularize_fills_only_zeros() {
        let m = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]).unwrap();
        let r = regularize(&m, 1e-3);
        assert_eq!(r[(0, 0)], 2.0);
        assert_eq!(r[(1, 1)], 4.0);
        assert!((r[(0, 1)] - 4e-3).abs() < 1e-15);
        assert!(r.is_positive());
    }

    /// Balancing an ε-regularized matrix converges at rate ~(1 − O(ε)) per sweep,
    /// so the iteration budget must scale like 1/ε. The matrices involved are tiny,
    /// so a generous budget is cheap.
    fn generous(tol: f64) -> BalanceOptions {
        BalanceOptions {
            tol,
            max_iters: 2_000_000,
            stall_window: usize::MAX,
            ..Default::default()
        }
    }

    #[test]
    fn regularized_balance_always_converges() {
        // Even the paper's non-balanceable Eq. 10 matrix balances once regularized.
        let out = standardize_regularized(&eq10_matrix(), 1e-3, &generous(1e-8)).unwrap();
        assert!(out.is_converged(), "{:?}", out.status);
    }

    #[test]
    fn sweep_on_total_support_pattern_has_limit() {
        // Diagonal pattern: exact balance exists; the ε-limit is the identity
        // (scaled), so consecutive deltas shrink.
        let m = Matrix::from_diag(&[2.0, 5.0]);
        let steps = epsilon_sweep(&m, 1e-2, 10.0, 4, &generous(1e-7)).unwrap();
        assert!(steps.iter().all(|s| s.converged));
        // Entries at zero positions vanish with ε.
        assert!(steps.last().unwrap().max_at_zero_positions < steps[0].max_at_zero_positions);
        // The trajectory contracts.
        let deltas: Vec<f64> = steps[1..].iter().map(|s| s.delta_from_previous).collect();
        assert!(deltas.windows(2).all(|w| w[1] <= w[0] * 1.5), "{deltas:?}");
    }

    #[test]
    fn sweep_on_eq10_shows_decaying_zero_mass() {
        let steps = epsilon_sweep(&eq10_matrix(), 1e-2, 10.0, 3, &generous(1e-7)).unwrap();
        assert!(steps.iter().all(|s| s.converged));
        // Mass at the original zero positions decreases monotonically with ε.
        for w in steps.windows(2) {
            assert!(w[1].max_at_zero_positions <= w[0].max_at_zero_positions * 1.01);
        }
    }

    #[test]
    fn workspace_kernel_matches_owned_path_bitwise() {
        let m = eq10_matrix();
        let opts = generous(1e-8);
        let owned = standardize_regularized(&m, 1e-3, &opts).unwrap();
        let mut ws = Workspace::new();
        let pooled = regularized_standard_form_in(m.view(), 1e-3, &opts, None, &mut ws).unwrap();
        assert_eq!(pooled.matrix, owned.matrix);
        assert_eq!(pooled.iterations, owned.iterations);
        assert_eq!(pooled.status, owned.status);
        // Warm repeat draws everything from the pool.
        pooled.recycle(&mut ws);
        ws.reset_stats();
        let warm = regularized_standard_form_in(m.view(), 1e-3, &opts, None, &mut ws).unwrap();
        assert_eq!(warm.matrix, owned.matrix);
        assert_eq!(ws.stats().fresh, 0);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let m = Matrix::identity(2);
        assert!(standardize_regularized(&m, 0.0, &BalanceOptions::default()).is_err());
        assert!(standardize_regularized(&m, -1.0, &BalanceOptions::default()).is_err());
        assert!(epsilon_sweep(&m, 1e-2, 0.5, 3, &BalanceOptions::default()).is_err());
    }
}
