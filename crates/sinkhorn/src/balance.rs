//! Iterative row/column balancing (the paper's Eq. 9, generalized).
//!
//! Given a nonnegative `T × M` matrix and positive target marginals `r` (row sums)
//! and `c` (column sums) with `Σr = Σc`, the iteration alternates
//!
//! ```text
//! A ← diag(r ./ rowsums(A)) · A        (row sweep)
//! A ← A · diag(c ./ colsums(A))        (column sweep)
//! ```
//!
//! until every row and column sum is within tolerance of its target. For strictly
//! positive matrices this converges to the unique (up to scalar) `D₁·A·D₂` of the
//! paper's Theorem 1. For matrices with zeros, convergence depends on the zero
//! pattern (Sec. VI; see [`crate::structure`]) and the outcome reports what happened
//! instead of failing silently.

use hc_linalg::{Budget, LinAlgError, MatRef, Matrix, Workspace};

/// Which normalization runs first inside each iteration.
///
/// The paper's Sec. V counts "one column normalization followed by one row
/// normalization" as one iteration; [`SweepOrder::ColumnFirst`] reproduces that and
/// is the default. Row-first is provided for the sweep-order ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepOrder {
    /// Column sweep, then row sweep (paper order).
    #[default]
    ColumnFirst,
    /// Row sweep, then column sweep.
    RowFirst,
}

/// Options controlling the balancing iteration.
#[derive(Debug, Clone)]
pub struct BalanceOptions {
    /// Convergence tolerance on the maximum relative marginal deviation
    /// `max(|sum − target| / target)`. The paper uses `1e-8`.
    pub tol: f64,
    /// Iteration budget (one iteration = one column + one row sweep).
    pub max_iters: usize,
    /// Sweep order within an iteration.
    pub order: SweepOrder,
    /// Record the residual after every iteration in [`BalanceOutcome::history`].
    pub track_history: bool,
    /// Declare a stall when the residual improves by less than this relative factor
    /// over [`BalanceOptions::stall_window`] consecutive iterations.
    pub stall_improvement: f64,
    /// Window length for stall detection.
    pub stall_window: usize,
}

impl Default for BalanceOptions {
    fn default() -> Self {
        BalanceOptions {
            tol: 1e-8,
            max_iters: 10_000,
            order: SweepOrder::ColumnFirst,
            track_history: false,
            stall_improvement: 1e-3,
            stall_window: 250,
        }
    }
}

/// Why the iteration stopped.
#[derive(Debug, Clone, PartialEq)]
pub enum BalanceStatus {
    /// All marginals within tolerance.
    Converged,
    /// Iteration budget exhausted.
    MaxIterations {
        /// Residual at the last iteration.
        residual: f64,
    },
    /// Residual stopped improving (typical for zero patterns without support, where
    /// the even/odd iterates oscillate — paper Sec. VI).
    Stalled {
        /// Residual at the point the stall was declared.
        residual: f64,
    },
}

impl BalanceStatus {
    /// `true` for [`BalanceStatus::Converged`].
    pub fn is_converged(&self) -> bool {
        matches!(self, BalanceStatus::Converged)
    }
}

/// Result of a balancing run.
#[derive(Debug, Clone)]
pub struct BalanceOutcome {
    /// The (approximately) balanced matrix.
    pub matrix: Matrix,
    /// Accumulated row scalings: `matrix ≈ diag(row_scale) · input · diag(col_scale)`.
    pub row_scale: Vec<f64>,
    /// Accumulated column scalings.
    pub col_scale: Vec<f64>,
    /// Iterations performed (paper counting: column + row sweep = 1).
    pub iterations: usize,
    /// Why the iteration stopped.
    pub status: BalanceStatus,
    /// Final maximum relative marginal deviation.
    pub residual: f64,
    /// Per-iteration residuals (empty unless `track_history`).
    pub history: Vec<f64>,
    /// `true` when some positive entry decayed below `1e-12 ×` the matrix maximum —
    /// the signature of a decomposable-but-limit-balanceable pattern such as a
    /// triangular matrix, where the exact scaling does not exist but the iterates
    /// converge to a matrix with *more* zeros (cf. the diagonal example in Sec. VI).
    pub entries_decayed: bool,
}

impl BalanceOutcome {
    /// `true` when the run converged.
    pub fn is_converged(&self) -> bool {
        self.status.is_converged()
    }

    /// Returns the outcome's buffers to `ws` so a later [`standardize_in`] call
    /// on the same shapes runs without fresh allocations.
    pub fn recycle(self, ws: &mut Workspace) {
        ws.recycle_matrix(self.matrix);
        ws.recycle_vec(self.row_scale);
        ws.recycle_vec(self.col_scale);
        ws.recycle_vec(self.history);
    }
}

fn validate(m: MatRef<'_>, row_targets: &[f64], col_targets: &[f64]) -> Result<(), LinAlgError> {
    if m.is_empty() {
        return Err(LinAlgError::Empty { op: "balance" });
    }
    m.check_finite("balance")?;
    // Finiteness already checked, so `< 0` is the exact complement of `>= 0`.
    if m.row_iter().any(|r| r.iter().any(|&v| v < 0.0)) {
        return Err(LinAlgError::NonFinite {
            op: "balance (negative entry)",
            row: 0,
            col: 0,
        });
    }
    if row_targets.len() != m.rows() || col_targets.len() != m.cols() {
        return Err(LinAlgError::ShapeMismatch {
            op: "balance (targets)",
            lhs: m.shape(),
            rhs: (row_targets.len(), col_targets.len()),
        });
    }
    if row_targets.iter().any(|&t| !t.is_finite() || t <= 0.0)
        || col_targets.iter().any(|&t| !t.is_finite() || t <= 0.0)
    {
        return Err(LinAlgError::Singular {
            op: "balance (non-positive target)",
        });
    }
    let rs: f64 = row_targets.iter().sum();
    let cs: f64 = col_targets.iter().sum();
    if (rs - cs).abs() > 1e-9 * rs.max(cs) {
        return Err(LinAlgError::ShapeMismatch {
            op: "balance (Σ row targets != Σ col targets)",
            lhs: (m.rows(), m.cols()),
            rhs: (m.rows(), m.cols()),
        });
    }
    // No all-zero row or column (the paper excludes these: a machine that can run
    // nothing / a task that runs nowhere).
    for (i, r) in m.row_iter().enumerate() {
        if r.iter().sum::<f64>() == 0.0 {
            return Err(LinAlgError::IndexOutOfBounds {
                op: "balance (all-zero row)",
                index: i,
                bound: m.rows(),
            });
        }
    }
    for j in 0..m.cols() {
        if m.col_iter(j).sum::<f64>() == 0.0 {
            return Err(LinAlgError::IndexOutOfBounds {
                op: "balance (all-zero column)",
                index: j,
                bound: m.cols(),
            });
        }
    }
    Ok(())
}

/// Column sums of `a` accumulated into `buf`, walking the matrix row-major —
/// the exact accumulation order of [`Matrix::col_sums`], so the results are
/// bit-identical without the allocation.
fn col_sums_into(a: &Matrix, buf: &mut [f64]) {
    buf.fill(0.0);
    for r in a.row_iter() {
        for (s, &v) in buf.iter_mut().zip(r) {
            *s += v;
        }
    }
}

/// Maximum relative deviation of the marginals from their targets, using
/// `col_buf` as scratch for the column sums.
fn marginal_residual_in(
    a: &Matrix,
    row_targets: &[f64],
    col_targets: &[f64],
    col_buf: &mut [f64],
) -> f64 {
    let mut worst: f64 = 0.0;
    for (i, t) in row_targets.iter().enumerate() {
        worst = worst.max((a.row_sum(i) - t).abs() / t);
    }
    col_sums_into(a, col_buf);
    for (s, t) in col_buf.iter().zip(col_targets) {
        worst = worst.max((s - t).abs() / t);
    }
    worst
}

/// Estimates the geometric convergence rate from a residual history: the median
/// of consecutive residual ratios over the tail of the run (before hitting
/// floating-point noise). Returns `None` when fewer than five informative
/// iterations are available.
///
/// Theory check (tested): for a positive matrix the Sinkhorn iteration contracts
/// at asymptotic rate `σ₂²` — the square of the *second* singular value of the
/// balanced (standard-form) matrix when scaled so σ₁ = 1.
pub fn estimate_rate(history: &[f64]) -> Option<f64> {
    // Ignore residuals at double-precision noise level.
    let informative: Vec<f64> = history.iter().copied().take_while(|&r| r > 1e-13).collect();
    if informative.len() < 5 {
        return None;
    }
    let tail = &informative[informative.len() / 2..];
    let mut ratios: Vec<f64> = tail
        .windows(2)
        .filter(|w| w[0] > 0.0)
        .map(|w| w[1] / w[0])
        .collect();
    if ratios.len() < 3 {
        return None;
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Some(ratios[ratios.len() / 2])
}

fn validate_prior(m: MatRef<'_>, prior_row: &[f64], prior_col: &[f64]) -> Result<(), LinAlgError> {
    if prior_row.len() != m.rows() || prior_col.len() != m.cols() {
        return Err(LinAlgError::ShapeMismatch {
            op: "balance (warm-start priors)",
            lhs: m.shape(),
            rhs: (prior_row.len(), prior_col.len()),
        });
    }
    if prior_row.iter().any(|&v| !v.is_finite() || v <= 0.0)
        || prior_col.iter().any(|&v| !v.is_finite() || v <= 0.0)
    {
        return Err(LinAlgError::Singular {
            op: "balance (non-positive warm-start prior)",
        });
    }
    Ok(())
}

/// The one balancing loop behind [`balance_with`] and [`standardize_in`].
///
/// Every buffer — the working copy, the scale vectors, and the per-sweep
/// column-sum scratch — comes from `ws`, so on a warm workspace (same shapes as
/// a previous, recycled run) the iteration performs zero heap allocations.
/// `prior` seeds the iteration from a previous run's scaling vectors; `budget`
/// is polled once per iteration.
fn balance_core(
    m: MatRef<'_>,
    row_targets: &[f64],
    col_targets: &[f64],
    prior: Option<(&[f64], &[f64])>,
    opts: &BalanceOptions,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<BalanceOutcome, LinAlgError> {
    validate(m, row_targets, col_targets)?;
    if let Some((pr, pc)) = prior {
        validate_prior(m, pr, pc)?;
    }
    let mut obs = hc_obs::span("sinkhorn.balance");
    let (t, mm) = m.shape();
    let mut a = ws.take_matrix(t, mm, 0.0);
    let (mut row_scale, mut col_scale) = match prior {
        None => {
            a.view_mut().copy_from(m);
            (ws.take_vec(t, 1.0), ws.take_vec(mm, 1.0))
        }
        Some((pr, pc)) => {
            for (i, src) in m.row_iter().enumerate() {
                for (j, (d, &v)) in a.row_mut(i).iter_mut().zip(src).enumerate() {
                    *d = pr[i] * v * pc[j];
                }
            }
            (ws.take_vec_copy(pr), ws.take_vec_copy(pc))
        }
    };
    let mut col_buf = ws.take_vec(mm, 0.0);
    let mut history = Vec::new();
    let max_entry_initial = m
        .row_iter()
        .flatten()
        .copied()
        .reduce(f64::max)
        .unwrap_or(0.0);

    let row_sweep = |a: &mut Matrix, row_scale: &mut [f64]| {
        for i in 0..t {
            let s = a.row_sum(i);
            // s > 0 is guaranteed: validation rejects all-zero rows and sweeps
            // multiply by positive factors only.
            let f = row_targets[i] / s;
            a.scale_row(i, f);
            row_scale[i] *= f;
        }
    };
    let col_sweep = |a: &mut Matrix, col_scale: &mut [f64], col_buf: &mut [f64]| {
        col_sums_into(a, col_buf);
        for (j, &s) in col_buf.iter().enumerate() {
            let f = col_targets[j] / s;
            a.scale_col(j, f);
            col_scale[j] *= f;
        }
    };

    let mut residual = marginal_residual_in(&a, row_targets, col_targets, &mut col_buf);
    let mut status = BalanceStatus::MaxIterations { residual };
    let mut iterations = 0;
    let mut best_in_window = residual;
    let mut window_count = 0usize;

    if residual <= opts.tol {
        status = BalanceStatus::Converged;
    } else {
        // Profiler-visible phase marker, re-opened every 32 iterations so
        // long balances show up as `sinkhorn.balance.batch` frames without
        // paying a span per iteration. The old guard must be dropped (popped)
        // before the replacement is opened (pushed) or the profile stack
        // would interleave.
        let mut batch: Option<hc_obs::SpanGuard> = None;
        for it in 1..=opts.max_iters {
            if (it - 1) % 32 == 0 {
                drop(batch.take());
                batch = Some(hc_obs::span("sinkhorn.balance.batch"));
            }
            hc_obs::failpoints::fire("sinkhorn.iteration");
            if let Some(b) = budget {
                b.check("sinkhorn-balance", iterations, residual)?;
            }
            match opts.order {
                SweepOrder::ColumnFirst => {
                    col_sweep(&mut a, &mut col_scale, &mut col_buf);
                    row_sweep(&mut a, &mut row_scale);
                }
                SweepOrder::RowFirst => {
                    row_sweep(&mut a, &mut row_scale);
                    col_sweep(&mut a, &mut col_scale, &mut col_buf);
                }
            }
            iterations = it;
            residual = marginal_residual_in(&a, row_targets, col_targets, &mut col_buf);
            if opts.track_history {
                history.push(residual);
            }
            if residual <= opts.tol {
                status = BalanceStatus::Converged;
                break;
            }
            // Stall detection over a sliding window.
            window_count += 1;
            if residual < best_in_window * (1.0 - opts.stall_improvement) {
                best_in_window = residual;
                window_count = 0;
            } else if window_count >= opts.stall_window {
                status = BalanceStatus::Stalled { residual };
                break;
            }
            status = BalanceStatus::MaxIterations { residual };
        }
    }

    let entries_decayed = {
        let threshold = 1e-12 * max_entry_initial.max(f64::MIN_POSITIVE);
        let mut decayed = false;
        for i in 0..t {
            for j in 0..mm {
                if m.at(i, j) > 0.0 && a[(i, j)].abs() < threshold {
                    decayed = true;
                }
            }
        }
        decayed
    };

    let status_name = match &status {
        BalanceStatus::Converged => "converged",
        BalanceStatus::MaxIterations { .. } => "max_iterations",
        BalanceStatus::Stalled { .. } => "stalled",
    };
    hc_obs::obs_counter!("sinkhorn_balance_total").inc();
    hc_obs::obs_counter!("sinkhorn_balance_iterations_total").add(iterations as u64);
    match &status {
        BalanceStatus::Converged => hc_obs::obs_counter!("sinkhorn_balance_converged_total").inc(),
        BalanceStatus::MaxIterations { .. } => {
            hc_obs::obs_counter!("sinkhorn_balance_max_iterations_total").inc()
        }
        BalanceStatus::Stalled { .. } => {
            hc_obs::obs_counter!("sinkhorn_balance_stalled_total").inc()
        }
    }
    hc_obs::obs_histogram!("sinkhorn_balance_iterations").observe(iterations as u64);
    hc_obs::recorder::note_u64("sinkhorn_iterations", iterations as u64);
    hc_obs::recorder::note_f64("sinkhorn_residual", residual);
    if obs.armed() {
        // Final per-side residuals are only worth recomputing when a sink
        // will actually see them.
        let row_residual = (0..t)
            .map(|i| (a.row_sum(i) - row_targets[i]).abs() / row_targets[i])
            .fold(0.0f64, f64::max);
        col_sums_into(&a, &mut col_buf);
        let col_residual = col_buf
            .iter()
            .zip(col_targets)
            .map(|(s, tgt)| (s - tgt).abs() / tgt)
            .fold(0.0f64, f64::max);
        obs.field_u64("rows", t as u64);
        obs.field_u64("cols", mm as u64);
        obs.field_u64("iterations", iterations as u64);
        obs.field_f64("residual", residual);
        obs.field_f64("row_residual", row_residual);
        obs.field_f64("col_residual", col_residual);
        obs.field_str("status", status_name);
        obs.field_bool("entries_decayed", entries_decayed);
        obs.field_bool("warm_start", prior.is_some());
    }
    ws.recycle_vec(col_buf);

    Ok(BalanceOutcome {
        matrix: a,
        row_scale,
        col_scale,
        iterations,
        status,
        residual,
        history,
        entries_decayed,
    })
}

/// Balances `m` to the given target marginals with explicit options, in a
/// throwaway workspace.
pub fn balance_with(
    m: &Matrix,
    row_targets: &[f64],
    col_targets: &[f64],
    opts: &BalanceOptions,
) -> Result<BalanceOutcome, LinAlgError> {
    let mut ws = Workspace::new();
    balance_core(
        m.view(),
        row_targets,
        col_targets,
        None,
        opts,
        None,
        &mut ws,
    )
}

/// The paper's standard-form targets for a `T × M` ECS matrix: every row sums to
/// `√(M/T)` and every column to `√(T/M)`, so that σ₁ of the balanced matrix is 1
/// (Theorem 2).
pub fn standard_targets(t: usize, m: usize) -> (Vec<f64>, Vec<f64>) {
    let r = (m as f64 / t as f64).sqrt();
    let c = (t as f64 / m as f64).sqrt();
    (vec![r; t], vec![c; m])
}

/// Balances `m` to the paper's standard form (Theorem 1 with `k = 1/√(TM)`).
///
/// ```
/// use hc_linalg::Matrix;
/// use hc_sinkhorn::balance::{standardize, BalanceOptions};
///
/// let m = Matrix::from_rows(&[&[1.0, 4.0], &[3.0, 2.0], &[2.0, 2.0]]).unwrap();
/// let out = standardize(&m, &BalanceOptions::default()).unwrap();
/// assert!(out.is_converged());
/// // 3x2: every row sums to sqrt(2/3), every column to sqrt(3/2).
/// for s in out.matrix.row_sums() {
///     assert!((s - (2.0_f64 / 3.0).sqrt()).abs() < 1e-7);
/// }
/// ```
pub fn standardize(m: &Matrix, opts: &BalanceOptions) -> Result<BalanceOutcome, LinAlgError> {
    let mut ws = Workspace::new();
    standardize_in(m.view(), None, opts, None, &mut ws)
}

/// The standardization kernel: balances `m` to the paper's standard-form
/// targets with the target vectors, the working copy, and all iteration
/// scratch drawn from `ws`, so repeated calls on the same shape allocate
/// nothing.
///
/// **Warm start.** `prior` is a previous run's `(row_scale, col_scale)`. The
/// iteration then starts where that run ended: the working copy starts as
/// `diag(prior_row) · m · diag(prior_col)` and the accumulated scale vectors
/// start as copies of the priors, so the invariant
/// `matrix ≈ diag(row_scale) · input · diag(col_scale)` holds throughout and
/// the converged result is a genuine balancing of `m` itself. When `m` is a
/// small perturbation of the matrix the priors balanced, the seed is already
/// near the fixed point and convergence takes a fraction of the cold iteration
/// count; when it is not, the same tolerance applies and the caller can
/// compare against a cold run (see `hc-session`'s fallback). Priors must have
/// matching lengths and strictly positive finite entries; otherwise the call
/// fails with the same validation errors as targets.
///
/// **Budget.** `budget` is polled once per iteration; expiry returns
/// [`LinAlgError::DeadlineExceeded`] carrying the iterations completed and the
/// residual at the point of cancellation. `None` polls nothing and gives
/// bit-identical results. Each iteration also hits the `sinkhorn.iteration`
/// failpoint (see [`hc_obs::failpoints`]) so chaos tests can inject
/// deterministic slowness.
pub fn standardize_in(
    m: MatRef<'_>,
    prior: Option<(&[f64], &[f64])>,
    opts: &BalanceOptions,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<BalanceOutcome, LinAlgError> {
    let (t, mm) = m.shape();
    let r = (mm as f64 / t as f64).sqrt();
    let c = (t as f64 / mm as f64).sqrt();
    let rt = ws.take_vec(t, r);
    let ct = ws.take_vec(mm, c);
    let out = balance_core(m, &rt, &ct, prior, opts, budget, ws);
    ws.recycle_vec(rt);
    ws.recycle_vec(ct);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balance_default(
        m: &Matrix,
        row_targets: &[f64],
        col_targets: &[f64],
    ) -> Result<BalanceOutcome, LinAlgError> {
        balance_with(m, row_targets, col_targets, &BalanceOptions::default())
    }

    fn assert_balanced(out: &BalanceOutcome, rt: &[f64], ct: &[f64], tol: f64) {
        assert!(out.is_converged(), "status: {:?}", out.status);
        for (s, t) in out.matrix.row_sums().iter().zip(rt) {
            assert!((s - t).abs() / t <= tol * 10.0, "row sum {s} target {t}");
        }
        for (s, t) in out.matrix.col_sums().iter().zip(ct) {
            assert!((s - t).abs() / t <= tol * 10.0, "col sum {s} target {t}");
        }
    }

    #[test]
    fn positive_square_doubly_stochastic() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let rt = vec![1.0, 1.0];
        let ct = vec![1.0, 1.0];
        let out = balance_default(&m, &rt, &ct).unwrap();
        assert_balanced(&out, &rt, &ct, 1e-8);
        assert!(!out.entries_decayed);
    }

    #[test]
    fn scaling_consistency() {
        // matrix ≈ diag(row_scale) · input · diag(col_scale)
        let m = Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[3.0, 4.0, 2.0], &[0.2, 1.0, 5.0]]).unwrap();
        let (rt, ct) = standard_targets(3, 3);
        let out = standardize(&m, &BalanceOptions::default()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expect = out.row_scale[i] * m[(i, j)] * out.col_scale[j];
                assert!(
                    (out.matrix[(i, j)] - expect).abs() < 1e-10,
                    "scaling mismatch at ({i},{j})"
                );
            }
        }
        assert_balanced(&out, &rt, &ct, 1e-8);
    }

    #[test]
    fn rectangular_standard_form_theorem1() {
        // 4×2: rows must sum to √(2/4), cols to √(4/2).
        let m = Matrix::from_fn(4, 2, |i, j| 1.0 + (i as f64) * 0.3 + (j as f64) * 0.7);
        let out = standardize(&m, &BalanceOptions::default()).unwrap();
        let r = (2.0_f64 / 4.0).sqrt();
        let c = (4.0_f64 / 2.0).sqrt();
        assert_balanced(&out, &[r; 4], &[c; 2], 1e-8);
        // Total sum is √(TM) = √8.
        assert!((out.matrix.total_sum() - 8.0_f64.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn uniqueness_up_to_scalar() {
        // Theorem 1: D₁, D₂ unique up to scalar — two runs from differently
        // pre-scaled inputs give the same balanced matrix.
        let m = Matrix::from_rows(&[&[1.0, 5.0], &[2.0, 0.5]]).unwrap();
        let mut pre = m.clone();
        pre.scale_row(0, 17.0);
        pre.scale_col(1, 0.01);
        let a = standardize(&m, &BalanceOptions::default()).unwrap();
        let b = standardize(&pre, &BalanceOptions::default()).unwrap();
        assert!(
            a.matrix.max_abs_diff(&b.matrix) < 1e-6,
            "diag-scaled inputs must balance to the same matrix"
        );
    }

    #[test]
    fn already_balanced_zero_iterations() {
        let m = Matrix::identity(3);
        let out = balance_default(&m, &[1.0; 3], &[1.0; 3]).unwrap();
        assert_eq!(out.iterations, 0);
        assert!(out.is_converged());
    }

    #[test]
    fn generalized_targets() {
        let m = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let rt = vec![1.0, 3.0];
        let ct = vec![2.0, 2.0];
        let out = balance_default(&m, &rt, &ct).unwrap();
        assert_balanced(&out, &rt, &ct, 1e-8);
    }

    #[test]
    fn column_first_matches_paper_iteration_counting() {
        let m = Matrix::from_fn(5, 3, |i, j| 1.0 + ((i * 3 + j * 7) % 5) as f64);
        let opts = BalanceOptions {
            track_history: true,
            ..Default::default()
        };
        let out = standardize(&m, &opts).unwrap();
        assert!(out.is_converged());
        assert_eq!(out.history.len(), out.iterations);
        // Positive matrices converge fast (paper: 6–7 iterations at 1e-8).
        assert!(out.iterations < 50, "iterations = {}", out.iterations);
    }

    #[test]
    fn sweep_orders_converge_to_same_matrix() {
        let m = Matrix::from_fn(4, 4, |i, j| 0.5 + ((i * 5 + j * 11) % 7) as f64);
        let a = balance_with(
            &m,
            &[1.0; 4],
            &[1.0; 4],
            &BalanceOptions {
                order: SweepOrder::ColumnFirst,
                ..Default::default()
            },
        )
        .unwrap();
        let b = balance_with(
            &m,
            &[1.0; 4],
            &[1.0; 4],
            &BalanceOptions {
                order: SweepOrder::RowFirst,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(a.matrix.max_abs_diff(&b.matrix) < 1e-6);
    }

    #[test]
    fn triangular_pattern_decays_entries() {
        // [[1,0],[1,1]]: no exact scaling exists (no total support). The iterates
        // converge toward the identity, but only sublinearly (the (2,1) entry
        // decays like 1/k) — the practical signature of a LimitOnly pattern.
        let m = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]]).unwrap();
        let opts = BalanceOptions {
            tol: 1e-4,
            max_iters: 20_000,
            ..Default::default()
        };
        let out = balance_with(&m, &[1.0, 1.0], &[1.0, 1.0], &opts).unwrap();
        assert!(out.is_converged(), "status {:?}", out.status);
        assert!((out.matrix[(0, 0)] - 1.0).abs() < 1e-3);
        assert!((out.matrix[(1, 1)] - 1.0).abs() < 1e-3);
        assert!(out.matrix[(1, 0)] < 1e-3, "off entry must decay toward 0");
        // Sublinear convergence: a tight tolerance is unreachable in a practical
        // budget, unlike the positive case which converges in a handful of sweeps.
        let tight = BalanceOptions {
            tol: 1e-8,
            max_iters: 5_000,
            stall_window: usize::MAX,
            ..Default::default()
        };
        let slow = balance_with(&m, &[1.0, 1.0], &[1.0, 1.0], &tight).unwrap();
        assert!(!slow.is_converged());
    }

    #[test]
    fn diagonal_matrix_balances_immediately_structure() {
        // Sec. VI: diagonal matrices are decomposable yet trivially balanceable.
        let m = Matrix::from_diag(&[2.0, 5.0, 0.1]);
        let out = balance_default(&m, &[1.0; 3], &[1.0; 3]).unwrap();
        assert!(out.is_converged());
        assert!(out.matrix.max_abs_diff(&Matrix::identity(3)) < 1e-8);
        assert!(!out.entries_decayed);
    }

    #[test]
    fn validation_errors() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        // Wrong target lengths.
        assert!(balance_default(&m, &[1.0], &[1.0, 1.0]).is_err());
        // Non-positive target.
        assert!(balance_default(&m, &[1.0, 0.0], &[0.5, 0.5]).is_err());
        // Mismatched totals.
        assert!(balance_default(&m, &[1.0, 1.0], &[5.0, 5.0]).is_err());
        // Negative entry.
        let neg = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]).unwrap();
        assert!(balance_default(&neg, &[1.0, 1.0], &[1.0, 1.0]).is_err());
        // All-zero row.
        let zr = Matrix::from_rows(&[&[0.0, 0.0], &[3.0, 4.0]]).unwrap();
        assert!(balance_default(&zr, &[1.0, 1.0], &[1.0, 1.0]).is_err());
        // All-zero column.
        let zc = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 4.0]]).unwrap();
        assert!(balance_default(&zc, &[1.0, 1.0], &[1.0, 1.0]).is_err());
        // Empty.
        assert!(balance_default(&Matrix::zeros(0, 0), &[], &[]).is_err());
        // NaN.
        let mut nan = m.clone();
        nan[(0, 0)] = f64::NAN;
        assert!(balance_default(&nan, &[1.0, 1.0], &[1.0, 1.0]).is_err());
    }

    #[test]
    fn eq10_matrix_does_not_converge_to_balance_quickly() {
        // The paper's Eq. 10 matrix: support but no total support. The exact
        // scaling does not exist; the iterates limp toward a permutation limit,
        // with the (2,3) entry decaying. With a modest budget we observe either
        // slow convergence-with-decay or a stall — never a clean fast converge.
        let m = Matrix::from_rows(&[&[0.0, 0.0, 1.0], &[1.0, 0.0, 1.0], &[0.0, 1.0, 0.0]]).unwrap();
        let opts = BalanceOptions {
            max_iters: 200,
            ..Default::default()
        };
        let out = balance_with(&m, &[1.0; 3], &[1.0; 3], &opts).unwrap();
        // After 200 iterations the pattern either stalled, hit the budget, or
        // "converged" only by killing the (1,2)-indexed entry.
        assert!(
            !out.is_converged() || out.entries_decayed,
            "Eq. 10 matrix must not admit a genuine balanced form: {:?}",
            out.status
        );
    }

    #[test]
    fn rate_matches_sigma2_squared() {
        // Theory: the asymptotic Sinkhorn contraction rate on a positive matrix
        // is σ₂² of the standard form (σ₁ = 1 scaling).
        let m = Matrix::from_rows(&[&[2.0, 0.7, 0.3], &[0.5, 1.8, 0.6], &[0.4, 0.9, 2.2]]).unwrap();
        let opts = BalanceOptions {
            tol: 1e-14,
            max_iters: 400,
            track_history: true,
            stall_window: usize::MAX,
            ..Default::default()
        };
        let out = standardize(&m, &opts).unwrap();
        let rate = estimate_rate(&out.history).expect("enough history");
        let svd = hc_linalg::svd::svd(&out.matrix).unwrap();
        let sigma2 = svd.singular_values[1] / svd.singular_values[0];
        let predicted = sigma2 * sigma2;
        assert!(
            (rate - predicted).abs() < 0.05 * predicted.max(0.05),
            "measured rate {rate} vs predicted sigma2^2 {predicted}"
        );
    }

    #[test]
    fn estimate_rate_edge_cases() {
        assert!(estimate_rate(&[]).is_none());
        assert!(estimate_rate(&[1e-3, 1e-4]).is_none());
        // All at noise level: ignored.
        assert!(estimate_rate(&[1e-16; 20]).is_none());
        // A clean geometric sequence estimates its ratio.
        let hist: Vec<f64> = (0..20).map(|k| 0.5_f64.powi(k)).collect();
        let r = estimate_rate(&hist).unwrap();
        assert!((r - 0.5).abs() < 1e-12);
    }

    #[test]
    fn standard_targets_consistency() {
        let (rt, ct) = standard_targets(12, 5);
        let r: f64 = rt.iter().sum();
        let c: f64 = ct.iter().sum();
        assert!((r - c).abs() < 1e-12);
        assert!((r - (12.0_f64 * 5.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn workspace_kernel_matches_owned_path_bitwise() {
        let mut ws = Workspace::new();
        let cases = [
            Matrix::from_fn(5, 3, |i, j| 1.0 + ((i * 3 + j * 7) % 5) as f64),
            // Zero pattern without total support (stalls / decays).
            Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]]).unwrap(),
            Matrix::from_fn(4, 7, |i, j| 0.2 + ((i * 11 + j * 5) % 9) as f64),
        ];
        for m in &cases {
            for opts in [
                BalanceOptions::default(),
                BalanceOptions {
                    track_history: true,
                    max_iters: 300,
                    ..Default::default()
                },
            ] {
                let owned = standardize(m, &opts).unwrap();
                let pooled = standardize_in(m.view(), None, &opts, None, &mut ws).unwrap();
                assert_eq!(pooled.matrix, owned.matrix);
                assert_eq!(pooled.row_scale, owned.row_scale);
                assert_eq!(pooled.col_scale, owned.col_scale);
                assert_eq!(pooled.iterations, owned.iterations);
                assert_eq!(pooled.status, owned.status);
                assert_eq!(pooled.residual.to_bits(), owned.residual.to_bits());
                assert_eq!(pooled.history, owned.history);
                assert_eq!(pooled.entries_decayed, owned.entries_decayed);
                pooled.recycle(&mut ws);
            }
        }
    }

    #[test]
    fn pooled_balance_matches_generalized_targets() {
        let m = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let rt = [1.0, 3.0];
        let ct = [2.0, 2.0];
        let mut ws = Workspace::new();
        let owned = balance_default(&m, &rt, &ct).unwrap();
        let pooled = balance_core(
            m.view(),
            &rt,
            &ct,
            None,
            &BalanceOptions::default(),
            None,
            &mut ws,
        )
        .unwrap();
        assert_eq!(pooled.matrix, owned.matrix);
        assert_eq!(pooled.row_scale, owned.row_scale);
        assert_eq!(pooled.col_scale, owned.col_scale);
        assert_eq!(pooled.iterations, owned.iterations);
    }

    #[test]
    fn warm_workspace_balance_is_allocation_free() {
        let m = Matrix::from_fn(6, 4, |i, j| 0.1 + ((i * 7 + j * 3) % 13) as f64);
        let mut ws = Workspace::new();
        let owned = standardize(&m, &BalanceOptions::default()).unwrap();
        let cold =
            standardize_in(m.view(), None, &BalanceOptions::default(), None, &mut ws).unwrap();
        assert_eq!(cold.matrix, owned.matrix);
        cold.recycle(&mut ws);
        ws.reset_stats();
        let warm =
            standardize_in(m.view(), None, &BalanceOptions::default(), None, &mut ws).unwrap();
        assert_eq!(warm.matrix, owned.matrix);
        assert_eq!(
            ws.stats().fresh,
            0,
            "warm balance must draw every buffer from the pool"
        );
        warm.recycle(&mut ws);
    }

    #[test]
    fn workspace_reuse_across_changing_shapes() {
        // A workspace cycled through different shapes still produces results
        // identical to the owned path for each shape.
        let mut ws = Workspace::new();
        for (t, m) in [(3usize, 5usize), (7, 2), (4, 4), (2, 9), (7, 2)] {
            let mat = Matrix::from_fn(t, m, |i, j| 0.3 + ((i * 5 + j * 13) % 11) as f64);
            let owned = standardize(&mat, &BalanceOptions::default()).unwrap();
            let pooled =
                standardize_in(mat.view(), None, &BalanceOptions::default(), None, &mut ws)
                    .unwrap();
            assert_eq!(pooled.matrix, owned.matrix, "shape {t}x{m}");
            assert_eq!(pooled.iterations, owned.iterations, "shape {t}x{m}");
            pooled.recycle(&mut ws);
        }
    }

    #[test]
    fn validation_errors_via_view_kernel() {
        let mut ws = Workspace::new();
        let opts = BalanceOptions::default();
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert!(balance_core(m.view(), &[1.0], &[1.0, 1.0], None, &opts, None, &mut ws).is_err());
        let zr = Matrix::from_rows(&[&[0.0, 0.0], &[3.0, 4.0]]).unwrap();
        assert!(balance_core(
            zr.view(),
            &[1.0, 1.0],
            &[1.0, 1.0],
            None,
            &opts,
            None,
            &mut ws
        )
        .is_err());
        let zc = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 4.0]]).unwrap();
        assert!(balance_core(
            zc.view(),
            &[1.0, 1.0],
            &[1.0, 1.0],
            None,
            &opts,
            None,
            &mut ws
        )
        .is_err());
    }

    #[test]
    fn budgeted_matches_unbudgeted_bitwise_and_expired_budget_trips() {
        let m = Matrix::from_fn(6, 4, |i, j| 0.1 + ((i * 7 + j * 3) % 13) as f64);
        let mut ws = Workspace::new();
        let opts = BalanceOptions::default();
        let plain = standardize_in(m.view(), None, &opts, None, &mut ws).unwrap();
        let generous = Budget::with_deadline(std::time::Duration::from_secs(600));
        let budgeted = standardize_in(m.view(), None, &opts, Some(&generous), &mut ws).unwrap();
        assert_eq!(plain.matrix, budgeted.matrix);
        assert_eq!(plain.iterations, budgeted.iterations);
        assert_eq!(plain.residual.to_bits(), budgeted.residual.to_bits());

        let expired = Budget::with_deadline(std::time::Duration::ZERO);
        match standardize_in(m.view(), None, &opts, Some(&expired), &mut ws) {
            Err(LinAlgError::DeadlineExceeded {
                op,
                iterations,
                residual,
            }) => {
                assert_eq!(op, "sinkhorn-balance");
                assert_eq!(iterations, 0);
                assert!(residual.is_finite());
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn cancel_token_stops_balance_mid_run() {
        // An immediately-cancelled token must stop the loop before sweep 1.
        let m = Matrix::from_fn(6, 4, |i, j| 0.1 + ((i * 7 + j * 3) % 13) as f64);
        let tok = hc_linalg::CancelToken::new();
        tok.cancel();
        let budget = Budget::unlimited().with_cancel(tok);
        let mut ws = Workspace::new();
        let err = standardize_in(
            m.view(),
            None,
            &BalanceOptions::default(),
            Some(&budget),
            &mut ws,
        )
        .unwrap_err();
        assert!(matches!(err, LinAlgError::DeadlineExceeded { .. }));
    }

    #[test]
    fn warm_start_on_unchanged_matrix_converges_immediately() {
        let m = Matrix::from_fn(6, 4, |i, j| 0.1 + ((i * 7 + j * 3) % 13) as f64);
        let mut ws = Workspace::new();
        let opts = BalanceOptions::default();
        let cold = standardize_in(m.view(), None, &opts, None, &mut ws).unwrap();
        assert!(cold.is_converged());
        let warm = standardize_in(
            m.view(),
            Some((&cold.row_scale, &cold.col_scale)),
            &opts,
            None,
            &mut ws,
        )
        .unwrap();
        assert!(warm.is_converged());
        assert_eq!(warm.iterations, 0, "seed is already the fixed point");
        assert!(warm.matrix.max_abs_diff(&cold.matrix) < 1e-12);
        warm.recycle(&mut ws);
        cold.recycle(&mut ws);
    }

    #[test]
    fn warm_start_after_small_edit_matches_cold_with_fewer_iterations() {
        let m = Matrix::from_fn(24, 16, |i, j| 0.2 + ((i * 7 + j * 3) % 13) as f64);
        let mut ws = Workspace::new();
        let opts = BalanceOptions::default();
        let prior = standardize_in(m.view(), None, &opts, None, &mut ws).unwrap();

        let mut edited = m.clone();
        edited[(3, 5)] *= 1.01;
        let cold = standardize_in(edited.view(), None, &opts, None, &mut ws).unwrap();
        let warm = standardize_in(
            edited.view(),
            Some((&prior.row_scale, &prior.col_scale)),
            &opts,
            None,
            &mut ws,
        )
        .unwrap();
        assert!(warm.is_converged());
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        // Same fixed point within tolerance (uniqueness up to scalar, but the
        // standard-form marginals pin the scalar).
        assert!(warm.matrix.max_abs_diff(&cold.matrix) < 1e-6);
        // The scaling invariant holds for the warm path too.
        for i in 0..edited.rows() {
            for j in 0..edited.cols() {
                let expect = warm.row_scale[i] * edited[(i, j)] * warm.col_scale[j];
                assert!((warm.matrix[(i, j)] - expect).abs() < 1e-10);
            }
        }
        warm.recycle(&mut ws);
        cold.recycle(&mut ws);
        prior.recycle(&mut ws);
    }

    #[test]
    fn warm_start_prior_validation() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let mut ws = Workspace::new();
        let opts = BalanceOptions::default();
        // Wrong prior lengths.
        assert!(
            standardize_in(m.view(), Some((&[1.0], &[1.0, 1.0])), &opts, None, &mut ws).is_err()
        );
        // Non-positive prior entry.
        assert!(standardize_in(
            m.view(),
            Some((&[1.0, 0.0], &[1.0, 1.0])),
            &opts,
            None,
            &mut ws
        )
        .is_err());
        // NaN prior entry.
        assert!(standardize_in(
            m.view(),
            Some((&[1.0, f64::NAN], &[1.0, 1.0])),
            &opts,
            None,
            &mut ws
        )
        .is_err());
    }

    #[test]
    fn warm_start_far_prior_still_converges_to_same_balance() {
        // A wildly wrong prior is just a diagonal pre-scaling: the iteration
        // still converges, to the same balanced matrix (Theorem 1 uniqueness).
        let m = Matrix::from_fn(5, 5, |i, j| 0.5 + ((i * 3 + j * 7) % 11) as f64);
        let mut ws = Workspace::new();
        let opts = BalanceOptions::default();
        let cold = standardize_in(m.view(), None, &opts, None, &mut ws).unwrap();
        let bad_r: Vec<f64> = (0..5).map(|i| 10.0_f64.powi(i - 2)).collect();
        let bad_c: Vec<f64> = (0..5).map(|i| 3.0_f64.powi(2 - i)).collect();
        let warm = standardize_in(m.view(), Some((&bad_r, &bad_c)), &opts, None, &mut ws).unwrap();
        assert!(warm.is_converged());
        assert!(warm.matrix.max_abs_diff(&cold.matrix) < 1e-6);
        warm.recycle(&mut ws);
        cold.recycle(&mut ws);
    }

    #[test]
    fn history_monotone_for_positive_input() {
        let m = Matrix::from_fn(6, 4, |i, j| 0.1 + ((i * 7 + j * 3) % 13) as f64);
        let opts = BalanceOptions {
            track_history: true,
            ..Default::default()
        };
        let out = standardize(&m, &opts).unwrap();
        for w in out.history.windows(2) {
            assert!(
                w[1] <= w[0] * 1.001,
                "residual should not grow for positive input: {:?}",
                out.history
            );
        }
    }
}
