//! Measure-targeted ECS synthesis: hit prescribed (MPH, TDH, TMA) values.
//!
//! The construction leans on three facts established by the paper:
//!
//! 1. **TMA is a function of the standard form only** (Eq. 8 + Theorem 2), and the
//!    standard form is invariant under diagonal row/column rescaling (Theorem 1's
//!    uniqueness up to scalars).
//! 2. **MPH and TDH are functions of the marginals only** (Eqs. 3 and 7), and a
//!    generalized Sinkhorn balance can impose any positive marginals on a positive
//!    matrix.
//! 3. Convex combinations of matrices balanced to the *same* marginals remain
//!    balanced, and share the Theorem-2 singular pair `(𝟙/√T, 𝟙/√M)`.
//!
//! So the generator (a) builds a *balanced* matrix with the target TMA by
//! bisecting a blend between a zero-affinity anchor (the uniform matrix: rank 1,
//! TMA = 0) and a maximal-affinity anchor (a standardized near-block-identity:
//! machines specialized on disjoint task groups), optionally mixing in a seeded
//! random balanced matrix for variety; then (b) rebalances the result to marginals
//! whose adjacent-ratio homogeneities are exactly the target MPH and TDH.

use hc_core::ecs::Ecs;
use hc_core::error::MeasureError;
use hc_core::standard::tma_of_spectrum;
use hc_linalg::svd::{spectrum_in, SvdAlgorithm};
use hc_linalg::{Matrix, Workspace};
use hc_sinkhorn::balance::{balance_with, standardize, BalanceOptions};

use crate::rng::{Rng, StdRng};

/// Target measure values for [`targeted`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetSpec {
    /// Number of task types (rows).
    pub tasks: usize,
    /// Number of machines (columns).
    pub machines: usize,
    /// Target machine performance homogeneity, in `(0, 1]`.
    pub mph: f64,
    /// Target task difficulty homogeneity, in `(0, 1]`.
    pub tdh: f64,
    /// Target task-machine affinity, in `[0, max_achievable)` — the maximum
    /// depends on the shape and is slightly below 1; [`targeted`] reports it in
    /// the error when the target is out of reach.
    pub tma: f64,
    /// Fraction of a seeded random balanced matrix mixed into the zero-affinity
    /// anchor (0 = fully deterministic geometry, 1 = fully random base).
    pub jitter: f64,
}

impl TargetSpec {
    /// Spec with no jitter.
    pub fn exact(tasks: usize, machines: usize, mph: f64, tdh: f64, tma: f64) -> Self {
        TargetSpec {
            tasks,
            machines,
            mph,
            tdh,
            tma,
            jitter: 0.0,
        }
    }
}

/// Balancing options used internally (tight, generous budget — inputs are
/// positive so convergence is geometric).
fn bal_opts() -> BalanceOptions {
    BalanceOptions {
        tol: 1e-11,
        max_iters: 50_000,
        ..Default::default()
    }
}

/// TMA of an already-balanced matrix (mean of the non-maximum singular values).
fn tma_of_balanced(m: &Matrix) -> Result<f64, MeasureError> {
    let (sigma, _) = spectrum_in(m.view(), SvdAlgorithm::Auto, None, &mut Workspace::new())?;
    Ok(tma_of_spectrum(&sigma))
}

/// The uniform balanced matrix (TMA = 0 anchor): every entry `1/√(TM)`.
fn uniform_anchor(t: usize, m: usize) -> Matrix {
    Matrix::filled(t, m, 1.0 / ((t * m) as f64).sqrt())
}

/// A maximal-affinity anchor: machines specialized on disjoint task groups
/// (`task i → machine i mod M`), softened by a tiny background so it is positive
/// and exactly balanceable, then standardized.
fn specialized_anchor(t: usize, m: usize) -> Result<Matrix, MeasureError> {
    let seed = Matrix::from_fn(t, m, |i, j| if j == i % m { 1.0 } else { 1e-9 });
    let out = standardize(&seed, &bal_opts())?;
    if !out.is_converged() {
        return Err(MeasureError::BalanceDidNotConverge {
            residual: out.residual,
            iterations: out.iterations,
        });
    }
    Ok(out.matrix)
}

/// A seeded random balanced matrix for jitter.
fn random_anchor(t: usize, m: usize, seed: u64) -> Result<Matrix, MeasureError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let raw = Matrix::from_fn(t, m, |_, _| rng.gen_range(0.2..5.0_f64));
    let out = standardize(&raw, &bal_opts())?;
    if !out.is_converged() {
        return Err(MeasureError::BalanceDidNotConverge {
            residual: out.residual,
            iterations: out.iterations,
        });
    }
    Ok(out.matrix)
}

/// Bisects `t ∈ [0, 1]` on the segment `(1−t)·a + t·b` until the balanced blend's
/// TMA is within `tol` of `target`. Requires `tma(a) ≤ target ≤ tma(b)`.
fn bisect_blend(a: &Matrix, b: &Matrix, target: f64, tol: f64) -> Result<Matrix, MeasureError> {
    let blend = |t: f64| -> Matrix {
        Matrix::from_fn(a.rows(), a.cols(), |i, j| {
            (1.0 - t) * a[(i, j)] + t * b[(i, j)]
        })
    };
    let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let m = blend(mid);
        let v = tma_of_balanced(&m)?;
        if (v - target).abs() <= tol {
            return Ok(m);
        }
        if v < target {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-15 {
            return Ok(m);
        }
    }
    Ok(blend(0.5 * (lo + hi)))
}

/// Geometric marginal vector of length `n` with adjacent-ratio homogeneity `h`,
/// ascending, scaled to sum to `total`.
fn geometric_marginals(n: usize, h: f64, total: f64) -> Vec<f64> {
    // v_k = h^{n-1-k} ascending (smallest first): ratios v_k/v_{k+1} = h.
    let raw: Vec<f64> = (0..n).map(|k| h.powi((n - 1 - k) as i32)).collect();
    let s: f64 = raw.iter().sum();
    raw.iter().map(|v| v * total / s).collect()
}

/// Like [`targeted`], but imposes caller-supplied marginals instead of geometric
/// ones. The resulting MPH/TDH are the adjacent-ratio homogeneities of
/// `col_targets`/`row_targets` (the caller controls them); TMA still equals
/// `spec.tma`. The marginal vectors are rescaled internally so their sums match.
pub fn targeted_with_marginals(
    spec: &TargetSpec,
    row_targets: &[f64],
    col_targets: &[f64],
    seed: u64,
) -> Result<Ecs, MeasureError> {
    if row_targets.len() != spec.tasks || col_targets.len() != spec.machines {
        return Err(MeasureError::InvalidEnvironment {
            reason: format!(
                "marginal lengths ({}, {}) do not match the {}x{} spec",
                row_targets.len(),
                col_targets.len(),
                spec.tasks,
                spec.machines
            ),
        });
    }
    let balanced = balanced_with_tma(spec, seed)?;
    let total = ((spec.tasks * spec.machines) as f64).sqrt();
    let rsum: f64 = row_targets.iter().sum();
    let csum: f64 = col_targets.iter().sum();
    if (rsum <= 0.0 || rsum.is_nan()) || (csum <= 0.0 || csum.is_nan()) {
        return Err(MeasureError::InvalidEnvironment {
            reason: "marginal sums must be positive".into(),
        });
    }
    let rt: Vec<f64> = row_targets.iter().map(|v| v * total / rsum).collect();
    let ct: Vec<f64> = col_targets.iter().map(|v| v * total / csum).collect();
    let out = balance_with(&balanced, &rt, &ct, &bal_opts())?;
    if !out.is_converged() {
        return Err(MeasureError::BalanceDidNotConverge {
            residual: out.residual,
            iterations: out.iterations,
        });
    }
    Ecs::new(out.matrix)
}

/// Builds the balanced (standard-form) matrix with `spec.tma`, before any
/// marginal shaping.
fn balanced_with_tma(spec: &TargetSpec, seed: u64) -> Result<Matrix, MeasureError> {
    let (t, m) = (spec.tasks, spec.machines);
    if t < 2 || m < 2 {
        return Err(MeasureError::InvalidEnvironment {
            reason: "targeted generation needs at least 2 tasks and 2 machines".into(),
        });
    }
    for (name, v) in [("mph", spec.mph), ("tdh", spec.tdh)] {
        if !(v > 0.0 && v <= 1.0) {
            return Err(MeasureError::InvalidEnvironment {
                reason: format!("target {name} must be in (0, 1], got {v}"),
            });
        }
    }
    if !(0.0..=1.0).contains(&spec.tma) {
        return Err(MeasureError::InvalidEnvironment {
            reason: format!("target tma must be in [0, 1], got {}", spec.tma),
        });
    }
    if !(0.0..=1.0).contains(&spec.jitter) {
        return Err(MeasureError::InvalidEnvironment {
            reason: format!("jitter must be in [0, 1], got {}", spec.jitter),
        });
    }

    let u = uniform_anchor(t, m);
    let p = specialized_anchor(t, m)?;
    let max_tma = tma_of_balanced(&p)?;
    if spec.tma > max_tma {
        return Err(MeasureError::InvalidEnvironment {
            reason: format!(
                "target tma {} exceeds the maximum {:.6} achievable for a {}x{} environment",
                spec.tma, max_tma, t, m
            ),
        });
    }

    // Zero-affinity-ish base, optionally jittered.
    let base = if spec.jitter > 0.0 {
        let r = random_anchor(t, m, seed)?;
        Matrix::from_fn(t, m, |i, j| {
            (1.0 - spec.jitter) * u[(i, j)] + spec.jitter * r[(i, j)]
        })
    } else {
        u.clone()
    };
    let base_tma = tma_of_balanced(&base)?;

    // Pick the segment that brackets the target and bisect.
    if spec.tma >= base_tma {
        bisect_blend(&base, &p, spec.tma, 1e-9)
    } else {
        bisect_blend(&u, &base, spec.tma, 1e-9)
    }
}

/// Generates a `T × M` positive ECS matrix whose MPH, TDH, and TMA equal the
/// targets (MPH/TDH exact by construction; TMA within `1e-6`).
///
/// Deterministic for a given `(spec, seed)`; `seed` only matters when
/// `spec.jitter > 0`.
///
/// ```
/// use hc_gen::targeted::{targeted, TargetSpec};
/// use hc_core::measures::{mph, tdh};
///
/// let e = targeted(&TargetSpec::exact(6, 4, 0.8, 0.6, 0.25), 0).unwrap();
/// assert!((mph(&e).unwrap() - 0.8).abs() < 1e-6);
/// assert!((tdh(&e).unwrap() - 0.6).abs() < 1e-6);
/// ```
pub fn targeted(spec: &TargetSpec, seed: u64) -> Result<Ecs, MeasureError> {
    let mut obs = hc_obs::span("gen.targeted");
    hc_obs::obs_counter!("gen_targeted_total").inc();
    if obs.armed() {
        obs.field_u64("tasks", spec.tasks as u64);
        obs.field_u64("machines", spec.machines as u64);
        obs.field_f64("mph", spec.mph);
        obs.field_f64("tdh", spec.tdh);
        obs.field_f64("tma", spec.tma);
    }
    let balanced = balanced_with_tma(spec, seed)?;
    // Impose the MPH/TDH marginals (TMA is invariant under this step).
    let total = ((spec.tasks * spec.machines) as f64).sqrt();
    let row_targets = geometric_marginals(spec.tasks, spec.tdh, total);
    let col_targets = geometric_marginals(spec.machines, spec.mph, total);
    let out = balance_with(&balanced, &row_targets, &col_targets, &bal_opts())?;
    if !out.is_converged() {
        return Err(MeasureError::BalanceDidNotConverge {
            residual: out.residual,
            iterations: out.iterations,
        });
    }
    Ecs::new(out.matrix)
}

/// Exact 2×2 synthesis (used for the paper's Fig. 8 pairs).
///
/// The 2×2 standard form with row/column sums 1 is `[[p, 1−p], [1−p, p]]` with
/// singular values `{1, |2p−1|}`, so `p = (1 + tma)/2` gives TMA exactly; the
/// marginals are then imposed by a generalized balance. Requires `tma < 1`
/// (a 2×2 with TMA = 1 has zeros and its MPH/TDH cannot be chosen freely).
pub fn synth2x2(mph: f64, tdh: f64, tma: f64) -> Result<Ecs, MeasureError> {
    for (name, v) in [("mph", mph), ("tdh", tdh)] {
        if !(v > 0.0 && v <= 1.0) {
            return Err(MeasureError::InvalidEnvironment {
                reason: format!("target {name} must be in (0, 1], got {v}"),
            });
        }
    }
    if !(0.0..1.0).contains(&tma) {
        return Err(MeasureError::InvalidEnvironment {
            reason: format!("synth2x2 requires tma in [0, 1), got {tma}"),
        });
    }
    let p = (1.0 + tma) / 2.0;
    let s = Matrix::from_rows(&[&[p, 1.0 - p], &[1.0 - p, p]])?;
    let row_targets = geometric_marginals(2, tdh, 2.0);
    let col_targets = geometric_marginals(2, mph, 2.0);
    let out = balance_with(&s, &row_targets, &col_targets, &bal_opts())?;
    if !out.is_converged() {
        return Err(MeasureError::BalanceDidNotConverge {
            residual: out.residual,
            iterations: out.iterations,
        });
    }
    Ecs::new(out.matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_core::measures::{mph, tdh};
    use hc_core::standard::tma;
    use hc_linalg::svd::svd_with;

    fn assert_targets(e: &Ecs, want_mph: f64, want_tdh: f64, want_tma: f64, tol: f64) {
        let got_mph = mph(e).unwrap();
        let got_tdh = tdh(e).unwrap();
        let got_tma = tma(e).unwrap();
        assert!(
            (got_mph - want_mph).abs() < tol,
            "MPH {got_mph} vs {want_mph}"
        );
        assert!(
            (got_tdh - want_tdh).abs() < tol,
            "TDH {got_tdh} vs {want_tdh}"
        );
        assert!(
            (got_tma - want_tma).abs() < tol.max(1e-5),
            "TMA {got_tma} vs {want_tma}"
        );
    }

    #[test]
    fn hits_targets_square() {
        let spec = TargetSpec::exact(6, 6, 0.7, 0.5, 0.3);
        let e = targeted(&spec, 0).unwrap();
        assert_targets(&e, 0.7, 0.5, 0.3, 1e-6);
    }

    #[test]
    fn hits_targets_rectangular() {
        let spec = TargetSpec::exact(12, 5, 0.82, 0.90, 0.07);
        let e = targeted(&spec, 0).unwrap();
        assert_targets(&e, 0.82, 0.90, 0.07, 1e-6);
        assert_eq!(e.num_tasks(), 12);
        assert_eq!(e.num_machines(), 5);
    }

    #[test]
    fn zero_tma_is_rank_one() {
        let spec = TargetSpec::exact(5, 4, 0.6, 0.8, 0.0);
        let e = targeted(&spec, 0).unwrap();
        assert_targets(&e, 0.6, 0.8, 0.0, 1e-6);
        let s = svd_with(e.matrix(), SvdAlgorithm::Jacobi).unwrap();
        assert!(s.singular_values[1] / s.singular_values[0] < 1e-6);
    }

    #[test]
    fn jitter_varies_matrix_but_not_measures() {
        let spec = TargetSpec {
            jitter: 0.5,
            ..TargetSpec::exact(6, 5, 0.75, 0.65, 0.2)
        };
        let a = targeted(&spec, 1).unwrap();
        let b = targeted(&spec, 2).unwrap();
        assert!(
            a.matrix().max_abs_diff(b.matrix()) > 1e-6,
            "seeds must differ"
        );
        assert_targets(&a, 0.75, 0.65, 0.2, 1e-5);
        assert_targets(&b, 0.75, 0.65, 0.2, 1e-5);
        // Same seed → identical.
        let c = targeted(&spec, 1).unwrap();
        assert_eq!(a.matrix(), c.matrix());
    }

    #[test]
    fn extreme_homogeneity_targets() {
        let e = targeted(&TargetSpec::exact(4, 4, 1.0, 1.0, 0.5), 0).unwrap();
        assert_targets(&e, 1.0, 1.0, 0.5, 1e-6);
        let e = targeted(&TargetSpec::exact(4, 4, 0.05, 0.05, 0.1), 0).unwrap();
        assert_targets(&e, 0.05, 0.05, 0.1, 1e-6);
    }

    #[test]
    fn near_max_tma() {
        let spec = TargetSpec::exact(6, 3, 0.9, 0.9, 0.9);
        let e = targeted(&spec, 0).unwrap();
        assert_targets(&e, 0.9, 0.9, 0.9, 1e-5);
    }

    #[test]
    fn unreachable_tma_reports_maximum() {
        // TMA = 1 exactly requires zeros; the positive generator must refuse.
        let spec = TargetSpec::exact(4, 4, 0.9, 0.9, 1.0);
        let err = targeted(&spec, 0).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("maximum"), "message: {msg}");
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(targeted(&TargetSpec::exact(1, 4, 0.5, 0.5, 0.1), 0).is_err());
        assert!(targeted(&TargetSpec::exact(4, 4, 0.0, 0.5, 0.1), 0).is_err());
        assert!(targeted(&TargetSpec::exact(4, 4, 0.5, 1.5, 0.1), 0).is_err());
        assert!(targeted(&TargetSpec::exact(4, 4, 0.5, 0.5, -0.1), 0).is_err());
        let bad_jitter = TargetSpec {
            jitter: 2.0,
            ..TargetSpec::exact(4, 4, 0.5, 0.5, 0.1)
        };
        assert!(targeted(&bad_jitter, 0).is_err());
    }

    #[test]
    fn synth2x2_exact() {
        for (m, t, a) in [
            (0.31, 0.16, 0.05),
            (0.31, 0.05, 0.60),
            (0.9, 0.9, 0.0),
            (0.5, 0.5, 0.99),
        ] {
            let e = synth2x2(m, t, a).unwrap();
            assert_targets(&e, m, t, a, 1e-7);
        }
    }

    #[test]
    fn synth2x2_rejects_tma_one() {
        assert!(synth2x2(0.5, 0.5, 1.0).is_err());
        assert!(synth2x2(0.5, 0.5, -0.1).is_err());
        assert!(synth2x2(0.0, 0.5, 0.5).is_err());
    }

    #[test]
    fn custom_marginals_respected() {
        let spec = TargetSpec::exact(4, 3, 0.5, 0.5, 0.2);
        // Irregular marginals whose adjacent-ratio homogeneities we can compute.
        let rows = [1.0, 2.0, 2.5, 10.0];
        let cols = [3.0, 4.0, 9.0];
        let e = targeted_with_marginals(&spec, &rows, &cols, 0).unwrap();
        let want_tdh = hc_core::measures::adjacent_ratio_homogeneity(&rows).unwrap();
        let want_mph = hc_core::measures::adjacent_ratio_homogeneity(&cols).unwrap();
        assert!((tdh(&e).unwrap() - want_tdh).abs() < 1e-7);
        assert!((mph(&e).unwrap() - want_mph).abs() < 1e-7);
        assert!((tma(&e).unwrap() - 0.2).abs() < 1e-5);
        // Marginals are proportional to the requested vectors.
        let rs = e.matrix().row_sums();
        let k = rs[0] / rows[0];
        for (s, r) in rs.iter().zip(&rows) {
            assert!((s - r * k).abs() < 1e-7);
        }
    }

    #[test]
    fn custom_marginals_validation() {
        let spec = TargetSpec::exact(4, 3, 0.5, 0.5, 0.2);
        assert!(targeted_with_marginals(&spec, &[1.0; 3], &[1.0; 3], 0).is_err());
        assert!(targeted_with_marginals(&spec, &[1.0; 4], &[1.0; 2], 0).is_err());
    }

    #[test]
    fn geometric_marginals_have_exact_homogeneity() {
        let v = geometric_marginals(7, 0.43, 10.0);
        assert!((v.iter().sum::<f64>() - 10.0).abs() < 1e-12);
        let h = hc_core::measures::adjacent_ratio_homogeneity(&v).unwrap();
        assert!((h - 0.43).abs() < 1e-12);
        // Ascending.
        for w in v.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
