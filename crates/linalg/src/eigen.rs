//! Symmetric eigensolver and power iteration.
//!
//! These are cross-validation tools: the TMA measure is defined through singular
//! values, and the test suites verify the SVD implementations against the
//! eigendecomposition of `AᵀA` and against power iteration on `σ₁`.

use crate::error::LinAlgError;
use crate::matmul::gram;
use crate::matrix::Matrix;
use crate::vecops;
use crate::Result;

/// Eigendecomposition of a symmetric matrix: `A = Q · diag(λ) · Qᵀ`.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors as columns, matching `values` order.
    pub vectors: Matrix,
}

/// Maximum cyclic Jacobi sweeps.
const JACOBI_EIG_MAX_SWEEPS: usize = 64;

/// Cyclic Jacobi eigendecomposition for symmetric matrices.
///
/// Returns eigenvalues in descending order with matching eigenvector columns.
/// The input must be symmetric within `sym_tol` (absolute).
pub fn sym_eigen(a: &Matrix, sym_tol: f64) -> Result<SymEigen> {
    if a.is_empty() {
        return Err(LinAlgError::Empty { op: "sym_eigen" });
    }
    if !a.is_square() {
        return Err(LinAlgError::ShapeMismatch {
            op: "sym_eigen",
            lhs: a.shape(),
            rhs: (a.cols(), a.rows()),
        });
    }
    a.check_finite("sym_eigen")?;
    let n = a.rows();
    for i in 0..n {
        for j in (i + 1)..n {
            if (a[(i, j)] - a[(j, i)]).abs() > sym_tol {
                return Err(LinAlgError::ShapeMismatch {
                    op: "sym_eigen (asymmetric input)",
                    lhs: (i, j),
                    rhs: (j, i),
                });
            }
        }
    }

    let mut w = a.clone();
    let mut q = Matrix::identity(n);
    let eps = f64::EPSILON;
    let scale = crate::norms::max_abs(a).max(f64::MIN_POSITIVE);

    for _sweep in 0..JACOBI_EIG_MAX_SWEEPS {
        let mut off: f64 = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off = off.max(w[(i, j)].abs());
            }
        }
        if off <= eps * scale {
            break;
        }
        for p in 0..n {
            for qi in (p + 1)..n {
                let apq = w[(p, qi)];
                if apq.abs() <= eps * scale * 1e-2 {
                    continue;
                }
                let app = w[(p, p)];
                let aqq = w[(qi, qi)];
                let tau = (aqq - app) / (2.0 * apq);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                // W ← JᵀWJ applied to rows/cols p, qi.
                for k in 0..n {
                    let wkp = w[(k, p)];
                    let wkq = w[(k, qi)];
                    w[(k, p)] = c * wkp - s * wkq;
                    w[(k, qi)] = s * wkp + c * wkq;
                }
                for k in 0..n {
                    let wpk = w[(p, k)];
                    let wqk = w[(qi, k)];
                    w[(p, k)] = c * wpk - s * wqk;
                    w[(qi, k)] = s * wpk + c * wqk;
                }
                for k in 0..n {
                    let qkp = q[(k, p)];
                    let qkq = q[(k, qi)];
                    q[(k, p)] = c * qkp - s * qkq;
                    q[(k, qi)] = s * qkp + c * qkq;
                }
            }
        }
    }

    let mut vals: Vec<f64> = (0..n).map(|i| w[(i, i)]).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| vals[y].partial_cmp(&vals[x]).expect("NaN eigenvalue"));
    let sorted: Vec<f64> = order.iter().map(|&i| vals[i]).collect();
    vals = sorted;
    let vectors = q.permute_cols(&order)?;
    Ok(SymEigen {
        values: vals,
        vectors,
    })
}

/// Estimates `σ₁(A)` by power iteration on the implicit `AᵀA` (never forming it).
///
/// Deterministic start vector; `max_iters` iterations or until the Rayleigh
/// quotient stabilizes within `tol` relatively.
pub fn power_iteration_sigma_max(a: &Matrix, max_iters: usize, tol: f64) -> f64 {
    let n = a.cols();
    if n == 0 || a.rows() == 0 {
        return 0.0;
    }
    // Deterministic, non-degenerate start: decaying positive entries.
    let mut v: Vec<f64> = (0..n).map(|j| 1.0 / (1.0 + j as f64)).collect();
    vecops::normalize(&mut v);
    let mut sigma = 0.0_f64;
    for _ in 0..max_iters {
        let av = a.matvec(&v).expect("shape");
        let mut atav = a.vecmat(&av).expect("shape");
        let new_sigma = vecops::norm2(&atav).sqrt();
        if vecops::normalize(&mut atav) == 0.0 {
            return 0.0;
        }
        v = atav;
        if (new_sigma - sigma).abs() <= tol * new_sigma.max(1e-300) {
            return new_sigma;
        }
        sigma = new_sigma;
    }
    sigma
}

/// Singular values of `a` via the eigenvalues of `AᵀA` (for cross-checks only —
/// squares the condition number, so accuracy on small σ is poor by design).
pub fn singular_values_via_gram(a: &Matrix) -> Result<Vec<f64>> {
    let g = gram(a);
    let eig = sym_eigen(&g, 1e-9 * crate::norms::max_abs(&g).max(1.0))?;
    Ok(eig.values.iter().map(|&l| l.max(0.0).sqrt()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::matmul_naive;

    #[test]
    fn diagonal_eigen() {
        let a = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let e = sym_eigen(&a, 0.0).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 2.0).abs() < 1e-12);
        assert!((e.values[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2_eigen() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let e = sym_eigen(&a, 0.0).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
        // Eigenvector for λ=3 is (1,1)/√2 up to sign.
        let v0 = e.vectors.col(0);
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v0[0] - v0[1]).abs() < 1e-10 || (v0[0] + v0[1]).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_and_orthogonality() {
        let a =
            Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, -1.0], &[0.5, -1.0, 2.0]]).unwrap();
        let e = sym_eigen(&a, 0.0).unwrap();
        let qt = e.vectors.transpose();
        let lam = Matrix::from_diag(&e.values);
        let rec = matmul_naive(&matmul_naive(&e.vectors, &lam).unwrap(), &qt).unwrap();
        assert!(rec.max_abs_diff(&a) < 1e-10);
        let g = matmul_naive(&qt, &e.vectors).unwrap();
        assert!(g.max_abs_diff(&Matrix::identity(3)) < 1e-10);
    }

    #[test]
    fn asymmetric_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(sym_eigen(&a, 1e-12).is_err());
    }

    #[test]
    fn non_square_rejected() {
        assert!(sym_eigen(&Matrix::zeros(2, 3), 0.0).is_err());
        assert!(sym_eigen(&Matrix::zeros(0, 0), 0.0).is_err());
    }

    #[test]
    fn power_iteration_matches_svd() {
        let a = Matrix::from_fn(7, 4, |i, j| {
            ((i * 13 + j * 29 + 1) % 17) as f64 / 17.0 + 0.1
        });
        let s = crate::svd::svd(&a).unwrap();
        let p = power_iteration_sigma_max(&a, 5000, 1e-13);
        assert!((s.singular_values[0] - p).abs() < 1e-8 * p);
    }

    #[test]
    fn power_iteration_zero_matrix() {
        assert_eq!(
            power_iteration_sigma_max(&Matrix::zeros(3, 3), 100, 1e-10),
            0.0
        );
    }

    #[test]
    fn gram_route_matches_svd_on_well_conditioned() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0], &[0.0, 1.0]]).unwrap();
        let via_gram = singular_values_via_gram(&a).unwrap();
        let via_svd = crate::svd::svd(&a).unwrap().singular_values;
        for (x, y) in via_gram.iter().zip(&via_svd) {
            assert!((x - y).abs() < 1e-8 * (1.0 + y), "{x} vs {y}");
        }
    }

    #[test]
    fn negative_eigenvalues_handled() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let e = sym_eigen(&a, 0.0).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] + 1.0).abs() < 1e-12);
    }
}
