//! LU decomposition with partial pivoting, linear solves, determinant, inverse.
//!
//! Rounds out the dense substrate: the measure stack itself only needs the SVD,
//! but a downstream adopter of the linalg crate expects solves — and the test
//! suites use `inverse` to cross-check the SVD-based pseudoinverse on square
//! nonsingular inputs.

use crate::error::LinAlgError;
use crate::matrix::Matrix;
use crate::Result;

/// An LU factorization `P·A = L·U` with partial pivoting.
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed factors: `U` on and above the diagonal, `L` (unit diagonal) below.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the source row of pivoted row `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (±1), for the determinant.
    sign: f64,
}

/// Factorizes a square matrix. Singular (to machine precision) matrices are
/// rejected with [`LinAlgError::Singular`].
pub fn lu(a: &Matrix) -> Result<Lu> {
    if a.is_empty() {
        return Err(LinAlgError::Empty { op: "lu" });
    }
    if !a.is_square() {
        return Err(LinAlgError::ShapeMismatch {
            op: "lu",
            lhs: a.shape(),
            rhs: (a.cols(), a.rows()),
        });
    }
    a.check_finite("lu")?;
    let n = a.rows();
    let mut m = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut sign = 1.0;
    let scale = crate::norms::max_abs(a).max(f64::MIN_POSITIVE);

    for k in 0..n {
        // Partial pivot: largest |entry| in column k at or below the diagonal.
        let mut piv = k;
        for i in (k + 1)..n {
            if m[(i, k)].abs() > m[(piv, k)].abs() {
                piv = i;
            }
        }
        if m[(piv, k)].abs() <= f64::EPSILON * scale * n as f64 {
            return Err(LinAlgError::Singular { op: "lu" });
        }
        if piv != k {
            for j in 0..n {
                let tmp = m[(k, j)];
                m[(k, j)] = m[(piv, j)];
                m[(piv, j)] = tmp;
            }
            perm.swap(k, piv);
            sign = -sign;
        }
        let pivot = m[(k, k)];
        for i in (k + 1)..n {
            let f = m[(i, k)] / pivot;
            m[(i, k)] = f;
            for j in (k + 1)..n {
                m[(i, j)] -= f * m[(k, j)];
            }
        }
    }
    Ok(Lu { lu: m, perm, sign })
}

impl Lu {
    /// Solves `A·x = b`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(LinAlgError::ShapeMismatch {
                op: "lu solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Forward substitution on the permuted rhs.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[self.perm[i]];
            for (j, &yj) in y.iter().enumerate().take(i) {
                s -= self.lu[(i, j)] * yj;
            }
            y[i] = s;
        }
        // Back substitution.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                s -= self.lu[(i, j)] * xj;
            }
            x[i] = s / self.lu[(i, i)];
        }
        Ok(x)
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        let n = self.lu.rows();
        let mut d = self.sign;
        for i in 0..n {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Inverse of the original matrix (column-by-column solves).
    pub fn inverse(&self) -> Result<Matrix> {
        let n = self.lu.rows();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = self.solve(&e)?;
            for (i, v) in col.into_iter().enumerate() {
                inv[(i, j)] = v;
            }
            e[j] = 0.0;
        }
        Ok(inv)
    }
}

/// Convenience: solves `A·x = b` in one call.
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    lu(a)?.solve(b)
}

/// Convenience: determinant of a square matrix (0 is reported for singular
/// inputs rather than an error).
pub fn det(a: &Matrix) -> Result<f64> {
    match lu(a) {
        Ok(f) => Ok(f.det()),
        Err(LinAlgError::Singular { .. }) => Ok(0.0),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::matmul_naive;

    #[test]
    fn solve_known_system() {
        // [[2, 1], [1, 3]] x = [3, 5] → x = [4/5, 7/5].
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = solve(&a, &[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn determinant_values() {
        assert!((det(&Matrix::identity(4)).unwrap() - 1.0).abs() < 1e-12);
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        assert!((det(&a).unwrap() - 5.0).abs() < 1e-12);
        // Permutation sign: swapping rows flips the determinant.
        let swapped = a.permute_rows(&[1, 0]).unwrap();
        assert!((det(&swapped).unwrap() + 5.0).abs() < 1e-12);
        // Singular → 0.
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert_eq!(det(&s).unwrap(), 0.0);
    }

    #[test]
    fn inverse_round_trip() {
        let a =
            Matrix::from_rows(&[&[4.0, 1.0, 2.0], &[2.0, 5.0, -1.0], &[1.0, -2.0, 6.0]]).unwrap();
        let inv = lu(&a).unwrap().inverse().unwrap();
        let prod = matmul_naive(&a, &inv).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(3)) < 1e-12);
    }

    #[test]
    fn inverse_matches_pseudo_inverse_on_nonsingular() {
        let a = Matrix::from_fn(4, 4, |i, j| {
            if i == j {
                3.0 + i as f64
            } else {
                1.0 / (1.0 + (i + j) as f64)
            }
        });
        let inv = lu(&a).unwrap().inverse().unwrap();
        let pinv = crate::lowrank::pseudo_inverse(&a, 1e-13).unwrap();
        assert!(inv.max_abs_diff(&pinv) < 1e-9);
    }

    #[test]
    fn det_matches_singular_value_product() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]).unwrap();
        let d = det(&a).unwrap().abs();
        let s = crate::svd::svd(&a).unwrap().singular_values;
        assert!((d - s[0] * s[1]).abs() < 1e-10);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(lu(&Matrix::zeros(0, 0)).is_err());
        assert!(lu(&Matrix::zeros(2, 3)).is_err());
        assert!(matches!(
            lu(&Matrix::zeros(3, 3)),
            Err(LinAlgError::Singular { .. })
        ));
        let mut nan = Matrix::identity(2);
        nan[(0, 1)] = f64::NAN;
        assert!(lu(&nan).is_err());
        let a = Matrix::identity(2);
        assert!(lu(&a).unwrap().solve(&[1.0]).is_err());
    }

    #[test]
    fn solve_random_consistency() {
        // A·x recovered for a deterministic pseudo-random A and x.
        let a = Matrix::from_fn(6, 6, |i, j| {
            if i == j {
                10.0
            } else {
                ((i * 7 + j * 3) % 5) as f64 - 2.0
            }
        });
        let x_true: Vec<f64> = (0..6).map(|k| (k as f64) - 2.5).collect();
        let b = a.matvec(&x_true).unwrap();
        let x = solve(&a, &b).unwrap();
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-10);
        }
    }
}
