//! Matrix norms.

use crate::matrix::Matrix;
use crate::vecops;

/// Frobenius norm `sqrt(Σ aᵢⱼ²)`, computed with scaling to avoid overflow.
pub fn frobenius(m: &Matrix) -> f64 {
    vecops::norm2(m.as_slice())
}

/// Induced 1-norm: maximum absolute column sum.
pub fn one_norm(m: &Matrix) -> f64 {
    (0..m.cols())
        .map(|j| (0..m.rows()).map(|i| m[(i, j)].abs()).sum())
        .fold(0.0_f64, f64::max)
}

/// Induced ∞-norm: maximum absolute row sum.
pub fn inf_norm(m: &Matrix) -> f64 {
    m.row_iter().map(vecops::norm1).fold(0.0_f64, f64::max)
}

/// Largest absolute entry (the max norm).
pub fn max_abs(m: &Matrix) -> f64 {
    vecops::norm_inf(m.as_slice())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, -2.0], &[-3.0, 4.0]]).unwrap()
    }

    #[test]
    fn frobenius_matches_definition() {
        let m = sample();
        assert!((frobenius(&m) - 30.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(frobenius(&Matrix::zeros(3, 3)), 0.0);
    }

    #[test]
    fn one_norm_is_max_col_sum() {
        assert_eq!(one_norm(&sample()), 6.0);
    }

    #[test]
    fn inf_norm_is_max_row_sum() {
        assert_eq!(inf_norm(&sample()), 7.0);
    }

    #[test]
    fn max_abs_entry() {
        assert_eq!(max_abs(&sample()), 4.0);
    }

    #[test]
    fn norms_of_identity() {
        let i = Matrix::identity(4);
        assert_eq!(one_norm(&i), 1.0);
        assert_eq!(inf_norm(&i), 1.0);
        assert_eq!(max_abs(&i), 1.0);
        assert!((frobenius(&i) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn norm_inequalities_hold() {
        // ‖A‖₂ ≤ √(‖A‖₁ ‖A‖∞) and max|aij| ≤ ‖A‖F for any matrix.
        let m = sample();
        assert!(max_abs(&m) <= frobenius(&m) + 1e-15);
        assert!(frobenius(&m) <= (one_norm(&m) * inf_norm(&m)).sqrt() * 2.0_f64.sqrt());
    }
}
