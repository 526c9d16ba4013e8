//! Golub–Kahan Householder bidiagonalization.
//!
//! Reduces an `m × n` matrix with `m ≥ n` to upper-bidiagonal form
//! `A = U · B · Vᵀ`, where `U` is `m × n` with orthonormal columns, `V` is `n × n`
//! orthogonal, and `B` is upper bidiagonal (diagonal `d`, superdiagonal `e`). This is
//! stage one of the Golub–Reinsch SVD in [`crate::svd`].
//!
//! One reduction serves every caller. It applies each left reflector row by
//! row (`w = β·vᵀA` as one axpy per row, then `A −= v·wᵀ`), so no step
//! strides down a column of the row-major matrix, and it accumulates `U` and
//! `V` only when asked: [`bidiagonalize_in`] returns them, while the SVD's
//! values-only path ([`crate::svd::spectrum_in`]) keeps just `d` and `e`.
//! Every reflector lives in a pooled flat buffer, so a warm [`Workspace`]
//! makes the whole factorization allocation-free.

use crate::budget::Budget;
use crate::error::LinAlgError;
use crate::matrix::Matrix;
use crate::vecops;
use crate::view::MatRef;
use crate::workspace::Workspace;
use crate::Result;

/// Result of a bidiagonalization `A = U · B · Vᵀ`.
#[derive(Debug, Clone)]
pub struct Bidiag {
    /// Left orthonormal factor, `m × n`.
    pub u: Matrix,
    /// Right orthogonal factor, `n × n`.
    pub v: Matrix,
    /// Diagonal of `B`, length `n`.
    pub d: Vec<f64>,
    /// Superdiagonal of `B` (`e[j] = B[j, j+1]`), length `n − 1`.
    pub e: Vec<f64>,
}

impl Bidiag {
    /// Reassembles the bidiagonal matrix `B` (n × n).
    pub fn b_matrix(&self) -> Matrix {
        let n = self.d.len();
        let mut b = Matrix::zeros(n, n);
        for j in 0..n {
            b[(j, j)] = self.d[j];
            if j + 1 < n {
                b[(j, j + 1)] = self.e[j];
            }
        }
        b
    }

    /// Reconstructs `U · B · Vᵀ` (for testing).
    pub fn reconstruct(&self) -> Matrix {
        let ub = crate::matmul::matmul_naive(&self.u, &self.b_matrix()).expect("shape");
        crate::matmul::matmul_naive(&ub, &self.v.transpose()).expect("shape")
    }
}

/// `U` and `V` of a reduction or an SVD run, present only when the caller
/// asked for them.
pub(crate) type Factors = Option<(Matrix, Matrix)>;

/// Applies a left reflector `(v, β)` spanning rows `row0..row0 + v.len()` to
/// columns `col0..` of `a`, one contiguous row at a time: `w = β·vᵀA`
/// accumulates as an axpy per row, then each row takes `−v_k·w`. Each
/// column's dot product still sums its rows in order, so the result is
/// bit-identical to walking the columns. `w` is scratch of at least
/// `a.cols() − col0` entries.
fn apply_left_rows(a: &mut Matrix, v: &[f64], beta: f64, row0: usize, col0: usize, w: &mut [f64]) {
    if beta == 0.0 {
        return;
    }
    let w = &mut w[..a.cols() - col0];
    w.fill(0.0);
    for (off, &vk) in v.iter().enumerate() {
        vecops::axpy(vk, &a.row(row0 + off)[col0..], w);
    }
    vecops::scale(beta, w);
    for (off, &vk) in v.iter().enumerate() {
        vecops::axpy(-vk, w, &mut a.row_mut(row0 + off)[col0..]);
    }
}

/// Applies a right reflector `(v, β)` spanning columns `col0..col0 + v.len()`
/// to rows `row0..rows` of `a` (each row segment is contiguous).
fn apply_right_rows(a: &mut Matrix, v: &[f64], beta: f64, row0: usize, col0: usize) {
    if beta == 0.0 {
        return;
    }
    let m = a.rows();
    for i in row0..m {
        vecops::apply_reflector(v, beta, &mut a.row_mut(i)[col0..col0 + v.len()]);
    }
}

/// Bidiagonalizes `a` (requires `m ≥ n ≥ 1`). All scratch (the working copy,
/// the packed reflectors, and the accumulation targets) is checked out of
/// `ws`, and the returned factors are built from pooled buffers the caller may
/// hand back with [`Workspace::recycle_matrix`]/[`Workspace::recycle_vec`].
pub fn bidiagonalize_in(a: MatRef<'_>, ws: &mut Workspace) -> Result<Bidiag> {
    let (d, e, factors) = reduce_in(a, true, None, ws)?;
    let (u, v) = factors.expect("factors were requested");
    Ok(Bidiag { u, v, d, e })
}

/// The one Householder reduction behind [`bidiagonalize_in`] and the SVD:
/// returns `B`'s diagonal and superdiagonal, plus `(U, V)` when `factors` is
/// set. Polls `budget` once per column (op `golub-reinsch-bidiag`, with the
/// columns reduced so far as the iteration count); `None` polls nothing.
pub(crate) fn reduce_in(
    a: MatRef<'_>,
    factors: bool,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<(Vec<f64>, Vec<f64>, Factors)> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Err(LinAlgError::Empty {
            op: "bidiagonalize",
        });
    }
    if m < n {
        return Err(LinAlgError::ShapeMismatch {
            op: "bidiagonalize (needs m >= n)",
            lhs: (m, n),
            rhs: (n, m),
        });
    }
    a.check_finite("bidiagonalize")?;

    let mut work = ws.take_matrix(m, n, 0.0);
    work.view_mut().copy_from(a);

    // Reflector j's direction vector is packed flat: left reflectors span rows
    // j..m (length m − j), right reflectors span columns j+1..n (length
    // n − j − 1, present only while j + 2 < n).
    let left_total: usize = (0..n).map(|j| m - j).sum();
    let right_total: usize = (0..n.saturating_sub(2)).map(|j| n - j - 1).sum();
    let mut lv = ws.take_vec(left_total, 0.0);
    let mut rv = ws.take_vec(right_total, 0.0);
    let mut lbeta = ws.take_vec(n, 0.0);
    let mut rbeta = ws.take_vec(n, 0.0);
    let mut loffs = ws.take_idx(n);
    let mut roffs = ws.take_idx(n);
    let mut w = ws.take_vec(n, 0.0);

    let mut loff = 0usize;
    let mut roff = 0usize;
    for j in 0..n {
        if let Some(b) = budget {
            b.check("golub-reinsch-bidiag", j, f64::NAN)?;
        }
        // Left reflector: annihilate work[j+1.., j].
        let llen = m - j;
        loffs[j] = loff;
        let beta = {
            let slot = &mut lv[loff..loff + llen];
            for (off, s) in slot.iter_mut().enumerate() {
                *s = work[(j + off, j)];
            }
            let (beta, alpha) = vecops::householder_in_place(slot);
            work[(j, j)] = alpha;
            beta
        };
        lbeta[j] = beta;
        // The diagonal entry already holds α; the reflector must still see the
        // untouched column, so apply to the columns right of it, then zero the
        // annihilated tail. (Applying to column j itself and overwriting with α
        // — what the owned path historically did — produces the same matrix.)
        apply_left_rows(&mut work, &lv[loff..loff + llen], beta, j, j + 1, &mut w);
        for i in (j + 1)..m {
            work[(i, j)] = 0.0;
        }
        loff += llen;

        // Right reflector: annihilate work[j, j+2..].
        if j + 2 < n {
            let rlen = n - j - 1;
            roffs[j] = roff;
            let beta = {
                let slot = &mut rv[roff..roff + rlen];
                slot.copy_from_slice(&work.row(j)[j + 1..]);
                let (beta, alpha) = vecops::householder_in_place(slot);
                work[(j, j + 1)] = alpha;
                beta
            };
            rbeta[j] = beta;
            apply_right_rows(&mut work, &rv[roff..roff + rlen], beta, j + 1, j + 1);
            for k in (j + 2)..n {
                work[(j, k)] = 0.0;
            }
            roff += rlen;
        }
    }

    let factors = factors.then(|| {
        // Accumulate thin U: apply left reflectors in reverse to I(m×n).
        let mut u = ws.take_matrix(m, n, 0.0);
        for j in 0..n {
            u[(j, j)] = 1.0;
        }
        for j in (0..n).rev() {
            let v = &lv[loffs[j]..loffs[j] + (m - j)];
            apply_left_rows(&mut u, v, lbeta[j], j, 0, &mut w);
        }

        // Accumulate V: apply right reflectors in reverse to I(n×n).
        // Right reflector j acts on rows/cols (j+1)..n of the V space; applying
        // from the left accumulates V = H_r0 · H_r1 · … (each H is symmetric).
        let mut v = ws.take_identity(n);
        for j in (0..n.saturating_sub(2)).rev() {
            let r = &rv[roffs[j]..roffs[j] + (n - j - 1)];
            apply_left_rows(&mut v, r, rbeta[j], j + 1, 0, &mut w);
        }
        (u, v)
    });

    let mut d = ws.take_vec(n, 0.0);
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = work[(j, j)];
    }
    let mut e = ws.take_vec(n - 1, 0.0);
    for (j, ej) in e.iter_mut().enumerate() {
        *ej = work[(j, j + 1)];
    }

    ws.recycle_matrix(work);
    ws.recycle_vec(lv);
    ws.recycle_vec(rv);
    ws.recycle_vec(lbeta);
    ws.recycle_vec(rbeta);
    ws.recycle_vec(w);
    ws.recycle_idx(loffs);
    ws.recycle_idx(roffs);
    Ok((d, e, factors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::matmul_naive;

    fn bidiag_of(a: &Matrix) -> Result<Bidiag> {
        bidiagonalize_in(a.view(), &mut Workspace::new())
    }

    fn assert_orthonormal_cols(q: &Matrix, tol: f64) {
        let g = matmul_naive(&q.transpose(), q).unwrap();
        assert!(
            g.max_abs_diff(&Matrix::identity(q.cols())) < tol,
            "QᵀQ != I\n{g:?}"
        );
    }

    fn check(a: &Matrix) {
        let bd = bidiag_of(a).unwrap();
        assert_orthonormal_cols(&bd.u, 1e-11);
        assert_orthonormal_cols(&bd.v, 1e-11);
        let rec = bd.reconstruct();
        assert!(
            rec.max_abs_diff(a) < 1e-10,
            "reconstruction failed:\nA = {a:?}\nrec = {rec:?}"
        );
        // B must be upper bidiagonal: checked implicitly by reconstruct using only d, e.
    }

    #[test]
    fn square_3x3() {
        check(
            &Matrix::from_rows(&[&[4.0, 1.0, -2.0], &[2.0, 5.0, 3.0], &[-1.0, 2.0, 6.0]]).unwrap(),
        );
    }

    #[test]
    fn tall_5x3() {
        let a = Matrix::from_fn(5, 3, |i, j| ((i * 7 + j * 13 + 5) % 11) as f64 - 5.0);
        check(&a);
    }

    #[test]
    fn tall_17x5_paper_scale() {
        let a = Matrix::from_fn(17, 5, |i, j| 1.0 + ((i * 31 + j * 17) % 23) as f64 / 23.0);
        check(&a);
    }

    #[test]
    fn single_column() {
        let a = Matrix::from_rows(&[&[3.0], &[4.0]]).unwrap();
        let bd = bidiag_of(&a).unwrap();
        assert!((bd.d[0].abs() - 5.0).abs() < 1e-12);
        assert!(bd.e.is_empty());
        check(&a);
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[&[-7.0]]).unwrap();
        let bd = bidiag_of(&a).unwrap();
        assert!((bd.d[0].abs() - 7.0).abs() < 1e-12);
        check(&a);
    }

    #[test]
    fn already_bidiagonal_preserved_up_to_sign() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[0.0, 3.0, 0.5], &[0.0, 0.0, 4.0]]).unwrap();
        check(&a);
    }

    #[test]
    fn wide_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            bidiag_of(&a),
            Err(LinAlgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            bidiag_of(&Matrix::zeros(0, 0)),
            Err(LinAlgError::Empty { .. })
        ));
    }

    #[test]
    fn zero_matrix_ok() {
        let a = Matrix::zeros(4, 3);
        let bd = bidiag_of(&a).unwrap();
        assert!(bd.d.iter().all(|&v| v == 0.0));
        check(&a);
    }

    #[test]
    fn warm_workspace_reuses_buffers() {
        let a = Matrix::from_fn(6, 4, |i, j| ((i * 5 + j * 3 + 1) % 13) as f64 - 6.0);
        let mut ws = Workspace::new();
        let cold = bidiagonalize_in(a.view(), &mut ws).unwrap();
        ws.recycle_matrix(cold.u);
        ws.recycle_matrix(cold.v);
        ws.recycle_vec(cold.d);
        ws.recycle_vec(cold.e);
        ws.reset_stats();
        let warm = bidiagonalize_in(a.view(), &mut ws).unwrap();
        assert_eq!(ws.stats().fresh, 0, "warm run must not allocate");
        let owned = bidiag_of(&a).unwrap();
        assert_eq!(warm.u, owned.u);
        assert_eq!(warm.v, owned.v);
        assert_eq!(warm.d, owned.d);
        assert_eq!(warm.e, owned.e);
    }

    #[test]
    fn b_matrix_layout() {
        let bd = Bidiag {
            u: Matrix::identity(3),
            v: Matrix::identity(3),
            d: vec![1.0, 2.0, 3.0],
            e: vec![0.5, 0.25],
        };
        let b = bd.b_matrix();
        assert_eq!(b[(0, 0)], 1.0);
        assert_eq!(b[(0, 1)], 0.5);
        assert_eq!(b[(1, 2)], 0.25);
        assert_eq!(b[(2, 1)], 0.0);
        assert_eq!(b[(1, 0)], 0.0);
    }
}
