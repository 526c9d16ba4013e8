//! Golub–Kahan Householder bidiagonalization.
//!
//! Reduces an `m × n` matrix with `m ≥ n` to upper-bidiagonal form
//! `A = U · B · Vᵀ`, where `U` is `m × n` with orthonormal columns, `V` is `n × n`
//! orthogonal, and `B` is upper bidiagonal (diagonal `d`, superdiagonal `e`). This is
//! stage one of the Golub–Reinsch SVD in [`crate::svd`].
//!
//! One reduction serves every caller, and each column costs it one read
//! sweep and one write sweep of the row-major trailing matrix, in the spirit
//! of LAPACK's fused one-sided updates (Dongarra, Sorensen & Hammarling,
//! 1989). Sweep 1 reads the rows to form `w = β·vᵀA` for the left reflector
//! `v`, four rows per pass over `w`, adding each column's rows in order.
//! Row `j` minus `w` then yields the right reflector `u`, and sweep 2 applies
//! both reflectors to every lower row as one rank-2 update,
//! `aᵢ ← aᵢ − vᵢ·w − β_r·(aᵢᵀu − vᵢ·wᵀu)·u`, two rows per pass, collecting
//! the next column's reflector as it writes, so nothing strides down a
//! column. The right reflector's dot products thus read each row before its
//! left update, so `B` matches a reduction that applies the reflectors one
//! after the other only up to rounding: the singular values agree to a few
//! ulps of σ₁, while `d` and `e` past the numerical rank may differ.
//!
//! The reduction's arithmetic never depends on whether `U` and `V` are
//! wanted, so both SVD entry points share one reduction. [`bidiagonalize_in`]
//! keeps every reflector in pooled flat buffers and accumulates the factors
//! afterwards; the SVD's values-only path ([`crate::svd::spectrum_in`]) keeps
//! just `d` and `e` and never allocates the reflector store. A warm
//! [`Workspace`] makes either allocation-free.

use crate::budget::Budget;
use crate::error::LinAlgError;
use crate::isa;
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

/// Sweep 1: `w = vᵀA` over rows `row0..row0 + v.len()` and the last
/// `w.len()` columns of `a`, four rows per pass over `w`. Each entry adds its
/// rows in order, exactly as one axpy per row would.
#[inline(always)]
fn reflect_rows(a: &Matrix, v: &[f64], row0: usize, w: &mut [f64]) {
    let n = a.cols();
    let col0 = n - w.len();
    let rows = &a.as_slice()[row0 * n..(row0 + v.len()) * n];
    w.fill(0.0);
    let mut quads = rows.chunks_exact(4 * n);
    let mut vs = v.chunks_exact(4);
    for (quad, vk) in (&mut quads).zip(&mut vs) {
        // Held in registers: inlined, `w` could alias `v` as far as LLVM
        // knows, and a reload per entry keeps the loop from vectorizing.
        let (v0, v1, v2, v3) = (vk[0], vk[1], vk[2], vk[3]);
        let (r0, rest) = quad.split_at(n);
        let (r1, rest) = rest.split_at(n);
        let (r2, r3) = rest.split_at(n);
        let lanes = w
            .iter_mut()
            .zip(&r0[col0..])
            .zip(&r1[col0..])
            .zip(&r2[col0..])
            .zip(&r3[col0..]);
        for ((((wc, a0), a1), a2), a3) in lanes {
            *wc = (((*wc + v0 * a0) + v1 * a1) + v2 * a2) + v3 * a3;
        }
    }
    for (row, &vk) in quads.remainder().chunks_exact(n).zip(vs.remainder()) {
        vecops::axpy(vk, &row[col0..], w);
    }
}

/// Sweep 2: applies the left reflector's tail `v` (with `w = β·vᵀA` from
/// sweep 1) and the right reflector `(u, rbeta)` to rows `row0..` over the
/// last `w.len()` columns of `a`, as the rank-2 update
/// `aᵢ ← aᵢ − vᵢ·w − rbeta·(aᵢᵀu − vᵢ·wᵀu)·u`, two rows per pass. Each
/// updated row's first entry — the next column's — lands in `next`.
#[inline(always)]
fn update_rows(
    a: &mut Matrix,
    v: &[f64],
    w: &[f64],
    u: &[f64],
    rbeta: f64,
    row0: usize,
    next: &mut [f64],
) {
    let n = a.cols();
    let col0 = n - w.len();
    let wu = if rbeta == 0.0 { 0.0 } else { vecops::dot(w, u) };
    // The right reflector's coefficient for a row, from its entries before
    // the left update.
    let coef = |row: &[f64], vi: f64| {
        if rbeta == 0.0 {
            0.0
        } else {
            rbeta * (vecops::dot(row, u) - vi * wu)
        }
    };
    let rows = &mut a.as_mut_slice()[row0 * n..];
    let mut pairs = rows.chunks_exact_mut(2 * n);
    let mut vs = v.chunks_exact(2);
    let mut outs = next.chunks_exact_mut(2);
    for ((pair, vp), out) in (&mut pairs).zip(&mut vs).zip(&mut outs) {
        let (r0, r1) = pair.split_at_mut(n);
        let (r0, r1) = (&mut r0[col0..], &mut r1[col0..]);
        let (v0, v1) = (vp[0], vp[1]);
        let (s0, s1) = (coef(r0, v0), coef(r1, v1));
        for (((a0, a1), wc), uc) in r0.iter_mut().zip(r1.iter_mut()).zip(w).zip(u) {
            *a0 = *a0 - v0 * wc - s0 * uc;
            *a1 = *a1 - v1 * wc - s1 * uc;
        }
        out[0] = r0[0];
        out[1] = r1[0];
    }
    for ((row, &vi), out) in pairs
        .into_remainder()
        .chunks_exact_mut(n)
        .zip(vs.remainder())
        .zip(outs.into_remainder())
    {
        let r = &mut row[col0..];
        let s = coef(r, vi);
        for ((ac, wc), uc) in r.iter_mut().zip(w).zip(u) {
            *ac = *ac - vi * wc - s * uc;
        }
        *out = r[0];
    }
}

/// Applies the left reflector `(v, β)` spanning rows `row0..row0 + v.len()`
/// to columns `col0..` of `a`: `w = β·vᵀA` by sweep 1, then each row takes
/// `−v_k·w`. `w` is scratch of at least `a.cols() − col0` entries.
fn apply_left(a: &mut Matrix, v: &[f64], beta: f64, row0: usize, col0: usize, w: &mut [f64]) {
    if beta == 0.0 {
        return;
    }
    let w = &mut w[..a.cols() - col0];
    reflect_rows(a, v, row0, w);
    vecops::scale(beta, w);
    for (off, &vk) in v.iter().enumerate() {
        vecops::axpy(-vk, w, &mut a.row_mut(row0 + off)[col0..]);
    }
}

/// Every reflector of a reduction, kept only when `U` and `V` are wanted.
/// Left reflector `j` spans rows `j..m` and right reflector `j` columns
/// `j + 1..n` (present only while `j + 2 < n`); each is packed flat after
/// its predecessors.
struct Reflectors {
    left: Vec<f64>,
    right: Vec<f64>,
    lbeta: Vec<f64>,
    rbeta: Vec<f64>,
    loff: usize,
    roff: usize,
}

impl Reflectors {
    fn take(m: usize, n: usize, ws: &mut Workspace) -> Self {
        let left_total: usize = (0..n).map(|j| m - j).sum();
        let right_total: usize = (0..n.saturating_sub(2)).map(|j| n - j - 1).sum();
        Reflectors {
            left: ws.take_vec(left_total, 0.0),
            right: ws.take_vec(right_total, 0.0),
            lbeta: ws.take_vec(n, 0.0),
            rbeta: ws.take_vec(n.saturating_sub(2), 0.0),
            loff: 0,
            roff: 0,
        }
    }

    fn push_left(&mut self, j: usize, v: &[f64], beta: f64) {
        self.left[self.loff..self.loff + v.len()].copy_from_slice(v);
        self.loff += v.len();
        self.lbeta[j] = beta;
    }

    fn push_right(&mut self, j: usize, u: &[f64], beta: f64) {
        self.right[self.roff..self.roff + u.len()].copy_from_slice(u);
        self.roff += u.len();
        self.rbeta[j] = beta;
    }

    /// Accumulates thin `U` (`m × n`) and `V` (`n × n`) by applying the
    /// reflectors in reverse to the identity, and hands the store back to
    /// `ws`. Reflector `j` leaves the identity's columns left of its span
    /// untouched, so each application starts at its own first column.
    fn accumulate(self, m: usize, n: usize, w: &mut [f64], ws: &mut Workspace) -> (Matrix, Matrix) {
        let mut u = ws.take_matrix(m, n, 0.0);
        for j in 0..n {
            u[(j, j)] = 1.0;
        }
        let mut off = self.left.len();
        for j in (0..n).rev() {
            off -= m - j;
            let v = &self.left[off..off + (m - j)];
            apply_left(&mut u, v, self.lbeta[j], j, j, w);
        }

        // Right reflector j acts on rows/cols (j+1)..n of the V space;
        // applying from the left accumulates V = H_r0 · H_r1 · … (each H is
        // symmetric).
        let mut v = ws.take_identity(n);
        let mut off = self.right.len();
        for j in (0..n.saturating_sub(2)).rev() {
            off -= n - j - 1;
            let r = &self.right[off..off + (n - j - 1)];
            apply_left(&mut v, r, self.rbeta[j], j + 1, j + 1, w);
        }

        ws.recycle_vec(self.left);
        ws.recycle_vec(self.right);
        ws.recycle_vec(self.lbeta);
        ws.recycle_vec(self.rbeta);
        (u, v)
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

/// Reductions with at least this many columns run their column loop in the
/// AVX2 frame ([`isa::wide`]) when the CPU has it. A same-binary comparison
/// of the two frames on this reduction (medians of nine alternating runs on
/// a 2-vCPU Xeon): 17×5 took 2.3 µs in the baseline frame and 2.7 µs in the
/// AVX2 frame, 32×32 took 34 and 35 µs, and 48² to 256² took 0.68–0.84× as
/// long in the AVX2 frame.
const WIDE_MIN_COLS: usize = 32;

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
    let mut d = ws.take_vec(n, 0.0);
    let mut e = ws.take_vec(n - 1, 0.0);
    // `x` holds column j's entries on rows j..m, which become its left
    // reflector; sweep 2 collects column j + 1's into `next`.
    let mut x = ws.take_vec(m, 0.0);
    let mut next = ws.take_vec(m, 0.0);
    let mut u = ws.take_vec(n, 0.0);
    let mut w = ws.take_vec(n, 0.0);
    let mut store = factors.then(|| Reflectors::take(m, n, ws));
    let scratch = [&mut x[..], &mut next[..], &mut u[..], &mut w[..]];
    let reduced = if n >= WIDE_MIN_COLS {
        isa::wide(
            #[inline(always)]
            || reduce_columns(&mut work, (&mut d, &mut e), store.as_mut(), budget, scratch),
        )
    } else {
        reduce_columns(&mut work, (&mut d, &mut e), store.as_mut(), budget, scratch)
    };
    reduced?;

    let factors = store.map(|s| s.accumulate(m, n, &mut w, ws));
    ws.recycle_matrix(work);
    ws.recycle_vec(x);
    ws.recycle_vec(next);
    ws.recycle_vec(u);
    ws.recycle_vec(w);
    Ok((d, e, factors))
}

/// The column loop of [`reduce_in`]: reduces `work` (`m × n`, `m ≥ n ≥ 1`)
/// in place, writing `B`'s diagonal to `d` (`n` entries) and superdiagonal
/// to `e` (`n − 1`), and every reflector to `store` when it is given. The
/// scratch `[x, next, u, w]` holds `m`, `m`, `n` and `n` entries. Always
/// inlined, so it is compiled into whichever instruction-set frame calls it.
#[inline(always)]
fn reduce_columns(
    work: &mut Matrix,
    (d, e): (&mut [f64], &mut [f64]),
    mut store: Option<&mut Reflectors>,
    budget: Option<&Budget>,
    [mut x, mut next, u, w]: [&mut [f64]; 4],
) -> Result<()> {
    let (m, n) = work.shape();
    for (xi, row) in x.iter_mut().zip(work.row_iter()) {
        *xi = row[0];
    }

    for j in 0..n {
        if let Some(b) = budget {
            b.check("golub-reinsch-bidiag", j, f64::NAN)?;
        }
        // Left reflector: annihilates column j below the diagonal.
        let v = &mut x[..m - j];
        let (beta, alpha) = vecops::householder_in_place(v);
        d[j] = alpha;
        if let Some(s) = store.as_mut() {
            s.push_left(j, v, beta);
        }
        let k = n - j - 1;
        if k == 0 {
            break;
        }
        let w = &mut w[..k];
        if beta == 0.0 {
            w.fill(0.0);
        } else {
            reflect_rows(work, v, j, w);
            vecops::scale(beta, w);
        }
        // Row j after the left update (v₀ = 1) is the right reflector's
        // source; it annihilates row j right of the superdiagonal.
        let u = &mut u[..k];
        for ((uc, ac), wc) in u.iter_mut().zip(&work.row(j)[j + 1..]).zip(w.iter()) {
            *uc = ac - wc;
        }
        let rbeta = if k >= 2 {
            let (rbeta, ralpha) = vecops::householder_in_place(u);
            e[j] = ralpha;
            if let Some(s) = store.as_mut() {
                s.push_right(j, u, rbeta);
            }
            rbeta
        } else {
            e[j] = u[0];
            0.0
        };
        update_rows(work, &v[1..], w, u, rbeta, j + 1, &mut next[..m - j - 1]);
        std::mem::swap(&mut x, &mut next);
    }
    Ok(())
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

    /// A seeded `m × n` matrix with entries in `[-1, 1)` (SplitMix64).
    fn seeded(m: usize, n: usize, seed: u64) -> Matrix {
        let mut state = seed;
        Matrix::from_fn(m, n, |_, _| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        })
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// The bits of `d` and `e` after `run` reduces a copy of `a` with
    /// [`reduce_columns`]'s buffers.
    fn columns_of(
        a: &Matrix,
        run: impl FnOnce(&mut Matrix, (&mut [f64], &mut [f64]), [&mut [f64]; 4]) -> Result<()>,
    ) -> (Vec<u64>, Vec<u64>) {
        let (m, n) = a.shape();
        let mut work = a.clone();
        let (mut d, mut e) = (vec![0.0; n], vec![0.0; n - 1]);
        let (mut x, mut next, mut u, mut w) =
            (vec![0.0; m], vec![0.0; m], vec![0.0; n], vec![0.0; n]);
        let scratch = [&mut x[..], &mut next[..], &mut u[..], &mut w[..]];
        run(&mut work, (&mut d, &mut e), scratch).unwrap();
        (bits(&d), bits(&e))
    }

    /// The column loop returns the same `d` and `e` bits in both frames.
    /// Called directly it is compiled for the baseline frame, since this test
    /// function enables no target feature; through `reduce_in` it runs in the
    /// AVX2 frame from `WIDE_MIN_COLS` columns on, and through `isa::wide`
    /// at every size. On a host without AVX2 every call uses the baseline
    /// frame. The frames vectorize differently only in optimized builds, so
    /// the check has teeth under `cargo test --release`. Every reduction
    /// ends on the k = 2 and k = 1 tails; the shapes straddle the threshold
    /// and the 4- and 8-lane remainders.
    #[test]
    fn frames_agree_bit_for_bit() {
        let mut inputs: Vec<(String, Matrix)> = [
            (31, 31),
            (32, 32),
            (33, 33),
            (37, 37),
            (64, 64),
            (67, 35),
            (130, 129),
            (200, 64),
            (9, 3),
            (5, 2),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(m, n))| (format!("{m}x{n}"), seeded(m, n, i as u64 + 1)))
        .collect();
        // An all-zero first column: the first left reflector has β = 0.
        let mut zero_col = seeded(48, 40, 11);
        for i in 0..48 {
            zero_col[(i, 0)] = 0.0;
        }
        inputs.push(("zero column".into(), zero_col));
        let (p, q) = (seeded(72, 1, 12), seeded(1, 36, 13));
        let rank1 = Matrix::from_fn(72, 36, |i, j| p[(i, 0)] * q[(0, j)]);
        inputs.push(("rank 1".into(), rank1));

        for (name, a) in &inputs {
            let baseline = columns_of(a, |work, de, scratch| {
                reduce_columns(work, de, None, None, scratch)
            });
            let wide = columns_of(a, |work, de, scratch| {
                isa::wide(
                    #[inline(always)]
                    || reduce_columns(work, de, None, None, scratch),
                )
            });
            assert_eq!(
                wide, baseline,
                "{name}: isa::wide against the baseline frame"
            );
            let (d, e, _) = reduce_in(a.view(), false, None, &mut Workspace::new()).unwrap();
            assert_eq!(
                (bits(&d), bits(&e)),
                baseline,
                "{name}: reduce_in against the baseline frame"
            );
        }
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
