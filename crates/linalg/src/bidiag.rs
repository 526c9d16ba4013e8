//! Golub–Kahan Householder bidiagonalization.
//!
//! Reduces an `m × n` matrix with `m ≥ n` to upper-bidiagonal form
//! `A = U · B · Vᵀ`, where `U` is `m × n` with orthonormal columns, `V` is `n × n`
//! orthogonal, and `B` is upper bidiagonal (diagonal `d`, superdiagonal `e`). This is
//! stage one of the Golub–Reinsch SVD in [`crate::svd`].
//!
//! One reduction serves every caller, and each column costs it one sweep of
//! the row-major trailing matrix that reads and writes every entry once, in
//! the spirit of LAPACK's fused one-sided updates (Dongarra, Sorensen &
//! Hammarling, 1989). Column `j`'s left reflector `v` needs `w = β·vᵀA`.
//! Row `j` minus `w` yields the right reflector `u`, and the sweep applies
//! both reflectors to every lower row as one rank-2 update,
//! `aᵢ ← aᵢ − vᵢ·w − β_r·(aᵢᵀu − vᵢ·wᵀu)·u`, two rows per pass (their dot
//! products with `u` in one pass, [`vecops::dot2`]). As it writes each row
//! it takes the row's first entry `xᵢ` (column `j + 1`, the next left
//! reflector's source) and adds `xᵢ·aᵢ` over the rest of the row into `z`.
//! The next column's `w` is then `β'·(a_{j+1} + z/v₀)`, where `v₀` is the
//! divisor that took `x` to the reflector, so no sweep reads the matrix just
//! to form `w` except column 0's. The right reflector's dot products read
//! each row before its left update, and `w` is formed from unscaled
//! entries, so `B` matches a reduction that applies the reflectors one
//! after the other only up to rounding: the singular values agree to a few
//! ulps of σ₁, while `d` and `e` past the numerical rank may differ.
//!
//! Tall inputs (`m ≥ 1.8·n`, `QR_MIN_ASPECT`) go through a Householder QR
//! first, as LAPACK's xGESVD does (Chan, ACM TOMS 8(1), 1982): a rank-1
//! sweep per column collects the next column's `vᵀA` the same way, at 4
//! flops per trailing entry instead of the bidiagonalization's 8, and the
//! bidiagonalization then runs on the `n × n` factor `R`. With factors,
//! `U = Q·[U_R; 0]` and `V = V_R`.
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

/// `w = vᵀA` over rows `row0..row0 + v.len()` and the last `w.len()` columns
/// of `a`, four rows per pass over `w`. Each entry adds its rows in order,
/// exactly as one axpy per row would.
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

/// Column 0's setup, the one read-only sweep of a reduction: loads column 0
/// into `x` and sets `z = Σ_{i ≥ 1} xᵢ·aᵢ` over columns `1..n`, which
/// [`update_rows`] accumulates for every later column.
#[inline(always)]
fn first_column(a: &Matrix, x: &mut [f64], z: &mut [f64]) {
    let (m, n) = a.shape();
    for (xi, row) in x.iter_mut().zip(a.row_iter()) {
        *xi = row[0];
    }
    if n > 1 {
        reflect_rows(a, &x[1..m], 1, &mut z[..n - 1]);
    }
}

/// The one sweep of a column: applies the left reflector's tail `v` (with
/// `w = β·vᵀA`) to rows `row0..` over the last `w.len()` columns of `a`,
/// together with the right reflector `(u, rbeta)` when `RANK2`, as
/// `aᵢ ← aᵢ − vᵢ·w − rbeta·(aᵢᵀu − vᵢ·wᵀu)·u`, two rows per pass. Without
/// `RANK2` (the QR stage) `u` and `rbeta` are ignored and the update is
/// `aᵢ ← aᵢ − vᵢ·w`. Each updated row's first entry `xᵢ` — the next
/// column's — lands in `next`, and every row but the first (the next pivot
/// row) adds `xᵢ·aᵢ` over its other entries into `z`, rows in order.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn update_rows<const RANK2: bool>(
    a: &mut Matrix,
    v: &[f64],
    w: &[f64],
    u: &[f64],
    rbeta: f64,
    row0: usize,
    next: &mut [f64],
    z: &mut [f64],
) {
    let n = a.cols();
    let col0 = n - w.len();
    let right = RANK2 && rbeta != 0.0;
    let wu = if right { vecops::dot(w, u) } else { 0.0 };
    // The right reflector's coefficient for a row, from the row's dot
    // product with `u` before the left update.
    let coef = |ru: f64, vi: f64| rbeta * (ru - vi * wu);
    let coef1 = |row: &[f64], vi: f64| {
        if right {
            coef(vecops::dot(row, u), vi)
        } else {
            0.0
        }
    };
    let update = |ac: f64, vi: f64, wc: f64, s: f64, uc: f64| {
        if RANK2 {
            ac - vi * wc - s * uc
        } else {
            ac - vi * wc
        }
    };
    z.fill(0.0);
    let (first, rest) = a.as_mut_slice()[row0 * n..].split_at_mut(n);
    let r = &mut first[col0..];
    let s = coef1(r, v[0]);
    for ((ac, &wc), &uc) in r.iter_mut().zip(w).zip(u) {
        *ac = update(*ac, v[0], wc, s, uc);
    }
    next[0] = r[0];

    let mut pairs = rest.chunks_exact_mut(2 * n);
    let mut vs = v[1..].chunks_exact(2);
    let mut outs = next[1..].chunks_exact_mut(2);
    for ((pair, vp), out) in (&mut pairs).zip(&mut vs).zip(&mut outs) {
        let (r0, r1) = pair.split_at_mut(n);
        let (r0, r1) = (&mut r0[col0..], &mut r1[col0..]);
        let (v0, v1) = (vp[0], vp[1]);
        let (s0, s1) = if right {
            let (p0, p1) = vecops::dot2(r0, r1, u);
            (coef(p0, v0), coef(p1, v1))
        } else {
            (0.0, 0.0)
        };
        let x0 = update(r0[0], v0, w[0], s0, u[0]);
        let x1 = update(r1[0], v1, w[0], s1, u[0]);
        (r0[0], r1[0]) = (x0, x1);
        (out[0], out[1]) = (x0, x1);
        let lanes = r0[1..]
            .iter_mut()
            .zip(&mut r1[1..])
            .zip(&w[1..])
            .zip(&u[1..])
            .zip(z.iter_mut());
        for ((((a0, a1), &wc), &uc), zc) in lanes {
            *a0 = update(*a0, v0, wc, s0, uc);
            *a1 = update(*a1, v1, wc, s1, uc);
            *zc = (*zc + x0 * *a0) + x1 * *a1;
        }
    }
    for ((row, &vi), out) in pairs
        .into_remainder()
        .chunks_exact_mut(n)
        .zip(vs.remainder())
        .zip(outs.into_remainder())
    {
        let r = &mut row[col0..];
        let s = coef1(r, vi);
        let xi = update(r[0], vi, w[0], s, u[0]);
        r[0] = xi;
        *out = xi;
        let lanes = r[1..]
            .iter_mut()
            .zip(&w[1..])
            .zip(&u[1..])
            .zip(z.iter_mut());
        for (((ac, &wc), &uc), zc) in lanes {
            *ac = update(*ac, vi, wc, s, uc);
            *zc += xi * *ac;
        }
    }
}

/// Applies the left reflector `(v, β)` spanning rows `row0..row0 + v.len()`
/// to columns `col0..` of `a`: `w = β·vᵀA`, then each row takes `−v_k·w`.
/// `w` is scratch of at least `a.cols() − col0` entries.
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

/// Householder reflectors packed flat, each after its predecessors, kept
/// only when `U` and `V` are wanted: reflector `j` spans rows
/// `j + shift..rows` of the matrix it reduces.
struct Packed {
    rows: usize,
    shift: usize,
    dirs: Vec<f64>,
    betas: Vec<f64>,
    off: usize,
}

impl Packed {
    fn take(rows: usize, shift: usize, count: usize, ws: &mut Workspace) -> Self {
        let total = (0..count).map(|j| rows - j - shift).sum();
        Packed {
            rows,
            shift,
            dirs: ws.take_vec(total, 0.0),
            betas: ws.take_vec(count, 0.0),
            off: 0,
        }
    }

    fn push(&mut self, j: usize, v: &[f64], beta: f64) {
        self.dirs[self.off..self.off + v.len()].copy_from_slice(v);
        self.off += v.len();
        self.betas[j] = beta;
    }

    /// `q ← H₀·H₁·…·q`, applying the reflectors in reverse, and hands the
    /// store back to `ws`. When `q` starts as the identity, reflector `j`
    /// leaves its columns left of `j + shift` untouched, so `from_identity`
    /// starts each application at that column.
    fn apply_reverse(self, q: &mut Matrix, from_identity: bool, w: &mut [f64], ws: &mut Workspace) {
        let mut end = self.dirs.len();
        for (j, &beta) in self.betas.iter().enumerate().rev() {
            let row0 = j + self.shift;
            let v = &self.dirs[end - (self.rows - row0)..end];
            end -= v.len();
            let col0 = if from_identity { row0 } else { 0 };
            apply_left(q, v, beta, row0, col0, w);
        }
        ws.recycle_vec(self.dirs);
        ws.recycle_vec(self.betas);
    }
}

/// Every reflector of a bidiagonalization: left reflector `j` spans rows
/// `j..m` and right reflector `j` columns `j + 1..n` (present only while
/// `j + 2 < n`).
struct Reflectors {
    left: Packed,
    right: Packed,
}

impl Reflectors {
    fn take(m: usize, n: usize, ws: &mut Workspace) -> Self {
        Reflectors {
            left: Packed::take(m, 0, n, ws),
            right: Packed::take(n, 1, n.saturating_sub(2), ws),
        }
    }

    /// Accumulates `U` (`rows × n`, zero below the reduced matrix's rows)
    /// and `V` (`n × n`) by applying the reflectors in reverse to the
    /// identity, and hands the store back to `ws`. Right reflector `j` acts
    /// on rows/cols `j + 1..n` of the V space; applying from the left
    /// accumulates `V = H_r0 · H_r1 · …` (each H is symmetric).
    fn accumulate(
        self,
        rows: usize,
        n: usize,
        w: &mut [f64],
        ws: &mut Workspace,
    ) -> (Matrix, Matrix) {
        let mut u = ws.take_matrix(rows, n, 0.0);
        for j in 0..n {
            u[(j, j)] = 1.0;
        }
        self.left.apply_reverse(&mut u, true, w, ws);
        let mut v = ws.take_identity(n);
        self.right.apply_reverse(&mut v, true, w, ws);
        (u, v)
    }
}

/// Bidiagonalizes `a` (requires `m ≥ n ≥ 1` and finite entries). All scratch
/// (the working copy, the packed reflectors, and the accumulation targets)
/// is checked out of `ws`, and the returned factors are built from pooled
/// buffers the caller may hand back with
/// [`Workspace::recycle_matrix`]/[`Workspace::recycle_vec`].
pub fn bidiagonalize_in(a: MatRef<'_>, ws: &mut Workspace) -> Result<Bidiag> {
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
    let (d, e, factors) = reduce_in(a, true, None, ws)?;
    let (u, v) = factors.expect("factors were requested");
    Ok(Bidiag { u, v, d, e })
}

/// Inputs with at least this many rows per column (and at least two
/// columns) are reduced by QR first. Measured on the values-only reduction
/// against the same code without QR (2-vCPU Xeon, AVX2 frame; medians of
/// six alternating rounds of 21 runs at n = 32, 64 and 128): QR first took
/// 1.12–1.19× as long at m/n = 1.5, 1.05–1.12× at 1.6, 0.93–1.01× at 1.75,
/// 0.90–0.96× at 2, and 1.2–1.6× on square inputs. LAPACK xGESVD switches
/// at 1.6; the one-sweep bidiagonalization is cheap enough against QR's
/// rank-1 sweeps to move the crossover up.
const QR_MIN_ASPECT: f64 = 1.8;

fn qr_first(m: usize, n: usize) -> bool {
    n >= 2 && m as f64 >= QR_MIN_ASPECT * n as f64
}

/// The one Householder reduction behind [`bidiagonalize_in`] and the SVD
/// (requires `m ≥ n ≥ 1` and finite entries, which the callers check):
/// returns `B`'s diagonal and superdiagonal, plus `(U, V)` when `factors` is
/// set. Polls `budget` once per column of each stage (op
/// `golub-reinsch-bidiag`, with the columns reduced so far, over both
/// stages, as the iteration count); `None` polls nothing.
pub(crate) fn reduce_in(
    a: MatRef<'_>,
    factors: bool,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<(Vec<f64>, Vec<f64>, Factors)> {
    let (m, n) = a.shape();
    debug_assert!(m >= n && n >= 1, "reduce_in needs m >= n >= 1");
    let qr = qr_first(m, n);
    let mut work = ws.take_matrix(m, n, 0.0);
    work.view_mut().copy_from(a);
    let mut r = qr.then(|| ws.take_matrix(n, n, 0.0));
    let mut d = ws.take_vec(n, 0.0);
    let mut e = ws.take_vec(n - 1, 0.0);
    // `x` holds column j's entries, which become its left reflector; each
    // sweep collects column j + 1's into `next` and its `vᵀA` into `z`.
    let mut x = ws.take_vec(m, 0.0);
    let mut next = ws.take_vec(m, 0.0);
    let mut u = ws.take_vec(n, 0.0);
    let mut w = ws.take_vec(n, 0.0);
    let mut z = ws.take_vec(n, 0.0);
    let mut qr_store = (factors && qr).then(|| Packed::take(m, 0, n, ws));
    let mut store = factors.then(|| Reflectors::take(if qr { n } else { m }, n, ws));
    let scratch = [
        &mut x[..],
        &mut next[..],
        &mut u[..],
        &mut w[..],
        &mut z[..],
    ];
    let stores = (qr_store.as_mut(), store.as_mut());
    isa::wide(
        n >= isa::WIDE_MIN_COLS,
        #[inline(always)]
        || {
            stages(
                &mut work,
                r.as_mut(),
                (&mut d, &mut e),
                stores,
                budget,
                scratch,
            )
        },
    )?;

    let factors = store.map(|s| {
        let (mut u, v) = s.accumulate(m, n, &mut w, ws);
        if let Some(q) = qr_store {
            q.apply_reverse(&mut u, false, &mut w, ws);
        }
        (u, v)
    });
    ws.recycle_matrix(work);
    if let Some(r) = r {
        ws.recycle_matrix(r);
    }
    for buf in [x, next, u, w, z] {
        ws.recycle_vec(buf);
    }
    Ok((d, e, factors))
}

/// The stages of [`reduce_in`] on its checked-out buffers: with `r` given,
/// QR on `work` first ([`qr_columns`]), then the column loop
/// ([`reduce_columns`]) on `r`, which receives the triangular factor;
/// without it, the column loop on `work`. Always inlined, so both stages
/// are compiled into whichever instruction-set frame calls it.
#[inline(always)]
fn stages(
    work: &mut Matrix,
    r: Option<&mut Matrix>,
    de: (&mut [f64], &mut [f64]),
    (qr_store, store): (Option<&mut Packed>, Option<&mut Reflectors>),
    budget: Option<&Budget>,
    [x, next, u, w, z]: [&mut [f64]; 5],
) -> Result<()> {
    let Some(r) = r else {
        return reduce_columns(work, de, store, budget, 0, [x, next, u, w, z]);
    };
    let n = work.cols();
    qr_columns(
        work,
        qr_store,
        budget,
        [&mut *x, &mut *next, &mut *w, &mut *z],
    )?;
    let rows = r.as_mut_slice().chunks_exact_mut(n).zip(work.row_iter());
    for (i, (dst, src)) in rows.enumerate() {
        dst[..i].fill(0.0);
        dst[i..].copy_from_slice(&src[i..]);
    }
    reduce_columns(r, de, store, budget, n, [x, next, u, w, z])
}

/// Polls `budget`, when there is one, for the reduction's column `iteration`.
#[inline(always)]
fn poll(budget: Option<&Budget>, iteration: usize) -> Result<()> {
    match budget {
        Some(b) => b.check("golub-reinsch-bidiag", iteration, f64::NAN),
        None => Ok(()),
    }
}

/// The QR stage: reduces `work` (`m × n`, `m ≥ n ≥ 2`) to `R` in its upper
/// triangle (the entries below the diagonal are left stale), pushing every
/// reflector to `store` when it is given. Column `j`'s reflector turns row
/// `j` into `R`'s row `j`, and one rank-1 sweep updates the rows below,
/// collecting column `j + 1` and its `vᵀA`. The scratch `[x, next, w, z]`
/// holds `m`, `m`, `n` and `n` entries; polls count from 0.
#[inline(always)]
fn qr_columns(
    work: &mut Matrix,
    mut store: Option<&mut Packed>,
    budget: Option<&Budget>,
    [mut x, mut next, w, z]: [&mut [f64]; 4],
) -> Result<()> {
    let (m, n) = work.shape();
    first_column(work, x, z);
    for j in 0..n {
        poll(budget, j)?;
        let v = &mut x[..m - j];
        let (beta, alpha, v0) = vecops::householder_in_place(v);
        work[(j, j)] = alpha;
        if let Some(s) = store.as_mut() {
            s.push(j, v, beta);
        }
        let k = n - j - 1;
        if k == 0 {
            break;
        }
        let w = &mut w[..k];
        let row = &mut work.row_mut(j)[j + 1..];
        if beta == 0.0 {
            w.fill(0.0);
        } else {
            for ((wc, ac), zc) in w.iter_mut().zip(row.iter_mut()).zip(z.iter()) {
                *wc = beta * (*ac + zc / v0);
                *ac -= *wc;
            }
        }
        let (out, z) = (&mut next[..m - j - 1], &mut z[..k - 1]);
        update_rows::<false>(work, &v[1..], w, w, 0.0, j + 1, out, z);
        std::mem::swap(&mut x, &mut next);
    }
    Ok(())
}

/// The bidiagonalization's column loop: reduces `work` (`m × n`,
/// `m ≥ n ≥ 1`) in place, writing `B`'s diagonal to `d` (`n` entries) and
/// superdiagonal to `e` (`n − 1`), and every reflector to `store` when it is
/// given. The scratch `[x, next, u, w, z]` holds `m`, `m`, `n`, `n` and `n`
/// entries; polls count from `polled`. Always inlined, so it is compiled
/// into whichever instruction-set frame calls it.
#[inline(always)]
fn reduce_columns(
    work: &mut Matrix,
    (d, e): (&mut [f64], &mut [f64]),
    mut store: Option<&mut Reflectors>,
    budget: Option<&Budget>,
    polled: usize,
    [mut x, mut next, u, w, z]: [&mut [f64]; 5],
) -> Result<()> {
    let (m, n) = work.shape();
    first_column(work, x, z);
    for j in 0..n {
        poll(budget, polled + j)?;
        // Left reflector: annihilates column j below the diagonal.
        let v = &mut x[..m - j];
        let (beta, alpha, v0) = vecops::householder_in_place(v);
        d[j] = alpha;
        if let Some(s) = store.as_mut() {
            s.left.push(j, v, beta);
        }
        let k = n - j - 1;
        if k == 0 {
            break;
        }
        // w = β·vᵀA = β·(row j + z/v₀). Row j after the left update
        // (v₀ = 1 in the reflector) is the right reflector's source; it
        // annihilates row j right of the superdiagonal.
        let (w, u) = (&mut w[..k], &mut u[..k]);
        let row = &work.row(j)[j + 1..];
        if beta == 0.0 {
            w.fill(0.0);
            u.copy_from_slice(row);
        } else {
            for (((wc, uc), ac), zc) in w.iter_mut().zip(u.iter_mut()).zip(row).zip(z.iter()) {
                *wc = beta * (ac + zc / v0);
                *uc = ac - *wc;
            }
        }
        let rbeta = if k >= 2 {
            let (rbeta, ralpha, _) = vecops::householder_in_place(u);
            e[j] = ralpha;
            if let Some(s) = store.as_mut() {
                s.right.push(j, u, rbeta);
            }
            rbeta
        } else {
            e[j] = u[0];
            0.0
        };
        let (out, z) = (&mut next[..m - j - 1], &mut z[..k - 1]);
        update_rows::<true>(work, &v[1..], w, u, rbeta, j + 1, out, z);
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
        // 6×4 runs the column loop alone; 17×5, the paper's shape, takes QR
        // first and accumulates U through both stages' reflectors.
        for (m, n) in [(6, 4), (17, 5)] {
            let a = Matrix::from_fn(m, n, |i, j| ((i * 5 + j * 3 + 1) % 13) as f64 - 6.0);
            let mut ws = Workspace::new();
            let cold = bidiagonalize_in(a.view(), &mut ws).unwrap();
            ws.recycle_matrix(cold.u);
            ws.recycle_matrix(cold.v);
            ws.recycle_vec(cold.d);
            ws.recycle_vec(cold.e);
            ws.reset_stats();
            let warm = bidiagonalize_in(a.view(), &mut ws).unwrap();
            assert_eq!(ws.stats().fresh, 0, "{m}x{n}: warm run must not allocate");
            let owned = bidiag_of(&a).unwrap();
            assert_eq!(warm.u, owned.u);
            assert_eq!(warm.v, owned.v);
            assert_eq!(warm.d, owned.d);
            assert_eq!(warm.e, owned.e);
        }
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

    /// The bits of `d`, `e` and `R` (empty without QR) after [`stages`]
    /// reduces a copy of `a`, with QR first when `qr`, in the AVX2 frame
    /// when `wide` and otherwise in the baseline frame: called directly, the
    /// stages are compiled for the baseline frame, since this function
    /// enables no target feature.
    fn stages_bits(a: &Matrix, qr: bool, wide: bool) -> [Vec<u64>; 3] {
        let (m, n) = a.shape();
        let mut work = a.clone();
        let mut r = qr.then(|| Matrix::zeros(n, n));
        let (mut d, mut e) = (vec![0.0; n], vec![0.0; n - 1]);
        let (mut x, mut next) = (vec![0.0; m], vec![0.0; m]);
        let (mut u, mut w, mut z) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let scratch = [
            &mut x[..],
            &mut next[..],
            &mut u[..],
            &mut w[..],
            &mut z[..],
        ];
        let de = (&mut d[..], &mut e[..]);
        let stores = (None, None);
        if wide {
            isa::wide(
                true,
                #[inline(always)]
                || stages(&mut work, r.as_mut(), de, stores, None, scratch),
            )
        } else {
            stages(&mut work, r.as_mut(), de, stores, None, scratch)
        }
        .unwrap();
        [
            bits(&d),
            bits(&e),
            r.map_or(Vec::new(), |r| bits(r.as_slice())),
        ]
    }

    /// Both loops — the QR stage and the bidiagonalization — return the
    /// same bits in both frames. Through `reduce_in` they run in the AVX2
    /// frame from `WIDE_MIN_COLS` columns on. On a host without AVX2 every
    /// call uses the baseline frame. The frames vectorize differently only
    /// in optimized builds, so the check has teeth under
    /// `cargo test --release`. Every input runs with and without QR first;
    /// every reduction ends on the k = 2 and k = 1 tails, and the shapes
    /// straddle the 32-column and 1.8:1 thresholds and the 2- and 4-row
    /// remainders of the sweeps.
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
            (57, 32),
            (58, 32),
            (9, 3),
            (5, 2),
            (1, 1),
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

        let mut ws = Workspace::new();
        for (name, a) in &inputs {
            let (m, n) = a.shape();
            for qr in [false, true].into_iter().filter(|&qr| !qr || n >= 2) {
                let baseline = stages_bits(a, qr, false);
                assert_eq!(
                    stages_bits(a, qr, true),
                    baseline,
                    "{name} (QR first: {qr}): isa::wide against the baseline frame"
                );
                if qr == qr_first(m, n) {
                    let (d, e, _) = reduce_in(a.view(), false, None, &mut ws).unwrap();
                    assert_eq!(
                        [bits(&d), bits(&e)],
                        baseline[..2],
                        "{name}: reduce_in against the baseline frame"
                    );
                    ws.recycle_vec(d);
                    ws.recycle_vec(e);
                }
            }
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
