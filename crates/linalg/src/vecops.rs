//! Vector kernels: dot products, norms, axpy, Householder reflector construction.
//!
//! These free functions operate on plain `&[f64]` slices so they can be reused on
//! matrix rows, copied columns, and scratch buffers alike.

/// Dot product `xᵀy`, summed in eight fixed lanes so that no add waits on
/// a single serial chain.
///
/// Lane `k` adds the products of entries `k`, `k + 8`, `k + 16`, … in index
/// order, and the lanes combine as
/// `((l₀ + l₁) + (l₂ + l₃)) + ((l₄ + l₅) + (l₆ + l₇))`. The order depends
/// only on the length, so the result is the same bits on every host.
///
/// # Panics
/// Panics when the slices have different lengths.
#[inline(always)]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let mut l = [0.0; 8];
    let (xs, ys) = (x.chunks_exact(8), y.chunks_exact(8));
    let (xr, yr) = (xs.remainder(), ys.remainder());
    for (a, b) in xs.zip(ys) {
        for k in 0..8 {
            l[k] += a[k] * b[k];
        }
    }
    for ((lk, a), b) in l.iter_mut().zip(xr).zip(yr) {
        *lk += a * b;
    }
    lanes_sum(l)
}

/// The two dot products `x0ᵀy` and `x1ᵀy` in one pass over `y`, each the
/// same bits as [`dot`]: the two rows' lanes interleave, so twice as many
/// independent add chains are in flight.
///
/// # Panics
/// Panics when the slices have different lengths.
#[inline(always)]
pub fn dot2(x0: &[f64], x1: &[f64], y: &[f64]) -> (f64, f64) {
    assert!(
        x0.len() == y.len() && x1.len() == y.len(),
        "dot2: length mismatch"
    );
    let (mut l, mut m) = ([0.0; 8], [0.0; 8]);
    let (as_, bs, ys) = (x0.chunks_exact(8), x1.chunks_exact(8), y.chunks_exact(8));
    let (ar, br, yr) = (as_.remainder(), bs.remainder(), ys.remainder());
    for ((a, b), c) in as_.zip(bs).zip(ys) {
        for k in 0..8 {
            l[k] += a[k] * c[k];
            m[k] += b[k] * c[k];
        }
    }
    // Two tail loops: one loop over both lane arrays made the 512²
    // reduction that calls this ~25% slower in the AVX2 frame.
    for ((lk, a), c) in l.iter_mut().zip(ar).zip(yr) {
        *lk += a * c;
    }
    for ((mk, b), c) in m.iter_mut().zip(br).zip(yr) {
        *mk += b * c;
    }
    (lanes_sum(l), lanes_sum(m))
}

/// Combines [`dot`]'s eight lanes in its fixed order.
#[inline(always)]
fn lanes_sum(l: [f64; 8]) -> f64 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Euclidean norm computed with overflow/underflow-safe scaling.
pub fn norm2(x: &[f64]) -> f64 {
    let scale = x.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    if scale == 0.0 || !scale.is_finite() {
        return scale;
    }
    let ssq: f64 = x
        .iter()
        .map(|v| {
            let t = v / scale;
            t * t
        })
        .sum();
    scale * ssq.sqrt()
}

/// 1-norm (sum of absolute values).
pub fn norm1(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// ∞-norm (maximum absolute value); `0` for an empty slice.
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

/// `y += alpha * x`.
///
/// # Panics
/// Panics when the slices have different lengths.
#[inline(always)]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scales `x` by `alpha` in place.
#[inline(always)]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for v in x {
        *v *= alpha;
    }
}

/// Normalizes `x` to unit Euclidean norm in place; returns the original norm.
/// A zero vector is left untouched and `0.0` is returned.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

/// Stable hypotenuse `sqrt(a² + b²)` without intermediate overflow.
#[inline(always)]
pub fn hypot(a: f64, b: f64) -> f64 {
    let (a, b) = (a.abs(), b.abs());
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    if hi == 0.0 {
        return 0.0;
    }
    let r = lo / hi;
    hi * (1.0 + r * r).sqrt()
}

/// Builds in place the Householder reflector `H = I − β v vᵀ` mapping `x` to
/// `(α, 0, …, 0)ᵀ` (Golub & Van Loan alg. 5.1.1, sign chosen to avoid
/// cancellation): `v` holds `x` on entry and the reflector direction
/// (`v[0] == 1`) on exit; returns `(β, α, v₀)`, where `v₀` is the divisor
/// that took `x[1..]` to `v[1..]`. When no reflection is needed, `β = 0` and
/// `v₀ = 1`.
///
/// # Panics
/// Panics when `v` is empty.
#[inline(always)]
pub fn householder_in_place(v: &mut [f64]) -> (f64, f64, f64) {
    let n = v.len();
    assert!(n > 0, "householder: empty input");
    let sigma = dot(&v[1..], &v[1..]);
    let x0 = v[0];
    v[0] = 1.0;
    if sigma == 0.0 {
        // Already of the desired form; H = I (beta = 0).
        return (0.0, x0, 1.0);
    }
    let mu = hypot(x0, sigma.sqrt());
    let v0 = if x0 <= 0.0 {
        x0 - mu
    } else {
        -sigma / (x0 + mu)
    };
    let v0sq = v0 * v0;
    let beta = 2.0 * v0sq / (sigma + v0sq);
    for vi in v.iter_mut().skip(1) {
        *vi /= v0;
    }
    v[0] = 1.0;
    // With this construction H·x = +μ·e₁ in both sign branches.
    (beta, mu, v0)
}

/// Applies the reflector `(v, β)` to a vector in place: `y ← (I − β v vᵀ) y`.
pub fn apply_reflector(v: &[f64], beta: f64, y: &mut [f64]) {
    if beta == 0.0 {
        return;
    }
    let w = beta * dot(v, y);
    axpy(-w, v, y);
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(dot(&[], &[]), 0.0);
        // Integer-valued inputs sum exactly in any order, so every length
        // through each lane remainder must give the exact integer result.
        for len in 0..=40 {
            let x: Vec<f64> = (0..len).map(|i| (i % 7) as f64 - 3.0).collect();
            let y: Vec<f64> = (0..len).map(|i| (i * 5 % 11) as f64 + 1.0).collect();
            let exact: i64 = (0..len as i64)
                .map(|i| (i % 7 - 3) * (i * 5 % 11 + 1))
                .sum();
            assert_eq!(dot(&x, &y), exact as f64, "length {len}");
        }
    }

    #[test]
    fn dot2_matches_dot_bit_for_bit() {
        for len in 0..=40 {
            let seq = |k: usize| -> Vec<f64> {
                (0..len)
                    .map(|i| ((i * k + 3) % 17) as f64 / 7.0 - 1.1)
                    .collect()
            };
            let (x0, x1, y) = (seq(5), seq(11), seq(3));
            let (p, q) = dot2(&x0, &x1, &y);
            assert_eq!(p.to_bits(), dot(&x0, &y).to_bits(), "length {len}");
            assert_eq!(q.to_bits(), dot(&x1, &y).to_bits(), "length {len}");
        }
    }

    #[test]
    #[should_panic]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norm2_matches_definition() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < TOL);
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(norm2(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn norm2_avoids_overflow() {
        let big = 1e200;
        let n = norm2(&[big, big]);
        assert!(n.is_finite());
        assert!((n - big * 2.0_f64.sqrt()).abs() / n < 1e-12);
    }

    #[test]
    fn norm2_avoids_underflow() {
        let tiny = 1e-200;
        let n = norm2(&[tiny, tiny]);
        assert!(n > 0.0);
        assert!((n - tiny * 2.0_f64.sqrt()).abs() / n < 1e-12);
    }

    #[test]
    fn norm1_and_inf() {
        assert_eq!(norm1(&[-1.0, 2.0, -3.0]), 6.0);
        assert_eq!(norm_inf(&[-1.0, 2.0, -3.0]), 3.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn scale_and_normalize() {
        let mut x = vec![3.0, 4.0];
        let n = normalize(&mut x);
        assert!((n - 5.0).abs() < TOL);
        assert!((norm2(&x) - 1.0).abs() < TOL);
        let mut z = vec![0.0, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn hypot_stable() {
        assert_eq!(hypot(0.0, 0.0), 0.0);
        assert!((hypot(3.0, -4.0) - 5.0).abs() < TOL);
        assert!(hypot(1e300, 1e300).is_finite());
    }

    /// The reflector built from `x`, as `(v, β, α)`.
    fn householder(x: &[f64]) -> (Vec<f64>, f64, f64) {
        let mut v = x.to_vec();
        let (beta, alpha, _) = householder_in_place(&mut v);
        (v, beta, alpha)
    }

    #[test]
    fn householder_annihilates_tail() {
        let x = vec![2.0, -1.0, 2.0]; // norm 3
        let (v, beta, alpha) = householder(&x);
        let mut y = x.clone();
        apply_reflector(&v, beta, &mut y);
        assert!((y[0].abs() - 3.0).abs() < TOL, "got {y:?}");
        assert!(y[1].abs() < TOL);
        assert!(y[2].abs() < TOL);
        assert!((y[0] - alpha).abs() < 1e-10);
    }

    #[test]
    fn householder_identity_when_tail_zero() {
        let (v, beta, _) = householder(&[5.0, 0.0, 0.0]);
        assert_eq!(beta, 0.0);
        let mut y = vec![1.0, 2.0, 3.0];
        apply_reflector(&v, beta, &mut y);
        assert_eq!(y, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn householder_preserves_norm() {
        let (v, beta, _) = householder(&[-0.3, 0.7, 1.1, -2.0]);
        let mut y = vec![0.4, -0.2, 0.9, 1.3];
        let before = norm2(&y);
        apply_reflector(&v, beta, &mut y);
        assert!((norm2(&y) - before).abs() < 1e-12);
    }

    #[test]
    fn householder_returns_its_divisor() {
        for x in [
            vec![2.0, -1.0, 2.0],
            vec![-0.3, 0.7, 1.1, -2.0],
            vec![5.0, 0.0, 0.0],
        ] {
            let mut v = x.clone();
            let (beta, _, v0) = householder_in_place(&mut v);
            if beta == 0.0 {
                assert_eq!(v0, 1.0);
            }
            for (vi, xi) in v.iter().zip(&x).skip(1) {
                assert_eq!(vi.to_bits(), (xi / v0).to_bits(), "{x:?}");
            }
        }
    }

    #[test]
    fn householder_negative_leading_entry() {
        let x = vec![-2.0, 1.0, 2.0];
        let (v, beta, _) = householder(&x);
        let mut y = x.clone();
        apply_reflector(&v, beta, &mut y);
        assert!((y[0].abs() - 3.0).abs() < TOL);
        assert!(y[1].abs() < TOL && y[2].abs() < TOL);
    }
}
