//! Arithmetic on samples: quantiles, per-operation shares and coverage.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation between
/// order statistics (the "type 7" rule). NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A quantity per operation; NaN when no operation succeeded.
pub fn per_op(total: f64, ops: u64) -> f64 {
    if ops == 0 {
        f64::NAN
    } else {
        total / ops as f64
    }
}

/// Share of an operation's untraced time that the replayed layers account
/// for: the sum of the layers' self-times over the operation's time.
pub fn coverage(layer_times: &[f64], operation_time: f64) -> f64 {
    layer_times.iter().sum::<f64>() / operation_time
}

/// A weighted sum `Σ wᵢ·xᵢ` over matching slices.
pub fn weighted_sum(weights: &[f64], values: &[f64]) -> f64 {
    weights.iter().zip(values).map(|(w, x)| w * x).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 10.0], 0.99), 3.0 + 7.0 * 0.97);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn per_op_and_coverage_arithmetic() {
        // 4.5 CPU-seconds over 30 000 requests is 0.15 ms per request.
        assert!((per_op(4500.0, 30_000) - 0.15).abs() < 1e-15);
        assert!(per_op(1.0, 0).is_nan());
        // Layers summing to 0.06 ms of a 0.3 ms request cover a fifth of it.
        assert!((coverage(&[0.01, 0.02, 0.03], 0.3) - 0.2).abs() < 1e-12);
        assert_eq!(weighted_sum(&[1.0, 3.0], &[2.0, 4.0]), 14.0);
    }
}
