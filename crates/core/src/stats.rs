//! Ensemble statistics for measure studies.
//!
//! Simulation studies (the paper's application \[2\], and our X3/X5 experiments)
//! characterize *distributions* of measures over matrix ensembles. This module
//! provides the small, dependency-free summary machinery those studies need:
//! per-measure summaries, histograms, and Pearson/Spearman correlations.

use crate::ecs::Ecs;
use crate::error::MeasureError;
use crate::report::{characterize, MeasureReport};

/// Summary statistics of one sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Median (mean of middle pair for even `n`).
    pub median: f64,
    /// Maximum.
    pub max: f64,
}

/// Summarizes a sample. Errors on empty or non-finite input.
pub fn summarize(values: &[f64]) -> Result<Summary, MeasureError> {
    if values.is_empty() {
        return Err(MeasureError::InvalidEnvironment {
            reason: "summary of an empty sample".into(),
        });
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err(MeasureError::InvalidEnvironment {
            reason: "summary requires finite values".into(),
        });
    }
    let n = values.len();
    let mean = values.iter().sum::<f64>() / n as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    };
    Ok(Summary {
        n,
        mean,
        std: var.sqrt(),
        min: sorted[0],
        median,
        max: sorted[n - 1],
    })
}

/// Histogram with equal-width bins over `[lo, hi]`.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Inclusive lower edge.
    pub lo: f64,
    /// Inclusive upper edge.
    pub hi: f64,
    /// Per-bin counts.
    pub counts: Vec<usize>,
    /// Observations outside `[lo, hi]`.
    pub outliers: usize,
}

/// Builds a histogram. `bins ≥ 1`, `hi > lo`.
pub fn histogram(values: &[f64], lo: f64, hi: f64, bins: usize) -> Result<Histogram, MeasureError> {
    if bins == 0 || hi <= lo || hi.is_nan() || lo.is_nan() {
        return Err(MeasureError::InvalidEnvironment {
            reason: format!("bad histogram spec: bins={bins}, range=[{lo}, {hi}]"),
        });
    }
    let mut counts = vec![0usize; bins];
    let mut outliers = 0usize;
    let width = (hi - lo) / bins as f64;
    for &v in values {
        if !v.is_finite() || v < lo || v > hi {
            outliers += 1;
            continue;
        }
        let k = (((v - lo) / width) as usize).min(bins - 1);
        counts[k] += 1;
    }
    Ok(Histogram {
        lo,
        hi,
        counts,
        outliers,
    })
}

/// Pearson correlation coefficient; `None` for degenerate samples (`n < 2` or a
/// constant series).
pub fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (a, b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

fn ranks(values: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("finite"));
    let mut out = vec![0.0; values.len()];
    let mut i = 0;
    while i < idx.len() {
        // Average ranks over ties.
        let mut j = i;
        while j + 1 < idx.len() && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation (Pearson on average ranks); `None` on degenerate
/// samples.
pub fn spearman(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    pearson(&ranks(x), &ranks(y))
}

/// Measure reports for a whole ensemble (errors propagate per the first failure).
pub fn characterize_ensemble(envs: &[Ecs]) -> Result<Vec<MeasureReport>, MeasureError> {
    envs.iter().map(characterize).collect()
}

/// Summaries of (MPH, TDH, TMA) over an ensemble.
pub fn measure_summaries(
    reports: &[MeasureReport],
) -> Result<(Summary, Summary, Summary), MeasureError> {
    let mph: Vec<f64> = reports.iter().map(|r| r.mph).collect();
    let tdh: Vec<f64> = reports.iter().map(|r| r.tdh).collect();
    let tma: Vec<f64> = reports.iter().map(|r| r.tma).collect();
    Ok((summarize(&mph)?, summarize(&tdh)?, summarize(&tma)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.median, 2.5);
        assert!((s.std - 1.25_f64.sqrt()).abs() < 1e-12);
        let odd = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(odd.median, 2.0);
    }

    #[test]
    fn summary_rejects_bad_input() {
        assert!(summarize(&[]).is_err());
        assert!(summarize(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn histogram_bins() {
        let h = histogram(&[0.05, 0.15, 0.95, 1.5, -0.1], 0.0, 1.0, 10).unwrap();
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[9], 1);
        assert_eq!(h.outliers, 2);
        assert_eq!(h.counts.iter().sum::<usize>(), 3);
        assert!(histogram(&[1.0], 0.0, 1.0, 0).is_err());
        assert!(histogram(&[1.0], 1.0, 0.0, 4).is_err());
        // Boundary value lands in the last bin, not out of range.
        let edge = histogram(&[1.0], 0.0, 1.0, 4).unwrap();
        assert_eq!(edge.counts[3], 1);
    }

    #[test]
    fn pearson_known_values() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let yneg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &yneg).unwrap() + 1.0).abs() < 1e-12);
        assert!(pearson(&x, &[1.0, 1.0, 1.0, 1.0]).is_none());
        assert!(pearson(&x, &y[..3]).is_none());
        assert!(pearson(&[1.0], &[1.0]).is_none());
    }

    #[test]
    fn spearman_monotone_nonlinear() {
        // y = x³ is monotone: Spearman 1, Pearson < 1.
        let x: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|v| v.powi(3)).collect();
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        assert!(pearson(&x, &y).unwrap() < 1.0);
    }

    #[test]
    fn spearman_handles_ties() {
        let x = [1.0, 1.0, 2.0, 3.0];
        let y = [1.0, 2.0, 3.0, 4.0];
        let s = spearman(&x, &y).unwrap();
        assert!(s > 0.8 && s <= 1.0);
    }

    #[test]
    fn ensemble_summaries() {
        let envs: Vec<Ecs> = (0..4)
            .map(|k| Ecs::from_rows(&[&[1.0 + k as f64, 2.0], &[3.0, 4.0 + k as f64]]).unwrap())
            .collect();
        let reports = characterize_ensemble(&envs).unwrap();
        let (mph, tdh, tma) = measure_summaries(&reports).unwrap();
        assert_eq!(mph.n, 4);
        assert!(tdh.mean > 0.0 && tdh.mean <= 1.0);
        assert!(tma.max <= 1.0);
    }
}
