//! ETC consistency classification (Braun et al. 2001 / Ali et al. 2000 — the
//! paper's references \[4\] and \[6\]).
//!
//! An ETC matrix is **consistent** when the machines have a global speed order:
//! if machine `a` is faster than machine `b` for one task, it is faster for every
//! task. It is **inconsistent** when no such order exists, and
//! **partially consistent** (semi-consistent) when a subset of the machine
//! columns forms a consistent submatrix.
//!
//! Consistency interacts directly with the paper's TMA measure: a perfectly
//! consistent matrix has (near-)proportional column *orderings* and typically low
//! affinity, whereas inconsistent matrices are where task-machine affinity lives.
//! [`consistency_degree`] quantifies the spectrum and the tests/benches document
//! the TMA correlation.

use hc_core::ecs::Etc;
use hc_core::error::MeasureError;
use hc_linalg::Matrix;

use crate::rng::{Rng, StdRng};

/// Classification of an ETC matrix's consistency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Consistency {
    /// A total machine speed order holds across all tasks.
    Consistent,
    /// No global order, but some pair of machines is consistently ordered.
    PartiallyConsistent,
    /// Every pair of machines swaps order for some pair of tasks.
    Inconsistent,
}

/// `true` when machine `a` is at least as fast as machine `b` for every task.
fn dominates(etc: &Matrix, a: usize, b: usize) -> bool {
    (0..etc.rows()).all(|i| etc[(i, a)] <= etc[(i, b)])
}

/// Classifies an ETC matrix.
pub fn classify(etc: &Matrix) -> Consistency {
    let m = etc.cols();
    if m < 2 {
        return Consistency::Consistent;
    }
    let mut ordered_pairs = 0usize;
    let mut total_pairs = 0usize;
    for a in 0..m {
        for b in (a + 1)..m {
            total_pairs += 1;
            if dominates(etc, a, b) || dominates(etc, b, a) {
                ordered_pairs += 1;
            }
        }
    }
    if ordered_pairs == total_pairs {
        Consistency::Consistent
    } else if ordered_pairs > 0 {
        Consistency::PartiallyConsistent
    } else {
        Consistency::Inconsistent
    }
}

/// Fraction of machine pairs that are consistently ordered, in `[0, 1]`
/// (1 = consistent, 0 = fully inconsistent).
pub fn consistency_degree(etc: &Matrix) -> f64 {
    let m = etc.cols();
    if m < 2 {
        return 1.0;
    }
    let mut ordered = 0usize;
    let mut total = 0usize;
    for a in 0..m {
        for b in (a + 1)..m {
            total += 1;
            if dominates(etc, a, b) || dominates(etc, b, a) {
                ordered += 1;
            }
        }
    }
    ordered as f64 / total as f64
}

/// Makes an ETC matrix consistent in place by sorting each row ascending — the
/// standard construction in the generation literature (after sorting, column `j`
/// is the `j`-th fastest machine for *every* task).
pub fn make_consistent(etc: &Matrix) -> Matrix {
    let mut out = etc.clone();
    for i in 0..out.rows() {
        let row = out.row_mut(i);
        row.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    }
    out
}

/// Makes a **partially consistent** matrix: sorts each row only within the given
/// column subset (the classic "consistent submatrix" construction).
pub fn make_partially_consistent(
    etc: &Matrix,
    consistent_cols: &[usize],
) -> Result<Matrix, MeasureError> {
    for &j in consistent_cols {
        if j >= etc.cols() {
            return Err(MeasureError::InvalidEnvironment {
                reason: format!("column {j} out of range ({})", etc.cols()),
            });
        }
    }
    let mut out = etc.clone();
    for i in 0..out.rows() {
        let mut vals: Vec<f64> = consistent_cols.iter().map(|&j| out[(i, j)]).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        for (&j, v) in consistent_cols.iter().zip(vals) {
            out[(i, j)] = v;
        }
    }
    Ok(out)
}

/// Generates a consistency-controlled ETC matrix: start from a range-based
/// draw, then sort a `fraction` of each row's entries (per-row random subset of
/// columns of that size, shared across rows for submatrix semantics).
pub fn consistency_controlled(
    base: &Matrix,
    fraction: f64,
    seed: u64,
) -> Result<Matrix, MeasureError> {
    if !(0.0..=1.0).contains(&fraction) {
        return Err(MeasureError::InvalidEnvironment {
            reason: format!("fraction must be in [0, 1], got {fraction}"),
        });
    }
    let m = base.cols();
    let k = (fraction * m as f64).round() as usize;
    if k < 2 {
        return Ok(base.clone());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cols: Vec<usize> = (0..m).collect();
    // Fisher–Yates prefix shuffle to pick k distinct columns.
    for i in 0..k {
        let j = rng.gen_range(i..m);
        cols.swap(i, j);
    }
    make_partially_consistent(base, &cols[..k])
}

/// Convenience: classify a labeled environment.
pub fn classify_etc(etc: &Etc) -> Consistency {
    classify(etc.matrix())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range_based::{range_based, RangeParams};
    use hc_core::ecs::Ecs;
    use hc_core::standard::tma;

    #[test]
    fn classify_extremes() {
        // Columns globally ordered.
        let cons = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[2.0, 4.0, 9.0]]).unwrap();
        assert_eq!(classify(&cons), Consistency::Consistent);
        assert_eq!(consistency_degree(&cons), 1.0);
        // Every pair swaps.
        let incons = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert_eq!(classify(&incons), Consistency::Inconsistent);
        assert_eq!(consistency_degree(&incons), 0.0);
        // Machines 1 and 2 ordered, machine 3 swaps with both.
        let partial = Matrix::from_rows(&[&[1.0, 2.0, 5.0], &[1.0, 2.0, 0.5]]).unwrap();
        assert_eq!(classify(&partial), Consistency::PartiallyConsistent);
        let d = consistency_degree(&partial);
        assert!(d > 0.0 && d < 1.0);
    }

    #[test]
    fn single_machine_trivially_consistent() {
        let one = Matrix::from_rows(&[&[1.0], &[2.0]]).unwrap();
        assert_eq!(classify(&one), Consistency::Consistent);
        assert_eq!(consistency_degree(&one), 1.0);
    }

    #[test]
    fn make_consistent_sorts_rows() {
        let raw = Matrix::from_rows(&[&[3.0, 1.0, 2.0], &[9.0, 7.0, 8.0]]).unwrap();
        let c = make_consistent(&raw);
        assert_eq!(classify(&c), Consistency::Consistent);
        // Row multisets preserved.
        assert_eq!(c.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(c.row(1), &[7.0, 8.0, 9.0]);
    }

    #[test]
    fn partial_consistency_only_touches_subset() {
        let raw = Matrix::from_rows(&[&[3.0, 1.0, 2.0], &[1.0, 9.0, 5.0]]).unwrap();
        let p = make_partially_consistent(&raw, &[0, 2]).unwrap();
        // Column 1 untouched.
        assert_eq!(p[(0, 1)], 1.0);
        assert_eq!(p[(1, 1)], 9.0);
        // Columns {0, 2} sorted within each row.
        assert!(p[(0, 0)] <= p[(0, 2)]);
        assert!(p[(1, 0)] <= p[(1, 2)]);
        assert!(make_partially_consistent(&raw, &[9]).is_err());
    }

    #[test]
    fn consistent_matrices_have_lower_tma() {
        // The bridge to the paper: making a heterogeneous ETC consistent
        // collapses most of its task-machine affinity.
        let mut incons_sum = 0.0;
        let mut cons_sum = 0.0;
        let n = 10;
        for seed in 0..n {
            let etc = range_based(&RangeParams::hi_hi(10, 5), seed).unwrap();
            let raw = etc.matrix().clone();
            let cons = make_consistent(&raw);
            let t_in = tma(&Ecs::new(raw.map(|v| 1.0 / v)).unwrap()).unwrap();
            let t_c = tma(&Ecs::new(cons.map(|v| 1.0 / v)).unwrap()).unwrap();
            incons_sum += t_in;
            cons_sum += t_c;
        }
        assert!(
            cons_sum < incons_sum * 0.8,
            "consistent TMA sum {cons_sum} should be well below inconsistent {incons_sum}"
        );
    }

    #[test]
    fn consistency_controlled_interpolates() {
        let base = range_based(&RangeParams::hi_hi(12, 6), 3).unwrap();
        let raw = base.matrix();
        let d0 = consistency_degree(&consistency_controlled(raw, 0.0, 0).unwrap());
        let d1 = consistency_degree(&consistency_controlled(raw, 1.0, 0).unwrap());
        assert!(d1 > d0, "full sorting must raise consistency: {d1} vs {d0}");
        assert_eq!(d1, 1.0);
        assert!(consistency_controlled(raw, 1.5, 0).is_err());
        // fraction too small to matter returns the base unchanged.
        let same = consistency_controlled(raw, 0.1, 0).unwrap();
        assert_eq!(&same, raw);
    }

    #[test]
    fn classify_etc_wrapper() {
        let etc = range_based(&RangeParams::lo_lo(4, 3), 0).unwrap();
        let c = make_consistent(etc.matrix());
        let labeled = Etc::new(c).unwrap();
        assert_eq!(classify_etc(&labeled), Consistency::Consistent);
    }
}
