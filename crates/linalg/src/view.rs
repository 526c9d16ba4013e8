//! Borrowed, zero-copy matrix views.
//!
//! [`MatRef`] and [`MatMut`] are stride-aware windows over row-major `f64`
//! storage — a whole [`Matrix`], a rectangular block of one, or any external
//! buffer. The workspace kernels (`svd_with_stats_budgeted_in`,
//! `spectrum_in`, `bidiagonalize_in`, `hc_sinkhorn`'s `standardize_in`, `matmul_into`, …)
//! take views instead of owned matrices, so callers can feed them pooled
//! scratch, sub-blocks, or caller-owned data without cloning. Rows of a view are always contiguous; columns are walked
//! through the row stride.

use std::ops::{Index, IndexMut};

use crate::error::LinAlgError;
use crate::matrix::Matrix;
use crate::Result;

/// An immutable, possibly-strided view of a row-major matrix.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
    row_stride: usize,
}

/// A mutable, possibly-strided view of a row-major matrix.
#[derive(Debug)]
pub struct MatMut<'a> {
    data: &'a mut [f64],
    rows: usize,
    cols: usize,
    row_stride: usize,
}

fn check_dims(len: usize, rows: usize, cols: usize, row_stride: usize) {
    assert!(row_stride >= cols, "row stride {row_stride} < cols {cols}");
    if rows > 0 {
        let needed = (rows - 1) * row_stride + cols;
        assert!(
            len >= needed,
            "buffer of {len} too small for view ({needed} needed)"
        );
    }
}

impl<'a> MatRef<'a> {
    /// A contiguous view over `data`, interpreted as `rows × cols` row-major.
    ///
    /// # Panics
    /// Panics when `data` is shorter than `rows * cols`.
    pub fn new(data: &'a [f64], rows: usize, cols: usize) -> Self {
        Self::with_stride(data, rows, cols, cols)
    }

    /// A strided view: row `i` starts at `data[i * row_stride]`.
    ///
    /// # Panics
    /// Panics when `row_stride < cols` or `data` cannot hold the last row.
    pub fn with_stride(data: &'a [f64], rows: usize, cols: usize, row_stride: usize) -> Self {
        check_dims(data.len(), rows, cols, row_stride);
        MatRef {
            data,
            rows,
            cols,
            row_stride,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// `true` when the view has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distance (in elements) between the starts of consecutive rows.
    #[inline]
    pub fn row_stride(&self) -> usize {
        self.row_stride
    }

    /// `true` when rows are packed back to back (stride == cols).
    #[inline]
    pub fn is_contiguous(&self) -> bool {
        self.row_stride == self.cols || self.rows <= 1
    }

    /// Entry `(i, j)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds"
        );
        self.data[i * self.row_stride + j]
    }

    /// Contiguous slice of row `i`.
    ///
    /// # Panics
    /// Panics when `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.row_stride..i * self.row_stride + self.cols]
    }

    /// Iterator over the row slices.
    pub fn row_iter(&self) -> impl Iterator<Item = &'a [f64]> + '_ {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// Iterator over the entries of column `j`, top to bottom.
    ///
    /// # Panics
    /// Panics when `j >= cols`.
    pub fn col_iter(&self, j: usize) -> impl Iterator<Item = f64> + 'a {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        let (data, stride) = (self.data, self.row_stride);
        (0..self.rows).map(move |i| data[i * stride + j])
    }

    /// The backing slice when the view is contiguous, `None` otherwise.
    pub fn as_contiguous_slice(&self) -> Option<&'a [f64]> {
        if self.is_contiguous() {
            Some(&self.data[..self.len()])
        } else {
            None
        }
    }

    /// A `sub_rows × sub_cols` sub-view with top-left corner at `(r0, c0)`.
    ///
    /// # Panics
    /// Panics when the block exceeds the view bounds.
    pub fn submatrix(&self, r0: usize, c0: usize, sub_rows: usize, sub_cols: usize) -> MatRef<'a> {
        assert!(
            r0 + sub_rows <= self.rows && c0 + sub_cols <= self.cols,
            "sub-view out of bounds"
        );
        MatRef {
            data: &self.data[r0 * self.row_stride + c0..],
            rows: sub_rows,
            cols: sub_cols,
            row_stride: self.row_stride,
        }
    }

    /// Copies the viewed block into a fresh owned [`Matrix`].
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| self.at(i, j))
    }

    /// Errs with [`LinAlgError::NonFinite`] on the first NaN/∞ entry.
    pub fn check_finite(&self, op: &'static str) -> Result<()> {
        for i in 0..self.rows {
            for (j, v) in self.row(i).iter().enumerate() {
                if !v.is_finite() {
                    return Err(LinAlgError::NonFinite { op, row: i, col: j });
                }
            }
        }
        Ok(())
    }
}

impl Index<(usize, usize)> for MatRef<'_> {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds"
        );
        &self.data[i * self.row_stride + j]
    }
}

impl<'a> MatMut<'a> {
    /// A contiguous mutable view over `data` (`rows × cols`, row-major).
    ///
    /// # Panics
    /// Panics when `data` is shorter than `rows * cols`.
    pub fn new(data: &'a mut [f64], rows: usize, cols: usize) -> Self {
        Self::with_stride(data, rows, cols, cols)
    }

    /// A strided mutable view: row `i` starts at `data[i * row_stride]`.
    ///
    /// # Panics
    /// Panics when `row_stride < cols` or `data` cannot hold the last row.
    pub fn with_stride(data: &'a mut [f64], rows: usize, cols: usize, row_stride: usize) -> Self {
        check_dims(data.len(), rows, cols, row_stride);
        MatMut {
            data,
            rows,
            cols,
            row_stride,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// An immutable reborrow of this view.
    #[inline]
    pub fn rb(&self) -> MatRef<'_> {
        MatRef {
            data: self.data,
            rows: self.rows,
            cols: self.cols,
            row_stride: self.row_stride,
        }
    }

    /// Entry `(i, j)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds"
        );
        self.data[i * self.row_stride + j]
    }

    /// Mutable contiguous slice of row `i`.
    ///
    /// # Panics
    /// Panics when `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        let start = i * self.row_stride;
        &mut self.data[start..start + self.cols]
    }

    /// Sets every entry to `value`.
    pub fn fill(&mut self, value: f64) {
        for i in 0..self.rows {
            self.row_mut(i).fill(value);
        }
    }

    /// Copies `src` (same shape) into this view.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn copy_from(&mut self, src: MatRef<'_>) {
        assert_eq!(self.shape(), src.shape(), "copy_from shape mismatch");
        for i in 0..self.rows {
            self.row_mut(i).copy_from_slice(src.row(i));
        }
    }

    /// Multiplies row `i` by `s` in place.
    pub fn scale_row(&mut self, i: usize, s: f64) {
        for v in self.row_mut(i) {
            *v *= s;
        }
    }

    /// Multiplies column `j` by `s` in place.
    ///
    /// # Panics
    /// Panics when `j >= cols`.
    pub fn scale_col(&mut self, j: usize, s: f64) {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        for i in 0..self.rows {
            self.data[i * self.row_stride + j] *= s;
        }
    }
}

impl Index<(usize, usize)> for MatMut<'_> {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds"
        );
        &self.data[i * self.row_stride + j]
    }
}

impl IndexMut<(usize, usize)> for MatMut<'_> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds"
        );
        &mut self.data[i * self.row_stride + j]
    }
}

impl Matrix {
    /// A zero-copy immutable view of the whole matrix.
    #[inline]
    pub fn view(&self) -> MatRef<'_> {
        MatRef::new(self.as_slice(), self.rows(), self.cols())
    }

    /// A zero-copy mutable view of the whole matrix.
    #[inline]
    pub fn view_mut(&mut self) -> MatMut<'_> {
        let (rows, cols) = self.shape();
        MatMut::new(self.as_mut_slice(), rows, cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64)
    }

    #[test]
    fn whole_matrix_view_roundtrip() {
        let m = sample();
        let v = m.view();
        assert_eq!(v.shape(), (3, 4));
        assert!(v.is_contiguous());
        assert_eq!(v.at(1, 2), m[(1, 2)]);
        assert_eq!(v[(2, 3)], 11.0);
        assert_eq!(v.row(1), m.row(1));
        assert_eq!(v.to_matrix(), m);
        assert_eq!(v.as_contiguous_slice(), Some(m.as_slice()));
    }

    #[test]
    fn strided_submatrix_access() {
        let m = sample();
        let v = m.view().submatrix(1, 1, 2, 2);
        assert_eq!(v.shape(), (2, 2));
        assert!(!v.is_contiguous());
        assert_eq!(v.as_contiguous_slice(), None);
        assert_eq!(v.at(0, 0), 5.0);
        assert_eq!(v.at(1, 1), 10.0);
        assert_eq!(v.row(1), &[9.0, 10.0]);
        let col: Vec<f64> = v.col_iter(0).collect();
        assert_eq!(col, vec![5.0, 9.0]);
        assert_eq!(
            v.to_matrix(),
            Matrix::from_rows(&[&[5.0, 6.0], &[9.0, 10.0]]).unwrap()
        );
    }

    #[test]
    fn mut_view_edits_backing_matrix() {
        let mut m = sample();
        let mut v = m.view_mut();
        v[(0, 0)] = 42.0;
        v.scale_row(1, 2.0);
        v.scale_col(3, 0.0);
        assert_eq!(m[(0, 0)], 42.0);
        assert_eq!(m[(1, 1)], 10.0);
        assert_eq!(m[(2, 3)], 0.0);
    }

    #[test]
    fn copy_from_and_fill() {
        let src = sample();
        let mut dst = Matrix::zeros(3, 4);
        dst.view_mut().copy_from(src.view());
        assert_eq!(dst, src);
        dst.view_mut().fill(7.0);
        assert!(dst.as_slice().iter().all(|&x| x == 7.0));
    }

    #[test]
    fn reborrow_matches_owner() {
        let mut m = sample();
        let v = m.view_mut();
        let r = v.rb();
        assert_eq!(r.to_matrix(), sample());
    }

    #[test]
    fn check_finite_reports_position() {
        let mut m = sample();
        m[(2, 1)] = f64::NAN;
        let err = m.view().check_finite("test").unwrap_err();
        assert!(matches!(err, LinAlgError::NonFinite { row: 2, col: 1, .. }));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let m = sample();
        m.view().at(3, 0);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn short_buffer_rejected() {
        let data = [0.0; 5];
        let _ = MatRef::new(&data, 2, 3);
    }
}
