//! Row-major dense `f32` matrix.
//!
//! [`Matrix`] is the workhorse container of the workspace: vertex feature
//! tables (`|V| x F`), per-layer embedding tables (`|V| x D_l`) and GNN weight
//! matrices (`D_{l-1} x D_l`) are all stored as `Matrix` values. Rows are the
//! unit of access almost everywhere (a row is one vertex's feature or
//! embedding vector), so the API is row-oriented.

use crate::{Result, TensorError};

/// A dense, row-major matrix of `f32` values.
///
/// # Example
///
/// ```
/// use ripple_tensor::Matrix;
///
/// let mut m = Matrix::zeros(3, 2);
/// m.row_mut(1).copy_from_slice(&[1.0, 2.0]);
/// assert_eq!(m.row(1), &[1.0, 2.0]);
/// assert_eq!(m.shape(), (3, 2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates an identity-like matrix: ones on the main diagonal, zeros
    /// elsewhere. The matrix need not be square; the diagonal runs over
    /// `min(rows, cols)` entries.
    pub fn eye(rows: usize, cols: usize) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows.min(cols) {
            m.data[i * cols + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a slice of equal-length rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RaggedRows`] if the rows do not all have the
    /// same length, and [`TensorError::Empty`] if `rows` is empty.
    ///
    /// # Example
    ///
    /// ```
    /// # use ripple_tensor::Matrix;
    /// # fn main() -> Result<(), ripple_tensor::TensorError> {
    /// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
    /// assert_eq!(m.get(1, 0)?, 3.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self> {
        let first = rows.first().ok_or(TensorError::Empty)?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(TensorError::RaggedRows {
                    expected: cols,
                    found: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch {
                op: "from_flat",
                left: (rows, cols),
                right: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` if the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`. Use [`Matrix::try_row`] for a fallible
    /// variant.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "row index {r} out of bounds ({} rows)",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "row index {r} out of bounds ({} rows)",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Fallible borrow of row `r`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `r >= self.rows()`.
    pub fn try_row(&self, r: usize) -> Result<&[f32]> {
        if r >= self.rows {
            return Err(TensorError::IndexOutOfBounds {
                index: r,
                bound: self.rows,
            });
        }
        Ok(self.row(r))
    }

    /// Element accessor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if either index is out of
    /// range.
    pub fn get(&self, r: usize, c: usize) -> Result<f32> {
        if r >= self.rows {
            return Err(TensorError::IndexOutOfBounds {
                index: r,
                bound: self.rows,
            });
        }
        if c >= self.cols {
            return Err(TensorError::IndexOutOfBounds {
                index: c,
                bound: self.cols,
            });
        }
        Ok(self.data[r * self.cols + c])
    }

    /// Element setter.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if either index is out of
    /// range.
    pub fn set(&mut self, r: usize, c: usize, value: f32) -> Result<()> {
        if r >= self.rows {
            return Err(TensorError::IndexOutOfBounds {
                index: r,
                bound: self.rows,
            });
        }
        if c >= self.cols {
            return Err(TensorError::IndexOutOfBounds {
                index: c,
                bound: self.cols,
            });
        }
        self.data[r * self.cols + c] = value;
        Ok(())
    }

    /// Copies `values` into row `r`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `r` is out of range and
    /// [`TensorError::ShapeMismatch`] if `values.len() != self.cols()`.
    pub fn set_row(&mut self, r: usize, values: &[f32]) -> Result<()> {
        if r >= self.rows {
            return Err(TensorError::IndexOutOfBounds {
                index: r,
                bound: self.rows,
            });
        }
        if values.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "set_row",
                left: (1, self.cols),
                right: (1, values.len()),
            });
        }
        self.row_mut(r).copy_from_slice(values);
        Ok(())
    }

    /// Flat row-major view of the whole matrix.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the whole matrix.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the flat row-major buffer.
    pub fn into_flat(self) -> Vec<f32> {
        self.data
    }

    /// Iterator over rows as slices. A zero-width matrix still yields one
    /// (empty) slice per row, so `iter_rows().count() == rows()` for every
    /// shape.
    ///
    /// ```
    /// # use ripple_tensor::Matrix;
    /// let m = Matrix::eye(2, 2);
    /// let sums: Vec<f32> = m.iter_rows().map(|r| r.iter().sum()).collect();
    /// assert_eq!(sums, vec![1.0, 1.0]);
    /// ```
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> + '_ {
        (0..self.rows).map(move |r| &self.data[r * self.cols..(r + 1) * self.cols])
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Fills the whole matrix with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Reshapes the matrix to `rows x cols`, zero-filled, **reusing the
    /// existing buffer capacity**. Once the buffer has grown to the largest
    /// shape a call site needs, subsequent calls perform no heap allocation —
    /// this is the primitive behind the `_into` kernels' scratch reuse.
    pub fn resize_reuse(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Overwrites this matrix with the shape and contents of `other`,
    /// **reusing the existing buffer capacity**. Once the buffer has grown to
    /// `other`'s size, repeated refreshes perform no heap allocation — the
    /// primitive behind epoch-snapshot double buffering in the serving layer.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Largest absolute element-wise difference between two matrices of the
    /// same shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> Result<f32> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "max_abs_diff",
                left: self.shape(),
                right: other.shape(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max))
    }

    /// Heap memory retained by the matrix's buffer, in bytes. Reports the
    /// buffer **capacity**, not its current length, so scratch arenas that
    /// shrank via [`Matrix::resize_reuse`] still account for the memory they
    /// hold on to.
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }

    /// Total memory attributable to the matrix, in bytes: the inline struct
    /// (shape fields + `Vec` header) plus [`Matrix::heap_bytes`]. As with
    /// `heap_bytes`, buffer **capacity** (not length) is what is counted.
    /// Used by the experiment harness to report memory overheads (the paper
    /// reports a ~4 GiB overhead for Ripple's extra per-layer state on
    /// Products).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.heap_bytes()
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert!(!m.is_empty());
    }

    #[test]
    fn empty_matrix_is_empty() {
        let m = Matrix::zeros(0, 4);
        assert!(m.is_empty());
    }

    #[test]
    fn filled_sets_every_element() {
        let m = Matrix::filled(2, 2, 7.5);
        assert!(m.as_slice().iter().all(|&x| x == 7.5));
    }

    #[test]
    fn eye_rectangular() {
        let m = Matrix::eye(2, 3);
        assert_eq!(m.row(0), &[1.0, 0.0, 0.0]);
        assert_eq!(m.row(1), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn from_rows_round_trips() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(
            err,
            TensorError::RaggedRows {
                expected: 2,
                found: 1
            }
        ));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(matches!(Matrix::from_rows(&[]), Err(TensorError::Empty)));
    }

    #[test]
    fn from_flat_validates_length() {
        assert!(Matrix::from_flat(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_flat(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn get_set_round_trip() {
        let mut m = Matrix::zeros(2, 2);
        m.set(1, 1, 9.0).unwrap();
        assert_eq!(m.get(1, 1).unwrap(), 9.0);
        assert!(m.get(2, 0).is_err());
        assert!(m.get(0, 2).is_err());
        assert!(m.set(2, 0, 1.0).is_err());
        assert!(m.set(0, 2, 1.0).is_err());
    }

    #[test]
    fn set_row_validates() {
        let mut m = Matrix::zeros(2, 3);
        m.set_row(0, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert!(m.set_row(5, &[1.0, 2.0, 3.0]).is_err());
        assert!(m.set_row(0, &[1.0]).is_err());
    }

    #[test]
    fn try_row_out_of_bounds() {
        let m = Matrix::zeros(1, 1);
        assert!(m.try_row(0).is_ok());
        assert!(m.try_row(1).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_panics_out_of_bounds() {
        let m = Matrix::zeros(1, 1);
        let _ = m.row(3);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.row(0), &[1.0, 4.0]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn max_abs_diff_and_approx_eq() {
        let a = Matrix::filled(2, 2, 1.0);
        let mut b = a.clone();
        b.set(0, 1, 1.5).unwrap();
        assert!((a.max_abs_diff(&b).unwrap() - 0.5).abs() < 1e-6);
        let c = Matrix::zeros(3, 3);
        assert!(a.max_abs_diff(&c).is_err());
    }

    #[test]
    fn iter_rows_covers_all_rows() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let collected: Vec<f32> = m.iter_rows().map(|r| r[0]).collect();
        assert_eq!(collected, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn iter_rows_zero_width_yields_one_empty_slice_per_row() {
        // Regression: the old `chunks_exact(cols.max(1))` hack made a (3, 0)
        // matrix yield 0 rows instead of 3 empty ones.
        let m = Matrix::zeros(3, 0);
        let rows: Vec<&[f32]> = m.iter_rows().collect();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.is_empty()));
        // And a zero-row matrix yields no rows regardless of width.
        assert_eq!(Matrix::zeros(0, 4).iter_rows().count(), 0);
        assert_eq!(Matrix::zeros(0, 0).iter_rows().count(), 0);
    }

    #[test]
    fn resize_reuse_reshapes_and_zeroes_without_growing_needlessly() {
        let mut m = Matrix::filled(4, 4, 7.0);
        let capacity_before = m.heap_bytes();
        m.resize_reuse(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(
            m.heap_bytes(),
            capacity_before,
            "shrinking must keep the buffer"
        );
        m.resize_reuse(4, 4);
        assert_eq!(m.shape(), (4, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn copy_from_matches_source_and_reuses_capacity() {
        let src = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let mut dst = Matrix::filled(8, 8, 9.0);
        let capacity_before = dst.heap_bytes();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(
            dst.heap_bytes(),
            capacity_before,
            "refresh into a larger buffer must not reallocate"
        );
        // Growing past the capacity still produces an exact copy.
        let big = Matrix::filled(16, 16, 0.5);
        dst.copy_from(&big);
        assert_eq!(dst, big);
    }

    #[test]
    fn fill_overwrites() {
        let mut m = Matrix::eye(2, 2);
        m.fill(2.0);
        assert!(m.as_slice().iter().all(|&x| x == 2.0));
    }

    #[test]
    fn memory_bytes_is_positive_for_nonempty() {
        let m = Matrix::zeros(10, 10);
        assert!(m.memory_bytes() >= 400);
    }

    /// Pins the accounting contract: `memory_bytes` = inline struct +
    /// capacity-sized heap buffer, so scratch arenas stay visible in memory
    /// reports even after shrinking.
    #[test]
    fn memory_accounting_counts_struct_and_capacity() {
        let mut m = Matrix::zeros(10, 10);
        assert_eq!(m.heap_bytes(), 400);
        assert_eq!(
            m.memory_bytes(),
            std::mem::size_of::<Matrix>() + m.heap_bytes()
        );
        m.resize_reuse(1, 1);
        assert_eq!(m.heap_bytes(), 400, "capacity, not len, is reported");
        let empty = Matrix::default();
        assert_eq!(empty.memory_bytes(), std::mem::size_of::<Matrix>());
    }

    #[test]
    fn default_is_empty() {
        assert!(Matrix::default().is_empty());
    }
}
