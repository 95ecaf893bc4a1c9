//! A small dense row-major `f64` matrix.
//!
//! This is all the linear algebra the workspace needs: the MLP learner's
//! weight matrices. Deliberately minimal —
//! see DESIGN.md for why no external numerics crate is pulled in.

/// Dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Raw data in row-major order.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// `self · v` (matrix-vector product).
    ///
    /// # Panics
    /// Panics if `v.len() != cols`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec shape mismatch");
        let mut out = vec![0.0; self.rows];
        for (r, o) in out.iter_mut().enumerate() {
            let row = self.row(r);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(v) {
                acc += a * b;
            }
            *o = acc;
        }
        out
    }

    /// `selfᵀ · v` without materializing the transpose (backprop's
    /// gradient-through-weights step).
    ///
    /// # Panics
    /// Panics if `v.len() != rows`.
    pub fn t_matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "t_matvec shape mismatch");
        let mut out = vec![0.0; self.cols];
        for (r, &s) in v.iter().enumerate() {
            if s == 0.0 {
                continue;
            }
            let row = self.row(r);
            for (o, a) in out.iter_mut().zip(row) {
                *o += s * a;
            }
        }
        out
    }

    /// Adds `scale * other` element-wise in place (the optimizer update).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, scale: f64, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "axpy shape"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(rows: usize, cols: usize, data: &[f64]) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        m.as_mut_slice().copy_from_slice(data);
        m
    }

    #[test]
    fn construction_and_access() {
        let mut m = filled(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        m.row_mut(1)[2] = 9.0;
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 9.0]);
    }

    #[test]
    fn matvec_and_transpose_matvec() {
        let m = filled(2, 3, &[1.0, 0.0, 2.0, -1.0, 3.0, 1.0]);
        assert_eq!(m.matvec(&[1.0, 2.0, 3.0]), vec![7.0, 8.0]);
        assert_eq!(m.t_matvec(&[1.0, 1.0]), vec![0.0, 3.0, 3.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = filled(1, 3, &[1.0, 1.0, 1.0]);
        let g = filled(1, 3, &[2.0, 0.0, -2.0]);
        a.axpy(-0.5, &g);
        assert_eq!(a.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matvec_checks_shape() {
        Matrix::zeros(2, 3).matvec(&[1.0, 2.0]);
    }
}
