//! Compressed Column Storage.
//!
//! A CSC matrix of `A` holds exactly the data of a CSR matrix of `Aᵀ`, which
//! makes it a convenient *independent oracle* for the transposition kernels:
//! `Csc::from_coo(a)` and `Csr::from_coo(a).transpose_*()` must agree.

use crate::{Coo, Csr, FormatError, Value};

/// A sparse matrix in Compressed Column Storage format.
#[derive(Debug, Clone, PartialEq)]
pub struct Csc {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<Value>,
}

impl Csc {
    /// Builds a CSC matrix from a COO matrix (canonicalizing first). The
    /// arrays come from the same [`crate::format::compress_sorted`]
    /// helper as CSR's, with outer = column and inner = row, over the
    /// canonical transpose (which lists the entries column-major).
    pub fn from_coo(coo: &Coo) -> Self {
        let (rows, cols) = coo.shape();
        let (col_ptr, row_idx, values) = crate::format::compress_sorted(
            cols,
            coo.transpose_canonical().into_entries().into_iter(),
        );
        Csc {
            rows,
            cols,
            col_ptr,
            row_idx,
            values,
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

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column pointer array.
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row index array.
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// Value array.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Converts to COO.
    pub fn to_coo(&self) -> Coo {
        let mut coo = Coo::new(self.rows, self.cols);
        for j in 0..self.cols {
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                coo.push(self.row_idx[k], j, self.values[k]);
            }
        }
        coo
    }

    /// Reinterprets the CSC data of `A` as the CSR matrix of `Aᵀ` — a
    /// zero-cost transposition (the data is bit-identical).
    pub fn into_csr_of_transpose(self) -> Result<Csr, FormatError> {
        Csr::from_parts(
            self.cols,
            self.rows,
            self.col_ptr,
            self.row_idx,
            self.values,
        )
    }

    /// The inverse reinterpretation: the CSR data of `B` is bit-identical
    /// to the CSC data of `Bᵀ`. Together with
    /// [`Csc::into_csr_of_transpose`] this makes CSR↔CSC conversion a
    /// pair of zero-cost moves.
    pub fn from_csr_of_transpose(csr: Csr) -> Self {
        let (rows, cols, row_ptr, col_idx, values) = csr.into_parts();
        Csc {
            rows: cols,
            cols: rows,
            col_ptr: row_ptr,
            row_idx: col_idx,
            values,
        }
    }
}

impl crate::SparseFormat for Csc {
    const NAME: &'static str = "csc";

    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    fn nnz(&self) -> usize {
        Csc::nnz(self)
    }

    fn validate(&self) -> Result<(), FormatError> {
        // CSC(A) is CSR(Aᵀ) bit-for-bit, so the CSR validator covers
        // every CSC invariant through the zero-cost reinterpretation.
        self.clone().into_csr_of_transpose().map(|_| ())
    }

    fn from_coo(coo: &Coo) -> Result<Self, FormatError> {
        Ok(Csc::from_coo(coo))
    }

    fn to_coo(&self) -> Coo {
        let mut coo = Csc::to_coo(self);
        coo.sort_row_major();
        coo
    }

    /// Transpose without touching COO: reinterpret CSC(A) as CSR(Aᵀ),
    /// transpose that with Pissanetsky's algorithm to CSR(A), and
    /// reinterpret back as CSC(Aᵀ).
    fn transpose(&self) -> Result<Self, FormatError> {
        let csr_of_t = self.clone().into_csr_of_transpose()?;
        Ok(Csc::from_csr_of_transpose(csr_of_t.transpose_pissanetsky()))
    }

    fn spmv(&self, x: &[Value]) -> Result<Vec<Value>, FormatError> {
        if x.len() != self.cols {
            return Err(FormatError::ShapeMismatch {
                expected: (self.cols, 1),
                found: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.rows];
        for (j, &xj) in x.iter().enumerate() {
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                y[self.row_idx[k]] += self.values[k] * xj;
            }
        }
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Coo {
        Coo::from_triplets(
            3,
            4,
            vec![
                (0, 1, 1.0),
                (1, 0, 2.0),
                (1, 3, 3.0),
                (2, 1, 4.0),
                (2, 2, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_coo_builds_column_layout() {
        let m = Csc::from_coo(&sample());
        assert_eq!(m.col_ptr(), &[0, 1, 3, 4, 5]);
        assert_eq!(m.row_idx(), &[1, 0, 2, 2, 1]);
        assert_eq!(m.values(), &[2.0, 1.0, 4.0, 5.0, 3.0]);
    }

    #[test]
    fn round_trip_through_coo() {
        let coo = sample();
        let mut back = Csc::from_coo(&coo).to_coo();
        back.canonicalize();
        let mut orig = coo;
        orig.canonicalize();
        assert_eq!(back, orig);
    }

    #[test]
    fn csc_is_csr_of_transpose() {
        let coo = sample();
        let via_csc = Csc::from_coo(&coo).into_csr_of_transpose().unwrap();
        let via_pissanetsky = Csr::from_coo(&coo).transpose_pissanetsky();
        assert_eq!(via_csc, via_pissanetsky);
    }

    #[test]
    fn empty_matrix() {
        let m = Csc::from_coo(&Coo::new(2, 3));
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.col_ptr(), &[0, 0, 0, 0]);
    }
}
