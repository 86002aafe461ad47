//! Compressed Row Storage — the paper's "CRS" baseline format.
//!
//! The paper (Fig. 8) names the three arrays `AN` (array of non-zeros),
//! `JA` (column positions) and `IA` (row pointers); here they are `values`,
//! `col_idx` and `row_ptr`. This module also hosts the *host-side* reference
//! implementation of Pissanetsky's transposition algorithm (paper Fig. 9) —
//! the same algorithm the simulated vectorized baseline executes — so the
//! simulator kernels can be validated against it.

use crate::{Coo, FormatError, Value};

/// A sparse matrix in Compressed Row Storage format.
///
/// Invariants (checked by [`Csr::validate`]):
/// * `row_ptr.len() == rows + 1`, `row_ptr[0] == 0`, monotone non-decreasing,
///   `row_ptr[rows] == col_idx.len() == values.len()`;
/// * within each row, column indices are strictly increasing.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<Value>,
}

impl Csr {
    /// Builds a CSR matrix from raw parts, validating all invariants.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<Value>,
    ) -> Result<Self, FormatError> {
        let m = Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        };
        m.validate()?;
        Ok(m)
    }

    /// Builds a CSR matrix from raw parts *without* validating the
    /// invariants. The resulting matrix may violate every documented
    /// invariant; operations on it can return garbage (but must not
    /// panic or run unbounded).
    ///
    /// Exists for fault-injection and robustness testing — the only way
    /// to hand a simulated kernel deliberately corrupted CRS arrays. Use
    /// [`Csr::from_parts`] everywhere else.
    pub fn from_parts_unchecked(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<Value>,
    ) -> Self {
        Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Builds a CSR matrix from a COO matrix. Duplicates are summed and the
    /// columns within each row are sorted (i.e. the input is canonicalized
    /// first, unless it already is canonical). The pointer/index/value
    /// arrays are produced by the shared [`crate::format::compress_sorted`]
    /// helper (outer = row).
    pub fn from_coo(coo: &Coo) -> Self {
        let c = coo.canonical();
        let (rows, cols) = c.shape();
        let (row_ptr, col_idx, values) = crate::format::compress_sorted(rows, c.iter().copied());
        Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Converts to COO (canonical order).
    pub fn to_coo(&self) -> Coo {
        let mut coo = Coo::new(self.rows, self.cols);
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                coo.push(r, self.col_idx[k], self.values[k]);
            }
        }
        coo
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointer array (`IA` in the paper, 0-based here).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array (`JA` in the paper).
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Value array (`AN` in the paper).
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The `(col_idx, values)` slice pair of one row.
    pub fn row(&self, r: usize) -> (&[usize], &[Value]) {
        let (a, b) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col_idx[a..b], &self.values[a..b])
    }

    /// Value at `(row, col)`, or `None` when the position is structurally
    /// zero. Binary-searches the row.
    pub fn get(&self, row: usize, col: usize) -> Option<Value> {
        let (cols, vals) = self.row(row);
        cols.binary_search(&col).ok().map(|k| vals[k])
    }

    /// Checks all structural invariants.
    pub fn validate(&self) -> Result<(), FormatError> {
        if self.row_ptr.len() != self.rows + 1 {
            return Err(FormatError::BadPointerArray(format!(
                "row_ptr has length {}, expected {}",
                self.row_ptr.len(),
                self.rows + 1
            )));
        }
        if self.row_ptr.first() != Some(&0) {
            return Err(FormatError::BadPointerArray("row_ptr[0] != 0".into()));
        }
        if self.row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(FormatError::BadPointerArray("row_ptr not monotone".into()));
        }
        if *self.row_ptr.last().unwrap() != self.col_idx.len()
            || self.col_idx.len() != self.values.len()
        {
            return Err(FormatError::BadPointerArray(
                "row_ptr[rows] != col_idx.len() != values.len()".into(),
            ));
        }
        for r in 0..self.rows {
            let (cols, _) = self.row(r);
            for &c in cols {
                if c >= self.cols {
                    return Err(FormatError::IndexOutOfBounds {
                        row: r,
                        col: c,
                        rows: self.rows,
                        cols: self.cols,
                    });
                }
            }
            if cols.windows(2).any(|w| w[0] >= w[1]) {
                return Err(FormatError::UnsortedIndices { outer: r });
            }
        }
        Ok(())
    }

    /// Host-side reference of Pissanetsky's CRS transposition algorithm
    /// (paper Fig. 9). This is intentionally a line-by-line transliteration
    /// of the published pseudo-code (with 0-based indices):
    ///
    /// 1. count the non-zeros of each *column* into `IAT`;
    /// 2. exclusive scan-add over `IAT` to obtain the transposed row
    ///    pointers;
    /// 3. scatter pass: walk the rows of `A`, appending each element to the
    ///    (growing) transposed row it belongs to.
    ///
    /// The simulated, vectorized baseline in `stm-core` executes exactly
    /// these three phases and is checked against this function.
    ///
    /// ```
    /// use stm_sparse::{Coo, Csr};
    /// let coo = Coo::from_triplets(2, 3, vec![(0, 2, 5.0), (1, 0, 7.0)]).unwrap();
    /// let t = Csr::from_coo(&coo).transpose_pissanetsky();
    /// assert_eq!(t.shape(), (3, 2));
    /// assert_eq!(t.get(2, 0), Some(5.0));
    /// ```
    pub fn transpose_pissanetsky(&self) -> Csr {
        let nnz = self.nnz();
        // Phase 1: column histogram. iat[j+1] counts non-zeros of column j.
        let mut iat = vec![0usize; self.cols + 1];
        for &j in &self.col_idx {
            iat[j + 1] += 1;
        }
        // Phase 2: scan-add (exclusive prefix sum).
        for j in 0..self.cols {
            iat[j + 1] += iat[j];
        }
        let row_ptr_t = iat.clone();
        // Phase 3: scatter. `iat[j]` is the next free slot of transposed
        // row j and is bumped as elements are placed (paper lines 4-13).
        let mut jat = vec![0usize; nnz];
        let mut ant = vec![0.0; nnz];
        for i in 0..self.rows {
            for jp in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[jp];
                let k = iat[j];
                jat[k] = i;
                ant[k] = self.values[jp];
                iat[j] = k + 1;
            }
        }
        Csr {
            rows: self.cols,
            cols: self.rows,
            row_ptr: row_ptr_t,
            col_idx: jat,
            values: ant,
        }
    }

    /// Multiplies `y = A * x`.
    pub fn spmv(&self, x: &[Value]) -> Result<Vec<Value>, FormatError> {
        if x.len() != self.cols {
            return Err(FormatError::ShapeMismatch {
                expected: (self.cols, 1),
                found: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(r);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c];
            }
            *yr = acc;
        }
        Ok(y)
    }

    /// Storage cost in bits, per the paper's accounting: a 32-bit word per
    /// value, a 32-bit column index per non-zero, and a 32-bit row pointer
    /// per row (plus one).
    pub fn storage_bits(&self) -> u64 {
        32 * (2 * self.nnz() as u64 + self.row_ptr.len() as u64)
    }

    /// Decomposes into `(rows, cols, row_ptr, col_idx, values)` — the
    /// inverse of [`Csr::from_parts`], used by the zero-cost CSR/CSC
    /// reinterpretations.
    pub fn into_parts(self) -> (usize, usize, Vec<usize>, Vec<usize>, Vec<Value>) {
        (
            self.rows,
            self.cols,
            self.row_ptr,
            self.col_idx,
            self.values,
        )
    }
}

impl crate::SparseFormat for Csr {
    const NAME: &'static str = "csr";

    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    fn nnz(&self) -> usize {
        Csr::nnz(self)
    }

    fn validate(&self) -> Result<(), FormatError> {
        Csr::validate(self)
    }

    fn from_coo(coo: &Coo) -> Result<Self, FormatError> {
        Ok(Csr::from_coo(coo))
    }

    fn to_coo(&self) -> Coo {
        Csr::to_coo(self)
    }

    fn transpose(&self) -> Result<Self, FormatError> {
        Ok(self.transpose_pissanetsky())
    }

    fn spmv(&self, x: &[Value]) -> Result<Vec<Value>, FormatError> {
        Csr::spmv(self, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_coo() -> Coo {
        // 4x5 matrix, deliberately irregular.
        Coo::from_triplets(
            4,
            5,
            vec![
                (0, 0, 1.0),
                (0, 3, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
                (2, 4, 6.0),
                (3, 3, 7.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_coo_builds_expected_arrays() {
        let m = Csr::from_coo(&sample_coo());
        assert_eq!(m.row_ptr(), &[0, 2, 3, 6, 7]);
        assert_eq!(m.col_idx(), &[0, 3, 1, 0, 2, 4, 3]);
        assert_eq!(m.values(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        m.validate().unwrap();
    }

    #[test]
    fn coo_round_trip() {
        let coo = sample_coo();
        let mut back = Csr::from_coo(&coo).to_coo();
        back.sort_row_major();
        let mut orig = coo.clone();
        orig.canonicalize();
        assert_eq!(back, orig);
    }

    #[test]
    fn get_finds_entries_and_zeros() {
        let m = Csr::from_coo(&sample_coo());
        assert_eq!(m.get(2, 2), Some(5.0));
        assert_eq!(m.get(2, 3), None);
    }

    #[test]
    fn transpose_matches_coo_oracle() {
        let coo = sample_coo();
        let t = Csr::from_coo(&coo).transpose_pissanetsky();
        t.validate().unwrap();
        let mut got = t.to_coo();
        got.sort_row_major();
        assert_eq!(got, coo.transpose_canonical());
    }

    #[test]
    fn transpose_shape_swaps() {
        let t = Csr::from_coo(&sample_coo()).transpose_pissanetsky();
        assert_eq!(t.shape(), (5, 4));
    }

    #[test]
    fn double_transpose_is_identity() {
        let m = Csr::from_coo(&sample_coo());
        assert_eq!(m.transpose_pissanetsky().transpose_pissanetsky(), m);
    }

    #[test]
    fn transpose_keeps_rows_sorted() {
        // Pissanetsky's scatter emits each transposed row in increasing
        // source-row order, so the result must validate (sorted columns).
        let coo = sample_coo();
        let t = Csr::from_coo(&coo).transpose_pissanetsky();
        t.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_pointers() {
        let err = Csr::from_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).unwrap_err();
        assert!(matches!(err, FormatError::BadPointerArray(_)));
    }

    #[test]
    fn validate_rejects_unsorted_columns() {
        let err = Csr::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).unwrap_err();
        assert!(matches!(err, FormatError::UnsortedIndices { outer: 0 }));
    }

    #[test]
    fn spmv_matches_coo() {
        let coo = sample_coo();
        let m = Csr::from_coo(&coo);
        let x = [1.0, -1.0, 2.0, 0.5, 3.0];
        assert_eq!(m.spmv(&x).unwrap(), coo.spmv(&x).unwrap());
    }

    #[test]
    fn empty_rows_and_cols_transpose() {
        let coo = Coo::from_triplets(3, 3, vec![(1, 1, 9.0)]).unwrap();
        let t = Csr::from_coo(&coo).transpose_pissanetsky();
        assert_eq!(t.row_ptr(), &[0, 0, 1, 1]);
        assert_eq!(t.get(1, 1), Some(9.0));
    }

    #[test]
    fn storage_bits_counts_paper_layout() {
        let m = Csr::from_coo(&sample_coo());
        assert_eq!(m.storage_bits(), 32 * (2 * 7 + 5));
    }
}
