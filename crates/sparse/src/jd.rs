//! Jagged Diagonal storage (JD) — the third format of the HiSM papers'
//! comparisons ("a speedup … with respect to the Jagged Diagonal (JD) and
//! Compressed Row Storage (CRS) methods"), and the reason D-SAB sorts by
//! average non-zeros per row: "This metric is a good indication of the
//! efficiency of CRS versus JD."
//!
//! JD permutes rows by descending non-zero count and stores the k-th
//! non-zero of every (long-enough) row contiguously as the k-th *jagged
//! diagonal* — giving long vectors (good for vector processors) at the
//! price of a row permutation and column-index indirection.

use crate::{Coo, FormatError, Value};

/// A sparse matrix in Jagged Diagonal format.
#[derive(Debug, Clone, PartialEq)]
pub struct Jd {
    rows: usize,
    cols: usize,
    /// `perm[k]` = original index of the row in sorted position `k`.
    perm: Vec<usize>,
    /// Start of each jagged diagonal in `values`/`col_idx`
    /// (`jd_ptr.len() = max row length + 1`).
    jd_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<Value>,
}

impl Jd {
    /// Builds JD from COO (canonicalized first). The descending stable
    /// row-length sort is the *global-window* case of the shared
    /// [`crate::format::length_sorted_perm`] helper (SELL-C-σ is the
    /// same sort with `window = σ`).
    pub fn from_coo(coo: &Coo) -> Self {
        let canon = coo.canonical();
        let (rows, cols) = canon.shape();
        let row_entries = crate::format::row_buckets(&canon);
        let lengths = crate::format::row_lengths(&canon);
        let perm = crate::format::length_sorted_perm(&lengths, rows.max(1));
        let max_len = perm.first().map_or(0, |&r| row_entries[r].len());

        let mut jd_ptr = Vec::with_capacity(max_len + 1);
        let mut col_idx = Vec::with_capacity(canon.nnz());
        let mut values = Vec::with_capacity(canon.nnz());
        jd_ptr.push(0);
        for diag in 0..max_len {
            for &r in &perm {
                if let Some(&(c, v)) = row_entries[r].get(diag) {
                    col_idx.push(c);
                    values.push(v);
                } else {
                    break; // rows are length-sorted: the rest are shorter
                }
            }
            jd_ptr.push(col_idx.len());
        }
        Jd {
            rows,
            cols,
            perm,
            jd_ptr,
            col_idx,
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

    /// Number of jagged diagonals (= longest row).
    pub fn num_diagonals(&self) -> usize {
        self.jd_ptr.len() - 1
    }

    /// Length of jagged diagonal `d` — the vector length a vector
    /// processor gets for that diagonal's operations.
    pub fn diagonal_len(&self, d: usize) -> usize {
        self.jd_ptr[d + 1] - self.jd_ptr[d]
    }

    /// The row permutation (`perm[k]` = original row stored at position
    /// `k` of every diagonal).
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Diagonal start offsets into [`Self::col_idx`]/[`Self::values`]
    /// (`num_diagonals() + 1` entries, first 0, last `nnz`).
    pub fn jd_ptr(&self) -> &[usize] {
        &self.jd_ptr
    }

    /// Column indices, diagonal-major.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Values, diagonal-major (parallel to [`Self::col_idx`]).
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Converts back to canonical COO.
    pub fn to_coo(&self) -> Coo {
        let mut coo = Coo::new(self.rows, self.cols);
        for d in 0..self.num_diagonals() {
            let (a, b) = (self.jd_ptr[d], self.jd_ptr[d + 1]);
            for (k, idx) in (a..b).enumerate() {
                coo.push(self.perm[k], self.col_idx[idx], self.values[idx]);
            }
        }
        coo.canonicalize();
        coo
    }

    /// `y = A * x` over the jagged diagonals — the long-vector SpMV that
    /// motivates the format.
    pub fn spmv(&self, x: &[Value]) -> Result<Vec<Value>, FormatError> {
        if x.len() != self.cols {
            return Err(FormatError::ShapeMismatch {
                expected: (self.cols, 1),
                found: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.rows];
        for d in 0..self.num_diagonals() {
            let (a, b) = (self.jd_ptr[d], self.jd_ptr[d + 1]);
            for (k, idx) in (a..b).enumerate() {
                y[self.perm[k]] += self.values[idx] * x[self.col_idx[idx]];
            }
        }
        Ok(y)
    }

    /// Validates the structural invariants.
    pub fn validate(&self) -> Result<(), FormatError> {
        if self.jd_ptr.first() != Some(&0)
            || self.jd_ptr.windows(2).any(|w| w[0] > w[1])
            || self.jd_ptr.last() != Some(&self.values.len())
        {
            return Err(FormatError::BadPointerArray("jd_ptr malformed".into()));
        }
        // Diagonal lengths must be non-increasing.
        for d in 1..self.num_diagonals() {
            if self.diagonal_len(d) > self.diagonal_len(d - 1) {
                return Err(FormatError::BadPointerArray(
                    "jagged diagonals must shrink".into(),
                ));
            }
        }
        for &c in &self.col_idx {
            if c >= self.cols {
                return Err(FormatError::IndexOutOfBounds {
                    row: 0,
                    col: c,
                    rows: self.rows,
                    cols: self.cols,
                });
            }
        }
        let mut seen = vec![false; self.rows];
        for &p in &self.perm {
            if p >= self.rows || seen[p] {
                return Err(FormatError::BadPointerArray(
                    "perm not a permutation".into(),
                ));
            }
            seen[p] = true;
        }
        Ok(())
    }
}

impl crate::SparseFormat for Jd {
    const NAME: &'static str = "jd";

    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    fn nnz(&self) -> usize {
        Jd::nnz(self)
    }

    fn validate(&self) -> Result<(), FormatError> {
        Jd::validate(self)
    }

    fn from_coo(coo: &Coo) -> Result<Self, FormatError> {
        Ok(Jd::from_coo(coo))
    }

    fn to_coo(&self) -> Coo {
        Jd::to_coo(self)
    }

    fn spmv(&self, x: &[Value]) -> Result<Vec<Value>, FormatError> {
        Jd::spmv(self, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn sample() -> Coo {
        Coo::from_triplets(
            4,
            5,
            vec![
                (0, 1, 1.0),
                (1, 0, 2.0),
                (1, 2, 3.0),
                (1, 4, 4.0),
                (2, 3, 5.0),
                (3, 0, 6.0),
                (3, 1, 7.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_sorts_rows_by_length() {
        let jd = Jd::from_coo(&sample());
        jd.validate().unwrap();
        // Row lengths: r0=1, r1=3, r2=1, r3=2 → perm starts with 1, 3.
        assert_eq!(&jd.perm()[..2], &[1, 3]);
        assert_eq!(jd.num_diagonals(), 3);
        assert_eq!(jd.diagonal_len(0), 4);
        assert_eq!(jd.diagonal_len(1), 2);
        assert_eq!(jd.diagonal_len(2), 1);
    }

    #[test]
    fn round_trip() {
        let coo = sample();
        let mut expect = coo.clone();
        expect.canonicalize();
        assert_eq!(Jd::from_coo(&coo).to_coo(), expect);
    }

    #[test]
    fn round_trip_generator_families() {
        for coo in [
            gen::structured::diagonal(40),
            gen::random::uniform(64, 64, 300, 3),
            gen::random::power_law(80, 80, 10.0, 1.2, 4),
            Coo::new(10, 10),
        ] {
            let jd = Jd::from_coo(&coo);
            jd.validate().unwrap();
            let mut expect = coo.clone();
            expect.canonicalize();
            assert_eq!(jd.to_coo(), expect);
        }
    }

    #[test]
    fn spmv_matches_coo() {
        let coo = gen::random::uniform(50, 70, 400, 8);
        let jd = Jd::from_coo(&coo);
        let x: Vec<f32> = (0..70).map(|i| (i as f32 * 0.3).cos()).collect();
        let expect = coo.spmv(&x).unwrap();
        let got = jd.spmv(&x).unwrap();
        for (a, b) in got.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn diagonal_matrix_has_one_jagged_diagonal() {
        let jd = Jd::from_coo(&gen::structured::diagonal(30));
        assert_eq!(jd.num_diagonals(), 1);
        assert_eq!(jd.diagonal_len(0), 30);
    }

    #[test]
    fn empty_matrix() {
        let jd = Jd::from_coo(&Coo::new(5, 5));
        assert_eq!(jd.num_diagonals(), 0);
        assert_eq!(jd.to_coo().nnz(), 0);
        jd.validate().unwrap();
    }

    #[test]
    fn spmv_rejects_bad_length() {
        assert!(Jd::from_coo(&sample()).spmv(&[0.0; 3]).is_err());
    }
}
