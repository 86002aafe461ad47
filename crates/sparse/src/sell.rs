//! SELL-C-σ — the unified SIMD-friendly sparse format of Kreutzer et
//! al. ("A unified sparse matrix data format for efficient general
//! sparse matrix-vector multiply on modern processors with wide SIMD
//! units").
//!
//! Rows are sorted by descending non-zero count within windows of σ
//! consecutive rows ([`crate::format::length_sorted_perm`]), then packed
//! into chunks of `C` rows. Each chunk is padded to the width of its
//! longest row and stored **column-major within the chunk**: element
//! `j` of lane `k` lives at `chunk_ptr[i] + j*C + k`, so a vector unit
//! loads `C` lanes with one stride-`C` access. σ must be a positive
//! multiple of `C`; combined with the descending sort this gives the
//! *prefix-active-lanes* property — at depth `j`, the live lanes of a
//! chunk are exactly a prefix — which the simulated SELL kernels rely
//! on to skip padding work.
//!
//! Padding positions carry the column sentinel `cols` and the value
//! `0.0`; [`Sell::nnz`] and the occupancy statistics count stored
//! non-zeros only.

use crate::format::{length_sorted_perm, row_buckets, row_lengths, SparseFormat};
use crate::{Coo, FormatError, Value};

/// SELL-C-σ construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SellConfig {
    /// Chunk height `C`: the number of rows (vector lanes) per chunk.
    pub c: usize,
    /// Sort window σ: rows are length-sorted within windows of σ
    /// consecutive rows. Must be a positive multiple of `c`.
    pub sigma: usize,
}

impl Default for SellConfig {
    /// `C = 64` (the paper machine's section size) and `σ = 512`.
    fn default() -> Self {
        SellConfig { c: 64, sigma: 512 }
    }
}

impl SellConfig {
    /// Validates `c > 0`, `sigma > 0`, and `sigma % c == 0`.
    pub fn validate(&self) -> Result<(), FormatError> {
        if self.c == 0 || self.sigma == 0 {
            return Err(FormatError::BadConfig(format!(
                "SELL-C-σ needs positive C and σ, got C={} σ={}",
                self.c, self.sigma
            )));
        }
        if !self.sigma.is_multiple_of(self.c) {
            return Err(FormatError::BadConfig(format!(
                "SELL-C-σ sort window σ={} must be a multiple of C={}",
                self.sigma, self.c
            )));
        }
        Ok(())
    }
}

/// Chunk-occupancy statistics of a SELL-C-σ matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkStats {
    /// Number of chunks.
    pub chunks: usize,
    /// Stored non-zeros.
    pub stored: usize,
    /// Padding cells (allocated but not backed by a non-zero).
    pub padded: usize,
    /// `stored / (stored + padded)`; `1.0` for an empty matrix.
    pub occupancy: f64,
    /// Width of the widest chunk.
    pub max_chunk_len: usize,
}

/// A sparse matrix in SELL-C-σ format.
#[derive(Debug, Clone, PartialEq)]
pub struct Sell {
    rows: usize,
    cols: usize,
    config: SellConfig,
    /// `perm[p]` = original row stored at sorted position `p`
    /// (covers *all* rows, empty rows included).
    perm: Vec<usize>,
    /// Word offset of each chunk in `col_idx`/`values`
    /// (`chunk_ptr.len() = chunks + 1`).
    chunk_ptr: Vec<usize>,
    /// Width (longest row) of each chunk.
    chunk_len: Vec<usize>,
    /// Non-zero count of the row at sorted position `p`.
    row_len: Vec<usize>,
    /// Padded column indices, column-major within each chunk; padding
    /// cells hold the sentinel `cols`.
    col_idx: Vec<usize>,
    /// Padded values; padding cells hold `0.0`.
    values: Vec<Value>,
}

impl Sell {
    /// Builds SELL-C-σ with explicit parameters (canonicalizing first).
    pub fn from_coo_with(coo: &Coo, config: SellConfig) -> Result<Self, FormatError> {
        config.validate()?;
        let canon = coo.canonical();
        let (rows, cols) = canon.shape();
        let lengths = row_lengths(&canon);
        let perm = length_sorted_perm(&lengths, config.sigma);
        let buckets = row_buckets(&canon);
        let row_len: Vec<usize> = perm.iter().map(|&r| lengths[r]).collect();

        let chunks = rows.div_ceil(config.c);
        let mut chunk_ptr = Vec::with_capacity(chunks + 1);
        let mut chunk_len = Vec::with_capacity(chunks);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        chunk_ptr.push(0);
        for i in 0..chunks {
            let base = i * config.c;
            let lanes = config.c.min(rows - base);
            let width = row_len[base..base + lanes]
                .iter()
                .copied()
                .max()
                .unwrap_or(0);
            // Column-major fill: depth-major over the chunk, so the
            // index walk is genuinely positional.
            #[allow(clippy::needless_range_loop)]
            for j in 0..width {
                for k in 0..config.c {
                    let p = base + k;
                    if k < lanes && j < row_len[p] {
                        let (c, v) = buckets[perm[p]][j];
                        col_idx.push(c);
                        values.push(v);
                    } else {
                        col_idx.push(cols);
                        values.push(0.0);
                    }
                }
            }
            chunk_len.push(width);
            chunk_ptr.push(col_idx.len());
        }
        Ok(Sell {
            rows,
            cols,
            config,
            perm,
            chunk_ptr,
            chunk_len,
            row_len,
            col_idx,
            values,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros (padding excluded).
    pub fn nnz(&self) -> usize {
        self.row_len.iter().sum()
    }

    /// The construction parameters.
    pub fn config(&self) -> SellConfig {
        self.config
    }

    /// Number of chunks.
    pub fn chunks(&self) -> usize {
        self.chunk_len.len()
    }

    /// The row permutation (`perm[p]` = original row at sorted
    /// position `p`).
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Chunk offsets into [`Sell::col_idx`]/[`Sell::values`].
    pub fn chunk_ptr(&self) -> &[usize] {
        &self.chunk_ptr
    }

    /// Per-chunk widths.
    pub fn chunk_len(&self) -> &[usize] {
        &self.chunk_len
    }

    /// Per-position row lengths (sorted order).
    pub fn row_len(&self) -> &[usize] {
        &self.row_len
    }

    /// Padded column-index array (sentinel `cols` at padding cells).
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Padded value array (`0.0` at padding cells).
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Chunk-occupancy statistics.
    pub fn chunk_stats(&self) -> ChunkStats {
        let stored = self.nnz();
        let cells = self.col_idx.len();
        ChunkStats {
            chunks: self.chunks(),
            stored,
            padded: cells - stored,
            occupancy: if cells == 0 {
                1.0
            } else {
                stored as f64 / cells as f64
            },
            max_chunk_len: self.chunk_len.iter().copied().max().unwrap_or(0),
        }
    }

    /// Fraction of allocated cells backed by a non-zero
    /// (`1.0` for an empty matrix).
    pub fn occupancy(&self) -> f64 {
        self.chunk_stats().occupancy
    }
}

/// Predicts the SELL-C-σ occupancy of a matrix from its row lengths
/// alone — shared by [`Sell::chunk_stats`] validation tests and the
/// `MatrixMetrics` cost-model inputs, so the autotuner can score SELL
/// without building it.
pub fn occupancy_from_lengths(lengths: &[usize], c: usize, sigma: usize) -> f64 {
    assert!(
        c > 0 && sigma > 0 && sigma.is_multiple_of(c),
        "invalid SELL config"
    );
    let perm = length_sorted_perm(lengths, sigma);
    let mut stored = 0usize;
    let mut cells = 0usize;
    for chunk in perm.chunks(c) {
        let width = chunk.iter().map(|&r| lengths[r]).max().unwrap_or(0);
        stored += chunk.iter().map(|&r| lengths[r]).sum::<usize>();
        cells += c * width;
    }
    if cells == 0 {
        1.0
    } else {
        stored as f64 / cells as f64
    }
}

impl SparseFormat for Sell {
    const NAME: &'static str = "sell";

    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    fn nnz(&self) -> usize {
        Sell::nnz(self)
    }

    fn validate(&self) -> Result<(), FormatError> {
        self.config.validate()?;
        let c = self.config.c;
        let chunks = self.rows.div_ceil(c);
        if self.perm.len() != self.rows || self.row_len.len() != self.rows {
            return Err(FormatError::BadPointerArray(
                "perm/row_len length != rows".into(),
            ));
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
        if self.chunk_len.len() != chunks || self.chunk_ptr.len() != chunks + 1 {
            return Err(FormatError::BadPointerArray(
                "chunk arrays inconsistent with rows/C".into(),
            ));
        }
        if self.chunk_ptr.first() != Some(&0) {
            return Err(FormatError::BadPointerArray("chunk_ptr[0] != 0".into()));
        }
        for i in 0..chunks {
            if self.chunk_ptr[i + 1] - self.chunk_ptr[i] != c * self.chunk_len[i] {
                return Err(FormatError::BadPointerArray(format!(
                    "chunk {i} span != C * width"
                )));
            }
            let base = i * c;
            let lanes = c.min(self.rows - base);
            for k in 0..lanes {
                let p = base + k;
                if self.row_len[p] > self.chunk_len[i] {
                    return Err(FormatError::BadPointerArray(format!(
                        "row at position {p} longer than its chunk width"
                    )));
                }
                // Descending within the chunk — the prefix-active-lanes
                // property the kernels rely on (guaranteed by σ % C == 0).
                if k > 0 && self.row_len[p] > self.row_len[p - 1] {
                    return Err(FormatError::BadPointerArray(format!(
                        "row lengths not descending within chunk {i}"
                    )));
                }
            }
            for j in 0..self.chunk_len[i] {
                for k in 0..c {
                    let cell = self.chunk_ptr[i] + j * c + k;
                    let active = k < lanes && j < self.row_len[base + k];
                    let col = self.col_idx[cell];
                    if active {
                        if col >= self.cols {
                            return Err(FormatError::IndexOutOfBounds {
                                row: self.perm[base + k],
                                col,
                                rows: self.rows,
                                cols: self.cols,
                            });
                        }
                        if j > 0 {
                            let prev = self.col_idx[self.chunk_ptr[i] + (j - 1) * c + k];
                            if prev >= col {
                                return Err(FormatError::UnsortedIndices {
                                    outer: self.perm[base + k],
                                });
                            }
                        }
                    } else if col != self.cols || self.values[cell] != 0.0 {
                        return Err(FormatError::BadPointerArray(format!(
                            "padding cell {cell} not sentinel/zero"
                        )));
                    }
                }
            }
        }
        if self.col_idx.len() != *self.chunk_ptr.last().unwrap()
            || self.values.len() != self.col_idx.len()
        {
            return Err(FormatError::BadPointerArray(
                "data arrays inconsistent with chunk_ptr".into(),
            ));
        }
        Ok(())
    }

    fn from_coo(coo: &Coo) -> Result<Self, FormatError> {
        Sell::from_coo_with(coo, SellConfig::default())
    }

    fn to_coo(&self) -> Coo {
        let c = self.config.c;
        let mut coo = Coo::new(self.rows, self.cols);
        for i in 0..self.chunks() {
            let base = i * c;
            let lanes = c.min(self.rows - base);
            for k in 0..lanes {
                let p = base + k;
                for j in 0..self.row_len[p] {
                    let cell = self.chunk_ptr[i] + j * c + k;
                    coo.push(self.perm[p], self.col_idx[cell], self.values[cell]);
                }
            }
        }
        coo.canonicalize();
        coo
    }

    /// `y = A * x`, accumulating each row's products sequentially in
    /// ascending-column order — the *same* floating-point operation
    /// order as `Csr::spmv` on the same matrix, so the results are
    /// bit-identical (padding contributes no operations at all, which
    /// also keeps `-0.0` row sums intact).
    fn spmv(&self, x: &[Value]) -> Result<Vec<Value>, FormatError> {
        if x.len() != self.cols {
            return Err(FormatError::ShapeMismatch {
                expected: (self.cols, 1),
                found: (x.len(), 1),
            });
        }
        let c = self.config.c;
        let mut y = vec![0.0; self.rows];
        for i in 0..self.chunks() {
            let base = i * c;
            let lanes = c.min(self.rows - base);
            for k in 0..lanes {
                let p = base + k;
                let mut acc = 0.0;
                for j in 0..self.row_len[p] {
                    let cell = self.chunk_ptr[i] + j * c + k;
                    acc += self.values[cell] * x[self.col_idx[cell]];
                }
                y[self.perm[p]] = acc;
            }
        }
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::Csr;

    fn small_cfg() -> SellConfig {
        SellConfig { c: 4, sigma: 8 }
    }

    #[test]
    fn config_validation() {
        assert!(SellConfig::default().validate().is_ok());
        assert!(SellConfig { c: 0, sigma: 8 }.validate().is_err());
        assert!(SellConfig { c: 4, sigma: 0 }.validate().is_err());
        assert!(SellConfig { c: 4, sigma: 6 }.validate().is_err());
        assert!(matches!(
            Sell::from_coo_with(&Coo::new(2, 2), SellConfig { c: 3, sigma: 4 }),
            Err(FormatError::BadConfig(_))
        ));
    }

    #[test]
    fn construction_round_trips_generator_families() {
        for coo in [
            gen::structured::diagonal(40),
            gen::structured::tridiagonal(50),
            gen::random::uniform(64, 48, 300, 3),
            gen::random::power_law(80, 80, 10.0, 1.2, 4),
            Coo::new(10, 10),
            Coo::new(0, 0),
        ] {
            let sell = Sell::from_coo_with(&coo, small_cfg()).unwrap();
            SparseFormat::validate(&sell).unwrap();
            let mut expect = coo.clone();
            expect.canonicalize();
            assert_eq!(SparseFormat::to_coo(&sell), expect);
            assert_eq!(Sell::nnz(&sell), expect.nnz());
        }
    }

    #[test]
    fn chunk_widths_follow_sorted_lengths() {
        // Rows of lengths 1,4,2,3 with C=2, σ=4: global-window sort
        // gives perm [1,3,0,2], chunks (4,3) and (1,1) wide 4 and 1...
        let coo = Coo::from_triplets(
            4,
            5,
            vec![
                (0, 0, 1.0),
                (1, 0, 1.0),
                (1, 1, 1.0),
                (1, 2, 1.0),
                (1, 3, 1.0),
                (2, 0, 1.0),
                (2, 4, 1.0),
                (3, 1, 1.0),
                (3, 2, 1.0),
                (3, 4, 1.0),
            ],
        )
        .unwrap();
        let sell = Sell::from_coo_with(&coo, SellConfig { c: 2, sigma: 4 }).unwrap();
        assert_eq!(sell.perm(), &[1, 3, 2, 0]);
        assert_eq!(sell.chunk_len(), &[4, 2]);
        assert_eq!(sell.row_len(), &[4, 3, 2, 1]);
        let stats = sell.chunk_stats();
        assert_eq!(stats.stored, 10);
        assert_eq!(stats.padded, (2 * 4 + 2 * 2) - 10);
    }

    #[test]
    fn spmv_is_bit_identical_to_csr() {
        for (coo, seed) in [
            (gen::random::uniform(200, 150, 2000, 5), 5),
            (gen::random::power_law(300, 300, 20.0, 1.0, 6), 6),
        ] {
            let _ = seed;
            let sell = Sell::from_coo_with(&coo, SellConfig { c: 8, sigma: 32 }).unwrap();
            let csr = Csr::from_coo(&coo);
            let x: Vec<f32> = (0..coo.cols()).map(|i| ((i % 9) as f32) - 4.0).collect();
            let a = SparseFormat::spmv(&sell, &x).unwrap();
            let b = csr.spmv(&x).unwrap();
            assert_eq!(a.len(), b.len());
            for (i, (u, v)) in a.iter().zip(&b).enumerate() {
                assert_eq!(u.to_bits(), v.to_bits(), "lane {i}");
            }
        }
    }

    #[test]
    fn occupancy_prediction_matches_construction() {
        for coo in [
            gen::random::power_law(300, 300, 12.0, 1.3, 9),
            gen::structured::diagonal(100),
        ] {
            let cfg = SellConfig { c: 8, sigma: 16 };
            let sell = Sell::from_coo_with(&coo, cfg).unwrap();
            let mut canon = coo.clone();
            canon.canonicalize();
            let lens = crate::format::row_lengths(&canon);
            let predicted = occupancy_from_lengths(&lens, cfg.c, cfg.sigma);
            assert!((sell.occupancy() - predicted).abs() < 1e-12);
        }
    }

    #[test]
    fn sigma_bounds_sorting_distance() {
        // With σ = C, no cross-window motion: perm is identity per chunk
        // window regardless of lengths.
        let coo = gen::random::power_law(64, 64, 6.0, 1.0, 11);
        let sell = Sell::from_coo_with(&coo, SellConfig { c: 4, sigma: 4 }).unwrap();
        for (p, &r) in sell.perm().iter().enumerate() {
            assert_eq!(p / 4, r / 4, "row {r} left its σ-window");
        }
    }

    #[test]
    fn empty_matrix_has_full_occupancy() {
        let sell = Sell::from_coo_with(&Coo::new(0, 0), small_cfg()).unwrap();
        assert_eq!(sell.chunks(), 0);
        assert_eq!(sell.occupancy(), 1.0);
        SparseFormat::validate(&sell).unwrap();
    }
}
