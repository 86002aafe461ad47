//! The trivial *dense* transpose of the paper's Section II — "for a dense
//! matrix, the problem is trivial and can be solved by addressing a
//! row-wise stored matrix with a stride equal to the number of rows" —
//! implemented as a simulated kernel so the motivation is measurable:
//! its cost scales with `rows x cols` (every cell, zero or not), which is
//! exactly why sparse formats, and then sparse transposition hardware,
//! exist.

use super::{engine, finish, Ran};
use crate::exec::{ExecCtx, KernelError};
use crate::report::TransposeReport;
use stm_sparse::{Coo, Dense};
use stm_vpsim::{Allocator, Memory};

/// Simulates the dense strided transpose of a matrix (stored row-major as
/// a full `rows x cols` array) on the context's machine, under its timing
/// model (the functional result is identical for every model; only the
/// cycle accounting changes). Returns the transposed dense matrix read
/// back from simulated memory, and the report (`nnz` is the matrix's
/// non-zero count so `cycles_per_nnz` is comparable with the sparse
/// kernels).
pub fn transpose_dense(ctx: &ExecCtx, coo: &Coo) -> Result<(Dense, TransposeReport), KernelError> {
    // `Dense::from_coo` indexes by entry coordinates; validate first so a
    // corrupted COO is a typed error rather than a panic.
    coo.validate(false)?;
    let (rows, cols) = (coo.rows(), coo.cols());
    let dense = Dense::from_coo(coo);
    let mut mem = Memory::new();
    let mut alloc = Allocator::new(64);
    let src = alloc.alloc(rows * cols);
    let dst = alloc.alloc(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            mem.write_f32(src + (r * cols + c) as u32, dense.get(r, c));
        }
    }
    let mut e = engine(ctx, mem, alloc.watermark());
    let s = ctx.vp.section_size;

    // For each output row (= input column): strided gather of the column,
    // contiguous store of the row. Strip-mined over the section size.
    for c in 0..cols {
        let mut off = 0usize;
        while off < rows {
            let vl = s.min(rows - off);
            let col = e.v_ld_strided(src + (off * cols + c) as u32, cols as u32, vl);
            e.v_st(dst + (c * rows + off) as u32, &col);
            e.loop_overhead();
            off += vl;
        }
    }

    let ran = Ok(Ran::whole("dense-transpose", &e));
    let report = finish(ctx, &e, coo.canonical().nnz(), None, ran)?;
    let mem = e.into_mem();
    let mut out = Dense::zeros(cols, rows);
    for c in 0..cols {
        for r in 0..rows {
            out.set(c, r, mem.read_f32(dst + (c * rows + r) as u32));
        }
    }
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::transpose_hism;
    use stm_hism::{build, HismImage};
    use stm_sparse::gen;

    #[test]
    fn dense_transpose_is_functionally_exact() {
        let coo = gen::random::uniform(20, 30, 100, 3);
        let (t, report) = transpose_dense(&ExecCtx::paper(), &coo).unwrap();
        assert_eq!(t.to_coo(), coo.transpose_canonical());
        assert!(report.cycles > 0);
    }

    #[test]
    fn dense_cost_scales_with_area_not_nnz() {
        // Same nnz, 4x the area → roughly 4x the cycles.
        let small = gen::random::uniform(64, 64, 500, 1);
        let large = gen::random::uniform(128, 128, 500, 1);
        let ctx = ExecCtx::paper();
        let (_, rs) = transpose_dense(&ctx, &small).unwrap();
        let (_, rl) = transpose_dense(&ctx, &large).unwrap();
        let ratio = rl.cycles as f64 / rs.cycles as f64;
        assert!(ratio > 2.5 && ratio < 6.0, "ratio = {ratio}");
    }

    #[test]
    fn hism_crushes_dense_on_sparse_matrices() {
        // Section II's motivation, quantified: on a 1%-dense matrix the
        // sparse mechanism must win by a wide margin.
        let coo = gen::random::uniform(256, 256, 650, 7);
        let ctx = ExecCtx::paper();
        let (_, dense_r) = transpose_dense(&ctx, &coo).unwrap();
        let h = build::from_coo(&coo, 64).unwrap();
        let (_, hism_r) = transpose_hism(&ctx, &HismImage::encode(&h)).unwrap();
        assert!(
            dense_r.cycles > 10 * hism_r.cycles,
            "dense {} vs hism {}",
            dense_r.cycles,
            hism_r.cycles
        );
    }

    #[test]
    fn rectangular_dense_transpose() {
        let coo = gen::random::uniform(10, 40, 60, 2);
        let (t, _) = transpose_dense(&ExecCtx::paper(), &coo).unwrap();
        assert_eq!((t.rows(), t.cols()), (40, 10));
        assert_eq!(t.to_coo(), coo.transpose_canonical());
    }
}
