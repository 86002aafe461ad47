//! Quickstart: build a sparse matrix, store it hierarchically, and
//! transpose it on the simulated vector processor — once through the STM
//! functional unit (the paper's mechanism) and once through the
//! vectorized CRS baseline — then compare cycle counts.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hism_stm::hism::{build, HismImage};
use hism_stm::sparse::{gen, Csr, MatrixMetrics};
use hism_stm::stm::kernels::{transpose_crs, transpose_hism};
use hism_stm::stm::ExecCtx;

fn main() {
    // A 512x512 matrix with scattered dense 32x32 blocks — the kind of
    // "high locality" structure the STM is designed for.
    let coo = gen::blocks::block_dense(512, 32, 24, 0.85, 42);
    let metrics = MatrixMetrics::compute(&coo);
    println!(
        "matrix: 512x512, nnz = {}, locality = {:.2}, avg nnz/row = {:.2}\n",
        metrics.nnz, metrics.locality, metrics.avg_nnz_per_row
    );

    // The machine of the paper's evaluation: section size 64, 4 lanes,
    // 20-cycle memory startup, chaining; STM with B = 4, L = 4.
    let ctx = ExecCtx::paper();

    // --- HiSM + STM ----------------------------------------------------
    let h = build::from_coo(&coo, ctx.stm.s).expect("matrix fits HiSM");
    let image = HismImage::encode(&h);
    let (out, hism_report) = transpose_hism(&ctx, &image).expect("valid image");

    // The transposition is functional: decode the simulated memory and
    // check it against the host-side oracle.
    let decoded = build::to_coo(&out.decode().expect("valid output image"));
    assert_eq!(
        decoded,
        coo.transpose_canonical(),
        "simulated transpose must be exact"
    );
    println!(
        "HiSM + STM : {:>9} cycles  ({:.2} cycles per non-zero, {} STM block sessions)",
        hism_report.cycles,
        hism_report.cycles_per_nnz(),
        hism_report.stm.unwrap().sessions
    );

    // --- CRS baseline ----------------------------------------------------
    let csr = Csr::from_coo(&coo);
    let (out_csr, crs_report) = transpose_crs(&ctx, &csr).expect("valid CSR");
    assert_eq!(out_csr, csr.transpose_pissanetsky());
    println!(
        "CRS        : {:>9} cycles  ({:.2} cycles per non-zero)",
        crs_report.cycles,
        crs_report.cycles_per_nnz()
    );
    for p in &crs_report.phases {
        println!("             {:>9} cycles in {}", p.cycles, p.name);
    }

    println!(
        "\nspeedup: {:.1}x  (the paper reports 1.8x - 32.0x across its suite)",
        crs_report.cycles as f64 / hism_report.cycles as f64
    );
}
