//! Transpose a Matrix Market file on the simulated vector processor.
//!
//! Reads a `.mtx` coordinate file (the format of the collection the
//! paper's D-SAB suite is drawn from), transposes it with both kernels,
//! prints the cycle comparison, and writes the transposed matrix next to
//! the input. Without an argument, a demo matrix is generated and used.
//!
//! ```sh
//! cargo run --release --example mtx_transpose -- path/to/matrix.mtx
//! cargo run --release --example mtx_transpose            # demo matrix
//! ```

use hism_stm::hism::{build, HismImage};
use hism_stm::sparse::{gen, mm, Coo, Csr, MatrixMetrics};
use hism_stm::stm::kernels::{transpose_crs, transpose_hism};
use hism_stm::stm::ExecCtx;
use std::path::PathBuf;

fn load_or_demo() -> (Coo, PathBuf) {
    if let Some(path) = std::env::args().nth(1) {
        let path = PathBuf::from(path);
        let file = std::fs::File::open(&path)
            .unwrap_or_else(|e| panic!("cannot open {}: {e}", path.display()));
        let coo = mm::read_coo(std::io::BufReader::new(file))
            .unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()));
        (coo, path)
    } else {
        println!("no input given — generating a demo matrix (use: ... -- file.mtx)\n");
        let coo = gen::blocks::block_band(1024, 16, 1, 0.8, 99);
        let path = std::env::temp_dir().join("stm_demo.mtx");
        let mut f = std::fs::File::create(&path).expect("write demo matrix");
        mm::write_coo(&mut f, &coo).expect("serialize demo matrix");
        (coo, path)
    }
}

fn main() {
    let (coo, path) = load_or_demo();
    let m = MatrixMetrics::compute(&coo);
    println!(
        "{}: {}x{}, nnz {}, locality {:.2}, anz {:.2}",
        path.display(),
        coo.rows(),
        coo.cols(),
        m.nnz,
        m.locality,
        m.avg_nnz_per_row
    );

    let ctx = ExecCtx::paper();
    let h = build::from_coo(&coo, 64).expect("matrix fits HiSM (dims < 64^q)");
    let image = HismImage::encode(&h);
    let (out, hism_report) = transpose_hism(&ctx, &image).expect("valid image");
    let transposed = build::to_coo(&out.decode().expect("valid output image"));
    assert_eq!(transposed, coo.transpose_canonical());

    let (_, crs_report) = transpose_crs(&ctx, &Csr::from_coo(&coo)).expect("valid CSR");
    println!(
        "HiSM+STM: {} cycles ({:.2}/nnz)   CRS: {} cycles ({:.2}/nnz)   speedup {:.1}x",
        hism_report.cycles,
        hism_report.cycles_per_nnz(),
        crs_report.cycles,
        crs_report.cycles_per_nnz(),
        crs_report.cycles as f64 / hism_report.cycles as f64
    );

    let out_path = path.with_extension("transposed.mtx");
    let mut f = std::fs::File::create(&out_path).expect("create output file");
    mm::write_coo(&mut f, &transposed).expect("write transposed matrix");
    println!("wrote {}", out_path.display());
}
