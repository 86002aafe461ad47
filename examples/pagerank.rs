//! PageRank over a synthetic web graph — a workload where sparse
//! transposition is on the critical path: the crawl produces the
//! *out-link* matrix `A`, but the power iteration needs *in-links*, i.e.
//! `Aᵀ`. The adjacency matrix is stored in HiSM, transposed on the
//! simulated vector processor through the STM, and then used for the
//! ranking iteration (software HiSM SpMV).
//!
//! ```sh
//! cargo run --release --example pagerank
//! ```

use hism_stm::hism::{build, spmv, HismImage};
use hism_stm::sparse::gen::rmat::{rmat, RmatProbs};
use hism_stm::sparse::Csr;
use hism_stm::stm::kernels::{transpose_crs, transpose_hism};
use hism_stm::stm::ExecCtx;

const DAMPING: f32 = 0.85;

fn main() {
    // A scale-12 R-MAT graph: 4096 pages, ~40k links, power-law degrees.
    let n = 4096usize;
    let mut adj = rmat(12, 40_000, RmatProbs::default(), 7);
    // Links are structural: weight 1.
    let links: Vec<(usize, usize, f32)> = adj.iter().map(|&(s, d, _)| (s, d, 1.0)).collect();
    adj = hism_stm::sparse::Coo::from_triplets(n, n, links).unwrap();
    adj.canonicalize();
    println!("web graph: {} pages, {} links", n, adj.nnz());

    // Out-degrees (for the column-stochastic normalization).
    let mut outdeg = vec![0f32; n];
    for &(src, _, _) in adj.iter() {
        outdeg[src] += 1.0;
    }

    // --- Transpose the crawl matrix on the simulated machine -----------
    let ctx = ExecCtx::paper();
    let h = build::from_coo(&adj, 64).expect("graph fits HiSM");
    let image = HismImage::encode(&h);
    let (out, report) = transpose_hism(&ctx, &image).expect("valid image");
    let at = out.decode().expect("valid output image"); // Aᵀ: rows are in-links
    assert_eq!(build::to_coo(&at), adj.transpose_canonical());

    let (_, crs_report) = transpose_crs(&ctx, &Csr::from_coo(&adj)).expect("valid CSR");
    println!(
        "transpose on the VP: HiSM+STM {} cycles vs CRS {} cycles ({:.1}x)\n",
        report.cycles,
        crs_report.cycles,
        crs_report.cycles as f64 / report.cycles as f64
    );

    // --- Power iteration: x <- d * Aᵀ (x ./ outdeg) + (1-d)/n ------------
    let mut x = vec![1.0 / n as f32; n];
    let mut iterations = 0;
    loop {
        let scaled: Vec<f32> = x
            .iter()
            .zip(&outdeg)
            .map(|(&xi, &d)| if d > 0.0 { xi / d } else { 0.0 })
            .collect();
        let mut next = spmv::spmv(&at, &scaled).expect("shape matches");
        // Dangling mass + damping.
        let dangling: f32 = x
            .iter()
            .zip(&outdeg)
            .filter(|(_, &d)| d == 0.0)
            .map(|(&xi, _)| xi)
            .sum();
        for v in &mut next {
            *v = DAMPING * (*v + dangling / n as f32) + (1.0 - DAMPING) / n as f32;
        }
        let delta: f32 = next.iter().zip(&x).map(|(a, b)| (a - b).abs()).sum();
        x = next;
        iterations += 1;
        if delta < 1e-7 || iterations >= 200 {
            break;
        }
    }
    println!("power iteration converged in {iterations} iterations");

    let mut ranked: Vec<(usize, f32)> = x.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("top pages by rank:");
    for (page, score) in ranked.iter().take(5) {
        println!("  page {page:>5}  rank {score:.6}");
    }
    let total: f32 = x.iter().sum();
    assert!(
        (total - 1.0).abs() < 1e-3,
        "rank mass must be conserved, got {total}"
    );
}
