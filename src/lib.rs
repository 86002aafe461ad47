//! # hism-stm — Sparse Matrix Transpose Unit reproduction
//!
//! Facade crate re-exporting the whole workspace:
//!
//! * [`sparse`] — matrix formats, generators, Matrix Market I/O, metrics;
//! * [`hism`] — the Hierarchical Sparse Matrix storage format;
//! * [`vpsim`] — the cycle-timing vector processor simulator;
//! * [`stm`] — the Sparse matrix Transposition Mechanism (functional unit)
//!   and the HiSM / CRS transposition kernels;
//! * [`dsab`] — the synthetic D-SAB benchmark suite;
//! * [`obs`] — cycle-level structured tracing and metrics (spans,
//!   counters, Chrome-trace export; see DESIGN.md §9).
//!
//! See `README.md` for a tour and `DESIGN.md` for the system inventory.
//!
//! # Example: transpose a sparse matrix on the simulated machine
//!
//! ```
//! use hism_stm::hism::{build, HismImage};
//! use hism_stm::sparse::{Coo, Csr};
//! use hism_stm::stm::kernels::{transpose_crs, transpose_hism};
//! use hism_stm::stm::ExecCtx;
//!
//! // A small sparse matrix.
//! let coo = Coo::from_triplets(100, 100, vec![
//!     (0, 7, 1.0), (3, 3, 2.0), (42, 90, 3.0), (99, 0, 4.0),
//! ]).unwrap();
//!
//! // HiSM + STM on the paper's machine (s = 64, B = L = p = 4). The
//! // kernels treat their input as untrusted, so they return a Result
//! // with a typed error instead of panicking on corrupt images.
//! let ctx = ExecCtx::paper();
//! let h = build::from_coo(&coo, 64).unwrap();
//! let (out, hism_report) = transpose_hism(&ctx, &HismImage::encode(&h)).unwrap();
//! assert_eq!(build::to_coo(&out.decode().unwrap()), coo.transpose_canonical());
//!
//! // The vectorized CRS baseline on the same machine.
//! let (t, crs_report) = transpose_crs(&ctx, &Csr::from_coo(&coo)).unwrap();
//! assert_eq!(t, Csr::from_coo(&coo).transpose_pissanetsky());
//!
//! // The paper's claim: the STM path is faster.
//! assert!(hism_report.cycles < crs_report.cycles);
//!
//! // The same kernels are also selectable by name through the registry
//! // (this is how the benchmark harness drives them).
//! use hism_stm::stm::kernels::registry;
//! let mut ctx = ctx.clone();
//! let mut kernel = registry::create("transpose_hism").unwrap();
//! kernel.prepare(&coo, &ctx).unwrap();
//! let report = kernel.run(&mut ctx).unwrap();
//! kernel.verify(&coo, &report.output).unwrap();
//! assert_eq!(report.report.cycles, hism_report.cycles);
//! ```

#![forbid(unsafe_code)]

pub use stm_dsab as dsab;
pub use stm_hism as hism;
pub use stm_obs as obs;
pub use stm_sparse as sparse;
pub use stm_vpsim as vpsim;

/// The paper's contribution: STM unit + transposition kernels.
pub mod stm {
    pub use stm_core::*;
}
