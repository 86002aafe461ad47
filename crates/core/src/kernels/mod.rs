//! The two transposition kernels the paper evaluates, both executing on
//! the simulated vector processor — functionally (memory really gets
//! transposed) and timed (cycle counts come out):
//!
//! * [`hism_transpose`] — the recursive HiSM kernel of the paper's
//!   Fig. 6/7, using the STM functional unit;
//! * [`crs_transpose`] — the vectorized Pissanetsky baseline of Fig. 9,
//!   with its scalar histogram phase ([`histogram`]) and vectorized
//!   scan-add ([`scan`]);
//! * [`crs_scalar`] — the fully scalar Pissanetsky baseline (the
//!   "traditional scalar architecture" of the paper's introduction);
//! * [`hism_spmv`] / [`crs_spmv`] — simulated sparse matrix–vector
//!   multiplication over both formats (the extension experiment backing
//!   the paper's reference \[5\]);
//! * [`coo_transpose`] / [`jd_transpose`] / [`sell`] — transposition
//!   from the remaining formats of the unified `SparseFormat` layer
//!   (COO triplets, Jagged Diagonal, SELL-C-σ), plus the SELL SpMV.
//!   All three transpositions reduce to the Pissanetsky pipeline and
//!   produce byte-identical output to [`crs_transpose`].
//!
//! Each kernel has exactly one entry point,
//! `kernel(ctx: &ExecCtx, input) -> Result<(output, TransposeReport), KernelError>`:
//! the [`ExecCtx`] supplies the machine, the timing model and the
//! recorder. Every engine kernel opens with one shared prologue (guarded
//! memory, engine, recorder) and closes with one shared epilogue (fault
//! accounting, report, phase spans), so that accounting exists once.
//!
//! Every kernel is also registered behind the [`crate::exec::Kernel`]
//! trait in [`registry`], so harnesses select kernels by name instead of
//! importing these functions directly.

pub mod coo_transpose;
pub mod crs_scalar;
pub mod crs_spmv;
pub mod crs_transpose;
pub mod dense_transpose;
pub mod hism_spmv;
pub mod hism_transpose;
pub mod histogram;
pub mod jd_transpose;
pub mod registry;
pub mod scan;
pub mod sell;

pub use coo_transpose::transpose_coo;
pub use crs_scalar::transpose_crs_scalar;
pub use crs_spmv::spmv_crs;
pub use crs_transpose::transpose_crs;
pub use dense_transpose::transpose_dense;
pub use hism_spmv::spmv_hism;
pub use hism_transpose::transpose_hism;
pub use jd_transpose::transpose_jd;
pub use sell::{spmv_sell, transpose_sell};

use crate::exec::{ExecCtx, KernelError};
use crate::obs::{record_oob, record_phases};
use crate::report::{Phase, StmStats, TransposeReport};
use stm_vpsim::scalar::ScalarRunStats;
use stm_vpsim::{Engine, Memory};

/// What a kernel body hands the epilogue: its phase partition of the run
/// and the scalar-core statistics of its histogram phase, if it has one.
pub(crate) struct Ran {
    pub(crate) phases: Vec<Phase>,
    pub(crate) scalar: Option<ScalarRunStats>,
}

impl Ran {
    /// A body that is one phase spanning the whole run so far.
    pub(crate) fn whole(name: &'static str, e: &Engine) -> Ran {
        Ran {
            phases: vec![Phase {
                name,
                cycles: e.cycles(),
            }],
            scalar: None,
        }
    }
}

/// The shared engine prologue: guards `mem` to its first `limit` words
/// under the context's out-of-bounds policy (anything past the layout is a
/// corrupt index, recorded as a fault instead of silently growing memory)
/// and creates the engine with the context's timing model and recorder.
pub(crate) fn engine(ctx: &ExecCtx, mut mem: Memory, limit: u32) -> Engine {
    mem.guard(limit, ctx.vp.oob);
    let mut e = Engine::with_timing(ctx.vp.clone(), mem, ctx.timing);
    e.set_recorder(ctx.obs.clone());
    e
}

/// The shared engine epilogue, in a fixed order: the out-of-bounds
/// accounting first — on every exit path, so traces of corrupted runs
/// still carry their `mem.oob` instants and counter — then the body's
/// error, then a latched memory fault, then the report, whose phases are
/// finally recorded as spans.
pub(crate) fn finish(
    ctx: &ExecCtx,
    e: &Engine,
    nnz: usize,
    stm: Option<StmStats>,
    ran: Result<Ran, KernelError>,
) -> Result<TransposeReport, KernelError> {
    record_oob(&ctx.obs, e.stats_snapshot().mem_oob_events, e.cycles());
    let ran = ran?;
    if let Some(f) = e.mem_fault() {
        return Err(f.into());
    }
    let report = TransposeReport {
        wall_ns: None,
        cycles: e.cycles(),
        nnz,
        engine: e.stats_snapshot(),
        scalar: ran.scalar,
        stm,
        phases: ran.phases,
        fu_busy: *e.fu_busy(),
        stalls: e.stall_breakdown(),
    };
    record_phases(&ctx.obs, &report.phases);
    Ok(report)
}
