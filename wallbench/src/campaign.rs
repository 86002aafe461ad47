//! The three campaign workloads over the paper's 30-matrix selection:
//! `paper-sim` (simulator), `host-transpose` (host write path) and
//! `host-spmv` (host read path).

use crate::trace::{OpClock, OpTimes, Trace};
use crate::window::Window;
use crate::Options;
use std::time::Instant;
use stm_core::exec::{Backend, ExecCtx, Kernel, KernelError, KernelReport};
use stm_core::kernels::registry;
use stm_dsab::{experiment_sets, full_catalogue, SuiteEntry};
use stm_sparse::rng::StdRng;

/// The transpose kernels the paper compares (HiSM+STM vs vectorized CRS).
pub const TRANSPOSES: [&str; 2] = ["transpose_hism", "transpose_crs"];
/// The SpMV kernels over the same two formats.
pub const SPMVS: [&str; 2] = ["spmv_hism", "spmv_crs"];
/// Runs of each prepared SpMV kernel per pass on `host-spmv`, the way an
/// iterative solver reuses one operator.
const SPMV_ITERS: usize = 16;

/// The paper's selection: the three 10-matrix experiment sets of
/// Figs. 11–13 (30 picks, 26 distinct matrices), built from the D-SAB
/// catalogue.
pub fn selection() -> Vec<SuiteEntry> {
    let sets = experiment_sets(&full_catalogue(), 10);
    let mut v = sets.by_locality;
    v.extend(sets.by_anz);
    v.extend(sets.by_size);
    v
}

/// The layer metric a kernel's `prepare` stage is reported under.
fn prepare_layer(kernel: &str) -> &'static str {
    match kernel {
        "transpose_hism" => "hism.prepare_us.transpose_hism",
        "spmv_hism" => "hism.prepare_us.spmv_hism",
        "transpose_crs" => "sparse.prepare_us.transpose_crs",
        _ => "sparse.prepare_us.spmv_crs",
    }
}

/// The layer metric a kernel's `run` stage is reported under.
fn run_layer(kernel: &str, backend: Backend) -> &'static str {
    match (backend, kernel) {
        (Backend::Sim, "transpose_hism") => "vpsim.run_us.transpose_hism",
        (Backend::Sim, _) => "vpsim.run_us.transpose_crs",
        (_, "transpose_hism") => "host.run_us.transpose_hism",
        (_, "transpose_crs") => "host.run_us.transpose_crs",
        (_, "spmv_hism") => "host.run_us.spmv_hism",
        _ => "host.run_us.spmv_crs",
    }
}

/// The layer metric a kernel's `verify` stage is reported under.
fn verify_layer(kernel: &str) -> &'static str {
    match kernel {
        "transpose_hism" => "core.verify_us.transpose_hism",
        "transpose_crs" => "core.verify_us.transpose_crs",
        "spmv_hism" => "core.verify_us.spmv_hism",
        _ => "core.verify_us.spmv_crs",
    }
}

/// A context on `backend` with the paper's machine.
fn ctx(backend: Backend) -> ExecCtx {
    ExecCtx {
        backend,
        ..ExecCtx::paper()
    }
}

/// What one op produced, compared across passes and runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    /// The output digest.
    pub digest: u64,
    /// The simulated (or nominal host) cycles the report charged.
    pub cycles: u64,
}

impl Fingerprint {
    fn of(r: &KernelReport) -> Fingerprint {
        Fingerprint {
            digest: r.output_digest,
            cycles: r.report.cycles,
        }
    }
}

/// One kernel call chain on one matrix: prepare → run → verify, timed as
/// one op with a stage span each.
fn chain(
    entry: &SuiteEntry,
    kernel: &'static str,
    cx: &mut ExecCtx,
    traced: bool,
) -> (OpTimes, Result<Fingerprint, KernelError>) {
    let mut k = registry::create(kernel).expect("registered kernel");
    let mut clock = OpClock::start(traced);
    let out = stages(k.as_mut(), &entry.coo, cx, &mut clock);
    let t = clock.finish();
    // The output is freed after the op's clock stops, as it would be by
    // a caller that keeps it.
    (t, out.map(|r| Fingerprint::of(&r)))
}

/// The three stages of one op, each timed by `clock`.
fn stages(
    k: &mut dyn Kernel,
    coo: &stm_sparse::Coo,
    cx: &mut ExecCtx,
    clock: &mut OpClock,
) -> Result<KernelReport, KernelError> {
    clock.part(|| k.prepare(coo, cx))?;
    let report = clock.part(|| k.run(cx))?;
    clock.part(|| k.verify(coo, &report.output))?;
    Ok(report)
}

/// The seeded order in which one pass visits `n` ops.
fn shuffled(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ pass.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// Checks every op's fingerprint against the first one seen for it.
struct Expect(Vec<Option<Fingerprint>>);

impl Expect {
    fn new(n: usize) -> Expect {
        Expect(vec![None; n])
    }

    fn check(&mut self, i: usize, got: Fingerprint) -> bool {
        *self.0[i].get_or_insert(got) == got
    }

    /// FNV-1a over every op's fingerprint in op order, plus the summed
    /// cycles and nnz of one pass: the values pinned across runs.
    fn signature(&self, nnz: impl Fn(usize) -> u64) -> Signature {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let (mut cycles, mut total) = (0, 0);
        for (i, f) in self.0.iter().enumerate() {
            let f = f.unwrap_or(Fingerprint {
                digest: 0,
                cycles: 0,
            });
            for w in [f.digest, f.cycles] {
                for b in w.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
            cycles += f.cycles;
            total += nnz(i);
        }
        Signature {
            digest: h,
            cycles,
            nnz: total,
        }
    }
}

/// The pinned per-pass signature of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// FNV-1a over the op fingerprints in op order.
    pub digest: u64,
    /// Summed cycles over one pass.
    pub cycles: u64,
    /// Summed input nonzeros over one pass.
    pub nnz: u64,
}

/// `paper-sim` and `host-transpose`: every pick through both transpose
/// kernels on `backend`, prepare → run → verify per op, after one untimed
/// warm pass (the allocator and caches settle on the first).
pub fn transpose_window(
    set: &[SuiteEntry],
    backend: Backend,
    opt: &Options,
    mut trace: Option<&mut Trace>,
) -> (Window, Signature) {
    let ops: Vec<(usize, &'static str)> = (0..set.len())
        .flat_map(|i| TRANSPOSES.iter().map(move |&k| (i, k)))
        .collect();
    let mut cx = ctx(backend);
    let mut expect = Expect::new(ops.len());
    let traced = trace.is_some();
    for (i, &(m, k)) in ops.iter().enumerate() {
        if let (_, Ok(f)) = chain(&set[m], k, &mut cx, false) {
            expect.check(i, f);
        }
    }
    let mut w = Window::new();
    w.passes(opt.seconds, |w, p| {
        for i in shuffled(ops.len(), opt.seed, p) {
            let (m, k) = ops[i];
            let nnz = set[m].coo.nnz();
            let (mut t, out) = chain(&set[m], k, &mut cx, traced);
            t.stretch(opt.delay_pct);
            let ok = out.as_ref().is_ok_and(|&f| expect.check(i, f));
            w.record_op(i, &t, nnz, ok);
            if let Ok(f) = out {
                w.cycles += f.cycles;
                w.kernel_nnz += nnz as u64;
            }
            if let Some(tr) = trace.as_deref_mut() {
                let layers = [prepare_layer(k), run_layer(k, backend), verify_layer(k)];
                tr.op("op", &t, &layers);
                if let Ok(f) = out {
                    record_run(tr, format!("{m}"), k, backend, t.part_ns(1), f.cycles, nnz);
                }
            }
        }
    });
    (w, expect.signature(|i| set[ops[i].0].coo.nnz() as u64))
}

/// Accumulates the sums behind `vpsim.ns_per_cycle.*`, `vpsim.cycles.*`
/// and `host.ns_per_nnz.*` for one run of `kernel` on matrix `key`.
fn record_run(
    tr: &mut Trace,
    key: String,
    kernel: &str,
    backend: Backend,
    run_ns: u64,
    cycles: u64,
    nnz: usize,
) {
    if backend == Backend::Sim {
        tr.add(&format!("vpsim.run_ns.{kernel}"), run_ns as f64);
        tr.add(&format!("vpsim.run_cycles.{kernel}"), cycles as f64);
        let name = format!("vpsim.cycles.{kernel}");
        tr.add_once(format!("{name}/{key}"), &name, cycles as f64);
    } else {
        tr.add(&format!("host.run_ns.{kernel}"), run_ns as f64);
        tr.add(&format!("host.run_nnz.{kernel}"), nnz as f64);
    }
}

/// `host-spmv`'s prepared operators: every pick under both SpMV kernels,
/// prepared once and run once with the output checked against the
/// oracle; later runs must reproduce that first fingerprint.
pub struct SpmvRig {
    ops: Vec<(usize, &'static str, Box<dyn Kernel>, Fingerprint)>,
}

impl SpmvRig {
    /// Prepares, runs and verifies every (pick, SpMV kernel) once.
    pub fn new(set: &[SuiteEntry], mut trace: Option<&mut Trace>) -> Result<SpmvRig, String> {
        let mut cx = ctx(Backend::Auto);
        let mut ops = Vec::new();
        for (m, entry) in set.iter().enumerate() {
            for k in SPMVS {
                let mut kernel = registry::create(k).expect("registered kernel");
                let mut clock = OpClock::start(trace.is_some());
                let out = stages(kernel.as_mut(), &entry.coo, &mut cx, &mut clock);
                let t = clock.finish();
                let first = out
                    .map(|r| Fingerprint::of(&r))
                    .map_err(|e| format!("{k} on {}: {e}", entry.name))?;
                if let Some(tr) = trace.as_deref_mut() {
                    tr.op(
                        "setup",
                        &t,
                        &[prepare_layer(k), "host.first_run_us", verify_layer(k)],
                    );
                }
                ops.push((m, k, kernel, first));
            }
        }
        Ok(SpmvRig { ops })
    }

    /// The timed window: each pass visits every prepared operator in a
    /// seeded order and runs it [`SPMV_ITERS`] times, one op per run.
    pub fn window(
        &mut self,
        set: &[SuiteEntry],
        opt: &Options,
        mut trace: Option<&mut Trace>,
    ) -> (Window, Signature) {
        let mut cx = ctx(Backend::Auto);
        let traced = trace.is_some();
        let n = self.ops.len();
        // One untimed warm pass.
        for (_, _, kernel, _) in &mut self.ops {
            let _ = kernel.run(&mut cx);
        }
        let mut w = Window::new();
        w.passes(opt.seconds, |w, p| {
            for i in shuffled(n, opt.seed, p) {
                let (m, k, kernel, first) = &mut self.ops[i];
                let nnz = set[*m].coo.nnz();
                for _ in 0..SPMV_ITERS {
                    let mut clock = OpClock::start(traced);
                    let out = clock.part(|| kernel.run(&mut cx));
                    let ok =
                        clock.part(|| out.as_ref().is_ok_and(|r| Fingerprint::of(r) == *first));
                    let mut t = clock.finish();
                    t.stretch(opt.delay_pct);
                    w.record_op(i, &t, nnz, ok);
                    if let Ok(r) = &out {
                        w.cycles += r.report.cycles;
                        w.kernel_nnz += nnz as u64;
                    }
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.op("op", &t, &[run_layer(k, Backend::Auto), "bench.check_us"]);
                        record_run(tr, format!("{m}"), k, Backend::Auto, t.part_ns(0), 0, nnz);
                    }
                }
            }
        });
        let mut expect = Expect::new(n);
        for (i, op) in self.ops.iter().enumerate() {
            expect.check(i, op.3);
        }
        (w, expect.signature(|i| set[self.ops[i].0].coo.nnz() as u64))
    }
}

/// Repetitions of each paired scalar/SIMD SpMV run behind
/// `host.simd_speedup.*`.
const SIMD_REPS: usize = 6;

/// The layer sweep of a traced run: times, over `set`, every kernel layer
/// the workload's own loop did not reach (the simulator runs on the host
/// workloads, the host kernels on `paper-sim`, all of them on the serve
/// pool), and always pairs the scalar and SIMD legs of both SpMV kernels
/// on the same prepared operators.
///
/// When it runs the simulator legs, it returns their signature over
/// `set` in `paper-sim`'s op order, for the caller to check against the
/// pinned one: the simulated cycles are what the paper claims, so every
/// traced run guards them.
pub fn sweep(set: &[SuiteEntry], tr: &mut Trace) -> Option<Signature> {
    let mut s = Trace::new();
    let mut sim = None;
    let legs = TRANSPOSES
        .iter()
        .map(|&k| (k, Backend::Sim))
        .chain(TRANSPOSES.iter().chain(&SPMVS).map(|&k| (k, Backend::Auto)));
    for (k, backend) in legs {
        if tr.has(run_layer(k, backend)) {
            continue;
        }
        let mut cx = ctx(backend);
        for (m, entry) in set.iter().enumerate() {
            let (t, out) = chain(entry, k, &mut cx, true);
            s.op(
                "sweep",
                &t,
                &[prepare_layer(k), run_layer(k, backend), verify_layer(k)],
            );
            if backend == Backend::Sim {
                let expect = sim.get_or_insert_with(|| Expect::new(set.len() * TRANSPOSES.len()));
                let leg = TRANSPOSES.iter().position(|&x| x == k).expect("a transpose");
                if let Ok(f) = out {
                    expect.check(m * TRANSPOSES.len() + leg, f);
                }
            }
            if let Ok(f) = out {
                record_run(
                    &mut s,
                    format!("{m}"),
                    k,
                    backend,
                    t.part_ns(1),
                    f.cycles,
                    entry.coo.nnz(),
                );
            }
        }
    }
    for k in SPMVS {
        for entry in set {
            let mut kernel = registry::create(k).expect("registered kernel");
            let mut cx = ctx(Backend::Scalar);
            if kernel.prepare(&entry.coo, &cx).is_err() || kernel.run(&mut cx).is_err() {
                continue;
            }
            // Warmed by the run above; the legs alternate which goes first.
            for rep in 0..SIMD_REPS {
                let legs = [Backend::Scalar, Backend::Auto];
                for backend in [legs[rep % 2], legs[1 - rep % 2]] {
                    cx.backend = backend;
                    let t = Instant::now();
                    let ok = kernel.run(&mut cx).is_ok();
                    let ns = t.elapsed().as_nanos() as f64;
                    if ok {
                        let leg = if backend == Backend::Scalar {
                            "scalar"
                        } else {
                            "simd"
                        };
                        s.add(&format!("host.{leg}_ns.{k}"), ns);
                    }
                }
            }
        }
    }
    tr.fill_from(s);
    sim.map(|e| e.signature(|i| set[i / TRANSPOSES.len()].coo.nnz() as u64))
}
