//! `wallbench` — the wall-clock benchmark of the hism-stm workspace.
//!
//! ```sh
//! cargo run --release --manifest-path wallbench/Cargo.toml -- \
//!     --workload paper-sim --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process times calls into the workspace crates' public functions
//! from outside: the D-SAB selection (`stm_dsab`), `Kernel::{prepare, run,
//! verify}` from the `stm_core` registry, `stm_bench::resilient::
//! execute_slot`, and `stm_serve::{Server, Client, ResultsLog, protocol}`.
//! The metric names, units and bounds come from `BENCHMARK.json` at the
//! repository root; the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` holding every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). See `wallbench/README.md` for the workloads and what
//! each layer metric is expected to move.

mod campaign;
mod serve;
mod stats;
mod trace;
mod window;

use stats::{median, Better};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use stm_core::exec::Backend;
use stm_obs::json::Json;
use trace::Trace;
use window::Window;

/// Set-ups per run on the campaign workloads (each builds the whole
/// selection); `setup_s` is their median. On `serve-mixed` every session
/// sets up its own server, and `setup_s` is the median over sessions.
const CAMPAIGN_SETUPS: usize = 3;
/// How long the serve probe of a campaign workload's traced run lasts.
const SERVE_PROBE_SECONDS: f64 = 1.0;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's campaign on the cycle-accurate simulator.
    PaperSim,
    /// The same transposes on the host tier (the write path).
    HostTranspose,
    /// The SpMV kernels on the host tier, prepared once (the read path).
    HostSpmv,
    /// `stmserve` under two closed-loop connections.
    ServeMixed,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::PaperSim,
        Workload::HostTranspose,
        Workload::HostSpmv,
        Workload::ServeMixed,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperSim => "paper-sim",
            Workload::HostTranspose => "host-transpose",
            Workload::HostSpmv => "host-spmv",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the op order, FETCH targets and fresh uploads.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Run the traced pass and report the per-layer metrics.
    pub trace: bool,
    /// Self-test hook: stretch every op by this percentage. Only the
    /// self-test sets it; the command line always leaves it at 0.
    pub delay_pct: u32,
}

const USAGE: &str = "usage: wallbench --workload <paper-sim|host-transpose|host-spmv|serve-mixed> \
                     --seed N --seconds S --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opt = Options {
        workload: Workload::PaperSim,
        seed: 1,
        seconds: 10.0,
        trace: false,
        delay_pct: 0,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| bad(&"unknown workload"))?,
                )
            }
            "--seed" => opt.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opt.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opt.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    opt.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    if !(opt.seconds > 0.0 && opt.seconds.is_finite()) {
        return Err(format!("--seconds must be positive\n{USAGE}"));
    }
    Ok(opt)
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit printed with the value.
    pub unit: String,
    /// Which direction is better.
    pub better: Better,
    /// Allowed worsening as a share of the baseline (end-to-end only).
    pub bound: Option<f64>,
}

/// The end-to-end and per-layer metric declarations of `BENCHMARK.json`.
pub fn spec() -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path:?}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path:?}: {e}"))?;
    let list = |key: &str| -> Result<Vec<Metric>, String> {
        let items = json
            .get(key)
            .and_then(Json::as_array)
            .ok_or(format!("BENCHMARK.json: no {key} list"))?;
        items
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .ok_or(format!("BENCHMARK.json {key}: missing {f}"))
                };
                Ok(Metric {
                    name: field("name")?.to_string(),
                    unit: field("unit")?.to_string(),
                    better: match field("better")? {
                        "lower" => Better::Lower,
                        _ => Better::Higher,
                    },
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// The pinned per-pass signature of each campaign workload: digests and
/// summed cycles must not move between runs or commits (the ROADMAP's
/// bit-stability rule), so a mismatch fails the run.
const GOLDEN: [(Workload, campaign::Signature); 3] = [
    (
        Workload::PaperSim,
        campaign::Signature {
            digest: 0x2ff8_d798_0e30_4a93,
            cycles: 158_968_331,
            nnz: 8_389_798,
        },
    ),
    (
        Workload::HostTranspose,
        campaign::Signature {
            digest: 0x40c1_e116_e42b_7ecf,
            cycles: 18_859_848,
            nnz: 8_389_798,
        },
    ),
    (
        Workload::HostSpmv,
        campaign::Signature {
            digest: 0xb5be_2f7c_ed54_24ad,
            cycles: 18_859_848,
            nnz: 8_389_798,
        },
    ),
];

/// The exact kernel cycles per nonzero `serve-mixed` executes: its pool
/// and per-round mix do not depend on the seed.
const GOLDEN_SERVE_CYCLES_PER_NNZ: f64 = 2.9073170731707316;

/// The pinned signature of both transposes on the simulator over the
/// serve pool, which the traced `serve-mixed` run's sweep checks; the
/// campaign workloads' sweeps check theirs against `paper-sim`'s.
const GOLDEN_POOL_SIM: campaign::Signature = campaign::Signature {
    digest: 0x4768_cc50_7626_27e5,
    cycles: 52_266,
    nnz: 1_640,
};

/// The result of one run, before printing.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Ops attempted in the reported window.
    pub attempted: u64,
    /// Ops not verified correct.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("FAILED: {why}"));
    }
}

/// Peak resident memory of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fills the end-to-end metrics of `w` into `out`.
fn end_to_end(out: &mut Outcome, w: &Window, setup_s: &[f64]) {
    let s = w.summary();
    let v = &mut out.values;
    v.insert("setup_s".into(), median(setup_s));
    v.insert("mnnz_per_s".into(), s.mnnz_per_s);
    v.insert("op_p50_us".into(), s.op_p50_us);
    v.insert("op_tail_us".into(), s.op_tail_us);
    v.insert("peak_rss_mb".into(), peak_rss_mb());
    v.insert("ok_ratio".into(), w.ok as f64 / w.attempted.max(1) as f64);
    if w.kernel_nnz > 0 {
        v.insert(
            "sim_cycles_per_nnz".into(),
            w.cycles as f64 / w.kernel_nnz as f64,
        );
    }
    out.attempted = w.attempted;
    out.failed = w.attempted - w.ok;
    out.correct = w.ok == w.attempted;
    out.notes.push(format!(
        "window: {:.3} s in {} slices, {} ops, {} verified, {} input nnz",
        s.seconds, s.slices, w.attempted, w.ok, s.nnz
    ));
    if let Some(t) = s.tail {
        let over = if s.tail_per_slice {
            "the median over slices of the slice tail; in the median slice"
        } else {
            "over the window:"
        };
        out.notes.push(format!(
            "op_tail_us: {over} p{:.3} of {} op samples ({} beyond)",
            t.percentile,
            t.samples,
            stats::TAIL_BEYOND
        ));
    }
    out.notes.push(format!(
        "setup_s: median of {} set-ups {:?}",
        setup_s.len(),
        setup_s
    ));
}

/// Where spans and the serve results logs go.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The campaign set-up, repeated [`CAMPAIGN_SETUPS`] times (each earlier
/// result dropped first); returns the last result and every duration.
fn timed_setups<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..CAMPAIGN_SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(f()?);
        times.push(secs(t));
    }
    Ok((last.expect("at least one set-up"), times))
}

/// The pinned signature of a campaign workload's pass.
fn golden(workload: Workload) -> campaign::Signature {
    GOLDEN.iter().find(|g| g.0 == workload).expect("campaign").1
}

fn check_signature(
    out: &mut Outcome,
    what: &str,
    got: campaign::Signature,
    want: campaign::Signature,
) {
    out.notes.push(format!(
        "{what} signature: digest=0x{:016x} cycles={} nnz={}",
        got.digest, got.cycles, got.nnz
    ));
    if got != want {
        out.fail(format!(
            "{what} signature {got:?} differs from the pinned {want:?}"
        ));
    }
}

/// A campaign workload's timed window over the set-up it needs.
enum CampaignSet {
    Transpose(Vec<stm_dsab::SuiteEntry>),
    Spmv(Vec<stm_dsab::SuiteEntry>, campaign::SpmvRig),
}

impl CampaignSet {
    fn build(workload: Workload, trace: Option<&mut Trace>) -> Result<CampaignSet, String> {
        let t = Instant::now();
        let set = campaign::selection();
        let build_s = secs(t);
        let mut trace = trace;
        if let Some(tr) = trace.as_deref_mut() {
            tr.sample("dsab.build_s", build_s);
        }
        Ok(match workload {
            Workload::HostSpmv => {
                let rig = campaign::SpmvRig::new(&set, trace)?;
                CampaignSet::Spmv(set, rig)
            }
            _ => CampaignSet::Transpose(set),
        })
    }

    fn entries(&self) -> &[stm_dsab::SuiteEntry] {
        match self {
            CampaignSet::Transpose(s) | CampaignSet::Spmv(s, _) => s,
        }
    }

    fn window(
        &mut self,
        workload: Workload,
        opt: &Options,
        trace: Option<&mut Trace>,
    ) -> (Window, campaign::Signature) {
        match self {
            CampaignSet::Spmv(set, rig) => rig.window(set, opt, trace),
            CampaignSet::Transpose(set) => {
                let backend = match workload {
                    Workload::PaperSim => Backend::Sim,
                    _ => Backend::Auto,
                };
                campaign::transpose_window(set, backend, opt, trace)
            }
        }
    }
}

fn run_campaign(opt: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if !opt.trace {
        let (mut set, setup) = timed_setups(|| CampaignSet::build(opt.workload, None))?;
        let (w, sig) = set.window(opt.workload, opt, None);
        end_to_end(&mut out, &w, &setup);
        check_signature(&mut out, "pass", sig, golden(opt.workload));
        return Ok(out);
    }
    let mut tr = Trace::new();
    let mut set = CampaignSet::build(opt.workload, Some(&mut tr))?;
    let (base, _) = set.window(opt.workload, opt, None);
    let (w, sig) = set.window(opt.workload, opt, Some(&mut tr));
    layer_window(&mut out, &tr, &base, &w);
    check_signature(&mut out, "pass", sig, golden(opt.workload));
    if let Some(sim) = campaign::sweep(set.entries(), &mut tr) {
        check_signature(&mut out, "simulator sweep", sim, golden(Workload::PaperSim));
    }
    drop(set);
    serve_layers(opt, &mut tr)?;
    finish_layers(&mut out, opt, &tr)?;
    Ok(out)
}

/// The counts and overhead a traced window contributes to the per-layer
/// metrics, and its correctness.
fn layer_window(out: &mut Outcome, tr: &Trace, base: &Window, w: &Window) {
    let v = &mut out.values;
    v.insert("ops".into(), w.attempted as f64);
    v.insert("failed".into(), (w.attempted - w.ok) as f64);
    v.insert("retried".into(), w.retried as f64);
    v.insert(
        "obs.trace_overhead".into(),
        w.summary().mnnz_per_s / base.summary().mnnz_per_s,
    );
    out.attempted = w.attempted;
    out.failed = w.attempted - w.ok;
    out.correct = w.ok == w.attempted && base.ok == base.attempted;
    let c = tr.conservation;
    out.notes.push(format!(
        "conservation: {} ops, {} beyond the clock tolerance ({} ns per 3-stage op), {:.4}% of op time unattributed",
        c.ops,
        c.violations,
        tr.clock().tolerance_ns(3, 0),
        100.0 * c.unattributed_ns as f64 / c.wall_ns.max(1) as f64
    ));
    if !c.holds() {
        out.fail("stage spans do not add up to the op wall times".into());
    }
}

/// The serve-side layers of a campaign workload's traced run: a short
/// closed-loop probe of the serve pool plus the journal and slot probes.
fn serve_layers(opt: &Options, tr: &mut Trace) -> Result<(), String> {
    let pool = serve::Pool::new();
    let sw = serve::window(&pool, opt, true, SERVE_PROBE_SECONDS, &serve_dir())?;
    let mut probe = Trace::new();
    serve::record(&mut probe, &sw.traced);
    server_stats(&mut probe, &sw.stats);
    tr.fill_from(probe);
    serve::probes(&pool, &out_dir(), tr)
}

/// Where one run's serve sessions keep their results logs.
fn serve_dir() -> PathBuf {
    out_dir().join(format!("serve-{}", std::process::id()))
}

fn server_stats(tr: &mut Trace, stats: &stm_serve::StatsSnapshot) {
    tr.add("serve.queue_max", stats.queue_depth_max as f64);
    tr.add("serve.shed", stats.shed as f64);
    tr.add("serve.degraded", stats.degraded as f64);
}

fn run_serve(opt: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let pool = serve::Pool::new();
    if !opt.trace {
        let sw = serve::window(&pool, opt, false, opt.seconds, &serve_dir())?;
        end_to_end(&mut out, &sw.window, &sw.setups);
        check_serve_cycles(&mut out);
        return Ok(out);
    }
    let mut tr = Trace::new();
    let base = serve::window(&pool, opt, false, opt.seconds, &serve_dir())?.window;
    let sw = serve::window(&pool, opt, true, opt.seconds, &serve_dir())?;
    serve::record(&mut tr, &sw.traced);
    server_stats(&mut tr, &sw.stats);
    layer_window(&mut out, &tr, &base, &sw.window);
    match campaign::sweep(&pool.entries(), &mut tr) {
        Some(sim) => check_signature(&mut out, "simulator sweep", sim, GOLDEN_POOL_SIM),
        None => out.fail("the sweep did not run the simulator".into()),
    }
    let t = Instant::now();
    drop(campaign::selection());
    tr.sample("dsab.build_s", secs(t));
    serve::probes(&pool, &out_dir(), &mut tr)?;
    finish_layers(&mut out, opt, &tr)?;
    Ok(out)
}

fn check_serve_cycles(out: &mut Outcome) {
    if let Some(&v) = out.values.get("sim_cycles_per_nnz") {
        if v.to_bits() != GOLDEN_SERVE_CYCLES_PER_NNZ.to_bits() {
            out.fail(format!(
                "served kernel cycles per nnz {v} differ from the pinned {GOLDEN_SERVE_CYCLES_PER_NNZ}"
            ));
        }
    }
}

/// A stage's value: the Harrell–Davis median of its samples, robust like
/// a median but with the digits of every sample, so a stage of a few
/// hundred nanoseconds does not read the same from run to run.
fn layer_median(samples: &[f64]) -> f64 {
    match samples.len() {
        0 => f64::NAN,
        1 => samples[0],
        _ => stats::hd_quantile(&stats::sorted(samples), 0.5),
    }
}

/// Derives every per-layer metric from the trace and writes the spans.
fn finish_layers(out: &mut Outcome, opt: &Options, tr: &Trace) -> Result<(), String> {
    let ratio = |a: &str, b: &str| tr.sum(a) / tr.sum(b);
    let v = &mut out.values;
    for k in campaign::TRANSPOSES {
        v.insert(
            format!("vpsim.ns_per_cycle.{k}"),
            ratio(
                &format!("vpsim.run_ns.{k}"),
                &format!("vpsim.run_cycles.{k}"),
            ),
        );
        v.insert(
            format!("vpsim.cycles.{k}"),
            tr.sum(&format!("vpsim.cycles.{k}")),
        );
    }
    for k in campaign::TRANSPOSES.iter().chain(&campaign::SPMVS) {
        v.insert(
            format!("host.ns_per_nnz.{k}"),
            ratio(&format!("host.run_ns.{k}"), &format!("host.run_nnz.{k}")),
        );
    }
    for k in campaign::SPMVS {
        v.insert(
            format!("host.simd_speedup.{k}"),
            ratio(&format!("host.scalar_ns.{k}"), &format!("host.simd_ns.{k}")),
        );
    }
    for name in ["serve.queue_max", "serve.shed", "serve.degraded"] {
        v.insert(name.into(), tr.sum(name));
    }
    let c = tr.conservation;
    v.insert("obs.conservation_violations".into(), c.violations as f64);
    v.insert(
        "obs.unattributed_pct".into(),
        100.0 * c.unattributed_ns as f64 / c.wall_ns.max(1) as f64,
    );
    let (_, layers) = spec()?;
    for m in &layers {
        if !v.contains_key(&m.name) && tr.has(&m.name) {
            v.insert(m.name.clone(), layer_median(tr.samples(&m.name)));
        }
    }
    let rtt = tr.samples("serve.rtt_us.transpose");
    let slot = tr.samples("resil.slot_us.transpose_hism");
    if !rtt.is_empty() && !slot.is_empty() {
        v.insert(
            "serve.overhead_us".into(),
            layer_median(rtt) - layer_median(slot),
        );
    }
    let path = out_dir().join(format!("spans-{}-{}.jsonl", opt.workload.name(), opt.seed));
    tr.write_spans(&path)
        .map_err(|e| format!("write {path:?}: {e}"))?;
    out.notes.push(format!("spans: {}", path.display()));
    Ok(())
}

/// nproc, host ISA, git revision and rustc, for the result's provenance.
fn environment() -> String {
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "env: nproc={} isa={} git={} rustc=\"{}\"",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        stm_host::detect_isa().name(),
        cmd("git", &["rev-parse", "--short=12", "HEAD"]),
        cmd("rustc", &["--version"]),
    )
}

/// Formats the result line with the metrics `BENCHMARK.json` declares
/// for this mode, in its order; a declared metric the run did not
/// produce is an error.
fn result_line(out: &Outcome, metrics: &[Metric]) -> Result<String, String> {
    let mut body = Vec::new();
    for m in metrics {
        let v = out
            .values
            .get(&m.name)
            .ok_or(format!("metric {} was not measured", m.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is {v}", m.name));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        body.join(", ")
    ))
}

/// Runs one workload as `opt` asks.
pub fn run(opt: &Options) -> Result<Outcome, String> {
    match opt.workload {
        Workload::ServeMixed => run_serve(opt),
        _ => run_campaign(opt),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|opt| {
        let (e2e, layers) = spec()?;
        println!("{}", environment());
        let out = run(&opt)?;
        for n in &out.notes {
            println!("{n}");
        }
        result_line(&out, if opt.trace { &layers } else { &e2e })
    });
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("wallbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_dsab::{experiment_sets, quick_catalogue};

    fn quick_set() -> Vec<stm_dsab::SuiteEntry> {
        let sets = experiment_sets(&quick_catalogue(), 3);
        let mut v = sets.by_locality;
        v.extend(sets.by_anz);
        v.extend(sets.by_size);
        v
    }

    #[test]
    fn args_parse_and_reject() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let opt = parse_args(&args(
            "--workload host-spmv --seed 9 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(opt.workload, Workload::HostSpmv);
        assert_eq!((opt.seed, opt.seconds, opt.trace), (9, 2.5, true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload paper-sim --trace 2")).is_err());
        assert!(parse_args(&args("--workload paper-sim --seconds 0")).is_err());
    }

    #[test]
    fn spec_declares_every_metric_once() {
        let (e2e, layers) = spec().unwrap();
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|m| m.name.as_str()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(e2e
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = e2e.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(e2e.iter().all(|m| m.bound <= setup.bound));
    }

    /// The regression gate's self-test: rounds of three back-to-back
    /// host-spmv windows — baseline, every op stretched by 20%, baseline
    /// again. The rerun passes the gate against the baseline; the
    /// slowdown fails it.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "times ops: run with --release")]
    fn a_twenty_percent_slowdown_fails_the_gate() {
        let set = quick_set();
        let mut rig = campaign::SpmvRig::new(&set, None).unwrap();
        let mut run = |delay_pct| {
            let opt = Options {
                workload: Workload::HostSpmv,
                seed: 7,
                seconds: 0.25,
                trace: false,
                delay_pct,
            };
            let (w, _) = rig.window(&set, &opt, None);
            assert_eq!(w.ok, w.attempted);
            let s = w.summary();
            [s.mnnz_per_s, s.op_p50_us]
        };
        let (mut base, mut again, mut slow) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..11 {
            base.push(run(0));
            slow.push(run(20));
            again.push(run(0));
        }
        // The gate fails a candidate when any metric regressed.
        let (e2e, _) = spec().unwrap();
        let flagged = |cand: &[[f64; 2]]| -> Vec<&str> {
            ["mnnz_per_s", "op_p50_us"]
                .into_iter()
                .enumerate()
                .filter(|&(i, name)| {
                    let better = e2e.iter().find(|m| m.name == name).unwrap().better;
                    let col = |v: &[[f64; 2]]| v.iter().map(|x| x[i]).collect::<Vec<_>>();
                    stats::regressed(&col(&base), &col(cand), better)
                })
                .map(|(_, name)| name)
                .collect()
        };
        let rerun = flagged(&again);
        assert!(
            rerun.is_empty(),
            "an unchanged rerun fails the gate on {rerun:?}: {base:?} vs {again:?}"
        );
        assert!(
            !flagged(&slow).is_empty(),
            "a 20% slowdown passes the gate: {base:?} vs {slow:?}"
        );
    }
}
