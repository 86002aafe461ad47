//! `serve-mixed`: an in-process `stmserve` driven by two closed-loop
//! connections, plus the serve-side layer probes of a traced run.

use crate::trace::{OpClock, OpTimes, Trace};
use crate::window::Window;
use crate::Options;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use stm_bench::resilient::{execute_slot, Decision, RetryPolicy, VerifyMode};
use stm_bench::RunConfig;
use stm_core::exec::{spmv_input, Backend, KernelOutput};
use stm_dsab::SuiteEntry;
use stm_obs::Recorder;
use stm_serve::load::workload_matrix;
use stm_serve::protocol::{
    decode_response, encode_request, read_frame, write_frame, Op, Request, RequestBody, Response,
    ResponseBody, Status, DEFAULT_MAX_FRAME,
};
use stm_serve::{Client, ResultRecord, ResultsLog, ServeConfig, Server, StatsSnapshot};
use stm_sparse::rng::StdRng;
use stm_sparse::{Coo, MatrixMetrics};

/// Closed-loop connections, one thread each: no more than the machine's
/// two vCPUs can drive without a generator competing with the workers.
const CLIENTS: u64 = 2;
/// Server worker threads.
const WORKERS: usize = 2;
/// Matrices SUBMITted at set-up and executed by every round.
const POOL: usize = 16;
/// The pool is the same for every seed, so the executed mix — and with
/// it the summed kernel cycles per nonzero — is identical across runs;
/// the seed drives the request order, the FETCH targets and the fresh
/// uploads.
const POOL_SEED: u64 = 0x5e7e_b00c;
/// Fresh matrices each client uploads in rotation (under new ids).
const FRESH: usize = 32;
/// Client socket timeout.
const TIMEOUT_MS: u64 = 30_000;
/// Completed requests per slice of a session: the rate, median and tail
/// are taken per slice, and a slice this size puts the tail at p98.
const PER_SLICE: usize = 500;

/// One request kind of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// TRANSPOSE of a pool matrix.
    Transpose(usize),
    /// SPMV of a pool matrix.
    Spmv(usize),
    /// FETCH replay of an earlier completed id (the read-only path).
    Fetch,
    /// SUBMIT of a fresh matrix (the upload/write path).
    Submit,
}

impl Kind {
    fn layer(self) -> &'static str {
        match self {
            Kind::Transpose(_) => "serve.rtt_us.transpose",
            Kind::Spmv(_) => "serve.rtt_us.spmv",
            Kind::Fetch => "serve.rtt_us.fetch",
            Kind::Submit => "serve.rtt_us.submit",
        }
    }
}

/// One round of a client: every pool matrix twice transposed and once
/// multiplied (stmload's two TRANSPOSE per SPMV), one FETCH per pool
/// matrix and one fresh SUBMIT per four, in a seeded order.
fn round(rng: &mut StdRng) -> Vec<Kind> {
    let mut v: Vec<Kind> = (0..POOL)
        .flat_map(|m| [Kind::Transpose(m), Kind::Transpose(m), Kind::Spmv(m)])
        .chain((0..POOL).map(|_| Kind::Fetch))
        .chain((0..POOL / 4).map(|_| Kind::Submit))
        .collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

/// The seed-independent pool and its host-oracle digests.
pub struct Pool {
    /// The pool matrices, `matrix_id = index + 1`.
    pub coos: Vec<Coo>,
    transpose: Vec<u64>,
    spmv: Vec<u64>,
}

impl Pool {
    /// Builds the pool and computes its oracle digests the way
    /// `stm_serve::load` does.
    pub fn new() -> Pool {
        let coos: Vec<Coo> = (0..POOL).map(|m| workload_matrix(POOL_SEED, m)).collect();
        let transpose = coos
            .iter()
            .map(|c| stm_sparse::format::canonical_digest(&c.transpose_canonical()))
            .collect();
        let spmv = coos
            .iter()
            .map(|c| {
                let y = c.spmv(&spmv_input(c.cols())).expect("pool shapes agree");
                KernelOutput::Vector(y)
                    .canonical_digest()
                    .expect("vector digest is total")
            })
            .collect();
        Pool {
            coos,
            transpose,
            spmv,
        }
    }

    /// The pool as suite entries (for the kernel sweep and slot probe).
    pub fn entries(&self) -> Vec<SuiteEntry> {
        self.coos
            .iter()
            .enumerate()
            .map(|(m, c)| SuiteEntry {
                name: format!("pool-{m}"),
                coo: c.clone(),
                metrics: MatrixMetrics::compute(c),
            })
            .collect()
    }
}

/// One closed-loop connection speaking the wire protocol directly, so a
/// round trip splits into encode, exchange (write, server, read) and
/// decode.
struct Conn {
    stream: TcpStream,
    client_id: u64,
    seq: u64,
}

impl Conn {
    fn connect(addr: &str, client_id: u64) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        let t = Some(Duration::from_millis(TIMEOUT_MS));
        stream.set_read_timeout(t)?;
        stream.set_write_timeout(t)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            client_id,
            seq: 0,
        })
    }

    fn next_id(&mut self) -> u64 {
        self.seq += 1;
        (self.client_id << 48) | self.seq
    }

    fn round_trip(&mut self, req: &Request, clock: &mut OpClock) -> Result<Response, String> {
        let frame = clock.part(|| encode_request(req));
        let payload = clock.part(|| {
            write_frame(&mut self.stream, &frame).map_err(|e| format!("send: {e}"))?;
            read_frame(&mut self.stream, DEFAULT_MAX_FRAME).map_err(|e| format!("recv: {e}"))
        })?;
        clock.part(|| decode_response(&payload))
    }
}

/// A started server with its connections and pool uploaded.
struct Rig {
    server: Server,
    dir: PathBuf,
    conns: Vec<Conn>,
}

/// The set-up the `setup_s` metric times: `Server::start`, the client
/// connects and the SUBMITs of the pool.
fn start(pool: &Pool, dir: &Path) -> Result<Rig, String> {
    let cfg = ServeConfig {
        workers: WORKERS,
        backend: Backend::Auto,
        verify_mode: VerifyMode::Off,
        results_log: Some(dir.join("results.jsonl")),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr().to_string();
    let mut conns = (1..=CLIENTS)
        .map(|c| Conn::connect(&addr, c))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let c0 = &mut conns[0];
    for (m, coo) in pool.coos.iter().enumerate() {
        let req = submit(c0.next_id(), m as u64 + 1, c0.client_id, coo);
        let resp = c0.round_trip(&req, &mut OpClock::start(false))?;
        if resp.status != Status::Ok {
            return Err(format!("pool submit {m}: {}", resp.status.name()));
        }
    }
    Ok(Rig {
        server,
        dir: dir.to_path_buf(),
        conns,
    })
}

fn submit(request_id: u64, matrix_id: u64, client_id: u64, coo: &Coo) -> Request {
    Request {
        request_id,
        client_id,
        body: RequestBody::Submit {
            matrix_id,
            rows: coo.rows() as u32,
            cols: coo.cols() as u32,
            entries: coo
                .entries()
                .iter()
                .map(|&(r, c, v)| (r as u32, c as u32, v))
                .collect(),
        },
    }
}

/// Rounds each connection runs per session: about a second of serving
/// and a fixed amount of server state (its completed-request table grows
/// with every execution), so the server's memory is the same in every
/// session of every run.
const SESSION_ROUNDS: usize = 150;

/// What a serve window measured beyond the common [`Window`].
pub struct ServeWindow {
    /// The common counts and op durations, over every session.
    pub window: Window,
    /// Every traced op with its kind (empty when untraced).
    pub traced: Vec<(Kind, OpTimes)>,
    /// Every session's set-up time, in seconds.
    pub setups: Vec<f64>,
    /// Server counters summed over sessions (the queue high-water mark is
    /// their maximum).
    pub stats: StatsSnapshot,
}

/// The serve window: sessions, each on a fresh server (`start`, timed as
/// set-up), one untimed warm round per connection (which also gives
/// FETCH its first targets), [`SESSION_ROUNDS`] timed closed-loop rounds
/// per connection, then `stop` — for as many sessions as bring the
/// serving time closest to `seconds` (at least one).
pub fn window(
    pool: &Pool,
    opt: &Options,
    traced: bool,
    seconds: f64,
    dir: &Path,
) -> Result<ServeWindow, String> {
    let mut out = ServeWindow {
        window: Window::new(),
        traced: Vec::new(),
        setups: Vec::new(),
        stats: StatsSnapshot::default(),
    };
    let mut session = 0u64;
    let mut last = 0.0;
    while session == 0 || out.window.seconds() + last / 2.0 < seconds {
        let t = Instant::now();
        let mut rig = start(pool, &dir.join(format!("session-{session}")))?;
        out.setups.push(t.elapsed().as_secs_f64());
        let (mut w, ops) = rig.session(pool, opt, traced, session);
        let (stats, cycles) = rig.stop()?;
        w.cycles = cycles;
        last = w.seconds();
        out.window.extend(w);
        out.traced.extend(ops);
        out.stats.shed += stats.shed;
        out.stats.degraded += stats.degraded;
        out.stats.queue_depth_max = out.stats.queue_depth_max.max(stats.queue_depth_max);
        session += 1;
    }
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove {dir:?}: {e}"))?;
    Ok(out)
}

/// Per-connection state of one session: completed execution ids for
/// FETCH, the fresh-upload rotation and the request order stream.
struct ClientState {
    rng: StdRng,
    done: Vec<(u64, u64)>,
    fresh: Vec<Coo>,
    uploads: u64,
    kernel_nnz: u64,
}

impl Rig {
    /// One session's closed loop on both connections.
    fn session(
        &mut self,
        pool: &Pool,
        opt: &Options,
        traced: bool,
        session: u64,
    ) -> (Window, Vec<(Kind, OpTimes)>) {
        let barrier = Barrier::new(self.conns.len());
        let seed = opt.seed ^ session.wrapping_mul(0xe703_7ed1_a0b4_28db);
        let results: Vec<(Window, Vec<(Kind, OpTimes)>)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let mut st = ClientState::new(seed, conn.client_id);
                        let mut ops = Vec::new();
                        let mut warm = Window::new();
                        client_round(conn, pool, &mut st, opt, false, &mut warm, &mut ops);
                        barrier.wait();
                        let mut w = Window::new();
                        for _ in 0..SESSION_ROUNDS {
                            client_round(conn, pool, &mut st, opt, traced, &mut w, &mut ops);
                        }
                        w.kernel_nnz = st.kernel_nnz;
                        (w, ops)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut parts = Vec::new();
        let mut traced_ops = Vec::new();
        for (w, ops) in results {
            parts.push(w);
            traced_ops.extend(ops);
        }
        (Window::join(parts, PER_SLICE), traced_ops)
    }

    /// Stops the server (SHUTDOWN drains every in-flight request first),
    /// removes its results log, and returns its final stats and the
    /// summed kernel cycles it charged.
    fn stop(self) -> Result<(StatsSnapshot, u64), String> {
        let mut c = Client::connect(&self.server.addr().to_string(), 0, TIMEOUT_MS)
            .map_err(|e| format!("connect: {e}"))?;
        let ack = c.shutdown(u64::MAX)?;
        if ack.status != Status::Ok {
            return Err(format!("shutdown: {}", ack.status.name()));
        }
        drop(self.conns);
        let stats = self.server.stats();
        let cycles = exposition_value(&self.server.metrics_text(), "stm_serve_kernel_cycles_sum")
            .ok_or("no kernel cycle total in the exposition")?;
        self.server.join();
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("remove {:?}: {e}", self.dir))?;
        Ok((stats, cycles))
    }
}

impl ClientState {
    fn new(seed: u64, client: u64) -> ClientState {
        ClientState {
            rng: StdRng::seed_from_u64(seed ^ client.wrapping_mul(0xa076_1d64_78bd_642f)),
            done: Vec::new(),
            fresh: (0..FRESH)
                .map(|k| workload_matrix(seed, POOL + FRESH * client as usize + k))
                .collect(),
            uploads: 0,
            kernel_nnz: 0,
        }
    }
}

/// One round of one client; ops are recorded into `w` (and `ops` when
/// traced).
fn client_round(
    conn: &mut Conn,
    pool: &Pool,
    st: &mut ClientState,
    opt: &Options,
    traced: bool,
    w: &mut Window,
    ops: &mut Vec<(Kind, OpTimes)>,
) {
    for kind in round(&mut st.rng) {
        let id = conn.next_id();
        let (body, expect, nnz) = match kind {
            Kind::Transpose(m) => (
                RequestBody::Transpose {
                    matrix_id: m as u64 + 1,
                    fault: None,
                },
                Some(pool.transpose[m]),
                pool.coos[m].nnz(),
            ),
            Kind::Spmv(m) => (
                RequestBody::Spmv {
                    matrix_id: m as u64 + 1,
                    fault: None,
                },
                Some(pool.spmv[m]),
                pool.coos[m].nnz(),
            ),
            Kind::Fetch => match st.done.len() {
                0 => continue,
                n => {
                    let (target, digest) = st.done[st.rng.gen_range(0..n)];
                    (RequestBody::Fetch { target }, Some(digest), 0)
                }
            },
            Kind::Submit => {
                let coo = &st.fresh[st.uploads as usize % FRESH];
                st.uploads += 1;
                let matrix_id = (conn.client_id << 48) | (1 << 40) | st.uploads;
                (
                    submit(id, matrix_id, conn.client_id, coo).body,
                    None,
                    coo.nnz(),
                )
            }
        };
        let req = Request {
            request_id: id,
            client_id: conn.client_id,
            body,
        };
        let mut clock = OpClock::start(traced);
        let resp = conn.round_trip(&req, &mut clock);
        let mut t = clock.finish();
        t.stretch(opt.delay_pct);
        let ok = match (&resp, expect) {
            (Ok(r), Some(d)) => r.status == Status::Ok && r.body == ResponseBody::Digest(d),
            (Ok(r), None) => r.status == Status::Ok,
            (Err(_), _) => false,
        };
        if resp.as_ref().is_ok_and(|r| r.status == Status::RetryAfter) {
            w.retried += 1;
        }
        if ok && matches!(kind, Kind::Transpose(_) | Kind::Spmv(_)) {
            st.done
                .push((id, expect.expect("executions carry an oracle")));
        }
        if matches!(kind, Kind::Transpose(_) | Kind::Spmv(_)) && resp.is_ok() {
            st.kernel_nnz += nnz as u64;
        }
        w.record(&t, nnz, ok);
        if traced {
            ops.push((kind, t));
        }
    }
}

/// Reads one integer sample from a Prometheus exposition text.
fn exposition_value(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// Records a traced serve window: the RTT stage spans (conservation is
/// checked per request), RTT per op kind, and the client codec time.
pub fn record(tr: &mut Trace, ops: &[(Kind, OpTimes)]) {
    for (kind, t) in ops {
        tr.op(
            "request",
            t,
            &["serve.encode_us", "serve.exchange_us", "serve.decode_us"],
        );
        tr.sample(kind.layer(), t.wall_us());
        tr.sample("serve.codec_us", (t.part_ns(0) + t.part_ns(2)) as f64 / 1e3);
    }
}

/// Appends per timed results-log probe.
const JOURNAL_APPENDS: usize = 2000;
/// `execute_slot` calls per pool matrix and kernel in the slot probe.
const SLOT_REPS: usize = 8;

/// The serve-side probes of a traced run: `ResultsLog::append` on a fresh
/// log in `dir`, and `execute_slot` on the pool under the server's own
/// run configuration.
pub fn probes(pool: &Pool, dir: &Path, tr: &mut Trace) -> Result<(), String> {
    let path = dir.join("journal-probe.jsonl");
    let (mut log, _) = ResultsLog::open(&path).map_err(|e| format!("journal open: {e}"))?;
    for i in 0..JOURNAL_APPENDS as u64 {
        let rec = ResultRecord {
            request_id: i,
            client_id: 1,
            op: Op::Transpose,
            matrix_id: i % POOL as u64 + 1,
            status: Status::Ok,
            degraded: false,
            corrupted: false,
            digest: pool.transpose[i as usize % POOL],
        };
        let t = Instant::now();
        log.append(&rec)
            .map_err(|e| format!("journal append: {e}"))?;
        tr.sample("serve.journal_us", t.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(log);
    std::fs::remove_file(&path).map_err(|e| format!("remove {path:?}: {e}"))?;

    let run = RunConfig {
        jobs: Some(1),
        backend: Backend::Auto,
        ..RunConfig::default()
    };
    let retry = RetryPolicy::default();
    let entries = pool.entries();
    let mut index = 0;
    for (kernel, layer) in [
        ("transpose_hism", "resil.slot_us.transpose_hism"),
        ("spmv_hism", "resil.slot_us.spmv_hism"),
    ] {
        for _ in 0..SLOT_REPS {
            for entry in &entries {
                index += 1;
                let t = Instant::now();
                let out = execute_slot(
                    &run,
                    &retry,
                    entry,
                    index,
                    kernel,
                    Decision::Run,
                    None,
                    VerifyMode::Off,
                    &Recorder::disabled(),
                );
                let us = t.elapsed().as_nanos() as f64 / 1e3;
                if out.report.is_none() || out.degraded {
                    return Err(format!("slot probe: {kernel} on {} failed", entry.name));
                }
                tr.sample(layer, us);
            }
        }
    }
    Ok(())
}
