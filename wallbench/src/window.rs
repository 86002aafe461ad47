//! The timed window of a run and the end-to-end statistics drawn from it.
//!
//! The rate and median come from the op durations with a neighbour's
//! contention filtered out, so that they time the program rather than the
//! machine it shares:
//!
//! * On the campaign workloads every op of a pass (one matrix under one
//!   kernel) recurs in every pass, so each op is timed by the
//!   [`OP_QUANTILE`] of its own durations over the window. The rate is a
//!   pass's nonzeros over the sum of those times, the median is the
//!   median of those times. The tail is taken over every raw duration of
//!   the window: the largest ops recur in every pass, so it is steady.
//! * On `serve-mixed` a request's time depends on the other connection's
//!   requests and the server's queue, which a per-request quantile would
//!   filter out; there the window is cut into slices of a fixed number of
//!   completed requests, and the rate, median and tail are medians over
//!   slices. A tail over the whole window would time the machine: on a
//!   shared 2-vCPU VM, ten runs read 162–556 µs at p99 and 404–1068 µs at
//!   p99.9 (where the per-slice tail spread by 8–11%).

use crate::stats::{hd_quantile, median, sorted, tail, Tail};
use crate::trace::OpTimes;
use std::time::Instant;

/// The quantile of an op's own durations that times it on the campaign
/// workloads. Over five seeds of `host-spmv` on a shared 2-vCPU VM, the
/// raw throughput spread by 0.16 (IQR ÷ median) and the throughput with
/// each op timed by its 10th percentile by 0.04.
pub const OP_QUANTILE: f64 = 0.1;

/// Every duration of one recurring campaign op.
#[derive(Debug, Clone, Default)]
struct OpSeries {
    /// Input nonzeros of the op.
    nnz: u64,
    /// Every duration, in µs.
    us: Vec<f64>,
    /// Every run of the op was verified correct.
    ok: bool,
}

/// One op of the open slice.
struct OpSample {
    end: Instant,
    us: f64,
    /// Input nonzeros when the op was verified correct, else 0.
    nnz: u64,
}

/// A closed slice, reduced to what the summary needs, so a serve
/// window's memory does not grow with the requests it has measured.
#[derive(Debug, Clone, Copy)]
struct Slice {
    seconds: f64,
    nnz: u64,
    p50_us: f64,
    tail: Option<Tail>,
}

impl Slice {
    fn of(a: Instant, b: Instant, ops: &[OpSample]) -> Slice {
        let us = sorted(&ops.iter().map(|o| o.us).collect::<Vec<_>>());
        Slice {
            seconds: b.duration_since(a).as_secs_f64(),
            nnz: ops.iter().map(|o| o.nnz).sum(),
            p50_us: if us.is_empty() {
                f64::NAN
            } else {
                hd_quantile(&us, 0.5)
            },
            tail: tail(&us),
        }
    }
}

/// What a timed window measured.
pub struct Window {
    start: Instant,
    /// Ops not yet in a closed slice.
    open: Vec<OpSample>,
    slices: Vec<Slice>,
    /// The durations of each recurring op (campaign workloads only).
    by_op: Vec<OpSeries>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose output was verified correct.
    pub ok: u64,
    /// Summed `KernelReport` cycles.
    pub cycles: u64,
    /// Summed nonzeros of the kernel runs behind `cycles`.
    pub kernel_nnz: u64,
    /// Requests the server refused with a `RETRY_AFTER` hint.
    pub retried: u64,
}

/// The end-to-end statistics of a window.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Measured time (the slices' summed length), in seconds.
    pub seconds: f64,
    /// Slices the window was cut into.
    pub slices: usize,
    /// Verified input nonzeros.
    pub nnz: u64,
    /// Verified input nonzeros per second, in millions: per recurring op
    /// or per slice (see the module documentation).
    pub mnnz_per_s: f64,
    /// The median op time, in µs: per recurring op or per slice.
    pub op_p50_us: f64,
    /// The tail op time, in µs: over every op of the window, or the
    /// median over slices of the slice's tail.
    pub op_tail_us: f64,
    /// The percentile and sample count of that tail (of the median slice
    /// when taken per slice).
    pub tail: Option<Tail>,
    /// The tail is a median over slices.
    pub tail_per_slice: bool,
}

impl Window {
    /// Starts a window now.
    pub fn new() -> Window {
        Window {
            start: Instant::now(),
            open: Vec::new(),
            slices: Vec::new(),
            by_op: Vec::new(),
            attempted: 0,
            ok: 0,
            cycles: 0,
            kernel_nnz: 0,
            retried: 0,
        }
    }

    /// Records one op.
    pub fn record(&mut self, t: &OpTimes, nnz: usize, ok: bool) {
        self.attempted += 1;
        self.ok += u64::from(ok);
        self.open.push(OpSample {
            end: t.end(),
            us: t.wall_us(),
            nnz: if ok { nnz as u64 } else { 0 },
        });
    }

    /// Records one run of recurring op `op` of a campaign pass.
    pub fn record_op(&mut self, op: usize, t: &OpTimes, nnz: usize, ok: bool) {
        self.record(t, nnz, ok);
        if self.by_op.len() <= op {
            self.by_op.resize(op + 1, OpSeries::default());
        }
        let series = &mut self.by_op[op];
        series.ok = (series.ok || series.us.is_empty()) && ok;
        series.nnz = nnz as u64;
        series.us.push(t.wall_us());
    }

    /// Measured time so far: the closed slices' summed length, in seconds.
    pub fn seconds(&self) -> f64 {
        self.slices.iter().map(|s| s.seconds).sum()
    }

    /// Runs whole passes, one slice each, for as many passes as bring the
    /// window closest to `seconds` (at least one): only whole passes
    /// count, so every run measures the same mix of matrices whatever the
    /// seed.
    pub fn passes(&mut self, seconds: f64, mut pass: impl FnMut(&mut Window, u64)) {
        let mut p = 0;
        let mut last = 0.0;
        while p == 0 || self.seconds() + last / 2.0 < seconds {
            let a = Instant::now();
            pass(self, p);
            let slice = Slice::of(a, Instant::now(), &self.open);
            self.open.clear();
            last = slice.seconds;
            self.slices.push(slice);
            p += 1;
        }
    }

    /// Joins the windows of concurrent connections into one and cuts it
    /// into slices of `per_slice` consecutive completions (the remainder
    /// joins the last slice).
    pub fn join(parts: Vec<Window>, per_slice: usize) -> Window {
        let mut w = Window::new();
        w.start = parts.iter().map(|p| p.start).min().unwrap_or(w.start);
        let mut ops = Vec::new();
        for p in parts {
            w.add_counts(&p);
            ops.extend(p.open);
        }
        ops.sort_by_key(|o| o.end);
        let n = ops.len();
        let k = (n / per_slice).max(1);
        let mut a = w.start;
        for i in 0..k {
            let hi = if i + 1 == k { n } else { (i + 1) * per_slice };
            let chunk = &ops[i * per_slice..hi];
            let b = chunk.last().map_or(a, |o| o.end);
            w.slices.push(Slice::of(a, b, chunk));
            a = b;
        }
        w
    }

    /// Appends a later window (the next serve session) to this one.
    pub fn extend(&mut self, later: Window) {
        self.add_counts(&later);
        self.slices.extend(later.slices);
    }

    fn add_counts(&mut self, o: &Window) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.cycles += o.cycles;
        self.kernel_nnz += o.kernel_nnz;
        self.retried += o.retried;
    }

    /// The end-to-end statistics.
    pub fn summary(&self) -> Summary {
        let of = |f: &dyn Fn(&Slice) -> Option<f64>| {
            let v: Vec<f64> = self.slices.iter().filter_map(f).collect();
            if v.is_empty() {
                f64::NAN
            } else {
                median(&v)
            }
        };
        let tail_per_slice = self.by_op.is_empty();
        let (mnnz_per_s, op_p50_us, tail) = if tail_per_slice {
            let mut tails: Vec<Tail> = self.slices.iter().filter_map(|s| s.tail).collect();
            tails.sort_by(|a, b| a.value.total_cmp(&b.value));
            (
                of(&|s| Some(s.nnz as f64 / s.seconds / 1e6)),
                of(&|s| Some(s.p50_us)),
                tails.get(tails.len().saturating_sub(1) / 2).copied(),
            )
        } else {
            self.per_op()
        };
        Summary {
            seconds: self.seconds(),
            slices: self.slices.len(),
            nnz: self.slices.iter().map(|s| s.nnz).sum(),
            mnnz_per_s,
            op_p50_us,
            op_tail_us: if tail_per_slice {
                of(&|s| s.tail.map(|t| t.value))
            } else {
                tail.map_or(f64::NAN, |t| t.value)
            },
            tail,
            tail_per_slice,
        }
    }

    /// The rate and median of the recurring ops, each timed by the
    /// [`OP_QUANTILE`] of its durations: a pass's verified nonzeros per
    /// µs (millions per second) over the sum of the op times, and the
    /// median op time; and the tail over every duration.
    fn per_op(&self) -> (f64, f64, Option<Tail>) {
        let ran: Vec<&OpSeries> = self.by_op.iter().filter(|o| !o.us.is_empty()).collect();
        let us: Vec<f64> = ran
            .iter()
            .map(|o| hd_quantile(&sorted(&o.us), OP_QUANTILE))
            .collect();
        let nnz: u64 = ran.iter().filter(|o| o.ok).map(|o| o.nnz).sum();
        let all: Vec<f64> = ran.iter().flat_map(|o| o.us.iter().copied()).collect();
        (
            nnz as f64 / us.iter().sum::<f64>(),
            hd_quantile(&sorted(&us), 0.5),
            tail(&sorted(&all)),
        )
    }
}
