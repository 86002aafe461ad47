//! Op timing, in-memory stage spans and per-layer samples.
//!
//! Every workload times its ops through [`OpClock`]. Untraced, an op costs
//! two clock reads. Traced, each stage call inside the op (prepare, run,
//! verify; or encode, exchange, decode for a served request) gets its own
//! pair of reads, so the stages can be checked to add back up to the op's
//! wall time ([`crate::stats::Conservation`]). Spans stay in memory and
//! are written out once the run ends.

use crate::stats::{Clock, Conservation};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::time::Instant;

/// Most stage spans one op carries.
const MAX_PARTS: usize = 3;

/// Times one op and, when traced, each stage call inside it.
pub struct OpClock {
    traced: bool,
    start: Instant,
    parts: [(Instant, Instant); MAX_PARTS],
    n: usize,
}

/// The clock readings of one finished op.
pub struct OpTimes {
    start: Instant,
    end: Instant,
    parts: [(Instant, Instant); MAX_PARTS],
    n: usize,
}

impl OpClock {
    /// Starts an op.
    pub fn start(traced: bool) -> OpClock {
        let start = Instant::now();
        OpClock {
            traced,
            start,
            parts: [(start, start); MAX_PARTS],
            n: 0,
        }
    }

    /// Runs one stage of the op, timing it when traced.
    pub fn part<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if !self.traced {
            return f();
        }
        let s = Instant::now();
        let out = f();
        let e = Instant::now();
        self.parts[self.n] = (s, e);
        self.n += 1;
        out
    }

    /// Ends the op.
    pub fn finish(self) -> OpTimes {
        OpTimes {
            end: Instant::now(),
            start: self.start,
            parts: self.parts,
            n: self.n,
        }
    }
}

impl OpTimes {
    /// The op's wall time, in ns.
    pub fn wall_ns(&self) -> u64 {
        ns(self.start, self.end)
    }

    /// The op's wall time, in µs.
    pub fn wall_us(&self) -> f64 {
        self.wall_ns() as f64 / 1e3
    }

    /// When the op ended.
    pub fn end(&self) -> Instant {
        self.end
    }

    /// The duration of stage `i`, in ns.
    pub fn part_ns(&self, i: usize) -> u64 {
        ns(self.parts[i].0, self.parts[i].1)
    }

    /// Busy-waits inside the op until it has taken `pct` percent longer:
    /// the deliberate slowdown the regression self-test must catch.
    pub fn stretch(&mut self, pct: u32) {
        if pct == 0 {
            return;
        }
        let extra = self.end.duration_since(self.start) * pct / 100;
        let until = self.end + extra;
        while Instant::now() < until {
            std::hint::spin_loop();
        }
        self.end = Instant::now();
    }
}

fn ns(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// One recorded span: an op (`parent == None`) or a stage inside one.
struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Per-layer samples and the span log of a traced run.
pub struct Trace {
    origin: Instant,
    clock: Clock,
    spans: Vec<Span>,
    next_id: u64,
    /// Layer-conservation result over every traced op.
    pub conservation: Conservation,
    samples: BTreeMap<String, Vec<f64>>,
    sums: BTreeMap<String, f64>,
    seen: BTreeSet<String>,
}

impl Trace {
    /// An empty trace with a calibrated clock.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            clock: Clock::calibrate(),
            spans: Vec::new(),
            next_id: 0,
            conservation: Conservation::default(),
            samples: BTreeMap::new(),
            sums: BTreeMap::new(),
            seen: BTreeSet::new(),
        }
    }

    /// Records a traced op named `op` whose stages are the `layers` (one
    /// name per [`OpClock::part`] call, in order; an op that failed part
    /// way uses only the names of the stages it reached): its spans, one
    /// sample per stage under the stage's layer name, and its
    /// conservation check.
    pub fn op(&mut self, op: &'static str, t: &OpTimes, layers: &[&'static str]) {
        let layers = &layers[..t.n];
        let id = self.span(None, op, t.start, t.end);
        let mut parts = [0u64; MAX_PARTS];
        for (i, &layer) in layers.iter().enumerate() {
            self.span(Some(id), layer, t.parts[i].0, t.parts[i].1);
            parts[i] = t.part_ns(i);
            self.sample(layer, parts[i] as f64 / 1e3);
        }
        self.conservation
            .check(&self.clock, t.wall_ns(), &parts[..layers.len()]);
    }

    fn span(&mut self, parent: Option<u64>, name: &'static str, a: Instant, b: Instant) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: ns(self.origin, a),
            end_ns: ns(self.origin, b),
        });
        id
    }

    /// Adds one sample (reported as the median) to layer metric `name`.
    pub fn sample(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_string()).or_default().push(v);
    }

    /// Adds `v` to the running sum `name` (for totals and ratios of sums).
    pub fn add(&mut self, name: &str, v: f64) {
        *self.sums.entry(name.to_string()).or_default() += v;
    }

    /// Adds `v` to the running sum `name` the first time `key` is seen:
    /// a total over distinct ops however often each one repeats.
    pub fn add_once(&mut self, key: String, name: &str, v: f64) {
        if self.seen.insert(key) {
            self.add(name, v);
        }
    }

    /// Takes every sample series and sum `other` has and `self` lacks:
    /// a layer sweep fills in what the workload's own loop did not reach.
    pub fn fill_from(&mut self, other: Trace) {
        for (k, v) in other.samples {
            self.samples.entry(k).or_insert(v);
        }
        for (k, v) in other.sums {
            self.sums.entry(k).or_insert(v);
        }
    }

    /// The samples of layer metric `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Whether layer metric `name` has samples yet.
    pub fn has(&self, name: &str) -> bool {
        !self.samples(name).is_empty()
    }

    /// The running sum `name` (0 when never added to).
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// The calibrated clock the conservation check used.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Writes every span as one JSON line.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
