//! Golden-snapshot tests of the trace exporters: the same matrix through
//! the same kernel must serialize to byte-identical JSONL, CSV and
//! Chrome-trace output on every run — and through the batch harness the
//! exported files must not depend on the worker count. Byte determinism
//! is what makes traces diffable artifacts in CI.

use std::collections::BTreeMap;
use std::path::Path;

use hism_stm::obs::Recorder;
use hism_stm::sparse::Coo;
use hism_stm::stm::kernels::registry::{self, ExecCtx};
use stm_bench::harness::{run_set, RunConfig};
use stm_dsab::SuiteEntry;

/// A small fixed matrix — hand-written triplets, no RNG, so the trace
/// contents are pinned by the code alone.
fn fixed_matrix() -> Coo {
    Coo::from_triplets(
        24,
        20,
        vec![
            (0, 0, 1.0),
            (0, 19, -2.5),
            (3, 7, 4.0),
            (5, 5, 0.5),
            (11, 2, -8.0),
            (17, 13, 3.25),
            (23, 0, 7.0),
            (23, 19, -1.0),
        ],
    )
    .unwrap()
}

fn traced_run(name: &str, coo: &Coo) -> hism_stm::obs::TraceData {
    let mut ctx = ExecCtx::paper();
    ctx.obs = Recorder::enabled_default();
    registry::run_verified(name, coo, &ctx).unwrap_or_else(|e| panic!("{name}: {e}"));
    ctx.obs.snapshot()
}

#[test]
fn exporters_are_byte_deterministic_across_runs() {
    let coo = fixed_matrix();
    for name in registry::names() {
        let a = traced_run(name, &coo);
        let b = traced_run(name, &coo);
        assert_eq!(a.to_jsonl(), b.to_jsonl(), "{name}: JSONL drifted");
        assert_eq!(a.to_csv(), b.to_csv(), "{name}: CSV drifted");
        assert_eq!(
            a.to_chrome_trace(),
            b.to_chrome_trace(),
            "{name}: Chrome trace drifted"
        );
        // And not vacuously: the exports actually carry the events.
        assert!(a.to_jsonl().lines().count() > a.events.len(), "{name}");
    }
}

#[test]
fn golden_jsonl_shape_of_the_fixed_matrix() {
    // Pin the cheap structural facts of the snapshot rather than the full
    // byte blob (which would churn on any legitimate schema extension):
    // line count, header-free CSV column count, and the counter names.
    let data = traced_run("transpose_hism", &fixed_matrix());
    let jsonl = data.to_jsonl();
    // One line per event + one per counter + one per histogram + meta.
    assert_eq!(
        jsonl.lines().count() as u64,
        data.events.len() as u64 + data.counters.len() as u64 + data.histograms.len() as u64 + 1,
        "unexpected JSONL line count"
    );
    for line in jsonl.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad line: {line}"
        );
    }
    let csv = data.to_csv();
    let header = csv.lines().next().unwrap();
    let cols = header.split(',').count();
    for (i, line) in csv.lines().enumerate() {
        assert_eq!(line.split(',').count(), cols, "CSV row {i} ragged: {line}");
    }
    // The lifecycle counters must be present under their documented names
    // ("mem.oob_events" is rightly absent — a clean run has none).
    for key in [
        "stage.prepare.bytes",
        "stage.run.bytes",
        "stage.verify.bytes",
        "stage.run.cycles",
        "engine.instructions",
        "engine.elements",
    ] {
        assert!(
            data.counters.iter().any(|(k, _)| k == key),
            "counter {key} missing"
        );
    }
}

/// Read every regular file under `dir` into a name → bytes map.
fn dir_contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().into_string().unwrap();
        out.insert(name, std::fs::read(entry.path()).unwrap());
    }
    out
}

#[test]
fn harness_trace_files_do_not_depend_on_the_worker_count() {
    let tmp = std::env::temp_dir().join(format!("stm-golden-{}", std::process::id()));
    let set: Vec<SuiteEntry> = ["gold-a", "gold-b", "gold-c"]
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let mut coo = fixed_matrix();
            coo.push(k, k, 9.0 + k as f32); // make the three entries distinct
            SuiteEntry {
                name: name.to_string(),
                metrics: hism_stm::sparse::MatrixMetrics::compute(&coo),
                coo,
            }
        })
        .collect();

    let run = |jobs: usize, sub: &str| {
        let dir = tmp.join(sub);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = RunConfig {
            jobs: Some(jobs),
            trace: Some(dir.clone()),
            ..RunConfig::default()
        };
        let results = run_set(&cfg, &set);
        assert!(results.iter().all(|r| r.status.is_ok()));
        // Both kernels of every matrix exported a roll-up.
        assert!(results.iter().all(|r| r.traces.len() == 2));
        dir_contents(&dir)
    };

    let serial = run(1, "serial");
    let parallel = run(4, "parallel");
    assert_eq!(
        serial.keys().collect::<Vec<_>>(),
        parallel.keys().collect::<Vec<_>>(),
        "different file sets"
    );
    // 3 matrices x 2 kernels x 3 formats.
    assert_eq!(serial.len(), 18);
    for (name, bytes) in &serial {
        assert_eq!(
            Some(bytes),
            parallel.get(name),
            "{name}: trace bytes depend on --jobs"
        );
        assert!(!bytes.is_empty(), "{name}: empty trace file");
    }
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn chrome_trace_is_importable_json() {
    let data = traced_run("transpose_crs", &fixed_matrix());
    let chrome = data.to_chrome_trace();
    let json = hism_stm::obs::json::Json::parse(&chrome).expect("chrome trace must parse");
    let events = json
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    // Begin/End pairs become Chrome "B"/"E" or "X" events; counters ride
    // along as "C" events — either way every recorded event is present.
    assert!(events.len() >= data.events.len());
    // displayTimeUnit makes Perfetto show cycle counts, not wall time.
    assert!(chrome.contains("\"displayTimeUnit\""));
}
