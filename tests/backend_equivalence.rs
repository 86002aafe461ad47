//! Three-leg differential validation of the execution backends: for
//! every registry kernel, the cycle-accurate simulator, the forced-scalar
//! host tier and the SIMD host tier must produce byte-identical output
//! digests — over the quick catalogue, over seeded property-test
//! matrices (with shrinking), and with fault injection confined to the
//! leg it was aimed at. A final property pins the forced-scalar vs. auto
//! dispatch contract: identical digests *and* identical trace structure,
//! differing at most in which `host.dispatch.*` counter was bumped.

mod common;

use common::{arb_coo, case_rng};
use stm_core::kernels::registry::{self, Backend, ExecCtx};
use stm_dsab::{experiment_sets, quick_catalogue, SuiteEntry};
use stm_hism::FaultClass;
use stm_obs::{Recorder, TraceData};

/// The deduplicated quick catalogue, in catalogue order.
fn entries() -> Vec<SuiteEntry> {
    let sets = experiment_sets(&quick_catalogue(), 6);
    let mut seen = std::collections::HashSet::new();
    sets.all()
        .filter(|e| seen.insert(e.name.clone()))
        .map(|e| SuiteEntry {
            name: e.name.clone(),
            coo: e.coo.clone(),
            metrics: e.metrics,
        })
        .collect()
}

fn ctx_with(backend: Backend) -> ExecCtx {
    let mut ctx = ExecCtx::paper();
    ctx.backend = backend;
    ctx
}

/// The verified digest of `kernel` on `coo` under `backend`.
fn digest(kernel: &str, coo: &stm_sparse::Coo, backend: Backend) -> Result<u64, String> {
    registry::run_verified(kernel, coo, &ctx_with(backend))
        .map(|r| r.output_digest)
        .map_err(|f| f.to_string())
}

/// The registered kernels with a host-native implementation.
fn host_kernels() -> impl Iterator<Item = &'static str> {
    registry::KERNELS.iter().filter(|k| k.host).map(|k| k.name)
}

#[test]
fn every_kernel_digests_identically_on_all_three_legs_over_the_quick_catalogue() {
    let entries = entries();
    assert!(entries.len() >= 6, "quick catalogue present");
    for entry in &entries {
        for k in registry::KERNELS {
            let kernel = k.name;
            let sim = digest(kernel, &entry.coo, Backend::Sim)
                .unwrap_or_else(|e| panic!("{}/{kernel} sim leg: {e}", entry.name));
            // Host-capable kernels get real second and third legs; the
            // rest must be backend-transparent (auto == sim).
            let legs: &[Backend] = if k.host {
                &[Backend::Scalar, Backend::Simd]
            } else {
                &[Backend::Auto]
            };
            for &backend in legs {
                let host = digest(kernel, &entry.coo, backend).unwrap_or_else(|e| {
                    panic!("{}/{kernel} {} leg: {e}", entry.name, backend.name())
                });
                assert_eq!(
                    host,
                    sim,
                    "{}/{kernel}: {} leg diverged from the simulator",
                    entry.name,
                    backend.name()
                );
            }
        }
    }
}

#[test]
fn three_leg_equality_holds_on_arbitrary_matrices() {
    for case in 0..24 {
        let mut r = case_rng(0xB4C8, case);
        let coo = arb_coo(&mut r, 60, 150);
        for kernel in host_kernels() {
            common::check_coo_property("three_leg_equality", 0xB4C8, case, &coo, |m| {
                let sim = digest(kernel, m, Backend::Sim).unwrap();
                digest(kernel, m, Backend::Scalar).unwrap() == sim
                    && digest(kernel, m, Backend::Simd).unwrap() == sim
            });
        }
    }
}

#[test]
fn a_fault_injected_into_one_leg_never_poisons_the_others() {
    let coo = stm_sparse::gen::random::uniform(128, 128, 2048, 0xFA57);
    for kernel in ["transpose_hism", "spmv_hism"] {
        let clean = digest(kernel, &coo, Backend::Sim).unwrap();
        for (i, &class) in FaultClass::ALL.iter().enumerate() {
            for poisoned in [Backend::Sim, Backend::Scalar, Backend::Simd] {
                // The poisoned leg: its own kernel instance, its own
                // prepared image, a fault injected only here. It may fail
                // typed or produce a divergent digest — both are fine.
                let ctx = ctx_with(poisoned);
                let mut k = registry::create(kernel).unwrap();
                k.prepare(&coo, &ctx).unwrap();
                let injected = k.inject_fault(class, 0xBAD0 + i as u64).is_ok();
                let _ = k.run(&mut ctx.clone());

                // Every other leg, run after the faulted one, must still
                // produce the clean simulator digest.
                for other in [Backend::Sim, Backend::Scalar, Backend::Simd] {
                    if other == poisoned {
                        continue;
                    }
                    let got = digest(kernel, &coo, other).unwrap_or_else(|e| {
                        panic!(
                            "{kernel}: clean {} leg failed after {class:?} on {} \
                             (injected={injected}): {e}",
                            other.name(),
                            poisoned.name()
                        )
                    });
                    assert_eq!(
                        got,
                        clean,
                        "{kernel}: {class:?} on the {} leg leaked into the {} leg",
                        poisoned.name(),
                        other.name()
                    );
                }
            }
        }
    }
}

/// The trace shape: every event minus nothing — host-leg spans carry
/// model-derived (not wall-clock) durations, so scalar and auto dispatch
/// must agree event for event.
fn event_shape(trace: &TraceData) -> Vec<String> {
    trace.events.iter().map(|e| format!("{e:?}")).collect()
}

/// Counters with the `host.dispatch.*` family removed.
fn non_dispatch_counters(trace: &TraceData) -> Vec<(String, u64)> {
    trace
        .counters
        .iter()
        .filter(|(k, _)| !k.starts_with("host.dispatch."))
        .cloned()
        .collect()
}

#[test]
fn forced_scalar_and_auto_dispatch_agree_on_digest_and_trace_structure() {
    let coo = stm_sparse::gen::random::uniform(96, 96, 1500, 0xD15);
    for kernel in host_kernels() {
        let run = |backend: Backend| {
            let mut ctx = ctx_with(backend);
            ctx.obs = Recorder::enabled_default();
            let report = registry::run_verified(kernel, &coo, &ctx).unwrap();
            (report.output_digest, ctx.obs.snapshot())
        };
        let (scalar_digest, scalar_trace) = run(Backend::Scalar);
        let (auto_digest, auto_trace) = run(Backend::Auto);
        assert_eq!(scalar_digest, auto_digest, "{kernel}: digest drifted");
        assert_eq!(
            event_shape(&scalar_trace),
            event_shape(&auto_trace),
            "{kernel}: trace structure drifted between scalar and auto dispatch"
        );
        assert_eq!(
            non_dispatch_counters(&scalar_trace),
            non_dispatch_counters(&auto_trace),
            "{kernel}: non-dispatch counters drifted"
        );
        // Exactly one dispatch per leg, whatever ISA it resolved to.
        let dispatches = |t: &TraceData| -> u64 {
            t.counters
                .iter()
                .filter(|(k, _)| k.starts_with("host.dispatch."))
                .map(|(_, v)| *v)
                .sum()
        };
        assert_eq!(dispatches(&scalar_trace), 1, "{kernel}");
        assert_eq!(dispatches(&auto_trace), 1, "{kernel}");
        assert_eq!(scalar_trace.counter("host.dispatch.scalar"), 1, "{kernel}");
    }
}
