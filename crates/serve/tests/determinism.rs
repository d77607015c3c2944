//! Determinism guarantees of the serving simulator, mirroring
//! `crates/sweep/tests/determinism.rs`: the full [`ServeReport`] — every
//! percentile, every per-request record, every queue sample — must be
//! byte-identical (as JSON) for the same seed regardless of thread count,
//! and traces must replay exactly.
//!
//! The simulator itself is single-threaded, but it shares the memoized
//! estimator layer with the rayon-parallel sweep engine; running it under
//! explicitly installed 1- and 8-thread pools (the `RAYON_NUM_THREADS ∈
//! {1, 8}` contract) pins the absence of any thread-count sensitivity in
//! the whole pricing stack.

use optimus_hw::presets;
use optimus_model::presets as models;
use optimus_serve::{ServeConfig, ServeInstance, SloSpec, TraceSpec};
use optimus_units::Time;
use std::sync::Arc;

fn report_json(spec: &TraceSpec) -> String {
    let cluster = presets::dgx_a100_hdr_cluster();
    let config = ServeConfig::new(2).with_slo(SloSpec {
        ttft: Time::from_millis(500.0),
        tpot: Time::from_millis(50.0),
    });
    let instance = ServeInstance::new(&cluster, Arc::new(models::llama2_13b()), config).unwrap();
    let report = instance.simulate(&spec.generate()).unwrap();
    serde_json::to_string(&report).unwrap()
}

/// The same seed must produce a byte-identical report across one thread,
/// eight threads, and repeated runs.
#[test]
fn report_is_byte_identical_across_one_and_eight_threads() {
    let spec = TraceSpec::poisson(1234, 48, 6.0, 180, 24);
    let pool = |n: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
    };
    let one = pool(1).install(|| report_json(&spec));
    let eight = pool(8).install(|| report_json(&spec));
    let default_threads = report_json(&spec);
    let repeat = report_json(&spec);
    assert_eq!(one, eight, "1 thread vs 8 threads");
    assert_eq!(one, default_threads, "1 thread vs default threads");
    assert_eq!(default_threads, repeat, "repeated runs");
}

/// Different seeds must actually change the outcome (the determinism above
/// is not a constant function).
#[test]
fn different_seeds_produce_different_reports() {
    let a = report_json(&TraceSpec::poisson(1, 32, 6.0, 180, 24));
    let b = report_json(&TraceSpec::poisson(2, 32, 6.0, 180, 24));
    assert_ne!(a, b);
}

/// The report round-trips through the serialization layer.
#[test]
fn report_roundtrips_through_json() {
    let cluster = presets::dgx_a100_hdr_cluster();
    let report = ServeInstance::new(&cluster, Arc::new(models::llama2_7b()), ServeConfig::new(1))
        .unwrap()
        .simulate(&TraceSpec::poisson(7, 12, 3.0, 120, 8).generate())
        .unwrap();
    let json = serde_json::to_string(&report).unwrap();
    let back: optimus_serve::ServeReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
}
